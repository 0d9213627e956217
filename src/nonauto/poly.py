"""Dense complex polynomials with overflow-safe scaled evaluation.

A polynomial is a tuple of complex coefficients in ascending powers plus an
optional power-of-two scale, so generators can express leading factors far
outside double range (think n**2**n) while every stored coefficient stays a
finite double.  Orbit values of any size are carried as ScaledComplex, a
complex mantissa in [1,2) with an unbounded integer base-2 exponent, and
stepped by evaluate_scaled, the step rule every orbit engine shares.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

LN2 = math.log(2.0)
EPS = 2.220446049250313e-16

_CHEBYSHEV_CAP = 1000  # leading coefficient 2**(n-1) must stay a finite double
# The safe double band: 2**BAND_MIN_EXP <= |w| < 2**1024.  Underflow in the
# intermediates of a double Horner costs at most 2**-1074 per operation,
# far below the rounding of a value at least this large.
BAND_MIN_EXP = -900
BAND_LOW = 2.0**BAND_MIN_EXP


class MagnitudeOverflow(ArithmeticError):
    """Plain double evaluation left the finite range; switch to evaluate_scaled."""


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class Polynomial:
    """value(z) = 2**scale2 * sum(coeffs[j] * z**j).

    Invariants: every coefficient finite, the last one nonzero unless the
    tuple has exactly one entry (constants, including the zero polynomial).
    """

    coeffs: tuple[complex, ...]
    scale2: int = 0

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if any(not _is_finite(c) for c in self.coeffs):
            raise ValueError("non-finite coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)


def polynomial(*coeffs, scale2: int = 0) -> Polynomial:
    """Build a polynomial from ascending coefficients, trimming trailing zeros."""
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return Polynomial(tuple(cs), scale2)


def identity() -> Polynomial:
    return Polynomial((0j, 1 + 0j))


def monomial(power: int, coefficient: complex = 1.0, scale2: int = 0) -> Polynomial:
    if power < 0:
        raise ValueError("power must be >= 0")
    return Polynomial((0j,) * power + (complex(coefficient),), scale2)


def _horner(coeffs, z: complex) -> complex:
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def evaluate(p: Polynomial, z: complex) -> complex:
    """Horner evaluation in plain doubles; raises MagnitudeOverflow on leaving range."""
    z = complex(z)
    if not _is_finite(z):
        raise ValueError("evaluation point must be finite")
    acc = _horner(p.coeffs, z)
    if p.scale2:
        try:
            acc = complex(math.ldexp(acc.real, p.scale2), math.ldexp(acc.imag, p.scale2))
        except OverflowError as exc:
            raise MagnitudeOverflow(f"2**{p.scale2} scale leaves double range") from exc
    if not _is_finite(acc):
        raise MagnitudeOverflow(f"|p(z)| overflows doubles at z={z!r}")
    return acc


@dataclass(frozen=True)
class ScaledComplex:
    """value = mantissa * 2**exponent with |mantissa| in [1,2), or exactly 0."""

    mantissa: complex
    exponent: int

    @staticmethod
    def from_complex(z: complex, exponent: int = 0) -> "ScaledComplex":
        z = complex(z)
        if not _is_finite(z):
            raise ValueError("non-finite value")
        return _norm(z, exponent)

    def to_complex(self) -> complex:
        if self.mantissa == 0:
            return 0j
        if not -1074 < self.exponent < 1023:
            raise MagnitudeOverflow(f"2**{self.exponent} outside double range")
        return complex(
            math.ldexp(self.mantissa.real, self.exponent),
            math.ldexp(self.mantissa.imag, self.exponent),
        )

    def log_abs(self) -> float:
        """ln|value|; -inf for zero, +/-inf when the exponent dwarfs float range."""
        if self.mantissa == 0:
            return -math.inf
        try:
            e = float(self.exponent)
        except OverflowError:
            e = math.inf if self.exponent > 0 else -math.inf
        return e * LN2 + math.log(abs(self.mantissa))

    def exceeds(self, r: float) -> bool:
        """|value| > r, robust for any exponent size (r > 0)."""
        if self.mantissa == 0:
            return r < 0
        if self.exponent > 4096:
            return True
        if self.exponent < -4096:
            return False
        return self.log_abs() > math.log(r)


def _norm(m: complex, e: int) -> ScaledComplex:
    """m * 2**e normalized.  Scaling by the larger part's binade first keeps
    the modulus finite for every finite m (abs() overflows past 1.8e308)."""
    top = max(abs(m.real), abs(m.imag))
    if top == 0.0:
        return _ZERO
    k = math.frexp(top)[1] - 1
    m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))  # larger part in [1, 2)
    if abs(m) >= 2.0:
        m, k = complex(0.5 * m.real, 0.5 * m.imag), k + 1
    return ScaledComplex(m, e + k)


_ZERO = ScaledComplex(0j, 0)


def evaluate_scaled(p: Polynomial, w: ScaledComplex) -> ScaledComplex:
    """p(w) for w of any size, to within the rounding of a double Horner.

    The one step rule of every orbit engine.  In the band (|w| at least
    2**BAND_MIN_EXP and below 2**1024) the double Horner runs on w and is
    kept when its modulus is finite and in the band too.  Otherwise, with
    w = m * 2**e, the same Horner runs on a variable of modulus at most 1:
    - above the band (e >= 0): p(w) = w**d * sum a_j w**(j-d), by Horner over
      the ascending coefficients at 1/w;
    - below it: p(w) = w**v q(w), with v the valuation of p.
    Where coefficients near 1.8e308 overflow that Horner, it reruns on them
    scaled by 2**-s, s the binade of the largest, and s joins the exponent.
    No term is dropped unless it sits below the rounding of the kept ones,
    and the exponent is an unbounded integer.
    """
    return _evaluate(p, w, False)[0]


def evaluate_conditioned(p: Polynomial, w: ScaledComplex) -> tuple[ScaledComplex, float]:
    """(evaluate_scaled(p, w), mu), mu = sum |a_j w**j| / |p(w)| from the same
    Horner pass (inf at a computed zero away from 0).  The value's relative
    error is at most about 2 deg(p) eps mu (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1)."""
    return _evaluate(p, w, True)


def _horner_abs(coeffs, x: complex, cond: bool) -> tuple[complex, float]:
    """(Horner value, sum |c_j| |x|**j if cond else 0.0) in one pass, inf past 1.8e308."""
    if not cond:
        return _horner(coeffs, x), 0.0
    acc = coeffs[-1]
    try:
        s, ax = abs(acc), abs(x)
        for c in coeffs[-2::-1]:
            acc = acc * x + c
            s = s * ax + abs(c)
    except OverflowError:
        return acc, math.inf
    return acc, s


def _evaluate(p: Polynomial, w: ScaledComplex, cond: bool) -> tuple[ScaledComplex, float]:
    m, e = w.mantissa, w.exponent
    if m == 0:
        return _norm(p.coeffs[0], p.scale2), 1.0  # p(0) = a_0 exactly
    if BAND_MIN_EXP <= e <= 1023:
        h, s = _horner_abs(p.coeffs, _ldexp_c(m, e), cond)
        a = math.hypot(h.real, h.imag)
        if BAND_LOW <= a < math.inf and s < math.inf:
            return _norm(h, p.scale2), s / a
    big = e >= 0  # x = 1/w over the reversed coefficients, else w over those of q
    k = p.degree if big else next((j for j, c in enumerate(p.coeffs) if c), 0)
    coeffs, x = (p.coeffs[::-1], _ldexp_c(1 / m, -e)) if big else (p.coeffs[k:], _ldexp_c(m, e))
    h, s = _horner_abs(coeffs, x, cond)
    shift = 0
    if not (_is_finite(h) and s < math.inf):
        shift = max(math.frexp(max(abs(c.real), abs(c.imag)))[1] for c in coeffs)
        h, s = _horner_abs([_ldexp_c(c, -shift) for c in coeffs], x, cond)
    # m**k as 2**(k log2|m|) at phase k arg(m), on the normalized value: nothing overflows
    lm = k * math.log2(abs(m))
    ik = math.floor(lm)
    a = math.hypot(h.real, h.imag)
    h = _norm(h, e * k + ik + p.scale2 + shift)
    out = _norm(h.mantissa * cmath.rect(2.0 ** (lm - ik), k * cmath.phase(m)), h.exponent)
    return out, (s / a if a else math.inf)


def compose(p: Polynomial, q: Polynomial) -> Polynomial:
    """p o q by Horner over polynomial arithmetic; deg = deg p * deg q."""
    qc = list(q.coeffs)
    if q.scale2:
        qc = [_ldexp_c(c, q.scale2) for c in qc]
    pc = list(p.coeffs)
    acc = [pc[-1]]
    for c in reversed(pc[:-1]):
        acc = _poly_mul(acc, qc)
        acc[0] += c
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    if any(not _is_finite(c) for c in acc):
        raise MagnitudeOverflow("composition coefficients overflow doubles")
    return Polynomial(tuple(acc), p.scale2)


def _poly_mul(a: list, b: list) -> list:
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _ldexp_c(c: complex, s: int) -> complex:
    try:
        return complex(math.ldexp(c.real, s), math.ldexp(c.imag, s))
    except OverflowError as exc:
        raise MagnitudeOverflow("power-of-two scale overflows doubles") from exc


# monic minimal polynomials on [-1,1]: t_0 := 1, t_1 = z,
# t_2 = z t_1 - t_0/2, then t_{k+1} = z t_k - t_{k-1}/4
_min_cache: list[Polynomial] = [Polynomial((1 + 0j,)), Polynomial((0j, 1 + 0j))]


def chebyshev_minimal(n: int) -> Polynomial:
    """Monic minimizer of the sup norm on [-1,1] (classical T_n / 2**(n-1)).

    The monic recurrence keeps coefficients dyadic and exact while their
    numerators fit 53 bits; unlike T_n's integer coefficients they stay far
    from double range, so deep compositions remain constructible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _CHEBYSHEV_CAP:
        raise ValueError(f"chebyshev_minimal capped at n <= {_CHEBYSHEV_CAP}")
    while len(_min_cache) <= n:
        k = len(_min_cache) - 1
        tk = _min_cache[k].coeffs
        tk1 = _min_cache[k - 1].coeffs
        c = 0.5 if k == 1 else 0.25
        nxt = [0j] + list(tk)
        for j, v in enumerate(tk1):
            nxt[j] -= c * v
        _min_cache.append(Polynomial(tuple(nxt)))
    return _min_cache[n]


def chebyshev_t(n: int) -> Polynomial:
    """Degree-n classical Chebyshev polynomial (leading coefficient 2**(n-1)).

    Scaled up exactly from the monic recurrence; when an integer coefficient
    would leave double range (n around 800) the power-of-two factor moves
    into scale2 instead, keeping stored coefficients finite.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _CHEBYSHEV_CAP:
        raise ValueError(f"chebyshev_t capped at n <= {_CHEBYSHEV_CAP}")
    if n == 0:
        return _min_cache[0]
    t = chebyshev_minimal(n)
    if n == 1:
        return t
    try:
        return Polynomial(tuple(_ldexp_c(c, n - 1) for c in t.coeffs))
    except MagnitudeOverflow:
        return Polynomial(t.coeffs, scale2=n - 1)


def cauchy_root_bound(p: Polynomial) -> float:
    """1 + max |a_j| / |a_d|: every zero of p lies in the closed disk of this radius."""
    if p.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    return 1.0 + max(modulus_ratios(p.coeffs[:-1], p.coeffs[-1]))


def modulus_ratios(values, lead: complex) -> list[float]:
    """|v| / |lead| for each finite v (lead nonzero); inf past double range.

    abs() raises OverflowError on a modulus past 1.8e308 although both parts
    are finite.  Then every modulus is taken through _norm, whose scaling by
    the larger part's binade keeps it finite, and each quotient is formed
    from mantissas and exponents.
    """
    try:
        top = abs(lead)
        return [abs(v) / top for v in values]
    except OverflowError:
        pass
    b = _norm(complex(lead), 0)
    out = []
    for v in values:
        a = _norm(complex(v), 0)
        try:
            out.append(math.ldexp(abs(a.mantissa) / abs(b.mantissa), a.exponent - b.exponent))
        except OverflowError:
            out.append(math.inf)
    return out


def coeffs_close(p: Polynomial, q: Polynomial, rel: float = 1e-9, floor: float = 1e-12) -> bool:
    """Coefficient-wise comparison with relative tolerance and absolute floor."""
    if p.degree != q.degree or p.scale2 != q.scale2:
        return False
    for a, b in zip(p.coeffs, q.coeffs):
        if abs(a - b) > max(floor, rel * max(abs(a), abs(b))):
            return False
    return True
