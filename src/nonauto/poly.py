"""Dense complex polynomials with overflow-safe scaled evaluation.

A polynomial is a tuple of complex coefficients in ascending powers plus an
optional power-of-two scale, so generators can express leading factors far
outside double range (think n**2**n) while every stored coefficient stays a
finite double.  An orbit value of any size is carried as the vector
engines' lanes carry it: the double itself inside the safe band, else a
complex mantissa in [1,2) with an unbounded integer base-2 exponent.
_evaluate steps that carrier by the rule every orbit engine shares, and
evaluate_scaled is its wrapper on ScaledComplex values.  The array engines
read a polynomial's step facts from its _StepMeta, built once and kept on
it; their carrier helpers (_ldexp_arr, _normalize) sit beside _ldexp_c and _split.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    @cached_property
    def meta(self) -> _StepMeta:
        """The step facts the array engines read, built on first use and kept."""
        return _StepMeta(self)


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
        return ScaledComplex(*_split(z, exponent))

    def to_complex(self) -> complex:
        if self.mantissa == 0:
            return 0j
        if not -1074 < self.exponent < 1023:
            raise MagnitudeOverflow(f"2**{self.exponent} outside double range")
        return _ldexp_c(self.mantissa, self.exponent)

    def log_abs(self) -> float:
        """ln|value|; -inf for zero, +/-inf when the exponent dwarfs float range."""
        if self.mantissa == 0:
            return -math.inf
        try:
            e = float(self.exponent)
        except OverflowError:
            e = math.inf if self.exponent > 0 else -math.inf
        return e * LN2 + math.log(abs(self.mantissa))


def _split(m: complex, e: int) -> tuple[complex, int]:
    """(mantissa, exponent) of m * 2**e, |mantissa| in [1, 2), (0j, 0) for 0;
    scaling by the larger part's binade first keeps every finite m's modulus finite."""
    top = max(abs(m.real), abs(m.imag))
    if top == 0.0:
        return 0j, 0
    k = math.frexp(top)[1] - 1
    m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))  # larger part in [1, 2)
    if abs(m) >= 2.0:
        m, k = complex(0.5 * m.real, 0.5 * m.imag), k + 1
    return m, e + k


def _carry(h: complex, e: int) -> tuple[complex, int]:
    """h * 2**e as an orbit engine carries it: the double itself with exponent
    0 in the band, else _split's mantissa and exponent."""
    m, k = _split(h, e)
    if BAND_MIN_EXP <= k <= 1023:
        return _ldexp_c(m, k), 0
    return m, k


def evaluate_scaled(p: Polynomial, w: ScaledComplex) -> ScaledComplex:
    """p(w) for w of any size, to within the rounding of a double Horner: one
    step of _evaluate, the orbit engines' rule, on ScaledComplex values."""
    h, e, _ = _evaluate(p, *_carry(w.mantissa, w.exponent))
    return ScaledComplex(*_split(h, e))


def _horner_abs(coeffs, x: complex) -> tuple[complex, float]:
    """(Horner value, sum |c_j| |x|**j) in one pass; the sum is inf past 1.8e308."""
    acc = coeffs[-1]
    try:
        s, ax = abs(acc), abs(x)
        for c in coeffs[-2::-1]:
            acc = acc * x + c
            s = s * ax + abs(c)
    except OverflowError:
        return _horner(coeffs, x), math.inf
    return acc, s


def _evaluate(p: Polynomial, w: complex, e: int) -> tuple[complex, int, float]:
    """One step of the orbit engines' rule: (w, e) in, (w', e', mu) out.

    w * 2**e is carried as a vector engine's lane carries it: in the band
    (2**BAND_MIN_EXP <= |w| < 2**1024) the double itself with e = 0, else a
    mantissa |w| in [1, 2) and an unbounded integer exponent.  With e = 0 the
    double Horner is kept when its modulus is in the band too (or w = 0,
    where it is a_0 exactly); the rest runs _far.  mu = sum |a_j w**j| /
    |p(w)| from the same pass (inf at a computed zero away from 0) bounds the
    relative error by about 2 deg(p) eps mu (Higham, Accuracy and Stability
    of Numerical Algorithms, 5.1).
    """
    if not e:
        h, s = _horner_abs(p.coeffs, w)
        a = math.hypot(h.real, h.imag)
        band = BAND_LOW <= a < math.inf
        if band or w == 0:  # a sum past 1.8e308 is taken again, scaled, by _far
            mu = 1.0 if w == 0 else s / a if s < math.inf else _far(p, *_split(w, 0))[2]
            return (h, 0, mu) if band and not p.scale2 else (*_carry(h, p.scale2), mu)
        w, e = _split(w, 0)
    return _far(p, w, e)


def _far(p: Polynomial, m: complex, e: int) -> tuple[complex, int, float]:
    """_evaluate at w = m * 2**e, |m| in [1, 2), by a Horner on |x| <= 1: for
    e >= 0, p(w) = w**d * sum a_j w**(j-d) over the ascending coefficients at
    x = 1/w; for e < 0, p(w) = w**v q(w), v the valuation of p, at x = w.  Where
    coefficients near 1.8e308 overflow that Horner, it reruns on them scaled
    by 2**-s, s the binade of the largest, and s joins the exponent.  No term
    is dropped unless it sits below the rounding of the kept ones."""
    big = e >= 0
    k = p.degree if big else next((j for j, c in enumerate(p.coeffs) if c), 0)
    coeffs, x = (p.coeffs[::-1], _ldexp_c(1 / m, -e)) if big else (p.coeffs[k:], _ldexp_c(m, e))
    h, s = _horner_abs(coeffs, x)
    shift = 0
    if not (_is_finite(h) and s < math.inf):
        shift = max(math.frexp(max(abs(c.real), abs(c.imag)))[1] for c in coeffs)
        h, s = _horner_abs([_ldexp_c(c, -shift) for c in coeffs], x)
    # m**k as 2**(k log2|m|) at phase k arg(m), on the normalized value: nothing overflows
    lm = k * math.log2(abs(m))
    ik = math.floor(lm)
    a = math.hypot(h.real, h.imag)
    h, he = _split(h, e * k + ik + p.scale2 + shift)
    return (*_carry(h * cmath.rect(2.0 ** (lm - ik), k * cmath.phase(m)), he),
            s / a if a else math.inf)


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


def _ldexp_arr(z: np.ndarray, k) -> np.ndarray:
    """z * 2**k over arrays; k is clipped to +-4000, past which every finite z
    flushes or overflows alike."""
    k = np.clip(k, -4000, 4000).astype(np.int64)
    out = np.empty_like(z)
    out.real, out.imag = np.ldexp(z.real, k), np.ldexp(z.imag, k)
    return out


def _normalize(h: np.ndarray, e) -> tuple[np.ndarray, np.ndarray]:
    """_split over arrays: (m, e') with m * 2**e' = h * 2**e and |m| in [1, 2);
    zero gives (0, 0)."""
    top = np.maximum(np.abs(h.real), np.abs(h.imag))
    k = np.frexp(top)[1] - 1.0
    m = _ldexp_arr(h, -k)                 # larger part in [1, 2), modulus finite
    half = np.abs(m) >= 2.0
    m[half] *= 0.5
    k[half] += 1.0
    return m, np.where(top == 0, 0.0, e + k)


def _log2_moduli(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j, log2|c_j|) over the nonzero c_j; finite even where |c_j| passes 1.8e308."""
    j = np.flatnonzero(c)
    m, ex = _normalize(c[j], 0.0)
    return j, np.log2(np.abs(m)) + ex


class _StepMeta:
    """What an array step reads of p: its coefficients as a read-only array,
    degree, scale2, log|lead| (scale included), valuation, log_safe and the
    parity split.  A pure function of p, kept on it as Polynomial.meta."""

    __slots__ = ("coeffs", "degree", "scale2", "lead_log", "valuation", "log_safe",
                 "parity_sub", "parity_rem")

    def __init__(self, p: Polynomial):
        c = np.asarray(p.coeffs, dtype=np.complex128)
        c.flags.writeable = False  # shared by every call that steps by p
        self.coeffs = c
        self.degree = d = p.degree
        self.scale2 = p.scale2
        idx, mag = _log2_moduli(c)
        self.valuation = int(idx[0]) if idx.size else 0
        lead2 = float(mag[-1]) + p.scale2
        self.lead_log = lead2 * LN2
        # from |w| = 2**log_safe on, each dropped term a_j w**j is below
        # 2**-53/d of a_d w**d, and |p(w)| >= 2|w|
        drop = ((mag[:-1] - mag[-1] + math.log2(d) + 53) / (d - idx[:-1])).max(initial=-math.inf)
        grow = (1 - lead2) / (d - 1) if d > 1 else (-math.inf if lead2 >= 1 else math.inf)
        self.log_safe = max(float(drop), grow)
        rem = d % 2
        if d >= 4 and idx.size and bool(np.all(idx % 2 == rem)):
            self.parity_sub = c[rem::2]
            self.parity_rem = rem
        else:
            self.parity_sub = None
            self.parity_rem = 0


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
    are finite.  Then every modulus is taken through _split, whose scaling by
    the larger part's binade keeps it finite, and each quotient is formed
    from mantissas and exponents.
    """
    try:
        top = abs(lead)
        return [abs(v) / top for v in values]
    except OverflowError:
        pass
    bm, be = _split(complex(lead), 0)
    out = []
    for v in values:
        am, ae = _split(complex(v), 0)
        try:
            out.append(math.ldexp(abs(am) / abs(bm), ae - be))
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
