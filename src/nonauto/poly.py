"""Dense complex polynomials with overflow-safe scaled evaluation.

A polynomial is a tuple of complex coefficients in ascending powers plus an
optional power-of-two scale, so generators can express leading factors far
outside double range (think n**2**n) while every stored coefficient stays a
finite double.  Orbit values that leave double range are handled by
ScaledComplex, a complex mantissa in [1,2) with an unbounded integer base-2
exponent.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

LN2 = math.log(2.0)
EPS = 2.220446049250313e-16

_CHEBYSHEV_CAP = 1000  # leading coefficient 2**(n-1) must stay a finite double


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


def evaluate(p: Polynomial, z: complex) -> complex:
    """Horner evaluation in plain doubles; raises MagnitudeOverflow on leaving range."""
    z = complex(z)
    if not _is_finite(z):
        raise ValueError("evaluation point must be finite")
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c
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

    def __mul__(self, other):
        if isinstance(other, ScaledComplex):
            if self.mantissa == 0 or other.mantissa == 0:
                return _ZERO
            return _norm(self.mantissa * other.mantissa, self.exponent + other.exponent)
        return self * ScaledComplex.from_complex(other)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        a, b = self, other
        if a.mantissa == 0:
            return b
        if b.mantissa == 0:
            return a
        shift = a.exponent - b.exponent
        if shift < 0:
            a, b, shift = b, a, -shift
        if shift > 128:  # smaller term below one ulp of the larger
            return a
        m = a.mantissa + complex(math.ldexp(b.mantissa.real, -shift), math.ldexp(b.mantissa.imag, -shift))
        return _norm(m, a.exponent)

    def __neg__(self):
        return ScaledComplex(-self.mantissa, self.exponent)

    def __sub__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        return self + (-other)


def _norm(m: complex, e: int) -> ScaledComplex:
    a = abs(m)
    if a == 0.0:
        return ScaledComplex(0j, 0)
    k = math.frexp(a)[1] - 1  # floor(log2 |m|)
    if k:
        m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))
    return ScaledComplex(m, e + k)


_ZERO = ScaledComplex(0j, 0)


def evaluate_scaled(p: Polynomial, w: ScaledComplex) -> ScaledComplex:
    """Horner evaluation that never overflows; exact up to per-step rounding.

    Bit-identical to the Horner loop `acc = acc * w + c` over ScaledComplex
    operands, but the accumulator is a local (mantissa, exponent) pair,
    normalized in the same order as ScaledComplex.__mul__ / __add__ (a term
    more than 128 binades below the other is dropped), so one object is
    built per call instead of several per coefficient.
    """
    frexp, ldexp = math.frexp, math.ldexp
    wm, we = w.mantissa, w.exponent
    w_zero = wm == 0
    lead = _norm(complex(p.coeffs[-1]), 0)
    m, e = lead.mantissa, lead.exponent
    for c in p.coeffs[-2::-1]:
        # acc * w
        if w_zero or m == 0:
            m, e = 0j, 0
        else:
            m *= wm
            e += we
            a = abs(m)
            if a == 0.0:
                m, e = 0j, 0
            else:
                k = frexp(a)[1] - 1
                if k:
                    m = complex(ldexp(m.real, -k), ldexp(m.imag, -k))
                    e += k
        # + c, normalizing c only when it is not dropped
        if c == 0:
            continue
        ce = frexp(abs(c))[1] - 1
        shift = e - ce
        if m != 0 and shift > 128:  # c below one ulp of acc
            continue
        cm = complex(ldexp(c.real, -ce), ldexp(c.imag, -ce)) if ce else complex(c)
        if m == 0 or shift < -128:  # acc is zero, or below one ulp of c
            m, e = cm, ce
            continue
        if shift < 0:
            m, cm, e, shift = cm, m, ce, -shift
        m += complex(ldexp(cm.real, -shift), ldexp(cm.imag, -shift))
        a = abs(m)
        if a == 0.0:
            m, e = 0j, 0
        else:
            k = frexp(a)[1] - 1
            if k:
                m = complex(ldexp(m.real, -k), ldexp(m.imag, -k))
                e += k
    if p.scale2 and m != 0:
        e += p.scale2
    return ScaledComplex(m, e)


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
    lead = abs(p.coeffs[-1])
    return 1.0 + max(abs(c) for c in p.coeffs[:-1]) / lead


def coeffs_close(p: Polynomial, q: Polynomial, rel: float = 1e-9, floor: float = 1e-12) -> bool:
    """Coefficient-wise comparison with relative tolerance and absolute floor."""
    if p.degree != q.degree or p.scale2 != q.scale2:
        return False
    for a, b in zip(p.coeffs, q.coeffs):
        if abs(a - b) > max(floor, rel * max(abs(a), abs(b))):
            return False
    return True
