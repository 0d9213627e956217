"""Dense complex polynomials with overflow-safe scaled evaluation.

A polynomial is a tuple of complex coefficients in ascending powers plus an
optional power-of-two scale, so generators can express leading factors far
outside double range (think n**2**n) while every stored coefficient stays a
finite double.  Its facts (the coefficient array, valuation, lead_log, log_tiny,
log_safe, binade, parity, real, the Cauchy root bound, the deviation from c T_d)
are computed once and kept on it, and every engine steps by the polynomial itself.
An orbit value of any size is carried as the vector engines' lanes carry it:
the double itself inside the safe band, else a complex mantissa in [1,2) with
an unbounded integer base-2 exponent.  _evaluate steps that carrier by the
rule every orbit engine shares: a double Horner in the band; off it (_far) the
lowest term alone below log_tiny, the lead alone from log_safe on, else a
Horner on a rescaled variable.  A band step whose Horner would land below
the band (_below_band, read off log_tiny and the lowest term before it runs)
goes to _far at once, with the same bits.  evaluate is its one step from a
double to a double, and evaluate_scaled from ScaledComplex to ScaledComplex.
The module builds and evaluates polynomials; it does not compose them.  The array
carrier helpers (_ldexp_arr, _normalize) sit beside _ldexp_c and _split.
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

    @cached_property
    def array(self) -> np.ndarray:
        """The coefficients as a read-only complex128 array, shared by every step by p; kept."""
        c = np.asarray(self.coeffs, dtype=np.complex128)
        c.flags.writeable = False
        return c

    @cached_property
    def parity(self) -> int | None:
        """degree % 2 when every nonzero coefficient's index has the degree's parity
        (0 for constants), else None; kept."""
        d = self.degree
        return d % 2 if d == 0 or not any(self.coeffs[d - 1::-2]) else None

    @cached_property
    def real(self) -> bool:
        """Every coefficient real; kept."""
        return not any(c.imag for c in self.coeffs)

    @cached_property
    def root_bound(self) -> float:
        """Cauchy's 1 + max |a_j| / |a_d|, at least every zero's modulus; kept for the circles."""
        if self.degree < 1:
            raise ValueError("root bound needs degree >= 1")
        return 1.0 + max(modulus_ratios(self.coeffs[:-1], self.coeffs[-1]))

    @cached_property
    def _moduli(self) -> tuple[np.ndarray, np.ndarray]:
        """_log2_moduli of the whole coefficient tuple, once: valuation, lead_log, log_tiny,
        log_safe, _below_band and Preimage._pullback read it.  It does not build array, which
        a map that only the scalar step reaches never needs."""
        return _log2_moduli(np.asarray(self.coeffs, dtype=np.complex128))

    @cached_property
    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero polynomial); kept."""
        j = self._moduli[0]
        return int(j[0]) if j.size else 0

    @cached_property
    def lead_log(self) -> float:
        """log|lead|, scale included, finite past 1.8e308; kept."""
        return (float(self._moduli[1][-1]) + self.scale2) * LN2

    @cached_property
    def log_tiny(self) -> float:
        """log2|w| below which each term a_j w**j, j > v, is below 2**-53/d of a_v w**v,
        v the valuation: there the engines drop the higher terms (inf with fewer than two
        nonzero terms); log_safe's mirror, from the same pass; kept."""
        j, mag = self._moduli
        if j.size < 2:
            return math.inf
        return float(((mag[0] - mag[1:] - math.log2(self.degree) - 53) / (j[1:] - j[0])).min())

    @cached_property
    def log_safe(self) -> float:
        """log2|w| from which each term a_j w**j, j < d, is below 2**-53/d of a_d w**d,
        and |p(w)| >= 2|w|: past it the engines drop the lower terms (inf for constants,
        which never grow); kept."""
        if self.degree < 1:
            return math.inf
        j, mag = self._moduli
        d, lead2 = self.degree, float(mag[-1]) + self.scale2
        drop = ((mag[:-1] - mag[-1] + math.log2(d) + 53) / (d - j[:-1])).max(initial=-math.inf)
        grow = (1 - lead2) / (d - 1) if d > 1 else (-math.inf if lead2 >= 1 else math.inf)
        return max(float(drop), grow)

    @cached_property
    def binade(self) -> int:
        """s with the largest coefficient part in [2**(s-1), 2**s): every Horner that
        overflows on coefficients near 1.8e308 reruns on them scaled by 2**-s; kept."""
        return int(np.frexp(np.abs(self.array.view(np.float64)).max())[1])

    @cached_property
    def chebyshev_error(self) -> float:
        """Least g with |coeffs_j - c a_j| <= g |c a_j| for every j, where T_d = sum a_j z**j
        and c a_d is the lead: how far each stored coefficient is from the exact c T_d, for
        the circles' Chebyshev floor; kept.  Exact integer quotients, rounded up, below
        1/2; inf once one reaches 1/2, for a term c T_d lacks (imaginary or of the wrong
        parity) and past degree _CHEBYSHEV_CAP, the premise of the floor's margin."""
        d = self.degree
        if not 1 <= d <= _CHEBYSHEV_CAP or not self.real or self.parity is None:
            return math.inf
        lead_num, lead_den = self.coeffs[-1].real.as_integer_ratio()
        top = lead_den.bit_length() + d - 2  # c a_j = a / 2**top
        worst, a = 0.0, lead_num << (d - 1)
        for k in range(d // 2 + 1):
            j = d - 2 * k
            num, den = self.coeffs[j].real.as_integer_ratio()  # coeffs_j = num / 2**e
            e = den.bit_length() - 1
            dev, ref = abs((num << top) - (a << e)), abs(a << e)
            if 2 * dev >= ref:  # from g = 1/2 on the floor refuses: D / F > g
                return math.inf
            worst = max(worst, dev / ref)
            if j >= 2:
                a = -a * j * (j - 1) // (4 * (k + 1) * (d - k - 1))
        return worst * (1 + 2.0**-52)


def polynomial(*coeffs, scale2: int = 0) -> Polynomial:
    """Build a polynomial from ascending coefficients, trimming trailing zeros."""
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return Polynomial(tuple(cs), scale2)


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
    """p(z) by one step of _evaluate; MagnitudeOverflow where it is past double range."""
    z = complex(z)
    if not _is_finite(z):
        raise ValueError("evaluation point must be finite")
    return _ldexp_c(*_evaluate(p, z, 0)[:2])


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
        if not -1075 < self.exponent < 1024:
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


def _below_band(p: Polynomial, w: complex) -> bool:
    """Does p's double Horner at a double w != 0 land below BAND_LOW?  Read off
    p's unscaled moduli before it runs: yes where log2|w| < p.log_tiny and
    log2|a_v w**v| < BAND_MIN_EXP - 2, v the valuation (log2|a_v| = -inf for
    the zero polynomial).  The test is conservative.  Below log_tiny the other
    terms sum to under 2**-53 of a_v w**v; the Horner's rounding adds at most
    gamma_2d sum |a_j| |w|**j (Higham 5.1) and its subnormal partial sums at
    most 2d 2**-1074, so the computed |p(w)| stays under 2**(BAND_MIN_EXP - 1);
    the log2s round far inside the margin of 2 in the exponent.  (A Horner
    that overflows lands off the band too.)"""
    lw = math.log2(math.hypot(w.real, w.imag))
    if not lw < p.log_tiny:
        return False
    j, mag = p._moduli
    return not j.size or mag[0] + j[0] * lw < BAND_MIN_EXP - 2


def _evaluate(p: Polynomial, w: complex, e: int) -> tuple[complex, int, float]:
    """One step of the orbit engines' rule: (w, e) in, (w', e', mu) out.

    w * 2**e is carried as a vector engine's lane carries it: in the band
    (2**BAND_MIN_EXP <= |w| < 2**1024) the double itself with e = 0, else a
    mantissa |w| in [1, 2) and an unbounded integer exponent.  With e = 0 the
    double Horner is kept when its modulus is in the band too (or w = 0,
    where it is a_0 exactly); the rest runs _far.  A step _below_band
    predicts goes to _far before the Horner, which would have landed below
    the band and been thrown away: _far gets the same (m, e) and returns the
    same bits.  mu = sum |a_j w**j| / |p(w)| from the same pass (inf at a
    computed zero away from 0) bounds the relative error by about
    2 deg(p) eps mu (Higham, Accuracy and Stability of Numerical Algorithms, 5.1).
    """
    if not e:
        if w and _below_band(p, w):
            return _far(p, *_split(w, 0))
        h, s = _horner_abs(p.coeffs, w)
        a = math.hypot(h.real, h.imag)
        band = BAND_LOW <= a < math.inf
        if band or w == 0:  # a sum past 1.8e308 is taken again, scaled, by _far
            mu = 1.0 if w == 0 else s / a if s < math.inf else _far(p, *_split(w, 0))[2]
            return (h, 0, mu) if band and not p.scale2 else (*_carry(h, p.scale2), mu)
        w, e = _split(w, 0)
    return _far(p, w, e)


def _far(p: Polynomial, m: complex, e: int) -> tuple[complex, int, float]:
    """_evaluate at w = m * 2**e, |m| in [1, 2), v the valuation of p.  Below
    log2|w| = p.log_tiny only a_v w**v is above rounding, and from p.log_safe
    on only a_d w**d: the step keeps that one term, with mu = 1.  In between
    it runs a Horner on |x| <= 1: for e >= 0, p(w) = w**d * sum a_j w**(j-d)
    over the ascending coefficients at x = 1/w; for e < 0, p(w) = w**v q(w) at
    x = w.  Where coefficients near 1.8e308 overflow that Horner, it reruns on
    them scaled by 2**-s, s the binade of the largest, and s joins the
    exponent.  No term is dropped unless it sits below the rounding of the
    kept ones: the dropped ones sum to under 2**-53 of the kept one."""
    lg = math.log2(abs(m))
    lw = min(max(e, -4096), 4096) + lg  # clamped as _escaped does: a float, same outcome
    shift = 0
    if lw < p.log_tiny or lw >= p.log_safe:
        k = p.valuation if lw < p.log_tiny else p.degree
        h, mu = p.coeffs[k], 1.0
    else:
        big = e >= 0
        k = p.degree if big else p.valuation
        coeffs, x = (p.coeffs[::-1], _ldexp_c(1 / m, -e)) if big else (p.coeffs[k:], _ldexp_c(m, e))
        h, s = _horner_abs(coeffs, x)
        if not (_is_finite(h) and s < math.inf):
            shift = p.binade
            h, s = _horner_abs([_ldexp_c(c, -shift) for c in coeffs], x)
        a = math.hypot(h.real, h.imag)
        mu = s / a if a else math.inf
    # m**k as 2**(k log2|m|) at phase k arg(m), on the normalized value: nothing overflows
    lm = k * lg
    ik = math.floor(lm)
    h, he = _split(h, e * k + ik + p.scale2 + shift)
    return (*_carry(h * cmath.rect(2.0 ** (lm - ik), k * cmath.phase(m)), he), mu)


def _ldexp_c(c: complex, s: int) -> complex:
    try:
        return complex(math.ldexp(c.real, s), math.ldexp(c.imag, s))
    except OverflowError as exc:
        raise MagnitudeOverflow("power-of-two scale overflows doubles") from exc


def _ldexp_arr(z: np.ndarray, k) -> np.ndarray:
    """z * 2**k over arrays; k is clipped to +-4000, past which every finite z
    flushes or overflows alike.  A Python int k is clipped without numpy."""
    k = min(max(k, -4000), 4000) if isinstance(k, int) else np.clip(k, -4000, 4000).astype(np.int64)
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
            if v:  # half the terms are zero: they stay the one shared 0j
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
    try:  # zero terms stay the monic recurrence's one shared 0j
        return Polynomial(tuple(_ldexp_c(c, n - 1) if c else c for c in t.coeffs))
    except MagnitudeOverflow:
        return Polynomial(t.coeffs, scale2=n - 1)


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
