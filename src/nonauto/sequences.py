"""Polynomial sequences and numeric checkers for their asymptotic hypotheses.

A PolySequence is an indexed family p_1, p_2, ... with deg p_1 >= 1 and
deg p_n >= 2 for n >= 2 (only the head may be affine).  The checkers sample
circles and grids: guidedness is tested through the finitely checkable
characterization "the closed disk of radius R pulls back into itself under
every p_n", certified per n by min |p_n| >= R on the circle plus an
argument-principle count showing all zeros lie inside it.  check_guided and the radius
search certify a circle by one rule (_circle): a map within its own stored deviation
(Polynomial.chebyshev_error) of c T_d, as every map of the two Chebyshev kinds is, takes
its closed-form floor where that clears the target, and any other map is sampled.  Leading
factors past double range, such as n**(2**n), are built in exact integers cut to 96 bits
and kept as a power-of-two scale.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .poly import (LN2, Polynomial, _ldexp_arr, chebyshev_minimal, chebyshev_t,
                   modulus_ratios, monomial, polynomial)

_UINT64_MAX = 2**64 - 1


class SequenceError(ValueError):
    """A polynomial sequence violates the degree hypothesis or cannot be built."""


@dataclass(frozen=True)
class DegreeLedger:
    """Running record of the composed degree d_1 * ... * d_n."""

    n: int
    log_d: float                # sum of ln(deg p_k) for k <= n
    d_exact: int | None         # exact product while it fits an unsigned 64-bit


@dataclass(frozen=True)
class Witness:
    n: int
    point: complex | None
    value: float


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    n_range: tuple[int, int]
    margin: float
    witness: Witness | None = None
    sup: float | None = None
    note: str = ""

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError("witness only accompanies failures")
        if not self.passed and self.witness is None:
            raise ValueError("failures must carry a witness")


class PolySequence:
    """Pure generator n -> p_n with kind tag; each p_n is built once and kept.
    period is P when p_(n+P) = p_n for every n (a cycled custom list), else None;
    length is the last n defined (a "repeat": "none" list), None when unbounded."""

    def __init__(self, kind: str, generator: Callable[[int], Polynomial],
                 period: int | None = None, length: int | None = None):
        self.kind = kind
        self.period = period
        self.length = length
        self._generator = generator
        self._cache: dict[int, Polynomial] = {}

    def __repr__(self):
        return f"PolySequence({self.kind})"

    def get(self, n: int) -> Polynomial:
        if n < 1:
            raise SequenceError("indices start at 1")
        p = self._cache.get(n)
        if p is None:
            p = self._generator(n)
            lo = 1 if n == 1 else 2
            if p.degree < lo:
                raise SequenceError(f"p_{n} has degree {p.degree}; need >= {lo}")
            self._cache[n] = p
        return p

    def degree(self, n: int) -> int:
        return self.get(n).degree

    def last_distinct(self, n_max: int) -> int:
        """The circle checkers' last n, min(n_max, P + 1) for period P: p_(n+P) is
        p_n, so p_2..p_(P+1) hold every p_n, n >= 2, and its first failure."""
        return min(n_max, self.period + 1) if self.period else n_max

    def ledger(self, n: int) -> DegreeLedger:
        log_d = 0.0
        exact: int | None = 1
        for k in range(1, n + 1):
            d = self.degree(k)
            log_d += math.log(d)
            if exact is not None:
                exact *= d
                if exact > _UINT64_MAX:
                    exact = None
        return DegreeLedger(n, log_d, exact)


def _scaled_from_int(value: int) -> tuple[float, int]:
    """(mantissa, e) with mantissa * 2**e ~= value and mantissa a clean double."""
    bits = value.bit_length()
    if bits <= 53:
        return float(value), 0
    shift = bits - 54
    return float(value >> shift), shift


def _pow2_scaled(base: int, n: int) -> tuple[float, int]:
    """base**(2**n) as (mantissa, e) by n squarings; 96-bit integer mantissa keeps
    rounding tiny."""
    m, e = base, 0
    for _ in range(n):
        m *= m
        e *= 2
        if m.bit_length() > 96:
            s = m.bit_length() - 96
            m >>= s
            e += s
    f, fe = _scaled_from_int(m)
    return f, fe + e


def _monomial_scaled(power: int, mantissa: float, e: int) -> Polynomial:
    """c * z**power with c = mantissa * 2**e, coefficient kept a finite double."""
    frac, k = math.frexp(mantissa)
    return monomial(power, frac * 2.0, e + k - 1)


def _seq_n_exp_z2(n: int) -> Polynomial:
    if n == 1:
        return monomial(2)
    return _monomial_scaled(2, *_pow2_scaled(n, n))


def _degree_choice(spec, default):
    """Normalize a degree specification: constant or finite list (cycled)."""
    if spec is None:
        return default
    if isinstance(spec, int):
        return lambda n: spec
    degrees = [int(d) for d in spec]
    if not degrees:
        raise SequenceError("empty degree list")
    return lambda n: degrees[(n - 1) % len(degrees)]


_FIXED_KINDS: dict[str, Callable[[int], Polynomial]] = {
    "minimal_chebyshev": chebyshev_minimal,
    "n_pow_n": lambda n: _monomial_scaled(n, *_scaled_from_int(n**n)),
    "two_pow_neg_n_sq": lambda n: monomial(n, 1.0, -n * n),
    "n_exp_z2": _seq_n_exp_z2,
    "z2_minus_1_then_n_exp_z2": lambda n: polynomial(-1, 0, 1) if n == 1 else _seq_n_exp_z2(n),
    "z2_minus_2_then_powers": lambda n: polynomial(-2, 0, 1) if n == 1 else monomial(n),
}
# kinds whose degrees the caller may set: (polynomial of a degree, default degree of p_n)
_DEGREE_KINDS = {
    "classical_chebyshev": (chebyshev_t, lambda n: n),
    "power": (monomial, lambda n: 2),
}
BUILTIN_KINDS = (*_FIXED_KINDS, *_DEGREE_KINDS)


def builtin(kind: str, degrees=None) -> PolySequence:
    """Construct one of the named sequences; `degrees` feeds the kinds that take them."""
    if kind in _FIXED_KINDS:
        if degrees is not None:
            raise SequenceError(f"sequence kind {kind!r} takes no degrees")
        return PolySequence(kind, _FIXED_KINDS[kind])
    if kind in _DEGREE_KINDS:
        make, default = _DEGREE_KINDS[kind]
        dfn = _degree_choice(degrees, default)
        return PolySequence(kind, lambda n: make(dfn(n)))
    raise SequenceError(f"unknown sequence kind {kind!r}")


def custom_sequence(polys: Sequence[Polynomial], repeat: str = "cycle") -> PolySequence:
    """Finite list of polynomials, optionally cycled into a periodic sequence."""
    polys = list(polys)
    if not polys:
        raise SequenceError("empty custom sequence")
    if repeat not in ("cycle", "none"):
        raise SequenceError("repeat must be 'cycle' or 'none'")
    lo = 2 if repeat == "cycle" else 1
    if polys[0].degree < (1 if repeat == "none" else lo):
        raise SequenceError("p_1 must have degree >= 1 (>= 2 when cycled)")
    for i, p in enumerate(polys[1:], start=2):
        if p.degree < 2:
            raise SequenceError(f"p_{i} has degree {p.degree}; only p_1 may be affine")

    if repeat == "cycle":
        gen = lambda n: polys[(n - 1) % len(polys)]
    else:
        def gen(n):
            if n > len(polys):
                raise SequenceError(f"custom sequence defined only up to n = {len(polys)}")
            return polys[n - 1]
    period, length = (len(polys), None) if repeat == "cycle" else (None, len(polys))
    return PolySequence("custom", gen, period=period, length=length)


def load_sequence_file(path) -> PolySequence:
    """JSON wire format: {"polynomials": [[[re,im],...], ...], "repeat": "cycle"|"none"}.

    Every departure from the format raises SequenceError naming the offending
    entry; only the file read itself raises OSError.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SequenceError(f"sequence file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "polynomials" not in doc:
        raise SequenceError("sequence file needs a 'polynomials' array")
    rows = doc["polynomials"]
    if not isinstance(rows, list):
        raise SequenceError("'polynomials' must be an array of coefficient lists")
    polys = []
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list) or not row:
            raise SequenceError(f"polynomial {i} must be a non-empty array of [re, im] pairs")
        polys.append(polynomial(*(_wire_coefficient(pair, i, j) for j, pair in enumerate(row))))
    repeat = doc.get("repeat", "cycle")
    if not isinstance(repeat, str):
        raise SequenceError("'repeat' must be the string 'cycle' or 'none'")
    return custom_sequence(polys, repeat)


def _wire_coefficient(pair, i: int, j: int) -> complex:
    """One [re, im] pair of the wire format as a finite complex number."""
    if (not isinstance(pair, list) or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
        raise SequenceError(f"polynomial {i}, coefficient {j}: expected [re, im] numbers, "
                            f"got {json.dumps(pair)}")
    try:
        c = complex(float(pair[0]), float(pair[1]))
    except OverflowError as exc:  # integers beyond double range
        raise SequenceError(f"polynomial {i}, coefficient {j} is out of double range") from exc
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise SequenceError(f"polynomial {i}, coefficient {j} is not finite")
    return c


# --- circle sampling -------------------------------------------------------

def circle_points(radius: float, m: int) -> np.ndarray:
    """radius e^(2 pi i k/m), k < m, exactly symmetric: point m-k is the conjugate of
    point k; for even m, point k+m/2 is minus point k, and point m/2-k minus the conjugate
    of point k; +-radius and +-i radius are exact; circle_points(r, 2m)[::2] is
    circle_points(r, m).  An upper-half point, 4k/m quarter turns, takes cos and sin of
    an angle at most pi/4: its own or its complement, after reflecting the second quadrant.
    """
    h = m // 2
    k4 = 4 * np.arange(min(h + 1, m))
    t = np.minimum(k4, 2 * m - k4)      # second quadrant: pi minus the angle
    u = np.minimum(t, m - t)            # the angle or its complement
    a = 0.5 * np.pi * u / m
    c, s = np.cos(a), np.sin(a)
    c, s = np.where(u < t, s, c), np.where(u < t, c, s)
    upper = radius * (np.where(k4 > m, -c, c) + 1j * s)
    return np.concatenate([upper, np.conj(upper[m - h - 1:0:-1])])


def _horner(coeffs, pts: np.ndarray) -> np.ndarray:
    """sum coeffs[j] pts**j, in place on one accumulator, skipping zero coefficients:
    the one array Horner (values_on, the vector engines); elementwise per point."""
    acc = np.full(pts.shape, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc *= pts
        if c != 0:
            acc += c
    return acc


def values_on(p: Polynomial, pts: np.ndarray) -> np.ndarray:
    """Unscaled Horner values (true p = 2**scale2 * these); non-finite past double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _horner(p.coeffs, pts)


def _log_abs(vals: np.ndarray, scale2: int) -> np.ndarray:
    with np.errstate(divide="ignore"):
        la = np.log(np.abs(vals))
    return la + scale2 * LN2


def log_abs_on(p: Polynomial, pts: np.ndarray) -> np.ndarray:
    """log|p| on pts, by _finite_values' rule: rescaled, else refused."""
    return _log_abs(*_finite_values(p, pts))


def _finite_values(p: Polynomial, pts: np.ndarray) -> tuple[np.ndarray, int]:
    """(vals, scale2) with p = 2**scale2 * vals on pts, every value finite: if one of
    values_on's is not, all are evaluated again on the coefficients scaled by 2**-s,
    s = p.binade (the rescale rule of every Horner), else refused."""
    vals = values_on(p, pts)
    if np.isfinite(vals).all():
        return vals, p.scale2
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _horner(_ldexp_arr(p.array, -p.binade), pts)
    if not np.isfinite(vals).all():
        raise SequenceError("Horner values overflow doubles even on rescaled coefficients")
    return vals, p.scale2 + p.binade


def _chebyshev_floor(p: Polynomial, radius: float) -> float:
    """log min |p| over |z| = radius > 1 from below, for p near c T_d; -inf when the
    bound does not hold.  With z = (w + 1/w)/2, T_d = (w**d + w**-d)/2, and the circle
    lies outside the ellipse |w| = rho = radius + sqrt(radius**2 - 1) but at +-radius, so
    |c T_d| >= F = |c| (rho**d - rho**-d)/2 on it (Rivlin); c is read from p's lead
    2**(d-1) c and scale2.  p's stored coefficients differ from c T_d's by at most
    g = p.chebyshev_error of each, so |p - c T_d| <= D = g |c T_d(i radius)| <= g |c|
    (sigma**d + sigma**-d)/2 with sigma = radius + sqrt(radius**2 + 1), T_d's
    coefficients alternating in sign.  Where D <= F/2, |p| >= F - D, and by Rouche p
    has T_d's d zeros inside, all in [-1, 1]."""
    d, g = p.degree, p.chebyshev_error
    rho = radius + math.sqrt(radius - 1.0) * math.sqrt(radius + 1.0)
    sigma = radius + math.hypot(radius, 1.0)
    shrink = math.log1p(-rho ** (-2 * d))
    log_ratio = (math.log(g) + d * math.log(sigma / rho) + math.log1p(sigma ** (-2 * d)) - shrink
                 if g else -math.inf)  # log(D / F)
    if log_ratio > -LN2:
        return -math.inf
    return (math.log(abs(p.coeffs[-1])) + p.scale2 * LN2 + d * math.log(0.5 * rho) + shrink
            + math.log1p(-math.exp(log_ratio)))


# _chebyshev_floor's rounding: rho has no cancellation and is within 4 ulps, so d log(rho/2)
# is within d (4 + 2|log(rho/2)|) 2**-53 <= 1.6e-10 (d <= 1000, the Chebyshev cap, any finite
# rho).  log|lead| + scale2 ln 2 is within 1e-13 on the makers' maps (scale2 <= 999); on any
# map whose floor is near the target, |term| <= 1 + |target| + d |log(rho/2)|: 1.4e4 for
# R <= 2**20, so |scale2| <= 2.2e4 and (LN2 within 2.4e-17 of ln 2) the term is within 2.5e-12,
# and within 1.4e-10 for any finite rho.  The three later sums add 1.5 ulps of 7.1e5, 1.8e-10.
# Near a target above 0 with |c| <= 1 (the makers' maps), rho**d > 4: log1p's argument is below
# 1/16 and passes on its 2d ulps unamplified.  log(D / F) is within 1e-12 (d log(sigma/rho) within
# d 3 ulps), and with D / F <= 1/2 log1p(-D / F) moves by at most twice that.  1e-9 covers it twice.
_FLOOR_MARGIN = 1e-9
_RADIUS_CEILING = 2.0**20  # escape_radius_search gives up past it
_CIRCLE_SAMPLES = 1024  # a sampled circle takes max(_CIRCLE_SAMPLES, 8d) points


def _circle(p: Polynomial, radius: float, target: float) -> tuple[float, complex | None, bool]:
    """(min_log, point, holds), p's pull-back certificate on |z| = radius against target,
    a log modulus: holds is min_log >= target with every zero in the closed disk, and
    zeros are counted only then.  The floor comes first: where _chebyshev_floor clears
    target by _FLOOR_MARGIN, min_log is the floor less that margin, point is None, Rouche
    puts the zeros inside, and nothing is sampled.  Else min_log is the minimum over
    M = max(_CIRCLE_SAMPLES, 8d) samples, at point.  The zeros are inside by Cauchy's
    bound, or by Rouche where the floor is finite, else by a winding count over 2M
    samples, every other one of which is bit for bit the M-point circle.  Every count is a
    multiple of 4, so a real p of one parity is evaluated on the first quarter arc only:
    |p| takes its minimum there first, and each quarter turn winds as far.  The Cauchy
    bound, the deviation from c T_d and the real and parity facts are read from p, which
    keeps them, so no circle scans the coefficients."""
    floor = _chebyshev_floor(p, radius)
    if floor >= target + _FLOOR_MARGIN:
        return floor - _FLOOR_MARGIN, None, True
    shortcut = p.root_bound <= radius or floor > -math.inf
    n = max(_CIRCLE_SAMPLES, 8 * p.degree) * (1 if shortcut else 2)
    quarter = p.parity is not None and p.real
    pts = circle_points(radius, n)[:n // 4 + 1 if quarter else n]
    vals, scale2 = _finite_values(p, pts)
    wind = vals
    if not shortcut:
        # contiguous, so abs and log run the loops they run on the M-point circle
        pts, vals = pts[::2], vals[::2].copy()
    logs = _log_abs(vals, scale2)
    i = int(np.argmin(logs))
    min_log, point = float(logs[i]), complex(pts[i])
    if min_log < target or shortcut:
        return min_log, point, min_log >= target
    arc = wind if quarter else np.append(wind, wind[0])  # closed
    inc = (np.diff(np.angle(arc)) + np.pi) % (2.0 * np.pi) - np.pi
    return min_log, point, round(float(inc.sum()) * (4 if quarter else 1) / (2.0 * np.pi)) == p.degree


# --- checkers --------------------------------------------------------------

def check_guided(seq: PolySequence, R: float, n_max: int) -> CheckReport:
    """Does every p_n (2 <= n <= n_max) pull the closed R-disk into itself?

    Sufficient per n: all zeros inside the circle and min |p_n| >= R on it
    (the minimum principle extends the bound to |z| >= R), by _circle against
    log R: a map whose Chebyshev floor clears log R takes the floor, as in the
    radius search, and any other is sampled.  margin is min over n of (circle
    minimum) / R - 1.  Only n <= seq.last_distinct(n_max) are certified, one
    period: the report is the same.
    """
    if not 1 < R < math.inf:
        raise ValueError("R must exceed 1 and be finite")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    log_r = math.log(R)
    margin = math.inf
    for n in range(2, seq.last_distinct(n_max) + 1):
        p = seq.get(n)
        min_log, point, holds = _circle(p, R, log_r)
        try:
            min_ratio = math.exp(min_log - log_r)
        except OverflowError:  # the circle minimum is beyond double range
            min_ratio = math.inf
        if min_log < log_r:
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, point, min_ratio * R),
                               note="circle minimum below R")
        if not holds:
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, None, p.root_bound),
                               note="zeros not contained in the disk")
        margin = min(margin, min_ratio - 1.0)
    return CheckReport(True, (2, n_max), margin)


def escape_radius_search(seq: PolySequence, n_max: int) -> float:
    """Smallest grid radius R with min |p_n| >= e*R on the circle and zeros inside,
    for every 2 <= n <= n_max (one period: n <= seq.last_distinct(n_max));
    beyond it each step grows moduli by a factor e.  Each circle is _circle against
    log(e*R), as in check_guided: a map near c T_d takes its floor at O(1) cost, and
    any other leaves the floor at once and is sampled."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    worst = 2
    radius = 17.0 / 16.0
    step = 2.0 ** (1.0 / 16.0)
    while radius <= _RADIUS_CEILING:
        target = 1.0 + math.log(radius)
        for n in range(2, seq.last_distinct(n_max) + 1):
            if not _circle(seq.get(n), radius, target)[2]:
                worst = n
                break
        else:
            return radius
        radius *= step
    raise SequenceError(f"no escape radius below {_RADIUS_CEILING:g}; p_{worst} keeps failing")


def check_P2(seq: PolySequence, A: float, n_max: int) -> CheckReport:
    """Uniform coefficient bound |a_j| <= A |a_lead| over all p_n, n <= n_max."""
    if not 0 <= A < math.inf:
        raise ValueError("A must be >= 0 and finite")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    worst_ratio, worst_n = 0.0, 1
    for n in range(1, n_max + 1):
        p = seq.get(n)
        ratio = max(modulus_ratios(p.coeffs[:-1], p.coeffs[-1]), default=0.0)
        if ratio > worst_ratio:
            worst_ratio, worst_n = ratio, n
    if worst_ratio <= A:
        return CheckReport(True, (1, n_max), A - worst_ratio)
    return CheckReport(False, (1, n_max), A - worst_ratio,
                       Witness(worst_n, None, worst_ratio),
                       note="maximal coefficient ratio found")


_SUP_THRESHOLD = 50.0  # check_finite_condition's bound on the sampled sup
# and growth factor: on its 64 x 64 grid, rise / log(n_max / cut) is at most 0.58 for bounded
# builtins (classical, n_max = 2) and at least 1 for unbounded ones (n_pow_n), n_max 2..40, 64, 100
_GROWTH = 0.75


def check_finite_condition(seq: PolySequence, center: complex = 0j, radius: float = 2.0,
                           n_max: int = 100) -> CheckReport:
    """Sample sup_n (1/deg p_n) log+ |p_n| over a 64 x 64 grid cut to the disk.

    passed needs the sampled sup below _SUP_THRESHOLD and no growth across the
    last decade of n (a heuristic flag for an unbounded normalized family):
    its max may pass the earlier max by _GROWTH times what log n growth adds
    there, log(n_max / cut), so a bounded family still rising to its limit passes.
    """
    if not 0 < radius < math.inf:
        raise ValueError("disk radius must be positive and finite")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xs = np.linspace(-radius, radius, 64)
    gx, gy = np.meshgrid(xs, xs)
    pts = (gx + 1j * gy).ravel()
    pts = pts[np.abs(pts) <= radius] + complex(center)

    per_n = np.empty(n_max)
    for n in range(1, n_max + 1):
        p = seq.get(n)
        la = log_abs_on(p, pts)
        per_n[n - 1] = max(0.0, float(la.max())) / p.degree
    sup = float(per_n.max())
    cut = max(1, int(0.9 * n_max))
    rise = float(per_n[cut:].max(initial=-math.inf)) - float(per_n[:cut].max())
    grew = rise > _GROWTH * math.log(n_max / cut)  # -inf at n_max = 1
    ok = sup <= _SUP_THRESHOLD and not grew
    note = "sup grows across the last decade of n (heuristic)" if grew else ""
    if ok:
        return CheckReport(True, (1, n_max), _SUP_THRESHOLD - sup, sup=sup, note=note)
    n_worst = int(per_n.argmax()) + 1
    return CheckReport(False, (1, n_max), _SUP_THRESHOLD - sup,
                       Witness(n_worst, None, sup), sup=sup,
                       note=note or "sampled sup above threshold")
