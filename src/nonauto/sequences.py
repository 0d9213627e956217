"""Polynomial sequences and numeric checkers for their asymptotic hypotheses.

A PolySequence is an indexed family p_1, p_2, ... with deg p_1 >= 1 and
deg p_n >= 2 for n >= 2 (only the head may be affine).  The checkers sample
circles and grids: guidedness is tested through the finitely checkable
characterization "the closed disk of radius R pulls back into itself under
every p_n", certified per n by min |p_n| >= R on the circle plus an
argument-principle count showing all zeros lie inside it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .poly import (LN2, Polynomial, cauchy_root_bound, chebyshev_minimal, chebyshev_t,
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
    """Pure generator n -> p_n with kind tag; each p_n is built once and kept."""

    def __init__(self, kind: str, generator: Callable[[int], Polynomial], params: str = ""):
        self.kind = kind
        self.params = params
        self._generator = generator
        self._cache: dict[int, Polynomial] = {}

    def __repr__(self):
        tail = f":{self.params}" if self.params else ""
        return f"PolySequence({self.kind}{tail})"

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


def _pow_scaled(base: int, power: int) -> tuple[float, int]:
    """base**power as (mantissa, e); 96-bit integer mantissa keeps rounding tiny."""
    m, e = base, 0
    r_m, r_e = 1, 0
    while power:
        if power & 1:
            r_m *= m
            r_e += e
            if r_m.bit_length() > 96:
                s = r_m.bit_length() - 96
                r_m >>= s
                r_e += s
        power >>= 1
        if power:
            m *= m
            e *= 2
            if m.bit_length() > 96:
                s = m.bit_length() - 96
                m >>= s
                e += s
    f, fe = _scaled_from_int(r_m)
    return f, fe + r_e


def _monomial_scaled(power: int, mantissa: float, e: int) -> Polynomial:
    """c * z**power with c = mantissa * 2**e, coefficient kept a finite double."""
    frac, k = math.frexp(mantissa)
    return monomial(power, frac * 2.0, e + k - 1)


def _seq_n_pow_n(n: int) -> Polynomial:
    return _monomial_scaled(n, *_scaled_from_int(n**n))


def _seq_two_pow_neg_n_sq(n: int) -> Polynomial:
    return monomial(n, 1.0, -n * n)


def _seq_n_exp_z2(n: int) -> Polynomial:
    if n == 1:
        return monomial(2)
    return _monomial_scaled(2, *_pow_scaled(n, 2**n))


def _seq_q_variant(n: int) -> Polynomial:
    if n == 1:
        return polynomial(-1, 0, 1)
    return _seq_n_exp_z2(n)


def _seq_z2_minus_2_then_powers(n: int) -> Polynomial:
    if n == 1:
        return polynomial(-2, 0, 1)
    return monomial(n)


def _degree_choice(spec, default):
    """Normalize a degree specification: constant, finite list (cycled), callable."""
    if spec is None:
        return default
    if isinstance(spec, int):
        return lambda n: spec
    if callable(spec):
        return spec
    degrees = [int(d) for d in spec]
    if not degrees:
        raise SequenceError("empty degree list")
    return lambda n: degrees[(n - 1) % len(degrees)]


BUILTIN_KINDS = (
    "minimal_chebyshev",
    "classical_chebyshev",
    "power",
    "n_pow_n",
    "two_pow_neg_n_sq",
    "n_exp_z2",
    "z2_minus_1_then_n_exp_z2",
    "z2_minus_2_then_powers",
)


def builtin(kind: str, degrees=None) -> PolySequence:
    """Construct one of the named sequences; `degrees` feeds the parametric kinds."""
    if kind == "minimal_chebyshev":
        return PolySequence(kind, chebyshev_minimal)
    if kind == "classical_chebyshev":
        dfn = _degree_choice(degrees, lambda n: n)
        return PolySequence(kind, lambda n: chebyshev_t(dfn(n)), params=_params_repr(degrees))
    if kind == "power":
        dfn = _degree_choice(degrees, lambda n: 2)
        return PolySequence(kind, lambda n: monomial(dfn(n)), params=_params_repr(degrees))
    if kind == "n_pow_n":
        return PolySequence(kind, _seq_n_pow_n)
    if kind == "two_pow_neg_n_sq":
        return PolySequence(kind, _seq_two_pow_neg_n_sq)
    if kind == "n_exp_z2":
        return PolySequence(kind, _seq_n_exp_z2)
    if kind == "z2_minus_1_then_n_exp_z2":
        return PolySequence(kind, _seq_q_variant)
    if kind == "z2_minus_2_then_powers":
        return PolySequence(kind, _seq_z2_minus_2_then_powers)
    raise SequenceError(f"unknown sequence kind {kind!r}")


def _params_repr(degrees) -> str:
    if degrees is None:
        return ""
    if isinstance(degrees, int):
        return str(degrees)
    if callable(degrees):
        return "<callable>"
    return ",".join(str(d) for d in degrees)


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
    return PolySequence("custom", gen, params=f"{len(polys)},{repeat}")


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
    theta = 2.0 * np.pi * np.arange(m) / m
    return radius * np.exp(1j * theta)


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
    return _log_abs(values_on(p, pts), p.scale2)


def _winding(vals: np.ndarray) -> int:
    """Winding number about 0 of the closed curve through vals.

    Valid when no value is zero and the sampling resolves the winding (we
    use >= 16 points per degree).
    """
    if not np.all(np.isfinite(vals)):
        raise SequenceError("circle values overflow doubles; cannot count zeros")
    args = np.angle(vals)
    inc = np.diff(np.append(args, args[0]))
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(inc.sum()) / (2.0 * np.pi)))


class _Circle:
    """p_n sampled once on the circle |z| = radius, for the pull-back certificate.

    min_log and min_point give min log|p| over M = max(m, 8d) equally spaced
    samples.  zeros_contained() tells whether every zero lies in the closed
    disk: the Cauchy bound when it suffices, else the argument principle.
    Then p is sampled on 2M points instead (at least 16 per degree): the
    winding count runs over all of them, and the minimum over every other
    one, which is bit for bit the M-point circle.
    """

    def __init__(self, p: Polynomial, radius: float, m: int):
        self.p = p
        m_min = max(m, 8 * p.degree)
        self.vals = None
        if cauchy_root_bound(p) <= radius:
            pts = circle_points(radius, m_min)
            logs = log_abs_on(p, pts)
        else:
            pts = circle_points(radius, 2 * m_min)
            self.vals = values_on(p, pts)
            pts = pts[::2]
            # contiguous, so abs and log run the loops they run on the M-point circle
            logs = _log_abs(self.vals[::2].copy(), p.scale2)
        i = int(np.argmin(logs))
        self.min_log = float(logs[i])
        self.min_point = complex(pts[i])

    def zeros_contained(self) -> bool:
        return self.vals is None or _winding(self.vals) == self.p.degree


# --- checkers --------------------------------------------------------------

def check_guided(seq: PolySequence, R: float, n_max: int, m: int = 1024) -> CheckReport:
    """Does every p_n (2 <= n <= n_max) pull the closed R-disk into itself?

    Sufficient per n: all zeros inside the circle and min |p_n| >= R on it
    (the minimum principle extends the bound to |z| >= R).  margin is
    min over n of (min circle modulus) / R - 1.
    """
    if R <= 1:
        raise ValueError("R must exceed 1")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if m < 64:
        raise ValueError("need at least 64 samples per circle")
    margin = math.inf
    for n in range(2, n_max + 1):
        p = seq.get(n)
        circle = _Circle(p, R, m)
        try:
            min_ratio = math.exp(circle.min_log - math.log(R))
        except OverflowError:  # the circle minimum is beyond double range
            min_ratio = math.inf
        if min_ratio < 1.0:
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, circle.min_point, min_ratio * R),
                               note="circle minimum below R")
        if not circle.zeros_contained():
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, None, float(cauchy_root_bound(p))),
                               note="zeros not contained in the disk")
        margin = min(margin, min_ratio - 1.0)
    return CheckReport(True, (2, n_max), margin)


def escape_radius_search(seq: PolySequence, n_max: int, m: int = 512,
                         ceiling: float = 2.0**20) -> float:
    """Smallest grid radius R with min |p_n| >= e*R on the circle and zeros inside,
    for every 2 <= n <= n_max; beyond it each step grows moduli by a factor e."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    worst = 2
    radius = 17.0 / 16.0
    step = 2.0 ** (1.0 / 16.0)
    while radius <= ceiling:
        ok = True
        for n in range(2, n_max + 1):
            circle = _Circle(seq.get(n), radius, m)
            if circle.min_log < 1.0 + math.log(radius) or not circle.zeros_contained():
                ok, worst = False, n
                break
        if ok:
            return radius
        radius *= step
    raise SequenceError(f"no escape radius below {ceiling:g}; p_{worst} keeps failing")


def check_P2(seq: PolySequence, A: float, n_max: int) -> CheckReport:
    """Uniform coefficient bound |a_j| <= A |a_lead| over all p_n, n <= n_max."""
    if A < 0:
        raise ValueError("A must be >= 0")
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


def check_finite_condition(seq: PolySequence, center: complex = 0j, radius: float = 2.0,
                           n_max: int = 100, m: int = 4096) -> CheckReport:
    """Sample sup_n (1/deg p_n) log+ |p_n| over a disk grid.

    passed needs the sampled sup below _SUP_THRESHOLD and no growth across the
    last decade of n (a heuristic flag for an unbounded normalized family).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    side = max(3, int(math.isqrt(m)))
    xs = np.linspace(-radius, radius, side)
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
    grew = n_max > 1 and float(per_n[cut:].max(initial=-math.inf)) > float(per_n[:cut].max()) + 1e-9
    ok = sup <= _SUP_THRESHOLD and not grew
    note = "sup grows across the last decade of n (heuristic)" if grew else ""
    if ok:
        return CheckReport(True, (1, n_max), _SUP_THRESHOLD - sup, sup=sup, note=note)
    n_worst = int(per_n.argmax()) + 1
    return CheckReport(False, (1, n_max), _SUP_THRESHOLD - sup,
                       Witness(n_worst, None, sup), sup=sup,
                       note=note or "sampled sup above threshold")
