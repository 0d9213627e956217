"""Green functions of model compacta and of polynomial-sequence preimages.

Model sets carry exact closed-form potentials (disk, the segment [-1,1],
filled Joukowski ellipses, polynomial preimages of any of these).  The
non-autonomous potential of a sequence is the normalized escape rate
(1/(d_1...d_N)) log+ |p_N o ... o p_1|, evaluated through overflow-safe
scaled orbit arithmetic with a certified error budget: floating round-off,
asymptotic corrections, and (when a tail constant is supplied) the geometric
truncation term covering every unrun step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import (EPS, LN2, MagnitudeOverflow, Polynomial, ScaledComplex,
                   evaluate, evaluate_scaled)
from .sequences import DegreeLedger, PolySequence, circle_points, values_on

_UINT64_MAX = 2**64 - 1
_SCALED_TO_COMPLEX_EXP = 900       # |exponent| below this: evaluate greens directly
_TINY_SWITCH = 1e-250              # double orbit values below this go scaled
DEFAULT_EXPONENT_CAP = 1 << 40     # beyond: asymptotic fallback truncates the orbit


def _as_c(z):
    arr = np.asarray(z, dtype=np.complex128)
    return arr, arr.ndim == 0


def _ret(values, scalar):
    return float(values) if scalar else values


def _inv_float(d: int) -> float:
    """1/d as a double; underflows to 0.0 for astronomically large d.

    int / int is correctly rounded and never overflows an intermediate.
    """
    return 1 / d


def _apply_scale2(u: np.ndarray, s: int) -> np.ndarray:
    """u * 2**s elementwise without intermediate overflow of the factor.

    For |s| beyond any representable product the result flushes to zero;
    callers classify such points through logarithms first.
    """
    if s == 0:
        return u
    if abs(s) <= 1020:
        return u * 2.0**s
    if abs(s) <= 2000:
        half = 1000 if s > 0 else -1000
        with np.errstate(over="ignore", under="ignore"):
            return (u * 2.0**half) * 2.0 ** (s - half)
    return np.where(u == 0, u, 0j)


class ModelSet:
    """Closed compactum with an exact Green function (pole at infinity)."""

    def green(self, z):
        raise NotImplementedError

    def robin(self) -> float:
        """Robin constant: the limit of green(z) - log|z| at infinity."""
        raise NotImplementedError

    def capacity(self) -> float:
        return math.exp(-self.robin())

    def enclosing_radius(self) -> float:
        raise NotImplementedError

    def robin_offset(self, log_abs_z: float) -> tuple[float, float]:
        """(robin constant, certified error) of green ~ log|z| + robin at this size."""
        raise NotImplementedError

    def boundary_net(self, m: int) -> np.ndarray:
        raise NotImplementedError

    def interior_net(self, m: int) -> np.ndarray:
        return np.empty(0, dtype=np.complex128)


def _joukowski(z):
    """w = z + sqrt(z^2 - 1) with the root chosen so |w| >= 1.

    The square root is taken in the plane cut along the negative reals of the
    argument z^2 - 1 (principal branch, sqrt(1) = 1); picking the large root
    makes log|w| the segment potential, zero exactly on [-1,1].
    """
    s = np.sqrt(z * z - 1.0)
    w = z + s
    return np.where(np.abs(w) >= 1.0, w, z - s)


_GREEN_FLOOR = 8.0 * EPS  # rounding floor of the joukowski magnitude
_JOUKOWSKI_SAFE = 1e100   # beyond this |z|, z*z nears overflow; switch branch


def _clamp_green(g):
    # on the set itself the formula rounds to +-1ulp around zero; snap it
    return np.where(g > _GREEN_FLOOR, g, 0.0)


def _log_joukowski_abs(arr):
    """log |z + sqrt(z^2 - 1)| without overflowing for huge |z|.

    Far out the map is 2z up to a relative 1/(2|z|^2); at the switchover the
    dropped correction is below double resolution.
    """
    a = np.abs(arr)
    big = a > _JOUKOWSKI_SAFE
    safe = np.where(big, 0j, arr)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(_joukowski(safe)))
        return np.where(big, np.log(a) + LN2, out)


@dataclass(frozen=True)
class Disk(ModelSet):
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    def green(self, z):
        arr, scalar = _as_c(z)
        with np.errstate(divide="ignore"):
            g = np.log(np.abs(arr - self.center) / self.radius)
        return _ret(np.maximum(0.0, g), scalar)

    def capacity(self) -> float:
        return self.radius

    def robin(self) -> float:
        return -math.log(self.radius)

    def enclosing_radius(self) -> float:
        return abs(self.center) + self.radius

    def robin_offset(self, log_abs_z):
        a = abs(self.center)
        if a == 0.0:
            return self.robin(), 0.0
        if log_abs_z < math.log(2.0 * a):
            raise ValueError("asymptotic potential invalid this close to the disk")
        return self.robin(), 2.0 * a * math.exp(-log_abs_z)

    def boundary_net(self, m):
        return self.center + circle_points(self.radius, m)

    def interior_net(self, m):
        rings = [self.center + circle_points(f * self.radius, max(8, m // 4))
                 for f in (0.25, 0.5, 0.75)]
        return np.concatenate([np.array([complex(self.center)]), *rings])


@dataclass(frozen=True)
class Segment(ModelSet):
    """The segment [-1, 1]."""

    def green(self, z):
        arr, scalar = _as_c(z)
        g = _log_joukowski_abs(arr)
        return _ret(_clamp_green(g), scalar)

    def capacity(self) -> float:
        return 0.5

    def robin(self) -> float:
        return LN2

    def enclosing_radius(self) -> float:
        return 1.0

    def robin_offset(self, log_abs_z):
        if log_abs_z < 0.7:
            raise ValueError("asymptotic potential invalid this close to the segment")
        return LN2, math.exp(-2.0 * log_abs_z)

    def boundary_net(self, m):
        return np.linspace(-1.0, 1.0, max(2, m)).astype(np.complex128)


@dataclass(frozen=True)
class Ellipse(ModelSet):
    """Filled ellipse with foci +-1: image of |w| <= r under (w + 1/w)/2, r > 1."""

    r: float

    def __post_init__(self):
        if not self.r > 1:
            raise ValueError("ellipse parameter must exceed 1")

    @property
    def semi_major(self) -> float:
        return 0.5 * (self.r + 1.0 / self.r)

    @property
    def semi_minor(self) -> float:
        return 0.5 * (self.r - 1.0 / self.r)

    def green(self, z):
        arr, scalar = _as_c(z)
        g = _log_joukowski_abs(arr) - math.log(self.r)
        return _ret(_clamp_green(g), scalar)

    def capacity(self) -> float:
        return 0.5 * self.r

    def robin(self) -> float:
        return LN2 - math.log(self.r)

    def enclosing_radius(self) -> float:
        return self.semi_major

    def robin_offset(self, log_abs_z):
        if log_abs_z < math.log(self.r) + 0.7:
            raise ValueError("asymptotic potential invalid this close to the ellipse")
        return self.robin(), math.exp(-2.0 * log_abs_z)

    def boundary_net(self, m):
        w = circle_points(self.r, m)
        return 0.5 * (w + 1.0 / w)

    def interior_net(self, m):
        nets = []
        for f in (0.25, 0.5, 0.75):
            rho = 1.0 + f * (self.r - 1.0)
            w = circle_points(rho, max(8, m // 4))
            nets.append(0.5 * (w + 1.0 / w))
        return np.concatenate(nets)


@dataclass(frozen=True)
class Preimage(ModelSet):
    """f^{-1}(inner): potential (1/deg f) * g_inner(f(z))."""

    inner: ModelSet
    poly: Polynomial

    def __post_init__(self):
        if self.poly.degree < 1:
            raise ValueError("preimage map must be non-constant")

    def _lead_log(self) -> float:
        return math.log(abs(self.poly.coeffs[-1])) + self.poly.scale2 * LN2

    def green(self, z):
        arr, scalar = _as_c(z)
        flat = arr.ravel()
        d, s = self.poly.degree, self.poly.scale2
        u = values_on(self.poly, flat)
        out = np.empty(flat.shape, dtype=float)
        zero = u == 0
        w = _apply_scale2(u, s)
        finite = np.isfinite(w.real) & np.isfinite(w.imag) & (w != 0) & ~zero
        if finite.any():
            out[finite] = self.inner.green(w[finite])
        far = ~finite & ~zero
        if far.any():
            # out of double range (or flushed): asymptotic value through logs
            with np.errstate(divide="ignore"):
                big_l = np.log(np.abs(u[far])) + s * LN2
            overflowed = ~np.isfinite(big_l)
            if overflowed.any():
                big_l[overflowed] = (d * np.log(np.abs(flat[far][overflowed]))
                                     + self._lead_log())
            out[far] = big_l + self.inner.robin()
        if zero.any():
            out[zero] = self.inner.green(np.zeros(int(zero.sum()), np.complex128))
        out = np.maximum(0.0, out) / d
        return _ret(out.reshape(arr.shape), scalar)

    def robin(self) -> float:
        return (self.inner.robin() + self._lead_log()) / self.poly.degree

    def enclosing_radius(self) -> float:
        # Cauchy-style bound covering every branch of f(z) = w, |w| <= rho.
        rho = self.inner.enclosing_radius()
        lead = abs(self.poly.coeffs[-1])
        top = max(abs(c) for c in self.poly.coeffs[:-1]) if self.poly.degree else 0.0
        log_ru = math.log(rho) - self.poly.scale2 * LN2
        return 1.0 + (top + math.exp(min(700.0, log_ru))) / lead

    def robin_offset(self, log_abs_z):
        d = self.poly.degree
        lead = abs(self.poly.coeffs[-1])
        ratios = sum(abs(c) for c in self.poly.coeffs[:-1]) / lead
        sigma = ratios * math.exp(-log_abs_z) if log_abs_z > -700 else math.inf
        if sigma > 0.5:
            raise ValueError("asymptotic potential invalid this close to the preimage set")
        delta = -math.log1p(-sigma)
        inner_gamma, inner_err = self.inner.robin_offset(
            d * log_abs_z + self._lead_log() - delta)
        return self.robin(), (inner_err + delta) / d

    def boundary_net(self, m):
        targets = self.inner.boundary_net(max(8, m // max(1, self.poly.degree)))
        return self._pullback(targets)

    def interior_net(self, m):
        targets = self.inner.interior_net(max(8, m // max(1, self.poly.degree)))
        if targets.size == 0:
            return targets
        return self._pullback(targets)

    def _pullback(self, targets: np.ndarray) -> np.ndarray:
        """Solve f(z) = t for each target t (all deg f branches) via companion roots."""
        desc = np.asarray(self.poly.coeffs[::-1], dtype=np.complex128)
        s = self.poly.scale2
        roots = []
        for t in targets:
            c = desc.copy()
            c[-1] -= complex(_apply_scale2(np.asarray(t, np.complex128), -s))
            roots.append(np.roots(c))
        return np.concatenate(roots)


UNIT_DISK = Disk()


def green_model(K: ModelSet, z):
    """Exact closed-form potential of a model set; zero on the compactum."""
    return K.green(z)


def green_preimage(K: ModelSet, f: Polynomial, z):
    """Potential of f^{-1}(K) via the degree-normalized pullback."""
    return Preimage(K, f).green(z)


def sublevel_membership(K: ModelSet, z, eps: float) -> bool:
    """z lies in the eps-sublevel set {green <= eps} of K."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return bool(green_model(K, z) <= eps)


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    gamma: float
    spread: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("capacity must be positive")


def capacity_estimate(g, probe_radii, m: int = 256) -> CapacityEstimate:
    """Robin constant from circle averages of g(z) - log|z| at growing radii.

    g must accept a complex array.  The average over an m-point circle kills
    every decaying harmonic up to order m, so gamma converges fast once the
    radii clear the set; spread across radii is the convergence diagnostic.
    """
    radii = [float(r) for r in probe_radii]
    if len(radii) < 2:
        raise ValueError("need at least two probe radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("probe radii must be increasing")
    gammas = []
    for rho in radii:
        pts = circle_points(rho, m)
        vals = np.asarray(g(pts), dtype=float)
        gammas.append(float(np.mean(vals - np.log(np.abs(pts)))))
    gamma = gammas[-1]
    return CapacityEstimate(math.exp(-gamma), gamma, max(gammas) - min(gammas))


# --- orbits ----------------------------------------------------------------

@dataclass(frozen=True)
class GreenValue:
    """Normalized potential with a certified error budget."""

    value: float
    error_bound: float
    escaped_at: int | None
    ledger: DegreeLedger
    truncation_included: bool
    fallback_at: int | None = None

    def __post_init__(self):
        if self.value < 0 or self.error_bound < 0:
            raise ValueError("value and error_bound must be non-negative")


def _double_step(p: Polynomial, w: complex) -> complex | None:
    """p(w) in plain doubles, or None where the step must run scaled instead.

    The one switching rule of both scalar engines: doubles are left on
    overflow (of either part or of the modulus), when a nonzero value
    flushes to zero, or when |p(w)| or the unscaled Horner value
    |p(w)| / 2**scale2 falls below _TINY_SWITCH, where round-off in
    subnormal intermediates would start to show (a positive scale2 can
    lift a subnormal Horner value back into range with its lost bits).
    """
    try:
        nxt = evaluate(p, w)
        a = abs(nxt)
    except (MagnitudeOverflow, OverflowError):  # abs() overflows past 1.8e308
        return None
    if a == 0:
        return None if w != 0 else nxt
    if math.ldexp(a, -max(p.scale2, 0)) < _TINY_SWITCH:
        return None
    return nxt


def orbit_bounded(seq: PolySequence, z, n_steps: int, escape_radius: float):
    """(bounded, escaped_at): exact escape certificate; bounded = not yet escaped.

    Runs in plain doubles while _double_step allows it, then redoes that step
    and every later one in ScaledComplex arithmetic, so deep orbits and
    huge-coefficient steps stay exact.
    """
    if escape_radius <= 0:
        raise ValueError("escape radius must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    w = complex(z)
    sw: ScaledComplex | None = None
    r2 = escape_radius * escape_radius
    for k in range(1, n_steps + 1):
        p = seq.get(k)
        if sw is None:
            nxt = _double_step(p, w)
            if nxt is not None:
                w = nxt
                if w.real * w.real + w.imag * w.imag > r2:
                    return False, k
                continue
            sw = ScaledComplex.from_complex(w)  # redo this step exactly
        sw = evaluate_scaled(p, sw)
        if sw.exceeds(escape_radius):
            return False, k
    return True, None


def green_nonauto(seq: PolySequence, z, n_steps: int, escape_radius: float,
                  target: ModelSet = UNIT_DISK, tail_bound: float | None = None,
                  exponent_cap: int = DEFAULT_EXPONENT_CAP) -> GreenValue:
    """(1/D_N) g_target(P_N(z)) with P_N = p_N o ... o p_1.

    The orbit runs in plain doubles while it is safe and switches to
    ScaledComplex arithmetic on the rule orbit_bounded uses (_double_step),
    so both engines see the same orbit.  escape_radius should come from
    escape_radius_search / check_guided; escaped_at is the first step whose
    value exceeds it.  The orbit is exact until its base-2 exponent passes
    exponent_cap; there the asymptotic fallback truncates at N = that step.
    error_bound accumulates round-off, asymptotic-evaluation corrections,
    and 2*tail_bound/D_N when a tail constant (see klimek.tail_constant) is
    supplied.
    """
    if escape_radius <= 0:
        raise ValueError("escape radius must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    w: complex | None = complex(z)
    sw = ScaledComplex.from_complex(w)
    d_prod = 1
    log_d = 0.0
    d_exact: int | None = 1
    err = 0.0
    escaped_at: int | None = None
    fallback_at: int | None = None
    steps_run = 0
    for k in range(1, n_steps + 1):
        p = seq.get(k)
        if w is not None:
            w = _double_step(p, w)  # None from here on: the orbit runs scaled
        sw = ScaledComplex.from_complex(w) if w is not None else evaluate_scaled(p, sw)
        d = p.degree
        d_prod *= d
        log_d += math.log(d)
        if d_exact is not None:
            grown = d_exact * d
            d_exact = grown if grown <= _UINT64_MAX else None
        steps_run = k
        err += 16.0 * EPS * d * _inv_float(d_prod)
        if escaped_at is None and sw.exceeds(escape_radius):
            escaped_at = k
        if abs(sw.exponent) > exponent_cap:
            fallback_at = k
            break
    value, eval_err = _normalized_green(target, sw, d_prod)
    err += eval_err + 4.0 * EPS * (abs(value) + 1.0)
    if tail_bound is not None:
        err += 2.0 * tail_bound * _inv_float(d_prod)
    ledger = DegreeLedger(steps_run, log_d, d_exact)
    return GreenValue(max(0.0, value), err, escaped_at, ledger,
                      tail_bound is not None, fallback_at)


def _normalized_green(target: ModelSet, w: ScaledComplex, d_prod: int):
    """g_target(w)/d_prod and an error bound, valid for any exponent size."""
    inv_d = _inv_float(d_prod)
    if w.mantissa == 0:
        return float(target.green(0j)) * inv_d, 4.0 * EPS
    if abs(w.exponent) <= _SCALED_TO_COMPLEX_EXP:
        g = float(target.green(w.to_complex()))
        return g * inv_d, 8.0 * EPS * (abs(g) + 1.0) * inv_d
    if w.exponent < 0:
        # essentially at the origin; the potential is continuous there
        return float(target.green(0j)) * inv_d, 1e-200
    gamma, g_err = target.robin_offset(w.log_abs())
    ratio = float(Fraction(w.exponent, d_prod))
    value = ratio * LN2 + (math.log(abs(w.mantissa)) + gamma) * inv_d
    return value, (g_err + 8.0 * EPS * abs(gamma)) * inv_d + 4.0 * EPS * abs(value)


# --- vectorized orbit engine -------------------------------------------------

class _StepMeta:
    __slots__ = ("coeffs", "degree", "scale2", "lead_log", "cutoff",
                 "parity_sub", "parity_rem")

    def __init__(self, p: Polynomial):
        c = np.asarray(p.coeffs, dtype=np.complex128)
        self.coeffs = c
        self.degree = p.degree
        self.scale2 = p.scale2
        self.lead_log = math.log(abs(c[-1])) + p.scale2 * LN2
        abs_sum = float(np.abs(c).sum())
        # below this modulus, applying the step cannot overflow doubles
        self.cutoff = (1e300 / max(abs_sum, 1.0)) ** (1.0 / max(1, p.degree))
        rem = p.degree % 2
        idx = np.nonzero(c)[0]
        if p.degree >= 4 and idx.size and bool(np.all(idx % 2 == rem)):
            self.parity_sub = c[rem::2]
            self.parity_rem = rem
        else:
            self.parity_sub = None
            self.parity_rem = 0


def _horner(meta: _StepMeta, w: np.ndarray) -> np.ndarray:
    if meta.parity_sub is not None:
        u = w * w
        acc = np.full(w.shape, meta.parity_sub[-1], dtype=np.complex128)
        for c in meta.parity_sub[-2::-1]:
            acc *= u
            if c != 0:
                acc += c
        return acc * w if meta.parity_rem else acc
    acc = np.full(w.shape, meta.coeffs[-1], dtype=np.complex128)
    for c in meta.coeffs[-2::-1]:
        acc *= w
        if c != 0:
            acc += c
    return acc


def escape_steps(seq: PolySequence, points, n_steps: int, escape_radius: float) -> np.ndarray:
    """First escape step per point (0 = still bounded after n_steps).

    Double-precision engine for rasters and grids; true magnitudes below
    double range flush to zero (orbit_bounded is the exact scalar reference).
    """
    if escape_radius <= 0:
        raise ValueError("escape radius must be positive")
    src = np.asarray(points, dtype=np.complex128)
    pts = src.ravel()
    steps = np.zeros(pts.shape, dtype=np.int32)
    idx = np.arange(pts.size)
    w = pts.copy()
    log_r = math.log(escape_radius)
    for k in range(1, n_steps + 1):
        if idx.size == 0:
            break
        meta = _StepMeta(seq.get(k))
        u = _horner(meta, w)
        bad = ~(np.isfinite(u.real) & np.isfinite(u.imag))
        if meta.scale2 == 0:
            esc = (np.abs(u) > escape_radius) | bad
            w = u
        else:
            with np.errstate(divide="ignore"):
                lu = np.where(u == 0, -np.inf, np.log(np.abs(u))) + meta.scale2 * LN2
            esc = (lu > log_r) | bad
            w = _apply_scale2(u, meta.scale2)
        if esc.any():
            steps[idx[esc]] = k
            keep = ~esc
            idx = idx[keep]
            w = w[keep]
    return steps.reshape(src.shape)


def green_field(seq: PolySequence, points, n_steps: int, escape_radius: float,
                target: ModelSet = UNIT_DISK):
    """(values, escape_steps, final_w): normalized potential over a point set.

    Escaped points keep evolving: in doubles while safe, then in normalized
    log space once past the per-step overflow cutoff (corrections dropped
    there sit far below double resolution).  final_w holds the last complex
    orbit value where one exists, else nan.
    """
    if escape_radius <= 0:
        raise ValueError("escape radius must be positive")
    src = np.asarray(points, dtype=np.complex128)
    pts = src.ravel()
    n = pts.size
    w = pts.copy()
    in_log = np.zeros(n, dtype=bool)
    glog = np.zeros(n, dtype=float)
    steps = np.zeros(n, dtype=np.int32)
    d_prod = 1
    for k in range(1, n_steps + 1):
        meta = _StepMeta(seq.get(k))
        d_prev = d_prod
        d_prod *= meta.degree
        inv_d = _inv_float(d_prod)
        # promote live points the incoming step could overflow
        live_idx = np.flatnonzero(~in_log)
        if live_idx.size:
            aw = np.abs(w[live_idx])
            hot = aw > min(meta.cutoff, 1e100)
            if hot.any():
                tgt = live_idx[hot]
                glog[tgt] = np.log(aw[hot]) * _inv_float(d_prev)
                in_log[tgt] = True
        if in_log.any():
            glog[in_log] += meta.lead_log * inv_d
        live_idx = np.flatnonzero(~in_log)
        if live_idx.size:
            u = _horner(meta, w[live_idx])
            if meta.scale2 == 0:
                w[live_idx] = u
            else:
                with np.errstate(divide="ignore"):
                    lu = np.where(u == 0, -np.inf, np.log(np.abs(u))) + meta.scale2 * LN2
                jump = lu > math.log(1e100)
                if jump.any():
                    tgt = live_idx[jump]
                    glog[tgt] = lu[jump] * inv_d  # includes this step already
                    in_log[tgt] = True
                w[live_idx] = _apply_scale2(u, meta.scale2)
        fresh = steps == 0
        if fresh.any():
            crossed = fresh & in_log
            lv = fresh & ~in_log
            if lv.any():
                a = np.abs(w[lv])
                crossed[lv] = (a > escape_radius) | ~np.isfinite(a)
            steps[crossed] = k
    values = np.empty(n, dtype=float)
    inv_n = _inv_float(d_prod)
    if in_log.any():
        values[in_log] = np.maximum(0.0, glog[in_log] + target.robin() * inv_n)
    live = ~in_log
    if live.any():
        wl = w[live]
        if not np.all(np.isfinite(wl.real) & np.isfinite(wl.imag)):
            raise RuntimeError("vector green engine produced non-finite orbit values")
        values[live] = np.maximum(0.0, np.asarray(target.green(wl), dtype=float)) * inv_n
    w_out = np.where(in_log, complex(np.nan, np.nan), w)
    return values.reshape(src.shape), steps.reshape(src.shape), w_out.reshape(src.shape)
