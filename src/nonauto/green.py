"""Green functions of model compacta and of polynomial-sequence preimages.

Model sets carry exact closed-form potentials (disk, filled Joukowski
ellipses E_r with the segment [-1,1] as E_1, polynomial preimages of any of
these).  The non-autonomous potential of a sequence is the normalized escape
rate (1/(d_1...d_N)) log+ |p_N o ... o p_1|.  The four orbit drivers share one
input check (_engine_points) and the lanes' rules: one value carrier (the
double in the safe double band, else a mantissa and an exponent), one step
(double Horner in the band; off it the lowest term alone below
Polynomial.log_tiny, the lead alone from log_safe on, else the same Horner on
a rescaled variable; poly._evaluate skips a band Horner it predicts to land
below the band, and _advance keeps it, since lanes almost never do), one
escape test (_beyond's) and one finishing step (_finish).  orbit_bounded and
green_nonauto step one point in Python (poly._evaluate), the tests' reference;
escape_steps and green_field step arrays (_advance), and Preimage.green runs
one step and _finish.  Preimage nets take closed-form roots for exact
Chebyshev maps, companion roots elsewhere, by one rule for one map or many
(_pullbacks).  The vector engines carry their points through every step in
fixed chunks that fit a core's L2 cache.  For a periodic sequence both retire
a lane found after a whole period in disks certified about an attracting cycle
of the period map (_trap, _held): its escape step 0 is exact, since its float
orbit provably never leaves them, and so is green_field's value +0.0, which it
takes only for a Disk target whose green is provably 0 on them.  With real
coefficients no result depends on the chunking or on render's thread bands.
With complex ones numpy rounds a product in a one-point chunk differently
from a wider chunk: a value may move by a few units of rounding,
EPS (1 + value), always inside green_nonauto's error bound, and an escape
step only where that rounding crosses the escape radius.  The scalar
potential comes with an error budget: certified floating round-off and
asymptotic corrections, and (when a tail constant is supplied) the geometric
truncation term covering every unrun step, which rests on a sampled estimate
because klimek.tail_constant is a sampled lower bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .poly import (BAND_LOW, BAND_MIN_EXP, EPS, LN2, Polynomial, ScaledComplex, _evaluate,
                   _is_finite, _ldexp_arr, _log2_moduli, _normalize, modulus_ratios, polynomial)
from .sequences import PolySequence, _horner, circle_points, values_on


def _as_c(z):
    arr = np.asarray(z, dtype=np.complex128)
    return arr, arr.ndim == 0


def _flat_finite(arr: np.ndarray) -> np.ndarray:
    flat = arr.ravel()
    if not np.isfinite(flat).all():
        raise ValueError("points must be finite")
    return flat


def _ret(values, scalar):
    return float(values) if scalar else values


class ModelSet:
    """Closed compactum with an exact Green function (pole at infinity)."""

    def green(self, z):
        raise NotImplementedError

    def robin(self) -> float:
        """Robin constant: the limit of green(z) - log|z| at infinity."""
        raise NotImplementedError

    def capacity(self) -> float:
        return capacity_of(self.robin())

    def enclosing_radius(self) -> float:
        raise NotImplementedError

    def robin_error(self, log_abs_z: float) -> float:
        """Certified error of green ~ log|z| + robin() at |z| = exp(log_abs_z)."""
        raise NotImplementedError

    def boundary_net(self, m: int) -> np.ndarray:
        raise NotImplementedError

    def interior_net(self, m: int) -> np.ndarray:
        return np.empty(0, dtype=np.complex128)

    def nets(self, ms) -> list[np.ndarray]:
        """boundary_net(m) then interior_net(m), joined, for each m of ms."""
        return [np.concatenate([self.boundary_net(m), self.interior_net(m)]) for m in ms]

    @cached_property
    def _asymptotic_log2(self) -> float:
        """log2|w| (to within 1) from which robin_error certifies g(w) =
        log|w| + robin to within EPS, inf if nowhere below 2**(2**20); kept."""
        def exact(x):
            try:
                return self.robin_error(x * LN2) <= EPS
            except ValueError:
                return False
        lo, hi = -1100.0, 2.0**20
        while hi - lo > 1:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if exact(mid) else (mid, hi)
        return hi if exact(hi) else math.inf


def capacity_of(robin: float) -> float:
    """exp(-robin): the capacity for this Robin constant, inf past double range."""
    try:
        return math.exp(-robin)
    except OverflowError:
        return math.inf


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
    # on the set itself the formula rounds to +-1ulp around zero; snap it (nan stays nan)
    return np.where(g <= _GREEN_FLOOR, 0.0, g)


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
        if not _is_finite(complex(self.center)):
            raise ValueError("disk center must be finite")
        if not 0 < self.radius < math.inf:
            raise ValueError("disk radius must be positive and finite")
        if math.hypot(self.center.real, self.center.imag) + self.radius == math.inf:
            raise ValueError("disk center modulus plus radius must stay within double range")

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

    def robin_error(self, log_abs_z):
        a = abs(self.center)
        if a == 0.0:
            return 0.0
        log_2a = LN2 + math.log(a)  # 2a itself overflows past a = 9e307
        if log_abs_z < log_2a:
            raise ValueError("asymptotic potential invalid this close to the disk")
        return math.exp(log_2a - log_abs_z)

    def boundary_net(self, m):
        return self.center + circle_points(self.radius, m)

    def interior_net(self, m):
        unit = circle_points(1.0, max(8, m // 4))
        rings = [self.center + (f * self.radius) * unit for f in (0.25, 0.5, 0.75)]
        return np.concatenate([np.array([complex(self.center)]), *rings])


@dataclass(frozen=True)
class Ellipse(ModelSet):
    """Filled ellipse with foci +-1: image of |w| <= r under (w + 1/w)/2, r > 1."""

    r: float

    def __post_init__(self):
        if not 1 < self.r < math.inf:
            raise ValueError("ellipse parameter must be finite and exceed 1")

    @property
    def semi_major(self) -> float:
        return 0.5 * (self.r + 1.0 / self.r)

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

    def robin_error(self, log_abs_z):
        if log_abs_z < math.log(self.r) + 0.7:
            raise ValueError("asymptotic potential invalid this close to the ellipse")
        return math.exp(-2.0 * log_abs_z)

    def boundary_net(self, m):
        w = circle_points(self.r, m)
        return 0.5 * (w + 1.0 / w)

    def interior_net(self, m):
        nets, unit = [], circle_points(1.0, max(8, m // 4))
        for f in (0.25, 0.5, 0.75):
            w = (1.0 + f * (self.r - 1.0)) * unit
            nets.append(0.5 * (w + 1.0 / w))
        return np.concatenate(nets)


@dataclass(frozen=True)
class Segment(Ellipse):
    """The segment [-1, 1]: the ellipse at r = 1, whose closed forms it shares
    (log 1 = 0), with its own net on the segment and no interior."""

    r: float = field(default=1.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        pass  # r = 1 is fixed, below Ellipse's r > 1

    def boundary_net(self, m):
        return np.linspace(-1.0, 1.0, max(2, m)).astype(np.complex128)

    interior_net = ModelSet.interior_net


_NEWTON_STEPS = 10
_STEP_TOL = 1e-12        # last Newton step, relative to the root
_U_NORMAL = 2.0**-1022   # below this a root in u has lost bits to underflow


def _unit_scaled(coeffs: np.ndarray, rhs: np.ndarray):
    """coeffs and rhs times the power of two that puts the largest |coeffs[j]|
    in [1, 2): the same roots, and neither np.roots's division by the lead
    nor the slope coefficients j coeffs[j] can overflow."""
    e = math.floor(_log2_moduli(coeffs)[1].max())
    return _ldexp_arr(coeffs, -e), _ldexp_arr(rhs, -e)


def _newton(coeffs: np.ndarray, tau: np.ndarray, u: np.ndarray):
    """Newton for sum coeffs[j] x**j = tau[i] from the start u[i], each on its own;
    returns (x, ok), ok where the last of at most _NEWTON_STEPS steps is at most
    _STEP_TOL of the new point's modulus."""
    slope = coeffs[1:] * np.arange(1, coeffs.size)
    live = np.arange(u.size)
    out, ok = u.copy(), np.zeros(u.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            step = (_horner(coeffs, u) - tau) / _horner(slope, u)
            u = u - step
            done = np.abs(step) <= _STEP_TOL * np.abs(u)
            out[live[done]], ok[live[done]] = u[done], True
            u, tau, live = u[~done], tau[~done], live[~done]
            if not live.size:
                break
    return out, ok


def _chebyshev_roots(polys, targets):
    """[(z, crit)] for each p = C T_d exactly (chebyshev_error 0) of polys and its targets t,
    in one elementwise pass over every row: z[i] holds the d roots of p(z) = t_i, crit the
    rows with tau = t_i / C = +-1 exactly, T_d's critical values (z rows not meaningful).

    C = 2**scale2 lead / 2**(d-1).  With W = tau + sqrt(tau - 1) sqrt(tau + 1) (no
    cancellation at any |tau|; cosh is even, so 1/W, the other root of W + 1/W =
    2 tau, gives the same set), the roots are (w + 1/w)/2 = cosh(log w) over
    w = exp((log W + 2 pi i j)/d), j < d (Rivlin ch. 1).
    Past |tau| = 2**500, W is 2 tau to rounding and log W is taken from log2|t|, so
    no scale2 overflows; for d = 1 the root is tau itself.
    """
    n, d = [t.size for t in targets], np.array([p.degree for p in polys])
    fm, fe = np.frexp([p.array[-1].real for p in polys])  # lead = fm 2**fe: tau = t 2**shift / fm
    shift = np.repeat(d - 1 - np.array([p.scale2 for p in polys]) - fe, n)
    d, fm, log2_fm = (np.repeat(v, n) for v in (d, fm, np.log2(abs(fm))))
    t = np.concatenate(targets)
    m, e = _normalize(t, 0.0)
    with np.errstate(divide="ignore"):  # t = 0
        log2_tau = np.log2(np.abs(m)) + e + shift - log2_fm
    far = log2_tau > 500
    tau = _ldexp_arr(np.where(far, 0j, t), shift) / fm
    log_w = np.log(tau + np.sqrt(tau - 1.0) * np.sqrt(tau + 1.0))
    log_w[far] = (log2_tau[far] + 1.0) * LN2 + 1j * np.angle(t[far] * np.sign(fm[far]))
    start = np.cumsum(d) - d  # each row's first root
    z = np.cosh((np.repeat(log_w, d) + 2j * np.pi * (np.arange(d.sum()) - np.repeat(start, d)))
                / np.repeat(d, d))
    one = (d == 1) & ~far  # cosh(log W) loses tau's bits to cancellation near 0
    z[start[one]] = tau[one]
    return [(zi.reshape(-1, p.degree), np.flatnonzero(ci)) for p, zi, ci in zip(
        polys, np.split(z, np.cumsum([k * p.degree for k, p in zip(n, polys)])[:-1]),
        np.split((tau == 1.0) | (tau == -1.0), np.cumsum(n)[:-1]))]


@dataclass(frozen=True)
class Preimage(ModelSet):
    """f^{-1}(inner): potential (1/deg f) * g_inner(f(z)).

    green takes f(z) by one step of the engine's rule (values_on, _settle) and
    finishes it like green_field's lanes (_finish): (1/deg f) g_inner(f(z)) for
    f(z) of any size, to one Horner's rounding where inner.green is exact.
    Its nets pull back the inner set's at m // deg f (at least 8); nets solves
    every size in one _pullback, and a nested preimage once per level; _pullbacks
    gives the rows' rule.
    """

    inner: ModelSet
    poly: Polynomial

    def __post_init__(self):
        if self.poly.degree < 1:
            raise ValueError("preimage map must be non-constant")

    def green(self, z):
        arr, scalar = _as_c(z)
        flat = _flat_finite(arr)
        w, e, a = _settle(self.poly, values_on(self.poly, flat), flat, np.zeros(flat.size))
        # inner.green in the band at any size: the asymptotic form would mend (i) of
        # ROADMAP item 1 for Segment inners, and move a recorded benchmark value
        values = _finish(self.inner, w, e, a, 1 / self.poly.degree, math.inf)[0]
        return _ret(values.reshape(arr.shape), scalar)

    def robin(self) -> float:
        return (self.inner.robin() + self.poly.lead_log) / self.poly.degree

    def enclosing_radius(self) -> float:
        # Cauchy-style bound covering every branch of f(z) = w, |w| <= rho.
        rho = self.inner.enclosing_radius()
        log_ru = math.log(rho) - self.poly.scale2 * LN2
        *top, ru = modulus_ratios([*self.poly.coeffs[:-1], math.exp(min(700.0, log_ru))],
                                  self.poly.coeffs[-1])
        return 1.0 + max(top) + ru

    def robin_error(self, log_abs_z):
        d = self.poly.degree
        ratios = sum(modulus_ratios(self.poly.coeffs[:-1], self.poly.coeffs[-1]))
        sigma = ratios * math.exp(-log_abs_z) if log_abs_z > -700 else math.inf
        if sigma > 0.5:
            raise ValueError("asymptotic potential invalid this close to the preimage set")
        delta = -math.log1p(-sigma)
        inner_err = self.inner.robin_error(d * log_abs_z + self.poly.lead_log - delta)
        return (inner_err + delta) / d

    def boundary_net(self, m):
        targets = self.inner.boundary_net(max(8, m // max(1, self.poly.degree)))
        return self._pullback(targets)

    def interior_net(self, m):
        targets = self.inner.interior_net(max(8, m // max(1, self.poly.degree)))
        return self._pullback(targets) if targets.size else targets

    def nets(self, ms):
        """ModelSet.nets by one _pullback of the inner set's nets at every size."""
        parts = self.inner.nets([max(8, m // self.poly.degree) for m in ms])
        z = self._pullback(np.concatenate(parts))
        return np.split(z, self.poly.degree * np.cumsum([p.size for p in parts[:-1]]))

    def _pullback(self, targets: np.ndarray) -> np.ndarray:
        """f(z) = t for each target t, its deg f branches target by target: _pullbacks."""
        return _pullbacks([self], [np.asarray(targets, np.complex128)])[0]

    def _solve(self, targets: np.ndarray) -> np.ndarray:
        """f(z) = t for each target t by companion roots.

        f = 2**s sum a_j z**j is solved in z = 2**k u, sum a_j 2**((j-d)k) u**j
        = t 2**(-s-dk), with k = -s/d rounded (raised until no a_j 2**((j-d)k)
        passes 2**500 |a_d|), so any s works; underflowing terms are negligible.
        Each target takes np.roots's companion matrix, stacked in
        np.linalg.eigvals calls of at most _CHUNK entries (one matrix past it),
        so np.roots's roots bit for bit.  A target equal to a_0 in u keeps
        np.roots, which strips the root 0; its roots are f's zeros, free of s,
        so it is solved in z = 2**h v, h = max(0, the raise) (h = k at s = 0),
        or by k's rule for t's own size if t 2**-s passes 2**1000 |a_d| there.
        Roots that underflow in u are polished by _newton in z, each from its
        own start: r > 1 of a row (r < d, z**r not dividing f - t) start from
        the pullback of t under a_0 + ... + a_r z**r, whose roots they are to
        within the dropped terms; the others start from 0.  An exact root 0 of
        f - t with f'(0) = 0 (a held row that z**2 divides) skips _newton: each
        of its steps there is 0/0, so none would be accepted.
        """
        c, (j, mag) = self.poly.array, self.poly._moduli
        d, s = self.poly.degree, self.poly.scale2
        lo = np.ceil((mag[:-1] - mag[-1] - 500) / (d - j[:-1])).max(initial=-math.inf)
        k, k0 = int(max(-round(s / d), lo)), int(max(0, lo))
        scaled, taus = _unit_scaled(_ldexp_arr(c, (np.arange(d + 1) - d) * k),
                                    _ldexp_arr(targets, -s - d * k))
        n = taus.size
        roots = np.empty((n, d), dtype=np.complex128)
        exact = {}  # z-roots of the rows solved in 2**h v
        step = max(1, _CHUNK // (d * d))  # matrices per eigvals call
        for at in np.split(np.arange(n), range(step, n, step)):
            b = np.tile(scaled[::-1], (at.size, 1))
            b[:, -1] -= taus[at]
            held = b[:, -1] == 0  # t = a_0: np.roots strips the root 0
            for i in at[held]:
                lt = _log2_moduli(targets[i:i + 1])[1].max(initial=-math.inf) - s - mag[-1]
                h = k0 if lt - d * k0 < 1000 else round(lt / d)  # t 2**-s a double there
                cv, tv = _unit_scaled(_ldexp_arr(c, (np.arange(d + 1) - d) * h),
                                      _ldexp_arr(targets[i:i + 1], -s - d * h))
                v = np.roots(np.append(cv[:0:-1], cv[0] - tv[0])).astype(complex)
                roots[i], exact[i] = _ldexp_arr(v, h - k), _ldexp_arr(v, h)
            a = np.zeros((at.size, d, d), dtype=b.dtype)  # np.roots's matrices
            a[:, 0, :] = -b[:, 1:] / b[:, :1]
            a[:, np.arange(1, d), np.arange(d - 1)] = 1
            roots[at[~held]] = np.linalg.eigvals(a[~held])
        z = _ldexp_arr(roots, k)
        if exact:
            z[list(exact)] = np.reshape([*exact.values()], (-1, d))
        z, tiny = z.ravel(), np.abs(roots) < _U_NORMAL
        if not tiny.any():
            return z
        r = tiny.sum(axis=1)
        for i in np.flatnonzero((r > 1) & (r < d) & (c[r] != 0)):  # the r least roots
            if i not in exact or c[1:r[i]].any():  # else z**r divides f - t: all 0
                low = Preimage(self.inner, polynomial(*c[:r[i] + 1], scale2=s))
                z[i * d + np.flatnonzero(tiny[i])] = low._pullback(targets[i:i + 1])
        tiny = np.flatnonzero(tiny)
        cs, ts = _unit_scaled(c, _ldexp_arr(targets[tiny // d], -s))
        go = (z[tiny] != 0) | (ts != cs[0]) | (cs[1] != 0)  # else every step is 0/0
        tiny, ts = tiny[go], ts[go]
        if tiny.size:
            w, ok = _newton(cs, ts, z[tiny])
            z[tiny[ok]] = w[ok]
        return z


def _pullbacks(pres, targets) -> list[np.ndarray]:
    """[pre._pullback(t) for pre, t in zip(pres, targets)], targets an array per map.

    An exact Chebyshev map, f = C T_d (f.chebyshev_error == 0), takes each row by
    _chebyshev_roots' closed form, to rounding, in one pass for every such map, but a
    row over a critical value (t = +-C, T_d's double roots) takes companion roots
    (_solve), np.roots's bit for bit: bench/reference.json records the smoke classical
    tail, 1.68e-9 from such roots (exactly 0), to 1e-9, which exact roots (4.2e-9) would
    miss.  Other maps: _solve, map by map.  A row depends on its own target alone, so
    each distinct target of a map (by bit pattern: +0.0 and -0.0 apart) is solved once
    and copied to every repeat, such as Segment's t = +-1 in both net sizes.
    """
    cheb = [pre.poly.chebyshev_error == 0 for pre in pres]
    closed = iter(_chebyshev_roots([pre.poly for pre, c in zip(pres, cheb) if c],
                                   [t for t, c in zip(targets, cheb) if c]) if any(cheb) else ())
    out = []
    for pre, t, c in zip(pres, targets, cheb):
        z, rows = next(closed) if c else (np.empty((t.size, pre.poly.degree), complex),
                                          np.arange(t.size))
        if rows.size:
            u = t[rows]
            _, first, back = np.unique(u.view(np.int64).reshape(-1, 2), axis=0,
                                       return_index=True, return_inverse=True)
            z[rows] = pre._solve(u[first]).reshape(first.size, -1)[back.ravel()]
        out.append(z.ravel())
    return out


UNIT_DISK = Disk()


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    gamma: float
    spread: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("capacity must be positive")


_CAPACITY_SAMPLES = 256  # points per probe circle of capacity_estimate


def capacity_estimate(g, probe_radii) -> CapacityEstimate:
    """Robin constant from circle averages of g(z) - log|z| at growing radii.

    g must accept a complex array.  A circle average over m = _CAPACITY_SAMPLES
    points kills every decaying harmonic up to order m, so gamma converges fast
    once the radii clear the set; spread across radii is the convergence diagnostic.
    The commands print closed forms instead (capacity_of); this stays as the
    tests' sampled oracle of them, and bench/tracing.py times it.
    """
    radii = [float(r) for r in probe_radii]
    if len(radii) < 2:
        raise ValueError("need at least two probe radii")
    if not all(0 < r < math.inf for r in radii):
        raise ValueError("probe radii must be positive and finite")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("probe radii must be increasing")
    gammas = []
    for rho in radii:
        pts = circle_points(rho, _CAPACITY_SAMPLES)
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
    truncation_included: bool

    def __post_init__(self):
        if self.value < 0 or self.error_bound < 0:
            raise ValueError("value and error_bound must be non-negative")


def _engine_points(points, n_steps: int, escape_radius: float):
    """(flat points, shape, log2 R) after the four drivers' one input check, which
    comes before any step is built: at least one step, R = escape_radius positive
    and finite, every point finite."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0 < escape_radius < math.inf:
        raise ValueError("escape radius must be positive and finite")
    src = np.asarray(points, dtype=np.complex128)
    return _flat_finite(src), src.shape, math.log2(escape_radius)


def _escaped(w: complex, e: int, r: float, log2_r: float) -> bool:
    """_beyond for one carried value.  abs() differs from numpy's complex
    modulus by an ulp for about a third of all w, so near r numpy's decides;
    clamping e to +-4096 keeps it a finite float and changes no outcome."""
    if not e:
        a = abs(w)
        return (np.abs(w) if abs(a - r) <= 4 * EPS * r else a) > r
    return min(max(e, -4096), 4096) + math.log2(abs(w)) > log2_r


def orbit_bounded(seq: PolySequence, z, n_steps: int, escape_radius: float):
    """(bounded, escaped_at): exact escape certificate; bounded = not yet escaped.

    The scalar twin of escape_steps, on the lanes' rules (poly._evaluate,
    _beyond's test); they agree wherever their roundings do (module docstring).
    """
    w, e = complex(z), 0
    log2_r = _engine_points(w, n_steps, escape_radius)[2]
    for k in range(1, n_steps + 1):
        w, e, _ = _evaluate(seq.get(k), w, e)
        if _escaped(w, e, escape_radius, log2_r):
            return False, k
    return True, None


def green_nonauto(seq: PolySequence, z, n_steps: int, escape_radius: float,
                  target: ModelSet = UNIT_DISK, tail_bound: float | None = None) -> GreenValue:
    """(1/D_N) g_target(P_N(z)) with P_N = p_N o ... o p_1.

    The scalar twin of green_field: the orbit steps as in orbit_bounded to
    step N at any depth, escaped_at is its first step past escape_radius
    (from escape_radius_search / check_guided), and _finish takes the value
    with green_field's floor.  error_bound sums 16 eps d_k / D_k times each
    step's Horner condition number (inf at a computed zero away from 0);
    target.robin_error where the asymptotic form is used, 8 eps (g + 1) / D_N
    where target.green runs in the band, 1e-200 below it; 4 eps (value + 1);
    and 2*tail_bound/D_N when a tail constant is given.  klimek.tail_constant
    is a sampled lower bound, so with it that term rests on a sampled estimate.
    """
    w, e = complex(z), 0
    log2_r = _engine_points(w, n_steps, escape_radius)[2]
    if tail_bound is not None and not 0 <= tail_bound < math.inf:
        raise ValueError("tail bound must be finite and non-negative")
    d_prod, err, escaped_at = 1, 0.0, None
    for k in range(1, n_steps + 1):
        p = seq.get(k)
        w, e, mu = _evaluate(p, w, e)
        d_prod *= p.degree
        err += 16.0 * EPS * p.degree * mu * (1 / d_prod) if mu < math.inf else math.inf
        if escaped_at is None and _escaped(w, e, escape_radius, log2_r):
            escaped_at = k
    # _finish holds e as a float: past 2**1000 it and 1/D_N shrink by one power
    # of two, which keeps their product; far below the band the value flushes
    k = max(0, e.bit_length() - 1000) if e > 0 else 0
    lane = np.array([w])
    values, _, far = _finish(target, lane, np.array([max(e, -4096) / (1 << k)]), np.abs(lane),
                             (1 << k) / d_prod, max(log2_r, target._asymptotic_log2))
    value, inv_d = float(values[0]), 1 / d_prod
    if far[0]:
        robin_err = target.robin_error(ScaledComplex(w, e).log_abs())
        err += (robin_err + 8.0 * EPS * abs(target.robin())) * inv_d + 4.0 * EPS * value
    else:
        err += 1e-200 if e < 0 else 8.0 * EPS * (value + inv_d)
    err += 4.0 * EPS * (value + 1.0) + (0.0 if tail_bound is None else 2.0 * tail_bound * inv_d)
    return GreenValue(value, err, escaped_at, tail_bound is not None)


# --- vectorized orbit engine -------------------------------------------------
#
# A lane holds the value w * 2**e: a double w and e == 0 in the band, else a
# mantissa |w| in [1, 2) and an integer exponent e (a float, exact below 2**53).
# Points run through every step one chunk at a time, so that a step's arrays
# (Horner accumulator, w, e) stay in a core's L2 cache instead of streaming
# the whole point set through memory once per coefficient.

_CHUNK = 32_768  # points per chunk: 512 KB per complex128 array
_SQUARE_LOW = 2.0**-511  # below it w*w is subnormal or 0


def _far_horner(coeffs: np.ndarray, valuation: int, x: np.ndarray, big: np.ndarray) -> np.ndarray:
    h = np.empty_like(x)
    for lanes, cs in ((big, coeffs[::-1]), (~big, coeffs[valuation:])):
        if lanes.any():
            h[lanes] = _horner(cs, x[lanes])
    return h


def _far_step(p: Polynomial, m: np.ndarray, e: np.ndarray):
    """poly._far over arrays, lane by lane: p(m * 2**e) off the band, as (mantissa,
    exponent).  A lane below log2|w| = p.log_tiny keeps a_v w**v alone, one from
    p.log_safe on a_d w**d alone, and the rest run the Horner on |x| <= 1."""
    lg = np.log2(np.abs(m))
    lw = np.clip(e, -4096, 4096) + lg
    tiny, lead = lw < p.log_tiny, lw >= p.log_safe
    big = ~tiny & (lead | (e >= 0))  # the lanes whose power is the degree
    k = np.where(big, float(p.degree), float(p.valuation))
    h, mid = np.where(big, p.array[-1], p.array[p.valuation]), ~(tiny | lead)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.where(big, _ldexp_arr(1 / m, -e), _ldexp_arr(m, e))  # |x| <= 1 on mid lanes
        h[mid] = _far_horner(p.array, p.valuation, x[mid], big[mid])
    shift = np.zeros(m.size)
    bad = ~np.isfinite(h)  # one-term lanes hold a finite coefficient
    if bad.any():  # coefficients near 1.8e308 overflowed: rerun them scaled by 2**-s
        h[bad] = _far_horner(_ldexp_arr(p.array, -p.binade), p.valuation, x[bad], big[bad])
        shift[bad] = p.binade
    lm = k * lg
    ik = np.floor(lm)
    h, ex = _normalize(h, np.where(k > 0, e * k, 0.0) + ik + p.scale2 + shift)
    return _normalize(h * np.exp2(lm - ik) * np.exp(1j * k * np.angle(m)), ex)


def _advance(p: Polynomial, w: np.ndarray, e: np.ndarray, a: np.ndarray):
    """One step by p of poly._evaluate's rule over lanes with moduli a (the last
    step's |w|); returns (w, e, |w|).  From degree 4 on, a p of one parity runs its
    Horner on every other coefficient in w*w, except on lanes with 0 < |w| < 2**-511,
    where w*w loses bits to underflow: they rerun the full Horner, lane by lane, so
    no result depends on the chunk.  Unlike poly._evaluate it does not predict the
    band lanes that land below the band: too few pay for the test.  In one pass each
    of the bench's figures, metric_table and cli_custom workloads, 0 of 58.3M, 16 of
    1.21M and 0 of 2.80M lane steps that start in the band land there."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow sends a lane off-band
        if p.degree < 4 or p.parity is None:
            return _settle(p, _horner(p.array, w), w, e)
        u = _horner(p.array[p.parity::2], w * w)
        u = u * w if p.parity else u
        if a.min(initial=1.0) < _SQUARE_LOW:  # off-band lanes hold a mantissa's, >= 1
            low = np.flatnonzero((a < _SQUARE_LOW) & (a > 0))
            u[low] = _horner(p.array, w[low])
        return _settle(p, u, w, e)


def _settle(p: Polynomial, u: np.ndarray, w: np.ndarray, e: np.ndarray):
    """The off-band half of _advance by p, given u, p's unscaled double Horner
    value (used where e == 0); returns (w, e, |w|), |w| a mantissa's off the band,
    and may reuse u.  Band lanes keep u when |u| is finite and at least
    BAND_LOW (or the lane is 0, where it is exact); the rest run _far_step."""
    a = np.abs(u)
    if not p.scale2 and a.size and a.min() >= BAND_LOW and a.max() < np.inf and not e.any():
        return u, e, a  # every lane stays in the band (a nan fails the min test)
    off = ~((a >= BAND_LOW) & (a < np.inf)) | (e != 0)
    sub = np.arange(u.size) if p.scale2 else np.flatnonzero(off)
    redo = off[sub] & ((e[sub] != 0) | (w[sub] != 0))
    m, ex = _normalize(np.where(redo, 0j, u[sub]), p.scale2)  # redo lanes may be inf
    if redo.any():
        r = sub[redo]
        m[redo], ex[redo] = _far_step(p, *_normalize(w[r], e[r]))
    band = (ex >= BAND_MIN_EXP) & (ex <= 1023)
    m[band] = _ldexp_arr(m[band], ex[band])
    ex[band] = 0.0
    e = np.zeros(u.size)
    u[sub], e[sub], a[sub] = m, ex, np.abs(m)
    return u, e, a


def _beyond(a: np.ndarray, e: np.ndarray, r: float, log2_r: float) -> np.ndarray:
    """|value| > r per lane: a plain compare in the band, by exponent off it."""
    out = a > r
    if e.any():
        far = np.flatnonzero(e)
        out[far] = e[far] + np.log2(a[far]) > log2_r
    return out


def _finish(target: ModelSet, w: np.ndarray, e: np.ndarray, a: np.ndarray, inv_d: float,
            log2_floor: float):
    """(values, w, far) for lanes holding w * 2**e with moduli a: g_target/D
    (1/D = inv_d), each lane's double (nan above the band, flushed below it)
    over w, and where each lane took the asymptotic form.  Above the band, and
    from |w| = 2**log2_floor >= 2**target._asymptotic_log2 on, a lane takes
    (log|w| + robin)/D, else target.green."""
    far = (e > 0) | _beyond(a, e, 2.0**log2_floor if log2_floor < 1024 else math.inf,
                            log2_floor)
    values, near, tiny = np.empty(w.size), ~far, e < 0
    if far.any():  # the guards keep the fixed cost of a one-point call low
        values[far] = np.maximum(0.0, (np.log(a[far]) + e[far] * LN2) * inv_d
                                 + target.robin() * inv_d)
    w[e > 0] = complex(np.nan, np.nan)
    if tiny.any():
        w[tiny] = _ldexp_arr(w[tiny], e[tiny])
    if near.any():
        values[near] = np.maximum(0.0, np.asarray(target.green(w[near]), dtype=float)) * inv_d
    return values, w, far


_TRAP_PERIODS, _TRAP_CYCLE, _SETTLE = 64, 8, 1e-9


def _trap(seq: PolySequence, escape_radius: float, target: ModelSet | None = None):
    """(centres, radii) of the disks the engines test after each period, or None
    if none is certified, they reach escape_radius, or a given target's green is
    not provably 0 on them: Disk(a, r) needs |a| + reach <= r, with 8 EPS spare
    for Disk.green's rounding of w - a, np.abs and the division.  _cycle_disks
    runs once per sequence and is kept on it; racing bands store equal values."""
    if "_trap" not in vars(seq):
        seq._trap = _cycle_disks(seq)
    trap = seq._trap
    if trap is None or not trap[2] < escape_radius:
        return None
    zero = target is None or isinstance(target, Disk) and (
        abs(target.center) + trap[2]) * (1 + 8 * EPS) <= target.radius
    return trap[:2] if zero else None


def _held(trap, w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Lanes that a whole number of periods has left in a trap disk (band doubles
    within a phase-0 radius): their float orbits stay in the disks."""
    return (e == 0) & (np.abs(w[:, None] - trap[0]) <= trap[1]).any(axis=1)


def _cycle_disks(seq: PolySequence):
    """(centres, radii, reach) of disks D_t = D(c_t, rho_t) about an attracting
    cycle of F = p_P o ... o p_1, certified to hold _advance's float orbits, or None.

    Search (a heuristic): the critical points of p_1, which are critical points
    of F, run _TRAP_PERIODS periods in complex128; one settles once F**m, m <=
    _TRAP_CYCLE, moves it by at most _SETTLE (1 + |z|).  Certificate: for p the
    map after phase t and b_i its Taylor coefficients at c_t, p(D_t) lies within
    |b_0 - c_(t+1)| + sum_{i>=1} |b_i| rho_t**i of c_(t+1); rho_(t+1) adds
    margin_t = 16 (d+1) EPS S, S = sum |a_i| (|c_t| + rho_t)**i, and the chain
    closes if rho_L <= rho_0.  With a complex product x y off by at most
    1.5 EPS |x y| and a sum by 0.5 EPS |x + y|, _advance's d+1 multiply-adds
    (w*w and *w of the parity split included) err by 2 (d+1) EPS S (Higham
    5.1), the Taylor shift by 2 d EPS S, and the positive sums S, sum |b_i|
    rho**i and rho_(t+1) by (4.5 d + 3) EPS S: under 9 (d+1) EPS S in all.
    Each disk keeps |c_t| - rho_t >= 2 BAND_LOW and each step scale2 = 0, so
    such an orbit stays a band double (e = 0); reach bounds np.abs on the
    disks.  The phase-0 radii are rho_t (1 - 4 EPS): a float |w - c_t| at most
    that puts w in D_t.
    """
    P = seq.period
    polys = [seq.get(k) for k in range(1, P + 1)] if P else []
    if not polys or any(p.scale2 for p in polys):
        return None
    with np.errstate(all="ignore"):
        slope = polys[0].array[1:] * np.arange(1, polys[0].degree + 1)
        if not np.isfinite(slope).all():
            return None
        orbit = [np.roots(slope[::-1]).astype(np.complex128)]
        for _ in range(_TRAP_PERIODS):
            z = orbit[-1]
            for p in polys:
                z = _horner(p.array, z)
            orbit.append(z)
        for s, top in enumerate(z):
            m = next((m for m in range(1, _TRAP_CYCLE + 1) if np.isfinite(top)
                      and abs(top - orbit[-1 - m][s]) <= _SETTLE * (1 + abs(top))), None)
            if m is None:
                continue
            centres, w = [], z[s:s + 1]
            for t in range(m * P):
                centres.append(complex(w[0]))
                w = _horner(polys[t % P].array, w)
            try:
                radii = _close_chain(polys, centres)
            except OverflowError:  # abs() of a complex past double range
                continue
            if radii is not None:
                reach = max((abs(c) + r) * (1 + 8 * EPS) for c, r in zip(centres, radii))
                return np.array(centres[::P]), np.array(radii[::P]) * (1 - 4 * EPS), reach
    return None


def _close_chain(polys, centres):
    """Radii rho_t of a certified chain about the cycle (_cycle_disks), rho_0
    near the largest that closes, or None."""
    L, P = len(centres), len(polys)
    taylor = []
    for t, c in enumerate(centres):
        b = list(polys[t % P].coeffs)
        for i in range(len(b) - 1):
            for j in range(len(b) - 2, i - 1, -1):
                b[j] += c * b[j + 1]
        taylor.append(b)

    def chain(rho):
        radii = []
        for t, (c, b) in enumerate(zip(centres, taylor)):
            if abs(c) - rho * (1 + 8 * EPS) < 2 * BAND_LOW:
                return None
            radii.append(rho)
            s = img = 0.0
            for a in polys[t % P].coeffs[::-1]:
                s = s * (abs(c) + rho) + abs(a)
            for bi in b[:0:-1]:
                img = (img + abs(bi)) * rho
            rho = abs(b[0] - centres[(t + 1) % L]) + img + 16 * len(b) * EPS * s
        return radii if rho <= radii[0] else None

    lo = abs(centres[0])
    while not chain(lo := 0.5 * lo):  # halve to a closing radius, then bisect upward
        if not lo > 1e-3 * EPS * abs(centres[0]):
            return None
    hi = 2 * lo
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if chain(mid) else (lo, mid)
    return chain(lo)


def escape_steps(seq: PolySequence, points, n_steps: int, escape_radius: float) -> np.ndarray:
    """First escape step per point (0 = still bounded after n_steps).

    The vector twin of orbit_bounded: every point steps by the same rule
    (_advance), exact to rounding above and below double range.  Each run of
    _CHUNK points goes through every step before the next starts, and a step
    is built only when a point of the chunk reaches it; a point's result
    depends neither on the chunking nor on which other points (or thread
    band) it comes with, except where the chunk-dependent rounding described
    under green_field moves an orbit value across the escape radius.  For a
    periodic sequence with a certified trap (_trap), a band lane found in a
    trap disk after a whole number of periods is retired with step 0: its
    float orbit provably stays in the disks, inside the escape radius, so
    the full loop would give it 0 too.
    """
    pts, shape, log2_r = _engine_points(points, n_steps, escape_radius)
    trap = _trap(seq, escape_radius)
    steps = np.zeros(pts.size, np.int32)
    for lo in range(0, pts.size, _CHUNK):
        out, w = steps[lo:lo + _CHUNK], pts[lo:lo + _CHUNK].copy()
        idx, e, a = np.arange(w.size), np.zeros(w.size), np.abs(w)
        for k in range(1, n_steps + 1):
            if idx.size == 0:
                break
            w, e, a = _advance(seq.get(k), w, e, a)
            esc = drop = _beyond(a, e, escape_radius, log2_r)
            if trap is not None and k % seq.period == 0:
                drop = esc | _held(trap, w, e)
            if drop.any():
                out[idx[esc]] = k
                keep = ~drop
                idx, w, e, a = idx[keep], w[keep], e[keep], a[keep]
    return steps.reshape(shape)


def _robin_sums(polys):
    """The lists 1/D_k and S_k for k = 0..N, S_k = sum_(j<=k) log|lead p_j|/D_j.
    S_N + robin_E/D_N is the Robin constant of P_N^{-1}(E) (Ransford, Thm 5.3.1)."""
    inv_d, s, d_prod = [1.0], [0.0], 1
    for p in polys:
        d_prod *= p.degree
        inv_d.append(1 / d_prod)
        s.append(s[-1] + p.lead_log * inv_d[-1])
    return inv_d, s


def _depth_fields(seq: PolySequence, pts: np.ndarray, depths, escape_radius: float,
                  log2_r: float, target: ModelSet):
    """Yield (lo, n, values, steps, final_w) for each _CHUNK run of the flat pts
    from index lo and each of the increasing depths n, as the run's one orbit
    passes n: green_field's values at depth n, and its steps and final_w at the
    deepest (else None).  Depth n's log-mode gate before step k is the max of
    max(log_safe, floor) over steps k..n; the gates nest, so a lane takes the
    depths it gates for in order (nxt counts them) and leaves at the deepest."""
    K, polys = len(depths), [seq.get(k) for k in range(1, depths[-1] + 1)]
    trap = _trap(seq, escape_radius, target)
    # log2|w| before step k from which depth n's log update and log|w_n| + robin are exact
    floor = max(log2_r, target._asymptotic_log2)
    safe, entry = [max(p.log_safe, floor) for p in polys], np.full((K, len(polys)), math.inf)
    for row, n in zip(entry, depths):
        row[:n] = np.maximum.accumulate(safe[n - 1::-1])[::-1]
    gate = np.array([[2.0 ** x if x < 1024 else math.inf for x in row] for row in entry])
    # a lane entering log mode before step k takes log|w|/D_(k-1) - S_(k-1) + S_n
    inv_d, s = _robin_sums(polys)
    inv_at, s_at = np.array(inv_d)[depths], np.array(s)[depths]
    robin_at = target.robin() * inv_at
    for lo in range(0, pts.size, _CHUNK):
        w = pts[lo:lo + _CHUNK].copy()
        vals, out = [np.zeros(w.size) for _ in depths], np.zeros(w.size, np.int32)
        w_out = np.full(w.size, complex(np.nan, np.nan))
        idx, e, a, nxt, shut = (np.arange(w.size), np.zeros(w.size), np.abs(w),
                                np.zeros(w.size, np.min_scalar_type(K)), 0)
        for k, p in enumerate(polys, start=1):
            if idx.size == 0 and shut == K - 1:  # shallower depths still take their step
                break
            go = _beyond(a, e, gate[shut, k - 1], entry[shut, k - 1])  # the lowest open gate
            if go.any():
                t = np.flatnonzero(go)
                glog = (np.log(a[t]) + e[t] * LN2) * inv_d[k - 1] - s[k - 1]
                for i in range(shut, K):  # the gates nest: t passes every open one up to i
                    if i > shut:
                        on = _beyond(a[t], e[t], gate[i, k - 1], entry[i, k - 1])
                        t, glog = t[on], glog[on]
                    fresh = nxt[t] <= i
                    vals[i][idx[t[fresh]]] = np.maximum(0.0, (glog[fresh] + s_at[i]) + robin_at[i])
                    nxt[t[fresh]] = i + 1
                at, keep = idx[nxt == K], nxt < K  # past the deepest gate: the lane leaves
                out[at[out[at] == 0]] = k  # |w| >= R and it grows at this step
                idx, w, e, a, nxt = idx[keep], w[keep], e[keep], a[keep], nxt[keep]
            w, e, a = _advance(p, w, e, a)
            hit = idx[_beyond(a, e, escape_radius, log2_r)]
            out[hit[out[hit] == 0]] = k
            if trap is not None and k % seq.period == 0:
                keep = ~_held(trap, w, e)
                idx, w, e, a, nxt = idx[keep], w[keep], e[keep], a[keep], nxt[keep]
            if shut < K - 1 and depths[shut] == k:  # the lanes not gated for it finish
                t = np.flatnonzero(nxt <= shut)
                vals[shut][idx[t]] = _finish(target, w[t], e[t], a[t], inv_at[shut], floor)[0]
                nxt[t], shut = shut + 1, shut + 1
                yield lo, k, vals[shut - 1], None, None
        vals[-1][idx], w_out[idx], _ = _finish(target, w, e, a, inv_at[-1], floor)
        yield lo, depths[-1], vals[-1], out, w_out


def green_field(seq: PolySequence, points, n_steps: int, escape_radius: float,
                target: ModelSet = UNIT_DISK):
    """(values, escape_steps, final_w): normalized potential over a point set.

    The one-depth pass of _depth_fields: every point steps by the rule of
    escape_steps, in the same fixed chunks, after every step p_1..p_N has been
    built once.  With real coefficients its results do not depend on the
    chunking or on thread bands.  With complex ones a point alone in its
    chunk (a one-point call, or the last of _CHUNK + 1) has its complex
    products rounded differently from a point in a wider chunk: final_w then
    differs in the last bits and a value by at most a few EPS (1 + value),
    inside green_nonauto's error bound.  An escaped point leaves the orbit,
    and its value is written at once, once the terms that the update
    log|w_k| = log|lead_k| + d_k log|w_(k-1)| drops are below rounding for
    every remaining step: log|w|/D_(k-1), plus the updates of steps k..N
    summed in advance, plus robin/D_N.  A lane held in a trap where the Disk
    target's green is 0 (_trap, _held) leaves too, with the bits the full loop
    gives: value +0.0 and its escape step; its final_w is nan; other targets
    (Segment, say) retire no bounded lane.  final_w holds the last complex
    orbit value where one exists.
    """
    pts, shape, log2_r = _engine_points(points, n_steps, escape_radius)
    fields = np.zeros(pts.size), np.zeros(pts.size, np.int32), np.zeros(pts.size, complex)
    for lo, _, *parts in _depth_fields(seq, pts, [n_steps], escape_radius, log2_r, target):
        for field, part in zip(fields, parts):
            field[lo:lo + part.size] = part
    return tuple(field.reshape(shape) for field in fields)
