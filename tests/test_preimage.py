"""Preimage potentials and nets at every size, against 60-digit mpmath.

Preimage.green takes f(z) by one step of the vector engine's rule and
finishes it like green_field, so f(z) of any size, and any scale2, gives
(1/d) g_inner(f(z)) to within the rounding of one Horner pass.  Preimage
nets are solved in a rescaled variable, so they exist for any scale2, by
Newton continuation from companion roots; they equal the companion roots
per target, as sets, wherever those are accurate.
"""
import math

import numpy as np
import pytest

from nonauto import builtin, klimek
from nonauto.green import Disk, Ellipse, Preimage, Segment, UNIT_DISK
from nonauto.poly import EPS, chebyshev_minimal, chebyshev_t, monomial, polynomial
from test_green import SEGMENT_DEFECT

mpmath = pytest.importorskip("mpmath")

DIGITS = 60

# (inner set, g_inner(w) and |w| |g_inner'(w)| in mpmath)
INNERS = {
    "unit_disk": (UNIT_DISK, lambda w: (mpmath.log(abs(w)), 1)),
    "disk_off_center": (Disk(0.5 + 0j, 1.0),
                        lambda w: (mpmath.log(abs(w - 0.5)), abs(w) / abs(w - 0.5))),
    "segment": (Segment(), lambda w: (mpmath.log(abs(w + _large_root(w))),
                                      abs(w) / abs(mpmath.sqrt(w * w - 1)))),
}


def _large_root(w):
    s = mpmath.sqrt(w * w - 1)
    return s if abs(w + s) >= abs(w - s) else -s


def exact_green(inner, f, z):
    """(g_inner(f(z)) / d, tolerance) at DIGITS digits.

    The tolerance covers one Horner pass: 8 (d+2) eps times the condition
    number sum |a_j z^j| / |f(z)|, carried into g_inner by |w g_inner'(w)|,
    plus the rounding of the value itself.
    """
    g_of = INNERS[inner][1]
    with mpmath.workdps(DIGITS):
        z = mpmath.mpc(z)
        acc, size = mpmath.mpc(0), mpmath.mpf(0)
        for j, c in enumerate(f.coeffs):
            term = mpmath.mpc(c) * z**j
            acc += term
            size += abs(term)
        w = acc * mpmath.mpf(2) ** f.scale2
        if w == 0:  # every inner set here has potential 0 at 0
            return 0.0, 1e-300
        g, lip = g_of(w)
        g = max(mpmath.mpf(0), g)
        tol = (8 * (f.degree + 2) * EPS * size / abs(acc) * lip + 8 * EPS * (g + 1)) / f.degree
        return float(g / f.degree), float(tol)


def assert_newton_steps_small(f, targets, net):
    """Each net point z is a root of f(z) = t for its target t to within
    rounding: the DIGITS-digit Newton step from z is below 1e-12 |z| (|f(z)|
    itself is not near |t| where 2**scale2 amplifies the rounding of z)."""
    assert net.size == targets.size * f.degree and np.isfinite(net).all()
    with mpmath.workdps(DIGITS):
        scale = mpmath.mpf(2) ** f.scale2
        for i, z in enumerate(net):
            z = mpmath.mpc(complex(z))
            value = sum(mpmath.mpc(c) * z**j for j, c in enumerate(f.coeffs))
            slope = sum(j * mpmath.mpc(c) * z**(j - 1) for j, c in enumerate(f.coeffs) if j)
            t = mpmath.mpc(complex(targets[i // f.degree]))
            assert abs(value - t / scale) <= 1e-12 * abs(z * slope), (f, i, z)


def companion_net(f, targets):
    """np.roots of f(z) - t per target, in net order (scale2 = 0 only)."""
    assert f.scale2 == 0
    desc = np.array(f.coeffs[::-1], dtype=np.complex128)
    return np.concatenate([np.roots(desc - np.r_[np.zeros(f.degree), t]) for t in targets])


def set_distance(net, want, d):
    """Largest distance between the branches of net and of want over one
    target, matched as sets (greedily, nearest first), relative to that
    target's largest branch in want."""
    got, want = net.reshape(-1, d), want.reshape(-1, d)
    rows = np.arange(want.shape[0])
    used = np.zeros(want.shape, dtype=bool)
    worst = np.zeros(want.shape[0])
    for i in range(d):
        gap = np.where(used, np.inf, np.abs(got[:, i, None] - want))
        j = gap.argmin(axis=1)
        used[rows, j] = True
        worst = np.maximum(worst, gap[rows, j])
    return float((worst / np.maximum(np.abs(want).max(axis=1), 1e-300)).max())


def random_polys(rng, count):
    for _ in range(count):
        d = int(rng.integers(1, 6))
        cs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        cs[rng.uniform(size=d + 1) < 0.3] = 0
        cs[-1] = cs[-1] or 1.0
        yield polynomial(*cs, scale2=int(rng.integers(-3000, 3001)))
    for s in (0, 1020, -1020, 3000, -3000):
        yield polynomial(0.25, -2, 1.5e308, scale2=s)
        yield polynomial(0, 1e300, 1.5e308 * (1 + 1j), scale2=s)


def sample_points(rng, count):
    mods = 10.0 ** rng.uniform(-200, 200, count)
    return np.concatenate([mods * np.exp(2j * np.pi * rng.uniform(size=count)),
                           [0.0, 1e-200, 1e200j, 1.0, -0.5]])


@pytest.mark.parametrize("inner", [
    "unit_disk", "disk_off_center",
    pytest.param("segment", marks=pytest.mark.xfail(strict=True, reason=SEGMENT_DEFECT))])
def test_green_matches_mpmath(inner, rng):
    target = INNERS[inner][0]
    for f in random_polys(rng, 30):
        pre = Preimage(target, f)
        pts = sample_points(rng, 25)
        if f.scale2 == 0 and f.coeffs[-1] == 1.5e308:
            pts = np.concatenate([pts, pre.boundary_net(16)])
        got = pre.green(pts)
        for z, g in zip(pts, got):
            want, tol = exact_green(inner, f, complex(z))
            assert abs(g - want) <= tol, (f, complex(z), g, want)
        assert abs(pre.green(complex(pts[0])) - got[0]) <= 4 * EPS * max(1.0, got[0])


def test_lower_term_beyond_double_range():
    # (g) 1e300 z dominates z**2 at 1e10 and f(z) = 1e310 overflows doubles; keeping
    # only the leading term gave log(1e10) = 23.0259
    pre = Preimage(UNIT_DISK, polynomial(0, 1e300, 1))
    assert abs(pre.green(1e10) - 356.9006894140771) <= 1e-13 * 356.9
    want, tol = exact_green("unit_disk", pre.poly, 1e10)
    assert abs(pre.green(1e10) - want) <= tol


def test_non_finite_points_rejected():
    pre = Preimage(UNIT_DISK, monomial(2))
    for z in (complex(math.inf, 0), complex(0, math.nan)):
        with pytest.raises(ValueError):
            pre.green(np.array([1.0, z]))


class TestNetsAtAnyScale:
    @pytest.mark.parametrize("degree,scale2", [(44, -1936), (50, -2500), (3, 3000)])
    def test_monomial_net(self, degree, scale2):
        # 2**scale2 z**d = t on |t| = 1 puts every root on |z| = 2**(-scale2/d);
        # (44, -1936) raised LinAlgError and (50, -2500) gave a net of zeros
        net = Preimage(UNIT_DISK, monomial(degree, 1.0, scale2)).boundary_net(64)
        assert net.size == degree * max(8, 64 // degree)
        assert np.allclose(np.log2(np.abs(net)), -scale2 / degree, rtol=0, atol=1e-12)
        args = np.sort(np.angle(net[:degree]) % (2 * np.pi))  # the branches over t = 1
        assert np.allclose(np.diff(args), 2 * np.pi / degree, atol=1e-9)

    def test_net_solves_the_pullback(self):
        # the small roots of z**2 + 1e300 z = t, near t * 1e-300, underflow in the
        # rescaled variable and came back as 0; they are polished in z itself.
        # A leading coefficient of modulus past 1.8e308 lost both roots to 0
        for f in (polynomial(1, 0.5j, 1, scale2=2000), polynomial(3, 0, -1, 2, scale2=-2100),
                  polynomial(2, 1, 0.5, scale2=-1800), polynomial(0.5, 0, 0, 1.5e308),
                  polynomial(0, 1e300, 1), polynomial(0, 1e300, 1.5e308 * (1 + 1j))):
            pre = Preimage(UNIT_DISK, f)
            assert_newton_steps_small(f, UNIT_DISK.boundary_net(max(8, 48 // f.degree)),
                                      pre.boundary_net(48))

    def test_small_scale_net_unchanged(self):
        # k = 0: per target, the net is np.roots of f(z) = t as a set, and every
        # point is a root to within rounding
        f = polynomial(0.3 - 0.1j, -0.5, 0.25j, 1)
        pre = Preimage(Disk(0.2j, 1.5), f)
        targets = pre.inner.boundary_net(32)
        net = pre.boundary_net(96)
        assert set_distance(net, companion_net(f, targets), f.degree) <= 1e-10
        assert_newton_steps_small(f, targets, net)

    def test_tail_constant_two_pow_neg_n_sq(self):
        # p_n = 2**(-n*n) z**n pulls the unit disk back to |z| <= 2**n, at distance
        # n log 2; p_41 has scale2 -1681, which raised LinAlgError.  The fill net
        # reaches |z| = 1e304, where both potentials are near 700, so the sampled
        # sup carries their rounding (about 1e-13)
        got = klimek.tail_constant(builtin("two_pow_neg_n_sq"), UNIT_DISK, 40)
        assert abs(got - 41 * math.log(2)) <= 1e-14 * got


# the nets of the metric layer's configurations: (inner set, maps)
METRIC_NETS = {
    "minimal_chebyshev": (UNIT_DISK, [chebyshev_minimal(n) for n in range(2, 42)]),
    "classical_chebyshev": (Segment(), [chebyshev_t(n) for n in range(2, 32)]),
    "t8_disk": (UNIT_DISK, [chebyshev_t(8)]),
    "t8_ellipse": (Ellipse(2.0), [chebyshev_t(8)]),
}


class TestNewtonNets:
    """Nets by Newton continuation equal the companion nets wherever those hold."""

    @pytest.mark.parametrize("config", sorted(METRIC_NETS))
    @pytest.mark.parametrize("m", [256, 1024])
    def test_metric_nets_match_companion_roots(self, config, m):
        inner, maps = METRIC_NETS[config]
        for f in maps:
            pre = Preimage(inner, f)
            nets = [(inner.boundary_net(max(8, m // f.degree)), pre.boundary_net(m)),
                    (inner.interior_net(max(8, m // f.degree)), pre.interior_net(m))]
            for targets, net in nets:
                assert net.size == targets.size * f.degree
                if targets.size:
                    assert set_distance(net, companion_net(f, targets), f.degree) <= 1e-10, f

    @pytest.mark.parametrize("inner,m,t", [(UNIT_DISK, 80, -1.0), (Segment(), 1024, 1.0)])
    def test_double_roots_take_companion_roots(self, monkeypatch, inner, m, t):
        # T_8(z) = +-1 has double roots; the target sits between anchors, so
        # Newton reaches it first, cannot separate its branches and hands it on
        f = chebyshev_t(8)
        targets = inner.boundary_net(m // 8)
        at = int(np.abs(targets - t).argmin())
        assert abs(targets[at] - t) <= 1e-15 and at % 2 == 1
        calls, solve = [], np.roots
        monkeypatch.setattr(np, "roots", lambda b: calls.append(b) or solve(b))
        net = Preimage(inner, f).boundary_net(m)
        assert net.size == 8 * targets.size and np.isfinite(net).all()
        assert any(b[-1] / b[0] == (f.coeffs[0] - targets[at]) / f.coeffs[-1] for b in calls)
        assert set_distance(net, companion_net(f, targets), 8) <= 1e-10

    def test_nested_preimage_nets(self):
        # the targets of the outer pullback are the inner net, branch after
        # branch, not a curve in order: Newton from the previous target often
        # fails there, and those targets take companion roots
        inner = Preimage(UNIT_DISK, polynomial(0.3j, 0, -0.5, 1))
        g = polynomial(-0.2, 0.1 + 0.4j, 0, 1)
        pre = Preimage(inner, g)
        for targets, net in ((inner.boundary_net(64 // 3), pre.boundary_net(64)),
                             (inner.interior_net(64 // 3), pre.interior_net(64))):
            assert net.size == 3 * targets.size and np.isfinite(net).all()
            assert set_distance(net, companion_net(g, targets), 3) <= 1e-10
            assert_newton_steps_small(g, targets, net)
