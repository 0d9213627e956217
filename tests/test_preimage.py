"""Preimage potentials and nets at every size, against 60-digit mpmath.

Preimage.green takes f(z) by one step of the vector engine's rule and
finishes it like green_field, so f(z) of any size, and any scale2, gives
(1/d) g_inner(f(z)) to within the rounding of one Horner pass.  Preimage
nets are solved in a rescaled variable, so they exist for any scale2, by
companion roots: np.roots's per target, bit for bit, so a row depends on its
own target alone.  A map stored as exactly c T_d takes the closed form
instead, checked against 50-digit polyroots.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from nonauto import builtin, klimek
from nonauto import green
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


def _pm(r):
    return [r, -r]


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


def _quadratic(a, b, c):
    s = mpmath.sqrt(b * b - 4 * a * c)
    return [(-b + s) / (2 * a), (-b - s) / (2 * a)]


def _newton_roots(f, t, seeds):
    """Roots of f(z) = t (scale2 = 0) by Newton at the working precision from
    seeds, each step at the end below 1e-50 of its root."""
    cs = [mpmath.mpc(c) for c in f.coeffs]
    roots = []
    for z in seeds:
        for _ in range(8):
            value = sum(c * z**j for j, c in enumerate(cs)) - t
            step = value / sum(j * c * z**(j - 1) for j, c in enumerate(cs) if j)
            z -= step
        assert abs(step) <= mpmath.mpf(10) ** -50 * abs(z)
        roots.append(z)
    return roots


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

    @pytest.mark.parametrize("inner,net,f,m,t,want", [
        # every a_j below the lead underflowed in u (k = 289), and the row came
        # back [-1.33+0.23j, 0.94+0.80j, 0.39-1.02j, 0, 0, 0]: z**2 times a quartic
        (Segment(), "boundary_net",
         polynomial(0, 0, 0.5 - 0.4j, 0.2 + 1.7j, 0.3 - 0.4j, 0, -0.5 + 0.8j, scale2=-1732),
         330, 0, lambda f, t: [0, 0, *mpmath.polyroots(
             [mpmath.mpc(c) for c in f.coeffs[:1:-1]], maxsteps=200, extraprec=200)]),
        # a lead of 1e-300 beside a_1 = 1e300 (k = 747): solved in z, the lead
        # underflowed and the row came back [0, 0, 0]; its roots are 0, +-1e300i
        (Segment(), "boundary_net", polynomial(0, 1e300, 0, 1e-300), 27, 0,
         lambda f, t: [0, *_pm(mpmath.sqrt(-mpmath.mpc(f.coeffs[1]) / f.coeffs[3]))]),
        # as above with a 4th-degree lead: np.roots returned 2 roots for 4 branches.
        # Its root near -1e-300 shares u's zero with the root 0 (test_tiny_roots_keep_apart
        # checks it); the large ones are +-i sqrt(a_2/a_4) to 1e-600
        (Segment(), "boundary_net", polynomial(0, 1, 1e300, 0, 1e-300), 36, 0,
         lambda f, t: [0, *_pm(mpmath.sqrt(-mpmath.mpc(f.coeffs[2]) / f.coeffs[4]))]),
        # t = 2**-1074 and a_0 = 0 both underflow in u (k = 31), where t 2**-s
        # = 2**2000 passes double range in z: solved at h = 20 instead
        (Disk(2.0**-1074, 1.0), "interior_net", monomial(100, 1.0, -3074), 800, 2.0**-1074,
         lambda f, t: [mpmath.root(mpmath.mpf(t) * mpmath.mpf(2)**-f.scale2, 100, k)
                       for k in range(100)]),
    ], ids=["scale2_-1732", "lead_1e-300_cubic", "lead_1e-300_quartic", "subnormal_target"])
    def test_target_equal_to_the_constant_term(self, inner, net, f, m, t, want):
        # t 2**-s equals a_0 in the rescaled variable u, where np.roots strips the
        # root 0: the row is solved apart, checked against 60-digit roots
        targets = getattr(inner, net)(max(8, m // f.degree))
        at = int(np.flatnonzero(targets == t)[0])
        got = list(getattr(Preimage(inner, f), net)(m).reshape(-1, f.degree)[at])
        with mpmath.workdps(DIGITS):
            want = [complex(r) for r in want(f, t)]
        for r in sorted(want, key=abs):
            z = min(got, key=lambda z: abs(z - r))
            assert abs(z - r) <= 1e-12 * abs(r), (r, got)
            got.remove(z)

    @pytest.mark.parametrize("inner", [Segment(), UNIT_DISK], ids=["segment", "unit_disk"])
    def test_tiny_roots_keep_apart(self, inner):
        # z + 1e300 z**2 + 1e-300 z**4 = t: the two small roots, near +-sqrt(t) 1e-150,
        # underflow in u (k = 747).  Polished in z from the one start 0, they came
        # back as 0 twice in every row.  The 60-digit roots are seeded by each
        # cluster's quadratic and refined by Newton on f itself
        f = polynomial(0, 1, 1e300, 0, 1e-300)
        pre = Preimage(inner, f)
        for targets, net in ((inner.boundary_net(9), pre.boundary_net(36)),
                             (inner.interior_net(16), pre.interior_net(64))):
            assert net.size == 4 * targets.size
            with mpmath.workdps(DIGITS):
                for t, got in zip(targets, net.reshape(-1, 4)):
                    t = mpmath.mpc(complex(t))
                    seeds = _quadratic(mpmath.mpf(1e300), 1, -t) + _quadratic(
                        mpmath.mpf(1e-300), 0, mpmath.mpf(1e300))
                    got = list(got)
                    for r in sorted((complex(w) for w in _newton_roots(f, t, seeds)), key=abs):
                        z = min(got, key=lambda z: abs(z - r))
                        assert abs(z - r) <= 1e-12 * abs(r), (complex(t), r, got)
                        got.remove(z)

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


def nudged(f):
    """f with its lead one ulp larger: chebyshev_error > 0, so its nets take
    companion roots, not the closed form."""
    g = polynomial(*f.coeffs[:-1], np.nextafter(f.coeffs[-1].real, math.inf), scale2=f.scale2)
    assert g.chebyshev_error > 0
    return g


def pullback_by_rows(self, targets):
    """Preimage._pullback with one np.roots call per companion row: the
    reference the stacked eigvals solves must equal bit for bit."""
    c = self.poly.array
    d, s = self.poly.degree, self.poly.scale2
    j, mag = green._log2_moduli(c)
    lo = np.ceil((mag[:-1] - mag[-1] - 500) / (d - j[:-1])).max(initial=-math.inf)
    k = int(max(-round(s / d), lo))
    targets = np.asarray(targets, np.complex128)
    scaled, taus = green._unit_scaled(green._ldexp_arr(c, (np.arange(d + 1) - d) * k),
                                      green._ldexp_arr(targets, -s - d * k))
    roots = np.empty((taus.size, d), dtype=np.complex128)
    for i, tau in enumerate(taus):
        b = scaled[::-1].copy()
        b[-1] -= tau
        roots[i] = np.roots(b)
    z = green._ldexp_arr(roots.ravel(), k)
    tiny = np.flatnonzero(np.abs(roots.ravel()) < green._U_NORMAL)
    if tiny.size:
        w, ok = green._newton(*green._unit_scaled(c, green._ldexp_arr(targets[tiny // d], -s)),
                              z[tiny])
        z[tiny[ok]] = w[ok]
    return z


def random_map(rng, degree):
    return polynomial(*(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)))


class TestStackedCompanionSolves:
    """Companion rows solved in stacked eigvals calls are np.roots's roots bit for bit."""

    @staticmethod
    def assert_nets_equal(monkeypatch, pre, m, boundary=None):
        # boundary: pre.boundary_net(m) if the caller has solved it already
        got = [pre.boundary_net(m) if boundary is None else boundary, pre.interior_net(m)]
        with monkeypatch.context() as patch:
            patch.setattr(Preimage, "_pullback", pullback_by_rows)
            want = [pre.boundary_net(m), pre.interior_net(m)]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), pre

    @pytest.mark.parametrize("config", sorted(METRIC_NETS))
    @pytest.mark.parametrize("m", [256, 1024])
    def test_metric_nets(self, monkeypatch, config, m):
        inner, maps = METRIC_NETS[config]
        for f in map(nudged, maps):  # one ulp off c T_d: the exact maps take the closed form
            self.assert_nets_equal(monkeypatch, Preimage(inner, f), m)

    @pytest.mark.parametrize("inner,m,t", [(UNIT_DISK, 80, -1.0), (Segment(), 1024, 1.0)])
    def test_double_roots_take_companion_roots(self, monkeypatch, inner, m, t):
        # T_8(z) = +-1 has double roots: T_8 takes the closed form, but that row
        # goes to _solve and takes companion roots
        f = chebyshev_t(8)
        targets = inner.boundary_net(m // 8)
        at = int(np.abs(targets - t).argmin())
        assert abs(targets[at] - t) <= 1e-15
        # companion rows go to np.linalg.eigvals as stacked matrices whose first
        # row is -b[1:] / b[0]; a target t = a_0 (Segment's t = 1 here) to np.roots
        solved, roots, eigvals = [], np.roots, np.linalg.eigvals
        monkeypatch.setattr(np, "roots", lambda b: solved.append(b[-1] / b[0]) or roots(b))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: solved.extend(-a[:, 0, -1]) or eigvals(a))
        net = Preimage(inner, f).boundary_net(m)
        assert net.size == 8 * targets.size and np.isfinite(net).all()
        assert (f.coeffs[0] - targets[at]) / f.coeffs[-1] in solved
        monkeypatch.undo()
        assert set_distance(net, companion_net(f, targets), 8) <= 1e-10
        assert np.array_equal(net.reshape(-1, 8)[at], companion_net(f, targets[at:at + 1]))

    def test_nested_preimage_nets(self):
        # the targets of the outer pullback are the inner net, branch after
        # branch, not a curve in order; each row is still np.roots's
        inner = Preimage(UNIT_DISK, polynomial(0.3j, 0, -0.5, 1))
        g = polynomial(-0.2, 0.1 + 0.4j, 0, 1)
        pre = Preimage(inner, g)
        for targets, net in ((inner.boundary_net(64 // 3), pre.boundary_net(64)),
                             (inner.interior_net(64 // 3), pre.interior_net(64))):
            assert net.size == 3 * targets.size and np.isfinite(net).all()
            assert np.array_equal(net, companion_net(g, targets))
            assert_newton_steps_small(g, targets, net)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_random_complex_maps(self, monkeypatch, degree):
        rng = np.random.default_rng(degree)
        for inner in (UNIT_DISK, Disk(0.3 - 0.2j, 1.5), Ellipse(2.0), Segment()):
            for _ in range(3):
                self.assert_nets_equal(monkeypatch, Preimage(inner, random_map(rng, degree)), 256)

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_target_equal_to_constant_term(self, monkeypatch, n):
        # odd T_n has a_0 = 0, and the disk's interior net starts at its center
        # 0: that row's companion polynomial has the root 0, which np.roots strips
        f = nudged(chebyshev_t(n))
        assert f.coeffs[0] == 0 and UNIT_DISK.interior_net(64)[0] == 0
        calls, roots = [], np.roots
        with monkeypatch.context() as patch:
            patch.setattr(np, "roots", lambda b: calls.append(b) or roots(b))
            Preimage(UNIT_DISK, f).interior_net(64 * n)
        assert any(b[-1] == 0 for b in calls)
        self.assert_nets_equal(monkeypatch, Preimage(UNIT_DISK, f), 64 * n)

    @pytest.mark.parametrize("degree", [100, 200])
    def test_stacks_are_capped(self, monkeypatch, degree):
        # at most _CHUNK matrix entries per call: 3 matrices of degree 100, and
        # one of degree 200 (40,000 entries, past _CHUNK on its own)
        pre = Preimage(UNIT_DISK, random_map(np.random.default_rng(7), degree))
        sizes, eigvals = [], np.linalg.eigvals
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", lambda a: sizes.append(a.shape) or eigvals(a))
            boundary = pre.boundary_net(64 * degree)
        assert sizes and all(shape[1:] == (degree, degree) for shape in sizes)
        most = max(1, green._CHUNK // degree**2)
        assert max(shape[0] for shape in sizes) == most
        assert all(shape[0] * degree**2 <= max(green._CHUNK, degree**2) for shape in sizes)
        self.assert_nets_equal(monkeypatch, pre, 64 * degree, boundary)

    def test_held_zero_roots_skip_newton(self, monkeypatch):
        # nudged T_8 over Segment: t = 1 = a_0 is a held row, and z**2 divides
        # f - 1, so its two roots 0 have f'(0) = 0 and every Newton step there is
        # 0/0; they skip _newton and keep the 0 that per-row Newton leaves them
        f = nudged(chebyshev_t(8))
        pre, starts, newton = Preimage(Segment(), f), [], green._newton
        with monkeypatch.context() as patch:
            patch.setattr(green, "_newton", lambda c, t, u: starts.extend(u) or newton(c, t, u))
            net = pre.boundary_net(256).reshape(-1, 8)
        assert f.coeffs[0] == 1 and f.coeffs[1] == 0 and f.coeffs[2] != 0
        assert np.count_nonzero(net[-1] == 0) == 2 and 0 not in starts
        self.assert_nets_equal(monkeypatch, pre, 256)

    def test_signed_zero_targets_are_solved_apart(self, monkeypatch):
        # distinct targets go to _solve once each, distinct by bit pattern
        pre = Preimage(UNIT_DISK, polynomial(0.1 + 0.2j, -0.3, 0.05j, 1))
        targets = np.array([0.0, -0.0, 0.0, 0.5j, -0.0])
        solved, solve = [], Preimage._solve
        monkeypatch.setattr(Preimage, "_solve",
                            lambda self, t: solved.append(t.copy()) or solve(self, t))
        net = pre._pullback(targets)
        assert len(solved) == 1 and solved[0].size == 3
        assert sorted(np.signbit(solved[0][solved[0] == 0].real)) == [False, True]
        rows = [pre._pullback(targets[i:i + 1]) for i in range(targets.size)]
        assert np.array_equal(net, np.concatenate(rows))


class TestNewtonNets:
    """The metric maps' nets are the companion nets, Newton-polished where a
    root is subnormal, bit for bit."""

    @pytest.mark.parametrize("config", sorted(METRIC_NETS))
    @pytest.mark.parametrize("m", [256, 1024])
    def test_metric_nets_match_companion_roots(self, config, m):
        inner, maps = METRIC_NETS[config]
        for f in map(nudged, maps):  # one ulp off c T_d: the exact maps take the closed form
            pre = Preimage(inner, f)
            for kind in ("boundary_net", "interior_net"):
                targets = getattr(inner, kind)(max(8, m // f.degree))
                net = getattr(pre, kind)(m)
                assert net.size == targets.size * f.degree
                if targets.size:
                    assert np.array_equal(net, companion_net(f, targets)), f


class TestNets:
    """Preimage.nets((m, 4m)) is boundary_net + interior_net at each size, bit for bit."""

    @staticmethod
    def assert_nets_match(pre, m):
        nets = pre.nets((m, 4 * m))
        assert len(nets) == 2
        for k, net in zip((m, 4 * m), nets):
            want = np.concatenate([pre.boundary_net(k), pre.interior_net(k)])
            assert net.dtype == want.dtype and np.array_equal(net, want), pre

    @pytest.mark.parametrize("config", sorted(METRIC_NETS))
    @pytest.mark.parametrize("m", [256, 1024])
    def test_metric_nets(self, config, m):
        inner, maps = METRIC_NETS[config]
        for f in maps:
            self.assert_nets_match(Preimage(inner, f), m)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_random_complex_maps(self, degree):
        rng = np.random.default_rng(100 + degree)
        for inner in (UNIT_DISK, Disk(0.3 - 0.2j, 1.5), Ellipse(2.0), Segment()):
            for _ in range(3):
                self.assert_nets_match(Preimage(inner, random_map(rng, degree)), 256)

    def test_nested_preimage(self):
        inner = Preimage(UNIT_DISK, polynomial(0.3j, 0, -0.5, 1))
        self.assert_nets_match(Preimage(inner, polynomial(-0.2, 0.1 + 0.4j, 0, 1)), 64)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_rows_depend_on_their_own_target(self, degree):
        # a row's roots come from its own target alone: nets, the two nets apart
        # and one _pullback per target agree bit for bit
        rng = np.random.default_rng(200 + degree)
        for inner in (UNIT_DISK, Disk(0.3 - 0.2j, 1.5), Ellipse(2.0), Segment()):
            pre = Preimage(inner, random_map(rng, degree))
            for k, net in zip((32, 128), pre.nets((32, 128))):
                targets = inner.nets([max(8, k // degree)])[0]
                rows = [pre._pullback(targets[i:i + 1]) for i in range(targets.size)]
                want = np.concatenate([pre.boundary_net(k), pre.interior_net(k)])
                assert np.array_equal(net, want) and np.array_equal(net, np.concatenate(rows))

    def test_model_sets_join_their_nets(self):
        for K in (UNIT_DISK, Disk(0.5j, 2.0), Ellipse(1.5), Segment()):
            for k, net in zip((64, 256), K.nets((64, 256))):
                assert np.array_equal(net, np.concatenate([K.boundary_net(k), K.interior_net(k)]))


def polyroots(f, t):
    """The d roots of f(z) = t, f's stored coefficients and scale2, by 50-digit
    mpmath.polyroots.  It stops on an absolute step, so the roots are taken in
    z = 2**k u with k from |t 2**-scale2 / lead|**(1/d), their size, and it
    starts from np.roots of the same polynomial in doubles: an independent
    start, since the iteration converges to the roots from any."""
    d, s = f.degree, f.scale2
    k = round((math.log2(abs(t)) - s - math.log2(abs(f.coeffs[-1]))) / d) if t else 0
    shifts = [(j - d) * k for j in range(d, -1, -1)]  # sum a_j 2**((j-d)k) u**j = t 2**(-s-dk)
    desc = np.array([math.ldexp(1.0, e) * c for e, c in zip(shifts, f.coeffs[::-1])])
    if t:  # seeds: terms below 2**-1074 flush
        desc[-1] -= complex(t) * math.ldexp(1.0, -s - d * k)
    with mpmath.workdps(50):
        cs = [mpmath.mpc(c) * mpmath.mpf(2) ** e for e, c in zip(shifts, f.coeffs[::-1])]
        cs[-1] -= mpmath.mpc(complex(t)) * mpmath.mpf(2) ** (-s - d * k)
        seeds = [mpmath.mpc(complex(r)) for r in np.roots(desc)]
        seeds += [mpmath.mpc(0)] * (d - len(seeds))
        roots, err = mpmath.polyroots(cs, maxsteps=100, extraprec=100, roots_init=seeds,
                                      error=True)
        assert err <= mpmath.mpf(10) ** -40
        return np.array([complex(r * mpmath.mpf(2) ** k) for r in roots])


class TestClosedFormNets:
    """A map whose stored coefficients are exactly C T_d (chebyshev_error == 0) takes
    its rows by the closed form: each row over a target other than t = +-C, T_d's
    critical values, holds the stored map's 50-digit roots to 1e-13 of its largest."""

    @staticmethod
    def assert_rows_exact(pre, kind, m, rows=None):
        f, d = pre.poly, pre.poly.degree
        targets = getattr(pre.inner, kind)(max(8, m // d))
        net = getattr(pre, kind)(m).reshape(-1, d)
        assert net.shape == (targets.size, d) and f.chebyshev_error == 0
        c = Fraction(f.coeffs[-1].real) * Fraction(2) ** (f.scale2 - d + 1)  # f = c T_d
        for i in range(targets.size) if rows is None else rows:
            t = complex(targets[i])
            if t.imag or abs(Fraction(t.real)) != abs(c):  # critical rows: test_critical_rows
                assert set_distance(net[i], polyroots(f, targets[i]), d) <= 1e-13, (f, i)

    @pytest.mark.parametrize("config", sorted(METRIC_NETS))
    def test_metric_nets(self, config):
        # a few rows per map: one polyroots call takes about 0.2 s at degree 40
        inner, maps = METRIC_NETS[config]
        for f in maps:
            pre = Preimage(inner, f)
            self.assert_rows_exact(pre, "boundary_net", 8 * f.degree, [1])
            if inner.interior_net(8).size:  # Segment has none
                self.assert_rows_exact(pre, "interior_net", 8 * f.degree, [0, 2])

    @pytest.mark.parametrize("pre", [
        Preimage(Disk(0.3 - 0.2j, 1.5), chebyshev_t(5)),
        Preimage(Preimage(UNIT_DISK, chebyshev_minimal(3)), chebyshev_t(4)),
        Preimage(UNIT_DISK, polynomial(0, 2.5)),
        # |tau| = 2**1000 |t| and 2**2000 |t|: log W is taken in log space past
        # |tau| = 2**500, and past double range no scale2 overflows
        Preimage(UNIT_DISK, polynomial(*chebyshev_t(8).coeffs, scale2=-1000)),
        Preimage(UNIT_DISK, polynomial(*chebyshev_t(8).coeffs, scale2=-2000)),
        Preimage(UNIT_DISK, polynomial(*(-c for c in chebyshev_t(8).coeffs), scale2=-2000)),
    ], ids=["complex_centre", "nested", "degree_1", "scale2_-1000", "scale2_-2000",
            "negative_lead"])
    def test_every_row(self, pre):
        for kind in ("boundary_net", "interior_net"):
            self.assert_rows_exact(pre, kind, 16 * pre.poly.degree)

    def test_critical_rows_take_companion_roots(self, monkeypatch):
        # Segment's net holds t = +-1, T_8's critical values, where T_8 has double
        # roots: those two rows, and only they, reach np.roots (t = a_0 = 1) and
        # np.linalg.eigvals (t = -1), and keep np.roots's roots bit for bit
        f = chebyshev_t(8)
        solved, roots, eigvals = [], np.roots, np.linalg.eigvals
        monkeypatch.setattr(np, "roots", lambda b: solved.append(b[-1] / b[0]) or roots(b))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: solved.extend(-a[:, 0, -1]) or eigvals(a))
        net = Preimage(Segment(), f).boundary_net(1024).reshape(-1, 8)
        targets = Segment().boundary_net(128)
        assert len(solved) == 2 and set(solved) == {(f.coeffs[0] - t) / f.coeffs[-1]
                                                     for t in (1.0, -1.0)}
        monkeypatch.undo()
        assert np.array_equal(net[[0, -1]].ravel(), companion_net(f, targets[[0, -1]]))

    def test_critical_targets_solved_once(self, monkeypatch):
        # both of Segment's net sizes hold t = +-1: each is solved once, its row
        # copied to the other size, and the nets are one _pullback per target's
        pre = Preimage(Segment(), chebyshev_t(8))
        solved, roots, eigvals = [], np.roots, np.linalg.eigvals
        with monkeypatch.context() as patch:
            patch.setattr(np, "roots", lambda b: solved.append(b[-1] / b[0]) or roots(b))
            patch.setattr(np.linalg, "eigvals",
                          lambda a: solved.extend(-a[:, 0, -1]) or eigvals(a))
            nets = pre.nets((256, 1024))
        f = pre.poly
        assert len(solved) == 2 and set(solved) == {(f.coeffs[0] - t) / f.coeffs[-1]
                                                     for t in (1.0, -1.0)}
        for net, targets in zip(nets, Segment().nets((32, 128))):
            rows = [pre._pullback(targets[i:i + 1]) for i in range(targets.size)]
            assert np.array_equal(net, np.concatenate(rows))

    @staticmethod
    def spy_closed_form(monkeypatch):
        calls, closed = [], green._chebyshev_roots
        monkeypatch.setattr(green, "_chebyshev_roots", lambda p, t: calls.append(t) or closed(p, t))
        return calls

    def test_inexact_map_takes_no_closed_form(self, monkeypatch):
        f = chebyshev_minimal(81)  # its numerators pass 53 bits
        assert f.chebyshev_error > 0
        calls = self.spy_closed_form(monkeypatch)
        assert np.isfinite(Preimage(UNIT_DISK, f).boundary_net(8 * 81)).all()
        assert not calls

    def test_custom_exact_map_takes_closed_form(self, monkeypatch):
        f = polynomial(-0.5, 0, 1)  # T_2 / 2, from no maker
        assert f.chebyshev_error == 0
        calls, solved = self.spy_closed_form(monkeypatch), []
        monkeypatch.setattr(np, "roots", solved.append)
        monkeypatch.setattr(np.linalg, "eigvals", solved.append)
        net = Preimage(UNIT_DISK, f).boundary_net(64)
        assert len(calls) == 1 and not solved
        w = np.sqrt(UNIT_DISK.boundary_net(32) + 0.5)
        assert set_distance(net, np.column_stack([w, -w]).ravel(), 2) <= 1e-13

    def test_classical_net_on_the_segment(self):
        # companion and Newton roots of T_31 left the segment by up to 6.1e-10 over
        # targets other than +-1, where Segment().green of them reached 4.0e-9
        targets = Segment().boundary_net(1024 // 31)
        net = Preimage(Segment(), chebyshev_t(31)).boundary_net(1024).reshape(-1, 31)
        z = net[np.abs(targets) != 1].ravel()
        assert z.size == 31 * 31
        assert np.abs(z.imag).max() <= 2.3e-16 and np.abs(z.real).max() <= 1
        assert Segment().green(z).max() == 0
