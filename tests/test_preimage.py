"""Preimage potentials and nets at every size, against 60-digit mpmath.

Preimage.green takes f(z) by one step of the vector engine's rule and
finishes it like green_field, so f(z) of any size, and any scale2, gives
(1/d) g_inner(f(z)) to within the rounding of one Horner pass.  Preimage
nets are solved in a rescaled variable, so they exist for any scale2.
"""
import math

import numpy as np
import pytest

from nonauto import builtin, klimek
from nonauto.green import Disk, Preimage, Segment, UNIT_DISK
from nonauto.poly import EPS, monomial, polynomial
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
        # each net point is a root of f(z) = t to within rounding: the mpmath
        # Newton step from it is below 1e-12 |z| (|f(z)| itself is not near 1
        # where 2**scale2 amplifies the rounding of z)
        for f in (polynomial(1, 0.5j, 1, scale2=2000), polynomial(3, 0, -1, 2, scale2=-2100),
                  polynomial(2, 1, 0.5, scale2=-1800), polynomial(0.5, 0, 0, 1.5e308)):
            pre = Preimage(UNIT_DISK, f)
            targets = UNIT_DISK.boundary_net(max(8, 48 // f.degree))
            net = pre.boundary_net(48)
            assert net.size == targets.size * f.degree and np.isfinite(net).all()
            with mpmath.workdps(DIGITS):
                scale = mpmath.mpf(2) ** f.scale2
                for i in range(0, net.size, 5):
                    z = mpmath.mpc(complex(net[i]))
                    value = sum(mpmath.mpc(c) * z**j for j, c in enumerate(f.coeffs))
                    slope = sum(j * mpmath.mpc(c) * z**(j - 1) for j, c in enumerate(f.coeffs) if j)
                    t = mpmath.mpc(complex(targets[i // f.degree]))
                    assert abs(value - t / scale) <= 1e-12 * abs(z * slope), (f, z)

    def test_small_scale_net_unchanged(self):
        # k = 0 leaves the companion matrices as they were: exact roots of f(z) = t
        f = polynomial(0.3 - 0.1j, -0.5, 0.25j, 1)
        pre = Preimage(Disk(0.2j, 1.5), f)
        targets = pre.inner.boundary_net(32)
        want = np.concatenate([np.roots(np.array(f.coeffs[::-1]) - np.r_[0, 0, 0, t])
                               for t in targets])
        assert np.array_equal(pre.boundary_net(96), want)

    def test_tail_constant_two_pow_neg_n_sq(self):
        # p_n = 2**(-n*n) z**n pulls the unit disk back to |z| <= 2**n, at distance
        # n log 2; p_41 has scale2 -1681, which raised LinAlgError.  The fill net
        # reaches |z| = 1e304, where both potentials are near 700, so the sampled
        # sup carries their rounding (about 1e-13)
        got = klimek.tail_constant(builtin("two_pow_neg_n_sq"), UNIT_DISK, 40)
        assert abs(got - 41 * math.log(2)) <= 1e-14 * got
