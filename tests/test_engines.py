"""The four orbit engines against a 120-digit mpmath orbit, and against each other.

All four share the lanes' rules: one value carrier (the double in the band,
else mantissa and exponent), one step, one escape test and one finishing
step.  orbit_bounded and green_nonauto run them for one point in Python
(poly._evaluate), the reference here; escape_steps and green_field run them
over arrays (green._advance).  Every point below is checked against the
exact orbit and across the drivers: green_nonauto within its error_bound of
the exact potential, all four escape steps equal, and green_field within
green_nonauto's error_bound of both the exact potential and green_nonauto.
"""
import cmath
import math
import sys

import numpy as np
import pytest

from nonauto import builtin, custom_sequence, green, polynomial
from nonauto.green import (UNIT_DISK, Disk, Ellipse, Segment, escape_steps, green_field,
                           green_nonauto, orbit_bounded)
from nonauto.poly import EPS, ScaledComplex, _far, chebyshev_minimal, evaluate_scaled, monomial
from nonauto.klimek import convergence_table
from nonauto.render import RasterSpec, raster_membership, raster_rect_target
from nonauto.sequences import escape_radius_search

mpmath = pytest.importorskip("mpmath")

DIGITS = 120


def exact_orbit(seq, z, n, radius):
    """(escape step or None, log+|w_n| / D_n) by mpc Horner at 120 digits."""
    with mpmath.workdps(DIGITS):
        w = mpmath.mpc(z)
        escaped, d_prod = None, 1
        for k in range(1, n + 1):
            p = seq.get(k)
            acc = mpmath.mpc(p.coeffs[-1])
            for c in p.coeffs[-2::-1]:
                acc = acc * w + mpmath.mpc(c)
            w = acc * mpmath.mpf(2) ** p.scale2
            d_prod *= p.degree
            if escaped is None and abs(w) > radius:
                escaped = k
        return escaped, float(max(mpmath.mpf(0), mpmath.log(abs(w))) / d_prod) if w else 0.0


def complex_cycle():
    return custom_sequence([polynomial(0.3 - 0.2j, 0, 1),
                            polynomial(-0.1j, 0.5, 0, 1),
                            polynomial(0.2, 0, 0.1j, 0, 1)])


def starts(rng, radius, count, tiny=()):
    disk = radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(2j * np.pi * rng.uniform(0, 1, count))
    return np.concatenate([disk, np.asarray(tiny, dtype=complex)])


CASES = {
    "minimal_chebyshev": (lambda: builtin("minimal_chebyshev"), 20, 2.5, ()),
    "classical_chebyshev": (lambda: builtin("classical_chebyshev"), 10, 2.5, (1e-30j, -1e-200)),
    "n_exp_z2": (lambda: builtin("n_exp_z2"), 60, 1.0, (1e-5, 1e-40, 1e-300 * 1j, 0.1)),
    "z2_minus_1_then_n_exp_z2": (lambda: builtin("z2_minus_1_then_n_exp_z2"), 40, 1.5,
                                 (1 + 1e-12, -1 + 1e-9j, 1e-150)),
    "complex_cycle": (complex_cycle, 30, 2.0, (1e-20 + 1e-20j,)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engines_agree_with_mpmath(name, rng):
    make, n, spread, tiny = CASES[name]
    seq = make()
    radius = escape_radius_search(seq, n)
    pts = starts(rng, spread, 24, tiny)
    vec_steps = escape_steps(seq, pts, n, radius)
    field, field_steps, _ = green_field(seq, pts, n, radius)
    for i, z in enumerate(pts):
        z = complex(z)
        want_escape, want = exact_orbit(seq, z, n, radius)
        gv = green_nonauto(seq, z, n, radius)
        bounded, escaped = orbit_bounded(seq, z, n, radius)
        assert abs(gv.value - want) <= gv.error_bound, (z, gv, want)
        assert gv.escaped_at == escaped == want_escape, z
        assert bounded == (escaped is None)
        assert int(vec_steps[i]) == int(field_steps[i]) == (escaped or 0), z
        assert abs(field[i] - want) <= gv.error_bound, (z, field[i], want)
        assert abs(field[i] - gv.value) <= gv.error_bound, (z, field[i], gv)


def all_escape_steps(seq, z, n, radius):
    """The escape step (0 for none) by each of the four drivers, for one point."""
    pts = np.array([complex(z)])
    return [orbit_bounded(seq, z, n, radius)[1] or 0,
            green_nonauto(seq, z, n, radius).escaped_at or 0,
            int(escape_steps(seq, pts, n, radius)[0]),
            int(green_field(seq, pts, n, radius)[1][0])]


class TestDriversAgree:
    """Disagreements between the scalar and the vector drivers, now one rule each."""

    @pytest.mark.parametrize("target, shift", [(Segment(), 0.0), (Ellipse(2.0), math.log(2.0))],
                             ids=repr)
    def test_finish_past_one_over_eps(self, target, shift):
        # w_6 = z**384 is about -1.8e51 + 5.6e49j, where z + sqrt(z**2 - 1)
        # cancels: green_nonauto's own finish gave 0.21308 (Segment) and 0.21127
        # (Ellipse) with a bound of 8.5e-15; green_field's gave 0.30899, 0.30719
        seq = builtin("power", [2, 2, 2, 2, 2, 12])
        z = 1.3595815348749714 + 0.006426700895676909j
        gv = green_nonauto(seq, z, 6, 2.0, target)
        field = green_field(seq, np.array([z]), 6, 2.0, target)[0][0]
        with mpmath.workdps(60):
            w = mpmath.mpc(z) ** 384
            s = mpmath.sqrt(w * w - 1)
            want = float((mpmath.log(max(abs(w + s), abs(w - s))) - shift) / 384)
        assert abs(gv.value - want) <= gv.error_bound, (gv, want)
        assert abs(field - want) <= gv.error_bound, (field, want)
        assert abs(field - gv.value) <= gv.error_bound

    def test_value_four_ulps_above_the_radius(self):
        # |w_1| = 26.811585115124316 exceeds R by 4 ulps; comparing logs said it did not
        seq = custom_sequence([polynomial(26.811585115124316, 0, 1)])
        assert all_escape_steps(seq, 0.0, 1, 26.811585115124302) == [1, 1, 1, 1]

    def test_values_a_few_ulps_around_the_radius(self, rng):
        # w_1 = p(0) = c exactly in every driver; R sits k ulps below or above
        # |c|, the modulus the lanes compare (numpy's, which differs from abs()
        # by an ulp for about a third of all c)
        for _ in range(300):
            c = complex(cmath.rect(rng.uniform(1.01, 50.0), rng.uniform(0, 2 * math.pi)))
            seq = custom_sequence([polynomial(c, 0, 1)])
            k = int(rng.integers(-4, 4))
            radius = float(np.abs(c))
            for _ in range(abs(k)):
                radius = float(np.nextafter(radius, 0.0 if k > 0 else math.inf))
            want = 1 if k > 0 else 0
            assert all_escape_steps(seq, 0.0, 1, radius) == [want] * 4, (c, radius)

    def test_disk_far_out_stays_inside_the_bound(self):
        # Disk(1e300, 1) is asymptotic to within EPS only past |w| = 2**1050;
        # above the band the finish takes log|w| + robin, 2.2e-9 off at w = 2.25e308,
        # and the bound carries robin_error's value
        target = Disk(1e300 + 0j, 1.0)
        for z in (1.5e154, 2e154j, 1.4e154 * (1 + 1j)):
            gv = green_nonauto(builtin("power"), z, 1, 2.0, target)
            with mpmath.workdps(60):
                want = float(mpmath.log(abs(mpmath.mpc(z) ** 2 - mpmath.mpf(1e300))) / 2)
            assert abs(gv.value - want) <= gv.error_bound < 1e-8, (z, gv, want)


class TestDefects:
    def test_green_field_keeps_lower_order_terms(self):
        # (a) z**2 + 1e200 at 1e60: the lower term dominates; dropping it gave 138.16
        seq = custom_sequence([polynomial(1e200, 0, 1)])
        values, steps, _ = green_field(seq, np.array([1e60 + 0j]), 1, 1e101)
        want = math.log(1e120 + 1e200) / 2
        assert abs(values[0] - want) <= 1e-13 * want
        assert abs(values[0] - 230.2585) < 1e-4
        assert steps[0] == 1

    def test_vector_engines_keep_tiny_orbits(self):
        # (c) tiny starts under n_exp_z2 escape at 9 and 35; flushed to zero
        # they stayed bounded
        seq = builtin("n_exp_z2")
        radius = escape_radius_search(seq, 60)
        pts = np.array([1e-5, 1e-40])
        assert escape_steps(seq, pts, 60, radius).tolist() == [9, 35]
        values, steps, _ = green_field(seq, pts, 60, radius)
        assert steps.tolist() == [9, 35]
        for z, v in zip(pts, values):
            gv = green_nonauto(seq, z, 60, radius)
            assert orbit_bounded(seq, z, 60, radius) == (False, gv.escaped_at)
            assert abs(v - (math.log(z) + math.lgamma(61))) <= gv.error_bound

    def test_vector_engines_match_scalar_after_cancellation(self):
        # (c) p_1 = z**2 - 1 maps 1 + 1e-12 to about 2e-12, deep below 1 after n_exp_z2
        seq = builtin("z2_minus_1_then_n_exp_z2")
        radius = escape_radius_search(seq, 60)
        z = 1 + 1e-12
        gv = green_nonauto(seq, z, 60, radius)
        values, steps, _ = green_field(seq, np.array([z]), 60, radius)
        assert orbit_bounded(seq, z, 60, radius) == (False, gv.escaped_at)
        assert escape_steps(seq, np.array([z]), 60, radius)[0] == steps[0] == gv.escaped_at
        assert abs(values[0] - gv.value) <= gv.error_bound


class TestDegreeAboveDoubleExponentRange:
    """power:2000: m**2000 overflows doubles for every mantissa m in (1, 2)."""

    def test_evaluate_scaled(self):
        p = monomial(2000, 0.75 - 0.5j)
        for z in (1.5 * cmath.exp(0.3j), -1.9 + 0.1j, 0.6j):
            out = evaluate_scaled(p, ScaledComplex.from_complex(z, 3))
            with mpmath.workdps(60):
                want = mpmath.mpc(0.75 - 0.5j) * (mpmath.mpc(z) * 8) ** 2000
                got = mpmath.mpc(out.mantissa) * mpmath.mpf(2) ** out.exponent
                assert abs(got - want) <= 16 * 2001 * EPS * abs(want)

    def test_engines(self):
        seq = builtin("power", degrees=2000)
        pts = np.array([1.5 * cmath.exp(0.3j), 0.999, 1.0001j])
        assert escape_steps(seq, pts, 3, 2.0).tolist() == [1, 0, 2]
        values, _, _ = green_field(seq, pts, 3, 2.0)
        for z, v in zip(pts, values):
            gv = green_nonauto(seq, complex(z), 3, 2.0)
            assert abs(gv.value - max(0.0, math.log(abs(z)))) <= gv.error_bound
            assert abs(v - gv.value) <= gv.error_bound


def exact_step(p, m, e):
    """p(m * 2**e) at 60 digits, scale included."""
    x = mpmath.mpc(m) * mpmath.mpf(2) ** e
    acc = mpmath.mpc(p.coeffs[-1])
    for c in p.coeffs[-2::-1]:
        acc = acc * x + mpmath.mpc(c)
    return acc * mpmath.mpf(2) ** p.scale2


class TestOneTermSteps:
    """Off the band a step keeps a_v w**v alone below log2|w| = Polynomial.log_tiny
    and a_d w**d alone from log_safe on (v the valuation), in both engines: the
    scalar poly._far and the vector green._far_step."""

    MAPS = {
        "minimal-chebyshev-601": lambda: chebyshev_minimal(601),
        "complex-scaled": lambda: polynomial(0, 0, 1.5 - 0.5j, 0.25j, 0, 2 + 1j, scale2=-37),
        "huge-coefficients": lambda: polynomial(1e300, 3e307j, 0, 1e-200, scale2=900),
    }
    MANTISSAS = [1.0, 1.3 + 0.4j, -0.2 - 1.9j]

    @staticmethod
    def sides(p):
        """Exponents with every mantissa below log_tiny, then from log_safe on."""
        lo, hi = math.floor(p.log_tiny) - 2, math.ceil(p.log_safe) + 1
        return [(lo, "tiny"), (lo - 3000, "tiny"), (hi, "lead"), (hi + 3000, "lead")]

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_both_engines_match_mpmath(self, name):
        p = self.MAPS[name]()
        d, ms, es = p.degree, [], []
        for e, side in self.sides(p):
            for m in self.MANTISSAS:
                m = complex(m) / abs(m) * (1 + 0.5 * abs(m.imag))  # |m| in [1, 2)
                ms.append(m)
                es.append(e)
                assert _far(p, m, e)[2] == 1.0, (e, side)  # the one-term branch: mu = 1
        vm, ve = green._far_step(p, np.array(ms), np.array(es, dtype=float))
        with mpmath.workdps(60):
            for m, e, got_m, got_e in zip(ms, es, vm, ve):
                want = exact_step(p, m, e)
                for mant, ex in (_far(p, m, e)[:2], (complex(got_m), int(got_e))):
                    got = mpmath.mpc(mant) * mpmath.mpf(2) ** ex
                    assert abs(got - want) <= 16 * (d + 1) * EPS * abs(want), (m, e)

    @pytest.mark.parametrize("e", [10**400, -10**400, 5000, -5000],
                             ids=["1e400", "-1e400", "5000", "-5000"])
    def test_exponents_past_float_range(self, e):
        # the compare clamps e as _escaped does: float(10**400) would overflow
        p = self.MAPS["complex-scaled"]()
        m = 1.3 + 0.4j
        mant, ex, mu = _far(p, m, e)
        k = p.degree if e > 0 else p.valuation
        assert mu == 1.0 and abs(ex - (e * k + p.scale2)) <= 2 * k + 2
        with mpmath.workdps(60):
            want = exact_step(p, m, e)
            got = mpmath.mpc(mant) * mpmath.mpf(2) ** ex
            assert abs(got - want) <= 16 * (p.degree + 1) * EPS * abs(want)

    # 2**5 (2**-1000 + w) and 2**3 (2**1000 + 2 w): log_tiny = -1053, log_safe = 1052
    TINY, LEAD = polynomial(2.0**-1000, 1, scale2=5), polynomial(2.0**1000, 2, scale2=3)

    @pytest.mark.parametrize("p, e, want", [
        (TINY, -1052, (1 + 2.0**-52, -995)), (TINY, -1054, (1.0, -995)),
        (LEAD, 1051, (1 + 2.0**-52, 1055)), (LEAD, 1053, (1.0, 1057))],
        ids=["tiny-kept", "tiny-dropped", "lead-kept", "lead-dropped"])
    def test_terms_above_rounding_are_kept(self, p, e, want):
        # at w = 2**e one binade inside the threshold the other term is 2**-52 of the
        # kept one, above the 2**-53 that a one-term step drops, and moves the last
        # bit; one binade past it, 2**-54, it rounds away: each is p(w) rounded
        assert (self.TINY.log_tiny, self.LEAD.log_safe) == (-1053.0, 1052.0)
        assert _far(p, 1 + 0j, e)[:2] == want
        m, ex = green._far_step(p, np.array([1 + 0j]), np.array([float(e)]))
        assert (complex(m[0]), int(ex[0])) == want

    @pytest.mark.parametrize("seq, n, pts", [
        # interior orbits of the paper's t_n: the odd steps past n = 450 leave the band
        (builtin("minimal_chebyshev"), 600, [0.3, -0.61, 0.05 + 0.01j]),
        (builtin("n_exp_z2"), 60, [1e-5, 1e-40, 1e-300j, 0.1]),
        # complex maps starting below the band, and far above it
        (custom_sequence([polynomial(0, 0.6 + 0.6j, 0, 1.5j, 0, 0.5),
                          polynomial(0, 0.5 - 0.7j, 0.3j, 1)]), 30,
         [1e-300, 1e-280j, 3e-250 * (1 + 1j), 1e200, 1e150 - 1e150j, 0.4 + 0.1j])],
        ids=["minimal-chebyshev", "n_exp_z2", "complex-cycle"])
    def test_scalar_and_vector_agree_off_the_band(self, seq, n, pts):
        radius = escape_radius_search(seq, n)
        pts = np.array(pts, dtype=complex)
        vec_steps = escape_steps(seq, pts, n, radius)
        field, field_steps, _ = green_field(seq, pts, n, radius)
        for i, z in enumerate(pts):
            gv = green_nonauto(seq, complex(z), n, radius)
            assert orbit_bounded(seq, complex(z), n, radius)[1] == gv.escaped_at
            assert int(vec_steps[i]) == int(field_steps[i]) == (gv.escaped_at or 0), z
            assert abs(field[i] - gv.value) <= gv.error_bound, (z, field[i], gv)

    def test_parity_split_where_w_squared_underflows(self):
        # w*w = 2**-1200 flushes to 0: the split Horner gave 2**-800 for
        # p(w) = 2**-800 + 2**-203, and escape_steps kept a point that escapes at 2
        seq = custom_sequence([polynomial(2.0**-800, 0, 2.0**997, 0, 1),
                               polynomial(0, 0, 2.0**410)], repeat="none")
        z = 2.0**-600
        assert orbit_bounded(seq, z, 2, 4.0) == (False, 2)
        gv = green_nonauto(seq, z, 2, 4.0)
        assert escape_steps(seq, np.array([z]), 2, 4.0).tolist() == [2]
        # the lane alone and in a chunk of wider lanes: the rerun is per lane
        pts = np.array([z, 0.5, 2.0**-520 * (1 + 1j), 0.0])
        values, steps, _ = green_field(seq, pts, 2, 4.0)
        assert steps.tolist() == [2, 1, 2, 0]
        assert abs(values[0] - gv.value) <= gv.error_bound
        assert values[0] == green_field(seq, pts[:1], 2, 4.0)[0][0]
        w = green._advance(seq.get(1), pts.copy(), np.zeros(4), np.abs(pts))[0]
        assert w[0] == 2.0**-800 + 2.0**-203


# The bench's cli_custom cycle: z^2 + c1, z^3 + b z + c2, z^4 + a z^2 + c3
BASE_CYCLE = [polynomial(-0.12 + 0.35j, 0, 1),
              polynomial(0.05 - 0.2j, 0.15 + 0.1j, 0, 1),
              polynomial(0.1 + 0.1j, 0, -0.2 + 0.05j, 0, 1)]


def grid(width=120, height=80):
    xs, ys = np.linspace(-1.5, 1.5, width), np.linspace(-1.0, 1.0, height)
    return xs[None, :] + 1j * ys[:, None]


def unrolled(seq, n):
    """The same maps p_1..p_n as a sequence with no period, hence no trap."""
    return custom_sequence([seq.get(k) for k in range(1, n + 1)], repeat="none")


def jittered_cycle(rng, period):
    """period maps of degrees 2 to 4, each near the base cycle's map of its degree."""
    def near(c):
        return c + complex(*rng.uniform(-0.02, 0.02, 2)) if c else 0j
    return custom_sequence([polynomial(*(near(c) for c in base.coeffs[:-1]), 1)
                            for base in rng.choice(BASE_CYCLE, period)])


def same_field(got, want):
    """green_field results equal bit for bit: values (so +0.0 is not -0.0), steps,
    and final_w with its nans."""
    return (np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
            and np.array_equal(got[1], want[1])
            and np.array_equal(got[2].view(np.int64), want[2].view(np.int64)))


class TestCycleTraps:
    """escape_steps and green_field retire lanes in a certified attracting-cycle
    trap with step 0 (green_field only for a Disk target whose green is 0 on the
    trap, with value +0.0); the unrolled sequence, which has no period, runs
    every orbit in full."""

    def test_base_cycle_is_trapped(self):
        seq = custom_sequence(BASE_CYCLE)
        assert green._trap(seq, escape_radius_search(seq, 4)) is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cycles_match_the_unrolled_orbits(self, seed):
        rng = np.random.default_rng(seed)
        seq = jittered_cycle(rng, 1 + seed % 3)
        radius = escape_radius_search(seq, seq.period + 1)
        pts = grid()
        got = escape_steps(seq, pts, 500, radius)
        assert np.array_equal(got, escape_steps(unrolled(seq, 500), pts, 500, radius))

    @pytest.mark.parametrize("target", [UNIT_DISK, Disk(0.1j, 0.8)], ids=["unit", "off-centre"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_cycles_match_the_unrolled_field(self, seed, target):
        rng = np.random.default_rng(seed)
        seq = jittered_cycle(rng, 1 + seed % 3)
        radius = escape_radius_search(seq, seq.period + 1)
        assert green._trap(seq, radius, target) is not None
        pts, flat = grid(), unrolled(seq, 200)
        got = green_field(seq, pts, 200, radius, target)
        want = green_field(flat, pts, 200, radius, target)
        # a retired lane's final_w is nan; the unrolled run has its orbit value
        held = np.isnan(got[2]) & ~np.isnan(want[2])
        assert held.any() and (want[1][held] == 0).all()
        got[2][held] = want[2][held]
        assert same_field(got, want)

    @pytest.mark.parametrize("target", [Disk(1.5 + 0.5j, 1.0), Disk(0.1 + 0.1j, 0.2),
                                        Segment(), Ellipse(2.0)],
                             ids=["disk-off", "disk-small", "segment", "ellipse"])
    def test_targets_without_a_zero_trap_run_the_full_field(self, target):
        # a disk that misses the trap, or is too small to hold it, and the
        # Joukowski sets: nothing retires, so final_w is the unrolled one too
        seq = custom_sequence(BASE_CYCLE)
        radius = escape_radius_search(seq, 4)
        assert green._trap(seq, radius) is not None and green._trap(seq, radius, target) is None
        pts = grid()
        assert same_field(green_field(seq, pts, 200, radius, target),
                          green_field(unrolled(seq, 200), pts, 200, radius, target))

    def test_raster_rect_target_keeps_full_orbits(self):
        seq = custom_sequence(BASE_CYCLE)
        spec = RasterSpec(-1.5, 1.5, -1, 1, 90, 60, 200, escape_radius_search(seq, 4))
        rect = (0.0, 0.1, -0.25, -0.15)  # holds the cycle point of phase 200 % 3
        got = raster_rect_target(seq, spec, rect).values
        assert np.array_equal(got, raster_rect_target(unrolled(seq, 200), spec, rect).values)
        assert (got == 0).any()

    def test_convergence_table_matches_the_unrolled_table(self):
        seq = custom_sequence(BASE_CYCLE)
        ns = [1, 3, 4, 6]
        got = convergence_table(seq, UNIT_DISK, ns, samples=256)
        assert got == convergence_table(unrolled(seq, 7), UNIT_DISK, ns, samples=256)

    @pytest.mark.parametrize("c, m", [(-1.1 + 0.05j, 2), (-0.1 + 0.75j, 3), (-1.3, 4)])
    def test_cycles_of_several_periods_match_the_unrolled_orbits(self, c, m):
        # z^2 + c has an attracting m-cycle: one trap disk per point of it
        seq = custom_sequence([polynomial(c, 0, 1)])
        radius = escape_radius_search(seq, 2)
        assert len(green._trap(seq, radius)[0]) == m
        pts = grid()
        got = escape_steps(seq, pts, 500, radius)
        assert np.array_equal(got, escape_steps(unrolled(seq, 500), pts, 500, radius))

    def test_trap_disks_hold_their_float_orbits(self, rng):
        # points spread over each phase-0 disk stay in the disks, period after period
        seq = custom_sequence(BASE_CYCLE)
        centres, radii = green._trap(seq, 2.0)
        for c, r in zip(centres, radii):
            w = c + r * np.sqrt(rng.uniform(0, 1, 4000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4000))
            w[:8] = c + r * np.exp(2j * np.pi * np.arange(8) / 8)
            e, a = np.zeros(w.size), np.abs(w)
            for _ in range(50):
                for k in range(1, seq.period + 1):
                    w, e, a = green._advance(seq.get(k), w, e, a)
                    assert not e.any() and (a < 2.0).all()
                assert (np.abs(w[:, None] - centres) <= radii).any(axis=1).all()

    @pytest.mark.parametrize("seq, radius", [
        (custom_sequence([polynomial(0.25, 0, 1)]), None),           # multiplier 1
        (custom_sequence([polynomial(10, 0, 1)]), None),             # no bounded orbit
        (custom_sequence([polynomial(0.05, 0, 0.5, scale2=1)]), 2.0),  # z^2 + 0.1, scale2 = 1
        (custom_sequence([monomial(2), polynomial(0, 0, 0, 1)]), None),  # cycle at 0
        (custom_sequence([polynomial(0.2, 0, 1)]), 0.3),             # disk passes R
    ], ids=["parabolic", "escaping", "scale2", "zero", "radius"])
    def test_untrapped_cycles_run_the_full_orbit(self, seq, radius):
        radius = radius or escape_radius_search(seq, seq.period + 1)
        assert green._trap(seq, radius) is None
        pts, flat = grid(), unrolled(seq, 300)
        got = escape_steps(seq, pts, 300, radius)
        assert np.array_equal(got, escape_steps(flat, pts, 300, radius))
        assert same_field(green_field(seq, pts, 300, radius), green_field(flat, pts, 300, radius))

    def test_coefficients_past_double_range_give_no_trap(self, monkeypatch):
        # a p_1 slope past 1.8e308 gives no critical points to run; a settled cycle whose
        # next map has a coefficient of modulus past 1.8e308 (both parts finite) has a
        # chain that abs() cannot bound, and is skipped
        calls, chain = [], green._close_chain

        def spy(polys, centres):
            calls.append(centres)
            try:
                return chain(polys, centres)
            except OverflowError:
                calls.append("overflow")
                raise
        monkeypatch.setattr(green, "_close_chain", spy)
        assert green._cycle_disks(custom_sequence([polynomial(0, 0, 1e308), monomial(2)])) is None
        assert calls == []
        big = 1.5e308 * (1 + 1j)
        seq = custom_sequence([polynomial(1e-200, 0, 1), polynomial(1e-200, 0, 0, big, 1)])
        assert green._cycle_disks(seq) is None
        assert len(calls) == 2 and calls[1] == "overflow"

    def test_radius_is_what_refuses_the_near_trap(self):
        seq = custom_sequence([polynomial(0.2, 0, 1)])
        assert green._trap(seq, 0.3) is None and green._trap(seq, 2.0) is not None

    def test_thread_bands_share_the_cached_trap(self):
        # each fresh sequence certifies its trap inside the first band to reach it;
        # bands racing to certify store the same value
        spec = RasterSpec(-1.5, 1.5, -1, 1, 90, 60, 400, 2.0)
        one = raster_membership(custom_sequence(BASE_CYCLE), spec, threads=1).values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 4):
                seq = custom_sequence(BASE_CYCLE)
                assert np.array_equal(raster_membership(seq, spec, threads=threads).values, one)
                assert green._trap(seq, 2.0) is not None
        finally:
            sys.setswitchinterval(interval)
        assert (one == 0).any()


def depth_fields(seq, pts, depths, radius, target=UNIT_DISK):
    """{n: values} from one _depth_fields pass over pts, joined across chunks, and
    the deepest depth's (steps, final_w)."""
    flat, _, log2_r = green._engine_points(pts, depths[0], radius)
    got, tail = {n: [] for n in depths}, ([], [])
    for lo, n, values, steps, final_w in green._depth_fields(seq, flat, depths, radius,
                                                              log2_r, target):
        assert lo == sum(v.size for v in got[n])  # each depth's chunks in order
        got[n].append(values.copy())
        if steps is not None:
            tail[0].append(steps)
            tail[1].append(final_w)
    return {n: np.concatenate(v) for n, v in got.items()}, tuple(map(np.concatenate, tail))


class TestDepthFields:
    """One orbit pass gives the deepest depth's green_field values, escape steps
    and final_w bit for bit, and every shallower depth's values to one rounding."""

    SEQS = {"minimal": lambda: builtin("minimal_chebyshev"),
            "classical": lambda: builtin("classical_chebyshev"),
            "base-cycle": lambda: custom_sequence(BASE_CYCLE),
            "n_exp_z2": lambda: builtin("n_exp_z2")}

    @pytest.mark.parametrize("depths", [list(range(1, 14)), [1, 4, 5, 9]], ids=["1-13", "1459"])
    @pytest.mark.parametrize("target", [UNIT_DISK, Disk(0.3 + 0.1j, 0.5), Segment()],
                             ids=["unit", "off-centre", "segment"])
    @pytest.mark.parametrize("name", SEQS)
    def test_every_depth_is_green_field(self, name, target, depths):
        # 1000 points past _CHUNK: each depth crosses a chunk boundary; no chunk
        # has one point, so complex maps need no allowance for lone-lane rounding
        seq = self.SEQS[name]()
        radius = escape_radius_search(seq, 14)
        rng = np.random.default_rng(len(depths))
        pts = 1.25 * radius * (rng.uniform(-1, 1, green._CHUNK + 1000)
                               + 1j * rng.uniform(-1, 1, green._CHUNK + 1000))
        pts[:4] = [0, 1e3, -0.5, 1e-300]
        got, (steps, final_w) = depth_fields(seq, pts, depths, radius, target)
        for n in depths[:-1]:  # lanes leave at the deepest gate, so n finishes its own
            want = green_field(seq, pts, n, radius, target)[0]
            assert (np.abs(got[n] - want) <= 4 * EPS * (1 + want)).all(), n
        want = green_field(seq, pts, depths[-1], radius, target)
        assert same_field((got[depths[-1]], steps, final_w), want)
        if name == "base-cycle" and target is UNIT_DISK:
            assert green._trap(seq, radius, target) is not None and (want[1] == 0).any()

    def test_depths_after_every_lane_left(self):
        # every lane passes the deepest gate by step 4, so depths 5 and 9 come
        # from the values written as the lanes left
        seq = builtin("minimal_chebyshev")
        radius = escape_radius_search(seq, 10)
        pts = 1e3 * np.exp(2j * np.pi * np.arange(64) / 64)
        got, (steps, _) = depth_fields(seq, pts, [1, 5, 9], radius)
        for n in (1, 5, 9):
            assert np.array_equal(got[n], green_field(seq, pts, n, radius)[0])
        assert (got[9] > 0).all() and (steps == 1).all()

    def test_zero_lane_takes_no_log(self):
        # 0 stays 0 under z^2 while its chunk's other lanes pass every gate;
        # filterwarnings makes a log(0) RuntimeWarning an error
        seq = builtin("power", degrees=2)
        pts = np.array([0, 3, 1e5, 1e200, 0.5j])
        got, _ = depth_fields(seq, pts, [1, 2, 6, 7], 2.0)
        for n in (1, 2, 6, 7):
            assert np.array_equal(got[n], green_field(seq, pts, n, 2.0)[0])
        assert got[7][0] == 0 and got[7][3] > 0
