import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonauto.green import (_CHUNK, CapacityEstimate, Disk, Ellipse, GreenValue,
                           Preimage, Segment, UNIT_DISK, capacity_estimate, escape_steps,
                           green_field, green_nonauto, orbit_bounded)
from nonauto.poly import EPS, Polynomial, compose, evaluate, monomial, polynomial
from nonauto.sequences import builtin, custom_sequence, escape_radius_search

SEG = Segment()
# Open defect: past |z| = 1/eps the Joukowski root z + sqrt(z**2 - 1) can cancel
# to a rounding residual above 1, which _joukowski keeps as the large root.
# Picking the larger of z +- sqrt(z**2 - 1) fixes it, but moves the benchmark's
# recorded tail_constant(classical_chebyshev, Segment, 30) from 2.66 to 8e-5.
SEGMENT_DEFECT = "Segment.green takes the cancelled Joukowski root past |z| = 1/eps"


def ellipse_boundary(r, m):
    w = r * np.exp(2j * np.pi * np.arange(m) / m)
    return 0.5 * (w + 1.0 / w)


class TestClosedForms:
    def test_unit_disk_at_two(self):
        assert abs(UNIT_DISK.green(2.0) - math.log(2)) < 1e-14

    def test_segment_at_five_fourths(self):
        assert abs(SEG.green(1.25) - math.log(2)) < 1e-14

    def test_ellipse_boundary_vanishes(self):
        vals = Ellipse(2.0).green(ellipse_boundary(2.0, 4096))
        assert float(np.max(np.abs(vals))) < 1e-12

    def test_zero_on_the_sets(self):
        assert Disk(1 + 1j, 2.0).green(1 + 1j) == 0.0
        assert SEG.green(0.5) == 0.0
        assert Ellipse(3.0).green(0.2j) == 0.0

    def test_segment_is_the_unit_ellipse(self):
        # the r = 1 ellipse, with r fixed and out of repr, equality and hash
        assert isinstance(SEG, Ellipse) and SEG.r == 1.0
        assert repr(SEG) == "Segment()" and SEG == Segment() and hash(SEG) == hash(())
        assert SEG != Ellipse(2.0)
        with pytest.raises(TypeError):
            Segment(2.0)
        assert (SEG.capacity(), SEG.robin(), SEG.enclosing_radius()) == (0.5, math.log(2), 1.0)
        assert SEG.robin_offset(30.0) == (math.log(2), math.exp(-60.0))
        with pytest.raises(ValueError, match="ellipse"):
            SEG.robin_offset(0.69)
        assert np.array_equal(SEG.boundary_net(5), np.linspace(-1, 1, 5) + 0j)
        assert SEG.interior_net(64).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Disk(0j, 0.0)
        with pytest.raises(ValueError):
            Ellipse(1.0)
        with pytest.raises(ValueError):
            Preimage(UNIT_DISK, polynomial(5))

    @pytest.mark.parametrize("make", [
        lambda: Disk(complex(math.nan, 0.0), 1.0), lambda: Disk(complex(0.0, math.inf), 1.0),
        lambda: Disk(0j, math.inf), lambda: Disk(0j, math.nan), lambda: Ellipse(math.inf),
        lambda: Ellipse(math.nan)])
    def test_non_finite_parameters_rejected(self, make):
        # Disk(nan) reached an OverflowError in robin_offset; Ellipse(inf) gave a capacity
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("center, radius", [(1.5e308 + 1.5e308j, 1.0),
                                                (1.7e308 + 0j, 1.7e308), (1.7e308j, 1e308)])
    def test_centre_modulus_past_double_range_rejected(self, center, radius):
        # finite parts, but |center| + radius is not a double: abs(center) raised
        # OverflowError in robin_offset and green gave inf
        with pytest.raises(ValueError, match="double range"):
            Disk(center, radius)
        assert Disk(1.7e308 + 0j, 1.0).enclosing_radius() == 1.7e308


class TestPreimage:
    def test_square_map_fixes_unit_disk(self, rng):
        f = monomial(2)
        for _ in range(50):
            z = complex(*(2 * rng.uniform(-1, 1, 2)))
            assert abs(Preimage(UNIT_DISK, f).green(z) - UNIT_DISK.green(z)) < 1e-13

    def test_chebyshev_total_invariance_on_segment(self, rng):
        T2 = polynomial(-1, 0, 2)
        for _ in range(50):
            z = complex(*(3 * rng.uniform(-1, 1, 2)))
            lhs = Preimage(SEG, T2).green(z)
            assert abs(lhs - SEG.green(z)) < 1e-12

    def test_monic_preimage_capacity_one(self, rng):
        f = polynomial(0.3 - 0.1j, -0.5, 0.25j, 1)
        pre = Preimage(UNIT_DISK, f)
        est = capacity_estimate(lambda pts: pre.green(pts),
                                [4.0, 8.0, 16.0])
        assert abs(est.value - 1.0) < 1e-6
        assert abs(pre.capacity() - 1.0) < 1e-15

    def test_capacity_past_double_range_is_inf(self):
        # the preimage of the unit disk under 1e-320 z is the disk of radius 1e320
        assert Preimage(UNIT_DISK, polynomial(0, 1e-320)).capacity() == math.inf

    def test_lead_with_modulus_past_double_range(self):
        # 1.5e308 (1 + 1j) has finite parts and modulus 2.1e308, which abs() cannot hold
        pre = Preimage(UNIT_DISK, polynomial(0, 0, 1.5e308 * (1 + 1j)))
        want = (math.log(1.5e308) + 0.5 * math.log(2)) / 2
        assert abs(pre.robin() - want) <= 1e-15 * want
        assert pre.enclosing_radius() == 1.0
        gamma, err = pre.robin_offset(5.0)
        assert gamma == pre.robin() and err == 0.0
        assert abs(pre.green(3.0) - (want + math.log(3.0))) <= 1e-13 * want

    def test_pullback_composition_consistency(self, rng):
        for _ in range(25):
            cf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            cg = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cf[-1] = cf[-1] if abs(cf[-1]) > 0.1 else 1.0
            cg[-1] = cg[-1] if abs(cg[-1]) > 0.1 else 1.0
            f = Polynomial(tuple(map(complex, cf)))
            g = Polynomial(tuple(map(complex, cg)))
            z = complex(*(2 * rng.uniform(-1, 1, 2)))
            direct = Preimage(UNIT_DISK, compose(f, g)).green(z)
            nested = Preimage(Preimage(UNIT_DISK, f), g).green(z)
            assert abs(direct - nested) <= 1e-12 * max(1.0, direct)


class TestSublevelAndMazurek:
    def test_disk_sublevel_is_scaled_disk(self):
        assert UNIT_DISK.green(1.999) <= math.log(2)
        assert not UNIT_DISK.green(2.001) <= math.log(2)

    def test_segment_sublevel_is_filled_ellipse(self):
        r = 2.0
        eps = math.log(r)
        ell = Ellipse(r)
        inside = 0.5 * (Ellipse(r).semi_major)
        assert SEG.green(inside) <= eps
        on_axis_outside = ell.semi_major + 1e-6
        assert not SEG.green(on_axis_outside) <= eps
        # boundary points agree with ellipse membership
        for z in ellipse_boundary(1.7, 64):
            assert (SEG.green(complex(z)) <= eps) == (ell.green(complex(z)) == 0.0)

    def test_points_of_the_set_belong_to_every_sublevel(self):
        for eps in (1e-9, 0.1, 5.0):
            assert SEG.green(0.3) <= eps

    def test_mazurek_identity_for_disks(self, rng):
        for _ in range(100):
            z = complex(*(6 * rng.uniform(-1, 1, 2)))
            for r, eps in ((1.0, math.log(2)), (0.5, 0.75), (2.0, 0.1)):
                lhs = Disk(0j, r * math.exp(eps)).green(z)
                rhs = max(0.0, Disk(0j, r).green(z) - eps)
                assert abs(lhs - rhs) < 1e-12


class TestMonotonicity:
    def test_nested_disks(self, rng):
        inner, outer = Disk(0.3 + 0.1j, 0.5), Disk(0j, 2.0)
        for _ in range(1000):
            z = complex(*(5 * rng.uniform(-1, 1, 2)))
            assert inner.green(z) >= outer.green(z) - 1e-14

    def test_segment_in_ellipses(self, rng):
        small, big = Ellipse(1.5), Ellipse(3.0)
        for _ in range(300):
            z = complex(*(5 * rng.uniform(-1, 1, 2)))
            gs, g1, g2 = SEG.green(z), small.green(z), big.green(z)
            assert gs >= g1 - 1e-14 >= g2 - 2e-14


class TestCapacity:
    def test_disk(self):
        for r in (1.0, 2.5):
            est = capacity_estimate(lambda pts: Disk(0j, r).green(pts),
                                    [4 * r, 8 * r, 16 * r])
            assert abs(est.value - r) < 1e-12
            assert est.spread < 1e-12

    def test_segment(self):
        est = capacity_estimate(lambda pts: SEG.green(pts), [4.0, 8.0])
        assert abs(est.value - 0.5) < 1e-6

    def test_ellipse(self):
        est = capacity_estimate(lambda pts: Ellipse(2.0).green(pts), [8.0, 16.0])
        assert abs(est.value - 1.0) < 1e-6

    def test_closed_form_capacities(self):
        assert Disk(1j, 3.0).capacity() == 3.0
        assert abs(SEG.capacity() - 0.5) < 1e-15
        assert abs(Ellipse(5.0).capacity() - 2.5) < 1e-15

    def test_validation(self):
        g = lambda pts: UNIT_DISK.green(pts)
        with pytest.raises(ValueError):
            capacity_estimate(g, [2.0])
        with pytest.raises(ValueError):
            capacity_estimate(g, [4.0, 3.0])

    @pytest.mark.parametrize("radii", [[0.0, 1.0], [-2.0, 1.0], [1.0, math.inf], [math.nan, 1.0]])
    def test_probe_radii_must_be_positive_and_finite(self, radii):
        # a radius of 0 took log(0) and reported spread inf; a negative one was accepted
        with pytest.raises(ValueError, match="probe radii must be positive and finite"):
            capacity_estimate(lambda pts: UNIT_DISK.green(pts), radii)


class TestOrbits:
    def test_toy_point_bounded_deep(self, min_cheb, min_cheb_radius):
        bounded, escaped = orbit_bounded(min_cheb, 0.8j, 1000, min_cheb_radius)
        assert bounded and escaped is None

    def test_degenerate_julia_orbits(self):
        seq = builtin("n_exp_z2")
        r = escape_radius_search(seq, 20)
        assert orbit_bounded(seq, 0.0, 60, r) == (True, None)
        for z in (0.1, -0.1, 0.1j, -0.1j):
            bounded, k = orbit_bounded(seq, z, 60, r)
            assert not bounded and k <= 60

    def test_two_point_julia_set(self):
        seq = builtin("z2_minus_1_then_n_exp_z2")
        r = escape_radius_search(seq, 20)
        survivors = [x for x in np.linspace(-1, 1, 21)
                     if orbit_bounded(seq, complex(x), 60, r)[0]]
        assert survivors == [-1.0, 1.0]

    def test_validation(self):
        seq = builtin("power", degrees=2)
        with pytest.raises(ValueError):
            orbit_bounded(seq, 1.0, 0, 2.0)
        with pytest.raises(ValueError):
            orbit_bounded(seq, 1.0, 5, -1.0)

    def test_non_finite_points_rejected(self, min_cheb):
        pts = np.array([0.5, complex(np.nan, 0.0)])
        # p_2 does not exist: the points are checked before any step is built
        short = custom_sequence([monomial(2)], repeat="none")
        for engine in (escape_steps, green_field):
            with pytest.raises(ValueError):
                engine(min_cheb, pts, 5, 2.0)
            with pytest.raises(ValueError, match="points must be finite"):
                engine(short, pts, 3, 2.0)
        with pytest.raises(ValueError):
            orbit_bounded(min_cheb, complex(np.inf, 0.0), 5, 2.0)

    @pytest.mark.parametrize("n_steps", [0, -2])
    def test_vector_engines_need_a_step(self, n_steps):
        # escape_steps read 0 steps as "bounded"; green_field returned the target's green
        seq = builtin("power", degrees=2)
        for engine in (escape_steps, green_field):
            with pytest.raises(ValueError, match="n_steps must be >= 1"):
                engine(seq, np.array([0.5, 3.0]), n_steps, 2.0)

    def test_escape_steps_builds_only_the_steps_a_point_reaches(self):
        # p_2 does not exist: every point escapes at step 1, so it is never asked for
        seq = custom_sequence([monomial(2, 1.0, 10)], repeat="none")
        assert escape_steps(seq, np.array([5.0]), 3, 2.0).tolist() == [1]

    def test_vector_escape_matches_scalar(self, min_cheb, min_cheb_radius, rng):
        pts = (rng.uniform(-1.6, 1.6, 40) + 1j * rng.uniform(-1.1, 1.1, 40))
        vec = escape_steps(min_cheb, pts, 60, min_cheb_radius)
        for z, expect in zip(pts, vec):
            bounded, k = orbit_bounded(min_cheb, complex(z), 60, min_cheb_radius)
            assert (0 if bounded else k) == int(expect)


class TestGreenNonauto:
    def test_power_sequence_fixed_point(self, rng):
        seq = builtin("power", degrees=2)
        for _ in range(40):
            z = complex(*(3 * rng.uniform(-1, 1, 2)))
            for n in (1, 3, 9):
                gv = green_nonauto(seq, z, n, 2.0)
                assert abs(gv.value - max(0.0, math.log(abs(z) or 1.0))) < 1e-12

    def test_classical_limit_at_two(self, classical_cheb, classical_cheb_radius):
        target = math.log(2 + math.sqrt(3))
        errs = [abs(green_nonauto(classical_cheb, 2.0, n, classical_cheb_radius).value - target)
                for n in (4, 8, 10)]
        assert errs[-1] < 1e-6
        assert errs[0] > errs[-1]

    def test_segment_orbit_gives_zero(self, min_cheb, min_cheb_radius):
        for x in np.linspace(-1, 1, 21):
            gv = green_nonauto(min_cheb, complex(x), 40, min_cheb_radius)
            assert gv.value <= 1e-12

    def test_symmetry(self, min_cheb, min_cheb_radius, rng):
        for _ in range(30):
            z = complex(*(2.5 * rng.uniform(-1, 1, 2)))
            v = green_nonauto(min_cheb, z, 16, min_cheb_radius).value
            for mate in (-z, z.conjugate()):
                assert abs(v - green_nonauto(min_cheb, mate, 16, min_cheb_radius).value) < 1e-10

    def test_error_bound_honest_for_classical(self, classical_cheb, classical_cheb_radius, rng):
        from nonauto.klimek import tail_constant
        tail = tail_constant(classical_cheb, UNIT_DISK, 14)
        for _ in range(200):
            z = complex((1.5 + 1.5 * rng.random()) * cmath.exp(2j * math.pi * rng.random()))
            gv = green_nonauto(classical_cheb, z, 12, classical_cheb_radius, tail_bound=tail)
            assert gv.truncation_included
            assert abs(gv.value - SEG.green(z)) <= gv.error_bound

    def test_error_bound_self_consistent_for_minimal(self, min_cheb, min_cheb_radius, rng):
        from nonauto.klimek import tail_constant
        tail = tail_constant(min_cheb, UNIT_DISK, 20)
        for _ in range(50):
            z = complex((1.5 + 1.5 * rng.random()) * cmath.exp(2j * math.pi * rng.random()))
            a = green_nonauto(min_cheb, z, 12, min_cheb_radius, tail_bound=tail)
            b = green_nonauto(min_cheb, z, 24, min_cheb_radius, tail_bound=tail)
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_deep_orbit_runs_every_step(self):
        # P_60 = (60!)**(2**60) z**(2**60) for n_exp_z2, so the step-60 potential
        # at 0.1 is log 0.1 + log 60!; a capped exponent stopped at step 34 (86.28)
        seq = builtin("n_exp_z2")
        gv = green_nonauto(seq, 0.1, 60, escape_radius_search(seq, 60))
        want = math.log(0.1) + math.lgamma(61)
        assert gv.ledger.n == 60
        assert abs(gv.value - want) <= gv.error_bound
        assert abs(gv.value - 186.3256) < 1e-4

    def test_escaped_at_recorded(self, min_cheb, min_cheb_radius):
        gv = green_nonauto(min_cheb, 3.0, 12, min_cheb_radius)
        assert gv.escaped_at == 1 if 3.0 > min_cheb_radius else gv.escaped_at >= 1

    def test_tiny_complex_start_keeps_its_imaginary_part(self, classical_cheb):
        # Run fully scaled, the first step T_2(z) = 2z^2 - 1 dropped 2z^2
        # whole (imaginary part included), the orbit stayed on [-1, 1] and
        # escaped at 81; doubles keep the imaginary part and agree with
        # orbit_bounded and with the closed form T_{n!}(z) = cosh(n! acosh z).
        mpmath = pytest.importorskip("mpmath")
        z = -1.2682671773462695e-28 - 2.64027926635129e-29j
        gv = green_nonauto(classical_cheb, z, 120, 4.0)
        assert gv.escaped_at == 28
        assert orbit_bounded(classical_cheb, z, 120, 4.0) == (False, 28)
        with mpmath.workdps(60):
            t = mpmath.acosh(mpmath.mpc(z))
            m = 1
            for k in range(1, 29):
                m *= k
                assert (abs(mpmath.cosh(m * t)) > 4) == (k == 28)

    def test_escape_step_agrees_with_orbit_bounded_at_tiny_starts(self, classical_cheb, rng):
        for _ in range(20):
            z = complex(*rng.uniform(-1, 1, 2)) * 10.0 ** rng.uniform(-40, -10)
            _, escaped = orbit_bounded(classical_cheb, z, 120, 4.0)
            assert escaped is not None
            assert green_nonauto(classical_cheb, z, 120, 4.0).escaped_at == escaped

    def test_subnormal_step_runs_scaled(self):
        # z**2 at z = 3.3e-158 is subnormal in doubles (about 28 bits); the
        # step must rerun scaled, or 2**2100 * w**2 carries a 3e-10 error
        mpmath = pytest.importorskip("mpmath")
        seq = custom_sequence([monomial(2), monomial(2, 1.0, 2100)], repeat="none")
        z = 3.3e-158
        gv = green_nonauto(seq, z, 2, 4.0)
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.mpf(2) ** 2100 * mpmath.mpf(z) ** 4) / 4)
        assert abs(gv.value - want) <= gv.error_bound
        assert abs(green_field(seq, np.array([z]), 2, 4.0)[0][0] - want) <= gv.error_bound

    def test_scaled_step_of_a_subnormal_horner_value_runs_scaled(self):
        # (1.1e-160)**2 is subnormal before 2**600 lifts it to 5e-140; taken
        # in doubles that step is off by 3e-5 relative
        mpmath = pytest.importorskip("mpmath")
        seq = custom_sequence([monomial(2, 1.0, 600), monomial(2, 1.0, 1200)], repeat="none")
        z = 1.1e-160
        gv = green_nonauto(seq, z, 2, 4.0)
        with mpmath.workdps(50):
            w = mpmath.mpf(2) ** 1200 * (mpmath.mpf(2) ** 600 * mpmath.mpf(z) ** 2) ** 2
            want = float(mpmath.log(w) / 4)
        assert gv.escaped_at == 2
        assert abs(gv.value - want) <= gv.error_bound
        values, steps, _ = green_field(seq, np.array([z]), 2, 4.0)
        assert steps[0] == 2 and abs(values[0] - want) <= gv.error_bound

    def test_disk_centre_past_half_the_double_range(self):
        # 2|centre| passes the double range, so robin_offset must work in logs
        mpmath = pytest.importorskip("mpmath")
        disk, z = Disk(1.7e308 + 0j, 1.0), 1.5e154
        gv = green_nonauto(builtin("power"), z, 2, 2.0, disk)
        with mpmath.workdps(60):
            want = float(mpmath.log(abs(mpmath.mpf(z) ** 4 - mpmath.mpf(1.7e308))) / 4)
        assert abs(gv.value - want) <= gv.error_bound < 1e-10
        assert gv.value == green_field(builtin("power"), np.array([z]), 2, 2.0, disk)[0][0]

    def test_modulus_beyond_double_range_runs_scaled(self):
        # z**2 = 1.386e308 * (1 + 1j): both parts finite, |z**2| = 1.96e308 is not
        seq = builtin("power", degrees=2)
        z = 1.4e154 * cmath.exp(1j * math.pi / 8)
        gv = green_nonauto(seq, z, 3, 2.0)
        assert abs(gv.value - math.log(abs(z))) <= gv.error_bound
        assert orbit_bounded(seq, z, 3, 2.0) == (False, 1)

    @pytest.mark.parametrize("first, z", [(polynomial(1.5e308 * (1 + 1j), 1), 1.0),
                                          (polynomial(0, 0, 1.5e308 * (1 + 1j)), 2.0),
                                          (polynomial(1e308, 1e308), 1.0),
                                          (polynomial(1e308, 1e308), 0.9)])
    def test_coefficient_with_modulus_past_double_range(self, first, z):
        # 1.5e308 (1 + 1j) has finite parts and modulus 2.1e308, which abs()
        # cannot hold; 1e308 + 1e308 z overflows a double Horner at |z| <= 1
        mpmath = pytest.importorskip("mpmath")
        seq = custom_sequence([first, monomial(2)], repeat="none")
        with mpmath.workdps(40):
            w = sum(mpmath.mpc(a) * mpmath.mpc(z) ** j for j, a in enumerate(first.coeffs))
            want = float(mpmath.log(abs(w)) / first.degree)
        gv = green_nonauto(seq, z, 2, 2.0)
        assert gv.escaped_at == 1 and orbit_bounded(seq, z, 2, 2.0) == (False, 1)
        assert abs(gv.value - want) <= gv.error_bound < 1e-11
        values, steps, _ = green_field(seq, np.array([z]), 2, 2.0)
        assert steps[0] == 1 and abs(values[0] - want) <= gv.error_bound
        assert escape_steps(seq, np.array([z]), 2, 2.0)[0] == 1

    def test_general_target_matches_pullback_formula(self, min_cheb, min_cheb_radius):
        gv_seg = green_nonauto(min_cheb, 2.5, 6, min_cheb_radius, target=SEG)
        # same orbit evaluated through the segment potential directly
        w = 2.5
        for k in range(1, 7):
            w = evaluate(min_cheb.get(k), w)
        want = SEG.green(w) / math.factorial(6)
        assert abs(gv_seg.value - want) <= 1e-15 + 1e-9 * want

    def test_segment_target_handles_huge_arguments(self):
        assert abs(SEG.green(1e280) - (math.log(1e280) + math.log(2))) < 1e-9

    @pytest.mark.xfail(strict=True, reason=SEGMENT_DEFECT)
    def test_segment_picks_the_large_root_past_one_over_eps(self):
        # z + sqrt(z**2 - 1) cancels here, and its rounding (about 1e35) passes
        # the |w| >= 1 test: 81.21 instead of log|2z| = 118.21
        z = -7.42922214e+50 + 8.05702447e+50j
        for K, shift in ((SEG, 0.0), (Ellipse(2.0), math.log(2.0))):
            assert abs(K.green(z) - (math.log(abs(2 * z)) - shift)) <= 1e-14 * 118.3

    def test_value_invariants(self):
        with pytest.raises(ValueError):
            GreenValue(-1.0, 0.0, None, None, False)  # type: ignore[arg-type]

    def test_validation(self, min_cheb):
        with pytest.raises(ValueError):
            green_nonauto(min_cheb, 1.0, 0, 2.0)
        with pytest.raises(ValueError):
            green_nonauto(min_cheb, 1.0, 5, 0.0)

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0, math.inf])
    def test_every_driver_rejects_a_bad_escape_radius(self, min_cheb, radius):
        # nan passed an "escape_radius <= 0" test: escape_steps then kept 5 as
        # bounded while green_field had it escape at step 1; inf kept every point
        short = custom_sequence([monomial(2)], repeat="none")
        for run in (lambda: orbit_bounded(min_cheb, 5.0, 3, radius),
                    lambda: green_nonauto(min_cheb, 5.0, 3, radius),
                    lambda: escape_steps(min_cheb, np.array([5.0]), 3, radius),
                    lambda: green_field(min_cheb, np.array([5.0]), 3, radius),
                    # p_2 does not exist: the radius is checked before any step is built
                    lambda: escape_steps(short, np.array([0.5]), 3, radius),
                    lambda: green_field(short, np.array([0.5]), 3, radius)):
            with pytest.raises(ValueError, match="escape radius"):
                run()

    @pytest.mark.parametrize("tail", [math.nan, math.inf, -1.0])
    def test_rejects_a_bad_tail_bound(self, min_cheb, tail):
        with pytest.raises(ValueError, match="tail bound"):
            green_nonauto(min_cheb, 1.0, 5, 2.0, tail_bound=tail)

    @pytest.mark.parametrize("z, want", [(3.0, math.log(3.0)), (0.5, 0.0), (1e-300j, 0.0)])
    def test_exponents_past_float_range(self, z, want):
        # z**(2**1100): the exponent of w_1100 (about 2**1100) and D = 2**1100
        # both overflow a float; their quotient does not
        for target in (UNIT_DISK, Disk(3 + 0j, 1.0)):
            gv = green_nonauto(builtin("power"), z, 1100, 2.0, target)
            assert abs(gv.value - want) <= gv.error_bound < 1e-13
            assert gv.escaped_at == (1 if want else None)


class TestGreenField:
    def test_matches_scalar(self, min_cheb, min_cheb_radius, rng):
        pts = rng.uniform(-2, 2, 25) + 1j * rng.uniform(-1.5, 1.5, 25)
        values, steps, _ = green_field(min_cheb, pts, 8, min_cheb_radius)
        for z, v in zip(pts, values):
            gv = green_nonauto(min_cheb, complex(z), 8, min_cheb_radius)
            assert abs(v - gv.value) <= 1e-11 * max(1.0, gv.value)

    def test_final_w_below_the_band_is_the_double_it_flushes_to(self):
        # z**2 at 1e-155 is 1e-310: off the band (below 2**-900), a subnormal double
        values, steps, w = green_field(builtin("power"), np.array([1e-155, 1e-170j]), 1, 2.0)
        assert w.tolist() == [1e-155 * 1e-155, 0j] and w[0] != 0
        assert values.tolist() == [0.0, 0.0] and steps.tolist() == [0, 0]

    def test_deep_field_finite(self, min_cheb, min_cheb_radius):
        pts = np.array([2.0 + 0.1j, 5.0, -3.0 + 2.0j])
        values, steps, w = green_field(min_cheb, pts, 100, min_cheb_radius)
        assert np.all(np.isfinite(values))
        assert np.all(steps > 0)
        gseg_like = np.log(np.abs(pts))  # same growth order
        assert np.all(values > 0.5 * gseg_like)


class TestGreenFieldTargets:
    """(h) log mode finishes with log|w_N| + robin, so it waits until the
    target's own asymptotics are exact to rounding (Disk(0, r) always is)."""

    TARGETS = [SEG, Ellipse(2.0), Disk(0.5 + 0j, 1.0), Preimage(SEG, polynomial(0.3j, 0, 1))]

    def test_power_at_three(self):
        # entering log mode from |w| = R gave 1.4451858789480825 (Segment), 1.0986 (disk)
        for target, want in ((SEG, 1.4436354751788103), (Disk(0.5 + 0j, 1.0), 1.0700330817481354)):
            gv = green_nonauto(builtin("power"), 3 + 0j, 1, 2.0, target)
            assert abs(gv.value - want) <= 1e-15
            value = green_field(builtin("power"), [3 + 0j], 1, 2.0, target)[0][0]
            assert abs(value - want) <= gv.error_bound

    @pytest.mark.parametrize("target,shift", [(SEG, 0.0), (Ellipse(2.0), math.log(2.0))],
                             ids=repr)
    def test_lanes_past_one_over_eps_match_mpmath(self, target, shift):
        # lanes that stay below the log-mode gate (2**26.2 for these targets)
        # until the last step end at 1e24 < |w_6| < 4e93 with Re w_6 < 0, where
        # z + sqrt(z**2 - 1) cancels; finishing them with target.green got 35
        # of these 200 wrong by up to 0.105, so they take log|w_6| + robin
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        mods = 10.0 ** rng.uniform(2, 7.8, 200)
        theta = rng.uniform(0.5 * math.pi, 1.5 * math.pi, 200)
        pts = mods ** (1 / 32) * np.exp(1j * theta / 384)
        values = green_field(builtin("power", [2, 2, 2, 2, 2, 12]), pts, 6, 2.0, target)[0]
        with mpmath.workdps(60):
            for z, v in zip(pts, values):
                w = mpmath.mpc(complex(z)) ** 384
                s = mpmath.sqrt(w * w - 1)
                assert w.real < 0 and 1e24 < abs(w) < 4e93
                want = (mpmath.log(max(abs(w + s), abs(w - s))) - shift) / 384
                assert abs(v - float(want)) <= 64 * EPS, (z, v, want)

    @pytest.mark.parametrize("target", TARGETS, ids=repr)
    @pytest.mark.parametrize("kind,n", [("power", 1), ("power", 6), ("minimal_chebyshev", 4),
                                        ("n_exp_z2", 12)])
    def test_matches_green_nonauto(self, target, kind, n):
        seq = builtin(kind)
        radius = escape_radius_search(seq, max(2, n))
        pts = np.array([3.0, -3 + 1j, 10j, 1e3 - 2e3j, 1.2 * radius, 1e10, -1e20j, 0.3])
        values, _, _ = green_field(seq, pts, n, radius, target)
        for z, v in zip(pts, values):
            gv = green_nonauto(seq, complex(z), n, radius, target)
            assert abs(v - gv.value) <= gv.error_bound, (z, v, gv)


class TestChunking:
    """The vector engines run points in chunks of _CHUNK; nothing may show it."""

    N_STEPS = 40

    @pytest.fixture(scope="class")
    def ne(self):
        seq = builtin("n_exp_z2")
        return seq, escape_radius_search(seq, self.N_STEPS)

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(7)
        n = 2 * _CHUNK + 7
        scale = 10.0 ** rng.uniform(-45, 1, n)
        pts = scale * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        # lanes leaving the band (1e-5 escapes at step 9, 1e-40 at 35), one
        # escaping at step 1 and one never escaping, on both sides of each
        # chunk boundary and in the short last chunk
        special = [1e-5, 1e-40, 50.0, 0.0]
        for b in (_CHUNK, 2 * _CHUNK, n - 3):
            pts[b - 4:b] = special
            pts[b:b + 3] = special[::-1][:3]
        return pts.reshape(1, n)

    @staticmethod
    def probe_indices(n):
        near = [i for b in (_CHUNK, 2 * _CHUNK) for i in range(b - 6, b + 6)]
        return sorted(set(near) | set(range(n - 10, n)) | set(range(0, n, 2311)))

    def test_escape_steps_independent_of_chunking(self, ne, points):
        seq, r = ne
        steps = escape_steps(seq, points, self.N_STEPS, r)
        assert steps.shape == points.shape and steps.dtype == np.int32
        flat, whole = points.ravel(), steps.ravel()
        assert {9, 35, 1, 0} <= set(whole[[_CHUNK - 4, _CHUNK - 3, _CHUNK - 2, _CHUNK - 1]])
        for i in self.probe_indices(flat.size):
            assert escape_steps(seq, flat[i:i + 1], self.N_STEPS, r)[0] == whole[i], i
        # cut at other places, every point meets another chunking
        pieces = [escape_steps(seq, flat[a:b], self.N_STEPS, r)
                  for a, b in ((0, 12345), (12345, 50001), (50001, flat.size))]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()

    def test_green_field_independent_of_chunking(self, ne, points):
        seq, r = ne
        out = green_field(seq, points, self.N_STEPS, r)
        assert all(a.shape == points.shape for a in out)
        flat = points.ravel()
        values, steps, final_w = (a.ravel() for a in out)
        assert np.isnan(final_w).any() and not np.isnan(final_w).all()
        for i in self.probe_indices(flat.size):
            one = green_field(seq, flat[i:i + 1], self.N_STEPS, r)
            for got, whole in zip(one, (values, steps, final_w)):
                assert got.tobytes() == whole[i:i + 1].tobytes(), i
        pieces = [green_field(seq, flat[a:b], self.N_STEPS, r)
                  for a, b in ((0, 12345), (12345, 50001), (50001, flat.size))]
        for j, whole in enumerate((values, steps, final_w)):
            assert np.concatenate([p[j] for p in pieces]).tobytes() == whole.tobytes()

    def test_empty_input_keeps_its_shape(self, ne):
        seq, r = ne
        pts = np.empty((0, 3), dtype=np.complex128)
        steps = escape_steps(seq, pts, 5, r)
        assert steps.shape == (0, 3) and steps.dtype == np.int32
        for a in green_field(seq, pts, 5, r):
            assert a.shape == (0, 3)

    def test_complex_coefficients_last_chunk_of_one_point(self):
        # numpy rounds a complex product in a one-point chunk (here the last of
        # _CHUNK + 1) differently from a wider one: escape steps stay equal, and
        # values move by a few units of rounding, inside green_nonauto's bound
        seq = custom_sequence([polynomial(-0.12 + 0.35j, 0, 1),
                               polynomial(0.05 - 0.2j, 0.15 + 0.1j, 0, 1),
                               polynomial(0.1 + 0.1j, 0, -0.2 + 0.05j, 0, 1)])
        n = 30
        r = escape_radius_search(seq, n)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.2, 1.2, _CHUNK + 1) + 1j * rng.uniform(-1.2, 1.2, _CHUNK + 1)
        first = escape_steps(seq, pts, n, r)
        late = np.argsort(np.where(first == 0, -1, first))[-60:]  # the longest escaping orbits
        pts[-1] = pts[late[-1]]
        steps = escape_steps(seq, pts, n, r)
        values, _, _ = green_field(seq, pts, n, r)
        probe = np.r_[late, np.flatnonzero(first == 0)[:10], np.arange(0, _CHUNK, 4099)]
        for i, j in [(i, i) for i in probe] + [(_CHUNK, late[-1])]:
            one_steps = escape_steps(seq, pts[i:i + 1], n, r)[0]
            one_value = green_field(seq, pts[i:i + 1], n, r)[0][0]
            assert one_steps == steps[i] == steps[j], i
            gap = abs(one_value - values[j])
            assert gap <= 4 * EPS * (1 + values[j]), (i, gap)
            assert gap <= green_nonauto(seq, complex(pts[i]), n, r).error_bound, i
        assert abs(values[_CHUNK] - values[late[-1]]) <= 4 * EPS * (1 + values[_CHUNK])

    @pytest.mark.parametrize("engine, limit_mb", [(escape_steps, 8.0), (green_field, 24.0)])
    def test_traced_peak_memory(self, engine, limit_mb, min_cheb, min_cheb_radius):
        # a full-size figure grid: 540k points, 8.6 MB per complex array;
        # green_field's three outputs alone take about 15 MB
        xs = np.linspace(-1.6, 1.6, 900)
        ys = np.linspace(1.0, -1.0, 600)
        grid = xs[None, :] + 1j * ys[:, None]
        tracemalloc.start()
        try:
            engine(min_cheb, grid, 20, min_cheb_radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20, f"traced peak {peak / 2**20:.1f} MB"
