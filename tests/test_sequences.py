import json
import math

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from nonauto.poly import (LN2, cauchy_root_bound, chebyshev_minimal, coeffs_close,
                          evaluate, polynomial)
from nonauto.sequences import (CheckReport, SequenceError, Witness, _Circle, builtin,
                               check_finite_condition, check_guided, check_P2,
                               circle_points, custom_sequence, escape_radius_search,
                               load_sequence_file, log_abs_on, values_on)


class TestBuiltins:
    def test_minimal_chebyshev(self):
        seq = builtin("minimal_chebyshev")
        assert coeffs_close(seq.get(3), chebyshev_minimal(3))
        assert seq.get(3).coeffs == (0j, -0.75 + 0j, 0j, 1 + 0j)

    def test_power_constant(self):
        seq = builtin("power", degrees=2)
        for n in (1, 2, 7):
            assert seq.get(n).coeffs == (0j, 0j, 1 + 0j)

    def test_n_pow_n(self):
        p = builtin("n_pow_n").get(2)
        assert p.degree == 2
        assert evaluate(p, 1.0) == 4.0

    def test_two_pow_neg_n_sq(self):
        p = builtin("two_pow_neg_n_sq").get(3)
        assert p.scale2 == -9
        assert abs(evaluate(p, 2.0) - 2**3 * 2.0**-9) < 1e-18

    def test_n_exp_z2_small(self):
        assert evaluate(builtin("n_exp_z2").get(3), 1.0) == 6561.0

    @pytest.mark.parametrize("n", [10, 20, 45])
    def test_n_exp_z2_scaled_coefficient(self, n):
        p = builtin("n_exp_z2").get(n)
        lead = p.coeffs[-1]
        got = math.log(abs(lead)) + p.scale2 * LN2
        want = 2.0**n * math.log(n)
        assert abs(got - want) <= 1e-12 * want

    def test_heads(self):
        assert builtin("z2_minus_1_then_n_exp_z2").get(1).coeffs == (-1 + 0j, 0j, 1 + 0j)
        z2m2 = builtin("z2_minus_2_then_powers")
        assert z2m2.get(1).coeffs == (-2 + 0j, 0j, 1 + 0j)
        assert z2m2.get(5).coeffs == (0j,) * 5 + (1 + 0j,)

    def test_classical_with_degree_list_cycles(self):
        seq = builtin("classical_chebyshev", degrees=[2, 3])
        assert seq.get(1).degree == 2
        assert seq.get(2).degree == 3
        assert seq.get(3).degree == 2

    def test_unknown_kind(self):
        with pytest.raises(SequenceError):
            builtin("mystery")

    def test_generator_cached_and_pure(self):
        seq = builtin("minimal_chebyshev")
        assert seq.get(5) is seq.get(5)


class TestCustomSequences:
    def test_degree_one_tail_rejected(self):
        with pytest.raises(SequenceError):
            custom_sequence([polynomial(0, 0, 1), polynomial(0, 1)], repeat="none")

    def test_cycled_affine_head_rejected(self):
        with pytest.raises(SequenceError):
            custom_sequence([polynomial(0, 1), polynomial(0, 0, 1)], repeat="cycle")

    def test_repeat_none_exhausts(self):
        seq = custom_sequence([polynomial(0, 0, 1)], repeat="none")
        seq.get(1)
        with pytest.raises(SequenceError):
            seq.get(2)

    def test_cycle(self):
        seq = custom_sequence([polynomial(-1, 0, 1), polynomial(0, 0, 0, 1)])
        assert seq.get(3).coeffs == seq.get(1).coeffs

    def test_json_round_trip(self, tmp_path):
        doc = {"polynomials": [[[ -1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]], "repeat": "cycle"}
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(doc))
        seq = load_sequence_file(path)
        assert seq.get(1).coeffs == (-1 + 0j, 0j, 1 + 0j)
        assert seq.get(4).coeffs == seq.get(1).coeffs

    def test_json_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SequenceError):
            load_sequence_file(path)


class TestMalformedJson:
    @pytest.mark.parametrize("doc", [
        {"polynomials": [[1, 2]]},
        {"polynomials": 5},
        [1, 2],
        {"polynomials": [[["a", 1], [0, 0], [1, 0]]]},
        {"polynomials": [[[1, 2, 3], [1, 0], [1, 0]]]},
        {"polynomials": [[[True, 0], [0, 0], [1, 0]]]},
        {"polynomials": [[]]},
        {"polynomials": [[[0, 0], [0, 0], [1, 0]]], "repeat": 3},
        {"polynomials": [[[10**400, 0], [0, 0], [1, 0]]]},
    ])
    def test_rejected_with_sequence_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SequenceError):
            load_sequence_file(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"polynomials": [')
        with pytest.raises(SequenceError):
            load_sequence_file(path)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(["polynomials", "repeat", "x"]), inner, max_size=3),
        max_leaves=12))
    def test_fuzz_loads_or_raises_sequence_error(self, tmp_path_factory, polys):
        path = tmp_path_factory.mktemp("fuzz") / "seq.json"
        path.write_text(json.dumps({"polynomials": polys}))
        try:
            seq = load_sequence_file(path)
        except SequenceError:
            return
        assert seq.get(1).degree >= 1


class TestDegreeLedger:
    def test_exact_product_while_it_fits(self):
        seq = builtin("minimal_chebyshev")
        for n in (1, 5, 20):
            led = seq.ledger(n)
            assert led.d_exact == math.factorial(n)
            assert abs(led.log_d - math.log(math.factorial(n))) <= 1e-12 * max(1, n)
        assert seq.ledger(25).d_exact is None

    def test_log_strictly_increasing_from_second_step(self):
        seq = builtin("minimal_chebyshev")
        logs = [seq.ledger(n).log_d for n in range(1, 10)]
        assert all(b > a for a, b in zip(logs[1:], logs[2:]))
        assert logs[0] == 0.0

    @pytest.mark.parametrize("kind, degrees, n", [("power", [2, 1], 2),
                                                  ("classical_chebyshev", 0, 1)])
    def test_ledger_refuses_the_steps_get_refuses(self, kind, degrees, n):
        # degrees are read from the polynomials, so an affine p_2 or a
        # constant p_1 fails here as it fails in get
        seq = builtin(kind, degrees=degrees)
        for call in (seq.get, seq.ledger):
            with pytest.raises(SequenceError):
                call(n)


class TestCheckReport:
    def test_witness_only_on_failure(self):
        with pytest.raises(ValueError):
            CheckReport(True, (1, 2), 0.0, Witness(1, None, 0.0))
        with pytest.raises(ValueError):
            CheckReport(False, (1, 2), 0.0, None)


class TestGuided:
    def test_power_maps_pass(self):
        rep = check_guided(builtin("power", degrees=2), 2.0, 20)
        assert rep.passed and rep.margin >= 1.0 - 1e-12

    def test_minimal_chebyshev_passes_at_two(self, min_cheb):
        rep = check_guided(min_cheb, 2.0, 100)
        assert rep.passed
        assert rep.margin > 0

    def test_two_pow_fails_with_witness(self):
        rep = check_guided(builtin("two_pow_neg_n_sq"), 2.0, 40)
        assert not rep.passed
        assert rep.witness.n == 2
        assert rep.witness.value < 2.0

    def test_monotone_in_radius(self, min_cheb):
        radii = [2.0, 2.5, 3.0, 4.0, 8.0]
        seen_pass = False
        for r in radii:
            ok = check_guided(min_cheb, r, 40).passed
            if seen_pass:
                assert ok
            seen_pass = seen_pass or ok
        assert seen_pass

    def test_validation(self):
        with pytest.raises(ValueError):
            check_guided(builtin("power", degrees=2), 0.5, 10)
        with pytest.raises(ValueError):
            check_guided(builtin("power", degrees=2), 2.0, 1)


class TestEscapeRadius:
    def test_cubic_power_below_e(self):
        r = escape_radius_search(builtin("power", degrees=3), 30)
        assert math.exp(0.5) <= r <= math.e

    def test_minimal_chebyshev_below_four(self, min_cheb, min_cheb_radius):
        assert min_cheb_radius <= 4.0

    def test_head_start_consistent(self):
        r = escape_radius_search(builtin("z2_minus_2_then_powers"), 40)
        assert r >= 2.0

    def test_sampling_robustness(self, min_cheb, min_cheb_radius):
        # the search lands on the same radius at 4x the sampling density,
        # and the radius keeps verifying as a guided-disk certificate
        assert escape_radius_search(min_cheb, 40, m=2048) == pytest.approx(
            escape_radius_search(min_cheb, 40), abs=0.0)
        assert check_guided(min_cheb, min_cheb_radius, 40, m=4096).passed

    def test_unreachable_reports(self):
        with pytest.raises(SequenceError):
            escape_radius_search(builtin("two_pow_neg_n_sq"), 10, ceiling=4.0)


def _two_pass_circle(p, radius, m):
    """(min log|p| on max(m, 8d) samples, its point, zeros-contained thunk),
    sampling the winding count separately on max(m, 16d, 64) points."""
    pts = circle_points(radius, max(m, 8 * p.degree))
    logs = log_abs_on(p, pts)
    i = int(np.argmin(logs))

    def zeros_contained():
        if cauchy_root_bound(p) <= radius:
            return True
        vals = values_on(p, circle_points(radius, max(m, 16 * p.degree, 64)))
        if not np.all(np.isfinite(vals)):
            raise SequenceError("circle values overflow doubles; cannot count zeros")
        inc = np.diff(np.append(np.angle(vals), np.angle(vals[0])))
        inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
        return int(round(float(inc.sum()) / (2.0 * np.pi))) == p.degree

    return float(logs[i]), complex(pts[i]), zeros_contained


def _two_pass_check_guided(seq, R, n_max, m):
    margin = math.inf
    for n in range(2, n_max + 1):
        p = seq.get(n)
        min_log, point, zeros_contained = _two_pass_circle(p, R, m)
        try:
            min_ratio = math.exp(min_log - math.log(R))
        except OverflowError:
            min_ratio = math.inf
        if min_ratio < 1.0:
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, point, min_ratio * R), note="circle minimum below R")
        if not zeros_contained():
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, None, float(cauchy_root_bound(p))),
                               note="zeros not contained in the disk")
        margin = min(margin, min_ratio - 1.0)
    return CheckReport(True, (2, n_max), margin)


def _two_pass_radius(seq, n_max, m):
    radius = 17.0 / 16.0
    while radius <= 2.0**20:
        for n in range(2, n_max + 1):
            min_log, _, zeros_contained = _two_pass_circle(seq.get(n), radius, m)
            if min_log < 1.0 + math.log(radius) or not zeros_contained():
                break
        else:
            return radius
        radius *= 2.0 ** (1.0 / 16.0)
    return None


def _complex_cycle():
    return custom_sequence([polynomial(-0.12 + 0.35j, 0, 1),
                            polynomial(0.05 - 0.2j, 0.15 + 0.1j, 0, 1),
                            polynomial(0.1 + 0.1j, 0, -0.2 + 0.05j, 0, 1)])


class TestOnePassCircle:
    """The one-sampling circle certificate reproduces the two-sampling one exactly."""

    @pytest.mark.parametrize("make, n_max, m", [
        (lambda: builtin("minimal_chebyshev"), 150, 512),
        (lambda: builtin("minimal_chebyshev"), 40, 64),
        (lambda: builtin("classical_chebyshev"), 12, 512),
        (lambda: builtin("classical_chebyshev"), 12, 64),
        (lambda: builtin("n_exp_z2"), 60, 512),
        (_complex_cycle, 60, 512),
        (_complex_cycle, 30, 64),
    ])
    def test_same_radius(self, make, n_max, m):
        seq = make()
        assert escape_radius_search(seq, n_max, m=m) == _two_pass_radius(seq, n_max, m)

    @pytest.mark.parametrize("make", [
        lambda: builtin("minimal_chebyshev"), lambda: builtin("classical_chebyshev"),
        _complex_cycle])
    @pytest.mark.parametrize("radius, m", [(1.3, 64), (2.0, 64), (3.0, 512), (3.0, 1024)])
    def test_same_circle_per_step(self, make, radius, m):
        seq = make()
        for n in (2, 3, 7, 8, 9, 16, 40, 64, 65, 70, 128, 150):
            p = seq.get(n)
            circle = _Circle(p, radius, m)
            min_log, point, zeros_contained = _two_pass_circle(p, radius, m)
            assert (circle.min_log, circle.min_point) == (min_log, point), n
            assert circle.zeros_contained() == zeros_contained(), n

    @pytest.mark.parametrize("make, n_max", [
        (lambda: builtin("minimal_chebyshev"), 150),
        (lambda: builtin("classical_chebyshev"), 12),
        (lambda: builtin("n_exp_z2"), 60),
        (_complex_cycle, 60),
        (lambda: builtin("two_pow_neg_n_sq"), 20),
    ])
    @pytest.mark.parametrize("R", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [64, 1024])
    def test_same_report(self, make, n_max, R, m):
        seq = make()
        got = check_guided(seq, R, n_max, m=m)
        want = _two_pass_check_guided(seq, R, n_max, m)
        assert got == want
        assert repr(got.margin) == repr(want.margin)


    def test_minimum_beyond_double_range_is_not_a_crash(self):
        # min |p_n| on |z| = 2 passes 1e308 near n = 10 for n_exp_z2
        rep = check_guided(builtin("n_exp_z2"), 2.0, 60)
        assert rep.passed and math.isfinite(rep.margin)


class TestP2:
    def test_minimal_chebyshev_fails(self, min_cheb):
        rep = check_P2(min_cheb, 10.0, 60)
        assert not rep.passed
        assert rep.witness.value >= 41 / 4

    def test_power_maps_pass_with_zero_bound(self):
        rep = check_P2(builtin("power", degrees=4), 0.0, 50)
        assert rep.passed and rep.margin == 0.0

    def test_single_term_passes(self):
        assert check_P2(builtin("n_pow_n"), 1.0, 40).passed

    def test_coefficients_with_modulus_past_double_range(self):
        big = 1.5e308 * (1 + 1j)
        seq = custom_sequence([polynomial(0, 0, big), polynomial(big, 0, 0.5 * big)])
        rep = check_P2(seq, 1.5, 2)
        assert not rep.passed and rep.witness.n == 2 and rep.witness.value == 2.0


class TestFiniteCondition:
    def test_head_then_powers_bounded(self):
        rep = check_finite_condition(builtin("z2_minus_2_then_powers"), 0j, 2.0, 100)
        assert rep.passed
        assert rep.sup <= math.log(6.0)

    def test_n_pow_n_flagged(self):
        rep = check_finite_condition(builtin("n_pow_n"), 0j, 2.0, 100)
        assert not rep.passed
        assert "decade" in rep.note

    def test_power_sup_is_log_radius(self):
        rep = check_finite_condition(builtin("power", degrees=2), 0j, 2.0, 50)
        assert rep.passed
        # sampled sup approaches log 2 from below at grid resolution
        assert rep.sup <= math.log(2.0) + 1e-12
        assert abs(rep.sup - math.log(2.0)) < 0.01
