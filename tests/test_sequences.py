import json
import math
from collections import Counter

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from nonauto import poly, sequences
from nonauto.poly import (LN2, Polynomial, chebyshev_minimal, chebyshev_t, evaluate, monomial,
                          polynomial)
from nonauto.sequences import (_CIRCLE_SAMPLES, _FLOOR_MARGIN, CheckReport, SequenceError, Witness,
                               _chebyshev_floor, _circle, builtin, check_finite_condition,
                               check_guided, check_P2,
                               circle_points, custom_sequence, escape_radius_search,
                               load_sequence_file, log_abs_on, values_on)


class TestBuiltins:
    def test_minimal_chebyshev(self):
        seq = builtin("minimal_chebyshev")
        assert repr(seq) == "PolySequence(minimal_chebyshev)"
        assert seq.get(3) == chebyshev_minimal(3)
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

    @pytest.mark.parametrize("kind", sorted(sequences._FIXED_KINDS))
    @pytest.mark.parametrize("degrees", [7, [2, 3]])
    def test_fixed_kinds_refuse_degrees(self, kind, degrees):
        # the degrees did nothing for these kinds, yet were accepted
        with pytest.raises(SequenceError, match="takes no degrees"):
            builtin(kind, degrees=degrees)

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

    def test_period(self):
        polys = [polynomial(-1, 0, 1), polynomial(0, 0, 0, 1)]
        assert custom_sequence(polys).period == 2
        assert custom_sequence(polys, repeat="none").period is None
        assert builtin("power", 2).period is None and builtin("minimal_chebyshev").period is None

    def test_length(self):
        # the last n a finite list defines; None for cycled and builtin sequences
        polys = [polynomial(-1, 0, 1), polynomial(0, 0, 0, 1)]
        assert custom_sequence(polys, repeat="none").length == 2
        assert custom_sequence(polys).length is None
        assert builtin("power", 2).length is None and builtin("minimal_chebyshev").length is None

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

    def test_zeros_outside_the_disk_fail(self):
        # z**3 - 3 z**2 stays above R = 2 on the circle, but its zero 3 lies outside
        seq = custom_sequence([monomial(2), polynomial(0, 0, -3, 1)], repeat="none")
        rep = check_guided(seq, 2.0, 2)
        assert not rep.passed and rep.note == "zeros not contained in the disk"
        assert rep.witness == Witness(2, None, 4.0)

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
        # the search lands on the radius that sampling every map at twice its density
        # gives, on the same maps as a custom sequence; and the radius keeps verifying
        # as a guided-disk certificate
        custom = custom_sequence([min_cheb.get(n) for n in range(1, 41)], repeat="none")
        assert escape_radius_search(custom, 40) == _two_pass_radius(custom, 40, 2 * _CIRCLE_SAMPLES)
        assert escape_radius_search(custom, 40) == escape_radius_search(min_cheb, 40)
        assert check_guided(min_cheb, min_cheb_radius, 40).passed

    def test_unreachable_reports(self):
        with pytest.raises(SequenceError, match=r"no escape radius below 1\.04858e\+06; p_19"):
            escape_radius_search(builtin("two_pow_neg_n_sq"), 20)


class TestPeriodicCheckers:
    """A cycled sequence certifies n <= P + 1 only, with the report and radius of
    its unrolled copy, which has no period and certifies every n."""

    CYCLE = [polynomial(-0.12 + 0.35j, 0, 1),
             polynomial(0.05 - 0.2j, 0.15 + 0.1j, 0, 1),
             polynomial(0.1 + 0.1j, 0, -0.2 + 0.05j, 0, 1)]

    @staticmethod
    def unrolled(seq, n):
        return custom_sequence([seq.get(k) for k in range(1, n + 1)], repeat="none")

    def test_last_distinct(self):
        assert custom_sequence(self.CYCLE).last_distinct(1000) == 4
        assert custom_sequence(self.CYCLE).last_distinct(3) == 3
        assert custom_sequence(self.CYCLE, repeat="none").last_distinct(3) == 3
        assert builtin("power", 2).last_distinct(1000) == 1000

    @pytest.mark.parametrize("n_max", [2, 3, 4, 40])
    def test_passing_cycle_matches_the_unrolled_copy(self, n_max):
        seq = custom_sequence(self.CYCLE)
        flat = self.unrolled(seq, n_max)
        assert escape_radius_search(seq, n_max) == escape_radius_search(flat, n_max)
        for R in (1.5, 2.0):
            assert check_guided(seq, R, n_max) == check_guided(flat, R, n_max)

    @pytest.mark.parametrize("polys, n, note", [
        ([monomial(2), monomial(2), polynomial(5, 0, 1)], 3, "circle minimum below R"),
        ([polynomial(5, 0, 1), monomial(2), monomial(3)], 4, "circle minimum below R"),
        ([polynomial(0, 0, -3, 1), monomial(2)], 3, "zeros not contained in the disk"),
    ], ids=["p3", "p1-at-4", "zeros-at-3"])
    def test_failing_cycle_matches_the_unrolled_copy(self, polys, n, note):
        seq = custom_sequence(polys)
        got = check_guided(seq, 2.0, 30)
        assert got == check_guided(self.unrolled(seq, 30), 2.0, 30)
        assert not got.passed and got.witness.n == n and got.note == note
        assert got.n_range == (2, 30)

    def test_failing_radius_search_names_the_same_map(self):
        # p_2 = z**2 fails below R = e; then p_3 = p_1 keeps failing up to the ceiling
        seq = custom_sequence([polynomial(1e13, 0, 1), monomial(2)])
        with pytest.raises(SequenceError, match="p_3 keeps failing") as cycled:
            escape_radius_search(seq, 30)
        with pytest.raises(SequenceError) as flat:
            escape_radius_search(self.unrolled(seq, 30), 30)
        assert str(cycled.value) == str(flat.value)


def _samples(monkeypatch, m):
    """Every circle from here on takes max(m, 8d) samples: the certificate is exact at
    any count that is a multiple of 4, not only at _CIRCLE_SAMPLES."""
    monkeypatch.setattr(sequences, "_CIRCLE_SAMPLES", m)


def _two_pass_circle(p, radius, m=_CIRCLE_SAMPLES):
    """(min log|p| on max(m, 8d) samples, its point, zeros-contained thunk),
    sampling the winding count separately on max(m, 16d, 64) points."""
    pts = circle_points(radius, max(m, 8 * p.degree))
    logs = log_abs_on(p, pts)
    i = int(np.argmin(logs))

    def zeros_contained():
        if p.root_bound <= radius:
            return True
        vals = values_on(p, circle_points(radius, max(m, 16 * p.degree, 64)))
        if not np.all(np.isfinite(vals)):
            raise SequenceError("circle values overflow doubles; cannot count zeros")
        inc = np.diff(np.append(np.angle(vals), np.angle(vals[0])))
        inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
        return int(round(float(inc.sum()) / (2.0 * np.pi))) == p.degree

    return float(logs[i]), complex(pts[i]), zeros_contained


def _floor_first(p, radius, target, m=_CIRCLE_SAMPLES):
    """_two_pass_circle behind the floor-first rule, as (min_log, point, zeros-contained
    thunk): a floor that clears target by _FLOOR_MARGIN is the minimum, less that margin."""
    floor = _chebyshev_floor(p, radius)
    if floor >= target + _FLOOR_MARGIN:
        return floor - _FLOOR_MARGIN, None, lambda: True
    return _two_pass_circle(p, radius, m)


def _two_pass_check_guided(seq, R, n_max, m=_CIRCLE_SAMPLES):
    margin = math.inf
    for n in range(2, n_max + 1):
        p = seq.get(n)
        min_log, point, zeros_contained = _floor_first(p, R, math.log(R), m)
        try:
            min_ratio = math.exp(min_log - math.log(R))
        except OverflowError:
            min_ratio = math.inf
        if min_ratio < 1.0:
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, point, min_ratio * R), note="circle minimum below R")
        if not zeros_contained():
            return CheckReport(False, (2, n_max), min_ratio - 1.0,
                               Witness(n, None, float(p.root_bound)),
                               note="zeros not contained in the disk")
        margin = min(margin, min_ratio - 1.0)
    return CheckReport(True, (2, n_max), margin)


def _two_pass_radius(seq, n_max, m=_CIRCLE_SAMPLES):
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
    """The one-sampling circle certificate reproduces the two-sampling one exactly, at the
    circle's sample count and at others."""

    @pytest.mark.parametrize("make, n_max, m", [
        (lambda: builtin("minimal_chebyshev"), 150, 512),
        (lambda: builtin("minimal_chebyshev"), 40, 64),
        (lambda: builtin("classical_chebyshev"), 12, 512),
        (lambda: builtin("classical_chebyshev"), 12, 64),
        (lambda: builtin("n_exp_z2"), 60, 512),
        (_complex_cycle, 60, 512),
        (_complex_cycle, 30, 64),
    ])
    def test_same_radius(self, monkeypatch, make, n_max, m):
        seq = make()
        _samples(monkeypatch, m)
        assert escape_radius_search(seq, n_max) == _two_pass_radius(seq, n_max, m)

    @pytest.mark.parametrize("make", [
        lambda: builtin("minimal_chebyshev"), lambda: builtin("classical_chebyshev"),
        _complex_cycle])
    @pytest.mark.parametrize("radius, m", [(1.3, 64), (2.0, 64), (3.0, 512), (3.0, 1024)])
    def test_same_circle_per_step(self, monkeypatch, make, radius, m):
        seq = make()
        _samples(monkeypatch, m)
        for n in (2, 3, 7, 8, 9, 16, 40, 64, 65, 70, 128, 150):
            _assert_same_circle(seq.get(n), radius, m)

    @pytest.mark.parametrize("make, n_max", [
        (lambda: builtin("minimal_chebyshev"), 150),
        (lambda: builtin("classical_chebyshev"), 12),
        (lambda: builtin("n_exp_z2"), 60),
        (_complex_cycle, 60),
        (lambda: builtin("two_pow_neg_n_sq"), 20),
    ])
    @pytest.mark.parametrize("R", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [64, 1024])
    def test_same_report(self, monkeypatch, make, n_max, R, m):
        seq = make()
        _samples(monkeypatch, m)
        got = check_guided(seq, R, n_max)
        want = _two_pass_check_guided(seq, R, n_max, m)
        assert got == want
        assert repr(got.margin) == repr(want.margin)

    @pytest.mark.parametrize("m", [64, 1024])
    def test_same_report_where_the_floor_certifies(self, monkeypatch, m):
        # _chebyshev_floor clears log 2 for t_2..t_270 on |z| = 2, so none of them is
        # sampled.  The margin is t_2's floor less _FLOOR_MARGIN: |t_2| >= 2 sqrt 3 by
        # the ellipse bound, so sqrt 3 e**-1e-9 - 1, where the sampled minimum
        # |4 - 1/2| gave 0.7500000000000002
        seq = builtin("minimal_chebyshev")
        _samples(monkeypatch, m)
        built = _spy_circles(monkeypatch)
        got = check_guided(seq, 2.0, 270)
        assert got == _two_pass_check_guided(seq, 2.0, 270, m) and built == []
        assert got.passed and repr(got.margin) == "0.7320508058368265"
        assert got.margin == pytest.approx(math.sqrt(3.0) * math.exp(-_FLOOR_MARGIN) - 1.0,
                                           rel=1e-15)

    @pytest.mark.parametrize("kind, margin", [("minimal_chebyshev", 6.937253925256524),
                                              ("classical_chebyshev", 14.87450785051305)])
    def test_chebyshev_kinds_pass_at_eight_to_depth_600(self, monkeypatch, kind, margin):
        # sampling t_2..t_600 on |z| = 8 overflowed doubles (SequenceError); the floor
        # clears log 8 for every one of them, as it does in the radius search
        built = _spy_circles(monkeypatch)
        rep = check_guided(builtin(kind), 8.0, 600)
        assert rep.passed and rep.margin == margin and built == []

    def test_minimum_beyond_double_range_is_not_a_crash(self):
        # min |p_n| on |z| = 2 passes 1e308 near n = 10 for n_exp_z2
        rep = check_guided(builtin("n_exp_z2"), 2.0, 60)
        assert rep.passed and math.isfinite(rep.margin)


def _spy_circles(monkeypatch):
    """The (degree, radius) of every circle the checkers sample from here on: the
    _circle calls that return a sample point, not the floor."""
    built, circle = [], sequences._circle

    def spy(p, radius, target):
        got = circle(p, radius, target)
        if got[1] is not None:
            built.append((p.degree, radius))
        return got

    monkeypatch.setattr(sequences, "_circle", spy)
    return built


def _assert_same_circle(p, radius, m=_CIRCLE_SAMPLES):
    """_circle equals the floor-first two-pass reference against check_guided's target,
    the radius search's, and the sampled minimum itself."""
    for target in (math.log(radius), 1.0 + math.log(radius), _two_pass_circle(p, radius, m)[0]):
        min_log, point, zeros_contained = _floor_first(p, radius, target, m)
        want = (min_log, point, min_log >= target and zeros_contained())
        assert _circle(p, radius, target) == want, (p.degree, m, target)


def _p2_at_the_failing_radii():
    """(2, R) for the 24 grid radii below 3.005203820042822, where t_2 fails: the circles
    the radius search builds for the stored minimal Chebyshev maps."""
    failing, r = [], 17.0 / 16.0
    for _ in range(24):
        failing.append((2, r))
        r *= 2.0 ** (1.0 / 16.0)
    assert r == 3.005203820042822
    return failing


def _t_ints(d):
    """T_d's integer coefficients, by T_(k+1) = 2z T_k - T_(k-1) from T_0 = 1, T_1 = z."""
    prev, cur = [1], [0, 1]
    for _ in range(d - 1):
        nxt = [0] + [2 * v for v in cur]
        for j, v in enumerate(prev):
            nxt[j] -= v
        prev, cur = cur, nxt
    return cur if d else prev


def _stored_deviation(p, radius, mpmath):
    """(log|c|, log sum_j |p_j - c a_j| radius**j) at the working precision, for p's stored
    coefficients (scale2 included) against c T_d = sum_j c a_j z**j with p's lead."""
    d, scale = p.degree, mpmath.mpf(2) ** p.scale2
    c = mpmath.mpf(p.coeffs[-1].real) * scale / mpmath.mpf(2) ** (d - 1)
    dev = sum(abs(mpmath.mpf(x.real) * scale - c * a) * mpmath.mpf(radius) ** j
              + abs(x.imag) * scale * mpmath.mpf(radius) ** j
              for j, (x, a) in enumerate(zip(p.coeffs, _t_ints(d))))
    return mpmath.log(abs(c)), mpmath.log(dev) if dev else -mpmath.inf


class TestChebyshevFloor:
    """The radius search's closed-form circle floor for the maps c T_d."""

    @pytest.mark.parametrize("R", [1.01, 1.3, 2.0, 3.005203820042822, 100.0])
    def test_floor_is_below_the_circle_minimum(self, R):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            r = mpmath.mpf(R)
            rho = r + mpmath.sqrt(r * r - 1)
            # log w at 4,096 circle points, z = (w + 1/w)/2; |T_d| is even and conjugate
            # symmetric, so the first quarter arc holds every modulus
            logs = []
            for k in range(1025):
                z = r * mpmath.expjpi(mpmath.mpf(k) / 2048)
                logs.append(mpmath.log(z + mpmath.sqrt(z - 1) * mpmath.sqrt(z + 1)))
            for d in (2, 3, 7, 8, 40, 299, 600, 1000):
                # log|T_d| = d log|w| + log|1 + w**(-2d)| - log 2; the middle term is
                # below 1e-86 past d log|w| = 100
                min_log = min(d * lw.real + (mpmath.log(abs(1 + mpmath.exp(-2 * d * lw)))
                                             if d * lw.real <= 100 else 0)
                              for lw in logs) - mpmath.log(2)
                at_r = mpmath.log(mpmath.cosh(d * mpmath.acosh(r)))  # the value at z = R
                bound = mpmath.log((rho**d - rho**-d) / 2)
                # equal to 60 digits at d log rho >> 70, where rho**(-2d) vanishes
                assert bound <= min_log + 1e-50 and bound <= at_r + 1e-50, d
                for p in (chebyshev_minimal(d), chebyshev_t(d)):
                    floor = _chebyshev_floor(p, R)
                    log_c, log_dev = _stored_deviation(p, R, mpmath)
                    if p.chebyshev_error == 0:  # p is c T_d: the double floor's rounding
                        assert log_dev == -mpmath.inf  # stays a hundredth of the margin
                        assert abs(floor - (bound + log_c)) <= _FLOOR_MARGIN / 100, d
                    if floor > -math.inf:
                        # |p| >= |c T_d| - |p - c T_d| on the circle, and by Rouche p has
                        # T_d's d zeros inside when the second term is the smaller
                        assert log_dev < bound + log_c, (d, p.scale2)
                        stored_min = bound + log_c + mpmath.log(1 - mpmath.exp(log_dev - bound - log_c))
                        assert floor - _FLOOR_MARGIN <= stored_min, (d, p.scale2)
                        assert floor - _FLOOR_MARGIN <= min_log + log_c, (d, p.scale2)
                        assert floor - _FLOOR_MARGIN <= at_r + log_c, (d, p.scale2)
                    elif R == 3.005203820042822 and d == 1000:
                        # the stored t_1000 is not within its floor's reach of c T_1000 there
                        assert log_dev > bound + log_c
        # the floor decides the deep maps at the search's radius and at large radii
        assert _chebyshev_floor(chebyshev_minimal(600), 3.005203820042822) > 600
        assert _chebyshev_floor(chebyshev_t(1000), 100.0) > 4000

    def test_decided_by_the_map_not_the_name(self, monkeypatch):
        # the floor reads each map's own deviation from c T_d, and no sequence carries a
        # mark: the Chebyshev kinds' maps are within reach, the other kinds' maps leave
        # at once, and a sequence named minimal_chebyshev that makes monomials is sampled
        # at every map, as any other sequence of monomials
        for seq in (builtin("minimal_chebyshev"), builtin("classical_chebyshev"),
                    builtin("classical_chebyshev", degrees=[2, 3])):
            assert all(seq.get(n).chebyshev_error < 1e-13 for n in range(2, 41)), seq
        for kind in ("power", "n_exp_z2", "n_pow_n", "two_pow_neg_n_sq"):
            assert all(builtin(kind).get(n).chebyshev_error == math.inf for n in range(2, 41))
        named = sequences.PolySequence("minimal_chebyshev", monomial)
        assert not hasattr(named, "chebyshev")
        built = _spy_circles(monkeypatch)
        radius = escape_radius_search(named, 40)
        assert built[-39:] == [(n, radius) for n in range(2, 41)]
        assert radius == _two_pass_radius(named, 40)

    def test_custom_list_of_stored_maps_takes_the_floor(self, monkeypatch):
        # the stored t_1..t_60 as a custom list: the search samples p_2 at the radii it
        # fails and no map past it, as for the builtin
        built = _spy_circles(monkeypatch)
        custom = custom_sequence([chebyshev_minimal(n) for n in range(1, 61)], repeat="none")
        assert escape_radius_search(custom, 60) == 3.005203820042822
        from_custom = built[:]
        built.clear()
        assert escape_radius_search(builtin("minimal_chebyshev"), 60) == 3.005203820042822
        assert from_custom == built == _p2_at_the_failing_radii()

    @pytest.mark.parametrize("excess, radius", [(0.5, 3.005203820042822), (2.0, 17.0 / 16.0)])
    def test_floor_within_the_margin_is_sampled(self, monkeypatch, excess, radius):
        # a floor that clears log(e R) by half the margin decides nothing: every map is
        # sampled as on other kinds; by twice the margin it passes every map unsampled
        monkeypatch.setattr(sequences, "_chebyshev_floor",
                            lambda p, r: 1.0 + math.log(r) + excess * _FLOOR_MARGIN)
        built = _spy_circles(monkeypatch)
        seq = builtin("minimal_chebyshev")
        assert escape_radius_search(seq, 40) == radius
        if excess < 1:
            assert built[-39:] == [(n, radius) for n in range(2, 41)]
            assert radius == _two_pass_radius(seq, 40)
        else:
            assert built == []

    def test_depth_600_samples_p2_at_the_failing_radii_only(self, monkeypatch):
        built = _spy_circles(monkeypatch)
        radius = escape_radius_search(builtin("minimal_chebyshev"), 600)
        assert built == _p2_at_the_failing_radii() and radius == 3.005203820042822

    @pytest.mark.parametrize("make, n_maxes", [
        (lambda: builtin("minimal_chebyshev"), [*range(2, 41), 150]),
        (lambda: builtin("classical_chebyshev"), [*range(2, 41), 120]),
        (lambda: builtin("classical_chebyshev", degrees=[2, 3]), [2, 3, 40]),
    ], ids=["minimal_chebyshev", "classical_chebyshev", "classical_2_3"])
    def test_same_radius_as_sampling(self, make, n_maxes):
        seq = make()
        for n_max in n_maxes:
            assert escape_radius_search(seq, n_max) == _two_pass_radius(seq, n_max), n_max

    @pytest.mark.parametrize("kind, n_max, radius", [
        ("minimal_chebyshev", 600, 3.005203820042822),
        ("classical_chebyshev", 200, 1.7111459776960813),
        ("minimal_chebyshev", 800, None),   # the stored maps past ~640 need sampling, and
        ("minimal_chebyshev", 1000, None),  # their Horner values overflow doubles
    ])
    def test_deep_radii_hold_for_the_stored_maps(self, kind, n_max, radius):
        # each radius the search returns holds for the stored coefficients, not only for
        # c T_d: a 60-digit floor less the deviation from c T_d clears log(e R), and by
        # Rouche the stored map winds d times
        mpmath = pytest.importorskip("mpmath")
        seq = builtin(kind)
        if radius is None:
            with pytest.raises(SequenceError, match="overflow"):
                escape_radius_search(seq, n_max)
            radius = 3.005203820042822
            assert _chebyshev_floor(seq.get(n_max), radius) == -math.inf
            return
        assert escape_radius_search(seq, n_max) == radius
        with mpmath.workdps(60):
            rho = mpmath.mpf(radius) + mpmath.sqrt(mpmath.mpf(radius) ** 2 - 1)
            for d in (2, 3, n_max // 2 - 1, n_max // 2, n_max):
                log_c, log_dev = _stored_deviation(seq.get(d), radius, mpmath)
                floor = log_c + mpmath.log((rho**d - rho**-d) / 2)
                assert log_dev < floor
                stored_min = floor + mpmath.log(1 - mpmath.exp(log_dev - floor))
                assert stored_min >= 1 + mpmath.log(radius), d


_SYMMETRY_COUNTS = list(range(81)) + [512, 1001, 1002, 9600, 19200]


class TestCirclePoints:
    @pytest.mark.parametrize("m", _SYMMETRY_COUNTS)
    def test_exact_symmetries(self, m):
        pts = circle_points(2.5, m)
        k = np.arange(m)
        assert pts.shape == (m,)
        assert np.array_equal(pts[(m - k) % m], np.conj(pts))
        if m % 2 == 0:
            assert np.array_equal(pts[(k + m // 2) % m], -pts)
            assert np.array_equal(pts[(m // 2 - k) % m], -np.conj(pts))
        if m % 4 == 0 and m:
            assert list(pts[::m // 4]) == [2.5, 2.5j, -2.5, -2.5j]
        # the certificate's minimum runs over every other point of the doubled circle
        assert np.array_equal(circle_points(2.5, 2 * m)[::2], pts)

    def test_close_to_the_exact_roots_of_unity(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for m in [m for m in _SYMMETRY_COUNTS if 0 < m < 19200]:
                pts = circle_points(1.0, m)
                err = max(float(abs(mpmath.mpc(z) - mpmath.expjpi(mpmath.mpf(2 * k) / m)))
                          for k, z in enumerate(pts))
                assert err <= (4e-16 if m % 2 == 0 else 8e-16), m


def _real_polys():
    return [polynomial(0.3, -1.2, 0.7, 2.1), polynomial(1, 2, 0, 3, 0, 0, 5),
            polynomial(0.25, 0, -1.5, 0, 1), polynomial(0, 1.5, 0, -2, 0, 0.5),
            polynomial(*np.random.default_rng(7).normal(size=32))]


class TestCircleValues:
    """The circle is evaluated on one arc: the whole circle's certificate, bit for bit."""

    @pytest.mark.parametrize("polys", [
        lambda: [builtin("minimal_chebyshev").get(n) for n in (2, 3, 8, 9, 64, 65, 299, 600)],
        lambda: [builtin("classical_chebyshev").get(n) for n in (2, 3, 12, 30, 299)],
        lambda: [builtin("n_exp_z2").get(n) for n in (1, 2, 5, 30, 60)],
        lambda: [builtin("power", degrees=3).get(4), builtin("power").get(2)],
        lambda: [_complex_cycle().get(n) for n in (1, 2, 3)],
        _real_polys,
    ], ids=["minimal_chebyshev", "classical_chebyshev", "n_exp_z2", "power",
            "complex_cycle", "real"])
    @pytest.mark.parametrize("radius", [1.3, 2.0, 3.005203820042822])
    def test_equals_values_on_the_whole_circle(self, monkeypatch, polys, radius):
        for p in polys():
            for m in (64, 100, 512, 1024, 16 * p.degree):
                _samples(monkeypatch, m)
                _assert_same_circle(p, radius, m)

    @pytest.mark.parametrize("p, arc", [
        (chebyshev_minimal(9), lambda m: m // 4 + 1),
        (chebyshev_minimal(10), lambda m: m // 4 + 1),
        (polynomial(0.3, -1.2, 0.7, 2.1), lambda m: m),
        (polynomial(0.1 + 0.1j, 0, -0.2 + 0.05j, 0, 1), lambda m: m)])
    @pytest.mark.parametrize("radius", [1.5, 4.0])
    def test_certificate_evaluates_one_arc(self, monkeypatch, p, arc, radius):
        sizes = []

        def counted(p, pts):
            sizes.append(pts.size)
            return values_on(p, pts)

        monkeypatch.setattr(sequences, "values_on", counted)
        _samples(monkeypatch, 64)
        _circle(p, radius, math.inf)  # a target no floor clears: the circle is sampled
        # M samples where Cauchy's bound or the Chebyshev floor holds, else 2M
        one_pass = p.root_bound <= radius or _chebyshev_floor(p, radius) > -math.inf
        m = max(64, 8 * p.degree) * (1 if one_pass else 2)
        assert sizes == [arc(m)]

    @pytest.mark.parametrize("kind", ["minimal_chebyshev", "classical_chebyshev"])
    @pytest.mark.parametrize("radius", [1.3, 2.0, 3.005203820042822])
    def test_a_finite_floor_counts_no_winding(self, monkeypatch, kind, radius):
        # Rouche on the floor's margin puts all d zeros inside: no 2M circle, no count.
        # A target no floor clears samples every map; against its own sampled minimum
        # a floored map holds, by the floor or by Rouche
        sizes = []

        def counted(p, pts):
            sizes.append(pts.size)
            return values_on(p, pts)

        monkeypatch.setattr(sequences, "values_on", counted)
        seq, floored = builtin(kind), 0
        for n in (2, 3, 8, 9, 64, 65, 108, 109, 110, 269, 270, 271, 299, 598, 599, 600):
            p = seq.get(n)
            sizes.clear()
            min_log = _circle(p, radius, math.inf)[0]
            m = max(_CIRCLE_SAMPLES, 8 * p.degree)  # t_d is real, of one parity: a quarter arc
            if _chebyshev_floor(p, radius) > -math.inf:
                floored += 1
                assert sizes == [m // 4 + 1] and _circle(p, radius, min_log)[2], n
            elif p.root_bound > radius:
                assert sizes == [2 * m // 4 + 1], n
        assert floored >= 5

    def test_each_map_scans_its_coefficients_once(self, monkeypatch):
        # the Cauchy bound and the real-coefficient fact are kept on the polynomial:
        # a radius search and check_guided draw many circles per map, and compute
        # each map's modulus ratios once between them.  The floor decides t_3..t_40
        # without the Cauchy bound; t_2, sampled where the search fails, reads it once
        seen, ratios = [], poly.modulus_ratios
        monkeypatch.setattr(poly, "modulus_ratios",
                            lambda values, lead: seen.append(tuple(values)) or ratios(values, lead))
        cheb = [Polynomial(chebyshev_minimal(n).coeffs) for n in range(1, 41)]  # none kept yet
        cycle = [Polynomial(_complex_cycle().get(n).coeffs) for n in range(1, 41)]
        for maps, scanned in ((cheb, cheb[1:2]), (cycle, cycle[1:])):
            seen.clear()
            seq = custom_sequence(maps, repeat="none")
            escape_radius_search(seq, 40)
            assert check_guided(seq, 2.0, 40).passed
            assert Counter(seen) == Counter(p.coeffs[:-1] for p in scanned)

    def test_radius_to_depth_600(self, min_cheb):
        assert escape_radius_search(min_cheb, 600) == 3.005203820042822

    def test_values_past_double_range_are_refused(self):
        # 2**-2000 z**600: Horner overflows on |z| = 4 (NaN), and on |z| >= 2**(1024/600)
        # in the radius search, though the true log min |p_2| on |z| = 4 is -554.5
        far = monomial(600, 1.0, scale2=-2000)
        with pytest.raises(SequenceError, match="overflow"):
            check_guided(custom_sequence([monomial(2), far], repeat="none"), 4.0, 2)
        with pytest.raises(SequenceError, match="overflow"):
            escape_radius_search(custom_sequence([far]), 3)

    def test_coefficients_past_double_range_are_rescaled(self):
        # 1.5e308 (1 + 1j) z**2 overflows on the circle; on 2**-1024 times it, it does not
        p = polynomial(0, 0, 1.5e308 * (1 + 1j))
        min_log, _, holds = _circle(p, 2.0, math.log(2.0))
        want = math.log(1.5e308) + math.log(4 * math.sqrt(2))
        assert min_log == pytest.approx(want, rel=1e-15) and holds


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


class TestInputChecks:
    """Each checker and constructor refuses what it cannot take, with a message."""

    @pytest.mark.parametrize("call, message", [
        (lambda s: escape_radius_search(s, 1), "n_max must be >= 2"),
        (lambda s: check_P2(s, -1.0, 10), "A must be >= 0"),
        (lambda s: check_P2(s, 1.0, 0), "n_max must be >= 1"),
        (lambda s: check_finite_condition(s, 0j, 0.0, 10), "radius must be positive"),
        (lambda s: check_finite_condition(s, 0j, -1.0, 10), "radius must be positive"),
        # nan R overflowed the Horner, nan A gave a NaN margin, nan radius an empty grid
        (lambda s: check_guided(s, math.nan, 10), "R must exceed 1 and be finite"),
        (lambda s: check_guided(s, math.inf, 10), "R must exceed 1 and be finite"),
        (lambda s: check_P2(s, math.nan, 10), "A must be >= 0 and finite"),
        (lambda s: check_P2(s, math.inf, 10), "A must be >= 0 and finite"),
        (lambda s: check_finite_condition(s, 0j, math.nan, 10), "radius must be positive and finite"),
        (lambda s: check_finite_condition(s, 0j, math.inf, 10), "radius must be positive and finite"),
    ], ids=["escape-n_max", "p2-A", "p2-n_max", "finite-zero", "finite-negative",
            "guided-nan", "guided-inf", "p2-nan", "p2-inf", "finite-nan", "finite-inf"])
    def test_checkers(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(builtin("power", degrees=2))

    def test_sequences(self):
        with pytest.raises(SequenceError, match="indices start at 1"):
            builtin("power").get(0)
        with pytest.raises(SequenceError, match="empty degree list"):
            builtin("power", degrees=[])
        with pytest.raises(SequenceError, match="repeat must be"):
            custom_sequence([monomial(2)], repeat="loop")


class TestFiniteCondition:
    def test_head_then_powers_bounded(self):
        rep = check_finite_condition(builtin("z2_minus_2_then_powers"), 0j, 2.0, 100)
        assert rep.passed
        assert rep.sup <= math.log(6.0)

    def test_n_pow_n_flagged(self):
        rep = check_finite_condition(builtin("n_pow_n"), 0j, 2.0, 100)
        assert not rep.passed
        assert "decade" in rep.note

    @pytest.mark.parametrize("n_max", [2, 3, 16, 31, 100])
    def test_classical_chebyshev_not_flagged(self, n_max):
        # (1/n) log+|T_n| on disk(0, 2) rises toward its limit, below log(2 + sqrt 5);
        # a rise past 1e-9 over the last decade flagged it as unbounded, and at n_max = 2
        # the rise 0.40 from T_1 to T_2 passed half of log 2
        rep = check_finite_condition(builtin("classical_chebyshev"), 0j, 2.0, n_max)
        assert rep.passed and rep.note == ""
        assert rep.sup < math.log(2 + math.sqrt(5))

    @pytest.mark.parametrize("kind", ["n_pow_n", "n_exp_z2", "z2_minus_1_then_n_exp_z2"])
    def test_unbounded_kinds_flagged_at_every_depth(self, kind):
        # their growth factor is at least 1 (n_pow_n's log n exactly) against the bounded
        # kinds' 0.58 at most; the flag sits between
        seq = builtin(kind)
        for n_max in range(2, 41):
            rep = check_finite_condition(seq, 0j, 2.0, n_max)
            assert not rep.passed and "decade" in rep.note, n_max

    @pytest.mark.parametrize("kind", ["minimal_chebyshev", "classical_chebyshev", "power",
                                      "two_pow_neg_n_sq", "z2_minus_2_then_powers"])
    def test_bounded_kinds_pass_at_every_depth(self, kind):
        seq = builtin(kind)
        for n_max in range(2, 41):
            assert check_finite_condition(seq, 0j, 2.0, n_max).passed, n_max

    def test_power_sup_is_log_radius(self):
        rep = check_finite_condition(builtin("power", degrees=2), 0j, 2.0, 50)
        assert rep.passed
        # sampled sup approaches log 2 from below at grid resolution
        assert rep.sup <= math.log(2.0) + 1e-12
        assert abs(rep.sup - math.log(2.0)) < 0.01

    def test_n_max_below_one_is_refused(self):
        # numpy's max over an empty array raised instead
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            check_finite_condition(builtin("power", degrees=2), 0j, 2.0, 0)

    def test_values_past_double_range_are_refused(self):
        # 4**600 overflows, and so does 2**-1 4**600: the NaN sup was read as 0 (passed)
        with pytest.raises(SequenceError, match="overflow"):
            check_finite_condition(builtin("power", degrees=600), 0j, 4.0, 3)

    def test_coefficients_past_double_range_are_rescaled(self):
        # 1.5e308 (1 + 1j) z**2 overflows on the grid (the sup read inf); 2**-1024 times it
        # does not.  The check's grid is 64 x 64 on [-2, 2]**2, cut to the disk.
        seq = custom_sequence([polynomial(0, 0, 1.5e308 * (1 + 1j))], repeat="none")
        rep = check_finite_condition(seq, 0j, 2.0, 1)
        xs = np.linspace(-2.0, 2.0, 64)
        moduli = np.abs(xs[:, None] + 1j * xs[None, :])
        top = float(moduli[moduli <= 2.0].max())
        want = (math.log(1.5e308) + 0.5 * LN2 + 2.0 * math.log(top)) / 2
        assert rep.sup == pytest.approx(want, rel=1e-14)
        assert rep.sup == pytest.approx(355.664, abs=1e-3)
