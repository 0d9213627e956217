import math

import numpy as np
import pytest

from nonauto import klimek
from nonauto.green import (Disk, Ellipse, Preimage, Segment, UNIT_DISK, capacity_estimate,
                           green_field)
from nonauto.klimek import (contraction_check, convergence_table, gamma_models,
                            gamma_nonauto, table_to_csv, tail_constant)
from nonauto.poly import chebyshev_t, monomial, polynomial
from nonauto.sequences import builtin, custom_sequence, escape_radius_search
from test_engines import BASE_CYCLE


class TestGammaModels:
    @pytest.mark.parametrize("r", [2.0, 4.0, 10.0])
    def test_nested_disks(self, r):
        est = gamma_models(UNIT_DISK, Disk(0j, r))
        assert abs(est.lower - math.log(r)) < 1e-6
        assert est.refine_delta < 1e-9

    def test_disk_versus_segment(self):
        est = gamma_models(UNIT_DISK, Segment())
        assert abs(est.lower - math.log(1 + math.sqrt(2))) < 1e-4

    def test_identical_sets(self):
        for K in (UNIT_DISK, Segment(), Ellipse(2.0)):
            assert gamma_models(K, K).lower == 0.0

    def test_symmetric(self):
        a, b = Disk(0.2 + 0.1j, 1.5), Ellipse(3.0)
        assert gamma_models(a, b).lower == gamma_models(b, a).lower

    @pytest.mark.parametrize("m", [0, -5])
    def test_sizes_below_one_are_refused(self, m):
        # m = -5 gave 0.149036 from nets of 8 points, against log 1.25 = 0.223144
        with pytest.raises(ValueError, match="m must be >= 1"):
            gamma_models(UNIT_DISK, Ellipse(2.0), m=m)

    def test_sets_past_half_the_double_range_are_refused(self):
        # the fill net spans [-r, r]: at r = 9e307, 2 r overflowed and the sup read NaN
        with pytest.raises(ValueError, match="enclosing radius"):
            gamma_models(UNIT_DISK, Disk(0j, 9e307))
        assert gamma_models(UNIT_DISK, Disk(0j, 8e307)).lower == pytest.approx(
            math.log(8e307), rel=1e-15)

    def test_triangle_inequality_on_disks(self):
        disks = [Disk(0j, 1.0), Disk(0j, 3.0), Disk(0.5, 2.0)]
        g01 = gamma_models(disks[0], disks[1]).lower
        g12 = gamma_models(disks[1], disks[2]).lower
        g02 = gamma_models(disks[0], disks[2]).lower
        assert g02 <= g01 + g12 + 1e-9

    def test_capacity_continuity(self):
        pairs = [(UNIT_DISK, Disk(0j, 4.0)), (UNIT_DISK, Segment()),
                 (Segment(), Ellipse(2.0)), (Ellipse(1.5), Disk(1j, 2.0))]
        for E, F in pairs:
            gap = abs(math.log(E.capacity()) - math.log(F.capacity()))
            assert gap <= gamma_models(E, F).lower + 1e-6


    # (E, F, m, lower, samples, refine_delta) as the per-size joint nets gave them
    @pytest.mark.parametrize("E,F,m,lower,samples,delta", [
        (UNIT_DISK, Ellipse(2.0), 64, "0x1.c8ff7c79a9a22p-3", 1018, "0x0.0p+0"),
        (UNIT_DISK, Ellipse(2.0), 256, "0x1.c8ff7c79a9a22p-3", 4069, "0x0.0p+0"),
        (Segment(), Ellipse(1.5), 64, "0x1.9f323ecbf984fp-2", 825, "0x0.0p+0"),
        (Segment(), Ellipse(1.5), 256, "0x1.9f323ecbf9854p-2", 3300, "0x1.4000000000000p-52"),
        (Disk(0.3 - 0.2j, 1.5), Segment(), 64, "0x1.547f7c72c47f1p+0", 826, "0x0.0p+0"),
        (Disk(0.3 - 0.2j, 1.5), Segment(), 256, "0x1.547fc87450c8ep+0", 3301,
         "0x1.3006312740000p-18"),
        (Ellipse(3.0), Disk(-0.2j, 1.2), 64, "0x1.64781b7b502bfp-2", 1018,
         "0x1.94f910bbd7000p-14"),
        (Ellipse(3.0), Disk(-0.2j, 1.2), 256, "0x1.64781b7b502bfp-2", 4069, "0x0.0p+0"),
        (UNIT_DISK, Segment(), 64, "0x1.c34366179d426p-1", 826, "0x0.0p+0"),
        (UNIT_DISK, Segment(), 256, "0x1.c34366179d426p-1", 3301, "0x0.0p+0"),
        (Disk(0.5, 2.0), Ellipse(1.2), 64, "0x1.626d2116688e0p+0", 1018, "0x0.0p+0"),
        (Disk(0.5, 2.0), Ellipse(1.2), 256, "0x1.626d2116688e0p+0", 4069, "0x0.0p+0"),
    ])
    def test_model_pairs_unchanged(self, E, F, m, lower, samples, delta):
        # nets joined per set (ModelSet.nets) sample the same points as before
        est = gamma_models(E, F, m)
        assert (est.lower.hex(), est.samples, est.refine_delta.hex()) == (lower, samples, delta)


class TestOnePullbackPerSet:
    """gamma_models asks each Preimage once for its nets at both sizes."""

    @staticmethod
    def spy(monkeypatch):
        calls, pullback = [], Preimage._pullback
        monkeypatch.setattr(Preimage, "_pullback",
                            lambda self, targets: calls.append(self) or pullback(self, targets))
        return calls

    def test_one_preimage(self, monkeypatch):
        pre = Preimage(UNIT_DISK, chebyshev_t(8))
        calls = self.spy(monkeypatch)
        gamma_models(UNIT_DISK, pre, 256)
        assert calls == [pre]

    def test_two_preimages(self, monkeypatch):
        f = polynomial(0.2, -0.3, 1.0, 0.5)
        E, F = Preimage(UNIT_DISK, f), Preimage(Ellipse(2.0), f)
        calls = self.spy(monkeypatch)
        gamma_models(E, F, 256)
        assert calls == [E, F]

    def test_nested_preimage_once_per_level(self, monkeypatch):
        inner = Preimage(UNIT_DISK, polynomial(0.3j, 0, -0.5, 1))
        outer = Preimage(inner, polynomial(-0.2, 0.1 + 0.4j, 0, 1))
        calls = self.spy(monkeypatch)
        gamma_models(Segment(), outer, 128)
        assert calls == [inner, outer]

    def test_tail_constant_one_per_depth(self, monkeypatch, min_cheb):
        calls = self.spy(monkeypatch)
        tail_constant(min_cheb, UNIT_DISK, 6)
        assert [pre.poly for pre in calls] == [min_cheb.get(n) for n in range(2, 8)]

    @pytest.mark.parametrize("target", [UNIT_DISK, Segment()], ids=["disk", "segment"])
    def test_tail_constant_builds_target_nets_once(self, monkeypatch, min_cheb, target):
        # the target's own nets at (256, 1024), not once per depth; a Preimage
        # asks its inner set for nets at m // deg f instead
        asked, nets = [], type(target).nets
        monkeypatch.setattr(type(target), "nets",
                            lambda self, ms: asked.append(tuple(ms)) or nets(self, ms))
        got = tail_constant(min_cheb, target, 6)
        assert asked.count((256, 1024)) == 1 and len(asked) == 7
        monkeypatch.undo()
        assert got == max(gamma_models(target, Preimage(target, min_cheb.get(n + 1)), 256).lower
                          for n in range(1, 7))


class TestContraction:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_power_map_ratio(self, d):
        res = contraction_check(monomial(d), UNIT_DISK, Disk(0j, 4.0))
        assert abs(res.ratio - 1.0 / d) < 1e-6

    def test_ratio_within_degree_bound(self):
        P = polynomial(0.2, -0.3, 1.0, 0.5)
        res = contraction_check(P, UNIT_DISK, Disk(0j, 4.0))
        assert res.ratio <= 1.0 / P.degree + res.slack + 1e-3

    def test_equal_sets_rejected(self):
        with pytest.raises(ValueError):
            contraction_check(monomial(2), UNIT_DISK, Disk(0j, 1.0))

    def test_affine_rejected(self):
        with pytest.raises(ValueError):
            contraction_check(polynomial(1, 2), UNIT_DISK, Disk(0j, 2.0))


class TestTailConstant:
    def test_depth_below_two_is_refused(self):
        with pytest.raises(ValueError, match="n_max must be >= 2"):
            tail_constant(builtin("power", degrees=2), UNIT_DISK, 1)

    @pytest.mark.parametrize("fields", [(-1.0, 4, 0.0), (0.0, 4, -1e-300)])
    def test_estimate_fields_must_be_non_negative(self, fields):
        with pytest.raises(ValueError, match="non-negative"):
            klimek.KlimekEstimate(*fields)

    def test_power_maps_zero(self):
        assert tail_constant(builtin("power", degrees=2), UNIT_DISK, 10) < 1e-9

    def test_minimal_chebyshev_stable(self, min_cheb):
        c20 = tail_constant(min_cheb, UNIT_DISK, 20)
        c40 = tail_constant(min_cheb, UNIT_DISK, 40)
        assert 0.1 < c20 < 1.0
        assert c40 - c20 < 0.05

    def test_unbounded_family_grows(self):
        seq = builtin("n_pow_n")
        c10 = tail_constant(seq, UNIT_DISK, 10)
        c30 = tail_constant(seq, UNIT_DISK, 30)
        assert c30 > c10 + 0.5


class TestGammaNonauto:
    def test_power_preimages_coincide(self):
        seq = builtin("power", degrees=2)
        est = gamma_nonauto(seq, UNIT_DISK, 2, 5, escape_radius=2.0)
        assert est.lower < 1e-12

    def test_same_index_zero(self, min_cheb, min_cheb_radius):
        est = gamma_nonauto(min_cheb, UNIT_DISK, 4, 4, escape_radius=min_cheb_radius)
        assert est.lower == 0.0 and est.refine_delta == 0.0

    @pytest.mark.parametrize("n, kwargs", [(0, {}), (0, {"escape_radius": 2.0}),
                                           (-3, {"escape_radius": math.nan})])
    def test_same_index_checks_its_inputs(self, n, kwargs):
        # n == m runs the drivers' input check before it returns a zero distance
        with pytest.raises(ValueError, match="n_steps must be >= 1|escape radius"):
            gamma_nonauto(builtin("power"), UNIT_DISK, n, n, **kwargs)

    def test_same_index_one_searches_a_radius(self):
        est = gamma_nonauto(builtin("power"), UNIT_DISK, 1, 1)
        assert est.lower == 0.0 and est.refine_delta == 0.0

    def test_decay_with_depth(self, min_cheb, min_cheb_radius):
        lows = [gamma_nonauto(min_cheb, UNIT_DISK, n, n + 1,
                              escape_radius=min_cheb_radius).lower
                for n in range(2, 8)]
        for a, b in zip(lows, lows[1:]):
            assert b <= 0.75 * a

    def test_normalized_increments_bounded(self, min_cheb, min_cheb_radius):
        # summability witness: D_n * gamma(n, n+1) stays bounded
        products = [math.factorial(n) * gamma_nonauto(
            min_cheb, UNIT_DISK, n, n + 1, escape_radius=min_cheb_radius).lower
            for n in range(2, 9)]
        assert max(products) < 10.0

    def test_default_radius_is_the_search_result(self, min_cheb):
        got = gamma_nonauto(min_cheb, UNIT_DISK, 3, 4, samples=256)
        want = gamma_nonauto(min_cheb, UNIT_DISK, 3, 4, samples=256,
                             escape_radius=escape_radius_search(min_cheb, 4))
        assert got == want and got.lower > 0

    def test_index_validation(self, min_cheb, min_cheb_radius):
        with pytest.raises(ValueError):
            gamma_nonauto(min_cheb, UNIT_DISK, 5, 3, escape_radius=min_cheb_radius)


class TestConvergenceTable:
    def test_minimal_chebyshev(self, min_cheb, min_cheb_radius):
        rows = convergence_table(min_cheb, UNIT_DISK, range(1, 9),
                                 escape_radius=min_cheb_radius)
        assert [r.n for r in rows] == list(range(1, 9))
        assert abs(rows[-1].cap - 1.0) <= 1e-3
        assert rows[-1].cap_spread < 1e-4
        gammas = [r.gamma for r in rows]
        assert all(b < a for a, b in zip(gammas[1:], gammas[2:]))

    def test_power_rows_trivial(self):
        rows = convergence_table(builtin("power", degrees=2), UNIT_DISK, [1, 2, 3],
                                 escape_radius=2.0)
        for row in rows:
            assert row.gamma < 1e-12
            assert abs(row.cap - 1.0) < 1e-9

    def test_csv_shape(self, min_cheb, min_cheb_radius):
        rows = convergence_table(min_cheb, UNIT_DISK, [1, 2], escape_radius=min_cheb_radius)
        text = table_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "n,logD,gamma,cap"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_classical_chebyshev_capacity_shift(self, classical_cheb, classical_cheb_radius):
        # non-monic leading coefficients 2**(D-1) shift the Robin constant:
        # cap of the step-n preimage is 0.5 * 2**(1/D_n), converging to 1/2
        rows = convergence_table(classical_cheb, UNIT_DISK, [4, 6, 8],
                                 escape_radius=classical_cheb_radius)
        for row in rows:
            d_total = math.factorial(row.n)
            assert abs(row.cap - 0.5 * 2.0 ** (1.0 / d_total)) < 1e-6
        assert abs(rows[-1].cap - 0.5) < 1e-4

    def test_capacity_column_optional(self, min_cheb, min_cheb_radius):
        # the column is the exact capacity, a float at every depth
        rows = convergence_table(min_cheb, UNIT_DISK, [1, 2], escape_radius=min_cheb_radius)
        assert all(type(r.cap) is float and r.cap_spread == 0.0 for r in rows)
        text = table_to_csv(rows)
        assert [line.split(",")[3] for line in text.strip().splitlines()[1:]] == ["1.0", "1.0"]

    def test_classical_chebyshev_capacity_closed_form(self, classical_cheb,
                                                       classical_cheb_radius):
        # S_n = ln 2 * sum_(k<=n) (k-1)/k! = ln 2 (1 - 1/D_n): cap = 0.5 * 2**(1/D_n)
        rows = convergence_table(classical_cheb, UNIT_DISK, range(1, 11),
                                 escape_radius=classical_cheb_radius, samples=64)
        for row in rows:
            want = 0.5 * 2.0 ** (1.0 / math.factorial(row.n))
            assert abs(row.cap - want) <= 1e-15 * want

    @pytest.mark.parametrize("seed", range(10))
    def test_capacity_matches_the_sampled_oracle(self, seed):
        # complex, non-monic leads; probe circles past the escape radius clear
        # every step-n preimage of the unit disk
        rng = np.random.default_rng(seed)
        polys = []
        for _ in range(5):
            d = int(rng.integers(2, 4))
            lower = 0.3 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            lead = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            polys.append(polynomial(*lower, lead))
        seq = custom_sequence(polys)
        radius = escape_radius_search(seq, 6)
        rows = convergence_table(seq, UNIT_DISK, range(1, 6), escape_radius=radius, samples=64)
        for row in rows:
            est = capacity_estimate(
                lambda pts: green_field(seq, pts, row.n, radius, UNIT_DISK)[0],
                [2.0 * radius, 4.0 * radius, 8.0 * radius])
            assert abs(row.cap - est.value) <= 1e-12 * est.value

    def test_capacity_past_double_range_is_inf(self):
        # p_1 = 1e-320 z: P_1^{-1}(D) is the disk of radius 1e320
        seq = custom_sequence([polynomial(0, 1e-320), monomial(2)], repeat="none")
        rows = convergence_table(seq, UNIT_DISK, [1], escape_radius=2.0, samples=64)
        assert rows[0].cap == math.inf
        assert table_to_csv(rows).strip().splitlines()[1].endswith(",inf")

    @pytest.mark.parametrize("n_list", [range(1, 7), [1, 4, 5, 9]])
    @pytest.mark.parametrize("name", ["minimal_chebyshev", "base_cycle"])
    def test_rows_are_gamma_nonauto(self, monkeypatch, name, n_list):
        # one orbit pass per net through every depth n and n + 1 (depth n + 1 of
        # one row is depth n of the next), and each row's gamma gamma_nonauto's
        # bit for bit
        seq = builtin(name) if name == "minimal_chebyshev" else custom_sequence(BASE_CYCLE)
        radius = escape_radius_search(seq, max(n_list) + 1)
        passes, engine = [], klimek._depth_fields
        monkeypatch.setattr(klimek, "_depth_fields",
                            lambda *a: passes.append(list(a[2])) or engine(*a))
        rows = convergence_table(seq, UNIT_DISK, n_list, escape_radius=radius, samples=256)
        want = sorted({k for n in n_list for k in (n, n + 1)})
        assert passes == [want, want]
        for row in rows:
            gam = gamma_nonauto(seq, UNIT_DISK, row.n, row.n + 1, radius, 256).lower
            assert row.gamma.hex() == gam.hex()

    def test_long_depth_lists_run_overlapping_passes(self, monkeypatch, min_cheb,
                                                     min_cheb_radius):
        # 40 depths make three passes per net, each starting at the last one's
        # deepest depth, so the rows across a pass boundary are gamma_nonauto's too
        passes, engine = [], klimek._depth_fields
        monkeypatch.setattr(klimek, "_depth_fields",
                            lambda *a: passes.append(list(a[2])) or engine(*a))
        n_list = range(1, 40, 2)
        rows = convergence_table(min_cheb, UNIT_DISK, n_list, min_cheb_radius, samples=64)
        bounds = [(p[0], p[-1]) for p in passes]
        assert bounds == 2 * [(1, 16), (16, 31), (31, 40)]
        for row in rows:
            gam = gamma_nonauto(min_cheb, UNIT_DISK, row.n, row.n + 1, min_cheb_radius, 64)
            assert row.gamma.hex() == gam.lower.hex()

    @pytest.mark.parametrize("n_list", [[0], [-1, 2]])
    def test_depth_below_one_before_any_field(self, monkeypatch, n_list):
        passes = []
        monkeypatch.setattr(klimek, "_depth_fields", lambda *a: passes.append(a[2]) or iter(()))
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            convergence_table(builtin("power", 2), UNIT_DISK, n_list, escape_radius=2.0)
        assert passes == []

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_are_refused(self, monkeypatch, samples):
        # samples = 0 gave a row with gamma 0.0; -5 failed in math.isqrt
        passes = []
        monkeypatch.setattr(klimek, "_depth_fields", lambda *a: passes.append(a[2]) or iter(()))
        with pytest.raises(ValueError, match="samples must be >= 1"):
            convergence_table(builtin("power", 2), UNIT_DISK, [1], escape_radius=2.0,
                              samples=samples)
        assert passes == []

    def test_validation(self, min_cheb, min_cheb_radius):
        with pytest.raises(ValueError):
            convergence_table(min_cheb, UNIT_DISK, [3, 2], escape_radius=min_cheb_radius)
        with pytest.raises(ValueError):
            convergence_table(min_cheb, UNIT_DISK, [], escape_radius=min_cheb_radius)


class TestPreimageNets:
    def test_preimage_gamma_against_closed_form(self):
        # preimage of the R-disk under z^2 is the sqrt(R)-disk
        pre = Preimage(Disk(0j, 4.0), monomial(2))
        est = gamma_models(UNIT_DISK, pre)
        assert abs(est.lower - math.log(2.0)) < 1e-6
