import hashlib
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonauto import green, poly
from nonauto.poly import (BAND_LOW, BAND_MIN_EXP, EPS, MagnitudeOverflow, Polynomial,
                          ScaledComplex, _below_band, _evaluate, chebyshev_minimal, chebyshev_t,
                          evaluate, evaluate_scaled, monomial, polynomial)
from nonauto.sequences import escape_radius_search

finite_coeff = st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False)


class TestConstruction:
    @pytest.mark.parametrize("make, message", [
        (lambda: Polynomial(()), "at least one coefficient"),
        (lambda: monomial(-1), "power must be >= 0"),
        (lambda: chebyshev_minimal(1001), "capped at n <= 1000"),
        (lambda: chebyshev_t(-1), "n must be >= 0"),
    ], ids=["empty", "monomial", "minimal-cap", "classical-negative"])
    def test_rejects_bad_arguments(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Polynomial((complex(float("inf"), 0.0),))

    def test_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            Polynomial((1 + 0j, 0j))

    def test_factory_trims(self):
        p = polynomial(1, 2, 0, 0)
        assert p.coeffs == (1 + 0j, 2 + 0j)
        assert p.degree == 1

    def test_zero_constant_allowed(self):
        assert polynomial(0).degree == 0

    @pytest.mark.parametrize("coeffs, parity", [
        ((0,), 0), ((5,), 0), ((0, 2), 1), ((1, 2), None), ((-0.75, 0, 1), 0),
        ((0, -0.75, 0, 1), 1), ((1, 0, 0, 1), None), ((0, 0, 3j, 0, 1), 0),
        ((0, 1, 1, 0, 1), None)])
    def test_parity(self, coeffs, parity):
        # every nonzero coefficient's index has the degree's parity, else None
        assert polynomial(*coeffs).parity == parity

    @pytest.mark.parametrize("p, valuation, lead_log, log_safe, log_tiny", [
        (monomial(2), 2, 0.0, 1.0, math.inf),
        (polynomial(-2, 0, 1), 0, 0.0, 27.5, -26.5),
        (monomial(3, 1.5, 2000), 3, 1386.6998262279988, -999.7924812503605, math.inf),
        (polynomial(0, 0, 3, 1), 2, 0.0, 56.16992500144231, -53.0)],
        ids=["monomial", "quadratic", "lead-past-double", "valuation-2"])
    def test_step_facts(self, p, valuation, lead_log, log_safe, log_tiny):
        # lead_log stays finite for a lead 1.5 * 2**2000, past 1.8e308; log_tiny is
        # log_safe's mirror: -26.5 puts |-2| 2**-53 / 2 above |w**2|
        assert (p.valuation, p.lead_log, p.log_safe, p.log_tiny) == (
            valuation, lead_log, log_safe, log_tiny)

    @pytest.mark.parametrize("p", [polynomial(0), polynomial(5)], ids=["zero", "constant"])
    def test_constants_have_no_term_to_drop(self, p):
        # an empty _moduli (the zero polynomial) or one term: both thresholds are inf
        # (log_safe raised IndexError and ValueError here), and evaluate_scaled keeps
        # that term at any exponent
        assert p.log_tiny == p.log_safe == math.inf
        for e in (-10**400, -3000, 3000, 10**400):
            assert evaluate_scaled(p, ScaledComplex(1.5 + 0j, e)) == ScaledComplex.from_complex(
                p.coeffs[0])

    def test_array_kept_read_only(self):
        p = polynomial(1, 2j, 3)
        assert p.array is p.array and not p.array.flags.writeable
        assert p.array.dtype == np.complex128 and p.array.tolist() == list(p.coeffs)


class TestEvaluate:
    def test_chebyshev_at_zero(self):
        assert evaluate(chebyshev_t(2), 0.0) == -1.0

    def test_identity(self):
        for w in (0.3 + 0.2j, -5.0, 2j):
            assert evaluate(polynomial(0, 1), w) == w

    def test_minimal_chebyshev_toy_point(self):
        val = evaluate(chebyshev_minimal(2), 0.8j)
        assert abs(val - (-57 / 50)) < 1e-15

    def test_overflow_raises(self):
        with pytest.raises(MagnitudeOverflow):
            evaluate(monomial(2), 1e200)

    def test_scaled_coefficient_overflow_raises(self):
        with pytest.raises(MagnitudeOverflow):
            evaluate(monomial(2, 1.0, scale2=5000), 2.0)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError):
            evaluate(polynomial(0, 1), complex(float("nan"), 0))


class TestEvaluateScaled:
    def test_pure_power(self):
        w = ScaledComplex.from_complex(1.0, 100)
        out = evaluate_scaled(monomial(2), w)
        assert out.mantissa == 1.0 and out.exponent == 200

    def test_seven(self):
        out = evaluate_scaled(chebyshev_t(2), ScaledComplex.from_complex(2.0))
        assert out.mantissa == 1.75 and out.exponent == 2
        assert out.to_complex() == 7.0

    def test_agreement_with_plain(self, rng):
        for _ in range(1000):
            deg = int(rng.integers(1, 9))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            if coeffs[-1] == 0:
                coeffs[-1] = 1.0
            p = Polynomial(tuple(map(complex, coeffs)))
            w = complex(*(10 * rng.uniform(-1, 1, 2)))
            plain = evaluate(p, w)
            scaled = evaluate_scaled(p, ScaledComplex.from_complex(w)).to_complex()
            if plain != 0:
                assert abs(plain - scaled) <= 1e-12 * abs(plain)

    def test_coefficient_with_modulus_past_double_range(self):
        c = 1.5e308 * (1 + 1j)
        out = evaluate_scaled(polynomial(c, 1), ScaledComplex.from_complex(1.0))
        assert 1.0 <= abs(out.mantissa) < 2.0
        k = out.exponent
        assert complex(math.ldexp(out.mantissa.real, k), math.ldexp(out.mantissa.imag, k)) == c + 1

    @pytest.mark.parametrize("z", [1.0, 0.9])
    def test_coefficients_near_double_max(self, z):
        # 1e308 + 1e308 z (2e308 at z = 1) overflows a double Horner; the rerun
        # on coefficients scaled by 2**-1024 does not
        mpmath = pytest.importorskip("mpmath")
        out = evaluate_scaled(polynomial(1e308, 1e308), ScaledComplex.from_complex(z))
        assert out.mantissa.imag == 0.0
        with mpmath.workdps(40):
            got = mpmath.mpf(out.mantissa.real) * mpmath.mpf(2) ** out.exponent
            exact = mpmath.mpf(1e308) + mpmath.mpf(1e308) * mpmath.mpf(z)
            assert abs(got - exact) <= 2 * EPS * exact

    def test_scale2_exactness(self):
        p = monomial(2, 1.5, scale2=4000)
        out = evaluate_scaled(p, ScaledComplex.from_complex(2.0))
        assert out.exponent == 4002 and out.mantissa == 1.5

    @given(st.lists(st.one_of(st.just(0j), finite_coeff, finite_coeff.map(lambda c: c.real),
                              finite_coeff.map(lambda c: c.imag * 1j),
                              st.tuples(finite_coeff, st.integers(-140, 140))
                              .map(lambda t: t[0] * 2.0 ** t[1]),
                              finite_coeff.map(lambda c: c * 2.0 ** 1020)),
                    min_size=1, max_size=14),
           st.integers(-2000, 2000), st.one_of(st.just(0j), finite_coeff),
           st.one_of(st.integers(-5000, 5000), st.integers(-140, 140)))
    @settings(max_examples=400)
    # acc = 2**128 meets c = 1j: the shifts where the old scaled sum began to drop terms
    @example([1j, 1.0], 0, 1.0, 128)
    @example([1j, 1.0], 0, 1.0, 129)
    @example([1.0, 1j], 0, 1.0, -128)
    # coefficients near 1.8e308 overflow an unscaled Horner even at |x| <= 1
    @example([1e308, 1e308], 0, 1.0, 0)
    @example([1e308, 1e308], 0, 0.9, 0)
    @example([1.5e308 * (1 + 1j), -1.5e308j, 1.5e308], 0, 0.6 + 0.7j, 0)
    @example([1.5e308, 1.5e308, 1.5e308], 0, 1.0, 3000)
    def test_within_horner_error_bound(self, coeffs, scale2, w0, w_exp):
        """|evaluate_scaled - p(w)| <= 16 (d+1) eps sum|a_j w^j|, plus underflow.

        The second term is the standard model's absolute error 2**-1074 per
        operation (Higham, Accuracy and Stability, 2.2), met by the Horner
        and by rounding w or 1/w to a double, scaled back out of double range.
        """
        mpmath = pytest.importorskip("mpmath")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs[-1] = 1.0
        p = Polynomial(tuple(complex(c) for c in coeffs), scale2)
        w = ScaledComplex.from_complex(w0, w_exp)
        out = evaluate_scaled(p, w)
        d = p.degree
        with mpmath.workdps(60):
            two = mpmath.mpf(2)
            x = mpmath.mpc(w.mantissa) * two ** w.exponent
            exact = sum(mpmath.mpc(c) * x ** j for j, c in enumerate(p.coeffs))
            scale = sum(abs(mpmath.mpc(c)) * abs(x) ** j for j, c in enumerate(p.coeffs))
            top = max([1] + [abs(mpmath.mpc(c)) for c in p.coeffs])
            bound = (16 * (d + 1) * EPS * scale
                     + 4 * (d + 1) * top * two ** -1074 * max(1, abs(x)) ** d)
            got = mpmath.mpc(out.mantissa) * two ** (out.exponent - scale2)
            assert abs(got - exact) <= bound


class TestScaledComplex:
    @given(st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(allow_nan=False, allow_infinity=False)),
           st.integers(-5000, 5000))
    @example(1.5e308 * (1 + 1j), 0)
    def test_from_complex_normalized(self, z, e):
        # both parts finite but |z| past 1.8e308 once overflowed abs()
        out = ScaledComplex.from_complex(z, e)
        if z == 0:
            assert out == ScaledComplex(0j, 0)
            return
        assert 1.0 <= abs(out.mantissa) < 2.0
        k = out.exponent - e
        back = complex(math.ldexp(out.mantissa.real, k), math.ldexp(out.mantissa.imag, k))
        top = max(abs(z.real), abs(z.imag))  # the smaller part may round to a subnormal
        assert abs(back.real - z.real) <= EPS * top and abs(back.imag - z.imag) <= EPS * top

    def test_round_trip(self):
        z = 3.25 - 0.5j
        assert ScaledComplex.from_complex(z).to_complex() == z

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf)])
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValueError, match="non-finite"):
            ScaledComplex.from_complex(z)

    def test_zero(self):
        zero = ScaledComplex.from_complex(0j, 7)
        assert zero == ScaledComplex(0j, 0)
        assert zero.to_complex() == 0j and zero.log_abs() == -math.inf

    @pytest.mark.parametrize("exponent", [1023, -1074])
    def test_double_range_edges(self, exponent):
        # 1.5 * 2**1023 is 1.35e308; 1.5 * 2**-1074 rounds to the subnormal 1e-323
        assert ScaledComplex(1.5, exponent).to_complex() == math.ldexp(1.5, exponent)

    @pytest.mark.parametrize("exponent", [1024, 5000, -1075, -5000])
    def test_out_of_double_range(self, exponent):
        w = ScaledComplex(1.5, exponent)
        with pytest.raises(MagnitudeOverflow):
            w.to_complex()
        assert w.log_abs() == pytest.approx(exponent * math.log(2) + math.log(1.5))

    def test_log_abs_past_float_exponents(self):
        # an exponent past 1.8e308 itself reads as +-inf, not OverflowError
        assert ScaledComplex(1.5, 10**400).log_abs() == math.inf
        assert ScaledComplex(1.5, -10**400).log_abs() == -math.inf


class TestCompose:
    def test_chebyshev_semigroup(self, compose):
        assert compose(chebyshev_t(2), chebyshev_t(3)) == chebyshev_t(6)


class TestChebyshev:
    def test_t3(self):
        assert chebyshev_t(3).coeffs == (0j, -3 + 0j, 0j, 4 + 0j)

    def test_t1(self):
        assert chebyshev_t(1).coeffs == (0j, 1 + 0j)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_subleading_coefficients_exact(self, n):
        T = chebyshev_t(n)
        assert T.coeffs[n - 1] == 0
        assert T.coeffs[n - 2] == -n * 2 ** (n - 3)
        t = chebyshev_minimal(n)
        assert t.coeffs[n - 2] == -n / 4

    def test_minimal_monic_up_to_100(self):
        for n in range(1, 101):
            assert chebyshev_minimal(n).coeffs[-1] == 1.0

    def test_composition_law_up_to_64(self, compose):
        # numpy's composition reproduces T_(mk) exactly: the coefficients are integers
        for m in range(1, 65):
            for k in range(1, 64 // m + 1):
                assert compose(chebyshev_t(m), chebyshev_t(k)) == chebyshev_t(m * k), (m, k)

    def test_chebyshev_error(self):
        # the stored maps are exact while T_n's numerators fit 53 bits; past that the
        # recurrence adds terms of one sign, so n roundings leave each coefficient within
        # (1 + 2**-53)**n - 1 of c T_n's, and far less in fact; chebyshev_t scales exactly
        assert all(chebyshev_minimal(n).chebyshev_error == 0 for n in range(1, 41))
        for n in (300, 600, 1000):
            g = chebyshev_minimal(n).chebyshev_error
            assert 2.0**-53 < g < n * 2.0**-53 / 25 and chebyshev_t(n).chebyshev_error == g, n
        # exact below 1/2, rounded up by one ulp: -3/8 against -1/2 (z**2 - 1/2), -1/2
        # against -3/4 (z**3 - 3z/4), 0.2499999 against 1/2 at 1/2 - 2e-7
        assert polynomial(-0.375, 0, 1).chebyshev_error == 0.25 * (1 + 2.0**-52)
        assert 1 / 3 <= polynomial(0, -0.5, 0, 1).chebyshev_error <= 1 / 3 + 1e-16
        assert 0.4999998 <= polynomial(-0.2500001, 0, 1).chebyshev_error < 0.5
        # inf from 1/2 on: where the floor refuses anyway, at once for a monomial
        for p in (polynomial(-0.25, 0, 1), polynomial(1, 0, 1), monomial(600),
                  monomial(2, 1.0, scale2=2**40), polynomial(1e300, 0, 1e-300)):
            assert p.chebyshev_error == math.inf, p.coeffs[0]
        for p in (polynomial(0, 1, 1), polynomial(-0.5, 0, 1j)):
            assert p.chebyshev_error == math.inf  # a term T_2 lacks
        # t_1001 by the monic recurrence is as close to c T_1001 as t_1000 to c T_1000,
        # but past the cap the floor's margin is not derived: inf
        t1001 = [0j, *chebyshev_minimal(1000).coeffs]
        for j, v in enumerate(chebyshev_minimal(999).coeffs):
            t1001[j] -= 0.25 * v
        assert Polynomial(tuple(t1001)).chebyshev_error == math.inf

    def test_minimal_coefficient_bits_and_shared_zeros(self):
        # t_1..t_1000 bit for bit, signs of zero included; the recurrence skips the
        # zero terms, so the 250,500 zero coefficients are one object, not one each
        h = hashlib.sha256()
        zeros = set()
        for n in range(1, 1001):
            for c in chebyshev_minimal(n).coeffs:
                h.update(struct.pack("<dd", c.real, c.imag))
                if not c:
                    zeros.add(id(c))
        assert h.hexdigest() == "923618654a3592695c5b789ee813d45a40c61b812e1ee67428ea6bb0a5a35f1e"
        assert len(zeros) == 1
        # T_1..T_1000 (scale2 included) as before; their zero terms share t_n's one 0j
        h = hashlib.sha256()
        kept = [chebyshev_t(n) for n in range(1, 1001)]  # alive, so no id is reused
        for p in kept:
            h.update(struct.pack("<q", p.scale2))
            for c in p.coeffs:
                h.update(struct.pack("<dd", c.real, c.imag))
                if not c:
                    zeros.add(id(c))
        assert h.hexdigest() == "754bd98c6dfda12b2cf70a7ba781d4b91e0507be971d94b3e02ee0e685ebddf9"
        assert len(zeros) == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            chebyshev_t(1001)
        with pytest.raises(ValueError):
            chebyshev_minimal(0)

    def test_large_degree_scale2_path(self):
        T = chebyshev_t(900)
        assert T.scale2 == 899
        # value agrees with the monic polynomial scaled by 2**899
        w = ScaledComplex.from_complex(1.5)
        a = evaluate_scaled(T, w)
        b = evaluate_scaled(chebyshev_minimal(900), w)
        assert a.exponent - b.exponent == 899
        assert abs(a.mantissa - b.mantissa) < 1e-12


class TestCauchyBound:
    def test_pure_power(self):
        assert monomial(5).root_bound == 1.0

    def test_shifted_square(self):
        assert polynomial(-2, 0, 1).root_bound == 3.0

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            polynomial(3).root_bound

    def test_coefficient_with_modulus_past_double_range(self):
        # 1.5e308 (1 + 1j): finite parts, modulus 2.1e308, which abs() cannot hold
        big = 1.5e308 * (1 + 1j)
        assert polynomial(0, 0, big).root_bound == 1.0
        assert polynomial(big, 0, big).root_bound == 2.0
        assert polynomial(big, 0, 0.5 * big).root_bound == 3.0
        assert polynomial(big, 1e-300).root_bound == math.inf

    @pytest.mark.parametrize("n", range(1, 21))
    def test_chebyshev_zeros_inside(self, n):
        t = chebyshev_minimal(n)
        bound = t.root_bound
        zeros = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
        assert np.all(np.abs(zeros) <= bound)
        vals = [evaluate(t, complex(z)) for z in zeros]
        assert max(abs(v) for v in vals) < 1e-12


def _parent_step(p, w, e):
    """poly._evaluate's rule with the band Horner always run first: off the band its
    value is thrown away for _far's."""
    if not e:
        h, s = poly._horner_abs(p.coeffs, w)
        a = math.hypot(h.real, h.imag)
        band = BAND_LOW <= a < math.inf
        if band or w == 0:
            mu = 1.0 if w == 0 else s / a if s < math.inf else poly._far(p, *poly._split(w, 0))[2]
            return (h, 0, mu) if band and not p.scale2 else (*poly._carry(h, p.scale2), mu)
        w, e = poly._split(w, 0)
    return poly._far(p, w, e)


def _same_step(p, w):
    """_evaluate and _parent_step give the same bits at (w, 0): repr tells -0.0 from 0.0
    and matches nan to nan."""
    got, want = _evaluate(p, w, 0), _parent_step(p, w, 0)
    return repr(got) == repr(want), (got, want)


def _scaled(c: complex, k: int) -> complex:
    return complex(math.ldexp(c.real, k), math.ldexp(c.imag, k))  # keeps subnormals


def _switch(p, x):
    """Adjacent positive doubles lo < hi near x with _below_band(p, lo) and not at hi."""
    lo, hi = (np.float64(x * f).view(np.int64) for f in (1 - 2.0**-20, 1 + 2.0**-20))
    assert _below_band(p, complex(lo.view(np.float64)))
    assert not _below_band(p, complex(hi.view(np.float64)))
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        if _below_band(p, complex(mid.view(np.float64))):
            lo = mid
        else:
            hi = mid
    return float(lo.view(np.float64)), float(hi.view(np.float64))


class TestPredictedExit:
    """A band step whose Horner would land below the band goes to _far first, with
    the same (m, e), so it returns the bits of the rule that ran the Horner first."""

    unit_part = st.floats(-1.99, 1.99)
    unit = st.builds(complex, unit_part, unit_part)

    @given(st.lists(st.one_of(st.just(0j), st.builds(_scaled, unit, st.integers(-1100, 1000))),
                    min_size=1, max_size=9),
           st.integers(-2000, 2000),
           st.one_of(st.just(0j), st.builds(_scaled, unit, st.integers(-1080, 1023))))
    @settings(max_examples=400)
    @example([2.0**-950, 0, 1], 7, 2.0**-600)
    @example([0, 2.0**-600, 0, 1], 0, 2.0**-400 * (1 + 1j))
    @example([0], 0, 5e-324)
    def test_same_bits_as_the_horner_first(self, coeffs, scale2, w):
        ok, detail = _same_step(polynomial(*coeffs, scale2=scale2), w)
        assert ok, detail

    # (map, threshold) pairs where the other condition holds: log2|w| = log_tiny, where
    # the higher terms drop, or log2|a_v w**v| = BAND_MIN_EXP - 2, where the kept term leaves
    THRESHOLDS = {
        "minimal-chebyshev-601": (lambda: chebyshev_minimal(601), "band"),
        "complex-scaled": (lambda: polynomial(0, 0, 1.5 - 0.5j, 0.25j, 0, 2 + 1j, scale2=-37),
                           "band"),
        "monomial": (lambda: monomial(3, 0.75 - 0.5j, scale2=-4), "band"),
        "square-plus-tiny": (lambda: polynomial(2.0**-950, 0, 1, scale2=7), "tiny"),
        "complex-tiny": (lambda: polynomial(2.0**-960 * (1 + 1j), 0, 0.5j, 0, 1, scale2=-3),
                         "tiny"),
        "subnormal-w": (lambda: polynomial(2.0**-1000, 1, scale2=5), "tiny"),
    }

    @pytest.mark.parametrize("name", sorted(THRESHOLDS))
    def test_last_bit_on_each_side(self, name):
        make, side = self.THRESHOLDS[name]
        p = make()
        if side == "tiny":
            x = 2.0**p.log_tiny
        else:
            j, mag = p._moduli
            x = 2.0 ** ((BAND_MIN_EXP - 2 - float(mag[0])) / int(j[0]))
        lo, hi = _switch(p, x)
        if name == "subnormal-w":
            assert hi < 2.0**-1022
        # the margin: where the exit is predicted the Horner lands below the band
        assert abs(poly._horner_abs(p.coeffs, lo)[0]) < BAND_LOW / 2
        for w in (lo, hi):
            for z in (complex(w), complex(-w), complex(0.0, w)):  # the same modulus
                ok, detail = _same_step(p, z)
                assert ok, (z, detail)

    @pytest.mark.parametrize("p", [polynomial(0), polynomial(2.0**-1000), polynomial(1.0),
                                   monomial(0, 1e-300j), monomial(2), monomial(700, 2.0**-900)],
                             ids=["zero", "tiny-constant", "one", "tiny-complex-constant",
                                  "square", "deep-monomial"])
    def test_constants_and_monomials(self, p):
        # log_tiny is inf with fewer than two nonzero terms; the zero polynomial has no
        # moduli at all, and its exit is always predicted
        assert p.log_tiny == math.inf
        for w in (5e-324, 2.0**-1000 * (1 - 1j), 2.0**-600, 0.3j, 1.0, 1e300,
                  1.5e308 * (1 + 1j)):
            ok, detail = _same_step(p, w)
            assert ok, (w, detail)
        assert _below_band(polynomial(0), 0.3j)

    def test_interior_orbits_discard_no_band_horner(self, monkeypatch, min_cheb):
        # the bench's deep_orbits interior starts (seed 1): the odd steps of t_n past
        # n = 450 land below the band, where a Horner run first was thrown away
        radius = escape_radius_search(min_cheb, 600)
        events, steps = [], Counter()
        horner, far, below, step = poly._horner_abs, poly._far, poly._below_band, green._evaluate

        def spied_horner(coeffs, x):
            events.append("horner")
            return horner(coeffs, x)

        def spied_far(p, m, e):
            events.append("far")
            return far(p, m, e)

        def spied_below(p, w):
            out = below(p, w)
            events.append(out and "exit")
            return out

        def spied_step(p, w, e):
            events.clear()
            out = step(p, w, e)
            if not e:
                steps["exits"] += "exit" in events
                if "horner" == next(ev for ev in events if ev):
                    steps["horners"] += 1
                    steps["discarded"] += "far" in events
            return out

        monkeypatch.setattr(poly, "_horner_abs", spied_horner)
        monkeypatch.setattr(poly, "_far", spied_far)
        monkeypatch.setattr(poly, "_below_band", spied_below)
        monkeypatch.setattr(green, "_evaluate", spied_step)
        for x in (-0.55, 0.85, -0.75, -0.15):
            green.orbit_bounded(min_cheb, x, 600, radius)
            green.green_nonauto(min_cheb, x, 600, radius)
        assert steps["discarded"] == 0
        assert (steps["horners"], steps["exits"]) == (3648, 576)
