"""Tests for the closed-form Mills-ratio bounds and the V_q envelopes."""
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from regcoulomb.bounds import (
    MILLS_F3_THRESHOLD,
    MillsBoundRow,
    VqEnvelope,
    mills_bounds,
    mills_f1,
    mills_f2,
    mills_f3,
    mills_f3_raw,
    mills_f4,
    mills_f5,
    vq_envelope,
    vq_lower_exp,
    vq_lower_kratzel,
    vq_upper_agm,
)
from regcoulomb.errors import DomainError
from regcoulomb.potential import mills, vq, vq_zero

from oracles import rel_diff

SQRT_PI = 1.772453850905516027298
GAMMA_3_4 = 1.225416702465177645129


# ---------------------------------------------------------------------------
# the five Mills bounds


class TestMillsBoundValues:
    def test_unit_argument_closed_forms(self):
        assert mills_f1(1.0) == 0.5
        assert mills_f2(1.0) == 1.0
        assert mills_f3(1.0) == 1.0
        assert rel_diff(mills_f4(1.0), 0.7071067811865475244008) < 1e-15
        assert rel_diff(mills_f5(1.0), 0.8228756555322952952508) < 1e-15

    def test_threshold_constant(self):
        # sqrt(sqrt(2) - 1): below it the cubic-over-quartic bound is invalid
        assert rel_diff(MILLS_F3_THRESHOLD, 0.6435942529055826247354) < 1e-15

    def test_f3_not_applicable_at_or_below_threshold(self):
        assert mills_f3(MILLS_F3_THRESHOLD) is None
        assert mills_f3(0.5) is None
        assert mills_f3(MILLS_F3_THRESHOLD + 1e-9) is not None

    def test_f3_denominator_is_never_zero_above_threshold(self):
        # mills_f3 admits x > MILLS_F3_THRESHOLD, where x^4 + 2x^2 - 1 > 0;
        # no double in the first 2^20 ulps above rounds it to 0.  Beyond
        # them, up to x = 1, it exceeds 4e-10, and its rounding is below
        # 1e-15; above 1 it exceeds 2
        ulp = math.ulp(MILLS_F3_THRESHOLD)
        xs = [MILLS_F3_THRESHOLD + k * ulp for k in range(1, 2 ** 20 + 1)]
        assert xs[-1] < 1.0 and math.ulp(xs[-1]) == ulp
        assert 0.0 not in [x ** 4 + 2.0 * x * x - 1.0 for x in xs]
        end = Fraction(xs[-1])
        assert end ** 4 + 2 * end ** 2 - 1 > Fraction(4, 10 ** 10)

    def test_f3_raw_exposes_the_pole(self):
        # the denominator root is irrational, so the nearest float gives a
        # huge value rather than an exact division by zero
        assert abs(mills_f3_raw(MILLS_F3_THRESHOLD)) > 1e12
        assert mills_f3_raw(0.5) < 0.0          # finite but negative below
        assert mills_f3_raw(1.0) == 1.0

    def test_removable_point_of_f5(self):
        # at x = sqrt(2) the printed arrangement is 0/0; the stabilized
        # form gives exactly 3 sqrt(2) / 7
        x = math.sqrt(2.0)
        expected = 3.0 * math.sqrt(2.0) / 7.0
        assert rel_diff(mills_f5(x), expected) < 1e-15
        assert rel_diff(mills_f5(x), 0.6060915267313264494864) < 1e-15

    @pytest.mark.parametrize("fn", [mills_f1, mills_f2, mills_f4, mills_f5,
                                    mills_f3_raw, mills_bounds])
    def test_nonpositive_arguments_rejected(self, fn):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-1.0)


class TestMillsBoundsAtHugeArguments:
    """Where x^2 or x^4 overflows, f1, f3, f4 and f5 switch to their forms
    in u = 1/x^2; each bound then keeps its value, which is ~1/x like m."""

    @staticmethod
    def references(x: float) -> dict:
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            X = mp.mpf(x)
            return {
                "f1": X / (X * X + 1),
                "f2": 1 / X,
                "f3": X * (X * X + 1) / (X ** 4 + 2 * X * X - 1),
                "f4": 2 * X / (X * X - 1 + mp.sqrt(X ** 4 + 6 * X * X + 1)),
                "f5": 6 * X / (5 * X * X - 3 + mp.sqrt(X ** 4 + 18 * X * X + 9)),
                # asymptotic series; the first omitted term is 15/x^7
                "m": (1 - 1 / X ** 2 + 3 / X ** 4) / X,
            }

    @pytest.mark.parametrize("x", [1e76, 1e78, 1e160, 1e300])
    def test_bounds_match_mpmath(self, x):
        row = mills_bounds(x)
        for name, ref in self.references(x).items():
            assert rel_diff(getattr(row, name), float(ref)) <= 4e-16, (name, x)

    def test_direct_forms_kept_below_the_overflow(self):
        # the largest x whose x^4 is finite still takes the direct forms
        x = 1e76
        assert mills_f3_raw(x) == x * (x * x + 1.0) / (x ** 4 + 2.0 * x * x - 1.0)
        assert mills_f1(1e150) == 1e150 / (1e150 * 1e150 + 1.0)


class TestMillsBoundsNeverRaise:
    def test_bounds_and_the_ratio_from_the_least_subnormal_to_1e77(self):
        # the verifier calls mills_bounds(x) and mills(x +- h) with no handler
        # at every x of its grid up to 1e77; a float / or * that overflows
        # gives inf (f2 = 1/x at 5e-324), not an exception
        rng = np.random.default_rng(23)
        xs = (10.0 ** rng.uniform(-323.3, 77.0, 2000)).tolist() + [
            5e-324, sys.float_info.min, 1e-5, MILLS_F3_THRESHOLD,
            math.nextafter(MILLS_F3_THRESHOLD, 1.0), 1.0, math.sqrt(2.0), 1e77]
        assert min(xs) == 5e-324 and sum(x < sys.float_info.min for x in xs) > 5
        for x in xs:
            row = mills_bounds(x)
            assert row.m > 0.0 and row.f2 > 0.0, x
            h = 1e-5 * max(1.0, x)
            if x - h > 0.0:
                assert mills(x + h) > 0.0 and mills(x - h) > 0.0, x
        assert mills_bounds(5e-324).f2 == math.inf


class TestMillsBoundAlgebra:
    """Each two-regime bound must satisfy its cross-multiplied defining
    identities everywhere, which checks the two arrangements against each
    other without dividing by small quantities."""

    def test_f4_identities(self):
        for x in np.geomspace(0.05, 30.0, 41):
            root = math.sqrt(x ** 4 + 6.0 * x * x + 1.0)
            f4 = mills_f4(float(x))
            scale = 1.0 + x * x + root
            assert abs(f4 * (x * x - 1.0 + root) - 2.0 * x) < 1e-13 * scale
            assert abs(4.0 * x * f4 - (1.0 - x * x + root)) < 1e-13 * scale

    def test_f5_identities(self):
        for x in np.geomspace(0.05, 30.0, 41):
            root = math.sqrt(x ** 4 + 18.0 * x * x + 9.0)
            f5 = mills_f5(float(x))
            scale = 1.0 + 5.0 * x * x + root
            assert abs(f5 * (5.0 * x * x - 3.0 + root) - 6.0 * x) < 1e-13 * scale
            assert abs(4.0 * x * (2.0 - x * x) * f5
                       - (root - 5.0 * x * x + 3.0)) < 1e-13 * scale


class TestMillsBoundOrdering:
    def test_bounds_bracket_the_ratio(self):
        for x in np.geomspace(0.05, 30.0, 60):
            x = float(x)
            m = mills(x)
            assert mills_f1(x) < m < mills_f2(x)
            assert m < mills_f4(x)
            assert m < mills_f5(x)
            f3 = mills_f3(x)
            if f3 is not None:
                assert m < f3

    def test_f3_below_f2_beyond_one(self):
        for x in np.linspace(1.001, 30.0, 40):
            assert mills_f3(float(x)) < mills_f2(float(x))

    def test_row_bundle_matches_individual_functions(self):
        row = mills_bounds(0.8)
        assert isinstance(row, MillsBoundRow)
        assert row.x == 0.8
        assert row.f1 == mills_f1(0.8)
        assert row.f2 == mills_f2(0.8)
        assert row.f3 == mills_f3(0.8)
        assert row.f4 == mills_f4(0.8)
        assert row.f5 == mills_f5(0.8)
        assert row.m == mills(0.8)
        assert mills_bounds(0.5).f3 is None


# ---------------------------------------------------------------------------
# V_q envelopes


class TestEnvelopeValues:
    def test_exponential_lower_envelope_closed_form(self):
        # 2^{q+1} x^{2q+1} / (1 + 2x^2)^{q+1}
        assert rel_diff(vq_lower_exp(0.0, 1.0), 2.0 / 3.0) < 1e-15
        assert rel_diff(vq_lower_exp(1.0, 2.0), 4.0 * 8.0 / 81.0) < 1e-14

    def test_agm_upper_envelope_closed_form(self):
        # Gamma(q + 3/4) / (sqrt(2 x) Gamma(q + 1))
        assert rel_diff(vq_upper_agm(0.0, 1.0), GAMMA_3_4 / math.sqrt(2.0)) < 1e-14
        assert rel_diff(vq_upper_agm(0.0, 1.0), 0.8665004600923849814447) < 1e-13
        assert rel_diff(vq_upper_agm(1.0, 1.0), 0.6498753450692887360835) < 1e-13
        assert rel_diff(vq_upper_agm(0.0, 2.0), GAMMA_3_4 / 2.0) < 1e-14

    @pytest.mark.parametrize("q", [1e3, 1e4, 1e10, 1e16, 1e100, 1e306, 1e308])
    def test_agm_upper_envelope_at_large_order(self, q):
        # the two log-Gammas, each about q log q, would cancel: at q = 1e16
        # their difference keeps no digit of the envelope's 7.07e-5 at x = 1,
        # and at 1e308 both are inf
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30 + int(math.log10(q))):  # so that q + 3/4 is exact
            want = mp.gammaprod([mp.mpf(q) + 0.75], [mp.mpf(q) + 1]) / mp.sqrt(2)
        assert rel_diff(vq_upper_agm(q, 1.0), float(want)) <= 1e-15

    def test_kratzel_lower_envelope_closed_form_at_zero_order(self):
        # for q = 0 the envelope collapses to sqrt(pi) e^{-sqrt(2) x}
        for x in np.geomspace(0.05, 10.0, 15):
            expected = SQRT_PI * math.exp(-math.sqrt(2.0) * float(x))
            assert rel_diff(vq_lower_kratzel(0.0, float(x)), expected) < 1e-9
        assert rel_diff(vq_lower_kratzel(0.0, 1.0),
                        0.4309131921674966492004) < 1e-9

    def test_kratzel_envelope_approaches_limit_value(self):
        assert rel_diff(vq_lower_kratzel(0.0, 1e-6), vq_zero(0.0)) < 1e-5

    def test_kratzel_envelope_decreasing_in_x(self):
        for q in (-0.5, 0.0, 2.0):
            values = [vq_lower_kratzel(q, float(x))
                      for x in np.geomspace(0.1, 10.0, 9)]
            assert all(b < a for a, b in zip(values, values[1:]))


class TestEnvelopeOrdering:
    def test_envelopes_bracket_the_potential(self):
        for q in (-0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            for x in np.geomspace(0.1, 20.0, 13):
                x = float(x)
                value = vq(q, x).value
                assert vq_lower_exp(q, x) < value
                assert vq_lower_kratzel(q, x) < value
                assert value < vq_upper_agm(q, x)

    def test_envelope_bundle(self):
        env = vq_envelope(1.0, 2.0)
        assert isinstance(env, VqEnvelope)
        assert env.x == 2.0
        assert env.lower_exp == vq_lower_exp(1.0, 2.0)
        assert env.lower_kratzel == vq_lower_kratzel(1.0, 2.0)
        assert env.upper_agm == vq_upper_agm(1.0, 2.0)
        assert rel_diff(env.value, vq(1.0, 2.0).value) == 0.0
        assert env.lower_exp < env.value < env.upper_agm


class TestEnvelopeDomain:
    def test_agm_envelope_needs_order_above_minus_three_quarters(self):
        with pytest.raises(DomainError):
            vq_upper_agm(-0.75, 1.0)
        with pytest.raises(DomainError):
            vq_upper_agm(-0.8, 1.0)
        assert vq_upper_agm(-0.74, 1.0) > 0.0

    def test_envelope_bundle_drops_agm_below_threshold(self):
        env = vq_envelope(-0.8, 1.0)
        assert env.upper_agm is None
        assert env.lower_exp < env.value
        assert env.lower_kratzel < env.value

    def test_positive_x_required(self):
        for fn in (vq_lower_exp, vq_upper_agm, vq_lower_kratzel, vq_envelope):
            with pytest.raises(DomainError):
                fn(0.5, 0.0)

    def test_order_above_minus_one_required(self):
        for fn in (vq_lower_exp, vq_lower_kratzel, vq_envelope):
            with pytest.raises(DomainError):
                fn(-1.0, 1.0)
