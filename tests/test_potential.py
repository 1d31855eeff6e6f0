"""Tests for the V_q evaluator: routing, both quadrature engines, the
confluent-hypergeometric path, derivatives, the order recurrence, and the
Mills ratio."""
import math
import re

import mpmath as mp
import numpy as np
import pytest

import regcoulomb.potential as potential
from regcoulomb.bounds import vq_lower_exp
from regcoulomb.errors import DivergenceError, DomainError, NumericalError
from regcoulomb.potential import (
    METHODS,
    EvalResult,
    mills,
    vq,
    vq_neg1,
    vq_many,
    vq_next,
    vq_prime,
    vq_prime_many,
    vq_quadrature,
    vq_via_psi,
    vq_zero,
)
from regcoulomb.special import _phi_series, psi_eval

from oracles import (
    laplace_mpmath,
    mills_reference,
    rel_diff,
    vq_defining_reference,
    vq_laplace_reference,
    vq_prime_reference,
)

SQRT_PI = 1.772453850905516027298

# frozen reference values for V_q(x), computed with 40-digit arithmetic
# from the defining integral
VQ_REFERENCE = [
    (0.0, 1.0, 0.7578721561413121060434),
    (0.0, 2.0, 0.4526770499811745793626),
    (0.0, 0.05, 1.676723695617268310117),
    (0.0, 30.0, 0.0333148455936102162569),
    (0.0, 0.01, 1.752629771766503059279),
    (0.5, 1.0, 0.6809205902998781421036),
    (1.0, 1.0, 0.6210639219293439469783),
    (2.0, 1.0, 0.5342020585529920397663),
    (-0.45, 0.7, 1.101616449884117747691),
    (-0.5, 0.3, 1.899812790794525377835),
    (2.5, 0.3, 0.5890229936085349356142),
    (5.0, 10.0, 0.0971477592140917536041),
    (19.5, 2.0, 0.2046339483693250190402),
    (20.0, 50.0, 0.01991655018498506270636),
    (0.7, 2.3, 0.3825081889226492256738),
    (3.5, 0.05, 0.5156157481029478184192),
]


# ---------------------------------------------------------------------------
# domain types


class TestOrder:
    """Orders are plain floats, checked by every public function."""

    def test_sentinel(self):
        assert vq(-1.0, 2.0).method == "convention"
        assert vq_many(-1.0, [2.0])[0] == 0.5
        with pytest.raises(DomainError, match="the sentinel order q = -1 is not admitted"):
            vq_prime(-1.0, 1.0)

    def test_regular_orders(self):
        assert vq(np.float64(2.5), 1.0) == vq(2.5, 1.0)
        assert vq(0, 1.0) == vq(0.0, 1.0)

    @pytest.mark.parametrize("q", [-2.0, -1.0000001, math.inf, math.nan])
    def test_invalid_orders_rejected(self, q):
        if math.isfinite(q):
            message = f"order must satisfy q > -1 (or the sentinel -1), got {q}"
        else:
            message = f"order must be finite, got {q}"
        for call in (lambda: vq(q, 1.0), lambda: vq_many(q, [1.0]),
                     lambda: vq_next(q, 1.0, 1.0, 1.0), lambda: vq_lower_exp(q, 1.0)):
            with pytest.raises(DomainError, match=re.escape(message)):
                call()


class TestEvalResult:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(NumericalError):
            EvalResult(value=-1.0, abs_err_est=0.0, method="quadrature")
        with pytest.raises(NumericalError):
            EvalResult(value=math.inf, abs_err_est=0.0, method="quadrature")

    def test_values_are_builtin_floats(self):
        result = vq(0.5, 1.0)
        assert type(result.value) is float
        assert type(result.abs_err_est) is float
        assert result.method in METHODS


# ---------------------------------------------------------------------------
# value evaluation


class TestVqReferenceValues:
    @pytest.mark.parametrize("q, x, expected", VQ_REFERENCE)
    def test_auto_route(self, q, x, expected):
        result = vq(q, x)
        assert rel_diff(result.value, expected) < 1e-11
        assert result.abs_err_est <= 1e-8 * result.value

    def test_both_independent_integral_references(self):
        for q in (-0.45, 0.0, 0.7, 2.0, 5.0):
            for x in (0.1, 0.7, 1.0, 2.3, 5.0, 12.0):
                value = vq(q, x).value
                assert rel_diff(value, vq_defining_reference(q, x)) < 1e-9
                assert rel_diff(value, vq_laplace_reference(q, x)) < 1e-9


class TestVqZero:
    @pytest.mark.parametrize("q, expected", [
        (0.0, 1.772453850905516027298),
        (0.5, 1.128379167095512573896),
        (1.0, 0.8862269254527580136491),
        (2.0, 0.6646701940895685102368),
        (-0.45, 12.04739368620002952993),
    ])
    def test_limit_values(self, q, expected):
        assert rel_diff(vq_zero(q), expected) < 1e-13

    @pytest.mark.parametrize("q", [-0.5, -0.7])
    def test_divergent_orders_rejected(self, q):
        with pytest.raises(DivergenceError):
            vq_zero(q)

    def test_small_argument_approaches_limit(self):
        for q in (0.0, 0.5, 1.0, 2.0):
            assert rel_diff(vq(q, 1e-6).value, vq_zero(q)) < 1e-5


class TestSentinelOrder:
    def test_reciprocal_convention(self):
        assert vq_neg1(2.0) == 0.5
        result = vq(-1.0, 2.0)
        assert result.value == 0.5
        assert result.method == "convention"

    def test_sentinel_requires_positive_x(self):
        with pytest.raises(DomainError):
            vq(-1.0, 0.0)


class TestVqRouting:
    def test_route_tags(self):
        assert vq(0.0, 1.0).method == "closed-form"
        assert vq(0.3, 0.01).method == "psi-series"
        assert vq(2.0, 40.0).method == "psi-asymptotic"
        assert vq(1.0, 1.0).method == "quadrature"
        assert vq(0.3, 0.0).method == "limit-x0"

    def test_forced_methods_agree(self):
        # at (2, 3) the psi route takes the forced quadrature's own column, so
        # mpmath is the independent reference of each route
        for q, x in ((0.0, 1.0), (0.7, 0.4), (2.0, 3.0)):
            auto = vq(q, x).value
            quad = vq(q, x, method="quadrature").value
            psi = vq(q, x, method="psi").value
            want = laplace_mpmath(q, x)
            assert rel_diff(auto, quad) < 1e-9
            assert rel_diff(quad, psi) < 1e-9
            assert rel_diff(quad, want) < 1e-9 and rel_diff(psi, want) < 1e-9

    def test_closed_form_only_for_zero_order(self):
        assert rel_diff(vq(0.0, 3.0, method="closed-form").value,
                        vq(0.0, 3.0, method="quadrature").value) < 1e-11
        with pytest.raises(DomainError):
            vq(0.5, 3.0, method="closed-form")

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            vq(0.5, 1.0, method="nope")

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            vq(0.5, -1.0)

    def test_quadrature_and_psi_helpers_agree(self):
        # where psi's integral route takes V_q's own column the two helpers
        # give one number, so each is also checked against mpmath
        for q in (-0.5, 0.0, 0.7, 2.0, 5.0):
            for x in (0.1, 1.0, 4.0, 10.0):
                a = vq_quadrature(q, x)
                b = vq_via_psi(q, x)
                want = laplace_mpmath(q, x)
                assert rel_diff(a.value, b.value) < 1e-8
                assert rel_diff(a.value, want) < 1e-8 and rel_diff(b.value, want) < 1e-8

    def test_psi_helper_is_the_large_x_route(self):
        # beyond x = 30 both evaluate psi(1/2, 1/2-q, x^2): the same bits
        for q in (-0.9, -0.5, 0.3, 2.5, 40.0, 1e6):
            for x in (30.0, 57.3, 1e4, 1e150):
                a, b = vq_via_psi(q, x), vq(q, x)
                assert (a.value.hex(), a.abs_err_est.hex(), a.method) == (
                    b.value.hex(), b.abs_err_est.hex(), b.method), (q, x)

    def test_both_kummer_sums_of_the_fused_expansion_converge(self, monkeypatch):
        # x^2 <= 0.0025 and c = 1/2 - q is more than 1e-3 from every integer,
        # so every term ratio of both sums is below 0.005, except at most one,
        # below 2.5: both stop long before their 500-term limit.  Sampled over
        # the whole band, and at orders just outside each half-integer gap,
        # where that one ratio is near its largest, with x = 0.05 and
        # x^2 = 2|c| (capped at 0.0025), where the first sum's first ratio has
        # size 1 about q = 1/2
        flags = []

        def recorded(a, c, x):
            value, abs_sum, converged = _phi_series(a, c, x)
            flags.append(converged)
            return value, abs_sum, converged

        monkeypatch.setattr(potential, "_phi_series", recorded)
        rng = np.random.default_rng(17)
        qs = rng.uniform(-1.0, 170.62, 3000).tolist()
        xs = (10.0 ** rng.uniform(-300.0, math.log10(0.05), 3000)).tolist()
        points = [(q, x) for q, x in zip(qs, xs) if abs(q + 0.5 - round(q + 0.5)) > 1e-3]
        for half in np.arange(-0.5, 171.0).tolist():
            for q in (half - 1.000001e-3, half + 1.000001e-3):
                if -1.0 < q < 170.62:
                    c = 0.5 - q
                    points += [(q, x) for x in (math.sqrt(min(2.0 * abs(c), 0.0025)), 0.05, 1e-3)]
        for q, x in points:
            assert vq(q, x).method == "psi-series", (q, x)
        assert len(flags) == 2 * len(points) > 6000
        assert all(flags)


class TestHonestEstimates:
    """Errors against mpmath stay within the reported estimates."""

    def test_limit_at_zero_argument(self):
        # exp of a difference of two log-Gammas: their rounding, absolute in
        # the exponent, is relative in the value (2,500 times 4 eps near q = 870)
        for q in np.linspace(-0.49, 1000.0, 1000).tolist():
            got = vq(q, 0.0)
            with mp.workdps(40):
                want = mp.gammaprod([mp.mpf(q) + 0.5], [mp.mpf(q) + 1])
            assert abs(got.value - want) <= got.abs_err_est, q

    @pytest.mark.parametrize("q", [1e3, 1e4, 1e10, 1e16, 1e100, 1e306, 1e308])
    def test_limit_at_zero_argument_at_large_order(self, q):
        # the two log-Gammas, each about q log q, would cancel: at q = 1e16
        # their difference keeps no digit of V_q(0) = 1e-8, and at 1e308
        # both are inf
        got = vq(q, 0.0)
        with mp.workdps(30 + int(math.log10(q))):  # so that q + 1/2 is exact
            want = mp.gammaprod([mp.mpf(q) + 0.5], [mp.mpf(q) + 1])
        assert got.method == "limit-x0"
        assert abs(got.value - want) <= got.abs_err_est, got
        assert rel_diff(got.value, float(want)) <= 1e-15, got
        assert vq_zero(q) == got.value

    def test_tricomi_forms_and_the_fused_expansion(self):
        # psi(1/2, 1/2-q, x^2) by its Kummer expansion, and vq's fused
        # expansion, take x^(2q+1) from a rounded exponent, whose rounding is
        # a relative error of that term; each estimate counts it.  The second
        # sample spans the fused expansion's whole band: every order it
        # takes, and x down to 1e-300, where the psi route refuses the
        # subnormal x^2 below x = 1.5e-154
        rng = np.random.default_rng(11)
        qs = [6.892] + rng.uniform(-0.9, 12.0, 80).tolist()
        xs = [4.158e-3] + np.exp(rng.uniform(math.log(1e-3), math.log(0.05), 80)).tolist()
        band = np.random.default_rng(31)
        orders = band.uniform(-1.0, 170.62, 64).tolist()
        qs += [q for q in orders if abs(q + 0.5 - round(q + 0.5)) > 1e-3][:60]
        xs += (10.0 ** band.uniform(-300.0, math.log10(0.05), 60)).tolist()
        assert len(qs) == len(xs) == 141
        wants = [laplace_mpmath(q, x, dps=40) for q, x in zip(qs, xs)]
        for q, x, want in zip(qs, xs, wants):
            routes = [vq(q, x)] + ([vq_via_psi(q, x)] if x >= 1.5e-154 else [])
            assert routes[0].method == "psi-series", (q, x)
            for got in routes:
                assert abs(got.value - want) <= got.abs_err_est, (q, x, got.method)
        # the oracle at 40 digits gives the doubles it gives at 60
        for q, x, want in list(zip(qs, xs, wants))[-60::15]:
            assert want == laplace_mpmath(q, x, dps=60), (q, x)

    @pytest.mark.parametrize("q", [1e20, 3.9e34])
    def test_psi_route_at_orders_beyond_2_to_the_52(self, q):
        # q + 1 and q + 3/2 round there, but psi(1/2, 1/2-q, x^2) takes
        # neither; the oracle's exponent cancels from about q log q
        want = laplace_mpmath(q, 1.0, dps=30 + int(math.log10(q)))
        for got in (vq_via_psi(q, 1.0), vq(q, 1.0, method="psi")):
            assert abs(got.value - want) <= got.abs_err_est, got
            assert rel_diff(got.value, want) <= 1e-15, got

    def test_kummer_expansion_of_psi(self):
        # the Gamma coefficients carry the rounding of their arguments
        rng = np.random.default_rng(12)
        seen = 0
        for a, c, x in zip(rng.uniform(-2.0, 10.0, 150), rng.uniform(-10.0, 10.0, 150),
                           np.exp(rng.uniform(math.log(1e-3), 0.0, 150))):
            got = psi_eval(a, c, x)
            if got.method != "series":
                continue
            seen += 1
            with mp.workdps(30):
                want = mp.hyperu(a, c, x)
            assert abs(got.value - want) <= got.abs_err_est, (a, c, x)
        assert seen > 100

    @pytest.mark.parametrize("x", [40.0, 1e3, 1e6, 1e100, 1e150])
    @pytest.mark.parametrize("q", [-0.7, 0.3, 2.5, 11.5])
    def test_asymptotic_series_of_psi(self, q, x):
        # x^-2a = exp(-a log x^2) rounds its argument; at x = 1e150 that is
        # 18 times the series' own estimate
        got = vq(q, x)
        assert got.method == "psi-asymptotic"
        with mp.workdps(40):
            want = mp.hyperu(mp.mpf(0.5), 0.5 - mp.mpf(q), mp.mpf(x) ** 2)
        assert abs(got.value - want) <= got.abs_err_est, (q, x)

    @pytest.mark.parametrize("q, x", [(35.37882258700256, 7.062779953187867e112),
                                      (502.1453380865208, 1.549431034032023e139),
                                      (175.99475685174542, 3.0565465624288243e58)])
    def test_asymptotic_series_at_large_order(self, q, x):
        # above q = 12 the oracle is mp.quad, whose absolute tolerance it
        # scales out: at these points V_q is about 1/x
        for got in (vq(q, x), vq_via_psi(q, x)):
            assert got.method == "psi-asymptotic"
            assert abs(got.value - laplace_mpmath(q, x)) <= got.abs_err_est, (q, x)


# ---------------------------------------------------------------------------
# derivatives


class TestVqPrime:
    # frozen references (40-digit arithmetic on the differentiated integral)
    @pytest.mark.parametrize("q, x, expected", [
        (0.0, 1.0, -0.4842556877173757879133),
        (1.0, 1.0, -0.2736164684239363181301),
        (2.0, 0.5, -0.1533974149521845598688),
        (5.0, 3.0, -0.05409352907664318993828),
        (0.5, 2.0, -0.1668504644932365476348),
    ])
    def test_reference_values(self, q, x, expected):
        assert rel_diff(vq_prime(q, x), expected) < 1e-10

    def test_three_methods_pairwise_agree(self):
        for q in (0.0, 1.0, 2.0):
            for x in (0.5, 1.0, 2.0, 5.0):
                values = [vq_prime(q, x, method=m)
                          for m in ("integral", "differ", "difvq")]
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert rel_diff(values[i], values[j]) < 1e-8

    def test_agrees_with_independent_reference(self):
        for q in (-0.4, 0.0, 1.5, 4.0):
            for x in (0.2, 1.0, 3.0):
                assert rel_diff(vq_prime(q, x), vq_prime_reference(q, x)) < 1e-9

    def test_always_negative(self):
        for q in (-0.9, -0.5, 0.0, 2.0, 7.0):
            for x in (0.05, 1.0, 10.0):
                assert vq_prime(q, x) < 0.0

    def test_difference_form_uses_sentinel_at_zero_order(self):
        # at q = 0 the difference form reads 2x(V_0(x) - 1/x)
        for x in (0.5, 1.0, 3.0):
            expected = 2.0 * x * (vq(0.0, x).value - 1.0 / x)
            assert rel_diff(vq_prime(0.0, x, method="difvq"), expected) < 1e-12

    def test_difference_form_requires_nonnegative_order(self):
        with pytest.raises(DomainError):
            vq_prime(-0.5, 1.0, method="difvq")

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            vq_prime(0.5, 1.0, method="nope")


class TestOverflowWithoutWarnings:
    """Intermediates that would overflow raise NumericalError (NaN from the
    batch calls) before NumPy can warn; any warning fails a test here."""

    def test_series_route_at_large_order(self):
        # Gamma(q + 1/2) overflows, so the series coefficient would be inf * 0;
        # vq and vq_many send such orders at small x to quadrature instead
        assert vq(200.0, 0.01).method == "quadrature"
        assert rel_diff(vq(200.0, 0.01).value, laplace_mpmath(200.0, 0.01)) <= 1e-14
        assert np.isnan(vq_many(-0.5, [1e-200])).all()
        # 1/Gamma(q + 1) is 0 from q = 170.62, where Gamma(q + 1/2) is finite
        for q in (170.65, 170.9, 171.0):
            got = vq(q, 0.002)
            assert got.method == "quadrature"
            assert rel_diff(got.value, laplace_mpmath(q, 0.002)) <= 1e-14

    def test_derivative_integral_at_huge_argument(self):
        # x^2 overflows beyond about 1.34e154
        with pytest.raises(NumericalError, match="did not converge"):
            vq_prime(1.0, 1e160)
        got = vq_prime_many(1.0, [1e160, 1.0])
        assert np.isnan(got[0])
        assert rel_diff(got[1], vq_prime(1.0, 1.0)) <= 1e-13

    def test_forced_quadrature_at_huge_argument(self):
        with pytest.raises(NumericalError, match="did not converge"):
            vq(1.0, 1e160, method="quadrature")

    def test_tricomi_routes_at_huge_argument(self):
        # a valid x whose square overflows is a numerical failure, not a
        # domain error, and the batch call returns NaN for it
        for call in (vq, vq_via_psi):
            with pytest.raises(NumericalError, match=r"x\^2 overflows"):
                call(0.3, 1.4e154)
        got = vq_many(0.3, [1e200, 1.0])
        assert np.isnan(got[0])
        assert got[1] == vq(0.3, 1.0).value

    def test_tricomi_routes_at_tiny_argument(self):
        # a valid x whose square underflows to 0 is a numerical failure too,
        # not the Tricomi function's domain error at x^2 = 0
        for q in (0.3, -0.9):
            for call in (vq_via_psi, lambda q, x: vq(q, x, method="psi")):
                with pytest.raises(NumericalError, match=r"x\^2 underflows to 0"):
                    call(q, 1e-300)

    def test_psi_route_where_the_power_of_x_underflows(self):
        # x^(2q+1) is 1e-1100 at (5, 1e-100): the psi route still gives V_q,
        # with the bits of the auto route
        assert vq_via_psi(5.0, 1e-100) == vq(5.0, 1e-100)
        assert vq_via_psi(5.0, 1e-100).value == 0.43618981487127934
        # a subnormal x^2 is refused before psi is evaluated: it is rounded
        # by up to 100% relative (here about 1e-5), which no estimate counts
        with pytest.raises(NumericalError, match=r"x\^2 underflows to 1e-320 at x=1e-160"):
            vq_via_psi(-0.9, 1e-160)

    def test_an_order_whose_step_overflows(self):
        # from q about 6e306 the trapezoid step's c log(tol) overflows: each
        # route fails numerically (the step was 0, and a division by it
        # raised ZeroDivisionError), and the batch calls give NaN at that point
        for call in (vq, vq_prime, vq_via_psi, lambda q, x: vq(q, x, method="quadrature")):
            with pytest.raises(NumericalError):
                call(1e308, 1.0)
        for many, scalar in ((vq_many, lambda q, x: vq(q, x).value), (vq_prime_many, vq_prime)):
            got = many([0.5, 1e308], [1.0, 1.0])
            assert got[0] == scalar(0.5, 1.0) and np.isnan(got[1])

    def test_an_order_whose_column_sums_cannot_be_formed(self):
        # at q = 1.6e18 the trapezoid column's M0 sums to 0: each route fails
        # numerically (a division by zero raised ZeroDivisionError), and the
        # batch calls give NaN at that point
        q, x = 1.5873361110102054e18, 32737.85095948537
        for call in (vq, vq_prime, lambda q, x: psi_eval(0.5, 0.5 - q, x * x)):
            with pytest.raises(NumericalError):
                call(q, x)
        for many in (vq_many, vq_prime_many):
            got = many(q, [x, 1.0])
            assert np.isnan(got[0]) and np.isfinite(got[1])


# ---------------------------------------------------------------------------
# order recurrence


class TestVqNext:
    def test_reproduces_direct_evaluation(self):
        for x in (0.5, 1.0, 3.0):
            prev = vq_neg1(x)
            cur = vq(0.0, x).value
            for k in range(5):
                nxt = vq_next(float(k), cur, prev, x)
                assert rel_diff(nxt, vq(float(k + 1), x).value) < 1e-8
                prev, cur = cur, nxt

    def test_first_step_closed_form(self):
        # 2 V_1(x) = (1 - 2x^2) V_0(x) + 2x
        for x in (0.5, 1.0, 3.0):
            v0 = vq(0.0, x).value
            expected = ((1.0 - 2.0 * x * x) * v0 + 2.0 * x) / 2.0
            assert rel_diff(vq_next(0.0, v0, vq_neg1(x), x), expected) < 1e-13

    def test_nonpositive_result_rejected(self):
        with pytest.raises(NumericalError):
            vq_next(0.0, 5.0, 1e-6, 3.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            vq_next(-0.5, 1.0, 1.0, 1.0)     # q must be >= 0
        with pytest.raises(DomainError):
            vq_next(0.0, 1.0, 1.0, 0.0)      # x must be positive


# ---------------------------------------------------------------------------
# Mills ratio


class TestMills:
    @pytest.mark.parametrize("x, expected", [
        (1.0, 0.6556795424187984715439),
        (2.0, 0.4213692292880544732249),
        (0.7, 0.774893848779390627069),
        (3.0, 0.3045902987101032957336),
    ])
    def test_reference_values(self, x, expected):
        assert rel_diff(mills(x), expected) < 1e-13

    def test_zero_argument(self):
        assert rel_diff(mills(0.0), math.sqrt(math.pi / 2.0)) < 1e-15

    def test_agrees_with_tail_integral_reference(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert rel_diff(mills(x), mills_reference(x)) < 1e-11

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            mills(-0.1)

    def test_relation_to_zero_order_potential(self):
        # m(x) = V_0(x / sqrt(2)) / sqrt(2)
        for x in (0.3, 1.0, 4.0):
            lhs = mills(x)
            rhs = vq(0.0, x / math.sqrt(2.0)).value / math.sqrt(2.0)
            assert rel_diff(lhs, rhs) < 1e-13
