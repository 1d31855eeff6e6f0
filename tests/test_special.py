"""Tests for the special-function layer: log-gamma, scaled erfc, Kummer Phi,
Tricomi psi (all four routes), and the Kraetzel integral."""
import math
import random
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regcoulomb.quadrature as quadrature
import regcoulomb.special as special
from regcoulomb import vq, vq_lower_kratzel, vq_via_psi
from regcoulomb.errors import DivergenceError, DomainError, NumericalError
from regcoulomb.special import (
    PsiEval,
    _bessel_k,
    _psi_series,
    erfc,
    erfc_scaled,
    gamma,
    kratzel_z,
    kummer_phi,
    ln_gamma,
    psi_eval,
    rgamma,
    tricomi_psi,
)
from regcoulomb.verify import default_grid

from oracles import (
    kratzel_bessel_reference,
    kratzel_mpmath,
    kratzel_quad_reference,
    laplace_mpmath,
    phi_scipy_reference,
    psi_integral_reference,
    psi_scipy_reference,
    rel_diff,
)

SQRT_PI = 1.772453850905516027298


# ---------------------------------------------------------------------------
# ln_gamma / erfc


class TestLnGamma:
    # reference values computed with 40-digit arithmetic
    @pytest.mark.parametrize("a, expected", [
        (0.5, 0.5723649429247000870717),
        (1.0, 0.0),
        (2.3, 0.1541894549596305810899),
        (10.0, 12.80182748008146961121),
        (170.0, 701.4372638087370853465),
        (1e-3, 6.907178885383853682512),
    ])
    def test_reference_values(self, a, expected):
        got = ln_gamma(a)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))

    @pytest.mark.parametrize("a", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, a):
        with pytest.raises(DomainError):
            ln_gamma(a)


class TestErfc:
    @pytest.mark.parametrize("x, expected", [
        (1.0, 0.1572992070502851306588),
        (0.5, 0.4795001221869534623173),
        (3.7, 1.671510579091462023741e-7),
    ])
    def test_erfc_reference_values(self, x, expected):
        assert rel_diff(erfc(x), expected) < 1e-13

    @pytest.mark.parametrize("x, expected", [
        (1.0, 0.4275835761558070044108),
        (30.0, 0.01879588886141675149713),
        (1e4, 0.00005641895807268084115235),
    ])
    def test_scaled_erfc_reference_values(self, x, expected):
        assert rel_diff(erfc_scaled(x), expected) < 1e-13

    def test_scaled_form_consistent_where_both_finite(self):
        for x in (0.0, 0.3, 1.0, 2.5, 5.0):
            assert rel_diff(erfc_scaled(x), math.exp(x * x) * erfc(x)) < 1e-12

    def test_range_ends(self):
        # e^900 erfc(-30) overflows; at 1e308 the value is subnormal, and
        # 1/x is formed first, so x sqrt(pi) never overflows
        assert erfc_scaled(-30.0) == math.inf
        assert erfc_scaled(1e308) == 5.641895835477565e-309
        assert erfc_scaled(26.0) == 0.021683584850562907  # mpmath: ...2906616


# ---------------------------------------------------------------------------
# the standard-library kernels against mpmath
#
# Each bound is at or below the worst relative error that SciPy's function
# (gammaln, gamma, rgamma, erfcx, and kve inside kratzel_z) had on the same
# points, measured with mpmath at 40 digits before the switch.

_DOUBLE_MAX = mp.mpf(sys.float_info.max)
_DOUBLE_MIN = sys.float_info.min


def _mp40(fn, *args):
    """``fn(*args)`` evaluated with mpmath at 40 digits."""
    with mp.workdps(40):
        return fn(*args)


def _erfc_scaled_mpmath(x: float) -> mp.mpf:
    def value(x):
        if x > 1e4:  # DLMF 7.12.1; six terms are exact to 40 digits here
            terms = (mp.fac2(2 * k - 1) * (-1) ** k / (2 * x * x) ** k for k in range(6))
            return mp.fsum(terms) / (x * mp.sqrt(mp.pi))
        return mp.exp(x * x) * mp.erfc(x)

    return _mp40(value, mp.mpf(x))


def _kratzel_mpmath(nu: float, t: float) -> mp.mpf:
    return _mp40(lambda: 2 * mp.mpf(t) ** (mp.mpf(nu) / 2) * mp.besselk(nu, 2 * mp.sqrt(t)))


def _mp_rel(got: float, want: mp.mpf) -> float:
    return float(_mp40(lambda: abs(mp.mpf(got) - want) / abs(want)))


class TestKernelsAgainstMpmath:
    def test_erfc_scaled(self):
        rng = random.Random(9)
        xs = ([rng.uniform(-26.0, 0.5) for _ in range(300)]
              + [rng.uniform(0.5, 26.0) for _ in range(300)]
              + [10.0 ** rng.uniform(math.log10(26.0), 308.0) for _ in range(300)])
        worst = max(_mp_rel(erfc_scaled(x), _erfc_scaled_mpmath(x)) for x in xs)
        # SciPy: 5.3e-16 for x >= 0 and 5.7e-14 below, where it rounds x^2
        # before the exponential; here 4.6e-16
        assert worst <= 5.3e-16

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-26.0, 1e308))
    def test_erfc_scaled_anywhere(self, x):
        assert _mp_rel(erfc_scaled(x), _erfc_scaled_mpmath(x)) <= 5.3e-16

    def test_kratzel_bessel_form_on_the_default_grid(self):
        grid = default_grid()
        worst = max(
            _mp_rel(kratzel_z(1.0, q + 0.5, 0.5 * x * x), _kratzel_mpmath(q + 0.5, 0.5 * x * x))
            for q in grid.q_values for x in grid.x_values
        )
        assert worst <= 2.5e-15  # SciPy's kve: 4.7e-14 (at nu = 0.8, t = 0.83); here 1.9e-15

    def test_kratzel_bessel_form_over_a_wide_box(self):
        # nu in [-30, 60], t in [1e-14, 1e6]; the worst points take the
        # quadrature at large nu and tiny t, where e^z K_nu overflows
        rng = random.Random(10)
        worst = 0.0
        for _ in range(400):
            nu, t = rng.uniform(-30.0, 60.0), 10.0 ** rng.uniform(-14.0, 6.0)
            want = _kratzel_mpmath(nu, t)
            if want > _DOUBLE_MAX:
                with pytest.raises(NumericalError):
                    kratzel_z(1.0, nu, t)
            elif want < _DOUBLE_MIN:  # underflows without an error
                assert 0.0 <= kratzel_z(1.0, nu, t) < _DOUBLE_MIN
            else:
                worst = max(worst, _mp_rel(kratzel_z(1.0, nu, t), want))
        assert worst <= 5e-14  # SciPy-backed: 9.4e-14; here 3.8e-14

    def test_gamma_family(self):
        rng = random.Random(11)
        points = ([10.0 ** rng.uniform(-300.0, 0.0) for _ in range(200)]
                  + [10.0 ** rng.uniform(0.0, 3.0) for _ in range(600)])
        worst_ln = max(_mp_rel(ln_gamma(a), _mp40(mp.loggamma, a)) for a in points)
        # SciPy: 1.1e-14, near the zero at 2; here 7.3e-16
        assert worst_ln <= 1e-15
        finite = [a for a in points if a < 171.6]
        worst_gamma = max(_mp_rel(gamma(a), _mp40(mp.gamma, a)) for a in finite)
        worst_rgamma = max(_mp_rel(rgamma(a), _mp40(mp.rgamma, a)) for a in finite)
        assert worst_gamma <= 5.3e-16  # SciPy: 5.3e-16; here 4.8e-16
        assert worst_rgamma <= 5.7e-16  # SciPy: 5.7e-16; here 4.7e-16

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1000.0, exclude_min=True))
    def test_ln_gamma_anywhere(self, a):
        # relative to max(1, |log Gamma|): the absolute error near the zeros
        want = _mp40(mp.loggamma, a)
        assert float(abs(ln_gamma(a) - want)) <= 2.5e-16 * max(1.0, float(abs(want)))


class TestKernelEdges:
    @pytest.mark.parametrize("y", [0.0, -1.0, -3.0, -170.0])
    def test_rgamma_is_zero_at_the_poles(self, y):
        assert rgamma(y) == 0.0
        assert math.isnan(gamma(y))

    @pytest.mark.parametrize("y", [171.7, 200.0, 1e300])
    def test_rgamma_is_zero_where_gamma_overflows(self, y):
        assert rgamma(y) == 0.0
        assert gamma(y) == math.inf

    def test_gamma_signs_at_the_edges(self):
        assert gamma(-1e-310) == -math.inf  # overflows next to the pole at 0
        assert rgamma(-180.5) == -math.inf  # Gamma(-180.5) underflows to -0
        assert rgamma(1e-310) == 1e-310

    def test_psi_series_gives_up_when_a_gamma_coefficient_overflows(self):
        # Gamma(1-c) = Gamma(181.3) overflows, but psi itself is in range
        assert math.isinf(gamma(1.0 - -180.3))
        assert _psi_series(0.5, -180.3, 0.5) is None
        want = float(_mp40(mp.hyperu, 0.5, -180.3, 0.5))
        assert rel_diff(psi_eval(0.5, -180.3, 0.5).value, want) <= 1e-12

    def test_kratzel_falls_back_to_quadrature_where_scaled_k_overflows(self, monkeypatch):
        # e^z K_59.2(2.1e-6) is about 1e432; Z_1^59.2(1.1e-12) is about 1e79
        assert _bessel_k(59.2, 2.0 * math.sqrt(1.1e-12))[0] == math.inf
        calls = []
        quadrature = special._kratzel_quadrature

        def counting(*args):
            calls.append(args)
            return quadrature(*args)

        monkeypatch.setattr(special, "_kratzel_quadrature", counting)
        got = kratzel_z(1.0, 59.2, 1.1e-12)
        assert calls == [(1.0, 59.2, math.log(1.1e-12))]
        assert _mp_rel(got, _kratzel_mpmath(59.2, 1.1e-12)) <= 1e-13

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 2.0, 7.25, 30.6])
    def test_negative_order_uses_the_reflection(self, nu):
        for z in (1e-3, 0.7, 2.0, 2.5, 40.0):
            assert _bessel_k(-nu, z)[0] == _bessel_k(nu, z)[0]
            # K_{nu-1}/K_nu at -nu is K_{nu+1}/K_nu
            ratio = _mp40(lambda: mp.besselk(nu + 1, z) / mp.besselk(nu, z))
            assert _mp_rel(_bessel_k(-nu, z)[1], ratio) <= 1e-14
        for t in (1e-4, 0.3, 5.0, 300.0):
            assert _mp_rel(kratzel_z(1.0, -nu, t), _kratzel_mpmath(-nu, t)) <= 3e-15


# ---------------------------------------------------------------------------
# Kummer Phi


class TestKummerPhi:
    @pytest.mark.parametrize("a, c, x, expected", [
        (0.5, 1.7, 2.3, 2.478178021974846083537),
        (2.3, -0.4, 0.9, -33.97312380769483942036),   # negative non-integer c
        (1.1, 0.4, 30.0, 270077432810801.9684154),    # large argument
    ])
    def test_reference_values(self, a, c, x, expected):
        assert rel_diff(kummer_phi(a, c, x), expected) < 1e-12

    def test_agrees_with_scipy_implementation(self):
        worst = 0.0
        for a in (0.3, 1.0, 2.5):
            for c in (0.7, 1.5, 3.2):
                for x in (0.01, 0.5, 2.0, 8.0):
                    worst = max(worst, rel_diff(
                        kummer_phi(a, c, x), phi_scipy_reference(a, c, x)))
        assert worst < 1e-11

    def test_unit_value_at_zero_argument(self):
        assert kummer_phi(1.3, 0.4, 0.0) == 1.0

    @pytest.mark.parametrize("c", [0.0, -1.0, -3.0])
    def test_nonpositive_integer_c_rejected(self, c):
        with pytest.raises(DomainError):
            kummer_phi(0.5, c, 1.0)


# ---------------------------------------------------------------------------
# Tricomi psi


class TestPsiReferenceValues:
    # frozen references (40-digit arithmetic); coverage spans all four routes
    @pytest.mark.parametrize("a, c, x, expected", [
        (1.0, 1.0, 1.0, 0.5963473623231940743411),
        (1.0, 1.5, 1.0, 0.7578721561413121060434),
        (0.5, 0.5, 1.0, 0.7578721561413121060434),
        (0.5, 0.5, 0.25, 1.091282721530094084199),
        (2.3, -1.2, 0.7, 0.04370849890180671333863),
        (5.5, 3.25, 12.0, 3.803669320024320927855e-7),
        (19.5, 24.5, 7.3, 3.118265660001874147734e-15),
        (0.7, -24.0, 0.02, 0.1054405932245496445692),
        (3.0, 2.0, 4000.0, 1.560159759776588310531e-11),
        (0.5, 60.5, 0.01, 1.026792338970263478683e198),   # Kummer tail near 1e198
    ])
    def test_reference_values(self, a, c, x, expected):
        result = psi_eval(a, c, x)
        assert rel_diff(result.value, expected) < 5e-11
        assert result.abs_err_est <= 1e-8 * abs(result.value)

    def test_tricomi_psi_returns_plain_value(self):
        assert rel_diff(tricomi_psi(1.0, 1.0, 1.0),
                        0.5963473623231940743411) < 5e-11
        detail = psi_eval(1.0, 1.0, 1.0)
        assert isinstance(detail, PsiEval)
        assert tricomi_psi(1.0, 1.0, 1.0) == detail.value


class TestPsiRoutes:
    def test_route_tags(self):
        assert psi_eval(0.7, -24.5, 0.02).method == "series"
        assert psi_eval(3.0, 2.0, 4000.0).method == "asymptotic"
        mid = psi_eval(1.5, 2.0, 1.0)   # integer c, moderate x: integral route
        assert mid.method.startswith("quadrature")
        # integer c blocks the expansion even at small x
        assert psi_eval(0.7, -24.0, 0.02).method.startswith("quadrature")

    def test_negative_first_parameter_routed_through_shift_identity(self):
        # supported whenever 1 + a - c > 0, by Kummer's transformation; cross-checked against scipy
        for a, c, x in ((-0.2, 0.3, 2.0), (-0.5, 0.3, 5.0), (-1.3, -0.9, 12.0)):
            got = psi_eval(a, c, x)
            assert rel_diff(got.value, psi_scipy_reference(a, c, x)) < 1e-9

    def test_agrees_with_laplace_integral_reference(self):
        worst = 0.0
        for a in (0.5, 1.3, 2.0, 5.0):
            for c in (-1.2, 0.4, 1.7, 3.5):
                for x in (0.1, 0.5, 1.0, 3.0, 10.0, 40.0):
                    worst = max(worst, rel_diff(
                        psi_eval(a, c, x).value, psi_integral_reference(a, c, x)))
        assert worst < 1e-10

    def test_overflowing_gamma_coefficients_leave_the_expansion(self):
        # Gamma(200.5) overflows and 1/Gamma(201) is 0, so the Kummer
        # expansion's coefficient would be inf * 0; psi(1/2, -199.5, 1e-4) is
        # V_200(0.01), and another route gives it without a warning
        want = laplace_mpmath(200.0, 0.01)
        assert rel_diff(psi_eval(0.5, -199.5, 1e-4).value, want) <= 1e-12
        assert rel_diff(tricomi_psi(0.5, -199.5, 1e-4), want) <= 1e-12

    @pytest.mark.parametrize("a, c, x", [
        (0.5, 100.5, 1e-4),   # x^(1-c) overflows (mpmath: 5.3e552)
        (2.0, 150.5, 1e-3),
        (0.5, 100.5, 1e-2),   # the Kummer tail Gamma(c-1) x^(1-c) overflows
    ])
    def test_values_beyond_the_double_range_are_numerical_errors(self, a, c, x):
        with pytest.raises(NumericalError):
            psi_eval(a, c, x)

    def test_a_pole_of_the_larger_kummer_gamma_leaves_its_size_unknown(self):
        # at c = 1/2 - 2^52, c - 1 rounds to -2^52, a pole of Gamma: the size
        # of the Kummer tail cannot be known, and the integral route gives
        # psi(1/2, c, 1) = V_{2^52}(1)
        got = psi_eval(0.5, 0.5 - 2.0 ** 52, 1.0)
        want = laplace_mpmath(2.0 ** 52, 1.0, dps=50)
        assert got.method == "quadrature"
        assert abs(got.value - want) <= got.abs_err_est
        assert rel_diff(got.value, want) <= 1e-15

    def test_beyond_the_double_range_no_integral_route_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an integral route ran")

        monkeypatch.setattr(special, "trapezoid_columns", refuse)
        # psi(1/2, 100.5, 1e-4) = 5.3e552: its tail Gamma(99.5)/Gamma(1/2)
        # (1e-4)^-99.5 is about e^1273
        message = re.escape("psi(0.5, 100.5, 0.0001) overflows") + ".*e\\^1273"
        with pytest.raises(NumericalError, match=message):
            psi_eval(0.5, 100.5, 1e-4)
        with pytest.raises(NumericalError, match="overflows"):
            psi_eval(2.0, 150.5, 1e-3)

    @pytest.mark.parametrize("q, x, route, psi_route", [
        (0.3, 0.2, "quadrature", "psi-series"),
        (1.7, 0.5, "quadrature", "psi-series"),
        (-0.4, 0.05, "psi-series", "psi-series"),
        (2.5, 1.0, "quadrature", "quadrature"),
        (0.0, 3.0, "closed-form", "quadrature"),
        (12.2, 0.3, "quadrature", "psi-series"),
        (0.7, 40.0, "psi-asymptotic", "psi-asymptotic"),
    ])
    def test_ordinary_points_keep_their_routes(self, q, x, route, psi_route):
        want = _mp40(lambda: mp.hyperu(0.5, 0.5 - mp.mpf(q), mp.mpf(x) ** 2))
        got, via_psi = vq(q, x), vq_via_psi(q, x)
        assert (got.method, via_psi.method) == (route, psi_route)
        assert _mp_rel(got.value, want) <= 1e-15
        assert _mp_rel(via_psi.value, want) <= 1e-15

    @pytest.mark.parametrize("x", [40.0, 1e3, 1e6, 1e100, 1e150])
    def test_asymptotic_route_within_its_estimate(self, x):
        # vq's band x > 30 is checked in test_potential.TestHonestEstimates
        for a, c in ((0.5, 0.2), (1.7, 2.4), (2.0, 3.5), (-0.3, 0.5)):
            got = psi_eval(a, c, x)
            assert got.method == "asymptotic"
            with mp.workdps(40):
                want = mp.hyperu(mp.mpf(a), mp.mpf(c), mp.mpf(x))
                assert abs(mp.mpf(got.value) - want) <= got.abs_err_est, (a, c, x)

    def test_agrees_with_scipy_implementation(self):
        worst = 0.0
        for a in (0.5, 2.0, 5.0):
            for c in (-1.2, 0.4, 1.7):
                for x in (0.1, 1.0, 10.0):
                    worst = max(worst, rel_diff(
                        psi_eval(a, c, x).value, psi_scipy_reference(a, c, x)))
        assert worst < 1e-9


def _psi_quad_mpmath(a: float, c: float, w: float, dps: int = 20) -> mp.mpf:
    """psi(a, c, w) = w^(1-c) I(a, c-a-1; w), or I(1+a-c, -a; w) for a <= 0,
    with I(c1, p; w) = (1/Gamma(c1)) int_0^inf t^(c1-1) e^-t (w+t)^p dt, by
    ``mp.quad`` in v = log t (hyperu is not safe at large order), between
    the points where the log integrand has fallen 60 below its peak, split
    at 2^k/4 from the peak so that tanh-sinh sees the peak and the long flat
    tail of a small order apart.  For a > 0 and c < 1 this is not the form
    the library integrates."""
    with mp.workdps(dps):
        a, c, w = mp.mpf(a), mp.mpf(c), mp.mpf(w)
        c1, p, lead = (a, c - a - 1, (1 - c) * mp.log(w)) if a > 0 else (1 + a - c, -a, 0)
        b = c1 + p - w
        top = mp.log((b + mp.sqrt(b * b + 4 * c1 * w)) / 2)

        def log_f(v):
            return c1 * v - mp.exp(v) + p * mp.log(w + mp.exp(v))

        pieces = [top]
        for sign in (-1, 1):
            d = mp.mpf(1) / 4
            while log_f(top + sign * d) - log_f(top) > -60:
                pieces.append(top + sign * d)
                d *= 2
            pieces.append(top + sign * d)
        shift = log_f(top) - mp.loggamma(c1) + lead
        return mp.exp(shift) * mp.quad(lambda v: mp.exp(log_f(v) - log_f(top)), sorted(pieces))


class TestPsiIntegralRouteErrorEstimate:
    def test_every_integral_routed_result_is_within_its_estimate(self):
        rng = random.Random(12)
        points = []
        for _ in range(60):  # both Tricomi forms of V_q(x)
            q = rng.uniform(-1.0, 12.0) if rng.random() < 0.6 else 10.0 ** rng.uniform(1.0, 2.3)
            w = (10.0 ** rng.uniform(-3.0, math.log10(60.0))) ** 2
            points += [(q + 1.0, q + 1.5, w), (0.5, 0.5 - q, w)]
        for _ in range(100):
            points.append((rng.uniform(0.0, 20.0) or 1e-3, rng.uniform(-30.0, 30.0),
                           10.0 ** rng.uniform(-3.0, 3.0)))
        checked = 0
        for a, c, w in points:
            try:
                got = psi_eval(a, c, w)
            except NumericalError:  # beyond the double range
                continue
            if got.method != "quadrature":
                continue
            checked += 1
            want = _psi_quad_mpmath(a, c, w)
            with mp.workdps(20):
                assert abs(mp.mpf(got.value) - want) <= got.abs_err_est, (a, c, w)
            assert got.abs_err_est <= 1e-12 * got.value, (a, c, w)
        assert checked >= 70


class TestPsiHardPoints:
    """Points where the integral route's lift runs deep or a Kummer
    coefficient leaves the double range: each gives a value within its
    estimate of ``mp.quad`` or a ``NumericalError``, never a wrong value
    with a small estimate or a ``RecursionError``."""

    @pytest.mark.parametrize("a, c, x", [
        (0.5, 477.0476115610467, 164.68961293816145),       # 1.36037333407e83
        (0.01685173699616166, 533.3049918049168, 5.309392232432265),  # 4.0e833
        (0.5, 1200.0, 500.0),                                # 3.94301827922e150
        (0.3, 2000.0, 10.0),                                 # 6.1e3733
        (129.16076503133894, -43.705863227124865, 0.10799251866988892),  # 3.41620623419e-260
        (132.73195482599627, -49.93554955686012, 0.0012746584945807582),  # 1.0995e-271
    ])
    def test_value_within_its_estimate_or_a_numerical_error(self, a, c, x):
        try:
            got = psi_eval(a, c, x)
        except NumericalError:
            return
        want = _psi_quad_mpmath(a, c, x, 30)
        with mp.workdps(30):
            assert abs(mp.mpf(got.value) - want) <= got.abs_err_est, (got, want)

    @pytest.mark.parametrize("a, c, x", [(0.3, 2000.0, 10.0), (0.5, 1200.0, 500.0)])
    def test_a_lift_stops_at_its_first_failing_term(self, monkeypatch, a, c, x):
        # c1 = a and p = c - a - 1 lift through about c columns, and those of
        # largest p cannot be evaluated: the lift takes them first and stops
        calls = []
        column = quadrature.trapezoid_columns

        def counted(*args, **kwargs):
            calls.append(args)
            return column(*args, **kwargs)

        monkeypatch.setattr(quadrature, "trapezoid_columns", counted)
        monkeypatch.setattr(special, "trapezoid_columns", counted)
        with pytest.raises(NumericalError):
            psi_eval(a, c, x)
        assert len(calls) == 2
        assert calls[1][:2] == (a + 1.0, c - a - 2.0)  # the term of largest p

    @pytest.mark.parametrize("w", [0.05, 0.7, 3.0, 40.0])
    def test_a_lift_sums_its_terms_from_the_smallest_p_up(self, w):
        # w^-1.5 I(0.3, 2.5; w) from the columns I(1.3, p) at p = 1.5, 0.5
        # and -0.5 (weight c1 = 0.3, a power of w more at each step down), at
        # p = -1.5 (weight 1/2) and the base p = -0.5, summed base first
        got = quadrature.trapezoid_columns(0.3, 2.5, w, power=-1.5)
        col = [quadrature.trapezoid_columns(1.3, p, w, power=power) for p, power
               in ((1.5, -1.5), (0.5, -0.5), (-0.5, 0.5), (-1.5, 1.5), (-0.5, 1.5))]
        want = col[4].value + 0.5 * col[3].value
        for k in (2, 1, 0):
            want = want + 0.3 * col[k].value
        assert got.value.tolist() == want.tolist()
        assert got.converged.all()

    def test_a_term_whose_gamma_quotient_is_out_of_range_is_not_dropped(self):
        # 1/Gamma(173.87) is 0 in doubles: the expansion's first term,
        # Gamma(44.7)/Gamma(173.87) Phi = 3.4e-260, would be lost
        assert _psi_series(129.16076503133894, -43.705863227124865, 0.10799251866988892) is None
        got = psi_eval(129.16076503133894, -43.705863227124865, 0.10799251866988892)
        assert rel_diff(got.value, 3.41620623419e-260) < 1e-10

    def test_underflow_is_a_numerical_error(self):
        # psi = 2.4e-483 is below the double range
        with pytest.raises(NumericalError, match="underflows"):
            psi_eval(238.72619424122993, -9.791420555396293, 0.0012555946096614813)

    def test_asymptotic_power_beyond_the_double_range_is_a_numerical_error(self):
        # psi(-20, 1/2, 1e20) ~ x^20 = 1e400
        with pytest.raises(NumericalError, match="overflows"):
            psi_eval(-20.0, 0.5, 1e20)

    @pytest.mark.parametrize("a, c, x, expected", [
        (-5.977791147803613, 0.022684151674200966, 3.0790960409725336e-08, 0.0578276850583),
        (-1.606140675698569, 0.005175756796660342, 0.2519113227738409, -0.464536997817),
    ])
    def test_series_fallback_is_honest(self, a, c, x, expected):
        # the series misses the 3e-12 target, no other route applies (a <= 0
        # and 1+a-c <= 0), and the fallback accepts it within 1e-8
        got = psi_eval(a, c, x)
        assert got.method == "series"
        target = special._PSI_SERIES_SAFETY * special._PSI_REL_TARGET
        assert got.abs_err_est > target * abs(got.value)
        with mp.workdps(60):
            want = mp.hyperu(mp.mpf(a), mp.mpf(c), mp.mpf(x))
            assert abs(mp.mpf(got.value) - want) <= got.abs_err_est
        assert rel_diff(got.value, expected) < 1e-11

    def test_seeded_sweep_of_large_parameters(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(250):  # most of the box is beyond the double range
            a, c = rng.uniform(0.0, 1000.0) or 1e-3, rng.uniform(-50.0, 500.0)
            x = 10.0 ** rng.uniform(-3.0, 4.0)
            try:
                got = psi_eval(a, c, x)
            except NumericalError:
                continue
            checked += 1
            want = _psi_quad_mpmath(a, c, x)
            with mp.workdps(20):
                assert abs(mp.mpf(got.value) - want) <= got.abs_err_est, (a, c, x)
        assert checked >= 40


class TestPsiKummerTransformation:
    def test_v_q_tricomi_form_is_v_q_own_column(self, monkeypatch):
        # psi(1/2, 1/2-q, x^2) = I(q+1, -1/2; x^2): one double-double column,
        # the bits of vq(q, x, method="quadrature")
        calls = []
        column = special.trapezoid_columns

        def counted(*args, **kwargs):
            calls.append(args)
            return column(*args, **kwargs)

        monkeypatch.setattr(special, "trapezoid_columns", counted)
        got = psi_eval(0.5, -2.0, 1.0)
        assert (got.method, len(calls)) == ("quadrature", 1)
        assert got.value == vq(2.5, 1.0, method="quadrature").value

    def test_psi_eval_does_not_call_itself(self, monkeypatch):
        # a <= 0 takes the transformed integral directly, not psi_eval again
        calls = []
        route = special.psi_eval

        def counted(*args):
            calls.append(args)
            return route(*args)

        monkeypatch.setattr(special, "psi_eval", counted)
        for a, c, x in ((-0.2, 0.3, 2.0), (-0.5, 0.3, 5.0), (-1.3, -0.9, 12.0)):
            assert counted(a, c, x).method == "quadrature"
        assert len(calls) == 3


class TestPsiInvariants:
    def test_argument_shift_identity(self):
        # psi(a, c, x) = x^{1-c} psi(1 + a - c, 2 - c, x)
        for a in (0.5, 1.0, 2.3):
            for c in (-1.2, 0.4, 1.7):
                for x in np.geomspace(0.1, 10.0, 7):
                    lhs = psi_eval(a, c, x).value
                    rhs = x ** (1.0 - c) * psi_eval(1.0 + a - c, 2.0 - c, x).value
                    assert rel_diff(lhs, rhs) < 1e-9, (a, c, x)

    def test_positive_and_strictly_decreasing_in_x(self):
        for a, c in ((0.5, 0.4), (1.5, -0.3), (3.0, 2.5)):
            values = [psi_eval(a, c, float(x)).value
                      for x in np.geomspace(0.05, 25.0, 12)]
            assert all(v > 0 for v in values)
            assert all(b < a_ for a_, b in zip(values, values[1:]))

    def test_reduces_to_power_when_a_equals_c(self):
        # psi(a, a+1, x) = x^{-a}
        for a in (0.5, 2.0):
            for x in (0.3, 1.0, 7.0):
                assert rel_diff(psi_eval(a, a + 1.0, x).value, x ** -a) < 1e-10


class TestPsiDomain:
    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_nonpositive_argument_rejected(self, x):
        with pytest.raises(DomainError):
            psi_eval(0.5, 0.5, x)

    def test_nonpositive_a_outside_series_region_rejected(self):
        with pytest.raises(DomainError):
            psi_eval(-0.5, 0.5, 3.0)

    def test_nonpositive_a_inside_series_region_allowed(self):
        result = psi_eval(-0.5, 0.5, 1.0)
        assert result.value > 0
        assert result.method == "series"

    def test_nonfinite_parameters_rejected(self):
        for a, c in ((math.inf, 0.4), (0.5, math.nan), (-math.inf, math.inf)):
            message = re.escape(f"confluent parameters must be finite, got a={a}, c={c}")
            with pytest.raises(DomainError, match=message):
                kummer_phi(a, c, 1.0)
            with pytest.raises(DomainError, match=message):
                psi_eval(a, c, 1.0)


# ---------------------------------------------------------------------------
# Kraetzel integral


class TestKratzel:
    @pytest.mark.parametrize("rho, nu, t, expected", [
        (1.0, 0.5, 0.5, 0.4309131921674966492004),
        (1.0, 2.5, 1.3, 0.6814741436596625790667),
        (1.0, -0.5, 2.0, 0.07407806776268677705192),
        (1.0, 0.0, 0.125, 1.306219843730837988835),
    ])
    def test_reference_values(self, rho, nu, t, expected):
        assert rel_diff(kratzel_z(rho, nu, t), expected) < 1e-9

    def test_zero_argument_closed_form(self):
        # Z_rho^nu(0) = Gamma(nu/rho)/rho for nu > 0
        assert rel_diff(kratzel_z(2.0, 1.0, 0.0), SQRT_PI / 2.0) < 1e-13
        assert rel_diff(kratzel_z(1.0, 2.0, 0.0), 1.0) < 1e-13

    def test_agrees_with_bessel_closed_form(self):
        for nu in (-1.0, -0.25, 0.5, 1.5, 4.0):
            for t in (0.01, 0.2, 1.0, 5.0, 40.0):
                assert rel_diff(kratzel_z(1.0, nu, t),
                                kratzel_bessel_reference(nu, t)) < 1e-9

    def test_agrees_with_direct_quadrature_for_general_rho(self):
        for rho in (0.5, 2.0, 3.0):
            for nu in (0.5, 2.0):
                for t in (0.0, 0.3, 2.0):
                    assert rel_diff(kratzel_z(rho, nu, t),
                                    kratzel_quad_reference(rho, nu, t)) < 1e-9

    @pytest.mark.parametrize("rho, nu, t", [
        (0.2, 7.438, 0.334),    # the peak is at u ~ 7e7
        (0.15, 2.0, 1e-6),      # a long right tail
        (46.0, -1.17, 2.5e-11),  # e^(rho v) at the peak underflows
        (4.0, 25.0, 1500.0),    # Z = 5.8e-238; at t = 2700 it underflows to 0 on both sides
        (1.0, 3.0, 1e5),        # beyond the Bessel form's range
        (38.998694844402806, -0.5943483766202426, 5.584944670329157e-4),  # a sharp right edge
    ])
    def test_general_rho_matches_mpmath(self, rho, nu, t):
        assert rel_diff(kratzel_z(rho, nu, t), kratzel_mpmath(rho, nu, t)) <= 1e-12

    @pytest.mark.parametrize("rho, nu, t, bits", [
        (0.4649655211956474, 0.9202626649024923, 64.21652362419835, "0x1.151b4cc35b741p-5"),
        (3.4793713454897577, -1.006527134073036, 25.554236421132316, "0x1.27208e6f44894p-33"),
        (15.675659152273422, -4.24134980843822, 17.44980483177437, "0x1.da94d97cd8e54p-30"),
        (9.867273234010394, 15.501893754263374, 0.37276697189812136, "0x1.feb3e227fc667p-5"),
        (5.896539967965036, -2.6467839439900205, 0.39697361430703515, "0x1.0ad1ab3ddbac9p+4"),
        (10.568367245462158, 2.318018725312178, 0.001020799623161732, "0x1.92b2294efb519p-2"),
        (43.65185953202943, 2.460030575421891, 0.07654485632320475, "0x1.640b6e5d02a7ap-2"),
        (28.00805079972624, 0.30338668877450026, 1.804277636795943, "0x1.c86c716503f49p-5"),
        (27.227987818224317, -3.6742581285394547, 3.3865612530222005, "0x1.64acf3d11297dp-6"),
        (18.567400709864405, -1.1644135510347606, 0.25538946116362105, "0x1.e2fae26f4a0f1p+1"),
    ])
    def test_general_rho_reproduces_the_pinned_bits_and_levels(self, monkeypatch, rho, nu, t,
                                                               bits):
        # one node pass on a step fixed in advance gives both levels: the
        # call forms its nodes by one np.arange
        aranges = []

        class Counting:
            def __getattr__(self, name):
                return getattr(np, name)

            def arange(self, *args):
                aranges.append(args)
                return np.arange(*args)

        monkeypatch.setattr(special, "np", Counting())
        assert kratzel_z(rho, nu, t).hex() == bits
        assert len(aranges) == 1, aranges

    @pytest.mark.filterwarnings("error")
    def test_levels_that_disagree_raise(self, monkeypatch):
        # a step four times too coarse: levels 0 and 1 differ beyond 1e-11
        step = special._trapezoid_step
        monkeypatch.setattr(special, "_trapezoid_step", lambda *args: 4.0 * step(*args))
        with pytest.raises(NumericalError, match="levels 0 and 1 disagree"):
            kratzel_z(0.4649655211956474, 0.9202626649024923, 64.21652362419835)

    @pytest.mark.filterwarnings("error")
    def test_a_window_past_the_node_budget_raises(self):
        # a sharp right edge (rho = 1000) needs a fine step, and a flat left
        # tail (t = 1e-8) a long window
        with pytest.raises(NumericalError, match=f"more than {special._KRATZEL_NODE_MAX} nodes"):
            kratzel_z(1000.0, 1.0, 1e-8)

    def test_extreme_arguments_give_a_value_zero_or_a_numerical_error(self):
        # nu in [-30, 60] and t across the whole double range: a value, 0.0
        # where Z underflows, or NumericalError where it overflows
        rng = random.Random(13)
        draws = [(rng.uniform(-30.0, 60.0), 10.0 ** rng.uniform(-300.0, 300.0))
                 for _ in range(3000)]
        for i, (nu, t) in enumerate(draws):
            try:
                got = kratzel_z(1.0, nu, t)
            except NumericalError:
                got = None
            else:
                assert 0.0 <= got < math.inf, (nu, t)
            if i % 60:
                continue
            want = _kratzel_mpmath(nu, t)
            if want > _DOUBLE_MAX:
                assert got is None, (nu, t)
            elif want < _DOUBLE_MIN:
                assert got is not None and got < _DOUBLE_MIN, (nu, t)
            else:
                assert _mp_rel(got, want) <= 5e-14, (nu, t)
        assert kratzel_z(1.0, 2.97, 2.18e287) == 0.0

    @pytest.mark.parametrize("x", [1e160, 1e200, 1.7e308])
    def test_lower_envelope_where_x_squared_overflows(self, x):
        # Z_1^{q+1/2}(x^2/2) is about e^(-sqrt(2) x): it underflows
        assert vq_lower_kratzel(1.0, x) == 0.0
        assert vq_lower_kratzel(300.0, x) == 0.0

    @pytest.mark.parametrize("q, x", [(300.0, 1e-3), (200.0, 0.05)])
    def test_lower_envelope_where_z_overflows_but_the_envelope_does_not(self, q, x):
        # Z_1^{q+1/2}(x^2/2) is near Gamma(q+1/2), beyond the double range,
        # while Z / Gamma(q+1) is near 0.06; the log of Z carries it
        want = _mp40(lambda: _kratzel_mpmath(q + 0.5, mp.mpf(x) ** 2 / 2) / mp.gamma(q + 1))
        assert _mp_rel(vq_lower_kratzel(q, x), want) <= 1e-12

    def test_divergent_cases_rejected(self):
        with pytest.raises(DivergenceError):
            kratzel_z(1.0, 0.0, 0.0)      # nu <= 0 at t = 0 diverges
        with pytest.raises(DivergenceError):
            kratzel_z(1.0, -0.5, 0.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(DomainError):
            kratzel_z(0.0, 1.0, 1.0)      # rho must be positive
        with pytest.raises(DomainError):
            kratzel_z(1.0, 1.0, -1.0)     # t must be non-negative
        with pytest.raises(DomainError, match=re.escape("requires rho > 0, got rho=-1.0")):
            kratzel_z(-1.0, 0.5, 1.0)
        for rho, nu in ((math.inf, 0.5), (1.0, math.nan)):
            message = re.escape(f"parameters must be finite, got rho={rho}, nu={nu}")
            with pytest.raises(DomainError, match=message):
                kratzel_z(rho, nu, 1.0)

    def test_strictly_decreasing_in_t(self):
        values = [kratzel_z(1.0, 1.5, float(t)) for t in np.linspace(0.0, 5.0, 11)]
        assert all(b < a for a, b in zip(values, values[1:]))
