"""Tests for the escalation loop and for the trapezoid rule at general
(c1, p, w): real p of either sign, and the factor w^power of the Tricomi
function, against mpmath."""
import mpmath as mp
import numpy as np
import pytest

import regcoulomb.quadrature as quadrature
from regcoulomb.quadrature import escalate_columns, trapezoid_columns


def _mp_rel(got, want):
    with mp.workdps(40):
        return float(abs(mp.mpf(got) - want) / abs(want))


def _binomial_integral(c1, p, w):
    """I(c1, p; w) for an integer p >= 0: sum_k C(p, k) w^(p-k) (c1)_k."""
    with mp.workdps(40):
        return mp.fsum(mp.binomial(p, k) * mp.mpf(w) ** (p - k) * mp.rf(c1, k)
                       for k in range(p + 1))


class TestEscalateColumns:
    def test_columns_leave_at_their_own_level(self):
        # column i changes for the last time at level i + 1
        def level(n, cols):
            return 1.0 + np.where(cols >= n, 1.0 / (n + 1.0), 0.0)

        got = escalate_columns(level, 3, (0, 1, 2, 3, 4), 1e-11)
        assert got.converged.all()
        assert got.points.tolist() == [2, 3, 4]
        assert got.value.tolist() == [1.0, 1.0, 1.0]

    def test_single_level_cannot_confirm_convergence(self):
        got = escalate_columns(lambda n, cols: np.full(cols.size, 2.0), 2, (0,), 1e-11)
        assert not got.converged.any()
        assert got.value.tolist() == [2.0, 2.0]
        assert np.isinf(got.abs_err).all()

    def test_unconverged_columns_keep_their_closest_pair(self):
        steps = {0: 1.0, 1: 2.0, 2: 2.1, 3: 3.0}
        got = escalate_columns(lambda n, cols: np.full(cols.size, steps[n]), 1, (0, 1, 2, 3), 1e-11)
        assert not got.converged[0]
        assert got.value[0] == 2.1
        assert got.abs_err[0] == pytest.approx(0.1)


class TestGeneralExponent:
    @pytest.mark.parametrize("c1, p, w", [
        (2.0, 6, 0.5),     # w < p: the log integrand is convex left of its peak
        (0.7, 3, 2.0),
        (5.5, 1, 1e-3),
        (1.0, 12, 30.0),
        (0.3, 2, 4.0),     # c1 <= 1/2: lifted by I = w I(c1, p-1) + c1 I(c1+1, p-1)
    ])
    def test_positive_integer_exponents_match_the_binomial_sum(self, c1, p, w):
        got = trapezoid_columns(c1, float(p), np.float64(w))
        want = _binomial_integral(c1, p, w)
        assert got.converged[0]
        assert abs(mp.mpf(got.value[0]) - want) <= got.abs_err[0]
        assert _mp_rel(got.value[0], want) <= 1e-14

    @pytest.mark.parametrize("a, c, w", [
        (19.5, 24.5, 7.3),      # c > a + 1
        (0.2, 1.7, 5.0),        # small a, c > a + 1
        (0.5, -199.5, 1e-4),    # |p| = 201: psi is V_200(0.01)
        (3.0, -20.3, 0.04),
        (1.3, 4.3, 0.5),        # c - a - 1 = 2
        (7.0, 7.5, 2.5),        # p = -1/2 with a factor w^power: log space
    ])
    def test_the_tricomi_factor_is_formed_in_log_space(self, a, c, w):
        got = trapezoid_columns(a, c - a - 1.0, np.float64(w), power=1.0 - c)
        with mp.workdps(40):
            want = mp.hyperu(a, c, w)
        assert got.converged[0]
        assert abs(mp.mpf(got.value[0]) - want) <= got.abs_err[0]
        assert _mp_rel(got.value[0], want) <= 2e-14

    def test_columns_of_the_log_space_path_are_independent(self):
        ws = np.exp(np.random.default_rng(4).uniform(-6.0, 4.0, 70))
        batch = trapezoid_columns(2.5, 1.75, ws, power=-3.0)
        assert batch.converged.all()
        for i, w in enumerate(ws):
            one = trapezoid_columns(2.5, 1.75, w, power=-3.0)
            assert _mp_rel(batch.value[i], mp.mpf(one.value[0])) <= 1e-14

    def test_the_retired_engine_names_run_nothing(self):
        # kept only for the benchmark's tracer, which reads them on install
        assert quadrature.GL_NODE_MAX == 0
        assert quadrature.gauss_laguerre.cache_info().currsize == 0
        for name in ("gauss_laguerre", "laguerre_escalating", "expsinh_escalating"):
            with pytest.raises(NotImplementedError):
                getattr(quadrature, name)(40, 0.5)
