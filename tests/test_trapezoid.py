"""Tests for the peak-centred trapezoid rule behind V_q and V_q': the column
engine itself, its independence of the batch a column is evaluated in, and
its values and error estimates against mpmath."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regcoulomb.potential as potential
import regcoulomb.quadrature as quadrature
from regcoulomb import vq, vq_many, vq_prime, vq_prime_many
from regcoulomb.potential import _laplace_integrals, _vq_series
from regcoulomb.errors import NumericalError
from regcoulomb.quadrature import COLUMN_CHUNK, trapezoid_columns

from oracles import laplace_mpmath, rel_diff


class TestTrapezoidColumns:
    @pytest.mark.parametrize("c1, p", [(2.5, -0.5), (13.0, -1.5), (1.2, -0.5), (400.0, -2.5)])
    def test_gamma_ratio_at_zero_argument(self, c1, p):
        # at x = 0 the integral is Gamma(c1 + p) / Gamma(c1)
        got = trapezoid_columns(c1, p, np.float64(0.0))
        want = float(mp.gammaprod([c1 + p], [c1]))
        assert got.converged[0]
        assert abs(got.value[0] - want) <= got.abs_err[0]
        assert rel_diff(got.value[0], want) <= 1e-14

    def test_times_x_scales_the_value(self):
        plain = trapezoid_columns(3.0, -1.5, np.float64(4.0))
        scaled = trapezoid_columns(3.0, -1.5, np.float64(4.0), np.float64(2.0))
        assert scaled.value[0] == 2.0 * plain.value[0]

    @pytest.mark.parametrize("c1, p", [(0.6, -0.5), (1.7, -1.5), (1.3, -2.5), (9.4, -0.5)])
    def test_a_batch_gives_each_column_its_own_bits(self, c1, p):
        xs = np.exp(np.random.default_rng(1).uniform(-7.0, 4.0, COLUMN_CHUNK + 37))
        batch = trapezoid_columns(c1, p, xs * xs, xs)
        for i, x in enumerate(xs):
            one = trapezoid_columns(c1, p, x * x, x)
            assert one.value[0] == batch.value[i], i
            assert one.points[0] == batch.points[i], i
        assert batch.converged.all()

    def test_unusable_columns_are_zero_and_unconverged(self):
        # w beyond the double-double range, and w = 0 where the integral
        # diverges (c1 + p <= 0), next to a column that works
        got = trapezoid_columns(1.5, -1.5, np.array([1e320, 0.0, 1.0]))
        assert got.value[:2].tolist() == [0.0, 0.0]
        assert got.converged.tolist() == [False, False, True]

    def test_the_node_budget_is_kept(self, monkeypatch):
        full = trapezoid_columns(2.0, -0.5, np.float64(1.0))
        assert full.converged[0] and 60 < full.points[0] <= quadrature._TRAP_NODE_MAX
        monkeypatch.setattr(quadrature, "_TRAP_NODE_MAX", 60)
        got = trapezoid_columns(2.0, -0.5, np.float64(1.0))
        assert not got.converged[0] and got.points[0] <= 60


class TestScalarIsABatchOfOne:
    @pytest.mark.parametrize("q", [-0.95, -0.5, -0.2, 0.7, 3.3, 11.0, 250.0])
    def test_vq_many_equals_vq_bit_for_bit(self, q):
        xs = np.exp(np.random.default_rng(2).uniform(math.log(0.06), math.log(29.0), 90))
        got = vq_many(q, xs)
        assert [vq(q, x).value for x in xs] == got.tolist()
        assert {vq(q, x).method for x in xs} == {"quadrature"}
        assert [vq_prime(q, x) for x in xs] == vq_prime_many(q, xs).tolist()


@settings(max_examples=120, deadline=None)
@given(
    q=st.one_of(
        st.floats(-1.0, 12.0, exclude_min=True),
        st.floats(12.0, 1000.0),
        st.floats(-12.0, -1.0).map(lambda e: -1.0 + 10.0 ** e),
    ),
    log_x=st.floats(-3.0, 3.0),
    prime=st.booleans(),
)
def test_error_estimate_is_honest_against_mpmath(q, log_x, prime):
    x = 10.0 ** log_x
    got = _laplace_integrals(q, np.array([x]), prime)
    want = laplace_mpmath(q, x, prime)
    assert got.converged[0]
    assert abs(got.value[0] - want) <= got.abs_err[0], (got.value[0], want)


class TestDomainEdges:
    @pytest.mark.parametrize("q, x", [(200.0, 1.0), (1000.0, 3.0), (340.7, 0.0012),
                                      (500.0, 0.01), (-0.9996, 0.2), (-0.9999, 1.0)])
    def test_former_failures_match_mpmath(self, q, x):
        got = vq(q, x)
        want = laplace_mpmath(q, x)
        assert got.method == "quadrature"
        assert abs(got.value - want) <= got.abs_err_est
        assert rel_diff(got.value, want) <= 1e-14

    def test_large_orders_at_small_argument_go_to_quadrature(self):
        # the fused expansion cannot form Gamma(q + 1/2) beyond q = 171.12,
        # nor 1/Gamma(q + 1), which is 0 beyond q = 170.62
        assert potential._routes_to_quadrature(171.5, 0.01)
        assert not potential._routes_to_quadrature(150.0, 0.01)
        with pytest.raises(NumericalError, match="small-x expansion failed"):
            _vq_series(200.0, 0.01)
        assert vq_many(200.0, [0.01, 1e-3]).tolist() == [vq(200.0, x).value for x in (0.01, 1e-3)]
        xs = [0.002, 0.01, 0.04]
        for q in (170.65, 170.9, 171.0):
            assert potential._routes_to_quadrature(q, 0.002)
            assert vq_many(q, xs).tolist() == [vq(q, x).value for x in xs]
        assert not potential._routes_to_quadrature(170.62, 0.002)

    @pytest.mark.parametrize("x", [1e105, 1e108, 1e150])
    def test_derivative_at_huge_argument(self, x):
        # V_q' ~ -1/x^2; the factor x stays in the log scale, so x^-3 never forms
        got = _laplace_integrals(1.0, np.array([x]), True)
        want = laplace_mpmath(1.0, x, True)
        assert got.converged[0]
        assert abs(got.value[0] - want) <= got.abs_err[0]
        assert vq_prime(1.0, x) == -got.value[0]
        assert vq_prime_many(1.0, [x]).tolist() == [-got.value[0]]
