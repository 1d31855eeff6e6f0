"""Tests for the peak-centred trapezoid rule behind V_q and V_q': the column
engine itself, its independence of the batch a column is evaluated in, and
its values and error estimates against mpmath."""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regcoulomb.potential as potential
import regcoulomb.quadrature as quadrature
from regcoulomb import vq, vq_many, vq_prime, vq_prime_many
from regcoulomb.potential import _laplace_integrals
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


def _level_one(c1, p, w, h, x=None, power=0.0):
    """The trapezoid sum of step ``h`` about the peak, the rule's level 1,
    at 30 digits: ``(x) w^power r^-p sum e^(G0 + P) / sum e^G0`` over every
    node ``d = j h`` down to ``e^-60``, as :func:`trapezoid_columns` states it."""
    with mp.workdps(30):
        c1, p, w = mp.mpf(c1), mp.mpf(p), mp.mpf(w)
        b = c1 + p - w
        t = (b + mp.sqrt(b * b + 4 * c1 * w)) / 2
        num = den = mp.mpf(0)
        for j0, sign in ((0, 1), (-1, -1)):
            for j in range(j0, sign * 10 ** 6, sign):
                g0 = c1 * j * h - t * mp.expm1(j * h)
                g = g0 + p * mp.log((w + t * mp.exp(j * h)) / (w + t))
                if g0 < -60 and g < -60:
                    break
                num, den = num + mp.exp(g), den + mp.exp(g0)
        value = (w + t) ** p * num / den * w ** power
        return float(value if x is None else x * value)


def _columns(got, i=None):
    """The (value, estimate, node count, convergence) of every column of
    ``got``, or of its column ``i``, with the floats as ``float.hex``."""
    rows = list(zip(map(float.hex, got.value.tolist()), map(float.hex, got.abs_err.tolist()),
                    got.points.tolist(), got.converged.tolist()))
    return rows if i is None else rows[i]


class TestBatchIndependence:
    """A one-column call gives the bits of the same column in a batch, on
    every branch of the rule."""

    @pytest.mark.parametrize("c1, p, power, times_x", [
        (3.7, -0.5, 0.0, False),     # double-double, V_q
        (3.7, -1.5, 0.0, True),      # double-double with the factor x, V_q'
        (0.3, -0.5, 0.0, False),     # lifted, p < 0
        (0.3, -1.5, 0.0, True),      # lifted, p < 0, with the factor x
    ])
    def test_one_column_equals_its_batch_column(self, c1, p, power, times_x):
        xs = np.exp(np.random.default_rng(5).uniform(-6.0, 4.0, 40))
        ws = xs * xs
        batch = trapezoid_columns(c1, p, ws, xs if times_x else None, power)
        assert all(_columns(batch, i)[3] for i in range(xs.size))
        for i, (x, w) in enumerate(zip(xs, ws)):
            one = trapezoid_columns(c1, p, float(w) if i % 2 else w, x if times_x else None, power)
            assert _columns(one) == [_columns(batch, i)], (i, w)

    def test_a_batch_of_mixed_orders_gives_each_column_its_own_bits(self):
        # orders next to -1, lifted ones (c1 <= 1/2), half-integers, 600, 1e35
        # and 1e308, at x from 1e-30 to 1e150 and at the edges of x^2: 0
        # (1e-200), subnormal (1e-160, 4e-156) and overflowing (1e155); for V,
        # for V' (with the factor x), and with an exponent per column.  One
        # column runs in Python floats, which raise where arrays give inf or
        # NaN, and no warning escapes either
        qs = np.array([-1.0 + 1e-7, -0.999, -0.75, -0.55, -0.5, -0.25, 0.0, 0.5, 1.5, 2.5, 7.3,
                       600.0, 1e35, 1e308])
        xs = np.append(np.geomspace(1e-30, 1e150, 19), [1e-200, 1e-160, 4e-156, 1e155])
        q, x = (v.ravel() for v in np.meshgrid(qs, xs))
        with np.errstate(over="ignore"):
            w = x * x
        ps = np.resize([-0.5, -1.5, -2.5], q.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, factor in ((-0.5, None), (-1.5, x), (ps, None)):
                batch = trapezoid_columns(q + 1.0, p, w, factor)
                for i, (qi, xi, pi) in enumerate(zip(q.tolist(), x.tolist(), np.resize(p, q.size))):
                    one = trapezoid_columns(qi + 1.0, float(pi), xi * xi,
                                            None if factor is None else xi)
                    assert _columns(one) == [_columns(batch, i)], (qi, xi, pi)
                assert batch.converged.sum() > q.size // 2

    def test_one_chunk_of_many_steps(self, monkeypatch):
        # COLUMN_CHUNK columns of eight orders, and so of at least five steps,
        # in one node pass: each column keeps the bits it has alone
        passes, split = [], quadrature._split
        monkeypatch.setattr(quadrature, "_split", lambda *args: passes.append(1) or split(*args))
        c1 = np.repeat([0.7, 1.05, 1.3, 2.0, 3.7, 9.0, 40.0, 250.0], COLUMN_CHUNK // 8)
        xs = np.exp(np.random.default_rng(11).permutation(np.linspace(-4.0, 3.0, COLUMN_CHUNK)))
        steps = {quadrature._trapezoid_step(c + 0.5, quadrature._TRAP_TOL / 100.0) for c in c1}
        assert len(steps) >= 5
        batch = trapezoid_columns(c1, -0.5, xs * xs)
        assert len(passes) == 1 and batch.converged.all()
        for i, (c, x) in enumerate(zip(c1.tolist(), xs.tolist())):
            assert _columns(trapezoid_columns(c, -0.5, x * x)) == [_columns(batch, i)], (c, x)

    @pytest.mark.parametrize("c1, p, w, power", [
        (np.array([1.5, 2.5]), 0.25, np.array([1.0, 2.0]), 0.0),
        (np.array([1.5, 2.5]), -0.5, np.array([1.0, 2.0]), 1.0),
        (4.2, -11.5, np.array([1.0, 2.0]), 7.3),
        (0.3, 0.5, np.array([1.0, 2.0]), 0.0),
        (2.5, 1.75, np.array([1.0]), -3.0),
    ], ids=["p-positive", "power-nonzero", "log-space", "lifted-p-positive", "one-element"])
    def test_arrays_need_the_double_double_path(self, c1, p, w, power):
        # arrays are V/V' batches only: the Tricomi form takes one column a call
        with pytest.raises(ValueError, match="negative half-integer p and power 0"):
            trapezoid_columns(c1, p, w, power=power)

    def test_a_coarse_step_leaves_every_column_unconverged(self, monkeypatch):
        # levels 0 and 1 disagree everywhere: one node pass, and each column
        # comes back with level 1's value and a finite estimate
        passes, split = [], quadrature._split
        monkeypatch.setattr(quadrature, "_split", lambda *args: passes.append(1) or split(*args))
        monkeypatch.setattr(quadrature, "_trapezoid_step", lambda c, tol: 3.0)
        xs = np.exp(np.random.default_rng(6).uniform(-7.0, 5.0, 30))
        for p, factor in ((-0.5, None), (-1.5, xs)):
            passes.clear()
            batch = trapezoid_columns(2.4, p, xs * xs, factor)
            assert not batch.converged.any() and len(passes) == 1
            assert np.isfinite(batch.abs_err).all() and (batch.points > 0).all()
            for i, x in enumerate(xs):
                one = trapezoid_columns(2.4, p, x * x, None if factor is None else x)
                assert _columns(one) == [_columns(batch, i)], (p, i)
                want = _level_one(2.4, p, x * x, 1.5, None if factor is None else x)
                assert rel_diff(batch.value[i], want) <= 1e-13, (p, i)
        for x in xs.tolist():  # log space, the Tricomi form: one column a call
            passes.clear()
            one = trapezoid_columns(2.4, -2.5, x * x, power=1.5)
            assert not one.converged[0] and len(passes) == 1
            assert np.isfinite(one.abs_err).all() and one.points[0] > 0
            want = _level_one(2.4, -2.5, x * x, 1.5, power=1.5)
            assert rel_diff(one.value[0], want) <= 1e-13, x

    @pytest.mark.parametrize("c1, p, times_x", [
        (2.6, -0.5, False),          # V_q
        (2.6, -1.5, True),           # V_q', with the factor x
        (0.35, -0.5, False),         # lifted, p < 0
    ])
    def test_one_chunk_of_the_most_different_windows(self, c1, p, times_x):
        # one chunk of COLUMN_CHUNK columns whose windows and node rows differ
        # as much as they can: the exact sums of each column do not depend on
        # the others, whichever order the sums take.  (The lifted order's
        # second column, I(1.35, -1.5), is unusable below w = 1e-50.)
        ws = np.geomspace(1e-250, 1e250, COLUMN_CHUNK)
        xs = np.sqrt(ws)
        batch = trapezoid_columns(c1, p, ws, xs if times_x else None)
        assert batch.converged[ws > 1e-50].all()
        for i, (x, w) in enumerate(zip(xs.tolist(), ws.tolist())):
            one = trapezoid_columns(c1, p, w, x if times_x else None)
            assert _columns(one) == [_columns(batch, i)], (i, w)

    @pytest.mark.parametrize("w", [0.0, 1e320])
    def test_unusable_columns_alone_and_in_a_batch(self, w):
        # c1 + p <= 0 diverges at w = 0; 1e320 is beyond the double range
        batch = trapezoid_columns(1.5, -1.5, np.array([1.0, w, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for one in (trapezoid_columns(1.5, -1.5, w), trapezoid_columns(1.5, -1.5, np.float64(w)),
                        trapezoid_columns(1.5, -1.5, w, w), trapezoid_columns(1.5, -1.5, w, power=2.0)):
                assert _columns(one) == [("0x0.0p+0", "inf", 0, False)]
        assert _columns(batch, 1) == ("0x0.0p+0", "inf", 0, False)
        assert batch.converged[[0, 2]].all()

    @pytest.mark.parametrize("c1, p", [(1.5, -2.5), (0.6, -1.5), (3.0, -0.5)])
    def test_tiny_arguments_alone_and_in_a_batch(self, c1, p):
        # where c1 + p < 0 the reciprocal 1/(w + t*) nears the double range,
        # and its power r^-p overflows: inf, as in the one-column call
        ws = np.array([5e-324, 1e-300, 1e-200, 1e-130, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = trapezoid_columns(c1, p, ws)
            assert [_columns(trapezoid_columns(c1, p, w))[0] for w in ws.tolist()] == _columns(batch)

    @pytest.mark.parametrize("w", [1e-120, 1e-60, 1e-250])
    def test_a_lifted_sum_with_a_failed_term_fails(self, w):
        # I(0.35, -0.5) = I(1.35, -0.5) + 0.5 I(1.35, -1.5), whose second term
        # cannot be evaluated here (0 with an infinite estimate): the sum is 0,
        # unconverged, with an infinite estimate
        failed = ("0x0.0p+0", "inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = trapezoid_columns(0.35, -0.5, np.array([w, 1.0, w]))
            for one in (trapezoid_columns(0.35, -0.5, w),
                        trapezoid_columns(0.35, -0.5, np.float64(w))):
                assert _columns(one)[0][:2] == failed and not one.converged[0]
                assert _columns(batch, 0) == _columns(batch, 2) == _columns(one)[0]
        assert _columns(batch, 1) == _columns(trapezoid_columns(0.35, -0.5, 1.0))[0]
        assert batch.converged[1]

    @pytest.mark.parametrize("c1, w, x", [(1.35, 1e-120, None), (1.5593, 0.0, 9.4e-250)])
    def test_a_window_past_the_node_budget_alone_and_in_a_batch(self, c1, w, x):
        # a finite window whose level 1 would take more than _TRAP_NODE_MAX
        # nodes: 0 with an infinite estimate, not NaN (9.4e-250 squared is 0)
        failed = ("0x0.0p+0", "inf", 0, False)
        usable = trapezoid_columns(c1, -1.5, 2.0, None if x is None else 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _columns(trapezoid_columns(c1, -1.5, w, x)) == [failed]
            batch = trapezoid_columns(c1, -1.5, np.array([w, 2.0]),
                                      None if x is None else np.array([x, 1.5]))
        assert _columns(batch) == [failed] + _columns(usable) and usable.converged[0]
        with pytest.raises(NumericalError) as raised:
            potential.vq_quadrature(-0.43556563308250607, 5.3819573466137544e-30)
        assert "nan" not in str(raised.value)

    def test_a_forced_quadrature_call_at_a_failed_lift_is_a_numerical_error(self):
        with pytest.raises(NumericalError) as raised:
            potential.vq_quadrature(-0.65, 1e-60)
        assert "nan" not in str(raised.value)

    @pytest.mark.parametrize("c1, p, power, times_x", [
        (3.7, -0.5, 0.0, False),     # double-double, V_q
        (3.7, -1.5, 0.0, True),      # with the factor x, V_q'
        (0.3, -0.5, 0.0, False),     # lifted
    ])
    def test_a_one_element_array_takes_the_one_column_path(self, monkeypatch, c1, p, power,
                                                           times_x):
        xs = np.exp(np.random.default_rng(9).uniform(-6.0, 4.0, 12))
        batch = [_columns(trapezoid_columns(c1, p, x * x, x if times_x else None, power))
                 for x in xs.tolist()]
        monkeypatch.setattr(quadrature, "_per_order", None)  # a batch's set-up fails
        for x, want in zip(xs, batch):
            got = trapezoid_columns(c1, p, np.array([x * x]), np.array([x]) if times_x else None,
                                    power)
            assert _columns(got) == want, x
        q = c1 - 1.0
        assert vq_many(q, xs[:1]).tolist() == [vq(q, xs[0]).value]


class TestFirstPass:
    """One node pass is final: it gives levels 0 and 1, the columns whose
    two levels agree are done, and the others come back unconverged."""

    def test_one_pass_per_chunk_of_converging_columns(self, monkeypatch):
        passes, split = [], quadrature._split
        monkeypatch.setattr(quadrature, "_split", lambda *args: passes.append(1) or split(*args))
        assert trapezoid_columns(3.7, -0.5, 2.0).converged[0] and len(passes) == 1
        xs = np.exp(np.random.default_rng(8).uniform(-3.0, 3.0, 2 * COLUMN_CHUNK + 2))
        passes.clear()
        assert trapezoid_columns(3.7, -0.5, xs * xs).converged.all() and len(passes) == 3

    def test_only_the_columns_that_disagree_are_unconverged(self, monkeypatch):
        # a step at the edge of agreement: some columns are done after the
        # one pass, the others keep level 1's value, in a batch as alone
        passes, split = [], quadrature._split
        monkeypatch.setattr(quadrature, "_split", lambda *args: passes.append(1) or split(*args))
        monkeypatch.setattr(quadrature, "_trapezoid_step", lambda c, tol: 0.32)
        xs = np.exp(np.random.default_rng(10).uniform(-6.0, 4.0, 30))
        batch = trapezoid_columns(2.4, -0.5, xs * xs)
        assert 0 < batch.converged.sum() < xs.size and len(passes) == 1
        for i, x in enumerate(xs.tolist()):
            passes.clear()
            assert _columns(trapezoid_columns(2.4, -0.5, x * x)) == [_columns(batch, i)], x
            assert len(passes) == 1
            if not batch.converged[i]:
                assert 0.0 < batch.abs_err[i] < 1e-10 * batch.value[i], x
                assert rel_diff(batch.value[i], _level_one(2.4, -0.5, x * x, 0.16)) <= 1e-13, x


class TestScalarIsABatchOfOne:
    @pytest.mark.parametrize("q", [-0.95, -0.5, -0.2, 0.7, 3.3, 11.0, 250.0])
    def test_vq_many_equals_vq_bit_for_bit(self, q):
        xs = np.exp(np.random.default_rng(2).uniform(math.log(0.06), math.log(29.0), 90))
        got = vq_many(q, xs)
        assert [vq(q, x).value for x in xs] == got.tolist()
        assert {vq(q, x).method for x in xs} == {"quadrature"}
        assert [vq_prime(q, x) for x in xs] == vq_prime_many(q, xs).tolist()

    def test_mixed_orders_equal_the_scalar_calls_bit_for_bit(self):
        # one batch of orders from next to -1 through the sentinel, lifted
        # orders, 0, half-integers and 600, at x from 1e-30 to 1e150; NaN
        # where the scalar call raises a numerical error
        qs = np.array([-1.0 + 1e-7, -0.75, -0.55, -1.0, 0.0, -0.5, 0.5, 1.5, 2.5, 600.0])
        q, x = (v.ravel() for v in np.meshgrid(qs, np.geomspace(1e-30, 1e150, 23)))

        def scalar(fn, *args):
            try:
                return float(fn(*args)).hex()
            except NumericalError:
                return "nan"

        got = [v.hex() for v in vq_many(q, x).tolist()]
        points = zip(q.tolist(), x.tolist())
        assert got == [scalar(lambda a, b: vq(a, b).value, a, b) for a, b in points]
        q, x = q[q != -1.0], x[q != -1.0]
        got = [v.hex() for v in vq_prime_many(q, x).tolist()]
        assert got == [scalar(vq_prime, a, b) for a, b in zip(q.tolist(), x.tolist())]
        assert "nan" in got and got.count("nan") < len(got) // 4


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
