"""Tests for batched evaluation: vq_many / vq_prime_many, the verifier's
batched value table, and the Bessel closed form of the Kraetzel function."""
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import regcoulomb.potential as potential
import regcoulomb.quadrature as quadrature
import regcoulomb.verify as verify
from regcoulomb import (
    DomainError,
    Grid,
    NumericalError,
    VerifyConfig,
    default_grid,
    kratzel_z,
    run_suite,
    vq,
    vq_envelope,
    vq_many,
    vq_prime,
    vq_prime_many,
)
from regcoulomb.quadrature import COLUMN_CHUNK
from regcoulomb.verify import _Table

from oracles import kratzel_bessel_reference, rel_diff

GRID = default_grid()
# x = 0, the series band, the asymptotic band and the sentinel order on top
# of the default grid, so that every route of vq(q, x, "auto") is exercised
EXTRA_X = (0.0, 1e-3, 0.05, 30.0, 45.0)
ROUTE_Q = GRID.q_values + (-1.0,)
# orders and abscissas at the edges of the domain; at x = 1e-100 the
# quadrature of V_q' (q < 1/2) and of V_{-1/2} does not converge: the
# verifier records 278 evaluation errors on this grid
EDGE_GRID = Grid((-0.9999, -0.5, 0.0, 0.5, 1.0, 12.0), (1e-100, 1e-3, 0.2, 0.7, 3.0, 40.0, 1e3))


def _check_against_scalar(q, xs, got):
    assert got.shape == (len(xs),)
    methods = set()
    for x, g in zip(xs, got):
        want = vq(q, x)
        methods.add(want.method)
        assert abs(g - want.value) <= want.abs_err_est, (q, x)
    return methods


class TestVqMany:
    @pytest.mark.parametrize("q", ROUTE_Q)
    def test_matches_scalar_on_every_route(self, q):
        xs = sorted(set(GRID.x_values + EXTRA_X) - ({0.0} if q <= -0.5 else set()))
        _check_against_scalar(q, xs, vq_many(q, xs))

    def test_routes_covered(self):
        methods = set()
        for q in ROUTE_Q:
            xs = sorted(set(GRID.x_values + EXTRA_X) - ({0.0} if q <= -0.5 else set()))
            methods |= _check_against_scalar(q, xs, vq_many(q, xs))
        assert methods == potential.METHODS

    def test_batch_straddling_the_chunk_size(self):
        xs = np.linspace(0.06, 29.0, COLUMN_CHUNK + 5)
        got = vq_many(1.7, xs)
        assert {vq(1.7, x).method for x in xs} == {"quadrature"}
        _check_against_scalar(1.7, xs, got)

    def test_unconverged_points_are_nan(self):
        # at the half-integer order -1/2 small x goes to quadrature, which
        # does not converge once x^2 underflows; the other points of the
        # batch are unaffected
        xs = [1e-200, 1e-170, 0.2, 1.0, 0.01]
        got = vq_many(-0.5, xs)
        assert np.isnan(got[:2]).all()
        assert np.isfinite(got[2:]).all()
        _check_against_scalar(-0.5, xs[2:], got[2:])
        with pytest.raises(ArithmeticError):
            vq(-0.5, 1e-200)

    @pytest.mark.parametrize("x", [5e-324, 1e-320])
    def test_series_beyond_the_double_range_is_a_numerical_error(self, x):
        # V_{-0.99}(x) is about 7e316: x^(2q+1) overflows on the series route
        with pytest.raises(NumericalError, match="beyond the double range"):
            vq(-0.99, x)
        got = vq_many(-0.99, [x, 1.0])
        assert np.isnan(got[0]) and got[1] == vq(-0.99, 1.0).value

    def test_orders_next_to_minus_one_match_the_oracle(self):
        # these points did not converge before the trapezoid rule
        xs = [0.2, 0.3, 1.0, 2.0, 0.01]
        got = vq_many(-0.9999, xs)
        _check_against_scalar(-0.9999, xs, got)
        for x, g in zip(xs, got):
            assert rel_diff(g, float(mp.hyperu(0.5, 1.4999, mp.mpf(x) ** 2))) <= 1e-14, x

    def test_domain_errors_raise(self):
        with pytest.raises(DomainError):
            vq_many(0.5, [1.0, -1.0])
        with pytest.raises(DomainError):
            vq_many(-1.5, [1.0])

    def test_empty(self):
        assert vq_many(0.5, []).shape == (0,)


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


class TestBroadcastShapes:
    """Both batch calls return the broadcast shape of (q, xs), with the
    scalar call's value at every entry."""

    def test_a_scalar_argument(self):
        # vq_many raised on a 0-d array; vq_prime_many returned shape (1,)
        assert vq_many(0.5, 5.0).shape == vq_prime_many(0.5, 5.0).shape == ()
        assert _hex(vq_many(0.5, 5.0)) == _hex(vq(0.5, 5.0).value)
        assert _hex(vq_prime_many(0.5, 5.0)) == _hex(vq_prime(0.5, 5.0))

    def test_a_two_dimensional_argument(self):
        # vq_prime_many raised a TypeError: the level scale walked a nested list
        xs = [[1.0, 2.0], [3.0, 4.0]]
        for many, scalar in ((vq_many, lambda q, x: vq(q, x).value), (vq_prime_many, vq_prime)):
            got = many(0.5, xs)
            assert got.shape == (2, 2)
            assert _hex(got) == _hex([scalar(0.5, x) for row in xs for x in row])

    def test_an_order_per_point_and_a_grid_of_orders(self):
        qs = np.array([-0.75, -1.0, 0.0, 2.5, 600.0, -0.5])
        xs = np.array([1e-3, 0.7, 3.0, 45.0])
        grid = vq_many(qs[:, None], xs)
        assert grid.shape == (6, 4)
        assert _hex(grid) == _hex([vq(q, x).value for q in qs for x in xs])
        qs, xs = qs[qs != -1.0], xs[[0, 1, 2, 3, 1]]
        assert _hex(vq_prime_many(qs, xs)) == _hex([vq_prime(q, x) for q, x in zip(qs, xs)])

    def test_the_first_order_outside_the_domain_raises(self):
        with pytest.raises(DomainError, match="got -1.5"):
            vq_many([0.5, -1.5, -2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="sentinel"):
            vq_prime_many([0.5, -1.0], 1.0)
        with pytest.raises(DomainError, match="x > 0"):
            vq_prime_many([0.5, 1.0], [1.0, 0.0])


class TestVqPrimeMany:
    @pytest.mark.parametrize("q", GRID.q_values)
    def test_matches_scalar_at_every_grid_point(self, q):
        got = vq_prime_many(q, GRID.x_values)
        for x, g in zip(GRID.x_values, got):
            want = vq_prime(q, x)
            # the scalar derivative carries no error estimate; both share
            # one integral, so the values agree far inside its 1e-11 target
            assert rel_diff(g, want) <= 1e-13, (q, x)

    def test_unconverged_points_are_nan(self):
        # the trapezoid rule stops at x = 1e150 (x^2 overflows from 1.34e154)
        got = vq_prime_many(-0.9999, [1e160, 1e200, 1.0, 2.0])
        assert np.isnan(got[:2]).all()
        assert np.isfinite(got[2:]).all() and (got[2:] < 0).all()

    def test_orders_next_to_minus_one_match_the_oracle(self):
        # these points did not converge before the trapezoid rule
        for x, g in zip([0.01, 0.2, 1.0, 2.0], vq_prime_many(-0.9999, [0.01, 0.2, 1.0, 2.0])):
            want = -x * float(mp.hyperu(1.5, 2.4999, mp.mpf(x) ** 2))
            assert rel_diff(g, want) <= 1e-14, x

    def test_positive_x_required(self):
        with pytest.raises(DomainError):
            vq_prime_many(0.5, [0.0, 1.0])


@pytest.fixture(scope="module")
def batched_report_and_calls():
    """A default report, with the scalar quadrature calls it made."""
    calls = []
    original = potential.vq_quadrature

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    mp = pytest.MonkeyPatch()
    mp.setattr(potential, "vq_quadrature", counting)
    try:
        report = run_suite(VerifyConfig())
    finally:
        mp.undo()
    return report, calls


class TestVerifierPrefetch:
    def test_default_report_makes_no_scalar_quadrature_calls(self, batched_report_and_calls):
        report, calls = batched_report_and_calls
        assert calls == []
        counts = (report.n_checks, len(report.violations),
                  len(report.observations), len(report.errors))
        assert counts == (55181, 0, 481, 0)

    def test_records_equal_a_scalar_evaluated_report(self, batched_report_and_calls, monkeypatch):
        # an all-NaN batch sends every point through the scalar calls
        report, _ = batched_report_and_calls
        edge = run_suite(VerifyConfig(grid=EDGE_GRID))
        assert len(edge.errors) == 278
        def nan_batch(q, xs):
            return np.full(np.broadcast(q, xs).shape, np.nan)

        monkeypatch.setattr(verify, "vq_many", nan_batch)
        monkeypatch.setattr(verify, "vq_prime_many", nan_batch)
        scalar = run_suite(VerifyConfig())
        assert scalar.to_json_dict() == report.to_json_dict()
        assert run_suite(VerifyConfig(grid=EDGE_GRID)).to_json_dict() == edge.to_json_dict()

    def test_unconverged_points_are_not_memoised(self):
        # the value table holds the scalar call's error, never a value
        table = _Table([(True, -0.9999, (1e160, 1.0))])
        values, errors = table.values(-0.9999, [1e160, 1.0], prime=True)
        assert math.isnan(values[0]) and math.isfinite(values[1])
        assert list(errors) == [(-0.9999, 1e160)]
        with pytest.raises(ArithmeticError, match="did not converge"):
            raise errors[-0.9999, 1e160]

    def test_a_domain_error_at_one_order_leaves_the_other_orders_values(self):
        # V_q(0) diverges for q <= -1/2: the table's one call raises, every
        # point then goes to the scalar call, and only that point is an error
        table = _Table([(False, -0.75, (0.0, 1.0)), (False, 0.5, (0.0, 1.0))])
        values, errors = table.values(0.5, [0.0, 1.0])
        assert _hex(values) == _hex([vq(0.5, 0.0).value, vq(0.5, 1.0).value]) and not errors
        values, errors = table.values(-0.75, [0.0, 1.0])
        assert math.isnan(values[0]) and _hex(values[1:]) == _hex(vq(-0.75, 1.0).value)
        assert list(errors) == [(-0.75, 0.0)] and isinstance(errors[-0.75, 0.0], DomainError)

    @pytest.mark.parametrize("q, xs", [
        (1.0, [3.0]),         # above the largest planned x of the order
        (1.0, [0.5, 2.0]),    # below the smallest
        (1.0, [1.5]),         # between two planned x
        (2.0, [1.0]),         # an order that was not planned
        (1.0, [2.0, 3.0]),    # one planned point and one past the end
    ])
    def test_an_unplanned_point_is_a_key_error(self, q, xs):
        table = _Table([(False, 1.0, (1.0, 2.0))])
        with pytest.raises(KeyError, match="planned"):
            table.values(q, xs)
        with pytest.raises(KeyError, match="planned"):
            table.values(np.full(len(xs), q), xs)
        with pytest.raises(KeyError, match="planned"):
            table.values(1.0, [1.0], prime=True)  # no V' was planned
        assert _hex(table.values(1.0, [2.0, 1.0])[0]) == _hex([vq(1.0, 2.0).value,
                                                                vq(1.0, 1.0).value])

    def test_an_overflow_at_one_point_is_an_error_at_that_point(self):
        # V_q(x) is beyond the double range at q = -0.99, x = 5e-324, where
        # vq raises NumericalError: the checks there are evaluation errors,
        # and no suite stops
        with pytest.raises(NumericalError):
            vq(-0.99, 5e-324)
        report = run_suite(VerifyConfig(grid=Grid((-0.99, 0.5), (5e-324, 1.0))))
        assert all(e.x is not None for e in report.errors)
        assert any(e.q == -0.99 and e.x == 5e-324 and "range" in e.note for e in report.errors)
        assert report.n_checks > 7

    def test_no_failing_point_is_evaluated_twice(self, monkeypatch):
        calls, failed = [], set()

        def counting(name, fn):
            def wrapper(q, x, *args):
                calls.append((name, q, x))
                try:
                    return fn(q, x, *args)
                except (ArithmeticError, DomainError):
                    failed.add((name, q, x))
                    raise
            return wrapper

        monkeypatch.setattr(verify, "vq", counting("vq", verify.vq))
        monkeypatch.setattr(verify, "vq_prime", counting("vq_prime", verify.vq_prime))
        report = run_suite(VerifyConfig(grid=EDGE_GRID))
        assert len(report.errors) == 278
        # one scalar call per distinct failing point, and only for those
        assert sorted(calls) == sorted(failed)


class TestCallsPerReport:
    def test_a_default_report_evaluates_in_a_few_large_calls(self, monkeypatch):
        # the verifier evaluates the union of its points in one call per
        # exponent (V and V'); its node passes are full chunks but for a few
        calls, passes = [], []
        column, split = quadrature.trapezoid_columns, quadrature._split

        def counted(*args, **kwargs):
            calls.append(np.size(args[2]))
            return column(*args, **kwargs)

        for module in (quadrature, potential):
            monkeypatch.setattr(module, "trapezoid_columns", counted)
        monkeypatch.setattr(quadrature, "_split", lambda terms, *args:
                            passes.append(terms.shape[1]) or split(terms, *args))
        report = run_suite(VerifyConfig())
        assert report.n_checks == 55181 and not report.errors
        assert len(calls) <= 8
        assert sum(size <= 16 for size in passes) <= 5

    def test_each_check_label_is_judged_in_a_few_calls(self, monkeypatch):
        # a suite checks each label over every order it admits in one call,
        # not once per order: 116 arrays of checks for a default report
        calls = []
        record = verify._Collector._record
        monkeypatch.setattr(verify._Collector, "_record",
                            lambda self, *args: calls.append(args[0]) or record(self, *args))
        report = run_suite(VerifyConfig())
        assert report.n_checks == 55181
        assert len(calls) <= 150


class TestKratzelClosedForm:
    def test_matches_bessel_reference_on_the_grid(self):
        for q in GRID.q_values + (-0.999, -0.73, 12.0):
            for x in GRID.x_values + (1e-3, 2.3e-3, 60.0):
                nu, t = q + 0.5, 0.5 * x * x
                got = kratzel_z(1.0, nu, t)
                assert rel_diff(got, kratzel_bessel_reference(nu, t)) <= 1e-13, (q, x)

    def test_small_argument_envelope(self):
        # the quadrature route used to warn and fail here
        env = vq_envelope(-0.73, 1e-3)
        ref = kratzel_bessel_reference(-0.23, 5e-7) / math.gamma(0.27)
        assert rel_diff(env.lower_kratzel, ref) <= 1e-13
        assert env.lower_kratzel < env.value

    def test_general_rho_still_integrates(self):
        # rho != 1 takes the quadrature route: Z_2^1(0) = Gamma(1/2)/2 limit
        assert rel_diff(kratzel_z(2.0, 1.0, 1e-12), math.sqrt(math.pi) / 2) < 1e-5

    def test_import_and_cli_commands_load_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import contextlib, io, sys\n"
            "import regcoulomb.cli\n"
            "for args in (['verify', '--suite', 'all'], ['figure', '--precision', '17'],\n"
            "             ['envelope', '--q', '1', '--precision', '17']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            regcoulomb.cli.main(args)\n"
            "        except SystemExit as stop:\n"
            "            assert not stop.code, (args, stop.code)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert out.stdout.strip() == "[]"
