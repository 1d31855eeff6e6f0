"""Tests for batched evaluation: vq_many / vq_prime_many, the verifier's
batched value table, and the Bessel closed form of the Kraetzel function."""
import math
import random
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
from regcoulomb.verify import _answers

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
        # the table's evaluator replaced by the scalar calls, point by point
        report, _ = batched_report_and_calls
        edge = run_suite(VerifyConfig(grid=EDGE_GRID))
        assert len(edge.errors) == 278

        def scalar_many(qs, xs, prime):
            values, errors = np.full(xs.shape, np.nan), np.full(xs.shape, None, object)
            for k, (q, x) in enumerate(zip(qs.tolist(), xs.tolist())):
                try:
                    values[k] = vq_prime(q, x) if prime else vq(q, x).value
                except (DomainError, ArithmeticError) as exc:
                    errors[k] = exc
            return values, errors

        monkeypatch.setattr(verify, "_many", scalar_many)
        scalar = run_suite(VerifyConfig())
        assert scalar.to_json_dict() == report.to_json_dict()
        assert run_suite(VerifyConfig(grid=EDGE_GRID)).to_json_dict() == edge.to_json_dict()

    def test_unconverged_points_are_not_memoised(self):
        # the answers hold the evaluation's error, never a value
        [(values, errors)] = _answers([(np.full(2, -0.9999), np.array([1e160, 1.0]), True)])
        assert math.isnan(values[0]) and math.isfinite(values[1])
        assert errors[1] is None
        with pytest.raises(ArithmeticError, match="did not converge"):
            raise errors[0]

    def test_a_domain_error_at_one_order_leaves_the_other_orders_values(self):
        # V_q(0) diverges for q <= -1/2: only that point is an error
        x = np.array([0.0, 1.0])
        (low, low_errors), (values, errors) = _answers([(np.full(2, -0.75), x, False),
                                                        (np.full(2, 0.5), x, False)])
        assert _hex(values) == _hex([vq(0.5, 0.0).value, vq(0.5, 1.0).value])
        assert errors.tolist() == [None, None]
        assert math.isnan(low[0]) and _hex(low[1:]) == _hex(vq(-0.75, 1.0).value)
        assert low_errors[1] is None and isinstance(low_errors[0], DomainError)

    def test_answers_come_back_in_the_order_asked(self, monkeypatch):
        # repeats within an ask and across asks, unsorted x, both exponents
        # and an empty ask: each point is evaluated once, in one call per exponent
        calls = []
        many = verify._many
        monkeypatch.setattr(verify, "_many", lambda qs, xs, prime: calls.append(
            (prime, qs.tolist(), xs.tolist())) or many(qs, xs, prime))
        asks = [(np.array([1.0, 0.5, 1.0, 1.0]), np.array([3.0, 2.0, 0.7, 3.0]), False),
                (np.array([0.5, 0.5]), np.array([2.0, 0.7]), True),
                (np.array([]), np.array([]), False),
                (np.array([1.0, 0.5, 2.0]), np.array([0.7, 2.0, 0.7]), False),
                (np.array([0.5]), np.array([2.0]), True)]
        answers = list(_answers(asks))
        assert len(answers) == len(asks)
        for (qs, xs, prime), (values, errors) in zip(asks, answers):
            want = [_scalar_call(q, x, prime)[0] for q, x in zip(qs.tolist(), xs.tolist())]
            assert _hex(values) == _hex(want)
            assert errors.tolist() == [None] * len(want)
        assert calls == [(False, [0.5, 1.0, 1.0, 2.0], [2.0, 0.7, 3.0, 0.7]),
                         (True, [0.5, 0.5], [0.7, 2.0])]

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
        # each error comes from the table's one evaluation of its point: the
        # verifier makes no scalar call, and no scalar quadrature runs
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((verify, "vq"), (verify, "vq_prime"),
                             (potential, "vq_quadrature"), (potential, "vq_prime")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        report = run_suite(VerifyConfig(grid=EDGE_GRID))
        assert len(report.errors) == 278
        assert calls == []

    def test_an_order_whose_step_overflows_fails_at_its_points_only(self):
        # from q about 6e306 the trapezoid step's c log(tol) overflows; the
        # points there are evaluation errors, and order 0.5 keeps its checks
        report = run_suite(VerifyConfig(grid=Grid((0.5, 1e308), (1.0, 2.0))))
        assert (report.n_checks, len(report.violations), len(report.errors)) == (136, 0, 126)
        assert all("did not converge" in e.note for e in report.errors)


def _scalar_call(q: float, x: float, prime: bool) -> tuple:
    """The scalar call's value at (q, x), or NaN and the exception it raises."""
    try:
        return (vq_prime(q, x) if prime else vq(q, x).value), None
    except (DomainError, ArithmeticError) as exc:
        return math.nan, exc


def _small_x_points() -> list:
    rng = random.Random(3)
    return [(rng.uniform(-0.5, 3.0), 10.0 ** rng.uniform(-300.0, -12.0)) for _ in range(300)]


class TestFailureParity:
    """The batch evaluator gives the scalar call's bits at each point, or
    the exception the scalar call raises there, of its class and with its
    message."""

    @pytest.mark.parametrize("points, failures", [
        # V' outgrows the trapezoid's node budget at 101 of them
        (_small_x_points(), (0, 101)),
        ([(q, x) for q in EDGE_GRID.q_values for x in (0.0,) + EDGE_GRID.x_values], (3, 10)),
        ([(-0.75, 0.0)], (1, 1)),           # V diverges; V' needs x > 0
        ([(-0.99, 5e-324)], (1, 1)),        # V is beyond the double range
        ([(1e308, 1.0), (0.5, 1.0)], (1, 1)),  # the trapezoid step overflows
    ])
    def test_each_point_as_its_scalar_call(self, points, failures):
        qs, xs = np.array(points, dtype=float).T
        for prime, n_failed in zip((False, True), failures):
            values, errors = potential._many(qs, xs, prime)
            got, want = [], []
            for q, x, value, error in zip(qs.tolist(), xs.tolist(), values.tolist(),
                                          errors.tolist()):
                got.append((value.hex(), type(error), str(error)))
                scalar, exc = _scalar_call(q, x, prime)
                want.append((scalar.hex(), type(exc), str(exc)))
            assert got == want
            assert sum(error is not None for error in errors.tolist()) == n_failed, prime


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

    @pytest.mark.parametrize("grid, sizes", [(None, [12292, 540]), (EDGE_GRID, [2049, 42])])
    def test_each_exponent_is_evaluated_once_on_its_distinct_points(self, monkeypatch, grid,
                                                                     sizes):
        calls = []
        many = verify._many
        monkeypatch.setattr(verify, "_many", lambda qs, xs, prime: calls.append(
            (prime, xs.size)) or many(qs, xs, prime))
        run_suite(VerifyConfig(grid=grid))
        assert calls == [(False, sizes[0]), (True, sizes[1])]

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
        assert _fresh_interpreter(code).stdout.strip() == "[]"

    def test_import_figure_and_scalar_routes_load_no_numpy(self):
        # NumPy loads on the first array operation: the import, the figure
        # table and every eval route but quadrature run without it
        code = (
            "import contextlib, io, sys\n"
            "import regcoulomb, regcoulomb.cli\n"
            "loaded = ['numpy._core' in sys.modules]\n"
            "for args in (['figure'], ['figure', '--format', 'json'],\n"
            "             ['eval', '--q', '0', '--x', '1'], ['eval', '--q', '0.3', '--x', '0.01'],\n"
            "             ['eval', '--q', '0.3', '--x', '100'], ['eval', '--q', '0.3', '--x', '0'],\n"
            "             ['eval', '--q', '-1', '--x', '2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            regcoulomb.cli.main(args)\n"
            "        except SystemExit as stop:\n"
            "            assert not stop.code, (args, stop.code)\n"
            "    loaded.append('numpy._core' in sys.modules)\n"
            "routes = [regcoulomb.vq(q, x).method for q, x in ((0.3, 0.01), (0.3, 100.0))]\n"
            "value = regcoulomb.vq(0.5, 1.0).value\n"
            "print(loaded, routes, 'numpy._core' in sys.modules, value.hex())\n"
        )
        want = f"{[False] * 8} ['psi-series', 'psi-asymptotic'] True {vq(0.5, 1.0).value.hex()}"
        assert _fresh_interpreter(code).stdout.strip() == want

    def test_an_absent_numpy_fails_the_import(self):
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "try:\n"
            "    import regcoulomb\n"
            "except ImportError as error:\n"
            "    print('ImportError', error.name)\n"
        )
        assert _fresh_interpreter(code).stdout.strip() == "ImportError numpy"

    def test_threads_first_using_numpy_at_once_all_get_it(self):
        # more threads than cores, switching often, each first touching the
        # lazy NumPy after the same barrier: none may see it half imported
        code = (
            "import sys, threading\n"
            "from regcoulomb import vq_many\n"
            "sys.setswitchinterval(1e-6)\n"
            "start, got = threading.Barrier(4), []\n"
            "def run():\n"
            "    start.wait()\n"
            "    got.append(vq_many(0.5, [1.0, 2.0]).tolist())\n"
            "threads = [threading.Thread(target=run) for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(60.0)\n"
            "assert not any(thread.is_alive() for thread in threads)\n"
            "print(got)\n"
        )
        assert _fresh_interpreter(code).stdout.strip() == str([vq_many(0.5, [1.0, 2.0]).tolist()] * 4)

def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """``code`` run to its end by a new interpreter that imports the package
    from src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env={"PYTHONPATH": str(src), "PATH": ""})
