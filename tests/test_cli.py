"""Tests for the command-line interface: flags, formats, exact headers,
exit codes, and output determinism."""
import json
import pathlib
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from regcoulomb.cli import _mapped, _uniform_grid, main
from regcoulomb.errors import NumericalError

GOLDEN_FIGURE = pathlib.Path(__file__).parent / "data" / "figure_golden.csv"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# eval


class TestEvalCommand:
    def test_plain_value(self, runner):
        result = invoke(runner, "eval", "--q", "0", "--x", "1")
        assert result.exit_code == 0
        assert "value       = 0.757872156141" in result.output
        assert "method      = closed-form" in result.output
        assert "abs_err_est" in result.output

    def test_sentinel_order_convention(self, runner):
        result = invoke(runner, "eval", "--q", "-1", "--x", "2")
        assert result.exit_code == 0
        assert "value       = 0.5" in result.output
        assert "method      = convention" in result.output

    def test_json_format(self, runner):
        result = invoke(runner, "eval", "--q", "0.5", "--x", "1",
                        "--format", "json")
        payload = json.loads(result.output)
        assert payload["q"] == 0.5 and payload["x"] == 1.0
        assert abs(payload["value"] - 0.680920590300) < 1e-11
        assert payload["method"] in ("quadrature", "psi-series",
                                     "psi-asymptotic", "closed-form")
        assert payload["abs_err_est"] >= 0.0

    def test_precision_flag(self, runner):
        result = invoke(runner, "eval", "--q", "0", "--x", "1",
                        "--precision", "6")
        assert "value       = 0.757872" in result.output
        bad = runner.invoke(main, ["eval", "--q", "0", "--x", "1",
                                   "--precision", "3"])
        assert bad.exit_code == 2

    def test_method_flag(self, runner):
        result = invoke(runner, "eval", "--q", "0", "--x", "1",
                        "--method", "quadrature")
        assert "method      = quadrature" in result.output

    def test_domain_errors_exit_2(self, runner):
        for args in (["eval", "--q", "-2", "--x", "1"],
                     ["eval", "--q", "0.5", "--x", "-1"],
                     ["eval", "--q", "-0.5", "--x", "0"],
                     ["eval", "--q", "0.5", "--x", "1", "--method", "nope"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args

    def test_huge_argument_exits_3(self, runner):
        # x^2 overflows: a numerical failure of a valid input
        result = runner.invoke(main, ["eval", "--q", "0.3", "--x", "1e200"])
        assert result.exit_code == 3
        assert "x^2 overflows" in result.stderr

    def test_tiny_argument_on_the_psi_route_exits_3(self, runner):
        # x^2 underflows to 0: a numerical failure of a valid input too
        result = runner.invoke(main, ["eval", "--q", "0.3", "--x", "1e-300", "--method", "psi"])
        assert result.exit_code == 3
        assert "x^2 underflows to 0" in result.stderr

    @pytest.mark.parametrize("q, value", [
        ("4503599627370496", "1.49011611938e-08"),  # 2^52: c - 1 is a pole of Gamma
        ("1e20", "1e-10"),
        ("3.9e34", "5.06369683542e-18"),
    ])
    def test_psi_route_at_huge_orders(self, runner, q, value):
        result = runner.invoke(main, ["eval", "--q", q, "--x", "1", "--method", "psi"])
        assert result.exit_code == 0, result.output
        assert f"value       = {value}\n" in result.stdout

    def test_huge_order_exits_3(self, runner):
        # the trapezoid step's c log(tol) overflows: a numerical failure
        result = runner.invoke(main, ["eval", "--q", "1e308", "--x", "1"])
        assert result.exit_code == 3
        assert "did not converge" in result.stderr
        assert "ZeroDivisionError" not in result.stderr

    def test_numerical_failures_exit_3(self, runner):
        # exercised through the shared error-mapping wrapper
        @click.command()
        @_mapped
        def boom():
            raise NumericalError("did not converge")

        result = runner.invoke(boom, [])
        assert result.exit_code == 3
        assert "did not converge" in result.stderr


# ---------------------------------------------------------------------------
# figure


class TestFigureCommand:
    def test_default_csv_shape(self, runner):
        result = invoke(runner, "figure")
        lines = result.output.splitlines()
        assert result.exit_code == 0
        assert lines[0] == "x,f1,f2,f3,f4,f5,m"
        assert len(lines) == 232          # header + 231 rows
        assert lines[1].startswith("0.7,")
        assert lines[-1].startswith("3,")

    def test_matches_golden_file(self, runner):
        result = invoke(runner, "figure")
        assert result.output == GOLDEN_FIGURE.read_text()

    def test_deterministic_across_runs(self, runner):
        first = invoke(runner, "figure").output
        second = invoke(runner, "figure").output
        assert first == second

    def test_row_orderings(self, runner):
        result = invoke(runner, "figure")
        for line in result.output.splitlines()[1:]:
            cells = line.split(",")
            x = float(cells[0])
            f1, f2 = float(cells[1]), float(cells[2])
            f3 = float(cells[3]) if cells[3] else None
            f4, f5, m = (float(c) for c in cells[4:])
            assert f1 < m < f2
            assert m < f4 and m < f5
            if f3 is not None:
                assert m < f3
                if x > 1.0:
                    assert f3 < f2

    def test_inapplicable_f3_cells_are_empty(self, runner):
        result = invoke(runner, "figure", "--x-min", "0.5", "--x-max", "0.8",
                        "--steps", "4")
        rows = result.output.splitlines()[1:]
        assert rows[0].split(",")[3] == ""       # x = 0.5: not applicable
        assert rows[-1].split(",")[3] != ""      # x = 0.8: applicable

    def test_json_rows_match_csv_numbers(self, runner):
        csv_rows = invoke(runner, "figure", "--steps", "7").output.splitlines()[1:]
        json_rows = json.loads(
            invoke(runner, "figure", "--steps", "7", "--format", "json").output)
        assert len(json_rows) == len(csv_rows) == 7
        for cells, obj in zip((r.split(",") for r in csv_rows), json_rows):
            assert float(cells[0]) == obj["x"]
            assert float(cells[6]) == obj["m"]
            assert (None if cells[3] == "" else float(cells[3])) == obj["f3"]

    def test_huge_abscissas_tabulate(self, runner):
        # x^2 and x^4 overflow at 5e199 and 1e200; the bounds switch to
        # their forms in 1/x^2 and the ratio itself stays ~1/x
        result = invoke(runner, "figure", "--x-min", "1", "--x-max", "1e200",
                        "--steps", "3", "--precision", "17")
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert [float(cells[0]) for cells in rows] == [1.0, 5e199, 1e200]
        for cells in rows[1:]:
            x = float(cells[0])
            for cell in cells[1:]:
                assert abs(float(cell) * x - 1.0) <= 4e-16, (x, cells)
        assert [float(c) for c in rows[0][1:6]] == [
            0.5, 1.0, 1.0, 0.70710678118654746, 0.82287565553229525]

    def test_bad_ranges_exit_2(self, runner):
        for args in (["figure", "--x-min", "3", "--x-max", "1"],
                     ["figure", "--steps", "1"],
                     ["figure", "--x-min", "-1"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args

    @pytest.mark.parametrize("args, message", [
        ("figure --x-max inf", "x-max must be finite, got inf"),
        ("envelope --q 1 --x-max nan", "x-max must be finite, got nan"),
    ])
    def test_a_bad_range_names_its_flag_and_value(self, runner, args, message):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 2
        assert f"error: {message}" in result.stderr

    @pytest.mark.parametrize("x_min, x_max, steps", [
        (0.7, 3.0, 231),
        (0.5, 0.8, 4),
        (1.0, 1e200, 3),
        (0.1, 0.10000000000000003, 50),  # steps of a few ulps
        (5e-324, 5e-323, 30),            # the step underflows to 0: linspace's other branch
        (1e-310, 3e-310, 1000),
        (1e-300, 1e300, 7),
    ])
    def test_the_grid_is_linspace_to_the_bit(self, x_min, x_max, steps):
        # the table is built in Python floats, so that it loads no NumPy
        import numpy as np

        got = _uniform_grid(x_min, x_max, steps)
        assert [v.hex() for v in got] == [v.hex() for v in np.linspace(x_min, x_max, steps).tolist()]


# ---------------------------------------------------------------------------
# verify


class TestVerifyCommand:
    def test_single_point_lists_each_check(self, runner):
        result = invoke(runner, "verify", "--suite", "turan",
                        "--q", "0", "--x", "1")
        assert result.exit_code == 0
        assert "suite turan: PASS" in result.output
        assert "turan:upper" in result.output
        assert "lhs=0.385720395122 rhs=0.809713731861" in result.output

    def test_repeated_flags_of_one_point_are_single_point_mode(self, runner):
        # the grid decides single-point mode, not the number of flags
        once = invoke(runner, "verify", "--suite", "turan", "--q", "1", "--x", "2")
        repeated = invoke(runner, "verify", "--suite", "turan",
                          "--q", "1", "--q", "1", "--x", "2", "--x", "2")
        assert "observations: 8" in once.output
        assert repeated.output == once.output
        assert repeated.exit_code == once.exit_code == 0

    def test_json_report_schema(self, runner):
        result = invoke(runner, "verify", "--suite", "turan",
                        "--q", "0.5", "--x", "1", "--format", "json")
        payload = json.loads(result.output)
        assert payload["pass"] is True
        assert payload["suite"] == "turan"
        assert payload["grid"] == {"q": [0.5], "x": [1.0]}
        assert payload["counts"]["violations"] == 0

    def test_small_grid_override(self, runner):
        result = invoke(runner, "verify", "--suite", "monotonicity",
                        "--q", "1", "--q", "0", "--x", "0.5", "--x", "2",
                        "--format", "json")
        payload = json.loads(result.output)
        assert payload["grid"]["q"] == [0.0, 1.0]      # sorted, deduplicated
        assert result.exit_code == 0

    def test_unknown_suite_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "nosuch"])
        assert result.exit_code == 2

    def test_invalid_grid_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--q", "-3", "--x", "1"])
        assert result.exit_code == 2

    def test_demanding_tolerance_flags_near_equalities(self, runner):
        # at x = 20 two Mills bounds sit ~1e-7 relative above the ratio, so
        # a 1e-6 guard band must report them and exit 1
        result = runner.invoke(main, ["verify", "--suite", "bounds",
                                      "--q", "0", "--x", "20",
                                      "--tolerance", "1e-6"])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "bounds:mills-upper-f4" in result.output
        passing = runner.invoke(main, ["verify", "--suite", "bounds",
                                       "--q", "0", "--x", "20"])
        assert passing.exit_code == 0

    def test_tolerance_flag_range_enforced(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "turan",
                                      "--q", "1", "--x", "1",
                                      "--tolerance", "1e-3"])
        assert result.exit_code == 2

    def test_tolerance_defaults_to_the_library_value(self, runner):
        result = invoke(runner, "verify", "--suite", "turan", "--q", "1", "--x", "2")
        assert "tolerance: 1e-09 (relative)" in result.output


class TestOverflowExitsThree:
    """A check that cannot be evaluated at a point is a numerical failure:
    exit 3 with an error line, never a traceback.  The commands run in a
    fresh interpreter, as a user runs them."""

    @pytest.mark.parametrize("args", [
        "verify --suite convexity --q 1 --x 1 --x 1e200",
        "verify --suite bounds --q 1 --x 1 --x 1e200",
        "verify --suite simon --q 150 --x 1e-3 --x 1",
        "verify --suite logconvexity --q 0 --q 200 --x 1",
        "verify --q 1e308 --x 1 --x 2",              # no point evaluates
        "verify --suite bounds --q 1 --x 1e300",
    ])
    def test_exit_code(self, args):
        out = subprocess.run(
            [sys.executable, "-m", "regcoulomb.cli", *args.split()],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC), "PATH": ""},
        )
        assert out.returncode == 3, out.stderr
        assert "Traceback" not in out.stderr
        assert "error" in (out.stdout + out.stderr).lower()


# ---------------------------------------------------------------------------
# envelope


class TestEnvelopeCommand:
    def test_default_csv_shape(self, runner):
        result = invoke(runner, "envelope", "--q", "0")
        lines = result.stdout.splitlines()
        assert lines[0] == "x,lower_exp,lower_kratzel,vq,upper_agm"
        assert len(lines) == 26           # header + 25 rows
        assert lines[1].startswith("0.1,")
        assert lines[-1].startswith("20,")

    def test_row_bracketing(self, runner):
        for q in ("-0.5", "0", "1", "5"):
            result = invoke(runner, "envelope", "--q", q)
            for line in result.stdout.splitlines()[1:]:
                x, lo_exp, lo_kr, value, hi = (float(c) for c in line.split(","))
                assert lo_exp < value < hi
                assert lo_kr < value

    def test_known_row_values(self, runner):
        result = invoke(runner, "envelope", "--q", "0", "--x-min", "1",
                        "--x-max", "4", "--steps", "3")
        first = result.stdout.splitlines()[1].split(",")
        assert first[0] == "1"
        assert abs(float(first[1]) - 2.0 / 3.0) < 1e-12
        assert abs(float(first[2]) - 0.430913192167) < 1e-10
        assert abs(float(first[3]) - 0.757872156141) < 1e-10
        assert abs(float(first[4]) - 0.866500460092) < 1e-10

    def test_agm_column_dropped_with_notice(self, runner):
        result = invoke(runner, "envelope", "--q", "-0.8", "--steps", "3")
        lines = result.stdout.splitlines()
        assert lines[0] == "x,lower_exp,lower_kratzel,vq"
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        assert "upper envelope requires q > -3/4" in result.stderr

    def test_a_rejected_order_prints_no_notice(self, runner):
        # the order is checked before the notice on the upper envelope
        result = runner.invoke(main, ["envelope", "--q", "nan"])
        assert result.exit_code == 2
        assert "notice" not in result.stderr
        assert "error: order must be finite" in result.stderr
        dropped = invoke(runner, "envelope", "--q", "-0.9")
        assert dropped.stderr == ("notice: upper envelope requires q > -3/4; "
                                  "column dropped for q=-0.9\n")

    def test_json_format(self, runner):
        result = invoke(runner, "envelope", "--q", "-0.8", "--steps", "2",
                        "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["q"] == -0.8
        assert "q > -3/4" in payload["notice"]
        assert all(row["upper_agm"] is None for row in payload["rows"])
        applicable = json.loads(invoke(runner, "envelope", "--q", "1",
                                       "--steps", "2",
                                       "--format", "json").stdout)
        assert applicable["notice"] is None
        assert all(row["upper_agm"] > row["vq"] for row in applicable["rows"])

    @pytest.mark.parametrize("q", ["1", "-0.8"])
    def test_json_rows_match_csv_numbers(self, runner, q):
        args = ["envelope", "--q", q, "--steps", "7"]
        header, *csv_rows = invoke(runner, *args).stdout.splitlines()
        header = header.split(",")
        json_rows = json.loads(
            invoke(runner, *args, "--format", "json").stdout)["rows"]
        assert len(json_rows) == len(csv_rows) == 7
        for cells, obj in zip((r.split(",") for r in csv_rows), json_rows):
            keys = list(obj)
            assert keys[:len(header)] == header
            assert [float(c) for c in cells] == [obj[k] for k in header]
            # a dropped column stays in JSON as null
            assert keys == "x,lower_exp,lower_kratzel,vq,upper_agm".split(",")
            assert all(obj[k] is None for k in keys[len(header):])
        assert len(header) == (5 if q == "1" else 4)

    def test_domain_and_usage_errors_exit_2(self, runner):
        for args in (["envelope", "--q", "-1.2"],
                     ["envelope", "--q", "0", "--steps", "1"],
                     ["envelope", "--q", "0", "--x-min", "5", "--x-max", "2"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args
