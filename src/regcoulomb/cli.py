"""Command-line front-end: evaluate V_q, tabulate the Mills-ratio bounds,
run the inequality verifier, and tabulate the V_q envelopes.

Exit-code contract:

* 0 — success (for ``verify``: every asserted check holds),
* 1 — the verifier found a genuine violation,
* 2 — malformed usage or a domain error (bad flags, q out of range, ...),
* 3 — numerical failure (an evaluation did not converge to tolerance, or
  a float overflowed).

All numeric output is deterministic for fixed inputs; numbers are printed
with ``%.{precision}g`` (shortest form at the configured significant
digits).
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import astuple
from typing import Callable, Optional

import click

from . import __version__
from ._lazy import np
from .bounds import mills_bounds, vq_envelope
from .errors import DomainError, NumericalError, UsageError
from .potential import vq
from .verify import (
    DEFAULT_REL_TOL,
    SUITES,
    Grid,
    VerificationReport,
    VerifyConfig,
    default_grid,
    run_suite,
)

#: table headers, one name per row field in field order; they are also the
#: JSON keys of each row
_FIGURE_HEADER = "x,f1,f2,f3,f4,f5,m"
_ENVELOPE_HEADER = "x,lower_exp,lower_kratzel,vq,upper_agm"


def _fmt(value: float, precision: int) -> str:
    """Shortest decimal form at ``precision`` significant digits."""
    return format(value, f".{precision}g")


def _jnum(value: Optional[float], precision: int) -> Optional[float]:
    """The same number the CSV emitter would print, as a JSON float."""
    if value is None:
        return None
    return float(_fmt(value, precision))


def _csv_cells(row, precision: int, columns: Optional[int] = None) -> list[str]:
    """A table row's first ``columns`` fields as CSV cells; None is empty."""
    return ["" if v is None else _fmt(v, precision) for v in astuple(row)[:columns]]


def _json_row(row, header: str, precision: int) -> dict:
    """A table row as a JSON object keyed by the CSV header's names."""
    return {key: _jnum(v, precision) for key, v in zip(header.split(","), astuple(row))}


def _mapped(fn: Callable) -> Callable:
    """Map library exceptions onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (UsageError, DomainError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except ArithmeticError as exc:  # NumericalError, or a float overflow
            detail = exc if isinstance(exc, NumericalError) else f"{type(exc).__name__}: {exc}"
            click.echo(f"error: {detail}", err=True)
            sys.exit(3)

    return wrapper


def _check_positive_range(x_min: float, x_max: float, steps: int) -> None:
    if not (math.isfinite(x_min) and x_min > 0.0):
        raise UsageError(f"x-min must be positive and finite, got {x_min}")
    if not math.isfinite(x_max):
        raise UsageError(f"x-max must be finite, got {x_max}")
    if x_max <= x_min:
        raise UsageError(f"x-max must exceed x-min, got [{x_min}, {x_max}]")
    if steps < 2:
        raise UsageError(f"steps must be at least 2, got {steps}")


def _uniform_grid(x_min: float, x_max: float, steps: int) -> list[float]:
    """``np.linspace(x_min, x_max, steps)`` in Python floats, by its formula:
    ``k step + x_min``, or ``(k / div) (x_max - x_min) + x_min`` where the
    step underflows to 0, and the last point ``x_max``."""
    div, delta = steps - 1, x_max - x_min
    step = delta / div
    return [(k * step if step else k / div * delta) + x_min for k in range(div)] + [x_max]


@click.group()
@click.version_option(__version__, prog_name="regcoulomb")
def main() -> None:
    """Regularized Coulomb potential V_q, Mills-ratio bounds, and the
    inequality verifier."""


# ---------------------------------------------------------------------------
# eval


@main.command("eval")
@click.option("--q", type=float, required=True,
              help="Order q > -1, or the sentinel q = -1 (the 1/x convention).")
@click.option("--x", type=float, required=True,
              help="Abscissa x >= 0 (x = 0 requires q > -1/2).")
@click.option("--method",
              type=click.Choice(["auto", "quadrature", "psi", "closed-form"]),
              default="auto", show_default=True,
              help="Evaluation route; 'auto' picks per (q, x).")
@click.option("--format", "fmt", type=click.Choice(["human", "json"]),
              default="human", show_default=True)
@click.option("--precision", type=click.IntRange(6, 17), default=12,
              show_default=True, help="Significant digits of printed numbers.")
@_mapped
def cmd_eval(q: float, x: float, method: str, fmt: str, precision: int) -> None:
    """Evaluate V_q(x); report the value, the route taken, and an error
    estimate."""
    result = vq(q, x, method=method)
    if fmt == "json":
        click.echo(json.dumps({
            "q": q,
            "x": x,
            "value": _jnum(result.value, precision),
            "method": result.method,
            "abs_err_est": _jnum(result.abs_err_est, precision),
        }))
    else:
        click.echo(f"value       = {_fmt(result.value, precision)}")
        click.echo(f"method      = {result.method}")
        click.echo(f"abs_err_est = {result.abs_err_est:.3e}")


# ---------------------------------------------------------------------------
# figure


@main.command("figure")
@click.option("--x-min", type=float, default=0.7, show_default=True)
@click.option("--x-max", type=float, default=3.0, show_default=True)
@click.option("--steps", type=int, default=231, show_default=True,
              help="Number of uniformly spaced grid points (inclusive ends).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--precision", type=click.IntRange(6, 17), default=12,
              show_default=True)
@_mapped
def cmd_figure(x_min: float, x_max: float, steps: int, fmt: str,
               precision: int) -> None:
    """Tabulate the Mills ratio m and its five rational/algebraic bounds
    f1..f5 on a uniform grid; f3 is empty (CSV) or null (JSON) where it
    does not apply."""
    _check_positive_range(x_min, x_max, steps)
    rows = [mills_bounds(v) for v in _uniform_grid(x_min, x_max, steps)]
    if fmt == "json":
        click.echo(json.dumps([_json_row(r, _FIGURE_HEADER, precision)
                               for r in rows], indent=2))
    else:
        click.echo(_FIGURE_HEADER)
        for r in rows:
            click.echo(",".join(_csv_cells(r, precision)))


# ---------------------------------------------------------------------------
# verify


@main.command("verify")
@click.option("--suite", "suites", type=click.Choice(SUITES + ("all",)),
              multiple=True, default=("all",), show_default=True,
              help="Suite to run; repeatable.")
@click.option("--q", "q_values", type=float, multiple=True,
              help="Override grid orders (repeatable; sorted, deduplicated).")
@click.option("--x", "x_values", type=float, multiple=True,
              help="Override grid abscissas (repeatable; sorted, deduplicated).")
@click.option("--tolerance", "rel_tol", type=click.FloatRange(1e-13, 1e-6),
              default=DEFAULT_REL_TOL, show_default=True,
              help="Relative tolerance for strict inequalities.")
@click.option("--format", "fmt", type=click.Choice(["human", "json"]),
              default="human", show_default=True)
@_mapped
def cmd_verify(suites: tuple[str, ...], q_values: tuple[float, ...],
               x_values: tuple[float, ...], rel_tol: float, fmt: str) -> None:
    """Verify every selected inequality suite over a grid.

    Exits 0 only if every asserted check holds; a grid of one order (--q)
    and one abscissa (--x), repeats aside, selects single-point mode, which
    echoes each check with its lhs/rhs values.
    """
    grid = _resolve_grid(q_values, x_values)
    single_point = grid is not None and len(grid.q_values) == len(grid.x_values) == 1
    report = run_suite(VerifyConfig(
        suites=tuple(suites),
        grid=grid,
        rel_tol=rel_tol,
        emit_checks=single_point,
    ))
    if fmt == "json":
        click.echo(json.dumps(report.to_json_dict(), indent=2))
    else:
        _print_report(report)
    if not report.passed:
        sys.exit(1)
    if report.errors:
        sys.exit(3)


def _resolve_grid(q_values: tuple[float, ...],
                  x_values: tuple[float, ...]) -> Optional[Grid]:
    if not q_values and not x_values:
        return None
    base = default_grid()
    return Grid(
        q_values=tuple(sorted(set(q_values))) if q_values else base.q_values,
        x_values=tuple(sorted(set(x_values))) if x_values else base.x_values,
    )


def _where(q: Optional[float], x: Optional[float], y: Optional[float]) -> str:
    parts = []
    if q is not None:
        parts.append(f"q={q:.6g}")
    if x is not None:
        parts.append(f"x={x:.6g}")
    if y is not None:
        parts.append(f"y={y:.6g}")
    return f" @ {', '.join(parts)}" if parts else ""


def _print_report(report: VerificationReport) -> None:
    status = "PASS" if report.passed else "FAIL"
    click.echo(f"suite {report.suite}: {status}")
    click.echo(f"  grid: {len(report.grid.q_values)} orders x "
               f"{len(report.grid.x_values)} abscissas")
    click.echo(f"  tolerance: {report.rel_tol:g} (relative)")
    click.echo(f"  checks: {report.n_checks}  "
               f"violations: {len(report.violations)}  "
               f"observations: {len(report.observations)}  "
               f"errors: {len(report.errors)}")
    if report.min_margin is not None:
        click.echo(f"  margin range: [{report.min_margin:.6g}, "
                   f"{report.max_margin:.6g}]")
    for v in report.violations:
        click.echo(f"  VIOLATION {v.suite}{_where(v.q, v.x, v.y)}: "
                   f"lhs={v.lhs:.12g} rhs={v.rhs:.12g} margin={v.margin:.6g}")
    for o in report.observations:
        if o.lhs is None:
            click.echo(f"  note {o.suite}: {o.note}")
        else:
            click.echo(f"  check {o.suite}{_where(o.q, o.x, o.y)}: "
                       f"lhs={o.lhs:.12g} rhs={o.rhs:.12g} [{o.note}]")
    for e in report.errors:
        click.echo(f"  ERROR {e.suite}{_where(e.q, e.x, None)}: {e.note}")


# ---------------------------------------------------------------------------
# envelope


@main.command("envelope")
@click.option("--q", type=float, required=True, help="Order q > -1.")
@click.option("--x-min", type=float, default=0.1, show_default=True)
@click.option("--x-max", type=float, default=20.0, show_default=True)
@click.option("--steps", type=int, default=25, show_default=True,
              help="Number of log-spaced grid points (inclusive ends).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--precision", type=click.IntRange(6, 17), default=12,
              show_default=True)
@_mapped
def cmd_envelope(q: float, x_min: float, x_max: float, steps: int, fmt: str,
                 precision: int) -> None:
    """Tabulate V_q with its closed-form lower and upper envelopes on a
    log-spaced grid; the upper envelope requires q > -3/4 and its column
    is dropped (with a notice) otherwise."""
    _check_positive_range(x_min, x_max, steps)
    rows = [vq_envelope(q, float(v)) for v in np.geomspace(x_min, x_max, steps)]
    has_upper = q > -0.75
    notice = None
    if not has_upper:
        notice = f"upper envelope requires q > -3/4; column dropped for q={q:g}"
        click.echo(f"notice: {notice}", err=True)
    if fmt == "json":
        click.echo(json.dumps({
            "q": q,
            "notice": notice,
            "rows": [_json_row(r, _ENVELOPE_HEADER, precision) for r in rows],
        }, indent=2))
    else:
        columns = None if has_upper else -1   # drop upper_agm, the last
        click.echo(",".join(_ENVELOPE_HEADER.split(",")[:columns]))
        for r in rows:
            click.echo(",".join(_csv_cells(r, precision, columns)))


if __name__ == "__main__":
    main()
