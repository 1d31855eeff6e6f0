"""Grid verification of every monotonicity, convexity, Turan-type, and
bound property of V_q and the Mills ratio.

The suites live in one registry that maps each name in :data:`SUITES` to
its implementation; :func:`run_suite` is the one entry point and merges the
selected suites into a single :class:`VerificationReport`.  One suite runs
alone as ``run_suite(VerifyConfig(suites=(name,), grid=...))``.  The
suites, in canonical order:

* ``monotonicity`` -- six monotone families in x, checked on consecutive
  grid points: x V'/V and x^2 V' decreasing (q > -1); V'/x and V'/(xV)
  increasing (q >= 0); V_{q+1}/V_q and V_{q+1} - V_q increasing.
* ``convexity`` -- power-mean (a, b)-convexity over the five proven
  parameter regions, each verified two independent ways: monotonicity of
  the monitor M(x) = x^{1-a} V'(x) V(x)^{b-1}, and direct midpoint
  comparisons V(H_a(x, y)) vs H_b(V(x), V(y)) at weights 0.5 and 0.3.
* ``turan`` -- the two-sided Turan inequality with its sharp small-x
  constant, the improved upper bound V_{q+1}^2 < V_q V_{q+2}, the
  order-raising bound (2q+1) V_q < 2(q+1) V_{q+1}, and the shifted form
  (q+1) V_{q+1}^2 - (q+2) V_q V_{q+2} > -V_q V_{q+1}.
* ``logconvexity`` -- strict midpoint log-convexity of q -> Gamma(q+1) V_q(x);
  the same test for q -> V_q(x) is an open problem and is only observed.
* ``simon`` -- the product-gap bound V_q V_{q+2} - V_{q+1}^2 < V_{q+1} V_{q+2}/x
  together with its 1/x^2 variant (both confirmed numerically); the two
  product-ratio forms with exponents x^{-2(q+3)} and x^{-2q-7} fail
  numerically for moderately large x and are therefore observation-only.
* ``bounds`` -- the Mills bound family f1..f5 with its domain splits, the
  Mills ODE residual m' = x m - 1 (centered difference), the order-ratio
  bound V_q/V_{q-1} > 2x^2/(2x^2+1), order monotonicity V_q < V_{q-1},
  x V_q increasing, and the three V_q envelopes.

Strict inequalities follow a uniform tolerance policy: ``lhs < rhs`` passes
iff ``lhs < rhs - max(1e-12, rel_tol * |rhs|)`` with ``rel_tol`` defaulting
to 1e-9, so floating-point ties can never be mistaken for confirmation.
Reports are deterministic: records are sorted canonically by
(suite, q, x, y) regardless of evaluation order.

Values come from one memo per run, read an order at a time; the misses go
to one :func:`vq_many` or :func:`vq_prime_many` call.  A point the batch
could not evaluate is tried once by the scalar :func:`vq` or
:func:`vq_prime`, and the error that raises is memoised in its place and
recorded by each check that needs the point.  A float overflow in a
check's own arithmetic ends that suite with one evaluation error.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.special as sc

from .bounds import mills_bounds, vq_lower_exp, vq_lower_kratzel, vq_upper_agm
from .errors import DomainError, NumericalError, UsageError
from .potential import mills, vq, vq_many, vq_prime, vq_prime_many

DEFAULT_REL_TOL = 1e-9
ABS_TOL_FLOOR = 1e-12

#: fixed orders for the small-x sharpness check of the Turan constant;
#: the approach rate degrades like x^{2q+1} near q = -1/2, so only orders
#: with 2q+1 comfortably positive can meet the 1e-3 window at x = 1e-4
SHARPNESS_Q = (0.0, 1.0, 2.5)
SHARPNESS_X = 1e-4
SHARPNESS_TOL = 1e-3

#: Mills ODE residual cap, |m'(x) - (x m(x) - 1)| with a centered difference
ODE_RESIDUAL_TOL = 1e-8

DEFAULT_Q_VALUES = (-0.45, -0.25, 0.0, 0.3, 0.5, 1.0, 2.0, 3.5, 5.0)
_DEFAULT_X_COUNT = 60
_DEFAULT_X_RANGE = (0.05, 20.0)
_PAIR_POINTS = 12


def strictly_less(lhs: float, rhs: float, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """Strict comparison with a guard band: lhs < rhs - max(floor, rel|rhs|)."""
    return lhs < rhs - max(ABS_TOL_FLOOR, rel_tol * abs(rhs))


@dataclass(frozen=True)
class Grid:
    """Evaluation grid: strictly increasing orders q > -1 and abscissas x > 0."""

    q_values: tuple[float, ...]
    x_values: tuple[float, ...]
    description: str = ""

    def __post_init__(self) -> None:
        q_values = tuple(float(q) for q in self.q_values)
        x_values = tuple(float(x) for x in self.x_values)
        object.__setattr__(self, "q_values", q_values)
        object.__setattr__(self, "x_values", x_values)
        for q in q_values:
            if not math.isfinite(q) or q <= -1.0:
                raise DomainError(f"grid orders must satisfy q > -1, got {q}")
        for x in x_values:
            if not math.isfinite(x) or x <= 0.0:
                raise DomainError(f"grid abscissas must satisfy x > 0, got {x}")
        if any(b <= a for a, b in zip(q_values, q_values[1:])):
            raise DomainError("grid orders must be strictly increasing")
        if any(b <= a for a, b in zip(x_values, x_values[1:])):
            raise DomainError("grid abscissas must be strictly increasing")

    @property
    def is_empty(self) -> bool:
        return not self.q_values or not self.x_values

    def pair_x_values(self, max_points: int = _PAIR_POINTS) -> tuple[float, ...]:
        """Deterministic sub-grid used for pairwise (x, y) checks."""
        n = len(self.x_values)
        if n <= max_points:
            return self.x_values
        idx = sorted({int(round(i)) for i in np.linspace(0, n - 1, max_points)})
        return tuple(self.x_values[i] for i in idx)


def default_grid() -> Grid:
    """The standard verification grid: 9 orders straddling every validity
    boundary (-1/2 and 0), 60 log-spaced abscissas on [0.05, 20]."""
    x = np.geomspace(*_DEFAULT_X_RANGE, _DEFAULT_X_COUNT)
    return Grid(
        q_values=DEFAULT_Q_VALUES,
        x_values=tuple(float(v) for v in x),
        description="default: q crossing {-1/2, 0} boundaries, x log-spaced on [0.05, 20]",
    )


# ---------------------------------------------------------------------------
# power-mean convexity specification


def _region_q_min(a: float, b: float, direction: str) -> Optional[float]:
    """Minimal admissible q-region bound over the proven (a, b) regions.

    Returns -1.0 (exclusive bound) or 0.0 (inclusive bound), or None when
    (a, b, direction) lies in no proven region.
    """
    candidates = []
    if direction == "concave":
        if a <= 0.0 and b <= 0.0:
            candidates.append(-1.0)
        if a <= -1.0 and b <= 1.0:
            candidates.append(-1.0)
        if a <= 1.0 and b <= -1.0:
            candidates.append(0.0)
    elif direction == "convex":
        if a >= 2.0 and b >= 0.0:
            candidates.append(0.0)
    return min(candidates) if candidates else None


@dataclass(frozen=True)
class ConvexitySpec:
    """A proven (a, b)-convexity/concavity claim for V_q.

    ``a`` is the power-mean order on the argument side, ``b`` on the value
    side, ``direction`` is "convex" or "concave", and ``q_min`` encodes the
    order region (-1.0 means q > -1, 0.0 means q >= 0).  Construction fails
    for parameter combinations outside the proven regions.
    """

    a: float
    b: float
    direction: str
    q_min: Optional[float] = None
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.direction not in ("convex", "concave"):
            raise DomainError(f"direction must be convex or concave, got {self.direction!r}")
        required = _region_q_min(float(self.a), float(self.b), self.direction)
        if required is None:
            raise DomainError(
                f"(a={self.a}, b={self.b}, {self.direction}) lies in no proven region"
            )
        q_min = required if self.q_min is None else float(self.q_min)
        if q_min < required:
            raise DomainError(
                f"q_min={q_min} is weaker than the proven region bound {required} "
                f"for (a={self.a}, b={self.b}, {self.direction})"
            )
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "q_min", q_min)
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")

    def admits(self, q: float) -> bool:
        # the -1 bound is exclusive (q > -1), the 0 bound inclusive (q >= 0)
        return q > self.q_min if self.q_min < 0.0 else q >= self.q_min


def default_convexity_specs() -> tuple[ConvexitySpec, ...]:
    """Region corners plus one interior point for each proven region."""
    specs: list[ConvexitySpec] = []

    def add(points: Iterable[tuple[float, float]], direction: str, q_min: float) -> None:
        for a, b in points:
            specs.append(ConvexitySpec(a, b, direction, q_min))

    # a <= 0, b <= 0, q > -1 (concave); contains the geometric-geometric case
    add([(-3, -3), (-3, 0), (-1, -3), (-1, 0), (0, -3), (0, 0), (-2, -1.5)], "concave", -1.0)
    # a <= -1, b <= 1, q > -1 (concave); contains the harmonic-arithmetic case
    add([(-2, -1), (-2, 0), (-2, 1), (-1, -1), (-1, 0), (-1, 1), (-1.5, 0.5)], "concave", -1.0)
    # a >= 2, b >= 1, q >= 0 (convex)
    add([(2, 1), (2, 2), (3, 1), (3, 2), (2.5, 1.5)], "convex", 0.0)
    # a >= 2, b >= 0, q >= 0 (convex); contains the quadratic-geometric case
    add([(2, 0), (2, 0.5), (3, 0), (3, 0.5), (2.5, 0.25)], "convex", 0.0)
    # a <= 1, b <= -1, q >= 0 (concave)
    add([(0, -1), (0, -2), (1, -1), (1, -2), (0.5, -1.5)], "concave", 0.0)
    return tuple(specs)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class ViolationRecord:
    """A single failed check.  ``suite`` identifies the check as
    "suitename:check-name"; ``y`` is the second member for pairwise checks
    (an x for argument pairs, a q for order pairs); ``margin`` is the signed
    slack rhs - lhs (or cap - |residual| for residual checks), which failed
    the tolerance policy."""

    suite: str
    q: Optional[float]
    x: Optional[float]
    y: Optional[float]
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class ObservationRecord:
    """A non-asserted finding (open-problem track, unconfirmed variant, or
    per-check echo in single-point mode)."""

    suite: str
    q: Optional[float]
    x: Optional[float]
    y: Optional[float]
    lhs: Optional[float]
    rhs: Optional[float]
    note: str


def _record_key(rec) -> tuple:
    def val(v):
        return float("-inf") if v is None else v

    return (rec.suite, val(rec.q), val(rec.x), val(rec.y))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite (or a merged selection of suites) over a grid.

    ``pass`` holds iff ``violations`` is empty; observations and evaluation
    errors never affect it.  Records are canonically sorted.
    """

    suite: str
    grid: Grid
    rel_tol: float
    n_checks: int
    violations: tuple[ViolationRecord, ...]
    observations: tuple[ObservationRecord, ...]
    errors: tuple[ObservationRecord, ...]
    min_margin: Optional[float]
    max_margin: Optional[float]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "grid": {"q": list(self.grid.q_values), "x": list(self.grid.x_values)},
            "tolerance": self.rel_tol,
            "pass": self.passed,
            "counts": {
                "checks": self.n_checks,
                "violations": len(self.violations),
                "observations": len(self.observations),
                "errors": len(self.errors),
            },
            "extremal_margins": {"min": self.min_margin, "max": self.max_margin},
            "violations": [asdict(v) for v in self.violations],
            "observations": [asdict(o) for o in self.observations],
            "errors": [asdict(e) for e in self.errors],
        }


class _Collector:
    """Accumulates check outcomes for one suite run."""

    def __init__(self, rel_tol: float, emit_checks: bool = False) -> None:
        self.rel_tol = rel_tol
        self.emit_checks = emit_checks
        self.violations: list[ViolationRecord] = []
        self.observations: list[ObservationRecord] = []
        self.errors: list[ObservationRecord] = []
        self.n_checks = 0
        self.min_margin = math.inf
        self.max_margin = -math.inf

    def _record(
        self,
        label: str,
        lhs: float,
        rhs: float,
        margin: float,
        ok: bool,
        q: Optional[float],
        x: Optional[float],
        y: Optional[float],
    ) -> None:
        """Count one asserted check, track its margin, and keep its records."""
        self.n_checks += 1
        self.min_margin = min(self.min_margin, margin)
        self.max_margin = max(self.max_margin, margin)
        if not ok:
            self.violations.append(ViolationRecord(label, q, x, y, lhs, rhs, margin))
        if self.emit_checks:
            self.observations.append(
                ObservationRecord(
                    label, q, x, y, lhs, rhs, "pass" if ok else "VIOLATION"
                )
            )

    def assert_less(
        self,
        label: str,
        lhs: float,
        rhs: float,
        q: Optional[float] = None,
        x: Optional[float] = None,
        y: Optional[float] = None,
    ) -> None:
        """Assert the strict inequality lhs < rhs under the tolerance policy."""
        ok = strictly_less(lhs, rhs, self.rel_tol)
        self._record(label, lhs, rhs, rhs - lhs, ok, q, x, y)

    def assert_residual(
        self,
        label: str,
        residual: float,
        cap: float,
        q: Optional[float] = None,
        x: Optional[float] = None,
    ) -> None:
        """Assert the non-strict residual bound |residual| <= cap."""
        size = abs(residual)
        self._record(label, size, cap, cap - size, size <= cap, q, x, None)

    def observe_less(
        self,
        label: str,
        lhs: float,
        rhs: float,
        q: Optional[float] = None,
        x: Optional[float] = None,
        y: Optional[float] = None,
    ) -> bool:
        """Record a non-asserted inequality; returns whether it held."""
        ok = strictly_less(lhs, rhs, self.rel_tol)
        if not ok or self.emit_checks:
            self.observations.append(
                ObservationRecord(
                    label, q, x, y, lhs, rhs, "holds" if ok else "fails (not asserted)"
                )
            )
        return ok

    def note(self, label: str, note: str) -> None:
        self.observations.append(ObservationRecord(label, None, None, None, None, None, note))

    def record_error(
        self, label: str, exc: Exception, q: Optional[float], x: Optional[float]
    ) -> None:
        self.errors.append(
            ObservationRecord(
                f"{label}[evaluation-error]", q, x, None, None, None, str(exc)
            )
        )

    def report(self, suite: str, grid: Grid) -> VerificationReport:
        has = self.n_checks > 0
        return VerificationReport(
            suite=suite,
            grid=grid,
            rel_tol=self.rel_tol,
            n_checks=self.n_checks,
            violations=tuple(sorted(self.violations, key=_record_key)),
            observations=tuple(sorted(self.observations, key=_record_key)),
            errors=tuple(sorted(self.errors, key=_record_key)),
            min_margin=self.min_margin if has else None,
            max_margin=self.max_margin if has else None,
        )


class _Evaluator:
    """One memo of V_q and V_q' values per run (see the module docstring)."""

    def __init__(self) -> None:
        # (prime, q, x) -> the value, or the error its scalar evaluation raised
        self._memo: dict[tuple[bool, float, float], float | Exception] = {}

    def values(self, q: float, xs: Sequence[float], prime: bool = False) -> list:
        """V_q (or V_q' if ``prime``) at every x of ``xs``: a float, or the
        error the point's evaluation raised.  Misses are evaluated in one
        batch; a point the batch could not evaluate is tried once by the
        scalar call, and the error it raises is memoised in place of a value."""
        memo = self._memo
        todo = [x for x in dict.fromkeys(xs) if (prime, q, x) not in memo]
        if todo:
            try:
                got = (vq_prime_many if prime else vq_many)(q, todo).tolist()
            except DomainError:
                got = [math.nan] * len(todo)
            for x, value in zip(todo, got):
                memo[(prime, q, x)] = _scalar(q, x, prime) if math.isnan(value) else value
        return [memo[(prime, q, x)] for x in xs]

    def rows(self, col: _Collector, label: str, q: float, xs: Sequence[float],
             *columns: tuple[float, bool]) -> list[tuple]:
        """``(x, value, ...)``, one value per ``(order, prime)`` column, for
        each x of ``xs`` at which every column evaluated.  At the other x the
        first failing column's error is recorded under ``label`` at (q, x)."""
        cols = [self.values(order, xs, prime) for order, prime in columns]
        rows = []
        for row in zip(xs, *cols):
            error = _first_error(row[1:])
            if error is None:
                rows.append(row)
            else:
                col.record_error(label, error, q, row[0])
        return rows


def _scalar(q: float, x: float, prime: bool) -> float | Exception:
    try:
        return vq_prime(q, x, "integral") if prime else vq(q, x).value
    except (DomainError, NumericalError) as exc:
        return exc


def _first_error(values: Iterable) -> Optional[Exception]:
    return next((v for v in values if isinstance(v, Exception)), None)


# ---------------------------------------------------------------------------
# suite implementations


def _monotonicity_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    for q in grid.q_values:
        rows = ev.rows(
            col, "monotonicity", q, grid.x_values, (q, False), (q, True), (q + 1.0, False)
        )
        for (x1, v1, vp1, w1), (x2, v2, vp2, w2) in zip(rows, rows[1:]):
            col.assert_less(
                "monotonicity:x-logslope-decreasing",
                x2 * vp2 / v2, x1 * vp1 / v1, q=q, x=x1, y=x2,
            )
            col.assert_less(
                "monotonicity:x2-slope-decreasing",
                x2 * x2 * vp2, x1 * x1 * vp1, q=q, x=x1, y=x2,
            )
            if q >= 0.0:
                col.assert_less(
                    "monotonicity:slope-over-x-increasing",
                    vp1 / x1, vp2 / x2, q=q, x=x1, y=x2,
                )
                col.assert_less(
                    "monotonicity:normalized-slope-increasing",
                    vp1 / (x1 * v1), vp2 / (x2 * v2), q=q, x=x1, y=x2,
                )
            col.assert_less(
                "monotonicity:order-ratio-increasing",
                w1 / v1, w2 / v2, q=q, x=x1, y=x2,
            )
            col.assert_less(
                "monotonicity:order-difference-increasing",
                w1 - v1, w2 - v2, q=q, x=x1, y=x2,
            )


def _power_mean(order: float, u: float, v: float, alpha: float) -> float:
    """Weighted power mean H_order(u, v; alpha), geometric at order 0."""
    if order == 0.0:
        return math.exp(alpha * math.log(u) + (1.0 - alpha) * math.log(v))
    return (alpha * u ** order + (1.0 - alpha) * v ** order) ** (1.0 / order)


def _convexity_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    pair_x = grid.pair_x_values()
    for spec in default_convexity_specs():
        a, b, convex = spec.a, spec.b, spec.direction == "convex"
        tag = f"a={a:g},b={b:g},{spec.direction}"
        monitor_label = f"convexity:monitor[{tag}]"
        midpoints = [
            (x1, x2, alpha, _power_mean(a, x1, x2, alpha),
             f"convexity:midpoint[{tag},alpha={alpha:g}]")
            for i, x1 in enumerate(pair_x)
            for x2 in pair_x[i + 1:]
            for alpha in sorted({spec.alpha, 0.3})
        ]
        points = pair_x + tuple(m[3] for m in midpoints)
        for q in grid.q_values:
            if not spec.admits(q):
                continue
            # (i) monitor route: M(x) = x^{1-a} V'(x) V(x)^{b-1}, increasing
            # exactly when V_q is (a, b)-convex
            monitor = [
                (x, x ** (1.0 - a) * vp * v ** (b - 1.0))
                for x, vp, v in ev.rows(
                    col, monitor_label, q, grid.x_values, (q, True), (q, False)
                )
            ]
            for (x1, m1), (x2, m2) in zip(monitor, monitor[1:]):
                lhs, rhs = (m1, m2) if convex else (m2, m1)
                col.assert_less(monitor_label, lhs, rhs, q=q, x=x1, y=x2)

            # (ii) midpoint route: compare V at the argument mean with the
            # value mean, strictly, for distinct pair members
            at = dict(zip(points, ev.values(q, points)))
            for x1, x2, alpha, t, label in midpoints:
                v_at_mean, v1, v2 = at[t], at[x1], at[x2]
                error = _first_error((v_at_mean, v1, v2))
                if error is not None:
                    col.record_error(label, error, q, x1)
                    continue
                mean_of_v = _power_mean(b, v1, v2, alpha)
                lhs, rhs = (v_at_mean, mean_of_v) if convex else (mean_of_v, v_at_mean)
                col.assert_less(label, lhs, rhs, q=q, x=x1, y=x2)


def _turan_constant(q: float) -> float:
    return (q + 2.0) * (2.0 * q + 1.0) / ((q + 1.0) * (2.0 * q + 3.0))


def _three_orders(q: float) -> tuple[tuple[float, bool], ...]:
    """The columns V_q, V_{q+1}, V_{q+2} of :meth:`_Evaluator.rows`."""
    return (q, False), (q + 1.0, False), (q + 2.0, False)


def _turan_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    for q in grid.q_values:
        for x, v0, v1, v2 in ev.rows(col, "turan", q, grid.x_values, *_three_orders(q)):
            prod = v0 * v2
            col.assert_less(
                "turan:upper", v1 * v1, (q + 2.0) / (q + 1.0) * prod, q=q, x=x
            )
            col.assert_less("turan:improved-upper", v1 * v1, prod, q=q, x=x)
            if q > -0.5:
                col.assert_less(
                    "turan:lower", _turan_constant(q) * prod, v1 * v1, q=q, x=x
                )
            col.assert_less(
                "turan:order-bound",
                (2.0 * q + 1.0) * v0, 2.0 * (q + 1.0) * v1, q=q, x=x,
            )
            col.assert_less(
                "turan:shifted-lower",
                -v0 * v1, (q + 1.0) * v1 * v1 - (q + 2.0) * prod, q=q, x=x,
            )

    # sharpness of the lower constant as x -> 0, at fixed representative
    # orders: the ratio approaches the constant like x^{min(2q+1, 2)}
    label = "turan:lower-sharpness-limit"
    for q in SHARPNESS_Q:
        for x, v0, v1, v2 in ev.rows(col, label, q, (SHARPNESS_X,), *_three_orders(q)):
            ratio = v1 * v1 / (v0 * v2)
            col.assert_residual(label, ratio - _turan_constant(q), SHARPNESS_TOL, q=q, x=x)


def _logconvexity_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    xs, qs = grid.pair_x_values(), grid.q_values
    label = "logconvexity:unweighted-midpoint[open-problem]"
    open_total = dict.fromkeys(xs, 0)
    open_held = dict.fromkeys(xs, 0)
    for i, q1 in enumerate(qs):
        for q2 in qs[i + 1:]:
            mid = 0.5 * (q1 + q2)
            orders = ((q1, False), (q2, False), (mid, False))
            rows = ev.rows(col, "logconvexity", q1, xs, *orders)
            w1, w2, wm = (math.exp(sc.gammaln(q + 1.0)) for q in (q1, q2, mid))
            for x, g1, g2, gm in rows:
                f1, f2, fm = w1 * g1, w2 * g2, wm * gm
                col.assert_less(
                    "logconvexity:gamma-weighted-midpoint",
                    fm * fm, f1 * f2, q=q1, x=x, y=q2,
                )
                open_total[x] += 1
                if col.observe_less(label, gm * gm, g1 * g2, q=q1, x=x, y=q2):
                    open_held[x] += 1
    for x in xs:
        col.note(
            label,
            f"open problem, never asserted: strict midpoint log-convexity of "
            f"q -> V_q held at {open_held[x]} of {open_total[x]} pairs at x={x:g}",
        )


def _simon_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    printed_total = printed_failed = 0
    rederived_total = rederived_failed = 0
    for q in grid.q_values:
        for x, v0, v1, v2 in ev.rows(col, "simon", q, grid.x_values, *_three_orders(q)):
            gap = v0 * v2 - v1 * v1
            col.assert_less("simon:product-gap-bound", gap, v1 * v2 / x, q=q, x=x)
            col.assert_less(
                "simon:product-gap-bound-quadratic", gap, v1 * v2 / (x * x), q=q, x=x
            )
            col.assert_less("simon:two-sided-upper", v1 * v1 - v0 * v2, 0.0, q=q, x=x)

            # product-ratio forms: both exponent variants fail numerically
            # for x beyond roughly 2.26, so they are observed, not asserted
            printed_total += 1
            if not col.observe_less(
                "simon:product-ratio-bound[printed-exponent]",
                v0 * v2,
                v1 * v1 * (1.0 + x ** (-2.0 * (q + 3.0)) * v2),
                q=q, x=x,
            ):
                printed_failed += 1
            rederived_total += 1
            if not col.observe_less(
                "simon:product-ratio-bound[rederived-exponent]",
                v0 * v2,
                v1 * v1 * (1.0 + x ** (-(2.0 * q + 7.0)) * v2),
                q=q, x=x,
            ):
                rederived_failed += 1
    col.note(
        "simon:product-ratio-bound[printed-exponent]",
        f"not asserted: the x^(-2(q+3)) product-ratio form failed at "
        f"{printed_failed} of {printed_total} grid points (fails for large x)",
    )
    col.note(
        "simon:product-ratio-bound[rederived-exponent]",
        f"not asserted: the x^(-2q-7) product-ratio form failed at "
        f"{rederived_failed} of {rederived_total} grid points (fails for large x)",
    )


def _bounds_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    # Mills bound family (order-free, over the x grid)
    for x in grid.x_values:
        try:
            row = mills_bounds(x)
        except (DomainError, NumericalError) as exc:
            col.record_error("bounds:mills", exc, None, x)
            continue
        col.assert_less("bounds:mills-lower-f1", row.f1, row.m, x=x)
        col.assert_less("bounds:mills-upper-f2", row.m, row.f2, x=x)
        if row.f3 is not None:
            col.assert_less("bounds:mills-upper-f3", row.m, row.f3, x=x)
        col.assert_less("bounds:mills-upper-f4", row.m, row.f4, x=x)
        col.assert_less("bounds:mills-upper-f5", row.m, row.f5, x=x)
        if x > 1.0 and row.f3 is not None:
            col.assert_less("bounds:f3-below-f2-beyond-1", row.f3, row.f2, x=x)

        # ODE residual m' = x m - 1 via centered difference
        h = 1e-5 * max(1.0, x)
        if x - h > 0.0:
            try:
                deriv = (mills(x + h) - mills(x - h)) / (2.0 * h)
                residual = deriv - (x * row.m - 1.0)
            except (DomainError, NumericalError) as exc:
                col.record_error("bounds:mills-ode-residual", exc, None, x)
            else:
                col.assert_residual(
                    "bounds:mills-ode-residual", residual, ODE_RESIDUAL_TOL, x=x
                )

    # order-indexed bounds and envelopes
    for q in grid.q_values:
        values = ev.rows(col, "bounds", q, grid.x_values, (q, False))
        if q >= 0.0:
            evaluated = [x for x, _ in values]
            for x, v, v_prev in ev.rows(
                col, "bounds:order-ratio", q, evaluated, (q, False), (q - 1.0, False)
            ):
                xsq2 = 2.0 * x * x
                col.assert_less(
                    "bounds:order-ratio-lower", xsq2 / (xsq2 + 1.0), v / v_prev, q=q, x=x
                )
                col.assert_less("bounds:order-decreasing", v, v_prev, q=q, x=x)

        for x, v in values:
            try:
                col.assert_less(
                    "bounds:envelope-lower-exp", vq_lower_exp(q, x), v, q=q, x=x
                )
                if q > -0.75:
                    col.assert_less(
                        "bounds:envelope-upper-agm", v, vq_upper_agm(q, x), q=q, x=x
                    )
                col.assert_less(
                    "bounds:envelope-lower-kratzel", vq_lower_kratzel(q, x), v, q=q, x=x
                )
            except (DomainError, NumericalError) as exc:
                col.record_error("bounds:envelope", exc, q, x)

        for (x1, v1), (x2, v2) in zip(values, values[1:]):
            col.assert_less("bounds:x-vq-increasing", x1 * v1, x2 * v2, q=q, x=x1, y=x2)


#: the suite registry: each suite's implementation, in canonical order
_SUITE_IMPLS = {
    "monotonicity": _monotonicity_impl,
    "convexity": _convexity_impl,
    "turan": _turan_impl,
    "logconvexity": _logconvexity_impl,
    "simon": _simon_impl,
    "bounds": _bounds_impl,
}
SUITES = tuple(_SUITE_IMPLS)


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class VerifyConfig:
    """Selection of suites, grid, and tolerance for :func:`run_suite`."""

    suites: tuple[str, ...] = ("all",)
    grid: Optional[Grid] = None
    rel_tol: float = DEFAULT_REL_TOL
    emit_checks: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "suites", tuple(self.suites))
        if not (0.0 < self.rel_tol < 1.0):
            raise UsageError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")


def _resolve_suites(names: Sequence[str]) -> tuple[str, ...]:
    if not names:
        raise UsageError("no suite selected")
    selected: list[str] = []
    for name in names:
        if name == "all":
            selected.extend(SUITES)
        elif name in SUITES:
            selected.append(name)
        else:
            raise UsageError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES + ('all',))}"
            )
    # dedupe, preserving canonical order
    return tuple(s for s in SUITES if s in selected)


def run_suite(config: VerifyConfig) -> VerificationReport:
    """Run the selected suites over one grid and merge into a single report.

    Deterministic: records are canonically sorted, so the result is
    independent of evaluation order.  An :class:`ArithmeticError` that
    escapes a suite is recorded as that suite's evaluation error.  Raises
    :class:`UsageError` for unknown suite names or an empty grid.
    """
    selected = _resolve_suites(config.suites)
    grid = config.grid if config.grid is not None else default_grid()
    if grid.is_empty:
        raise UsageError("verification grid is empty")

    ev = _Evaluator()
    col = _Collector(config.rel_tol, config.emit_checks)
    for suite in selected:
        try:
            _SUITE_IMPLS[suite](grid, col, ev)
        except ArithmeticError as exc:  # e.g. float overflow at extreme q or x
            col.record_error(suite, exc, None, None)

    name = "all" if selected == SUITES else ",".join(selected)
    return col.report(name, grid)


def _check_inverted_fixture(rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Self-test fixture: asserts a deliberately inverted inequality so the
    harness demonstrably produces a violation with negative margin."""
    grid = Grid((0.0,), (1.0,), description="self-test fixture")
    col = _Collector(rel_tol)
    v = vq(0.0, 1.0).value
    # inverted on purpose: the exponential envelope is a *lower* bound
    col.assert_less("selftest:inverted-envelope", v, vq_lower_exp(0.0, 1.0), q=0.0, x=1.0)
    return col.report("selftest", grid)
