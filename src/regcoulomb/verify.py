"""Grid verification of every monotonicity, convexity, Turan-type, and
bound property of V_q and the Mills ratio.

Six suites are provided, each producing a :class:`VerificationReport`:

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

Values come from one memo per run.  Before its checks, each suite
prefetches every (q, x) point it will ask for -- grid abscissas, convexity
midpoints, log-convexity midpoint orders, and the neighbouring orders q-1,
q+1 and q+2 -- one order at a time through :func:`vq_many` and
:func:`vq_prime_many`, so that an order's quadrature points are evaluated
in one batched pass.  The checks then read the memo.  A point the batch
could not evaluate is left out of the memo; the check's scalar call raises
and the suite records that error, exactly as without the prefetch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import scipy.special as sc

from .bounds import (
    MILLS_F3_THRESHOLD,
    mills_bounds,
    vq_lower_exp,
    vq_lower_kratzel,
    vq_upper_agm,
)
from .errors import DomainError, NumericalError, UsageError
from .potential import mills, vq, vq_many, vq_neg1, vq_prime, vq_prime_many

#: canonical suite ordering
SUITES = ("monotonicity", "convexity", "turan", "logconvexity", "simon", "bounds")

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

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "q": self.q,
            "x": self.x,
            "y": self.y,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "q": self.q,
            "x": self.x,
            "y": self.y,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "note": self.note,
        }


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
            "violations": [v.to_json_dict() for v in self.violations],
            "observations": [o.to_json_dict() for o in self.observations],
            "errors": [e.to_json_dict() for e in self.errors],
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

    def _track(self, margin: float) -> None:
        self.min_margin = min(self.min_margin, margin)
        self.max_margin = max(self.max_margin, margin)

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
        self.n_checks += 1
        margin = rhs - lhs
        self._track(margin)
        ok = strictly_less(lhs, rhs, self.rel_tol)
        if not ok:
            self.violations.append(ViolationRecord(label, q, x, y, lhs, rhs, margin))
        if self.emit_checks:
            self.observations.append(
                ObservationRecord(
                    label, q, x, y, lhs, rhs, "pass" if ok else "VIOLATION"
                )
            )

    def assert_residual(
        self,
        label: str,
        residual: float,
        cap: float,
        q: Optional[float] = None,
        x: Optional[float] = None,
    ) -> None:
        """Assert the non-strict residual bound |residual| <= cap."""
        self.n_checks += 1
        margin = cap - abs(residual)
        self._track(margin)
        ok = abs(residual) <= cap
        if not ok:
            self.violations.append(
                ViolationRecord(label, q, x, None, abs(residual), cap, margin)
            )
        if self.emit_checks:
            self.observations.append(
                ObservationRecord(
                    label, q, x, None, abs(residual), cap, "pass" if ok else "VIOLATION"
                )
            )

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
    """Memoizing front-end for V_q and V_q', filled in batches by
    :meth:`prefetch` and :meth:`prefetch_prime` (see the module docstring)."""

    def __init__(self) -> None:
        self._v: dict[tuple[float, float], float] = {}
        self._vp: dict[tuple[float, float], float] = {}

    def prefetch(self, q: float, xs: Iterable[float]) -> None:
        _fill(self._v, vq_many, q, xs)

    def prefetch_prime(self, q: float, xs: Iterable[float]) -> None:
        _fill(self._vp, vq_prime_many, q, xs)

    def v(self, q: float, x: float) -> float:
        key = (q, x)
        if key not in self._v:
            self._v[key] = vq_neg1(x) if q == -1.0 else vq(q, x).value
        return self._v[key]

    def vp(self, q: float, x: float) -> float:
        key = (q, x)
        if key not in self._vp:
            self._vp[key] = vq_prime(q, x, "integral")
        return self._vp[key]


def _fill(memo: dict, many, q: float, xs: Iterable[float]) -> None:
    todo = [x for x in dict.fromkeys(xs) if (q, x) not in memo]
    if not todo:
        return
    try:
        values = many(q, todo)
    except DomainError:
        return  # the scalar lookups raise and record it point by point
    for x, value in zip(todo, values.tolist()):
        if not math.isnan(value):
            memo[(q, x)] = value


# ---------------------------------------------------------------------------
# suite implementations


def _monotonicity_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    for q in grid.q_values:
        ev.prefetch(q, grid.x_values)
        ev.prefetch_prime(q, grid.x_values)
        ev.prefetch(q + 1.0, grid.x_values)
        rows = []
        for x in grid.x_values:
            try:
                rows.append((x, ev.v(q, x), ev.vp(q, x), ev.v(q + 1.0, x)))
            except (DomainError, NumericalError) as exc:
                col.record_error("monotonicity", exc, q, x)
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


def check_monotonicity_suite(grid: Grid, rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Verify the six monotone-in-x families on consecutive grid points."""
    col = _Collector(rel_tol)
    _monotonicity_impl(grid, col, _Evaluator())
    return col.report("monotonicity", grid)


def _power_mean(order: float, u: float, v: float, alpha: float) -> float:
    """Weighted power mean H_order(u, v; alpha), geometric at order 0."""
    if order == 0.0:
        return math.exp(alpha * math.log(u) + (1.0 - alpha) * math.log(v))
    return (alpha * u ** order + (1.0 - alpha) * v ** order) ** (1.0 / order)


def _convexity_impl(
    spec: ConvexitySpec, grid: Grid, col: _Collector, ev: _Evaluator
) -> None:
    a, b = spec.a, spec.b
    tag = f"a={a:g},b={b:g}"
    monitor_label = f"convexity:monitor[{tag},{spec.direction}]"
    if not any(spec.admits(q) for q in grid.q_values):
        return
    alphas = tuple(sorted({spec.alpha, 0.3}))
    pair_x = grid.pair_x_values()
    midpoints = [
        (x1, x2, alpha, _power_mean(a, x1, x2, alpha))
        for i, x1 in enumerate(pair_x)
        for x2 in pair_x[i + 1:]
        for alpha in alphas
    ]

    for q in grid.q_values:
        if not spec.admits(q):
            continue
        ev.prefetch_prime(q, grid.x_values)
        ev.prefetch(q, grid.x_values + tuple(t for *_, t in midpoints))
        # (i) monitor route: M(x) = x^{1-a} V'(x) V(x)^{b-1}, increasing
        # exactly when V_q is (a, b)-convex
        monitor = []
        for x in grid.x_values:
            try:
                m = x ** (1.0 - a) * ev.vp(q, x) * ev.v(q, x) ** (b - 1.0)
            except (DomainError, NumericalError) as exc:
                col.record_error(monitor_label, exc, q, x)
                continue
            monitor.append((x, m))
        for (x1, m1), (x2, m2) in zip(monitor, monitor[1:]):
            if spec.direction == "convex":
                col.assert_less(monitor_label, m1, m2, q=q, x=x1, y=x2)
            else:
                col.assert_less(monitor_label, m2, m1, q=q, x=x1, y=x2)

        # (ii) midpoint route: compare V at the argument mean with the
        # value mean, strictly, for distinct pair members
        for x1, x2, alpha, t in midpoints:
            label = f"convexity:midpoint[{tag},{spec.direction},alpha={alpha:g}]"
            try:
                v_at_mean = ev.v(q, t)
                mean_of_v = _power_mean(b, ev.v(q, x1), ev.v(q, x2), alpha)
            except (DomainError, NumericalError) as exc:
                col.record_error(label, exc, q, x1)
                continue
            if spec.direction == "convex":
                col.assert_less(label, v_at_mean, mean_of_v, q=q, x=x1, y=x2)
            else:
                col.assert_less(label, mean_of_v, v_at_mean, q=q, x=x1, y=x2)


def check_power_mean(
    spec: ConvexitySpec, grid: Grid, rel_tol: float = DEFAULT_REL_TOL
) -> VerificationReport:
    """Verify one (a, b)-convexity claim by monitor and midpoint routes."""
    col = _Collector(rel_tol)
    _convexity_impl(spec, grid, col, _Evaluator())
    return col.report("convexity", grid)


def _turan_constant(q: float) -> float:
    return (q + 2.0) * (2.0 * q + 1.0) / ((q + 1.0) * (2.0 * q + 3.0))


def _turan_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    for q in grid.q_values:
        for order in (q, q + 1.0, q + 2.0):
            ev.prefetch(order, grid.x_values)
        for x in grid.x_values:
            try:
                v0, v1, v2 = ev.v(q, x), ev.v(q + 1.0, x), ev.v(q + 2.0, x)
            except (DomainError, NumericalError) as exc:
                col.record_error("turan", exc, q, x)
                continue
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
    for q in SHARPNESS_Q:
        for order in (q, q + 1.0, q + 2.0):
            ev.prefetch(order, (SHARPNESS_X,))
        try:
            v0 = ev.v(q, SHARPNESS_X)
            v1 = ev.v(q + 1.0, SHARPNESS_X)
            v2 = ev.v(q + 2.0, SHARPNESS_X)
        except (DomainError, NumericalError) as exc:
            col.record_error("turan:lower-sharpness-limit", exc, q, SHARPNESS_X)
            continue
        ratio = v1 * v1 / (v0 * v2)
        col.assert_residual(
            "turan:lower-sharpness-limit",
            ratio - _turan_constant(q),
            SHARPNESS_TOL,
            q=q,
            x=SHARPNESS_X,
        )


def check_turan(grid: Grid, rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Verify the Turan-type inequality family and its sharp constant."""
    col = _Collector(rel_tol)
    _turan_impl(grid, col, _Evaluator())
    return col.report("turan", grid)


def _logconvexity_impl(
    xs: Sequence[float], q_grid: Sequence[float], col: _Collector, ev: _Evaluator
) -> None:
    qs = [float(q) for q in q_grid]
    if any(not math.isfinite(q) or q <= -1.0 for q in qs):
        raise DomainError("log-convexity orders must satisfy q > -1")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise DomainError("log-convexity orders must be strictly increasing")
    pairs = [(q1, q2, 0.5 * (q1 + q2)) for i, q1 in enumerate(qs) for q2 in qs[i + 1:]]
    for q in dict.fromkeys(qs + [mid for *_, mid in pairs]):
        ev.prefetch(q, xs)

    for x in xs:
        def weighted(q: float) -> float:
            return math.exp(sc.gammaln(q + 1.0)) * ev.v(q, x)

        open_total = 0
        open_held = 0
        for q1, q2, mid in pairs:
            try:
                f1, f2, fm = weighted(q1), weighted(q2), weighted(mid)
                g1, g2 = ev.v(q1, x), ev.v(q2, x)
                gm = ev.v(mid, x)
            except (DomainError, NumericalError) as exc:
                col.record_error("logconvexity", exc, q1, x)
                continue
            col.assert_less(
                "logconvexity:gamma-weighted-midpoint",
                fm * fm, f1 * f2, q=q1, x=x, y=q2,
            )
            open_total += 1
            if col.observe_less(
                "logconvexity:unweighted-midpoint[open-problem]",
                gm * gm, g1 * g2, q=q1, x=x, y=q2,
            ):
                open_held += 1
        col.note(
            "logconvexity:unweighted-midpoint[open-problem]",
            f"open problem, never asserted: strict midpoint log-convexity of "
            f"q -> V_q held at {open_held} of {open_total} pairs at x={x:g}",
        )


def check_logconvexity_in_q(
    x: float, q_grid: Sequence[float], rel_tol: float = DEFAULT_REL_TOL
) -> VerificationReport:
    """Verify strict midpoint log-convexity of q -> Gamma(q+1) V_q(x) at one
    abscissa; observe (never assert) the same for q -> V_q(x)."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log-convexity check requires x > 0, got {x}")
    col = _Collector(rel_tol)
    _logconvexity_impl((x,), q_grid, col, _Evaluator())
    qs = tuple(float(q) for q in q_grid)
    return col.report("logconvexity", Grid(qs, (x,)))


def _simon_impl(grid: Grid, col: _Collector, ev: _Evaluator) -> None:
    printed_total = printed_failed = 0
    rederived_total = rederived_failed = 0
    for q in grid.q_values:
        for order in (q, q + 1.0, q + 2.0):
            ev.prefetch(order, grid.x_values)
        for x in grid.x_values:
            try:
                v0, v1, v2 = ev.v(q, x), ev.v(q + 1.0, x), ev.v(q + 2.0, x)
            except (DomainError, NumericalError) as exc:
                col.record_error("simon", exc, q, x)
                continue
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


def check_simon(grid: Grid, rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Verify the confirmed product-gap bounds; observe the product-ratio
    exponent variants, which fail numerically at moderately large x."""
    col = _Collector(rel_tol)
    _simon_impl(grid, col, _Evaluator())
    return col.report("simon", grid)


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
        ev.prefetch(q, grid.x_values)
        if q >= 0.0:
            ev.prefetch(q - 1.0, grid.x_values)
        values = []
        for x in grid.x_values:
            try:
                v = ev.v(q, x)
            except (DomainError, NumericalError) as exc:
                col.record_error("bounds", exc, q, x)
                continue
            values.append((x, v))

            if q >= 0.0:
                try:
                    v_prev = ev.v(q - 1.0, x)
                except (DomainError, NumericalError) as exc:
                    col.record_error("bounds:order-ratio", exc, q, x)
                else:
                    xsq2 = 2.0 * x * x
                    col.assert_less(
                        "bounds:order-ratio-lower",
                        xsq2 / (xsq2 + 1.0), v / v_prev, q=q, x=x,
                    )
                    col.assert_less("bounds:order-decreasing", v, v_prev, q=q, x=x)

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


def check_bounds_suite(grid: Grid, rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Verify the Mills bound family, the ODE residual, the order-ratio
    bounds, x V_q monotonicity, and the V_q envelopes."""
    col = _Collector(rel_tol)
    _bounds_impl(grid, col, _Evaluator())
    return col.report("bounds", grid)


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
    independent of evaluation order.  Raises :class:`UsageError` for unknown
    suite names or an empty grid.
    """
    selected = _resolve_suites(config.suites)
    grid = config.grid if config.grid is not None else default_grid()
    if grid.is_empty:
        raise UsageError("verification grid is empty")

    ev = _Evaluator()
    col = _Collector(config.rel_tol, config.emit_checks)
    for suite in selected:
        if suite == "monotonicity":
            _monotonicity_impl(grid, col, ev)
        elif suite == "convexity":
            for spec in default_convexity_specs():
                _convexity_impl(spec, grid, col, ev)
        elif suite == "turan":
            _turan_impl(grid, col, ev)
        elif suite == "logconvexity":
            _logconvexity_impl(grid.pair_x_values(), grid.q_values, col, ev)
        elif suite == "simon":
            _simon_impl(grid, col, ev)
        elif suite == "bounds":
            _bounds_impl(grid, col, ev)

    name = "all" if selected == SUITES else ",".join(selected)
    return col.report(name, grid)


def _check_inverted_fixture(rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Self-test fixture: asserts a deliberately inverted inequality so the
    harness demonstrably produces a violation with negative margin."""
    grid = Grid((0.0,), (1.0,), description="self-test fixture")
    col = _Collector(rel_tol)
    ev = _Evaluator()
    v = ev.v(0.0, 1.0)
    # inverted on purpose: the exponential envelope is a *lower* bound
    col.assert_less("selftest:inverted-envelope", v, vq_lower_exp(0.0, 1.0), q=0.0, x=1.0)
    return col.report("selftest", grid)
