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

Checks run an array at a time: a suite judges each label in one call, on
NumPy arrays that hold both sides of the inequality at every point of every
order it admits, with each entry's order beside its x (and y).  The collector
judges each array when it is asserted, making records only for the failures
(for every check under ``emit_checks``).  NumPy's ``+ - * /`` and comparisons
round as Python floats do, but its ``pow``, ``exp`` and ``log`` need not, so
those stay Python float operations, one entry at a time; the report is the one
a per-check loop gives.  :func:`run_suite` judges each suite
under one ``errstate`` that silences floating-point warnings (a side that is
not finite is an evaluation error), and the judging holds its own
(:func:`_judged`), so a collector used outside a run does not warn either.

Each suite is a generator that names the points it reads once: it lays
them out as arrays and yields them as its asks ``(q, x, prime)`` before it
judges anything.  A run evaluates the union of every suite's asks once for
V_q and once for V_q', on the distinct points, by the batch evaluator behind
:func:`vq_many` and :func:`vq_prime_many`, and sends each suite its answers
in the order it asked.  Where a point fails, the answer holds NaN and the
exception the scalar :func:`vq` or :func:`vq_prime` raises there, which the
batch forms itself; each check that needs the point records it.
Overflow is per point too: a check whose side is not finite, though built
from finite values, is an evaluation error at that check's (q, x), and the
suite's other checks run.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import Generator, Iterator, Optional, Sequence

from ._lazy import np
from .bounds import mills_bounds, vq_lower_exp, vq_lower_kratzel, vq_upper_agm
from .errors import DomainError, NumericalError, UsageError
from .potential import _many, mills, vq
from .potential import vq_prime  # noqa: F401  (perfbench's tracer wraps it in this module)
from .quadrature import _pows
from .special import ln_gamma

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
#: largest x at which the Mills bounds are checked: from about 1.2e77 on,
#: x^4 overflows and the bounds take their 1/x^2 forms, and they and m agree
#: to every bit (relative gaps below 1/x^2)
_MILLS_X_MAX = 1e77
#: weights alpha of the convexity suite's midpoint checks, H(x, y; alpha)
_MIDPOINT_WEIGHTS = (0.3, 0.5)

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

    def pair_x_values(self) -> tuple[float, ...]:
        """Deterministic sub-grid used for pairwise (x, y) checks."""
        n = len(self.x_values)
        if n <= _PAIR_POINTS:
            return self.x_values
        idx = sorted({int(round(i)) for i in np.linspace(0, n - 1, _PAIR_POINTS)})
        return tuple(self.x_values[i] for i in idx)


def default_grid() -> Grid:
    """The standard verification grid: 9 orders straddling every validity
    boundary (-1/2 and 0), 60 log-spaced abscissas on [0.05, 20]."""
    x = np.geomspace(*_DEFAULT_X_RANGE, _DEFAULT_X_COUNT)
    return Grid(DEFAULT_Q_VALUES, tuple(float(v) for v in x))


# ---------------------------------------------------------------------------
# power-mean convexity specification


#: the proven (a, b) regions: direction, corner (a0, b0) (a <= a0 and b <= b0
#: when concave, a >= a0 and b >= b0 when convex), q_min (-1.0: q > -1; 0.0:
#: q >= 0), and the region's default points: corners and one interior point
_REGIONS = (
    # contains the geometric-geometric case
    ("concave", 0, 0, -1.0, ((-3, -3), (-3, 0), (-1, -3), (-1, 0), (0, -3), (0, 0), (-2, -1.5))),
    # contains the harmonic-arithmetic case; (-1, 0), a point of the first, is checked twice
    ("concave", -1, 1, -1.0, ((-2, -1), (-2, 0), (-2, 1), (-1, -1), (-1, 0), (-1, 1), (-1.5, 0.5))),
    ("convex", 2, 1, 0.0, ((2, 1), (2, 2), (3, 1), (3, 2), (2.5, 1.5))),
    # contains the quadratic-geometric case
    ("convex", 2, 0, 0.0, ((2, 0), (2, 0.5), (3, 0), (3, 0.5), (2.5, 0.25))),
    ("concave", 1, -1, 0.0, ((0, -1), (0, -2), (1, -1), (1, -2), (0.5, -1.5))),
)


def _region_q_min(a: float, b: float, direction: str) -> Optional[float]:
    """Minimal admissible q-region bound over the proven (a, b) regions: -1.0
    (exclusive bound) or 0.0 (inclusive bound), or None when (a, b, direction)
    lies in no proven region."""
    return min((q_min for way, a0, b0, q_min, _ in _REGIONS if way == direction
                and ((a <= a0 and b <= b0) if way == "concave" else (a >= a0 and b >= b0))),
               default=None)


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

    def admits(self, q: float) -> bool:
        # the -1 bound is exclusive (q > -1), the 0 bound inclusive (q >= 0)
        return q > self.q_min if self.q_min < 0.0 else q >= self.q_min


def default_convexity_specs() -> tuple[ConvexitySpec, ...]:
    """Region corners plus one interior point for each proven region."""
    return tuple(ConvexitySpec(a, b, direction, q_min)
                 for direction, _, _, q_min, points in _REGIONS for a, b in points)


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
    return tuple(-math.inf if v is None else v for v in (rec.suite, rec.q, rec.x, rec.y))


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
    """Accumulates check outcomes for one suite run.  Each call records a
    whole array of checks of one label, located by arrays (or scalars) of
    orders q and abscissas x and y; the asserted ones are judged, counted and
    recorded as they are asserted."""

    def __init__(self, rel_tol: float, emit_checks: bool = False) -> None:
        self.rel_tol = rel_tol
        self.emit_checks = emit_checks
        self.violations: list[ViolationRecord] = []
        self.observations: list[ObservationRecord] = []
        self.errors: list[ObservationRecord] = []
        self.n_checks = 0
        self.min_margin = math.inf
        self.max_margin = -math.inf

    def _record(self, label: str, lhs: np.ndarray, rhs: np.ndarray, margin: Optional[np.ndarray],
                ok: Optional[np.ndarray], q, x, y) -> None:
        """Judge and count an array of asserted checks, track its margins, and
        keep the records of its failures (of every check under ``emit_checks``);
        ``margin`` and ``ok`` are None for ``lhs < rhs`` under the tolerance policy.

        The margins fold in as ``min``/``max`` over them in order would:
        NaN is skipped and the first of equal values is kept, which shows in
        the sign of a zero.
        """
        if margin is None:
            margin, ok = _judged(lhs, rhs, self.rel_tol)
        self.n_checks += lhs.size
        real = margin[~np.isnan(margin)]
        if real.size:  # argmin/argmax return the first extremum; fmin need not
            low, high = float(real[real.argmin()]), float(real[real.argmax()])
            self.min_margin = low if low < self.min_margin else self.min_margin
            self.max_margin = high if high > self.max_margin else self.max_margin
        for qk, xk, yk, lk, rk, mk, good in self._picked(ok, q, x, y, lhs, rhs, margin):
            if not good:
                self.violations.append(ViolationRecord(label, qk, xk, yk, lk, rk, mk))
            if self.emit_checks:
                self.observations.append(ObservationRecord(
                    label, qk, xk, yk, lk, rk, "pass" if good else "VIOLATION"
                ))

    def _picked(self, ok: np.ndarray, q, x, y, *sides: np.ndarray) -> Iterator[tuple]:
        """``(q, x, y, *sides, ok)`` as Python values at each entry that
        failed (at every entry under ``emit_checks``), in order."""
        idx = np.arange(ok.size) if self.emit_checks else (~ok).nonzero()[0]
        return zip(_items(q, idx), _items(x, idx), _items(y, idx),
                   *(side[idx].tolist() for side in sides), ok[idx].tolist())

    def _finite(self, label: str, lhs, rhs, q, x, y) -> tuple:
        """``(finite, lhs, rhs, q, x, y)``: the mask of the entries at which
        lhs and rhs are finite, and the arrays at those entries.  Every suite
        builds its sides from finite values, so each other entry overflowed
        and is recorded as an evaluation error at (q, x)."""
        if not (type(lhs) is type(rhs) is np.ndarray and lhs.ndim == 1 and lhs.shape == rhs.shape):
            lhs, rhs = np.broadcast_arrays(np.atleast_1d(lhs), np.atleast_1d(rhs))
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        if finite.all():
            return finite, lhs, rhs, q, x, y
        bad = (~finite).nonzero()[0]
        for qk, xk, lk, rk in zip(_items(q, bad), _items(x, bad), lhs[bad].tolist(),
                                  rhs[bad].tolist()):
            self.record_error(label, NumericalError(
                f"the check's arithmetic is not finite (lhs={lk!r}, rhs={rk!r})"
            ), qk, xk)
        return (finite, lhs[finite], rhs[finite], *(_at(v, finite) for v in (q, x, y)))

    def assert_less(self, label: str, lhs, rhs, q=None, x=None, y=None) -> None:
        """Assert lhs < rhs under the tolerance policy at each entry of the
        arrays (or scalars) ``lhs``/``rhs``, located by ``q``, ``x`` and ``y``."""
        _, lhs, rhs, q, x, y = self._finite(label, lhs, rhs, q, x, y)
        self._record(label, lhs, rhs, None, None, q, x, y)

    def assert_residual(self, label: str, residual, cap: float, q=None, x=None) -> None:
        """Assert the non-strict residual bound |residual| <= cap."""
        _, size, cap, q, x, _ = self._finite(label, np.abs(residual), cap, q, x, None)
        self._record(label, size, cap, cap - size, size <= cap, q, x, None)

    def observe_less(self, label: str, lhs, rhs, q=None, x=None,
                     y=None) -> tuple[np.ndarray, np.ndarray]:
        """Record non-asserted inequalities; returns the masks of the
        entries compared (finite on both sides) and of those that held."""
        checked, lhs, rhs, q, x, y = self._finite(label, lhs, rhs, q, x, y)
        ok = _judged(lhs, rhs, self.rel_tol)[1]
        held = np.zeros_like(checked)
        held[checked] = ok
        for qk, xk, yk, lk, rk, good in self._picked(ok, q, x, y, lhs, rhs):
            self.observations.append(ObservationRecord(
                label, qk, xk, yk, lk, rk, "holds" if good else "fails (not asserted)"
            ))
        return checked, held

    def note(self, label: str, note: str) -> None:
        self.observations.append(ObservationRecord(label, None, None, None, None, None, note))

    def record_error(self, label: str, exc: Exception, q: Optional[float],
                     x: Optional[float]) -> None:
        self.errors.append(ObservationRecord(
            f"{label}[evaluation-error]", q, x, None, None, None, str(exc)))

    def report(self, suite: str, grid: Grid) -> VerificationReport:
        has = self.n_checks > 0
        records = [tuple(sorted(r, key=_record_key))
                   for r in (self.violations, self.observations, self.errors)]
        return VerificationReport(suite, grid, self.rel_tol, self.n_checks, *records,
                                  *((self.min_margin, self.max_margin) if has else (None, None)))


def _judged(lhs: np.ndarray, rhs: np.ndarray, rel_tol: float) -> tuple:
    """The margins ``rhs - lhs`` and the verdicts of :func:`strictly_less` at
    each entry, under one ``errstate``.  ``fmax`` keeps the floor where
    rel_tol |rhs| is NaN, as ``max`` does; the verdict is False there anyway."""
    with np.errstate(invalid="ignore", over="ignore"):
        return rhs - lhs, lhs < rhs - np.fmax(ABS_TOL_FLOOR, rel_tol * np.abs(rhs))


def _items(value, idx: np.ndarray) -> list:
    """The entries ``idx`` of an array ``value`` as Python floats; a scalar
    or ``None`` repeats."""
    if isinstance(value, np.ndarray):
        return value[idx].tolist()
    return [value] * idx.size


def _at(value, mask: np.ndarray):
    """``value[mask]`` for an array; a scalar or ``None`` is left as it is."""
    return value[mask] if isinstance(value, np.ndarray) else value


def _answers(asks: Sequence[tuple[np.ndarray, np.ndarray, bool]]) -> Iterator[tuple]:
    """``(values, errors)`` for each ask ``(q, x, prime)``, in ask order:
    V_q (V_q' if ``prime``) at each of its points (q, x), in its order, NaN
    where the evaluation failed, and the error there, None where it did not
    fail.  The distinct points of each exponent are evaluated in one call,
    here; each ask's answers are gathered from them only when the iterator
    reaches it, so that a caller that takes them in turn holds its own."""
    found: list = [None] * len(asks)  # each ask's distinct values, errors and ranks
    for prime in (False, True):
        mine = [k for k, ask in enumerate(asks) if ask[2] == prime]
        qs, xs = (np.concatenate([asks[k][i] for k in mine] + [[]]) for i in (0, 1))
        at = np.lexsort((xs, qs))  # the distinct points, by order and then x
        qs, xs = qs[at], xs[at]
        new = np.ones(qs.size, dtype=bool)
        new[1:] = (qs[1:] != qs[:-1]) | (xs[1:] != xs[:-1])
        rank = np.empty_like(at)  # each asked point's place among the distinct ones
        rank[at] = new.cumsum() - 1
        qs, xs = qs[new], xs[new]
        del at, new  # before the evaluation, which sets the peak memory
        values, errors = _many(qs, xs, prime)
        ends = np.cumsum([asks[k][1].size for k in mine], dtype=int)
        for k, idx in zip(mine, np.split(rank, ends[:-1])):
            found[k] = values, errors, idx
    return ((values[idx], errors[idx]) for values, errors, idx in found)


def _rows(col: _Collector, label: str, q: np.ndarray, x: np.ndarray,
          columns: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray | slice, list]:
    """The index of the entries (q, x) at which every column ``(values,
    errors)`` evaluated, and each column's values there.  At the other
    entries the first failing column's error is recorded under ``label``
    at (q, x)."""
    ok = _evaluated(col, label, q, x, columns, np.isnan([v for v, _ in columns]).any(axis=0))
    return ok, [v[ok] for v, _ in columns]


def _evaluated(col: _Collector, label: str, q: np.ndarray, at: np.ndarray,
               columns: list[tuple[np.ndarray, np.ndarray]],
               failed: np.ndarray) -> np.ndarray | slice:
    """The index of the entries at which every column evaluated: ``~failed``,
    or ``slice(None)`` where all did.  A column is ``(values, errors)``: its
    value at each entry, NaN where it failed, and its error there.  At each
    failed entry the first failing column's error is recorded under
    ``label`` at (q, at)."""
    if not failed.any():
        return slice(None)
    for k in failed.nonzero()[0].tolist():
        error = next(errors[k] for v, errors in columns if math.isnan(v[k]))
        col.record_error(label, error, float(q[k]), float(at[k]))
    return ~failed


def _exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# suite implementations: each yields its asks once, then checks each label in
# one call over every order it admits, on flat arrays of points laid out order-major


def _block(qs: Sequence[float], xs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The q and the x of each point (q, x) of ``qs`` x ``xs``, order-major."""
    return np.repeat(np.asarray(qs, float), len(xs)), np.tile(np.asarray(xs, float), len(qs))


def _consecutive(q: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Each array at the first and at the second member of every pair of
    consecutive entries of one order: ``[a1, a2, b1, b2, ...]``."""
    same = q[1:] == q[:-1]
    return [part[same] for a in arrays for part in (a[:-1], a[1:])]


def _three(q: np.ndarray, x: np.ndarray) -> list[tuple]:
    """The asks of V_q, V_{q+1} and V_{q+2} at the points (q, x)."""
    return [(q + shift, x, False) for shift in (0.0, 1.0, 2.0)]


def _monotonicity_impl(grid: Grid, col: _Collector) -> Generator:
    q, x = _block(grid.q_values, grid.x_values)
    got = yield [(q, x, False), (q, x, True), (q + 1.0, x, False)]
    ok, (v, vp, w) = _rows(col, "monotonicity", q, x, got)
    q1, _, x1, x2, v1, v2, vp1, vp2, w1, w2 = _consecutive(q[ok], q[ok], x[ok], v, vp, w)
    col.assert_less("monotonicity:x-logslope-decreasing", x2 * vp2 / v2, x1 * vp1 / v1, q1, x1, x2)
    col.assert_less("monotonicity:x2-slope-decreasing", x2 * x2 * vp2, x1 * x1 * vp1, q1, x1, x2)
    up = q1 >= 0.0
    col.assert_less("monotonicity:slope-over-x-increasing",
                    *(s[up] for s in (vp1 / x1, vp2 / x2, q1, x1, x2)))
    col.assert_less("monotonicity:normalized-slope-increasing",
                    *(s[up] for s in (vp1 / (x1 * v1), vp2 / (x2 * v2), q1, x1, x2)))
    col.assert_less("monotonicity:order-ratio-increasing", w1 / v1, w2 / v2, q1, x1, x2)
    col.assert_less("monotonicity:order-difference-increasing", w1 - v1, w2 - v2, q1, x1, x2)


def _midpoint_means(order: float, members: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
    """The weighted power means H_order(u_i, u_j; alpha) of the members u
    along the last axis, one row per midpoint weight alpha; inf where a power
    overflows.  Powers, logs and exponentials stay Python float operations
    (NumPy's can round differently)."""
    if order == 0.0:  # the geometric mean, from the logs
        powered = np.array([math.log(m) for m in members.ravel().tolist()]).reshape(members.shape)
    else:
        powered = _pows(members, order)
    mixed = np.array([alpha * powered[..., i] + (1.0 - alpha) * powered[..., j]
                      for alpha in _MIDPOINT_WEIGHTS])
    if order == 0.0:
        return np.array([_exp(m) for m in mixed.ravel().tolist()]).reshape(mixed.shape)
    # an overflowed sum stays inf, though inf ** (1/order) is 0 for order < 0
    return np.where(np.isfinite(mixed), _pows(mixed, 1.0 / order), np.inf)


@lru_cache(maxsize=64)
def _argument_means(pair_x: tuple[float, ...], a: float) -> np.ndarray:
    """The argument means H_a(x, y; alpha) of the convexity midpoints, one
    row per weight alpha, over the pairs ``np.triu_indices`` of ``pair_x``;
    inf where a mean overflowed.  Shared, so read-only."""
    means = _midpoint_means(a, np.array(pair_x), *np.triu_indices(len(pair_x), 1))
    means.flags.writeable = False
    return means


def _convexity_impl(grid: Grid, col: _Collector) -> Generator:
    specs = default_convexity_specs()
    qs, grid_x, pair_x = np.array(grid.q_values), np.array(grid.x_values), grid.pair_x_values()
    i, j = np.triu_indices(len(pair_x), 1)
    # each order region q_min (every order lies in one): its specs, orders admitted and a's
    regions = []
    for _, group in groupby(specs, attrgetter("q_min")):
        group = list(group)
        rows = group[0].admits(qs)
        if rows.any():
            regions.append((group, rows, dict.fromkeys(spec.a for spec in group)))
    # V' and V at the monitor's points, V at the pairs' members, and V at
    # each region's finite argument means, at the orders it admits
    q, x = _block(qs, grid_x)
    asks = [(q, x, True), (q, x, False), (*_block(qs, pair_x), False)]
    for _, rows, orders in regions:
        for a in orders:
            means = _argument_means(pair_x, a)
            asks.append((*_block(qs[rows], means[np.isfinite(means)]), False))
    got = yield asks
    monitor_columns, pair, at_mean_answers = got[:2], got[2], iter(got[3:])
    (vp, _), (v, _) = monitor_columns
    kept = ~(np.isnan(vp) | np.isnan(v))  # the monitor's points at which both evaluated
    mq, mx, vp, v = q[kept], x[kept], vp[kept], v[kept]
    v_pair, pair_errors = (v.reshape(qs.size, len(pair_x)) for v in pair)  # a row per order

    # x^(1-a) depends on a spec only through a, V^(b-1) and the value means
    # only through b, and the orders it admits only through q_min
    x_powers = {a: np.tile(_pows(grid_x, 1.0 - a), qs.size)[kept] for a in {s.a for s in specs}}
    by_value: dict = {}
    for group, rows, orders in regions:
        on = group[0].admits(mq)
        monitor_failed = ~kept & group[0].admits(q)
        q1, _, x1, x2 = _consecutive(mq[on], mq[on], mx[on])
        pq, px1 = _block(qs[rows], np.array(pair_x)[i])
        px2 = np.tile(np.array(pair_x)[j], rows.sum())
        pair_columns = [(v_pair[rows][:, k].ravel(), pair_errors[rows][:, k].ravel())
                        for k in (i, j)]
        (pv1, _), (pv2, _) = pair_columns
        pair_failed = np.isnan(pv1) | np.isnan(pv2)
        # a -> (V, errors, failed) at each weight: V at the argument means,
        # inf where a mean overflowed (its check records an evaluation
        # error), and its errors; and the pairs at which some V failed
        at_means = {}
        for a, answer in zip(orders, at_mean_answers):
            means = _argument_means(pair_x, a)
            finite = np.isfinite(means)
            spread = []
            for got, fill in zip(answer, (math.inf, None)):
                at = np.full((rows.sum(), *means.shape), fill, got.dtype)
                at[:, finite] = got.reshape(rows.sum(), -1)
                spread.append(at.transpose(1, 0, 2).reshape(len(means), -1))
            at_means[a] = [(v_at, errors, pair_failed | np.isnan(v_at))
                           for v_at, errors in zip(*spread)]
        for spec in group:
            a, b, convex = spec.a, spec.b, spec.direction == "convex"
            tag = f"a={a:g},b={b:g},{spec.direction}"
            if b not in by_value:
                by_value[b] = (_pows(v, b - 1.0), _midpoint_means(b, v_pair, i, j))
            v_power, value_means = by_value[b]

            # (i) monitor route: M(x) = x^{1-a} V'(x) V(x)^{b-1}, increasing
            # exactly when V_q is (a, b)-convex
            label = f"convexity:monitor[{tag}]"
            _evaluated(col, label, q, x, monitor_columns, monitor_failed)
            m1, m2 = _consecutive(mq[on], (x_powers[a] * vp * v_power)[on])
            col.assert_less(label, *((m1, m2) if convex else (m2, m1)), q1, x1, x2)

            # (ii) midpoint route: compare V at the argument mean with the
            # value mean, strictly, for distinct pair members
            for alpha, (v_at_mean, errors, failed), mean_of_v in zip(
                    _MIDPOINT_WEIGHTS, at_means[a], value_means):
                label = f"convexity:midpoint[{tag},alpha={alpha:g}]"
                ok = _evaluated(col, label, pq, px1, [(v_at_mean, errors), *pair_columns], failed)
                mean_of_v = mean_of_v[rows].ravel()
                lhs, rhs = (v_at_mean, mean_of_v) if convex else (mean_of_v, v_at_mean)
                col.assert_less(label, lhs[ok], rhs[ok], pq[ok], px1[ok], px2[ok])


def _turan_constant(q):
    return (q + 2.0) * (2.0 * q + 1.0) / ((q + 1.0) * (2.0 * q + 3.0))


def _turan_impl(grid: Grid, col: _Collector) -> Generator:
    q, x = _block(grid.q_values, grid.x_values)
    sq, sx = _block(SHARPNESS_Q, (SHARPNESS_X,))
    got = yield _three(q, x) + _three(sq, sx)
    ok, (v0, v1, v2) = _rows(col, "turan", q, x, got[:3])
    q, x, prod = q[ok], x[ok], v0 * v2
    col.assert_less("turan:upper", v1 * v1, (q + 2.0) / (q + 1.0) * prod, q, x)
    col.assert_less("turan:improved-upper", v1 * v1, prod, q, x)
    up = q > -0.5
    col.assert_less("turan:lower", *(s[up] for s in (_turan_constant(q) * prod, v1 * v1, q, x)))
    col.assert_less("turan:order-bound", (2.0 * q + 1.0) * v0, 2.0 * (q + 1.0) * v1, q, x)
    col.assert_less("turan:shifted-lower", -v0 * v1, (q + 1.0) * v1 * v1 - (q + 2.0) * prod, q, x)

    # sharpness of the lower constant as x -> 0, at fixed representative
    # orders: the ratio approaches the constant like x^{min(2q+1, 2)}
    label = "turan:lower-sharpness-limit"
    ok, (v0, v1, v2) = _rows(col, label, sq, sx, got[3:])
    ratio = v1 * v1 / (v0 * v2)
    col.assert_residual(label, ratio - _turan_constant(sq[ok]), SHARPNESS_TOL, sq[ok], sx[ok])


def _logconvexity_impl(grid: Grid, col: _Collector) -> Generator:
    xs, qs = grid.pair_x_values(), grid.q_values
    # q1 < q2 and their midpoint at each pair of orders, and the weights Gamma(q + 1)
    orders = np.array([(q1, q2, 0.5 * (q1 + q2)) for k, q1 in enumerate(qs) for q2 in qs[k + 1:]])
    q1, q2, mid = np.repeat(orders.reshape(-1, 3), len(xs), axis=0).T
    x = np.tile(np.asarray(xs, float), len(orders))
    got = yield [(q1, x, False), (q2, x, False), (mid, x, False)]
    weights = np.array([_exp(ln_gamma(q + 1.0)) for q in orders.ravel().tolist()])
    w1, w2, wm = np.repeat(weights.reshape(-1, 3), len(xs), axis=0).T
    ok, (g1, g2, gm) = _rows(col, "logconvexity", q1, x, got)
    q1, q2, x, f1, f2, fm = q1[ok], q2[ok], x[ok], w1[ok] * g1, w2[ok] * g2, wm[ok] * gm
    col.assert_less("logconvexity:gamma-weighted-midpoint", fm * fm, f1 * f2, q1, x, q2)
    label = "logconvexity:unweighted-midpoint[open-problem]"
    checked, held = col.observe_less(label, gm * gm, g1 * g2, q1, x, q2)
    at = np.searchsorted(xs, x)
    for at_x, n_held, n_total in zip(xs, *(np.bincount(at[mask], minlength=len(xs)).tolist()
                                           for mask in (held, checked))):
        col.note(label, f"open problem, never asserted: strict midpoint log-convexity of "
                 f"q -> V_q held at {n_held} of {n_total} pairs at x={at_x:g}")


def _simon_impl(grid: Grid, col: _Collector) -> Generator:
    q, x = _block(grid.q_values, grid.x_values)
    got = yield _three(q, x)
    ok, (v0, v1, v2) = _rows(col, "simon", q, x, got)
    q, x, gap = q[ok], x[ok], v0 * v2 - v1 * v1
    # x^2 underflows to 0 below about 1e-162: such sides are not finite
    col.assert_less("simon:product-gap-bound", gap, v1 * v2 / x, q, x)
    col.assert_less("simon:product-gap-bound-quadratic", gap, v1 * v2 / (x * x), q, x)
    col.assert_less("simon:two-sided-upper", v1 * v1 - v0 * v2, 0.0, q, x)

    # product-ratio forms: both exponent variants fail numerically for x
    # beyond roughly 2.26, so they are observed, not asserted
    for label, exponent, form in (
        ("simon:product-ratio-bound[printed-exponent]", -2.0 * (q + 3.0), "x^(-2(q+3))"),
        ("simon:product-ratio-bound[rederived-exponent]", -(2.0 * q + 7.0), "x^(-2q-7)"),
    ):
        checked, held = col.observe_less(
            label, v0 * v2, v1 * v1 * (1.0 + _pows(x, exponent) * v2), q, x)
        col.note(label, f"not asserted: the {form} product-ratio form failed at "
                 f"{(checked & ~held).sum()} of {checked.sum()} grid points (fails for large x)")


def _bounds_impl(grid: Grid, col: _Collector) -> Generator:
    q, x = _block(grid.q_values, grid.x_values)
    up = q >= 0.0  # the orders of the order-ratio checks, which read V_{q-1}
    (v, errors), (v_prev, prev_errors) = yield [(q, x, False), (q[up] - 1.0, x[up], False)]
    _mills_checks(grid.x_values, col)

    # order-indexed bounds and envelopes
    at = ~np.isnan(v[up])  # the entries q >= 0 at which V_q evaluated
    qr, xr, vr = q[up][at], x[up][at], v[up][at]
    ok, (v,) = _rows(col, "bounds", q, x, [(v, errors)])
    q, x = q[ok], x[ok]
    ok, (v_prev,) = _rows(col, "bounds:order-ratio", qr, xr, [(v_prev[at], prev_errors[at])])
    qr, xr, vr = qr[ok], xr[ok], vr[ok]
    xsq2 = 2.0 * xr * xr
    col.assert_less("bounds:order-ratio-lower", xsq2 / (xsq2 + 1.0), vr / v_prev, qr, xr)
    col.assert_less("bounds:order-decreasing", vr, v_prev, qr, xr)

    for label, bound, ok, lower in _envelopes(col, q, x):
        lhs, rhs = (bound, v) if lower else (v, bound)
        col.assert_less(label, lhs[ok], rhs[ok], q[ok], x[ok])

    q1, _, x1, x2, v1, v2 = _consecutive(q, q, x, v)
    col.assert_less("bounds:x-vq-increasing", x1 * v1, x2 * v2, q1, x1, x2)


def _envelopes(col: _Collector, q: np.ndarray, x: np.ndarray) -> list[tuple]:
    """``(label, values, evaluated, lower)`` of each V_q envelope at the
    points (q, x), the upper one at q > -0.75 only.  At each point the first
    that fails is recorded as the envelope's error, and the later ones skipped."""
    envelopes = (("bounds:envelope-lower-exp", vq_lower_exp, True),
                 ("bounds:envelope-upper-agm", vq_upper_agm, False),
                 ("bounds:envelope-lower-kratzel", vq_lower_kratzel, True))
    values, done = np.zeros((len(envelopes), x.size)), np.zeros((len(envelopes), x.size), bool)
    for k, (qk, xk) in enumerate(zip(q.tolist(), x.tolist())):
        try:
            for row, (_, fn, lower) in enumerate(envelopes):
                if lower or qk > -0.75:
                    values[row, k], done[row, k] = fn(qk, xk), True
        except (DomainError, ArithmeticError) as exc:
            col.record_error("bounds:envelope", exc, qk, xk)
    return [(label, value, ok, lower)
            for (label, _, lower), value, ok in zip(envelopes, values, done)]


def _mills_checks(xs: Sequence[float], col: _Collector) -> None:
    """The Mills bound family f1..f5 and the Mills ODE residual over the x
    grid (order-free)."""
    rows, residual_x, residual = [], [], []
    for x in xs:
        if x > _MILLS_X_MAX:
            col.record_error("bounds:mills", NumericalError(
                f"m and its bounds agree to double precision at x={x:g}, so "
                f"their strict inequalities cannot be resolved"
            ), None, x)
            continue
        row = mills_bounds(x)
        rows.append((x, row.f1, row.f2, math.nan if row.f3 is None else row.f3,
                     row.f4, row.f5, row.m))

        # ODE residual m' = x m - 1 via centered difference
        h = 1e-5 * max(1.0, x)
        if x - h > 0.0:
            deriv = (mills(x + h) - mills(x - h)) / (2.0 * h)
            residual_x.append(x)
            residual.append(deriv - (x * row.m - 1.0))
    x, f1, f2, f3, f4, f5, m = np.array(rows, dtype=float).reshape(-1, 7).T
    col.assert_less("bounds:mills-lower-f1", f1, m, x=x)
    col.assert_less("bounds:mills-upper-f2", m, f2, x=x)
    has_f3 = ~np.isnan(f3)
    col.assert_less("bounds:mills-upper-f3", m[has_f3], f3[has_f3], x=x[has_f3])
    col.assert_less("bounds:mills-upper-f4", m, f4, x=x)
    col.assert_less("bounds:mills-upper-f5", m, f5, x=x)
    beyond = has_f3 & (x > 1.0)
    col.assert_less("bounds:f3-below-f2-beyond-1", f3[beyond], f2[beyond], x=x[beyond])
    col.assert_residual("bounds:mills-ode-residual", np.array(residual), ODE_RESIDUAL_TOL,
                        x=np.array(residual_x))


#: the suite registry, in canonical order: generators ``(grid, col)`` that yield
#: their asks ``(q, x, prime)`` once and are sent the answers (:func:`_answers`)
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
        suites = (self.suites,) if isinstance(self.suites, str) else tuple(self.suites)
        object.__setattr__(self, "suites", suites)
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

    col = _Collector(config.rel_tol, config.emit_checks)
    runs = [_SUITE_IMPLS[suite](grid, col) for suite in selected]
    asks = [next(run) for run in runs]
    answers = _answers([ask for own in asks for ask in own])
    for suite, run, own in zip(selected, runs, asks):
        try:  # a side that overflows is an evaluation error, recorded by the collector
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                run.send([next(answers) for _ in own])
        except StopIteration:  # the suite has judged every check
            pass
        except ArithmeticError as exc:  # e.g. float overflow at extreme q or x
            col.record_error(suite, exc, None, None)

    name = "all" if selected == SUITES else ",".join(selected)
    return col.report(name, grid)


def _check_inverted_fixture(rel_tol: float = DEFAULT_REL_TOL) -> VerificationReport:
    """Self-test fixture: asserts a deliberately inverted inequality so the
    harness demonstrably produces a violation with negative margin."""
    grid = Grid((0.0,), (1.0,))
    col = _Collector(rel_tol)
    v = vq(0.0, 1.0).value
    # inverted on purpose: the exponential envelope is a *lower* bound
    col.assert_less("selftest:inverted-envelope", v, vq_lower_exp(0.0, 1.0), q=0.0, x=1.0)
    return col.report("selftest", grid)
