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

Checks run an array at a time: a suite builds both sides of one inequality
at every point of an order (or order pair) as NumPy arrays.  The collector
keeps the arrays of asserted checks and judges them together, 64 at a time
and the rest when a result is read, making records only for the failures
(for every check under ``emit_checks``).  NumPy's ``+ - * /`` and
comparisons round as Python floats do, but its ``pow``, ``exp`` and ``log``
need not, so those stay Python float operations, one entry at a time; the
report is the one a per-check loop gives.  :func:`run_suite` runs each suite
under one ``errstate`` that silences floating-point warnings (a side that is
not finite is an evaluation error), and the judging holds its own
(:func:`_judged`), so a collector used outside a run does not warn either.

Values come from one table per run, planned before any suite runs: each
suite lists the ``(prime, q, xs)`` points it reads (convexity's argument
means among them), and the union is evaluated by one :func:`vq_many` and
one :func:`vq_prime_many` call, with an order per point.  A point they
could not evaluate (every point, where the call raises) is tried once by
the scalar :func:`vq` or :func:`vq_prime`; the table keeps NaN there, with
the error it raised, which each check that needs the point records.
Overflow is per point too: a check whose side is not finite, though built
from finite values, is an evaluation error at that check's (q, x), and the
suite's other checks run.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import mills_bounds, vq_lower_exp, vq_lower_kratzel, vq_upper_agm
from .errors import DomainError, NumericalError, UsageError
from .potential import mills, vq, vq_many, vq_prime, vq_prime_many
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
#: most arrays of checks the collector keeps before judging them together
_FOLD_ARRAYS = 64

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
    whole array of checks of one label at one order; the asserted ones are
    judged and folded in together when a result is read."""

    def __init__(self, rel_tol: float, emit_checks: bool = False) -> None:
        self.rel_tol = rel_tol
        self.emit_checks = emit_checks
        self._violations: list[ViolationRecord] = []
        self._observations: list[ObservationRecord] = []
        self.errors: list[ObservationRecord] = []
        self.n_checks = 0
        self._min_margin = math.inf
        self._max_margin = -math.inf
        self._pending: list[tuple] = []  # the arguments of each _record call

    violations = property(lambda self: self._folded()._violations)
    observations = property(lambda self: self._folded()._observations)
    min_margin = property(lambda self: self._folded()._min_margin)
    max_margin = property(lambda self: self._folded()._max_margin)

    def _record(self, label: str, lhs: np.ndarray, rhs: np.ndarray, margin: Optional[np.ndarray],
                ok: Optional[np.ndarray], q: Optional[float], x, y) -> None:
        """Count an array of asserted checks and keep it for :meth:`_folded`;
        ``margin`` and ``ok`` are None for ``lhs < rhs`` under the tolerance policy."""
        self.n_checks += lhs.size
        self._pending.append((label, lhs, rhs, margin, ok, q, x, y))
        if len(self._pending) == _FOLD_ARRAYS:
            self._folded()

    def _folded(self) -> _Collector:
        """Judge the pending checks at once, track their margins, and keep
        the records of the failures (of every check under ``emit_checks``).

        The margins fold in as ``min``/``max`` over them in order would:
        NaN is skipped and the first of equal values is kept, which shows in
        the sign of a zero.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return self
        margin, ok = _judged(*(np.concatenate([entry[k] for entry in pending]) for k in (1, 2)),
                             self.rel_tol)
        ends = np.cumsum([entry[1].size for entry in pending])
        for entry, end in zip(pending, ends.tolist()):
            if entry[3] is not None:
                margin[end - entry[1].size:end], ok[end - entry[1].size:end] = entry[3:5]
        real = margin[~np.isnan(margin)]
        if real.size:  # argmin/argmax return the first extremum; fmin need not
            low, high = float(real[real.argmin()]), float(real[real.argmax()])
            self._min_margin = low if low < self._min_margin else self._min_margin
            self._max_margin = high if high > self._max_margin else self._max_margin
        picked = np.arange(ok.size) if self.emit_checks else (~ok).nonzero()[0]
        for k in np.unique(np.searchsorted(ends, picked, "right")).tolist():
            label, lhs, rhs, _, _, q, x, y = pending[k]
            cut = slice(ends[k] - lhs.size, ends[k])
            idx = np.arange(lhs.size) if self.emit_checks else (~ok[cut]).nonzero()[0]
            entries = zip(_items(x, idx), _items(y, idx), lhs[idx].tolist(),
                          rhs[idx].tolist(), margin[cut][idx].tolist(), ok[cut][idx].tolist())
            for xk, yk, lk, rk, mk, good in entries:
                if not good:
                    self._violations.append(ViolationRecord(label, q, xk, yk, lk, rk, mk))
                if self.emit_checks:
                    self._observations.append(ObservationRecord(
                        label, q, xk, yk, lk, rk, "pass" if good else "VIOLATION"
                    ))
        return self

    def _finite(self, label: str, lhs, rhs, q: Optional[float], x, y) -> tuple:
        """``(finite, lhs, rhs, x, y)``: the mask of the entries at which lhs
        and rhs are finite, and the arrays at those entries.  Every suite
        builds its sides from finite values, so each other entry overflowed
        and is recorded as an evaluation error at (q, x)."""
        if not (type(lhs) is type(rhs) is np.ndarray and lhs.ndim == 1 and lhs.shape == rhs.shape):
            lhs, rhs = np.broadcast_arrays(np.atleast_1d(lhs), np.atleast_1d(rhs))
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        if finite.all():
            return finite, lhs, rhs, x, y
        bad = (~finite).nonzero()[0]
        for xk, lk, rk in zip(_items(x, bad), lhs[bad].tolist(), rhs[bad].tolist()):
            self.record_error(label, NumericalError(
                f"the check's arithmetic is not finite (lhs={lk!r}, rhs={rk!r})"
            ), q, xk)
        return finite, lhs[finite], rhs[finite], _at(x, finite), _at(y, finite)

    def assert_less(self, label: str, lhs, rhs, q: Optional[float] = None, x=None, y=None) -> None:
        """Assert lhs < rhs under the tolerance policy at each entry of the
        arrays (or scalars) ``lhs``/``rhs``, located by ``x`` and ``y``."""
        _, lhs, rhs, x, y = self._finite(label, lhs, rhs, q, x, y)
        self._record(label, lhs, rhs, None, None, q, x, y)

    def assert_residual(self, label: str, residual, cap: float, q: Optional[float] = None,
                        x=None) -> None:
        """Assert the non-strict residual bound |residual| <= cap."""
        _, size, cap, x, _ = self._finite(label, np.abs(residual), cap, q, x, None)
        self._record(label, size, cap, cap - size, size <= cap, q, x, None)

    def observe_less(self, label: str, lhs, rhs, q: Optional[float] = None, x=None,
                     y=None) -> tuple[np.ndarray, np.ndarray]:
        """Record non-asserted inequalities; returns the masks of the
        entries compared (finite on both sides) and of those that held."""
        checked, lhs, rhs, x, y = self._finite(label, lhs, rhs, q, x, y)
        ok = _less(lhs, rhs, self.rel_tol)
        held = np.zeros_like(checked)
        held[checked] = ok
        idx = np.arange(ok.size) if self.emit_checks else (~ok).nonzero()[0]
        entries = zip(_items(x, idx), _items(y, idx), lhs[idx].tolist(),
                      rhs[idx].tolist(), ok[idx].tolist())
        for xk, yk, lk, rk, good in entries:
            self._observations.append(ObservationRecord(
                label, q, xk, yk, lk, rk, "holds" if good else "fails (not asserted)"
            ))
        return checked, held

    def note(self, label: str, note: str) -> None:
        self._observations.append(ObservationRecord(label, None, None, None, None, None, note))

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


def _less(lhs: np.ndarray, rhs: np.ndarray, rel_tol: float) -> np.ndarray:
    """:func:`strictly_less` at each entry.  ``fmax`` keeps the floor where
    rel_tol |rhs| is NaN, as ``max`` does; the verdict is False there anyway."""
    return _judged(lhs, rhs, rel_tol)[1]


def _judged(lhs: np.ndarray, rhs: np.ndarray, rel_tol: float) -> tuple:
    """The margins ``rhs - lhs`` and the verdicts of :func:`_less`, under
    one ``errstate``."""
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


class _Table:
    """V_q and V_q' at every point a run's suites read, evaluated before
    they run (see the module docstring)."""

    def __init__(self, points: Iterable[tuple[bool, float, Sequence[float]]]) -> None:
        # (prime, q) -> (its x, increasing; the values there, NaN where the
        # evaluation failed; {x: the error the scalar evaluation raised})
        self._rows: dict[tuple[bool, float], tuple[np.ndarray, np.ndarray, dict]] = {}
        points = list(points)
        for prime in (False, True):
            asked = [(q, xs) for p, q, xs in points if p == prime]
            # the distinct points q + x i, by order and then x (both parts exact)
            z = np.unique(np.concatenate([q + 1j * np.asarray(xs, float)
                                          for q, xs in asked] + [[]]))
            qs, xs = z.real.copy(), z.imag.copy()
            del z
            try:
                values = (vq_prime_many if prime else vq_many)(qs, xs)
            except (DomainError, ArithmeticError):  # at some point: each goes to the scalar call
                values = np.full(qs.size, math.nan)
            new = (np.flatnonzero(qs[1:] != qs[:-1]) + 1).tolist()
            cuts = [0, *new, qs.size] if qs.size else [0]
            for a, b in zip(cuts, cuts[1:]):
                self._rows[prime, qs[a].item()] = (xs[a:b], values[a:b], {})
            for q, x in zip(qs[np.isnan(values)].tolist(), xs[np.isnan(values)].tolist()):
                row = self._rows[prime, q]
                try:  # once, by the scalar call, which says why it fails
                    row[1][np.searchsorted(row[0], x)] = (
                        vq_prime(q, x, "integral") if prime else vq(q, x).value)
                except (DomainError, ArithmeticError) as exc:
                    row[2][x] = exc

    def values(self, q: float, xs: Sequence[float],
               prime: bool = False) -> tuple[np.ndarray, dict[float, Exception]]:
        """V_q (or V_q' if ``prime``) at every x of ``xs``, NaN where the
        evaluation failed, and the errors of the failing x by x."""
        at, values, errors = self._rows[prime, q]
        xs = np.asarray(xs)
        idx = at.searchsorted(xs)
        if not (at[idx] == xs).all():
            raise KeyError(f"not every x of order {q} (prime={prime}) was planned")
        return values[idx], errors

    def rows(self, col: _Collector, label: str, q: float, xs: Sequence[float],
             *columns: tuple[float, bool]) -> tuple[np.ndarray, list[np.ndarray]]:
        """The x of ``xs`` at which every ``(order, prime)`` column evaluated,
        and each column's values there.  At the other x the first failing
        column's error is recorded under ``label`` at (q, x)."""
        x = np.array(xs)
        got = [self.values(order, x, prime) for order, prime in columns]
        ok = _evaluated(col, label, q, x, [(v, errors, x) for v, errors in got])
        return x[ok], [v[ok] for v, _ in got]


def _evaluated(col: _Collector, label: str, q: float, at: np.ndarray,
               columns: list[tuple[np.ndarray, dict, np.ndarray]],
               failed: Optional[np.ndarray] = None) -> np.ndarray | slice:
    """The index of the entries at which every column evaluated: a mask, or
    ``slice(None)`` where all did.  A column is ``(values, errors, points)``:
    its value at each entry (NaN where it failed), its errors by point, and
    each entry's point.  At each other entry the first failing column's
    error is recorded under ``label`` at (q, at).  ``failed``, where given,
    is the mask of the entries at which some column is NaN."""
    if failed is None:
        failed = np.isnan([v for v, _, _ in columns]).any(axis=0)
    if not failed.any():
        return slice(None)
    for k in failed.nonzero()[0].tolist():
        error = next(errors[points[k]] for v, errors, points in columns if math.isnan(v[k]))
        col.record_error(label, error, q, float(at[k]))
    return ~failed


def _exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# suite implementations


def _grid_points(grid: Grid, *shifts: tuple[float, bool]) -> list[tuple]:
    """The points ``(prime, q + shift, grid x)`` of a suite at every grid
    order q, for each ``(shift, prime)``."""
    return [(prime, q + shift, grid.x_values) for q in grid.q_values for shift, prime in shifts]


#: the shifts of :func:`_three_orders`
_THREE = ((0.0, False), (1.0, False), (2.0, False))


def _monotonicity_impl(grid: Grid, col: _Collector, ev: _Table) -> None:
    for q in grid.q_values:
        x, (v, vp, w) = ev.rows(
            col, "monotonicity", q, grid.x_values, (q, False), (q, True), (q + 1.0, False)
        )
        x1, v1, vp1, w1 = x[:-1], v[:-1], vp[:-1], w[:-1]
        x2, v2, vp2, w2 = x[1:], v[1:], vp[1:], w[1:]
        col.assert_less(
            "monotonicity:x-logslope-decreasing",
            x2 * vp2 / v2, x1 * vp1 / v1, q, x1, x2,
        )
        col.assert_less(
            "monotonicity:x2-slope-decreasing",
            x2 * x2 * vp2, x1 * x1 * vp1, q, x1, x2,
        )
        if q >= 0.0:
            col.assert_less("monotonicity:slope-over-x-increasing", vp1 / x1, vp2 / x2, q, x1, x2)
            col.assert_less(
                "monotonicity:normalized-slope-increasing",
                vp1 / (x1 * v1), vp2 / (x2 * v2), q, x1, x2,
            )
        col.assert_less("monotonicity:order-ratio-increasing", w1 / v1, w2 / v2, q, x1, x2)
        col.assert_less(
            "monotonicity:order-difference-increasing", w1 - v1, w2 - v2, q, x1, x2
        )


def _power_means(order: float, powered: np.ndarray, i: np.ndarray, j: np.ndarray,
                 alpha: float) -> np.ndarray:
    """Weighted power means H_order(u_i, u_j; alpha) of the members u, from
    ``powered`` = u ** order (log u at order 0, the geometric mean); inf
    where a power overflows.  Powers, logs and exponentials stay Python
    float operations (NumPy's can round differently)."""
    mixed = alpha * powered[i] + (1.0 - alpha) * powered[j]
    if order == 0.0:
        return np.array([_exp(m) for m in mixed.tolist()])
    # an overflowed sum stays inf, though inf ** (1/order) is 0 for order < 0
    return np.where(np.isfinite(mixed), _pows(mixed, 1.0 / order), np.inf)


def _midpoint_means(order: float, members: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> list[np.ndarray]:
    """:func:`_power_means` of the members at each midpoint weight, from their
    powers (logs at order 0)."""
    if order == 0.0:
        powered = np.array([math.log(m) for m in members.tolist()])
    else:
        powered = _pows(members, order)
    return [_power_means(order, powered, i, j, alpha) for alpha in _MIDPOINT_WEIGHTS]


@lru_cache(maxsize=64)
def _argument_means(pair_x: tuple[float, ...], a: float) -> np.ndarray:
    """The argument means H_a(x, y; alpha) of the convexity midpoints, one
    row per weight alpha, over the pairs ``np.triu_indices`` of ``pair_x``;
    inf where a mean overflowed.  Shared, so read-only."""
    means = np.array(_midpoint_means(a, np.array(pair_x), *np.triu_indices(len(pair_x), 1)))
    means.flags.writeable = False
    return means


def _convexity_points(grid: Grid) -> Iterable[tuple]:
    specs = default_convexity_specs()
    pair_x = grid.pair_x_values()
    for q in grid.q_values:
        orders = dict.fromkeys(spec.a for spec in specs if spec.admits(q))
        if orders:
            means = np.array([_argument_means(pair_x, a) for a in orders])
            yield False, q, np.concatenate([pair_x, means[np.isfinite(means)]])
            yield from ((True, q, grid.x_values), (False, q, grid.x_values))


def _convexity_impl(grid: Grid, col: _Collector, ev: _Table) -> None:
    grid_x = np.array(grid.x_values)
    pair_x = grid.pair_x_values()
    i, j = np.triu_indices(len(pair_x), 1)
    x1, x2 = np.array(pair_x)[i], np.array(pair_x)[j]
    specs = [(spec, f"a={spec.a:g},b={spec.b:g},{spec.direction}")
             for spec in default_convexity_specs()]
    # x^(1-a) depends on the spec only through a
    x_powers = {a: _pows(grid_x, 1.0 - a) for a in dict.fromkeys(spec.a for spec, _ in specs)}
    for q in grid.q_values:
        admitted = [(spec, tag) for spec, tag in specs if spec.admits(q)]
        if not admitted:
            continue
        v_pair, errors = ev.values(q, pair_x)
        v1, v2 = v_pair[i], v_pair[j]
        # V is not evaluated at an argument mean that overflowed: inf stands
        # in for it, so its check records an evaluation error
        orders = list(dict.fromkeys(spec.a for spec, _ in admitted))
        means = np.array([_argument_means(pair_x, a) for a in orders])
        finite = np.isfinite(means)
        v_means = np.full(means.shape, math.inf)
        v_means[finite] = ev.values(q, means[finite])[0]
        v_means = dict(zip(orders, v_means))
        monitor_columns = [(*ev.values(q, grid.x_values, p), grid_x) for p in (True, False)]
        (vp, _, _), (v, _, _) = monitor_columns
        monitor_failed, pair_failed = np.isnan(vp) | np.isnan(v), np.isnan(v1) | np.isnan(v2)
        x, vp, v = grid_x[~monitor_failed], vp[~monitor_failed], v[~monitor_failed]
        by_value: dict = {}  # V^(b-1) and the value means depend on the spec only through b
        for spec, tag in admitted:
            a, b, convex = spec.a, spec.b, spec.direction == "convex"
            x_power, arg_means = x_powers[a], _argument_means(pair_x, a)

            # (i) monitor route: M(x) = x^{1-a} V'(x) V(x)^{b-1}, increasing
            # exactly when V_q is (a, b)-convex
            label = f"convexity:monitor[{tag}]"
            evaluated = _evaluated(col, label, q, grid_x, monitor_columns, monitor_failed)
            if b not in by_value:
                by_value[b] = (_pows(v, b - 1.0), _midpoint_means(b, v_pair, i, j))
            v_power, value_means = by_value[b]
            monitor = x_power[evaluated] * vp * v_power
            lhs, rhs = (monitor[:-1], monitor[1:]) if convex else (monitor[1:], monitor[:-1])
            col.assert_less(label, lhs, rhs, q, x[:-1], x[1:])

            # (ii) midpoint route: compare V at the argument mean with the
            # value mean, strictly, for distinct pair members
            for alpha, t, v_at_mean, mean_of_v in zip(_MIDPOINT_WEIGHTS, arg_means, v_means[a],
                                                      value_means):
                label = f"convexity:midpoint[{tag},alpha={alpha:g}]"
                ok = _evaluated(col, label, q, x1, [
                    (v_at_mean, errors, t), (v1, errors, x1), (v2, errors, x2)
                ], pair_failed | np.isnan(v_at_mean))
                lhs, rhs = (v_at_mean, mean_of_v) if convex else (mean_of_v, v_at_mean)
                col.assert_less(label, lhs[ok], rhs[ok], q, x1[ok], x2[ok])


def _turan_constant(q: float) -> float:
    return (q + 2.0) * (2.0 * q + 1.0) / ((q + 1.0) * (2.0 * q + 3.0))


def _three_orders(q: float) -> tuple[tuple[float, bool], ...]:
    """The columns V_q, V_{q+1}, V_{q+2} of :meth:`_Table.rows`."""
    return (q, False), (q + 1.0, False), (q + 2.0, False)


def _turan_points(grid: Grid) -> list[tuple]:
    return _grid_points(grid, *_THREE) + _grid_points(Grid(SHARPNESS_Q, (SHARPNESS_X,)), *_THREE)


def _turan_impl(grid: Grid, col: _Collector, ev: _Table) -> None:
    for q in grid.q_values:
        x, (v0, v1, v2) = ev.rows(col, "turan", q, grid.x_values, *_three_orders(q))
        prod = v0 * v2
        col.assert_less("turan:upper", v1 * v1, (q + 2.0) / (q + 1.0) * prod, q, x)
        col.assert_less("turan:improved-upper", v1 * v1, prod, q, x)
        if q > -0.5:
            col.assert_less("turan:lower", _turan_constant(q) * prod, v1 * v1, q, x)
        col.assert_less("turan:order-bound", (2.0 * q + 1.0) * v0, 2.0 * (q + 1.0) * v1, q, x)
        col.assert_less(
            "turan:shifted-lower",
            -v0 * v1, (q + 1.0) * v1 * v1 - (q + 2.0) * prod, q, x,
        )

    # sharpness of the lower constant as x -> 0, at fixed representative
    # orders: the ratio approaches the constant like x^{min(2q+1, 2)}
    label = "turan:lower-sharpness-limit"
    for q in SHARPNESS_Q:
        x, (v0, v1, v2) = ev.rows(col, label, q, (SHARPNESS_X,), *_three_orders(q))
        ratio = v1 * v1 / (v0 * v2)
        col.assert_residual(label, ratio - _turan_constant(q), SHARPNESS_TOL, q, x)


def _logconvexity_points(grid: Grid) -> list[tuple]:
    qs = grid.q_values
    mids = tuple(0.5 * (q1 + q2) for k, q1 in enumerate(qs) for q2 in qs[k + 1:])
    return [(False, q, grid.pair_x_values()) for q in qs + mids]


def _logconvexity_impl(grid: Grid, col: _Collector, ev: _Table) -> None:
    xs, qs = grid.pair_x_values(), grid.q_values
    label = "logconvexity:unweighted-midpoint[open-problem]"
    open_total = np.zeros(len(xs), dtype=int)
    open_held = np.zeros(len(xs), dtype=int)
    for i, q1 in enumerate(qs):
        for q2 in qs[i + 1:]:
            mid = 0.5 * (q1 + q2)
            orders = ((q1, False), (q2, False), (mid, False))
            x, (g1, g2, gm) = ev.rows(col, "logconvexity", q1, xs, *orders)
            w1, w2, wm = (_exp(ln_gamma(q + 1.0)) for q in (q1, q2, mid))
            f1, f2, fm = w1 * g1, w2 * g2, wm * gm
            col.assert_less("logconvexity:gamma-weighted-midpoint", fm * fm, f1 * f2, q1, x, q2)
            checked, held = col.observe_less(label, gm * gm, g1 * g2, q1, x, q2)
            at = np.searchsorted(xs, x)
            open_total[at] += checked
            open_held[at] += held
    for x, held, total in zip(xs, open_held.tolist(), open_total.tolist()):
        col.note(
            label,
            f"open problem, never asserted: strict midpoint log-convexity of "
            f"q -> V_q held at {held} of {total} pairs at x={x:g}",
        )


def _simon_impl(grid: Grid, col: _Collector, ev: _Table) -> None:
    printed = "simon:product-ratio-bound[printed-exponent]"
    rederived = "simon:product-ratio-bound[rederived-exponent]"
    tallies = {printed: [0, 0], rederived: [0, 0]}  # compared, failed
    for q in grid.q_values:
        x, (v0, v1, v2) = ev.rows(col, "simon", q, grid.x_values, *_three_orders(q))
        # x^2 underflows to 0 below about 1e-162: such sides are not finite
        gap = v0 * v2 - v1 * v1
        col.assert_less("simon:product-gap-bound", gap, v1 * v2 / x, q, x)
        col.assert_less("simon:product-gap-bound-quadratic", gap, v1 * v2 / (x * x), q, x)
        col.assert_less("simon:two-sided-upper", v1 * v1 - v0 * v2, 0.0, q, x)

        # product-ratio forms: both exponent variants fail numerically
        # for x beyond roughly 2.26, so they are observed, not asserted
        for label, exponent in ((printed, -2.0 * (q + 3.0)), (rederived, -(2.0 * q + 7.0))):
            checked, held = col.observe_less(
                label, v0 * v2, v1 * v1 * (1.0 + _pows(x, exponent) * v2), q, x
            )
            tallies[label][0] += int(checked.sum())
            tallies[label][1] += int((checked & ~held).sum())
    for label, form in ((printed, "x^(-2(q+3))"), (rederived, "x^(-2q-7)")):
        total, failed = tallies[label]
        col.note(
            label,
            f"not asserted: the {form} product-ratio form failed at "
            f"{failed} of {total} grid points (fails for large x)",
        )


def _bounds_points(grid: Grid) -> list[tuple]:
    return _grid_points(grid, (0.0, False)) + _grid_points(
        Grid(tuple(q for q in grid.q_values if q >= 0.0), grid.x_values), (-1.0, False))


def _bounds_impl(grid: Grid, col: _Collector, ev: _Table) -> None:
    _mills_checks(grid.x_values, col)

    # order-indexed bounds and envelopes
    for q in grid.q_values:
        x, (v,) = ev.rows(col, "bounds", q, grid.x_values, (q, False))
        if q >= 0.0:
            xr, (vr, v_prev) = ev.rows(
                col, "bounds:order-ratio", q, x.tolist(), (q, False), (q - 1.0, False)
            )
            xsq2 = 2.0 * xr * xr
            col.assert_less("bounds:order-ratio-lower", xsq2 / (xsq2 + 1.0), vr / v_prev, q, xr)
            col.assert_less("bounds:order-decreasing", vr, v_prev, q, xr)

        envelopes = [("bounds:envelope-lower-exp", vq_lower_exp, True)]
        if q > -0.75:
            envelopes.append(("bounds:envelope-upper-agm", vq_upper_agm, False))
        envelopes.append(("bounds:envelope-lower-kratzel", vq_lower_kratzel, True))
        got = _envelopes(col, q, x, [fn for _, fn, _ in envelopes])
        for (label, _, lower), (bound, ok) in zip(envelopes, got):
            lhs, rhs = (bound, v) if lower else (v, bound)
            col.assert_less(label, lhs[ok], rhs[ok], q, x[ok])

        col.assert_less("bounds:x-vq-increasing", x[:-1] * v[:-1], x[1:] * v[1:], q, x[:-1], x[1:])


def _envelopes(col: _Collector, q: float, xs: np.ndarray, fns: list) -> list[tuple]:
    """``(values, evaluated)`` of each envelope function of ``fns`` over
    ``xs``.  The first that fails at an x is recorded as the envelope's
    evaluation error there, and the later ones are not evaluated."""
    values = np.zeros((len(fns), xs.size))
    reached = np.zeros(xs.size, dtype=int)
    for k, x in enumerate(xs.tolist()):
        try:
            for row, fn in enumerate(fns):
                values[row, k] = fn(q, x)
                reached[k] += 1
        except (DomainError, ArithmeticError) as exc:
            col.record_error("bounds:envelope", exc, q, x)
    return [(values[row], reached > row) for row in range(len(fns))]


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
        try:
            row = mills_bounds(x)
        except (DomainError, ArithmeticError) as exc:
            col.record_error("bounds:mills", exc, None, x)
            continue
        rows.append((x, row.f1, row.f2, math.nan if row.f3 is None else row.f3,
                     row.f4, row.f5, row.m))

        # ODE residual m' = x m - 1 via centered difference
        h = 1e-5 * max(1.0, x)
        if x - h > 0.0:
            try:
                deriv = (mills(x + h) - mills(x - h)) / (2.0 * h)
            except (DomainError, ArithmeticError) as exc:
                col.record_error("bounds:mills-ode-residual", exc, None, x)
            else:
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
    col.assert_residual(
        "bounds:mills-ode-residual", np.array(residual), ODE_RESIDUAL_TOL, x=np.array(residual_x)
    )


#: the suite registry, in canonical order: each suite's points (the V_q and
#: V_q' values it reads, as ``(prime, q, xs)``) and its implementation
_SUITE_IMPLS = {
    "monotonicity": (lambda grid: _grid_points(grid, (0.0, False), (0.0, True), (1.0, False)),
                     _monotonicity_impl),
    "convexity": (_convexity_points, _convexity_impl),
    "turan": (_turan_points, _turan_impl),
    "logconvexity": (_logconvexity_points, _logconvexity_impl),
    "simon": (lambda grid: _grid_points(grid, *_THREE), _simon_impl),
    "bounds": (_bounds_points, _bounds_impl),
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

    ev = _Table(point for suite in selected for point in _SUITE_IMPLS[suite][0](grid))
    col = _Collector(config.rel_tol, config.emit_checks)
    for suite in selected:
        try:  # a side that overflows is an evaluation error, recorded by the collector
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                _SUITE_IMPLS[suite][1](grid, col, ev)
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
