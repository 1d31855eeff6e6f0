"""Escalating quadrature engines for integrals of Laguerre type.

Both engines evaluate integrals of the form

    I = int_0^inf t^p e^{-t} g(t) dt,    p > -1,

where ``g`` is positive.  Two complementary rules are provided:

* generalized Gauss-Laguerre (nodes/weights for the weight ``t^p e^{-t}``),
  which converges geometrically when ``g`` is analytic in a neighbourhood of
  the positive axis whose nearest singularity is not too close to the origin;
* an exp-sinh double-exponential trapezoid rule on the substitution
  ``t = exp((pi/2) sinh u)``, whose nodes accumulate double-exponentially at
  both endpoints and therefore resolve integrand features on any scale
  (e.g. a branch point at ``-x^2`` with ``x`` tiny), at the cost of a few
  hundred integrand evaluations.

Both rules run on one escalation loop, :func:`escalate_columns`, which
evaluates many integrands ("columns", e.g. one per abscissa) at once.  It
climbs a ladder of node counts; a column leaves at the first level that
agrees with the previous one to a relative tolerance, and that difference is
its error estimate.  The loop keeps the active columns, their previous level
and the differences as arrays and masks, and hands back a :class:`Columns`
of arrays.  At most :data:`COLUMN_CHUNK` columns are in flight at a time,
which bounds the size of the (columns x nodes) work arrays.  The scalar
engines :func:`laguerre_escalating` and :func:`expsinh_escalating` are the
one-column case and return a :class:`QuadOutcome`.  Gauss-Laguerre tables and exp-sinh node tables are
cached per (node count, exponent) and (left end, node count).

Integrands are supplied through their logarithm so that widely scaled
factors (``t^q`` with large ``q``, huge or tiny smooth factors) neither
overflow nor underflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import roots_genlaguerre

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# exp-sinh transform constant: t = exp(_DE_C * sinh(u))
_DE_C = np.pi / 2.0
# right truncation: t(6.5) = exp(_DE_C*sinh(6.5)) ~ e^519, annihilated by e^{-t}
_DE_U_RIGHT = 6.5
# log t beyond which exp(log t) would overflow a double; such nodes contribute
# only through factors that are identically zero there
_DE_LOG_T_MAX = 700.0

#: most columns one pass of the escalation loop evaluates at once
COLUMN_CHUNK = 64


@dataclass(frozen=True)
class QuadOutcome:
    """Result of a one-column escalating quadrature run."""

    value: float
    abs_err: float
    points: int
    converged: bool


class Columns(NamedTuple):
    """Results of a many-column escalating quadrature run, one entry per
    column: the value, its error estimate, the node count of the accepted
    level (the last level when unconverged), and whether it converged."""

    value: np.ndarray
    abs_err: np.ndarray
    points: np.ndarray
    converged: np.ndarray

    def accept(self, cols, val, diff, size, n: int) -> None:
        """The columns ``cols`` converged at the ``n``-node level ``val``,
        which differs from the previous level by ``diff`` relative."""
        self.value[cols] = val
        self.abs_err[cols] = diff * size + _EPS * size
        self.points[cols] = n
        self.converged[cols] = True

    def settle(self, cols, last, tried, n: int) -> None:
        """The columns ``cols`` never converged, and ended at the ``n``-node
        level ``last``: each takes its first closest pair of consecutive
        levels among ``tried``, or ``last`` (error inf) when no difference
        was finite."""
        self.points[cols] = n
        best, best_diff = np.full(cols.size, np.nan), np.full(cols.size, np.inf)
        for level_cols, val, diff in tried:
            at = np.searchsorted(level_cols, cols)
            better = diff[at] < best_diff
            best[better], best_diff[better] = val[at][better], diff[at][better]
        finite = np.isfinite(best)
        self.value[cols] = np.where(finite, best, last)
        self.abs_err[cols] = np.where(finite, best_diff, np.inf) * np.abs(self.value[cols])

    def outcome(self, col: int = 0) -> QuadOutcome:
        """Column ``col`` as a scalar :class:`QuadOutcome`."""
        return QuadOutcome(
            float(self.value[col]), float(self.abs_err[col]),
            int(self.points[col]), bool(self.converged[col]),
        )


# node generation becomes numerically unreliable beyond this count; the
# escalation ladder hands over to the exp-sinh rule instead
GL_NODE_MAX = 320


@lru_cache(maxsize=512)
def gauss_laguerre(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight ``t^alpha e^{-t}`` on [0, inf)."""
    if alpha <= -1.0:
        raise ValueError(f"Laguerre exponent must exceed -1, got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):
        nodes, weights = roots_genlaguerre(n, alpha)
    return nodes, weights


@lru_cache(maxsize=64)
def expsinh_table(u_left: float, n: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Step ``h``, nodes ``t``, ``log t`` and log-Jacobian ``log(dt/du / t)``
    of the ``n``-point exp-sinh rule on ``u`` in [-u_left, 6.5].

    Nodes whose ``t`` would overflow get ``t = 1`` and a log-Jacobian of
    ``-inf``, so they contribute nothing.  The arrays are read-only.
    """
    u = np.linspace(-u_left, _DE_U_RIGHT, n)
    h = float(u[1] - u[0])
    log_t = _DE_C * np.sinh(u)
    ok = log_t < _DE_LOG_T_MAX
    t = np.exp(np.where(ok, log_t, 0.0))
    # dt/du = t * _DE_C * cosh(u); the factor t is folded in through log t
    log_jac = np.where(ok, np.log(_DE_C * np.cosh(u)), -np.inf)
    for a in (t, log_t, log_jac):
        a.flags.writeable = False
    return h, t, log_t, log_jac


def escalate_columns(
    level: Callable[[int, np.ndarray], np.ndarray],
    n_cols: int,
    node_counts: tuple[int, ...],
    rel_tol: float,
) -> Columns:
    """The escalation loop shared by both rules.

    ``level(n, cols)`` returns the ``n``-node values of the columns ``cols``
    (an index array into ``range(n_cols)``); it runs with overflow,
    underflow and invalid operations ignored.  A column leaves the active
    set at the first level that agrees with the previous one to
    ``rel_tol``.  A column that never agrees reports its closest pair of
    consecutive levels (or its last level when none was finite) with
    ``converged`` false.
    """
    out = Columns(
        np.empty(n_cols), np.empty(n_cols),
        np.empty(n_cols, dtype=int), np.zeros(n_cols, dtype=bool),
    )
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        for start in range(0, n_cols, COLUMN_CHUNK):
            active = np.arange(start, min(start + COLUMN_CHUNK, n_cols))
            prev = level(node_counts[0], active)
            tried = []  # (active, values, differences) of each later level
            for n in node_counts[1:]:
                val = level(n, active)
                size = np.abs(val)
                diff = np.abs(val - prev) / np.maximum(size, _TINY)
                tried.append((active, val, diff))
                done = diff <= rel_tol
                flags = done.tolist()
                if all(flags):
                    out.accept(active, val, diff, size, n)
                    active = active[:0]
                    break
                if any(flags):
                    out.accept(active[done], val[done], diff[done], size[done], n)
                    active, val = active[~done], val[~done]
                prev = val
            if active.size:
                out.settle(active, prev, tried, node_counts[-1])
    return out


def laguerre_columns(
    log_g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: float,
    n_cols: int,
    node_counts: tuple[int, ...],
    rel_tol: float,
) -> Columns:
    """Gauss-Laguerre evaluation of ``int t^alpha e^-t g_c(t) dt`` for the
    columns ``c`` in ``range(n_cols)``.

    ``log_g(t, cols)`` returns ``log g_c`` at the nodes ``t`` for each
    column of ``cols``, as an array of shape ``(len(cols), len(t))``.
    """

    def level(n: int, cols: np.ndarray) -> np.ndarray:
        t, w = gauss_laguerre(n, alpha)
        terms = np.exp(log_g(t, cols))
        terms *= w
        return terms.sum(axis=1)

    counts = tuple(n for n in node_counts if n <= GL_NODE_MAX) or node_counts[:1]
    return escalate_columns(level, n_cols, counts, rel_tol)


def laguerre_escalating(
    log_g: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    node_counts: tuple[int, ...],
    rel_tol: float,
) -> QuadOutcome:
    """Gauss-Laguerre evaluation of ``int t^alpha e^-t g(t) dt``.

    ``log_g`` maps an array of nodes to the log of the smooth factor
    (``-inf`` allowed).  Escalates through ``node_counts`` until consecutive
    levels agree to ``rel_tol``; counts beyond ``GL_NODE_MAX`` are skipped
    (callers fall back to the exp-sinh rule instead).
    """
    return laguerre_columns(
        lambda t, cols: log_g(t)[np.newaxis], alpha, 1, node_counts, rel_tol
    ).outcome()


def _expsinh_u_left(power: float) -> float:
    if power <= -1.0:
        raise ValueError(f"endpoint power must exceed -1, got {power}")
    return max(
        float(np.arcsinh(max(30.0, 50.0 / max(power + 1.0, 1e-3)) / _DE_C)),
        _DE_U_RIGHT,
    )


def expsinh_columns(
    log_f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    power: float,
    n_cols: int,
    node_counts: tuple[int, ...],
    rel_tol: float,
) -> Columns:
    """Double-exponential evaluation of ``int_0^inf f_c(t) dt`` for the
    columns ``c`` in ``range(n_cols)``.

    ``log_f(t, log_t, cols)`` returns the log integrands of the columns
    ``cols``, shape ``(len(cols), len(t))``; ``power`` is as in
    :func:`expsinh_escalating` and is shared by every column.
    """
    u_left = _expsinh_u_left(power)

    def level(n: int, cols: np.ndarray) -> np.ndarray:
        h, t, log_t, log_jac = expsinh_table(u_left, n)
        terms = log_f(t, log_t, cols) + log_t
        terms += log_jac
        np.exp(terms, out=terms)
        return h * terms.sum(axis=1)

    return escalate_columns(level, n_cols, node_counts, rel_tol)


def expsinh_escalating(
    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    power: float,
    node_counts: tuple[int, ...],
    rel_tol: float,
) -> QuadOutcome:
    """Double-exponential evaluation of ``int_0^inf f(t) dt``.

    ``log_f(t, log_t)`` returns the log integrand; ``power`` is the exponent
    with which the integrand vanishes at the origin (``f ~ t^power``,
    ``power > -1``), which sets the left truncation point.
    """
    return expsinh_columns(
        lambda t, log_t, cols: log_f(t, log_t)[np.newaxis], power, 1, node_counts, rel_tol
    ).outcome()
