"""The quadrature rule behind every integral of the library: a trapezoid
rule in a log variable, centred on the peak of a log-concave (or unimodal)
integrand, with step halving (Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56, 2014).

:func:`trapezoid_columns` evaluates the Laguerre-type family

    I(c1, p; w) = (1/Gamma(c1)) int_0^inf t^(c1-1) e^-t (w + t)^p dt

in ``v = log t``, for ``c1 > 0``, real ``p`` and ``w >= 0``.  V_q and V_q'
are ``I(q+1, -1/2; x^2)`` and ``x I(q+1, -3/2; x^2)``; the Tricomi function
is ``psi(a, c, w) = w^(1-c) I(a, c-a-1; w)`` (DLMF 13.4.4).  The branch
point of ``(w + t)^p`` at ``t = -w`` lies at ``Im v = pi`` for every ``w``,
so one rule serves every argument.  The Kraetzel integral
(``special._kratzel_quadrature``) runs its own trapezoid sum in the same
way.

Both run on one escalation loop, :func:`escalate_columns`, which evaluates
many integrands ("columns", e.g. one per abscissa) at once.  It climbs a
ladder of levels; a column leaves at the first level that agrees with the
previous one to a relative tolerance, and that difference is its error
estimate.  The loop keeps the active columns, their previous level and the
differences as arrays and masks, and hands back a :class:`Columns` of
arrays.  At most :data:`COLUMN_CHUNK` columns are in flight at a time, which
bounds the size of the (columns x nodes) work arrays.

Integrands are supplied through their logarithm, relative to their peak, so
that widely scaled factors (``t^q`` with large ``q``, huge or tiny powers of
``w + t``) neither overflow nor underflow.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: most columns one pass of the escalation loop evaluates at once
COLUMN_CHUNK = 64

# trapezoid rule: the window reaches to where the log integrand has fallen
# this far below its peak, searched from this many peak widths out
_TRAP_DROP = 40.0
_TRAP_REACH = 9.0
# a column stops, unconverged, before a level that would take more nodes than
# this, and accepts a level that agrees with the previous one to _TRAP_TOL
_TRAP_NODE_MAX = 1280
_TRAP_TOL = 1e-11
# Veltkamp's constant 2^27 + 1: splits a double into halves with exact products
_SPLIT = 134217729.0


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


def escalate_columns(
    level: Callable[[int, np.ndarray], np.ndarray],
    n_cols: int,
    node_counts: tuple[int, ...],
    rel_tol: float,
) -> Columns:
    """The escalation loop of every trapezoid sum.

    ``level(n, cols)`` returns the values at ladder entry ``n`` (a level
    number) of the columns ``cols`` (an index array into ``range(n_cols)``);
    it runs with every floating-point error ignored.  A column leaves the
    active set at the first level that agrees with the previous one to
    ``rel_tol``.  A column that never agrees reports its closest pair of
    consecutive levels (or its last level when none was finite) with
    ``converged`` false.
    """
    out = Columns(
        np.empty(n_cols), np.empty(n_cols),
        np.empty(n_cols, dtype=int), np.zeros(n_cols, dtype=bool),
    )
    with np.errstate(all="ignore"):
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


# perfbench/tracer.py wraps or reads these names when it installs (ROADMAP
# item 5 replaces it with an in-library collector).  They stand for the
# retired Gauss-Laguerre and exp-sinh rules: no route calls them.
GL_NODE_MAX = 0


@lru_cache(maxsize=None)
def gauss_laguerre(*args):
    raise NotImplementedError("the Gauss-Laguerre and exp-sinh rules are retired")


laguerre_escalating = expsinh_escalating = gauss_laguerre


def _two_sum(a, b):
    """``a + b`` and its rounding error (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    """``a * b`` and its rounding error (Dekker): ``a b = hi + lo`` exactly
    while no partial product under- or overflows (|a|, |b| below 1e300).
    Floats or arrays; the one split product of the package."""
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    c = _SPLIT * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dd_mul(a, b):
    """The product of two double-double numbers (hi, lo)."""
    p, e = _two_prod(a[0], b[0])
    return _two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_div(a, b):
    """The quotient of two double-double numbers (hi, lo)."""
    q = a[0] / b[0]
    p, e = _two_prod(q, b[0])
    return _two_sum(q, (((a[0] - p) - e) + a[1] - q * b[1]) / b[0])


def _dd_sqrt(r, sqrt):
    """``sqrt(r)`` as a double-double number: one Newton step from the
    rounded root.  ``sqrt`` is ``math.sqrt`` or ``np.sqrt``, both correctly
    rounded."""
    s = sqrt(r)
    p, e = _two_prod(s, s)
    return _two_sum(s, ((r - p) - e) / (2.0 * s))


def _split(terms: np.ndarray, scale, bits: float) -> np.ndarray:
    """Non-negative ``terms`` as integer-valued parts ``hi = floor(t)`` and
    ``lo = floor(frac(t) bits)`` of ``t = terms * scale`` (``scale``
    broadcast; a power of two, with every ``t`` below ``2 bits``), stacked
    on a new first axis, so that ``t = hi + lo / bits`` up to ``1 / bits``.
    Sums of the parts are exact, so they do not depend on the order of the
    terms or on zeros around them.  ``terms`` is overwritten."""
    parts = np.empty((2,) + terms.shape)
    np.multiply(terms, scale, out=terms)
    np.floor(terms, out=parts[0])
    np.subtract(terms, parts[0], out=terms)
    np.multiply(terms, bits, out=terms)
    np.floor(terms, out=parts[1])
    return parts


def _dd_value(m, g, r, x, p: float, sqrt):
    """``(x) r^-p m / g`` rounded once, from the double-double sums
    ``m = (hi, lo)`` and ``g``, a double ``r``, and ``x`` (``None`` for no
    factor x); ``p`` is a negative half-integer."""
    s = _dd_sqrt(r, sqrt)
    scale = s if x is None else _dd_mul((x, 0.0), s)
    for _ in range(round(-2.0 * p) - 1):
        scale = _dd_mul(scale, s)
    hi, lo = _dd_mul(_dd_div(_two_sum(*m), _two_sum(*g)), scale)
    return hi + lo


def _gamma_window(c1: float) -> tuple[float, float]:
    """The window of ``e^(c1 u - c1 expm1(u))``, the Gamma(c1) integrand in
    ``u = log(t / c1)`` over its peak value, out to ``e^-40``: the tangent
    step from ``-9 / sqrt(c1)``, and the nearer of those from ``+9 / sqrt(c1)``
    and from where ``c1 e^u`` passes ``2 c1 + 40``."""

    def end(u: float) -> float:
        return u - (_TRAP_DROP + c1 * (u - math.expm1(u))) / (c1 * -math.expm1(u))

    reach = _TRAP_REACH / math.sqrt(c1)
    return end(-reach), min(end(reach), end(math.log(2.0 + _TRAP_DROP / c1)))


def _trapezoid_step(c: float, tol: float) -> float:
    """The step at which the trapezoid rule for ``int e^(c d - c e^d) dd``
    errs by about ``tol`` relative: the smallest, over the height ``b`` of
    a strip in which the integrand stays analytic, of the bound
    ``(cos b)^-c e^(-2 pi b / h)``, solved for ``h`` by Newton's method."""
    log_tol = math.log(tol)
    h = min(0.3, math.pi * math.sqrt(-2.0 / (c * log_tol)))  # the Gaussian limit
    for _ in range(2):  # then within 2% below the root
        b = math.atan(2.0 * math.pi / (c * h))  # the best strip for this h
        excess = -c * math.log(math.cos(b)) - 2.0 * math.pi * b / h - log_tol
        h = min(2.0 * h, max(0.5 * h, h - excess * h * h / (2.0 * math.pi * b)))
    return h


def trapezoid_columns(c1: float, p: float, w, x=None, power: float = 0.0) -> Columns:
    """Trapezoid evaluation, in ``v = log t``, of

        I = I(c1, p; w) = (1/Gamma(c1)) int_0^inf t^(c1-1) e^-t (w + t)^p dt

    for ``c1 > 0``, real ``p`` and the columns given by ``w >= 0``: a float
    for one column (set up in NumPy scalars, which round as the array
    operations do), or an array.  Where ``p`` is a negative half-integer
    and ``power`` is 0 (V_q and V_q'), the value is ``x I`` (``I`` when
    ``x`` is None), assembled in double-double arithmetic and rounded once.
    Elsewhere it is ``w^power I`` for ``w > 0`` (``x`` is not used),
    formed in log space, so that the Tricomi function
    ``w^(1-c) I(a, c-a-1; w)`` does not overflow where ``I`` alone would.
    For ``c1 <= 1/2``, whose integrand falls off slowly towards ``t = 0``,
    the order is lifted by a relation with two positive terms: integration
    by parts gives ``I(c1, p) = I(c1+1, p) - p I(c1+1, p-1)`` for ``p < 0``,
    and ``(w + t)^p = (w + t)^(p-1) (w + t)`` gives
    ``I(c1, p) = w I(c1, p-1) + c1 I(c1+1, p-1)``, repeated until ``p < 0``.

    The log integrand has one peak ``t*``, the positive root of
    ``t^2 - b t - c1 w`` with ``b = c1 + p - w``; ``t* < c1`` for ``p < 0``
    and ``c1 < t* < c1 + p`` for ``p > 0``.  It is concave for ``p < 0``,
    and right of the peak for any ``p``; left of the peak its slope is at
    least the smaller of ``c1`` and its slope at any point further right.
    With ``t = t* e^d`` and ``r`` the rounded reciprocal of ``w + t*``,

        I = r^-p  int e^(G0(d) + P(d)) dd / int e^G0(d) dd,
        G0(d) = c1 d - t* expm1(d),   P(d) = p log((w + t* e^d) r),

    because the denominator is ``Gamma(c1) / (t*^c1 e^-t*)``.  Both
    integrals run over the same nodes, so no Gamma function, power of
    ``t*`` or large exponent is ever formed, and ``x I`` does not underflow
    at huge ``x`` (``w`` up to 1e300, the range of the double-double
    products).

    The window covers where either integrand is within ``e^-40`` of its
    peak.  Each end is the nearer of two tangent steps, which both
    over-cover because the tangent's slope is capped at ``c1``: one from
    ``-/+9`` peak widths, the other from past ``t = w`` on the left and from
    where ``t* e^d`` passes ``c1 + 40`` on the right.  The nodes are
    ``d = j h`` for integer ``j``.  Level 0 takes the step of
    :func:`_trapezoid_step` at ``_TRAP_TOL / 100``, so that levels 0 and 1
    agree to ``_TRAP_TOL``, for ``c1 + |p|``, which bounds the integrands'
    growth in a strip ``|Im d| < b`` by ``(cos b)^-(c1 + |p|)``.  In log
    space, where ``|p|`` reaches the hundreds, it takes the growth at the
    largest peak, ``max(c1, t*)``, and leaves the rest to the escalation;
    V_q and V_q' keep the bound, which fixes their bits.  Each level halves
    the step and adds only the odd nodes, and level 0 is summed from the
    nodes of level 1.  A column stops, unconverged, before a level that
    would take more than ``_TRAP_NODE_MAX`` nodes.  All columns share the
    step, so they share the node rows; outside a column's own window its
    terms are set to values that add exact zeros to its sums, which are
    exact (:func:`_split`), so no column's value depends on the others on
    the V_q path.

    The error estimate is the last level difference plus ``eps`` times the
    value, times the node count plus ``10 sqrt(c1)`` (the cancellation in
    ``G0`` near the peak).  In log space it adds ``4 |p|`` ulps (the
    rounding of ``P``) and twice the size of each term of the exponent of
    ``w^power r^-p``.  A column whose peak or window is not finite (``w``
    beyond 1e300, or a divergent integral) comes back 0 with a zero estimate
    and unconverged.
    """
    if c1 <= 0.5:  # lift the order: two terms, both positive
        if p < 0.0:  # I(c1, p) = I(c1+1, p) - p I(c1+1, p-1)
            one = trapezoid_columns(c1 + 1.0, p, w, x, power)
            two, weight = trapezoid_columns(c1 + 1.0, p - 1.0, w, x, power), -p
        else:  # I(c1, p) = w I(c1, p-1) + c1 I(c1+1, p-1)
            one = trapezoid_columns(c1, p - 1.0, w, x, power + 1.0)
            two, weight = trapezoid_columns(c1 + 1.0, p - 1.0, w, x, power), c1
        return Columns(
            one.value + weight * two.value, one.abs_err + weight * two.abs_err,
            one.points + two.points, one.converged & two.converged,
        )

    def window_end(d):  # where the tangent to G0 + P at d falls to -40
        t = peak * np.exp(d)
        g = c1 * d - peak * np.expm1(d) + p * np.log((w + t) / width)
        slope = c1 - t * (1.0 - p / (w + t))
        return d - (_TRAP_DROP + g) / np.minimum(slope, c1)

    double_double = power == 0.0 and p < 0.0 and float(2.0 * p).is_integer()
    with np.errstate(all="ignore"):
        # the positive root; b - s or b + s would cancel, so the root of
        # larger size is formed first and the other from their product
        b = c1 + p - w
        big = 0.5 * b + np.copysign(0.5 * np.hypot(b, 2.0 * math.sqrt(c1) * np.sqrt(w)), b)
        peak = np.maximum(big, -c1 * (w / big))
        width = w + peak
        # the growth bound of the step; in log space, that at the peak
        c = c1 + abs(p)
        if not double_double:
            c = min(c, float(np.fmax.reduce(peak, axis=None, initial=c1)))
        step = _trapezoid_step(c, _TRAP_TOL / 100.0)
        sigma = 1.0 / np.sqrt(peak * (peak / width) + c1 * (w / width))
        # e^G0 peaks at t = c1, d = d0, where it is e^top0; its window about
        # d0 depends on c1 alone
        d0 = np.log(c1 / peak)
        top0 = c1 * d0 - (c1 - peak)
        lo0, hi0 = _gamma_window(c1)
        left = np.fmax(window_end(-_TRAP_REACH * sigma),
                       window_end(np.minimum(np.log(w / peak), 0.0) - 2.0))
        right = np.fmin(window_end(_TRAP_REACH * sigma),
                        window_end(np.log1p((c1 + _TRAP_DROP) / peak)))
        lo, hi = np.minimum(left, d0 + lo0), np.maximum(right, d0 + hi0)
        # the double-double products need w below 1e300
        ok = (peak > 0.0) & (top0 < 700.0) & (hi - lo > 4.0 * step) & (width < 1e300)
        # level 1's nodes, from which level 0 is summed too
        first, last = np.ceil(2.0 * lo / step), np.floor(2.0 * hi / step)
        fits = ok & (last - first < _TRAP_NODE_MAX)
        # P uses r = 1/w, so that I = r^-p int e^(G0 + P) / int e^G0 for
        # whatever rounding r carries; r^-p (x r^-p) for the levels' values,
        # the final value is exact
        recip = 1.0 / width
        zero = 0.0 * peak
        if not double_double:  # the levels' values are the ratios alone
            scale = 1.0
        elif x is None:
            scale = recip ** -p
        else:
            scale = (x * recip) * recip ** (-p - 1.0)
        # e^G peaks at 1, and e^G0 at e^top0 is scaled by unit below 2; the
        # split sums of both, in units of 1/bits and 1/bits^2, stay below
        # 2^53 over all levels, and terms below e^-60 of that add zeros
        unit = np.exp2(-np.floor(top0 / math.log(2.0)) - 1.0)
        bits = 2.0 ** (51 - _TRAP_NODE_MAX.bit_length())
        # one row per quantity, one entry per column; rows 11-12 are the
        # floors and 13-14 the split scales of the two integrands
        table = np.array([lo, hi, first, last, fits, peak, recip, w + zero, scale * unit,
                          zero if x is None else x, ok, zero - 60.0, top0 - 60.0, zero + bits,
                          bits * unit]).reshape(15, -1)
    ok = table[10] > 0.0
    # level 1's node counts, for the columns it fits
    used = np.where(table[4] > 0.0, table[3] - table[2] + 1.0, 0.0).astype(int)
    # per column: the exact sums (hi, lo) of both integrals, level 1's value
    state = np.full((5, ok.size), np.nan)

    def ratio(sums, c):  # r^-p M / M0 from the exact sums of the columns c
        return table[8, c] * ((sums[0] + sums[2] / bits) / (sums[1] + sums[3] / bits))

    def level(k: int, cols: np.ndarray) -> np.ndarray:
        # level 0 is summed from the nodes of level 1, whose value it keeps
        if k == 1:
            return state[4, cols]
        h = step * 0.5 ** max(k, 1)
        # a contiguous run of columns is indexed by a slice, which is faster
        c = slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] + 1 == cols.size else cols
        if k == 0:
            first, last, fits = table[2:5, c]
            fits = fits > 0.0
        else:
            first, last = np.ceil(table[0, c] / h), np.floor(table[1, c] / h)
            fits = ok[c] & (last - first < _TRAP_NODE_MAX)
        out = np.full(cols.size, np.nan)
        sub = fits.nonzero()[0]
        if not sub.size:
            return out
        if sub.size < cols.size:
            c, first, last = cols[sub], first[sub], last[sub]
        j0, j1 = min(first.tolist()), max(last.tolist()) + 1.0
        # the odd nodes at later levels; all of level 1's at level 0
        j = np.arange(j0 + (j0 % 2 == 0), j1, 2.0) if k else np.arange(j0, j1)
        nodes = j * h
        peak_c, recip_c, w_c = table[5:8, c, None]
        terms = np.empty((2, first.size, j.size))
        g, g0 = terms
        np.multiply(peak_c, np.exp(nodes), out=g)
        g += w_c
        g *= recip_c
        np.log(g, out=g)
        g *= p
        np.multiply(peak_c, np.expm1(nodes), out=g0)
        np.subtract(c1 * nodes, g0, out=g0)
        g += g0
        if first.size > 1:  # outside its window, a column's terms add exact zeros
            outside = (j < first[:, None]) | (j > last[:, None])
            np.copyto(terms, table[11:13, c, None], where=outside)
        np.exp(terms, out=terms)
        # the sums (hi and lo, of each integrand) are laid out as in state
        parts = _split(terms, table[13:15, c, None], bits)
        if k:
            used[c] = last - first + 1.0
            state[:4, c] += parts.sum(axis=-1).reshape(4, -1)
            out[sub] = ratio(state[:4, c], c)
            return out
        even = parts[..., int(j0 % 2)::2].sum(axis=-1).reshape(4, -1)  # level 0's nodes
        state[:4, c] = parts.sum(axis=-1).reshape(4, -1)
        state[4, c], out[sub] = ratio(np.stack((state[:4, c], even), axis=1), c)
        return out

    levels = tuple(range(_TRAP_NODE_MAX.bit_length() + 1))
    got = escalate_columns(level, ok.size, levels, _TRAP_TOL)
    done = got.converged & ok
    rounding = _EPS * (used + 10.0 * math.sqrt(c1))
    if not double_double:
        with np.errstate(all="ignore"):
            # w^power r^-p = e^((power + p) log w - p log(w r)), w r = hi + lo
            hi, lo = _two_prod(table[7], table[6])
            terms = np.array([(power + p) * np.log(table[7]), -p * (np.log(hi) + lo / hi),
                              np.log(got.value)])
            value = np.exp(terms.sum(axis=0))
            rounding += _EPS * (4.0 * abs(p) + 2.0 * np.abs(terms).sum(axis=0))
            keep = ok & (value > 0.0)
            value = np.where(keep, value, 0.0)
            abs_err = np.where(keep, value * (got.abs_err / got.value + rounding), 0.0)
        return Columns(value, abs_err, used, done)
    if ok.size == 1:  # in Python floats, which round as the arrays do
        value = abs_err = 0.0
        if done[0]:
            m_hi, g_hi, m_lo, g_lo = state[:4, 0].tolist()
            unit = float(table[14, 0]) / bits
            value = _dd_value((m_hi * unit, m_lo * unit / bits), (g_hi, g_lo / bits),
                              float(table[6, 0]), None if x is None else float(table[9, 0]),
                              p, math.sqrt)
        elif ok[0]:
            value = float(got.value[0])
        if ok[0]:
            abs_err = float(got.abs_err[0]) + float(rounding[0]) * value
        return Columns(np.array([value]), np.array([abs_err]), used, done)
    with np.errstate(all="ignore"):
        unit = table[14] / bits
        exact = _dd_value((state[0] * unit, state[2] * unit / bits), (state[1], state[3] / bits),
                          table[6], None if x is None else table[9], p, np.sqrt)
    value = np.where(done, exact, np.where(ok, got.value, 0.0))
    abs_err = np.where(ok, got.abs_err + rounding * value, 0.0)
    return Columns(value, abs_err, used, done)
