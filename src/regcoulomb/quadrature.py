"""The quadrature rule behind every integral of the library: a trapezoid
rule in a log variable, centred on the peak of a log-concave (or unimodal)
integrand (Trefethen & Weideman, "The exponentially convergent trapezoidal
rule", SIAM Review 56, 2014).

:func:`trapezoid_columns` evaluates the Laguerre-type family

    I(c1, p; w) = (1/Gamma(c1)) int_0^inf t^(c1-1) e^-t (w + t)^p dt

in ``v = log t``, for ``c1 > 0``, real ``p`` and ``w >= 0``: V_q and V_q'
are ``I(q+1, -1/2; x^2)`` and ``x I(q+1, -3/2; x^2)``, the Tricomi function
is ``psi(a, c, w) = w^(1-c) I(a, c-a-1; w)`` (DLMF 13.4.4).  The branch
point of ``(w + t)^p`` at ``t = -w`` lies at ``Im v = pi`` for every ``w``,
so one rule serves every argument.  A call with arrays is a batch of V_q
or V_q' integrands ("columns", one per entry, each of its own order; the
Tricomi form is one column a call), at most :data:`COLUMN_CHUNK` in one
node pass, and that pass is final: it gives levels 0 and 1, a column whose
two levels agree is done, and any other comes back unconverged.  A block's
columns are gathered once, in pass order, so that each pass reads slices
of them.  (The
Kraetzel sum, ``special._kratzel_quadrature``, is one such pass too, with
the same window rule, :func:`_tangent_end`.)  A scalar call is one column
of the same rule, not a second implementation: its set-up, agreement test
and assembly run in Python floats that borrow NumPy's ``exp``, ``log`` and
kin (which round as the arrays do), and its node pass on arrays; where a
float raises, it runs on NumPy scalars, which give inf or NaN.  Every column
of a batch has the bits it has alone: a node pass sums integer parts whose
sums are exact (:func:`_split`), in any order, BLAS's included.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

from ._lazy import np

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

#: most columns one node pass evaluates at once
COLUMN_CHUNK = 96
# most columns of a double-double batch whose set-up runs at once
_SET_UP_MAX = 32 * COLUMN_CHUNK

# trapezoid rule: the window reaches to where the log integrand has fallen
# this far below its peak, searched from this many peak widths out
_TRAP_DROP = 40.0
_TRAP_REACH = 9.0
# a column is unconverged where level 1 would take more nodes than this, and
# done where levels 0 and 1 agree to _TRAP_TOL
_TRAP_NODE_MAX = 1280
_TRAP_TOL = 1e-11
# Veltkamp's constant 2^27 + 1: splits a double into halves with exact products
_SPLIT = 134217729.0


class Columns(NamedTuple):
    """Results of a many-column quadrature run, one entry per column: the
    value, its error estimate, the node count of level 1 (0 where the column
    was not evaluated), and whether it converged."""

    value: np.ndarray
    abs_err: np.ndarray
    points: np.ndarray
    converged: np.ndarray


# perfbench/tracer.py wraps or reads these names when it installs (ROADMAP
# item 7 replaces it with an in-library collector).  They stand for the
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


def _split(terms: np.ndarray, scale, bits: float, hi: np.ndarray) -> None:
    """Non-negative ``terms``, the node terms of both integrands, as
    integer-valued parts ``hi = floor(t)``, written to ``hi``, and
    ``lo = floor(frac(t) bits)``, written over ``terms``, of ``t``: the first
    integrand's terms times ``bits`` and the second's times ``scale`` (one
    per column, broadcast; powers of two, with every ``t`` below ``2 bits``),
    so that ``t = hi + lo / bits`` up to ``1 / bits``.  Sums of the parts are
    exact, so they do not depend on the order of the terms or on zeros around
    them: this is what lets a node pass take them from a matrix product."""
    np.multiply(terms[0], bits, out=terms[0])
    np.multiply(terms[1], scale, out=terms[1])
    np.floor(terms, out=hi)
    np.subtract(terms, hi, out=terms)
    np.multiply(terms, bits, out=terms)
    np.floor(terms, out=terms)


def _dd_value(m, g, r, x, p, sqrt):
    """``(x) r^-p m / g`` rounded once, from the double-double sums
    ``m = (hi, lo)`` and ``g``, a double ``r``, and ``x`` (``None`` for no
    factor x); ``p`` is a negative half-integer, or an array of one per
    column, whose columns each take their own count of factors."""
    s = _dd_sqrt(r, sqrt)
    scale = s if x is None else _dd_mul((x, 0.0), s)
    if isinstance(p, float):
        for _ in range(round(-2.0 * p) - 1):
            scale = _dd_mul(scale, s)
    else:  # each column takes its own count of factors s
        for k in range(round(-2.0 * p.min()) - 1):
            more = _dd_mul(scale, s)
            scale = [np.where(-2.0 * p - 1.0 > k, *two) for two in zip(more, scale)]
    hi, lo = _dd_mul(_dd_div(_two_sum(*m), _two_sum(*g)), scale)
    return hi + lo


def _tangent_end(d, g, slope):
    """Where the tangent at ``d`` to a concave log integrand, at ``g`` from its
    peak with slope ``slope``, falls to -40: an end of its window."""
    return d - (_TRAP_DROP + g) / slope


def _gamma_window(c1: float) -> tuple[float, float]:
    """The window of ``e^(c1 u - c1 expm1(u))``, the Gamma(c1) integrand in
    ``u = log(t / c1)`` over its peak value, out to ``e^-40``: the tangent
    step from ``-9 / sqrt(c1)``, and the nearer of those from ``+9 / sqrt(c1)``
    and from where ``c1 e^u`` passes ``2 c1 + 40``."""

    def end(u: float) -> float:
        return _tangent_end(u, c1 * (u - math.expm1(u)), c1 * -math.expm1(u))

    reach = _TRAP_REACH / math.sqrt(c1)
    return end(-reach), min(end(reach), end(math.log(2.0 + _TRAP_DROP / c1)))


def _pows(bases, e):
    """``bases ** e`` by the C library's ``pow``: a float's (which raises
    where a NumPy scalar's is inf), and an array's entry by entry in Python
    floats (NumPy's array power rounds otherwise on a few in a hundred), with
    inf where a power overflows.  ``e`` is a float, or one per base."""
    if not isinstance(bases, np.ndarray):
        return bases ** e
    floats = bases.ravel().tolist()
    exponents = e.ravel().tolist() if isinstance(e, np.ndarray) else repeat(e)
    try:
        powers = list(map(pow, floats, exponents))
    except ArithmeticError:  # an overflow, or a zero to a negative power
        with np.errstate(over="ignore", divide="ignore"):
            powers = list(map(pow, map(np.float64, floats), exponents))
    return np.array(powers).reshape(bases.shape)


def _per_order(fn, c, *args):
    """``fn(v, *args)`` of each distinct entry ``v`` of the array ``c``, spread
    back over the entries (along the last axis where ``fn`` gives a tuple)."""
    distinct, at = np.unique(c, return_inverse=True)
    return np.array([fn(v, *args) for v in distinct.tolist()])[at].T


@lru_cache(maxsize=None)
def _weights(rows: int) -> np.ndarray:
    """A node pass's weights, from an even node on: every node, and the even
    ones, in ``rows`` rows (built on the first pass, so that importing loads
    no NumPy)."""
    return np.tile([[1.0, 1.0], [1.0, 0.0]], (rows, 1))


# one column's set-up functions in Python floats, in the order of _columns' ufuncs:
# NumPy's maxima and minima by comparison (NaN and the sign of zero included), its
# exp, expm1, log, log1p and hypot (rounding otherwise than math's) taken back as
# floats, and math's sqrt, floor, ceil and copysign and pow's 2^v, exact as NumPy's
_SCALAR_OPS = (lambda a, b: a if a > b or a != a else b,
               lambda a, b: a if a < b or a != a else b,
               lambda a, b: a if a >= b or b != b else b,
               lambda a, b: a if a <= b or b != b else b,
               lambda v: float(np.exp(v)), lambda v: float(np.expm1(v)),
               lambda v: float(np.log(v)), lambda v: float(np.log1p(v)),
               lambda a, b: float(np.hypot(a, b)), math.sqrt, lambda v: float(math.floor(v)),
               lambda v: float(math.ceil(v)), math.copysign, lambda v: 2.0 ** v)


def _trapezoid_step(c: float, tol: float) -> float:
    """The step at which the trapezoid rule for ``int e^(c d - c e^d) dd``
    errs by about ``tol`` relative: the smallest, over the height ``b`` of
    a strip in which the integrand stays analytic, of the bound
    ``(cos b)^-c e^(-2 pi b / h)``, solved for ``h`` by Newton's method."""
    log_tol = math.log(tol)
    if math.isinf(c * log_tol):  # c beyond about 6e306: an infinite step fails every window
        return math.inf
    h = min(0.3, math.pi * math.sqrt(-2.0 / (c * log_tol)))  # the Gaussian limit
    for _ in range(2):  # then within 2% below the root
        b = math.atan(2.0 * math.pi / (c * h))  # the best strip for this h
        excess = -c * math.log(math.cos(b)) - 2.0 * math.pi * b / h - log_tol
        h = min(2.0 * h, max(0.5 * h, h - excess * h * h / (2.0 * math.pi * b)))
    return h


def _lift_sum(cols: list[Columns], weights: list) -> Columns:
    """The sum ``cols[-1] + sum_k weights[k] cols[k]`` of a lift's terms,
    from the last (the smallest p) up.  Where a term failed (unconverged,
    with no finite estimate) the sum fails: 0, with an infinite estimate."""
    failed = np.any([~col.converged & ~np.isfinite(col.abs_err) for col in cols], axis=0)
    got = cols[-1]
    for weight, two in zip(weights[::-1], cols[-2::-1]):
        got = Columns(got.value + weight * two.value, got.abs_err + weight * two.abs_err,
                      got.points + two.points, got.converged & two.converged)
    return Columns(np.where(failed, 0.0, got.value), np.where(failed, np.inf, got.abs_err),
                   got.points, got.converged)


def trapezoid_columns(c1: float, p: float, w, x=None, power: float = 0.0) -> Columns:
    """Trapezoid evaluation, in ``v = log t``, of

        I = I(c1, p; w) = (1/Gamma(c1)) int_0^inf t^(c1-1) e^-t (w + t)^p dt

    for ``c1 > 0``, real ``p`` and ``w >= 0``.  Where ``p`` is a negative
    half-integer and ``power`` is 0 (V_q and V_q'), the value is ``x I``
    (``I`` when ``x`` is None), assembled in double-double arithmetic and
    rounded once; only there may ``c1``, ``p``, ``w`` and ``x`` be arrays,
    broadcast to one column per entry (a one-element array is one column, as
    a float is; any other array call raises :class:`ValueError`).  Elsewhere
    the value is ``w^power I`` for ``w > 0``, formed in log space, so that
    the Tricomi function ``w^(1-c) I(a, c-a-1; w)`` does not overflow where
    ``I`` would.  Orders ``c1 <= 1/2`` are lifted by relations with positive
    terms: while ``p >= 0``, ``I(c1, p) = w I(c1, p-1) + c1 I(c1+1, p-1)``,
    a loop of about ``p`` columns, and then
    ``I(c1, p) = I(c1+1, p) - p I(c1+1, p-1)``, whose two terms join a batch.
    A column of a term that fails (unconverged, with no finite estimate)
    fails the sum: 0, unconverged, with an infinite estimate.  Where the loop
    runs, a term that fails (those of largest ``p`` fail first, and are
    evaluated first) ends the call with that result.

    The log integrand has one peak ``t*``, the positive root of
    ``t^2 - b t - c1 w`` with ``b = c1 + p - w``; it is concave for ``p < 0``
    and right of the peak, and left of it its slope is at least the smaller
    of ``c1`` and its slope further right.  With ``t = t* e^d`` and ``r`` the
    rounded reciprocal of ``w + t*``,

        I = r^-p  int e^(G0(d) + P(d)) dd / int e^G0(d) dd,
        G0(d) = c1 d - t* expm1(d),   P(d) = p log((w + t* e^d) r),

    since the denominator is ``Gamma(c1) / (t*^c1 e^-t*)``: no Gamma
    function, power of ``t*`` or large exponent is formed, and ``x I`` does
    not underflow at huge ``x`` (``w`` up to 1e300).  The window covers where
    either integrand is within ``e^-40`` of its peak; each end is the nearer
    of two tangent steps (slope capped at ``c1``), from ``-/+9`` peak widths
    and from past ``t = w`` (left) or ``t* e^d = c1 + 40`` (right).  On the
    nodes ``d = j h``, level 0 takes the step of :func:`_trapezoid_step` at
    ``_TRAP_TOL / 100`` for the growth ``(cos b)^-(c1 + |p|)`` in a strip
    ``|Im d| < b`` (in log space, where ``|p|`` reaches the hundreds, for the
    peak, ``max(c1, t*)``), so that levels 0 and 1 agree.  One node pass is
    final: it sums level 1's nodes, and level 0's from their even ones; a
    column whose two levels agree is done, and any other comes back
    unconverged with level 1's value.  Columns share the node rows, sorted by
    step, order and window, and a run of one step and order forms its nodes
    once; outside its window a column's terms add exact zeros to its exact
    sums (:func:`_split`), so every column of a batch has the bits it has
    alone.  Each column keeps its own step, window and level scale.  One
    column runs the same steps in Python floats, with NumPy's transcendental
    functions (whose ``exp`` and ``log`` round as the arrays' do, unlike
    ``math``'s) taken back as floats and its node pass on arrays; where a
    float raises, it runs them on NumPy scalars, which give inf or NaN.

    The error estimate is the difference of levels 0 and 1 plus ``eps``
    times the value, times the node count plus ``10 sqrt(c1)`` (the
    cancellation in ``G0``); in log space plus ``4 |p|`` ulps (the rounding
    of ``P``) and twice each term of the exponent of ``w^power r^-p``.  A
    column whose peak or window is not finite (``w`` beyond 1e300, a
    divergent integral), whose level 1 would take more than
    ``_TRAP_NODE_MAX`` nodes, whose level sums are not finite or whose M0
    sums are not positive (from orders of about 1e18, where ``top0``
    cancels and the level scale overflows or underflows), or whose log-space
    value is not positive, comes back 0 with an infinite estimate,
    unconverged, so that it cannot pass for a value in a sum.
    """
    if (isinstance(c1, np.ndarray) or isinstance(p, np.ndarray) or isinstance(w, np.ndarray)
            or isinstance(x, np.ndarray)):  # a V/V' batch, one column per entry
        c1, p, w, *x = (v.ravel() for v in np.broadcast_arrays(
            *(np.asarray(v, float) for v in (c1, p, w) + (() if x is None else (x,)))))
        x = x[0] if x else None
        if power != 0.0 or not np.all((p < 0.0) & (2.0 * p == np.floor(2.0 * p))):
            raise ValueError("arrays need a negative half-integer p and power 0")
        if not w.size:
            return Columns(np.zeros(0), np.zeros(0), np.zeros(0, int), np.zeros(0, bool))
        if w.size > 1:
            lift = c1 <= 0.5
            if not lift.any():
                return _blocks(c1, p, w, x)
            # both terms of I(c1+1, p) - p I(c1+1, p-1) in one batch
            up, n = lift.nonzero()[0], w.size
            both = _blocks(
                np.concatenate([np.where(lift, c1 + 1.0, c1), c1[up] + 1.0]),
                np.concatenate([p, p[up] - 1.0]), np.concatenate([w, w[up]]),
                None if x is None else np.concatenate([x, x[up]]))
            got = Columns(*(v[:n] for v in both))
            summed = _lift_sum([Columns(*(v[n:] for v in both)), Columns(*(v[up] for v in got))],
                               [-p[up]])
            for column, v in zip(got, summed):
                column[up] = v
            return got
        c1, p, w, x = c1.item(), p.item(), w.item(), x if x is None else x.item()
    if c1 <= 0.5:  # lift the order: terms that are all positive
        terms = []  # I(c1, p) = w I(c1, p-1) + c1 I(c1+1, p-1) while p >= 0
        while p >= 0.0:
            terms.append((c1, p - 1.0, power))
            p, power = p - 1.0, power + 1.0
        terms += [(-p, p - 1.0, power), (1.0, p, power)]  # I(c1+1, p) - p I(c1+1, p-1)
        cols = []  # from the largest p down, whose columns are the first to fail
        for _, p, power in terms:
            cols.append(trapezoid_columns(c1 + 1.0, p, w, x, power))
            if len(terms) > 2 and np.isinf(cols[-1].abs_err):  # the loop ran; the sum fails
                return Columns(np.zeros(1), cols[-1].abs_err, cols[-1].points, np.zeros(1, bool))
        return _lift_sum(cols, [weight for weight, _, _ in terms[:-1]])
    try:  # one column in Python floats; where a float raises, NumPy scalars give inf or NaN
        return _columns(c1, p, float(w), x, power)
    except (ZeroDivisionError, OverflowError, ValueError):
        return _columns(c1, p, np.float64(w), x, power)


def _blocks(c1: np.ndarray, p: np.ndarray, w: np.ndarray, x) -> Columns:
    """:func:`_columns` of a double-double batch of two or more columns with
    orders ``c1 > 1/2``, in blocks of at most ``_SET_UP_MAX`` columns of
    adjacent orders: the memory a block's set-up takes stays bounded."""
    ordered = np.lexsort((c1, c1 + abs(p)))
    got = [_columns(c1[k], p[k], w[k], None if x is None else x[k], 0.0)
           for k in np.array_split(ordered, -(-w.size // _SET_UP_MAX))]
    blocks = [np.concatenate(field) for field in zip(*got)]
    for field in blocks:
        field[ordered] = field.copy()
    return Columns(*blocks)


def _columns(c1, p, w, x, power: float) -> Columns:
    """The rule of :func:`trapezoid_columns` for orders ``c1 > 1/2``: one
    column of floats, or a V/V' batch of arrays whose set-up runs at once."""
    many = isinstance(w, np.ndarray)
    double_double = many or (power == 0.0 and p < 0.0 and float(2.0 * p).is_integer())
    (maximum, minimum, fmax, fmin, exp, expm1, log, log1p, hypot, sqrt, floor, ceil, copysign,
     exp2) = _SCALAR_OPS if type(w) is float else (  # arrays, or NumPy scalars
        np.maximum, np.minimum, np.fmax, np.fmin, np.exp, np.expm1, np.log, np.log1p,
        np.hypot, np.sqrt, np.floor, np.ceil, np.copysign, np.exp2)
    # the node pass's outer products; a batch's by einsum, faster than broadcasting
    outer = (lambda a, b, out: np.einsum("i,j->ij", a, b, out=out)) if many else np.multiply
    root = sqrt(c1)

    def window_end(d):  # where the tangent to G0 + P at d falls to -40
        t = peak * exp(d)
        g = c1 * d - peak * expm1(d) + p * log((w + t) / width)
        return _tangent_end(d, g, minimum(c1 - t * (1.0 - p / (w + t)), c1))

    def totals(m_hi, g_hi, m_lo, g_lo):  # M and M0 of each level from the exact sums
        return m_hi + m_lo / bits, g_hi + g_lo / bits

    def node_pass(f, l, w, recip, p, scale, runs):
        # the exact sums (M's hi, M0's hi, M's lo, M0's lo) of columns over level 1's nodes f
        # to l, and over level 0's, their even ones.  Each run, rows a to b of one step h and
        # order o (sorting made them adjacent), forms its nodes once
        j0, j1, n = (min(f.tolist()), max(l.tolist()) + 1.0, f.size) if many else (f, l + 1.0, 1)
        j = np.arange(j0, j1)
        parts = np.empty((2, 2, n, j.size))  # the split's hi and lo; lo holds the terms first
        terms = parts[1]
        g, g0 = terms[0], terms[1]
        for a, b, h, o, peak_r in runs:
            nodes = j * (0.5 * h)
            outer(peak_r, np.exp(nodes), g[a:b])
            outer(peak_r, np.expm1(nodes), g0[a:b])
            np.subtract(o * nodes, g0[a:b], g0[a:b])
        g += w
        g *= recip
        np.log(g, g)
        g *= p
        g += g0
        if n > 1:  # outside its window (before the last start or after
            # the first end), a column's terms add exact zeros
            head, tail = np.searchsorted(j, (max(f.tolist()), min(l.tolist())), "right")
            np.copyto(terms[..., :head], -np.inf, where=j[:head] < f[:, None])
            np.copyto(terms[..., tail:], -np.inf, where=j[tail:] > l[:, None])
        np.exp(terms, terms)
        # one product, whose exact sums do not depend on its order
        _split(terms, scale, bits, parts[0])
        sums = parts.reshape(-1, j.size) @ _weights(_TRAP_NODE_MAX + 2)[int(j0 % 2):][:j.size]
        return sums.reshape(4, n, 2) if many else sums.T.tolist()  # one column's as floats

    with np.errstate(all="ignore"):
        # the positive root; b - s or b + s would cancel, so the root of
        # larger size is formed first and the other from their product
        b = c1 + p - w
        big = 0.5 * b + copysign(0.5 * hypot(b, 2.0 * root * sqrt(w)), b)
        peak = maximum(big, -c1 * (w / big))
        width = w + peak
        # the growth bound of the step; in log space, that at the peak
        c = c1 + abs(p)
        if not double_double:
            c = min(c, float(fmax(peak, c1)))
        step = (_per_order(_trapezoid_step, c, _TRAP_TOL / 100.0) if many
                else _trapezoid_step(c, _TRAP_TOL / 100.0))
        sigma = 1.0 / sqrt(peak * (peak / width) + c1 * (w / width))
        # e^G0 peaks at t = c1, d = d0, where it is e^top0; its window about
        # d0 depends on c1 alone
        d0 = log(c1 / peak)
        top0 = c1 * d0 - (c1 - peak)
        lo0, hi0 = _per_order(_gamma_window, c1) if many else _gamma_window(c1)
        # the tangents' starting points; a batch takes all four in one array
        starts = (-_TRAP_REACH * sigma, minimum(log(w / peak), 0.0) - 2.0,
                  _TRAP_REACH * sigma, log1p((c1 + _TRAP_DROP) / peak))
        ends = window_end(np.array(starts)) if many else [window_end(d) for d in starts]
        lo = minimum(fmax(ends[0], ends[1]), d0 + lo0)
        hi = maximum(fmin(ends[2], ends[3]), d0 + hi0)
        # the double-double products need w below 1e300
        ok = (peak > 0.0) & (top0 < 700.0) & (hi - lo > 4.0 * step) & (width < 1e300)
        # level 1's nodes, from which level 0 is summed too
        first, last = ceil(2.0 * lo / step), floor(2.0 * hi / step)
        fits = ok & (last - first < _TRAP_NODE_MAX)
        # P uses r = 1/w, so that I = r^-p int e^(G0 + P) / int e^G0 for
        # whatever rounding r carries; r^-p (x r^-p) for the levels' values,
        # the final value is exact
        recip = 1.0 / width
        if not double_double:  # the levels' values are the ratios alone
            scale = 1.0
        elif x is None:
            scale = _pows(recip, -p)
        else:
            scale = (x * recip) * _pows(recip, -p - 1.0)
        # e^G peaks at 1, and e^G0 at e^top0 is scaled by unit below 2; the
        # split sums of both, in units of 1/bits and 1/bits^2, stay below
        # 2^53 for up to 2^11 nodes, more than level 1 takes.  bits fixes
        # where the split rounds each term: any other bits would move every value
        unit = exp2(-floor(top0 / math.log(2.0)) - 1.0)
        bits = 2.0 ** (51 - _TRAP_NODE_MAX.bit_length())
        ratio_scale = scale * unit
        # level 1's node count where it fits
        used = (np.where(fits, last - first + 1.0, 0.0).astype(int) if many
                else np.array([int(last - first + 1.0) if fits else 0]))
        # one node pass is final: level 1's nodes, whose even ones are level
        # 0's; the columns whose two levels agree are done
        if many:
            sums = np.full((4, used.size, 2), np.nan)
            fit = fits.nonzero()[0]
            fit = fit[np.lexsort((first[fit], c1[fit], step[fit]))]  # by step, order and start
            # the fitting columns gathered once, in pass order, so that a pass reads
            # slices; the runs of one step and order are cut once
            f, l, h, o, top = (v[fit] for v in (first, last, step, c1, peak))
            cols = [v[fit, None] for v in (w, recip, p, bits * unit)]
            cuts = np.flatnonzero((h[1:] != h[:-1]) | (o[1:] != o[:-1])) + 1
            for s in range(0, fit.size, COLUMN_CHUNK):
                e = min(s + COLUMN_CHUNK, fit.size)
                ends = [s, *cuts[(s < cuts) & (cuts < e)].tolist(), e]
                runs = [(a - s, b - s, h[a], o[a], top[a:b]) for a, b in zip(ends, ends[1:])]
                sums[:, fit[s:e]] = node_pass(f[s:e], l[s:e], *(v[s:e] for v in cols), runs)
            # a column whose level sums are not finite, or whose M0 is not positive, fails
            m, g = totals(*sums)
            usable = np.isfinite(m + g) & (g > 0.0)
            fits &= usable[:, 0] & usable[:, 1]
            value, level0 = (ratio_scale[:, None] * (m / g)).T  # r^-p M / M0
        else:  # in Python floats, which round as the arrays do
            one, zero = (node_pass(first, last, w, recip, p, bits * unit, [(0, 1, step, c1, peak)])
                         if fits else ([np.nan] * 4,) * 2)
            (m, g), (m0, g0) = totals(*one), totals(*zero)
            fits = fits and math.isfinite(m + g + m0 + g0) and min(g, g0) > 0.0
            value, level0 = ((float(ratio_scale) * (m / g), float(ratio_scale) * (m0 / g0))
                             if fits else (math.nan, math.nan))
        size = abs(value)
        diff = abs(value - level0) / maximum(size, _TINY)
        done, err = fits & (diff <= _TRAP_TOL), diff * size + _EPS * size
        if not double_double:  # log space, one column
            # w^power r^-p = e^((power + p) log w - p log(w r)), w r = hi + lo
            hi, lo = _two_prod(w, recip)
            terms = ((power + p) * log(w), -p * (log(hi) + lo / hi), log(value))
            exact = exp(terms[0] + terms[1] + terms[2])
            size = abs(terms[0]) + abs(terms[1]) + abs(terms[2])
            rounding = _EPS * (used + 10.0 * root) + _EPS * (4.0 * abs(p) + 2.0 * size)
            keep = fits & (exact > 0.0)
            err = np.where(keep, exact * (np.divide(err, value) + rounding), np.inf)
            return Columns(np.where(keep, exact, 0.0).reshape(-1), err, used, np.reshape(done, -1))
        if not many:  # one column, in Python floats
            if done:
                m_hi, g_hi, m_lo, g_lo = one
                value = _dd_value((m_hi * unit, m_lo * unit / bits), (g_hi, g_lo / bits), recip,
                                  x, p, math.sqrt)
            elif not fits:
                value, err = 0.0, math.inf
            rounding = _EPS * (used.tolist()[0] + 10.0 * root)
            return Columns(np.array([value]), np.array([err + rounding * value]), used,
                           np.array([done]))
        rounding = _EPS * (used + 10.0 * root)
        m_hi, g_hi, m_lo, g_lo = sums[..., 0]
        exact = _dd_value((m_hi * unit, m_lo * unit / bits), (g_hi, g_lo / bits), recip, x, p,
                          np.sqrt)
    value = np.where(done, exact, np.where(fits, value, 0.0))
    abs_err = np.where(fits, err + rounding * value, np.inf)
    return Columns(value, abs_err, used, done)
