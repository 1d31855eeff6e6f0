"""Exact certificates that the Mills ratio bounds hold on their whole range.

The Mills ratio m satisfies m' = x m - 1.  For a candidate bound g, let
h = g' - x g + 1.  Then d = m - g satisfies (e^{-x^2/2} d)' = -h e^{-x^2/2},
and since e^{-x^2/2} d -> 0 as x -> inf,

    m(x) - g(x) = e^{x^2/2} int_x^inf h(t) e^{-t^2/2} dt.

So h > 0 on an interval (x0, inf) where g is smooth makes g a strict lower
bound of m there, and h < 0 a strict upper bound.

For g = P/Q with polynomials P and Q, the quotient rule gives
h Q^2 = P'Q - PQ' - x P Q + Q^2, a polynomial of degree at most
n = max(deg P + deg Q + 1, 2 deg Q).  If h Q^2 and a polynomial R of degree
at most n agree at n + 1 distinct points where Q is not 0, h Q^2 - R has
more roots than its degree and is the zero polynomial, so h = R / Q^2 has
the sign of R wherever Q is not 0.  The points are rationals and the
arithmetic is ``fractions.Fraction``, so nothing rounds.

- f1 = x / (x^2 + 1) has h (x^2 + 1)^2 = 2: h > 0, and f1 < m on (0, inf).
- f2 = 1 / x has h x^2 = -1: h < 0, and f2 > m on (0, inf).
- f3 = x (x^2 + 1) / (x^4 + 2x^2 - 1) has h (x^4 + 2x^2 - 1)^2 = -8x^2.
  Its denominator increases on (0, inf) and vanishes at
  sqrt(sqrt 2 - 1), ``MILLS_F3_THRESHOLD``; above it f3 is smooth and
  h < 0, so f3 > m there.

f4 and f5 carry a root S = sqrt(R): each is g = N/D with N and D of the
form p + r S.  By the quotient rule D^2 h = N'D - ND' - x N D + D^2, and
S' = R'/(2S), so S D^2 h is A + B S with polynomials A and B once S^2 is
replaced by R.  Counting S as degree 2 (R has degree 4), N and D have
degrees summing to at most 3 and D at most 2, so A has degree at most 6
and B at most 4: they are decided by 7 points.  At each rational point
N, D and their derivatives are formed exactly as u + v S with
``Fraction`` u and v.

- f4 = (1 - x^2 + S)/(4x), S = sqrt(x^4 + 6x^2 + 1), has
  4x^2 S h = P S - Q with P = x^4 + 2x^2 - 1 and Q = x^6 + 5x^4 + x^2 + 1.
  Q^2 - P^2 S^2 = 32x^4 > 0 and Q > 0, so Q > |P| S: h < 0 and f4 > m on
  (0, inf).
- f5 = 6x/D, D = 5x^2 - 3 + T, T = sqrt(x^4 + 18x^2 + 9), has
  D^2 T h = A + B T with A = 4x^2 (x^4 + 15x^2 - 18) and
  B = -4x^2 (x^2 + 6).  A^2 - B^2 T^2 = -1152 x^6 (x^2 + 18) < 0, so
  |A| < |B| T = -B T; as D > 5x^2 > 0 (T > 3), h < 0 and f5 > m on
  (0, inf).
"""
import math
from fractions import Fraction
from itertools import count, islice

from regcoulomb.bounds import MILLS_F3_THRESHOLD

#: polynomials as coefficient tuples, constant term first
F1 = ((0, 1), (1, 0, 1))                      # x / (x^2 + 1)
F1_MUTANT = ((0, 1), (Fraction(9, 10), 0, 1))  # x / (x^2 + 9/10)
F2 = ((1,), (0, 1))                           # 1 / x
F2_MUTANT = ((Fraction(9, 10),), (0, 1))      # 9 / (10 x)
F3 = ((0, 1, 0, 1), (-1, 0, 2, 0, 1))         # x (x^2 + 1) / (x^4 + 2x^2 - 1)
F3_MUTANT = ((0, 1, 0, 1), (Fraction(-9, 10), 0, 2, 0, 1))  # ... / (x^4 + 2x^2 - 9/10)
#: bounds with a root S = sqrt(R): (N, D), each a pair (p, r) for p + r S
R4 = (1, 0, 6, 0, 1)                          # x^4 + 6x^2 + 1
F4 = (((1, 0, -1), (1,)), ((0, 4), ()))       # (1 - x^2 + S) / (4x)
F4_MUTANT = (((Fraction(9, 10), 0, Fraction(-9, 10)), (Fraction(9, 10),)), F4[1])  # 9/10 f4
P4 = (-1, 0, 2, 0, 1)                         # x^4 + 2x^2 - 1
Q4 = (1, 0, 1, 0, 5, 0, 1)                    # x^6 + 5x^4 + x^2 + 1
R5 = (9, 0, 18, 0, 1)                         # x^4 + 18x^2 + 9
F5 = (((0, 6), ()), ((-3, 0, 5), (1,)))       # 6x / (5x^2 - 3 + T)
F5_MUTANT = (((0, Fraction(27, 5)), ()), F5[1])  # 9/10 f5
A5 = (0, 0, -72, 0, 60, 0, 4)                 # 4x^2 (x^4 + 15x^2 - 18)
B5 = (0, 0, -24, 0, -4)                       # -4x^2 (x^2 + 6)


def _at(coeffs, x):
    """The polynomial ``coeffs`` at x, by Horner's rule."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _derivative(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


def _h_times_q_squared(p, q, x):
    """h Q^2 at x for g = P/Q, with h = g' - x g + 1 formed from its definition."""
    qx = _at(q, x)
    g = _at(p, x) / qx
    g_prime = (_at(_derivative(p), x) * qx - _at(p, x) * _at(_derivative(q), x)) / qx ** 2
    return (g_prime - x * g + 1) * qx ** 2


def _identical(lhs, rhs, degree, defined=lambda x: True):
    """Whether ``lhs`` and ``rhs``, functions of x that are polynomials of
    degree at most ``degree`` (or pairs of them), agree at degree + 1
    distinct rationals k/3, k = 1, 2, ..., skipping those not ``defined``."""
    points = (x for x in (Fraction(k, 3) for k in count(1)) if defined(x))
    return all(lhs(x) == rhs(x) for x in islice(points, degree + 1))


def _certified(p, q, rhs):
    """Whether h Q^2 = ``rhs`` as polynomials: whether they agree at n + 1
    distinct rationals, skipping the zeros of Q, where n bounds the degree
    of both."""
    degree = max(len(p) + len(q) - 1, 2 * (len(q) - 1), len(rhs) - 1)
    return _identical(lambda x: _h_times_q_squared(p, q, x), lambda x: _at(rhs, x), degree,
                      lambda x: _at(q, x))


def _times(a, b, r):
    """(a0 + a1 S)(b0 + b1 S), where S^2 = r."""
    return a[0] * b[0] + a[1] * b[1] * r, a[0] * b[1] + a[1] * b[0]


def _jet(f, root, x):
    """f = p + r S and f' = p' + (r' + r root'/(2 root)) S at x, with
    S = sqrt(root), each as the pair (u, v) of u + v S."""
    (p, r), rx = f, _at(root, x)
    slope = _at(_derivative(r), x) + _at(r, x) * _at(_derivative(root), x) / (2 * rx)
    return (_at(p, x), _at(r, x)), (_at(_derivative(p), x), slope)


def _s_d_squared_h(num, den, root, x):
    """S D^2 h at x for g = N/D, with S = sqrt(root), as the pair (A, B) of
    A + B S; D^2 h = N'D - ND' - x N D + D^2."""
    rx = _at(root, x)
    (n, n_prime), (d, d_prime) = _jet(num, root, x), _jet(den, root, x)
    terms = _times(n_prime, d, rx), _times(n, d_prime, rx), _times(n, d, rx), _times(d, d, rx)
    u, v = (a - b - x * c + e for a, b, c, e in zip(*terms))
    return v * rx, u


def _positive(a, b, r):
    """Whether a + b sqrt(r) > 0, for r > 0, decided in rationals."""
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return a + b > 0
    return (a * a - b * b * r) * a > 0


class TestMillsF1:
    def test_f1_is_a_lower_bound_on_the_whole_range(self):
        # h (x^2 + 1)^2 - 2 has degree <= 4 and vanishes at 5 distinct
        # rationals, so h = 2 / (x^2 + 1)^2 > 0 on (0, inf): f1 < m there
        assert _certified(*F1, (2,))

    def test_a_false_mutant_fails_its_certificate(self):
        # x / (x^2 + 9/10) has h Q^2 = 171/100 - x^2/10, which changes sign
        # at x = sqrt(17.1), so no constant certifies it as a lower bound
        assert not _certified(*F1_MUTANT, (2,))
        assert _certified(*F1_MUTANT, (Fraction(171, 100), 0, Fraction(-1, 10)))
        for x in map(Fraction, (0, 1, 2, 3, 5)):
            assert _h_times_q_squared(*F1_MUTANT, x) == Fraction(171, 100) - x ** 2 / 10
        assert _h_times_q_squared(*F1_MUTANT, Fraction(5)) == Fraction(-79, 100)


class TestMillsF2:
    def test_f2_is_an_upper_bound_on_the_whole_range(self):
        # h x^2 = -1 at 3 distinct nonzero rationals, so h = -1 / x^2 < 0
        # on (0, inf): f2 > m there
        assert _certified(*F2, (-1,))

    def test_a_false_mutant_fails_its_certificate(self):
        # 9 / (10 x) has h x^2 = (x^2 - 9) / 10, positive beyond x = 3, where
        # it lies below m
        assert not _certified(*F2_MUTANT, (-1,))
        assert _certified(*F2_MUTANT, (Fraction(-9, 10), 0, Fraction(1, 10)))


class TestMillsF3:
    def test_f3_is_an_upper_bound_beyond_its_threshold(self):
        # h Q^2 + 8x^2 has degree <= 8 and vanishes at 9 distinct rationals,
        # so h = -8x^2 / Q^2 < 0 wherever Q is not 0
        assert _certified(*F3, (0, 0, -8))

    def test_the_threshold_is_the_zero_of_the_denominator(self):
        # Q(x) = x^4 + 2x^2 - 1 increases on (0, inf), and changes sign in
        # the ulp below MILLS_F3_THRESHOLD: Q > 0 at every x that mills_f3
        # admits (x > MILLS_F3_THRESHOLD)
        q = F3[1]
        assert _at(q, Fraction(math.nextafter(MILLS_F3_THRESHOLD, 0.0))) < 0
        assert _at(q, Fraction(MILLS_F3_THRESHOLD)) > 0

    def test_a_false_mutant_fails_its_certificate(self):
        # x (x^2 + 1) / (x^4 + 2x^2 - 9/10) has h Q^2 = (10x^4 - 740x^2 - 9)
        # / 100, positive beyond x = 8.603, where it lies below m
        assert not _certified(*F3_MUTANT, (0, 0, -8))
        assert _certified(*F3_MUTANT, (Fraction(-9, 100), 0, Fraction(-37, 5), 0, Fraction(1, 10)))
        assert _h_times_q_squared(*F3_MUTANT, Fraction(9)) > 0


class TestMillsF4:
    def test_f4_is_an_upper_bound_on_the_whole_range(self):
        # D = 4x, so S D^2 h = 4 (4x^2 S h) = 4 (P S - Q)
        assert _identical(lambda x: _s_d_squared_h(*F4, R4, x),
                          lambda x: (-4 * _at(Q4, x), 4 * _at(P4, x)), 6)
        # Q^2 - P^2 R - 32x^4 has degree <= 12; Q has no negative coefficient
        assert _identical(lambda x: _at(Q4, x) ** 2 - _at(P4, x) ** 2 * _at(R4, x),
                          lambda x: 32 * x ** 4, 12)
        assert all(c >= 0 for c in Q4) and Q4[0] > 0

    def test_a_false_mutant_fails_its_certificate(self):
        # 9/10 f4 lies below m ~ 1/x at large x; its h = 9/10 h_f4 + 1/10
        # is positive at x = 10
        assert not _identical(lambda x: _s_d_squared_h(*F4_MUTANT, R4, x),
                              lambda x: (-4 * _at(Q4, x), 4 * _at(P4, x)), 6)
        assert _positive(*_s_d_squared_h(*F4_MUTANT, R4, Fraction(10)), _at(R4, Fraction(10)))
        assert not _positive(*_s_d_squared_h(*F4, R4, Fraction(10)), _at(R4, Fraction(10)))


class TestMillsF5:
    def test_f5_is_an_upper_bound_on_the_whole_range(self):
        assert _identical(lambda x: _s_d_squared_h(*F5, R5, x),
                          lambda x: (_at(A5, x), _at(B5, x)), 6)
        # A^2 - B^2 R + 1152 x^6 (x^2 + 18) has degree <= 12, and B < 0
        assert _identical(lambda x: _at(A5, x) ** 2 - _at(B5, x) ** 2 * _at(R5, x),
                          lambda x: -1152 * x ** 6 * (x * x + 18), 12)
        assert all(c <= 0 for c in B5) and any(B5)

    def test_a_false_mutant_fails_its_certificate(self):
        # 9/10 f5 lies below m ~ 1/x at large x; its h is positive at x = 10
        assert not _identical(lambda x: _s_d_squared_h(*F5_MUTANT, R5, x),
                              lambda x: (_at(A5, x), _at(B5, x)), 6)
        assert _positive(*_s_d_squared_h(*F5_MUTANT, R5, Fraction(10)), _at(R5, Fraction(10)))
        assert not _positive(*_s_d_squared_h(*F5, R5, Fraction(10)), _at(R5, Fraction(10)))
