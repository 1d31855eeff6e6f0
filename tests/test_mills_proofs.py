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


def _certified(p, q, rhs):
    """Whether h Q^2 = ``rhs`` as polynomials: whether they agree at n + 1
    distinct rationals k/3, k = 1, 2, ..., skipping the zeros of Q, where n
    bounds the degree of both."""
    degree = max(len(p) + len(q) - 1, 2 * (len(q) - 1), len(rhs) - 1)
    points = (x for x in (Fraction(k, 3) for k in count(1)) if _at(q, x))
    return all(_h_times_q_squared(p, q, x) == _at(rhs, x) for x in islice(points, degree + 1))


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
