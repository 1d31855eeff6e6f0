"""Exact certificates that the Mills ratio bounds hold on all of (0, inf).

The Mills ratio m satisfies m' = x m - 1.  For a candidate bound g, let
h = g' - x g + 1.  Then d = m - g satisfies (e^{-x^2/2} d)' = -h e^{-x^2/2},
and since e^{-x^2/2} d -> 0 as x -> inf,

    m(x) - g(x) = e^{x^2/2} int_x^inf h(t) e^{-t^2/2} dt.

So h > 0 on (0, inf) makes g a strict lower bound of m there, and h < 0 a
strict upper bound.

For g = P/Q with polynomials P and Q, Q > 0 on [0, inf), the quotient rule
gives h Q^2 = P'Q - PQ' - x P Q + Q^2, a polynomial of degree at most
n = max(deg P + deg Q + 1, 2 deg Q).  If h Q^2 takes one value c at n + 1
distinct points, h Q^2 - c has more roots than its degree and is the zero
polynomial, so h = c / Q^2 has the sign of c everywhere.  The points are
rationals and the arithmetic is ``fractions.Fraction``, so nothing rounds.

f1 = x / (x^2 + 1) has h (x^2 + 1)^2 = 2: h = 2 / (x^2 + 1)^2 > 0, and
f1 < m on (0, inf).
"""
from fractions import Fraction

#: polynomials as coefficient tuples, constant term first
F1 = ((0, 1), (1, 0, 1))                      # x / (x^2 + 1)
F1_MUTANT = ((0, 1), (Fraction(9, 10), 0, 1))  # x / (x^2 + 9/10)


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


def _certified_constant(p, q):
    """The constant c with h Q^2 = c as polynomials, or None when the values
    of h Q^2 at n + 1 distinct rationals differ."""
    degree = max(len(p) + len(q) - 1, 2 * (len(q) - 1))
    values = {_h_times_q_squared(p, q, Fraction(k, 3)) for k in range(degree + 1)}
    return values.pop() if len(values) == 1 else None


class TestMillsF1:
    def test_f1_is_a_lower_bound_on_the_whole_range(self):
        # h (x^2 + 1)^2 - 2 has degree <= 4 and vanishes at 5 distinct
        # rationals, so h = 2 / (x^2 + 1)^2 > 0 on (0, inf): f1 < m there
        assert _certified_constant(*F1) == 2

    def test_a_false_mutant_fails_its_certificate(self):
        # x / (x^2 + 9/10) has h Q^2 = 171/100 - x^2/10, which changes sign
        # at x = sqrt(17.1), so no constant certifies it as a lower bound
        assert _certified_constant(*F1_MUTANT) is None
        for x in map(Fraction, (0, 1, 2, 3, 5)):
            assert _h_times_q_squared(*F1_MUTANT, x) == Fraction(171, 100) - x ** 2 / 10
        assert _h_times_q_squared(*F1_MUTANT, Fraction(5)) == Fraction(-79, 100)
