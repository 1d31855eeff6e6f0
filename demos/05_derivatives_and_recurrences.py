"""Walkthrough: derivatives, recurrences, and ratio limits of V_q.

The derivative V_q'(x) can be computed three independent ways, the
order ladder V_{q+1} follows from (V_{q-1}, V_q) by a three-term
recurrence, and the Turan-type ratio V_{q+1}^2 / (V_q V_{q+2}) has a
sharp elementary limit as x -> 0.
"""
from regcoulomb import mills, vq, vq_neg1, vq_next, vq_prime


def main() -> None:
    print("=== Three routes to the derivative ===============================")
    print("integral : differentiate under the Laplace-transform integral")
    print("differ   : the order-raising relation x V_q' = (2q+1) V_q - 2(q+1) V_{q+1}")
    print("difvq    : the exact identity linking V_q' to V_{q-1} and V_q")
    print()
    print(f"{'q':>4} {'x':>5} {'integral':>20} {'differ':>20} "
          f"{'difvq':>20}")
    for q, x in [(0.0, 0.5), (1.0, 1.0), (2.0, 2.0), (0.0, 5.0)]:
        vals = [vq_prime(q, x, method=m)
                for m in ("integral", "differ", "difvq")]
        print(f"{q:>4g} {x:>5g} {vals[0]:>20.14g} {vals[1]:>20.14g} "
              f"{vals[2]:>20.14g}")
    print("(V_q' is always negative: the potential strictly decreases)")

    print()
    print("=== Climbing the order ladder ====================================")
    x = 1.0
    prev, cur = vq_neg1(x), vq(0.0, x).value
    print(f"x = {x:g}; start from V_-1 = 1/x = {prev:g} and "
          f"V_0 = {cur:.12g}")
    for k in range(5):
        nxt = vq_next(float(k), cur, prev, x)
        direct = vq(float(k + 1), x).value
        print(f"  V_{k + 1:g}: recurrence = {nxt:.15g}   "
              f"direct = {direct:.15g}   rel diff = "
              f"{abs(nxt - direct) / direct:.1e}")
        prev, cur = cur, nxt

    print()
    print("=== The Mills ratio differential equation ========================")
    print("m'(x) = x m(x) - 1 everywhere; checked by central differences:")
    for x in (0.5, 1.0, 2.0, 5.0):
        h = 1e-5 * max(1.0, x)
        deriv = (mills(x + h) - mills(x - h)) / (2.0 * h)
        resid = abs(deriv - (x * mills(x) - 1.0))
        print(f"  x={x:>4g}: |m' - (x m - 1)| = {resid:.2e}")

    print()
    print("=== Turan ratio and its sharp small-x constant ===================")
    print("V_{q+1}^2 / (V_q V_{q+2}) -> (q+2)(2q+1) / ((q+1)(2q+3)):")
    for q in (0.0, 1.0, 2.5):
        constant = (q + 2.0) * (2.0 * q + 1.0) / ((q + 1.0) * (2.0 * q + 3.0))
        print(f"  q={q:g}: sharp constant = {constant:.12g}")
        for x in (1.0, 0.1, 1e-2, 1e-4):
            ratio = (vq(q + 1.0, x).value ** 2
                     / (vq(q, x).value * vq(q + 2.0, x).value))
            print(f"    x={x:<6g} ratio = {ratio:.12g}")
    print("The ratio stays strictly above the constant for x > 0 and")
    print("strictly below 1, tightening to the constant as x -> 0.")


if __name__ == "__main__":
    main()
