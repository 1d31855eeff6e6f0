"""Walkthrough: machine-verifying the claimed inequalities.

The verifier sweeps parameter grids and checks every monotonicity,
convexity, Turan-type, and bound claim as a strict inequality with a
guard band: lhs < rhs only counts when lhs < rhs - max(1e-12, tol*|rhs|).
Suites: monotonicity, convexity, turan, logconvexity, simon, bounds.
"""
from regcoulomb import Grid, VerifyConfig, run_suite


def main() -> None:
    print("=== A quick run on a small grid ==================================")
    grid = Grid(q_values=(-0.45, 0.0, 0.5, 1.0, 2.0),
                x_values=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    report = run_suite(VerifyConfig(suites=("all",), grid=grid))
    print(f"suites        : {report.suite}")
    print(f"grid          : {len(grid.q_values)} orders x "
          f"{len(grid.x_values)} arguments")
    print(f"checks        : {report.n_checks}")
    print(f"violations    : {len(report.violations)}")
    print(f"errors        : {len(report.errors)}")
    print(f"margin range  : [{report.min_margin:.3e}, "
          f"{report.max_margin:.3e}]")
    print(f"overall       : {'PASS' if report.passed else 'FAIL'}")

    print()
    print("=== Single-point mode: see every individual check ================")
    single = Grid(q_values=(1.0,), x_values=(2.0,))
    report = run_suite(VerifyConfig(suites=("turan",), grid=single,
                                    emit_checks=True))
    for obs in report.observations:
        print(f"  {obs.suite}: lhs={obs.lhs:.12g} rhs={obs.rhs:.12g}")

    print()
    print("=== One suite at a time ==========================================")
    for suite in ("monotonicity", "convexity", "turan", "logconvexity",
                  "simon", "bounds"):
        report = run_suite(VerifyConfig(suites=(suite,), grid=grid))
        print(f"  {suite:<13} checks={report.n_checks:>6} "
              f"violations={len(report.violations)} "
              f"min_margin={report.min_margin:.3e}")

    print()
    print("=== The verifier can fail ========================================")
    print("Every inequality is checked with a guard band, so demanding more")
    print("separation than actually exists is reported as a violation.  At")
    print("x = 20 two of the Mills upper bounds are within ~1e-7 relative of")
    print("the ratio itself; a 1e-6 guard flags them:")
    report = run_suite(VerifyConfig(suites=("bounds",),
                                    grid=Grid((0.0,), (20.0,)),
                                    rel_tol=1e-6))
    for v in report.violations:
        where = ", ".join(f"{k}={val:g}"
                          for k, val in (("q", v.q), ("x", v.x))
                          if val is not None)
        print(f"  VIOLATION {v.suite} ({where}): "
              f"lhs={v.lhs:.12g} rhs={v.rhs:.12g} margin={v.margin:.3e}")
    print(f"overall: {'PASS' if report.passed else 'FAIL (as requested)'}")

    print()
    print("The same engine backs the command line:")
    print("  regcoulomb verify --suite all")
    print("  regcoulomb verify --suite turan --q 1 --x 2")
    print("exit code 0 = everything holds, 1 = a claim was violated.")


if __name__ == "__main__":
    main()
