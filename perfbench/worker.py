"""In-process side of the benchmark: one fresh interpreter runs one workload.

The worker sets up (imports regcoulomb and warms up), optionally runs the
timed loop, and prints one JSON object on stdout.  ``run.py`` starts it;
it is not meant to be run by hand, but can be::

    python perfbench/worker.py --workload eval-mix --seed 1 --seconds 5 --trace 0

Every loop is closed with a single caller on one thread: the next call is
made only after the previous one returned.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
import warnings
from array import array
from collections import Counter
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

clock = time.perf_counter_ns

# this many returned outputs, a uniform sample over the whole measured
# eval-mix stream, are checked against mpmath, as is every output of the fixed
# accuracy stream (of this many operations).  The cap bounds the oracle's
# cost: mpmath takes about a millisecond per output.  Every operation is
# checked for exceptions, warnings and non-finite values.
CHECKED_OPS = 1000
# Orders of the measured eval-mix stream lie in (Q_MIN, 12], or are -1.
# Just above -1 the quadrature of V_q and V_q' does not converge for
# 0.05 <= x <= 0.44 (and V_q' from x = 1e-3) when q + 1 < 5e-4.
Q_MIN = -0.999
# Regions where the program raises today, each as (call, q range, x range);
# x is drawn log-uniform.  The edge probe draws from them, the measured
# stream does not.
EDGE_REGIONS = (
    ("vq", (12.0, 1000.0), (1e-3, 60.0)),  # large q: NumericalError
    ("vq", (-1.0, 12.0), (60.0, 1e300)),  # huge x: DomainError above about 1e140
    ("vq", (-1.0, Q_MIN), (1e-3, 1.0)),  # q just above -1
    ("vq_prime", (-1.0, Q_MIN), (1e-3, 1.0)),
    ("vq_envelope", (-1.0, -0.5), (1e-3, 1e-2)),  # Kraetzel bound below x = 0.003
)
# draws from each region in the edge probe
EDGE_DRAWS = 16
# the reference kernel is timed about this often between eval-mix calls
WINDOW_NS = 1_000_000_000

VERIFY_EXPECTED = (55181, 0, 481, 0)  # checks, violations, observations, errors


# ---------------------------------------------------------------------------
# accounting


class Tally:
    """Operations attempted and failed, by failure reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures[reason] += 1


class Reservoir:
    """A uniform sample of at most ``cap`` of the items added, so that the
    harness's memory does not grow with the program's speed and skew
    ``peak_rss_mb``."""

    def __init__(self, cap: int, seed, items=None) -> None:
        self.cap = cap
        self.items = [] if items is None else items
        self.seen = 0
        self._rnd = random.Random(seed)

    def add(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.cap:
            self.items.append(item)
        else:
            j = self._rnd.randrange(self.seen)
            if j < self.cap:
                self.items[j] = item


class Latencies:
    """Count and total of every sample, a reservoir of samples for
    percentiles, and timings of the reference kernel (``speed.py``) taken
    between samples."""

    CAP = 50_000

    def __init__(self, seed: int) -> None:
        self.n = 0
        self.total_ns = 0
        self.sample = Reservoir(self.CAP, seed, array("d"))
        self.ref_s: list[float] = []

    def add(self, ns: int) -> None:
        self.n += 1
        self.total_ns += ns
        self.sample.add(ns)

    def reference(self) -> None:
        self.ref_s.append(speed.reference_s())

    def scaled_ns(self) -> float:
        return self.total_ns * speed.scale(self.ref_s)

    def to_json(self) -> dict:
        return {"n": self.n, "total_ns": self.total_ns, "sample_ns": list(self.sample.items),
                "ref_s": self.ref_s}


def fields(kind: str, out) -> tuple:
    """The numbers an operation returned, in oracle order."""
    if kind in ("vq", "vq_via_psi", "psi_eval"):
        return (out.value,)
    if kind in ("vq_prime", "kratzel_z"):
        return (out,)
    if kind == "vq_envelope":
        return (out.lower_exp, out.lower_kratzel, out.value, out.upper_agm)
    return (out.f1, out.f2, out.f3, out.f4, out.f5, out.m)


def failure_reason(kind: str, out, error: str | None, warned: list) -> str | None:
    """Why an operation failed, or None.  A non-finite value is named before
    a warning, because it is a wrong answer and a warning is not."""
    if error is not None:
        return error
    if any(v is not None and not math.isfinite(v) for v in fields(kind, out)):
        return "nonfinite"
    if warned:
        return "warning:" + warned[0].category.__name__
    return None


def run_ops(ops, fns: dict, deadline_ns: int, lat: Latencies | None, tally: Tally,
            checked: Reservoir | None = None) -> int:
    """Call each ``(kind, args)`` of ``ops`` in turn until ``deadline_ns``.

    Only the call itself is timed, into ``lat`` when given; the reference
    kernel runs about every :data:`WINDOW_NS`.  Every finite returned
    output, warned or not, is offered to ``checked`` for the oracle, with
    its failure reason.  Returns the number of operations run.
    """
    done = 0
    if lat is not None:
        lat.reference()
    next_window = clock() + WINDOW_NS
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for kind, args in ops:
            fn = fns[kind]
            error = None
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # every failure is counted, none stops the run
                out, error = None, type(exc).__name__
            t1 = clock()
            reason = failure_reason(kind, out, error, caught)
            tally.add(reason)
            if caught:
                del caught[:]
            if checked is not None and error is None and reason != "nonfinite":
                est = getattr(out, "abs_err_est", None) if kind in ("vq", "vq_via_psi") else None
                checked.add([kind, list(args), list(fields(kind, out)), est, reason])
            done += 1
            if lat is not None:
                lat.add(t1 - t0)
                if t1 >= next_window:
                    lat.reference()
                    next_window = clock() + WINDOW_NS
            if t1 >= deadline_ns:
                break
    if lat is not None:
        lat.reference()
    return done


# ---------------------------------------------------------------------------
# eval-mix: a seeded stream of scalar public calls


_LN = math.log


def _block(rnd: random.Random) -> list:
    """One shuffled block of 392 operations with fixed stratum counts."""

    def q_main() -> float:  # (Q_MIN, 12]
        return 12.0 - (12.0 - Q_MIN) * rnd.random()

    def x_log(lo: float, hi: float) -> float:
        return math.exp(rnd.uniform(_LN(lo), _LN(hi)))

    def x_main() -> float:
        return x_log(1e-3, 60.0)

    ops = []
    add = ops.append
    for _ in range(200):
        add(("vq", (q_main(), x_main())))
    for _ in range(12):
        add(("vq", (0.0, x_main())))
    for _ in range(8):
        add(("vq", (12.0 - 12.49 * rnd.random(), 0.0)))  # x = 0 needs q > -1/2
    for _ in range(8):
        add(("vq", (-1.0, x_main())))
    for _ in range(12):
        add(("vq", (rnd.randint(-1, 11) + 0.5, x_main())))
    for lo, hi in ((1e-3, 0.05), (0.05, 0.5), (0.5, 30.0), (30.0, 1e4)):  # router bands
        for _ in range(12):
            add(("vq", (q_main(), x_log(lo, hi))))
    for _ in range(32):
        add(("vq_prime", (q_main(), x_main())))
    for _ in range(10):
        q, x = q_main(), x_main()
        add(("psi_eval", (0.5, 0.5 - q, x * x)))
        q, x = q_main(), x_main()
        add(("psi_eval", (q + 1.0, q + 1.5, x * x)))
    for _ in range(20):
        add(("vq_via_psi", (q_main(), x_main())))
    for _ in range(16):  # x >= 0.01: see EDGE_REGIONS
        add(("vq_envelope", (q_main(), x_log(1e-2, 60.0))))
    for _ in range(16):
        add(("mills_bounds", (x_log(1e-2, 60.0),)))
    rnd.shuffle(ops)
    return ops


def edge_probe() -> list:
    """The known defects and a fixed draw from each region of
    :data:`EDGE_REGIONS`, where the program raises today.  They are run once
    after the measured stream and counted apart from it, so that a fix shows
    as fewer probe failures while the measured stream has none."""
    rnd = random.Random("edge")
    ops = [("vq", (200.0, 1.0)), ("vq", (1000.0, 3.0)), ("vq", (0.3, 1e200)),
           ("vq_envelope", (-0.73, 1e-3))]
    for _ in range(EDGE_DRAWS):
        for kind, (q_lo, q_hi), (x_lo, x_hi) in EDGE_REGIONS:
            q = q_hi - (q_hi - q_lo) * rnd.random()
            ops.append((kind, (q, math.exp(rnd.uniform(_LN(x_lo), _LN(x_hi))))))
    return ops


def stream(seed: int | str, limit: int | None = None):
    """The operation stream of one seed, generated a block at a time."""
    rnd = random.Random(seed)
    n = 0
    while True:
        for op in _block(rnd):
            if limit is not None and n >= limit:
                return
            n += 1
            yield op


# public function called -> span name when traced
EVAL_SPANS = {
    "vq": "potential.vq",
    "vq_prime": "potential.vq_prime",
    "psi_eval": "special.psi_eval",
    "vq_via_psi": "potential.vq_via_psi",
    "vq_envelope": "bounds.vq_envelope",
    "mills_bounds": "bounds.mills_bounds",
}


class EvalMix:
    WARM_UP_OPS = 784  # two blocks

    def __init__(self, rc, seed: int) -> None:
        self.seed = seed
        self.fns = {kind: getattr(rc, kind) for kind in EVAL_SPANS}

    def warm_up(self) -> None:
        run_ops(stream(f"warm-up:{self.seed}", self.WARM_UP_OPS), self.fns,
                clock() + 10**12, None, Tally())

    def measure(self, seconds: float, trace: bool) -> dict:
        tally = Tally()
        checked = Reservoir(CHECKED_OPS, f"checked:{self.seed}")
        lat = Latencies(self.seed)
        span = seconds / 2 if trace else seconds
        n = run_ops(stream(self.seed), self.fns, clock() + int(span * 1e9), lat, tally, checked)
        result = {"lat": lat.to_json(), "checked": checked.items}
        if trace:
            from tracer import Tracer

            # replay the same operations traced, to compare like with like
            tracer = Tracer()
            fns = {kind: tracer.traced(fn, EVAL_SPANS[kind], "bench." + kind)
                   for kind, fn in self.fns.items()}
            tracer.install()
            traced = Latencies(self.seed)
            try:
                run_ops(stream(self.seed, n), fns, clock() + int(seconds * 1e9), traced, tally)
            finally:
                tracer.uninstall()
            result["trace"] = {
                "summary": tracer.summary(),
                "overhead_ratio": (traced.scaled_ns() / traced.n) / (lat.scaled_ns() / lat.n),
                "checks": 0,
                "suites": {},
            }
        # the accuracy figure comes from a fixed stream, so it is the same
        # on every seed
        sweep = Reservoir(CHECKED_OPS, None)
        run_ops(stream("accuracy", CHECKED_OPS), self.fns, clock() + 10**12, None, tally, sweep)
        result["sweep"] = sweep.items
        result["attempted"], result["failures"] = tally.attempted, dict(tally.failures)
        ops = edge_probe()
        probe_tally, probe = Tally(), Reservoir(len(ops), None)
        run_ops(ops, self.fns, clock() + 10**12, None, probe_tally, probe)
        result["probe"] = {"checked": probe.items, "attempted": probe_tally.attempted,
                           "failures": dict(probe_tally.failures)}
        return result


# ---------------------------------------------------------------------------
# verify-grid: repeated run_suite(VerifyConfig()) on the default grid


class VerifyGrid:
    def __init__(self, rc, seed: int) -> None:
        self.rc = rc
        self.run_suite = rc.run_suite

    def _report(self, run_suite, tally: Tally, suites=("all",)) -> int:
        """One report; returns its nanoseconds.  The verifier must not raise
        or warn, and a whole report must have the expected counts: anything
        else is a wrong report, whose reason starts with ``report``."""
        config = self.rc.VerifyConfig(suites=suites)
        report, error = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = clock()
            try:
                report = run_suite(config)
            except Exception as exc:  # counted as a failed report
                error = type(exc).__name__
            ns = clock() - t0
        if error is None and caught:
            error = "warning:" + caught[0].category.__name__
        if report is not None and suites == ("all",):
            got = (report.n_checks, len(report.violations),
                   len(report.observations), len(report.errors))
            if got != VERIFY_EXPECTED:
                error = "counts"
        tally.add(None if error is None else "report:" + error)
        return ns

    def warm_up(self) -> None:
        self._report(self.run_suite, Tally())

    def _until(self, run_suite, seconds: float, lat: Latencies, tally: Tally,
               suites=("all",)) -> None:
        """Reports until ``seconds`` have passed (at least one), with the
        reference kernel timed around each."""
        deadline = clock() + int(seconds * 1e9)
        lat.reference()
        while True:
            lat.add(self._report(run_suite, tally, suites))
            lat.reference()
            if clock() >= deadline:
                return

    def _probe(self, tally: Tally) -> list:
        """V_q, V_q' and the Kraetzel function at every default-grid point,
        for the accuracy figure."""
        rc = self.rc
        grid = rc.default_grid()
        ops = []
        for q in grid.q_values:
            for x in grid.x_values:
                ops += [("vq", (q, x)), ("vq_prime", (q, x)),
                        ("kratzel_z", (1.0, q + 0.5, 0.5 * x * x))]
        checked = Reservoir(len(ops), None)
        fns = {"vq": rc.vq, "vq_prime": rc.vq_prime, "kratzel_z": rc.kratzel_z}
        run_ops(ops, fns, clock() + 10**12, None, tally, checked)
        return checked.items

    def measure(self, seconds: float, trace: bool) -> dict:
        tally = Tally()
        lat = Latencies(0)
        self._until(self.run_suite, seconds / 2 if trace else seconds, lat, tally)
        result = {"lat": lat.to_json()}
        if trace:
            from tracer import SUITES, Tracer

            tracer = Tracer()
            run_suite = tracer.traced(self.run_suite, "verify.run_suite", "bench.run_suite")
            tracer.install()
            traced = Latencies(0)
            try:
                self._until(run_suite, seconds / 2, traced, tally)
            finally:
                tracer.uninstall()
            suites = {}
            for suite in SUITES:  # each alone, untraced, through the public entry
                one = Latencies(0)
                self._until(self.run_suite, 0.0, one, tally, (suite,))
                suites[suite] = one.scaled_ns() * 1e-9
            result["trace"] = {
                "summary": tracer.summary(),
                "overhead_ratio": (traced.scaled_ns() / traced.n) / (lat.scaled_ns() / lat.n),
                "checks": VERIFY_EXPECTED[0] * traced.n,
                "suites": suites,
            }
        result["checked"], result["sweep"] = [], self._probe(tally)
        result["attempted"], result["failures"] = tally.attempted, dict(tally.failures)
        return result


WORKLOADS = {"verify-grid": VerifyGrid, "eval-mix": EvalMix}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import regcoulomb

    runner = WORKLOADS[args.workload](regcoulomb, args.seed)
    runner.warm_up()
    result = {"setup_s": time.perf_counter() - t0}
    if not args.setup_only:
        result.update(runner.measure(args.seconds, bool(args.trace)))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
