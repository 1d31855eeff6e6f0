"""regcoulomb benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Run from the repository root (any checkout holding ``src/regcoulomb``).
Workloads:

* ``verify-grid``: repeated ``run_suite(VerifyConfig())`` on the default
  grid (9 orders x 60 abscissas) after one warm-up report.
* ``eval-mix``: a seeded stream of scalar public calls at scattered points,
  warmed up on a stream of a different seed.
* ``cli-cold``: a fresh interpreter per command-line invocation
  (``import regcoulomb``, ``verify --suite all``, ``figure``,
  ``envelope --q 1``), one after another.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics from a traced run, including
the tracing overhead.  End-to-end times are scaled to a reference machine
speed by a kernel timed around each timed window (``speed.py``).  Lines
starting with ``#`` give the environment and the workload's own names for
its raw wall-clock figures; the last line of standard output is the JSON
result.  A run whose outputs are wrong exits with code 1; a
checkout without the package exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
PY = sys.executable

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# before NumPy is first loaded, so that the reference kernel timed in this
# process runs under the same pinning as the children, which inherit it
os.environ.update(THREAD_ENV)

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from tracer import IMPORT_MODULES, SUITES, layer_metrics, merge  # noqa: E402

# fresh interpreters whose set-up is measured; the median is reported
SETUP_REPEATS = 5
CHECKS_PER_REPORT = 55181
# failure reasons (up to the first colon) that mean a wrong answer, not a
# refused one
WRONG = ("reference", "nonfinite", "report")
# a single process may run no longer than this
CHILD_TIMEOUT_S = 120

PRELUDE = "import sys; sys.path.insert(0, 'src'); "
CLI_MAIN = PRELUDE + "from regcoulomb.cli import main; main()"
CLI_ARGS = {
    "import": None,
    "verify": ["verify", "--suite", "all"],
    "figure": ["figure", "--precision", "17"],
    "envelope": ["envelope", "--q", "1", "--precision", "17"],
}
VERIFY_SUMMARY = f"checks: {CHECKS_PER_REPORT}  violations: 0  observations: 481  errors: 0"
FIGURE_ROWS, ENVELOPE_ROWS = 231, 25


def run_child(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run a fresh interpreter in the checkout; returns it and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - t0


class Children:
    """Runs fresh interpreters one after another, timing the reference
    kernel between each two."""

    def __init__(self) -> None:
        self.ref_s = [speed.reference_s()]

    def run(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """The child and its wall time."""
        proc, wall = run_child(cmd)
        self.ref_s.append(speed.reference_s())
        return proc, wall


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Failures(dict):
    """Operations failed, by reason."""

    def add(self, reason: str, count: int = 1) -> None:
        self[reason] = self.get(reason, 0) + count

    def move(self, old: str, new: str) -> None:
        """Count one operation that failed for ``old`` as failed for ``new``."""
        self[old] -= 1
        if not self[old]:
            del self[old]
        self.add(new)

    def wrong(self) -> bool:
        """Whether an operation gave a wrong answer, not a refused one."""
        return any(reason.split(":")[0] in WRONG for reason in self)


class Outcome:
    """Everything a workload measured, before it is reduced to metrics."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.ops_per_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures = Failures()
        # eval-mix's edge probe, counted apart from the measured operations
        self.probe_attempted = 0
        self.probe_failures = Failures()
        self.max_rel_err = 0.0
        self.err_over_est_max = 0.0
        self.trace: dict | None = None
        self.named: dict[str, tuple[float, str]] = {}
        self.samples: dict = {}  # raw timings, kept in the run's record

    @property
    def correct(self) -> bool:
        return not (self.failures.wrong() or self.probe_failures.wrong())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def compare(self, kind: str, args: list, got: list, est: float | None,
                figure: bool) -> bool:
        """Compare one returned output with its mpmath reference; True when
        it is within the oracle's tolerance.  Outputs of fixed inputs
        (``figure``) also set the accuracy figures."""
        import oracle

        want = oracle.reference(kind, args)
        err = oracle.rel_err(got, want)
        if figure:
            self.max_rel_err = max(self.max_rel_err, err)
            if est:
                self.err_over_est_max = max(self.err_over_est_max,
                                            abs(got[0] - want[0]) / est)
        return err <= oracle.REL_TOL


# ---------------------------------------------------------------------------
# in-process workloads


def worker(children: Children, workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool) -> dict:
    cmd = [PY, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc, _ = children.run(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_in_process(workload: str, seed: int, seconds: float, trace: int) -> Outcome:
    out = Outcome()
    children = Children()
    setup_s = [] if trace else [worker(children, workload, seed, seconds, 0, True)["setup_s"]
                                for _ in range(SETUP_REPEATS - 1)]
    res = worker(children, workload, seed, seconds, trace, False)
    setup_s.append(res["setup_s"])
    lat = res["lat"]
    # every time of the run is scaled by one factor from all its kernel timings
    scale = speed.scale(children.ref_s + lat["ref_s"])
    out.setup_s = [t * scale for t in setup_s]
    out.rss_mb = res["rss_mb"]
    work = CHECKS_PER_REPORT if workload == "verify-grid" else 1
    wall_per_s = work * lat["n"] / (lat["total_ns"] * 1e-9)
    out.ops_per_s = wall_per_s / scale
    out.samples = {"setup_s": setup_s, "ops": lat["n"], "total_ns": lat["total_ns"],
                   "scale": scale}
    out.attempted = res["attempted"]
    out.failures.update(res["failures"])
    probe = res.get("probe", {"checked": [], "attempted": 0, "failures": {}})
    out.probe_attempted = probe["attempted"]
    out.probe_failures.update(probe["failures"])
    # the oracle runs after the worker has exited: outside timing and set-up.
    # An output that warned was counted failed already; a wrong value moves
    # it to the wrong answers.
    for checked, figure, failures in ((res["checked"], False, out.failures),
                                      (res["sweep"], True, out.failures),
                                      (probe["checked"], False, out.probe_failures)):
        for kind, args, got, est, reason in checked:
            if out.compare(kind, args, got, est, figure):
                continue
            if reason is None:
                failures.add("reference")
            else:
                failures.move(reason, "reference")
    out.trace = res.get("trace")

    if workload == "verify-grid":
        out.named["checks_per_s"] = (wall_per_s, "1/s")
    else:
        lat_us = [ns * 1e-3 for ns in lat["sample_ns"]]
        out.named["evals_per_s"] = (wall_per_s, "1/s")
        out.named["eval_us_p50"] = (statistics.median(lat_us), "us")
        out.named["eval_us_p99"] = (percentile(lat_us, 99), "us")
    return out


# ---------------------------------------------------------------------------
# cli-cold


def cli_command(kind: str, trace_file: Path | None) -> list[str]:
    args = CLI_ARGS[kind]
    if args is None:
        return [PY, "-c", PRELUDE + "import regcoulomb"]
    if trace_file is not None:
        return [PY, str(HERE / "tracer.py"), str(trace_file), *args]
    return [PY, "-c", CLI_MAIN, *args]


def parse_csv(text: str, header: str, rows: int) -> list[list[float | None]] | None:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header or len(lines) != rows + 1:
        return None
    try:
        return [[float(c) if c else None for c in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None


def check_cli(out: Outcome, kind: str, proc: subprocess.CompletedProcess) -> None:
    """Failure accounting for one invocation; value checks use mpmath."""
    if kind == "verify" and VERIFY_SUMMARY not in proc.stdout:
        out.failures.add("report")
        return
    if proc.returncode != 0:
        out.failures.add(f"exit:{proc.returncode}")
        return
    if proc.stderr:
        out.failures.add("stderr")
        return
    if kind == "figure":
        table = parse_csv(proc.stdout, "x,f1,f2,f3,f4,f5,m", FIGURE_ROWS)
        kind_ref = "mills_bounds"
    elif kind == "envelope":
        table = parse_csv(proc.stdout, "x,lower_exp,lower_kratzel,vq,upper_agm", ENVELOPE_ROWS)
        kind_ref = "vq_envelope"
    else:
        return
    if table is None:
        out.failures.add("report")
        return
    ok = [out.compare(kind_ref, [row[0]] if kind == "figure" else [1.0, row[0]], row[1:], None,
                      True)
          for row in table]
    if not all(ok):
        out.failures.add("reference")


def run_cli_cold(seed: int, seconds: float, trace: int) -> Outcome:
    out = Outcome()
    rnd = random.Random(seed)
    children = Children()
    if not trace:
        for _ in range(SETUP_REPEATS):
            # a priming import leaves the package compiled and in the page cache
            proc, wall = children.run([PY, "-c", PRELUDE + "import regcoulomb.cli"])
            if proc.returncode != 0:
                raise RuntimeError(f"priming import failed:\n{proc.stderr[-2000:]}")
            out.setup_s.append(wall)

    walls: dict[str, list[float]] = {kind: [] for kind in CLI_ARGS}
    done: list[tuple[str, subprocess.CompletedProcess]] = []
    round_s: dict[bool, list[float]] = {False: [], True: []}
    traced_verify_runs = 0
    summaries: list[dict] = []
    tmp = Path(tempfile.mkdtemp(prefix="cli-trace-", dir=OUT_DIR))
    # kernel timings up to each half's end, to scale the halves separately
    ref_end: dict[bool, int] = {}
    try:
        for traced in ((False, True) if trace else (False,)):
            deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
            while True:
                order = list(CLI_ARGS)
                rnd.shuffle(order)
                total = 0.0
                for kind in order:
                    trace_file = tmp / f"{len(done)}.json" if traced and CLI_ARGS[kind] else None
                    proc, wall = children.run(cli_command(kind, trace_file))
                    total += wall
                    done.append((kind, proc))
                    if not traced:
                        walls[kind].append(wall)
                    if trace_file is not None and trace_file.exists():
                        summaries.append(json.loads(trace_file.read_text()))
                        traced_verify_runs += kind == "verify"
                round_s[traced].append(total)
                if time.perf_counter() >= deadline:
                    ref_end[traced] = len(children.ref_s)
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    medians = {kind: statistics.median(w) for kind, w in walls.items()}
    scale = speed.scale(children.ref_s)
    out.samples = {"walls": walls, "setup_s": out.setup_s, "scale": scale}
    out.setup_s = [t * scale for t in out.setup_s]
    # invocations per second over one round at each command's mean time
    out.ops_per_s = len(walls) / (scale * sum(statistics.mean(w) for w in walls.values()))
    out.rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for kind, proc in done:
        out.attempted += 1
        check_cli(out, kind, proc)

    out.named["import_s"] = (medians["import"], "s")
    out.named["cli_verify_s"] = (medians["verify"], "s")
    out.named["cli_table_s"] = (statistics.median(walls["figure"] + walls["envelope"]), "s")
    if trace:
        out.trace = {
            "summary": merge(summaries),
            "overhead_ratio": (
                statistics.mean(round_s[True]) * speed.scale(children.ref_s[ref_end[False] - 1:])
                / (statistics.mean(round_s[False])
                   * speed.scale(children.ref_s[:ref_end[False]]))),
            "checks": CHECKS_PER_REPORT * traced_verify_runs,
            "suites": {},
        }
    return out


# ---------------------------------------------------------------------------
# metrics


def import_breakdown(repeats: int = 3) -> dict[str, float]:
    """Cumulative import seconds of selected modules, from ``-X importtime``
    in fresh interpreters (median of ``repeats``)."""
    seen: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc, _ = run_child([PY, "-X", "importtime", "-c", PRELUDE + "import regcoulomb.cli"])
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {m: statistics.median(v) if v else 0.0 for m, v in seen.items()}


def end_to_end(out: Outcome) -> dict[str, float]:
    return {
        "setup_s": statistics.median(out.setup_s),
        "ops_per_s": out.ops_per_s,
        "peak_rss_mb": out.rss_mb,
        "max_rel_err": out.max_rel_err,
    }


def per_layer(out: Outcome) -> dict[str, float]:
    trace = out.trace
    metrics = layer_metrics(trace["summary"], trace["checks"])
    metrics["potential.err_over_est_max"] = out.err_over_est_max
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = trace["suites"].get(suite, 0.0)
    for module, secs in import_breakdown().items():
        metrics[f"cli.import.{module}_s"] = secs
    for name in ("import_s", "cli_verify_s", "cli_table_s"):
        metrics["cli.cmd." + name.removeprefix("cli_")] = out.named.get(name, (0.0,))[0]
    metrics["trace.overhead_ratio"] = trace["overhead_ratio"]
    metrics["fail_ratio"] = out.failed / out.attempted
    metrics["eval.edge_probe.failed"] = sum(out.probe_failures.values())
    return metrics


def fingerprint(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        **{m: importlib.metadata.version(m) for m in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "threads": THREAD_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="regcoulomb benchmark")
    parser.add_argument("--workload", choices=("verify-grid", "eval-mix", "cli-cold"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "regcoulomb" / "__init__.py").is_file():
        print(f"error: no regcoulomb package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload == "cli-cold":
        out = run_cli_cold(args.seed, args.seconds, args.trace)
    else:
        out = run_in_process(args.workload, args.seed, args.seconds, args.trace)

    values = per_layer(out) if args.trace else end_to_end(out)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = out.correct
    env = fingerprint(args.seed)

    print(f"# regcoulomb benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env))
    for name, (value, unit) in out.named.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_ratio = {out.failed}/{out.attempted} {json.dumps(out.failures)}")
    if out.probe_attempted:
        print(f"# edge_probe failed = {sum(out.probe_failures.values())}/{out.probe_attempted}"
              f" {json.dumps(out.probe_failures)}")
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "named": out.named, "failures": out.failures,
                                  "probe_failures": out.probe_failures,
                                  "samples": out.samples, "trace": out.trace, **result}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
