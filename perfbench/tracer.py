"""Outside-in tracer: wraps the module-level names each layer of regcoulomb
is called through, without editing the package.

Each wrapper records a span (name, start, end, parent span, tag) and
per-call counts.  Spans stay in memory; :meth:`Tracer.summary` reduces them
when the run ends, working out self time (a span's duration minus the time
its direct child spans cover) from the parent links.  :meth:`Tracer.uninstall`
puts every original back.

Run as a script, it traces one command-line invocation in a fresh
interpreter and writes the summary as JSON::

    python perfbench/tracer.py SUMMARY.json verify --suite all
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name).  A name imported into several modules is
# wrapped in each, because callers resolve it through their own globals.
WRAPPED = (
    ("regcoulomb.potential", "laguerre_escalating", "quadrature.gl"),
    ("regcoulomb.potential", "expsinh_escalating", "quadrature.de"),
    ("regcoulomb.potential", "psi_eval", "special.psi_eval"),
    ("regcoulomb.special", "laguerre_escalating", "quadrature.gl"),
    ("regcoulomb.special", "expsinh_escalating", "quadrature.de"),
    ("regcoulomb.special", "psi_eval", "special.psi_eval"),
    ("regcoulomb.quadrature", "gauss_laguerre", "quadrature.gl_table"),
    ("regcoulomb.bounds", "vq", "potential.vq"),
    ("regcoulomb.bounds", "kratzel_z", "special.kratzel_z"),
    ("regcoulomb.bounds", "vq_lower_kratzel", "bounds.vq_lower_kratzel"),
    ("regcoulomb.verify", "vq", "potential.vq"),
    ("regcoulomb.verify", "vq_prime", "potential.vq_prime"),
    ("regcoulomb.verify", "mills_bounds", "bounds.mills_bounds"),
    ("regcoulomb.verify", "vq_lower_kratzel", "bounds.vq_lower_kratzel"),
    ("regcoulomb.verify", "vq_upper_agm", "bounds.vq_upper_agm"),
    ("regcoulomb.verify", "vq_lower_exp", "bounds.vq_lower_exp"),
    ("regcoulomb.cli", "run_suite", "verify.run_suite"),
    ("regcoulomb.cli", "mills_bounds", "bounds.mills_bounds"),
    ("regcoulomb.cli", "vq_envelope", "bounds.vq_envelope"),
)

# span names whose durations are kept per tag, for latency percentiles
_KEEP_DURATIONS = ("potential.vq",)


def _ladder(node_counts, outcome, cap=None):
    """Levels used and integrand evaluations summed over them, from the
    ladder an engine was given and the ``QuadOutcome`` it returned."""
    counts = tuple(node_counts)
    if cap is not None:
        counts = tuple(n for n in counts if n <= cap) or counts[:1]
    levels = counts.index(outcome.points) + 1 if outcome.converged else len(counts)
    return levels, sum(counts[:levels])


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index, tag]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._gl_cap = None
        self._gl_hits = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every name in :data:`WRAPPED` whose module is loaded."""
        for module_name, attr, span_name in WRAPPED:
            module = sys.modules.get(module_name)
            if module is not None:
                self.wrap(module, attr, span_name, site=f"{module_name.split('.')[-1]}.{attr}")
        quadrature = sys.modules["regcoulomb.quadrature"]
        self._gl_cap = quadrature.GL_NODE_MAX
        self._gl_hits = quadrature.gauss_laguerre.cache_info().hits

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, module, attr: str, name: str, site: str) -> None:
        """Replace ``module.attr`` by a recording wrapper."""
        original = getattr(module, attr)
        setattr(module, attr, self.traced(original, name, site))
        self._saved.append((module, attr, original))

    def traced(self, fn, name: str, site: str):
        """A recording wrapper around ``fn`` that is not installed anywhere;
        the benchmark calls public functions through these."""
        spans, stack, counts = self.spans, self._stack, self.counts
        on_exit = getattr(self, "_exit_" + name.replace(".", "_"), None)
        clock = time.perf_counter_ns
        site_key = "site:" + site

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            counts[site_key] += 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[4] = "error"
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if on_exit is not None:
                on_exit(span, fn, args, out)
            return out

        for extra in ("cache_info", "cache_clear"):
            if hasattr(fn, extra):
                setattr(wrapper, extra, getattr(fn, extra))
        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-engine counts, worked out from what each call returned --------

    def _exit_quadrature_gl(self, span, fn, args, out) -> None:
        levels, nodes = _ladder(args[2], out, self._gl_cap)
        self._engine("quadrature.gl", levels, nodes, out.converged)

    def _exit_quadrature_de(self, span, fn, args, out) -> None:
        levels, nodes = _ladder(args[2], out)
        self._engine("quadrature.de", levels, nodes, out.converged)

    def _engine(self, name: str, levels: int, nodes: int, converged: bool) -> None:
        self.counts[name + ".levels"] += levels
        self.counts[name + ".nodes"] += nodes
        if not converged:
            self.counts[name + ".unconverged"] += 1

    def _exit_quadrature_gl_table(self, span, fn, args, out) -> None:
        hits = fn.cache_info().hits
        if hits != self._gl_hits:
            self.counts["quadrature.gl_table.hits"] += 1
        self._gl_hits = hits

    def _exit_potential_vq(self, span, fn, args, out) -> None:
        span[4] = out.method

    def _exit_special_psi_eval(self, span, fn, args, out) -> None:
        span[4] = out.method

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds, calls and self
        time per tag, and kept durations; plus every count."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, tag in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict = defaultdict(_empty_row)
        for i, (name, start, end, parent, tag) in enumerate(spans):
            dur = end - start
            row = table[name]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child_ns[i]
            if tag is not None:
                t = row["tags"].setdefault(tag, {"calls": 0, "self_ns": 0})
                t["calls"] += 1
                t["self_ns"] += dur - child_ns[i]
                if name in _KEEP_DURATIONS:
                    row["durations"].setdefault(tag, []).append(dur)
        return {"spans": dict(table), "counts": dict(self.counts)}


def _empty_row() -> dict:
    return {"calls": 0, "total_ns": 0, "self_ns": 0, "tags": {}, "durations": {}}


def merge(summaries: list[dict]) -> dict:
    """Combine summaries of several processes or run segments."""
    spans: dict = {}
    counts: Counter = Counter()
    for s in summaries:
        counts.update(s["counts"])
        for name, row in s["spans"].items():
            acc = spans.setdefault(name, _empty_row())
            acc["calls"] += row["calls"]
            acc["total_ns"] += row["total_ns"]
            acc["self_ns"] += row["self_ns"]
            for tag, t in row["tags"].items():
                a = acc["tags"].setdefault(tag, {"calls": 0, "self_ns": 0})
                a["calls"] += t["calls"]
                a["self_ns"] += t["self_ns"]
            for tag, d in row["durations"].items():
                acc["durations"].setdefault(tag, []).extend(d)
    return {"spans": spans, "counts": dict(counts)}


VQ_ROUTES = ("quadrature", "psi-series", "psi-asymptotic", "closed-form", "limit-x0", "convention")
PSI_ROUTES = ("series", "asymptotic", "quadrature-gl", "quadrature-de")
SUITES = ("monotonicity", "convexity", "turan", "logconvexity", "simon", "bounds")
IMPORT_MODULES = (
    "regcoulomb.special", "regcoulomb.potential", "regcoulomb.bounds",
    "scipy.integrate", "scipy.special",
)


def layer_metrics(summary: dict, checks: int) -> dict:
    """Per-layer metric values from a merged summary.  ``checks`` is the
    number of verifier checks run while tracing (0 if none)."""
    spans, counts = summary["spans"], summary["counts"]

    def row(name):
        return spans.get(name) or _empty_row()

    out: dict = {}
    for engine in ("quadrature.de", "quadrature.gl"):
        r = row(engine)
        out[f"{engine}.calls"] = r["calls"]
        out[f"{engine}.self_s"] = r["self_ns"] * 1e-9
        out[f"{engine}.nodes"] = counts.get(f"{engine}.nodes", 0)
        out[f"{engine}.levels_mean"] = (
            counts.get(f"{engine}.levels", 0) / r["calls"] if r["calls"] else 0.0
        )
        out[f"{engine}.unconverged"] = counts.get(f"{engine}.unconverged", 0)
    table = row("quadrature.gl_table")
    out["quadrature.gl_table.hit_ratio"] = (
        counts.get("quadrature.gl_table.hits", 0) / table["calls"] if table["calls"] else 0.0
    )
    out["quadrature.gl_table.self_s"] = table["self_ns"] * 1e-9

    vq = row("potential.vq")
    out["potential.vq.calls"] = vq["calls"]
    for route in VQ_ROUTES:
        durations = vq["durations"].get(route, [])
        out[f"potential.vq.{route}.calls"] = len(durations)
        out[f"potential.vq.{route}.us_p50"] = (
            statistics.median(durations) * 1e-3 if durations else 0.0
        )
    prime = row("potential.vq_prime")
    out["potential.vq_prime.calls"] = prime["calls"]
    out["potential.vq_prime.self_s"] = prime["self_ns"] * 1e-9

    out["verify.vq_calls_per_check"] = counts.get("site:verify.vq", 0) / checks if checks else 0.0

    psi = row("special.psi_eval")
    for route in PSI_ROUTES:
        t = psi["tags"].get(route, {"calls": 0, "self_ns": 0})
        out[f"special.psi_eval.{route}.calls"] = t["calls"]
        out[f"special.psi_eval.{route}.self_s"] = t["self_ns"] * 1e-9
    kz = row("special.kratzel_z")
    out["special.kratzel_z.calls"] = kz["calls"]
    out["special.kratzel_z.self_s"] = kz["self_ns"] * 1e-9
    out["special.kratzel_z.failed"] = kz["tags"].get("error", {"calls": 0})["calls"]
    for name in ("vq_envelope", "mills_bounds", "vq_lower_kratzel"):
        r = row(f"bounds.{name}")
        out[f"bounds.{name}.calls"] = r["calls"]
        out[f"bounds.{name}.self_s"] = r["self_ns"] * 1e-9
    return out


def _trace_cli(out_path: str, argv: list[str]) -> None:
    """Trace one command-line invocation; the summary is written even when
    the command exits with a non-zero code."""
    tracer = Tracer()
    import regcoulomb.cli

    tracer.install()
    try:
        regcoulomb.cli.main(args=argv, prog_name="regcoulomb")
    finally:
        tracer.uninstall()
        Path(out_path).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    _trace_cli(sys.argv[1], sys.argv[2:])
