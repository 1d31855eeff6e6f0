"""The runtime needs NumPy and click only, and the benchmark's tracer still
installs against the library."""
import subprocess
import sys
from pathlib import Path

import regcoulomb.cli  # noqa: F401  (the tracer wraps names in every layer)

ROOT = Path(__file__).resolve().parent.parent


def test_every_route_runs_with_scipy_blocked():
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from regcoulomb import VerifyConfig, kratzel_z, psi_eval, run_suite, vq_via_psi\n"
        "import regcoulomb.cli\n"
        "assert psi_eval(1.5, 2.0, 1.0).method == 'quadrature'\n"
        "assert vq_via_psi(0.2067, 1.4602).method == 'quadrature'\n"
        "assert kratzel_z(0.5, 2.0, 1.3) > 0.0\n"
        "assert kratzel_z(1.0, 59.2, 1.1e-12) > 1e78\n"
        "report = run_suite(VerifyConfig())\n"
        "assert report.n_checks == 55181 and not (report.violations or report.errors)\n"
        "for args in (['figure', '--precision', '17'], ['envelope', '--q', '1', '--precision', '17']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            regcoulomb.cli.main(args)\n"
        "        except SystemExit as stop:\n"
        "            assert not stop.code, (args, stop.code)\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_the_benchmark_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import regcoulomb.special as special

    original = special.psi_eval
    t = tracer.Tracer()
    t.install()
    try:
        assert special.psi_eval is not original
        special.psi_eval(1.5, 2.0, 1.0)
    finally:
        t.uninstall()
    assert special.psi_eval is original
    tags = t.summary()["spans"]["special.psi_eval"]["tags"]
    assert list(tags) == ["quadrature"] and tags["quadrature"]["calls"] == 1
