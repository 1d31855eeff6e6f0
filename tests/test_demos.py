"""Each demo script runs to completion with every warning made an error."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_warnings(demo):
    out = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
