"""The perfbench suite passes when run alone.

Tier-1 collects ``tests`` and ``perfbench`` in one process, and the tests
under ``tests`` import every package module first.  A perfbench test that
passes only because some module is already imported would stay green there
and fail when ``python -m pytest perfbench`` runs on its own, so this runs it
so, in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes_alone():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
