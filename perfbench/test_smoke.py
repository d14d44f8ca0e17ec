"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path


def test_every_workload_emits_every_metric_with_its_unit():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
