"""Every narrative script in ``demos/`` runs to completion."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_cleanly(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
