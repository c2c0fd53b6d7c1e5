"""The demo scripts run to completion against the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name: str, *args: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_demo_fund_runs():
    _run_demo("demo_fund.py")


def test_demo_cross_function_runs(tmp_path):
    dot = tmp_path / "cross_function.dot"
    _run_demo("demo_cross_function.py", str(dot))
    assert dot.read_text().startswith("digraph")
