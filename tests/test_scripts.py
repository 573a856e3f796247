"""Smoke test of ``scripts/same_decisions.py``, the check that an engine
change keeps the chain's decisions."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_decisions_against_itself_is_identical_at_every_shape():
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_decisions.py"), src],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    shapes = [line.split() for line in run.stdout.splitlines()[1:4]]
    assert [row[2] for row in shapes] == ["yes"] * 3, run.stdout
