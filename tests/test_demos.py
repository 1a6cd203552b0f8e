"""Each demo prints exactly its pinned output, tests/data/demo-<name>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_pin(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    pin = ROOT / "tests" / "data" / f"demo-{demo.stem.replace('_', '-')}.txt"
    assert run.stdout == pin.read_bytes()
