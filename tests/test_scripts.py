"""Smoke tests: each example script runs to the end and prints what it
printed when it was written."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("script, args, line", [
    ("stage_walkthrough.py", ["--horizon", "4"],
     "  C(1,0): 1 value(s) [9], size ceiling 4"),
    ("stage_walkthrough.py", ["--horizon", "4", "--tables", "0"],
     "stage 4: frontier 16 (0000 0001 0010 0011 0100 0101 ...)"),
    ("packing_demo.py", [], "budget sequence r = ('1',)"),
])
def test_script_runs_and_prints_its_pinned_line(script, args, line):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
