#!/usr/bin/env python3
"""Record the end-to-end timings of a checkout in one BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 scripts/bench.py --out BENCH_15.json
    python3 scripts/bench.py --out /tmp/bench.json --dry-run

The file records:

- tier1: the wall time, exit status and passed and failed counts of
  one run of the tier-1 tests (`python -m pytest -q
  --continue-on-collection-errors` with src on the path);
- acceptance: the wall time and exit status of one run of
  tests/test_acceptance.py, and the call time of each criterion as
  pytest's `--durations` reports it;
- commands: the wall time (median of three runs), exit status and
  stdout sha256 of `suite fast`, `suite full --seed 0` and `run
  traceable --horizon 12/14/16`, each in a fresh interpreter;
- perfbench: for each workload, the median of every end-to-end metric
  over three 8-second runs of `perfbench/run.py --trace 0`, on seeds 0,
  1 and 2, with the failed and attempted case counts summed;
- the line count of src/branchlab/*.py, and its code lines: those
  neither blank, a comment nor in a docstring, which packing a loop
  onto one line moves but deleting a docstring does not;
- the CPU count, the Python version, and HEAD with whether tracked
  files had changes (null and true outside a git work tree).

Every Python subprocess runs with src on the path and its bytecode
cache (PYTHONPYCACHEPREFIX) in a fresh temporary directory, so each
one compiles what it imports and a stale __pycache__ in the checkout
cannot move a timing.

--dry-run skips perfbench and records null in its place.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 3
REPEAT = 3  # runs of each command
SEEDS = (0, 1, 2)  # one perfbench run per seed and workload
SECONDS = 8  # per perfbench run
WORKLOADS = ("extract", "witness", "stages", "packing")
TIER1 = ("-q", "--continue-on-collection-errors")
ACCEPTANCE = ("tests/test_acceptance.py",)
COMMANDS = (
    ("suite", "fast"),
    ("suite", "full", "--seed", "0"),
    ("run", "traceable", "--horizon", "12"),
    ("run", "traceable", "--horizon", "14"),
    ("run", "traceable", "--horizon", "16"),
)


@contextmanager
def _env():
    """The environment of one Python subprocess, with an empty bytecode
    cache that goes when the block ends."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        yield env


def _git(*args: str):
    """git's stdout, or None outside a work tree."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _pytest(args: tuple[str, ...]) -> tuple[dict, str]:
    """One pytest run in a fresh interpreter: its wall time, exit
    status and passed and failed counts, and its stdout."""
    with _env() as env:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-p",
                               "no:cacheprovider", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    counts = re.findall(r"(\d+) (passed|failed|errors?)\b", summary)
    passed = sum(int(n) for n, kind in counts if kind == "passed")
    return {"wall_s": round(wall, 3), "exit": proc.returncode,
            "passed": passed,
            "failed": sum(int(n) for n, _ in counts) - passed}, proc.stdout


def tier1() -> dict:
    return _pytest(TIER1)[0]


def acceptance() -> dict:
    """The acceptance run, with each test's call time in seconds."""
    row, out = _pytest((*ACCEPTANCE, "-q", "--durations=0",
                        "--durations-min=0"))
    row["durations"] = {name: float(secs) for secs, name in re.findall(
        r"^([\d.]+)s call\s+\S+::(\S+)$", out, re.M)}
    return row


def time_command(argv: tuple[str, ...]) -> dict:
    """Median wall time of `branchlab <argv>`, with its exit status and
    the sha256 of its stdout, which every run must repeat."""
    walls, outs, codes = [], set(), set()
    for _ in range(REPEAT):
        with _env() as env:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "branchlab.cli",
                                   *argv], cwd=ROOT, env=env,
                                  capture_output=True)
            walls.append(time.perf_counter() - t0)
        outs.add(hashlib.sha256(proc.stdout).hexdigest())
        codes.add(proc.returncode)
    if len(outs) != 1 or len(codes) != 1:
        raise SystemExit(f"{' '.join(argv)}: runs disagree")
    return {"wall_s": round(statistics.median(walls), 3),
            "exit": codes.pop(), "sha256": outs.pop()}


def perfbench(workload: str) -> dict:
    """Median end-to-end metrics of perfbench runs of one workload."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for seed in SEEDS:
        with _env() as env:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS),
                 "--trace", "0"],
                cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench {workload} seed {seed}: "
                             f"{proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {"runs": len(SEEDS), "failed": failed, "attempted": attempted,
            "metrics": {name: {"median": statistics.median(v),
                               "unit": units[name], "values": v}
                        for name, v in values.items()}}


def _sources() -> list[str]:
    return [p.read_text()
            for p in sorted((ROOT / "src" / "branchlab").glob("*.py"))]


def src_lines() -> int:
    return sum(len(text.splitlines()) for text in _sources())


def src_code_lines() -> int:
    """The non-blank lines of src/branchlab/*.py that are neither a
    comment nor in a docstring, which the AST locates."""
    total = 0
    for text in _sources():
        doc = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                doc.update(range(node.body[0].lineno,
                                 node.body[0].end_lineno + 1))
        total += sum(1 for k, line in enumerate(text.splitlines(), 1)
                     if line.strip() and not line.lstrip().startswith("#")
                     and k not in doc)
    return total


def collect(dry_run: bool) -> dict:
    return {
        "schema": SCHEMA,
        "head": _git("rev-parse", "HEAD"),
        "dirty": _git("status", "--porcelain", "--untracked-files=no") != "",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines(),
        "src_code_lines": src_code_lines(),
        "tier1": tier1(),
        "acceptance": acceptance(),
        "commands": {" ".join(argv): time_command(argv) for argv in COMMANDS},
        "perfbench": None if dry_run else {
            "seconds": SECONDS, "seeds": list(SEEDS),
            "workloads": {w: perfbench(w) for w in WORKLOADS}},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--dry-run", action="store_true",
                    help="skip perfbench")
    args = ap.parse_args(argv)
    record = collect(args.dry_run)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
