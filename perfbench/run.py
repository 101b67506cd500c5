#!/usr/bin/env python3
"""branchlab benchmark: one seeded workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extract --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): extract, witness, stages, packing.

Every measurement runs in a fresh interpreter (worker.py), a single
thread running cases in a closed loop: a case starts only after the
previous case and its verifier have finished.  A case whose verifier
rejects it, that raises, or whose output hash differs from the
reference recorded in digests.json for the default seed counts as
failed.

--trace 0 prints the end-to-end metrics: cases_per_s (verified cases
per second of case time), case_ms.p50, case_ms.tail (the highest
per-case percentile up to p99 with at least 10 cases beyond it), setup_s (the
median over seven fresh interpreters of imports plus the first case's
inputs) and peak_rss_mib (peak resident memory once the workload's
reference cases are done).  The times are CPU times scaled to the
reference speed by a calibration loop run beside the cases (see
worker.py), so that a stretch in which other tenants slow the shared
core does not read as a slower program; the unscaled case_ms.p50 and
setup_s go in the record line.

--trace 1 prints per-layer metrics from a traced run (layertrace.py),
then replays the same cases untraced.  <layer>.calls counts calls that
enter the layer from outside it, <layer>.<function>.calls every call of
that function, <layer>.self_s the layer's CPU time less the time of the
layers it calls, and <layer>.share that time over the traced run's.
trees.calls_per_tree divides the calls into trees that pass a tree by
the number of distinct trees passed, and trees.mean_tree_size averages
the trees' member counts over those calls.  The smc cache figures come
from cache_info() at the end of the run.  trace.overhead is the traced
run's CPU time over the replay's, and the replay's per-case hashes must
equal the traced run's.

Standard output ends with a record line (machine, commit, seed, case
count, digest) and then the result as one JSON object.  --record FILE
also appends the record to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
HASH_SEED = 0  # PYTHONHASHSEED of every worker
SETUP_RUNS = 7  # fresh interpreters whose set-up times give the median
TAIL_BEYOND = 10
TAIL_CAP = 99.0
TIME_LIMIT_S = 170.0
LAYER_FUNCTIONS = {
    "colorings": ("successor_strings", "bushy_level_strings"),
    "functionals": ("eval_at", "hat_eval", "output_prefix"),
    "traceable": ("is_terminal", "run_stage"),
}


class BenchError(Exception):
    """A worker failed to report; no result may be printed."""


def run_worker(root: Path, deadline: float, seed: int, *args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its report.

    The interpreter's string hashing has the fixed seed HASH_SEED, so
    set iteration order, and with it the work done, repeats from run to
    run.  It is not drawn from the workload seed: on the same inputs,
    hash seeds alone moved packing's case_ms.p50 by up to 13 %, which would
    count as seed-to-seed spread without being a property of the
    inputs."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before a worker could start")
    env = dict(os.environ, PYTHONHASHSEED=str(HASH_SEED))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), "--seed",
                               str(seed), *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(hashes) -> str:
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


def reference_mismatches(workload: str, seed: int, hashes) -> set[int]:
    """Cases whose hash differs from the recorded reference run."""
    try:
        ref = json.loads(DIGESTS.read_text())[workload]
    except (OSError, KeyError, ValueError):
        return set()
    if ref["seed"] != seed:
        return set()
    want = ref["per_case"]
    return {k for k, (a, b) in enumerate(zip(want, hashes)) if a != b}


def tail(values_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, cases beyond) of the highest percentile with
    at least TAIL_BEYOND cases beyond it, capped at TAIL_CAP; the
    maximum for short runs.

    The cap matters only past 100 * TAIL_BEYOND cases, which only
    extract reaches.  Beyond p99 its 0.8 ms cases time the machine's
    hiccups rather than the program: on a shared 2-core machine its
    p99.97 spread 17 % between seeds where its p99 spread 3 %."""
    xs = sorted(values_ms)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = min(n - TAIL_BEYOND, math.ceil(n * TAIL_CAP / 100)) - 1
    return xs[rank], 100.0 * (rank + 1) / n, n - rank - 1


def end_to_end(root, args, deadline):
    setups = [run_worker(root, deadline, args.seed, "--workload",
                         args.workload, "--setup-only")
              for _ in range(SETUP_RUNS - 1)]
    res = run_worker(root, deadline, args.seed, "--workload", args.workload,
                     "--seconds", str(args.seconds))
    setups.append(res)
    times_ms = [t * 1000.0 for t in res["case_scaled_s"]]
    tail_ms, tail_pct, beyond = tail(times_ms)
    metrics = {
        "cases_per_s": (len(times_ms) / sum(res["case_scaled_s"]), "1/s"),
        "case_ms.p50": (statistics.median(times_ms), "ms"),
        "case_ms.tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(s["setup_scaled_s"] for s in setups),
                    "s"),
        "peak_rss_mib": (res["peak_rss_kib"] / 1024.0, "MiB"),
    }
    notes = {"tail_percentile": round(tail_pct, 2), "tail_beyond": beyond,
             "setup_runs_s": [s["setup_s"] for s in setups],
             "unscaled_case_ms_p50": 1000.0 * statistics.median(res["case_s"]),
             "unscaled_setup_s": statistics.median(s["setup_s"]
                                                   for s in setups),
             "caches": res["caches"]}
    return res, set(), metrics, notes


def per_layer(root, args, deadline):
    out = root / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
    res = run_worker(root, deadline, args.seed, "--workload", args.workload,
                     "--seconds", str(args.seconds), "--trace",
                     "--spans", str(spans))
    plain = run_worker(root, deadline, args.seed, "--workload", args.workload,
                       "--cases", str(len(res["case_s"])))
    differ = {k for k, (a, b) in enumerate(zip(res["case_hashes"],
                                                plain["case_hashes"]))
              if a != b}
    tr = res["trace"]
    total = tr["traced_s"]
    calls, self_s, fn = tr["layer_calls"], tr["self_s"], tr["fn_calls"]
    metrics = {}
    for layer in LAYERS:
        busy = self_s.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = (busy, "s")
        if layer == "gen":
            continue
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.share"] = (busy / total, "ratio")
        for name in LAYER_FUNCTIONS.get(layer, ()):
            metrics[f"{layer}.{name}.calls"] = (fn.get(f"{layer}.{name}", 0),
                                                "count")
    metrics["trees.calls_per_tree"] = (
        tr["tree_calls"] / max(1, tr["distinct_trees"]), "calls/tree")
    metrics["trees.mean_tree_size"] = (
        tr["tree_members"] / max(1, tr["tree_calls"]), "members")
    for name in ("t_of", "omega_level"):
        c = res["caches"][name]
        looked = c["hits"] + c["misses"]
        metrics[f"smc.{name}.hit_ratio"] = (c["hits"] / looked if looked
                                            else 0.0, "ratio")
    metrics["smc.t_of.entries"] = (res["caches"]["t_of"]["entries"], "count")
    metrics["trace.overhead"] = (res["loop_s"] / plain["loop_s"], "ratio")
    notes = {"untraced_digest": digest_of(plain["case_hashes"]),
             "spans_file": str(spans.relative_to(root)),
             "spans_kept": tr["spans_kept"],
             "spans_dropped": tr["spans_dropped"],
             "distinct_trees": tr["distinct_trees"]}
    return res, differ, metrics, notes


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("extract", "witness", "stages", "packing"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="append the record line to this file")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "branchlab" / "__init__.py").is_file():
        print(f"no branchlab sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        res, bad, metrics, notes = measure(root, args, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    hashes = res["case_hashes"]
    bad |= set(res["failed_cases"])
    bad |= reference_mismatches(args.workload, args.seed, hashes)
    attempted = len(hashes)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:14.6g} {unit}")
    print(f"{args.workload:8s} {'fail_ratio':36s} "
          f"{len(bad) / attempted:14.6g} ({len(bad)}/{attempted})")
    for err in res["errors"]:
        print(f"{args.workload:8s} failed {err}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cases": attempted, "failed": len(bad),
        "fail_ratio": len(bad) / attempted, "digest": digest_of(hashes),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "commit": _commit(root),
        "src_sha256": _source_digest(root),
        "metrics": {k: v for k, (v, _) in metrics.items()}, **notes,
    }
    print(json.dumps({"record": record}))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": not bad, "attempted": attempted, "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
