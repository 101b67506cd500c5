"""One benchmark process: set up a workload, run its cases, report JSON.

run.py starts this file in a fresh interpreter for every measurement,
so the library's process-lifetime caches start cold, as they do for a
command-line user.  It must be started from the root of a checkout; it
imports the library from ``src/`` there and nowhere else.

Cases run one after another in this single thread, each only after the
previous case and its verifier have finished.  Inputs are generated
just before their case, off the case clock.  A timed run generates and
runs cases until it has spent the requested seconds, and at least
until the workload's reference cases are done.  Set-up time runs from
the top of this file to the start of the first case: the library
imports plus the first case's inputs.

Times are this process's CPU time (time.process_time).  The library is
single-threaded and does no I/O, so on an idle machine that equals the
wall time a user waits; on a shared machine it leaves out the time
other tenants hold the CPU.  A timed run stops once the requested
seconds of wall time have passed since the first case began.

On a shared host the same CPU work can take up to twice as long in one
stretch of seconds as in the next, because other tenants contend for
the core, its caches and memory.  The worker therefore also runs a fixed
calibration loop (``calibrate``) before the first case and after every
CAL_EVERY_S of case time.  Each case is also reported scaled to the
reference speed: its CPU time times CAL_REF_S over the mean of the two
calibration times around it.  CAL_REF_S is the loop's median CPU time
on the machine the baseline was recorded on, so there the scaled times
read as milliseconds at that machine's usual speed.  Set-up time is
scaled the same way, by calibrations run right after it.

The peak resident set size is read when the workload's reference cases
are done, so it measures a fixed amount of work however fast the run.

The last line of standard output is a JSON object with the raw
measurements; run.py turns it into metrics.
"""

import time

T_START = time.process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_ERRORS_KEPT = 3
CAL_ITEMS = 6000  # size of the calibration loop's fixed work
CAL_EVERY_S = 0.1  # case time between two calibrations
CAL_SHARE = 0.05  # calibration time per unit of case time, at least
CAL_REF_S = 0.008  # calibrate()'s median CPU time on the baseline machine
SETUP_CALS = 3  # calibrations after set-up; their median scales it
clock = time.process_time


def calibrate() -> float:
    """CPU time of a fixed piece of pure-Python work much like the
    library's: binary strings, set and dict traffic.  The work never
    changes, so its time tracks only the machine's current speed."""
    t0 = clock()
    seen, heads = set(), {}
    for i in range(CAL_ITEMS):
        x = format(i * 2654435761 % 1000003, "b")
        seen.add(x)
        heads[x[:6]] = heads.get(x[:6], 0) + 1
    return clock() - t0


def case_hash(k: int, output: str) -> str:
    return hashlib.sha256(f"{k}\t{output}".encode()).hexdigest()[:16]


def _import_library(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import branchlab
    where = Path(branchlab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"branchlab came from {where}, not from {src}")


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cache_info(fn) -> dict:
    info = fn.cache_info()
    return {"hits": info.hits, "misses": info.misses,
            "entries": info.currsize}


def _scale_segment(times, scaled, cal_before):
    """Scale the cases run since the last calibration by the mean of
    the calibrations before and after them, and return the one after
    along with the CPU time the calibrations took.

    The one after averages enough runs of the loop to take about
    CAL_SHARE of the segment's case time, so that a long case is
    scaled by the machine's speed over more than a moment."""
    segment = times[len(scaled):]
    runs = max(1, round(CAL_SHARE * sum(segment) / CAL_REF_S))
    t0 = clock()
    cal_after = sum(calibrate() for _ in range(runs)) / runs
    factor = 2 * CAL_REF_S / (cal_before + cal_after)
    scaled.extend(t * factor for t in segment)
    return cal_after, clock() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cases", type=int, default=0,
                    help="run exactly this many cases instead of timing")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the spans")
    args = ap.parse_args(argv)

    root = Path.cwd()
    _import_library(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer(extra_namespaces=(workloads,))
        tracer.install()
    traced_from = clock()
    first = wl.inputs(args.seed, 0)
    setup_s = clock() - T_START
    setup_cal = sorted(calibrate() for _ in range(SETUP_CALS))
    setup_scaled_s = setup_s * CAL_REF_S / setup_cal[SETUP_CALS // 2]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "setup_scaled_s": setup_scaled_s}))
        return 0

    times: list[float] = []
    scaled: list[float] = []
    hashes: list[str] = []
    failed: list[int] = []
    errors: list[str] = []
    k = 0
    ref_rss_kib = None
    cal_before, cal_total = calibrate(), 0.0
    loop_start = clock()
    wall_stop = time.monotonic() + args.seconds
    segment_s = 0.0  # case time since cal_before
    while True:
        if args.cases:
            if k >= args.cases:
                break
        elif time.monotonic() >= wall_stop and k >= wl.ref_cases:
            break
        inputs = first if k == 0 else wl.inputs(args.seed, k)
        if tracer is not None:
            tracer.case = k
        t0 = clock()
        try:
            ok, output = wl.run(inputs)
        except Exception as e:  # a raising case is a failed case
            ok, output = False, f"error {type(e).__name__}: {e}"
        took = clock() - t0
        times.append(took)
        hashes.append(case_hash(k, output))
        if not ok:
            failed.append(k)
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(f"case {k}: {output[:200]}")
        k += 1
        if k == wl.ref_cases:
            ref_rss_kib = _peak_rss_kib()
        segment_s += took
        if segment_s >= CAL_EVERY_S:
            cal_before, spent = _scale_segment(times, scaled, cal_before)
            cal_total += spent
            segment_s = 0.0
    if len(scaled) < len(times):
        cal_total += _scale_segment(times, scaled, cal_before)[1]
    loop_s = clock() - loop_start - cal_total

    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "case_s": times,
        "case_scaled_s": scaled,
        "case_hashes": hashes,
        "failed_cases": failed,
        "errors": errors,
        "loop_s": loop_s,
        "peak_rss_kib": ref_rss_kib or _peak_rss_kib(),
    }
    if tracer is not None:
        traced_s = clock() - traced_from
        tracer.restore()
        result["trace"] = _trace_summary(tracer, traced_s)
        if args.spans:
            tracer.write_spans(args.spans)
    from branchlab import smc
    result["caches"] = {"t_of": _cache_info(smc.t_of),
                        "omega_level": _cache_info(smc.omega_level)}
    print(json.dumps(result))
    return 0


def _trace_summary(tracer, traced_s: float) -> dict:
    return {
        "traced_s": traced_s,
        "layer_calls": dict(tracer.layer_calls),
        "self_s": dict(tracer.self_s),
        "fn_calls": {f"{layer}.{name}": cell[0]
                     for (layer, name), cell in tracer.fn_calls.items()
                     if cell[0]},
        "distinct_trees": len(tracer.tree_hashes),
        "tree_calls": tracer.tree_calls,
        "tree_members": tracer.tree_members,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
    }


if __name__ == "__main__":
    sys.exit(main())
