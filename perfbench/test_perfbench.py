"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import branchlab.colorings  # noqa: E402
import branchlab.smc  # noqa: E402
import branchlab.trees  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
import worker  # noqa: E402
from worker import case_hash  # noqa: E402

REFERENCE = json.loads(run.DIGESTS.read_text())
# cases that cover each workload's mix of case kinds and stay cheap
SAMPLE = {"extract": 20, "witness": 2, "stages": 6, "packing": 4}


def _outputs(name, seed, cases, tracer=None):
    wl = workloads.WORKLOADS[name]
    hashes = []
    for k in range(cases):
        inputs = wl.inputs(seed, k)
        if tracer is not None:
            tracer.case = k
        ok, out = wl.run(inputs)
        assert ok, f"{name} case {k}: {out}"
        hashes.append(case_hash(k, out))
    return hashes


def _traced(name, cases):
    tracer = Tracer(extra_namespaces=(workloads,))
    with tracer:
        hashes = _outputs(name, run.DEFAULT_SEED, cases, tracer)
    return tracer, hashes


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_seed_reproduces_inputs_and_reference_digest(name):
    wl = workloads.WORKLOADS[name]
    cases = range(SAMPLE[name])
    assert [wl.inputs(7, k) for k in cases] == [wl.inputs(7, k) for k in cases]
    ref = REFERENCE[name]
    assert ref["seed"] == run.DEFAULT_SEED
    assert run.digest_of(ref["per_case"]) == ref["sha256"]
    got = _outputs(name, run.DEFAULT_SEED, SAMPLE[name])
    assert got == ref["per_case"][:SAMPLE[name]]


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_another_seed_changes_the_inputs(name):
    wl = workloads.WORKLOADS[name]
    cases = range(SAMPLE[name])
    assert [wl.inputs(0, k) for k in cases] != [wl.inputs(1, k) for k in cases]


@pytest.mark.parametrize("layer, name", [
    ("trees", "witness"), ("trees", "packing"), ("colorings", "extract"),
    ("functionals", "stages"), ("traceable", "stages"),
    ("cupping", "witness"), ("smc", "packing"), ("gen", "packing")])
def test_each_layer_is_exercised_by_its_workload(layer, name):
    tracer, _ = _traced(name, SAMPLE[name])
    assert tracer.layer_calls[layer] > 0
    assert tracer.self_s[layer] > 0


def test_trees_stay_nearly_idle_on_stages():
    tracer, _ = _traced("stages", SAMPLE["stages"])
    busy = sum(tracer.self_s.values())
    assert tracer.self_s["trees"] < 0.1 * busy
    assert tracer.self_s["traceable"] > 5 * tracer.self_s["trees"]


def test_calls_per_tree_separates_witness_from_extract():
    per_tree = {}
    for name in ("witness", "extract"):
        tracer, _ = _traced(name, SAMPLE[name])
        per_tree[name] = tracer.tree_calls / len(tracer.tree_hashes)
    assert per_tree["witness"] > 10 * per_tree["extract"]


def test_tracing_keeps_outputs_and_restores_the_originals():
    level_of = branchlab.trees.level_of
    successor_strings = branchlab.colorings.BushyShape.successor_strings
    t_of = branchlab.smc.t_of
    tracer, traced = _traced("extract", SAMPLE["extract"])
    assert traced == _outputs("extract", run.DEFAULT_SEED, SAMPLE["extract"])
    assert tracer.fn_calls["colorings", "successor_strings"][0] > 0
    assert branchlab.trees.level_of is level_of
    assert branchlab.colorings.level_of is level_of
    assert branchlab.colorings.BushyShape.successor_strings \
        is successor_strings
    assert branchlab.smc.t_of is t_of
    assert not tracer._patches


def test_packing_cases_follow_the_depth_cycle():
    wl = workloads.WORKLOADS["packing"]
    cycle = workloads.PACKING_CYCLE
    for k in range(len(cycle)):
        kind, case = wl.inputs(3, k)
        assert (kind, workloads._deepest(case[0].phi)) == cycle[k]


def test_a_segment_is_scaled_by_the_calibrations_around_it(monkeypatch):
    monkeypatch.setattr(worker, "calibrate", lambda: 2 * worker.CAL_REF_S)
    times, scaled = [0.01, 0.02, 0.03], [0.005]
    after, _ = worker._scale_segment(times, scaled, worker.CAL_REF_S)
    assert after == 2 * worker.CAL_REF_S
    assert scaled == pytest.approx([0.005, 0.02 * 2 / 3, 0.03 * 2 / 3])


def test_tail_has_ten_cases_beyond_it():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)
    many = [float(v) for v in range(5000)]
    assert run.tail(many) == (4949.0, 99.0, 50)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_result_line_names_the_declared_metrics(trace, kind):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", "extract", "--seconds", "0.05",
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_refuses_to_run_without_the_library(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", "extract", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
