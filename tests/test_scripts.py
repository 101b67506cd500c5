"""Smoke tests: each example script runs to the end and prints what it
printed when it was written."""

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
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
    # exit 0 here also means the selection verifier passed
    ("packing_demo.py", [], "budget sequence r = ('1',)"),
])
def test_script_runs_and_prints_its_pinned_line(script, args, line):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_packing_demo_prints_its_verdict_and_exits_1_on_a_flaw(
        monkeypatch, capsys):
    demo = _script("packing_demo")
    assert demo.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] \
        == "verifier: valid selection"
    select = demo.select_extensions

    def one_pair_twice(*args):
        res = select(*args)
        return dataclasses.replace(
            res, sigma_pairs=dict.fromkeys(res.sigma_pairs,
                                           res.sigma_pairs[0]))

    monkeypatch.setattr(demo, "select_extensions", one_pair_twice)
    assert demo.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] \
        == "verifier: duplicate pick"


def _check_bench_schema(record):
    # schema 2 adds the tier-1 run and the acceptance durations, and
    # schema 3 the code lines of src
    keys = {"schema", "head", "dirty", "python", "cpu_count", "src_lines",
            "commands", "perfbench"}
    assert record["schema"] in (1, 2, 3)
    if record["schema"] == 3:
        keys.add("src_code_lines")
        assert 0 < record["src_code_lines"] < record["src_lines"]
    if record["schema"] >= 2:
        keys |= {"tier1", "acceptance"}
        for row in (record["tier1"], record["acceptance"]):
            assert {"wall_s", "exit", "passed", "failed"} <= set(row)
            assert row["wall_s"] > 0 and row["exit"] == 0
            assert row["passed"] > 0 and row["failed"] == 0
        durations = record["acceptance"]["durations"]
        assert set(record["acceptance"]) == {"wall_s", "exit", "passed",
                                             "failed", "durations"}
        assert len(durations) == record["acceptance"]["passed"]
        assert all(secs >= 0 for secs in durations.values())
    assert set(record) == keys
    assert record["head"] is None or re.fullmatch("[0-9a-f]{40}",
                                                  record["head"])
    assert isinstance(record["dirty"], bool)
    assert re.fullmatch(r"\d+\.\d+\.\d+\S*", record["python"])
    assert record["cpu_count"] >= 1 and record["src_lines"] > 0
    for row in record["commands"].values():
        assert set(row) == {"wall_s", "exit", "sha256"}
        assert row["wall_s"] > 0 and row["exit"] == 0
        assert re.fullmatch("[0-9a-f]{64}", row["sha256"])
    bench = record["perfbench"]
    if bench is None:
        return
    assert set(bench) == {"seconds", "seeds", "workloads"}
    assert set(bench["workloads"]) == {"extract", "witness", "stages",
                                       "packing"}
    for row in bench["workloads"].values():
        assert row["failed"] == 0 and row["attempted"] > 0
        assert len(row["metrics"]) == 5
        for m in row["metrics"].values():
            assert len(m["values"]) == row["runs"]
            assert min(m["values"]) <= m["median"] <= max(m["values"])


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_names_one_snippet_and_existing_tests():
    script = _script("mutants")
    mutants = script.MUTANTS
    assert len({m.id for m in mutants}) == len(mutants) >= 6
    for m in mutants:
        assert script.occurrences(m.snippet) == 1, m.id
        assert m.snippet in (ROOT / "src" / m.path).read_text(), m.id
        assert m.replacement != m.snippet
        for test in m.tests:
            path, _, name = test.partition("::")
            assert f"def {name}(" in (ROOT / path).read_text(), test


def test_a_cheap_mutant_runs_end_to_end():
    proc = _run("mutants.py", "value-within-bound")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["value-within-bound: killed",
                                        "survivors: none"]


def test_a_mutant_that_never_ends_is_stopped_and_counted_killed(
        monkeypatch):
    script = _script("mutants")
    monkeypatch.setattr(script, "TIMEOUT", 3.0)
    # the output walk never shortens its prefix, so it never ends
    m = script.Mutant(
        "walk-never-ends", "branchlab/functionals.py",
        "        k -= 1\n", "        k -= 0\n",
        ("tests/test_functionals.py::"
         "test_guarded_walk_matches_the_hat_eval_loop",))
    start = time.perf_counter()
    assert script.run_mutant(m) == "killed (timeout)"
    assert time.perf_counter() - start < 30


def test_src_code_lines_skip_blanks_comments_and_docstrings(monkeypatch):
    bench = _script("bench")
    text = ('"""A module\ndocstring."""\n\n# a comment\nx = 1  # kept\n\n'
            'class K:\n    """One line."""\n\n    def f(self):\n'
            '        """Two\n        lines."""\n        s = """not a\n'
            '        docstring"""\n        return s\n')
    monkeypatch.setattr(bench, "_sources", lambda: [text, "y = 2\n"])
    assert bench.src_lines() == 16
    # x = 1, class K, def f, the two lines of s, return s, and y = 2
    assert bench.src_code_lines() == 7


def test_bench_dry_run_writes_the_schema(tmp_path, monkeypatch):
    bench = _script("bench")
    # two quick commands, run once, stand in for the five run thrice
    monkeypatch.setattr(bench, "COMMANDS", (
        ("suite", "fast"), ("run", "traceable", "--horizon", "6")))
    monkeypatch.setattr(bench, "REPEAT", 1)
    # and one quick test file for each pytest run, which must not run
    # this test again
    quick = "tests/test_dead_code.py"
    monkeypatch.setattr(bench, "TIER1", ("-q", quick))
    monkeypatch.setattr(bench, "ACCEPTANCE", (quick,))
    # every Python subprocess starts on an empty bytecode cache of its
    # own, outside the checkout, which is gone once it has run
    caches, real = [], subprocess.run

    def run(argv, **kwargs):
        if argv[0] == sys.executable:
            cache = Path(kwargs["env"]["PYTHONPYCACHEPREFIX"])
            assert cache.is_dir() and not any(cache.iterdir())
            assert ROOT not in cache.parents
            caches.append(cache)
        return real(argv, **kwargs)

    monkeypatch.setattr(bench.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench.main(["--dry-run", "--out", str(out)]) == 0
    assert len(caches) == len(set(caches)) == 4
    assert not any(cache.exists() for cache in caches)
    record = json.loads(out.read_text())
    _check_bench_schema(record)
    assert record["schema"] == 3 and record["perfbench"] is None
    assert record["tier1"]["passed"] == 6
    assert set(record["acceptance"]["durations"]) == {
        "test_every_public_definition_has_a_caller",
        "test_kept_helpers_are_still_defined_and_otherwise_unused",
        "test_every_optional_parameter_is_passed_somewhere",
        "test_every_parameter_is_read",
        "test_no_function_takes_a_memo",
        "test_nothing_imports_a_private_name_from_the_suite"}
    assert list(record["commands"]) == ["suite fast",
                                        "run traceable --horizon 6"]
    assert record["commands"]["suite fast"]["sha256"] == (
        "636cc231a8407c4e1484df40cf397f2713b078ee808d53db00f34651be236440")


def test_committed_bench_files_have_the_schema():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for f in files:
        record = json.loads(f.read_text())
        _check_bench_schema(record)
        assert record["perfbench"] is not None
        assert len(record["commands"]) == 5
        if record["schema"] >= 2:
            assert sorted(record["acceptance"]["durations"]) == re.findall(
                r"^def (test_criterion_\w+)",
                (ROOT / "tests" / "test_acceptance.py").read_text(), re.M)
