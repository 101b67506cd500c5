"""Command dispatch: worked examples, error surfacing, determinism."""

import argparse
import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time

import pytest

import branchlab
from branchlab import cli, colorings, cupping, suite, traceable
from branchlab.errors import ScenarioError
from branchlab.functionals import FunctionalTable
from branchlab.gen import odd_readback_psi, phi_for_profile
from branchlab.scenario import empty_scenario, parse_scenario
from branchlab.smc import oplus_tree
from branchlab.strings import show_string, string_to_nat
from helpers import constant_psi, nest_codes

DEMO = """\
[functional psi]
axiom 0 0 0 1
axiom 1 0 1 1
axiom 00 1 0 2
axiom 01 1 1 2
axiom 10 1 0 2
axiom 11 1 1 2

[functional flat]
axiom 0 0 0 1
axiom 1 0 0 1

[tree T]
node e
node 0
node 1
node 00
node 01
node 10
node 11

[tree S]
node e
node 0
node 1

[tree W]
node e
node 00
node 01
node 10

[params]
seed 5
"""


@pytest.fixture
def sc():
    return parse_scenario(DEMO)


def statuses(report):
    return [ln.status for ln in report.lines]


def test_exhaustive_twocol_n1_gives_sixteen_passes():
    rep = cli.run_command("verify twocol --n 1 --exhaustive",
                          empty_scenario())
    assert len(rep.lines) == 16
    assert statuses(rep) == ["PASS"] * 16
    assert rep.ok


def test_cupping_on_the_empty_adversary(sc):
    rep = cli.run_command("run cupping --n 2", empty_scenario())
    assert statuses(rep) == ["PASS"] * 3
    assert all(ln.witness for ln in rep.lines)


def test_selfdelim_worked_example():
    rep = cli.run_command("encode sd 5 2", empty_scenario())
    assert statuses(rep) == ["PASS"]
    assert rep.lines[0].witness == "10001110"


def test_thin_check_both_ways(sc):
    ok = cli.run_command("check thin --tree T --sub S", sc)
    assert statuses(ok) == ["PASS"]
    # W's three length-2 strings all sit at level 1, so the antichain
    # weighs 3/2 and the check must fail with a witness
    bad = cli.run_command("check thin --tree W --sub W", sc)
    assert statuses(bad) == ["FAIL"]
    assert bad.lines[0].witness
    assert not bad.ok


def test_split_check_both_ways(sc):
    assert statuses(cli.run_command(
        "check split --psi psi --tree T", sc)) == ["PASS"]
    flat = cli.run_command("check split --psi flat --tree T", sc)
    assert statuses(flat) == ["FAIL"]
    assert "," in flat.lines[0].witness


def test_dangling_names_surface_as_error_lines(sc):
    rep = cli.run_command("check thin --tree T --sub NOPE", sc)
    assert statuses(rep) == ["ERROR"]
    assert "NOPE" in rep.lines[0].witness
    rep = cli.run_command("trace dnr", empty_scenario())
    assert statuses(rep) == ["ERROR"]


def test_unknown_commands_are_usage_errors(sc):
    with pytest.raises(ScenarioError):
        cli.run_command("polish trees", sc)
    with pytest.raises(ScenarioError):
        cli.run_command("verify", sc)


def test_seed_override_and_determinism(sc):
    a = cli.run_command("verify twocol --n 2 --count 20 --seed 77", sc)
    b = cli.run_command("verify twocol --n 2 --count 20 --seed 77", sc)
    assert a.render() == b.render()
    assert a.seed == 77
    c = cli.run_command("verify twocol --n 2 --count 20", sc)
    assert c.seed == 5


def test_scenario_flag_reads_a_file(tmp_path):
    f = tmp_path / "d.scn"
    f.write_text(DEMO)
    rep = cli.run_command(f"check split --psi psi --tree T --scenario {f}",
                          empty_scenario())
    assert statuses(rep) == ["PASS"]
    assert rep.seed == 5


def test_main_exit_codes_and_output(tmp_path, capsys):
    assert cli.main(["encode", "sd", "5", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["# seed 0", "PASS\tsd-5-2\t10001110"]

    f = tmp_path / "d.scn"
    f.write_text(DEMO)
    assert cli.main(["check", "thin", "--tree", "W", "--sub", "W",
                     "--scenario", str(f)]) == 1
    capsys.readouterr()

    assert cli.main(["no-such-command"]) == 2
    assert "error:" in capsys.readouterr().err


def test_twocol_fail_lines_of_verify_and_suite(monkeypatch):
    # both commands share one extraction check but word failures apart
    monkeypatch.setattr(colorings, "verify_extraction", lambda *a: False)
    rep = cli.run_command("verify twocol --n 0 --exhaustive", empty_scenario())
    assert [ln.render() for ln in rep.lines] == [
        "FAIL\ttwocol-exh-0\t0", "FAIL\ttwocol-exh-1\t1"]
    assert [ln.render()
            for ln in suite._chk_twocol("twocol-exh-n0", None, 0)] \
        == ["FAIL\ttwocol-exh-n0\tcolouring 0"]

    def broken(*args):
        raise ValueError("bad\n  shape")

    monkeypatch.setattr(colorings, "extract_twocol", broken)
    rep = cli.run_command("verify twocol --n 0 --exhaustive", empty_scenario())
    assert [ln.render() for ln in rep.lines] == [
        "FAIL\ttwocol-exh-0\tbad shape", "FAIL\ttwocol-exh-1\tbad shape"]
    assert [ln.render()
            for ln in suite._chk_twocol("twocol-exh-n0", None, 0)] \
        == ["FAIL\ttwocol-exh-n0\tbad shape"]


def test_missing_scenario_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.scn"
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        cli.run_command(["verify", "kappa", "--scenario", str(missing)],
                        empty_scenario())
    assert cli.main(["verify", "kappa", "--scenario", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read scenario")
    assert cli.main(["verify", "kappa", "--scenario", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_suite_fast_report_bytes_are_pinned(capsys):
    # every refactor must leave the report byte-identical
    assert cli.main(["suite", "fast"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("636cc231a8407c4e1484df40cf397f27"
                      "13b078ee808d53db00f34651be236440")


@pytest.mark.parametrize("level", ["fast", "full"])
def test_a_mutated_suite_reports_the_flipped_colour(monkeypatch, tmp_path,
                                                    capsys, level):
    # the mutant line does not depend on the level; full runs no other
    # check here, to keep it cheap
    if level == "full":
        monkeypatch.setattr(suite, "_CHECKS", ())
    f = tmp_path / "m.scn"
    f.write_text("[params]\nmutate 1\n")
    assert cli.main(["suite", level, "--scenario", str(f)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if not ln.startswith("PASS")] == [
        "# seed 0", "FAIL\ttwocol-mutant\tflipped 00 to colour 1"]


def _leaf_surfaces(parser):
    """One line per leaf command: its key, handler, extra defaults, each
    option (or positional) with its default or "!" when required, and
    each set of mutually exclusive options in brackets."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _leaf_surfaces(sub)
            return
    words = [parser.get_default("key"), parser.get_default("handler").__name__]
    words += [f"{k}={v}" for k, v in sorted(parser._defaults.items())
              if k not in ("key", "handler")]
    for a in parser._actions:
        if a.default != argparse.SUPPRESS:
            name = "|".join(a.option_strings) or a.dest
            words.append(f"{name}!" if a.required else f"{name}={a.default}")
    words += ["[" + "|".join(a.option_strings[0] for a in g._group_actions)
              + "]" for g in parser._mutually_exclusive_groups]
    yield " ".join(words)


def test_every_leaf_keeps_its_key_options_and_defaults():
    # ns.key seeds each command's generator and names its -error line
    parser = cli.build_parser()
    surfaces = list(_leaf_surfaces(parser))
    common = "--scenario=None --seed=None"
    assert surfaces == [
        f"verify:twocol _h_verify_twocol {common} --n=1 --exhaustive=False "
        "--count=100 [--exhaustive|--count]",
        f"verify:nice _h_verify_nice {common} --i=0 --n=2 --count=100",
        f"verify:kappa _h_verify_kappa {common} --imax=6 --nmax=10",
        f"run:cupping _h_run_cupping {common} --n=2",
        f"run:traceable _h_run_traceable {common} --horizon=6",
        f"run:smc _h_run_smc {common} --psi=psi --dagger=None --oracle=None "
        "--budget=None",
        f"run:pi6 _h_run_pi6 {common} --phi=phi --stages=None --flen=None",
        f"check:thin _h_check_thin {common} --tree! --sub!",
        f"check:split _h_check_split {common} --psi=psi --tree! "
        "--delayed=False --hat=False",
        f"check:weaksplit _h_check_weaksplit {common} --psi=psi --phi=phi "
        "--budget=6 --path=e",
        f"check:theta _h_check_theta {common} --phi=phi --staging! "
        "--flen=None",
        f"trace:from-thin _h_trace_from_thin {common} --psi=psi --sub! "
        "--maxlen=6",
        f"trace:from-split _h_trace_from_split {common} --psi=psi --tree! "
        "--m=2",
        f"trace:dnr _h_trace_dnr {common}",
        f"encode:sd _h_encode_sd {common} n! m!",
        f"suite:fast _h_suite level=fast {common}",
        f"suite:full _h_suite level=full {common}",
    ]
    # each leaf is reached by its group and name
    for line in surfaces:
        key, *words = line.split()
        argv = key.split(":")
        for w in words:
            if w.endswith("!"):  # a required option or positional
                argv += [w[:-1], "1"] if w.startswith("--") else ["1"]
        ns = parser.parse_args(argv)
        assert (ns.group, ns.sub, ns.key) == (*key.split(":"), key)


def test_traceable_and_smc_runs(sc):
    rep = cli.run_command("run traceable --horizon 5", sc)
    assert rep.ok and len(rep.lines) == 4
    rep = cli.run_command("run smc --psi psi --oracle 5 --budget 32", sc)
    assert rep.ok
    assert rep.lines[0].witness.startswith(("no-splittings",
                                            "splitting-subtree"))


def test_kappa_lines_match_the_doubling_form():
    rep = cli.run_command("verify kappa --imax 2 --nmax 3",
                          empty_scenario())
    assert rep.ok
    by_id = {ln.check_id: ln.witness for ln in rep.lines}
    assert by_id["kappa-0-0"] == "4"
    assert by_id["kappa-1-3"] == "16"


def _readback_scenario():
    """psi reads the free odd bits off the interleaved tree of the
    oracle 101 (code 12), so its guarded image is the full binary tree
    of depth 3; D refines it, X leaves it and Y branches one way."""
    oplus, layer = [""], [""]
    for bit in "101":
        layer = [s + bit + b for s in layer for b in "01"]
        oplus += layer
    lines = ["[functional psi]"]
    lines += [f"axiom {m} {len(m) // 2 - 1} {m[-1]} 1" for m in oplus if m]
    for name, nodes in (("D", "e 0 1 00 01"), ("X", "e 0 1 0000 0001"),
                        ("Y", "e 0")):
        lines += ["", f"[tree {name}]"] + [f"node {x}" for x in nodes.split()]
    lines += ["", "[params]", "oracle 12", "seed 3", ""]
    return "\n".join(lines)


def test_smc_driver_report_bytes_are_pinned(tmp_path, capsys):
    f = tmp_path / "readback.scn"
    f.write_text(_readback_scenario())
    expected = [
        (["--dagger", "D"], 0, "PASS\tsmc-driver\tsplitting-subtree b=11 tree=5"),
        (["--dagger", "X"], 1, "ERROR\trun-smc-error\trefinement tree is not "
                               "a subset of the image"),
        (["--dagger", "Y"], 1, "ERROR\trun-smc-error\trefinement tree: '' has "
                               "1 successors"),
        (["--dagger", "D", "--budget", "3"], 1,
         "FAIL\tsmc-driver\tneeded more than 3 splits"),
        ([], 0, "PASS\tsmc-driver\tsplitting-subtree b=100010 tree=15"),
    ]
    for extra, code, line in expected:
        assert cli.main(["run", "smc", "--psi", "psi", "--budget", "16",
                         "--scenario", str(f)] + extra) == code
        assert capsys.readouterr().out == f"# seed 3\n{line}\n"


def test_check_theta_and_run_smc_fail_through_their_verifiers(
        tmp_path, capsys, monkeypatch):
    # check theta handed a readback with nested codes for one target,
    # and run smc a driver that drops its refinement
    build, stage = cli.build_tprime, cli.smc_driver_stage
    monkeypatch.setattr(cli, "build_tprime",
                        lambda *args: nest_codes(build(*args)))
    monkeypatch.setattr(cli, "smc_driver_stage",
                        lambda state, psi, budget, dagger: stage(state, psi,
                                                                 budget))
    prof, read = tmp_path / "profile.scn", tmp_path / "readback.scn"
    prof.write_text(_profile_scenario())
    read.write_text(_readback_scenario())
    assert cli.main(["check", "theta", "--staging", "G",
                     "--scenario", str(prof)]) == 1
    assert capsys.readouterr().out.splitlines()[1] \
        == "FAIL\ttheta-consistency\tcodes for 100 not prefix-free"
    assert cli.main(["run", "smc", "--psi", "psi", "--budget", "16",
                     "--dagger", "D", "--scenario", str(read)]) == 1
    assert capsys.readouterr().out \
        == "# seed 3\nFAIL\tsmc-driver\timage misses the refinement\n"


def _profile_scenario():
    """phi grows the certified tree of the oracle e in three steps; G is
    the prefix enumeration of the members 00, 10 and 100 it admits."""
    lines = ["[functional phi]", "axiom e 0 1 1"]
    lines += [f"axiom {s} {n} 1 2" for n in range(1, 7) for s in ("00", "10")]
    lines += [f"axiom 100 {n} 1 3" for n in range(7, 31)]
    lines += ["", "[staged G]", "stage", "node e", "stage", "stage",
              "node 00", "node 10", "stage", "node 100",
              "", "[params]", "flen 7", "seed 4", ""]
    return "\n".join(lines)


ADVERSARY = """\
[functional psi0]
axiom 01 0 1 3
axiom e 1 9 1
axiom e 2 9 1
axiom 1111 2 9 1
axiom 0001 3 1 1

[functional psi1]
axiom 11 0 1 2
axiom e 1 7 2
axiom e 2 5 3
axiom 1 3 0 3
axiom 001 3 4 3

[params]
seed 2
"""


def test_folded_handlers_report_bytes_are_pinned(tmp_path, capsys):
    # each handler here reads its verdict from the suite's shared body;
    # the expected reports are those of the handlers' own earlier copies
    prof = tmp_path / "prof.scn"
    prof.write_text(_profile_scenario())
    adv = tmp_path / "adv.scn"
    adv.write_text(ADVERSARY)
    expected = [
        (f"verify nice --i 1 --n 2 --count 5 --scenario {prof}",
         "# seed 4\nPASS\tnice-i1-n2-0\td=1\nPASS\tnice-i1-n2-1\td=1\n"
         "PASS\tnice-i1-n2-2\td=1\nPASS\tnice-i1-n2-3\td=0\n"
         "PASS\tnice-i1-n2-4\td=1\n"),
        ("verify kappa --imax 1 --nmax 3",
         "# seed 0\nPASS\tkappa-0-0\t4\nPASS\tkappa-0-1\t8\n"
         "PASS\tkappa-0-2\t16\nPASS\tkappa-0-3\t32\nPASS\tkappa-1-1\t4\n"
         "PASS\tkappa-1-2\t8\nPASS\tkappa-1-3\t16\n"),
        ("encode sd 13 6", "# seed 0\nPASS\tsd-13-6\t10100011110\n"),
        (f"run pi6 --phi phi --stages 4 --scenario {prof}",
         "# seed 4\nPASS\tpi6-admit-e\tstage=0 level=0\n"
         "PASS\tpi6-admit-00\tstage=2 level=2\n"
         "PASS\tpi6-admit-10\tstage=2 level=2\n"
         "PASS\tpi6-admit-100\tstage=3 level=4\nPASS\tpi6-gap\n"),
        (f"check theta --phi phi --staging G --scenario {prof}",
         "# seed 4\nPASS\ttheta-consistency\taxioms=8\nPASS\ttheta-00\t00\n"
         "PASS\ttheta-10\t10\nPASS\ttheta-100\t10,100\n"),
        (f"run traceable --horizon 6 --scenario {adv}",
         "# seed 2\nPASS\ttraceable-frontier\tstages=6\n"
         "PASS\ttraceable-counts\t0:1 1:4 2:16 3:24 4:16\n"
         "PASS\ttraceable-tracesize\nPASS\ttraceable-final\n"),
    ]
    for cmd, out in expected:
        assert cli.main(cmd.split()) == 0, cmd
        assert capsys.readouterr().out == out, cmd


def _off_path_scenario():
    """phi's tree at the oracle 0, off the staged path e, 1, gives the
    root three successors."""
    phi = phi_for_profile({"": 0, "1": 2, "0": ["", "00", "01", "10"]})
    lines = ["[functional phi]"] + [f"axiom {show_string(s)} {n} {v} {k}"
                                    for s, n, v, k in phi.axioms]
    lines += ["", "[staged G]", "stage", "node e", "stage", "node 1",
              "", "[params]", "seed 4", ""]
    return "\n".join(lines)


def test_off_path_tables_are_still_checked(tmp_path, capsys):
    # the enumeration builds and checks the tree of every string it
    # reaches, so a malformed tree off the staged path is still refused
    f = tmp_path / "offpath.scn"
    f.write_text(_off_path_scenario())
    for cmd in (["check", "theta", "--staging", "G"],
                ["run", "pi6", "--stages", "3"]):
        assert cli.main([*cmd, "--phi", "phi", "--scenario", str(f)]) == 1
        assert capsys.readouterr().out == (
            f"# seed 4\nERROR\t{cmd[0]}-{cmd[1]}-error\te has more than two "
            "successors in the tree at 0\n")


def test_a_reader_that_leaves_early_gets_no_traceback():
    # 4,000 colourings print about 100 KB, more than a pipe buffer holds,
    # so the report is still being written when the reader leaves
    src = os.path.dirname(os.path.dirname(branchlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "branchlab.cli", "verify", "nice", "--i", "1",
         "--n", "2", "--count", "4000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.readline() == b"# seed 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0  # every line passes
    assert b"Traceback" not in err and err == b""


def test_nice_extractions_check_their_tree_once(monkeypatch):
    # t0's input checks run once per tree, not once per colouring
    checked = []
    real = colorings.is_compatible
    monkeypatch.setattr(colorings, "is_compatible",
                        lambda *a: checked.append(a[1]) or real(*a))
    rep = cli.run_command("verify nice --i 1 --n 2 --count 8",
                          empty_scenario())
    assert [ln.status for ln in rep.lines] == ["PASS"] * 8
    assert len(checked) == 1
    checked.clear()
    lines = suite._chk_nice("nice", random.Random(1), 1, 5)
    assert [ln.render().split("\t")[2] for ln in lines] == ["5/5"] * 6
    assert len(checked) == 6


def test_nice_fail_lines_of_verify_and_suite(monkeypatch):
    sc = parse_scenario(_profile_scenario())
    monkeypatch.setattr(colorings, "verify_extraction", lambda *a: False)
    rep = cli.run_command("verify nice --i 1 --n 2 --count 2", sc)
    assert [ln.render() for ln in rep.lines] == [
        "FAIL\tnice-i1-n2-0\td=1", "FAIL\tnice-i1-n2-1\td=1"]
    assert [ln.render()
            for ln in suite._chk_nice("nice", random.Random(1), 0, 2)] \
        == ["FAIL\tnice-i0-n0\td=1 rejected", "FAIL\tnice-i0-n1\td=0 rejected",
            "FAIL\tnice-i0-n2\td=0 rejected"]

    def broken(*args):
        raise ValueError("bad\n  shape")

    monkeypatch.setattr(colorings, "extract_nice", broken)
    rep = cli.run_command("verify nice --i 1 --n 2 --count 2", sc)
    assert [ln.render() for ln in rep.lines] == [
        "FAIL\tnice-i1-n2-0\tbad shape", "FAIL\tnice-i1-n2-1\tbad shape"]
    assert [ln.render()
            for ln in suite._chk_nice("nice", random.Random(1), 0, 1)] \
        == ["FAIL\tnice-i0-n0\tbad shape", "FAIL\tnice-i0-n1\tbad shape",
            "FAIL\tnice-i0-n2\tbad shape"]


def test_traceable_fail_lines_of_run_and_suite(monkeypatch):
    monkeypatch.setattr(traceable, "node_count_bound", lambda n: 0)
    monkeypatch.setattr(traceable, "trace_bound_pair", lambda i, n: (0, 0))
    monkeypatch.setattr(traceable, "verify_final_nodes", lambda st, adv: False)
    rep = cli.run_command("run traceable --horizon 6",
                          parse_scenario(ADVERSARY))
    assert [ln.render() for ln in rep.lines] == [
        "PASS\ttraceable-frontier\tstages=6",
        "FAIL\ttraceable-counts\tlevel 0 has 1 > 0",
        "FAIL\ttraceable-tracesize", "FAIL\ttraceable-final"]
    assert [ln.render() for ln in suite._chk_traceable(
        "traceable", random.Random(1), 3, 4)] == [
        "PASS\ttraceable-frontier\t3/3",
        "FAIL\ttraceable-counts\trun 0: 1 nodes at level 0 exceed 0",
        "FAIL\ttraceable-tracesize\trun 1: trace (0,0) holds 1 values",
        "FAIL\ttraceable-pdiag\trun 0: a guarded branch survived"]


def test_traceable_frontier_fail_lines_of_run_and_suite(monkeypatch):
    # both run every stage and name the first whose frontier is empty
    real = traceable.run_stage

    def starved(st, adv):
        # each stage grows from a copy, whose frontier is walked anew
        nxt = real(dataclasses.replace(st), adv)
        if nxt.stage >= 3:
            object.__setattr__(nxt, "_frontier", ())
        return nxt

    monkeypatch.setattr(traceable, "run_stage", starved)
    rep = cli.run_command("run traceable --horizon 5", empty_scenario())
    assert [ln.render() for ln in rep.lines] == [
        "FAIL\ttraceable-frontier\tempty at stage 3",
        "PASS\ttraceable-counts\t0:1 1:2 2:4 3:8 4:16 5:32",
        "PASS\ttraceable-tracesize", "PASS\ttraceable-final"]
    assert suite._chk_traceable("traceable", random.Random(1), 3,
                                4)[0].render() == (
        "FAIL\ttraceable-frontier\trun 0: empty frontier at stage 3")


def test_nice_tree_budget_at_its_edge(capsys):
    # kappa(0) fanout 4, 8, 16, ... gives 2^14 leaves at level 4 and
    # 2^20 at level 5, which is refused before the tree is built
    t0 = time.monotonic()
    assert cli.main(["verify", "nice", "--i", "0", "--n", "4",
                     "--count", "1"]) == 0
    assert capsys.readouterr().out == "# seed 0\nPASS\tnice-i0-n4-0\td=1\n"
    assert time.monotonic() - t0 < 10
    t0 = time.monotonic()
    assert cli.main(["verify", "nice", "--i", "0", "--n", "5",
                     "--count", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1].startswith(
        "ERROR\tverify-nice-error\t")
    assert time.monotonic() - t0 < 1


def test_nice_work_budget_at_its_edge(capsys):
    # count x leaves is capped at 2^20 coloured leaves: 64 colourings of
    # a 2^14-leaf tree run, 65 are refused before any tree is built
    t0 = time.monotonic()
    assert cli.main(["verify", "nice", "--i", "0", "--n", "4",
                     "--count", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 65 and all(ln.startswith("PASS\tnice-i0-n4-")
                                    for ln in lines[1:])
    assert time.monotonic() - t0 < 15
    t0 = time.monotonic()
    assert cli.main(["verify", "nice", "--i", "0", "--n", "4",
                     "--count", "65"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "ERROR\tverify-nice-error\t65 colourings of 16384 leaves exceed "
        "1048576 coloured leaves"]
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("horizon, ceiling", [(12, 2), (14, 8)])
def test_traceable_at_long_horizons(capsys, horizon, ceiling):
    # each state keeps its node tree, so a stage costs about its node
    # count rather than a fresh index per P module
    t0 = time.monotonic()
    assert cli.main(["run", "traceable", "--horizon", str(horizon)]) == 0
    assert time.monotonic() - t0 < ceiling
    counts = " ".join(f"{n}:{1 << n}" for n in range(horizon + 1))
    assert capsys.readouterr().out == (
        f"# seed 0\nPASS\ttraceable-frontier\tstages={horizon}\n"
        f"PASS\ttraceable-counts\t{counts}\n"
        "PASS\ttraceable-tracesize\nPASS\ttraceable-final\n")


def test_traceable_horizon_budget_at_its_edge(capsys):
    # each stage can double the tree: horizon 16 runs, 17 is refused
    # before the first stage
    t0 = time.monotonic()
    assert cli.main(["run", "traceable", "--horizon", "16"]) == 0
    assert time.monotonic() - t0 < 10
    assert capsys.readouterr().out.splitlines()[1:] == [
        "PASS\ttraceable-frontier\tstages=16",
        "PASS\ttraceable-counts\t" + " ".join(f"{n}:{1 << n}"
                                             for n in range(17)),
        "PASS\ttraceable-tracesize", "PASS\ttraceable-final"]
    t0 = time.monotonic()
    assert cli.main(["run", "traceable", "--horizon", "17"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "ERROR\trun-traceable-error\thorizon 17 exceeds the budget of 16 "
        "stages"]
    assert time.monotonic() - t0 < 1


def test_twocol_work_budget_at_its_edge(capsys):
    # count x 4^n is capped at 2^20 coloured leaves: 4 colourings of the
    # 2^18 level-9 leaves run, 5 are refused before any leaf is built
    t0 = time.monotonic()
    assert cli.main(["verify", "twocol", "--n", "9", "--count", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(ln.startswith("PASS\ttwocol-rand-")
                                   for ln in lines[1:])
    assert time.monotonic() - t0 < 10
    t0 = time.monotonic()
    assert cli.main(["verify", "twocol", "--n", "9", "--count", "5"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "ERROR\tverify-twocol-error\t5 colourings of 262144 leaves exceed "
        "1048576 coloured leaves"]
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("argv, check", [
    (["verify", "twocol", "--n", "0"], "twocol-rand-"),
    (["verify", "nice", "--i", "0", "--n", "0"], "nice-i0-n0-"),
])
def test_one_leaf_work_budget_at_its_edge(capsys, argv, check):
    # a colouring costs at least 16 leaves' worth: 2^16 colourings of one
    # leaf run, one more, or a million, are refused before any is drawn
    t0 = time.monotonic()
    assert cli.main(argv + ["--count", "65536"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 65537 and all(ln.startswith("PASS\t" + check)
                                       for ln in lines[1:])
    assert time.monotonic() - t0 < 10
    for count in (65537, 1000000):
        t0 = time.monotonic()
        assert cli.main(argv + ["--count", str(count)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"ERROR\tverify-{argv[1]}-error\t{count} colourings of 1 "
            "leaves, at 16 a colouring, exceed 1048576 coloured leaves"]
        assert time.monotonic() - t0 < 1


def test_kappa_cell_budget_at_its_edge(capsys):
    # cells x (nmax + 3) bits is capped at 2^20: 126 x 126 gives 8,128
    # cells of up to 129 bits, and 127 x 127 is refused before any cell
    t0 = time.monotonic()
    assert cli.main(["verify", "kappa", "--imax", "126",
                     "--nmax", "126"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8129 and lines[-1] == "PASS\tkappa-126-126\t4"
    assert lines[126] == f"PASS\tkappa-0-125\t{1 << 127}"
    assert time.monotonic() - t0 < 5
    for n, cells in ((127, 8256), (1000, 501501), (2000, 2003001)):
        t0 = time.monotonic()
        assert cli.main(["verify", "kappa", "--imax", str(n),
                         "--nmax", str(n)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"ERROR\tverify-kappa-error\t{cells} kappa cells of up to "
            f"{n + 3} bits exceed 1048576 bits"]
        assert time.monotonic() - t0 < 1
    # one row reaches further: nmax 1022 runs and 1023 is refused
    assert cli.main(["verify", "kappa", "--imax", "0",
                     "--nmax", "1022"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"PASS\tkappa-0-1022\t{1 << 1024}")
    assert cli.main(["verify", "kappa", "--imax", "0",
                     "--nmax", "1023"]) == 1


def test_cupping_search_budget_at_its_edge(capsys):
    # level 4 is the deepest search; level 5 is refused before level 0
    t0 = time.monotonic()
    assert cli.main(["run", "cupping", "--n", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "PASS\tcupping-n0\te", "PASS\tcupping-n1\t1", "PASS\tcupping-n2\t11",
        "PASS\tcupping-n3\t111", "PASS\tcupping-n4\t1111"]
    assert time.monotonic() - t0 < 10
    t0 = time.monotonic()
    assert cli.main(["run", "cupping", "--n", "5"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "ERROR\trun-cupping-error\tlevel 5 exceeds the search budget"]
    assert time.monotonic() - t0 < 1


def test_run_cupping_fails_through_its_verifier(tmp_path, capsys,
                                                monkeypatch):
    # the search handed the empty bundle returns colour 0 at index 0,
    # which the constant-0 functional c blocks from stage 1 on
    f = tmp_path / "const.scn"
    f.write_text("[functional c]\n"
                 + "".join(f"axiom e {n} 0 1\n" for n in range(3)))
    assert cli.main(["run", "cupping", "--scenario", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "PASS\tcupping-n0\te", "PASS\tcupping-n1\t010",
        "PASS\tcupping-n2\t0101"]
    search = cli.find_pi_member
    monkeypatch.setattr(cli, "find_pi_member",
                        lambda n, adv: search(n, cupping.EMPTY_BUNDLE))
    assert cli.main(["run", "cupping", "--scenario", str(f)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "PASS\tcupping-n0\te",
        "FAIL\tcupping-n1\tstage 1 filter rejects 1",
        "FAIL\tcupping-n2\tstage 1 filter rejects 1"]


# psi and phi converge to 0 at every argument on every oracle bit, so
# the guarded output grows with each bit: every string is a member of
# the level tree, and the weak splitting scan evaluates the most values
_GROWING = [f"axiom e {n} 0 1" for n in range(25)]


def _identity(depth):
    """Axioms copying each oracle bit at once: 2^(depth+1) - 2 of them,
    up to 2^depth at one argument."""
    return [f"axiom {s}{b} {n} {b} 1" for n in range(depth)
            for s in ("".join(p) for p in itertools.product("01", repeat=n))
            for b in "01"]


def _ladder(depth, args):
    """Axioms with value 0 on 0^k for every k <= depth at each argument
    below args: depth + 1 sigma lengths, so as many probes, per
    argument."""
    return [f"axiom {'0' * k or 'e'} {n} 0 1" for n in range(args)
            for k in range(depth + 1)]


def _scan_scenario(tmp_path, axioms):
    f = tmp_path / "scan.scn"
    f.write_text("\n".join(
        [f"[functional {name}]\n" + "\n".join(axioms)
         for name in ("psi", "phi")]
        + ["[tree S]\n" + "\n".join(f"node {'0' * k or 'e'}"
                                     for k in (0, *range(2, 10)))]))
    return str(f)


def _at_the_edge(cmd, lines, ceiling):
    t0 = time.monotonic()
    rep = cli.run_command(cmd, empty_scenario())
    assert [ln.render() for ln in rep.lines] == lines
    assert time.monotonic() - t0 < ceiling


def test_weaksplit_scan_budget_at_its_edges(tmp_path):
    # the length: 2^14 strings up to length 13 are scanned with the
    # growing tables; 14 is refused unscanned
    f = _scan_scenario(tmp_path, _GROWING)
    _at_the_edge(["check", "weaksplit", "--budget", "13", "--scenario", f],
                 ["PASS\tweaksplit-psi-phi\tmembers=44"], 10)
    _at_the_edge(["check", "weaksplit", "--budget", "14", "--scenario", f],
                 ["ERROR\tcheck-weaksplit-error\tstrings up to length 14 "
                  "exceed the budget of length 13"], 1)
    # the members: every string up to length 9 of the identity tables
    # is a member, 1016 of them, and the verifier compares every pair;
    # at length 10 the scan stops as the tree passes 2^10 members
    f = _scan_scenario(tmp_path, _identity(10))
    _at_the_edge(["check", "weaksplit", "--budget", "9", "--scenario", f],
                 ["PASS\tweaksplit-psi-phi\tmembers=1016"], 10)
    _at_the_edge(["check", "weaksplit", "--budget", "10", "--scenario", f],
                 ["ERROR\tcheck-weaksplit-error\tthe tree grows past 1024 "
                  "members"], 1)
    # the work: 2^12 strings at 2 x 256 sigma-index probes run, twice as
    # many strings are refused unscanned
    f = _scan_scenario(tmp_path, _ladder(15, 16))
    _at_the_edge(["check", "weaksplit", "--budget", "11", "--scenario", f],
                 ["PASS\tweaksplit-psi-phi\tmembers=36"], 10)
    _at_the_edge(["check", "weaksplit", "--budget", "12", "--scenario", f],
                 ["ERROR\tcheck-weaksplit-error\t8192 strings at 512 probes "
                  "each exceed 2097152"], 1)


# the chain S up to 0^9 sits at levels 0 to 8 of both level trees
_CHAIN_TRACE = [f"PASS\ttrace-{n:02d}\tp={2 << n} values=0"
                for n in range(8)]


def test_thin_trace_scan_budget_at_its_edges(tmp_path):
    # at --maxlen 13 the growing psi's level tree holds 16381 strings;
    # 14 is refused before it is built
    f = _scan_scenario(tmp_path, _GROWING)
    _at_the_edge(["trace", "from-thin", "--sub", "S", "--maxlen", "13",
                  "--scenario", f],
                 _CHAIN_TRACE, 10)
    _at_the_edge(["trace", "from-thin", "--sub", "S", "--maxlen", "14",
                  "--scenario", f],
                 ["ERROR\ttrace-from-thin-error\tstrings up to length 14 "
                  "exceed the budget of length 13"], 1)
    # an identity psi, 16382 axioms with one sigma length per argument,
    # costs a probe per argument and runs up to the length budget
    f = _scan_scenario(tmp_path, _identity(13))
    _at_the_edge(["trace", "from-thin", "--sub", "S", "--maxlen", "13",
                  "--scenario", f], _CHAIN_TRACE, 10)
    # the work: 2^14 strings at 8 x 16 probes, the most the budget takes
    # at length 13, run; one probe more is refused
    f = _scan_scenario(tmp_path, _ladder(7, 16))
    _at_the_edge(["trace", "from-thin", "--sub", "S", "--maxlen", "13",
                  "--scenario", f], _CHAIN_TRACE, 10)
    f = _scan_scenario(tmp_path, _ladder(2, 43))
    _at_the_edge(["trace", "from-thin", "--sub", "S", "--maxlen", "13",
                  "--scenario", f],
                 ["ERROR\ttrace-from-thin-error\t16384 strings at 129 probes "
                  "each exceed 2097152"], 1)
    # 2^10 strings at 1312 sigma-index probes run, twice as many are
    # refused
    f = _scan_scenario(tmp_path, _ladder(40, 32))
    _at_the_edge(["trace", "from-thin", "--sub", "S", "--maxlen", "9",
                  "--scenario", f], _CHAIN_TRACE, 10)
    _at_the_edge(["trace", "from-thin", "--sub", "S", "--maxlen", "10",
                  "--scenario", f],
                 ["ERROR\ttrace-from-thin-error\t2048 strings at 1312 probes "
                  "each exceed 2097152"], 1)


def _star_scenario(k, heads=("",)):
    """psi's one axiom gives every string of length 1 or more the output
    0, so no two such strings split.  T holds the root and, below each
    head, k leaves of 13 bits: a star, or with heads 0 and 1 a star
    below each of the root's two successors."""
    nodes = ["e", *filter(None, heads)] + [
        h + format(i, f"0{13 - len(h)}b") for h in heads for i in range(k)]
    return ("[functional psi]\naxiom e 0 0 1\n\n[tree T]\n"
            + "".join(f"node {m}\n" for m in nodes))


def test_splitting_pair_budget_at_its_edges(tmp_path):
    # the pairs compared grow with the square of a sibling group: a star
    # of 1448 leaves, C(1448, 2) <= 2^20 pairs, is checked and one more
    # leaf is refused before any output is computed
    f = tmp_path / "star.scn"
    for k, plain, trace in (
            (1448, "FAIL\tsplit-psi-T\t0000000000000,0000000000001",
             "ERROR\ttrace-from-split-error\ttree does not split the "
             "functional"),
            (1449, "ERROR\tcheck-split-error\t1049076 output pairs exceed "
             "1048576",
             "ERROR\ttrace-from-split-error\t1049076 output pairs exceed "
             "1048576")):
        f.write_text(_star_scenario(k))
        ceiling = 5 if k == 1448 else 0.5
        _at_the_edge(["check", "split", "--tree", "T", "--scenario", str(f)],
                     [plain], ceiling)
        _at_the_edge(["check", "split", "--tree", "T", "--hat",
                      "--scenario", str(f)], [plain], ceiling)
        _at_the_edge(["trace", "from-split", "--tree", "T", "--m", "5000",
                      "--scenario", str(f)], [trace], ceiling)
    # delayed mode pairs the successors of two siblings: two stars of
    # 1024 leaves give 2^20 pairs and are checked, 1025 are refused
    f.write_text(_star_scenario(1024, ("0", "1")))
    _at_the_edge(["check", "split", "--tree", "T", "--delayed",
                  "--scenario", str(f)],
                 ["FAIL\tsplit-psi-T\t0000000000000,1000000000000"], 5)
    f.write_text(_star_scenario(1025, ("0", "1")))
    _at_the_edge(["check", "split", "--tree", "T", "--delayed",
                  "--scenario", str(f)],
                 ["ERROR\tcheck-split-error\t1050625 output pairs exceed "
                  "1048576"], 0.5)
    # the stars of 4096 and 8192 leaves are refused at once, and in
    # delayed mode, where leaves have no successors to pair, pass at once
    for k in (4096, 8192):
        f.write_text(_star_scenario(k))
        pairs = f"{k * (k - 1) // 2} output pairs exceed 1048576"
        _at_the_edge(["check", "split", "--tree", "T", "--scenario", str(f)],
                     [f"ERROR\tcheck-split-error\t{pairs}"], 0.5)
        _at_the_edge(["trace", "from-split", "--tree", "T", "--m", "10000",
                      "--scenario", str(f)],
                     [f"ERROR\ttrace-from-split-error\t{pairs}"], 0.5)
        _at_the_edge(["check", "split", "--tree", "T", "--delayed",
                      "--scenario", str(f)], ["PASS\tsplit-psi-T"], 0.5)


# sha256 prefixes of the reports trace from-thin printed at --maxlen 0
# to 10, in order, while it built the level tree stage by stage and
# took lengths up to 10: reading the final tree alone prints the same
_FROM_THIN_PINS = {
    ("growing", "S"): "346da29fd0dfca51",
    ("growing", "B"): "e8333b11f8444d5e",
    ("identity", "S"): "346da29fd0dfca51",
    ("identity", "B"): "81e166a143313be1",
    ("ladder", "S"): "ae97fa9ad1b4a5f4",
    ("ladder", "B"): "6b2ba9abcc54a5bf",
}


def test_thin_trace_reports_are_pinned(tmp_path):
    tables = {"growing": _GROWING, "identity": _identity(10),
              "ladder": _ladder(40, 32)}
    branching = "".join(f"\nnode {s}" for s in
                        ("e", "00", "10", "001", "100", "0010", "1001"))
    for (name, sub), pin in _FROM_THIN_PINS.items():
        f = _scan_scenario(tmp_path, tables[name])
        with open(f, "a") as fh:
            fh.write("\n[tree B]" + branching)
        h = hashlib.sha256()
        for maxlen in range(11):
            h.update(cli.run_command(
                ["trace", "from-thin", "--sub", sub, "--maxlen", str(maxlen),
                 "--scenario", f], empty_scenario()).render().encode())
        assert h.hexdigest()[:16] == pin, (name, sub)


def _oplus_scenario(tmp_path, a, psi):
    f = tmp_path / "oplus.scn"
    f.write_text("[functional psi]\n" + "\n".join(
        f"axiom {s} {n} {v} {k}" for s, n, v, k in psi.axioms)
        + f"\n[params]\noracle {string_to_nat(a)}\n")
    return str(f)


def test_smc_oracle_budget_at_its_edge(tmp_path):
    # a 13-bit oracle gives a 16,383-member tree, on which the driver
    # stage splits all 8,191 inner members under the odd-bit readback,
    # finds nothing to split under a constant psi, and under a psi that
    # reads the leaves alone splits the root above its first leaf; a
    # 14-bit oracle is refused before its tree is built
    a = "10" * 6 + "1"
    least_leaf = "".join(c + "0" for c in a)
    f = _oplus_scenario(tmp_path, a, odd_readback_psi(a))
    _at_the_edge(["run", "smc", "--budget", "8191", "--scenario", f],
                 [f"PASS\tsmc-driver\tsplitting-subtree b={least_leaf} "
                  "tree=16383"], 10)
    f = _oplus_scenario(tmp_path, a, FunctionalTable(tuple(
        (m, 0, int(m[-1]), 1) for m in oplus_tree(a) if len(m) == 26)))
    _at_the_edge(["run", "smc", "--budget", "8191", "--scenario", f],
                 [f"PASS\tsmc-driver\tsplitting-subtree b={least_leaf} "
                  "tree=3"], 10)
    f = _oplus_scenario(tmp_path, a, constant_psi(a))
    _at_the_edge(["run", "smc", "--budget", "8191", "--scenario", f],
                 ["PASS\tsmc-driver\tno-splittings b=10 tree=16383"], 10)
    _at_the_edge(["run", "smc", "--oracle", str(string_to_nat(a + "0")),
                  "--scenario", f],
                 ["ERROR\trun-smc-error\tan oracle of 14 bits exceeds the "
                  "budget of 13 bits"], 1)


def test_pi6_stage_budget_at_its_edge(tmp_path):
    # stage s walks all 2^s strings: 13 stages run, 14 are refused before
    # the first
    f = tmp_path / "prof.scn"
    f.write_text(_profile_scenario())
    _at_the_edge(["run", "pi6", "--stages", "13", "--scenario", str(f)],
                 ["PASS\tpi6-admit-e\tstage=0 level=0",
                  "PASS\tpi6-admit-00\tstage=2 level=2",
                  "PASS\tpi6-admit-10\tstage=2 level=2",
                  "PASS\tpi6-admit-100\tstage=3 level=4", "PASS\tpi6-gap"],
                 10)
    _at_the_edge(["run", "pi6", "--stages", "14", "--scenario", str(f)],
                 ["ERROR\trun-pi6-error\t14 stages exceed the budget of 13"],
                 1)


def test_pi6_on_a_deep_table_reads_no_bit_past_its_horizon(tmp_path):
    # phi settles the full tree of depth 11 at every oracle from one
    # axiom per argument, so its horizon is 2: every longer oracle
    # string is answered from its prefix there, and 13 stages finish
    # where 8 once took 15 s, with the lines 6 stages gave before
    f = tmp_path / "deep.scn"
    f.write_text("[functional phi]\n" + "".join(
        f"axiom e {n} 1 1\n" for n in range(4095)))
    lines = ["PASS\tpi6-admit-e\tstage=0 level=0",
             "PASS\tpi6-admit-0\tstage=1 level=11",
             "PASS\tpi6-admit-1\tstage=1 level=11", "PASS\tpi6-gap"]
    for stages in ("13", "6"):
        _at_the_edge(["run", "pi6", "--stages", stages, "--flen", "30",
                      "--scenario", str(f)], lines, 1)


def test_a_second_pi6_run_reuses_the_first_runs_context(tmp_path,
                                                        monkeypatch):
    # the second run parses its table and builds its majorant anew, but
    # they are equal to the first run's, so its context is the first
    # run's object, which the omega_level cache matches by identity
    f = tmp_path / "prof.scn"
    f.write_text(_profile_scenario())
    cmd = ["run", "pi6", "--stages", "13", "--flen", "4096",
           "--scenario", str(f)]
    built = []
    real = cli._omega_context
    monkeypatch.setattr(cli, "_omega_context",
                        lambda ns, phi: built.append(real(ns, phi))
                        or built[-1])
    want = cli.run_command(cmd, empty_scenario()).render()
    assert cli.run_command(cmd, empty_scenario()).render() == want
    assert len(built) == 2 and built[1] is built[0]


def test_majorant_length_budget_at_its_edge(tmp_path):
    # a majorant of 2^12 entries is built and certifies what the default
    # one does; one more entry is refused before the majorant is built
    f = tmp_path / "prof.scn"
    f.write_text(_profile_scenario())
    scn = ["--flen", "4096", "--scenario", str(f)]
    _at_the_edge(["run", "pi6", "--stages", "3", *scn],
                 ["PASS\tpi6-admit-e\tstage=0 level=0",
                  "PASS\tpi6-admit-00\tstage=2 level=2",
                  "PASS\tpi6-admit-10\tstage=2 level=2",
                  "PASS\tpi6-admit-100\tstage=3 level=4", "PASS\tpi6-gap"],
                 1)
    _at_the_edge(["check", "theta", "--staging", "G", *scn],
                 ["PASS\ttheta-consistency\taxioms=8", "PASS\ttheta-00\t00",
                  "PASS\ttheta-10\t10", "PASS\ttheta-100\t10,100"], 1)
    scn[1] = "4097"
    for cmd, extra in (("run-pi6", ["run", "pi6", "--stages", "3"]),
                       ("check-theta", ["check", "theta", "--staging", "G"])):
        _at_the_edge([*extra, *scn],
                     [f"ERROR\t{cmd}-error\ta majorant of length 4097 "
                      "exceeds the budget of 4096"], 1)


def _corpus_files(tmp_path):
    """Scenario files for the argv corpus: demo's [tree] names S, T, W
    and [staged] names R, U interleave, read stages D's tree as E, pp
    joins the readback and profile tables under [params] that set every
    fallback, odd's oracle needs more splits than the default budget
    allows, and star4k and star8k are stars of 4096 and 8192 leaves
    that no table splits."""
    read, prof = _readback_scenario(), _profile_scenario()
    odd = "".join(f"axiom {show_string(s)} {n} {v} {k}\n"
                  for s, n, v, k in odd_readback_psi("1011").axioms)
    texts = {
        "demo": DEMO + "\n[staged R]\nstage\nnode e\nstage\nnode 0\n"
                       "node 1\n\n[staged U]\nstage\nnode e\n",
        "read": read + "\n[staged E]\nstage\nnode e\nstage\nnode 0\n"
                       "node 1\nnode 00\nnode 01\n",
        "prof": prof,
        "adv": ADVERSARY,
        "pp": read.split("[params]")[0] + prof.split("[params]")[0]
              + "[params]\noracle 12\nflen 4\nstages 2\nbudget 3\nseed 1\n",
        "odd": f"[functional psi]\n{odd}[params]\n"
               f"oracle {string_to_nat('1011')}\n",
        "bare": "[tree T]\nnode e\n",
        "star4k": _star_scenario(4096),
        "star8k": _star_scenario(8192),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.scn").write_text(text)
    return {name: str(tmp_path / f"{name}.scn") for name in texts}


# each argv with its exit code and, on exit 2, its stderr, else the
# first 16 hex digits of its stdout's sha256; {name} is a scenario file
_CORPUS = [
    # every leaf
    ("verify twocol --n 1 --count 5", 0, "18018f0cba62786b"),
    ("verify twocol --n 1 --exhaustive", 0, "6eff6e53bf0f0e42"),
    ("verify nice --i 1 --n 2 --count 3", 0, "e263c4398efe1ccb"),
    # extractions past level 2 and index 1
    ("verify twocol --n 3 --count 200", 0, "b129a5464d258129"),
    ("verify nice --i 2 --n 4 --count 64", 0, "12cf6a222335f212"),
    ("verify kappa --imax 2 --nmax 3", 0, "4964abb5315f8192"),
    ("run cupping --n 1", 0, "8280db504be065b0"),
    ("run traceable --horizon 4 --scenario {adv}", 0, "91cc7b3b9655e91c"),
    ("run smc --scenario {read}", 0, "4c3379f2e9d623bc"),
    ("run smc --dagger D --budget 16 --scenario {read}",
     0, "29e2b1419b4a0833"),
    ("run pi6 --scenario {prof}", 0, "8a66a48941087571"),
    ("check thin --tree T --sub S --scenario {demo}", 0, "ed965c7bfb9d32c8"),
    ("check split --tree T --scenario {demo}", 0, "983f83ad6efedb7d"),
    ("check weaksplit --phi flat --scenario {demo}", 0, "f2a6fab1beef0494"),
    ("check theta --staging G --scenario {prof}", 0, "502bfb88c919f0f7"),
    ("trace from-thin --sub S --maxlen 3 --scenario {demo}",
     1, "727767500cdf296e"),
    ("trace from-split --tree T --scenario {demo}", 1, "f960acdf1977b80b"),
    ("trace dnr --scenario {adv}", 0, "c4fe227763891f70"),
    ("encode sd 5 2", 0, "b3d3ae9aafa82734"),
    ("suite fast", 0, "636cc231a8407c4e"),
    ("suite full --seed 0", 0, "8799b02076404240"),
    # each budget refusal
    ("verify twocol --n 2 --count 100000", 1, "4e6dfe24f0491b1a"),
    ("verify twocol --n 3 --exhaustive", 1, "fd36b56d2daadd9b"),
    ("verify nice --i 0 --n 5 --count 1", 1, "bdbe1aa01fbb8b66"),
    ("verify nice --i 0 --n 4 --count 65", 1, "a3a4379d57143896"),
    ("run cupping --n 5", 1, "9f4efa09ce297291"),
    ("run traceable --horizon 17", 1, "01a52fd7dc248c6c"),
    ("run smc --oracle 99999 --scenario {read}", 1, "c487426e33c75e35"),
    ("run pi6 --stages 14 --scenario {prof}", 1, "485f556893368b55"),
    ("run pi6 --flen 4097 --scenario {prof}", 1, "f9b27e6d11bc1446"),
    ("check theta --staging G --flen 4097 --scenario {prof}",
     1, "43819b994bc56345"),
    ("check weaksplit --phi flat --budget 14 --scenario {demo}",
     1, "74565edf3aa9dbc7"),
    ("trace from-thin --sub S --maxlen 14 --scenario {demo}",
     1, "25d218cdbc525983"),
    # missing names of each kind, and staged names where trees go
    ("run smc --psi nope --scenario {read}", 1, "f6d4c4b3193ee18f"),
    ("run smc --dagger nope --scenario {read}", 1, "9932adaee5ceb69e"),
    ("run smc --dagger E --budget 16 --scenario {read}",
     0, "29e2b1419b4a0833"),
    ("run pi6 --phi nope --scenario {prof}", 1, "18db01008e74c199"),
    ("check thin --tree R --sub S --scenario {demo}", 0, "257df57a9aa2af1f"),
    ("check thin --tree T --sub nope --scenario {demo}",
     1, "4a55708f1b8ca795"),
    ("check thin --tree T --sub S --scenario {bare}", 1, "8bdd97860e2ac2eb"),
    ("check split --psi nope --tree T --scenario {demo}",
     1, "c1ae5a5ca9e9862e"),
    ("check theta --staging T --scenario {pp}", 1, "b4799392f467987b"),
    ("check theta --staging G --scenario {demo}", 1, "d4ddf321e5db704d"),
    ("trace from-split --tree nope --scenario {demo}", 1, "d82777f55e471ba8"),
    ("trace dnr", 1, "6300deea3664d8b9"),
    # [params] fallbacks against flags
    ("run smc --scenario {pp}", 1, "4e036fac4c9e213e"),
    ("run smc --budget 16 --scenario {pp}", 0, "04b6c35a945d0d6f"),
    ("run smc --oracle 0 --budget 16 --scenario {pp}", 0, "62f5252fcf7c7d62"),
    ("run pi6 --flen 7 --scenario {pp}", 0, "1c154c7f2058a39b"),
    ("run pi6 --scenario {pp}", 0, "1c154c7f2058a39b"),
    ("run pi6 --stages 4 --flen 7 --scenario {pp}", 0, "5a0bdd4dc9155b48"),
    ("check theta --staging G --scenario {pp}", 1, "b200da2ff8f2ff19"),
    ("check theta --staging G --flen 7 --scenario {pp}",
     0, "b9f292dc670597d1"),
    ("run smc --scenario {odd}", 1, "8562e272bb3938f4"),
    ("check weaksplit --scenario {pp}", 0, "06bfc9b4749aca88"),
    # two faults: the first the handler meets is reported
    ("run smc --oracle 99999 --psi nope --scenario {read}",
     1, "c487426e33c75e35"),
    ("run smc --psi nope --dagger nope --scenario {read}",
     1, "f6d4c4b3193ee18f"),
    ("run pi6 --stages 14 --phi nope --scenario {prof}",
     1, "18db01008e74c199"),
    ("run pi6 --stages 14 --flen 5000 --scenario {prof}",
     1, "485f556893368b55"),
    ("check theta --phi nope --staging nope --scenario {prof}",
     1, "3ebf786396c8bc3a"),
    ("check theta --staging nope --flen 5000 --scenario {prof}",
     1, "d321f8aa597e7ab7"),
    ("check thin --tree nope --sub none --scenario {demo}",
     1, "4a55708f1b8ca795"),
    ("check weaksplit --phi nope --budget 14 --scenario {demo}",
     1, "329f640f80b24732"),
    ("trace from-thin --psi nope --sub S --maxlen 14 --scenario {demo}",
     1, "4cec739b903eb19b"),
    # usage errors
    ("", 2, "error: the following arguments are required: group\n"),
    ("verify", 2, "error: the following arguments are required: sub\n"),
    ("polish trees", 2,
     "error: argument group: invalid choice: 'polish' (choose from "
     "'verify', 'run', 'check', 'trace', 'encode', 'suite')\n"),
    ("check thin --tree T", 2,
     "error: the following arguments are required: --sub\n"),
    ("verify twocol --exhaustive --count 3", 2,
     "error: argument --count: not allowed with argument --exhaustive\n"),
    ("encode sd 5", 2, "error: the following arguments are required: m\n"),
    ("run smc --oracle x", 2,
     "error: argument --oracle: invalid int value: 'x'\n"),
    ("verify kappa --bogus", 2, "error: unrecognized arguments: --bogus\n"),
    # only run smc takes an oracle
    ("run pi6 --stages 4 --flen 7 --oracle 0 --scenario {pp}", 2,
     "error: unrecognized arguments: --oracle 0\n"),
    ("check theta --staging G --flen 7 --oracle 0 --scenario {pp}", 2,
     "error: unrecognized arguments: --oracle 0\n"),
    # every help page
    ("--help", 0, "a09ca75cb758f9cf"),
    ("verify --help", 0, "232d896f2d13cb84"),
    ("run --help", 0, "424659c6b12d437d"),
    ("check --help", 0, "b9d59706c81f1a1d"),
    ("trace --help", 0, "1917f2e189d6e16d"),
    ("encode --help", 0, "808033d671d536f5"),
    ("suite --help", 0, "04306164f04743d6"),
    ("verify twocol --help", 0, "996ee3fd5e481284"),
    ("verify nice --help", 0, "683a4c582cc4ce6a"),
    ("verify kappa --help", 0, "e43e3cff31676b2b"),
    ("run cupping --help", 0, "1cae5c275e90d6c0"),
    ("run traceable --help", 0, "cee121c96a59eac3"),
    ("run smc --help", 0, "05264eee003333cc"),
    ("run pi6 --help", 0, "de96e4ab452964cc"),
    ("check thin --help", 0, "69aa49deaeae828e"),
    ("check split --help", 0, "cffdc834d5d1e039"),
    ("check weaksplit --help", 0, "ec40750b2db54ccf"),
    ("check theta --help", 0, "6932f4580a780287"),
    ("trace from-thin --help", 0, "0a1a8bf1ac9e1cf4"),
    ("trace from-split --help", 0, "3b4ec85277f2ccf8"),
    ("trace dnr --help", 0, "8e5f7838c0079a78"),
    ("encode sd --help", 0, "9bd35821fee2354d"),
    ("suite fast --help", 0, "45a219b67c87254c"),
    ("suite full --help", 0, "2fab09f625c88164"),
    # the splitting pair budget
    ("check split --tree T --scenario {star4k}", 1, "2061e21e4f551660"),
    ("check split --tree T --delayed --scenario {star4k}",
     0, "1ff99859574c3299"),
    ("trace from-split --tree T --m 10000 --scenario {star4k}",
     1, "6d6cf03f21d8797c"),
    ("check split --tree T --scenario {star8k}", 1, "f598f2a01d4ba298"),
    ("check split --tree T --delayed --scenario {star8k}",
     0, "1ff99859574c3299"),
    ("trace from-split --tree T --m 10000 --scenario {star8k}",
     1, "6ae97e42d6df24aa"),
]


def _corpus_outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # --help
        code = e.code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        return code, err
    assert err == ""
    return code, hashlib.sha256(out.encode()).hexdigest()[:16]


def test_the_argv_corpus_prints_pinned_bytes(tmp_path, capsys, monkeypatch):
    # stdout, stderr and exit code of every leaf, budget refusal, missing
    # name, [params] fallback, two-fault argv, usage error and help page
    monkeypatch.setenv("COLUMNS", "80")
    files = _corpus_files(tmp_path)
    for cmd, code, pin in _CORPUS:
        argv = [w.format(**files) for w in cmd.split()]
        assert _corpus_outcome(argv, capsys) == (code, pin), cmd
