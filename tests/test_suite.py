"""The suite's loop checks: each forced flaw names the case it spoils.

Each test below spoils one dependency of one check, in the namespace
that calls it: the suite's, or that of the module whose verifier the
check calls.  It runs the check at its fast scale and pins the FAIL
line.
The spoiled dependency still runs, so the draws stay the ones a clean
run makes, and the pinned witness names the same case it would name
in a full report.
"""

import dataclasses
import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from branchlab import cli, colorings, smc, suite, thin
from branchlab.colorings import kappa
from branchlab.cupping import gamma_code
from branchlab.gen import random_pi_staging
from branchlab.scenario import empty_scenario
from branchlab.smc import build_tprime, omega_level, theta_decode
from branchlab.strings import is_proper_prefix, sort_lenlex
from branchlab.thin import TraceSystem
from branchlab.trees import StagedTree, leaves
from helpers import nest_codes

_FAST = {name: (fn, fast) for name, fn, fast, _ in suite._CHECKS}


def _spoil(monkeypatch, module, name, bad, at):
    """Patch module.<name> so that its call number `at` (from 0) hands
    back bad(result) instead of the result."""
    real = getattr(module, name)
    calls = itertools.count()

    def spoiled(*args, **kwargs):
        out = real(*args, **kwargs)
        return bad(out) if next(calls) == at else out

    monkeypatch.setattr(module, name, spoiled)


def _raise(out):
    raise ValueError("no\n  member")


def _fast_lines(name):
    fn, kwargs = _FAST[name]
    return [ln.render() for ln in fn(name, random.Random(1), **kwargs)]


# (check, module, name spoiled, spoiler, call spoiled, pinned FAIL line)
_SPOILED_CALLS = [
    ("cupping-corpus", suite, "find_pi_member", _raise, 7,
     "FAIL\tcupping-corpus\tbundle 2 n=1: no member"),
    ("trace-size-bound", suite, "trace_from_thin",
     lambda ts: TraceSystem((), {0: frozenset(range(3))}), 3,
     "FAIL\ttrace-size-bound\tcase 3: 3 values at position 0"),
    ("thin-from-trace", suite, "thin_from_trace", lambda tp: frozenset(), 4,
     "FAIL\tthin-from-trace\tcase 4: output not thin"),
    ("rescale-size-bound", suite, "rescale_trace",
     lambda out: TraceSystem(out.p, {}), 2,
     "FAIL\trescale-size-bound\tcase 2: position 2 misses f or runs fat"),
    ("sd-roundtrip", thin, "selfdelim_decode", lambda out: None, 70,
     "FAIL\tsd-roundtrip\t(5,7) -> 100011111"),
    ("split-thin", suite, "splitting_to_thin",
     lambda r: r._replace(witness=("0", "1")), 3,
     "FAIL\tsplit-thin\tcase 3: ('0', '1')"),
    ("select-random", suite, "_selection_exhaustive_flaw",
     lambda f: "spoiled", 2, "FAIL\tselect-random\tcase 2: spoiled"),
    ("theta-roundtrip", smc, "theta_decode", lambda chain: (), 12,
     "FAIL\ttheta-roundtrip\tcase 4: leaf 10 decodes off the path to 10"),
    ("theta-roundtrip", suite, "build_tprime", nest_codes, 1,
     "FAIL\ttheta-roundtrip\tcase 1: codes for 11 not prefix-free"),
    ("pullback-image", suite, "_pullback_tree",
     lambda back: frozenset(back) - {""}, 5,
     "FAIL\tpullback-image\tcase 5: pullback lost 1 strings"),
    ("smc-driver", suite, "smc_driver_stage",
     lambda res: res._replace(b_next="2"), 1,
     "FAIL\tsmc-driver\tcase 1: stage left the tree"),
    ("kraft-four-ninths", suite, "spacing_bound_limit",
     lambda lim: lim + Fraction(1, 9), 0,
     "FAIL\tkraft-four-ninths\t5/9"),
    ("select-twostar", suite, "select_extensions",
     lambda res: dataclasses.replace(
         res, sigma_pairs={**res.sigma_pairs, 1: ("0010", "0000")}), 0,
     "FAIL\tselect-twostar\t{0: ('0000', '0001'), 1: ('0010', '0000')}"),
    ("pi6-chain", suite, "enumerate_pi",
     lambda st: StagedTree(st.stages[:-1] + (st.final - {"111"},)), 0,
     "FAIL\tpi6-chain\te,1,11"),
    # the second of the two renders fails its first split-thin case
    ("report-determinism", suite, "splitting_to_thin",
     lambda r: r._replace(witness=("0", "1")), 5,
     "FAIL\treport-determinism"),
]


@pytest.mark.parametrize("check, module, name, bad, at, line",
                         _SPOILED_CALLS,
                         ids=[f"{c[0]}:{c[2]}" for c in _SPOILED_CALLS])
def test_a_spoiled_case_gives_the_pinned_fail_line(monkeypatch, check, module,
                                                   name, bad, at, line):
    _spoil(monkeypatch, module, name, bad, at)
    assert _fast_lines(check) == [line]


def test_exhaustive_cupping_fails_on_a_node_outside_the_class(monkeypatch):
    # the level-1 node with the found tree and colour but label 12: the
    # class holds 12 level-1 nodes, labelled 0 to 11
    _spoil(monkeypatch, suite, "find_pi_member",
           lambda node: dataclasses.replace(node, tau=gamma_code(12)), 1)
    assert _fast_lines("cupping-exh") == [
        "PASS\tcupping-exh-n0\te", "FAIL\tcupping-exh-n1\t0001101",
        "PASS\tcupping-pi1-size\t12"]


def test_kappa_fail_line_names_the_spoiled_cell(monkeypatch):
    monkeypatch.setattr(colorings, "kappa",
                        lambda i, n: kappa(i, n) + ((i, n) == (2, 5)))
    assert _fast_lines("kappa-closed-form") == [
        "FAIL\tkappa-closed-form\tkappa(2,5) = 33"]


def test_kappa_cells_are_checked_against_the_graded_shape(monkeypatch):
    # a shape whose fan is one too wide at level 3 spoils every cell
    # with n - i = 3, and both the suite check and verify kappa see it
    real = colorings.GRADED_SHAPE
    monkeypatch.setattr(colorings, "GRADED_SHAPE", types.SimpleNamespace(
        branching=lambda n: real.branching(n) + (n == 3)))
    assert _fast_lines("kappa-closed-form") == [
        "FAIL\tkappa-closed-form\tkappa(0,3) = 32"]
    rep = cli.run_command("verify kappa --imax 1 --nmax 4", empty_scenario())
    assert [ln.render() for ln in rep.lines if ln.status == "FAIL"] == [
        "FAIL\tkappa-0-3\t32 != 33", "FAIL\tkappa-1-4\t32 != 33"]


def test_identity_fail_line_names_the_spoiled_n(monkeypatch):
    real = math.factorial
    monkeypatch.setattr(math, "factorial", lambda k: real(k) + (k == 5))
    assert _fast_lines("traceable-identity") == [
        "FAIL\ttraceable-identity\tn=3: 1920 != 1936"]


# The whole-tree scans that smc.readback_chains and smc.pi6_gaps
# replaced with prefix probes, kept as oracles.

def _scanned_theta_chains(final, tp, theta):
    for x in sort_lenlex(final):
        if x == "":
            continue
        chain = tuple(sorted((p for p in final
                              if p != "" and x.startswith(p)), key=len))
        bad = next((leaf for leaf in leaves(tp[x])
                    if theta_decode(theta, leaf) != chain), None)
        yield x, chain, bad


def _scanned_pi6_gaps(ctx, final):
    lv = {m: omega_level(ctx, m) for m in final}
    return [m for m in final if m != ""
            and lv[m] < 2 + max(lv[p] for p in final
                                if is_proper_prefix(p, m))]


def test_prefix_probes_match_the_whole_tree_scans():
    # chains over each draw's final tree and over a subset keeping the
    # root, which skips members and so spoils readbacks; gaps over the
    # final tree and over it with one-bit extensions, which open gaps
    spoiled = gaps = 0
    for seed in range(80):
        rng = random.Random(seed)
        ctx, st, succ = random_pi_staging(rng)
        tp, theta = build_tprime(ctx, st, succ)
        part = frozenset({""} | {m for m in st.final if rng.random() < 0.6})
        for final in (st.final, part):
            got = list(smc.readback_chains(final, tp, theta))
            assert got == list(_scanned_theta_chains(final, tp, theta))
            spoiled += sum(bad is not None for _, _, bad in got)
        grown = st.final | {m + rng.choice("01") for m in st.final
                            if rng.random() < 0.5}
        for final in (st.final, grown):
            got = smc.pi6_gaps(ctx, final)
            assert got == _scanned_pi6_gaps(ctx, final)
            gaps += len(got)
    assert spoiled and gaps
