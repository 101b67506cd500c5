#!/usr/bin/env python3
"""Run each mutant of the table against the tests expected to catch it.

A mutant replaces one exact snippet of one file under src/ with a
faulty version.  Each is applied alone to a temporary copy of src/,
and its tests run with that copy first on the import path.  A mutant
is killed when a test fails and survives when all of them pass; the
tests are first run once on src/ itself, where all must pass.  A
pytest run still going after TIMEOUT seconds is stopped; a mutant
stopped so, a loop that never ends say, counts as killed.  The script
prints one line per mutant and then the survivors, and exits with
status 1 when any mutant survives, errs or misses its snippet.

    python3 scripts/mutants.py                    # every mutant
    python3 scripts/mutants.py hat-step-guard     # the ones named
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120.0  # seconds per pytest run; each takes a few at most


class Mutant(NamedTuple):
    id: str
    path: str  # under src/
    snippet: str  # occurs exactly once in src/
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


_FUNCTIONALS = "branchlab/functionals.py"
_CUPPING = "branchlab/cupping.py"
_CLI = "branchlab/cli.py"
_COLORINGS = "branchlab/colorings.py"
_SMC = "branchlab/smc.py"
_TRACEABLE = "branchlab/traceable.py"
_THIN = "branchlab/thin.py"
_T = "tests/test_functionals.py::"
_TCUP = "tests/test_cupping.py::"
_TCOL = "tests/test_colorings.py::"
_TSMC = "tests/test_smc.py::"
_TTR = "tests/test_traceable.py::"
_TCLI = "tests/test_cli.py::"
_TTHIN = "tests/test_thin.py::"

MUTANTS = (
    Mutant("value-within-bound", _FUNCTIONALS,
           "if ax is None or ax[3] > steps else",
           "if ax is None or ax[3] >= steps else",
           (_T + "test_identity_table_outputs",)),
    Mutant("effective-axiom-tie", _FUNCTIONALS,
           "(ax is None or hit[3] < ax[3])",
           "(ax is None or hit[3] <= ax[3])",
           (_T + "test_axiom_lookup_matches_full_table_scan",)),
    Mutant("hat-step-guard", _FUNCTIONALS,
           "if ax is None or ax[3] >= len(tau) or (",
           "if ax is None or ax[3] > len(tau) or (",
           (_T + "test_hat_needs_steps_below_oracle_length",)),
    # the table's guarded values keyed by the cut string alone
    Mutant("hat-values-key-without-argument", _FUNCTIONALS,
           "key = (tau, n)",
           "key = tau",
           (_T + "test_lookups_match_naive_scans_when_sigmas_repeat",)),
    # the guarded walk, and so its kept outputs, over the uncut tau
    Mutant("hat-outputs-key-uncut", _FUNCTIONALS,
           "tau = tau[:f._horizon + f.max_arg + 1]",
           "tau = tau[:]",
           (_T + "test_guarded_walk_matches_the_hat_eval_loop",)),
    # the parent asked at every argument below n, not at n - 1 alone
    Mutant("hat-parent-at-every-argument", _FUNCTIONALS,
           "n and hat_eval(f, tau[:-1], n - 1) is None):",
           "n and any(hat_eval(f, tau[:-1], k) is None\n"
           "                       for k in range(n))):",
           (_T + "test_hat_eval_asks_the_parent_only_at_the_argument"
            "_below",)),
    # a None stored before the recursion, which an interrupt leaves
    Mutant("hat-early-none-guard", _FUNCTIONALS,
           "    ax = effective_axiom(f, tau, n)\n    # defined when",
           "    memo[key] = None\n"
           "    ax = effective_axiom(f, tau, n)\n    # defined when",
           (_T + "test_an_interrupted_hat_eval_leaves_no_wrong_entry",)),
    # a table or context built anew handed back instead of the live
    # equal one, so value-keyed cache hits compare whole keys again
    Mutant("intern-registry", _FUNCTIONALS,
           "return cls._registry.setdefault(key, obj)",
           "cls._registry.setdefault(key, obj)\n        return obj",
           (_TSMC + "test_equal_keys_hit_the_caches_without_a_comparison",)),
    # run cupping printing PASS for any node the search returns
    Mutant("cupping-cli-skips-the-verifier", _CLI,
           "bad = pi_membership_violation(node, adv)",
           "bad = None",
           (_TCLI + "test_run_cupping_fails_through_its_verifier",)),
    # the witness colouring read one bit short of the cut prefix
    Mutant("rank-colours-level-one-bit-short", _CUPPING,
           "if GRADED_SHAPE.level_length(k) >= cut), n)",
           "if GRADED_SHAPE.level_length(k) >= cut - 1), n)",
           (_TCUP + "test_grouped_colouring_matches_per_leaf_colouring",
            _TCUP + "test_witness_search_matches_the_per_leaf_search")),
    # the witness colouring repeated down the next index's fans
    Mutant("rank-colours-next-fans", _CUPPING,
           "fan = math.prod(kappa(i, j) for j in range(k, n))",
           "fan = math.prod(kappa(i + 1, j) for j in range(k, n))",
           (_TCUP + "test_grouped_colouring_matches_per_leaf_colouring",
            _TCUP + "test_witness_search_matches_the_per_leaf_search")),
    # a hit at index i taken to reject the ancestor of level i as well
    Mutant("membership-first-stage", _CUPPING,
           "first = min((max(i + 1, j)",
           "first = min((max(i, j)",
           (_TCUP + "test_membership_check_matches_the_ancestor_chain"
            "_filters",)),
    # two-colour extraction taking d to be the colour of the root's
    # majority, which is the colour its tree cannot avoid
    Mutant("twocol-keeps-the-majority", _COLORINGS,
           "d = 1 if per_level[0][0] == 0 else 0",
           "d = 0 if per_level[0][0] == 0 else 1",
           (_TCOL + "test_extract_twocol_matches_naive_extraction",)),
    # a member with fewer successors than the fanout taken as compatible,
    # which lets a one-branching tree through as a node's tree
    Mutant("compatible-allows-fewer-successors", _COLORINGS,
           "if kids and kids != fan:",
           "if kids and kids > fan:",
           (_TCOL + "test_index_compatibility_sweep_sees_both_verdicts",
            _TCUP + "test_node_validation")),
    # a tied run taken for a majority
    Mutant("majority-not-strict", _COLORINGS,
           "run.count(top) > half",
           "run.count(top) >= half",
           (_TCOL + "test_extract_nice_matches_naive_extraction",)),
    # delayed splitting over the sibling pairs, not their successors'
    Mutant("delayed-pairs-from-siblings", _FUNCTIONALS,
           "for x in succ[u] for y in succ[v]",
           "for x in (u,) for y in (v,)",
           (_T + "test_delayed_check_matches_the_naive_scan_on_random_cases",
            _T + "test_splitting_tree_delayed")),
    # weak splitting ignoring a difference at the agreement bound itself
    Mutant("weak-split-bound-exclusive", _FUNCTIONALS,
           "top = min(len(a), len(b), k + 1)",
           "top = min(len(a), len(b), k)",
           (_T + "test_weak_split_check_at_the_agreement_and_use_bounds",)),
    # the image step trusting its input to split
    Mutant("image-skips-the-split-check", _FUNCTIONALS,
           "if _splitting_violation(t, outs) is not None:",
           "if False:",
           (_T + "test_branch_word_cases_reach_success_and_the_main_errors",
            _T + "test_checks_over_one_output_map_match_fresh_outputs")),
    # plain splitting skipping each member's next sibling
    Mutant("plain-pairs-skip-a-sibling", _FUNCTIONALS,
           "for i, a in enumerate(group) for b in group[i + 1:]",
           "for i, a in enumerate(group) for b in group[i + 2:]",
           (_T + "test_sibling_pair_check_names_the_pairwise_scans_pair",
            _T + "test_splitting_check_compares_each_sibling_pair_once")),
    # selection pools grown one tree level per step instead of two
    Mutant("selection-grown-one-level", _SMC,
           "ext = _descent(trees[i], (psi,), 2)",
           "ext = _descent(trees[i], (psi,), 1)",
           (_TSMC + "test_selection_level_members_match_naive_scan",
            _TSMC + "test_integer_budget_matches_the_fraction_budget")),
    # a pool keeping the string a settled pick is compatible with
    Mutant("selection-prune-keeps-its-hit", _SMC,
           "pool.remove(hits[0])",
           "pass",
           (_TSMC + "test_selection_verifier_names_a_compatible_pick_pair",
            _TSMC + "test_readback_verifier_matches_the_pairwise_scan")),
    # a selection whose budget reaches exactly 1 taken for overspent
    Mutant("selection-verifier-budget-at-one", _SMC,
           "or r[-1] > 1:",
           "or r[-1] >= 1:",
           (_TSMC + "test_selection_verifier_names_a_compatible_pick_pair",)),
    # the readback verifier without its per-target prefix-free check
    Mutant("readback-verifier-skips-prefix-free", _SMC,
           "if not is_prefix_free(srcs):",
           "if not srcs:",
           (_TSMC + "test_readback_verifier_names_nested_codes_for_one"
            "_target",)),
    # a pi6 gap of one level taken for enough
    Mutant("pi6-gap-without-the-two", _SMC,
           "and lv[m] < 2 + max(",
           "and lv[m] < max(",
           (_TSMC + "test_pi6_gaps_name_a_member_short_of_its_prefixs_level"
            "_by_two",)),
    # the driver verifier never comparing the image with the refinement
    Mutant("driver-verifier-skips-the-image", _SMC,
           "if dagger_subtree is not None and (",
           "if False and (",
           (_TSMC + "test_driver_verifier_passes_the_driver_and_names_each"
            "_spoil",)),
    # a level holding exactly its bound of nodes taken for over it
    Mutant("run-count-at-its-bound", _TRACEABLE,
           "if n <= 4 and c > node_count_bound(n)",
           "if n <= 4 and c >= node_count_bound(n)",
           (_TTR + "test_run_flaws_name_the_first_count_and_trace_over"
            "_their_bounds",)),
    # the last frontier string to miss a node's successors named, not
    # the length-lex first
    Mutant("final-node-names-the-last-miss", _TRACEABLE,
           "missed.setdefault(below, x)",
           "missed[below] = x",
           (_TTR + "test_final_node_range_scan_matches_naive_scan",)),
    # antichain weights at depths measured in the subtree, not the tree
    Mutant("thin-depth-in-the-subtree", _THIN,
           "own = Fraction(1, 1 << level_of(t, x))",
           "own = Fraction(1, 1 << level_of(tp, x))",
           (_TTHIN + "test_thin_matches_exhaustive_oracle",)),
)


def occurrences(snippet: str) -> int:
    """How often the snippet occurs across the files of src/."""
    return sum(p.read_text().count(snippet)
               for p in (ROOT / "src").rglob("*.py"))


def _pytest(src: Path, tests: Iterable[str]) -> Optional[int]:
    """pytest's exit status on the tests, with src first on the path:
    1 when a test failed, 0 when all passed, None when it was stopped
    after TIMEOUT seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True,
            timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def run_mutant(m: Mutant) -> str:
    """'killed', 'killed (timeout)', 'survived', or 'error: ...' for
    one mutant."""
    if occurrences(m.snippet) != 1 or m.snippet not in (
            ROOT / "src" / m.path).read_text():
        return "error: the snippet does not occur exactly once in src/"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / m.path
        target.write_text(target.read_text().replace(m.snippet,
                                                     m.replacement))
        code = _pytest(src, m.tests)
    return {1: "killed", 0: "survived", None: "killed (timeout)"}.get(
        code, f"error: pytest exit {code}")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    # a verdict means something only if the tests pass unmutated
    code = _pytest(ROOT / "src", dict.fromkeys(t for m in chosen
                                                for t in m.tests))
    if code != 0:
        print("the tests fail on src/ itself: "
              + (f"pytest exit {code}" if code is not None else
                 f"stopped after {TIMEOUT:g} s"))
        return 1
    verdicts = {}
    for m in chosen:
        verdicts[m.id] = run_mutant(m)
        print(f"{m.id}: {verdicts[m.id]}", flush=True)
    survivors = [i for i, v in verdicts.items() if v == "survived"]
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 0 if all(v.startswith("killed") for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
