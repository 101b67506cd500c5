"""Acceptance runs: one test per acceptance criterion, at full scale.

Each test drives the corresponding seeded suite checks at the `full`
scale the suite registry gives them, and demands a clean PASS on every
emitted line, so `pytest -v` yields exactly one verdict line per
criterion.  Wall-clock ceilings are asserted where a criterion fixes
one.
"""

import random
import time

from branchlab.colorings import EVEN_SHAPE, bushy_level_strings
from branchlab.suite import _CHECKS, run_suite

_FULL = {name: (fn, full) for name, fn, _, full in _CHECKS}

# the case count a loop check's PASS line reports, from its kwargs;
# checks with a count kwarg run that many cases
_CASES = {
    "twocol-exh-n2":
        lambda kw: 1 << len(bushy_level_strings(EVEN_SHAPE, kw["n"])),
    "nice": lambda kw: kw["per_cell"],
    "kappa-closed-form":
        lambda kw: sum(kw["nmax"] - i + 1 for i in range(kw["imax"] + 1)),
    "cupping-corpus": lambda kw: kw["bundles"] * (kw["nmax"] + 1),
    "traceable": lambda kw: kw["runs"],
    "traceable-identity": lambda kw: kw["nmax"] + 1,
    "sd-roundtrip": lambda kw: kw["top"] ** 2,
}
_ORACLE = {"select-random"}  # also reports its oracle passes
_NOT_LOOPS = {"cupping-exh", "kraft-four-ninths", "split-mutant-detect",
              "select-twostar"}


def _run(tag, *names):
    """Run the named registry checks at full scale, each on a fresh
    generator seeded with the criterion's tag; each loop check's PASS
    line must count every case its kwargs ask for, once."""
    for name in names:
        fn, kwargs = _FULL[name]
        for ln in fn(name, random.Random(f"acceptance:{tag}"), **kwargs):
            assert ln.status == "PASS", ln.render()
            if name in _NOT_LOOPS:
                continue
            n = _CASES[name](kwargs) if name in _CASES else kwargs["count"]
            assert ln.witness == f"{n}/{n}" + (f" oracle={n}"
                                               if name in _ORACLE else "")


def test_criterion_01_twocol_exhaustive_and_random():
    t0 = time.monotonic()
    _run(1, "twocol-exh-n2")
    assert time.monotonic() - t0 < 10
    t0 = time.monotonic()
    _run(1, "twocol-rand-n3")
    assert time.monotonic() - t0 < 30


def test_criterion_02_nice_extractions_and_kappa_closed_form():
    _run(2, "nice", "kappa-closed-form")


def test_criterion_03_pi_member_corpus_and_exhaustive_match():
    _run(3, "cupping-exh", "cupping-corpus")


def test_criterion_04_traceable_runs_and_count_identity():
    _run(4, "traceable", "traceable-identity")


def test_criterion_05_thin_trace_equivalence_arms():
    _run(5, "trace-size-bound", "thin-from-trace", "kraft-four-ninths",
         "rescale-size-bound", "sd-roundtrip")


def test_criterion_06_splitting_reduction_and_mutation():
    _run(6, "split-thin", "split-mutant-detect")


def test_criterion_07_selection_oracles():
    _run(7, "select-twostar", "select-random")


def test_criterion_08_readback_round_trip():
    _run(8, "theta-roundtrip")


def test_criterion_09_pullback_image_identity():
    _run(9, "pullback-image")


def test_criterion_10_deterministic_reports():
    first = run_suite("fast", seed=123).render()
    second = run_suite("fast", seed=123).render()
    assert first.encode() == second.encode()
    assert first.startswith("# seed 123\n")
