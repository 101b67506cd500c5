"""Command-line front end: scenario-driven checks, tab-separated reports.

Every command prints a report whose first line records the seed; the
process exits 0 exactly when no line is FAIL or ERROR.
"""

from __future__ import annotations

import argparse
import os
import random
import shlex
import sys
from functools import lru_cache
from itertools import islice
from typing import Sequence

from .colorings import (EVEN_SHAPE, bushy_level_strings, kappa, kappa_cells,
                        nice_outcomes, twocol_outcome)
from .cupping import (SEARCH_MAX_LEVEL, bundle, find_pi_member,
                      pi_membership_violation)
from .errors import BudgetError, ScenarioError
from .functionals import (FunctionalTable, build_weak_splitting_tree,
                          lookup_probes, splitting_pair_count,
                          splitting_violation, weak_splitting_violation)
from .gen import random_kappa_tree, twocolourings
from .report import Report, ReportLine, _clean, errored, failed, passed
from .scenario import (Scenario, empty_scenario, parse_scenario,
                       scenario_with_seed)
from .smc import (OmegaContext, build_tprime, driver_violation, enumerate_pi,
                  omega_level, oplus_tree, pi6_gaps, readback_chains,
                  readback_violation, smc_driver_stage)
from .strings import nat_to_string, parse_string, show_string, sort_lenlex
from .suite import run_suite
from .thin import (TraceSystem, dnr_trace, hat_level_tree, selfdelim_roundtrip,
                   thin_violation, trace_from_bounded_splitting,
                   trace_from_thin)
from .traceable import declared_counts, run_flaws, run_to_horizon
from .trees import successors


# -- scenario name resolution ------------------------------------------------

def _named(sc: Scenario, kind: str, name: str):
    """The scenario's "functional", "tree" or "staged tree" of this
    name; a staged tree's name also stands for its final tree."""
    tables = {"functional": (sc.functionals,), "staged tree": (sc.staged,),
              "tree": (sc.trees,
                       {k: st.final for k, st in sc.staged.items()})}[kind]
    for table in tables:
        if name in table:
            return table[name]
    have = [k for table in tables for k in sorted(table)]
    raise ScenarioError(f"no {kind} named {name!r} (have: {have or 'none'})")


# -- verify ------------------------------------------------------------------

def _extraction_line(check_id: str, outcome) -> ReportLine:
    d, failure = outcome
    return (passed(check_id, f"d={d}") if failure is None
            else failed(check_id, _clean(failure)))


def _require_work_budget(count: int, leaf_count: int) -> None:
    """Each colouring costs about its leaf count, and no less than 16
    leaves' worth, so the work of an extraction command is bounded by
    count x max(leaves, 16)."""
    if count * max(leaf_count, 16) > 1 << 20:
        floor = ", at 16 a colouring," if leaf_count < 16 else ""
        raise BudgetError(f"{count} colourings of {leaf_count} leaves{floor} "
                          f"exceed {1 << 20} coloured leaves")


def _h_verify_twocol(ns, sc, rng):
    if not ns.exhaustive:  # before the leaves are built
        _require_work_budget(ns.count, 1 << EVEN_SHAPE.level_length(ns.n))
    lvs = bushy_level_strings(EVEN_SHAPE, ns.n)
    if ns.exhaustive and len(lvs) > 16:
        raise BudgetError(f"{len(lvs)} leaves is too many to "
                          "enumerate exhaustively")
    mode, count = ("exh", None) if ns.exhaustive else ("rand", ns.count)
    width = len(str((1 << len(lvs) if count is None else count) - 1))
    return [_extraction_line(f"twocol-{mode}-{k:0{width}d}",
                             twocol_outcome(ns.n, colors))
            for k, colors in enumerate(twocolourings(rng, lvs, count))]


def _h_verify_nice(ns, sc, rng):
    # one tree is bounded too, as building it is the memory cost
    leaf_count = 1
    for k in range(ns.n):
        leaf_count *= kappa(ns.i, k)
        if leaf_count > 1 << 16:
            raise BudgetError(f"a level-{ns.n} tree with kappa({ns.i}) "
                              f"fanout has over {1 << 16} leaves")
    _require_work_budget(ns.count, leaf_count)
    t0 = random_kappa_tree(rng, ns.i, ns.n)
    width = len(str(ns.count - 1)) if ns.count > 1 else 1
    outcomes = islice(nice_outcomes(rng, ns.i, ns.n, t0), ns.count)
    return [_extraction_line(f"nice-i{ns.i}-n{ns.n}-{k:0{width}d}", outcome)
            for k, outcome in enumerate(outcomes)]


def _h_verify_kappa(ns, sc, rng):
    # cells with i <= imax, i <= n <= nmax, each printing at most nmax + 3
    # bits, bound the work and the output before any cell is made
    m = min(ns.imax, ns.nmax)
    cells = (m + 1) * (2 * ns.nmax - m + 2) // 2 if m >= 0 else 0
    if cells * (ns.nmax + 3) > 1 << 20:
        raise BudgetError(f"{cells} kappa cells of up to {ns.nmax + 3} bits "
                          f"exceed {1 << 20} bits")
    return [passed(f"kappa-{i}-{n}", str(got)) if got == want
            else failed(f"kappa-{i}-{n}", f"{got} != {want}")
            for i, n, got, want in kappa_cells(ns.imax, ns.nmax)]


# -- run ---------------------------------------------------------------------

def _bundle_of(sc: Scenario):
    return bundle(sc.functionals[k] for k in sorted(sc.functionals))


def _h_run_cupping(ns, sc, rng):
    if ns.n > SEARCH_MAX_LEVEL:
        raise BudgetError(f"level {ns.n} exceeds the search budget")
    adv = _bundle_of(sc)
    lines = []
    for k in range(ns.n + 1):
        check_id = f"cupping-n{k}"
        try:
            node = find_pi_member(k, adv)
        except (ValueError, BudgetError) as e:
            lines.append(failed(check_id, _clean(e)))
            continue
        bad = pi_membership_violation(node, adv)
        lines.append(passed(check_id, show_string(node.tau)) if bad is None
                     else failed(check_id, _clean(bad)))
    return lines


def _h_run_traceable(ns, sc, rng):
    # each stage can double the tree, and so the time and memory: a
    # 16-stage run takes 0.5 to 0.7 s of CPU and 85 MiB at peak
    if ns.horizon > 16:
        raise BudgetError(f"horizon {ns.horizon} exceeds the budget of "
                          "16 stages")
    adv = _bundle_of(sc)
    st, stalled = run_to_horizon(adv, ns.horizon)
    lines = [passed("traceable-frontier", f"stages={ns.horizon}")
             if stalled is None
             else failed("traceable-frontier", f"empty at stage {stalled}")]
    over, fat, final_ok = run_flaws(st, adv)
    if over is None:
        lines.append(passed("traceable-counts", " ".join(
            f"{n}:{c}" for n, c in sorted(declared_counts(st).items()))))
    else:
        n, c, bound = over
        lines.append(failed("traceable-counts",
                            f"level {n} has {c} > {bound}"))
    lines.append(passed("traceable-tracesize") if fat is None
                 else failed("traceable-tracesize"))
    lines.append(passed("traceable-final") if final_ok
                 else failed("traceable-final"))
    return lines


def _h_run_smc(ns, sc, rng):
    a = nat_to_string(ns.oracle)
    # the oplus tree of an n-bit oracle has 2^(n+1) - 1 members: at 13
    # bits, 16,383 of them, a stage takes about 0.6 s and 36 MiB
    if len(a) > 13:
        raise BudgetError(f"an oracle of {len(a)} bits exceeds the budget "
                          "of 13 bits")
    psi = _named(sc, "functional", ns.psi)
    dagger = _named(sc, "tree", ns.dagger) if ns.dagger else None
    t = oplus_tree(a)
    try:
        res = smc_driver_stage(("", t), psi, ns.budget, dagger)
    except BudgetError as e:
        return [failed("smc-driver", _clean(e))]
    v = driver_violation(psi, t, res, dagger)
    if v is not None:
        return [failed("smc-driver", _clean(v))]
    return [passed("smc-driver",
                   f"{res.branch} b={show_string(res.b_next)} "
                   f"tree={len(res.t_next)}")]


MAX_FLEN = 1 << 12


def _omega_context(ns, phi: FunctionalTable) -> OmegaContext:
    """The context of the --flen identity majorant.

    The majorant is built, checked, hashed and compared whole, so a
    length past MAX_FLEN is refused before it is built.  Nothing is
    lost: under the identity majorant a certified level n takes the
    full binary tree of depth n, 2^(n+1) - 1 settled strings.
    """
    if ns.flen > MAX_FLEN:
        raise BudgetError(f"a majorant of length {ns.flen} exceeds the "
                          f"budget of {MAX_FLEN}")
    return OmegaContext(phi, tuple(range(ns.flen)))


def _h_run_pi6(ns, sc, rng):
    phi = _named(sc, "functional", ns.phi)
    # stage s walks all 2^s strings of its length, one cached lookup each
    # once s passes the table's horizon: 13 stages take 0.07 s of CPU on
    # a small profile table and 0.3 s on 4,095 axioms; each doubles that
    if ns.stages > 13:
        raise BudgetError(f"{ns.stages} stages exceed the budget of 13")
    ctx = _omega_context(ns, phi)
    final = enumerate_pi(ctx, ns.stages).final
    # stage s admits strings of length s only
    lines = [passed(f"pi6-admit-{show_string(m)}",
                    f"stage={len(m)} level={omega_level(ctx, m)}")
             for m in sort_lenlex(final)]
    bad = pi6_gaps(ctx, final)
    lines.append(passed("pi6-gap") if not bad
                 else failed("pi6-gap", show_string(sort_lenlex(bad)[0])))
    return lines


# -- check -------------------------------------------------------------------

def _h_check_thin(ns, sc, rng):
    t = _named(sc, "tree", ns.tree)
    sub = _named(sc, "tree", ns.subtree)
    v = thin_violation(t, sub)
    check_id = f"thin-{ns.tree}-{ns.subtree}"
    return [passed(check_id) if v is None else failed(check_id, _clean(v))]


def _h_check_split(ns, sc, rng):
    psi = _named(sc, "functional", ns.psi)
    t = _named(sc, "tree", ns.tree)
    _require_pair_budget(t, ns.delayed)
    v = splitting_violation(psi, t, delayed=ns.delayed, hat=ns.hat)
    check_id = f"split-{ns.psi}-{ns.tree}"
    return [passed(check_id) if v is None
            else failed(check_id, ",".join(map(show_string, v)))]


def _require_scan_budget(length: int,
                         tables: Sequence[FunctionalTable]) -> None:
    """Refuse a scan that evaluates tables on all 2^(length+1) strings up
    to length, before it starts: past length 13, or past 2^21 strings
    times the sigma-index probes of looking every table up once at
    each argument."""
    # with tables that converge at every argument on every oracle bit,
    # check weaksplit --budget 13 takes about 2 s and each step doubles it
    if length > 13:
        raise BudgetError(f"strings up to length {length} exceed the "
                          "budget of length 13")
    strings = 1 << max(length + 1, 0)
    probes = sum(map(lookup_probes, tables))
    if strings * probes > 1 << 21:
        raise BudgetError(f"{strings} strings at {probes} probes each "
                          f"exceed {1 << 21}")


def _require_pair_budget(t, delayed: bool = False) -> None:
    """Refuse a splitting check that compares more than 2^20 pairs of
    outputs, before any output is computed."""
    # a root with 1,448 leaves, whose outputs never split, takes about
    # 0.5 s in plain mode, and a root with two children of 1,024 leaves
    # each about 0.7 s in delayed mode; the cost grows with the pairs
    pairs = splitting_pair_count(t, delayed)
    if pairs > 1 << 20:
        raise BudgetError(f"{pairs} output pairs exceed {1 << 20}")


def _h_check_weaksplit(ns, sc, rng):
    psi = _named(sc, "functional", ns.psi)
    phi = _named(sc, "functional", ns.phi)
    _require_scan_budget(ns.budget, (psi, phi))
    w = build_weak_splitting_tree(psi, phi, ns.budget)
    v = weak_splitting_violation(w, psi, parse_string(ns.path))
    check_id = f"weaksplit-{ns.psi}-{ns.phi}"
    return [passed(check_id, f"members={len(w.tree)}") if v is None
            else failed(check_id, _clean(v))]


def _h_check_theta(ns, sc, rng):
    phi = _named(sc, "functional", ns.phi)
    st = _named(sc, "staged tree", ns.staging)
    ctx = _omega_context(ns, phi)
    succ = {m: frozenset(successors(st.final, m)) for m in st.final}
    tp, theta = build_tprime(ctx, st, succ)
    v = readback_violation(st.final, tp, theta)
    lines = [passed("theta-consistency", f"axioms={len(theta.axioms)}")
             if v is None else failed("theta-consistency", _clean(v))]
    for x, chain, bad in readback_chains(st.final, tp, theta):
        check_id = f"theta-{show_string(x)}"
        witness = ",".join(show_string(p) for p in chain)
        lines.append(passed(check_id, witness) if bad is None
                     else failed(check_id, witness))
    return lines


# -- trace -------------------------------------------------------------------

def _trace_lines(ts: TraceSystem, prefix: str) -> list[ReportLine]:
    lines = []
    for n in range(len(ts.p)):
        vals = ",".join(map(str, sorted(ts.values_at(n)))) or "-"
        lines.append(passed(f"{prefix}-{n:02d}",
                            f"p={ts.p[n]} values={vals}"))
    return lines


def _h_trace_from_thin(ns, sc, rng):
    psi = _named(sc, "functional", ns.psi)
    _require_scan_budget(ns.maxlen, (psi,))
    sub = _named(sc, "tree", ns.subtree)
    return _trace_lines(trace_from_thin(psi, hat_level_tree(psi, ns.maxlen),
                                        sub), "trace")


def _h_trace_from_split(ns, sc, rng):
    psi = _named(sc, "functional", ns.psi)
    t = _named(sc, "tree", ns.tree)
    _require_pair_budget(t)
    return _trace_lines(trace_from_bounded_splitting(psi, t, ns.m),
                        "tracesplit")


def _h_trace_dnr(ns, sc, rng):
    tables = _bundle_of(sc)
    if not tables:
        raise ScenarioError("dnr needs at least one functional")
    return _trace_lines(dnr_trace(tables), "dnr")


# -- encode / suite ------------------------------------------------------------

def _h_encode_sd(ns, sc, rng):
    code, ok = selfdelim_roundtrip(ns.n, ns.m)
    check_id = f"sd-{ns.n}-{ns.m}"
    return [passed(check_id, code) if ok else failed(check_id, code)]


def _h_suite(ns, sc, rng):
    return list(run_suite(ns.level, sc.seed,
                          sc.params.get("mutate", 0)).lines)


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ScenarioError(message)


def _common(p):
    p.add_argument("--scenario", metavar="FILE",
                   help="scenario file providing named objects")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")


def _int(default=None) -> dict:
    return {"type": int, "default": default}


_FLAG = {"action": "store_true"}
# options that several leaves take; --sub keeps off the dest sub, which
# holds the leaf's name
_PSI = ("--psi", {"default": "psi"})
_PHI = ("--phi", {"default": "phi"})
_TREE = ("--tree", {"required": True})
_SUB = ("--sub", {"required": True, "dest": "subtree", "metavar": "SUB"})
_FLEN = ("--flen", _int())


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="branchlab", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    subs: dict[str, argparse._SubParsersAction] = {}

    def leaf(group, name, handler, *options):
        if group not in subs:
            subs[group] = groups.add_parser(group).add_subparsers(
                dest="sub", required=True)
        p = subs[group].add_parser(name)
        p.set_defaults(handler=handler, key=f"{group}:{name}")
        _common(p)
        for flag, settings in options:
            p.add_argument(flag, **settings)
        return p

    p = leaf("verify", "twocol", _h_verify_twocol, ("--n", _int(1)))
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", **_FLAG)
    mode.add_argument("--count", **_int(100))
    leaf("verify", "nice", _h_verify_nice,
         ("--i", _int(0)), ("--n", _int(2)), ("--count", _int(100)))
    leaf("verify", "kappa", _h_verify_kappa,
         ("--imax", _int(6)), ("--nmax", _int(10)))
    leaf("run", "cupping", _h_run_cupping, ("--n", _int(2)))
    leaf("run", "traceable", _h_run_traceable, ("--horizon", _int(6)))
    leaf("run", "smc", _h_run_smc,
         _PSI, ("--dagger", {}), ("--oracle", _int()), ("--budget", _int()))
    leaf("run", "pi6", _h_run_pi6, _PHI, ("--stages", _int()), _FLEN)
    leaf("check", "thin", _h_check_thin, _TREE, _SUB)
    leaf("check", "split", _h_check_split,
         _PSI, _TREE, ("--delayed", _FLAG), ("--hat", _FLAG))
    leaf("check", "weaksplit", _h_check_weaksplit,
         _PSI, _PHI, ("--budget", _int(6)), ("--path", {"default": "e"}))
    leaf("check", "theta", _h_check_theta,
         _PHI, ("--staging", {"required": True}), _FLEN)
    leaf("trace", "from-thin", _h_trace_from_thin,
         _PSI, _SUB, ("--maxlen", _int(6)))
    leaf("trace", "from-split", _h_trace_from_split,
         _PSI, _TREE, ("--m", _int(2)))
    leaf("trace", "dnr", _h_trace_dnr)
    leaf("encode", "sd", _h_encode_sd, ("n", _int()), ("m", _int()))
    leaf("suite", "fast", _h_suite).set_defaults(level="fast")
    leaf("suite", "full", _h_suite).set_defaults(level="full")
    return top


_parser = lru_cache(maxsize=1)(build_parser)


# options left unset fall back to the scenario's [params], then to these
_PARAM_DEFAULTS = {"oracle": 0, "flen": 9, "stages": 3, "budget": 8}


def run_command(cmd, scenario: Scenario) -> Report:
    """Dispatch one command string (or token list) against a scenario."""
    tokens = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
    ns = _parser().parse_args(tokens)
    sc = scenario
    if getattr(ns, "scenario", None):
        try:
            with open(ns.scenario, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise ScenarioError(f"cannot read scenario {ns.scenario!r}: "
                                f"{e.strerror or e}") from e
        sc = parse_scenario(data)
    if ns.seed is not None:
        sc = scenario_with_seed(sc, ns.seed)
    for key, default in _PARAM_DEFAULTS.items():
        if getattr(ns, key, default) is None:
            setattr(ns, key, sc.params.get(key, default))
    rng = random.Random(f"{sc.seed}:{ns.key}")
    try:
        lines = ns.handler(ns, sc, rng)
    except (ValueError, RuntimeError) as e:
        lines = [errored(ns.key.replace(":", "-") + "-error", _clean(e))]
    return Report(sc.seed, tuple(lines))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        report = run_command(args, empty_scenario())
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        print(report.render(), flush=True)
    except BrokenPipeError:  # the reader left; so must the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
