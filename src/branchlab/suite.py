"""Seeded property-suite runner.

Each registered check draws from its own deterministically seeded
generator, so a fixed seed reproduces the report byte for byte.  The
fast level sticks to exhaustive small cases and smoke runs; the full
level runs every check at its acceptance scale.  The registry,
_CHECKS, is the one place a check is named and scaled: run_suite
hands each check its id.

The suite owns the registry, the draws, the brute-force oracles and
the wording of its lines, not the verifiers: each construction's
verifier is public in the construction's own module (selection,
readback, pi6 gaps and the driver stage in smc, a finished run in
traceable, the extractions in colorings, the pair code in thin), and
the command line calls the same one.

A loop check is a lazy stream of verdicts, one per case: None for a
clean case, the reason for a flawed one, and it is registered by its
per-case judge.  _tally is the one place that counts cases and renders
the line, PASS N/N or FAIL with the first flaw.  The first flaw ends
the stream before the next case is drawn, so every case up to it made
the draws of a clean run, and the FAIL line names that case.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, islice, product, starmap

from .colorings import (EVEN_SHAPE, Coloring, bushy_level_strings,
                        extract_twocol, kappa_cells, nice_outcomes,
                        twocol_outcome, verify_extraction)
from .cupping import (EMPTY_BUNDLE, bundle, find_pi_member,
                      materialize_pi_star, pi_membership_violation)
from .errors import ScenarioError
from .functionals import (FunctionalTable, _checked_outputs, _image_tree,
                          _pullback_tree)
from .gen import (breaks_readback_split, odd_readback_psi,
                  random_functional_table, random_kappa_tree,
                  random_pi_staging, random_readback_splitting_subtree,
                  random_selection_scenario, random_weak_staged_tree,
                  spined_weak_tree, staged_context, twocolourings)
from .report import Report, ReportLine, _clean, errored, failed, passed
from .smc import (build_tprime, driver_violation, enumerate_pi, omega_level,
                  oplus_tree, pi6_gaps, readback_violation, select_extensions,
                  selection_violation, smc_driver_stage, t_of)
from .strings import compatible, show_string, sort_lenlex, string_to_nat
from .thin import (TraceSystem, encode_tuple, hat_level_tree, is_thin,
                   rescale_trace, selfdelim_roundtrip, spaced_level,
                   spacing_bound_limit, spacing_bound_partial,
                   splitting_to_thin, thin_from_trace, trace_from_thin)
from .traceable import run_flaws, run_to_horizon
from .trees import Tree, leaves, level_map, level_of, successors


def _tally(check_id: str, verdicts) -> ReportLine:
    """PASS N/N over N clean verdicts, or FAIL with the first flaw; the
    stream is not read past that flaw."""
    total = 0
    for bad in verdicts:
        if bad is not None:
            return failed(check_id, _clean(bad))
        total += 1
    return passed(check_id, f"{total}/{total}")


def _cases(count: int, judge, *args, **kwargs):
    """The verdicts of count cases, each drawn and judged by
    judge(*args, **kwargs); a flaw is prefixed with its case as
    "case K: "."""
    for k in range(count):
        bad = judge(*args, **kwargs)
        yield None if bad is None else f"case {k}: {bad}"


def _loop(judge):
    """The check of count cases, each drawn and judged by
    judge(rng, **kwargs)."""
    def check(check_id, rng, count, **kwargs):
        return [_tally(check_id, _cases(count, judge, rng, **kwargs))]
    return check


# -- colourings ---------------------------------------------------------------

def _chk_twocol(check_id, rng, n, count=None):
    # every colouring of level n unless a count is given
    outcomes = (twocol_outcome(n, colors) for colors in twocolourings(
        rng, bushy_level_strings(EVEN_SHAPE, n), count))
    return [_tally(check_id, (bad if d is None or bad is None
                              else "colouring " + bad for d, bad in outcomes))]


def _chk_twocol_mutant(check_id, rng):
    # deliberately spoil one extraction; the verifier must notice
    lvs = bushy_level_strings(EVEN_SHAPE, 1)
    colors = {s: rng.getrandbits(1) for s in lvs}
    d, sub = extract_twocol(EVEN_SHAPE, 1, Coloring(colors, 2))
    leaf = min(leaves(sub))
    flipped = dict(colors)
    flipped[leaf] = d
    if verify_extraction(EVEN_SHAPE, lambda k: 2, 1,
                         Coloring(flipped, 2), d, sub):
        return [errored(check_id, "flipped colour went undetected")]
    return [failed(check_id, f"flipped {show_string(leaf)} to colour {d}")]


def _chk_nice(check_id, rng, i_max, per_cell):
    lines = []
    for i in range(i_max + 1):
        for n in range(i, i + 3):
            t0 = random_kappa_tree(rng, i, n)
            outcomes = islice(nice_outcomes(rng, i, n, t0), per_cell)
            lines.append(_tally(f"{check_id}-i{i}-n{n}", (
                bad if d is None or bad is None else bad + " rejected"
                for d, bad in outcomes)))
    return lines


def _chk_kappa(check_id, rng, imax, nmax):
    return [_tally(check_id, (
        None if got == want else f"kappa({i},{n}) = {got}"
        for i, n, got, want in kappa_cells(imax, nmax)))]


# -- cupping ------------------------------------------------------------------

def _crafted_blockers():
    const = FunctionalTable(tuple(("", n, 0, 1) for n in range(3)))
    readback = FunctionalTable(tuple((b, n, int(b), 1)
                                     for b in "01" for n in range(3)))
    return [bundle([const]), bundle([readback]), bundle([const, readback])]


def _chk_cupping_exhaustive(check_id, rng):
    lines = []
    for n in (0, 1):
        star = materialize_pi_star(n)
        node = find_pi_member(n, EMPTY_BUNDLE)
        ok = node in star and pi_membership_violation(node,
                                                      EMPTY_BUNDLE) is None
        lines.append((passed if ok else failed)(f"{check_id}-n{n}",
                                                show_string(node.tau)))
    size = len(materialize_pi_star(1))
    lines.append((passed if size == 12 else failed)("cupping-pi1-size",
                                                    str(size)))
    return lines


def _chk_cupping_corpus(check_id, rng, bundles, nmax):
    corpus = [EMPTY_BUNDLE] + _crafted_blockers()
    while len(corpus) < bundles:
        tables = [random_functional_table(rng,
                                          axioms=rng.choice((5, 40, 200)))
                  for _ in range(rng.randint(1, 3))]
        corpus.append(bundle(tables))
    star1 = {0: set(materialize_pi_star(0)), 1: set(materialize_pi_star(1))}
    return [_tally(check_id, (
        _pi_member_flaw(k, n, adv, star1)
        for k, adv in enumerate(corpus) for n in range(nmax + 1)))]


def _pi_member_flaw(k: int, n: int, adv, star1):
    """Why the level-n pi member found against bundle k, adv, is wrong,
    or None; star1 holds the materialized classes of levels 0 and 1."""
    try:
        node = find_pi_member(n, adv)
    except (ValueError, RuntimeError) as e:
        return f"bundle {k} n={n}: {_clean(e)}"
    if pi_membership_violation(node, adv) is not None:
        return f"bundle {k} n={n}: filtered out"
    if n <= 1 and node not in star1[n]:
        return f"bundle {k} n={n}: outside the materialized class"
    return None


# -- traceable ----------------------------------------------------------------

def _chk_traceable(check_id, rng, runs, horizon):
    # every run reaches the horizon; each of its four verdicts has a line
    rows = []
    for k in range(runs):
        if k % 3 == 0:
            adv = EMPTY_BUNDLE
        else:
            adv = bundle([random_functional_table(rng,
                                                  axioms=rng.randint(2, 30))
                          for _ in range(rng.randint(1, 2))])
        st, stalled = run_to_horizon(adv, horizon)
        over, fat, final_ok = run_flaws(st, adv)
        rows.append([None if bad is None else f"run {k}: {bad}" for bad in (
            stalled and f"empty frontier at stage {stalled}",
            over and "{1} nodes at level {0} exceed {2}".format(*over),
            fat and "trace ({0},{1}) holds {2} values".format(*fat),
            None if final_ok else "a guarded branch survived")])
    return [_tally(f"{check_id}-{name}", (row[c] for row in rows))
            for c, name in enumerate(("frontier", "counts", "tracesize",
                                      "pdiag"))]


def _chk_factorial_identity(check_id, rng, nmax):
    sides = ((n, 2 * (n + 2) * (1 << n) * math.factorial(n + 1),
              (1 << (n + 1)) * math.factorial(n + 2)) for n in range(nmax + 1))
    return [_tally(check_id, (
        None if lhs == rhs else f"n={n}: {lhs} != {rhs}"
        for n, lhs, rhs in sides))]


# -- thin / trace arms ---------------------------------------------------------

def _random_two_branching_sub(rng, t):
    sub, stack = {""}, [""]
    while stack:
        node = stack.pop()
        kids = list(successors(t, node))
        rng.shuffle(kids)
        for kid in kids[:2]:
            sub.add(kid)
            stack.append(kid)
    return sub


def _trace_size_flaw(rng):
    psi = random_functional_table(rng, axioms=rng.randint(4, 16))
    t = hat_level_tree(psi, 5)
    sub = _random_two_branching_sub(rng, t)
    if not is_thin(t, sub):
        return "spine subtree not thin"
    ts = trace_from_thin(psi, t, sub)
    return next((f"{len(vals)} values at position {n}"
                 for n, vals in ts.w.items() if len(vals) > 1 << (n + 1)),
                None)


def _thin_from_trace_flaw(rng, depth):
    t = spined_weak_tree(rng, depth=rng.randint(4, depth),
                         shoots=rng.randint(2, 8)).final
    buckets = level_map(t)
    w = {}
    for n in range(4):
        pool = list(buckets.get(spaced_level(n), ()))
        rng.shuffle(pool)
        w[n] = frozenset(string_to_nat(s)
                         for s in pool[:rng.randint(1, max(1, n))])
    ts = TraceSystem(tuple(max(1, n) for n in range(4)), w)
    tp = thin_from_trace(t, ts)
    return (None if "" in tp and is_thin(t, tp)
            else "output not thin")


def _chk_spacing_bound(check_id, rng):
    lim = spacing_bound_limit(0)
    parts = [spacing_bound_partial(0, k) for k in range(1, 40)]
    ok = (lim == Fraction(4, 9) < 1
          and all(a < b for a, b in zip(parts, parts[1:]))
          and all(p < lim for p in parts)
          and lim - parts[-1] < Fraction(1, 10 ** 9))
    return [(passed if ok else failed)(check_id, str(lim))]


def _rescale_flaw(rng):
    cuts = sorted({rng.randint(1, 2)}
                  | set(rng.sample(range(3, 14), rng.randint(2, 4))))
    p = (0, *cuts)
    horizon = len(p)
    f = tuple(rng.randrange(50) for _ in range(p[-1] + horizon))
    w = {}
    for m in range(horizon):
        need = p[m + 1] if m + 1 < horizon else max(horizon, p[-1] + 1)
        vals = {encode_tuple(f[:need])}
        w[m] = frozenset(vals if p[m] else ())
    out = rescale_trace(TraceSystem(p, w))
    return next((f"position {n} misses f or runs fat"
                 for n in range(p[1], horizon)
                 if f[n] not in out.values_at(n)
                 or len(out.values_at(n)) > n), None)


def _selfdelim_flaw(n: int, m: int):
    code, ok = selfdelim_roundtrip(n, m)
    return None if ok else f"({n},{m}) -> {code}"


def _chk_selfdelim(check_id, rng, top):
    return [_tally(check_id, starmap(
        _selfdelim_flaw, product(range(1, top + 1), repeat=2)))]


# -- splitting reductions ------------------------------------------------------

def _split_thin_flaw(rng):
    t = random_weak_staged_tree(rng, steps=rng.randint(12, 25)).final
    sub = random_readback_splitting_subtree(rng, t)
    r = splitting_to_thin(t, sub)
    return None if r.thin_ok and r.witness is None else str(r.witness)


def _chk_split_mutant(check_id, rng, tries):
    # graft a compatible-image string onto a clean splitting subset and
    # make sure the reduction reports the break
    found = 0
    for _ in range(tries):
        final = random_weak_staged_tree(rng, steps=20).final
        sub = set(random_readback_splitting_subtree(rng, final))
        spoil = next((cand for cand in sort_lenlex(final - sub)
                      if any(breaks_readback_split(final, cand, y)
                             for y in sub)), None)
        if spoil is None:
            continue
        r = splitting_to_thin(final, sub | {spoil})
        if r.witness is None:
            return [failed(check_id, f"broken split at {show_string(spoil)} "
                                     "went unreported")]
        found += 1
    if found == 0:
        return [errored(check_id, "no mutant constructed")]
    return [passed(check_id, f"{found} mutants caught")]


# -- packing selection ----------------------------------------------------------

def _selection_exhaustive_flaw(ctx, nodes, sigma, res):
    cands = []
    for nm, _ in nodes:
        t_i = t_of(ctx.phi, nm)
        want = omega_level(ctx, nm)
        pool = sort_lenlex(x for x in t_i
                           if level_of(t_i, x) == want
                           and x.startswith(sigma))
        if len(pool) > 12:
            return None  # out of oracle scope
        cands.append(list(combinations(pool, 2)))
    valid = []
    for combo in product(*cands):
        flat = [s for pair in combo for s in pair]
        if all(not compatible(a, b) for a, b in combinations(flat, 2)):
            valid.append(tuple(frozenset(p) for p in combo))
    if not valid:
        return "oracle finds no valid assignment at all"
    ours = tuple(frozenset(res.sigma_pairs[i]) for i in range(len(nodes)))
    if ours not in valid:
        return "selection not among the oracle's valid assignments"
    return None


def _chk_selection_twostar(check_id, rng):
    ctx = staged_context({"": 0, "1": 2, "10": 4, "11": 4})
    nodes = [("10", 1), ("11", 1)]
    res = select_extensions(ctx, "1", nodes, "00")
    ok = (res.sigma_pairs == {0: ("0000", "0001"), 1: ("0010", "0011")}
          and res.r == (Fraction(1),)
          and selection_violation(ctx, nodes, "00", res) is None
          and _selection_exhaustive_flaw(ctx, nodes, "00", res) is None)
    return [passed(check_id, "r=1") if ok
            else failed(check_id, str(res.sigma_pairs))]


def _selection_random_flaw(rng):
    ctx, tau, nodes, sigma = random_selection_scenario(rng)
    res = select_extensions(ctx, tau, nodes, sigma)
    return (selection_violation(ctx, nodes, sigma, res)
            or _selection_exhaustive_flaw(ctx, nodes, sigma, res))


def _chk_selection_random(check_id, rng, count):
    # every clean case also passed the oracle, so its count is N of N/N
    line = _tally(check_id, _cases(count, _selection_random_flaw, rng))
    if line.status == "PASS":
        line = passed(check_id, f"{line.witness} "
                                f"oracle={line.witness.split('/')[0]}")
    return [line]


# -- readback round trip --------------------------------------------------------

def _theta_flaw(rng):
    ctx, st, succ = random_pi_staging(rng)
    return readback_violation(st.final, *build_tprime(ctx, st, succ))


# -- image / pullback ------------------------------------------------------------

def _pullback_flaw(rng):
    a = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
    t0 = Tree(_random_two_branching_sub(rng, oplus_tree(a)))
    outs = _checked_outputs(odd_readback_psi(a), t0, hat=False)
    img = _image_tree(t0, outs)[0]
    back = _pullback_tree(t0, img, outs)
    return f"pullback lost {len(t0 ^ back)} strings" if back != t0 else None


# -- enumeration / driver smoke ---------------------------------------------------

def _chk_pi6_chain(check_id, rng):
    ctx = staged_context({"": 0, "1": 2, "11": 4, "111": 6})
    st = enumerate_pi(ctx, 3)
    ok = (st.final == frozenset({"", "1", "11", "111"})
          and not pi6_gaps(ctx, st.final))
    return [passed(check_id, "4 admitted") if ok
            else failed(check_id, ",".join(show_string(m)
                                           for m in sort_lenlex(st.final)))]


def _smc_driver_flaw(rng):
    a = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
    t = oplus_tree(a)
    psi = FunctionalTable(tuple(
        (m, len(m) // 2 - 1, rng.getrandbits(1), 1)
        for m in sort_lenlex(t) if m))
    return driver_violation(psi, t, smc_driver_stage(("", t), psi, 64))


# -- determinism -----------------------------------------------------------------

def _chk_determinism(check_id, rng):
    probe_seed = rng.randrange(1 << 30)

    def render_once():
        sub = random.Random(f"{probe_seed}:probe")
        lines = (_chk_selection_random("select-random", sub, 3)
                 + [_tally("split-thin", _cases(5, _split_thin_flaw, sub))])
        return Report(probe_seed, tuple(lines)).render()

    first, second = render_once(), render_once()
    return [passed(check_id, f"bytes={len(first)}")
            if first == second else failed(check_id)]


# -- registry ---------------------------------------------------------------------

# (id, check, fast kwargs or None, full kwargs or None); each check is
# called as check(id, rng, **kwargs), and a loop check is registered
# by its per-case judge as _loop(judge), with the case count in kwargs
_CHECKS = (
    ("twocol-exh-n0", _chk_twocol, {"n": 0}, {"n": 0}),
    ("twocol-exh-n1", _chk_twocol, {"n": 1}, {"n": 1}),
    ("twocol-exh-n2", _chk_twocol, None, {"n": 2}),
    ("twocol-rand-n2", _chk_twocol, {"n": 2, "count": 50}, None),
    ("twocol-rand-n3", _chk_twocol, None, {"n": 3, "count": 10_000}),
    ("nice", _chk_nice, {"i_max": 1, "per_cell": 25},
     {"i_max": 2, "per_cell": 1112}),
    ("kappa-closed-form", _chk_kappa, {"imax": 3, "nmax": 6},
     {"imax": 6, "nmax": 10}),
    ("cupping-exh", _chk_cupping_exhaustive, {}, {}),
    ("cupping-corpus", _chk_cupping_corpus, {"bundles": 10, "nmax": 2},
     {"bundles": 100, "nmax": 3}),
    ("traceable", _chk_traceable, {"runs": 5, "horizon": 4},
     {"runs": 100, "horizon": 8}),
    ("traceable-identity", _chk_factorial_identity, {"nmax": 8},
     {"nmax": 8}),
    ("trace-size-bound", _loop(_trace_size_flaw), {"count": 20},
     {"count": 100}),
    ("thin-from-trace", _loop(_thin_from_trace_flaw),
     {"count": 30, "depth": 8}, {"count": 1000, "depth": 12}),
    ("kraft-four-ninths", _chk_spacing_bound, {}, {}),
    ("rescale-size-bound", _loop(_rescale_flaw), {"count": 20},
     {"count": 100}),
    ("sd-roundtrip", _chk_selfdelim, {"top": 16}, {"top": 64}),
    ("split-thin", _loop(_split_thin_flaw), {"count": 100}, {"count": 1000}),
    ("split-mutant-detect", _chk_split_mutant, {"tries": 40},
     {"tries": 120}),
    ("select-twostar", _chk_selection_twostar, {}, {}),
    ("select-random", _chk_selection_random, {"count": 10}, {"count": 50}),
    ("theta-roundtrip", _loop(_theta_flaw), {"count": 5}, {"count": 50}),
    ("pullback-image", _loop(_pullback_flaw), {"count": 100}, {"count": 1000}),
    ("pi6-chain", _chk_pi6_chain, {}, {}),
    ("smc-driver", _loop(_smc_driver_flaw), {"count": 10}, {"count": 30}),
    ("report-determinism", _chk_determinism, {}, {}),
)


def run_suite(level: str, seed: int = 0, mutate: int = 0) -> Report:
    """Run the registered checks for a level; lines sorted by check id."""
    if level not in ("fast", "full"):
        raise ScenarioError(f"unknown suite level {level!r}")
    lines: list[ReportLine] = []
    for name, check, fast_kw, full_kw in _CHECKS:
        kwargs = fast_kw if level == "fast" else full_kw
        if kwargs is None:
            continue
        rng = random.Random(f"{seed}:{name}")
        try:
            lines.extend(check(name, rng, **kwargs))
        except (ValueError, RuntimeError) as e:
            lines.append(errored(name, _clean(e)))
    if mutate:
        lines.extend(_chk_twocol_mutant("twocol-mutant",
                                        random.Random(f"{seed}:mutant")))
    lines.sort(key=lambda ln: ln.check_id)
    return Report(seed, tuple(lines))
