"""The benchmark's four workloads.

Each workload makes the inputs of case k from the seed with the
library's own generators, and runs one construction plus its verifier
per case.  ``run`` returns (verified, output).  The output is a
canonical text form of what the construction returned; the benchmark
hashes it into the workload digest.

Case k of extract, witness and stages draws from
``random.Random(f"{seed}:{name}:{k}")`` alone, so its inputs do not
depend on how many cases ran before it.  packing hands out its draws in
a fixed cycle of depths instead (see ``_DepthStream``).

Per-case costs on a 2-core x86 machine under CPython 3.11:

- extract: about 0.8 ms a case, uniform.
- witness: about 0.5 s a case, uniform.
- stages: a fixed cycle of six cases.  The three pruning runs take 20 to
  350 ms and the three driver stages 10 to 90 ms.
- packing: selection and readback alternate, with a heavy tail: the
  median case takes about 10 ms and the slowest about 200 ms.
  Drawing its inputs takes longer than running them, off the case clock.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Any, Callable

from branchlab import (colorings, cupping, functionals, gen, smc, strings,
                       traceable, trees)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], Any]  # (seed, case index) -> inputs
    run: Callable[[Any], tuple[bool, str]]
    ref_cases: int  # cases the reference digest and peak memory cover

    def inputs(self, seed: int, k: int):
        return self.make(seed, k)


def _case_rng(seed: int, name: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{k}")


def _tree_text(t) -> str:
    return ",".join(strings.show_string(m) for m in strings.sort_lenlex(t))


# -- extract: two-colour extraction at level 3 of the even shape ------------

EXTRACT_LEVEL = 3


@cache
def _extract_leaves():
    return colorings.bushy_level_strings(colorings.EVEN_SHAPE, EXTRACT_LEVEL)


def _make_extract(seed, k):
    rng = _case_rng(seed, "extract", k)
    return {s: rng.getrandbits(1) for s in _extract_leaves()}


def _run_extract(colors):
    c = colorings.Coloring(colors, 2)
    d, sub = colorings.extract_twocol(colorings.EVEN_SHAPE, EXTRACT_LEVEL, c)
    ok = colorings.verify_extraction(colorings.EVEN_SHAPE, lambda n: 2,
                                     EXTRACT_LEVEL, c, d, sub)
    return ok, f"{d}|{_tree_text(sub)}"


# -- witness: level-3 class members against adversary bundles -----------------

WITNESS_LEVEL = 3


def _make_witness(seed, k):
    rng = _case_rng(seed, "witness", k)
    # the suite's corpus draw: one to three tables of 5, 40 or 200 axioms
    return cupping.bundle(
        gen.random_functional_table(rng, axioms=rng.choice((5, 40, 200)))
        for _ in range(rng.randint(1, 3)))


def _run_witness(adv):
    node = cupping.find_pi_member(WITNESS_LEVEL, adv)
    ok = cupping.pi_membership_violation(node, adv) is None
    cols = ",".join(map(str, node.psi_values))
    return ok, (f"{strings.show_string(node.tau)}|{cols}|"
                f"{_tree_text(node.t_tau)}")


# -- stages: traceable pruning and the packing driver stage ---------------------

PRUNE_HORIZON = 8
DRIVER_BUDGET = 64


def _two_branching_refinement(rng, img, depth):
    """A random two-branching subtree of the image, which is the full
    binary tree of the given depth: each kept string gets one extension
    through 0 and one through 1, of random length, or stays a leaf."""
    sub, todo = {""}, [""]
    while todo:
        x = todo.pop()
        room = depth - len(x)
        if room < 1 or (x and rng.random() < 0.25):
            continue
        for bit in "01":
            y = x + bit + "".join(rng.choice("01")
                                  for _ in range(rng.randrange(room)))
            sub.add(y)
            todo.append(y)
    if not sub <= img:
        raise ValueError("refinement left the image tree")
    return frozenset(sub)


def _make_stages(seed, k):
    # A fixed cycle of six cases: pruning against the empty bundle and
    # against two random bundles, and driver stages on oracles of
    # length 4, 5 and 5.
    rng = _case_rng(seed, "stages", k)
    slot = k % 6
    if slot == 0:
        return ("prune", cupping.EMPTY_BUNDLE)
    if slot in (2, 4):
        return ("prune", cupping.bundle(
            gen.random_functional_table(rng, axioms=rng.randint(2, 30))
            for _ in range(rng.randint(1, 2))))
    length = 4 if slot == 1 else 5
    a = "".join(rng.choice("01") for _ in range(length))
    t = smc.oplus_tree(a)
    psi = gen.odd_readback_psi(a)
    img = functionals.image_tree(psi, t, hat=True)
    return ("driver", (a, t, psi, _two_branching_refinement(rng, img,
                                                            length)))


def _prune_flaw(st, adv, frontier_empty):
    if frontier_empty is not None:
        return f"empty frontier at stage {frontier_empty}"
    for n, c in sorted(traceable.declared_counts(st).items()):
        if n <= 4 and c > traceable.node_count_bound(n):
            return f"{c} nodes at level {n}"
    for i, by_n in traceable.extract_trace(st).per_i.items():
        for n, ds in by_n.items():
            if len(ds) > traceable.trace_bound_pair(i, n)[1]:
                return f"trace ({i},{n}) holds {len(ds)} values"
    if not traceable.verify_final_nodes(st, adv):
        return "a guarded branch survived"
    return None


def _run_prune(adv):
    st = traceable.init_state()
    frontier_empty = None
    for s in range(PRUNE_HORIZON):
        st = traceable.run_stage(st, adv)
        if frontier_empty is None and not traceable.frontier(st):
            frontier_empty = s + 1
    flaw = _prune_flaw(st, adv, frontier_empty)
    return flaw is None, (f"prune|{sorted(st.tuples)}|"
                          f"{_tree_text(st.terminal)}|{len(st.nodes)}")


def _run_driver(case):
    a, t, psi, refine = case
    res = smc.smc_driver_stage(("", t), psi, DRIVER_BUDGET, refine)
    nxt = res.t_next
    ok = (res.branch == "splitting-subtree"
          and nxt <= t and res.b_next in nxt
          and all(len(trees.successors(nxt, m)) in (0, 2) for m in nxt)
          and functionals.is_splitting_tree(psi, nxt, hat=True)
          and functionals.image_tree(psi, nxt, hat=True) == refine)
    return ok, f"driver|{a}|{strings.show_string(res.b_next)}|{_tree_text(nxt)}"


def _run_stages(case):
    kind, payload = case
    return _run_prune(payload) if kind == "prune" else _run_driver(payload)


# -- packing: extension selection and the readback round trip --------------------

READBACK_EVENTS = 2


def _deepest(phi) -> int:
    """Length of the deepest string a profile table settles."""
    return max(len(strings.nat_to_string(arg)) for _, arg, _, _ in phi.axioms)


# Each kind's cases cycle through these depths of the deepest string
# its profile table settles.  They hold about the mix the generators
# draw below depth 8, but fixed: the dear depth-6 cases take ten times
# the median, so a mix left to chance would add to the seed-to-seed
# spread of cases_per_s.  Inputs that reach depth 8 take 0.4 to 3 s a
# case and are dropped, as too few of them would fit in a run to repeat.
SELECT_DEPTHS = (6, 6, 4, 6, 6, 6, 6, 4, 6, 6)
READBACK_DEPTHS = (2, 4, 6, 4, 2, 6, 4, 2, 6, 4)
PACKING_CYCLE = tuple(
    slot for pair in zip((("select", d) for d in SELECT_DEPTHS),
                         (("readback", d) for d in READBACK_DEPTHS))
    for slot in pair)


class _DepthStream:
    """The inputs of one packing kind, in draw order, handed out by depth.

    Draw j comes from ``random.Random(f"{seed}:packing:{kind}:{j}")``
    alone.  The n-th input asked for at a depth is the n-th draw of that
    depth; a draw waits until a slot asks for its depth, and draws at
    depths the cycle never asks for are dropped.  An input handed out
    once is drawn again if asked for again."""

    def __init__(self, seed: int, kind: str):
        self.seed, self.kind = seed, kind
        self.wanted = set(SELECT_DEPTHS if kind == "select"
                          else READBACK_DEPTHS)
        self.at_depth: dict[int, list[int]] = defaultdict(list)
        self.waiting: dict[int, Any] = {}
        self.drawn = 0

    def _draw(self, j: int):
        rng = random.Random(f"{self.seed}:packing:{self.kind}:{j}")
        if self.kind == "select":
            return gen.random_selection_scenario(rng)
        return gen.random_pi_staging(rng, max_events=READBACK_EVENTS)

    def nth(self, depth: int, n: int):
        while len(self.at_depth[depth]) <= n:
            j, self.drawn = self.drawn, self.drawn + 1
            case = self._draw(j)
            d = _deepest(case[0].phi)
            self.at_depth[d].append(j)
            if d in self.wanted:
                self.waiting[j] = case
        j = self.at_depth[depth][n]
        case = self.waiting.pop(j, None)
        return case if case is not None else self._draw(j)


@cache
def _depth_stream(seed: int, kind: str) -> _DepthStream:
    """One stream per seed and kind for the life of the process, so a
    run draws each input once.  It only saves work: a stream gives the
    same inputs in whatever order they are asked for."""
    return _DepthStream(seed, kind)


def _make_packing(seed, k):
    """Selections and readbacks alternate, each kind in its cycle of
    depths.  Readbacks grow at most READBACK_EVENTS generations of
    prefixes."""
    cycles, at = divmod(k, len(PACKING_CYCLE))
    kind, depth = PACKING_CYCLE[at]
    n = (cycles * PACKING_CYCLE.count((kind, depth))
         + PACKING_CYCLE[:at].count((kind, depth)))
    return kind, _depth_stream(seed, kind).nth(depth, n)


def _selection_flaw(ctx, nodes, sigma, res):
    """Budget, pool-floor and incompatibility checks on one selection."""
    picks = [s for pair in res.sigma_pairs.values() for s in pair]
    if set(res.sigma_pairs) != set(range(len(nodes))):
        return "member indices off"
    if len(set(picks)) != 2 * len(nodes):
        return "duplicate pick"
    for a, b in combinations(picks, 2):
        if strings.compatible(a, b):
            return f"picks {a!r},{b!r} compatible"
    budget = Fraction(0)
    seen = []
    for m in range(1, max(d for _, d in nodes) + 1):
        budget += Fraction(sum(1 for _, d in nodes if d == m), 1 << m)
        seen.append(budget)
    if tuple(seen) != res.r or budget > 1:
        return f"budget sequence {res.r} off"
    for i, (nm, d) in enumerate(nodes):
        t_i = smc.t_of(ctx.phi, nm)
        want = smc.omega_level(ctx, nm)
        for pick in res.sigma_pairs[i]:
            if pick not in t_i or trees.level_of(t_i, pick) != want:
                return f"pick {pick!r} misses level {want}"
            if not pick.startswith(sigma):
                return f"pick {pick!r} leaves the base"
        floor = (1 - res.r[d - 1]) * (1 << (d + 1))
        if len(res.psi_pool[i]) < floor:
            return f"pool {i} under its floor {floor}"
    return None


def _run_select(scenario):
    ctx, tau, nodes, sigma = scenario
    res = smc.select_extensions(ctx, tau, nodes, sigma)
    ok = _selection_flaw(ctx, nodes, sigma, res) is None
    pairs = ";".join(f"{i}:{a},{b}"
                     for i, (a, b) in sorted(res.sigma_pairs.items()))
    return ok, f"select|{pairs}|{','.join(map(str, res.r))}"


def _readback_flaw(st, tp, theta):
    """Codes per target are prefix-free and every leaf decodes to the
    chain of enumerated prefixes it was grown for."""
    by_target: dict[str, list[str]] = {}
    for src, tgt in theta.axioms.items():
        by_target.setdefault(tgt, []).append(src)
    for tgt, srcs in by_target.items():
        for a, b in combinations(sorted(srcs), 2):
            if strings.compatible(a, b):
                return f"codes for {tgt!r} not prefix-free"
    for x in strings.sort_lenlex(st.final):
        if x == "":
            continue
        chain = tuple(sorted((p for p in st.final
                              if p != "" and x.startswith(p)), key=len))
        for leaf in trees.leaves(tp[x]):
            if smc.theta_decode(theta, leaf) != chain:
                return f"leaf {leaf!r} decodes off the path to {x!r}"
    return None


def _run_readback(staging):
    ctx, st, succ = staging
    tp, theta = smc.build_tprime(ctx, st, succ)
    ok = _readback_flaw(st, tp, theta) is None
    axioms = ";".join(f"{strings.show_string(s)}>{strings.show_string(t)}"
                      for s, t in sorted(theta.axioms.items()))
    return ok, f"readback|{_tree_text(st.final)}|{axioms}"


def _run_packing(case):
    kind, payload = case
    if kind == "select":
        return _run_select(payload)
    return _run_readback(payload)


WORKLOADS = {
    w.name: w for w in (
        Workload("extract", _make_extract, _run_extract, ref_cases=200),
        Workload("witness", _make_witness, _run_witness, ref_cases=6),
        Workload("stages", _make_stages, _run_stages, ref_cases=24),
        Workload("packing", _make_packing, _run_packing, ref_cases=200),
    )
}
