"""Random fixture generators for property runs.

Everything takes an explicit random.Random so corpus runs stay
reproducible from a single seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ProtocolError, ShapeError
from .functionals import FunctionalTable, _clashes
from .smc import OmegaContext, enumerate_pi, oplus_tree
from .strings import (check_bits, compatible, is_prefix, is_proper_prefix,
                      sort_lenlex, string_to_nat)
from .trees import StagedTree, Tree, level_of, successors


def _is_fresh(cand: str, members) -> bool:
    """cand is not a member, and no member extends it."""
    return cand not in members and not any(
        is_proper_prefix(cand, m) for m in members)


def random_weak_staged_tree(rng: random.Random,
                            steps: int = 20) -> StagedTree:
    """A staged tree obeying the one-string-per-stage discipline.

    Mostly extends existing leaves (so trees gain depth), sometimes
    drops a fresh string into unclaimed territory.
    """
    members = {""}
    stages = [Tree(members)]
    for _ in range(steps):
        if rng.random() < 0.7:
            base = rng.choice(sorted(members))
            cand = base + "".join(rng.choice("01")
                                  for _ in range(rng.randint(1, 3)))
        else:
            cand = "".join(rng.choice("01")
                           for _ in range(rng.randint(1, 6)))
        if _is_fresh(cand, members):
            members.add(cand)
        stages.append(Tree(members))
    return StagedTree(tuple(stages))


def spined_weak_tree(rng: random.Random, depth: int,
                     shoots: int = 6) -> StagedTree:
    """A weak staged tree guaranteed to reach the given level.

    One chain is grown bit by bit to full depth, then side shoots
    hang extra members off random spine points.
    """
    members = {""}
    stages = [Tree(members)]
    spine = ""
    for _ in range(depth):
        spine = spine + rng.choice("01")
        members.add(spine)
        stages.append(Tree(members))
    for _ in range(shoots):
        k = rng.randrange(depth)
        side = spine[:k] + ("1" if spine[k] == "0" else "0")
        cand = side + "".join(rng.choice("01")
                              for _ in range(rng.randint(0, 2)))
        if _is_fresh(cand, members):
            members.add(cand)
            stages.append(Tree(members))
    return StagedTree(tuple(stages))


Profile = dict[str, Union[int, Iterable[str]]]


def phi_for_profile(profile: Profile) -> FunctionalTable:
    """A two-place table whose oracle-indexed trees follow a profile.

    Each checkpoint string maps to either a depth (full binary tree to
    that length) or an explicit member set.  Values settle at the
    shallowest checkpoint that covers them; a deeper checkpoint may
    only add strings beyond its ancestors' horizons, never flip them.
    """
    covered: dict[str, dict[str, int]] = {}
    axioms = []
    for c in sort_lenlex(profile):
        want = profile[c]
        if isinstance(want, int):
            members = {"".join(bits) for ln in range(want + 1)
                       for bits in product("01", repeat=ln)}
            horizon = want
        else:
            members = {check_bits(s) for s in want}
            horizon = max((len(s) for s in members), default=0)
        inherited: dict[str, int] = {}
        for c2, vals in covered.items():
            if is_prefix(c2, c):
                inherited.update(vals)
        table = {}
        for ln in range(horizon + 1):
            for bits in product("01", repeat=ln):
                s = "".join(bits)
                v = 1 if s in members else 0
                table[s] = v
                if s in inherited:
                    if inherited[s] != v:
                        raise ShapeError(f"profile flips {s!r} between "
                                         "checkpoints")
                    continue
                axioms.append((c, string_to_nat(s), v, max(1, len(c))))
        covered[c] = {**inherited, **table}
    return FunctionalTable(tuple(axioms))


def staged_context(depths: Profile) -> OmegaContext:
    """An OmegaContext over a profile, bounded by the identity majorant."""
    top = max((v for v in depths.values() if isinstance(v, int)), default=0)
    return OmegaContext(phi_for_profile(depths), tuple(range(top + 3)))


def odd_readback_psi(a_prefix: str) -> FunctionalTable:
    """Reads the free odd bits off an interleaved-oracle tree; injective,
    so every incomparable pair splits."""
    axioms = [(m, len(m) // 2 - 1, int(m[-1]), 1)
              for m in oplus_tree(a_prefix) if m]
    return FunctionalTable(tuple(axioms))


def random_functional_table(rng: random.Random, axioms: int = 10,
                            max_sigma_len: int = 4, max_value: int = 9,
                            max_steps: int = 3) -> FunctionalTable:
    """Greedily grow a consistent table from random axiom candidates.

    A candidate is kept unless it clashes with a kept axiom at its
    argument, which is exactly when the table would refuse it; the
    table is built once, at the end.
    """
    kept: dict[int, list[tuple[str, int, int, int]]] = {}  # by argument
    for _ in range(axioms):
        sigma = "".join(rng.choice("01")
                        for _ in range(rng.randint(0, max_sigma_len)))
        cand = (sigma, rng.randint(0, 3), rng.randint(0, max_value),
                rng.randint(1, max_steps))
        same_arg = kept.setdefault(cand[1], [])
        if not any(_clashes(ax, cand) for ax in same_arg):
            same_arg.append(cand)
    # the table sorts its axioms, so the order they were kept in is lost
    return FunctionalTable(tuple(ax for axs in kept.values() for ax in axs))


def random_kappa_tree(rng: random.Random, i: int, n: int) -> Tree:
    """A random level-n graded subtree with the kappa(i) fanout."""
    from .colorings import GRADED_SHAPE, kappa
    t = {""}
    frontier = [""]
    for k in range(n):
        nxt = []
        for s in frontier:
            nxt.extend(rng.sample(GRADED_SHAPE.successor_strings(s),
                                  kappa(i, k)))
        t.update(nxt)
        frontier = nxt
    return Tree(t)


def random_selection_scenario(rng: random.Random):
    """A context plus a well-posed extension-selection problem over it.

    The node family is prefix-free by construction (one shared length),
    depths are drawn so the packing weight stays within budget, and the
    checkpoint profile may carry headroom beyond the required gap.
    """
    names = rng.sample(["100", "101", "110", "111"],
                       rng.randint(1, 3))
    names.sort()
    while True:
        ds = [rng.randint(1, 2) for _ in names]
        if sum(Fraction(1, 2 ** d) for d in ds) <= 1:
            break
    profile: Profile = {"": 0, "1": 2}
    for nm, d in zip(names, ds):
        profile[nm] = 2 + 2 * d + 2 * rng.randint(0, 1)
    ctx = staged_context(profile)
    sigma = format(rng.randrange(4), "02b")
    return ctx, "1", list(zip(names, ds)), sigma


def breaks_readback_split(final: frozenset[str], a: str, b: str) -> bool:
    """Whether members a and b of final may not both be in a subtree
    that splits the level-readback functional: they are incompatible
    but agree on their first m bits, m the lesser of their levels in
    final."""
    if compatible(a, b):
        return False
    cut = min(level_of(final, a), level_of(final, b))
    return a[:cut] == b[:cut]


def random_readback_splitting_subtree(rng: random.Random,
                                      final: frozenset[str]) -> Tree:
    """Grow a subtree that splits the level-readback functional, greedy
    over a shuffled member order."""
    chosen = [""]
    pool = [m for m in sort_lenlex(final) if m != ""]
    rng.shuffle(pool)
    for cand in pool:
        if len(chosen) > 6:
            break
        if not any(breaks_readback_split(final, cand, x) for x in chosen):
            chosen.append(cand)
    return Tree(chosen)


def random_pi_staging(rng: random.Random, max_events: int = 3):
    """A random admissible prefix enumeration plus its successor codes.

    Each event extends one current leaf with one or two same-length
    incompatible children, strictly longer than everything admitted
    before, so the ambient enumeration adopts them one stage at a
    time.  Certificate depths step by two per generation, sometimes
    with two levels of headroom.  Returns (ctx, staged, succ_codes).
    """
    profile: Profile = {"": 0}
    level = {"": 0}
    open_leaves = [""]
    members = [""]
    top_len = 0
    for _ in range(rng.randint(1, max_events)):
        owner = rng.choice(sorted(open_leaves))
        if level[owner] + 2 > 8:
            continue
        top_len = max(top_len, len(owner)) + rng.randint(1, 2)
        pad = top_len - len(owner)
        if rng.random() < 0.5:
            kids = [owner + "".join(rng.choice("01") for _ in range(pad))]
        else:
            tail = "".join(rng.choice("01") for _ in range(pad - 1))
            kids = [owner + "0" + tail, owner + "1" + tail]
        lv = level[owner] + 2
        if lv + 2 <= 8 and rng.random() < 0.3:
            lv += 2
        for kid in kids:
            profile[kid] = lv
            level[kid] = lv
        open_leaves.remove(owner)
        open_leaves.extend(kids)
        members.extend(kids)
    ctx = staged_context(profile)
    st = enumerate_pi(ctx, top_len)
    if st.final != frozenset(members):
        raise ProtocolError("profile admitted an unexpected prefix set")
    succ = {m: frozenset(successors(st.final, m)) for m in st.final}
    return ctx, st, succ


def twocolourings(rng: random.Random, lvs: Sequence[str],
                  count: Optional[int]) -> Iterator[dict[str, int]]:
    """count two-colourings of the strings lvs drawn from rng, or, when
    count is None, every one in index order: bit k of the index
    colours lvs[k]."""
    if count is None:
        return ({s: (idx >> k) & 1 for k, s in enumerate(lvs)}
                for idx in range(1 << len(lvs)))
    return ({s: rng.getrandbits(1) for s in lvs} for _ in range(count))
