"""Finite-extension cover driver and the packing combinatorics behind it.

A two-place table phi names, for each oracle prefix tau, a tree
T(tau) of candidate strings.  The certified level omega_level says up
to which level T(tau) looks healthy, pi collects the prefixes whose
certified level jumps by two over everything seen before, and the
selection routine packs pairwise incompatible picks for a prefix-free
family, paying for each settled member out of an exact budget r_m,
kept in integers over a power of two.  Admission to pi reads only a
string's own prefixes in the walk, and the readback theta is checked
for consistency along source paths.  The driver consumes the resulting
trees one stage at a time.

Selection grows its pools down the trees' successor lists, and that is
exact.  Each pool string is a member of its tree T(tau_i) at the pool's
level: the base is a member of T(tau) at tau's certified level, and as
tau is a prefix of tau_i and the table is consistent, T(tau) is T(tau_i)
cut below some length, with the same levels; every later pool string is
read off T(tau_i).  A member's ancestors are exactly its prefixes in
the tree, so a member at level L + d extending a level-L member is that
member's depth-d descendant.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate, combinations, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import BudgetError, MemberError, ProtocolError, ShapeError
from .functionals import (FunctionalTable, _Interned, _outputs,
                          _pullback_tree, _require_two_branching, image_tree,
                          is_splitting_tree, outputs_split, value_within)
from .strings import (check_bits, compatible, is_proper_prefix, lenlex_key,
                      longest_proper_prefix, show_string, sort_lenlex,
                      string_to_nat)
from .trees import (StagedTree, Tree, _index, branching_stats, is_prefix_free,
                    leaves, level_of, successors)


# -- oracle-indexed trees --------------------------------------------------

@dataclass(frozen=True, eq=False)
class OmegaContext(metaclass=_Interned):
    """A two-place table and a finite majorant.

    Equal contexts are one object, as equal tables are: building one
    equal to a live context hands back the live one.  Contexts compare
    and hash by identity, which interning makes the same as comparing
    table and majorant, so the omega_level cache never compares
    majorants.
    """

    phi: FunctionalTable
    f: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.f, self.f[1:])):
            raise ShapeError("majorant must be strictly increasing")


@lru_cache(maxsize=4096)
def t_of(phi: FunctionalTable, tau: str) -> Tree:
    """The tree named by tau: strings phi values 1 within |tau| steps.

    A string only counts once every shorter string has settled, so the
    result is cut at the first length where some value is still out.
    The tree must branch at most two ways and root at the empty
    string; anything else is a malformed table, reported at its
    length-lex first offending member.  Past phi's horizon H no bit is
    read, and every step count is within |tau|: tau[:H] names the tree.
    """
    if len(tau) > phi._horizon:
        with suppress(ShapeError):  # else refused below, naming tau
            return _T_OF(phi, tau[:phi._horizon])
    members = []
    length = 0
    while True:
        layer = []
        for bits in product("01", repeat=length):
            s = "".join(bits)
            v = value_within(phi, tau, string_to_nat(s), len(tau))
            if v is None:
                layer = None
                break
            if v == 1:
                layer.append(s)
        if layer is None:
            break
        members.extend(layer)
        length += 1
    t = Tree(members)
    for m, kids in _index(t).successors.items():  # in length-lex order
        if m and "" not in t:  # m, the first member, is a root
            raise ShapeError(f"level-0 member {show_string(m)} of the tree "
                             f"at {show_string(tau)} is not the empty string")
        if len(kids) > 2:
            raise ShapeError(f"{show_string(m)} has more than two successors "
                             f"in the tree at {show_string(tau)}")
    return t


def oplus_tree(a_prefix: str) -> Tree:
    """All even-length strings compatible with the oracle prefix."""
    check_bits(a_prefix)
    members = [""]
    layer = [""]
    for bit in a_prefix:
        layer = [s + bit + b for s in layer for b in "01"]
        members.extend(layer)
    return Tree(members)


@lru_cache(maxsize=4096)
def omega_level(ctx: OmegaContext, tau: str) -> int:
    """The certified level of the tree at tau: the largest n below the
    majorant's length such that the tree's levels reach n, branch
    exactly two ways below n, and stay within the majorant up to n; 0
    when there is none.

    Each condition that holds at n holds below n, so this is the least
    of len(f) - 1, the max level, the two-branching depth and the last
    level up to which every level fits f, read off the levels in one
    pass.  It reads tau through its tree alone, so past phi's horizon
    the level at tau is the level at its prefix there.
    """
    if len(ctx.f) < 2:
        return 0
    t = t_of(ctx.phi, tau)  # which refuses a bad tau naming it
    if len(tau) > ctx.phi._horizon:
        return _OMEGA_LEVEL(ctx, tau[:ctx.phi._horizon])
    if not t:
        return 0
    levels = _index(t).levels
    top = min(len(ctx.f) - 1, len(levels) - 1, branching_stats(t)[1])
    # each level is length-lex sorted, so its longest member is its last
    return max(0, next((k for k in range(top + 1)
                        if len(levels[k][-1]) > ctx.f[k]), top + 1) - 1)


# the caches, which the cut lookups call past any rebinding of the names
_T_OF, _OMEGA_LEVEL = t_of, omega_level


def _admission_walk(ctx: OmegaContext,
                    max_stage: int) -> dict[str, tuple[int, int]]:
    """Pi up to max_stage, in stage order: each admitted string's
    certified level and count of admitted proper prefixes.

    Stage s admits the length-s strings whose certified level beats
    the n of every admitted prefix by two, with the new levels long
    enough.  Levels n + 2 up to the certified one are all certified and
    each level's shortest member outgrows the last's, so that is the
    certified level's shortest member reaching f[n + 2].  Each string
    hands n and its count on to its extensions, and every string with
    n + 2 inside the majorant has its tree built and checked.

    The level and the tree are looked up at the string cut to phi's
    horizon, which names the same tree: past the horizon each lookup
    would miss both caches and store a copy of the cut string's answer.
    A string past the horizon is walked after its cut string, which met
    the same guard since n never falls along a path, so a malformed tree
    is refused at the cut string first, as an uncut walk refuses it.
    """
    # the root's level is read only by its extensions
    admitted = {"": (omega_level(ctx, "") if max_stage else 0, 0)}
    # n and the count for each string of the last length, itself counted
    reach = {"": (admitted[""][0], 1)}
    for _ in range(max_stage):
        nxt = {}
        for x, (n, count) in reach.items():
            for tau in (x + "0", x + "1"):
                cut = tau[:ctx.phi._horizon]
                top = omega_level(ctx, cut) if n + 2 < len(ctx.f) else n
                if top >= n + 2 and len(_index(
                        t_of(ctx.phi, cut)).levels[top][0]) >= ctx.f[n + 2]:
                    admitted[tau] = (top, count)
                nxt[tau] = (top, count + 1) if tau in admitted else (n, count)
        reach = nxt
    return admitted


def enumerate_pi(ctx: OmegaContext, max_stage: int) -> StagedTree:
    """Pi after each stage up to max_stage (see _admission_walk)."""
    pi = list(_admission_walk(ctx, max_stage))
    return StagedTree(tuple(Tree(m for m in pi if len(m) <= s)
                            for s in range(max_stage + 1)))


def pi6_gaps(ctx: OmegaContext, final: frozenset[str]) -> list[str]:
    """Non-root members of final whose omega level is not at least 2
    above every proper prefix's in final (final holds the root)."""
    lv = {m: omega_level(ctx, m) for m in final}
    return [m for m in final if m != ""
            and lv[m] < 2 + max(lv[m[:k]] for k in range(len(m))
                                if m[:k] in lv)]


# -- packing pairwise incompatible picks -----------------------------------

@dataclass(frozen=True)
class SelectionResult:
    """Settled pairs per family member, the pool each drew from, and
    the running budget."""

    sigma_pairs: dict[int, tuple[str, str]]
    psi_pool: dict[int, frozenset[str]]
    r: tuple[Fraction, ...] = ()


def _state_dump(settled, pools, m):
    return (f"at step {m}: settled={sorted(settled.items())} "
            f"pools={ {i: sorted(p) for i, p in sorted(pools.items())} }")


def _descent(t: Tree, xs: Sequence[str], depth: int) -> Sequence[str]:
    """The members of t depth levels below the members xs, read down
    t's successor lists."""
    succ = _index(t).successors
    for _ in range(depth):
        xs = tuple(y for x in xs for y in succ[x])
    return xs


def select_extensions(ctx: OmegaContext, tau: str,
                      lambda_nodes: Sequence[tuple[str, int]],
                      sigma: str) -> SelectionResult:
    """Pick two certified-level picks per family member, all pairwise
    incompatible, above a common base.

    lambda_nodes lists (tau_i, d_i) with d_i >= 1 the depth of tau_i
    below tau in the enumeration order; members of depth m settle at
    step m out of pools that deepen two tree levels per step.  Settled
    picks knock at most one string out of each pool, and the exact
    budget r_m = sum 2^-m' |settled at m'| must never pass 1.  The
    picks are not re-checked here; selection_violation judges them.
    """
    if not lambda_nodes:
        raise ShapeError("empty family")
    names = [p[0] for p in lambda_nodes]
    if not is_prefix_free(names) or len(set(names)) != len(names):
        raise ShapeError("family must be prefix-free")
    t_tau = t_of(ctx.phi, tau)
    n_tau = omega_level(ctx, tau)
    # the empty base is always admissible at certificate level 0, even
    # when the tree at tau has not yet produced anything
    if not (sigma == "" and n_tau == 0):
        if sigma not in t_tau or level_of(t_tau, sigma) != n_tau:
            raise ShapeError(f"base {show_string(sigma)} is not at the "
                             f"certified level {n_tau} of the tree at "
                             f"{show_string(tau)}")
    trees: dict[int, Tree] = {}
    n_i: dict[int, int] = {}
    for i, (tau_i, d) in enumerate(lambda_nodes):
        if d < 1 or not is_proper_prefix(tau, tau_i):
            raise ShapeError(f"{show_string(tau_i)} must properly extend "
                             f"{show_string(tau)} at depth >= 1")
        trees[i] = t_of(ctx.phi, tau_i)
        n_i[i] = omega_level(ctx, tau_i)
        if n_i[i] < n_tau + 2 * d:
            raise ShapeError(f"certified level {n_i[i]} of "
                             f"{show_string(tau_i)} falls short of the "
                             f"depth-{d} gap")

    settled: dict[int, tuple[str, str]] = {}
    settled_pool: dict[int, frozenset[str]] = {}
    pools: dict[int, list[str]] = {i: [sigma] for i in range(len(names))}
    depth = max(d for _, d in lambda_nodes)
    one = 1 << depth  # r_m is r / one, with r an integer
    r, r_seq = 0, []

    def prune(pick: str) -> None:
        for i, pool in pools.items():
            hits = [p for p in pool if compatible(p, pick)]
            if len(hits) > 1:
                raise ShapeError(
                    f"{len(hits)} pool strings compatible with "
                    f"{show_string(pick)}; the length discipline is broken")
            if hits:
                pool.remove(hits[0])

    for m in range(1, depth + 1):
        level = n_tau + 2 * m
        for i, pool in pools.items():
            grown = []
            for psi in pool:
                ext = _descent(trees[i], (psi,), 2)
                if len(ext) != 4:
                    raise ShapeError(
                        f"{show_string(psi)} has {len(ext)} level-{level} "
                        f"extensions in the tree at {show_string(names[i])}; "
                        "need exactly four")
                grown.extend(ext)
            pools[i] = grown
        stars = sorted((i for i, (_, d) in enumerate(lambda_nodes) if d == m),
                       key=lambda i: lenlex_key(names[i]))
        r += len(stars) << (depth - m)
        if r > one:
            raise ShapeError(f"budget r_{m} = {Fraction(r, one)} exceeds 1: "
                             "the family is too crowded to be thin")
        for i in stars:
            # distinct members of one tree level are pairwise incompatible
            cands = sort_lenlex(_descent(trees[i], pools[i], n_i[i] - level))
            if len(cands) < 2:
                raise ProtocolError("pool exhausted picking for "
                                    f"{show_string(names[i])}; "
                                    + _state_dump(settled, pools, m))
            first, second = cands[:2]
            settled[i] = (first, second)
            settled_pool[i] = frozenset(pools.pop(i))
            prune(first)
            prune(second)
        floor = (one - r) << (m + 1)  # (1 - r_m) 2^(m+1), times one
        for i, pool in pools.items():
            if len(pool) * one < floor:
                raise ProtocolError(
                    f"pool for {show_string(names[i])} fell to {len(pool)} "
                    f"below the floor {Fraction(floor, one)}; "
                    + _state_dump(settled, pools, m))
        r_seq.append(r)
    return SelectionResult(dict(sorted(settled.items())),
                           dict(sorted(settled_pool.items())),
                           tuple(Fraction(x, one) for x in r_seq))


def selection_violation(ctx: OmegaContext, nodes: Sequence[tuple[str, int]],
                        sigma: str, res: SelectionResult) -> Optional[str]:
    """Why res is no valid selection for the family nodes above the
    base sigma, or None: two picks per member, all distinct and
    pairwise incompatible, each on its member's certified level above
    sigma, the budget sequence exact and at most 1, and every pool at
    its floor."""
    picks = [s for pair in res.sigma_pairs.values() for s in pair]
    if set(res.sigma_pairs) != set(range(len(nodes))):
        return "member indices off"
    if len(set(picks)) != 2 * len(nodes):
        return "duplicate pick"
    if not is_prefix_free(picks):
        a, b = next(p for p in combinations(picks, 2) if compatible(*p))
        return f"picks {show_string(a)},{show_string(b)} compatible"
    # r_m sums 2^-m' over the members of depth m' <= m
    depth = max(d for _, d in nodes)
    r = tuple(accumulate(Fraction(sum(d == m for _, d in nodes), 1 << m)
                         for m in range(1, depth + 1)))
    if r != res.r or r[-1] > 1:
        return f"budget sequence {res.r} off"
    for i, (nm, d) in enumerate(nodes):
        t_i = t_of(ctx.phi, nm)
        want = omega_level(ctx, nm)
        for pick in res.sigma_pairs[i]:
            if pick not in t_i or level_of(t_i, pick) != want:
                return f"pick {show_string(pick)} misses level {want}"
            if not pick.startswith(sigma):
                return f"pick {show_string(pick)} leaves the base"
        floor = (1 - res.r[d - 1]) * (1 << (d + 1))
        if len(res.psi_pool[i]) < floor:
            return f"pool {i} of {len(res.psi_pool[i])} under {floor}"
    return None


# -- enumerating the cover tree -------------------------------------------

@dataclass(frozen=True)
class ThetaAxioms:
    """String-to-string axioms read off the cover tree's leaves.

    Nested sources must name nested targets, which is what makes the
    readback single-valued along any path.  Each source is checked
    against its prefixes; the first pair by position is named.
    """

    axioms: dict[str, str]

    def __post_init__(self):
        for src, dst in self.axioms.items():
            check_bits(src)
            check_bits(dst)
        pos = {src: i for i, src in enumerate(self.axioms)}
        bad = min(((pos[a], pos[b], a, b) for b, dst in self.axioms.items()
                   for a in (b[:k] for k in range(len(b)))
                   if a in pos and not dst.startswith(self.axioms[a])),
                  default=None)
        if bad:
            raise ShapeError(f"axioms at {show_string(bad[2])} and "
                             f"{show_string(bad[3])} disagree along a path")


def theta_decode(theta: ThetaAxioms, c: str) -> tuple[str, ...]:
    """The chain of targets named along the prefixes of c."""
    axioms = theta.axioms
    return tuple(axioms[c[:k]] for k in range(len(c) + 1) if c[:k] in axioms)


def build_tprime(ctx: OmegaContext, pistar_stages: StagedTree,
                 succ_codes: dict[str, frozenset[str]],
                 ) -> tuple[dict[str, Tree], ThetaAxioms]:
    """Grow one packed tree per enumerated prefix, plus the readback.

    Each stage hangs the new prefixes' picks under every leaf of the
    parent's tree; the readback theta names the prefix that owns each
    new leaf.  A malformed enumeration is reported at its length-lex
    first offending prefix.
    """
    stages = pistar_stages.stages
    if not stages or stages[0] != frozenset({""}):
        raise ShapeError("enumeration must start from the empty string")
    final = pistar_stages.final
    for tau in sort_lenlex(final):
        if succ_codes.get(tau) != frozenset(successors(final, tau)):
            raise ShapeError(f"successor code for {show_string(tau)} does "
                             "not match the enumeration")
    if set(succ_codes) != set(final):
        raise ShapeError("successor codes name strings outside the "
                         "enumeration")
    admitted = _admission_walk(ctx, max(len(m) for m in final))
    for tau in sort_lenlex(final):
        if tau not in admitted:
            raise ShapeError(f"{show_string(tau)} was never admitted by "
                             "the ambient enumeration")

    tprime: dict[str, Tree] = {"": Tree({""})}
    theta: dict[str, str] = {}
    for s in range(1, len(stages)):
        new = sort_lenlex(stages[s] - stages[s - 1])
        if not new:
            continue
        owners = {x: longest_proper_prefix(x, stages[s - 1]) for x in new}
        tau = owners[new[0]]
        if tau is None or any(o != tau for o in owners.values()):
            raise ShapeError(f"stage {s} must extend exactly one leaf")
        if successors(stages[s - 1], tau):
            raise ShapeError(f"stage {s} extends {show_string(tau)} which "
                             "is not a leaf")
        for a_i, a in enumerate(new):
            for b in new[a_i + 1:]:
                if compatible(a, b):
                    raise ShapeError(f"stage {s} additions {show_string(a)} "
                                     f"and {show_string(b)} are compatible")
        base = tprime[tau]
        try:  # admitted proper prefixes, the levels in pi
            depths = [admitted[x][1] - admitted[tau][1] for x in new]
        except KeyError as e:
            raise MemberError(f"{e.args[0]!r} not in tree") from None
        nodes = list(zip(new, depths))
        grown: dict[str, set[str]] = {x: set(base) for x in new}
        for leaf in sort_lenlex(leaves(base)):
            res = select_extensions(ctx, tau, nodes, leaf)
            for idx, x in enumerate(new):
                a, b = res.sigma_pairs[idx]
                grown[x].update((a, b))
                for pick in (a, b):
                    if pick in theta:
                        raise ProtocolError(f"{show_string(pick)} selected "
                                            "twice")
                    theta[pick] = x
        m1 = level_of(final, new[0])
        for x in new:
            t_new = Tree(grown[x])
            if branching_stats(t_new)[1] < m1:
                raise ProtocolError(f"tree for {show_string(x)} is not "
                                    f"two-branching below level {m1}")
            t_x = t_of(ctx.phi, x)
            n_x = omega_level(ctx, x)
            for leaf in leaves(t_new):
                if level_of(t_x, leaf) != n_x:
                    raise ProtocolError(f"leaf {show_string(leaf)} of the "
                                        f"tree for {show_string(x)} misses "
                                        f"the certified level {n_x}")
            tprime[x] = t_new
    return tprime, ThetaAxioms(theta)


def readback_chains(final: frozenset[str], tp: Mapping[str, Tree],
                    theta: ThetaAxioms,
                    ) -> Iterator[tuple[str, tuple[str, ...], Optional[str]]]:
    """(x, chain, bad) per non-root x of final, length-lex: chain is
    x's non-root prefixes in final, shortest first, and bad the first
    leaf of tp[x] whose readback decodes off it, or None."""
    for x in sort_lenlex(final):
        if x == "":
            continue
        chain = tuple(x[:k] for k in range(1, len(x) + 1) if x[:k] in final)
        bad = next((leaf for leaf in leaves(tp[x])
                    if theta_decode(theta, leaf) != chain), None)
        yield x, chain, bad


def readback_violation(final: frozenset[str], tp: Mapping[str, Tree],
                       theta: ThetaAxioms) -> Optional[str]:
    """Why the readback theta of the packed trees tp over the
    enumeration final is wrong, or None: the codes for each target must
    be prefix-free, and each leaf of tp[x] must decode to x's chain."""
    by_target: dict[str, list[str]] = {}
    for src, tgt in theta.axioms.items():
        by_target.setdefault(tgt, []).append(src)
    for tgt, srcs in by_target.items():
        if not is_prefix_free(srcs):
            return f"codes for {show_string(tgt)} not prefix-free"
    return next((f"leaf {show_string(leaf)} decodes off the path to "
                 f"{show_string(x)}"
                 for x, _, leaf in readback_chains(final, tp, theta)
                 if leaf is not None), None)


# -- one driver stage -------------------------------------------------------

class DriverResult(NamedTuple):
    b_next: str
    t_next: Tree
    branch: str


def _output_summary(succ: Mapping[str, tuple[str, ...]], exts: list[str],
                    outs: dict[str, tuple[int, ...]]) -> dict[str, tuple]:
    """For each member x of exts, length-lex and closed upward in a
    two-branching tree, the lex-least maximal output lo and the
    lex-greatest output hi above x, which is maximal: lo == hi exactly
    when the outputs above x form a chain.

    Outputs grow along the tree, so x's successors' pairs decide: hi is
    the greater hi, and lo the longer lo when one extends the other (the
    other maximal outputs of the shorter's part leave it before its end,
    so sort after the longer), else the lesser, which stays maximal (an
    output of the other part extending it would sort below that part's
    lo).
    """
    summary = {}
    for x in reversed(exts):
        kids = succ[x]
        if not kids:
            summary[x] = (outs[x], outs[x])
            continue
        (lo, hi), (lo2, hi2) = summary[kids[0]], summary[kids[1]]
        if lo == lo2[:len(lo)]:
            lo = lo2
        elif lo2 != lo[:len(lo2)]:
            lo = min(lo, lo2)
        summary[x] = (lo, max(hi, hi2))
    return summary


def _above(succ: Mapping[str, tuple[str, ...]], x: str) -> Iterator[str]:
    """The members above x, x first, length-lex: a heap walk up the
    successor lists, which reads only as far as it is asked."""
    heap = [(len(x), x)]
    while heap:
        y = heappop(heap)[1]
        yield y
        for z in succ[y]:
            heappush(heap, (len(z), z))


def smc_driver_stage(state: tuple[str, Iterable[str]],
                     psi_s: FunctionalTable, dagger_budget: int,
                     dagger_subtree: Optional[Iterable[str]] = None,
                     ) -> DriverResult:
    """Advance the finite-extension construction by one stage.

    First hunt for a base above which nothing splits the functional
    (only bases with genuinely two incomparable extensions count as
    witnesses); failing that, grow a two-branching splitting subtree
    greedily, refine it through the supplied readback tree if given,
    and move to its least leaf.  Guarded outputs are used throughout,
    each computed once per stage.  Each leaf split spends one unit of
    budget.

    Outputs grow along the tree (the functionals module docstring's
    lemma), so two members split exactly when their outputs are
    incomparable, and one bottom-up pass (_output_summary) serves the
    hunt and the greedy.  A refined subtree is checked for splitting
    once, by the image step; the stage makes no check of its own
    output, which callers judge with driver_violation.
    """
    b_s, t_s = state
    t_s = Tree(t_s)
    _require_two_branching(t_s, "driver tree")
    if b_s not in t_s:
        raise MemberError(f"base {show_string(b_s)} is not on the tree")
    succ = _index(t_s).successors
    # every string the stage looks at extends b_s; the index is length-lex
    exts = [m for m in succ if m.startswith(b_s)]
    outs = _outputs(psi_s, exts, hat=True)
    summary = _output_summary(succ, exts, outs)

    for tau in exts:
        if succ[tau] and summary[tau][0] == summary[tau][1]:
            return DriverResult(succ[tau][0], t_s, "no-splittings")

    ops = 0
    built = {b_s}
    frontier = [lenlex_key(b_s)]  # a heap: the length-lex least first
    while frontier:
        x = heappop(frontier)[1]
        lo, hi = summary[x]
        if lo == hi:
            continue
        # the pairwise scan's first pair: lo and hi differ first at k, a
        # is the first member above x with an output longer than k, and
        # b the first to split with a, later in the walk: the maximal
        # outputs sort from lo to hi, so all start with lo[:k]
        k = next(i for i, (p, q) in enumerate(zip(lo, hi)) if p != q)
        walk = _above(succ, x)
        a = next(y for y in walk if len(outs[y]) > k)
        b = next(y for y in walk if outputs_split(outs[a], outs[y]))
        ops += 1
        if ops > dagger_budget:
            raise BudgetError(f"needed more than {dagger_budget} splits")
        built.update((a, b))
        for y in (a, b):
            heappush(frontier, lenlex_key(y))
    t_built = Tree(built)
    if dagger_subtree is not None:
        t_next = _pullback_tree(t_built, Tree(dagger_subtree), outs)
    else:
        t_next = t_built
    b_next = min(leaves(t_next), key=lenlex_key)
    return DriverResult(b_next, t_next, "splitting-subtree")


def driver_violation(psi_s: FunctionalTable, t_s: Tree, res: DriverResult,
                     dagger_subtree: Optional[Tree] = None) -> Optional[str]:
    """Why res is no driver stage over the tree t_s, or None: the next
    base lies on the next tree, which lies in t_s; a splitting subtree
    must also be two-branching and split psi_s's guarded outputs, and,
    refined through dagger_subtree, have exactly that image."""
    if res.b_next not in res.t_next or not res.t_next <= t_s:
        return "stage left the tree"
    if res.branch != "splitting-subtree":
        return None
    try:
        _require_two_branching(res.t_next, "subtree")
        if not is_splitting_tree(psi_s, res.t_next, hat=True):
            return "subtree does not split"
        if dagger_subtree is not None and (
                image_tree(psi_s, res.t_next, hat=True) != dagger_subtree):
            return "image misses the refinement"
    except ShapeError as e:
        return str(e)
    return None
