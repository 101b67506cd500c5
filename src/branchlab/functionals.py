"""Oracle functionals as finite axiom tables.

An axiom (sigma, arg, value, steps) says: on any oracle extending
sigma, the computation at argument arg converges to value after steps
steps.  Tables must be consistent: axioms whose oracles are comparable
and whose arguments agree must carry the same value.  The convergence
time of a computation is the least steps field among applicable
axioms.

hat_eval is the guarded variant: defined at (tau, n) only when the
computation beats the oracle length (steps < len(tau)) and the guarded
value at every smaller argument is already defined on tau minus its
last bit.  This makes definedness monotone in the oracle and downward
closed in the argument, which the property tests pin down.

A table's horizon H is the largest max(len(sigma), steps + 1) over its
axioms (0 for the empty table).  On a tau of length at least H every
axiom has been read to its end and every step count beats the oracle
length, so no further bit changes the outcome: by induction on n,
hat_eval(f, tau, n) == hat_eval(f, tau[:H + n], n) whenever
len(tau) >= H + n, and hat_eval evaluates that prefix instead.  A
table keeps the guarded values and outputs it has computed, each keyed
by its cut string, for as long as it lives, so no function takes a
memo.  Equal tables are one object: building a table equal to a live
one hands back the live one, so equal tables share those kept answers,
which depend on the axioms alone.  Tables compare and hash by identity,
which interning makes the same as comparing axioms, so a cache keyed by
tables never compares axioms.

Guarded outputs grow by at most one value per oracle bit, since
definedness at n + 1 needs the parent's at n: out(tau) is out(tau[:-1])
plus the value at m = len(out(tau[:-1])) when an applicable axiom there
has steps < len(tau).  output_prefix walks tau so, one lookup per bit,
up to its prefix of length H + max_arg + 1, which by the lemma suffices.

Axiom lookup goes by sigma.  At one argument, the axioms applicable at
tau are those whose sigma is one of tau's prefixes.  So the table maps
each sigma to its effective axiom at each argument, and each argument
to the sorted lengths of its sigmas, and effective_axiom, the one probe
loop, probes tau[:k] for each such k up to len(tau).  The effective
axiom of a sigma at an argument is its first in table order: the table
sorts those axioms by steps, and a consistent table gives them one
value.  Applicable axioms all have prefixes of tau as oracles, so they
too agree on the value, and the convergence time is the least steps
among the sigmas hit.  value_within and hat_eval hold the only
comparisons of that time with a step bound.

Outputs grow along the tree.  On a consistent table, x a prefix of y
implies out(x) a prefix of out(y), plain or guarded: every axiom that
applies at x applies at y with the same value, and guarded definedness
is monotone in the oracle.  So if an incompatible pair (a, b) fails to
split, so does every incompatible pair (a', b') of members below them,
and in particular the two distinct successors of their deepest common
member, or their two roots when they have none.  A tree is therefore
splitting iff every two successors of one member, and every two
roots, split: a linear check on two-branching trees.

Delayed mode holds the same one level down.  There an incompatible pair
(a, b) counts only when each member properly extends a member that
extends their branch point.  Let a1 and b1 be the successors of their
deepest common member (or the roots) that a and b extend; both extend
the branch point, else one would be a deeper common member.  So (a, b)
counts exactly when a extends a successor a2 of a1 and b a successor b2
of b1, and then (a2, b2) counts too, fails to split when (a, b) does,
and sorts no later.  A tree is therefore delayed splitting iff, for
every two siblings or two roots, each successor of one splits with each
successor of the other.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable, Optional

from .errors import BudgetError, ConsistencyError, ShapeError
from .strings import (bits_of_values, check_bits, compatible, is_prefix,
                      lenlex_key, sort_lenlex)
from .trees import Tree, _TreeIndex, _index

Axiom = tuple[str, int, int, int]  # (sigma, arg, value, steps)


def _axiom_key(ax: Axiom):
    sigma, arg, value, steps = ax
    return (arg, len(sigma), sigma, steps, value)


def _clashes(a: Axiom, b: Axiom) -> bool:
    """Whether two axioms at one argument contradict each other: their
    oracles are compatible and their values differ."""
    return a[2] != b[2] and compatible(a[0], b[0])


class _Interned(type):
    """A metaclass for frozen dataclasses whose equal instances are one
    object (hash-consing).  Calling the class builds and checks an
    instance as usual, then hands back the live instance with the same
    field values when there is one.  Each class keeps its live
    instances in a weak registry keyed by those values, so an instance
    leaves it when it dies and one refused while built never enters it.
    The registry is the one place that compares field values: the
    classes declare eq=False, so equality and hashing are identity,
    which interning makes the same as value equality."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        cls._registry = weakref.WeakValueDictionary()

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        key = tuple(getattr(obj, fl.name) for fl in fields(obj))
        return cls._registry.setdefault(key, obj)


@dataclass(frozen=True, eq=False)
class FunctionalTable(metaclass=_Interned):
    axioms: tuple[Axiom, ...]

    def __post_init__(self):
        axs = tuple(sorted(set(self.axioms), key=_axiom_key))
        # one pass validates each axiom, takes the horizon, builds the
        # sigma index and tests the axiom against the earlier ones at its
        # argument whose sigma is a prefix of its own, its only
        # compatible predecessors in table order.  At the current
        # argument, seen maps each sigma to [its first index, its first
        # index with another value], and lengths lists the sigma lengths
        # so far, none longer than this sigma.  index maps each sigma to
        # the first axiom at each argument, and by_arg each argument to
        # its lengths.
        index: dict[str, dict[int, Axiom]] = {}
        by_arg: dict[int, list[int]] = {}
        seen: dict[str, list] = {}
        lengths: list[int] = []
        seen_arg = None
        clash = None  # the least (i, j), which a pairwise scan names
        horizon = 0
        for j, (sigma, arg, value, steps) in enumerate(axs):
            check_bits(sigma)
            if arg < 0 or value < 0:
                raise ShapeError(f"axiom {(sigma, arg, value, steps)}: "
                                 "argument and value must be naturals")
            if steps < 1:
                raise ShapeError(f"axiom {(sigma, arg, value, steps)}: "
                                 "steps must be at least 1")
            if arg != seen_arg:
                seen, lengths, seen_arg = {}, [], arg
                by_arg[arg] = lengths
            for k in lengths:
                hit = seen.get(sigma[:k])
                if hit is not None:
                    i = hit[0] if axs[hit[0]][2] != value else hit[1]
                    if i is not None and (clash is None or i < clash[0]):
                        clash = (i, j)
            own = seen.get(sigma)
            if own is None:
                seen[sigma] = [j, None]
                index.setdefault(sigma, {})[arg] = axs[j]
                if not lengths or lengths[-1] != len(sigma):
                    lengths.append(len(sigma))
            elif own[1] is None and axs[own[0]][2] != value:
                own[1] = j
            if len(sigma) > horizon:
                horizon = len(sigma)
            if steps >= horizon:
                horizon = steps + 1
        if clash is not None:
            a, b = axs[clash[0]], axs[clash[1]]
            raise ConsistencyError(f"axioms {a} and {b} clash",
                                   first=a, second=b)
        object.__setattr__(self, "axioms", axs)
        # the sigma index, its lengths per argument (one tuple for all
        # arguments with the same lengths) and the horizon, for the
        # lookups below; not fields, so the registry and repr ignore them
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        object.__setattr__(self, "_sigma_index", index)
        object.__setattr__(self, "_lengths", {
            arg: shared.setdefault(tuple(ls), tuple(ls))
            for arg, ls in by_arg.items()})
        object.__setattr__(self, "_horizon", horizon)
        # the guarded values hat_eval has computed, keyed by (tau cut to
        # H + n, n), and the guarded outputs output_prefix has walked,
        # keyed by tau cut to H + max_arg + 1: kept as long as the table
        object.__setattr__(self, "_hat_values", {})
        object.__setattr__(self, "_hat_outputs", {})

    @property
    def max_arg(self) -> int:
        return self.axioms[-1][1] if self.axioms else -1


_NONE: dict[int, Axiom] = {}


def _has_axiom_at(f: FunctionalTable, n: int) -> bool:
    return n in f._lengths


def lookup_probes(f: FunctionalTable) -> int:
    """The most sigma-index probes that looking f up once at each of
    its arguments makes: one per sigma length at the argument."""
    return sum(map(len, f._lengths.values()))


EMPTY_TABLE = FunctionalTable(())


def effective_axiom(f: FunctionalTable, tau: str, n: int) -> Optional[Axiom]:
    """The axiom that fires first: least (steps, oracle length).  One
    probe per sigma length at argument n up to len(tau)."""
    index = f._sigma_index
    ax = None
    for k in f._lengths.get(n, ()):
        if k > len(tau):
            break
        hit = index.get(tau[:k], _NONE).get(n)
        # hits come shortest sigma first, and < keeps the first of a tie
        if hit is not None and (ax is None or hit[3] < ax[3]):
            ax = hit
    return ax


def value_within(f: FunctionalTable, tau: str, n: int,
                 steps: int) -> Optional[int]:
    """The value at (tau, n) when the computation converges within
    steps steps, or None."""
    ax = effective_axiom(f, tau, n)
    return None if ax is None or ax[3] > steps else ax[2]


def eval_at(f: FunctionalTable, tau: str, n: int) -> Optional[int]:
    """Converged value at (tau, n), or None."""
    # every axiom's steps are below the horizon
    return value_within(f, tau, n, f._horizon)


def hat_eval(f: FunctionalTable, tau: str, n: int) -> Optional[int]:
    """Guarded value at (tau, n), or None.

    tau is cut to the table's horizon plus n first (the module
    docstring's lemma), so strings that agree up to there share the
    table's kept value.
    """
    cut = f._horizon + n
    if len(tau) > cut:
        tau = tau[:cut]
    memo = f._hat_values
    key = (tau, n)
    if key in memo:
        return memo[key]
    ax = effective_axiom(f, tau, n)
    # defined when the computation converges within len(tau) - 1 steps
    # and, definedness being downward closed in the argument, the parent
    # is defined at n - 1
    if ax is None or ax[3] >= len(tau) or (
            n and hat_eval(f, tau[:-1], n - 1) is None):
        v = None
    else:
        v = ax[2]
    memo[key] = v  # stored only once known
    return v


def hat_values(f: FunctionalTable, strings: Iterable[str],
               n: int) -> list[Optional[int]]:
    """hat_eval(f, s, n) for each s, in order, evaluated once per
    distinct prefix s[:H + n], which by the module docstring's lemma
    fixes the value."""
    cut = f._horizon + n
    cuts = [s[:cut] for s in strings]
    value = {p: hat_eval(f, p, n) for p in dict.fromkeys(cuts)}
    return list(map(value.__getitem__, cuts))


def output_prefix(f: FunctionalTable, tau: str,
                  hat: bool = False) -> tuple[int, ...]:
    """Values at arguments 0, 1, ... while defined.

    The guarded output is the module docstring's walk, from the longest
    prefix of the cut tau whose output the table keeps.
    """
    if not hat:
        out: tuple[int, ...] = ()
        while (v := eval_at(f, tau, len(out))) is not None:
            out += (v,)
        return out
    memo = f._hat_outputs
    tau = tau[:f._horizon + f.max_arg + 1]
    k = len(tau)
    while k and tau[:k] not in memo:
        k -= 1
    out = memo.get(tau[:k], ())
    for j in range(k + 1, len(tau) + 1):
        v = value_within(f, tau[:j], len(out), j - 1)
        if v is not None:
            out += (v,)
        memo[tau[:j]] = out
    return out


def _outputs(f: FunctionalTable, t: Iterable[str],
             hat: bool = False) -> dict[str, tuple[int, ...]]:
    """Each member's output_prefix."""
    return {m: output_prefix(f, m, hat=hat) for m in t}


def outputs_split(a_out: tuple[int, ...], b_out: tuple[int, ...]) -> bool:
    """True iff the outputs differ at some argument both define."""
    return a_out[:len(b_out)] != b_out[:len(a_out)]


def splitting_violation(f: FunctionalTable, t: Iterable[str],
                        delayed: bool = False,
                        hat: bool = False) -> Optional[tuple[str, str]]:
    """First incompatible pair whose outputs fail to split, or None.

    In plain mode every incompatible pair of members must split; in
    delayed mode a pair must split only if each member properly extends
    some member that already extends the branch point, i.e. the split
    may arrive one tree step late.
    """
    t = Tree(t)
    return _splitting_violation(t, _outputs(f, t, hat=hat), delayed)


def _sibling_groups(idx: _TreeIndex, delayed: bool):
    """The sibling groups a splitting check pairs within: the roots and
    each successor list.  Plain mode pairs each two siblings; delayed
    mode each successor of one with each of the other's, so there only
    the inner siblings count, as a leaf has no successor to pair."""
    succ = idx.successors
    groups = chain(idx.levels[:1], succ.values())
    return ([u for u in g if succ[u]] for g in groups) if delayed else groups


def splitting_pair_count(t: Iterable[str], delayed: bool) -> int:
    """The output pairs a splitting check of t compares, counted off
    the sibling groups with no output computed."""
    idx = _index(t)
    # two siblings weighing 1 or their successor counts give that many
    # pairs, so a group of weights w gives (sum(w)^2 - sum(w_i^2)) / 2
    weights = ([len(idx.successors[u]) if delayed else 1 for u in group]
               for group in _sibling_groups(idx, delayed))
    return sum(sum(w) ** 2 - sum(x * x for x in w) for w in weights) // 2


def _splitting_violation(t: Tree, outs: dict[str, tuple[int, ...]],
                         delayed: bool = False) -> Optional[tuple[str, str]]:
    """splitting_violation over precomputed outputs of t's members.

    The sibling pairs decide in plain mode, and the pairs of their
    successors in delayed mode, by the module docstring's lemma.  The
    pair named is the first failing one in length-lex order, which is
    the first failing pair of the pairwise scan: the pairs below a
    failing pair fail too and sort no later.
    """
    idx = _index(t)
    succ = idx.successors
    groups = _sibling_groups(idx, delayed)
    if not delayed:
        fails = ((a, b) for group in groups
                 for i, a in enumerate(group) for b in group[i + 1:]
                 if not outputs_split(outs[a], outs[b]))
    else:
        fails = ((x, y) if lenlex_key(x) < lenlex_key(y) else (y, x)
                 for group in groups
                 for i, u in enumerate(group) for v in group[i + 1:]
                 for x in succ[u] for y in succ[v]
                 if not outputs_split(outs[x], outs[y]))
    return min(fails,
               key=lambda pair: (lenlex_key(pair[0]), lenlex_key(pair[1])),
               default=None)


def is_splitting_tree(f: FunctionalTable, t: Iterable[str],
                      hat: bool = False) -> bool:
    return splitting_violation(f, t, hat=hat) is None


# ---------------------------------------------------------------------------
# weak splitting witnesses


@dataclass(frozen=True)
class WeakSplitWitness:
    """Tree of qualifying strings with agreement and use bookkeeping.

    phi[tau] is the largest argument up to which the composed
    computation reproduces tau; psi[tau] is the largest output argument
    the composition consulted while doing so.
    """

    tree: Tree
    phi: dict[str, int]
    psi: dict[str, int]

    def members(self) -> tuple[str, ...]:
        return sort_lenlex(self.tree)


def _agreement(phi_t: FunctionalTable, oracle: str, tau: str) -> Optional[int]:
    """Greatest n with phi_t's guarded output on oracle matching tau."""
    best = None
    for n in range(len(tau)):
        v = hat_eval(phi_t, oracle, n)
        if v is None or v != int(tau[n]):
            break
        best = n
    return best


# weak_splitting_violation compares every pair of members: about 3 s
# for this many
WEAK_MAX_MEMBERS = 1 << 10


def build_weak_splitting_tree(psi: FunctionalTable, phi: FunctionalTable,
                              length_budget: int) -> WeakSplitWitness:
    """Scan all strings up to the length budget for qualifying members.

    A string enters the tree when its composed-agreement level strictly
    exceeds that of every proper initial segment; phi records that
    level and psi the largest oracle argument consulted below it.  The
    scan stops with a BudgetError once the tree would grow past
    WEAK_MAX_MEMBERS.
    """
    agree: dict[str, int] = {}
    members: list[str] = []
    phi_map: dict[str, int] = {}
    psi_map: dict[str, int] = {}
    frontier = [""]
    for _ in range(length_budget + 1):
        nxt = []
        for tau in frontier:
            oracle = bits_of_values(output_prefix(psi, tau, hat=True))
            a = _agreement(phi, oracle, tau)
            prev = agree[tau[:-1]] if tau else -1  # a running maximum
            agree[tau] = max(a if a is not None else -1, prev)
            if a is not None and a > prev:
                if len(members) == WEAK_MAX_MEMBERS:
                    raise BudgetError(f"the tree grows past "
                                      f"{WEAK_MAX_MEMBERS} members")
                members.append(tau)
                phi_map[tau] = a
                # the highest oracle position an axiom reads: -1 if none
                psi_map[tau] = max([0] + [
                    len(ax[0]) - 1 for n in range(a + 1)
                    if (ax := effective_axiom(phi, oracle, n)) is not None])
            if len(tau) < length_budget:
                nxt.extend((tau + "0", tau + "1"))
        frontier = nxt
    return WeakSplitWitness(Tree(members), phi_map, psi_map)


def _disagree_upto(a: str, b: str, k: int) -> bool:
    """Some position <= k where both are defined and differ."""
    top = min(len(a), len(b), k + 1)
    return any(a[i] != b[i] for i in range(top))


def weak_splitting_violation(w: WeakSplitWitness, psi: FunctionalTable,
                             path_prefix: str) -> Optional[str]:
    mems = w.members()
    if set(w.phi) != set(w.tree) or set(w.psi) != set(w.tree):
        return "phi/psi domains differ from the tree"
    outs = {m: output_prefix(psi, m) for m in mems}
    for m in mems:
        if not 0 <= w.phi[m] < len(m):
            return f"phi out of range at {m!r}"
        if not 0 <= w.psi[m] < len(outs[m]):
            return f"psi out of range at {m!r}"
    for i, a in enumerate(mems):
        for b in mems[i + 1:]:
            if compatible(a, b):
                continue
            if _disagree_upto(a, b, min(w.phi[a], w.phi[b])):
                if not _disagree_upto(outs[a], outs[b],
                                      min(w.psi[a], w.psi[b])):
                    return f"pair {a!r},{b!r} fails to split under the use bound"
    chain = [m for m in mems if is_prefix(m, path_prefix)]
    for x, y in zip(chain, chain[1:]):
        if w.phi[x] >= w.phi[y]:
            return f"agreement levels not increasing along {x!r} -> {y!r}"
    return None


# ---------------------------------------------------------------------------
# image and pullback trees


def _require_two_branching(t: Tree, what: str) -> None:
    if not t:
        raise ShapeError(f"{what}: empty tree")
    idx = _index(t)
    if len(idx.levels[0]) != 1:
        raise ShapeError(f"{what}: expected a single root")
    for m, s in idx.successors.items():  # length-lex order
        if len(s) not in (0, 2):
            raise ShapeError(f"{what}: {m!r} has {len(s)} successors")


def _checked_outputs(f: FunctionalTable, t: Tree,
                     hat: bool) -> dict[str, tuple[int, ...]]:
    """The outputs of t's members; plain ones only where the table
    agrees with its own guarded restriction on t, which a failure
    names by its length-lex first member."""
    outs = _outputs(f, t, hat=hat)
    if not hat:
        guarded = _outputs(f, t, hat=True)
        bad = [m for m in t if outs[m] != guarded[m]]
        if bad:
            raise ShapeError("table is not its own guarded restriction "
                             f"at {min(bad, key=lenlex_key)!r}")
    return outs


def image_tree(f: FunctionalTable, t: Iterable[str],
               hat: bool = False) -> Tree:
    """Outputs of the members of a two-branching splitting tree.

    Unless evaluating in guarded mode, the table must agree with its
    own guarded restriction on the tree.  The result is checked to be
    two-branching again.
    """
    t = Tree(t)
    return _image_tree(t, _checked_outputs(f, t, hat))[0]


def _image_tree(t: Tree, outs: dict[str, tuple[int, ...]],
                ) -> tuple[Tree, dict[str, str]]:
    """image_tree over t's precomputed outputs, and each member's image.

    t must be a two-branching splitting tree over those outputs, and
    this is where that is checked, once per call.
    """
    _require_two_branching(t, "image input")
    if _splitting_violation(t, outs) is not None:
        raise ShapeError("input tree is not a splitting tree")
    imgs = {m: bits_of_values(outs[m]) for m in t}
    img = Tree(imgs.values())
    _require_two_branching(img, "image output")
    return img, imgs


def _pullback_tree(t0: Tree, t2: Tree,
                   outs: dict[str, tuple[int, ...]]) -> Tree:
    """The members of t0 whose images, read off the precomputed
    outputs, lie in t2.  t0 must split as for _image_tree, whose image
    step makes that check; t2 must be a two-branching subset of t0's
    image, and so must the result be two-branching."""
    img, imgs = _image_tree(t0, outs)
    if not t2 <= img:
        raise ShapeError("refinement tree is not a subset of the image")
    _require_two_branching(t2, "refinement tree")
    t3 = Tree(m for m, s in imgs.items() if s in t2)
    _require_two_branching(t3, "pullback output")
    return t3
