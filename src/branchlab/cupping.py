"""Witness search on the doubly indexed branching class.

Nodes of an abstract recursion tree carry a two-branching subtree of
the graded shape together with a colour vector.  Each node of level n
has one successor per (extension tree, colour) pair: extension trees
are the ways of growing every leaf by two of its shape successors,
enumerated per leaf in length-lex order with pairs in lexicographic
order, and colours run below ncol(n).

The stage filter is a definition, which no function here runs on its
own: at stage s it rejects a level-s node when some table i < s has a
guarded value, defined on a member of the node's tree and below
ncol(i), equal to the node's colour i.  A node belongs to the class
when the filter passes every ancestor on its chain; find_pi_member
hunts one down by thinning the full graded tree one colour index at a
time, and pi_membership_violation checks the whole chain.

It does so in one pass over the node's tree.  The ancestor at level k
carries the node's tree cut at level k and the first k colours, and
the filter at stage k rejects it exactly when some table i < k has a
guarded value equal to colour i on some member of level at most k.
So a hit for colour index i on a member of tree level j rejects the
ancestors from level max(i + 1, j) up, and the node is a member iff
no table hits its colour anywhere in the tree; the first ancestor
rejected is the least max(i + 1, j) over the hits.

The search colours index i's tree once per guarded prefix.  Table i
with horizon H fixes its value at a string by the string's first H + i
bits (the functionals docstring's lemma), and every string below a
member shares the member's prefix, so the level-n colours are those of
the shallowest level k with H + i bits, each repeated down the
kappa(i) fans: the kids of rank r sit at ranks fan*r to fan*r + fan - 1.
Extraction's majority steps then hand level k its own colours back,
since a constant run's strict majority is that constant.

Node labels are prefix-free codes of the successor index j: binary of
j+1 preceded by one zero per following bit.  These are pairwise
incompatible and length-lex increasing in j, and they stay short even
when the successor count runs into the billions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Optional, Sequence

from .colorings import (GRADED_SHAPE, _BLANK, _extract_ranks,
                        bushy_level_strings, is_compatible, kappa, ncol)
from .errors import BudgetError, ShapeError
from .functionals import FunctionalTable, hat_values
from .strings import check_bits, show_string, sort_lenlex
from .trees import (Tree, _index, leaves, restrict_to_level,
                    tree_uniform_level)


def gamma_code(j: int) -> str:
    """Prefix-free label of the natural j."""
    if j < 0:
        raise ShapeError("negative label index")
    b = bin(j + 1)[2:]
    return "0" * (len(b) - 1) + b


def gamma_split(s: str) -> tuple[int, str]:
    """Peel one label off the front; returns (index, remainder)."""
    z = 0
    while z < len(s) and s[z] == "0":
        z += 1
    if z == len(s) or len(s) < 2 * z + 1:
        raise ShapeError(f"{show_string(s)} does not start with a label")
    return int(s[z:2 * z + 1], 2) - 1, s[2 * z + 1:]


def gamma_decode(s: str) -> tuple[int, ...]:
    """Split a concatenation of labels into its index sequence."""
    out = []
    while s:
        j, s = gamma_split(s)
        out.append(j)
    return tuple(out)


@lru_cache(maxsize=8)
def full_graded_tree(n: int) -> Tree:
    """Every string on levels 0..n of the graded shape; one shared
    Tree per level, so its index is built once."""
    members: set[str] = set()
    for k in range(n + 1):
        members.update(bushy_level_strings(GRADED_SHAPE, k))
    return Tree(members)


def _check_node_input(n: int, f: tuple[int, ...], t: Tree) -> None:
    """Refuse a colour vector f or a tree t that no level-n node has."""
    if len(f) != n:
        raise ShapeError("colour vector length must equal the level")
    for i, v in enumerate(f):
        if not 0 <= v < ncol(i):
            raise ShapeError(f"colour {v} out of range at index {i}")
    if not is_compatible(GRADED_SHAPE, t, lambda k: 2):
        raise ShapeError("node tree is not two-branching in the shape")
    if tree_uniform_level(t) != n:
        raise ShapeError("node tree level does not match the node level")


@dataclass(frozen=True)
class PiStarNode:
    """A recursion-tree node: label, tree, and colour vector."""

    tau: str
    level: int
    t_tau: Tree
    psi_values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "t_tau", Tree(self.t_tau))
        check_bits(self.tau)
        if len(gamma_decode(self.tau)) != self.level:
            raise ShapeError("label does not decode to the node level")
        _check_node_input(self.level, self.psi_values, self.t_tau)


ROOT_NODE = PiStarNode("", 0, Tree([""]), ())


def count_extension_trees(t: Tree) -> int:
    n = tree_uniform_level(t)
    if n is None:
        raise ShapeError("leaves sit at mixed levels")
    per_leaf = math.comb(GRADED_SHAPE.branching(n), 2)
    return per_leaf ** len(leaves(t))


def enumerate_extension_trees(t: Tree) -> Iterator[Tree]:
    """All one-level growths of t, two fresh successors per leaf.

    Trees come out in rank order: leaves length-lex, pair choices
    lexicographic, first leaf most significant.
    """
    lvs = sort_lenlex(leaves(t))
    pair_lists = [list(combinations(GRADED_SHAPE.successor_strings(lf), 2))
                  for lf in lvs]
    for choice in product(*pair_lists):
        yield Tree(set(t).union(*choice))


def extension_rank(t: Tree, grown: Tree) -> int:
    """Position of grown in the enumeration order of t's extensions."""
    n = tree_uniform_level(t)
    if n is None:
        raise ShapeError("leaves sit at mixed levels")
    big = GRADED_SHAPE.branching(n)
    radix = math.comb(big, 2)
    rank = 0
    for lf in sort_lenlex(leaves(t)):
        succ = GRADED_SHAPE.successor_strings(lf)
        kids = sorted(x for x in succ if x in grown)
        if len(kids) != 2:
            raise ShapeError(f"{show_string(lf)} does not grow by a pair")
        ia, ib = succ.index(kids[0]), succ.index(kids[1])
        rank = rank * radix + ia * big - ia * (ia + 1) // 2 + (ib - ia - 1)
    return rank


MAX_SUCCESSORS = 100_000  # the most successors pi_star_successors lists


def pi_star_successors(node: PiStarNode) -> tuple[PiStarNode, ...]:
    """All (tree, colour) successors of a node, in label order."""
    m = count_extension_trees(node.t_tau)
    cols = ncol(node.level)
    if m * cols > MAX_SUCCESSORS:
        raise BudgetError(f"{m * cols} successors exceed the budget")
    pairs = product(enumerate_extension_trees(node.t_tau), range(cols))
    return tuple(PiStarNode(node.tau + gamma_code(j), node.level + 1, grown,
                            node.psi_values + (c,))
                 for j, (grown, c) in enumerate(pairs))


def _level_walk(n: int, f: Sequence[int], t: Tree) -> list[tuple[str, Tree]]:
    """(label, tree) of the node at each level k <= n of a level-n tree.

    Replays the successor labeling level by level, ranking each
    restriction of t among the extensions of the previous one; every
    restriction is built and ranked once.
    """
    trees = [restrict_to_level(t, k) for k in range(n)] + [t]
    walk = [("", trees[0])]
    for k in range(n):
        j = ncol(k) * extension_rank(trees[k], trees[k + 1]) + f[k]
        walk.append((walk[-1][0] + gamma_code(j), trees[k + 1]))
    return walk


def realize(n: int, f: Sequence[int], t: Iterable[str]) -> PiStarNode:
    """The unique node with tree t and colour vector f."""
    t = Tree(t)
    f = tuple(f)
    _check_node_input(n, f, t)  # before the walk indexes f
    return PiStarNode(_level_walk(n, f, t)[-1][0], n, t, f)


# a finite list of opposing functionals, one per colour index
AdversaryBundle = tuple[FunctionalTable, ...]

EMPTY_BUNDLE: AdversaryBundle = ()


def bundle(tables: Iterable[FunctionalTable]) -> AdversaryBundle:
    return tuple(tables)


def _rank_colours(adv: AdversaryBundle, i: int, t: Tree) -> list[int]:
    """The i-th guarded values on the level-n members of a
    kappa(i)-compatible level-n tree t, in rank order, _BLANK where
    undefined or out of range: read on level k and repeated down the
    fans, as the module docstring says."""
    lm = _index(t).levels
    n = len(lm) - 1
    if i >= len(adv):
        return [_BLANK] * len(lm[n])
    cut, cols = adv[i]._horizon + i, ncol(i)
    k = next((k for k in range(n)
              if GRADED_SHAPE.level_length(k) >= cut), n)
    fan = math.prod(kappa(i, j) for j in range(k, n))
    out: list[int] = []
    for v in hat_values(adv[i], lm[k], i):
        out += [_BLANK if v is None or v >= cols else v] * fan
    return out


def ancestor_chain(node: PiStarNode) -> tuple[PiStarNode, ...]:
    """The node's ancestors from the root up to the node itself."""
    f = node.psi_values
    return tuple(PiStarNode(tau, k, t, f[:k]) for k, (tau, t)
                 in enumerate(_level_walk(node.level, f, node.t_tau)))


def pi_membership_violation(node: PiStarNode,
                            adv: AdversaryBundle) -> Optional[str]:
    """The first stage filter along the node's ancestor chain that
    rejects its ancestor, or None: one pass over the node's tree by the
    chain lemma of the module docstring."""
    f = node.psi_values
    first = min((max(i + 1, j)
                 for j, members in enumerate(_index(node.t_tau).levels)
                 for i, table in enumerate(adv[:node.level])
                 if f[i] in hat_values(table, members, i)),
                default=None)
    if first is None:
        return None
    return (f"stage {first} filter rejects "
            f"{show_string(ancestor_chain(node)[first].tau)}")


# level 5's full graded tree would hold 2^20 leaves; level 4's takes
# about 0.04 s to build, once per process, and a search 2-3 ms after it
SEARCH_MAX_LEVEL = 4


def find_pi_member(n: int, adv: AdversaryBundle) -> PiStarNode:
    """A level-n node surviving the stage filter along its whole chain.

    Thins the full graded tree once per colour index: leaves are
    coloured by the i-th guarded adversary values, read by rank as the
    module docstring says, one colour d_i is extracted as unrealized,
    and the surviving subtree moves on.  The final tree is
    two-branching and realize turns it into a node.  The search checks
    none of the trees it builds along the way: realize and the node it
    makes check the final tree's shape, and callers judge the node
    with pi_membership_violation.
    """
    if n > SEARCH_MAX_LEVEL:
        raise BudgetError(f"level {n} exceeds the search budget")
    t = full_graded_tree(n)
    ds = []
    for i in range(n):
        d, t = _extract_ranks(i, t, _rank_colours(adv, i, t))
        ds.append(d)
    return realize(n, ds, t)


def materialize_pi_star(n: int) -> tuple[PiStarNode, ...]:
    """Every level-n node, refused once a frontier passes 100,000
    nodes.  Small n only."""
    frontier = [ROOT_NODE]
    for _ in range(n):
        nxt: list[PiStarNode] = []
        for node in frontier:
            nxt.extend(pi_star_successors(node))
            if len(nxt) > 100_000:
                raise BudgetError("node frontier exceeds the budget")
        frontier = nxt
    return tuple(frontier)
