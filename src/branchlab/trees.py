"""Finite trees of binary strings.

A tree is a set of binary strings; nothing requires the root or
downward closure to be present.  The level of a member is the number
of its proper initial segments inside the tree, successors are minimal
proper extensions inside the tree, and leaves are members with no
proper extension.

``Tree`` is the one tree type: a frozenset that derives this structure
on its first query and keeps it for as long as the tree lives.  A
member's parent is its longest proper prefix inside the set, so its
level is one more than its parent's, its successors are the members
whose parent it is, and the leaves are the members that are nobody's
parent.  Every query here also accepts any iterable of strings and
wraps it in a fresh Tree, whose index lives only as long as that call:
a caller that queries one set more than once should keep a Tree, which
is what every tree constructor in the package returns.

Two constructors hand their result an index instead of leaving it to
be built: restrict_to_level slices its parent's index, and
colorings.extract_nice lays its result out level by level as it thins
its input.  The index holds the tree's structure and nothing else: no
answer another module derives from it is kept there.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import MemberError, ShapeError
from .strings import lenlex_key, sort_lenlex


class _TreeIndex(NamedTuple):
    level: Mapping[str, int]
    successors: Mapping[str, tuple[str, ...]]
    leaves: tuple[str, ...]
    levels: tuple[tuple[str, ...], ...]  # levels[n]: level-n members


class Tree(frozenset):
    """A frozenset of binary strings that keeps its own index.

    Tree(t) is t itself when t is already a Tree.  Set operations on a
    Tree give plain frozensets.
    """

    __slots__ = ("_idx",)

    def __new__(cls, members: Iterable[str] = ()) -> Tree:
        if type(members) is cls:
            return members
        t = super().__new__(cls, members)
        t._idx = None
        return t


def _build_index(t: frozenset[str]) -> _TreeIndex:
    """Levels, successors and leaves of t, in one pass over its members.

    Members are visited in length-lex order, so every parent is placed
    before its children and each successor list and level list comes
    out sorted.  A parent's length is that of some earlier member, so
    only those lengths are probed, longest first.  Everything returned
    is read-only.
    """
    level: dict[str, int] = {}
    kids: dict[str, list[str]] = {}
    levels: list[list[str]] = []
    shorter: list[int] = []  # the member lengths below the current one
    length = -1
    for m in sort_lenlex(t):
        if len(m) != length:
            if length >= 0:
                shorter.insert(0, length)
            length = len(m)
        lv = 0
        for k in shorter:
            p = m[:k]
            if p in t:
                lv = level[p] + 1
                kids[p].append(m)
                break
        level[m] = lv
        kids[m] = []
        if lv == len(levels):
            levels.append([])
        levels[lv].append(m)
    succ = {m: tuple(ks) for m, ks in kids.items()}
    return _TreeIndex(
        level=MappingProxyType(level),
        successors=MappingProxyType(succ),
        leaves=tuple(m for m, ks in succ.items() if not ks),
        levels=tuple(map(tuple, levels)))


def _with_index(level: dict[str, int], kids: dict[str, tuple[str, ...]],
                leaves: tuple[str, ...],
                levels: tuple[tuple[str, ...], ...]) -> Tree:
    """The Tree of level's keys, handed the index its constructor laid
    out: the caller vouches that it is the one _build_index would
    build, mapping order included."""
    t = Tree(level)
    t._idx = _TreeIndex(MappingProxyType(level), MappingProxyType(kids),
                        leaves, levels)
    return t


def _index(t: Iterable[str]) -> _TreeIndex:
    """The index of t, built on t's first query when t is a Tree."""
    if type(t) is not Tree:
        t = Tree(t)
    idx = t._idx
    if idx is None:
        idx = t._idx = _build_index(t)
    return idx


def _member_index(t: Iterable[str], tau: str) -> _TreeIndex:
    idx = _index(t)
    if tau not in idx.level:
        raise MemberError(f"{tau!r} not in tree")
    return idx


def level_of(t: Iterable[str], tau: str) -> int:
    """Number of proper initial segments of tau inside t."""
    return _member_index(t, tau).level[tau]


def successors(t: Iterable[str], tau: str) -> tuple[str, ...]:
    """Minimal proper extensions of tau inside t, length-lex sorted."""
    return _member_index(t, tau).successors[tau]


def leaves(t: Iterable[str]) -> tuple[str, ...]:
    return _index(t).leaves


def _nonempty_index(t: Iterable[str]) -> _TreeIndex:
    idx = _index(t)
    if not idx.levels:
        raise ShapeError("empty tree has no level")
    return idx


def tree_uniform_level(t: Iterable[str]) -> Optional[int]:
    """The common level of all leaves, or None if leaves disagree.

    A tree "of level n" has every leaf at level n.  The members of the
    top level are all leaves, so the leaves agree exactly when there
    are no others.
    """
    idx = _nonempty_index(t)
    if len(idx.leaves) != len(idx.levels[-1]):
        return None
    return len(idx.levels) - 1


def max_level(t: Iterable[str]) -> int:
    return len(_nonempty_index(t).levels) - 1


def restrict_to_level(t: Iterable[str], n: int) -> Tree:
    """Members of level at most n, with an index sliced from t's.

    A member's parent lies below it, so cutting t at level n keeps
    every kept member's parent and level: the restriction's levels are
    t's first n + 1, its successors are t's with the level-n members'
    emptied, and its leaves are t's below level n plus all of level n.
    """
    idx = _index(t)
    kept = idx.levels[:max(n + 1, 0)]
    level = {m: k for k, ms in enumerate(kept) for m in ms}
    # each level is length-lex sorted, so the levels in turn are too
    # unless a level starts below where the one before it ends
    if any(lenlex_key(a[-1]) > lenlex_key(b[0])
           for a, b in zip(kept, kept[1:])):
        level = {m: level[m] for m in sort_lenlex(level)}
    top, succ = len(kept) - 1, idx.successors
    kids = {m: succ[m] if k < top else () for m, k in level.items()}
    return _with_index(level, kids,
                       tuple(m for m, ks in kids.items() if not ks), kept)


def is_prefix_free(strings: Iterable[str]) -> bool:
    """No string is a proper prefix of another.

    A string that sorts lexicographically between a and an extension
    of a extends a too, so it is enough to compare lex-order neighbours.
    """
    ss = sorted(set(strings))
    return not any(b.startswith(a) for a, b in zip(ss, ss[1:]))


def branching_stats(t: Iterable[str]) -> tuple[int, int]:
    """(max successor count, two-branching-below level): the second is
    the largest n such that every member of level < n has exactly two
    successors."""
    idx = _index(t)
    if not idx.levels:
        raise ShapeError("empty tree")
    two_below = 0
    for ms in idx.levels:
        if any(len(idx.successors[m]) != 2 for m in ms):
            break
        two_below += 1
    return max(map(len, idx.successors.values())), two_below


@dataclass(frozen=True)
class StagedTree:
    """A tree given by cumulative enumeration snapshots."""

    stages: tuple[Tree, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(map(Tree, self.stages)))

    @property
    def final(self) -> Tree:
        if not self.stages:
            raise ShapeError("staged tree with no stages")
        return self.stages[-1]


def level_map(t: Iterable[str]) -> dict[int, tuple[str, ...]]:
    """Members by level, each level length-lex sorted; a fresh dict."""
    return dict(enumerate(_index(t).levels))


def graded_successor_counts(t: Iterable[str], lengths: Sequence[int]
                            ) -> Optional[list[dict[str, int]]]:
    """Successor counts of t's members, one dict per level, when t is
    graded by the increasing lengths: every member has some length
    lengths[k] and, unless k is 0, its prefix of length lengths[k - 1]
    is in t.  None when t is not so graded.

    That prefix is then each member's longest proper prefix in t, so k
    is the member's level and the counts (0 for a leaf) are read off in
    one pass over the members, with no index.
    """
    t = Tree(t)
    level_at = {length: k for k, length in enumerate(lengths)}
    counts: list[dict[str, int]] = [{} for _ in lengths]
    for m in t:
        k = level_at.get(len(m))
        if k is None:
            return None
        counts[k].setdefault(m, 0)
        if k:
            p = m[:lengths[k - 1]]
            if p not in t:
                return None
            below = counts[k - 1]
            below[p] = below.get(p, 0) + 1
    return counts
