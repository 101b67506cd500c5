"""Colour extraction on bushy shapes.

Two ambient shapes are used.  The even shape has the strings of length
2n at level n, so every string has four successors.  The graded shape
puts level n at length sum(i+2 for i < n); a level-n string then has
2^(n+2) successors, which is what the thinning schedule kappa needs.

extract_twocol and extract_nice walk the same induction: propagate a
colour down one level when a strict majority of successors carries it,
recurse, then unwind picking the allowed number of non-d extensions at
each level.  Colourings may be partial; an uncoloured leaf never
matches any colour, and a string whose successors are all uncoloured
stays uncoloured itself rather than defaulting to colour 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetError, ShapeError
from .trees import (Tree, leaves, level_map, level_of, successors,
                    tree_uniform_level)

EVEN = "even"
GRADED = "graded"


@dataclass(frozen=True)
class BushyShape:
    variant: str

    def __post_init__(self):
        if self.variant not in (EVEN, GRADED):
            raise ShapeError(f"unknown shape {self.variant!r}")

    def level_length(self, n: int) -> int:
        if n < 0:
            raise ShapeError("negative level")
        if self.variant == EVEN:
            return 2 * n
        return n * (n + 3) // 2  # sum(i + 2 for i in range(n))

    def level_of_length(self, length: int) -> Optional[int]:
        if length < 0:
            return None
        if self.variant == EVEN:
            return None if length % 2 else length // 2
        # invert n(n+3)/2 = length: n = (sqrt(9 + 8 length) - 3) / 2
        r = isqrt(9 + 8 * length)
        return (r - 3) // 2 if r * r == 9 + 8 * length else None

    def branching(self, n: int) -> int:
        return 4 if self.variant == EVEN else 1 << (n + 2)

    def successor_strings(self, s: str) -> tuple[str, ...]:
        return _successor_strings(self.variant, s)


@lru_cache(maxsize=1024)
def _successor_strings(variant: str, s: str) -> tuple[str, ...]:
    shape = BushyShape(variant)
    n = shape.level_of_length(len(s))
    if n is None:
        raise ShapeError(f"{s!r} is not on a level of the shape")
    gap = shape.level_length(n + 1) - len(s)
    return tuple(s + x for x in _bit_strings(gap))


@lru_cache(maxsize=32)
def _bit_strings(length: int) -> tuple[str, ...]:
    """All strings of the given length, in lexicographic order."""
    return tuple("".join(bits) for bits in product("01", repeat=length))


EVEN_SHAPE = BushyShape(EVEN)
GRADED_SHAPE = BushyShape(GRADED)


def bushy_level_strings(shape: BushyShape, n: int,
                        max_strings: int = 1 << 20) -> tuple[str, ...]:
    length = shape.level_length(n)
    if 1 << length > max_strings:
        raise BudgetError(f"level {n} holds 2^{length} strings")
    return _bit_strings(length)


def ncol(i: int) -> int:
    return 1 << (i + 1)


def kappa(i: int, n: int) -> int:
    """Successor schedule: 2 below the grade, then 2^(n-i+2)."""
    if i < 0 or n < 0:
        raise ShapeError("negative index")
    return 2 if n < i else 1 << (n - i + 2)


@dataclass(frozen=True)
class Coloring:
    """Partial colour assignment; values must stay below num_colors."""

    assignment: dict[str, int]
    num_colors: int

    def __post_init__(self):
        for s, c in self.assignment.items():
            if not 0 <= c < self.num_colors:
                raise ShapeError(f"colour {c} at {s!r} out of range")

    def get(self, s: str) -> Optional[int]:
        return self.assignment.get(s)


Fanout = Callable[[int], int]  # the successor count wanted per level


def is_compatible(shape: BushyShape, sub: Iterable[str], f: Fanout) -> bool:
    """Subtree discipline: levels agree with the shape and non-leaves
    have exactly f(level) successors."""
    sub = Tree(sub)
    if not sub:
        return False
    # a successor sits one tree level down, so checking every member's
    # own length also places each successor on the next shape level
    for lv, members in level_map(sub).items():
        want = shape.level_length(lv)
        for m in members:
            if len(m) != want:
                return False
            succ = successors(sub, m)
            if succ and len(succ) != f(lv):
                return False
    return True


def _propagate(counts_src: dict[str, Optional[int]],
               parents: Iterable[str],
               child_of: Callable[[str], Sequence[str]]) -> dict[str, Optional[int]]:
    """One downward step: strict majority wins, all-blank stays blank,
    anything else falls back to colour 0."""
    out: dict[str, Optional[int]] = {}
    for p in parents:
        kids = child_of(p)
        tally: dict[int, int] = {}
        blanks = 0
        for k in kids:
            c = counts_src.get(k)
            if c is None:
                blanks += 1
            else:
                tally[c] = tally.get(c, 0) + 1
        winner = None
        for c, cnt in tally.items():
            if 2 * cnt > len(kids):
                winner = c
                break
        if winner is not None:
            out[p] = winner
        elif blanks == len(kids):
            out[p] = None
        else:
            out[p] = 0
    return out


def extract_twocol(shape: BushyShape, n: int,
                   c: Coloring) -> tuple[int, Tree]:
    """Two-colour extraction on the even shape.

    Returns (d, sub) where sub is a two-branching level-n subtree of
    the shape none of whose leaves carries colour d.
    """
    if shape.variant != EVEN:
        raise ShapeError("two-colour extraction runs on the even shape")
    if c.num_colors != 2:
        raise ShapeError("expected a 2-colouring")
    level_sets = [bushy_level_strings(shape, k) for k in range(n + 1)]
    col: dict[str, Optional[int]] = {s: c.assignment.get(s)
                                     for s in level_sets[n]}
    missing = [s for s, x in col.items() if x is None]
    if missing:
        raise ShapeError(f"leaf {missing[0]!r} is uncoloured")
    per_level = [col]
    for k in range(n - 1, -1, -1):
        col = _propagate(col, level_sets[k], shape.successor_strings)
        per_level.append(col)
    per_level.reverse()  # per_level[k] colours level k
    root_colour = per_level[0][""]
    d = 0 if root_colour != 0 else 1
    if root_colour is None:
        d = 0
    sub = {""}
    frontier = [""]
    for k in range(n):
        nxt = []
        for s in frontier:
            ok = [x for x in shape.successor_strings(s)
                  if per_level[k + 1][x] != d]
            if len(ok) < 2:
                raise ShapeError(f"no two clean successors under {s!r}")
            nxt.extend(sorted(ok)[:2])
        sub.update(nxt)
        frontier = nxt
    return d, Tree(sub)


def extract_nice(shape: BushyShape, i: int, t0: Iterable[str],
                 c: Coloring) -> tuple[int, Tree]:
    """Thin a kappa(i)-compatible graded subtree against an ncol(i)-colouring.

    Returns (d, t1) with t1 kappa(i+1)-compatible of the same level and
    no leaf of t1 coloured d.  Once the tree has at most 2^i leaves
    some colour is simply unused and the tree is kept whole.
    """
    if shape.variant != GRADED:
        raise ShapeError("graded shape required")
    t0 = Tree(t0)
    if not is_compatible(shape, t0, lambda k: kappa(i, k)):
        raise ShapeError("input tree is not kappa(i)-compatible")
    if c.num_colors != ncol(i):
        raise ShapeError(f"expected an ncol({i})-colouring")
    n = tree_uniform_level(t0)
    if n is None:
        raise ShapeError("leaves sit at mixed levels")
    col: dict[str, Optional[int]] = {s: c.get(s) for s in leaves(t0)}
    lm = level_map(t0)
    per_level: dict[int, dict[str, Optional[int]]] = {n: col}
    for k in range(n - 1, i - 1, -1):
        per_level[k] = _propagate(per_level[k + 1], lm[k],
                                  lambda p: successors(t0, p))
    base_level = min(n, i)
    base_cols = {per_level[base_level].get(s)
                 for s in lm[base_level]} - {None}
    d = next(x for x in range(ncol(i)) if x not in base_cols)
    t1 = set()
    for k in range(base_level + 1):
        t1.update(lm[k])
    frontier = list(lm[base_level])
    for k in range(base_level, n):
        want = kappa(i + 1, k)
        nxt = []
        for s in frontier:
            ok = [x for x in successors(t0, s)
                  if per_level[k + 1].get(x) != d]
            if len(ok) < want:
                raise ShapeError(f"not enough clean successors under {s!r}")
            nxt.extend(sorted(ok)[:want])
        t1.update(nxt)
        frontier = nxt
    return d, Tree(t1)


def verify_extraction(shape: BushyShape, f_target: Fanout, n: int,
                      c: Coloring, d: int, sub: Iterable[str]) -> bool:
    """Check an extraction: compatibility, level, and no leaf coloured d."""
    sub = Tree(sub)
    if not sub or not is_compatible(shape, sub, f_target):
        return False
    if tree_uniform_level(sub) != n:
        return False
    return all(c.get(lf) != d for lf in leaves(sub))
