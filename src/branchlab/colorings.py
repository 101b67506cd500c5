"""Colour extraction on bushy shapes.

Two ambient shapes are used.  The even shape has the strings of length
2n at level n, so every string has four successors.  The graded shape
puts level n at length sum(i+2 for i < n); a level-n string then has
2^(n+2) successors, which is what the thinning schedule kappa needs.

extract_twocol and extract_nice run one induction, _thin_ranks:
propagate a colour down one level when a strict majority of
successors carries it, take d to be the least colour absent at the
base level, then unwind keeping the allowed number of successors not
coloured d at each level.  Colourings may be partial; an uncoloured
leaf never matches any colour, and a string whose successors are all
uncoloured stays uncoloured itself rather than defaulting to colour 0.
The two extractions differ only in what they hand the induction: the
even shape's levels, fan 4, two kept and base level 0 for the one;
t0's levels, kappa(i) and kappa(i + 1), and base level min(n, i) for
the other.

The induction runs on level arrays.  A level's strings are ranked in
lex order, as bushy_level_strings and level_map list them, and the
colours of a level form one list in that order.  When every member of
level k has fan successors, the successors of rank r are ranks fan*r
to fan*r + fan - 1 of level k + 1, so a majority step and the unwind
work on ranks alone and read strings only for what they return.  A
majority step counts each run's first colour before it sorts the run,
since most runs are led by their majority.  A constant run's strict
majority is that constant, and an all-blank run stays blank, so
colours repeated down the fans from a fixed level k step back up to
level k's own: the witness search colours its trees so, and hands the
rank core of extract_nice the level-n list directly.

is_compatible, the input check of extract_nice and of the witness
search's nodes, reads the tree index (trees._index) level by level:
the member lengths and successor counts it checks are the index's
levels and successor map, and f is called once per level.  It keeps
no verdict, so each call is one scan.  The witness search checks none
of the trees it thins, which it built itself; its final tree is
checked by realize and again by the node realize makes.  nice_outcomes
runs extract_nice's input checks on a tree once, not once a colouring.

The induction returns the picked levels, each in rank order, and every
picked member below the top keeps exactly want successors, so its
successors are the next want members of the picked level above.
extract_nice reads its result's index off the picked levels in those
chunks (trees._with_index) rather than leaving it to be rebuilt: the
witness search queries each thinned tree again.  extract_twocol hands
back a plain Tree with no index: its callers only verify the result,
which reads no index, so laying one out would add a cost to every
extraction that no caller recovers.

verify_extraction checks the extracted tree by the shape rather than
by a tree index: trees.graded_successor_counts places every member on
the shape level of its length, after checking that its prefix at the
previous level length is a member too, and counts each member's
successors in the same pass.  It shares no code with the extractions
it checks, and it stays independent of the index, so that a fault in
the index cannot hide a faulty extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product, repeat
from math import isqrt
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetError, ShapeError
# level_of is not called here; the benchmark's tracer test checks that
# tracing restores colorings.level_of
from .trees import (Tree, _index, _with_index,  # noqa: F401
                    graded_successor_counts, leaves, level_of,
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


MAX_LEVEL_STRINGS = 1 << 20  # the most strings one listed level holds


def bushy_level_strings(shape: BushyShape, n: int) -> tuple[str, ...]:
    length = shape.level_length(n)
    if 1 << length > MAX_LEVEL_STRINGS:
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
    idx = _index(sub)
    if not idx.levels:
        return False
    # a successor sits one tree level down, so checking every member's
    # own length also places each successor on the next shape level
    succ = idx.successors
    for lv, members in enumerate(idx.levels):
        want, fan = shape.level_length(lv), f(lv)
        for m in members:
            if len(m) != want:
                return False
            kids = len(succ[m])
            if kids and kids != fan:
                return False
    return True


_BLANK = -1  # an uncoloured string in a level array; colours are >= 0


def _majority_step(kids: list[int], fan: int) -> list[int]:
    """The colours of one level from those of the level below, where
    parent r owns the run kids[fan*r : fan*r+fan]: a strict majority
    wins, all-blank stays blank, anything else falls back to colour 0."""
    half = fan // 2
    out: list[int] = []
    for run in zip(*[iter(kids)] * fan):
        # most runs are led by their majority, and counting it is
        # cheaper than sorting; a blank majority still falls back to 0
        if run[0] != _BLANK and run.count(run[0]) > half:
            out.append(run[0])
            continue
        top = sorted(run)[half]  # a strict majority covers the middle
        if top != _BLANK and run.count(top) > half:
            out.append(top)
        else:
            out.append(_BLANK if max(run) == _BLANK else 0)
    return out


def _thin_ranks(levels: Sequence[tuple[str, ...]], base: int,
                schedule: list[tuple[int, int]], top_cols: list[int]
                ) -> tuple[int, list[tuple[str, ...]]]:
    """The induction of both extractions, on rank-ordered levels.

    Member r of levels[k] owns ranks fan*r to fan*r + fan - 1 of
    levels[k + 1], where schedule[k] is (fan, want), and top_cols
    colours the top level by rank.  The colours step down to level base
    by strict majority, d is the least colour absent there, and from
    level base on each picked member keeps its first want successors
    not coloured d.  Returns d and the picked levels, levels 0 to base
    whole: a picked member's successors are the next want members, in
    rank order, of the picked level above.
    """
    n = len(levels) - 1
    cols = [top_cols]  # cols[j] colours level n - j by rank
    for k in range(n - 1, base - 1, -1):
        cols.append(_majority_step(cols[-1], schedule[k][0]))
    d = 0  # the base level is short: scanning it beats building a set
    while d in cols[-1]:
        d += 1
    picked = list(levels[:base + 1])
    frontier = range(len(levels[base]))  # ranks of the picked members
    for k in range(base, n):
        (fan, want), below, up = schedule[k], cols[n - k - 1], levels[k + 1]
        nxt, got = [], []  # the ranks picked on level k + 1, and strings
        for r in frontier:
            left = want
            for x in range(fan * r, fan * r + fan):
                if below[x] != d:
                    nxt.append(x)
                    got.append(up[x])
                    left -= 1
                    if not left:
                        break
            else:
                raise ShapeError(
                    f"no {want} clean successors under {levels[k][r]!r}")
        picked.append(tuple(got))
        frontier = nxt
    return d, picked


@lru_cache(maxsize=32)
def _even_levels(n: int) -> tuple[tuple[str, ...], ...]:
    """Levels 0 to n of the even shape, listed once for every
    two-colour extraction of level n.  Level n is listed first, so a
    negative or too large n is refused before any level is built."""
    top = bushy_level_strings(EVEN_SHAPE, n)
    return tuple(bushy_level_strings(EVEN_SHAPE, k) for k in range(n)) + (top,)


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
    levels = _even_levels(n)
    col = list(map(c.assignment.get, levels[n]))
    if None in col:
        raise ShapeError(f"leaf {levels[n][col.index(None)]!r} is uncoloured")
    # every even-shape string has four successors, and sub keeps two
    d, picked = _thin_ranks(levels, 0, [(4, 2)] * n, col)
    return d, Tree(sum(picked, ()))


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
    return _extract_ranks(i, t0, list(map(c.assignment.get,
                                          _index(t0).levels[n],
                                          repeat(_BLANK))))


def _extract_ranks(i: int, t0: Tree, top_cols: list[int]) -> tuple[int, Tree]:
    """extract_nice on a kappa(i)-compatible t0 of uniform level n whose
    level-n members, in rank order, carry the colours top_cols."""
    levels = _index(t0).levels  # below level n each has kappa(i, k) kids
    n = len(levels) - 1
    schedule = [(kappa(i, k), kappa(i + 1, k)) for k in range(n)]
    d, picked = _thin_ranks(levels, min(n, i), schedule, top_cols)
    # below level i both schedules give 2, so every member of t1 below
    # its top keeps exactly want successors and they can be read off
    # the level above in chunks; each level and successor tuple comes
    # out lex-sorted, and the levels in turn length-lex sorted
    wants = [want for _, want in schedule] + [0]  # top members keep none
    kids = {m: up[want * j:want * j + want]
            for ms, want, up in zip(picked, wants, picked[1:] + [()])
            for j, m in enumerate(ms)}
    level = {m: k for k, ms in enumerate(picked) for m in ms}
    return d, _with_index(level, kids, picked[-1], tuple(picked))


def verify_extraction(shape: BushyShape, f_target: Fanout, n: int,
                      c: Coloring, d: int, sub: Iterable[str]) -> bool:
    """Check an extraction: f_target-compatible, of level n, and no leaf
    coloured d.

    Checked by the shape, with no tree index: sub must be graded by the
    shape's level lengths up to n, and then its tree levels are the
    shape levels, so the level-n members are its leaves and every
    member below n must have f_target(level) successors.
    """
    sub = Tree(sub)
    if not 0 <= n < len(sub):  # a level-n tree holds a chain of n + 1
        return False
    counts = graded_successor_counts(
        sub, [shape.level_length(k) for k in range(n + 1)])
    if counts is None:
        return False
    for k in range(n):
        want = f_target(k)
        if not want or any(cnt != want for cnt in counts[k].values()):
            return False
    return all(c.get(m) != d for m in counts[n])


def twocol_outcome(n: int, colors: dict[str, int]):
    """(d, failure) for one extraction from a two-colouring of level n
    of the even shape.

    failure is None when the extraction verifies.  If extraction raises,
    d is None and failure is the error; if the extracted tree fails to
    verify, failure is the colouring as bits in sorted-leaf order.
    """
    c = Coloring(colors, 2)
    try:
        d, sub = extract_twocol(EVEN_SHAPE, n, c)
    except ValueError as e:
        return None, str(e)
    if verify_extraction(EVEN_SHAPE, lambda k: 2, n, c, d, sub):
        return d, None
    return d, "".join(str(colors[s]) for s in sorted(colors))


def nice_outcomes(rng, i: int, n: int, t0: Iterable[str]):
    """(d, failure) for one nice extraction after another from t0, each
    from a colouring of t0's leaves drawn from rng; failure as in
    twocol_outcome, except that a rejected tree gives "d=<d>".

    Colourings go through extract_nice, input checks and all, until one
    extraction succeeds.  t0 has then passed those checks, so its leaves
    are its top level in rank order, and every later colouring goes
    straight to the rank core with its colours as drawn.
    """
    t0, k, checked = Tree(t0), ncol(i), False
    lvs, f = leaves(t0), lambda lv: kappa(i + 1, lv)
    while True:
        cols = [rng.randrange(k) for _ in lvs]
        c = Coloring(dict(zip(lvs, cols)), k)
        try:
            d, t1 = (_extract_ranks(i, t0, cols) if checked
                     else extract_nice(GRADED_SHAPE, i, t0, c))
        except ValueError as e:
            yield None, str(e)
            continue
        checked = True
        yield d, (None if verify_extraction(GRADED_SHAPE, f, n, c, d, t1)
                  else f"d={d}")


def kappa_cells(imax: int, nmax: int):
    """(i, n, kappa(i, n), the graded shape's branching at level n - i)
    for i <= imax and i <= n <= nmax."""
    return ((i, n, kappa(i, n), GRADED_SHAPE.branching(n - i))
            for i in range(imax + 1) for n in range(i, nmax + 1))
