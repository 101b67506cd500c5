"""Thin subtrees, trace systems, and the reductions between them.

A subtree T' of a finite tree T is thin when, above each of its
members, no prefix-free selection of T' members accumulates more than
total weight 1, a member at relative depth d weighing 2^-d with
depths measured in T.  Thin subtrees of a guarded-output level tree
give small value traces; small traces can be re-scaled to identity
size bounds; identity-bounded traces pick out a thin subtree of any
spaced-out weak tree; and splitting subtrees are automatically thin.
Everything runs on exact rationals: the weight-1 boundary is sharp.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import MemberError, ShapeError
from .functionals import (FunctionalTable, eval_at, hat_eval, is_splitting_tree,
                          output_prefix, splitting_violation)
from .strings import nat_to_string, show_string, sort_lenlex, string_to_nat
from .trees import Tree, branching_stats, level_of, max_level, successors


def _raw_antichain_weights(t: Tree, tp: Tree) -> dict[str, Fraction]:
    """Best prefix-free weight above each tp member, at absolute depth."""
    best: dict[str, Fraction] = {}
    for x in sorted(tp, key=len, reverse=True):
        own = Fraction(1, 1 << level_of(t, x))
        kids = successors(tp, x)
        below = sum((best[k] for k in kids), Fraction(0))
        best[x] = max(own, below)
    return best


def thin_violation(t: Iterable[str], tp: Iterable[str]) -> Optional[str]:
    """A witness that tp is not thin in t, or None."""
    t = Tree(t)
    tp = Tree(tp)
    if not tp <= t:
        raise MemberError("subtree members must come from the ambient tree")
    if "" not in tp:
        return "the empty string is missing"
    best = _raw_antichain_weights(t, tp)
    for x in sort_lenlex(tp):
        w = best[x] * (1 << level_of(t, x))
        if w > 1:
            return f"weight {w} above {show_string(x)}"
    return None


def is_thin(t: Iterable[str], tp: Iterable[str]) -> bool:
    return thin_violation(t, tp) is None


@dataclass(frozen=True)
class TraceSystem:
    """Size bounds p and value sets w, with |w[n]| <= p[n] enforced."""

    p: tuple[int, ...]
    w: dict[int, frozenset[int]]

    def __post_init__(self):
        for n, vals in self.w.items():
            if n < 0 or any(v < 0 for v in vals):
                raise ShapeError("trace indices and values are naturals")
            if n < len(self.p) and len(vals) > self.p[n]:
                raise ShapeError(
                    f"{len(vals)} values at {n} exceed the bound {self.p[n]}")

    def values_at(self, n: int) -> frozenset[int]:
        return self.w.get(n, frozenset())


def hat_level_tree(psi: FunctionalTable, max_length: int) -> Tree:
    """Strings where the guarded output first reaches each length.

    Output lengths grow by at most one per oracle bit, so these
    milestones form a tree whose level equals the output length.
    """
    def out_len(tau: str) -> int:
        return len(output_prefix(psi, tau, hat=True))

    members = {""}
    for length in range(1, max_length + 1):
        for bits in product("01", repeat=length):
            tau = "".join(bits)
            if out_len(tau) > out_len(tau[:-1]):
                members.add(tau)
    return Tree(members)


def trace_from_thin(psi: FunctionalTable, t: Iterable[str],
                    tp: Iterable[str]) -> TraceSystem:
    """Collect the outputs of a thin subtree of the level tree t.

    Members of level n+1 contribute their output value at argument n;
    thinness caps each set at 2^(n+1), a bound independent of psi.
    """
    t = Tree(t)
    tp = Tree(tp)
    bad = thin_violation(t, tp)
    if bad is not None:
        raise ShapeError(f"subtree is not thin: {bad}")
    horizon = max((level_of(t, x) for x in tp), default=0)
    w: dict[int, set[int]] = {n: set() for n in range(horizon)}
    for x in tp:
        lv = level_of(t, x)
        if lv == 0:
            continue
        out = output_prefix(psi, x, hat=True)
        if len(out) < lv:
            raise ShapeError(f"{show_string(x)} lacks an output of "
                             f"length {lv}; wrong level tree?")
        w[lv - 1].add(out[lv - 1])
    return TraceSystem(tuple(1 << (n + 1) for n in range(horizon)),
                       {n: frozenset(vals) for n, vals in w.items()})


def encode_tuple(values: Sequence[int]) -> int:
    """Natural-number code of a tuple: per value, a unary length
    prefix and then the bijective binary body."""
    bits = []
    for v in values:
        if v < 0:
            raise ShapeError("tuple entries are naturals")
        body = nat_to_string(v)
        bits.append("0" * len(body) + "1" + body)
    return string_to_nat("".join(bits))


def decode_tuple(code: int) -> Optional[tuple[int, ...]]:
    """Inverse of encode_tuple; None when the bits do not parse."""
    if code < 0:
        return None
    s = nat_to_string(code)
    out = []
    pos = 0
    while pos < len(s):
        ln = 0
        while pos < len(s) and s[pos] == "0":
            ln += 1
            pos += 1
        if pos >= len(s) or s[pos] != "1":
            return None
        pos += 1
        if pos + ln > len(s):
            return None
        out.append(string_to_nat(s[pos:pos + ln]))
        pos += ln
    return tuple(out)


def rescale_trace(ts: TraceSystem) -> TraceSystem:
    """Turn a p-bounded trace of coded blocks into an identity-bounded one.

    The input traces block codes: its value at m codes a tuple long
    enough to cover every n with k(n) = m, where k(n) is the greatest
    m with p(m) <= n.  Position n of the output collects the n-th
    entries of the tuples coded at k(n).
    """
    p = ts.p
    if not p or p[0] != 0 or any(p[i + 1] <= p[i] for i in range(len(p) - 1)):
        raise ShapeError("bounds must start at 0 and strictly increase")
    blocks: dict[int, list[tuple[int, ...]]] = {}  # m: its codes, decoded
    w: dict[int, frozenset[int]] = {}
    for n in range(len(p)):
        m = bisect_right(p, n) - 1  # k(n); p[0] = 0 <= n
        block = blocks.get(m)
        if block is None:
            block = blocks[m] = [t for t in map(decode_tuple, ts.values_at(m))
                                 if t is not None]
        w[n] = frozenset(t[n] for t in block if len(t) > n)
    return TraceSystem(tuple(range(len(p))), w)


def spaced_level(n: int) -> int:
    """Ambient level of the n-th spaced level: sum of 2i for i <= n."""
    return n * (n + 1)


def spacing_bound_partial(n: int, terms: int) -> Fraction:
    return sum((Fraction(n + i, 1 << (2 * (n + i))) for i in range(1, terms + 1)),
               Fraction(0))


def spacing_bound_limit(n: int) -> Fraction:
    # sum over k > n of k x^k with x = 1/4
    x = Fraction(1, 4)
    return x ** (n + 1) * ((n + 1) - n * x) / (1 - x) ** 2


def thin_from_trace(t: Iterable[str], ts: TraceSystem) -> Tree:
    """Decode an identity-bounded trace into a thin subtree of t.

    Codes at n must name members sitting at spaced level n, i.e. at
    ambient level n(n+1); the widening gaps pay for the growing sets.
    """
    t = Tree(t)
    for n, vals in ts.w.items():
        if len(vals) > max(1, n):
            raise ShapeError(f"{len(vals)} values at {n} break the "
                             "identity bound")
    members = {""}
    for n, vals in sorted(ts.w.items()):
        for code in vals:
            s = nat_to_string(code)
            if s not in t:
                raise ShapeError(f"code {code} names {show_string(s)} "
                                 "which is outside the tree")
            if level_of(t, s) != spaced_level(n):
                raise ShapeError(f"code {code} sits at the wrong level")
            members.add(s)
    return Tree(members)


def dnr_trace(tables: Sequence[FunctionalTable]) -> TraceSystem:
    """One-value sets from each functional's own diagonal argument."""
    w: dict[int, frozenset[int]] = {}
    for n, f in enumerate(tables):
        v = eval_at(f, "", n)
        w[n] = frozenset() if v is None else frozenset([v])
    return TraceSystem(tuple(max(1, n) for n in range(len(tables))), w)


def selfdelim_encode(n: int, m: int) -> str:
    """Pair code: bits of n each followed by 0, except the last
    followed by 1; then the bare bits of m."""
    if n < 1 or m < 1:
        raise ShapeError("both components must be positive")
    nb = bin(n)[2:]
    head = "".join(bit + "0" for bit in nb[:-1]) + nb[-1] + "1"
    return head + bin(m)[2:]


def selfdelim_decode(s: str) -> tuple[int, int]:
    nbits = []
    pos = 0
    while True:
        if pos + 2 > len(s):
            raise ShapeError("ran out of bits inside the first component")
        nbits.append(s[pos])
        if s[pos + 1] == "1":
            pos += 2
            break
        pos += 2
    rest = s[pos:]
    if not rest or rest[0] != "1" or nbits[0] != "1":
        raise ShapeError("components must be bare binary numerals")
    return int("".join(nbits), 2), int(rest, 2)


def selfdelim_roundtrip(n: int, m: int) -> tuple[str, bool]:
    """The code for (n, m), and whether it decodes back at its length."""
    code = selfdelim_encode(n, m)
    return code, (selfdelim_decode(code) == (n, m)
                  and len(code) == 2 * n.bit_length() + m.bit_length())


class SplittingReduction(NamedTuple):
    thin_ok: bool
    witness: Optional[tuple[str, str]]


def level_functional(t: Iterable[str]) -> FunctionalTable:
    """The functional that reads back each member's own level prefix."""
    t = Tree(t)
    axioms = []
    for tau in t:
        for k in range(level_of(t, tau)):
            axioms.append((tau, k, int(tau[k]), 1))
    return FunctionalTable(tuple(axioms))


def splitting_to_thin(t: Iterable[str],
                      split_sub: Iterable[str]) -> SplittingReduction:
    """Build the level-readback functional of t and test the subtree.

    A subtree that splits this functional is thin; a non-splitting
    subtree is reported with the offending pair.
    """
    t = Tree(t)
    split_sub = Tree(split_sub)
    if not split_sub <= t:
        raise MemberError("subtree members must come from the tree")
    if "" not in split_sub:
        raise MemberError("subtree must contain the empty string")
    witness = splitting_violation(level_functional(t), split_sub)
    return SplittingReduction(witness is None and is_thin(t, split_sub),
                              witness)


def trace_from_bounded_splitting(psi: FunctionalTable, t: Iterable[str],
                                 m: int) -> TraceSystem:
    """Guarded values of an m-branching splitting tree, level by level."""
    t = Tree(t)
    max_succ, _ = branching_stats(t)
    if max_succ > m:
        raise ShapeError(f"branching {max_succ} exceeds the stated bound {m}")
    if not is_splitting_tree(psi, t, hat=True):
        raise ShapeError("tree does not split the functional")
    depth = max_level(t)
    w: dict[int, set[int]] = {n: set() for n in range(depth)}
    for tau in t:
        lv = level_of(t, tau)
        if lv == 0:
            continue
        v = hat_eval(psi, tau, lv - 1)
        if v is not None:
            w[lv - 1].add(v)
    return TraceSystem(tuple(m ** (n + 1) for n in range(depth)),
                       {n: frozenset(vals) for n, vals in w.items()})
