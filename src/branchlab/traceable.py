"""Stagewise pruning construction with a tuple trace.

A binary tree grows one length per stage.  Certain strings are nodes
and carry modules: a C(i, n) module waits for the i-th adversary
functional to converge at argument n somewhere above its node, then
reshapes the tree above the node around two incompatible witnesses
and enumerates the computed value into the trace; a P(i) module
watches the i-th functional's output at the empty oracle and kills
the successor branch that output follows.  Terminal strings never
grow again.  The surviving frontier stays nonempty, avoids every
total adversary output, and the trace stays small: one value per
node generation.

The state stores only what it cannot derive.  The tree is the terminal
strings plus the live ones, every non-terminal string of length at
most the stage, which one descent walks; the traced tuples, the next
generation and a node's modules follow from the logs and levels.

A stage's module acts change one working copy of the state in place,
frozen once.  No node is ever terminal, so a walk of the live strings
above a node meets every node above it: a C reshape drops them on the
walk it makes for the newly terminal strings, a P module finds its
successor nodes on a walk stopped at each node, and the final check
reads each string's deepest node prefix off one descent.  An act makes
each live string it kills terminal, so a stage grows from its frontier
less the terminal set, and the new state keeps the frontier it grew.

Stage numbering: a state with stage S has completed S growth steps,
so strings present have length at most S.  The next run_stage call
works with search length S and step bound S, then grows the tree to
length S+1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import ProtocolError
from .functionals import (EMPTY_TABLE, FunctionalTable, _has_axiom_at,
                          value_within)
from .strings import (bits_of_values, compatible, is_prefix, lenlex_key,
                      longest_proper_prefix)


class ModuleId(NamedTuple):
    """C(i, n) waits for a convergence; P(i) guards a successor pair.
    Only module_set's modules are allocated, so an act refuses any
    other kind or index."""

    kind: str
    i: int
    n: int = 0

    def __str__(self) -> str:
        if self.kind == "C":
            return f"C({self.i},{self.n})"
        return f"{self.kind}({self.i})"


@lru_cache(maxsize=256)
def module_set(level: int) -> tuple[ModuleId, ...]:
    """The modules a node of this level carries, in the order a stage
    tries them: C(i, level - i) by i, then P(level)."""
    return (*(ModuleId("C", i, level - i) for i in range(level + 1)),
            ModuleId("P", level))


class NodeInfo(NamedTuple):
    level: int
    generation: int
    declared_stage: int

    @property
    def modules(self) -> tuple[ModuleId, ...]:
        return module_set(self.level)


@dataclass(frozen=True)
class ConstructionState:
    stage: int
    nodes: dict[str, NodeInfo]
    terminal: frozenset[str]
    acted: frozenset[tuple[str, ModuleId, int]]
    declared_log: tuple[tuple[int, str, int, int], ...]  # (level, tau, gen, stage)
    tuple_log: tuple[tuple[int, int, int, str, int, int], ...] = ()
    # tuple_log rows: (i, n, value, node, node level, node generation)
    _frontier = None  # what the stage that made it grew; eq ignores it

    @property
    def tuples(self) -> frozenset[tuple[int, int, int]]:
        """The traced (i, n, value) triples."""
        return frozenset(row[:3] for row in self.tuple_log)

    @property
    def next_generation(self) -> int:
        """Generations count declarations from 1, one per log row."""
        return len(self.declared_log) + 1


class WorkingState:
    """A mutable copy of a state's fields, which the acts of one stage
    change in place; freeze() hands back the state."""

    def __init__(self, st: ConstructionState):
        self.stage, self.nodes = st.stage, dict(st.nodes)
        self.terminal, self.acted = set(st.terminal), set(st.acted)
        self.declared_log = list(st.declared_log)
        self.tuple_log = list(st.tuple_log)

    next_generation = ConstructionState.next_generation

    def freeze(self) -> ConstructionState:
        return ConstructionState(self.stage, self.nodes,
                                 frozenset(self.terminal),
                                 frozenset(self.acted),
                                 tuple(self.declared_log),
                                 tuple(self.tuple_log))


def init_state() -> ConstructionState:
    return ConstructionState(
        stage=0,
        nodes={"": NodeInfo(0, 1, 0)},
        terminal=frozenset(),
        acted=frozenset(),
        declared_log=((0, "", 1, 0),),
    )


def is_terminal(st: ConstructionState | WorkingState, s: str) -> bool:
    """True iff some prefix of s, s included, is terminal."""
    terminal = st.terminal
    if not terminal:
        return False
    return any(s[:k] in terminal for k in range(len(s) + 1))


def _live_levels(st: ConstructionState | WorkingState, tau: str,
                 length: int):
    """The non-terminal extensions of tau, one lex-ordered list per
    length up to the given one: a string is terminal iff a prefix is,
    so the descent drops each terminal child, by lookups alone."""
    if length < len(tau):
        return
    level = [] if is_terminal(st, tau) else [tau]
    yield level
    for _ in range(len(tau), length):
        level = _live_children(st, level)
        yield level


def _live_children(st: ConstructionState | WorkingState,
                   level: list[str]) -> list[str]:
    """The non-terminal one-bit extensions of the strings, in order."""
    terminal = st.terminal
    return [y for x in level for y in (x + "0", x + "1")
            if y not in terminal]


def frontier(st: ConstructionState) -> tuple[str, ...]:
    """Non-terminal strings of the stage's length, in lex order: the
    ones its stage grew, which a state keeps, or one descent."""
    if st._frontier is not None:
        return st._frontier
    *_, level = _live_levels(st, "", st.stage)
    return tuple(level)


def _adversary_table(adv: Sequence[FunctionalTable],
                     i: int) -> FunctionalTable:
    return adv[i] if i < len(adv) else EMPTY_TABLE


def oracle_output_bits(f: FunctionalTable, steps: int) -> str:
    """Argwise output at the empty oracle, truncated at the first
    missing or non-bit value."""
    vals = []
    while (v := value_within(f, "", len(vals), steps)) is not None:
        vals.append(v)
    return bits_of_values(vals)


def _check_allocated(st: ConstructionState | WorkingState, tau: str,
                     mid: ModuleId) -> NodeInfo:
    info = st.nodes.get(tau)
    if info is None or mid not in info.modules:
        raise ProtocolError(f"{mid} is not allocated to {tau!r}")
    if (tau, mid, info.generation) in st.acted:
        raise ProtocolError(f"{mid} at {tau!r} has already acted")
    return info


def act_c_module(work: WorkingState, tau: str, mid: ModuleId,
                 adv: Sequence[FunctionalTable]) -> bool:
    """Fire a C module if its convergence search succeeds: True iff so.

    The search descends the live strings above the node, length-lex,
    for a tau' where the adversary converges within the stage's step
    budget and which still has two incompatible non-terminal
    extensions of the search length.  Acting reshapes everything above
    the node.  Past the node and the longest sigma at the argument, a
    candidate converges as its prefix there does, with no more live
    extensions, so the search stops there.
    """
    info = _check_allocated(work, tau, mid)
    if mid.kind != "C":
        raise ProtocolError("expected a C module")
    table = _adversary_table(adv, mid.i)
    if not _has_axiom_at(table, mid.n):
        return False  # no axiom at the argument: nothing can converge
    s = work.stage
    found = None
    depth = min(s - 1, max(len(tau), table._lengths[mid.n][-1]))
    for cand in chain.from_iterable(_live_levels(work, tau, depth)):
        value = value_within(table, cand, mid.n, s)
        if value is None:
            continue
        *_, ext = _live_levels(work, cand, s)
        if len(ext) >= 2:
            found = (ext[:2], value)
            break
    if found is None:
        return False
    (t0, t1), value = found

    nodes = work.nodes
    # walked whole before the terminal set changes; tau, first, stays
    for p in list(chain.from_iterable(_live_levels(work, tau, s)))[1:]:
        nodes.pop(p, None)
        if not compatible(p, t0) and not compatible(p, t1):
            work.terminal.add(p)
    for gen, t in enumerate((t0, t1), work.next_generation):
        nodes[t] = NodeInfo(info.level + 1, gen, s + 1)
        work.declared_log.append((info.level + 1, t, gen, s + 1))
    work.acted.add((tau, mid, info.generation))
    work.tuple_log.append((mid.i, mid.n, value, tau, info.level,
                           info.generation))
    return True


def _successor_nodes(st: WorkingState, tau: str) -> list[str]:
    """The nodes above tau with no node between, length-lex: the walk
    of the live strings above tau, stopped at each node it meets."""
    succ, level = [], [tau]
    for _ in range(len(tau), st.stage):
        level = _live_children(st, level)
        succ += [y for y in level if y in st.nodes]
        level = [y for y in level if y not in st.nodes]
    return succ


def act_p_module(work: WorkingState, tau: str, mid: ModuleId,
                 adv: Sequence[FunctionalTable]) -> bool:
    """Fire a P module if the adversary's output follows a successor:
    True iff so.

    The module waits two stages after its node was declared, needs
    exactly two successor nodes, and when the output at the empty
    oracle extends one of them it terminates that whole side.
    """
    info = _check_allocated(work, tau, mid)
    if mid.kind != "P":
        raise ProtocolError("expected a P module")
    s = work.stage
    if s + 1 < info.declared_stage + 2:
        return False
    succ = _successor_nodes(work, tau)
    if len(succ) != 2:
        return False
    out = oracle_output_bits(_adversary_table(adv, mid.i), s)
    if is_prefix(succ[0], out):
        keep = succ[1]
    elif is_prefix(succ[1], out):
        keep = succ[0]
    else:
        return False
    doomed = [p for p in chain.from_iterable(_live_levels(work, tau, s))
              if not compatible(p, keep)]
    work.terminal.update(doomed)
    for p in doomed:
        work.nodes.pop(p, None)
    work.acted.add((tau, mid, info.generation))
    return True


def _modules_that_can_act(adv: Sequence[FunctionalTable], level: int,
                          s: int) -> tuple[ModuleId, ...]:
    """The modules of a node at this level that may fire at stage s, in
    module_set's order.

    A C(i, n) module needs an axiom at argument n in table i, and a
    P(i) module a non-empty output, since an empty one extends no
    successor; no other module can fire.
    """
    return tuple(m for m in module_set(level)
                 if (_has_axiom_at(_adversary_table(adv, m.i), m.n)
                     if m.kind == "C"
                     else oracle_output_bits(_adversary_table(adv, m.i), s)))


def run_stage(st: ConstructionState,
              adv: Sequence[FunctionalTable] = ()) -> ConstructionState:
    """One full stage: run modules node by node, then grow the tree from
    the frontier, which the new state keeps."""
    s = st.stage
    live = frontier(st)
    # only nodes at levels with a module that can act go in the snapshot
    acting = {level: _modules_that_can_act(adv, level, s)
              for level in {nf.level for nf in st.nodes.values()}}
    snapshot = sorted(((nf.level, lenlex_key(tau), tau, nf.generation)
                       for tau, nf in st.nodes.items()
                       if nf.declared_stage <= s and acting[nf.level]))
    work = WorkingState(st)
    for level, _, tau, gen in snapshot:
        nf = work.nodes.get(tau)
        if nf is None or nf.generation != gen:
            continue  # reshaped away earlier in this stage
        for mid in acting[level]:
            if (tau, mid, gen) in work.acted:
                continue
            act = act_c_module if mid.kind == "C" else act_p_module
            if act(work, tau, mid, adv):
                break  # one action per node per stage
    nodes, log, terminal = work.nodes, work.declared_log, work.terminal
    live = tuple(_live_children(work, [x for x in live
                                       if x not in terminal]))
    for gen, tau in enumerate(live, work.next_generation):
        # a live parent is a node, unless the state was built without it
        parent = nodes.get(tau[:-1]) or nodes[longest_proper_prefix(
            tau, nodes)]
        level = parent.level + 1
        nodes[tau] = NodeInfo(level, gen, s + 1)
        log.append((level, tau, gen, s + 1))
    work.stage = s + 1
    grown = work.freeze()
    object.__setattr__(grown, "_frontier", live)
    return grown


def stage_run(adv: Sequence[FunctionalTable], horizon: int):
    """The state after each of the first horizon stages from the start."""
    st = init_state()
    for _ in range(horizon):
        st = run_stage(st, adv)
        yield st


def run_to_horizon(adv: Sequence[FunctionalTable], horizon: int,
                   ) -> tuple[ConstructionState, Optional[int]]:
    """The state after horizon stages, and the first stage whose
    frontier is empty (None if none is).  Every stage runs, stalled or
    not."""
    st, stalled = init_state(), None
    for st in stage_run(adv, horizon):
        if stalled is None and not frontier(st):
            stalled = st.stage
    return st, stalled


@dataclass(frozen=True)
class TraceReport:
    per_i: dict[int, dict[int, frozenset[int]]]


def extract_trace(st: ConstructionState) -> TraceReport:
    per_i: dict[int, dict[int, set[int]]] = {}
    for i, n, d in st.tuples:
        per_i.setdefault(i, {}).setdefault(n, set()).add(d)
    return TraceReport({i: {n: frozenset(ds) for n, ds in by_n.items()}
                        for i, by_n in per_i.items()})


def declared_counts(st: ConstructionState) -> dict[int, int]:
    return Counter(map(itemgetter(0), st.declared_log))


def node_count_bound(n: int) -> int:
    return (1 << n) * math.factorial(n + 1)


def trace_bound_pair(i: int, n: int) -> tuple[int, int]:
    """Nominal and safe ceilings for the number of traced values."""
    return ((1 << (n + i)) * math.factorial(n + i),
            (1 << (n + i)) * math.factorial(n + i + 1))


def run_flaws(st: ConstructionState, adv: Sequence[FunctionalTable]):
    """(over, fat, final_ok) of a finished run: the first (level, count,
    bound) over node_count_bound at a level <= 4, the first (i, n,
    size) over trace_bound_pair(i, n)[1], each None if there is none,
    and verify_final_nodes."""
    over = next(((n, c, node_count_bound(n))
                 for n, c in sorted(declared_counts(st).items())
                 if n <= 4 and c > node_count_bound(n)), None)
    fat = next(((i, n, len(ds))
                for i, by_n in extract_trace(st).per_i.items()
                for n, ds in by_n.items()
                if len(ds) > trace_bound_pair(i, n)[1]), None)
    return over, fat, verify_final_nodes(st, adv)


def final_node_violation(st: ConstructionState,
                         adv: Sequence[FunctionalTable]) -> Optional[str]:
    """Check the horizon conditions on every node short of the frontier.

    Each such node must keep a surviving successor node, no successor
    may sit inside the adversary output watched by the node's P
    module, and every live frontier string above the node must pass
    through a successor.  Only meaningful once the adversary has no
    convergences pending.

    A frontier string passes through a successor of a node below it iff
    a node lies between them, the string included: it can miss only its
    deepest proper node prefix's successors, and only if it is no node.
    One descent of the live strings, carrying that prefix, meets the
    live nodes length-lex and gives each node its successors and its
    lex-first missing frontier string.  A node it cannot reach is
    terminal, so goes unchecked, but is a successor of its parent node.
    """
    horizon, nodes = st.stage, st.nodes
    order, succs, missed = [], {}, {}
    deep = {}  # each live string that is no node: its deepest node prefix
    for layer in _live_levels(st, "", horizon):
        for x in layer:
            p = x[:-1]
            below = (p if p in nodes else deep[p]) if x else None
            if x in nodes:
                order.append(x)
                succs.setdefault(below, []).append(x)
            else:
                deep[x] = below
                if len(x) == horizon:
                    missed.setdefault(below, x)
    if len(order) < len(nodes):
        # successors are pairwise incomparable, so their order never
        # changes a verdict: at most one sits inside an output
        for x in nodes.keys() - set(order):
            succs.setdefault(longest_proper_prefix(x, nodes), []).append(x)
    outs: dict[int, str] = {}  # the watched output, per node level
    for tau in order:
        if len(tau) >= horizon:
            break  # length-lex: every later node is at the horizon too
        if tau not in succs:
            return f"node {tau!r} has no surviving successor node"
        level = nodes[tau].level
        out = outs.get(level)
        if out is None:
            out = outs[level] = oracle_output_bits(
                _adversary_table(adv, level), horizon)
        for x in succs[tau] if out else ():  # none is inside ""
            if is_prefix(x, out):
                return f"successor {x!r} of {tau!r} sits inside the output"
        if tau in missed:
            return f"frontier string {missed[tau]!r} misses the successors of {tau!r}"
    return None


def verify_final_nodes(st: ConstructionState, adv: Sequence[FunctionalTable]) -> bool:
    return final_node_violation(st, adv) is None
