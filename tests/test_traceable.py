import ast
import math
import random
from dataclasses import fields, replace
from itertools import chain, product
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as hst

from branchlab import traceable, trees
from branchlab.cupping import EMPTY_BUNDLE, bundle
from branchlab.errors import ConsistencyError, ProtocolError
from branchlab.functionals import _has_axiom_at, value_within
from branchlab.gen import random_functional_table
from branchlab.strings import bits_of_values, compatible
from branchlab.traceable import (ConstructionState, ModuleId, NodeInfo,
                                 WorkingState, _adversary_table,
                                 _check_allocated,
                                 act_c_module, act_p_module,
                                 declared_counts,
                                 extract_trace, final_node_violation,
                                 frontier, init_state, is_terminal,
                                 module_set, node_count_bound,
                                 oracle_output_bits, run_flaws, run_stage,
                                 run_to_horizon, stage_run, trace_bound_pair,
                                 verify_final_nodes)
from branchlab.trees import sort_lenlex, successors
from helpers import _naive_bounded_value, act_frozen, table


def test_traceable_imports_nothing_from_cupping():
    # a bundle is a plain tuple of tables, so the pruning tree needs no
    # witness-search module
    tree = ast.parse(Path(traceable.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "cupping"] == []


def c_module(i, n):
    return ModuleId("C", i, n)


def p_module(i):
    return ModuleId("P", i)


def test_init_state():
    st = init_state()
    assert frontier(st) == ("",) and st.terminal == frozenset()
    assert st.next_generation == 2
    assert st.nodes[""].level == 0
    assert st.nodes[""].modules == (c_module(0, 0), p_module(0))
    assert st.tuples == frozenset()
    assert init_state() == st


def test_state_stores_only_what_it_cannot_derive():
    assert [f.name for f in fields(ConstructionState)] == [
        "stage", "nodes", "terminal", "acted", "declared_log", "tuple_log"]
    assert list(traceable.NodeInfo._fields) == [
        "level", "generation", "declared_stage"]


def test_module_set_level1():
    assert module_set(1) == (c_module(0, 1), c_module(1, 0), p_module(1))


def test_module_id_validation():
    # no node carries an unknown kind or a negative index, so no act
    # takes one
    st = run_stage(init_state())
    for mid in (ModuleId("Q", 0, 0), ModuleId("C", -1, 1)):
        for act in (act_c_module, act_p_module):
            with pytest.raises(ProtocolError, match="is not allocated"):
                act_frozen(act, st, "", mid, EMPTY_BUNDLE)
    assert str(ModuleId("Q", 0, 0)) == "Q(0)"
    assert str(ModuleId("C", -1, 1)) == "C(-1,1)"


def test_one_stage_from_init():
    st = run_stage(init_state())
    assert st.stage == 1
    assert _naive_live(st) == {"", "0", "1"} and st.terminal == frozenset()
    for tau in ("0", "1"):
        assert st.nodes[tau].level == 1
        assert st.nodes[tau].modules == module_set(1)


def test_c_module_absent_without_convergence():
    st = init_state()
    assert act_frozen(act_c_module, st, "", c_module(0, 0),
                      EMPTY_BUNDLE) is None
    adv = bundle([table([("", 0, 7, 1)])])
    # steps bound is the stage, so nothing converges at stage 0
    assert act_frozen(act_c_module, st, "", c_module(0, 0), adv) is None


def test_c_module_first_action():
    adv = bundle([table([("", 0, 7, 1)])])
    st1 = run_stage(init_state(), adv)
    old_gens = {tau: st1.nodes[tau].generation for tau in ("0", "1")}
    st2 = act_frozen(act_c_module, st1, "", c_module(0, 0), adv)
    assert st2 is not None
    assert st2.tuples == frozenset([(0, 0, 7)])
    for tau in ("0", "1"):
        info = st2.nodes[tau]
        assert info.level == 1
        assert info.generation != old_gens[tau]
        assert info.declared_stage == 2
        assert info.modules == (c_module(0, 1), c_module(1, 0),
                                p_module(1))
    with pytest.raises(ProtocolError):  # already acted
        act_frozen(act_c_module, st2, "", c_module(0, 0), adv)
    with pytest.raises(ProtocolError):  # never allocated
        act_frozen(act_c_module, st2, "", c_module(3, 3), adv)


def test_c_action_inside_run_stage():
    adv = bundle([table([("", 0, 7, 1)])])
    st = run_to_horizon(adv, 3)[0]
    assert (0, 0, 7) in st.tuples
    rows = [r for r in st.tuple_log if (r[0], r[1]) == (0, 0)]
    assert len(rows) == 1
    assert rows[0][3] == "" and rows[0][4] == 0


def test_oracle_output_bits():
    f = table([("", 0, 0, 1), ("", 1, 0, 1), ("", 2, 1, 2), ("", 3, 5, 1)])
    assert oracle_output_bits(f, 1) == "00"   # the 2-step axiom is gated
    assert oracle_output_bits(f, 2) == "001"  # then the non-bit truncates
    assert value_within(f, "", 2, 1) is None  # no value within one step


def test_p_module_prunes_followed_side():
    # the adversary's empty-oracle output goes through "0"
    adv = bundle([table([("", k, 0, 1) for k in range(4)])])
    st = run_to_horizon(adv, 4)[0]
    assert is_terminal(st, "0")
    assert all(s.startswith("1") for s in frontier(st))
    assert frontier(st)
    assert ("", p_module(0), 1) in st.acted
    assert verify_final_nodes(st, adv)


def test_p_module_grace_and_absence():
    adv = bundle([table([("", k, 0, 1) for k in range(4)])])
    st = init_state()
    # too early: the node was just declared
    assert act_frozen(act_p_module, st, "", p_module(0), adv) is None
    st = run_stage(st, EMPTY_BUNDLE)
    st = run_stage(st, EMPTY_BUNDLE)
    # undefined output never acts
    assert act_frozen(act_p_module, st, "", p_module(0),
                      EMPTY_BUNDLE) is None
    st2 = act_frozen(act_p_module, st, "", p_module(0), adv)
    assert st2 is not None
    assert is_terminal(st2, "0") and not is_terminal(st2, "1")
    assert "0" not in st2.nodes and "00" not in st2.nodes


def test_p_module_protocol_errors():
    st = run_to_horizon(EMPTY_BUNDLE, 2)[0]
    with pytest.raises(ProtocolError):  # wrong kind
        act_frozen(act_p_module, st, "", c_module(0, 0), EMPTY_BUNDLE)
    with pytest.raises(ProtocolError):  # P(0) not at "0"
        act_frozen(act_p_module, st, "0", p_module(0), EMPTY_BUNDLE)


def test_extract_trace():
    assert extract_trace(init_state()).per_i == {}
    adv = bundle([table([("", 0, 7, 1)])])
    rep = extract_trace(run_to_horizon(adv, 3)[0])
    assert rep.per_i[0][0] == frozenset([7])


def test_stage_run_hands_back_each_stage_and_its_frontier():
    adv = _random_bundle(random.Random(7))
    st = init_state()
    for got in stage_run(adv, 6):
        st = run_stage(st, adv)
        # replace() drops the kept frontier, so frontier() walks it anew
        assert got == st and frontier(got) == frontier(replace(st))
    assert run_to_horizon(adv, 6) == (st, None)
    assert run_to_horizon(adv, 0) == (init_state(), None)


def test_run_to_horizon_names_the_first_empty_frontier_and_runs_on(
        monkeypatch):
    real = traceable.run_stage

    def starved(st, adv):
        # each stage grows from a copy, whose frontier is walked anew
        nxt = real(replace(st), adv)
        if nxt.stage >= 3:
            object.__setattr__(nxt, "_frontier", ())
        return nxt

    monkeypatch.setattr(traceable, "run_stage", starved)
    st, stalled = run_to_horizon(EMPTY_BUNDLE, 5)
    assert (st.stage, stalled) == (5, 3)


def _random_bundle(rng, width=2):
    tables = []
    for _ in range(width):
        axs = []
        for _ in range(rng.randrange(10)):
            sigma = "".join(rng.choice("01")
                            for _ in range(rng.randrange(4)))
            axs.append((sigma, rng.randrange(4), rng.randrange(9),
                        rng.randrange(1, 5)))
        try:
            tables.append(table(axs))
        except ConsistencyError:
            tables.append(table([]))
    return bundle(tables)


def test_terminal_monotone_and_frontier_nonempty():
    rng = random.Random(5)
    for _ in range(15):
        adv = _random_bundle(rng)
        st = init_state()
        seen_terminal = st.terminal
        for _ in range(7):
            st = run_stage(st, adv)
            assert seen_terminal <= st.terminal
            seen_terminal = st.terminal
            # the strings the stage grew
            for fresh in frontier(st):
                assert not any(fresh != m and fresh.startswith(m)
                               for m in st.terminal)
            assert frontier(st)


def test_node_invariants_over_runs():
    rng = random.Random(6)
    for _ in range(10):
        st = run_to_horizon(_random_bundle(rng), 7)[0]
        for tau, info in st.nodes.items():
            assert info.modules == module_set(info.level)
            assert len(tau) <= st.stage and not is_terminal(st, tau)


def test_counting_bounds():
    rng = random.Random(7)
    for _ in range(10):
        st = run_to_horizon(_random_bundle(rng, width=3), 8)[0]
        counts = declared_counts(st)
        for level in range(5):
            assert counts.get(level, 0) <= node_count_bound(level)
        rep = extract_trace(st)
        for i, by_n in rep.per_i.items():
            for n, ds in by_n.items():
                assert len(ds) <= trace_bound_pair(i, n)[1]


def test_run_flaws_name_the_first_count_and_trace_over_their_bounds():
    st = run_to_horizon(EMPTY_BUNDLE, 3)[0]  # 2 nodes at level 1, bound 4
    assert run_flaws(st, EMPTY_BUNDLE) == (None, None, True)

    def declared(k):
        return replace(st, declared_log=st.declared_log + tuple(
            (1, "0" * (4 + j), 9 + j, 3) for j in range(k)))
    assert run_flaws(declared(2), EMPTY_BUNDLE)[0] is None
    assert run_flaws(declared(3), EMPTY_BUNDLE)[0] == (1, 5, 4)
    # a second value at (0, 0), whose safe ceiling is 1
    fat = replace(st, tuple_log=((0, 0, 1, "", 0, 1), (0, 0, 2, "", 0, 1)))
    assert run_flaws(fat, EMPTY_BUNDLE)[1] == (0, 0, 2)


def test_step_bound_identity():
    for n in range(9):
        lhs = 2 * (n + 2) * node_count_bound(n)
        assert lhs == (1 << (n + 1)) * math.factorial(n + 2)


def test_tuple_provenance():
    rng = random.Random(8)
    for _ in range(10):
        st = run_to_horizon(_random_bundle(rng, width=3), 7)[0]
        seen = set()
        for i, n, _, tau, level, gen in st.tuple_log:
            assert level == i + n
            key = (i, n, tau, gen)
            assert key not in seen, "one tuple per module per generation"
            seen.add(key)


def test_incomputability_surrogate():
    rng = random.Random(9)
    horizon = 6
    for _ in range(10):
        adv = _random_bundle(rng)
        st = run_to_horizon(adv, horizon)[0]
        for i in range(len(adv)):
            out = oracle_output_bits(adv[i], horizon)
            if len(out) < horizon:
                continue
            # acting is owed only to P modules whose node level is i
            acted_p = any(mid == p_module(i) for _, mid, _ in st.acted)
            if acted_p:
                assert out[:horizon] not in frontier(st)


def test_determinism():
    adv = bundle([table([("", 0, 3, 2), ("0", 1, 1, 1)])])
    a = run_to_horizon(adv, 6)[0]
    b = run_to_horizon(adv, 6)[0]
    assert a == b


def test_verify_final_nodes_empty_adversary():
    st = run_to_horizon(EMPTY_BUNDLE, 4)[0]
    assert final_node_violation(st, EMPTY_BUNDLE) is None


def test_successor_nodes_shape():
    st = run_to_horizon(EMPTY_BUNDLE, 3)[0]
    assert successors(frozenset(st.nodes), "") == ("0", "1")
    assert successors(frozenset(st.nodes), "0") == ("00", "01")


def test_p_module_follows_node_successors_not_string_children():
    # C(0, 0) acts at stage 2 and makes "00" and "01" the root's
    # successor nodes; the output "01" then follows the node "01"
    adv = bundle([table([("", 0, 0, 2), ("", 1, 1, 2)])])
    st = run_to_horizon(adv, 3)[0]
    assert successors(frozenset(st.nodes), "") == ("00", "01")
    st = run_stage(st, adv)
    assert ("", p_module(0), 1) in st.acted
    assert is_terminal(st, "01") and not is_terminal(st, "00")
    assert verify_final_nodes(st, adv)


# The per-state scan that trees.successors replaced, kept as an oracle.

def _naive_successor_nodes(st, tau):
    above = [x for x in st.nodes if x != tau and x.startswith(tau)]
    return sort_lenlex([x for x in above
                        if not any(x != o and x.startswith(o)
                                   for o in above)])


def _naive_oracle_output_bits(f, steps):
    vals = []
    while (v := _naive_bounded_value(f, "", len(vals), steps)) is not None:
        vals.append(v)
    return bits_of_values(vals)


def _seeded_bundles():
    # random tables, and tables with a bit output at the empty oracle
    # so that P modules act as well as C modules
    rng = random.Random(11)
    yield EMPTY_BUNDLE
    for k in range(12):
        yield bundle(
            table([("", n, rng.getrandbits(1), rng.randint(1, 3))
                   for n in range(6)]) if k % 2 else
            random_functional_table(rng, axioms=rng.choice((5, 12)),
                                    max_value=rng.choice((1, 9)))
            for _ in range(rng.randint(1, 3)))


def test_node_successors_and_bounded_values_match_naive_scans():
    strings = [""] + [format(k, f"0{n}b")
                      for n in range(1, 5) for k in range(1 << n)]
    for adv in _seeded_bundles():
        st = init_state()
        while st.stage < 6:
            st = run_stage(st, adv)
            nodes = frozenset(st.nodes)
            for tau in st.nodes:
                assert successors(nodes, tau) == \
                    _naive_successor_nodes(st, tau)
        for f in adv:
            for steps in range(5):
                assert oracle_output_bits(f, steps) == \
                    _naive_oracle_output_bits(f, steps)
                for tau in strings:
                    for n in range(f.max_arg + 2):
                        assert value_within(f, tau, n, steps) == \
                            _naive_bounded_value(f, tau, n, steps)


def test_verify_random_quiescent():
    rng = random.Random(10)
    for _ in range(8):
        adv = _random_bundle(rng)
        # run far enough that all axioms (steps < 5) are long settled
        st = run_to_horizon(adv, 7)[0]
        assert verify_final_nodes(st, adv), final_node_violation(st, adv)


# A node's declaration, and the per-string search for the nearest node
# below a grown string, which growth ran for every string before it read
# the parent node alone; kept for the oracles below.

def _declare(nodes, log, tau, level, gen, stage):
    nodes[tau] = NodeInfo(level, gen, stage)
    log.append((level, tau, gen, stage))


def _nearest_node_level(nodes, s):
    for k in range(len(s) - 1, -1, -1):
        info = nodes.get(s[:k])
        if info is not None:
            return info.level
    raise ProtocolError(f"no node below {s!r}")


# The state once stored pi, the traced tuples and the next generation
# as fields.  The naive acts and stage below carry them beside the
# state, with the whole-pi scans and full extension lists that the
# descent replaced, and are kept as oracles.

class _Side(NamedTuple):
    pi: frozenset
    tuples: frozenset
    next_generation: int


_INIT_SIDE = _Side(frozenset([""]), frozenset(), 2)


def _naive_live(st):
    """Every non-terminal string of length at most the stage."""
    return {x for n in range(st.stage + 1) for x in _naive_frontier(st, n)}


def _naive_act_c_module(st, side, tau, mid, adv):
    info = _check_allocated(st, tau, mid)
    if mid.kind != "C":
        raise ProtocolError("expected a C module")
    f = _adversary_table(adv, mid.i)
    if all(ax[1] != mid.n for ax in f.axioms):
        return None
    s = st.stage
    found = None
    for cand in sort_lenlex(x for x in side.pi if x.startswith(tau)):
        if len(cand) >= s or _naive_is_terminal(st, cand):
            continue
        value = _naive_bounded_value(f, cand, mid.n, s)
        if value is None:
            continue
        ext = [cand + "".join(b) for b in product("01", repeat=s - len(cand))]
        live = [e for e in ext if not _naive_is_terminal(st, e)]
        if len(live) >= 2:
            found = (sort_lenlex(live)[:2], value)
            break
    if found is None:
        return None
    (t0, t1), value = found

    nodes = {x: nf for x, nf in st.nodes.items()
             if not (x != tau and x.startswith(tau))}
    newly_terminal = {p for p in side.pi
                      if p.startswith(tau)
                      and not compatible(p, t0) and not compatible(p, t1)}
    log: list = []
    gen = side.next_generation
    j = info.level + 1
    _declare(nodes, log, t0, j, gen, s + 1)
    _declare(nodes, log, t1, j, gen + 1, s + 1)
    return replace(
        st,
        nodes=nodes,
        terminal=st.terminal | newly_terminal,
        acted=st.acted | {(tau, mid, info.generation)},
        declared_log=st.declared_log + tuple(log),
        tuple_log=st.tuple_log + ((mid.i, mid.n, value, tau, info.level,
                                   info.generation),),
    ), side._replace(tuples=side.tuples | {(mid.i, mid.n, value)},
                     next_generation=gen + 2)


def _naive_act_p_module(st, side, tau, mid, adv):
    info = _check_allocated(st, tau, mid)
    if mid.kind != "P":
        raise ProtocolError("expected a P module")
    s = st.stage
    if s + 1 < info.declared_stage + 2:
        return None
    succ = _naive_successor_nodes(st, tau)
    if len(succ) != 2:
        return None
    out = oracle_output_bits(_adversary_table(adv, mid.i), s)
    if out.startswith(succ[0]):
        keep = succ[1]
    elif out.startswith(succ[1]):
        keep = succ[0]
    else:
        return None
    doomed = {p for p in side.pi
              if p.startswith(tau) and not compatible(p, keep)}
    nodes = {x: nf for x, nf in st.nodes.items() if x not in doomed}
    return replace(
        st,
        nodes=nodes,
        terminal=st.terminal | doomed,
        acted=st.acted | {(tau, mid, info.generation)},
    ), side


def _table_bundles():
    # slow axioms (up to 6 steps) converge only once deeper candidates
    # with several live extensions exist
    rng = random.Random(12)
    yield EMPTY_BUNDLE
    for _ in range(12):
        steps = rng.choice((3, 6))
        yield bundle(random_functional_table(rng, axioms=rng.randint(2, 30),
                                             max_steps=steps)
                     for _ in range(rng.randint(1, 3)))


def _module_cases(horizon, kind, bundles):
    """Every module of the kind that has not acted, of every node,
    after each stage up to the horizon, with its state, the state's
    side fields and a bundle: the one the state grew under and the
    next two, whose axioms the state has not yet answered."""
    for k, grow in enumerate(bundles):
        advs = [bundles[(k + j) % len(bundles)] for j in range(3)]
        st, side = init_state(), _INIT_SIDE
        while st.stage < horizon:
            st, side = _naive_run_stage(st, side, grow)
            for tau, info in st.nodes.items():
                for mid in sorted(info.modules, key=str):
                    if mid.kind == kind and \
                            (tau, mid, info.generation) not in st.acted:
                        for adv in advs:
                            yield st, side, tau, mid, adv


def _c_module_cases(horizon):
    return _module_cases(horizon, "C", list(_table_bundles()))


def _p_module_cases(horizon):
    return _module_cases(horizon, "P", _wide_bundles())


def test_c_module_searches_candidates_in_length_lex_order():
    # nothing has acted at stage 3 under the empty bundle; "1" comes
    # before "00", and "0" before "1"
    st = run_to_horizon(EMPTY_BUNDLE, 3)[0]
    for axioms, picks in ((["00", "1"], ("100", "101")),
                          (["1", "0"], ("000", "001"))):
        adv = bundle([table([(sigma, 0, k, 1)
                             for k, sigma in enumerate(axioms)])])
        got = act_frozen(act_c_module, st, "", c_module(0, 0), adv)
        side = _Side(st.terminal | _naive_live(st), st.tuples,
                     st.next_generation)
        assert got == _naive_act_c_module(st, side, "", c_module(0, 0),
                                          adv)[0]
        assert tuple(r[1] for r in got.declared_log[-2:]) == picks


def _first(pair):
    return None if pair is None else pair[0]


def test_c_module_walk_matches_naive_scan():
    acted = 0
    for st, side, tau, mid, adv in _c_module_cases(7):
        got = act_frozen(act_c_module, st, tau, mid, adv)
        assert got == _first(_naive_act_c_module(st, side, tau, mid, adv))
        acted += got is not None
    assert acted > 50


def test_p_module_walk_matches_naive_scan():
    acted = 0
    for st, side, tau, mid, adv in _p_module_cases(7):
        got = act_frozen(act_p_module, st, tau, mid, adv)
        assert got == _first(_naive_act_p_module(st, side, tau, mid, adv))
        acted += got is not None
    assert acted > 20


class _CountingSet(set):
    """A set that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_module_walks_never_iterate_terminal():
    # the C search and reshape and the P pruning only look terminal
    # strings up, so their work grows with the live strings above the
    # node, however many strings are terminal
    acted = {"C": 0, "P": 0}
    for cases, act in ((_c_module_cases(6), act_c_module),
                       (_p_module_cases(6), act_p_module)):
        for st, _, tau, mid, adv in cases:
            work = WorkingState(st)
            work.terminal = _CountingSet(work.terminal)
            fired = act(work, tau, mid, adv)
            assert work.terminal.iterations == 0
            assert (work.freeze() if fired else None) == \
                act_frozen(act, st, tau, mid, adv)
            acted[mid.kind] += fired
    assert acted["C"] > 20 and acted["P"] > 10


def test_c_module_without_an_axiom_at_its_argument_never_descends(
        monkeypatch):
    walks = []
    real = traceable._live_levels

    def counted(st, tau, length):
        walks.append(tau)
        return real(st, tau, length)

    monkeypatch.setattr(traceable, "_live_levels", counted)
    idle = 0
    for st, _, tau, mid, adv in _c_module_cases(6):
        if _has_axiom_at(_adversary_table(adv, mid.i), mid.n):
            continue
        walks.clear()
        assert act_frozen(act_c_module, st, tau, mid, adv) is None
        assert walks == []
        idle += 1
    assert idle > 1000


def test_final_node_check_builds_the_frontier_once(monkeypatch):
    calls = []
    real = traceable.frontier

    def counted(st):
        calls.append(st.stage)
        return real(st)

    monkeypatch.setattr(traceable, "frontier", counted)
    for adv in _table_bundles():
        st = run_to_horizon(adv, 8)[0]
        calls.clear()
        final_node_violation(st, adv)
        assert len(calls) <= 1


# The final check's scan of the whole frontier for every node, which the
# range scan replaced, kept as an oracle.

def _naive_final_node_violation(st, adv):
    horizon = st.stage
    nodes = frozenset(st.nodes)
    live = frontier(st)
    for tau, info in sorted(st.nodes.items(), key=lambda kv: (len(kv[0]),
                                                               kv[0])):
        if len(tau) >= horizon or is_terminal(st, tau):
            continue
        succ = successors(nodes, tau)
        if not succ:
            return f"node {tau!r} has no surviving successor node"
        out = oracle_output_bits(_adversary_table(adv, info.level), horizon)
        for x in succ:
            if out.startswith(x):
                return f"successor {x!r} of {tau!r} sits inside the output"
        for leaf in live:
            if leaf.startswith(tau) and not leaf.startswith(succ):
                return (f"frontier string {leaf!r} misses the successors "
                        f"of {tau!r}")
    return None


def _final_check_cases(horizons, bundles=None):
    """States at each horizon under the bundles (default: the seeded
    ones), each checked against its own bundle and the next one, and
    with one node, the nodes above one node or on one side of it, one
    frontier string, or some frontier nodes above one node taken away,
    with one node short of the horizon made terminal, or with stray
    nodes put in below those."""
    bundles = list(_seeded_bundles()) if bundles is None else bundles
    # the terminal-node states draw from their own generator, so
    # adding them moved no draw of rng
    rng, inner_rng = random.Random(14), random.Random(15)
    for k, adv in enumerate(bundles):
        other = bundles[(k + 1) % len(bundles)]
        st = init_state()
        while st.stage < max(horizons):
            st = run_stage(st, adv)
            if st.stage not in horizons:
                continue
            yield st, adv
            yield st, other
            tau = rng.choice(sorted(st.nodes))
            yield replace(st, nodes={x: nf for x, nf in st.nodes.items()
                                     if x != tau}), adv
            yield replace(st, nodes={x: nf for x, nf in st.nodes.items()
                                     if x == tau or not x.startswith(tau)}
                          ), adv
            # a terminal node with node children, which the descent of
            # the live strings never reaches
            inner = inner_rng.choice(sorted(x for x in st.nodes
                                            if len(x) < st.stage))
            yield replace(st, terminal=st.terminal | {inner}), adv
            live = frontier(st)
            if live:
                yield replace(st, terminal=st.terminal
                              | {rng.choice(live)}), adv
                # frontier strings above a node that are no nodes, and
                # stray nodes between the node and the frontier
                tau = rng.choice(sorted(x for x in st.nodes
                                        if len(x) < st.stage))
                above = [x for x in live if x.startswith(tau)]
                if not above:
                    continue
                stray = set(rng.sample(above, rng.randint(1, len(above))))
                yield replace(st, nodes={x: nf for x, nf in st.nodes.items()
                                         if x not in stray}), adv
                nodes = dict(st.nodes)
                info = nodes[tau]._replace(level=nodes[tau].level + 1)
                for x in stray:
                    nodes.setdefault(x[:rng.randint(len(tau) + 1, len(x))],
                                     info)
                yield replace(st, nodes=nodes), adv
                # the nodes on one side of the node taken away, so that
                # several frontier strings miss its other successor
                side = tau + rng.choice("01")
                yield replace(st, nodes={x: nf for x, nf in st.nodes.items()
                                         if not x.startswith(side)}), adv


def test_final_node_range_scan_matches_naive_scan():
    verdicts, unreached = set(), 0
    deep = list(_seeded_bundles())[1:3]
    for st, adv in chain(_final_check_cases(range(1, 9)),
                         _final_check_cases(range(9, 11), deep)):
        got = final_node_violation(st, adv)
        assert got == _naive_final_node_violation(st, adv)
        verdicts.add(got.split()[0] if got else None)
        # a terminal node with a node above it
        unreached += any(y != x and y.startswith(x)
                         for x in st.nodes.keys() & st.terminal
                         for y in st.nodes)
    assert verdicts == {None, "node", "successor", "frontier"}
    assert unreached > 50


class _CountingStr(str):
    """A string that counts its startswith calls in a shared cell."""

    calls = [0]

    def startswith(self, *args):
        self.calls[0] += 1
        return super().startswith(*args)


class _CountingNodes(dict):
    """A node map that counts its lookups."""

    def __init__(self, *args):
        super().__init__(*args)
        self.probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def test_final_node_check_probes_each_string_at_most_stage_times(
        monkeypatch):
    real = traceable.frontier
    monkeypatch.setattr(traceable, "frontier", lambda st: tuple(
        _CountingStr(x) for x in real(st)))
    for adv in _table_bundles():
        st = run_to_horizon(adv, 8)[0]
        counted = replace(st, nodes=_CountingNodes(st.nodes))
        _CountingStr.calls[0] = 0
        assert final_node_violation(counted, adv) is None
        # no frontier string is scanned, where the range scan made one
        # startswith call per frontier string above each node (2,048 on
        # the empty bundle); parents and deepest node prefixes come from
        # at most stage lookups per frontier string and per node
        assert _CountingStr.calls[0] == 0
        assert 0 < counted.nodes.probes <= st.stage * (
            len(real(st)) + len(st.nodes))


def test_module_set_matches_a_fresh_build():
    for level in range(13):
        fresh = tuple(c_module(j, level - j) for j in range(level + 1))
        assert module_set(level) == fresh + (p_module(level),)
        assert module_set(level) is module_set(level)


def _naive_modules_that_can_act(adv, level, s):
    # every C(i, level - i) whose table has an axiom at level - i, by a
    # scan of its axioms, then P(level) if its output at the empty
    # oracle within s steps is non-empty
    tables = list(adv)
    mods = [c_module(i, level - i) for i in range(level + 1)
            if i < len(tables)
            and any(ax[1] == level - i for ax in tables[i].axioms)]
    if level < len(tables):
        values = []
        while (v := _naive_bounded_value(tables[level], "", len(values),
                                         s)) is not None:
            values.append(v)
        if bits_of_values(values):
            mods.append(p_module(level))
    return tuple(mods)


def test_modules_that_can_act_match_the_naive_filter():
    for adv in _table_bundles():
        for level in range(13):
            for s in range(17):
                assert traceable._modules_that_can_act(adv, level, s) == \
                    _naive_modules_that_can_act(adv, level, s)


def test_is_terminal_skips_the_scan_when_nothing_is_terminal():
    st = run_to_horizon(EMPTY_BUNDLE, 4)[0]
    assert st.terminal == frozenset()
    counted = replace(st, terminal=_CountingSet())
    assert not any(is_terminal(counted, x) for x in _naive_live(st))
    assert counted.terminal.iterations == 0
    for adv in _table_bundles():
        st = run_to_horizon(adv, 5)[0]
        for x in [""] + [format(k, f"0{n}b")
                         for n in range(1, 6) for k in range(1 << n)]:
            assert is_terminal(st, x) == any(x.startswith(m)
                                             for m in st.terminal)


# The stage before it dispatched only the modules that can act and grew
# the tree along the live frontier, with the terminal scans it used and
# the naive acts, kept as oracles.

def _naive_is_terminal(st, s):
    return any(s.startswith(m) for m in st.terminal)


def _naive_frontier(st, length=None):
    n = st.stage if length is None else length
    return tuple("".join(bits) for bits in product("01", repeat=n)
                 if not _naive_is_terminal(st, "".join(bits)))


def _naive_module_key(m):
    return (0, m.i, m.n) if m.kind == "C" else (1, m.i, 0)


def _naive_run_stage(st, side, adv=EMPTY_BUNDLE):
    s = st.stage
    snapshot = sorted(((nf.level, (len(tau), tau), tau, nf.generation)
                       for tau, nf in st.nodes.items()
                       if nf.declared_stage <= s))
    cur = st
    for _, _, tau, gen in snapshot:
        nf = cur.nodes.get(tau)
        if nf is None or nf.generation != gen:
            continue
        for mid in sorted(module_set(nf.level), key=_naive_module_key):
            if (tau, mid, gen) in cur.acted:
                continue
            act = (_naive_act_c_module if mid.kind == "C"
                   else _naive_act_p_module)
            res = act(cur, side, tau, mid, adv)
            if res is not None:
                cur, side = res
                break
    nodes = dict(cur.nodes)
    pi = set(side.pi)
    log: list = []
    gen = side.next_generation
    for bits in product("01", repeat=s + 1):
        tau = "".join(bits)
        if _naive_is_terminal(cur, tau):
            continue
        pi.add(tau)
        level = _nearest_node_level(nodes, tau) + 1
        _declare(nodes, log, tau, level, gen, s + 1)
        gen += 1
    return replace(
        cur,
        stage=s + 1,
        nodes=nodes,
        declared_log=cur.declared_log + tuple(log),
    ), _Side(frozenset(pi), side.tuples, gen)


def _wide_bundles():
    # many tables with bit outputs at the empty oracle, so that more P
    # modules act
    rng = random.Random(15)
    return [bundle(table([("", n, rng.getrandbits(1), rng.randint(1, 3))
                          for n in range(8)]) for _ in range(6))
            for _ in range(4)]


def test_run_stage_matches_naive_stage():
    # whole states, stage by stage, each side grown on its own; the
    # dataclass equality covers the logs, and the side fields the state
    # no longer stores must be what it derives.  No node is ever
    # terminal: a reshape and the final check walk only live strings
    kinds = []
    for adv in list(_table_bundles()) + list(_seeded_bundles()) + \
            _wide_bundles():
        st = naive = init_state()
        side = _INIT_SIDE
        while st.stage < 8:
            st = run_stage(st, adv)
            naive, side = _naive_run_stage(naive, side, adv)
            assert st == naive
            assert side.pi == _naive_live(st) | st.terminal
            assert side.tuples == st.tuples
            assert side.next_generation == st.next_generation
            for info in st.nodes.values():
                assert info.modules == module_set(info.level)
            assert not any(is_terminal(st, tau) for tau in st.nodes)
        kinds += [mid.kind for _, mid, _ in st.acted]
    assert kinds.count("C") > 100 and kinds.count("P") >= 5


def test_a_stage_builds_one_state(monkeypatch):
    # three C modules and a P module act in this stage, each on the one
    # working copy, which is frozen once at the end
    adv = list(_seeded_bundles())[2]
    st = run_to_horizon(adv, 6)[0]
    built = []
    real = ConstructionState.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ConstructionState, "__init__", counted)
    nxt = run_stage(st, adv)
    assert sorted(mid.kind for _, mid, _ in nxt.acted - st.acted) == \
        ["C", "C", "C", "P"]
    assert len(built) == 1


def test_growth_from_a_string_that_is_no_node_matches_naive_stage():
    # the grown strings above "000" and "01" take their level from the
    # nearest node below, as the naive stage does
    st = run_to_horizon(EMPTY_BUNDLE, 3)[0]
    st = replace(st, nodes={x: nf for x, nf in st.nodes.items()
                            if x not in ("000", "01", "010")})
    side = _Side(st.terminal | _naive_live(st), st.tuples,
                 st.next_generation)
    got = run_stage(st)
    assert got == _naive_run_stage(st, side)[0]
    assert (got.nodes["0000"].level, got.nodes["0100"].level) == (3, 2)


_BITS = hst.text(alphabet="01", max_size=7)


@given(hst.frozensets(_BITS, max_size=12), hst.integers(0, 7), _BITS)
@settings(max_examples=300)
def test_frontier_and_is_terminal_match_naive_scans(terminal, stage, s):
    # any terminal set, not only the prefix-closed-above ones a stage
    # builds: a terminal string may sit above or below another
    st = replace(init_state(), stage=stage, terminal=terminal)
    assert is_terminal(st, s) == _naive_is_terminal(st, s)
    for n in range(stage + 1):
        assert frontier(replace(st, stage=n)) == _naive_frontier(st, n)


@given(hst.frozensets(_BITS, max_size=12), _BITS, hst.integers(-1, 6))
@settings(max_examples=300)
def test_descent_matches_naive_scan_from_any_string(terminal, tau, extra):
    st = replace(init_state(), terminal=terminal)
    length = len(tau) + extra
    want = [[x for x in (tau + "".join(b)
                         for b in product("01", repeat=n - len(tau)))
             if not _naive_is_terminal(st, x)]
            for n in range(len(tau), length + 1)]
    assert list(traceable._live_levels(st, tau, length)) == want


def test_empty_bundle_stages_dispatch_no_module(monkeypatch):
    # with no adversary nothing can act, so no module is tried and no
    # node tree is indexed for a P module's successors
    calls = []
    for name in ("act_c_module", "act_p_module", "oracle_output_bits"):
        real = getattr(traceable, name)
        monkeypatch.setattr(traceable, name,
                            lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    real_build = trees._build_index
    monkeypatch.setattr(trees, "_build_index",
                        lambda t: calls.append("index") or real_build(t))
    st = init_state()
    while st.stage < 8:
        st = run_stage(st, EMPTY_BUNDLE)
    assert len(st.nodes) == (1 << 9) - 1
    assert "act_c_module" not in calls and "act_p_module" not in calls
    assert "index" not in calls


def test_stage_snapshot_holds_only_nodes_that_can_act(monkeypatch):
    # against the empty bundle no node is sorted into a stage's snapshot;
    # with one axiom at argument 0 only C(0, 0), at the root, can act,
    # so the root is the one node sorted, once per stage
    keys = []
    real = traceable.lenlex_key
    monkeypatch.setattr(traceable, "lenlex_key",
                        lambda s: keys.append(s) or real(s))
    for adv, want in ((EMPTY_BUNDLE, []),
                      (bundle([table([("", 0, 5, 1)])]), [""] * 8)):
        keys.clear()
        st = init_state()
        for _ in range(8):
            st = run_stage(st, adv)
        assert len(st.nodes) == (1 << 9) - 1
        assert keys == want


def test_final_node_check_reads_each_level_output_once(monkeypatch):
    cases = [(run_to_horizon(adv, 7)[0], adv) for adv in _seeded_bundles()]
    calls = []
    real = traceable.oracle_output_bits
    monkeypatch.setattr(traceable, "oracle_output_bits",
                        lambda f, steps: calls.append(f) or real(f, steps))
    for st, adv in cases:
        calls.clear()
        final_node_violation(st, adv)
        assert len(calls) <= len({nf.level for nf in st.nodes.values()})


# The stage before each new string read its level off its parent node:
# the per-string search for the nearest node below (_nearest_node_level,
# above), growth from a root-down walk of the live strings, a C search
# run to the stage's search length, and a Python loop counting the
# declarations per level.  All four are kept as oracles.

def _walked_frontier(st, length=None):
    level = []
    for level in traceable._live_levels(
            st, "", st.stage if length is None else length):
        pass
    return tuple(level)


def _unbounded_act_c_module(work, tau, mid, adv):
    info = _check_allocated(work, tau, mid)
    table_i = _adversary_table(adv, mid.i)
    if not _has_axiom_at(table_i, mid.n):
        return False
    s = work.stage
    found = None
    for cand in chain.from_iterable(traceable._live_levels(work, tau,
                                                           s - 1)):
        value = value_within(table_i, cand, mid.n, s)
        if value is None:
            continue
        *_, ext = traceable._live_levels(work, cand, s)
        if len(ext) >= 2:
            found = (ext[:2], value)
            break
    if found is None:
        return False
    (t0, t1), value = found
    nodes = work.nodes
    for p in list(chain.from_iterable(traceable._live_levels(work, tau,
                                                             s)))[1:]:
        nodes.pop(p, None)
        if not compatible(p, t0) and not compatible(p, t1):
            work.terminal.add(p)
    gen = work.next_generation
    j = info.level + 1
    _declare(nodes, work.declared_log, t0, j, gen, s + 1)
    _declare(nodes, work.declared_log, t1, j, gen + 1, s + 1)
    work.acted.add((tau, mid, info.generation))
    work.tuple_log.append((mid.i, mid.n, value, tau, info.level,
                           info.generation))
    return True


def _per_string_stage(st, adv):
    s = st.stage
    acting = {level: traceable._modules_that_can_act(adv, level, s)
              for level in {nf.level for nf in st.nodes.values()}}
    snapshot = sorted(((nf.level, (len(tau), tau), tau, nf.generation)
                       for tau, nf in st.nodes.items()
                       if nf.declared_stage <= s and acting[nf.level]))
    work = WorkingState(st)
    for level, _, tau, gen in snapshot:
        nf = work.nodes.get(tau)
        if nf is None or nf.generation != gen:
            continue
        for mid in acting[level]:
            if (tau, mid, gen) in work.acted:
                continue
            act = (_unbounded_act_c_module if mid.kind == "C"
                   else act_p_module)
            if act(work, tau, mid, adv):
                break
    live = _walked_frontier(work, s + 1)
    for gen, tau in enumerate(live, work.next_generation):
        level = _nearest_node_level(work.nodes, tau) + 1
        _declare(work.nodes, work.declared_log, tau, level, gen, s + 1)
    work.stage = s + 1
    return work.freeze(), live


def _looped_declared_counts(st):
    out = {}
    for level, _, _, _ in st.declared_log:
        out[level] = out.get(level, 0) + 1
    return out


def _workload_bundles(count):
    # the draw of the benchmark's random pruning cases
    rng = random.Random(23)
    for _ in range(count):
        yield bundle(random_functional_table(rng, axioms=rng.randint(2, 30))
                     for _ in range(rng.randint(1, 2)))


def test_stages_match_per_string_growth_and_the_unbounded_search():
    # whole states, stage by stage, each run on its own: the dataclass
    # equality covers the nodes, both logs, the terminal set and the
    # acts, and the tuples and the frontier each state keeps are checked
    # beside it
    fired = {"C": 0, "P": 0}
    runs = ([(adv, 8) for adv in _table_bundles()]
            + [(adv, 8) for adv in _workload_bundles(200)]
            + [(EMPTY_BUNDLE, 12)])
    for adv, horizon in runs:
        want = init_state()
        for got in stage_run(adv, horizon):
            want, want_live = _per_string_stage(want, adv)
            assert got == want
            assert got.tuples == want.tuples
            assert frontier(got) == want_live
            assert want_live == _walked_frontier(got)
            assert declared_counts(got) == _looped_declared_counts(want)
        for _, mid, _ in got.acted:
            fired[mid.kind] += 1
    assert fired["C"] > 1000 and fired["P"] > 0, fired


def test_c_module_search_matches_the_unbounded_search():
    fired = 0
    for st, _, tau, mid, adv in _c_module_cases(6):
        got = act_frozen(act_c_module, st, tau, mid, adv)
        assert got == act_frozen(_unbounded_act_c_module, st, tau, mid, adv)
        fired += got is not None
    assert fired > 50


def test_frontier_of_a_staged_state_is_a_lookup(monkeypatch):
    # a state from a stage keeps the frontier the stage grew; a state
    # built by hand walks once
    states = [run_to_horizon(adv, 6)[0] for adv in _table_bundles()]
    walks = []
    real = traceable._live_levels
    monkeypatch.setattr(traceable, "_live_levels",
                        lambda st, tau, length: walks.append(tau)
                        or real(st, tau, length))
    for st in states:
        walks.clear()
        assert frontier(st) == _naive_frontier(st)
        assert walks == []
        assert frontier(replace(st)) == frontier(st)
        assert walks == [""]


def test_c_module_search_stops_at_the_longest_sigma(monkeypatch):
    # past the longest sigma at the argument, or past the node, no
    # candidate is tried: every candidate the search reads a value at
    # is at most max(len(tau), L) long, where L is that sigma's length
    read = []
    real = traceable.value_within
    monkeypatch.setattr(traceable, "value_within",
                        lambda f, tau, n, steps: read.append(tau)
                        or real(f, tau, n, steps))
    cut = 0
    for st, _, tau, mid, adv in _c_module_cases(6):
        f = _adversary_table(adv, mid.i)
        if not _has_axiom_at(f, mid.n):
            continue
        longest = max(len(ax[0]) for ax in f.axioms if ax[1] == mid.n)
        read.clear()
        act_frozen(act_c_module, st, tau, mid, adv)
        assert all(len(x) <= max(len(tau), longest) for x in read)
        cut += max(len(tau), longest) < st.stage - 1
    assert cut > 100
