import dataclasses
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product, takewhile

import pytest
from hypothesis import given, settings, strategies as st

import branchlab
from branchlab.errors import ConsistencyError, ShapeError
from branchlab.gen import odd_readback_psi, random_functional_table
from branchlab.functionals import (EMPTY_TABLE, FunctionalTable,
                                   WeakSplitWitness, _outputs,
                                   _require_two_branching,
                                   build_weak_splitting_tree,
                                   effective_axiom,
                                   eval_at, hat_eval,
                                   image_tree, is_splitting_tree,
                                   output_prefix, outputs_split,
                                   splitting_violation,
                                   value_within, weak_splitting_violation)
from branchlab.smc import oplus_tree
from branchlab.thin import hat_level_tree
from branchlab.strings import (bits_of_values, compatible, is_prefix,
                               is_proper_prefix, sort_lenlex)
from branchlab.trees import Tree, _index, successors
from helpers import (_naive_bounded_value, is_splitting_pair, pullback_tree,
                     table, unkept)


def test_eval_picks_applicable_axiom():
    f = table([("0", 0, 5, 1)])
    assert eval_at(f, "01", 0) == 5
    assert eval_at(f, "1", 0) is None
    assert eval_at(f, "0", 1) is None


def test_consistency_error_on_clash():
    with pytest.raises(ConsistencyError):
        table([("0", 0, 5, 1), ("01", 0, 7, 1)])


def test_nested_axioms_with_equal_values_are_fine():
    f = table([("0", 0, 5, 3), ("01", 0, 5, 1)])
    assert eval_at(f, "01", 0) == 5
    assert effective_axiom(f, "01", 0)[3] == 1
    assert effective_axiom(f, "00", 0)[3] == 3


def test_steps_must_be_positive():
    with pytest.raises(ShapeError):
        table([("", 0, 0, 0)])


def test_hat_needs_steps_below_oracle_length():
    f = table([("", 0, 1, 2)])
    assert hat_eval(f, "0", 0) is None      # 2 steps vs length 1
    assert hat_eval(f, "00", 0) is None     # still 2 vs 2
    assert hat_eval(f, "000", 0) == 1


def test_hat_blocked_by_missing_smaller_argument():
    f = table([("", 1, 1, 1)])
    assert eval_at(f, "00", 1) == 1
    assert hat_eval(f, "00", 1) is None  # argument 0 never converges


def test_hat_on_empty_oracle_is_undefined():
    f = table([("", 0, 1, 1)])
    assert hat_eval(f, "", 0) is None


def _ident_table(depth):
    axs = []
    for n in range(depth):
        for bit in "01":
            for s in ["".join(p) for p in _strings(n)]:
                axs.append((s + bit, n, int(bit), 1))
    return table(axs)


def _strings(n):
    import itertools
    return itertools.product("01", repeat=n)


def test_identity_table_outputs():
    f = _ident_table(3)
    assert output_prefix(f, "010") == (0, 1, 0)
    # the guarded chain loses one argument per recursion step: hat at the
    # last argument needs hat on ever-shorter prefixes, and the length-1
    # prefix never beats the step count
    assert output_prefix(f, "010", hat=True) == (0, 1)


def test_identity_hat_defined_with_room():
    f = _ident_table(4)
    assert output_prefix(f, "0101", hat=True) == (0, 1, 0)


@given(st.text(alphabet="01", min_size=2, max_size=6))
def test_hat_monotone_in_oracle(tau):
    f = _ident_table(5)
    for n in range(4):
        v = hat_eval(f, tau, n)
        if v is not None:
            for ext in (tau + "0", tau + "1"):
                assert hat_eval(f, ext, n) == v


axioms_strategy = st.lists(
    st.tuples(st.text(alphabet="01", max_size=3), st.integers(0, 2),
              st.integers(0, 3), st.integers(1, 4)),
    max_size=12)


def _repair(axioms):
    """Drop axioms that clash with an earlier one."""
    kept = []
    for sigma, arg, val, steps in axioms:
        clash = any(a == arg and v != val
                    and (s.startswith(sigma) or sigma.startswith(s))
                    for s, a, v, st_ in kept)
        if not clash:
            kept.append((sigma, arg, val, steps))
    return kept


@given(axioms_strategy, st.text(alphabet="01", max_size=5))
@settings(max_examples=200)
def test_hat_argument_downward_closed(axioms, tau):
    f = table(_repair(axioms))
    defined = [hat_eval(f, tau, n) is not None for n in range(4)]
    for a, b in zip(defined, defined[1:]):
        assert a or not b


@given(axioms_strategy, st.text(alphabet="01", max_size=4))
@settings(max_examples=200)
def test_hat_refines_eval(axioms, tau):
    f = table(_repair(axioms))
    for n in range(4):
        hv = hat_eval(f, tau, n)
        if hv is not None:
            assert eval_at(f, tau, n) == hv


def test_splitting_pair():
    f = table([("0", 0, 0, 1), ("1", 0, 1, 1)])
    assert is_splitting_pair(f, "0", "1")
    g = table([("", 0, 0, 1)])
    assert not is_splitting_pair(g, "0", "1")
    with pytest.raises(ShapeError):
        is_splitting_pair(f, "0", "01")


def test_splitting_tree_plain_and_witness():
    f = table([("0", 0, 0, 1), ("1", 0, 1, 1)])
    assert is_splitting_tree(f, ["", "0", "1"])
    g = table([("", 0, 0, 1)])
    assert splitting_violation(g, ["", "0", "1"]) == ("0", "1")


def test_splitting_tree_delayed():
    # outputs appear one level late: "0" vs "1" have empty outputs, but any
    # pair of proper extensions of an incompatible pair splits at argument 0
    f = table([("00", 0, 0, 1), ("01", 0, 0, 1),
               ("10", 0, 1, 1), ("11", 0, 1, 1)])
    t = ["", "0", "1", "00", "01", "10", "11"]
    assert splitting_violation(f, t) == ("0", "1")
    assert splitting_violation(f, t, delayed=True) is None


# The whole-set scans that the prefix lookups and the tree index
# replaced, kept as oracles.

def _naive_delayed_violation(f, t, hat):
    t = frozenset(t)
    mems = sort_lenlex(t)
    outs = {m: output_prefix(f, m, hat=hat) for m in mems}
    for i, a in enumerate(mems):
        for b in mems[i + 1:]:
            if compatible(a, b):
                continue
            k = 0
            while k < min(len(a), len(b)) and a[k] == b[k]:
                k += 1
            stem = a[:k]
            if not any(is_prefix(m, a) and len(stem) < len(m) < len(a)
                       for m in mems):
                continue
            if not any(is_prefix(m, b) and len(stem) < len(m) < len(b)
                       for m in mems):
                continue
            if not outputs_split(outs[a], outs[b]):
                return (a, b)
    return None


def _naive_require_two_branching(t, what):
    if not t:
        raise ShapeError(f"{what}: empty tree")
    roots = [m for m in t if not any(is_proper_prefix(o, m) for o in t)]
    if len(roots) != 1:
        raise ShapeError(f"{what}: expected a single root")
    for m in sort_lenlex(t):
        above = [o for o in t if is_proper_prefix(m, o)]
        s = [o for o in above
             if not any(is_proper_prefix(p, o) for p in above)]
        if len(s) not in (0, 2):
            raise ShapeError(f"{what}: {m!r} has {len(s)} successors")


def _shape_error(fn, *args):
    try:
        fn(*args)
    except ShapeError as e:
        return str(e)
    return None


@st.composite
def branching_sets(draw):
    # grown two-branching trees (root optional), sometimes spoiled by a
    # stray string, or plain arbitrary sets with any number of roots
    if draw(st.booleans()):
        return frozenset(draw(st.lists(st.text(alphabet="01", max_size=5),
                                       max_size=12)))
    members = {draw(st.text(alphabet="01", max_size=2))}
    for _ in range(draw(st.integers(0, 4))):
        base = max(members, key=len) if draw(st.booleans()) else \
            draw(st.sampled_from(sorted(members)))
        if any(is_proper_prefix(base, m) for m in members):
            continue
        for bit in "01":
            members.add(base + bit + draw(st.text(alphabet="01",
                                                   max_size=2)))
    if draw(st.booleans()):
        members.add(draw(st.text(alphabet="01", max_size=5)))
    return frozenset(members)


@given(axioms_strategy, st.lists(st.text(alphabet="01", max_size=5),
                                 max_size=12), st.booleans())
@settings(max_examples=200)
def test_delayed_splitting_matches_naive_scan(axioms, ss, hat):
    f = table(_repair(axioms))
    assert splitting_violation(f, ss, delayed=True, hat=hat) == \
        _naive_delayed_violation(f, ss, hat)


@given(branching_sets())
@settings(max_examples=200)
def test_require_two_branching_matches_naive_scan(t):
    assert _shape_error(_require_two_branching, t, "tree") == \
        _shape_error(_naive_require_two_branching, t, "tree")


def test_require_two_branching_names_the_same_member_under_any_hash_seed():
    code = ("from branchlab.functionals import _require_two_branching\n"
            "try:\n"
            "    _require_two_branching("
            "frozenset(['', '0', '1', '00', '10']), 'x')\n"
            "except Exception as e:\n"
            "    print(e)\n")
    src = os.path.dirname(os.path.dirname(branchlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        outs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                check=True).stdout)
    assert outs == {"x: '0' has 1 successors\n"}


# The full-table scans that the per-argument buckets replaced, kept as
# oracles.

def _naive_applicable(f, tau, n):
    return tuple(ax for ax in f.axioms
                 if ax[1] == n and is_prefix(ax[0], tau))


def _naive_eval_at(f, tau, n):
    for ax in f.axioms:
        if ax[1] == n and is_prefix(ax[0], tau):
            return ax[2]
    return None


def _naive_max_arg(f):
    return max((ax[1] for ax in f.axioms), default=-1)


def _naive_min_steps(f, tau, n):
    best = None
    for ax in _naive_applicable(f, tau, n):
        if best is None or ax[3] < best:
            best = ax[3]
    return best


def _seeded_axioms(rng, count, max_steps=4):
    # most values follow the argument so that few clash
    axioms = []
    for _ in range(count):
        arg = rng.randint(0, 6)
        axioms.append(("".join(rng.choice("01")
                               for _ in range(rng.randint(0, 6))),
                       arg, arg if rng.random() < 0.8 else rng.randint(0, 3),
                       rng.randint(1, max_steps)))
    return axioms


@st.composite
def big_tables(draw, max_steps=4):
    # 0-200 drawn axioms, seeded, since hypothesis's own lists stay short
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return table(_repair(_seeded_axioms(rng, draw(st.integers(0, 200)),
                                        max_steps)))


@given(big_tables(), st.text(alphabet="01", max_size=8), st.integers(0, 9))
@settings(max_examples=200)
def test_axiom_lookup_matches_full_table_scan(f, tau, n):
    # arguments up to 9 include ones with no axioms, and tau may be
    # shorter than any sigma
    assert f.max_arg == _naive_max_arg(f)
    for k in range(n + 1):
        assert eval_at(f, tau, k) == _naive_eval_at(f, tau, k)
        ax = effective_axiom(f, tau, k)
        assert ax == _naive_effective_axiom(f, tau, k)
        steps = _naive_min_steps(f, tau, k)
        assert (ax and ax[3]) == steps
        # bounds just short of, at and past the convergence time, or
        # around one step when nothing converges
        at = steps or 1
        for bound in (at - 1, at, at + 1):
            assert value_within(f, tau, k, bound) == \
                _naive_bounded_value(f, tau, k, bound)


def _naive_effective_axiom(f, tau, n):
    cands = _naive_applicable(f, tau, n)
    if not cands:
        return None
    return min(cands, key=lambda ax: (ax[3], len(ax[0]), ax[0]))


def _repeating_table(rng):
    """A table whose sigmas each recur at up to four step counts with
    one value, so that the index must keep each sigma's fastest axiom."""
    axioms = []
    for _ in range(rng.randint(1, 25)):
        sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        arg, value = rng.randint(0, 3), rng.randint(0, 2)
        for steps in rng.sample(range(1, 9), rng.randint(1, 4)):
            axioms.append((sigma, arg, value, steps))
    return table(_repair(axioms))


def test_lookups_match_naive_scans_when_sigmas_repeat():
    repeated = 0
    for seed in range(60):
        rng = random.Random(seed)
        f = _repeating_table(rng)
        keys = Counter(ax[:2] for ax in f.axioms)
        repeated += sum(c > 1 for c in keys.values())
        for _ in range(20):
            tau = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
            naive_memo = {}
            for n in range(5):
                assert eval_at(f, tau, n) == _naive_eval_at(f, tau, n)
                ax = effective_axiom(f, tau, n)
                assert ax == _naive_effective_axiom(f, tau, n)
                assert (ax and ax[3]) == _naive_min_steps(f, tau, n)
                assert hat_eval(f, tau, n) == \
                    _naive_hat_eval(f, tau, n, naive_memo)
    assert repeated > 300


def test_lookups_probe_tau_prefixes_not_the_axioms():
    # argument 11 of the depth-12 identity table holds 4,096 axioms, all
    # with sigmas of length 12: a lookup probes tau[:12] once, and a
    # guarded one once per argument its recursion visits
    assert not hasattr(branchlab.functionals, "_at_arg")
    probes = []

    class Counting(dict):
        def get(self, key, default=None):
            probes.append(key)
            return dict.get(self, key, default)

    def counted(f):
        object.__setattr__(f, "_sigma_index", Counting(f._sigma_index))
        return f

    f = counted(_ident_table(12))
    tau = "0110" * 4
    assert effective_axiom(f, tau, 11) == (tau[:12], 11, 0, 1)
    assert probes == [tau[:12]]
    probes.clear()
    assert hat_eval(f, tau, 11) == 0
    assert sorted(probes, key=len) == [tau[:k] for k in range(1, 13)]
    # in general a lookup probes at most once per length up to len(tau)
    rng = random.Random(7)
    for _ in range(20):
        g = counted(table(_repair(_seeded_axioms(rng, 200))))
        for _ in range(20):
            tau = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            probes.clear()
            effective_axiom(g, tau, rng.randint(0, 6))
            assert len(probes) <= len(tau) + 1


# hat_eval before it read the axioms at its argument in one pass, kept
# as an oracle.

def _naive_hat_eval(f, tau, n, _memo=None):
    if _memo is None:
        _memo = {}
    key = (tau, n)
    if key in _memo:
        return _memo[key]
    _memo[key] = None
    steps = _naive_min_steps(f, tau, n)
    if steps is None or steps >= len(tau):
        return None
    parent = tau[:-1]
    for k in range(n):
        if _naive_hat_eval(f, parent, k, _memo) is None:
            return None
    val = _naive_eval_at(f, tau, n)
    _memo[key] = val
    return val


@given(big_tables(max_steps=9), st.text(alphabet="01", max_size=16),
       st.integers(0, 9))
@settings(max_examples=300)
def test_hat_eval_matches_the_two_scan_version(f, tau, n):
    # the oracle reads tau whole, so strings past the horizon plus the
    # argument test the cut
    assert f._horizon == max((max(len(ax[0]), ax[3] + 1)
                              for ax in f.axioms), default=0)
    naive_memo = {}
    for k in range(n + 1):
        want = _naive_hat_eval(f, tau, k)
        assert hat_eval(unkept(f), tau, k) == want
        # and through the table's values, kept across arguments and
        # prefixes
        for x in (tau, tau[:-1]):
            assert hat_eval(f, x, k) == _naive_hat_eval(f, x, k, naive_memo)
    assert all(len(x) <= f._horizon + k for x, k in f._hat_values)


def test_hat_eval_past_the_horizon_at_its_edges():
    # horizon 3 from the steps; arguments 0 and 1 converge on every
    # oracle of length past 2, and argument 1 one bit after argument 0
    f = table([("", 0, 5, 2), ("1", 1, 6, 1)])
    assert f._horizon == 3
    assert [hat_eval(f, "1" * k, 0) for k in range(6)] == \
        [None, None, None, 5, 5, 5]
    assert [hat_eval(f, "1" * k, 1) for k in range(6)] == \
        [None, None, None, None, 6, 6]
    assert hat_eval(f, "0111", 1) is None
    assert table([("0110", 0, 1, 1)])._horizon == 4


def test_hat_eval_asks_the_parent_only_at_the_argument_below(monkeypatch):
    # definedness is downward closed in the argument, so a call on a
    # table with no kept answers recurses once per argument below n:
    # n + 1 calls in all.  Equal tables are one object, so each round's
    # table differs from the earlier ones at an argument it never asks
    real = branchlab.functionals.hat_eval
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(branchlab.functionals, "hat_eval", counted)
    for n in range(8):
        f = table([("", k, k, 1) for k in range(8)] + [("", 8, n, 1)])
        assert f._hat_values == {}
        calls.clear()
        assert counted(f, "0" * 12, n) == n
        assert len(calls) == n + 1, calls


def test_table_identity_ignores_the_index():
    axs = [("01", 2, 1, 1), ("", 0, 3, 2), ("1", 0, 3, 1)]
    f, g = table(axs), table(reversed(axs))
    assert g is f
    assert f._horizon == 3
    assert [fl.name for fl in dataclasses.fields(f)] == ["axioms"]
    # equality and hashing are identity, which interning makes the same
    # as comparing axioms
    assert hash(f) == object.__hash__(f)
    assert f != table(axs[:2])
    assert repr(f) == ("FunctionalTable(axioms=(('', 0, 3, 2), "
                       "('1', 0, 3, 1), ('01', 2, 1, 1)))")
    assert FunctionalTable(()).max_arg == -1
    assert FunctionalTable(())._horizon == 0


def test_equal_tables_are_one_object_and_share_guarded_answers():
    axs = [("", 0, 5, 1), ("", 1, 6, 1), ("0", 2, 7, 3), ("1", 2, 4, 2)]
    f = table(axs)
    assert [fl.name for fl in dataclasses.fields(f)] == ["axioms"]
    strings = ["".join(bits) for k in range(7)
               for bits in product("01", repeat=k)]

    def answers(h):
        return [(hat_eval(h, s, n), output_prefix(h, s, hat=True))
                for s in strings for n in range(3)]

    want = answers(f)
    values, outputs = dict(f._hat_values), dict(f._hat_outputs)
    assert values and outputs
    # building g leaves f's kept answers in place, and g reads them
    g = table(reversed(axs))
    assert g is f
    assert f._hat_values == values and f._hat_outputs == outputs
    assert answers(g) == want
    # a copy with empty memos, which the registry never hands out and
    # which is so not equal to f, computes the same answers afresh
    h = unkept(f)
    assert h != f and h.axioms == f.axioms and table(axs) is f
    assert h._hat_values == {} and h._hat_outputs == {}
    assert answers(h) == want
    assert h._hat_values == f._hat_values is not h._hat_values


def test_an_interrupted_hat_eval_leaves_no_wrong_entry(monkeypatch):
    # the parent lookup of hat_eval(f, "111", 1) is interrupted once: an
    # entry stored before its value was known would read None for good
    f = unkept(table([("", 0, 5, 1), ("", 1, 6, 1)]))
    real = branchlab.functionals.effective_axiom

    def interrupted(g, tau, n):
        if n == 0:
            monkeypatch.setattr(branchlab.functionals, "effective_axiom",
                                real)
            raise KeyboardInterrupt
        return real(g, tau, n)

    monkeypatch.setattr(branchlab.functionals, "effective_axiom",
                        interrupted)
    with pytest.raises(KeyboardInterrupt):
        hat_eval(f, "111", 1)
    assert hat_eval(f, "111", 1) == hat_eval(unkept(f), "111", 1) == 6
    fresh = unkept(f)
    assert all(v == hat_eval(fresh, tau, n)
               for (tau, n), v in f._hat_values.items())


# The pairwise consistency scan that the per-argument prefix lookup
# replaced, kept as an oracle: the table's own validation first, then
# each argument's group in table order, the least i, then the least j.

def _naive_table_error(axioms):
    axs = sorted(set(axioms), key=lambda ax: (ax[1], len(ax[0]), ax[0],
                                               ax[3], ax[2]))
    for sigma, arg, value, steps in axs:
        if not set(sigma) <= {"0", "1"}:
            return ValueError, f"not a binary string: {sigma!r}"
        if arg < 0 or value < 0:
            return ShapeError, (f"axiom {(sigma, arg, value, steps)}: "
                                "argument and value must be naturals")
        if steps < 1:
            return ShapeError, (f"axiom {(sigma, arg, value, steps)}: "
                                "steps must be at least 1")
    by_arg = {}
    for ax in axs:
        by_arg.setdefault(ax[1], []).append(ax)
    for group in by_arg.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if a[2] != b[2] and compatible(a[0], b[0]):
                    return ConsistencyError, f"axioms {a} and {b} clash", a, b
    return None


def _table_error(axioms):
    try:
        FunctionalTable(tuple(axioms))
    except ConsistencyError as e:
        return type(e), str(e), e.first, e.second
    except ValueError as e:
        return type(e), str(e)
    return None


@given(st.integers(0, 2 ** 32), st.integers(0, 60))
@settings(max_examples=400)
def test_consistency_check_names_the_pairwise_scans_clash(seed, count):
    rng = random.Random(seed)
    axioms = _seeded_axioms(rng, count)
    if rng.random() < 0.5:
        # an axiom on the empty oracle is compatible with every other,
        # so it would be the first axiom of nearly every clash
        axioms = [ax for ax in axioms if ax[0]]
    if rng.random() < 0.1:  # a malformed axiom wins over any clash
        axioms.append(rng.choice((("", 0, 0, 0), ("2", 0, 0, 1),
                                  ("", -1, 0, 1))))
    assert _table_error(axioms) == _naive_table_error(axioms)


def test_consistency_check_prefers_the_least_first_axiom():
    # the pair ("1", "10") has the lower second axiom, but the pair
    # ("0", "000") the lower first one
    axs = [("0", 0, 1, 1), ("1", 0, 2, 1), ("10", 0, 3, 1),
           ("000", 0, 5, 1)]
    got = _table_error(axs)
    assert got == _naive_table_error(axs)
    assert got[2:] == (("0", 0, 1, 1), ("000", 0, 5, 1))


# --- weak splitting witnesses -------------------------------------------

def _hatlike_identity(depth):
    """psi(tau) = tau and phi(sigma) = sigma, with guarded evaluation
    defined as early as possible."""
    axs = []
    for n in range(depth):
        for s in ["".join(p) for p in _strings(n)]:
            for bit in "01":
                axs.append((s + bit, n, int(bit), 1))
    return table(axs)


def test_build_weak_splitting_identity():
    psi = _hatlike_identity(6)
    phi = _hatlike_identity(6)
    w = build_weak_splitting_tree(psi, phi, length_budget=5)
    assert "" not in w.tree
    for tau in w.tree:
        assert w.phi[tau] < len(tau)
    # with identity tables the guarded output of tau has length len(tau)-1,
    # so agreement reaches len(tau)-2 and every string of length >= 3 whose
    # agreement beats all its prefixes' qualifies
    some = sorted(w.tree, key=len)[0]
    assert len(some) >= 2


def test_check_and_decode_roundtrip_identity():
    psi = _hatlike_identity(7)
    phi = _hatlike_identity(7)
    w = build_weak_splitting_tree(psi, phi, length_budget=6)
    assert weak_splitting_violation(w, psi, "010101") is None


def test_weak_split_check_at_the_agreement_and_use_bounds():
    # 00 and 01 differ at position 1 only, and so do their outputs
    # (0, 0) and (0, 1): agreement up to 1 asks them to split, agreement
    # up to 0 does not, and a use bound of 0 misses their split
    psi = table([("", 0, 0, 1), ("00", 1, 0, 1), ("01", 1, 1, 1)])
    members = ("00", "01")
    verdicts = {}
    for phi, use in product((0, 1), repeat=2):
        w = WeakSplitWitness(Tree(members), dict.fromkeys(members, phi),
                             dict.fromkeys(members, use))
        verdicts[phi, use] = weak_splitting_violation(w, psi, "")
    assert verdicts == {
        (0, 0): None, (0, 1): None, (1, 1): None,
        (1, 0): "pair '00','01' fails to split under the use bound"}


# --- image / pullback ----------------------------------------------------

def _stride_tree_and_table(depth):
    """Two-branching tree with 3-bit strides and output = branch word."""
    members = {""}
    axioms = []
    frontier = [("", "")]  # (member, branch word)
    for level in range(depth):
        nxt = []
        for m, w in frontier:
            for bit, suffix in (("0", "000"), ("1", "111")):
                child = m + suffix
                members.add(child)
                axioms.append((child, level, int(bit), 1))
                nxt.append((child, w + bit))
        frontier = nxt
    return frozenset(members), table(axioms)


def test_image_tree_depth1():
    t, f = _stride_tree_and_table(1)
    img = image_tree(f, t)
    assert img == frozenset(["", "0", "1"])


def test_image_and_pullback_roundtrip():
    t, f = _stride_tree_and_table(2)
    img = image_tree(f, t)
    assert len(img) == 7
    assert pullback_tree(f, t, img) == t


def test_pullback_of_proper_subtree():
    t, f = _stride_tree_and_table(2)
    sub_img = frozenset(["", "0", "1", "00", "01"])
    # not two-branching: "1" is a leaf but "0" has children -> fine, both
    # allowed (0 or 2 successors each)
    t3 = pullback_tree(f, t, sub_img)
    assert all(m in t for m in t3)
    assert len(t3) == 5


def test_image_requires_splitting():
    f = table([("", 0, 0, 1)])
    t = frozenset(["", "000", "111"])
    with pytest.raises(ShapeError):
        image_tree(f, t)


# -- one output map per tree ---------------------------------------------------

@st.composite
def prefix_closed_sets(draw):
    tips = draw(st.lists(st.text(alphabet="01", max_size=6), max_size=8))
    return frozenset(x[:k] for x in tips for k in range(len(x) + 1))


@given(st.one_of(big_tables(), axioms_strategy.map(
    lambda axs: table(_repair(axs)))), prefix_closed_sets(), st.booleans())
@settings(max_examples=200)
def test_shared_memo_outputs_match_fresh_output_prefix(f, t, hat):
    fresh = {m: output_prefix(unkept(f), m, hat=hat) for m in t}
    # the table's outputs fill in whatever order the members come
    assert _outputs(f, sort_lenlex(t), hat=hat) == fresh
    assert _outputs(unkept(f), sort_lenlex(t)[::-1], hat=hat) == fresh


# output_prefix's guarded branch before it walked the string one bit at
# a time: one hat_eval per argument, kept as an oracle.

def _naive_hat_output_prefix(f, tau, _memo=None):
    if _memo is None:
        _memo = {}
    out = []
    n = 0
    while n <= f.max_arg + 1:
        v = _naive_hat_eval(f, tau, n, _memo)
        if v is None:
            break
        out.append(v)
        n += 1
    return tuple(out)


def _walk_tables(rng):
    yield EMPTY_TABLE
    yield table([("", 0, 5, 2), ("1", 1, 6, 1)])
    for _ in range(300):
        yield random_functional_table(rng, axioms=rng.randint(0, 30),
                                      max_steps=rng.randint(1, 6))
    for _ in range(100):
        yield table(_repair(_seeded_axioms(rng, rng.randint(0, 120), 9)))


def test_guarded_walk_matches_the_hat_eval_loop():
    # strings on both sides of the cut at the horizon plus the largest
    # argument plus one, on fresh tables and on one kept per table
    rng = random.Random(17)
    sides = Counter()
    for f in _walk_tables(rng):
        cut = f._horizon + f.max_arg + 1
        naive_shared = {}
        for _ in range(30):
            tau = "".join(rng.choice("01")
                          for _ in range(rng.randint(0, cut + 4)))
            want = _naive_hat_output_prefix(f, tau)
            assert output_prefix(unkept(f), tau, hat=True) == want
            assert output_prefix(f, tau, hat=True) == want
            assert _naive_hat_output_prefix(f, tau, naive_shared) == want
            sides[(len(tau) > cut) - (len(tau) < cut)] += 1
        # the table keeps cut strings, each with its own output, and the
        # output grows by at most one value per bit
        kept = f._hat_outputs
        for x, out in kept.items():
            assert len(x) <= cut
            assert out == _naive_hat_output_prefix(f, x, naive_shared)
            assert len(out) - len(kept.get(x[:-1], ())) in (0, 1)
    assert min(sides.values()) > 500, sides


def test_guarded_walk_matches_the_hat_eval_loop_on_oplus_trees():
    # the odd-bit readback, exact and with a few values flipped, on
    # trees up to 2,047 members
    rng = random.Random(23)
    for a in ("1", "10", "0110", "101101", "1011011101"):
        t = oplus_tree(a)
        for flips in (0, 1, 3):
            psi = table((s, n, v ^ (rng.random() < flips / 16), k)
                        for s, n, v, k in odd_readback_psi(a).axioms)
            # the hat_eval loop on an equal table of its own: the naive
            # scans would take seconds on these 2,046 axioms
            own = unkept(psi)
            want = {m: tuple(takewhile(lambda v: v is not None, (
                hat_eval(own, m, n) for n in range(own.max_arg + 2))))
                for m in t}
            assert _outputs(psi, t, hat=True) == want
            assert _outputs(unkept(psi), sort_lenlex(t)[::-1],
                            hat=True) == want


def _naive_hat_level_tree(psi, max_length):
    def out_len(tau):
        return len(_naive_hat_output_prefix(psi, tau))

    return {"".join(bits) for length in range(max_length + 1)
            for bits in product("01", repeat=length)
            if not bits or out_len("".join(bits)) > out_len(
                "".join(bits[:-1]))}


def test_hat_level_tree_matches_the_hat_eval_loop():
    # hat_level_tree reads the outputs its table keeps across its scan
    rng = random.Random(29)
    tables = list(_walk_tables(rng))[::8] + [_ident_table(4)]
    for f in tables:
        for max_length in (0, 3, 6):
            assert hat_level_tree(f, max_length) == \
                _naive_hat_level_tree(f, max_length)


# The pairwise scan, and the bodies that computed each member's output
# afresh in every check, kept as oracles.

def _naive_outputs_split(a_out, b_out):
    return any(x != y for x, y in zip(a_out, b_out))


def _naive_splitting_violation(f, t, delayed=False, hat=False):
    t = frozenset(t)
    mems = sort_lenlex(t)
    outs = {m: output_prefix(f, m, hat=hat) for m in mems}
    for i, a in enumerate(mems):
        for b in mems[i + 1:]:
            if compatible(a, b):
                continue
            if delayed:
                k = 0
                while k < min(len(a), len(b)) and a[k] == b[k]:
                    k += 1
                if not any(a[:j] in t for j in range(k + 1, len(a))):
                    continue
                if not any(b[:j] in t for j in range(k + 1, len(b))):
                    continue
            if not _naive_outputs_split(outs[a], outs[b]):
                return (a, b)
    return None


def _naive_image_tree(f, t, hat=False):
    t = frozenset(t)
    if not hat:
        for m in sort_lenlex(t):
            if output_prefix(f, m) != output_prefix(f, m, hat=True):
                raise ShapeError(
                    f"table is not its own guarded restriction at {m!r}")
    _require_two_branching(t, "image input")
    if _naive_splitting_violation(f, t, hat=hat) is not None:
        raise ShapeError("input tree is not a splitting tree")
    img = frozenset(bits_of_values(output_prefix(f, m, hat=hat)) for m in t)
    _require_two_branching(img, "image output")
    return img


def _naive_pullback_tree(f, t0, t2, hat=False):
    t0 = frozenset(t0)
    t2 = frozenset(t2)
    img = _naive_image_tree(f, t0, hat=hat)
    if not t2 <= img:
        raise ShapeError("refinement tree is not a subset of the image")
    _require_two_branching(t2, "refinement tree")
    t3 = frozenset(m for m in t0
                   if bits_of_values(output_prefix(f, m, hat=hat)) in t2)
    _require_two_branching(t3, "pullback output")
    return t3


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return (type(e).__name__, str(e))


def _sibling_groups(t):
    idx = _index(Tree(t))
    return (idx.levels[0], *idx.successors.values())


def _splitting_case(rng):
    """An arbitrary set of strings, often with several roots or a member
    with three successors, and a table that outputs some of each
    member's bits, a few flipped, at random step counts, so that pairs
    split or fail at any depth."""
    t = frozenset("".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
                  for _ in range(rng.randint(1, 14)))
    axioms = [(m[:n + 1], n, int(m[n]) ^ (rng.random() < 0.1),
               rng.randint(1, 4))
              for m in t for n in range(len(m)) if rng.random() < 0.7]
    return t, table(_repair(axioms))


@pytest.mark.parametrize("hat", [False, True])
def test_sibling_pair_check_names_the_pairwise_scans_pair(hat):
    # in plain mode the first failing pair of the pairwise scan is always
    # a sibling pair: a failing pair's siblings below it fail too and sort
    # no later.  Delayed mode exempts the successors of a branch point,
    # so it never names a sibling pair
    seen = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        t, f = _splitting_case(rng)
        groups = _sibling_groups(t)
        seen["roots"] += len(groups[0]) > 1
        seen["three"] += any(len(g) == 3 for g in groups[1:])
        for delayed in (False, True):
            got = splitting_violation(f, t, delayed=delayed, hat=hat)
            assert got == _naive_splitting_violation(f, t, delayed=delayed,
                                                     hat=hat)
            if got is None:
                seen["splitting", delayed] += 1
                continue
            sibling = any(got[0] in g and got[1] in g for g in groups)
            assert sibling or delayed
            seen["fails", delayed, sibling] += 1
    assert min(seen.values()) > 10 and len(seen) == 6, seen
    assert seen["fails", True, False] and seen["fails", False, True]


@pytest.mark.parametrize("hat", [False, True])
def test_delayed_check_matches_the_naive_scan_on_random_cases(hat):
    # tables that output some of each member's bits, flipped now and
    # then, and generated tables on random string sets
    verdicts = Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        if rng.random() < 0.7:
            t, f = _splitting_case(rng)
        else:
            t = frozenset("".join(rng.choice("01")
                                  for _ in range(rng.randint(0, 5)))
                          for _ in range(rng.randint(1, 14)))
            f = random_functional_table(rng, axioms=rng.randint(0, 12),
                                        max_value=2)
        got = splitting_violation(f, t, delayed=True, hat=hat)
        assert got == _naive_delayed_violation(f, t, hat)
        verdicts[got is None] += 1
    assert min(verdicts[True], verdicts[False]) > 100, verdicts


def _naive_successors(t):
    """Each member's successors and the roots, read off the prefixes."""
    parent = {m: max((p for p in t if is_proper_prefix(p, m)), key=len,
                     default=None) for m in t}
    kids = {m: [c for c in t if parent[c] == m] for m in t}
    return kids, [m for m in t if parent[m] is None]


def test_delayed_check_compares_each_successor_pair_once(monkeypatch):
    # one comparison for each successor of one sibling against each
    # successor of the other, whatever the verdict
    calls = []
    real = branchlab.functionals.outputs_split
    monkeypatch.setattr(branchlab.functionals, "outputs_split",
                        lambda a, b: calls.append(1) or real(a, b))
    cases = [(oplus_tree(a), odd_readback_psi(a))
             for a in ("1", "10", "0110", "101101")]
    cases += [_splitting_case(random.Random(seed)) for seed in range(60)]
    compared = 0
    for t, f in cases:
        kids, roots = _naive_successors(t)
        want = sum(len(kids[u]) * len(kids[v])
                   for group in [roots, *kids.values()]
                   for i, u in enumerate(group) for v in group[i + 1:])
        calls.clear()
        splitting_violation(f, t, delayed=True)
        assert len(calls) == want
        compared += want > 0
    assert compared > 20


def test_splitting_check_compares_each_sibling_pair_once(monkeypatch):
    # on a two-branching splitting tree of m members the check compares
    # the m // 2 sibling pairs, not the incompatible pairs
    calls = []
    real = branchlab.functionals.outputs_split
    monkeypatch.setattr(branchlab.functionals, "outputs_split",
                        lambda a, b: calls.append(1) or real(a, b))
    for a in ("1", "10", "0110", "101101"):
        t, psi = oplus_tree(a), odd_readback_psi(a)
        for hat in (False, True):
            calls.clear()
            assert is_splitting_tree(psi, t, hat=hat)
            assert len(calls) == len(t) // 2


@pytest.mark.parametrize("hat", [False, True])
def test_sibling_pass_names_the_pairwise_scans_pair_on_oplus_trees(hat):
    # the odd-bit readback with a few values flipped fails at sibling
    # pairs all over the tree; both name the same first pair
    fails = 0
    for seed in range(80):
        rng = random.Random(seed)
        a = "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))
        flips = rng.randint(0, 3)
        psi = table((s, n, v ^ (rng.random() < flips / 16), k)
                    for s, n, v, k in odd_readback_psi(a).axioms)
        t = oplus_tree(a)
        got = splitting_violation(psi, t, hat=hat)
        assert got == _naive_splitting_violation(psi, t, hat=hat)
        fails += got is not None
    assert 20 < fails < 80


def test_failing_splitting_check_names_its_pair_in_one_pass(monkeypatch):
    # the odd-bit readback on a 2,047-member oplus tree, with the
    # lex-last leaf pair reading one value: the pairwise scan took over
    # a second to name that pair, the sibling pass compares each of the
    # 1,023 sibling pairs once
    a = "1011011101"
    t = oplus_tree(a)
    last = max(m for m in t if len(m) == 2 * len(a))
    psi = table((s, n, 0 if s == last else v, k)
                for s, n, v, k in odd_readback_psi(a).axioms)
    calls = []
    real = branchlab.functionals.outputs_split
    monkeypatch.setattr(branchlab.functionals, "outputs_split",
                        lambda x, y: calls.append(1) or real(x, y))
    t0 = time.monotonic()
    assert splitting_violation(psi, t) == (last[:-1] + "0", last)
    assert time.monotonic() - t0 < 0.5
    assert len(t) == 2047 and len(calls) == len(t) // 2


@given(st.lists(st.integers(0, 2), max_size=5),
       st.lists(st.integers(0, 2), max_size=5))
def test_outputs_split_matches_pairwise_scan(a, b):
    assert outputs_split(tuple(a), tuple(b)) == \
        _naive_outputs_split(tuple(a), tuple(b))


def _branch_word_case(rng):
    """A random two-branching tree whose table outputs each member's
    branch word, with some values flipped, some axioms missing and
    random step counts, so that every check sometimes fails."""
    t, todo, axioms = {""}, [("", 0)], []
    while todo:
        x, level = todo.pop()
        if level >= 3 or (x and rng.random() < 0.3):
            continue
        for bit in "01":
            y = x + bit + "".join(rng.choice("01")
                                  for _ in range(rng.randint(1, 3)))
            t.add(y)
            todo.append((y, level + 1))
            if rng.random() < 0.95:
                flip = rng.random() < 0.05
                axioms.append((y, level, int(bit) ^ flip, rng.randint(1, 3)))
    return frozenset(t), table(_repair(axioms))


def _refinement(rng, img):
    """A random two-branching subtree of img, or a random stray set."""
    if rng.random() < 0.2:
        return frozenset(rng.choice(["", "0", "1", "00", "11", "2"])
                         for _ in range(rng.randint(0, 4)))
    sub, todo = {""}, [""]
    while todo:
        x = todo.pop()
        succ = successors(img, x) if x in img else ()
        if len(succ) == 2 and rng.random() < 0.8:
            sub.update(succ)
            todo.extend(succ)
    return frozenset(sub)


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=300)
def test_checks_over_one_output_map_match_fresh_outputs(seed, hat):
    rng = random.Random(seed)
    if rng.random() < 0.8:
        t, f = _branch_word_case(rng)
    else:
        t = frozenset(x[:k] for x in ("".join(rng.choice("01") for _ in
                                               range(rng.randint(0, 5)))
                                       for _ in range(4))
                      for k in range(len(x) + 1))
        f = table(_repair(
            (("".join(rng.choice("01") for _ in range(rng.randint(0, 3))),
              rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3))
             for _ in range(rng.randint(0, 12)))))
    for delayed in (False, True):
        assert splitting_violation(f, t, delayed=delayed, hat=hat) == \
            _naive_splitting_violation(f, t, delayed=delayed, hat=hat)
    img = _outcome(image_tree, f, t, hat)
    assert img == _outcome(_naive_image_tree, f, t, hat)
    t2 = _refinement(rng, img[1] if img[0] == "ok" else frozenset({""}))
    assert _outcome(pullback_tree, f, t, t2, hat) == \
        _outcome(_naive_pullback_tree, f, t, t2, hat)


def test_branch_word_cases_reach_success_and_the_main_errors():
    seen = set()
    for seed in range(300):
        for hat in (False, True):
            rng = random.Random(seed)
            t, f = _branch_word_case(rng)
            img = _outcome(image_tree, f, t, hat)
            t2 = _refinement(rng, img[1] if img[0] == "ok"
                             else frozenset({""}))
            got = _outcome(pullback_tree, f, t, t2, hat)
            seen.add(got[0] if got[0] == "ok" else got[1].split()[0])
    assert seen == {"ok", "table", "input", "refinement"}


def _naive_random_functional_table(rng, axioms=10, max_sigma_len=4,
                                   max_value=9, max_steps=3):
    """The generator that rebuilt and revalidated the whole table for
    every candidate, kept as the oracle of the incremental one."""
    kept = []
    tbl = FunctionalTable(())
    for _ in range(axioms):
        sigma = "".join(rng.choice("01")
                        for _ in range(rng.randint(0, max_sigma_len)))
        cand = (sigma, rng.randint(0, 3), rng.randint(0, max_value),
                rng.randint(1, max_steps))
        try:
            tbl = FunctionalTable(tuple(kept) + (cand,))
        except ConsistencyError:
            continue
        kept.append(cand)
    return tbl


@pytest.mark.parametrize("kw", [
    {"axioms": 5}, {"axioms": 40}, {"axioms": 200}, {"axioms": 12},
    {"axioms": 30, "max_steps": 6}, {"axioms": 12, "max_value": 1},
    {"axioms": 40, "max_sigma_len": 2, "max_value": 3, "max_steps": 1},
    {"axioms": 0}])
def test_incremental_generator_matches_the_rebuilding_one(kw):
    # the suite's and the benchmark's parameter sets: the same table and
    # the same generator state afterwards, so later draws do not move
    dropped = 0  # clashing or repeated candidates
    for seed in range(60 if kw["axioms"] < 100 else 15):
        fast, slow = random.Random(seed), random.Random(seed)
        got = random_functional_table(fast, **kw)
        want = _naive_random_functional_table(slow, **kw)
        assert got == want and got.axioms == want.axioms
        assert fast.getstate() == slow.getstate()
        dropped += kw["axioms"] - len(got.axioms)
    assert dropped > 0 or kw["axioms"] < 10
