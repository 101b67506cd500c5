"""Certificates, enumeration, packing selection, cover trees, and the
finite-extension driver."""

import dataclasses
import gc
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

import branchlab
from branchlab import functionals, smc
from branchlab.errors import (BudgetError, ConsistencyError, MemberError,
                              ProtocolError, ShapeError)
from branchlab.functionals import (FunctionalTable, _require_two_branching,
                                   image_tree, is_splitting_tree)
from branchlab.gen import (odd_readback_psi, phi_for_profile,
                           random_functional_table, random_pi_staging,
                           random_selection_scenario, staged_context)
from branchlab.smc import (OmegaContext, ThetaAxioms, build_tprime,
                           enumerate_pi, omega_level,
                           oplus_tree, select_extensions, smc_driver_stage,
                           t_of, theta_decode)
from branchlab.strings import (compatible, is_prefix, is_proper_prefix,
                               lenlex_key, show_string, sort_lenlex,
                               string_to_nat)
from branchlab.thin import is_thin
from branchlab.trees import (StagedTree, Tree, branching_stats, leaves,
                             level_map, level_of, max_level, successors)
from helpers import constant_psi, is_splitting_pair, pullback_tree


def all_strings(n):
    out = [""]
    for ln in range(1, n + 1):
        out.extend(format(k, f"0{ln}b") for k in range(1 << ln))
    return out


# -- guarded trees read off a functional ------------------------------------

class TestTOf:
    def test_empty_table_gives_empty_tree(self):
        assert t_of(FunctionalTable(()), "0") == frozenset()

    def test_nothing_at_the_empty_string(self):
        # one step is already too many for a length-zero reader
        phi = phi_for_profile({"": 2})
        assert t_of(phi, "") == frozenset()

    def test_full_binary_profile(self):
        phi = phi_for_profile({"": 2})
        assert t_of(phi, "0") == frozenset(all_strings(2))

    def test_checkpoints_deepen_the_tree(self):
        phi = phi_for_profile({"": 1, "1": 3})
        assert t_of(phi, "0") == frozenset(all_strings(1))
        assert t_of(phi, "1") == frozenset(all_strings(3))

    def test_sparse_profile_levels(self):
        phi = phi_for_profile({"0": {"", "0", "10", "01"}})
        t = t_of(phi, "0")
        assert t == frozenset({"", "0", "10", "01"})
        assert level_of(t, "10") == 1
        assert level_of(t, "01") == 2

    def test_three_successors_rejected(self):
        phi = phi_for_profile({"1": {"", "0", "10", "110"}})
        with pytest.raises(ShapeError):
            t_of(phi, "1")

    def test_inhabited_level_zero_must_be_the_root(self):
        phi = phi_for_profile({"1": {"0"}})
        with pytest.raises(ShapeError):
            t_of(phi, "1")


class TestOplus:
    def test_interleave_tree(self):
        t = oplus_tree("10")
        assert t == frozenset({"", "10", "11", "1000", "1001", "1100",
                               "1101"})
        assert all(len(m) % 2 == 0 for m in t)
        assert branching_stats(t)[1] == max_level(t) == 2

    def test_interleave_tree_trivial_oracle(self):
        assert oplus_tree("") == frozenset({""})


# -- certificates ------------------------------------------------------------

# The certificate predicate, the top-down search for the certified level
# and the enumeration that tried every certified level, which the
# one-pass certified level replaced, kept as oracles.

def omega(ctx, tau, n):
    if n == 0:
        return True
    if n >= len(ctx.f):
        return False
    t = t_of(ctx.phi, tau)
    if not t or max_level(t) < n:
        return False
    if branching_stats(t)[1] < n:
        return False
    buckets = level_map(t)
    return all(max(len(s) for s in buckets[k]) <= ctx.f[k]
               for k in range(n + 1))


def _naive_omega_level(ctx, tau):
    for n in range(len(ctx.f) - 1, 0, -1):
        if omega(ctx, tau, n):
            return n
    return 0


def _naive_enumerate_pi(ctx, max_stage):
    pi = [""]
    snaps = [Tree(pi)]
    for s in range(1, max_stage + 1):
        for bits in product("01", repeat=s):
            tau = "".join(bits)
            n = max(_naive_omega_level(ctx, p) for p in pi
                    if is_proper_prefix(p, tau))
            if n + 2 >= len(ctx.f):
                continue
            t = t_of(ctx.phi, tau)
            floor = ctx.f[n + 2]
            buckets = level_map(t) if t else {}
            for nn in range(n + 2, len(ctx.f)):
                if omega(ctx, tau, nn) and all(len(s2) >= floor
                                               for s2 in buckets[nn]):
                    pi.append(tau)
                    break
        snaps.append(Tree(pi))
    return StagedTree(tuple(snaps))


def _random_members(rng, depth):
    """A tree rooted at the empty string whose members have at most two
    successors each, one to three bits longer; now and then a stray
    string is added, which t_of may refuse."""
    members, todo = {""}, [""]
    while todo:
        x = todo.pop()
        for _ in range(rng.choice((0, 1, 2, 2, 2))):
            y = x + "".join(rng.choice("01")
                            for _ in range(rng.choice((1, 1, 2, 3))))
            if len(y) <= depth and y not in members and not any(
                    m != x and m.startswith(x) and (
                        y.startswith(m) or m.startswith(y))
                    for m in members):
                members.add(y)
                todo.append(y)
    if rng.random() < 0.1:
        members.add("".join(rng.choice("01")
                            for _ in range(rng.randint(1, depth))))
    if rng.random() < 0.05:
        members.discard("")
    return members


def _random_context(rng):
    """A profile of a few checkpoints, each a full depth or a random
    tree, under a random strictly increasing majorant."""
    while True:
        profile = {}
        for c in rng.sample(all_strings(3), rng.randint(1, 5)):
            profile[c] = (rng.randint(0, 4) if rng.random() < 0.3
                          else _random_members(rng, rng.randint(1, 7)))
        try:
            phi = phi_for_profile(profile)
        except ShapeError:
            continue
        f, x = [], rng.randint(0, 2)
        for _ in range(rng.randint(0, 9)):
            f.append(x)
            x += rng.choice((1, 1, 2, 3))
        return OmegaContext(phi, tuple(f))


def test_certified_level_matches_the_top_down_search():
    rng = random.Random(17)
    levels = set()
    for _ in range(300):
        ctx = _random_context(rng)
        for tau in all_strings(4):
            got = _outcome(omega_level, ctx, tau)
            assert got == _outcome(_naive_omega_level, ctx, tau)
            levels.add(got[1] if got[0] == "ok" else got[0])
    assert levels >= {0, 1, 2, 3, 4, "ShapeError"}, levels


# t_of and omega_level before they answered a tau past the table's
# horizon from its prefix there, kept as oracles.

def _uncut_t_of(phi, tau):
    members, length = [], 0
    while True:
        layer = []
        for bits in product("01", repeat=length):
            s = "".join(bits)
            v = functionals.value_within(phi, tau, string_to_nat(s),
                                         len(tau))
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
    for m in sort_lenlex(t):
        if level_of(t, m) == 0 and m != "":
            raise ShapeError(f"level-0 member {show_string(m)} of the tree "
                             f"at {show_string(tau)} is not the empty string")
        if len(successors(t, m)) > 2:
            raise ShapeError(f"{show_string(m)} has more than two successors "
                             f"in the tree at {show_string(tau)}")
    return t


def _uncut_omega_level(ctx, tau):
    if len(ctx.f) < 2:
        return 0
    t = _uncut_t_of(ctx.phi, tau)
    if not t:
        return 0
    levels = level_map(t)
    top = min(len(ctx.f) - 1, len(levels) - 1, branching_stats(t)[1])
    return max(0, next((k for k in range(top + 1)
                        if len(levels[k][-1]) > ctx.f[k]), top + 1) - 1)


def _cut_contexts(rng, count):
    """Profile contexts, whose step counts set the horizon H, random
    tables, and tables whose one sigma settles a small tree at every
    oracle through it, where the longest sigma sets H."""
    for k in range(count):
        if k % 3 == 0:
            yield _random_context(rng)
            continue
        if k % 3 == 1:
            phi = random_functional_table(rng, axioms=rng.randint(1, 12),
                                          max_sigma_len=6, max_value=1,
                                          max_steps=2)
        else:
            sigma = "".join(rng.choice("01")
                            for _ in range(rng.randint(2, 6)))
            phi = FunctionalTable(tuple(
                (sigma, n, int(rng.random() < 0.8), 1) for n in range(7)))
        yield OmegaContext(phi, tuple(range(rng.randint(0, 6))))


def test_cut_at_the_horizon_matches_the_uncut_trees_and_levels():
    # taus shorter than H, as long and longer, each through a longest
    # sigma so that its axioms apply; a refusal names the tau asked
    # for, not its prefix at H
    rng = random.Random(37)
    seen, levels = set(), set()
    for ctx in _cut_contexts(rng, 450):
        horizon = ctx.phi._horizon
        deep = max((ax[0] for ax in ctx.phi.axioms), key=len, default="")
        for length in (rng.randrange(horizon + 1), horizon,
                       horizon + rng.randint(1, 6)):
            tau = (deep + "".join(rng.choice("01")
                                  for _ in range(length)))[:length]
            got = _outcome(t_of, ctx.phi, tau)
            assert got == _outcome(_uncut_t_of, ctx.phi, tau)
            level = _outcome(omega_level, ctx, tau)
            assert level == _outcome(_uncut_omega_level, ctx, tau)
            seen.add(((length > horizon) - (length < horizon), got[0]))
            levels.add(level[1])
    assert seen >= {(-1, "ok"), (0, "ok"), (1, "ok"), (0, "ShapeError"),
                    (1, "ShapeError")}, seen
    assert {0, 1, 2} <= levels, levels


def test_enumeration_matches_trying_every_certified_level():
    rng = random.Random(19)
    admitted = 0
    for _ in range(150):
        # depth profiles under the identity majorant admit more often
        ctx = _random_context(rng) if rng.random() < 0.5 else staged_context(
            {c: rng.randint(0, 2 * len(c) + 1)
             for c in rng.sample(all_strings(3), rng.randint(1, 8))})
        got = _outcome(enumerate_pi, ctx, 4)
        assert got == _outcome(_naive_enumerate_pi, ctx, 4)
        admitted += got[0] == "ok" and len(got[1].final) > 1
    assert admitted > 20


def _naive_asked(ctx, final, max_stage):
    """The strings whose certified level the enumeration must ask for,
    in order: the root once a stage runs, then every string whose
    admitted proper prefixes in final leave n + 2 inside the majorant."""
    asked = [""] if max_stage else []
    for s in range(1, max_stage + 1):
        for bits in product("01", repeat=s):
            tau = "".join(bits)
            n = max(_naive_omega_level(ctx, p) for p in final
                    if is_proper_prefix(p, tau))
            if n + 2 < len(ctx.f):
                asked.append(tau)
    return asked


def test_admission_walk_matches_the_naive_enumeration(monkeypatch):
    # the walk's admitted set in stage order, each string's certified
    # level and count of admitted proper prefixes (the depths that
    # build_tprime reads), enumerate_pi's snapshots, and every string
    # whose tree is built and checked, in order, each asked cut to the
    # table's horizon
    real = smc.omega_level
    asked = []
    monkeypatch.setattr(smc, "omega_level",
                        lambda ctx, tau: asked.append(tau) or real(ctx, tau))
    rng = random.Random(29)
    kinds, cut = set(), 0
    for _ in range(150):
        ctx = _random_context(rng) if rng.random() < 0.5 else staged_context(
            {c: rng.randint(0, 2 * len(c) + 1)
             for c in rng.sample(all_strings(3), rng.randint(1, 8))})
        max_stage = rng.randint(0, 4)
        want = _outcome(_naive_enumerate_pi, ctx, max_stage)
        asked.clear()
        got = _outcome(smc._admission_walk, ctx, max_stage)
        assert got[0] == want[0]
        kinds.add(got[0] if got[0] != "ok" else len(got[1]) > 1)
        if got[0] != "ok":
            assert got == want
            continue
        final = want[1].final
        assert list(got[1]) == list(sort_lenlex(final))
        for x, (level, below) in got[1].items():
            assert below == level_of(final, x)
            if x or max_stage:  # with no stage the root's level is unread
                assert level == _naive_omega_level(ctx, x)
        naive = _naive_asked(ctx, final, max_stage)
        assert asked == [tau[:ctx.phi._horizon] for tau in naive]
        cut += any(len(tau) > ctx.phi._horizon for tau in naive)
        assert enumerate_pi(ctx, max_stage) == want[1]
    assert kinds == {False, True, "ShapeError"}, kinds
    assert cut, cut  # some walks pass the horizon


def test_admission_walk_keeps_one_cache_entry_per_cut_string():
    # 4,095 one-step axioms settle the depth-11 tree at every oracle by
    # horizon 2; the identity majorant asks every string's level and
    # tree at 13 stages, and only the strings up to length 2 may be kept
    phi = FunctionalTable(tuple(("", n, 1, 1) for n in range(4095)))
    ctx = OmegaContext(phi, tuple(range(30)))
    assert phi._horizon == 2
    smc.t_of.cache_clear()
    smc.omega_level.cache_clear()
    # no step count is within the empty string's length, so the root's
    # tree is empty and both one-bit strings are admitted at level 11
    assert enumerate_pi(ctx, 13).final == {"", "0", "1"}
    assert omega_level(ctx, "0") == 11
    for cache in (smc.t_of, smc.omega_level):
        info = cache.cache_info()
        assert info.currsize == info.misses == 7, info
    assert smc.omega_level.cache_info().hits > 16_000


class TestOmega:
    def test_level_zero_holds_unconditionally(self):
        ctx = staged_context({"": 0})
        assert omega(ctx, "0", 0)
        assert omega(ctx, "", 0)

    def test_chain_cannot_certify_level_one(self):
        ctx = staged_context({"1": {"", "0", "00"}})
        assert not omega(ctx, "1", 1)

    def test_full_binary_certifies_its_depth(self):
        ctx = staged_context({"": 4})
        assert omega(ctx, "0", 4)
        assert not omega(ctx, "0", 5)
        assert omega_level(ctx, "0") == 4

    def test_a_context_holds_the_table_and_the_majorant_alone(self):
        phi = phi_for_profile({"1": {"", "00"}})
        ctx = OmegaContext(phi, (0, 1, 2))
        assert [f.name for f in dataclasses.fields(OmegaContext)] == [
            "phi", "f"]
        # equality and hashing are identity, which interning makes the
        # same as comparing table and majorant
        assert OmegaContext(phi, (0, 1, 2)) is ctx
        assert hash(ctx) == object.__hash__(ctx)
        assert ctx != OmegaContext(phi, (0, 1, 3))

    def test_majorant_cuts_the_certificate(self):
        phi = phi_for_profile({"1": {"", "00", "111111"}})
        assert not omega(OmegaContext(phi, (0, 1, 2)), "1", 1)
        assert omega(OmegaContext(phi, (0, 6, 7)), "1", 1)

    def test_levels_beyond_the_majorant_never_certify(self):
        ctx = OmegaContext(phi_for_profile({"": 4}), (0, 1, 2))
        assert not omega(ctx, "0", 3)
        assert omega_level(ctx, "0") == 2


# -- equal tables and contexts are one object ------------------------------

def test_equal_keys_hit_the_caches_without_a_comparison():
    # tables and contexts compare and hash by identity alone, and one
    # built a second time is the first one, so the caches hit on it
    for cls in (FunctionalTable, OmegaContext):
        assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__)
    phi = phi_for_profile({"": 2, "1": 4})
    ctx = OmegaContext(phi, tuple(range(8)))
    taus = ["", "0", "1", "10", "0110", "1" * 9]
    want = [(t_of(phi, tau), omega_level(ctx, tau)) for tau in taus]
    phi2 = FunctionalTable(tuple(reversed(phi.axioms)))
    ctx2 = OmegaContext(phi2, tuple(range(8)))
    hits = t_of.cache_info().hits, omega_level.cache_info().hits
    assert [(t_of(phi2, tau), omega_level(ctx2, tau)) for tau in taus] \
        == want
    assert (t_of.cache_info().hits - hits[0],
            omega_level.cache_info().hits - hits[1]) == (6, 6)
    assert phi2 is phi and ctx2 is ctx


def test_the_registries_keep_no_object_alive():
    gc.collect()
    tables, contexts = FunctionalTable._registry, OmegaContext._registry
    start = len(tables), len(contexts)
    held = [OmegaContext(FunctionalTable((("", 0, 10**6 + k, 1),)), (k,))
            for k in range(1000)]
    assert (len(tables), len(contexts)) == (start[0] + 1000, start[1] + 1000)
    del held
    gc.collect()
    assert (len(tables), len(contexts)) == start


def test_reordered_axioms_and_replace_give_the_live_object():
    axs = (("", 0, 5, 1), ("1", 1, 6, 2), ("0", 1, 7, 2))
    f = FunctionalTable(axs)
    ctx = OmegaContext(f, (0, 2, 5))
    assert FunctionalTable(axs[::-1]) is f
    assert FunctionalTable(list(axs + axs)) is f
    assert dataclasses.replace(f) is f
    assert dataclasses.replace(f, axioms=axs[::-1]) is f
    assert OmegaContext(FunctionalTable(axs[1:] + axs[:1]), (0, 2, 5)) is ctx
    assert dataclasses.replace(ctx, f=(0, 2, 5)) is ctx
    other = dataclasses.replace(ctx, f=(0, 2, 6))
    assert other is not ctx and other.phi is f


def test_a_refused_table_or_context_leaves_no_entry():
    phi = FunctionalTable((("", 0, 1, 1),))
    gc.collect()
    start = len(FunctionalTable._registry), len(OmegaContext._registry)
    with pytest.raises(ConsistencyError):
        FunctionalTable((("", 0, 1, 1), ("0", 0, 2, 1)))
    with pytest.raises(ShapeError):
        FunctionalTable((("", 0, 1, 0),))
    with pytest.raises(ShapeError):
        FunctionalTable((("", -1, 1, 1),))
    with pytest.raises(ValueError):
        FunctionalTable((("2", 0, 1, 1),))
    with pytest.raises(ShapeError):
        OmegaContext(phi, (0, 2, 2))
    assert (len(FunctionalTable._registry),
            len(OmegaContext._registry)) == start


class TestEnumerate:
    def test_starts_from_the_root_alone(self):
        ctx = staged_context({"": 0})
        res = enumerate_pi(ctx, 0)
        assert res.final == frozenset({""})

    def test_flat_profile_admits_nothing(self):
        ctx = staged_context({"": 0})
        assert enumerate_pi(ctx, 3).final == frozenset({""})

    def test_chain_enters_at_predicted_lengths(self):
        ctx = staged_context({"": 0, "1": 2, "11": 4, "111": 6})
        res = enumerate_pi(ctx, 3)
        assert res.stages[1] == frozenset({"", "1"})
        assert res.stages[2] == frozenset({"", "1", "11"})
        assert res.final == frozenset({"", "1", "11", "111"})

    def test_short_majorant_stalls_the_chain(self):
        ctx = OmegaContext(phi_for_profile({"": 0, "1": 2, "11": 4}),
                           (0, 1, 2))
        assert enumerate_pi(ctx, 2).final == frozenset({"", "1"})

    def test_certified_level_beats_every_prefix_by_two(self):
        for depths in ({"": 0, "1": 2, "11": 4, "111": 6},
                       {c: 2 * len(c) for c in all_strings(2)}):
            ctx = staged_context(depths)
            final = enumerate_pi(ctx, 3).final
            for tau in final:
                if tau == "":
                    continue
                below = max(omega_level(ctx, p) for p in final
                            if p != tau and tau.startswith(p))
                assert omega_level(ctx, tau) >= below + 2

    def test_uniform_profile_admits_the_full_tree(self):
        ctx = staged_context({c: 2 * len(c) for c in all_strings(2)})
        final = enumerate_pi(ctx, 2).final
        assert final == frozenset(all_strings(2))

    def test_prefix_free_families_stay_within_budget(self):
        # ties the packing budget to the antichain weight machinery
        ctx = staged_context({c: 2 * len(c) for c in all_strings(2)})
        final = enumerate_pi(ctx, 2).final
        rest = sorted(final - {""})
        assert is_thin(final, {"", "0", "00"})
        assert is_thin(final, final)
        for k in range(1, 4):
            for fam in combinations(rest, k):
                if any(a != b and compatible(a, b)
                       for a in fam for b in fam):
                    continue
                assert sum(Fraction(1, 1 << level_of(final, x))
                           for x in fam) <= 1


# -- packing selection --------------------------------------------------------

class TestSelect:
    def test_single_node_takes_the_least_two(self):
        ctx = staged_context({"": 0, "1": 2, "11": 4})
        res = select_extensions(ctx, "1", [("11", 1)], "00")
        assert res.sigma_pairs == {0: ("0000", "0001")}
        assert res.psi_pool[0] == frozenset({"0000", "0001", "0010", "0011"})
        assert res.r == (Fraction(1, 2),)

    def test_two_stars_split_the_pool(self):
        ctx = staged_context({"": 0, "1": 2, "10": 4, "11": 4})
        res = select_extensions(ctx, "1", [("10", 1), ("11", 1)], "00")
        assert res.sigma_pairs == {0: ("0000", "0001"), 1: ("0010", "0011")}
        assert res.r == (Fraction(1),)

    def test_depths_settle_in_order(self):
        ctx = staged_context({"": 0, "1": 2, "10": 4, "1100": 6,
                              "1101": 6})
        res = select_extensions(
            ctx, "1", [("10", 1), ("1100", 2), ("1101", 2)], "00")
        assert res.sigma_pairs == {0: ("0000", "0001"),
                                   1: ("001000", "001001"),
                                   2: ("001010", "001011")}
        assert res.r == (Fraction(1, 2), Fraction(1))

    def test_picks_are_pairwise_incompatible(self):
        ctx = staged_context({"": 0, "1": 2, "10": 4, "1100": 6,
                              "1101": 6})
        res = select_extensions(
            ctx, "1", [("10", 1), ("1100", 2), ("1101", 2)], "00")
        picks = [s for pair in res.sigma_pairs.values() for s in pair]
        assert all(not compatible(a, b)
                   for a, b in combinations(picks, 2))

    def test_empty_family_rejected(self):
        ctx = staged_context({"": 0, "1": 2})
        with pytest.raises(ShapeError, match="empty"):
            select_extensions(ctx, "1", [], "00")

    def test_family_must_be_prefix_free(self):
        ctx = staged_context({"": 0, "1": 2, "11": 4, "110": 6})
        with pytest.raises(ShapeError, match="prefix-free"):
            select_extensions(ctx, "1", [("11", 1), ("110", 2)], "00")

    def test_base_must_sit_at_the_certified_level(self):
        ctx = staged_context({"": 0, "1": 2, "11": 4})
        with pytest.raises(ShapeError, match="certified level"):
            select_extensions(ctx, "1", [("11", 1)], "0")

    def test_nodes_must_extend_the_base_string(self):
        ctx = staged_context({"": 0, "1": 2, "01": 4})
        with pytest.raises(ShapeError, match="properly extend"):
            select_extensions(ctx, "1", [("01", 1)], "00")

    def test_gap_must_cover_the_depth(self):
        # certified level 2 cannot host a depth-1 node over a level-2 base
        ctx = staged_context({"": 0, "1": 2, "10": 2})
        with pytest.raises(ShapeError, match="falls short"):
            select_extensions(ctx, "1", [("10", 1)], "00")

    def test_three_stars_overflow_the_budget(self):
        ctx = staged_context({"": 0, "1": 2, "100": 4, "101": 4,
                              "110": 4})
        with pytest.raises(ShapeError, match="crowded"):
            select_extensions(
                ctx, "1", [("100", 1), ("101", 1), ("110", 1)], "00")

    def test_selection_is_deterministic(self):
        ctx = staged_context({"": 0, "1": 2, "10": 4, "11": 4})
        nodes = [("10", 1), ("11", 1)]
        assert (select_extensions(ctx, "1", nodes, "01")
                == select_extensions(ctx, "1", nodes, "01"))

    def test_random_scenarios_pack_cleanly(self):
        rng = random.Random(20260814)
        for _ in range(60):
            ctx, tau, nodes, sigma = random_selection_scenario(rng)
            res = select_extensions(ctx, tau, nodes, sigma)
            assert set(res.sigma_pairs) == set(range(len(nodes)))
            picks = [s for pair in res.sigma_pairs.values() for s in pair]
            assert all(not compatible(a, b)
                       for a, b in combinations(picks, 2))
            assert res.r[-1] == sum(Fraction(1, 2 ** d)
                                    for _, d in nodes) <= 1
            for i, (nm, _) in enumerate(nodes):
                t_i = t_of(ctx.phi, nm)
                want = omega_level(ctx, nm)
                for pick in res.sigma_pairs[i]:
                    assert pick in t_i
                    assert level_of(t_i, pick) == want
                    assert pick.startswith(sigma)


# The Fraction arithmetic that the integer budget replaced, kept as an
# oracle: r_m and the pool floor (1 - r_m) 2^(m+1).

def _fraction_budget(nodes):
    r, seq = Fraction(0), []
    for m in range(1, max(d for _, d in nodes) + 1):
        r += Fraction(sum(d == m for _, d in nodes), 1 << m)
        seq.append(r)
    return seq


def _random_family(rng):
    """A prefix-free family above 1 of full-depth trees, crowded or not,
    and a level-2 base; every pool grows, so the budget decides."""
    while True:
        names = sorted({"1" + "".join(rng.choice("01")
                                      for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 5))})
        if all(not b.startswith(a) for a, b in zip(names, names[1:])):
            break
    nodes = [(nm, rng.choice((1, 1, 2))) for nm in names]
    ctx = staged_context({"": 0, "1": 2, **{nm: 2 + 2 * d for nm, d in nodes}})
    return ctx, nodes, format(rng.randrange(4), "02b")


def test_integer_budget_matches_the_fraction_budget():
    rng = random.Random(20261020)
    kinds = set()
    for _ in range(200):
        ctx, nodes, sigma = _random_family(rng)
        seq = _fraction_budget(nodes)
        over = next((m for m, r in enumerate(seq, 1) if r > 1), None)
        got = _outcome(select_extensions, ctx, "1", nodes, sigma)
        if over is None:
            assert got[0] == "ok" and got[1].r == tuple(seq)
        else:
            assert got == ("ShapeError", f"budget r_{over} = {seq[over - 1]} "
                           "exceeds 1: the family is too crowded to be thin")
        kinds.add(over)
    assert kinds >= {None, 1, 2}, kinds


_FLOOR = re.compile(r"pool for (\w+) fell to (\d+) below the floor (\S+); "
                    r"at step (\d+):")


def test_floor_message_matches_the_fraction_floor(monkeypatch):
    # settled picks knock at most two strings out of a pool each step
    # while it quadruples, so no pool ever falls below the floor; one
    # string less is counted in every pool, once pools grow, to reach
    # the message
    real_descent, real_len, growing = smc._descent, len, []

    def descent(*args):
        growing.append(True)
        return real_descent(*args)

    def short_len(x):
        n = real_len(x)
        return n - 1 if (growing and type(x) is list and n
                         and type(x[0]) is str) else n

    monkeypatch.setattr(smc, "_descent", descent)
    monkeypatch.setattr(smc, "len", short_len, raising=False)
    rng = random.Random(20261021)
    floors = 0
    for _ in range(200):
        ctx, nodes, sigma = _random_family(rng)
        seq = _fraction_budget(nodes)
        growing.clear()
        got = _outcome(select_extensions, ctx, "1", nodes, sigma)
        hit = _FLOOR.match(got[1]) if got[0] == "ProtocolError" else None
        if hit is None:
            continue
        name, size, floor, m = hit.groups()
        m = int(m)
        want = (1 - seq[m - 1]) * (1 << (m + 1))
        assert floor == str(want) and int(size) < want
        assert dict(nodes)[name] > m
        floors += 1
    assert floors > 20


# The whole-tree scan and the level filter that the selection's level
# lists replaced, kept as oracles for its descent: the members a level
# below a level's members are their descendants.

def _naive_level_members(t, level, bases):
    return sort_lenlex(x for x in t
                       if level_of(t, x) == level
                       and any(is_prefix(p, x) for p in bases))


def test_selection_level_members_match_naive_scan(monkeypatch):
    real = smc._descent
    calls = []

    def checked(t, xs, depth):
        got = real(t, xs, depth)
        level = level_of(t, xs[0])
        # the asked depth, and one past the top
        for d in (depth, max_level(t) + 1 - level):
            assert sort_lenlex(real(t, xs, d)) == \
                _naive_level_members(t, level + d, xs)
        calls.append(len(got))
        return got

    monkeypatch.setattr(smc, "_descent", checked)
    rng = random.Random(20261018)
    for _ in range(40):
        select_extensions(*random_selection_scenario(rng))
    assert len(calls) > 100 and 0 < min(calls) < max(calls)


def _linear_level_members(t, level, bases):
    return tuple(x for x in level_map(t).get(level, ()) if x.startswith(bases))


def test_level_members_match_the_linear_filter():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(300):
        t = Tree(_random_members(rng, rng.randint(1, 7)))
        if not t:
            continue
        levels, top = level_map(t), max_level(t)
        for _ in range(6):
            # distinct members of one level, one or several
            level = rng.randint(0, top)
            bases = rng.sample(levels[level],
                               min(len(levels[level]),
                                   rng.choice((1, 1, 2, 3, 5))))
            for depth in (rng.randint(0, top + 1 - level), top + 1 - level):
                got = sort_lenlex(smc._descent(t, bases, depth))
                assert got == _linear_level_members(t, level + depth,
                                                    tuple(bases))
                seen.add((len(bases) > 1, bool(got), level + depth > top))
    assert seen >= {(False, True, False), (True, True, False),
                    (False, False, True), (True, False, True)}, seen


# -- readback axioms ----------------------------------------------------------

class TestTheta:
    def test_nested_sources_name_nested_targets(self):
        ThetaAxioms({"00": "1", "0011": "11"})

    def test_disagreeing_paths_rejected(self):
        with pytest.raises(ShapeError, match="disagree"):
            ThetaAxioms({"00": "0", "0011": "1"})

    def test_decode_walks_the_prefixes(self):
        theta = ThetaAxioms({"00": "0", "0000": "00"})
        assert theta_decode(theta, "000001") == ("0", "00")
        assert theta_decode(theta, "11") == ()


# The pairwise check of every two sources and the decoder's sorted scan
# of every axiom, which the probes along source paths replaced, kept as
# oracles.

def _pairwise_theta_violation(axioms):
    for a in axioms:
        for b in axioms:
            if is_proper_prefix(a, b) and not is_prefix(axioms[a], axioms[b]):
                return (f"axioms at {show_string(a)} and {show_string(b)} "
                        "disagree along a path")
    return None


def _sorted_theta_decode(theta, c):
    hits = sorted((src for src in theta.axioms if is_prefix(src, c)), key=len)
    return tuple(theta.axioms[src] for src in hits)


def _random_axioms(rng):
    """Sources up to length 5 in random order; each target extends its
    nearest source prefix's, until a few are redrawn at random."""
    srcs = sort_lenlex(rng.sample(all_strings(5), rng.randint(1, 14)))
    tgt = {}
    for s in srcs:
        below = max((tgt[p] for p in srcs if is_proper_prefix(p, s)),
                    key=len, default="")
        tgt[s] = below + "".join(rng.choice("01")
                                 for _ in range(rng.randint(0, 2)))
    for s in rng.sample(srcs, min(len(srcs), rng.choice((0, 0, 1, 2, 3)))):
        tgt[s] = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
    return {s: tgt[s] for s in rng.sample(srcs, len(srcs))}


def test_theta_checks_match_the_pairwise_scan():
    rng = random.Random(20261022)
    verdicts = {"ok": 0, "several": 0, "one": 0}
    for _ in range(1500):
        axioms = _random_axioms(rng)
        want = _pairwise_theta_violation(axioms)
        got = _outcome(ThetaAxioms, axioms)
        assert got == (("ok", ThetaAxioms(axioms)) if want is None
                       else ("ShapeError", want))
        bad = sum(is_proper_prefix(a, b)
                  and not is_prefix(axioms[a], axioms[b])
                  for a in axioms for b in axioms)
        verdicts["ok" if not bad else "one" if bad == 1 else "several"] += 1
        if want is None:
            theta = got[1]
            for c in ("", *rng.sample(all_strings(6), 20), *axioms):
                assert theta_decode(theta, c) == _sorted_theta_decode(theta, c)
    assert min(verdicts.values()) > 100, verdicts


# -- the packed cover ---------------------------------------------------------

def chain_setup():
    ctx = staged_context({"": 0, "1": 2, "11": 4, "111": 6})
    st = StagedTree((frozenset({""}), frozenset({"", "1"}),
                     frozenset({"", "1", "11"})))
    succ = {"": frozenset({"1"}), "1": frozenset({"11"}),
            "11": frozenset()}
    return ctx, st, succ


def fork_setup():
    ctx = staged_context({"": 0, "10": 2, "11": 2})
    st = StagedTree((frozenset({""}), frozenset({"", "10", "11"})))
    succ = {"": frozenset({"10", "11"}), "10": frozenset(),
            "11": frozenset()}
    return ctx, st, succ


class TestBuildCover:
    def test_chain_grows_one_generation_per_stage(self):
        ctx, st, succ = chain_setup()
        tp, theta = build_tprime(ctx, st, succ)
        assert tp[""] == frozenset({""})
        assert tp["1"] == frozenset({"", "00", "01"})
        assert tp["11"] == frozenset({"", "00", "01", "0000", "0001",
                                      "0100", "0101"})
        assert theta.axioms == {"00": "1", "01": "1", "0000": "11",
                                "0001": "11", "0100": "11", "0101": "11"}

    def test_chain_readback_recovers_the_path(self):
        ctx, st, succ = chain_setup()
        tp, theta = build_tprime(ctx, st, succ)
        for leaf in leaves(tp["11"]):
            assert theta_decode(theta, leaf) == ("1", "11")

    def test_leaves_sit_on_certified_levels(self):
        ctx, st, succ = chain_setup()
        tp, _ = build_tprime(ctx, st, succ)
        for x in ("1", "11"):
            t_x = t_of(ctx.phi, x)
            n_x = omega_level(ctx, x)
            assert all(level_of(t_x, leaf) == n_x
                       for leaf in leaves(tp[x]))
            assert branching_stats(tp[x])[1] == max_level(tp[x])

    def test_fork_trees_are_cross_incompatible(self):
        ctx, st, succ = fork_setup()
        tp, theta = build_tprime(ctx, st, succ)
        assert tp["10"] == frozenset({"", "00", "01"})
        assert tp["11"] == frozenset({"", "10", "11"})
        for a in leaves(tp["10"]):
            for b in leaves(tp["11"]):
                assert not compatible(a, b)
        assert theta.axioms == {"00": "10", "01": "10", "10": "11",
                                "11": "11"}

    def test_enumeration_must_start_at_the_root(self):
        ctx, _, succ = chain_setup()
        st = StagedTree((frozenset({"1"}),))
        with pytest.raises(ShapeError, match="empty string"):
            build_tprime(ctx, st, succ)

    def test_successor_codes_must_match(self):
        ctx, st, succ = chain_setup()
        succ["1"] = frozenset()
        with pytest.raises(ShapeError, match="successor code"):
            build_tprime(ctx, st, succ)

    def test_successor_codes_must_cover_exactly(self):
        ctx, st, succ = chain_setup()
        succ["0"] = frozenset()
        with pytest.raises(ShapeError, match="outside"):
            build_tprime(ctx, st, succ)

    def test_members_must_be_admitted(self):
        ctx, _, _ = chain_setup()
        st = StagedTree((frozenset({""}), frozenset({"", "0"})))
        succ = {"": frozenset({"0"}), "0": frozenset()}
        with pytest.raises(ShapeError, match="never admitted"):
            build_tprime(ctx, st, succ)

    def test_stage_must_extend_a_single_owner(self):
        ctx = staged_context({"": 0, "10": 2, "11": 2, "100": 4,
                              "110": 4})
        st = StagedTree((frozenset({""}), frozenset({"", "10", "11"}),
                         frozenset({"", "10", "11", "100", "110"})))
        succ = {"": frozenset({"10", "11"}),
                "10": frozenset({"100"}), "11": frozenset({"110"}),
                "100": frozenset(), "110": frozenset()}
        with pytest.raises(ShapeError, match="exactly one leaf"):
            build_tprime(ctx, st, succ)

    def test_stage_cannot_extend_an_interior_string(self):
        ctx = staged_context({"": 0, "1": 2, "11": 4, "10": 4})
        st = StagedTree((frozenset({""}), frozenset({"", "1"}),
                         frozenset({"", "1", "11"}),
                         frozenset({"", "1", "11", "10"})))
        succ = {"": frozenset({"1"}), "1": frozenset({"11", "10"}),
                "11": frozenset(), "10": frozenset()}
        with pytest.raises(ShapeError, match="not a leaf"):
            build_tprime(ctx, st, succ)

    def test_stage_additions_must_be_incompatible(self):
        ctx = staged_context({"": 0, "1": 2, "11": 4})
        st = StagedTree((frozenset({""}), frozenset({"", "1", "11"})))
        succ = {"": frozenset({"1"}), "1": frozenset({"11"}),
                "11": frozenset()}
        with pytest.raises(ShapeError, match="compatible"):
            build_tprime(ctx, st, succ)


# -- driver stages ------------------------------------------------------------

def mixed_psi():
    """Splits at the first oracle bit, constant past it."""
    axioms = [("10", 0, 0, 1), ("11", 0, 1, 1)]
    axioms += [(m, 1, 0, 1) for m in ("1000", "1001", "1100", "1101")]
    return FunctionalTable(tuple(axioms))


class TestDriver:
    def test_flat_functional_yields_a_witness(self):
        t = oplus_tree("10")
        res = smc_driver_stage(("", t), constant_psi("10"), 5)
        assert res.branch == "no-splittings"
        assert res.b_next == "10"
        assert res.t_next == t

    def test_witness_can_sit_above_a_splitting_root(self):
        t = oplus_tree("10")
        res = smc_driver_stage(("", t), mixed_psi(), 5)
        assert res.branch == "no-splittings"
        assert res.b_next == "1000"
        assert res.t_next == t

    def test_injective_functional_splits_everywhere(self):
        t = oplus_tree("10")
        res = smc_driver_stage(("", t), odd_readback_psi("10"), 3)
        assert res.branch == "splitting-subtree"
        assert res.t_next == t
        assert res.b_next == "1000"

    def test_budget_is_enforced(self):
        t = oplus_tree("10")
        with pytest.raises(BudgetError):
            smc_driver_stage(("", t), odd_readback_psi("10"), 2)

    def test_refinement_through_a_readback_tree(self):
        t = oplus_tree("10")
        res = smc_driver_stage(("", t), odd_readback_psi("10"), 3,
                               dagger_subtree=frozenset({"", "0", "1"}))
        assert res.branch == "splitting-subtree"
        assert res.t_next == frozenset({"", "10", "11"})
        assert res.b_next == "10"

    def test_base_must_be_on_the_tree(self):
        with pytest.raises(MemberError):
            smc_driver_stage(("0", oplus_tree("10")),
                             constant_psi("10"), 1)

    def test_tree_must_branch_in_twos(self):
        t = oplus_tree("10") | {"0"}
        with pytest.raises(ShapeError):
            smc_driver_stage(("", t), constant_psi("10"), 1)

    def test_random_functionals_against_the_oracle(self):
        rng = random.Random(99)
        t = oplus_tree("101")
        members = sorted(m for m in t if m)
        for _ in range(30):
            psi = FunctionalTable(tuple(
                (m, len(m) // 2 - 1, rng.randint(0, 1), 1)
                for m in members))
            res = smc_driver_stage(("", t), psi, 20)
            assert res.t_next <= t
            assert res.b_next in res.t_next
            if res.branch == "splitting-subtree":
                assert is_splitting_tree(psi, res.t_next, hat=True)
                # unsplittable nodes stay leaves, so depth may vary,
                # but nothing ever branches one or three ways
                for m in res.t_next:
                    assert len(successors(res.t_next, m)) in (0, 2)
                assert res.b_next == min(leaves(res.t_next),
                                         key=lambda s: (len(s), s))
            else:
                assert res.t_next == t


# The driver stage that recomputed guarded outputs for every pair and
# scanned the whole tree for each base's extensions, kept as an oracle.

def _naive_extensions(t, tau):
    return [x for x in t if is_prefix(tau, x)]


def _naive_smc_driver_stage(state, psi_s, dagger_budget, dagger_subtree=None):
    b_s, t_s = state
    t_s = frozenset(t_s)
    _require_two_branching(t_s, "driver tree")
    if b_s not in t_s:
        raise MemberError(f"base {show_string(b_s)} is not on the tree")

    for tau in sort_lenlex(_naive_extensions(t_s, b_s)):
        above = _naive_extensions(t_s, tau)
        pairs = [(a, b) for a_i, a in enumerate(above)
                 for b in above[a_i + 1:] if not compatible(a, b)]
        if not pairs:
            continue
        if not any(is_splitting_pair(psi_s, a, b, hat=True)
                   for a, b in pairs):
            ups = sort_lenlex(x for x in t_s if is_proper_prefix(tau, x))
            return smc.DriverResult(ups[0] if ups else tau, t_s,
                                    "no-splittings")

    ops = 0
    built = {b_s}
    frontier = [b_s]
    while frontier:
        frontier.sort(key=lenlex_key)
        x = frontier.pop(0)
        exts = sort_lenlex(_naive_extensions(t_s, x))
        picked = None
        for a in exts:
            for b in exts:
                if (not compatible(a, b)
                        and is_splitting_pair(psi_s, a, b, hat=True)):
                    picked = (a, b)
                    break
            if picked:
                break
        if picked is None:
            continue
        ops += 1
        if ops > dagger_budget:
            raise BudgetError(f"needed more than {dagger_budget} splits")
        built.update(picked)
        frontier.extend(picked)
    t_built = frozenset(built)
    if not is_splitting_tree(psi_s, t_built, hat=True):
        raise ProtocolError("greedy subtree fails its own splitting check")
    if dagger_subtree is not None:
        t_next = pullback_tree(psi_s, t_built, frozenset(dagger_subtree),
                               hat=True)
    else:
        t_next = t_built
    b_next = min(leaves(t_next), key=lenlex_key)
    return smc.DriverResult(b_next, t_next, "splitting-subtree")


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return (type(e).__name__, str(e))


def _random_refinement(rng, img):
    """A random two-branching subtree of img: each kept member keeps
    both its successors or neither."""
    sub, todo = {""}, [""]
    while todo:
        x = todo.pop()
        succ = successors(img, x)
        if len(succ) == 2 and (not x or rng.random() < 0.75):
            sub.update(succ)
            todo.extend(succ)
    return frozenset(sub)


def _driver_cases():
    """(state, psi, budget, dagger) for the driver: the benchmark's
    readback stages, the suite's smc-driver draws, and random tables,
    bases, budgets and readback trees."""
    rng = random.Random(2024)
    for k in range(24):
        # readback stages on oracles of length 4 and 5, refined through
        # a random two-branching subtree of the image; every third one
        # on a budget that may run out
        a = "".join(rng.choice("01") for _ in range(rng.choice((4, 5))))
        t, psi = oplus_tree(a), odd_readback_psi(a)
        yield ("", t), psi, rng.randint(4, 16) if k % 3 == 2 else 64, \
            _random_refinement(rng, image_tree(psi, t, hat=True))
    for _ in range(30):
        # the smc-driver check's draws
        a = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        t = oplus_tree(a)
        psi = FunctionalTable(tuple((m, len(m) // 2 - 1, rng.getrandbits(1), 1)
                                    for m in sort_lenlex(t) if m))
        yield ("", t), psi, 64, None
    for _ in range(60):
        a = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        t = oplus_tree(a)
        if rng.random() < 0.1:
            t = t | {rng.choice(sorted(t)) + "0"}  # may break two-branching
        psi = random_functional_table(rng, axioms=rng.randint(5, 40),
                                      max_sigma_len=2 * len(a),
                                      max_value=rng.choice((1, 3)),
                                      max_steps=rng.choice((1, 3)))
        base = rng.choice(sorted(t) + ["0", "11"])
        dagger = rng.choice((None, None, frozenset({"", "0", "1"}),
                             frozenset({"", "1"}),
                             frozenset({"", "00", "01", "1"})))
        yield (base, t), psi, rng.randint(0, 8), dagger
    for _ in range(40):
        # uneven two-branching trees, whose successors may differ in
        # length, with a table that outputs the branch word, some
        # values flipped
        t, todo, axioms = {""}, [("", 0)], []
        while todo:
            x, level = todo.pop()
            if level >= 3 or (x and rng.random() < 0.3):
                continue
            for bit in "01":
                y = x + bit + "".join(rng.choice("01")
                                      for _ in range(rng.randint(0, 3)))
                t.add(y)
                todo.append((y, level + 1))
                axioms.append((y, level, int(bit) ^ (rng.random() < 0.1),
                               rng.randint(1, 2)))
        psi = FunctionalTable(tuple(axioms))
        t = frozenset(t)
        try:
            img = image_tree(psi, t, hat=True)
        except ShapeError:
            img = None
        dagger = (_random_refinement(rng, img)
                  if img is not None and rng.random() < 0.5 else None)
        yield (rng.choice(sorted(t)), t), psi, 64, dagger
    for _ in range(30):
        # tables that read the last bit of the leaves, and perhaps of the
        # members of one more length, only, so that the first member with
        # a splitting partner sits deep above the base, after many
        # members with none
        a = "".join(rng.choice("01") for _ in range(rng.randint(2, 5)))
        t = oplus_tree(a)
        deep = sorted({len(a), rng.randint(1, len(a))})
        psi = FunctionalTable(tuple(
            (m, n, int(m[-1]), 1)
            for n, d in enumerate(deep) for m in t if len(m) == 2 * d))
        yield (rng.choice(("", rng.choice(sorted(t)))), t), psi, 64, None
    for n in (6, 7):
        # oplus trees of 6- and 7-bit oracles, under the odd-bit readback
        # and under random bits, each with and without a refinement, on
        # a budget one below the splits the naive greedy makes and on
        # exactly that many
        a = "".join(rng.choice("01") for _ in range(n))
        t = oplus_tree(a)
        for psi in (odd_readback_psi(a), _leaf_split_table(rng, t),
                    _leaf_split_table(rng, t, delay=0.3)):
            built = _naive_smc_driver_stage(("", t), psi, len(t)).t_next
            img = image_tree(psi, built, hat=True)
            for dagger in (None, _random_refinement(rng, img)):
                for budget in (len(built) // 2 - 1, len(built) // 2):
                    yield ("", t), psi, budget, dagger


def _leaf_split_table(rng, t, delay=0.0):
    """Random bits, each at its member's level, with the two leaves of
    every parent told apart: something splits above every inner member,
    and a split skips the levels whose two values agree.  With a delay,
    that share of the members two levels or more above the leaves hand
    their axiom to their successors, so that outputs grow unevenly and
    the length-lex first member with an output of some length need not
    be the lex first."""
    mems = sort_lenlex(m for m in t if m)
    depth = len(mems[-1])
    flip = {m[:-1]: rng.getrandbits(1) for m in mems if len(m) == depth}
    axioms = []
    for m in mems:
        value = (int(m[-1]) ^ flip[m[:-1]] if len(m) == depth
                 else rng.getrandbits(1))
        late = len(m) <= depth - 4 and rng.random() < delay
        axioms += [(s, len(m) // 2 - 1, value, 1)
                   for s in (successors(t, m) if late else (m,))]
    return FunctionalTable(tuple(axioms))


def test_driver_stage_matches_naive_stage():
    seen = set()
    for state, psi, budget, dagger in _driver_cases():
        got = _outcome(smc_driver_stage, state, psi, budget, dagger)
        assert got == _outcome(_naive_smc_driver_stage, state, psi, budget,
                               dagger)
        seen.add(got[1].branch if got[0] == "ok" else got[0])
    assert seen == {"splitting-subtree", "no-splittings", "BudgetError",
                    "MemberError", "ShapeError"}


def test_driver_stage_computes_each_output_once(monkeypatch):
    calls = []
    real = functionals.output_prefix

    def counted(f, tau, hat=False):
        calls.append(tau)
        return real(f, tau, hat=hat)

    monkeypatch.setattr(functionals, "output_prefix", counted)
    stages = 0
    for (base, t), psi, budget, dagger in _driver_cases():
        calls.clear()
        if _outcome(smc_driver_stage, (base, t), psi, budget,
                    dagger)[0] != "ok":
            continue
        stages += 1
        assert len(calls) == len(set(calls))
        assert set(calls) <= set(t)
    assert stages > 50


def test_driver_stage_lists_and_sorts_the_members_once(monkeypatch):
    # the members above the base are listed and sorted at most once,
    # not once for each member the stage looks at
    calls = []
    real = smc.sort_lenlex
    monkeypatch.setattr(smc, "sort_lenlex",
                        lambda *args: calls.append(args) or real(*args))
    stages = 0
    for state, psi, budget, dagger in _driver_cases():
        calls.clear()
        stages += _outcome(smc_driver_stage, state, psi, budget,
                           dagger)[0] == "ok"
        assert len(calls) <= 1
    assert stages > 50


def test_driver_stage_reads_each_image_string_once(monkeypatch):
    # the pullback computes each member's image once, for the image
    # tree and for the filter alike
    calls = []
    real = functionals.bits_of_values
    monkeypatch.setattr(functionals, "bits_of_values",
                        lambda vals: calls.append(vals) or real(vals))
    refined = 0
    for state, psi, budget, dagger in _driver_cases():
        got = _outcome(smc_driver_stage, state, psi, budget, dagger)
        if (dagger is None or got[0] != "ok"
                or got[1].branch != "splitting-subtree"):
            continue
        calls.clear()
        built = smc_driver_stage(state, psi, budget).t_next
        assert calls == []
        smc_driver_stage(state, psi, budget, dagger)
        assert len(calls) == len(built)
        refined += 1
    assert refined > 10


def test_driver_stage_split_tests_stay_linear(monkeypatch):
    # the 13-bit odd-readback stage splits all 8,191 inner members of
    # its 16,383, testing two pairs per inner member: a and its sibling
    # on the walk to b, and again in the final check; a scan of the
    # members above each one would test about 13 pairs per member
    calls = []
    real = functionals.outputs_split
    counted = lambda a_out, b_out: calls.append(1) or real(a_out, b_out)
    monkeypatch.setattr(functionals, "outputs_split", counted)
    monkeypatch.setattr(smc, "outputs_split", counted)
    a = "10" * 6 + "1"
    t = oplus_tree(a)
    res = smc_driver_stage(("", t), odd_readback_psi(a), 8191)
    assert res.t_next == t
    assert len(calls) <= len(t)


def test_driver_stage_checks_its_greedy_subtree_once(monkeypatch):
    # the image step checks a refined subtree for splitting, and the
    # stage adds no check of its own: driver_violation judges the rest
    calls = []
    real = functionals._splitting_violation

    def counted(t, outs, delayed=False):
        calls.append(t)
        return real(t, outs, delayed)

    monkeypatch.setattr(functionals, "_splitting_violation", counted)
    refined = plain = 0
    for state, psi, budget, dagger in _driver_cases():
        calls.clear()
        got = _outcome(smc_driver_stage, state, psi, budget, dagger)
        if got[0] != "ok" or got[1].branch != "splitting-subtree":
            continue
        assert len(calls) == (dagger is not None)
        refined += dagger is not None
        plain += dagger is None
    assert refined > 10 and plain > 10


def test_a_greedy_subtree_that_does_not_split_is_caught(monkeypatch):
    # a greedy trusting every pair to split grows a subtree that does
    # not: the image step refuses it when there is a refinement, and
    # the driver's verifier names it when there is none
    monkeypatch.setattr(smc, "outputs_split", lambda a_out, b_out: True)
    t = oplus_tree("010")
    psi = FunctionalTable(tuple(
        (m, len(m) // 2 - 1, int(v), 1)
        for m, v in zip(sort_lenlex(t)[1:], "11000101101001")))
    res = smc_driver_stage(("", t), psi, 64)
    assert res.branch == "splitting-subtree"
    assert smc.driver_violation(psi, t, res) == "subtree does not split"
    with pytest.raises(ShapeError, match="input tree is not a splitting"):
        smc_driver_stage(("", t), psi, 64, frozenset({"", "0", "1"}))


# Failures found by walking a set name the length-lex first offender, so
# the message depends neither on the hash seed nor on the order the set
# was built in.  The empty string always hashes to 0 and is iterated
# first, so each input has only non-root offenders.

_FULL2 = ["", "0", "1", "00", "01", "10", "11"]


def _offender_messages(tree_of):
    """The error messages of the three walks, with every tree built by
    tree_of from a member list."""
    out = []
    # plain outputs differ from the guarded ones at every non-root member
    f = FunctionalTable((("0", 0, 0, 5), ("1", 0, 1, 5)))
    out.append(_error(image_tree, f, tree_of(_FULL2)))
    # only the length-3 strings are valued 1: eight level-0 members
    phi = FunctionalTable(tuple(
        ("", string_to_nat("".join(bits)), int(n == 3), 1)
        for n in range(4) for bits in product("01", repeat=n)))
    out.append(_error(t_of, phi, "0"))
    # a code only for the root, then right codes but no prefix admitted
    ctx = OmegaContext(FunctionalTable(()), (0, 1))
    st = StagedTree(tuple(tree_of(_FULL2[:k]) for k in (1, 3, 7)))
    out.append(_error(build_tprime, ctx, st, {"": frozenset({"0", "1"})}))
    codes = {m: frozenset(successors(st.final, m)) for m in st.final}
    out.append(_error(build_tprime, ctx, st, codes))
    return out


def _error(fn, *args):
    with pytest.raises(ShapeError) as e:
        fn(*args)
    return str(e.value)


_FIRST_OFFENDERS = [
    "table is not its own guarded restriction at '0'",
    "level-0 member 000 of the tree at 0 is not the empty string",
    "successor code for 0 does not match the enumeration",
    "0 was never admitted by the ambient enumeration"]


def test_walks_name_the_length_lex_first_offender_in_any_build_order():
    assert _offender_messages(Tree) == _FIRST_OFFENDERS
    assert _offender_messages(
        lambda ms: frozenset(reversed(ms))) == _FIRST_OFFENDERS


def test_walks_name_the_same_offender_under_any_hash_seed():
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_smc import Tree, _offender_messages\n"
            "print(_offender_messages(Tree))\n")
    src = os.path.dirname(os.path.dirname(branchlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        outs.add(subprocess.run(
            [sys.executable, "-c", code, os.path.dirname(__file__)],
            env=env, capture_output=True, text=True, check=True).stdout)
    assert outs == {f"{_FIRST_OFFENDERS}\n"}


# -- the verifiers ---------------------------------------------------------

def test_selection_verifier_names_a_compatible_pick_pair():
    ctx = staged_context({"": 0, "1": 2, "10": 4, "11": 4})
    nodes = [("10", 1), ("11", 1)]
    res = select_extensions(ctx, "1", nodes, "00")
    assert smc.selection_violation(ctx, nodes, "00", res) is None
    spoiled = dataclasses.replace(
        res, sigma_pairs={0: ("0000", "0001"), 1: ("0010", "000")})
    assert smc.selection_violation(ctx, nodes, "00", spoiled) \
        == "picks 0000,000 compatible"


def _pairwise_selection_violation(ctx, nodes, sigma, res):
    """selection_violation with its pick check done by the pairwise
    scan it replaced, kept as an oracle; past that check it defers."""
    picks = [s for pair in res.sigma_pairs.values() for s in pair]
    if set(res.sigma_pairs) != set(range(len(nodes))):
        return "member indices off"
    if len(set(picks)) != 2 * len(nodes):
        return "duplicate pick"
    for a, b in combinations(picks, 2):
        if compatible(a, b):
            return f"picks {show_string(a)},{show_string(b)} compatible"
    return smc.selection_violation(ctx, nodes, sigma, res)


def test_selection_verifier_matches_the_pairwise_scan():
    # half the selections get one pick swapped for a prefix or an
    # extension of another pick, which makes a compatible pair
    rng = random.Random(20261020)
    verdicts = {}
    for _ in range(60):
        ctx, tau, nodes, sigma = random_selection_scenario(rng)
        res = select_extensions(ctx, tau, nodes, sigma)
        if rng.random() < 0.5:
            picks = [list(pair) for _, pair in sorted(res.sigma_pairs.items())]
            flat = [(i, j) for i in range(len(picks)) for j in (0, 1)]
            (i, j), (k, m) = rng.sample(flat, 2)
            other = picks[k][m]
            picks[i][j] = (other[:rng.randrange(len(other))] if rng.random()
                           < 0.5 else other + rng.choice("01"))
            res = dataclasses.replace(res, sigma_pairs={
                i: tuple(pair) for i, pair in enumerate(picks)})
        got = smc.selection_violation(ctx, nodes, sigma, res)
        assert got == _pairwise_selection_violation(ctx, nodes, sigma, res)
        key = "clean" if got is None else got.split()[-1]
        verdicts[key] = verdicts.get(key, 0) + 1
    assert verdicts["clean"] >= 10 and verdicts["compatible"] >= 10, verdicts


def test_readback_verifier_names_nested_codes_for_one_target():
    ctx, st, succ = chain_setup()
    tp, theta = build_tprime(ctx, st, succ)
    assert smc.readback_violation(st.final, tp, theta) is None
    nested = ThetaAxioms({**theta.axioms, "000": "1"})
    assert smc.readback_violation(st.final, tp, nested) \
        == "codes for 1 not prefix-free"


def _pairwise_readback_violation(final, tp, theta):
    """readback_violation with its per-target check done by the
    pairwise scan it replaced, kept as an oracle; past that check it
    defers."""
    by_target = {}
    for src, tgt in theta.axioms.items():
        by_target.setdefault(tgt, []).append(src)
    for tgt, srcs in by_target.items():
        if any(compatible(a, b) for a, b in combinations(sorted(srcs), 2)):
            return f"codes for {show_string(tgt)} not prefix-free"
    return smc.readback_violation(final, tp, theta)


def test_readback_verifier_matches_the_pairwise_scan():
    # half the readbacks get one more code for some source's target:
    # an extension of that source, which nests the codes, or a string
    # off its path, which may not
    rng = random.Random(20261021)
    verdicts = {}
    for _ in range(40):
        ctx, st, succ = random_pi_staging(rng)
        tp, theta = build_tprime(ctx, st, succ)
        if theta.axioms and rng.random() < 0.5:
            src = rng.choice(sorted(theta.axioms))
            extra = (src + rng.choice(("0", "1", "01")) if rng.random() < 0.7
                     else "".join(rng.choice("01") for _ in range(len(src))))
            try:
                theta = ThetaAxioms({extra: theta.axioms[src],
                                     **theta.axioms})
            except ShapeError:
                pass  # the new code disagrees with a source along its path
        got = smc.readback_violation(st.final, tp, theta)
        assert got == _pairwise_readback_violation(st.final, tp, theta)
        key = "clean" if got is None else got.split()[-1]
        verdicts[key] = verdicts.get(key, 0) + 1
    assert verdicts["clean"] >= 10 and verdicts["prefix-free"] >= 5, verdicts


def test_pi6_gaps_name_a_member_short_of_its_prefixs_level_by_two():
    ctx = staged_context({"": 0, "1": 2, "11": 4, "111": 6})
    assert smc.pi6_gaps(ctx, frozenset({"", "1", "11", "111"})) == []
    # 10 certifies level 2, the level of its prefix 1
    assert smc.pi6_gaps(ctx, frozenset({"", "1", "10"})) == ["10"]


def test_driver_verifier_passes_the_driver_and_names_each_spoil():
    t = oplus_tree("10")
    psi = odd_readback_psi("10")
    dagger = Tree({"", "0", "1"})
    refined = smc_driver_stage(("", t), psi, 3, dagger)
    assert smc.driver_violation(psi, t, refined, dagger) is None
    plain = smc_driver_stage(("", t), psi, 3)
    assert smc.driver_violation(psi, t, plain) is None
    witness = smc_driver_stage(("", t), constant_psi("10"), 3)
    assert witness.branch == "no-splittings"
    assert smc.driver_violation(constant_psi("10"), t, witness) is None
    # the unrefined subtree's image is the full tree of depth 2
    assert smc.driver_violation(psi, t, plain, dagger) \
        == "image misses the refinement"
    outside = plain._replace(t_next=Tree(plain.t_next | {"00"}))
    assert smc.driver_violation(psi, t, outside) == "stage left the tree"
    lopsided = plain._replace(t_next=Tree({"", "10"}), b_next="10")
    assert smc.driver_violation(psi, t, lopsided) \
        == "subtree: '' has 1 successors"
    assert smc.driver_violation(constant_psi("10"), t, plain) \
        == "subtree does not split"
