"""Certificates, enumeration, packing selection, cover trees, and the
finite-extension driver."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from branchlab import smc
from branchlab.errors import (BudgetError, MemberError, ProtocolError,
                              ShapeError)
from branchlab.functionals import FunctionalTable, is_splitting_tree
from branchlab.gen import (constant_psi, odd_readback_psi, phi_for_profile,
                           random_selection_scenario, staged_context)
from branchlab.smc import (OmegaContext, ThetaAxioms, build_tprime,
                           compute_majorant, enumerate_pi,
                           is_a_oplus_compatible, omega, omega_level,
                           oplus_tree, select_extensions, smc_driver_stage,
                           t_of, theta_decode)
from branchlab.strings import compatible, is_prefix, sort_lenlex
from branchlab.thin import is_thin, kraft_weight
from branchlab.trees import (StagedTree, branching_stats, leaves, level_of,
                             max_level, successors)


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
    def test_even_positions_copy_the_oracle(self):
        assert is_a_oplus_compatible("", "10")
        assert is_a_oplus_compatible("1100", "10")
        assert is_a_oplus_compatible("110", "10")
        assert not is_a_oplus_compatible("0", "10")
        assert not is_a_oplus_compatible("1110", "10")

    def test_too_long_for_the_oracle(self):
        with pytest.raises(MemberError):
            is_a_oplus_compatible("11000", "10")

    def test_interleave_tree(self):
        t = oplus_tree("10")
        assert t == frozenset({"", "10", "11", "1000", "1001", "1100",
                               "1101"})
        assert all(len(m) % 2 == 0 for m in t)
        assert branching_stats(t)[2] == max_level(t) == 2

    def test_interleave_tree_trivial_oracle(self):
        assert oplus_tree("") == frozenset({""})


class TestMajorant:
    def test_full_binary_doubles(self):
        phi = phi_for_profile({"": 4})
        assert compute_majorant(phi, "0", 3) == (0, 2, 4, 6)

    def test_sparse_tree(self):
        phi = phi_for_profile({"0": {"", "0", "10", "01"}})
        assert compute_majorant(phi, "0", 2) == (0, 3, 4)

    def test_depth_past_the_tree(self):
        phi = phi_for_profile({"": 2})
        with pytest.raises(ShapeError):
            compute_majorant(phi, "0", 5)

    def test_strictly_increasing(self):
        phi = phi_for_profile({"": 4})
        f = compute_majorant(phi, "1", 4)
        assert all(a < b for a, b in zip(f, f[1:]))


# -- certificates ------------------------------------------------------------

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

    def test_majorant_cuts_the_certificate(self):
        phi = phi_for_profile({"1": {"", "00", "111111"}})
        assert not omega(OmegaContext(phi, (0, 1, 2), ""), "1", 1)
        assert omega(OmegaContext(phi, (0, 6, 7), ""), "1", 1)

    def test_levels_beyond_the_majorant_never_certify(self):
        ctx = staged_context({"": 4}, f=(0, 1, 2))
        assert not omega(ctx, "0", 3)
        assert omega_level(ctx, "0") == 2


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
        ctx = staged_context({"": 0, "1": 2, "11": 4}, f=(0, 1, 2))
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
                assert kraft_weight(final, "", frozenset(fam)) <= 1


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


# The whole-tree scan that the selection's level lists replaced, kept as
# an oracle.

def _naive_level_members(t, level, bases):
    return sort_lenlex(x for x in t
                       if level_of(t, x) == level
                       and any(is_prefix(p, x) for p in bases))


def test_selection_level_members_match_naive_scan(monkeypatch):
    real = smc._level_members
    calls = []

    def checked(t, level, bases):
        got = real(t, level, bases)
        # the asked level, and one past the top
        for lv in (level, max_level(t) + 1):
            assert real(t, lv, bases) == _naive_level_members(t, lv, bases)
        calls.append(len(got))
        return got

    monkeypatch.setattr(smc, "_level_members", checked)
    rng = random.Random(20261018)
    for _ in range(40):
        select_extensions(*random_selection_scenario(rng))
    assert len(calls) > 100 and 0 < min(calls) < max(calls)


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
            assert branching_stats(tp[x])[2] == max_level(tp[x])

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
