import random
from collections import Counter

import pytest

from branchlab import colorings, cupping, functionals, trees
from branchlab.colorings import GRADED_SHAPE, Coloring, extract_nice, ncol
from branchlab.cupping import (EMPTY_BUNDLE, PiStarNode,
                               ROOT_NODE, ancestor_chain, bundle,
                               count_extension_trees,
                               enumerate_extension_trees, extension_rank,
                               find_pi_member, full_graded_tree, gamma_code,
                               gamma_decode, gamma_split, materialize_pi_star,
                               pi_membership_violation, pi_star_successors,
                               realize, _rank_colours)
from branchlab.errors import (BudgetError, ConsistencyError, ProtocolError,
                              ShapeError)
from branchlab.functionals import FunctionalTable, hat_eval
from branchlab.gen import random_functional_table, random_kappa_tree
from branchlab.strings import compatible, lenlex_key, show_string
from branchlab.trees import _index, leaves, restrict_to_level
from helpers import index_items, table, unkept


def test_gamma_code_values():
    assert [gamma_code(j) for j in range(5)] == \
        ["1", "010", "011", "00100", "00101"]


def test_gamma_roundtrip_and_order():
    codes = [gamma_code(j) for j in range(200)]
    assert codes == sorted(codes, key=lenlex_key)
    for j, cd in enumerate(codes):
        assert gamma_split(cd) == (j, "")
    assert gamma_decode(gamma_code(3) + gamma_code(0) + gamma_code(17)) == \
        (3, 0, 17)


def test_gamma_split_rejects_garbage():
    with pytest.raises(ShapeError):
        gamma_split("00")
    assert gamma_split("0100") == (1, "0")
    with pytest.raises(ShapeError):
        gamma_decode("0100")  # the leftover lone zero is not a label


def test_root_successor_count():
    succ = pi_star_successors(ROOT_NODE)
    assert len(succ) == 12
    assert succ[0].t_tau == frozenset(["", "00", "01"])
    assert succ[0].psi_values == (0,)
    assert succ[1].psi_values == (1,)
    assert succ[1].t_tau == frozenset(["", "00", "01"])
    assert succ[2].t_tau == frozenset(["", "00", "10"])
    # labels are in length-lex order and pairwise incompatible
    labels = [nd.tau for nd in succ]
    assert labels == sorted(labels, key=lenlex_key)
    for a in labels:
        for b in labels:
            if a != b:
                assert not (b.startswith(a) or a.startswith(b))


def test_level_one_successor_count():
    node = pi_star_successors(ROOT_NODE)[0]
    assert count_extension_trees(node.t_tau) == 784
    succ = pi_star_successors(node)
    assert len(succ) == 3136


def test_successor_budget(monkeypatch):
    node = pi_star_successors(ROOT_NODE)[0]
    monkeypatch.setattr(cupping, "MAX_SUCCESSORS", 3136)
    assert len(pi_star_successors(node)) == 3136
    monkeypatch.setattr(cupping, "MAX_SUCCESSORS", 3135)
    with pytest.raises(BudgetError):
        pi_star_successors(node)


def test_node_validation():
    with pytest.raises(ShapeError):
        PiStarNode("1", 1, frozenset(["", "00"]), (0,))
    with pytest.raises(ShapeError):
        PiStarNode("1", 1, frozenset(["", "00", "01"]), (2,))
    with pytest.raises(ShapeError):
        PiStarNode("0", 1, frozenset(["", "00", "01"]), (0,))


def test_extension_rank_matches_enumeration():
    for t in (frozenset([""]), frozenset(["", "00", "11"])):
        for pos, grown in enumerate(enumerate_extension_trees(t)):
            assert extension_rank(t, grown) == pos


def test_realize_matches_successors():
    for node in pi_star_successors(ROOT_NODE):
        again = realize(1, node.psi_values, node.t_tau)
        assert again == node


def test_realize_level_two_roundtrip():
    rng = random.Random(3)
    lvl1 = list(pi_star_successors(ROOT_NODE))
    for _ in range(10):
        node = rng.choice(lvl1)
        succ = pi_star_successors(node)
        pick = rng.choice(succ)
        assert realize(2, pick.psi_values, pick.t_tau) == pick


def test_realize_root_and_bad_colour():
    assert realize(0, [], [""]) == ROOT_NODE
    least = frozenset(["", "00", "01"])
    with pytest.raises(ShapeError):
        realize(1, [2], least)
    node = realize(1, [1], least)
    assert node.tau == gamma_code(1)


def test_a_bundle_is_the_tuple_of_its_tables():
    ts = [table([("0", 0, 1, 1)]), table([("", 1, 0, 2)])]
    assert bundle(ts) == tuple(ts)
    assert bundle(iter(ts)) == tuple(ts)
    assert EMPTY_BUNDLE == () == bundle([])


def test_stage_filter_examples():
    node = pi_star_successors(ROOT_NODE)[1]  # colours (1,)
    assert _naive_stage_filter(node, EMPTY_BUNDLE, 1)
    hitting = bundle([table([("0", 0, 1, 1)])])
    assert not _naive_stage_filter(node, hitting, 1)
    # out-of-range value is treated as non-convergent
    big = bundle([table([("0", 0, 5, 1)])])
    assert _naive_stage_filter(node, big, 1)
    # same table cannot pin the other colour
    other = pi_star_successors(ROOT_NODE)[0]
    assert _naive_stage_filter(other, hitting, 1)


def test_find_level0_and_level1_empty():
    assert find_pi_member(0, EMPTY_BUNDLE) == ROOT_NODE
    node = find_pi_member(1, EMPTY_BUNDLE)
    assert node.psi_values == (0,)
    assert node.t_tau == frozenset(["", "00", "01"])


def test_find_level1_forced_colour():
    # every length-2 oracle string computes 0 at argument 0
    axs = [(s, 0, 0, 1) for s in ("00", "01", "10", "11")]
    node = find_pi_member(1, bundle([table(axs)]))
    assert node.psi_values == (1,)
    assert pi_membership_violation(node, bundle([table(axs)])) is None


def test_find_matches_exhaustive_survivors():
    rng = random.Random(11)
    strings = ["", "0", "1", "00", "01", "10", "11"]
    for _ in range(30):
        axs = []
        for _ in range(rng.randrange(6)):
            sigma = rng.choice(strings)
            axs.append((sigma, 0, rng.randrange(3), rng.randrange(1, 3)))
        try:
            adv = bundle([table(axs)])
        except ConsistencyError:
            continue  # inconsistent draw; irrelevant here
        survivors = _naive_survivors(1, adv)
        assert survivors, "level 1 always has survivors"
        node = find_pi_member(1, adv)
        assert node in survivors


def test_materialize_counts():
    assert len(materialize_pi_star(0)) == 1
    assert len(materialize_pi_star(1)) == 12


def _random_bundle(rng, n):
    """n tables, the i-th with a few axioms at each argument up to i,
    so that its guarded values at i can be defined, whose values run a
    little past ncol of their argument; an axiom that would clash with
    an earlier one is left out."""
    tables = []
    for i in range(n):
        axs = []
        for arg in range(i + 1):
            for _ in range(rng.randrange(8)):
                k = rng.randrange(1, 6)
                sigma = "".join(rng.choice("01") for _ in range(k))
                value = rng.randrange(ncol(arg) + 2)
                if not any(a == arg and v != value and compatible(s, sigma)
                           for s, a, v, _ in axs):
                    axs.append((sigma, arg, value, rng.randrange(1, 4)))
        tables.append(table(axs))
    return bundle(tables)


def test_random_bundles_colour_every_index():
    # a guarded value at i needs the value at i - 1 on the parent string,
    # which axioms at argument i alone never give
    rng = random.Random(19)
    leaf_strings = _index(full_graded_tree(3)).levels[3]
    coloured = Counter()
    for _ in range(20):
        adv = _random_bundle(rng, 3)
        for i in range(3):
            coloured[i] += sum(v is not None and v < ncol(i)
                               for v in (hat_eval(adv[i], lf, i)
                                         for lf in leaf_strings))
    assert all(coloured[i] for i in range(3)), coloured


def test_find_level2_and_3_with_random_bundles():
    rng = random.Random(23)
    for n in (2, 3):
        for _ in range(5):
            adv = _random_bundle(rng, n)
            node = find_pi_member(n, adv)
            assert node.level == n
            assert pi_membership_violation(node, adv) is None


def test_ancestor_chain_shape():
    node = find_pi_member(2, EMPTY_BUNDLE)
    chain = ancestor_chain(node)
    assert [a.level for a in chain] == [0, 1, 2]
    assert chain[0] == ROOT_NODE
    assert chain[-1] == node
    for a in chain:
        assert a.t_tau == restrict_to_level(node.t_tau, a.level)
        assert node.tau.startswith(a.tau)


def test_requirement_satisfaction_blocking_bundle():
    # adversary votes one colour on every leaf at index 0 and 1; the
    # second table also defines argument 0 so its guarded values land
    t = full_graded_tree(2)
    lvl2 = [s for s in t if len(s) == 5]
    tabs = [table([(s, 0, 0, 1) for s in ("00", "01", "10", "11")]),
            table([(s, 0, 0, 1) for s in ("00", "01", "10", "11")]
                  + [(s, 1, 3, 1) for s in lvl2])]
    adv = bundle(tabs)
    node = find_pi_member(2, adv)
    assert node.psi_values[0] != 0
    assert node.psi_values[1] != 3
    assert pi_membership_violation(node, adv) is None


# The per-level realize calls that the shared level walk replaced, with
# realize's old ranking loop, kept as oracles.

def _naive_realize(n, f, t):
    tau = ""
    for k in range(n):
        below = restrict_to_level(t, k)
        grown = restrict_to_level(t, k + 1)
        tau += gamma_code(ncol(k) * extension_rank(below, grown) + f[k])
    return PiStarNode(tau, n, t, tuple(f))


def _naive_ancestor_chain(node):
    return tuple(_naive_realize(k, node.psi_values[:k],
                                restrict_to_level(node.t_tau, k))
                 for k in range(node.level + 1))


def test_ancestor_chain_matches_per_level_realize():
    rng = random.Random(31)
    level1 = pi_star_successors(ROOT_NODE)
    nodes = [ROOT_NODE, *level1]
    for parent in rng.sample(level1, 4):
        nodes += rng.sample(pi_star_successors(parent), 25)
    for n in range(4):
        nodes += [find_pi_member(n, _random_bundle(rng, n)) for _ in range(6)]
    for node in nodes:
        chain = ancestor_chain(node)
        assert chain == _naive_ancestor_chain(node)
        assert realize(node.level, node.psi_values, node.t_tau) == \
            _naive_realize(node.level, node.psi_values, node.t_tau)
    assert {node.level for node in nodes} == {0, 1, 2, 3}


def test_ancestor_chain_builds_each_restriction_once(monkeypatch):
    calls = []
    real = cupping.restrict_to_level
    monkeypatch.setattr(cupping, "restrict_to_level",
                        lambda t, k: calls.append(k) or real(t, k))
    node = find_pi_member(3, EMPTY_BUNDLE)
    calls.clear()
    ancestor_chain(node)
    assert sorted(calls) == [0, 1, 2]


def test_leaf_colouring_memo_stays_within_the_horizon(monkeypatch):
    # guarded values at arguments 0-2 from the first two bits: horizon 2
    tab = table([(s, k, (int(s, 2) + k) % ncol(k), 1)
                 for k in range(3) for s in ("00", "01", "10", "11")])
    assert tab._horizon == 2
    calls, given = [], []
    real = functionals.hat_eval
    monkeypatch.setattr(functionals, "hat_eval",
                        lambda f, tau, n: calls.append((tau, n))
                        or real(f, tau, n))
    real_values = cupping.hat_values
    monkeypatch.setattr(cupping, "hat_values",
                        lambda f, strings, n: given.append(strings)
                        or real_values(f, strings, n))
    rng = random.Random(37)
    memo = tab._hat_values
    # the shallowest levels whose 2-, 5- and 5-bit members fix the cut
    # prefixes of 2, 3 and 4 bits, on the full tree and on thinned ones
    for i, k in enumerate((1, 2, 2)):
        t = full_graded_tree(3) if i == 0 else random_kappa_tree(rng, i, 3)
        lm = _index(t).levels
        calls.clear()
        given.clear()
        assert _rank_colours(bundle([tab] * 3), i, t) == \
            [(int(lf[:2], 2) + i) % ncol(i) for lf in lm[3]]
        assert given == [lm[k]]
        # one guarded value per distinct cut prefix of the leaves, which
        # share those of the level-k members above them; the table keeps
        # them, and the values below i from the earlier colourings
        asked = [tau for tau, n in calls if n == i]
        assert sorted(asked) == sorted({lf[:tab._horizon + i]
                                        for lf in lm[3]})
        assert max(len(x) for x, _ in memo) == tab._horizon + i
        assert {x for x, n in memo if n == i} == set(asked)


# The stage filter, the leaf colouring and the membership check as they
# were before the one-pass chain check and the grouped guarded values,
# kept as oracles: every ancestor is built and filtered, and every
# string gets its own hat_eval call.

def _naive_stage_filter(node, adv, s):
    if node.level != s:
        raise ShapeError("stage must equal the node level")
    for i in range(min(s, len(adv))):
        tab, cols, want = adv[i], ncol(i), node.psi_values[i]
        for sigma in node.t_tau:
            v = hat_eval(tab, sigma, i)
            if v is not None and v < cols and v == want:
                return False
    return True


def _naive_survivors(n, adv):
    """Level-n nodes passing the stage filter at every level so far:
    the frontier walk of the definition, filtered at each stage."""
    frontier = [ROOT_NODE]
    for s in range(n):
        frontier = [child for node in frontier
                    if _naive_stage_filter(node, adv, s)
                    for child in pi_star_successors(node)]
    return [node for node in frontier if _naive_stage_filter(node, adv, n)]


def _naive_adversary_coloring(adv, i, leaf_strings):
    assignment = {}
    cols = ncol(i)
    if i < len(adv):
        for lf in leaf_strings:
            v = hat_eval(adv[i], lf, i)
            if v is not None and v < cols:
                assignment[lf] = v
    return Coloring(assignment, cols)


def _naive_pi_membership_violation(node, adv):
    for anc in _naive_ancestor_chain(node):
        if not _naive_stage_filter(anc, adv, anc.level):
            return (f"stage {anc.level} filter rejects "
                    f"{show_string(anc.tau)}")
    return None


def _membership_cases(rng):
    """Nodes of levels 0 to 3 with the bundles to check them against:
    successors of small nodes, which non-empty bundles often reject at
    some stage, and witnesses found against other bundles.  Each node
    of level n >= 1 also meets a crafted bundle whose table n - 1 hits
    from level 1 on, which first rejects it at stage n."""
    level1 = pi_star_successors(ROOT_NODE)
    nodes = [ROOT_NODE, *level1]
    for parent in rng.sample(level1, 3):
        nodes += rng.sample(pi_star_successors(parent), 20)
    for n in range(4):
        nodes += [find_pi_member(n, _random_bundle(rng, n)) for _ in range(4)]
    for node in nodes:
        for _ in range(3):
            yield node, _random_bundle(rng, rng.randint(0, 4))
        if node.level:
            yield node, _crafted(node, rng.randrange(node.level),
                                 rng.randint(1, node.level))
            yield node, _crafted(node, node.level - 1, 1)


def _crafted(node, i, j):
    """A bundle whose table i returns colour i of the node on its tree
    members of level j >= 1, guarded by constant axioms at the smaller
    arguments, and whose other tables are empty: where the guard lets
    those values through, it rejects the node's ancestors from level
    max(i + 1, j) up."""
    hits = _index(node.t_tau).levels[j]
    tab = table([("", a, 0, 1) for a in range(i)]
                + [(m, i, node.psi_values[i], 1) for m in hits])
    return bundle([table([])] * i + [tab])


def test_membership_check_matches_the_ancestor_chain_filters():
    rng = random.Random(41)
    seen = Counter()
    for node, adv in _membership_cases(rng):
        got = pi_membership_violation(node, adv)
        assert got == _naive_pi_membership_violation(node, adv)
        # a rejected ancestor's hit lies in the node's tree too, so the
        # node's own filter passes exactly when its whole chain does
        assert _naive_stage_filter(node, adv, node.level) == (got is None)
        seen[node.level, got is None] += 1
        if got is not None:
            seen["stage", int(got.split()[1])] += 1
    # every level passes and fails, and failures name stages 1 to 3
    assert all(seen[n, ok] for n in range(1, 4) for ok in (True, False)), seen
    assert all(seen["stage", k] for k in (1, 2, 3)), seen


def test_a_second_membership_check_reads_the_kept_values(monkeypatch):
    # each table keeps the guarded values the first check computed
    rng = random.Random(53)
    cases = list(_membership_cases(rng))[::5]
    calls = []
    real = functionals.effective_axiom
    monkeypatch.setattr(functionals, "effective_axiom",
                        lambda *args: calls.append(args) or real(*args))
    asked = 0
    for node, adv in cases:
        calls.clear()
        got = pi_membership_violation(node, adv)
        asked += len(calls)
        calls.clear()
        assert pi_membership_violation(node, adv) == got
        assert calls == []
    assert asked > 100


def _wide_bundle(rng, size):
    """size tables from the generator, empty ones among them, whose
    horizons run from 0 to 12 and whose values often land in range."""
    return bundle(
        random_functional_table(rng, axioms=rng.choice((0, 5, 40)),
                                max_sigma_len=rng.randint(0, 12),
                                max_value=rng.choice((1, 3, 9)),
                                max_steps=rng.randint(1, 11))
        for _ in range(size))


def _fresh(adv):
    """An equal bundle whose tables keep no guarded values yet."""
    return bundle(unkept(tab) for tab in adv)


def _naive_rank_colours(adv, i, t):
    """The per-leaf colouring of t's top level, in rank order."""
    c = _naive_adversary_coloring(_fresh(adv), i, leaves(t))
    return [c.assignment.get(m, colorings._BLANK)
            for m in _index(t).levels[-1]]


def test_grouped_colouring_matches_per_leaf_colouring():
    rng = random.Random(43)
    full = full_graded_tree(3)
    # tables whose horizon lies one bit past a level length, so that
    # the level one bit short would miss their only axiom
    edges = [bundle([table([("0" * (length + 1), 0, 1, 1)])])
             for length in (2, 5)]
    for _ in range(80):
        adv = _random_bundle(rng, 3)
        wide = _wide_bundle(rng, 4)
        for i in range(5):
            # the full tree is kappa(0)-compatible; thinned trees of
            # each level carry the fans of index i
            thinned = [random_kappa_tree(rng, i, n) for n in range(4)]
            for t in [full] * (i == 0) + thinned:
                for bun in [adv, wide, *edges]:
                    assert _rank_colours(bun, i, t) == \
                        _naive_rank_colours(bun, i, t)


# The witness search as it was before it coloured each guarded prefix
# once at the level that fixes it, kept as an oracle: every leaf gets
# its own guarded value, and extract_nice takes them as a Coloring.

def _naive_find_pi_member(n, adv):
    t = full_graded_tree(n)
    ds = []
    for i in range(n):
        c = _naive_adversary_coloring(adv, i, leaves(t))
        d, t = extract_nice(GRADED_SHAPE, i, t, c)
        ds.append(d)
    node = realize(n, ds, t)
    bad = pi_membership_violation(node, adv)
    if bad is not None:
        raise ProtocolError(f"witness self-check failed: {bad}")
    return node


def _search_outcome(search, n, adv):
    try:
        node = search(n, adv)
    except (ValueError, ProtocolError) as e:
        return type(e), str(e)
    return node.tau, node.psi_values, node.t_tau


def test_witness_search_matches_the_per_leaf_search():
    rng = random.Random(67)
    seen = Counter()
    for _ in range(300):
        for n in range(4):
            adv = _wide_bundle(rng, rng.randint(0, n + 2))
            assert _search_outcome(find_pi_member, n, adv) == \
                _search_outcome(_naive_find_pi_member, n, _fresh(adv))
            seen["longer"] += len(adv) > n
            seen["empty"] += any(not tab.axioms for tab in adv[:n])
            for i, tab in enumerate(adv[:n]):
                seen["horizon", tab._horizon] += 1
                for k in range(1, n + 1):
                    cut = tab._horizon + i
                    length = GRADED_SHAPE.level_length(k)
                    seen[length, (cut > length) - (cut < length)] += 1
    assert seen["longer"] and seen["empty"], seen
    # steps are at least 1, so a table with an axiom has horizon >= 2
    assert all(seen["horizon", h] for h in [0, *range(2, 13)]), seen
    # the cut falls below, on and above each level length
    assert all(seen[length, s] for length in (2, 5, 9) for s in (-1, 0, 1)), \
        seen


def test_passing_membership_check_builds_no_index_and_no_node(monkeypatch):
    rng = random.Random(47)
    cases = [(find_pi_member(3, adv), adv)
             for adv in [EMPTY_BUNDLE] + [_random_bundle(rng, 3)
                                          for _ in range(5)]]
    builds, nodes = [], []
    real_build = trees._build_index
    monkeypatch.setattr(trees, "_build_index",
                        lambda t: builds.append(t) or real_build(t))
    real_init = PiStarNode.__post_init__
    monkeypatch.setattr(PiStarNode, "__post_init__",
                        lambda nd: nodes.append(nd) or real_init(nd))
    for node, adv in cases:
        assert pi_membership_violation(node, adv) is None
    assert builds == [] and nodes == []


def test_witness_search_builds_no_index_for_a_restriction(monkeypatch):
    # extract_nice hands each thinned tree its index, and realize and
    # both membership checks slice their restrictions from the node's
    _index(full_graded_tree(3))
    builds = []
    real_build = trees._build_index
    monkeypatch.setattr(trees, "_build_index",
                        lambda t: builds.append(len(t)) or real_build(t))
    rng = random.Random(53)
    for adv in [EMPTY_BUNDLE] + [_random_bundle(rng, 3) for _ in range(3)]:
        node = find_pi_member(3, adv)
        assert pi_membership_violation(node, adv) is None
    assert builds == []


def test_witness_search_checks_only_its_final_tree(monkeypatch):
    # from the first search on, which builds the full graded tree
    # anew: no thinned tree and no full graded tree, the final tree
    # alone, by realize and then by the node it builds
    full_graded_tree.cache_clear()
    checked = []
    real_check = cupping.is_compatible
    monkeypatch.setattr(cupping, "is_compatible",
                        lambda shape, sub, f: checked.append(sub)
                        or real_check(shape, sub, f))
    rng = random.Random(59)
    for adv in [EMPTY_BUNDLE] + [_random_bundle(rng, 3) for _ in range(3)]:
        checked.clear()
        node = find_pi_member(3, adv)
        assert len(checked) == 2
        assert all(t is node.t_tau for t in checked)
        assert len(node.t_tau) == 15


def test_thinned_trees_carry_the_index_a_fresh_build_gives(monkeypatch):
    thinned = []
    real_extract = cupping._extract_ranks

    def recording(*args):
        d, t = real_extract(*args)
        thinned.append(t)
        return d, t

    monkeypatch.setattr(cupping, "_extract_ranks", recording)
    rng = random.Random(61)
    for n in range(4):
        for adv in [EMPTY_BUNDLE] + [_random_bundle(rng, n)
                                     for _ in range(4)]:
            find_pi_member(n, adv)
    assert len(thinned) == 5 * (0 + 1 + 2 + 3)
    for t in thinned:
        assert index_items(t._idx) == index_items(trees._build_index(t))
