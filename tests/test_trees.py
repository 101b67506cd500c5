import random

import pytest
from hypothesis import given, strategies as st

from branchlab import suite, trees
from branchlab.errors import MemberError, ShapeError
from branchlab.strings import (bits_of_values, is_proper_prefix,
                               nat_to_string, parse_string, show_string,
                               sort_lenlex, string_to_nat)
from branchlab.trees import (StagedTree, Tree, branching_stats,
                             graded_successor_counts, is_prefix_free, leaves, level_map, level_of,
                             max_level, restrict_to_level,
                             successors, tree_uniform_level)
from helpers import index_items, staged_ce_violation

FULL2 = frozenset(["", "0", "1", "00", "01", "10", "11"])

bitstrings = st.text(alphabet="01", max_size=6)


def test_level_of_root_and_depth():
    assert level_of(FULL2, "") == 0
    assert level_of(FULL2, "01") == 2


def test_level_counts_only_members():
    t = frozenset(["0", "01"])
    assert level_of(t, "01") == 1
    assert level_of(t, "0") == 0


def test_level_of_nonmember():
    with pytest.raises(MemberError):
        level_of(FULL2, "000")


def test_successors_skip_gaps():
    t = frozenset(["", "000", "001", "1"])
    assert successors(t, "") == ("1", "000", "001")
    assert leaves(t) == ("1", "000", "001")


def test_prefix_free():
    assert is_prefix_free(["00", "01", "1"])
    assert not is_prefix_free(["0", "01"])
    assert is_prefix_free([])


# The pairwise scan that lex-order neighbours replaced, kept as an oracle.

def _naive_is_prefix_free(strings):
    ss = sorted(set(strings), key=lambda s: (len(s), s))
    return not any(b.startswith(a)
                   for i, a in enumerate(ss) for b in ss[i + 1:])


def test_prefix_free_matches_the_pairwise_scan():
    # short strings, so that prefixes are common, with repeats and the
    # empty string
    rng = random.Random(4242)
    seen = {True: 0, False: 0}
    for _ in range(4000):
        strings = ["".join(rng.choice("01")
                           for _ in range(rng.randint(0, 5)))
                   for _ in range(rng.randint(0, 9))]
        want = _naive_is_prefix_free(strings)
        assert is_prefix_free(strings) == want, strings
        seen[want] += 1
    assert min(seen.values()) > 500


@given(st.lists(bitstrings, min_size=1, max_size=8))
def test_level_bounded_by_size(ss):
    t = frozenset(ss)
    for m in t:
        assert 0 <= level_of(t, m) < len(t)


# The whole-set scans that the tree index replaced, kept as oracles.

def _naive_level_of(t, tau):
    t = frozenset(t)
    if tau not in t:
        raise MemberError(f"{tau!r} not in tree")
    return sum(1 for m in t if is_proper_prefix(m, tau))


def _naive_successors(t, tau):
    t = frozenset(t)
    if tau not in t:
        raise MemberError(f"{tau!r} not in tree")
    above = [m for m in t if is_proper_prefix(tau, m)]
    succ = [m for m in above
            if not any(is_proper_prefix(o, m) for o in above)]
    return sort_lenlex(succ)


def _naive_leaves(t):
    t = frozenset(t)
    return sort_lenlex(m for m in t
                       if not any(is_proper_prefix(m, o) for o in t))


def _naive_level_map(t):
    t = frozenset(t)
    out = {}
    for m in t:
        out.setdefault(_naive_level_of(t, m), []).append(m)
    return {n: sort_lenlex(ms) for n, ms in out.items()}


@given(st.lists(bitstrings, max_size=16), st.booleans(),
       st.sampled_from([set, list, frozenset]))
def test_index_matches_naive_scans(ss, with_root, kind):
    # arbitrary sets: with or without the root, rarely prefix-closed,
    # and as a list possibly with repeats; each is queried as a plain
    # iterable, wrapped afresh on every call, and as one kept Tree
    ss = ss + [""] if with_root else [s for s in ss if s]
    members = frozenset(ss)
    for t in (kind(ss), Tree(ss)):
        _check_against_naive_scans(t, members)


def _check_against_naive_scans(t, members):
    for m in members:
        assert level_of(t, m) == _naive_level_of(members, m)
        assert successors(t, m) == _naive_successors(members, m)
    assert leaves(t) == _naive_leaves(members)
    assert level_map(t) == _naive_level_map(members)
    with pytest.raises(MemberError):
        level_of(t, "0" * 7)
    with pytest.raises(MemberError):
        successors(t, "0" * 7)
    if not members:
        with pytest.raises(ShapeError):
            max_level(t)
        return
    levels = {m: _naive_level_of(members, m) for m in members}
    top = max(levels.values())
    assert max_level(t) == top
    leaf_levels = {levels[m] for m in _naive_leaves(members)}
    assert tree_uniform_level(t) == (leaf_levels.pop()
                                     if len(leaf_levels) == 1 else None)
    for n in range(-1, top + 2):
        assert restrict_to_level(t, n) == frozenset(
            m for m in members if levels[m] <= n)


@given(st.lists(bitstrings, max_size=16), st.integers(-2, 7))
def test_restriction_index_matches_a_fresh_build(members, n):
    t = Tree(members)
    sub = restrict_to_level(t, n)
    assert sub._idx is not None
    assert index_items(sub._idx) == index_items(trees._build_index(sub))
    assert sub == frozenset(m for m in t if level_of(t, m) <= n)


def test_restriction_builds_no_index(monkeypatch):
    # level 2 ends with 1111, past level 3's 010 in length-lex order
    t = Tree(["", "0", "1", "000", "01", "010", "1111"])
    leaves(t)
    builds = _count_builds(monkeypatch)
    subs = [restrict_to_level(t, n) for n in range(-1, 5)]
    subs += [restrict_to_level(sub, 2) for sub in subs]
    assert builds == []
    for sub in subs:
        assert index_items(sub._idx) == index_items(trees._build_index(sub))


def test_tree_wraps_once_and_stays_a_set():
    t = Tree(["", "0", "1"])
    assert Tree(t) is t
    assert t == frozenset(t) and hash(t) == hash(frozenset(t))
    assert type(t | {"00"}) is frozenset
    assert type(restrict_to_level(t, 0)) is Tree
    assert all(type(s) is Tree
               for s in StagedTree(([""], {"", "0"})).stages)


def _count_builds(monkeypatch):
    builds = []
    real = trees._build_index

    def counted(t):
        builds.append(len(t))
        return real(t)

    monkeypatch.setattr(trees, "_build_index", counted)
    return builds


def test_a_tree_builds_its_index_once(monkeypatch):
    builds = _count_builds(monkeypatch)
    t = Tree(FULL2)
    for _ in range(3):
        for m in t:
            level_of(t, m)
            successors(t, m)
        leaves(t), level_map(t), max_level(t), branching_stats(t)
        tree_uniform_level(t), restrict_to_level(t, 1)
    assert builds == [7]
    # no cache keyed by content: an equal plain set is indexed afresh on
    # every query, and so is an equal Tree held in another object
    level_of(frozenset(FULL2), "")
    level_of(frozenset(FULL2), "")
    level_of(Tree(FULL2), "")
    assert builds == [7, 7, 7, 7]


@pytest.mark.parametrize("name", ["nice", "thin-from-trace",
                                  "split-thin", "pullback-image",
                                  "smc-driver"])
def test_a_suite_check_builds_the_same_indexes_when_run_again(
        monkeypatch, name):
    # the checks whose trees no process-lifetime cache keeps: run twice
    # in one process, the second run builds every index the first did
    # (the two-colour checks build none at all, see test_colorings, and
    # nor does the traceable check, below)
    builds = _count_builds(monkeypatch)
    _, fn, fast_kw, _ = next(c for c in suite._CHECKS if c[0] == name)
    runs = []
    for _ in range(2):
        builds.clear()
        lines = fn(name, random.Random(f"0:{name}"), **fast_kw)
        runs.append((lines, sorted(builds)))
    assert runs[0] == runs[1] and runs[0][1]


def test_the_traceable_check_builds_no_index(monkeypatch):
    # its final-node check finds successors by prefix lookup
    builds = _count_builds(monkeypatch)
    _, fn, fast_kw, full_kw = next(c for c in suite._CHECKS
                                   if c[0] == "traceable")
    for kw in (fast_kw, full_kw):
        lines = fn("traceable", random.Random("0:traceable"), **kw)
        assert lines and all(ln.status == "PASS" for ln in lines)
    assert builds == []


def test_level_map_hands_back_a_fresh_dict():
    lm = level_map(FULL2)
    lm[0] = ("x",)
    lm[7] = ()
    del lm[2]
    assert level_map(FULL2) == {0: ("",), 1: ("0", "1"),
                                2: ("00", "01", "10", "11")}


def test_level_map_without_root():
    t = frozenset(["01", "0110", "0111", "1", "10"])
    assert level_map(t) == {0: ("1", "01"), 1: ("10", "0110", "0111")}
    assert leaves(t) == ("10", "0110", "0111")


def test_branching_stats_single_root():
    assert branching_stats(frozenset([""])) == (0, 0)


def test_branching_stats_full_depth2():
    assert branching_stats(FULL2) == (2, 2)


def test_branching_stats_lopsided():
    t = frozenset(["", "0", "1", "00"])
    assert branching_stats(t) == (2, 1)


def _naive_branching_stats(t):
    # per-member dicts of successors and levels, as before the index
    t = frozenset(t)
    if not t:
        raise ShapeError("empty tree")
    succ = {m: _naive_successors(t, m) for m in t}
    levels = {m: _naive_level_of(t, m) for m in t}
    max_succ = max(len(s) for s in succ.values())
    top = max(levels.values())
    two_below = 0
    for n in range(1, top + 2):
        if all(len(succ[m]) == 2 for m in t if levels[m] == n - 1):
            two_below = n
        else:
            break
    return (max_succ, two_below)


@given(st.lists(bitstrings, max_size=16), st.booleans())
def test_branching_stats_matches_naive(ss, with_root):
    # arbitrary sets, so several roots and gaps are common
    t = frozenset(ss + [""] if with_root else ss)
    if not t:
        with pytest.raises(ShapeError, match="empty tree"):
            branching_stats(t)
        return
    assert branching_stats(t) == _naive_branching_stats(t)


@pytest.mark.parametrize("t, want", [
    (["0", "1"], (0, 0)),
    (["0", "00", "01", "1", "10", "11"], (2, 1)),
    (["0", "00", "01", "1", "10"], (2, 0)),
    (["", "0", "1", "000", "001", "01"], (3, 1)),
])
def test_branching_stats_several_roots_and_gaps(t, want):
    assert branching_stats(t) == want == _naive_branching_stats(t)


def test_tree_uniform_level():
    assert tree_uniform_level(FULL2) == 2
    assert tree_uniform_level(frozenset(["", "0", "1", "00"])) is None
    with pytest.raises(ShapeError):
        tree_uniform_level(frozenset())


def test_staged_plain_valid():
    st_ = StagedTree((frozenset([""]), frozenset(["", "0", "1"])))
    assert staged_ce_violation(st_, weak=False) is None
    assert staged_ce_violation(st_, weak=True) is not None  # two at once


def test_staged_weak_single_additions():
    st_ = StagedTree((frozenset([""]),
                      frozenset(["", "00"]),
                      frozenset(["", "00", "01"])))
    assert staged_ce_violation(st_, weak=True) is None


def test_staged_weak_new_string_must_be_leaf():
    st_ = StagedTree((frozenset([""]),
                      frozenset(["", "00"]),
                      frozenset(["", "00", "0"])))
    assert staged_ce_violation(st_, weak=True) is not None


def test_staged_plain_must_extend_leaf():
    st_ = StagedTree((frozenset([""]),
                      frozenset(["", "00"]),
                      frozenset(["", "00", "01"])))
    # "01" does not extend the leaf "00"
    assert staged_ce_violation(st_, weak=False) is not None


@st.composite
def weak_stagings(draw):
    stages = [frozenset([""])]
    cur = {""}
    for _ in range(draw(st.integers(0, 8))):
        base = draw(st.sampled_from(sorted(cur)))
        ext = base + draw(st.text(alphabet="01", min_size=1, max_size=3))
        if ext in cur or any(m != ext and m.startswith(ext) for m in cur):
            continue
        cur.add(ext)
        stages.append(frozenset(cur))
    return StagedTree(tuple(stages))


def _naive_weak_violation(stages):
    # weak-mode staged_ce_violation with the whole-snapshot leaf scan
    if not stages:
        return "no stages"
    if stages[0] != frozenset({""}):
        return "stage 0 must be exactly the empty string"
    for s in range(1, len(stages)):
        prev, cur = stages[s - 1], stages[s]
        if not prev <= cur:
            return f"stage {s} dropped {sort_lenlex(prev - cur)[0]!r}"
        new = cur - prev
        if len(new) > 1:
            return f"stage {s} added {len(new)} strings"
        for tau in new:
            if any(is_proper_prefix(tau, m) for m in cur):
                return f"stage {s}: {tau!r} is not a leaf of its snapshot"
    return None


@st.composite
def cumulative_stagings(draw):
    # stage 0 is the root or an arbitrary set; each later stage adds one
    # arbitrary string or a prefix of a member, and now and then adds
    # two or drops one
    cur = {""} if draw(st.integers(0, 3)) else set(
        draw(st.lists(bitstrings, max_size=3)))
    stages = [frozenset(cur)]
    for _ in range(draw(st.integers(0, 8))):
        move = draw(st.sampled_from(["add"] * 6 + ["prefix"] * 4
                                    + ["two", "drop"]))
        if move == "drop" and cur:
            cur.discard(draw(st.sampled_from(sorted(cur))))
        elif move == "prefix" and cur:
            m = draw(st.sampled_from(sorted(cur)))
            cur.add(m[:draw(st.integers(0, len(m)))])
        else:
            for _ in range(2 if move == "two" else 1):
                cur.add(draw(bitstrings))
        stages.append(frozenset(cur))
    return StagedTree(tuple(stages))


@given(cumulative_stagings())
def test_weak_violation_matches_naive_leaf_scan(staging):
    assert staged_ce_violation(staging, weak=True) == \
        _naive_weak_violation(staging.stages)


@given(weak_stagings())
def test_weak_staging_is_plain_after_merge(staging):
    assert staged_ce_violation(staging, weak=True) is None
    merged = StagedTree((staging.stages[0], staging.final))
    assert staged_ce_violation(merged, weak=False) is None


@given(st.frozensets(bitstrings, max_size=12),
       st.sampled_from([(0, 1, 2, 3), (0, 2, 4, 6), (0, 2, 5)]),
       st.booleans())
def test_graded_successor_counts_match_the_index(t, lengths, close):
    if close:  # add each member's prefixes at the lengths: then graded
        t = frozenset(m[:n] for m in t for n in lengths if n <= len(m))
    graded = all(len(m) in lengths and (
        not m or m[:lengths[lengths.index(len(m)) - 1]] in t) for m in t)
    counts = graded_successor_counts(t, lengths)
    assert (counts is not None) == graded
    if graded:
        assert {m: k for k, lv in enumerate(counts) for m in lv} \
            == {m: level_of(t, m) for m in t}
        assert all(cnt == len(successors(t, m))
                   for lv in counts for m, cnt in lv.items())


def test_string_nat_bijection_small():
    assert [nat_to_string(i) for i in range(7)] == \
        ["", "0", "1", "00", "01", "10", "11"]


@given(st.integers(0, 10_000))
def test_string_nat_roundtrip(n):
    assert string_to_nat(nat_to_string(n)) == n


def test_show_parse_empty_token():
    assert show_string("") == "e"
    assert parse_string("e") == ""
    assert parse_string("010") == "010"


def test_bits_of_values_stops_at_nonbit():
    assert bits_of_values((0, 1, 5, 0)) == "01"
