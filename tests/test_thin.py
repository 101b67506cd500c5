"""Thin subtrees, trace systems, and the reductions between them."""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.errors import MemberError, ShapeError
from branchlab.functionals import FunctionalTable, hat_eval, output_prefix
from branchlab.gen import (random_functional_table,
                           random_readback_splitting_subtree,
                           random_weak_staged_tree, spined_weak_tree)
from branchlab.strings import string_to_nat
from branchlab.thin import (TraceSystem, decode_tuple, dnr_trace, encode_tuple,
                            hat_level_tree, is_thin, level_functional,
                            rescale_trace, selfdelim_decode, selfdelim_encode,
                            spaced_level, spacing_bound_limit,
                            spacing_bound_partial, splitting_to_thin,
                            thin_from_trace, thin_violation,
                            trace_from_bounded_splitting, trace_from_thin)
from branchlab.trees import level_map, level_of, successors


def identity_table(max_len):
    """Value at argument n mirrors oracle bit n, one step each."""
    axioms = []
    for length in range(max_len):
        for bits in product("01", repeat=length):
            s = "".join(bits)
            for b in "01":
                axioms.append((s + b, length, int(b), 1))
    return FunctionalTable(tuple(axioms))


# -- thinness ------------------------------------------------------------

def test_chain_is_thin():
    t = {"", "0", "00", "000"}
    assert is_thin(t, t)
    assert is_thin(t, {"", "00"})


def test_full_binary_is_exactly_thin():
    t = {"", "0", "1", "00", "01", "10", "11"}
    assert is_thin(t, t)


def test_three_wide_selection_is_not_thin():
    t = {"", "00", "01", "10"}
    msg = thin_violation(t, t)
    assert msg is not None and "3/2" in msg


def test_thin_requires_root_and_membership():
    t = {"", "0", "1"}
    assert thin_violation(t, {"0"}) == "the empty string is missing"
    with pytest.raises(MemberError):
        thin_violation(t, {"", "01"})


def _oracle_is_thin(t, tp):
    """Exhaustive antichain search over bitmasks, small inputs only."""
    for tau in tp:
        ext = [x for x in tp if x.startswith(tau)]
        base = level_of(t, tau)
        conflict = [[not (a.startswith(b) or b.startswith(a))
                     for b in ext] for a in ext]
        for mask in range(1, 1 << len(ext)):
            picked = [i for i in range(len(ext)) if mask >> i & 1]
            if any(not conflict[i][j]
                   for qi, i in enumerate(picked) for j in picked[qi + 1:]):
                continue
            w = sum(Fraction(1, 1 << (level_of(t, ext[i]) - base))
                    for i in picked)
            if w > 1:
                return False
    return True


def test_thin_matches_exhaustive_oracle():
    rng = random.Random(4021)
    for _ in range(12):
        t = random_weak_staged_tree(rng, steps=10).final
        tp = frozenset({""} | {m for m in t if rng.random() < 0.6})
        assert is_thin(t, tp) == _oracle_is_thin(t, tp)


# -- trace systems -------------------------------------------------------

def test_trace_system_enforces_bounds():
    TraceSystem((1, 2), {0: frozenset({5}), 1: frozenset({1, 2})})
    with pytest.raises(ShapeError):
        TraceSystem((1,), {0: frozenset({1, 2})})
    with pytest.raises(ShapeError):
        TraceSystem((1,), {0: frozenset({-3})})
    assert TraceSystem((), {}).values_at(7) == frozenset()


# -- guarded level trees -------------------------------------------------

def test_identity_level_tree_levels_track_output_length():
    psi = identity_table(4)
    t = hat_level_tree(psi, 4)
    assert "" in t and "0" not in t and "00" in t
    assert len(t) == 1 + 4 + 8 + 16
    for tau in t:
        assert level_of(t, tau) == len(output_prefix(psi, tau, hat=True))


# -- traces out of thin subtrees ----------------------------------------

def test_trace_from_thin_root_only():
    psi = identity_table(3)
    ts = trace_from_thin(psi, hat_level_tree(psi, 3), {""})
    assert ts.p == () and ts.w == {}


def test_trace_from_thin_chain_gives_singletons():
    psi = identity_table(4)
    ts = trace_from_thin(psi, hat_level_tree(psi, 4),
                         {"", "00", "000", "0000"})
    assert ts.p == (2, 4, 8)
    assert ts.w == {0: frozenset({0}), 1: frozenset({0}), 2: frozenset({0})}


def test_trace_from_thin_collects_distinct_values():
    psi = identity_table(2)
    ts = trace_from_thin(psi, hat_level_tree(psi, 2), {"", "00", "10"})
    assert ts.values_at(0) == frozenset({0, 1})


def test_trace_from_thin_rejects_short_outputs():
    t = {"", "0", "1"}
    with pytest.raises(ShapeError, match="output"):
        trace_from_thin(FunctionalTable(()), t, t)


def test_trace_from_thin_rejects_fat_subtrees():
    psi = identity_table(2)
    with pytest.raises(ShapeError, match="thin"):
        trace_from_thin(psi, hat_level_tree(psi, 2), {"", "00", "01", "10"})


def test_trace_from_thin_random_two_branching_subtrees():
    rng = random.Random(977)
    for _ in range(20):
        psi = random_functional_table(rng, axioms=12)
        t = hat_level_tree(psi, 5)
        tp, frontier = {""}, [""]
        while frontier:
            node = frontier.pop()
            kids = list(successors(t, node))
            rng.shuffle(kids)
            for kid in kids[:2]:
                tp.add(kid)
                frontier.append(kid)
        assert is_thin(t, tp)
        ts = trace_from_thin(psi, t, tp)
        for n, vals in ts.w.items():
            assert len(vals) <= 1 << (n + 1)
            assert vals <= {hat_eval(psi, x, n)
                            for x in tp if level_of(t, x) == n + 1}


# -- tuple codec ---------------------------------------------------------

def test_tuple_codes_match_worked_values():
    assert encode_tuple(()) == 0
    assert encode_tuple((0,)) == 2
    assert encode_tuple((1,)) == 9
    assert decode_tuple(0) == ()
    assert decode_tuple(1) is None
    assert decode_tuple(-1) is None
    with pytest.raises(ShapeError):
        encode_tuple((3, -1))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), max_size=6))
def test_tuple_codec_roundtrip(values):
    assert decode_tuple(encode_tuple(values)) == tuple(values)


# -- rescaling -----------------------------------------------------------

def test_rescale_identity_bounds_pass_through():
    f = (7, 3, 0, 5, 2, 11)
    p = (0, 1, 2, 3, 4, 5)
    w = {m: frozenset({encode_tuple(f[:m + 1])}) for m in range(1, 6)}
    out = rescale_trace(TraceSystem(p, w))
    assert out.p == p
    assert out.values_at(0) == frozenset()
    for n in range(1, 6):
        assert out.values_at(n) == frozenset({f[n]})


def test_rescale_blocks_cover_every_position():
    # block m holds a code for f up to the next cut, so every position
    # from the first cut onward must surface its f value
    rng = random.Random(2318)
    checked = 0
    for _ in range(25):
        cuts = sorted({rng.randint(1, 2)}
                      | set(rng.sample(range(3, 14), rng.randint(2, 4))))
        p = (0, *cuts)
        horizon = len(p)
        f = tuple(rng.randrange(50) for _ in range(p[-1] + horizon))
        w = {}
        for m in range(horizon):
            need = p[m + 1] if m + 1 < horizon else max(horizon, p[-1] + 1)
            vals = {encode_tuple(f[:need])}
            while len(vals) < p[m] and rng.random() < 0.5:
                vals.add(encode_tuple(tuple(
                    rng.randrange(50) for _ in range(rng.randint(0, 3)))))
            w[m] = frozenset(vals if p[m] else ())
        out = rescale_trace(TraceSystem(p, w))
        assert out.p == tuple(range(horizon))
        for n in range(p[1], horizon):
            assert f[n] in out.values_at(n)
            assert len(out.values_at(n)) <= n
            checked += 1
    assert checked >= 25


def test_rescale_skips_unparseable_codes():
    # block 1 covers positions 2 and 3; the code 1 does not parse
    ts = TraceSystem((0, 2, 5, 6),
                     {1: frozenset({1, encode_tuple((4, 6, 9, 7))})})
    out = rescale_trace(ts)
    assert out.p == (0, 1, 2, 3)
    assert out.values_at(1) == frozenset()
    assert out.values_at(2) == frozenset({9})
    assert out.values_at(3) == frozenset({7})


def test_rescale_rejects_bad_bounds():
    with pytest.raises(ShapeError):
        rescale_trace(TraceSystem((1, 2), {}))
    with pytest.raises(ShapeError):
        rescale_trace(TraceSystem((0, 3, 3), {}))


# rescale_trace before it decoded each block once and bisected the
# bounds, kept as an oracle.

def _naive_rescale_trace(ts):
    p = ts.p
    if not p or p[0] != 0 or any(p[i + 1] <= p[i] for i in range(len(p) - 1)):
        raise ShapeError("bounds must start at 0 and strictly increase")

    def k(n):
        return max(m for m in range(len(p)) if p[m] <= n)

    w = {}
    for n in range(len(p)):
        got = set()
        for code in ts.values_at(k(n)):
            decoded = decode_tuple(code)
            if decoded is not None and len(decoded) > n:
                got.add(decoded[n])
        w[n] = got
    return TraceSystem(tuple(range(len(p))),
                       {n: frozenset(v) for n, v in w.items()})


def _rescale_outcome(fn, ts):
    try:
        out = fn(ts)
    except ShapeError as e:
        return str(e)
    return out.p, out.w


def test_rescale_matches_the_per_position_scan():
    # random bounds (some not starting at 0 or not increasing, some
    # with wide gaps, so that one block covers many positions) and
    # blocks of parseable and unparseable codes
    outcomes = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        p = sorted(rng.sample(range(24), rng.randint(1, 12)))
        if rng.random() < 0.8:
            p[0] = 0
        if rng.random() < 0.1:
            p.append(p[-1])
        w = {m: frozenset(encode_tuple(tuple(rng.randrange(9) for _ in
                                             range(rng.randint(0, 14))))
                          if rng.random() < 0.8 else rng.randrange(64)
                          for _ in range(rng.randint(0, 3)))
             for m in range(len(p)) if rng.random() < 0.8}
        ts = TraceSystem(tuple(p), {m: v for m, v in w.items()
                                    if len(v) <= p[m]})
        got = _rescale_outcome(rescale_trace, ts)
        assert got == _rescale_outcome(_naive_rescale_trace, ts)
        outcomes[type(got)] += 1
        if isinstance(got, tuple):
            outcomes["values"] += sum(map(len, got[1].values()))
    assert outcomes[str] > 20 and outcomes[tuple] > 200
    assert outcomes["values"] > 150


def test_rescale_decodes_each_block_once():
    # 16 codes of 1,034-entry tuples in block 1,023 of 2,048, whose
    # bounds jump from 1,023 to 3,000: that block covers the 1,025
    # positions from 1,023 on, and the per-position scan decoded every
    # code again at each of them
    rng = random.Random(5)
    p = (*range(1024), *range(3000, 4024))
    rows = [tuple(rng.randrange(100) for _ in range(1034))
            for _ in range(16)]
    ts = TraceSystem(p, {1023: frozenset(map(encode_tuple, rows))})
    t0 = time.monotonic()
    out = rescale_trace(ts)
    assert time.monotonic() - t0 < 1
    assert out.p == tuple(range(2048))
    assert all(out.values_at(n) == frozenset() for n in range(1023))
    assert all(out.values_at(n) == {r[n] for r in rows}
               for n in range(1023, 1034))
    assert all(out.values_at(n) == frozenset() for n in range(1034, 2048))


# -- spacing -------------------------------------------------------------

def test_spaced_levels_and_bounds():
    assert [spaced_level(n) for n in range(5)] == [0, 2, 6, 12, 20]
    assert spacing_bound_limit(0) == Fraction(4, 9)
    for n in range(6):
        lim = spacing_bound_limit(n)
        assert lim < 1
        part = spacing_bound_partial(n, 30)
        assert part < lim
        assert lim - part < Fraction(1, 10 ** 10)
    assert spacing_bound_partial(2, 5) < spacing_bound_partial(2, 6)


def test_thin_from_trace_empty_is_root():
    assert thin_from_trace({"", "0"}, TraceSystem((), {})) == frozenset({""})


def test_thin_from_trace_random_admissible_traces_are_thin():
    rng = random.Random(515)
    for _ in range(15):
        final = spined_weak_tree(rng, depth=12, shoots=8).final
        buckets = level_map(final)
        w = {}
        for n in range(4):
            pool = list(buckets.get(spaced_level(n), ()))
            rng.shuffle(pool)
            picks = pool[:rng.randint(1, max(1, n))]
            w[n] = frozenset(string_to_nat(s) for s in picks)
        ts = TraceSystem(tuple(max(1, n) for n in range(4)), w)
        tp = thin_from_trace(final, ts)
        assert is_thin(final, tp)
        assert "" in tp


def test_thin_from_trace_rejects_bad_codes():
    chain = {"0" * k for k in range(7)}
    outside = TraceSystem((1, 1), {1: frozenset({string_to_nat("11")})})
    with pytest.raises(ShapeError, match="outside"):
        thin_from_trace(chain, outside)
    shallow = TraceSystem((1, 1), {1: frozenset({string_to_nat("0")})})
    with pytest.raises(ShapeError, match="level"):
        thin_from_trace(chain, shallow)
    fat = TraceSystem((1, 1, 3), {2: frozenset({1, 2, 3})})
    with pytest.raises(ShapeError, match="identity bound"):
        thin_from_trace(chain, fat)


# -- diagonal traces -----------------------------------------------------

def test_dnr_trace_reads_diagonal_values():
    f0 = FunctionalTable((("", 0, 4, 2),))
    f1 = FunctionalTable(())
    f2 = FunctionalTable((("", 2, 9, 1), ("0", 0, 8, 1)))
    ts = dnr_trace([f0, f1, f2])
    assert ts.p == (1, 1, 2)
    assert ts.values_at(0) == frozenset({4})
    assert ts.values_at(1) == frozenset()
    assert ts.values_at(2) == frozenset({9})
    assert dnr_trace([]).p == ()


# -- self-delimiting pair codes ------------------------------------------

def test_selfdelim_worked_examples():
    assert selfdelim_encode(5, 2) == "10001110"
    assert selfdelim_encode(1, 1) == "111"
    assert selfdelim_decode("10001110") == (5, 2)


def test_selfdelim_roundtrip_and_length_law():
    for n in range(1, 65):
        for m in range(1, 65):
            code = selfdelim_encode(n, m)
            assert selfdelim_decode(code) == (n, m)
            assert len(code) == 2 * n.bit_length() + m.bit_length()


def test_selfdelim_domain_errors():
    with pytest.raises(ShapeError):
        selfdelim_encode(0, 1)
    with pytest.raises(ShapeError):
        selfdelim_encode(1, 0)
    for bad in ["", "1", "11", "1100", "0110"]:
        with pytest.raises(ShapeError):
            selfdelim_decode(bad)


# -- splitting subtrees are thin -----------------------------------------

def test_level_functional_reads_back_prefixes():
    t = {"", "00", "01", "0000"}
    psi = level_functional(t)
    assert output_prefix(psi, "00") == (0,)
    assert output_prefix(psi, "0000") == (0, 0)
    assert output_prefix(psi, "11") == ()


def test_splitting_to_thin_trivial_and_witness():
    r = splitting_to_thin({""}, {""})
    assert r.thin_ok and r.witness is None
    r = splitting_to_thin({"", "00", "01"}, {"", "00", "01"})
    assert not r.thin_ok and r.witness == ("00", "01")
    r = splitting_to_thin({"", "00", "11"}, {"", "00", "11"})
    assert r.thin_ok and r.witness is None


def test_splitting_to_thin_membership_errors():
    with pytest.raises(MemberError):
        splitting_to_thin({"", "00"}, {"", "01"})
    with pytest.raises(MemberError):
        splitting_to_thin({"", "00"}, {"00"})


def test_random_splitting_subtrees_are_thin():
    rng = random.Random(8846)
    for _ in range(30):
        t = random_weak_staged_tree(rng, steps=rng.randint(15, 25)).final
        sub = random_readback_splitting_subtree(rng, t)
        r = splitting_to_thin(t, sub)
        assert r.witness is None
        assert r.thin_ok


def test_breaking_a_splitting_subtree_is_reported():
    rng = random.Random(303)
    found = 0
    for _ in range(60):
        final = random_weak_staged_tree(rng, steps=20).final
        sub = set(random_readback_splitting_subtree(rng, final))
        spoil = None
        for cand in final - sub:
            for y in sub:
                if y and not (cand.startswith(y) or y.startswith(cand)):
                    cut = min(level_of(final, cand), level_of(final, y))
                    if cand[:cut] == y[:cut]:
                        spoil = cand
                        break
            if spoil:
                break
        if spoil is None:
            continue
        found += 1
        assert splitting_to_thin(final, sub | {spoil}).witness is not None
    assert found >= 10


# -- bounded splitting traces --------------------------------------------

def _stride_tree():
    members = ["", "000", "111",
               "000000", "000111", "111000", "111111"]
    axioms = []
    for s in members[1:3]:
        axioms.append((s, 0, int(s[0]), 1))
    for s in members[3:]:
        axioms.append((s, 1, int(s[3]), 1))
    return frozenset(members), FunctionalTable(tuple(axioms))


def test_bounded_splitting_trace_chain():
    psi = FunctionalTable((("0", 0, 5, 1),))
    ts = trace_from_bounded_splitting(psi, {"", "00"}, 1)
    assert ts.p == (1,) and ts.values_at(0) == frozenset({5})
    empty = trace_from_bounded_splitting(FunctionalTable(()), {"", "00"}, 1)
    assert empty.values_at(0) == frozenset()


def test_bounded_splitting_trace_stride_tree():
    t, psi = _stride_tree()
    ts = trace_from_bounded_splitting(psi, t, 2)
    assert ts.p == (2, 4)
    assert ts.values_at(0) == frozenset({0, 1})
    assert ts.values_at(1) == frozenset({0, 1})


def test_bounded_splitting_trace_rejects_bad_trees():
    with pytest.raises(ShapeError, match="branching"):
        trace_from_bounded_splitting(FunctionalTable(()), {"", "0", "1"}, 1)
    with pytest.raises(ShapeError, match="split"):
        trace_from_bounded_splitting(FunctionalTable(()), {"", "00", "11"}, 2)
