import itertools
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as hst

from branchlab import colorings, suite, trees
from branchlab.colorings import (EVEN, GRADED, Coloring, EVEN_SHAPE,
                                 GRADED_SHAPE, bushy_level_strings,
                                 extract_nice, extract_twocol, is_compatible,
                                 kappa, ncol, nice_outcomes,
                                 verify_extraction)
from branchlab.errors import BudgetError, ShapeError
from branchlab.gen import random_kappa_tree
from branchlab.trees import (Tree, leaves, level_map, max_level, successors,
                             tree_uniform_level)
from helpers import index_items


def test_even_shape_levels():
    assert EVEN_SHAPE.level_length(1) == 2
    assert len(bushy_level_strings(EVEN_SHAPE, 1)) == 4
    assert len(bushy_level_strings(EVEN_SHAPE, 2)) == 16
    assert EVEN_SHAPE.branching(3) == 4


def test_graded_shape_levels():
    assert [GRADED_SHAPE.level_length(n) for n in range(5)] == [0, 2, 5, 9, 14]
    assert len(bushy_level_strings(GRADED_SHAPE, 2)) == 32
    assert GRADED_SHAPE.branching(0) == 4
    assert [GRADED_SHAPE.branching(n) for n in range(4)] == [4, 8, 16, 32]


# The product-based generation and the linear level search that the
# cached shape arithmetic replaced, kept as oracles.

def _naive_level_of_length(shape, length):
    n = 0
    while True:
        ll = shape.level_length(n)
        if ll == length:
            return n
        if ll > length:
            return None
        n += 1


def _naive_level_strings(shape, n):
    length = shape.level_length(n)
    return tuple("".join(bits)
                 for bits in itertools.product("01", repeat=length))


def _naive_successor_strings(shape, s):
    n = _naive_level_of_length(shape, len(s))
    gap = shape.level_length(n + 1) - len(s)
    return tuple(s + "".join(bits)
                 for bits in itertools.product("01", repeat=gap))


@pytest.mark.parametrize("shape", [EVEN_SHAPE, GRADED_SHAPE])
def test_level_of_length_matches_linear_search(shape):
    for length in range(-3, 400):
        assert (shape.level_of_length(length)
                == _naive_level_of_length(shape, length))


@pytest.mark.parametrize("shape", [EVEN_SHAPE, GRADED_SHAPE])
def test_cached_shape_strings_match_product_generation(shape):
    for _ in range(2):  # the second round reads the caches
        for n in range(4):
            level = bushy_level_strings(shape, n)
            assert level == _naive_level_strings(shape, n)
            for s in level[:3] + level[-3:]:
                assert (shape.successor_strings(s)
                        == _naive_successor_strings(shape, s))


@pytest.mark.parametrize("shape", [EVEN_SHAPE, GRADED_SHAPE])
def test_shape_string_errors_survive_caching(shape, monkeypatch):
    bushy_level_strings(shape, 2)
    size = 1 << shape.level_length(2)
    monkeypatch.setattr(colorings, "MAX_LEVEL_STRINGS", size)
    assert len(bushy_level_strings(shape, 2)) == size
    monkeypatch.setattr(colorings, "MAX_LEVEL_STRINGS", size - 1)
    with pytest.raises(BudgetError):
        bushy_level_strings(shape, 2)
    shape.successor_strings("00")
    for s in ("0", "000", "0000000"):
        for _ in range(2):
            with pytest.raises(ShapeError):
                shape.successor_strings(s)


def test_ncol():
    assert [ncol(i) for i in range(4)] == [2, 4, 8, 16]


def test_kappa_closed_form_vs_recurrence():
    # recurrence: kappa_i(n) agrees with the ambient branching for n < i is 2;
    # at n == i it picks up 2^(n-i+2) and then doubles with n
    for i in range(7):
        assert kappa(i, i) == 4
        for n in range(11):
            if n < i:
                assert kappa(i, n) == 2
            else:
                expected = 4 * (2 ** (n - i))
                assert kappa(i, n) == expected
            if n > i:
                assert kappa(i, n) == 2 * kappa(i, n - 1)


def test_kappa_zero_matches_graded_branching():
    for n in range(6):
        assert kappa(0, n) == GRADED_SHAPE.branching(n)


def test_is_compatible_examples():
    sub = frozenset(["", "00", "01"])
    assert is_compatible(EVEN_SHAPE, sub, lambda n: 2)
    assert not is_compatible(EVEN_SHAPE, frozenset(["", "00"]), lambda n: 2)
    assert not is_compatible(EVEN_SHAPE, frozenset(["", "0"]), lambda n: 2)
    assert not is_compatible(EVEN_SHAPE, frozenset(), lambda n: 2)


def _all_two_colorings(n):
    lvl = bushy_level_strings(EVEN_SHAPE, n)
    for bits in itertools.product((0, 1), repeat=len(lvl)):
        yield Coloring(dict(zip(lvl, bits)), 2)


def test_extract_twocol_level0():
    d, sub = extract_twocol(EVEN_SHAPE, 0, Coloring({"": 0}, 2))
    assert (d, sub) == (1, frozenset([""]))


def test_extract_twocol_level1_all_zero():
    c = Coloring({s: 0 for s in bushy_level_strings(EVEN_SHAPE, 1)}, 2)
    d, sub = extract_twocol(EVEN_SHAPE, 1, c)
    assert d == 1
    assert sub == frozenset(["", "00", "01"])


def test_extract_twocol_exhaustive_small():
    for n in (0, 1):
        for c in _all_two_colorings(n):
            d, sub = extract_twocol(EVEN_SHAPE, n, c)
            assert verify_extraction(EVEN_SHAPE, lambda k: 2, n, c, d, sub)


def _all_two_branching_subtrees(n):
    """Oracle enumeration of every two-branching level-n subtree of the
    even shape (built independently of the library: direct recursion)."""
    def grow(node, level):
        if level == n:
            return [{node}]
        succ = [node + a + b for a in "01" for b in "01"]
        out = []
        for pair in itertools.combinations(sorted(succ), 2):
            for left in grow(pair[0], level + 1):
                for right in grow(pair[1], level + 1):
                    out.append({node} | left | right)
        return out
    return [frozenset(t) for t in grow("", 0)]


def test_extract_twocol_oracle_membership_n2():
    subtrees = _all_two_branching_subtrees(2)
    assert len(subtrees) == 6 * 6 * 6  # choose 2 of 4 at each of 3 nodes
    rng = random.Random(7)
    lvl = bushy_level_strings(EVEN_SHAPE, 2)
    for _ in range(40):
        c = Coloring({s: rng.randint(0, 1) for s in lvl}, 2)
        d, sub = extract_twocol(EVEN_SHAPE, 2, c)
        valid = [(dd, t) for dd in (0, 1) for t in subtrees
                 if all(c.get(lf) != dd for lf in leaves(t))]
        assert (d, sub) in valid


def test_extract_twocol_requires_total_coloring():
    with pytest.raises(ShapeError):
        extract_twocol(EVEN_SHAPE, 1, Coloring({"00": 0}, 2))


def _full_graded(n):
    out = set()
    for k in range(n + 1):
        out.update(bushy_level_strings(GRADED_SHAPE, k))
    return frozenset(out)


def test_extract_nice_base_case():
    # level-0 tree: some colour is unused among the single leaf
    d, t1 = extract_nice(GRADED_SHAPE, 0, frozenset([""]),
                         Coloring({"": 0}, 2))
    assert t1 == frozenset([""])
    assert d == 1


def test_extract_nice_empty_coloring_keeps_least_colour():
    t0 = _full_graded(1)
    d, t1 = extract_nice(GRADED_SHAPE, 0, t0, Coloring({}, 2))
    assert d == 0
    assert t1 == frozenset(["", "00", "01"])


def test_extract_nice_all_zero_picks_one():
    t0 = _full_graded(1)
    c = Coloring({s: 0 for s in bushy_level_strings(GRADED_SHAPE, 1)}, 2)
    d, t1 = extract_nice(GRADED_SHAPE, 0, t0, c)
    assert d == 1
    assert t1 == frozenset(["", "00", "01"])


def _random_kappa_tree(rng, i, n):
    tree = {""}
    frontier = [""]
    for k in range(n):
        nxt = []
        for s in frontier:
            picks = rng.sample(GRADED_SHAPE.successor_strings(s), kappa(i, k))
            nxt.extend(picks)
        tree.update(nxt)
        frontier = nxt
    return frozenset(tree)


@pytest.mark.parametrize("i,n", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
def test_extract_nice_random(i, n):
    rng = random.Random(100 * i + n)
    for _ in range(25):
        t0 = _random_kappa_tree(rng, i, n)
        c = Coloring({lf: rng.randrange(ncol(i)) for lf in leaves(t0)},
                     ncol(i))
        d, t1 = extract_nice(GRADED_SHAPE, i, t0, c)
        assert t1 <= t0
        assert verify_extraction(GRADED_SHAPE, lambda k: kappa(i + 1, k),
                                 n, c, d, t1)


def test_verify_extraction_rejects_mutants():
    t0 = _full_graded(1)
    c = Coloring({s: 0 for s in bushy_level_strings(GRADED_SHAPE, 1)}, 2)
    d, t1 = extract_nice(GRADED_SHAPE, 0, t0, c)
    # flip the forbidden colour: now every leaf wears d
    assert not verify_extraction(GRADED_SHAPE, lambda k: kappa(1, k),
                                 1, c, 0, t1)
    # drop a leaf: branching discipline broken
    broken = t1 - {sorted(t1)[-1]}
    assert not verify_extraction(GRADED_SHAPE, lambda k: kappa(1, k),
                                 1, c, d, broken)
    # a fanout of 0 below level n: leaves at level 1 of a level-2 check
    short = {"", "00", "01"}
    assert not _naive_verify_extraction(EVEN_SHAPE, lambda k: 2 - 2 * k, 2,
                                        Coloring({}, 2), 0, short)
    assert not verify_extraction(EVEN_SHAPE, lambda k: 2 - 2 * k, 2,
                                 Coloring({}, 2), 0, short)


# The string-keyed propagation and the index-based verifier that the
# level arrays and the shape check replaced, kept as oracles.

def _naive_propagate(counts_src, parents, child_of):
    out = {}
    for p in parents:
        kids = child_of(p)
        tally = {}
        blanks = 0
        for k in kids:
            c = counts_src.get(k)
            if c is None:
                blanks += 1
            else:
                tally[c] = tally.get(c, 0) + 1
        winner = None
        for c, cnt in tally.items():
            if 2 * cnt > len(kids):
                winner = c
                break
        if winner is not None:
            out[p] = winner
        elif blanks == len(kids):
            out[p] = None
        else:
            out[p] = 0
    return out


@pytest.mark.parametrize("fan", [2, 4, 8, 16, 32])
def test_majority_step_matches_naive_propagation(fan):
    # constant runs, blank ones among them, ties, runs that are mostly
    # blank, and random runs over a few colours
    blank = colorings._BLANK
    rng = random.Random(fan)
    runs = []
    for _ in range(300):
        palette = [blank] + list(range(rng.choice((2, 3, 5))))
        kind = rng.choice(("constant", "tie", "mostly-blank", "random"))
        if kind == "constant":
            run = [rng.choice(palette)] * fan
        elif kind == "tie":
            a, b = rng.sample(palette, 2)
            run = [a] * (fan // 2) + [b] * (fan // 2)
        elif kind == "mostly-blank":
            run = [blank] * (fan // 2 + 1) + [
                rng.choice(palette) for _ in range(fan // 2 - 1)]
        else:
            run = [rng.choice(palette) for _ in range(fan)]
        rng.shuffle(run)
        runs.append(run)
    kids = [x for run in runs for x in run]
    naive = _naive_propagate(
        {x: col for x, col in enumerate(kids) if col != blank},
        range(len(runs)), lambda p: range(fan * p, fan * p + fan))
    got = colorings._majority_step(kids, fan)
    assert got == [blank if naive[p] is None else naive[p]
                   for p in range(len(runs))]
    # a blank, the fallback 0 under a tie, and a won colour other than 0
    assert blank in got and 0 in got and max(got) > 0


def _naive_extract_twocol(shape, n, c):
    if shape.variant != EVEN:
        raise ShapeError("two-colour extraction runs on the even shape")
    if c.num_colors != 2:
        raise ShapeError("expected a 2-colouring")
    level_sets = [bushy_level_strings(shape, k) for k in range(n + 1)]
    col = {s: c.assignment.get(s) for s in level_sets[n]}
    missing = [s for s, x in col.items() if x is None]
    if missing:
        raise ShapeError(f"leaf {missing[0]!r} is uncoloured")
    per_level = [col]
    for k in range(n - 1, -1, -1):
        col = _naive_propagate(col, level_sets[k], shape.successor_strings)
        per_level.append(col)
    per_level.reverse()
    root_colour = per_level[0][""]
    d = 0 if root_colour != 0 else 1
    if root_colour is None:
        d = 0
    sub = {""}
    frontier = [""]
    for k in range(n):
        nxt = []
        for s in frontier:
            ok = [x for x in shape.successor_strings(s)
                  if per_level[k + 1][x] != d]
            if len(ok) < 2:
                raise ShapeError(f"no two clean successors under {s!r}")
            nxt.extend(sorted(ok)[:2])
        sub.update(nxt)
        frontier = nxt
    return d, frozenset(sub)


def _naive_extract_nice(shape, i, t0, c):
    if shape.variant != GRADED:
        raise ShapeError("graded shape required")
    t0 = frozenset(t0)
    if not _naive_is_compatible(shape, t0, lambda k: kappa(i, k)):
        raise ShapeError("input tree is not kappa(i)-compatible")
    if c.num_colors != ncol(i):
        raise ShapeError(f"expected an ncol({i})-colouring")
    n = tree_uniform_level(t0)
    if n is None:
        raise ShapeError("leaves sit at mixed levels")
    col = {s: c.get(s) for s in leaves(t0)}
    lm = level_map(t0)
    per_level = {n: col}
    for k in range(n - 1, i - 1, -1):
        per_level[k] = _naive_propagate(per_level[k + 1], lm[k],
                                        lambda p: successors(t0, p))
    base_level = min(n, i)
    base_cols = {per_level[base_level].get(s)
                 for s in lm[base_level]} - {None}
    d = next(x for x in range(ncol(i)) if x not in base_cols)
    t1 = set()
    for k in range(base_level + 1):
        t1.update(lm[k])
    frontier = list(lm[base_level])
    for k in range(base_level, n):
        want = kappa(i + 1, k)
        nxt = []
        for s in frontier:
            ok = [x for x in successors(t0, s)
                  if per_level[k + 1].get(x) != d]
            if len(ok) < want:
                raise ShapeError(f"not enough clean successors under {s!r}")
            nxt.extend(sorted(ok)[:want])
        t1.update(nxt)
        frontier = nxt
    return d, frozenset(t1)


# is_compatible before it read the tree index directly: one level_map
# and then a successors() query per member, kept as an oracle.

def _naive_is_compatible(shape, sub, f):
    sub = frozenset(sub)
    if not sub:
        return False
    for lv, members in level_map(sub).items():
        want = shape.level_length(lv)
        for m in members:
            if len(m) != want:
                return False
            succ = successors(sub, m)
            if succ and len(succ) != f(lv):
                return False
    return True


def _naive_verify_extraction(shape, f_target, n, c, d, sub):
    sub = frozenset(sub)
    if not sub or not _naive_is_compatible(shape, sub, f_target):
        return False
    if tree_uniform_level(sub) != n:
        return False
    return all(c.get(lf) != d for lf in leaves(sub))


def _outcome(fn, *args):
    """fn's result, or the type and message of the ShapeError it raised."""
    try:
        return fn(*args)
    except ShapeError as e:
        return type(e), str(e)


_FANOUTS = {"two": lambda k: 2, "one": lambda k: 1,
            "kappa0": lambda k: kappa(0, k), "kappa1": lambda k: kappa(1, k),
            "kappa2": lambda k: kappa(2, k)}


def _shape_subtree(rng, shape, f, n):
    """A random level-n subtree of the shape with fanout f, capped at
    the shape's branching."""
    t, frontier = {""}, [""]
    for k in range(n):
        nxt = []
        for s in frontier:
            kids = shape.successor_strings(s)
            nxt += rng.sample(kids, min(f(k), len(kids)))
        t.update(nxt)
        frontier = nxt
    return t, frontier


def _perturb(rng, shape, t, frontier, n, how):
    t = set(t)
    inner = sorted(m for m in t if m not in frontier)
    if how == "drop-leaf":
        t.discard(rng.choice(frontier))
    elif how == "off-level":  # one past a shape level is on none
        t.add(rng.choice(sorted(t)) + rng.choice("01"))
    elif how == "missing-parent" and inner:
        t.discard(rng.choice(inner))
    elif how == "extra-child" and inner:
        p = rng.choice(inner)
        t.update(rng.sample(shape.successor_strings(p), 1))
    elif how == "orphan" and n >= 2:
        # swap a parent of leaves for a spare sibling: every count still
        # agrees, but the leaves under it lose their shape parent
        up = rng.choice(frontier)[:shape.level_length(n - 1)]
        spare = [x for x in shape.successor_strings(
            up[:shape.level_length(n - 2)]) if x not in t]
        if spare:
            t.discard(up)
            t.add(rng.choice(spare))
    return t


def _verifier_case(rng, arbitrary):
    shape = rng.choice((EVEN_SHAPE, GRADED_SHAPE))
    f = _FANOUTS[rng.choice(sorted(_FANOUTS))]
    num = rng.choice((2, 4))
    d = rng.randrange(num)
    if arbitrary is not None:
        n = rng.randint(0, 3)
        t = set(arbitrary)
        leaves_ = sorted(t)
    else:
        n = rng.randint(0, 3 if shape.variant == EVEN else 2)
        build = f if rng.random() < 0.7 else _FANOUTS[
            rng.choice(sorted(_FANOUTS))]
        t, leaves_ = _shape_subtree(rng, shape, build, n)
        how = rng.choice(("none", "none", "drop-leaf", "off-level",
                          "missing-parent", "extra-child", "orphan",
                          "recolour"))
        t = _perturb(rng, shape, t, leaves_, n, how)
        if rng.random() < 0.15:
            n += rng.choice((-1, 1))
    clean = rng.random() < 0.6
    colors = {}
    for s in leaves_:
        if rng.random() < 0.1:
            continue  # left uncoloured
        colors[s] = rng.choice([x for x in range(num)
                                if not clean or x != d])
    if arbitrary is None and how == "recolour" and leaves_:
        colors[rng.choice(leaves_)] = d
    return shape, f, n, Coloring(colors, num), d, t


@given(hst.integers(0, 1 << 32),
       hst.none() | hst.frozensets(hst.text("01", max_size=6), max_size=12))
@settings(max_examples=400, deadline=None)
def test_shape_verifier_matches_the_index_verifier(seed, arbitrary):
    shape, f, n, c, d, t = _verifier_case(random.Random(seed), arbitrary)
    assert (verify_extraction(shape, f, n, c, d, t)
            == _naive_verify_extraction(shape, f, n, c, d, t))


@given(hst.integers(0, 1 << 32),
       hst.none() | hst.frozensets(hst.text("01", max_size=6), max_size=12))
@settings(max_examples=400, deadline=None)
def test_index_compatibility_matches_the_per_member_check(seed, arbitrary):
    # both shapes, fanouts 1, 2 and kappa(i), on perturbed shape
    # subtrees and on arbitrary string sets
    shape, f, _, _, _, t = _verifier_case(random.Random(seed), arbitrary)
    assert is_compatible(shape, t, f) == _naive_is_compatible(shape, t, f)
    assert is_compatible(shape, Tree(t), f) == _naive_is_compatible(
        shape, t, f)


def test_index_compatibility_sweep_sees_both_verdicts():
    verdicts = []
    for seed in range(600):
        shape, f, _, _, _, t = _verifier_case(random.Random(seed), None)
        got = is_compatible(shape, t, f)
        assert got == _naive_is_compatible(shape, t, f), seed
        verdicts.append(got)
    assert 150 < sum(verdicts) < 450


def test_repeated_compatibility_questions_on_one_tree_match_naive():
    # one Tree asked under every schedule, each question twice and in
    # shuffled order, so that each verdict follows the other's
    rng = random.Random(83)
    fanouts = [lambda k, i=i: kappa(i, k) for i in range(4)]
    fanouts.append(lambda k: 2)
    turns = set()
    for _ in range(40):
        t = Tree(random_kappa_tree(rng, rng.randrange(4), rng.randrange(4)))
        asked = fanouts * 2
        rng.shuffle(asked)
        got = [is_compatible(GRADED_SHAPE, t, f) for f in asked]
        assert got == [_naive_is_compatible(GRADED_SHAPE, t, f)
                       for f in asked]
        turns.update(zip(got, got[1:]))
    assert {(True, False), (False, True)} <= turns


def test_shape_verifier_sweep_sees_both_verdicts():
    # the same cases, seeded, with enough of each verdict to mean something
    verdicts = []
    for seed in range(600):
        shape, f, n, c, d, t = _verifier_case(random.Random(seed), None)
        got = verify_extraction(shape, f, n, c, d, t)
        assert got == _naive_verify_extraction(shape, f, n, c, d, t), seed
        verdicts.append(got)
    assert 150 < sum(verdicts) < 450


def _twocol_cases(rng):
    for n in range(4):
        lvl = bushy_level_strings(EVEN_SHAPE, n)
        for _ in range(60):
            colors = {s: rng.getrandbits(1) for s in lvl}
            if rng.random() < 0.2:  # an uncoloured leaf, named in the error
                del colors[rng.choice(lvl)]
            if rng.random() < 0.2:  # strings off the leaf level are ignored
                colors[rng.choice(("", "0", "011"))] = rng.getrandbits(1)
            yield EVEN_SHAPE, n, Coloring(colors, 2)
    yield GRADED_SHAPE, 1, Coloring({}, 2)
    yield EVEN_SHAPE, 1, Coloring({}, 3)


def test_extract_twocol_refuses_bad_levels_before_building_any(monkeypatch):
    built = []
    real = colorings._bit_strings
    monkeypatch.setattr(colorings, "_bit_strings",
                        lambda length: built.append(length) or real(length))
    for n, error in ((-1, ShapeError), (11, BudgetError)):
        with pytest.raises(error):
            extract_twocol(EVEN_SHAPE, n, Coloring({}, 2))
    assert built == []


def test_extract_twocol_matches_naive_extraction():
    rng = random.Random(2024)
    errors = 0
    for shape, n, c in _twocol_cases(rng):
        got = _outcome(extract_twocol, shape, n, c)
        assert got == _outcome(_naive_extract_twocol, shape, n, c)
        errors += got[0] is ShapeError
    assert errors > 20


def _nice_cases(rng):
    for i, n in itertools.product(range(4), range(4)):
        if n - i > 2:
            continue  # keeps the trees small
        for _ in range(12):
            t0 = set(random_kappa_tree(rng, i, n))
            roll = rng.random()
            if roll < 0.1:  # another schedule: not kappa(i)-compatible
                t0 = set(random_kappa_tree(rng, i + 1, n))
            elif roll < 0.2 and n >= 2:  # a cut branch: mixed leaf levels
                cut = rng.choice(sorted(m for m in t0 if len(m) == 2))
                t0 = {m for m in t0 if m == cut or not m.startswith(cut)}
            lvs = [m for m in t0 if GRADED_SHAPE.level_of_length(len(m)) == n]
            kept = rng.choice((1, 0.85, 0.85, 0.2))  # some leaves uncoloured
            colors = {s: rng.randrange(ncol(i)) for s in lvs
                      if rng.random() < kept}
            if rng.random() < 0.2:  # few colours, so majorities form
                colors = {s: rng.randrange(2) for s in lvs}
            yield GRADED_SHAPE, i, frozenset(t0), Coloring(colors, ncol(i))
    t = frozenset(random_kappa_tree(rng, 0, 1))
    yield GRADED_SHAPE, 0, t, Coloring({}, 4)
    yield EVEN_SHAPE, 0, t, Coloring({}, 2)


def test_extract_nice_matches_naive_extraction():
    rng = random.Random(77)
    kinds = set()
    for shape, i, t0, c in _nice_cases(rng):
        got = _outcome(extract_nice, shape, i, t0, c)
        assert got == _outcome(_naive_extract_nice, shape, i, t0, c)
        kinds.add(got[1] if got[0] is ShapeError else "ok")
        if got[0] is not ShapeError:
            # the index extract_nice hands over is the one a build gives
            t1 = got[1]
            assert index_items(t1._idx) == \
                index_items(trees._build_index(t1))
            kinds.add("kept whole" if t1 == t0 else "thinned")
    assert kinds == {"ok", "kept whole", "thinned",
                     "input tree is not kappa(i)-compatible",
                     "leaves sit at mixed levels", "expected an ncol(0)-colouring",
                     "graded shape required"}


def _nice_outcome_per_colouring(rng, i, n, t0):
    """One outcome of nice_outcomes as it was computed before t0 was
    checked once per tree: every colouring runs extract_nice, input
    checks included."""
    c = Coloring({s: rng.randrange(ncol(i)) for s in leaves(t0)}, ncol(i))
    try:
        d, t1 = extract_nice(GRADED_SHAPE, i, t0, c)
    except ValueError as e:
        return None, str(e)
    if verify_extraction(GRADED_SHAPE, lambda k: kappa(i + 1, k), n, c, d, t1):
        return d, None
    return d, f"d={d}"


def test_nice_outcomes_match_one_extraction_per_colouring():
    # the same outcomes and the same draws, refused trees included
    rng = random.Random(41)
    kinds = set()
    for shape, i, t0, _ in _nice_cases(rng):
        if shape is not GRADED_SHAPE:
            continue
        n, seed = max_level(t0), rng.random()
        mine, theirs = random.Random(seed), random.Random(seed)
        got = list(islice(nice_outcomes(mine, i, n, t0), 3))
        assert got == [_nice_outcome_per_colouring(theirs, i, n, t0)
                       for _ in range(3)]
        assert mine.getstate() == theirs.getstate()
        kinds.update("ok" if d is not None else bad for d, bad in got)
    assert kinds == {"ok", "input tree is not kappa(i)-compatible",
                     "leaves sit at mixed levels"}


def test_extraction_checks_build_no_index(monkeypatch):
    builds = []
    real = trees._build_index
    monkeypatch.setattr(trees, "_build_index",
                        lambda t: builds.append(len(t)) or real(t))
    rng = random.Random(5)
    lvl = bushy_level_strings(EVEN_SHAPE, 3)
    for _ in range(20):
        c = Coloring({s: rng.getrandbits(1) for s in lvl}, 2)
        d, sub = extract_twocol(EVEN_SHAPE, 3, c)
        assert verify_extraction(EVEN_SHAPE, lambda k: 2, 3, c, d, sub)
        assert not verify_extraction(EVEN_SHAPE, lambda k: 2, 3, c, 1 - d,
                                     Tree(sub | {"0"}))
    assert builds == []
    for i, n in ((0, 2), (1, 3)):
        t0 = random_kappa_tree(rng, i, n)
        c = Coloring({s: rng.randrange(ncol(i)) for s in leaves(t0)}, ncol(i))
        builds.clear()
        d, t1 = extract_nice(GRADED_SHAPE, i, t0, c)
        assert builds == []  # t0 was indexed by the leaves() call above
        assert verify_extraction(GRADED_SHAPE, lambda k: kappa(i + 1, k), n,
                                 c, d, t1)
        assert builds == []
    assert [ln.status for ln in suite._chk_twocol("twocol-exh-n1", None, 1)] \
        == ["PASS"]
    assert builds == []
