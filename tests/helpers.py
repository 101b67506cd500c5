"""Library-level helpers that only the tests call: three oracles, a
checked pullback, a driver-stage fixture, a spoiled readback, a tree
index as plain data, one traceable act as a whole-state step, a
table constructor and a copy of a table with no kept answers."""

from __future__ import annotations

import copy
from typing import Iterable, Optional

from branchlab.errors import ShapeError
from branchlab.functionals import (Axiom, FunctionalTable, _checked_outputs,
                                   _pullback_tree, output_prefix,
                                   outputs_split)
from branchlab.smc import ThetaAxioms, oplus_tree
from branchlab.strings import compatible, sort_lenlex
from branchlab.traceable import ConstructionState, WorkingState
from branchlab.trees import StagedTree, Tree, leaves, successors


def table(axioms: Iterable[Axiom]) -> FunctionalTable:
    """The table of the axioms, from any iterable of them."""
    return FunctionalTable(tuple(axioms))


def unkept(f: FunctionalTable) -> FunctionalTable:
    """A table with f's axioms that is not the live instance, so not
    equal to f, and keeps no guarded answers yet: the empty-memo side
    of a comparison.  A copy skips the class call, so the registry
    never hands it out."""
    g = copy.copy(f)
    object.__setattr__(g, "_hat_values", {})
    object.__setattr__(g, "_hat_outputs", {})
    return g


def _naive_bounded_value(f: FunctionalTable, tau: str, n: int,
                         steps: int) -> Optional[int]:
    """The value at (tau, n) within steps steps, by a full-table scan:
    the oracle of functionals.value_within."""
    axs = [ax for ax in f.axioms
           if ax[1] == n and tau.startswith(ax[0]) and ax[3] <= steps]
    if not axs:
        return None
    return min(axs, key=lambda ax: (ax[3], len(ax[0]), ax[0]))[2]


def is_splitting_pair(f: FunctionalTable, a: str, b: str,
                      hat: bool = False) -> bool:
    """True iff the outputs on a and b disagree at a common argument:
    the pairwise oracle of the driver-stage and splitting tests.

    Only incompatible strings can form a splitting pair.
    """
    if compatible(a, b):
        raise ShapeError(f"{a!r} and {b!r} are compatible")
    return outputs_split(output_prefix(f, a, hat=hat),
                         output_prefix(f, b, hat=hat))


def pullback_tree(f: FunctionalTable, t0: Iterable[str], t2: Iterable[str],
                  hat: bool = False) -> Tree:
    """Members of t0 whose outputs land in t2, with every check the
    suite and the driver stage make on the shared body _pullback_tree."""
    t0 = Tree(t0)
    t2 = Tree(t2)
    return _pullback_tree(t0, t2, _checked_outputs(f, t0, hat))


def constant_psi(a_prefix: str, value: int = 0) -> FunctionalTable:
    """A driver-stage fixture with odd_readback_psi's support and
    constant outputs: nothing ever splits."""
    axioms = [(m, len(m) // 2 - 1, value, 1)
              for m in oplus_tree(a_prefix) if m]
    return FunctionalTable(tuple(axioms))


def nest_codes(cover: tuple[dict[str, Tree], ThetaAxioms]):
    """build_tprime's cover with one more code for the target of its
    longest source: that source extended by a 0, which nests the codes
    for that target."""
    tp, theta = cover
    src = max(theta.axioms, key=len)
    return tp, ThetaAxioms({**theta.axioms, src + "0": theta.axioms[src]})


def staged_ce_violation(st: StagedTree, weak: bool = False) -> Optional[str]:
    """First violation of the enumeration discipline, or None.

    Plain mode: one string at stage 0 and every later string extends a
    leaf of the previous snapshot.  Weak mode: stage 0 is exactly the
    root, at most one string arrives per stage, and each arrival is a
    leaf of the snapshot it joins.
    """
    stages = st.stages
    if not stages:
        return "no stages"
    if weak:
        if stages[0] != frozenset({""}):
            return "stage 0 must be exactly the empty string"
    else:
        if len(stages[0]) != 1:
            return "stage 0 must hold exactly one string"
    for s in range(1, len(stages)):
        prev, cur = stages[s - 1], stages[s]
        if not prev <= cur:
            gone = sort_lenlex(prev - cur)[0]
            return f"stage {s} dropped {gone!r}"
        new = cur - prev
        if weak and len(new) > 1:
            return f"stage {s} added {len(new)} strings"
        for tau in sort_lenlex(new):
            if weak:
                if successors(cur, tau):
                    return f"stage {s}: {tau!r} is not a leaf of its snapshot"
            else:
                prev_leaves = leaves(prev) if prev else ()
                if not any(tau.startswith(lf) and tau != lf for lf in prev_leaves):
                    return f"stage {s}: {tau!r} extends no leaf of the previous snapshot"
    return None


def index_items(idx) -> tuple:
    """A tree index as plain data, mapping order included."""
    return (list(idx.level.items()), list(idx.successors.items()),
            idx.leaves, idx.levels)


def act_frozen(act, st: ConstructionState,
               *args) -> Optional[ConstructionState]:
    """The state after act (act_c_module or act_p_module) fires on a
    working copy of st, or None if it does not fire: one act as a step
    from state to state, to set beside the naive acts."""
    work = WorkingState(st)
    return work.freeze() if act(work, *args) else None
