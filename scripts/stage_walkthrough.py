#!/usr/bin/env python3
"""Walk the stagewise pruning construction against a random adversary.

Prints, per stage, the live frontier and the declared node counts next
to their ceilings, then the final trace table.  Useful for eyeballing
how the modules reshape the tree.
"""

import argparse
import random

from branchlab.cupping import EMPTY_BUNDLE, bundle
from branchlab.gen import random_functional_table
from branchlab.strings import show_string
from branchlab.traceable import (declared_counts, extract_trace, frontier,
                                 init_state, node_count_bound, stage_run,
                                 trace_bound_pair, verify_final_nodes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--horizon", type=int, default=8)
    ap.add_argument("--tables", type=int, default=2,
                    help="adversary functionals (0 for the empty bundle)")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    if args.tables:
        adv = bundle([random_functional_table(rng, axioms=rng.randint(8, 40))
                      for _ in range(args.tables)])
    else:
        adv = EMPTY_BUNDLE

    st = init_state()
    for st in stage_run(adv, args.horizon):
        live = frontier(st)
        print(f"stage {st.stage}: frontier {len(live)} "
              f"({' '.join(show_string(x) for x in live[:6])}"
              f"{' ...' if len(live) > 6 else ''})")

    print("\nnode generations (level: count / ceiling)")
    for n, c in sorted(declared_counts(st).items()):
        print(f"  {n}: {c} / {node_count_bound(n)}")

    print("\ntrace table (module i, argument n)")
    report = extract_trace(st)
    for i in sorted(report.per_i):
        for n, ds in sorted(report.per_i[i].items()):
            print(f"  C({i},{n}): {len(ds)} value(s) {sorted(ds)}, "
                  f"size ceiling {trace_bound_pair(i, n)[1]}")

    ok = verify_final_nodes(st, adv)
    print(f"\nguarded-branch diagonalization: {'clean' if ok else 'BROKEN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
