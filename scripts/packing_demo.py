#!/usr/bin/env python3
"""Show the extension-packing selection on the worked two-star layout.

Builds the profile where the family below the root has two members,
runs the selection, and prints the pools, the settled pairs, the
exact budget sequence, and the selection verifier's verdict.  Exits 1
when the verifier finds a flaw.
"""

from branchlab.gen import staged_context
from branchlab.smc import select_extensions, selection_violation
from branchlab.strings import show_string


def main() -> int:
    ctx = staged_context({"": 0, "1": 2, "10": 4, "11": 4})
    nodes = [("10", 1), ("11", 1)]
    res = select_extensions(ctx, "1", nodes, "00")

    print("family below 1: two members at depth 1, base 00\n")
    for i, (name, d) in enumerate(nodes):
        pool = " ".join(show_string(s) for s in sorted(res.psi_pool[i]))
        a, b = res.sigma_pairs[i]
        print(f"  member {show_string(name)} (depth {d})")
        print(f"    pool    {pool}")
        print(f"    settled {show_string(a)}, {show_string(b)}")
    print(f"\nbudget sequence r = {tuple(str(x) for x in res.r)}")
    bad = selection_violation(ctx, nodes, "00", res)
    print(f"verifier: {bad or 'valid selection'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
