#!/usr/bin/env python3
"""Record the reference digests in digests.json.

Runs each workload's first ``ref_cases`` cases on the default seed in a
fresh interpreter and stores their per-case output hashes and the
digest over them.  run.py fails any case of a default-seed run whose
hash differs.  Only re-record when a change is meant to alter the
library's outputs.  Run from the root of a checkout:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED, DIGESTS, run_worker, digest_of

sys.path.insert(0, str(Path.cwd() / "src"))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    root = Path.cwd()
    out = {}
    for name, wl in WORKLOADS.items():
        res = run_worker(root, time.monotonic() + 600, DEFAULT_SEED,
                         "--workload", name, "--cases", str(wl.ref_cases))
        if res["failed_cases"]:
            print(f"{name}: cases {res['failed_cases']} failed; "
                  "nothing recorded", file=sys.stderr)
            return 1
        out[name] = {"seed": DEFAULT_SEED, "cases": wl.ref_cases,
                     "sha256": digest_of(res["case_hashes"]),
                     "per_case": res["case_hashes"]}
        print(f"{name}: {out[name]['sha256']}")
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
