#!/usr/bin/env python3
"""Record ``reference.json``: the digest of every reference unit's output.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs define "correct" (the commit
that added the benchmark); every later run is checked against its
digests.  Each unit runs twice in this process, and the two digests
must agree.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import manifest
    import workloads

    table = {
        "source_sha256": manifest.source_sha256(ROOT),
        "git_commit": manifest.git_commit(ROOT),
        "blas": manifest.blas_info(),
        "workloads": {},
    }
    scratch = HERE / "out" / "reference-unit.out"
    scratch.parent.mkdir(parents=True, exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        start = time.perf_counter()
        digests = []
        for ident in range(wl.pool):
            first = workloads.digest(wl.unit(ident, scratch))
            if workloads.digest(wl.unit(ident, scratch)) != first:
                print(f"error: {name}:{ident} is not deterministic", file=sys.stderr)
                return 1
            digests.append(first)
        table["workloads"][name] = {"pool": wl.pool, "digests": digests}
        print(f"{name}: {wl.pool} units in {time.perf_counter() - start:.1f} s", flush=True)
    scratch.unlink(missing_ok=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
