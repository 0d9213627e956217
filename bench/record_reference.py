#!/usr/bin/env python3
"""Record bench/reference.json: the outputs that later runs are checked against.

Run once from the repository root at the commit whose outputs are the
reference (the values stored here come from the commit that added the
benchmark):

    python3 bench/record_reference.py

Only seed-independent outputs are recorded: radii, raster digests, a
potential-field subsample and the metric-table values.
"""
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def main() -> int:
    doc = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for size, table in workloads.SIZES.items():
            doc[size] = {}
            for name, wl in workloads.WORKLOADS.items():
                if name == "cli_custom":  # checked against oracles, nothing to record
                    doc[size][name] = {}
                    continue
                state = wl.setup(1, table[name], Path(tmp))
                outputs, _ = wl.run(state)
                doc[size][name] = wl.reference(state, outputs)
                print(f"recorded {size} {name}", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
