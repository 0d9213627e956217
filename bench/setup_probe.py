"""Set up one workload in a fresh interpreter, then print "ready".

run.py starts this script several times and times each start until the
"ready" line, which gives setup_s: interpreter start, `import nonauto`,
building the sequences and filling their caches to the workload's depth.
Usage: setup_probe.py WORKLOAD SEED SIZE OUT_DIR
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, size, out = sys.argv[1:]
workloads.WORKLOADS[name].setup(int(seed), workloads.SIZES[size][name], Path(out))
print("ready", flush=True)
