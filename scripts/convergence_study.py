#!/usr/bin/env python3
"""Convergence diagnostics for the monic Chebyshev sequence.

Prints the per-depth table (successive Klimek distances and the exact
capacities of the disk preimages) and the sampled distance between the
normalized potential and the segment potential for the classical
(non-monic) composition, which converges to the segment.
"""
import argparse
import sys

import numpy as np

from nonauto.green import Segment, UNIT_DISK, green_nonauto
from nonauto.klimek import convergence_table, table_to_csv
from nonauto.sequences import builtin, escape_radius_search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seq = builtin("minimal_chebyshev")
    radius = escape_radius_search(seq, args.n_max + 1)
    rows = convergence_table(seq, UNIT_DISK, range(1, args.n_max + 1),
                             escape_radius=radius)
    text = table_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(args.out)
    else:
        sys.stdout.write(text)

    classical = builtin("classical_chebyshev")
    c_radius = escape_radius_search(classical, args.n_max + 1)
    net = np.array([r * np.exp(1j * a)
                    for r in np.linspace(1.1, 3.0, 20)
                    for a in 2 * np.pi * np.arange(10) / 10])
    target = np.asarray(Segment().green(net))
    print("\nclassical composition vs segment potential:", file=sys.stderr)
    for n in range(2, min(args.n_max, 12) + 1, 2):
        vals = np.array([green_nonauto(classical, complex(z), n, c_radius).value
                         for z in net])
        sup = float(np.max(np.abs(vals - target)))
        print(f"  n={n:2d}  sup distance {sup:.3e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
