#!/usr/bin/env python3
"""Scan the two-parameter landscape of the AND Alice-Bob bound.

For each (a, b) = (P[X'=1], P[Y'=1]) on a grid, evaluates the top row of the
separately-switched Alice-Bob expression with the second inner distribution
held uniform, and prints a CSV plus the grid argmax. The ridge peaks near
(0.456, 0.397) at about 1.826 bits.

Usage: python scripts/and_landscape.py [--step 0.02] [--csv out.csv]
"""

import argparse
import os
import sys

import numpy as np

# scbound from the src/ next to this script, whatever the working directory
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from scbound.bounds import term_value
from scbound.protocols import builtin


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--csv", help="write the full grid here")
    args = ap.parse_args()

    ch = builtin("and").channel
    grid = np.arange(args.step, 1.0, args.step)
    a, b = np.meshgrid(grid, grid, indexing="ij")
    laws = {"p_X'": np.stack([1 - a, a], -1), "p_Y'": np.stack([1 - b, b], -1),
            "p_Y''": [0.5, 0.5]}
    values = term_value(ch, "switched_m12_top", laws)  # the whole grid in one call
    rows = ["a,b,value"] + ["%.4f,%.4f,%.6f" % r for r in zip(a.flat, b.flat, values.flat)]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        print("wrote %d grid points to %s" % (len(rows) - 1, args.csv))
    i = np.argmax(values)  # the first grid point of the largest value
    print("grid argmax: a=%.3f b=%.3f value=%.6f" % (a.flat[i], b.flat[i], values.flat[i]))


if __name__ == "__main__":
    main()
