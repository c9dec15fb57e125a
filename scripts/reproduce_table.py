#!/usr/bin/env python3
"""Rebuild the worked-example table: per-link lower bounds next to the exact
transcript entropies of the matching protocol, one row per function.

Usage: python scripts/reproduce_table.py [--grid 0.02] [--refine 60]
"""

import argparse
import os
import sys
import time

# scbound from the src/ next to this script, whatever the working directory
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from scbound.cli import _reproduce_rows
from scbound.simplex import OptConfig


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=float, default=0.02)
    ap.add_argument("--refine", type=int, default=60)
    args = ap.parse_args()
    cfg = OptConfig(grid_resolution=args.grid, refine_iters=args.refine)

    t0 = time.monotonic()
    rows = _reproduce_rows(cfg)
    width = max(len(r["name"]) for r in rows)
    print("%-*s  %28s  %28s  %s" % (width, "function", "bound (m12/m23/m31)", "simulated", "match"))
    for r in rows:
        fmt = lambda d: "/".join("%8.5f" % d[l] for l in ("m12", "m23", "m31"))
        print("%-*s  %s  %s  %s" % (width, r["name"], fmt(r["bounds"]), fmt(r["simulated"]),
                                    "ok" if r["match"] else "MISMATCH"))
    print("total %.1fs" % (time.monotonic() - t0))
    return 0 if all(r["match"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
