#!/usr/bin/env python3
"""Print one digest line per report of a fixed set of scbound commands.

Each line is the command's exit code, the sha256 of its report without the
`manifest` block (which holds the wall time), and the command, with the
paths of the input files it writes named relative to their temporary
directory. Two checkouts give the same reports iff `diff` of their outputs
is empty:

    python scripts/report_digests.py > a.txt   # in each checkout
    diff a.txt b.txt

The commands are `reproduce` (JSON and CSV), `analyze` of every built-in at
its defaults and at a few parameter choices, every `analyze-wide` operation
of the benchmark at seeds 0-2 (from perfbench/workloads.py), group-add of
orders 8 and 14 and sum at n = 2 read with `--channel`, a 4 x 4 x 2 channel
one cell off a symmetric one (its automorphism search finds only the
identity, so its nested sweep scores the whole grid), a channel that
reduces to AND by merges (with and without `--dist`), and `simulate` of
every built-in. They run in this process, one after another: about 4 s in
all on 2 cores with one BLAS thread.

Usage: python scripts/report_digests.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
# scbound from the src/ next to this script, whatever the working directory
sys.path.insert(0, os.path.join(ROOT, "src"))

from scbound.cli import main as scbound_main  # noqa: E402
from scbound.dists import channel_to_json, dumps  # noqa: E402
from scbound.protocols import BUILTINS, builtin  # noqa: E402

ANALYZE_PARAMS = (
    ["and", "--n", "2"],
    ["and", "--n", "3"],
    ["group-add", "--order", "3", "--n", "2"],
    ["group-add", "--order", "5"],
    ["remote-ot", "--m", "2", "--n", "2"],
    ["remote-ot", "--m", "3"],
    ["erasure", "--p", "1"],
)
# a channel that reduces to AND by one merge of each kind: x=1 and x=2 have
# equal rows, and outputs "0" and "0'" are proportional; and an input law on it
MERGES = {
    "axes": [{"name": "X", "symbols": ["0", "1", "2"]}, {"name": "Y", "symbols": ["0", "1"]},
             {"name": "Z", "symbols": ["0", "0'", "1"]}],
    "kernel": [{"t": [x, y], "row": {"1": 1.0} if x != "0" and y == "1"
                else {"0": 0.5, "0'": 0.5}}
               for x in ("0", "1", "2") for y in ("0", "1")],
}
# a 4 x 4 x 2 channel whose rows depend on x + y mod 4 but for the one cell
# (0, 1): the shifts x -> x + a, y -> y - a would be its automorphisms, and
# the cell leaves it none, so its nested sweep scores the whole grid
NEAR_SYMMETRIC = {
    "axes": [{"name": a, "symbols": ["0", "1", "2", "3"]} for a in "XY"]
    + [{"name": "Z", "symbols": ["0", "1"]}],
    "kernel": [{"t": [str(x), str(y)], "row": {"0": 1 - p, "1": p}}
               for x in range(4) for y in range(4)
               for p in [0.9 if (x, y) == (0, 1) else ((x + y) % 4 + 1) / 6]],
}
MERGES_DIST = {
    "axes": MERGES["axes"][:2],
    "pmf": [{"t": [x, y], "p": 0.25 if x == "0" else 0.125}
            for x in ("0", "1", "2") for y in ("0", "1")],
}


def digest(argv):
    """(exit code, sha256 hex of the report without its manifest) of one
    in-process scbound command. A report that is not JSON (CSV, or nothing
    on an error exit) is hashed as printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = scbound_main(argv)
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    if isinstance(report, dict):
        report.pop("manifest", None)
        text = dumps(report)
    return code, hashlib.sha256(text.encode()).hexdigest()


def _write(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))
    return path


def commands(tmp):
    """Every command, as argv lists; the input files go under `tmp`."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cmds = [["reproduce"], ["reproduce", "--format", "csv"]]
    cmds += [["analyze", "--builtin", name] for name in BUILTINS]
    cmds += [["analyze", "--builtin"] + params for params in ANALYZE_PARAMS]
    for seed in range(3):
        indir = os.path.join(tmp, "seed%d" % seed)
        cmds += [op.argv for op in workloads.setup("analyze-wide", seed, False, indir)]
    for name, params in (("group-add", {"order": 8}), ("group-add", {"order": 14}),
                         ("sum", {"n": 2})):
        ch = channel_to_json(builtin(name, **params).channel)
        stem = "-".join([name] + ["%s" % v for v in params.values()])
        cmds.append(["analyze", "--channel", _write(os.path.join(tmp, stem + ".json"), ch)])
    cmds.append(["analyze", "--channel",
                 _write(os.path.join(tmp, "near-symmetric.json"), NEAR_SYMMETRIC)])
    merges = _write(os.path.join(tmp, "merges.json"), MERGES)
    cmds.append(["analyze", "--channel", merges])
    cmds.append(["analyze", "--channel", merges,
                 "--dist", _write(os.path.join(tmp, "merges-dist.json"), MERGES_DIST)])
    cmds += [["simulate", "--builtin", name] for name in BUILTINS]
    return cmds


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(tmp):
            code, sha = digest(argv)
            shown = " ".join(argv).replace(tmp + os.sep, "")
            print("%d %s %s" % (code, sha, shown), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
