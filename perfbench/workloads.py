"""The operations each workload runs and the seeded inputs they read.

An operation is one `scbound.cli.main([...])` call. Seed 0 gives every
analyze/simulate operation its built-in's default input; any other seed
draws a full-support product input (two Dirichlet(1) marginals, each symbol
floored at FLOOR_SHARE / k). Inputs must be products: the protocols' info
inequality check assumes independent inputs. `reproduce` is the paper's
fixed table and ignores the seed.

The CLI rejects `--builtin` together with `--dist` for every built-in (JSON
symbols load as strings, built-in symbols are tuples), so an analyze
operation reads the built-in's channel from a JSON file, and the built-in
closure run of each simulate pair always uses the default input. Its
lookup-table twin gets the seed's input, and the checks compare it with an
in-process run of the built-in at that same input.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

FLOOR_SHARE = 0.1

WHY = {
    "reproduce": "the 8-row worked-example table: polish-dominated scalar optimizer calls "
                 "across every bound family, CMSS and a small run_exact",
    "analyze-wide": "group-add orders 4-6 and remote-ot m=3: the nested switched/conditional "
                    "sweep dominates, with grid coarsening and the Dirichlet scan path",
    "simulate-n3": "exact execution and verify checks at block length 3 and 2, as closures "
                   "and as lookup tables; no optimizer code runs",
}

_COARSE = ["--grid", "0.25", "--refine", "4"]

# (op id, built-in, params, extra CLI flags)
_ANALYZE = {
    False: [
        ("group-add-4", "group-add", {"order": 4}, []),
        ("group-add-5", "group-add", {"order": 5}, []),
        ("group-add-6", "group-add", {"order": 6}, []),
        ("remote-ot-3", "remote-ot", {"m": 3}, []),
    ],
    True: [("group-add-3-coarse", "group-add", {"order": 3}, _COARSE)],
}

_SIMULATE = {
    False: [
        ("sum-n3", "sum", {"n": 3}),
        ("erasure-n3", "erasure", {"n": 3}),
        ("group-add-2-n3", "group-add", {"order": 2, "n": 3}),
        ("and-n2", "and", {"n": 2}),
        ("group-add-2-n2", "group-add", {"order": 2, "n": 2}),
        ("sum-n2", "sum", {"n": 2}),
        ("erasure-n2", "erasure", {"n": 2}),
        ("remote-ot-2-n2", "remote-ot", {"m": 2, "n": 2}),
    ],
    True: [("sum-n1", "sum", {"n": 1})],
}

_REPRODUCE = {
    False: [("reproduce", [])],
    # every row is still computed; --only keeps the exit code to one row
    True: [("reproduce-coarse", ["--only", "group-add-2"] + _COARSE)],
}


@dataclass
class Op:
    id: str
    argv: list
    kind: str  # "reproduce", "analyze" or "simulate"
    builtin: object = None  # the matching scbound built-in, for the checks
    p_xy: object = None  # its input, with the built-in's own symbols


def _flags(params):
    return [s for k, v in sorted(params.items()) for s in ("--" + k, str(v))]


def draw_input(b, seed, index):
    """The op's input: the built-in default at seed 0, else a drawn product."""
    from scbound.dists import JointDist

    if seed == 0:
        return b.default_input
    rng = np.random.default_rng([seed, index])
    marginals = []
    for axis in (b.channel.x_axis, b.channel.y_axis):
        k = len(axis)
        floor = FLOOR_SHARE / k
        marginals.append(floor + (1.0 - k * floor) * rng.dirichlet(np.ones(k)))
    return JointDist((b.channel.x_axis, b.channel.y_axis), np.outer(*marginals))


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def setup(workload, seed, smoke, indir):
    """Build the built-ins, write their input files, and return the ops."""
    from scbound.dists import channel_to_json, dist_to_json
    from scbound.protocols import builtin, spec_to_json

    os.makedirs(indir, exist_ok=True)
    if workload == "reproduce":
        return [Op(oid, ["reproduce"] + extra, "reproduce") for oid, extra in _REPRODUCE[smoke]]
    ops = []
    if workload == "analyze-wide":
        for index, (oid, name, params, extra) in enumerate(_ANALYZE[smoke]):
            b = builtin(name, **params)
            p_xy = draw_input(b, seed, index)
            ch = _write(os.path.join(indir, oid + ".channel.json"), channel_to_json(b.channel))
            dist = _write(os.path.join(indir, oid + ".dist.json"), dist_to_json(p_xy))
            argv = ["analyze", "--channel", ch, "--dist", dist] + extra
            ops.append(Op(oid, argv, "analyze", b, p_xy))
        return ops
    if workload == "simulate-n3":
        for index, (oid, name, params) in enumerate(_SIMULATE[smoke]):
            b = builtin(name, **params)
            p_xy = draw_input(b, seed, index)
            spec = _write(os.path.join(indir, oid + ".spec.json"), spec_to_json(b.spec))
            dist = _write(os.path.join(indir, oid + ".dist.json"), dist_to_json(p_xy))
            ops.append(Op(oid + ".builtin", ["simulate", "--builtin", name] + _flags(params),
                          "simulate", b, b.default_input))
            ops.append(Op(oid + ".table", ["simulate", "--spec", spec, "--dist", dist],
                          "simulate", b, p_xy))
        return ops
    raise ValueError("unknown workload %r" % workload)
