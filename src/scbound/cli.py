"""Command line front end: bound reports, protocol simulation, and the
reproduction table for the worked examples.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 capacity exceeded.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import __version__
from .bounds import best_bounds
from .cmss import separation_report
from .dists import (
    CapacityError,
    JointDist,
    LINKS,
    SUPPORT_EPS,
    channel_from_json,
    cond_entropy,
    dist_from_json,
    dumps,
    is_product,
    sym_str,
)
from .protocols import (
    ProtocolSpecError,
    builtin,
    expected_lengths,
    run_exact,
    spec_from_json,
    verify_correctness,
    verify_cutset,
    verify_info_inequality,
    verify_privacy,
)
from .simplex import OptConfig

LOG3 = math.log2(3.0)


class UsageError(Exception):
    pass


def _decode(path, decoder):
    """Read the JSON file at `path` and decode it; a file that is missing or
    not JSON, or content the decoder cannot read (a missing field or list
    entry, a wrong type, a bad value), is a UsageError naming the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    try:
        return decoder(obj)
    except (LookupError, TypeError, ValueError) as exc:
        raise UsageError("cannot read %s: %s: %s" % (path, type(exc).__name__, exc))


def _resolve(args):
    """(channel, input, protocol, built-in), each None where absent, from
    --spec (simulate), --builtin or --channel (analyze), the input from
    --dist or else the built-in's own or uniform. Two input sources, or a
    built-in flag without --builtin, are refused before any file is read."""
    given = ["--" + k for k in ("spec", "builtin", "channel") if getattr(args, k)]
    if len(given) > 1:
        raise UsageError("give one input, not %s" % " and ".join(given))
    params = {k: v for k in _PARAMS if (v := getattr(args, k)) is not None}
    if params and not args.builtin:
        raise UsageError("%s given without --builtin" % " ".join("--" + k for k in params))
    ch = spec = b = None
    if args.spec:
        spec = _decode(args.spec, spec_from_json)
        default = JointDist.uniform((spec.x_axis, spec.y_axis))
    elif args.builtin:
        b = builtin(args.builtin, **params)
        ch, spec, default = b.channel, b.spec, b.default_input
    elif args.channel:
        ch = _decode(args.channel, channel_from_json)
        default = JointDist.uniform((ch.x_axis, ch.y_axis))
    else:
        other = "--spec" if args.cmd == "simulate" else "--channel"
        raise UsageError("need --builtin or " + other)
    p_xy = _load_dist(args.dist, default.axes) if args.dist else default
    return ch, p_xy, spec, b


def _load_dist(path, axes):
    """Read --dist onto `axes`. JSON loads every symbol as a string, so a
    file whose axes are `axes` as written by dist_to_json (same names, same
    symbols under sym_str, in order) is re-keyed onto `axes` themselves."""
    p_xy = _decode(path, dist_from_json)
    written = tuple((a.name, tuple(sym_str(s) for s in a.symbols)) for a in axes)
    if tuple((a.name, a.symbols) for a in p_xy.axes) != written:
        raise UsageError("--dist axes do not match the input alphabets")
    return JointDist(axes, p_xy.probs)


def _config(args):
    return OptConfig(grid_resolution=args.grid, refine_iters=args.refine)


def _manifest(args, t0, cfg=None):
    return {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.cmd,
        "inputs": {k: getattr(args, k) for k in ("builtin", "channel", "dist", "spec")
                   if getattr(args, k, None)},
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 3),
        **({} if cfg is None else {"config": dataclasses.asdict(cfg)}),
    }


def _check_out(args):
    """Refuse an --out that is a directory or lies in a missing one before
    any work; the file itself is opened only by _emit, once the report is
    ready."""
    if args.out:
        parent = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(parent):
            raise UsageError("cannot write %s: no such directory %s" % (args.out, parent))
        if os.path.isdir(args.out):
            raise UsageError("cannot write %s: it is a directory" % args.out)


def _emit(args, payload):
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = dumps(payload) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (args.out, exc))
    else:
        sys.stdout.write(text)


def _to_csv(payload):
    rows = []
    if "links" in payload:
        rows.append("link,value,theorem")
        for link in LINKS:
            lb = payload["links"][link]
            rows.append("%s,%.12g,%s" % (link, lb["value"], lb["theorem"]))
        rows.append("rho,%.12g," % payload["rho"])
    elif "rows" in payload:
        rows.append("name,link,bound,simulated,match")
        for r in payload["rows"]:
            for link in LINKS:
                rows.append(
                    "%s,%s,%.12g,%.12g,%s"
                    % (r["name"], link, r["bounds"][link], r["simulated"][link], r["match"])
                )
    else:
        # simulate: dict fields flattened one level, as entropies.m12
        rows.append("key,value")
        for k, v in payload.items():
            if k == "manifest":
                continue
            for sub, val in v.items() if isinstance(v, dict) else [(None, v)]:
                val = "" if val is None else val  # a null check
                rows.append("%s,%s" % (k if sub is None else k + "." + sub, val))
    return "\n".join(rows) + "\n"


def _run_verified(spec, ch, p_xy):
    """Run `spec` exactly at p_xy and check it against `ch`. Returns the
    execution, whether it passes the correctness check and all three
    privacy checks, and its per-link entropies as upper values for
    best_bounds: only for a verified protocol at a full-support input,
    else None."""
    e = run_exact(spec, p_xy)
    verified = verify_correctness(e, ch) and all(verify_privacy(e))
    full = bool(p_xy.probs.min() > SUPPORT_EPS)
    return e, verified, {l: e.h(l) for l in LINKS} if verified and full else None


def cmd_analyze(args):
    t0 = time.monotonic()
    cfg = _config(args)
    ch, p_xy, spec, b = _resolve(args)
    upper = None
    if spec is not None:
        try:
            _, _, upper = _run_verified(spec, ch, p_xy)
        except CapacityError:
            pass  # too many branches to run: no upper values
    report = best_bounds(p_xy, ch, cfg, upper=upper)
    payload = report.to_json()
    if upper is not None:
        # the protocol, in the JSON form spec_from_json reads
        payload["upper_protocol"] = {"builtin": b.name, "params": b.params}
    payload["manifest"] = _manifest(args, t0, cfg)
    _emit(args, payload)
    return 0


def cmd_simulate(args):
    t0 = time.monotonic()
    ch, p_xy, spec, _ = _resolve(args)
    e = run_exact(spec, p_xy)
    lengths = expected_lengths(spec, p_xy, execution=e)
    checks = {}
    if ch is not None:
        checks["correctness"] = verify_correctness(e, ch)
    pa, pb, pc = verify_privacy(e)
    checks.update({"privacy_alice": pa, "privacy_bob": pb, "privacy_charlie": pc})
    cx, cy, cz = verify_cutset(e)
    checks.update({"cutset_x": cx, "cutset_y": cy, "cutset_z": cz})
    # the information inequality holds for independent inputs only: at
    # dependent ones its checks are null, not failed
    i1, i2, i3 = verify_info_inequality(e) if is_product(p_xy) else (None,) * 3
    checks.update({"info_ineq_31_23": i1, "info_ineq_12_31": i2, "info_ineq_23_12": i3})
    payload = {
        "entropies": {l: e.h(l) for l in LINKS},
        "expected_lengths": lengths,
        "checks": checks,
        "randomness_used": _randomness_used(e),
        "manifest": _manifest(args, t0),
    }
    _emit(args, payload)
    return 0 if all(v is None or v for v in checks.values()) else 2


def _randomness_used(e):
    return cond_entropy(e.joint, (3, 4, 5), (0, 1))


# name, built-in (kind, parameters), per-link targets, randomness target
_REPRODUCE_ROWS = (
    ("and", ("and", {}), {"m12": 1.826, "m23": LOG3, "m31": LOG3}, 1.826),
    ("remote-ot-2", ("remote-ot", {"m": 2}), {"m12": 3.0, "m23": 2.0, "m31": 2.0}, 3.0),
    ("group-add-2", ("group-add", {"order": 2}), {"m12": 1.0, "m23": 1.0, "m31": 1.0}, 1.0),
    ("group-add-3", ("group-add", {"order": 3}), {l: LOG3 for l in LINKS}, LOG3),
    ("group-add-6", ("group-add", {"order": 6}), {l: 1 + LOG3 for l in LINKS}, 1 + LOG3),
    ("sum", ("sum", {}), {"m12": 1.5, "m23": LOG3, "m31": LOG3}, LOG3),
    ("erasure", ("erasure", {}), {"m12": 1.0, "m23": 1.0, "m31": 1.5}, 1.0),
)
_CMSS_ROW = "and-cmss-gap"


def _verified_bounds(kind, params, cfg):
    """A built-in's verified run at its default input and its best_bounds
    report there, given the run's upper values."""
    b = builtin(kind, **params)
    e, verified, upper = _run_verified(b.spec, b.channel, b.default_input)
    return e, verified, best_bounds(b.default_input, b.channel, cfg, upper=upper)


def _reproduce_rows(cfg, only=None):
    """The worked-example rows; with `only`, just the rows whose name contains
    it, and a UsageError before any work when none does."""
    names = [r[0] for r in _REPRODUCE_ROWS] + [_CMSS_ROW]
    if only is not None and not any(only in n for n in names):
        raise UsageError("--only %r matches no row" % only)
    tol = 2e-3
    rows = []
    and_rep = None
    for name, (kind, params), targets, rho_target in _REPRODUCE_ROWS:
        if only is not None and only not in name:
            continue
        e, verified, rep = _verified_bounds(kind, params, cfg)
        if kind == "and":
            and_rep = rep
        sim = {l: e.h(l) for l in LINKS}
        bounds = {l: rep.link(l).value for l in LINKS}
        ok = verified and all(bounds[l] >= targets[l] - tol for l in targets)
        ok = ok and rep.rho >= rho_target - tol
        ok = ok and all(sim[l] >= bounds[l] - 1e-9 for l in sim)
        rows.append(
            {
                "name": name,
                "bounds": bounds,
                "simulated": sim,
                "rho": rep.rho,
                "targets": targets,
                "verified": verified,
                "skipped": {l: list(rep.link(l).skipped) for l in LINKS},
                "match": ok,
            }
        )

    if only is None or only in _CMSS_ROW:
        # AND's bounds, shared with the and row when that row ran
        sep = separation_report(cfg=cfg, report=and_rep or _verified_bounds("and", {}, cfg)[2])
        verified = all(sep.scheme_checks.values())
        rows.append(
            {
                "name": _CMSS_ROW,
                "bounds": sep.cmss_bounds,
                "simulated": sep.scheme_entropies,
                "rho": 0.0,
                "targets": {l: LOG3 for l in LINKS},
                "verified": verified,
                "skipped": {l: [] for l in LINKS},  # its bounds run every family
                "match": verified and abs(sep.gaps["m12"] - (1.826 - LOG3)) <= tol
                and all(abs(sep.scheme_entropies[l] - LOG3) <= 1e-9 for l in sep.scheme_entropies),
            }
        )
    return rows


def cmd_reproduce(args):
    t0 = time.monotonic()
    cfg = _config(args)
    rows = _reproduce_rows(cfg, args.only)
    payload = {"rows": rows, "manifest": _manifest(args, t0, cfg)}
    _emit(args, payload)
    return 0 if all(r["match"] for r in rows) else 2


def _add_optimizer(p):
    cfg = OptConfig()
    p.add_argument("--grid", type=float, default=cfg.grid_resolution, help="scan grid resolution")
    p.add_argument("--refine", type=int, default=cfg.refine_iters, help="refinement line searches")


def _add_common(p):
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


# a built-in takes the parameters, and defaults, of its builder's signature
_PARAMS = {
    "order": (int, "group order for group-add"),
    "m": (int, "number of strings for remote-ot"),
    "n": (int, "block length; for remote-ot, the string length in bits, not a block length"),
    "p": (float, "Bernoulli parameter for Alice (erasure)"),
    "q": (float, "Bernoulli parameter for Bob (erasure)"),
}


def _add_builtin(p):
    p.add_argument("--builtin", choices=("and", "group-add", "sum", "erasure", "remote-ot"))
    for name, (kind, text) in _PARAMS.items():
        p.add_argument("--" + name, type=kind, help=text)
    p.add_argument("--dist", help="JSON input distribution")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scbound",
        description="Transcript-entropy lower bounds and exact simulation "
        "for 3-party secure computation.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="compute per-link lower bounds")
    pa.add_argument("--channel", help="JSON channel file")
    _add_builtin(pa)
    _add_optimizer(pa)
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze, spec=None)

    ps = sub.add_parser("simulate", help="run a protocol exactly and verify it")
    ps.add_argument("--spec", help="JSON protocol file")
    _add_builtin(ps)
    _add_common(ps)
    ps.set_defaults(func=cmd_simulate, channel=None)

    pr = sub.add_parser("reproduce", help="re-derive the worked-example table")
    pr.add_argument("--only", help="restrict to rows whose name contains this")
    _add_optimizer(pr)
    _add_common(pr)
    pr.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _check_out(args)
        return args.func(args)
    except (UsageError, ValueError, ProtocolSpecError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CapacityError as exc:
        print("capacity: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
