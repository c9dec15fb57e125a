"""Command line front end: bound reports, protocol simulation, and the
reproduction table for the worked examples.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 capacity exceeded.
"""

import argparse
import json
import math
import sys
import time

from . import __version__
from .bounds import best_bounds
from .cmss import separation_report
from .dists import (
    CapacityError,
    JointDist,
    channel_from_json,
    dist_from_json,
    dumps,
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


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))


def _builtin_params(args):
    params = {"n": args.n}
    if args.builtin == "group-add":
        params["order"] = args.order
    if args.builtin == "remote-ot":
        params["m"] = args.m
    if args.builtin == "erasure":
        params["p"] = args.p
        params["q"] = args.q
    return params


def _resolve_channel(args):
    if args.builtin:
        b = builtin(args.builtin, **_builtin_params(args))
        ch, default_input = b.channel, b.default_input
    elif args.channel:
        ch = channel_from_json(_load_json(args.channel))
        default_input = JointDist.uniform((ch.x_axis, ch.y_axis))
    else:
        raise UsageError("need --builtin or --channel")
    if args.dist:
        p_xy = _load_dist(args.dist, (ch.x_axis, ch.y_axis))
    else:
        p_xy = default_input
    return ch, p_xy


def _load_dist(path, axes):
    """Read --dist onto `axes`. JSON loads every symbol as a string, so a
    file whose axes are `axes` as written by dist_to_json (same names, same
    symbols under sym_str, in order) is re-keyed onto `axes` themselves."""
    p_xy = dist_from_json(_load_json(path))
    written = tuple((a.name, tuple(sym_str(s) for s in a.symbols)) for a in axes)
    if tuple((a.name, a.symbols) for a in p_xy.axes) != written:
        raise UsageError("--dist axes do not match the input alphabets")
    return JointDist(axes, p_xy.probs)


def _config(args):
    return OptConfig(grid_resolution=args.grid, refine_iters=args.refine)


def _manifest(args, cfg, t0):
    return {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.cmd,
        "inputs": {k: getattr(args, k) for k in ("builtin", "channel", "dist", "spec")
                   if getattr(args, k, None)},
        "config": {"grid_resolution": cfg.grid_resolution, "refine_iters": cfg.refine_iters},
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }


def _emit(args, payload):
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload):
    rows = []
    if "links" in payload:
        rows.append("link,value,theorem")
        for link in ("m12", "m23", "m31"):
            lb = payload["links"][link]
            rows.append("%s,%.12g,%s" % (link, lb["value"], lb["theorem"]))
        rows.append("rho,%.12g," % payload["rho"])
    elif "rows" in payload:
        rows.append("name,link,bound,simulated,match")
        for r in payload["rows"]:
            for link in ("m12", "m23", "m31"):
                rows.append(
                    "%s,%s,%.12g,%.12g,%s"
                    % (r["name"], link, r["bounds"][link], r["simulated"][link], r["match"])
                )
    else:
        rows.append("key,value")
        for k, v in payload.items():
            if isinstance(v, (int, float, str, bool)):
                rows.append("%s,%s" % (k, v))
    return "\n".join(rows) + "\n"


def cmd_analyze(args):
    t0 = time.monotonic()
    cfg = _config(args)
    ch, p_xy = _resolve_channel(args)
    report = best_bounds(p_xy, ch, cfg)
    payload = report.to_json()
    payload["manifest"] = _manifest(args, cfg, t0)
    _emit(args, payload)
    return 0


def cmd_simulate(args):
    t0 = time.monotonic()
    cfg = _config(args)
    if args.spec:
        spec = spec_from_json(_load_json(args.spec))
        b = None
        ch = None
    elif args.builtin:
        b = builtin(args.builtin, **_builtin_params(args))
        spec, ch = b.spec, b.channel
    else:
        raise UsageError("need --builtin or --spec")
    if args.dist:
        p_xy = _load_dist(args.dist, (spec.x_axis, spec.y_axis))
    elif b is not None:
        p_xy = b.default_input
    else:
        p_xy = JointDist.uniform((spec.x_axis, spec.y_axis))
    e = run_exact(spec, p_xy)
    lengths = expected_lengths(spec, p_xy, execution=e)
    checks = {}
    if ch is not None:
        checks["correctness"] = verify_correctness(e, ch)
    pa, pb, pc = verify_privacy(e)
    checks.update({"privacy_alice": pa, "privacy_bob": pb, "privacy_charlie": pc})
    cx, cy, cz = verify_cutset(e)
    checks.update({"cutset_x": cx, "cutset_y": cy, "cutset_z": cz})
    i1, i2, i3 = verify_info_inequality(e)
    checks.update({"info_ineq_31_23": i1, "info_ineq_12_31": i2, "info_ineq_23_12": i3})
    payload = {
        "entropies": {l: e.h(l) for l in ("m12", "m23", "m31")},
        "expected_lengths": lengths,
        "checks": checks,
        "randomness_used": _randomness_used(e),
        "manifest": _manifest(args, cfg, t0),
    }
    _emit(args, payload)
    return 0 if all(checks.values()) else 2


def _randomness_used(e):
    from .dists import cond_entropy

    return cond_entropy(e.joint, (3, 4, 5), (0, 1))


# name, built-in (kind, parameters), per-link targets, randomness target
_REPRODUCE_ROWS = (
    ("and", ("and", {}), {"m12": 1.826, "m23": LOG3, "m31": LOG3}, 1.826),
    ("remote-ot-2", ("remote-ot", {"m": 2}), {"m12": 3.0, "m23": 2.0, "m31": 2.0}, 3.0),
    ("group-add-2", ("group-add", {"order": 2}), {"m12": 1.0, "m23": 1.0, "m31": 1.0}, 1.0),
    ("group-add-3", ("group-add", {"order": 3}), {l: LOG3 for l in ("m12", "m23", "m31")}, LOG3),
    ("group-add-6", ("group-add", {"order": 6}),
     {l: 1 + LOG3 for l in ("m12", "m23", "m31")}, 1 + LOG3),
    ("sum", ("sum", {}), {"m12": 1.5, "m23": LOG3, "m31": LOG3}, LOG3),
    ("erasure", ("erasure", {}), {"m12": 1.0, "m23": 1.0, "m31": 1.5}, 1.0),
)
_CMSS_ROW = "and-cmss-gap"


def _reproduce_rows(cfg, only=None):
    """The worked-example rows; with `only`, just the rows whose name contains
    it, and a UsageError before any work when none does."""
    names = [r[0] for r in _REPRODUCE_ROWS] + [_CMSS_ROW]
    if only is not None and not any(only in n for n in names):
        raise UsageError("--only %r matches no row" % only)
    tol = 2e-3
    rows = []
    for name, (kind, params), targets, rho_target in _REPRODUCE_ROWS:
        if only is not None and only not in name:
            continue
        b = builtin(kind, **params)
        rep = best_bounds(b.default_input, b.channel, cfg)
        e = run_exact(b.spec, b.default_input)
        sim = {l: e.h(l) for l in ("m12", "m23", "m31")}
        bounds = {l: rep.link(l).value for l in ("m12", "m23", "m31")}
        ok = all(bounds[l] >= targets[l] - tol for l in targets)
        ok = ok and rep.rho >= rho_target - tol
        ok = ok and all(sim[l] >= bounds[l] - 1e-9 for l in sim)
        rows.append(
            {
                "name": name,
                "bounds": bounds,
                "simulated": sim,
                "rho": rep.rho,
                "targets": targets,
                "match": ok,
            }
        )

    if only is None or only in _CMSS_ROW:
        sep = separation_report(cfg=cfg)
        rows.append(
            {
                "name": _CMSS_ROW,
                "bounds": sep.cmss_bounds,
                "simulated": sep.scheme_entropies,
                "rho": 0.0,
                "targets": {l: LOG3 for l in ("m12", "m23", "m31")},
                "match": abs(sep.gaps["m12"] - (1.826 - LOG3)) <= tol
                and all(abs(sep.scheme_entropies[l] - LOG3) <= 1e-9 for l in sep.scheme_entropies),
            }
        )
    return rows


def cmd_reproduce(args):
    t0 = time.monotonic()
    cfg = _config(args)
    rows = _reproduce_rows(cfg, args.only)
    payload = {"rows": rows, "manifest": _manifest(args, cfg, t0)}
    _emit(args, payload)
    return 0 if all(r["match"] for r in rows) else 2


def _add_common(p):
    p.add_argument("--grid", type=float, default=0.02, help="grid resolution for the scans")
    p.add_argument("--refine", type=int, default=60, help="refinement line searches")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_builtin(p):
    p.add_argument("--builtin", choices=("and", "group-add", "sum", "erasure", "remote-ot"))
    p.add_argument("--order", type=int, default=2, help="group order for group-add")
    p.add_argument("--m", type=int, default=2, help="number of strings for remote-ot")
    p.add_argument("--n", type=int, default=1, help="block length")
    p.add_argument("--p", type=float, default=0.5, help="Bernoulli parameter for Alice (erasure)")
    p.add_argument("--q", type=float, default=0.5, help="Bernoulli parameter for Bob (erasure)")
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
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze, spec=None)

    ps = sub.add_parser("simulate", help="run a protocol exactly and verify it")
    ps.add_argument("--spec", help="JSON protocol file")
    _add_builtin(ps)
    _add_common(ps)
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("reproduce", help="re-derive the worked-example table")
    pr.add_argument("--only", help="restrict to rows whose name contains this")
    _add_common(pr)
    pr.set_defaults(func=cmd_reproduce, builtin=None, channel=None, dist=None, spec=None)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ProtocolSpecError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CapacityError as exc:
        print("capacity: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
