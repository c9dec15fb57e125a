"""One fresh process of the benchmark: set up a workload, run its operations
in passes, then check every report.

Started by run.py; prints one JSON object as its last stdout line. Modes:
  setup     set up only, report the set-up time
  measure   untraced passes until --seconds have elapsed (at least one)
  traced    install the span wrappers, set up, run one traced pass
  record    one untraced pass at seed 0, then store its reports' values as
            the workload's references
"""

import argparse
import json
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env_record():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **{k: os.environ.get(k, "unset")
           for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "SCBOUND_THREADS")},
    }


def run_pass(cli, ops, outdir, tracer=None):
    """Run every op once; returns (pass wall, per-op seconds, exit codes)."""
    os.makedirs(outdir, exist_ok=True)
    times, codes = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        t = clock()
        try:
            rc = cli.main(op.argv + ["--out", os.path.join(outdir, op.id + ".json")])
        except Exception as exc:  # an op that raises is a failed op, not a crash
            print("op %s raised %r" % (op.id, exc), file=sys.stderr)
            rc = "raised %s" % type(exc).__name__
        times.append(clock() - t)
        codes.append(rc)
    wall = clock() - start
    if tracer is not None:
        tracer.op = None
    return wall, times, codes


def check_passes(workload_key, ops, passes, refs, seed):
    """Check every op of every pass; returns (attempted, failed, deficit)."""
    from checks import Simulator, check, load_report

    simulate = Simulator()
    attempted = failed = 0
    deficit = 0.0
    for outdir, codes in passes:
        for op, rc in zip(ops, codes):
            attempted += 1
            try:
                report = load_report(os.path.join(outdir, op.id + ".json")) if rc == 0 else None
                problems, short = check(op, rc, report, refs.get(workload_key, {}).get(op.id),
                                        seed, simulate)
            except (OSError, ValueError, KeyError, TypeError) as exc:  # a malformed report
                problems, short = ["report unreadable: %r" % exc], 0.0
            deficit = max(deficit, short)
            if problems:
                failed += 1
                print("op %s failed: %s" % (op.id, "; ".join(problems)), file=sys.stderr)
    return attempted, failed, deficit


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "traced", "record"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--references", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(_ROOT, "src"))
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.op = "setup"
    from scbound import cli

    import workloads

    ops = workloads.setup(args.workload, args.seed, args.smoke,
                          os.path.join(args.workdir, "inputs"))
    setup_s = time.monotonic() - args.spawned
    if tracer is not None:
        tracer.op = None
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    passes, walls, op_max = [], [], []
    start = time.monotonic()
    while True:
        outdir = os.path.join(args.workdir, "pass%d" % len(passes))
        wall, times, codes = run_pass(cli, ops, outdir, tracer)
        passes.append((outdir, codes))
        walls.append(wall)
        op_max.append(max(times))
        if args.mode != "measure" or time.monotonic() - start >= args.seconds:
            break
    result.update(walls=walls, op_max=op_max,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  env=_env_record())

    workload_key = args.workload + (":smoke" if args.smoke else "")
    if args.mode == "record":
        from checks import load_report, reference_of

        refs = _load_refs(args.references)
        refs[workload_key] = {
            op.id: reference_of(op, load_report(os.path.join(passes[0][0], op.id + ".json")))
            for op in ops
        }
        with open(args.references, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["span_count"] = len(tracer.spans)
        tracer.write(os.path.join(args.workdir, "spans.tsv"))
        tracer.spans.clear()

    refs = _load_refs(args.references)
    result["attempted"], result["failed"], result["deficit"] = check_passes(
        workload_key, ops, passes, refs, args.seed)
    print(json.dumps(result))
    return 0


def _load_refs(path):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
