"""scbound benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

A closed loop with a single caller: each operation is one in-process
`scbound.cli.main([...])` call that writes its report to a file, run back
to back in a fresh child process per measurement (see workloads.py for the
operations and child.py for the process). Reports are checked after the
timed passes.

--trace 0 prints the end-to-end metrics: the median pass wall time, the
median over passes of the slowest operation, the child's peak resident
memory, and the median of SETUP_REPEATS set-ups in fresh processes.
--trace 1 runs one untraced pass and one traced pass, each in a fresh
process, and prints the per-layer metrics of the traced pass together with
its overhead. The last stdout line is the JSON result; the exit code is 0
when every operation passed its checks, 2 when one failed, and 1 when the
benchmark could not run at all (no result is printed then).

--record-references re-runs a workload at seed 0 and stores its reports'
values in references.json. --smoke swaps in one tiny operation per workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import CORRECTNESS, END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workloads import WHY  # noqa: E402

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    """Environment of the children. Unless the caller set them, BLAS pools get
    one thread: the loop has a single caller, and on 2 cores a second BLAS
    thread left group-add order 5 no faster while doubling its spread."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode, args, workdir, deadline, seconds=0.0):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--workdir", workdir, "--references", args.references]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the %s child" % mode)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s child exceeded the time limit" % mode)
    if proc.returncode != 0:
        raise BenchError("%s child exited with %d" % (mode, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s child printed no result" % mode)
    return json.loads(lines[-1])


def _fresh_dir(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def measure(args, work, deadline):
    """End-to-end metrics of the untraced run."""

    def set_up(first, count):
        return [spawn("setup", args, os.path.join(work, "setup%d" % i), deadline)["setup_s"]
                for i in range(first, first + count)]

    # set-ups on both sides of the measuring child sample the machine's
    # slow and fast phases alike
    before = set_up(0, (SETUP_REPEATS - 1) // 2)
    res = spawn("measure", args, os.path.join(work, "measure"), deadline, args.seconds)
    setups = before + [res["setup_s"]] + set_up(len(before), SETUP_REPEATS - 1 - len(before))
    attempted, failed = res["attempted"], res["failed"]
    values = {
        "wall_s": statistics.median(res["walls"]),
        "op_max_s": statistics.median(res["op_max"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "fail_frac": failed / attempted,
        "bound_deficit_bits": res["deficit"],
    }
    notes = {
        "wall_s": "median of %d passes" % len(res["walls"]),
        "op_max_s": "median over %d passes of the slowest op" % len(res["walls"]),
        "peak_rss_mb": "one fresh child process",
        "setup_s": "median of %d fresh processes" % len(setups),
        "fail_frac": "%d of %d ops failed" % (failed, attempted),
        "bound_deficit_bits": "largest shortfall below a seed-0 reference",
    }
    names = [n for n, _, _ in END_TO_END]
    return values, notes, names, attempted, failed, res["env"]


def traced(args, work, deadline):
    """Per-layer metrics of one traced pass, with its overhead."""
    base = spawn("measure", args, os.path.join(work, "untraced"), deadline)
    res = spawn("traced", args, os.path.join(work, "traced"), deadline)
    values = dict(res["layers"])
    values["trace.overhead_frac"] = res["walls"][0] / base["walls"][0]
    notes = {"trace.overhead_frac": "traced pass %.4g s over untraced pass %.4g s (%d spans)"
             % (res["walls"][0], base["walls"][0], res["span_count"])}
    attempted = base["attempted"] + res["attempted"]
    failed = base["failed"] + res["failed"]
    for line in stress_lines(args.workload, values, res["walls"][0]):
        print(line)
    names = [n for n, _, _ in PER_LAYER]
    return values, notes, names, attempted, failed, res["env"]


def stress_lines(workload, m, wall):
    """Whether the traced pass stresses the layer the workload was chosen for."""
    import spans

    shares = spans.partition(m)
    top = max(shares, key=shares.get)
    lines = ["layer %s %.6g s (%.3f of the traced pass)" % (k, v, v / wall)
             for k, v in sorted(shares.items(), key=lambda kv: -kv[1])]
    if workload == "reproduce":
        share = m["simplex.polish.s"] / wall
        lines.append("stress simplex.polish.s share %.3f >= 0.5: %s"
                     % (share, "met" if share >= 0.5 else "NOT MET"))
    elif workload == "analyze-wide":
        lines.append("stress largest layer is %s (want bounds.nested_sweep): %s"
                     % (top, "met" if top == "bounds.nested_sweep" else "NOT MET"))
    elif workload == "simulate-n3":
        fired = sum(m[k] for k in ("simplex.polish.calls", "simplex.scan.evals",
                                   "bounds.kernel.pair.calls", "bounds.kernel.joint.calls",
                                   "bounds.kernel.cone.calls")) + m["bounds.best_bounds.s"]
        share = (m["protocols.verify.s"] + m["protocols.run_exact.s"]) / wall
        ok = fired == 0 and share >= 0.5
        lines.append("stress no simplex/bounds spans (%s) and verify+run_exact share %.3f "
                     ">= 0.5: %s" % ("none" if fired == 0 else "some", share,
                                     "met" if ok else "NOT MET"))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one tiny op per workload")
    ap.add_argument("--references", default=os.path.join(HERE, "references.json"))
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "scbound", "__init__.py")):
        print("error: no scbound sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 1
    work = _fresh_dir(os.path.join(ROOT, ".perfbench_work", args.workload))
    try:
        if args.record_references:
            if args.seed != 0:
                raise BenchError("references are recorded at seed 0")
            spawn("record", args, os.path.join(work, "record"), deadline)
            print("recorded %s references in %s" % (args.workload, args.references))
            return 0
        print("workload %s seed %d trace %d smoke %s: %s"
              % (args.workload, args.seed, args.trace, args.smoke, WHY[args.workload]))
        run = traced if args.trace else measure
        values, notes, names, attempted, failed, env = run(args, work, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    print("env " + " ".join("%s=%s" % kv for kv in env.items()))
    shown = names + ([n for n, _, _ in CORRECTNESS] if not args.trace else [])
    for name in shown:
        print("metric %s %.6g %s%s" % (name, values[name], UNITS[name],
                                       " (%s)" % notes[name] if name in notes else ""))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": UNITS[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
