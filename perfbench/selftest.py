"""The benchmark's own tests, on one tiny operation per workload.

    python3 perfbench/selftest.py

Checks that every end-to-end metric prints by name with its unit, that the
traced run emits every per-layer metric, that a perturbed reference makes
the checks fail, that BENCHMARK.json lists the metrics defined here, and
that the benchmark refuses to run without the scbound sources. Prints one
PASS/FAIL line per check and exits 1 if any failed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import CORRECTNESS, END_TO_END, PER_LAYER  # noqa: E402
from workloads import WHY  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work", "selftest")
# one reference per smoke workload, and the value to push it up by
PERTURB = {
    "reproduce": ("reproduce:smoke", "reproduce-coarse", ("rows", "group-add-2", "m12")),
    "analyze-wide": ("analyze-wide:smoke", "group-add-3-coarse", ("links", "m12")),
    "simulate-n3": ("simulate-n3:smoke", "sum-n1.builtin", ("entropies", "m23")),
}
SHIFT = 1e-6


def bench(*args, cwd=ROOT, references=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "0"]
    cmd += list(args)
    if references:
        cmd += ["--references", references]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], sorted(out)
    return out


def metric_lines(lines):
    """{name: (value, unit)} from the `metric <name> <value> <unit> ...` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WHY), spec["workloads"]
    got = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert got == list(END_TO_END), got
    got = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert got == list(PER_LAYER), got


def check_end_to_end(workload):
    rc, lines, err = bench("--workload", workload, "--seed", "0", "--trace", "0", "--smoke")
    assert rc == 0, (rc, err)
    out = result_of(lines)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        n: u for n, u, _ in END_TO_END}, out["metrics"]
    printed = metric_lines(lines)
    for name, unit, _ in END_TO_END + CORRECTNESS:
        assert printed[name][1] == unit, (name, printed.get(name))
    assert printed["fail_frac"][0] == 0.0 and printed["bound_deficit_bits"][0] == 0.0, printed


def check_per_layer(workload):
    rc, lines, err = bench("--workload", workload, "--seed", "7", "--trace", "1", "--smoke")
    assert rc == 0, (rc, err)
    out = result_of(lines)
    assert out["correct"], out
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        n: u for n, u, _ in PER_LAYER}, sorted(out["metrics"])
    assert any(line.startswith("stress ") for line in lines), lines


def check_reference_fires(workload):
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    key, op_id, path = PERTURB[workload]
    node = refs[key][op_id]
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] += SHIFT
    os.makedirs(WORK, exist_ok=True)
    perturbed = os.path.join(WORK, "references-%s.json" % workload)
    with open(perturbed, "w") as fh:
        json.dump(refs, fh)
    rc, lines, err = bench("--workload", workload, "--seed", "0", "--trace", "0", "--smoke",
                           references=perturbed)
    assert rc == 2, (rc, err)
    out = result_of(lines)
    assert not out["correct"] and out["failed"] >= 1, out
    assert metric_lines(lines)["fail_frac"][0] > 0.0, lines
    assert op_id in err, err


def check_bare_directory():
    bare = os.path.join(WORK, "bare")
    if os.path.isdir(bare):
        shutil.rmtree(bare)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = bench("--workload", "reproduce", "--seed", "1", "--trace", "0", cwd=bare)
    assert rc not in (0, None), rc
    assert not any(line.startswith("{") for line in lines), lines


def main():
    checks = [("BENCHMARK.json matches metrics.py", check_benchmark_json)]
    for w in WHY:
        checks.append(("%s end-to-end metrics print" % w, lambda w=w: check_end_to_end(w)))
        checks.append(("%s traced run emits every layer metric" % w,
                       lambda w=w: check_per_layer(w)))
        checks.append(("%s perturbed reference fails the op" % w,
                       lambda w=w: check_reference_fires(w)))
    checks.append(("no result without the scbound sources", check_bare_directory))
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except (AssertionError, KeyError, ValueError, IndexError,
                subprocess.TimeoutExpired) as exc:
            failed += 1
            print("FAIL %s: %r" % (name, exc))
        else:
            print("PASS %s" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
