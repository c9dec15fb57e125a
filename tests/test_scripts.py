import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from scbound.cli import main
from scbound.dists import dumps

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_and_landscape_runs():
    out = subprocess.run(
        [sys.executable, "scripts/and_landscape.py", "--step", "0.25"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "grid argmax:" in out.stdout


def test_script_runs_from_another_directory(tmp_path):
    # the script finds src/ from its own path, not from the working
    # directory or PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "and_landscape.py"), "--step", "0.25"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "grid argmax:" in out.stdout


def test_reproduce_csv_runs():
    # the worked-example table as CSV: one line per row and link, all matching
    out = subprocess.run(
        [sys.executable, "-m", "scbound", "reproduce", "--format", "csv",
         "--grid", "0.25", "--refine", "4"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header == "name,link,bound,simulated,match"
    assert len(rows) == 8 * 3
    assert len({r.split(",")[0] for r in rows}) == 8
    assert all(r.endswith(",True") for r in rows)


def test_python_m_scbound_runs():
    out = subprocess.run(
        [sys.executable, "-m", "scbound", "reproduce", "--only", "group-add-2",
         "--grid", "0.25", "--refine", "4"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert [r["name"] for r in json.loads(out.stdout)["rows"]] == ["group-add-2"]


def test_benchmark_tracer_installs():
    # the traced benchmark wraps scbound functions by name, so a renamed or
    # deleted one fails here and not only in the traced run
    out = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_benchmark_simulate_ops_run(tmp_path):
    # the benchmark writes its spec and dist files with perfbench/workloads.py
    # and reads them back through the CLI; every simulate op must exit 0
    path = ROOT / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    ops = workloads.setup("simulate-n3", 1, False, str(tmp_path))
    assert {op.argv[1] for op in ops} == {"--builtin", "--spec"}
    for op in ops:
        assert main(op.argv) == 0, op.id


def test_report_digests_leave_out_the_manifest(capsys):
    # scripts/report_digests.py prints one (exit code, sha256, command) line
    # per report: the digest is that of the report without its manifest,
    # which holds the wall time, and a refused command keeps its exit code
    path = ROOT / "scripts" / "report_digests.py"
    module_spec = importlib.util.spec_from_file_location("report_digests", path)
    digests = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(digests)
    argv = ["simulate", "--builtin", "and"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    del report["manifest"]
    want = hashlib.sha256(dumps(report).encode()).hexdigest()
    assert digests.digest(argv) == (0, want)
    assert digests.digest(["simulate", "--builtin", "sum"])[1] != want
    assert digests.digest(["simulate", "--builtin", "and", "--order", "3"])[0] == 1
