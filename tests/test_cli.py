import argparse
import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest

from scbound.bounds import best_bounds
from scbound.cli import build_parser, main
from scbound.dists import (
    Alphabet,
    CapacityError,
    JointDist,
    channel_to_json,
    dist_from_json,
    dist_to_json,
    dumps,
)
from scbound.protocols import (
    PRODUCT_CAP,
    Round,
    builtin,
    run_exact,
    spec_to_json,
    verify_info_inequality,
)

LOG3 = math.log2(3.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_builtin_and(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "and")
    assert code == 0
    payload = json.loads(out)
    assert payload["links"]["m12"]["value"] >= 1.826 - 1e-3
    assert payload["links"]["m23"]["value"] >= LOG3 - 1e-3
    assert payload["rho"] >= 1.826 - 1e-3
    assert payload["manifest"]["version"]
    assert payload["links"]["m12"]["witnesses"]["p_X'"]["pmf"]


def test_analyze_group_add_order5(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "group-add", "--order", "5")
    assert code == 0
    payload = json.loads(out)
    for link in ("m12", "m23", "m31"):
        assert payload["links"][link]["value"] == pytest.approx(math.log2(5), abs=1e-6)


def test_analyze_channel_file(tmp_path, capsys):
    b = builtin("erasure")
    path = tmp_path / "ch.json"
    path.write_text(dumps(channel_to_json(b.channel)))
    code, out, _ = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["links"]["m31"]["value"] >= 1.5 - 1e-3
    assert not payload["conditions"]["condition1"]


def test_analyze_constant_channel_zero(tmp_path, capsys):
    from scbound.dists import Alphabet, Channel

    x, y = Alphabet("X", ("0", "1")), Alphabet("Y", ("0", "1"))
    z = Alphabet("Z", ("c", "d"))
    ch = Channel.from_function(x, y, z, lambda a, b: "c")
    path = tmp_path / "const.json"
    path.write_text(dumps(channel_to_json(ch)))
    code, out, _ = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 0
    payload = json.loads(out)
    for link in ("m12", "m23", "m31"):
        assert payload["links"][link]["value"] == pytest.approx(0.0, abs=1e-9)


def test_simulate_remote_ot(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "remote-ot", "--m", "2", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["entropies"] == pytest.approx({"m12": 3.0, "m23": 2.0, "m31": 2.0})
    assert all(payload["checks"].values())


def test_simulate_erasure_expected_length(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--builtin", "erasure", "--p", "0.5", "--q", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_lengths"]["m31"] < 1.0 + 1 + 0.5
    assert payload["entropies"]["m31"] == pytest.approx(1.5)


def test_simulate_bad_spec_exits_2(tmp_path, capsys):
    b = builtin("and")
    bad = spec_to_json(b.spec)
    # corrupt the output table: always answer "0...0"
    zero = bad["output_map"][0]["z"]
    for row in bad["output_map"]:
        row["z"] = zero
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "simulate", "--spec", str(path))
    assert code == 2
    payload = json.loads(out)
    assert not all(payload["checks"].values())


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1
    code, _, _ = run_cli(capsys, "analyze", "--channel", str(tmp_path / "missing.json"))
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


@pytest.mark.parametrize(
    "flags,field",
    [
        (("--refine", "-5"), "refine_iters"),
        (("--grid", "inf"), "grid_resolution"),
        (("--grid", "nan"), "grid_resolution"),
        (("--grid", "0"), "grid_resolution"),
    ],
)
def test_malformed_optimizer_settings_exit_1(capsys, flags, field):
    code, out, err = run_cli(capsys, "analyze", "--builtin", "and", *flags)
    assert code == 1
    assert out == ""
    assert field in err


def test_capacity_exit_3(capsys):
    code, _, err = run_cli(capsys, "simulate", "--builtin", "remote-ot", "--m", "4", "--n", "4")
    assert code == 3
    assert "capacity" in err


def test_oversize_support_cone_exits_3(capsys, monkeypatch):
    # a small cap stands in for the 1.0e9 point-by-marginal cells of
    # remote-ot --m 3 --n 4, which a run reaches only after some 9 s, most
    # of it spent in the normal forms of its 4,096 x 3 x 16 channel
    monkeypatch.setattr("scbound.bounds.CONE_CELL_CAP", 71)  # AND needs 4 x 18 = 72
    code, out, err = run_cli(capsys, "analyze", "--builtin", "and")
    assert code == 3
    assert out == ""
    assert err.startswith("capacity:") and "point-by-marginal cells" in err


def test_oversize_alphabet_exits_3_before_allocating(tmp_path, capsys):
    # the joint scan over 40 x 40 inputs would build a candidate array of
    # about 2e9 cells; the cap refuses it before any is built. The channel
    # is read from a file: with no protocol at hand every family runs
    path = tmp_path / "ch.json"
    path.write_text(dumps(channel_to_json(builtin("group-add", order=40).channel)))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("capacity:") and "over the cap" in err
    assert time.monotonic() - t0 < 20


def test_large_alphabet_reaches_its_capacity_exit_quickly(tmp_path, capsys):
    # remote-ot --m 3 --n 3 has a 512 x 3 x 8 channel. Read from a file, it
    # passes both normal forms, then its joint scan over 1,536 symbols is
    # refused. Pairwise row compares in Python took 4-6 s to get there
    path = tmp_path / "ch.json"
    path.write_text(dumps(channel_to_json(builtin("remote-ot", m=3, n=3).channel)))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("capacity:")
    assert time.monotonic() - t0 < 2


def _oversize_file(kind):
    """(command, file content) of a small input file that would need an
    oversize array: a channel of three 3,000-symbol axes (2.7e10 kernel
    cells), a distribution of two 6,000-symbol axes (3.6e7 cells) or a spec
    whose m12 carries 8 rounds of 20 symbols (20^8 transcripts)."""
    def axis(name, n):
        return {"name": name, "symbols": [str(i) for i in range(n)]}

    if kind == "channel":
        return ("analyze", "--channel"), {"axes": [axis(a, 3000) for a in "XYZ"], "kernel": []}
    if kind == "dist":
        return ("analyze", "--builtin", "and", "--dist"), {"axes": [axis(a, 6000) for a in "XY"],
                                                           "pmf": []}
    one = axis("-", 1)
    spec = {"x_axis": axis("X", 1), "y_axis": axis("Y", 1), "z_axis": axis("Z", 1),
            "randomness": [one] * 3, "output_map": [],
            "rounds": [{"sender": 1, "receiver": 2, "alphabet": axis("M", 20), "map": []}] * 8}
    return ("simulate", "--spec"), spec


@pytest.mark.parametrize("kind", ["channel", "dist", "spec"])
def test_oversize_input_file_exits_3_before_allocating(tmp_path, capsys, kind):
    command, content = _oversize_file(kind)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("capacity:")
    assert time.monotonic() - t0 < 2


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_oversize_builtin_kernel_exits_3_before_allocating(monkeypatch, capsys, command):
    # a built-in kernel over KERNEL_CELL_CAP is refused before it is
    # allocated (sum --n 12 would need 8.9e12 cells); here and --n 2's 4 x 4
    # x 4 cells meet a cap of 63, and build at a cap of 64. The cap admits
    # the largest built-ins that build, erasure and sum at n = 7
    import scbound.dists as dists

    assert 2 ** 7 * 2 ** 7 * 3 ** 7 <= dists.KERNEL_CELL_CAP
    monkeypatch.setattr(dists, "KERNEL_CELL_CAP", 63)
    code, out, err = run_cli(capsys, command, "--builtin", "and", "--n", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("capacity: kernel of 4x4x4 symbols needs 64 cells")
    monkeypatch.setattr(dists, "KERNEL_CELL_CAP", 64)
    assert builtin("and", n=2).channel.kernel.shape == (4, 4, 4)


def test_verified_builtin_needs_no_oversize_scan(capsys):
    # group-add 15's joint scan is over the cap, but its verified protocol
    # meets the evaluation bound on every link, so no optimizer runs
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "group-add", "--order", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_protocol"] == {"builtin": "group-add", "params": {"n": 1, "order": 15}}
    for link in ("m12", "m23", "m31"):
        lb = payload["links"][link]
        assert lb["value"] == pytest.approx(math.log2(15), abs=1e-9)
        assert lb["upper"] == pytest.approx(math.log2(15), abs=1e-9)
        assert lb["theorem"] == "prelim_" + link
        nested = [] if link == "m12" else ["conditional"]
        assert lb["skipped"] == ["intermediate", "improved", "switched"] + nested
        assert [t["name"] for t in lb["terms"]] == ["prelim_" + link]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_block_length_below_1_exits_1(capsys, n):
    code, out, err = run_cli(capsys, "simulate", "--builtin", "sum", "--n", n)
    assert code == 1
    assert out == ""
    assert "block length n" in err


def test_unwritable_out_exits_1(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "report.json"
    code, out, err = run_cli(capsys, "analyze", "--builtin", "and", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write %s" % path)


@pytest.mark.parametrize("cmd", [
    ("analyze", "--builtin", "group-add", "--order", "4"),
    ("simulate", "--builtin", "sum"),
    ("reproduce",),
])
def test_out_in_missing_dir_exits_1_before_work(tmp_path, capsys, monkeypatch, cmd):
    def fail(*args, **kwargs):
        raise AssertionError("nothing should be computed")

    for name in ("best_bounds", "separation_report", "run_exact"):
        monkeypatch.setattr("scbound.cli." + name, fail)
    path = tmp_path / "missing-dir" / "x.json"
    code, out, err = run_cli(capsys, *cmd, "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write %s" % path)
    assert not path.parent.exists()


@pytest.mark.parametrize("cmd", [
    ("analyze", "--builtin", "group-add", "--order", "4"),
    ("simulate", "--builtin", "sum"),
    ("reproduce",),
])
def test_out_that_is_a_directory_exits_1_before_work(tmp_path, capsys, monkeypatch, cmd):
    def fail(*args, **kwargs):
        raise AssertionError("nothing should be computed")

    for name in ("best_bounds", "separation_report", "run_exact"):
        monkeypatch.setattr("scbound.cli." + name, fail)
    code, out, err = run_cli(capsys, *cmd, "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write %s" % tmp_path)
    assert "directory" in err


@pytest.mark.parametrize("cmd, flags", [
    (("analyze", "--channel", "{ch}", "--builtin", "and"), "--builtin and --channel"),
    (("simulate", "--spec", "{spec}", "--builtin", "and"), "--spec and --builtin"),
], ids=["analyze", "simulate"])
def test_conflicting_input_sources_exit_1_before_work(tmp_path, capsys, monkeypatch, cmd, flags):
    def fail(*args, **kwargs):
        raise AssertionError("nothing should be computed")

    for name in ("best_bounds", "run_exact", "builtin", "_decode"):
        monkeypatch.setattr("scbound.cli." + name, fail)
    files = {"ch": str(tmp_path / "sum.channel.json"), "spec": str(tmp_path / "sum.spec.json")}
    b = builtin("sum")
    with open(files["ch"], "w") as fh:
        json.dump(channel_to_json(b.channel), fh)
    with open(files["spec"], "w") as fh:
        json.dump(spec_to_json(b.spec), fh)
    code, out, err = run_cli(capsys, *[a.format(**files) for a in cmd])
    assert code == 1
    assert out == ""
    assert err == "error: give one input, not %s\n" % flags


def _tampered(kind):
    """group-add 2 with a protocol that fails a check: Charlie outputs a
    constant, which fails correctness, or Alice also sends Charlie her
    input, which fails privacy against Charlie with a correct output."""
    b = builtin("group-add", order=2)
    spec = b.spec
    if kind == "correctness":
        z0 = spec.z_axis.symbols[0]
        spec = dataclasses.replace(spec, output_fn=lambda v: z0)
    else:
        leak = Round(1, 3, Alphabet("XLEAK", spec.x_axis.symbols), lambda v: v.inp)
        spec = dataclasses.replace(spec, rounds=spec.rounds + (leak,))
    return dataclasses.replace(b, spec=spec)


def _full_report(b):
    return json.loads(dumps(best_bounds(b.default_input, b.channel).to_json()))


def _without_manifest(out):
    payload = json.loads(out)
    payload.pop("manifest")
    return payload


def test_verified_builtin_reports_upper_and_skips(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "group-add", "--order", "2")
    assert code == 0
    payload = _without_manifest(out)
    full = _full_report(builtin("group-add", order=2))
    assert payload["upper_protocol"] == {"builtin": "group-add", "params": {"n": 1, "order": 2}}
    assert payload["rho"] == full["rho"]
    for link in ("m12", "m23", "m31"):
        got, want = payload["links"][link], full["links"][link]
        assert got["upper"] == pytest.approx(1.0, abs=1e-12)
        assert got["skipped"]
        # only the new fields and the skipped terms differ
        got_terms = got.pop("terms")
        assert got_terms == want.pop("terms")[:len(got_terms)]
        got.pop("upper"), got.pop("skipped")
        assert got == want


@pytest.mark.parametrize("kind", ["correctness", "privacy"])
def test_unverified_protocol_gets_no_upper(capsys, monkeypatch, kind):
    b = _tampered(kind)
    monkeypatch.setattr("scbound.cli.builtin", lambda name, **params: b)
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "group-add")
    assert code == 2
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "group-add")
    assert code == 0
    payload = _without_manifest(out)
    assert payload == _full_report(b)  # no upper, no skips, no protocol named
    code, out, _ = run_cli(capsys, "reproduce", "--only", "group-add-2")
    assert code == 2
    (row,) = json.loads(out)["rows"]
    assert not row["match"] and not row["verified"]
    assert row["skipped"] == {"m12": [], "m23": [], "m31": []}


def test_capacity_error_in_protocol_run_falls_back_to_full_bounds(capsys, monkeypatch):
    def over_cap(*args, **kwargs):
        raise CapacityError("too many branches")

    monkeypatch.setattr("scbound.cli.run_exact", over_cap)
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "group-add", "--order", "2")
    assert code == 0
    assert _without_manifest(out) == _full_report(builtin("group-add", order=2))


def test_channel_report_has_no_protocol_fields(tmp_path, capsys):
    b = builtin("group-add", order=2)
    path = tmp_path / "ch.json"
    path.write_text(dumps(channel_to_json(b.channel)))
    code, out, _ = run_cli(capsys, "analyze", "--channel", str(path))
    assert code == 0
    payload = _without_manifest(out)
    assert "upper_protocol" not in payload
    for link in ("m12", "m23", "m31"):
        assert "upper" not in payload["links"][link]
        assert "skipped" not in payload["links"][link]


def test_reproduce_only_and(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--only", "and", "--grid", "0.02")
    assert code == 0
    payload = json.loads(out)
    names = [r["name"] for r in payload["rows"]]
    assert "and" in names and "and-cmss-gap" in names
    row = payload["rows"][names.index("and")]
    assert row["match"] and row["verified"]
    # the and protocol meets the improved bound on the links to Charlie
    assert row["skipped"] == {"m12": [], "m23": ["switched", "conditional"],
                              "m31": ["switched", "conditional"]}
    assert row["bounds"]["m12"] >= 1.826 - 1e-3
    assert row["simulated"]["m12"] == pytest.approx(1 + LOG3, abs=1e-9)


@pytest.mark.parametrize("only", ["and", "cmss"])
def test_reproduce_computes_and_bounds_once(capsys, monkeypatch, only):
    # the and row and the and-cmss-gap row share one AND report, computed
    # with the verified protocol's upper values
    import scbound.bounds

    real, uppers = scbound.bounds.best_bounds, []

    def counted(*args, **kwargs):
        uppers.append(kwargs.get("upper"))
        return real(*args, **kwargs)

    monkeypatch.setattr("scbound.cli.best_bounds", counted)
    monkeypatch.setattr("scbound.bounds.best_bounds", counted)
    code, out, _ = run_cli(capsys, "reproduce", "--only", only)
    assert code == 0
    assert "and-cmss-gap" in [r["name"] for r in json.loads(out)["rows"]]
    assert len(uppers) == 1 and uppers[0] is not None


def test_reproduce_cmss_row_requires_the_scheme_checks(capsys, monkeypatch):
    # a scheme whose Bob-Charlie share depends on X: Bob and Charlie cannot
    # reconstruct from it, and it leaks X to both, so the row is not verified
    import scbound.cmss

    base = scbound.cmss.and_cmss()

    def share(x, y, z, r):
        a, b, c = r
        return a, (a if x[0] else c), (a if x[0] else b)

    tampered = dataclasses.replace(base, share_fn=share)
    checks = scbound.cmss.verify_cmss(
        scbound.cmss.cmss_joint(tampered, scbound.cmss.and_secret_dist()))
    assert [k for k, ok in checks.items() if not ok] == [
        "reconstruct_y", "reconstruct_z", "privacy_bob", "privacy_charlie"]
    monkeypatch.setattr("scbound.cmss.and_cmss", lambda: tampered)
    code, out, _ = run_cli(capsys, "reproduce", "--only", "cmss")
    assert code == 2
    (row,) = json.loads(out)["rows"]
    assert row["name"] == "and-cmss-gap"
    assert row["verified"] is False and row["match"] is False


def test_reproduce_only_without_match_exits_1_before_work(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("no row should be computed")

    monkeypatch.setattr("scbound.cli.best_bounds", fail)
    monkeypatch.setattr("scbound.cli.separation_report", fail)
    code, _, err = run_cli(capsys, "reproduce", "--only", "no-such-row")
    assert code == 1
    assert "matches no row" in err


def test_reports_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--builtin", "sum")
    _, out2, _ = run_cli(capsys, "analyze", "--builtin", "sum")

    def normalize(s):
        p = json.loads(s)
        p["manifest"].pop("wall_time_s")
        return dumps(p)

    assert normalize(out1) == normalize(out2)


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "group-add", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "link,value,theorem"
    assert len(lines) == 5  # three links + rho
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "group-add", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",") for line in lines[1:])
    _, js, _ = run_cli(capsys, "simulate", "--builtin", "group-add")
    payload = json.loads(js)
    payload.pop("manifest")
    want = {"randomness_used": str(payload.pop("randomness_used"))}
    for field, values in payload.items():
        want.update({"%s.%s" % (field, k): str(v) for k, v in values.items()})
    assert rows == want
    assert "checks.privacy_charlie" in rows and "entropies.m12" in rows


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "sum", "--out", str(path))
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["links"]["m12"]["value"] >= 1.5 - 1e-3


def test_builtin_with_its_written_default_dist(tmp_path, capsys):
    # JSON loads symbols as strings; a file written from the built-in's own
    # input is re-keyed onto the built-in's tuple symbols
    b = builtin("and")
    path = tmp_path / "dist.json"
    path.write_text(dumps(dist_to_json(b.default_input)))
    _, default, _ = run_cli(capsys, "analyze", "--builtin", "and")
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "and", "--dist", str(path))
    assert code == 0
    got, want = json.loads(out)["links"], json.loads(default)["links"]
    for link in ("m12", "m23", "m31"):
        assert got[link]["value"] == want[link]["value"]
    _, default, _ = run_cli(capsys, "simulate", "--builtin", "and")
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "and", "--dist", str(path))
    assert code == 0
    assert json.loads(out)["entropies"] == json.loads(default)["entropies"]
    # a distribution over other alphabets is still refused
    for cmd in ("analyze", "simulate"):
        code, _, err = run_cli(capsys, cmd, "--builtin", "group-add", "--order", "3",
                               "--dist", str(path))
        assert code == 1
        assert "do not match" in err


def test_dist_with_masses_under_the_support_threshold_runs(tmp_path, capsys):
    # a valid law with three cells of 9.9e-13, at most SUPPORT_EPS, and the
    # rest on the first cell: every sum over the support leaves those cells
    # out, so the law enters with them zeroed and the rest rescaled to 1
    b = builtin("and")
    dist = dist_to_json(b.default_input)
    for i, row in enumerate(dist["pmf"]):
        row["p"] = 1.0 - 3 * 9.9e-13 if i == 0 else 9.9e-13
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist))
    assert dist_from_json(dist).probs.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    code, out, err = run_cli(capsys, "analyze", "--builtin", "and", "--dist", str(path))
    assert code == 0, err
    assert json.loads(out)["conditions"]["full_support"] is False
    code, out, err = run_cli(capsys, "simulate", "--builtin", "and", "--dist", str(path))
    assert code == 0, err
    assert json.loads(out)["checks"]["correctness"] is True


def test_simulate_dependent_input_leaves_info_checks_null(tmp_path, capsys):
    # the information inequality holds only for independent inputs: at a
    # dependent input, where it fails, its three checks are null and a
    # correct, private protocol exits 0
    b = builtin("sum")
    dep = JointDist(b.default_input.axes, np.array([[0.4, 0.1], [0.1, 0.4]]))
    path = tmp_path / "dist.json"
    path.write_text(dumps(dist_to_json(dep)))
    assert not all(verify_info_inequality(run_exact(b.spec, dep)))
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "sum", "--dist", str(path))
    assert code == 0
    checks = json.loads(out)["checks"]
    info = [k for k in checks if k.startswith("info_ineq")]
    assert len(info) == 3 and all(checks[k] is None for k in info)
    assert all(v is True for k, v in checks.items() if k not in info)
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "sum", "--dist", str(path),
                           "--format", "csv")
    assert code == 0
    assert "checks.info_ineq_31_23,\n" in out and "checks.privacy_bob,True\n" in out
    # at a product input the checks run
    _, out, _ = run_cli(capsys, "simulate", "--builtin", "sum")
    assert all(v is True for v in json.loads(out)["checks"].values())


@pytest.mark.parametrize("flag,value", [("--p", "1.5"), ("--q", "-0.1"), ("--p", "nan")])
def test_erasure_parameter_outside_unit_interval_exits_1(capsys, flag, value):
    for cmd in ("analyze", "simulate"):
        code, out, err = run_cli(capsys, cmd, "--builtin", "erasure", flag, value)
        assert code == 1 and out == ""
        assert "erasure parameter %s must be in [0, 1]" % flag[2:] in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_remote_ot_m_below_one_exits_1(capsys, value):
    for cmd in ("analyze", "simulate"):
        code, out, err = run_cli(capsys, cmd, "--builtin", "remote-ot", "--m", value)
        assert code == 1 and out == ""
        assert "remote-ot m (the number of strings) must be >= 1, got %s" % value in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_remote_ot_n_below_one_names_the_string_length(capsys, value):
    # for remote-ot --n is the string length in bits, not a block length;
    # the other built-ins keep the block-length message
    for cmd in ("analyze", "simulate"):
        code, out, err = run_cli(capsys, cmd, "--builtin", "remote-ot", "--n", value)
        assert code == 1 and out == ""
        assert "remote-ot n (the string length in bits) must be >= 1, got %s" % value in err
        assert "block length" not in err
        code, out, err = run_cli(capsys, cmd, "--builtin", "sum", "--n", value)
        assert code == 1 and out == ""
        assert "block length n must be at least 1, got %s" % value in err


# AND on one-character symbols, so that a "t" row written as a string
# would split into valid symbols
_AND_CHANNEL = {
    "axes": [{"name": name, "symbols": ["0", "1"]} for name in ("X", "Y", "Z")],
    "kernel": [{"t": [x, y], "row": {str(int(x == y == "1")): 1.0}} for x in "01" for y in "01"],
}


def _malformed(kind):
    """(command line before the file, JSON content) for a malformed file."""
    b = builtin("group-add", order=2)
    spec = spec_to_json(b.spec)  # rounds 3->2, 2->1, 1->3
    if kind == "spec-row-without-rand":
        del spec["rounds"][0]["map"][0]["view"]["rand"]
    elif kind == "spec-without-output-map":
        del spec["output_map"]
    elif kind == "spec-rounds-not-a-list":
        spec["rounds"] = 5
    elif kind == "channel-without-kernel":
        ch = channel_to_json(b.channel)
        del ch["kernel"]
        return ("analyze", "--channel"), ch
    elif kind == "channel-row-without-y":
        ch = channel_to_json(b.channel)
        del ch["kernel"][0]["t"][1]
        return ("analyze", "--channel"), ch
    elif kind == "channel-row-with-a-third-entry":
        ch = channel_to_json(b.channel)
        ch["kernel"][0]["t"].append("junk")
        return ("analyze", "--channel"), ch
    elif kind == "channel-row-as-a-string":
        ch = json.loads(json.dumps(_AND_CHANNEL))
        ch["kernel"][0]["t"] = "00"
        return ("analyze", "--channel"), ch
    elif kind in ("spec-sender-1.7", "spec-sender-true"):
        spec["rounds"][2]["sender"] = 1.7 if kind == "spec-sender-1.7" else True
    elif kind == "spec-receiver-true":
        spec["rounds"][1]["receiver"] = True
    elif kind == "spec-two-randomness-alphabets":
        del spec["randomness"][0]
    elif kind == "spec-four-randomness-alphabets":
        spec["randomness"].append(spec["randomness"][0])
    elif kind == "dist-without-pmf":
        dist = dist_to_json(b.default_input)
        del dist["pmf"]
        return ("simulate", "--builtin", "group-add", "--dist"), dist
    elif kind == "dist-is-a-list":
        return ("simulate", "--builtin", "group-add", "--dist"), [1, 2]
    elif kind == "dist-repeated-cell":
        # the cell, and below the kernel row, is first listed with a wrong
        # mass, then with its own
        dist = dist_to_json(b.default_input)
        dist["pmf"].insert(0, dict(dist["pmf"][0], p=0.9))
        return ("simulate", "--builtin", "group-add", "--dist"), dist
    elif kind == "channel-repeated-row":
        ch = channel_to_json(b.channel)
        first = ch["kernel"][0]
        ch["kernel"].insert(0, dict(first, row={z: 0.9 for z in first["row"]}))
        return ("analyze", "--channel"), ch
    elif kind == "spec-repeated-view":
        rows = spec["rounds"][0]["map"]
        rows.append(dict(rows[0], send="(1)" if rows[0]["send"] == "(0)" else "(0)"))
    return ("simulate", "--spec"), spec


@pytest.mark.parametrize("kind", [
    "spec-row-without-rand", "spec-without-output-map", "spec-rounds-not-a-list",
    "channel-without-kernel", "channel-row-without-y", "dist-without-pmf", "dist-is-a-list",
    "channel-row-with-a-third-entry", "channel-row-as-a-string", "spec-sender-1.7",
    "spec-sender-true", "spec-receiver-true", "spec-two-randomness-alphabets",
    "spec-four-randomness-alphabets",
])
def test_malformed_input_file_exits_1(tmp_path, capsys, kind):
    argv, content = _malformed(kind)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read %s" % path)


@pytest.mark.parametrize("kind,repeated", [
    ("dist-repeated-cell", "pmf cell ('(0)', '(0)')"),
    ("channel-repeated-row", "kernel row ('(0)', '(0)')"),
    ("spec-repeated-view", "map view View("),
])
def test_repeated_entry_in_input_file_exits_1(tmp_path, capsys, kind, repeated):
    # a later entry for the same cell, row or view would silently replace
    # the earlier one; the file is refused instead, naming the entry
    argv, content = _malformed(kind)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read %s" % path)
    assert repeated in err and "is given twice" in err


@pytest.mark.parametrize("t", ["00", ["0", "0", "0"]])
def test_dist_row_not_one_symbol_per_axis_exits_1(tmp_path, capsys, t):
    # on one-character symbols the string "00" would split into a valid row
    channel, dist = tmp_path / "channel.json", tmp_path / "dist.json"
    channel.write_text(json.dumps(_AND_CHANNEL))
    rows = [{"t": [x, y], "p": 0.25} for x in "01" for y in "01"]
    rows[0]["t"] = t
    dist.write_text(json.dumps({"axes": _AND_CHANNEL["axes"][:2], "pmf": rows}))
    code, out, err = run_cli(capsys, "analyze", "--channel", str(channel), "--dist", str(dist))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read %s" % dist)


@pytest.mark.parametrize("table", ["round", "output"])
def test_spec_missing_a_view_exits_1(tmp_path, capsys, table):
    spec = spec_to_json(builtin("group-add", order=2).spec)
    (spec["rounds"][1]["map"] if table == "round" else spec["output_map"]).pop()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
    assert code == 1
    assert out == ""
    assert "no table entry" in err


def test_non_finite_dist_exits_1(tmp_path, capsys):
    b = builtin("and")
    dist = dist_to_json(b.default_input)
    dist["pmf"][0]["p"] = float("nan")
    dpath = tmp_path / "nan.json"
    dpath.write_text(json.dumps(dist))  # written as a bare NaN token
    cpath = tmp_path / "ch.json"
    cpath.write_text(dumps(channel_to_json(b.channel)))
    for argv in (["analyze", "--channel", str(cpath)], ["analyze", "--builtin", "and"],
                 ["simulate", "--builtin", "and"]):
        code, _, err = run_cli(capsys, *argv, "--dist", str(dpath))
        assert code == 1
        assert "non-finite" in err


# the parameters each built-in takes at its defaults, as reports echo them
_BUILTIN_PARAMS = {
    "and": {"n": 1},
    "group-add": {"n": 1, "order": 2},
    "sum": {"n": 1},
    "erasure": {"n": 1, "p": 0.5, "q": 0.5},
    "remote-ot": {"m": 2, "n": 1},
}
_FLAGS = ("order", "m", "n", "p", "q")


@pytest.mark.parametrize("cmd", ["analyze", "simulate"])
@pytest.mark.parametrize("name", sorted(_BUILTIN_PARAMS))
def test_builtin_takes_its_own_flags_only(capsys, monkeypatch, cmd, name):
    _, plain, _ = run_cli(capsys, cmd, "--builtin", name)
    every = []
    for flag in _FLAGS:
        if flag in _BUILTIN_PARAMS[name]:
            # the flag at the builder's default gives the same report
            value = str(_BUILTIN_PARAMS[name][flag])
            every += ["--" + flag, value]
            code, out, _ = run_cli(capsys, cmd, "--builtin", name, "--" + flag, value)
            assert code == 0
            assert _without_manifest(out) == _without_manifest(plain)
    code, out, _ = run_cli(capsys, cmd, "--builtin", name, *every)
    assert code == 0
    assert _without_manifest(out) == _without_manifest(plain)
    if cmd == "analyze":
        want = {"builtin": name, "params": _BUILTIN_PARAMS[name]}
        assert json.loads(plain)["upper_protocol"] == want
        assert json.loads(out)["upper_protocol"] == want

    def fail(*args, **kwargs):
        raise AssertionError("nothing should be computed")

    for fn in ("best_bounds", "run_exact"):
        monkeypatch.setattr("scbound.cli." + fn, fail)
    for flag in set(_FLAGS) - set(_BUILTIN_PARAMS[name]):
        code, out, err = run_cli(capsys, cmd, "--builtin", name, "--" + flag, "2")
        assert code == 1 and out == ""
        assert err == "error: builtin %r: got an unexpected keyword argument %r\n" % (name, flag)


@pytest.mark.parametrize("flag", _FLAGS)
@pytest.mark.parametrize("cmd", [("analyze", "--channel"), ("simulate", "--spec")])
def test_builtin_flag_without_builtin_exits_1_before_work(tmp_path, capsys, monkeypatch,
                                                          cmd, flag):
    def fail(*args, **kwargs):
        raise AssertionError("no file should be read")

    monkeypatch.setattr("scbound.cli._decode", fail)
    code, out, err = run_cli(capsys, *cmd, str(tmp_path / "input.json"), "--" + flag, "2")
    assert code == 1 and out == ""
    assert err == "error: --%s given without --builtin\n" % flag


def test_optimizer_flags_belong_to_the_commands_that_optimize(capsys):
    for flag in ("--grid", "--refine"):
        value = "0.1" if flag == "--grid" else "3"
        code, out, err = run_cli(capsys, "simulate", "--builtin", "sum", flag, value)
        assert code == 1 and out == ""
        assert "unrecognized arguments: %s" % flag in err
    config = {"grid_resolution": 0.1, "refine_iters": 3}
    for cmd in (("analyze", "--builtin", "group-add"), ("reproduce", "--only", "group-add-2")):
        code, out, _ = run_cli(capsys, *cmd, "--grid", "0.1", "--refine", "3")
        assert code == 0
        assert json.loads(out)["manifest"]["config"] == config
    _, out, _ = run_cli(capsys, "simulate", "--builtin", "sum")
    assert set(json.loads(out)["manifest"]) == {"command", "inputs", "version", "wall_time_s"}


def test_spec_file_builtin_param_it_does_not_take_exits_1(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"builtin": "and", "params": {"order": 3}}))
    code, out, err = run_cli(capsys, "simulate", "--spec", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read %s" % path)
    assert "unexpected keyword argument 'order'" in err


def test_main_parses_with_one_parser_whose_defaults_are_immutable(monkeypatch, tmp_path):
    # main reads the parser built at import, so no parse may leave state
    # behind for the next: every default, of every command, is immutable
    import scbound.cli as cli

    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
    out = str(tmp_path / "r.json")
    for _ in range(2):
        assert cli.main(["simulate", "--builtin", "and", "--out", out]) == 0
    (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    for p in [cli._PARSER, *sub.choices.values()]:
        defaults = [a.default for a in p._actions] + list(p._defaults.values())
        assert all(d is None or callable(d) or isinstance(d, (bool, int, float, str, tuple))
                   for d in defaults), p.prog


def test_each_command_has_a_fixed_option_set():
    # a flag comes in only together with the command code that reads it
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    builtin_flags = {"--builtin", "--order", "--m", "--n", "--p", "--q", "--dist"}
    common = {"-h", "--help", "--out", "--format"}
    want = {
        "analyze": {"--channel", "--grid", "--refine"} | builtin_flags | common,
        "simulate": {"--spec"} | builtin_flags | common,
        "reproduce": {"--only", "--grid", "--refine"} | common,
    }
    got = {cmd: {s for a in p._actions for s in a.option_strings}
           for cmd, p in sub.choices.items()}
    assert got == want


@pytest.mark.parametrize("argv", [
    ("and", "--n", "8"), ("and", "--n", "10"), ("sum", "--n", "14"),
    ("remote-ot", "--m", "23", "--n", "1"),
])
def test_oversize_builtin_exits_3_before_it_is_built(capsys, monkeypatch, argv):
    # every product the built-ins take goes through the cap: a product over
    # it fails this test instead of being built
    real = itertools.product

    def capped(*factors):
        assert math.prod(map(len, factors)) * len(factors) <= PRODUCT_CAP
        return real(*factors)

    monkeypatch.setattr(itertools, "product", capped)
    t0 = time.monotonic()
    for cmd in ("analyze", "simulate"):
        code, out, err = run_cli(capsys, cmd, "--builtin", *argv)
        assert code == 3 and out == ""
        if argv == ("and", "--n", "10"):
            # its kernel is checked right after X, Y and Z, before the
            # product of its round alphabets
            assert err.startswith("capacity: kernel of 1024x1024x1024 symbols needs")
        else:
            assert err.startswith("capacity: a product of") and "exceeds cap %d" % PRODUCT_CAP in err
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("name,params", [
    ("and", {"n": 5}), ("sum", {"n": 6}), ("erasure", {"n": 7}), ("remote-ot", {"m": 3, "n": 3}),
    ("remote-ot", {"m": 2, "n": 5}), ("group-add", {"order": 14, "n": 2}),
])
def test_largest_runnable_builtins_stay_under_the_product_cap(name, params):
    b = builtin(name, **params)
    assert b.params == dict(_BUILTIN_PARAMS[name], **params)
