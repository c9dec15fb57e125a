import json
import math

import pytest

from scbound.cli import main
from scbound.dists import channel_to_json, dist_to_json, dumps
from scbound.protocols import builtin, spec_to_json

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


def test_capacity_exit_3(capsys):
    code, _, err = run_cli(capsys, "simulate", "--builtin", "remote-ot", "--m", "4", "--n", "4")
    assert code == 3
    assert "capacity" in err


def test_reproduce_only_and(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--only", "and", "--grid", "0.02")
    assert code == 0
    payload = json.loads(out)
    names = [r["name"] for r in payload["rows"]]
    assert "and" in names and "and-cmss-gap" in names
    row = payload["rows"][names.index("and")]
    assert row["match"]
    assert row["bounds"]["m12"] >= 1.826 - 1e-3
    assert row["simulated"]["m12"] == pytest.approx(1 + LOG3, abs=1e-9)


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
