"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Block-length-2 claims are certified by evaluating the bound expressions at
iid products of the single-copy witnesses (any full-support evaluation point
yields a valid lower bound), plus exact simulation of the two-copy protocols.
"""

import json
import math
import time

import numpy as np
import pytest

from scbound.bounds import (
    best_bounds,
    conditional_bounds,
    improved_bounds,
    intermediate_bounds,
    prelim_bounds,
    switched_bounds,
    term_value,
)
from scbound.cli import main
from scbound.cmss import and_cmss, and_secret_dist, cmss_joint, separation_report, share_entropies, verify_cmss
from scbound.common_info import residual_info
from scbound.dists import LINKS, Alphabet, JointDist
from scbound.normal_form import bigraph_connected, check_condition1, check_condition2
from scbound.protocols import (
    builtin,
    expected_lengths,
    run_exact,
    verify_correctness,
    verify_cutset,
    verify_info_inequality,
    verify_privacy,
    verify_transcript_independence,
)
from scbound.simplex import OptConfig

from common_info_oracle import residual_info_oracle

LOG3 = math.log2(3.0)
CFG = OptConfig()


def _report(criterion, ok):
    print("ACCEPTANCE %-44s %s" % (criterion, "PASS" if ok else "FAIL"))
    assert ok, criterion


def _marginals(p_xy):
    return (
        JointDist((p_xy.axes[0],), p_xy.probs.sum(axis=1)),
        JointDist((p_xy.axes[1],), p_xy.probs.sum(axis=0)),
    )


def test_criterion_01_and_bounds():
    b = builtin("and")
    t0 = time.monotonic()
    rep = best_bounds(b.default_input, b.channel, CFG)
    elapsed = time.monotonic() - t0
    ok = (
        rep.h_m23.value >= LOG3 - 1e-3
        and rep.h_m31.value >= LOG3 - 1e-3
        and rep.h_m12.value >= 1.826 - 1e-3
        and rep.rho >= 1.826 - 1e-3
    )
    w = rep.h_m12.witnesses
    ok = ok and abs(float(w["p_X'"].probs[1]) - 0.456) <= 0.02
    ok = ok and abs(float(w["p_Y'"].probs[1]) - 0.397) <= 0.02
    ok = ok and elapsed < 30.0
    _report("01 and bounds + witnesses (<30s)", ok)


def test_criterion_02_remote_ot():
    b = builtin("remote-ot", m=2, n=1)
    t0 = time.monotonic()
    rep = best_bounds(b.default_input, b.channel, CFG)
    elapsed = time.monotonic() - t0
    ok = (
        rep.h_m31.value >= 2 - 1e-3
        and rep.h_m23.value >= 2 - 1e-3
        and rep.h_m12.value >= 3 - 1e-3
        and rep.rho >= 3 - 1e-3
    )
    e = run_exact(b.spec, b.default_input)
    ok = ok and e.h("m31") == pytest.approx(2.0, abs=1e-12)
    ok = ok and e.h("m23") == pytest.approx(2.0, abs=1e-12)
    ok = ok and e.h("m12") == pytest.approx(3.0, abs=1e-12)
    ok = ok and verify_correctness(e, b.channel)
    ok = ok and all(verify_privacy(e)) and all(verify_cutset(e))
    ok = ok and all(verify_info_inequality(e))
    ok = ok and elapsed < 10.0

    b3 = builtin("remote-ot", m=3, n=1)
    rep3 = best_bounds(b3.default_input, b3.channel, CFG)
    ok = ok and rep3.h_m31.value >= 3 - 1e-2
    ok = ok and rep3.h_m23.value >= 1 + LOG3 - 1e-2
    ok = ok and rep3.h_m12.value >= 3 + LOG3 - 1e-2
    _report("02 remote-ot m=2 (<10s) and m=3 bounds", ok)


def test_criterion_03_group_add():
    ok = True
    for order in (2, 3, 6):
        b = builtin("group-add", order=order)
        rep = best_bounds(b.default_input, b.channel, CFG)
        e = run_exact(b.spec, b.default_input)
        target = math.log2(order)
        ideal = True
        for link in LINKS:
            ideal = ideal and abs(rep.link(link).value - target) <= 1e-6
            ideal = ideal and abs(e.h(link) - target) <= 1e-6
            ideal = ideal and abs(rep.link(link).value - e.h(link)) <= 1e-6
        ok = ok and ideal and abs(rep.rho - target) <= 1e-6
    _report("03 group-add |G| in {2,3,6} communication-ideal", ok)


def test_criterion_04_sum():
    b = builtin("sum")
    rep = best_bounds(b.default_input, b.channel, CFG)
    ok = (
        rep.h_m23.value >= LOG3 - 1e-3
        and rep.h_m31.value >= LOG3 - 1e-3
        and rep.h_m12.value >= 1.5 - 1e-3
    )
    e = run_exact(b.spec, b.default_input)
    ok = ok and all(abs(e.h(link) - LOG3) <= 1e-9 for link in LINKS)
    gap_m12 = e.h("m12") - rep.h_m12.value
    ok = ok and gap_m12 == pytest.approx(LOG3 - 1.5, abs=1e-3)  # the open gap
    _report("04 sum bounds and open m12 gap", ok)


def test_criterion_05_erasure():
    b = builtin("erasure", p=0.5, q=0.5)
    rep = best_bounds(b.default_input, b.channel, CFG)
    ok = rep.h_m31.value >= 1.5 - 1e-3
    ok = ok and rep.h_m12.value >= 1.0 - 1e-6 and rep.h_m23.value >= 1.0 - 1e-6
    e = run_exact(b.spec, b.default_input)
    for link in LINKS:
        ok = ok and abs(e.h(link) - rep.link(link).value) <= 1e-6
    lens = expected_lengths(b.spec, b.default_input, execution=e)
    ok = ok and lens["m31"] < 1.0 + 1 + 0.5  # H2(1/2) + 1 + p
    _report("05 controlled-erasure p=q=1/2", ok)


def test_criterion_06_cmss_separation():
    joint = cmss_joint(and_cmss(), and_secret_dist())
    ok = all(verify_cmss(joint).values())
    h = share_entropies(joint)
    ok = ok and all(abs(h[link] - LOG3) <= 1e-9 for link in LINKS)
    rep = separation_report(cfg=CFG)
    ok = ok and abs(rep.gaps["m12"] - (1.826 - LOG3)) <= 2e-3
    _report("06 and CMSS scheme and separation gap ~0.241", ok)


def test_tight_examples_reach_their_exact_values(tmp_path):
    # at the default config the scan lands on the uniform law of a face,
    # so the tight terms are their exact values, not a polish's approach
    out = tmp_path / "rot2.json"
    main(["reproduce", "--only", "remote-ot-2", "--out", str(out)])
    (row,) = json.loads(out.read_text())["rows"]
    ok = abs(row["bounds"]["m23"] - 2.0) <= 1e-12
    b = builtin("and")
    ok = ok and abs(best_bounds(b.default_input, b.channel, CFG).h_m31.value - LOG3) <= 1e-12
    m12 = improved_bounds(builtin("remote-ot", m=2).channel, CFG)["m12"]
    ok = ok and abs(m12.value - math.log2(6)) <= 1e-12
    _report("tight and/remote-ot terms exact (1e-12)", ok)


def test_remote_ot_channel_seeds_reach_their_exact_values():
    # the channel seeds: remote-ot m=3's improved m12 is log 18 at its
    # row-modal law, and m23 log 6 at the constant-row law x uniform
    imp = improved_bounds(builtin("remote-ot", m=3).channel, CFG)
    ok = abs(imp["m12"].value - math.log2(18)) <= 1e-12
    ok = ok and abs(imp["m23"].value - math.log2(6)) <= 1e-12
    _report("remote-ot m=3 improved m12, m23 exact (1e-12)", ok)


@pytest.mark.parametrize("m,n", [(3, 2), (2, 3), (2, 2)])
def test_remote_ot_meets_its_protocol_entropy(m, n):
    # remote OT is communication-ideal: at the default config every link's
    # bound meets the built-in protocol's entropy
    b = builtin("remote-ot", m=m, n=n)
    rep = best_bounds(b.default_input, b.channel, CFG)
    e = run_exact(b.spec, b.default_input)
    ok = all(abs(rep.link(link).value - e.h(link)) <= 1e-9 for link in LINKS)
    _report("remote-ot m=%d n=%d meets its protocol (1e-9)" % (m, n), ok)


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(20240502)
    u = Alphabet("U", tuple(range(6)))
    v = Alphabet("V", tuple(range(6)))
    t0 = time.monotonic()
    ok = True
    for _ in range(200):
        w = rng.integers(0, 4, size=(6, 6)).astype(float)
        if w.sum() == 0:
            w[0, 0] = 1.0
        d = JointDist((u, v), w / w.sum())
        ok = ok and abs(residual_info(d) - residual_info_oracle(d)) <= 1e-9
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report("07 residual information oracle x200 (<60s)", ok)


def _skewed_product(x_axis, y_axis):
    wx = np.arange(1, len(x_axis) + 1, dtype=float)
    wy = np.arange(1, len(y_axis) + 1, dtype=float)
    return JointDist((x_axis, y_axis), np.outer(wx / wx.sum(), wy / wy.sum()))


def _dependent_full_support(x_axis, y_axis):
    w = np.fromfunction(lambda i, j: 1.0 + (i + j) % 2, (len(x_axis), len(y_axis)))
    return JointDist((x_axis, y_axis), w / w.sum())


def test_criterion_08_protocol_property_suite():
    ok = True
    for name, kwargs in (
        ("and", {}),
        ("group-add", {"order": 2}),
        ("sum", {}),
        ("erasure", {}),
        ("remote-ot", {"m": 2}),
    ):
        b = builtin(name, **kwargs)
        c1, c2 = check_condition1(b.channel), check_condition2(b.channel)
        dists = (
            b.default_input if name != "erasure" else JointDist.uniform((b.spec.x_axis, b.spec.y_axis)),
            _skewed_product(b.spec.x_axis, b.spec.y_axis),
            _dependent_full_support(b.spec.x_axis, b.spec.y_axis),
        )
        for p_xy in dists:
            product_inputs = bool(
                np.max(np.abs(np.outer(p_xy.probs.sum(1), p_xy.probs.sum(0)) - p_xy.probs)) <= 1e-9
            )
            e = run_exact(b.spec, p_xy)
            ok = ok and verify_correctness(e, b.channel)
            ok = ok and all(verify_privacy(e))
            ok = ok and all(verify_cutset(e))
            indep = verify_transcript_independence(
                e,
                bigraph_connected=bigraph_connected(p_xy),
                condition1=c1,
                condition2=c2,
                product_inputs=product_inputs,
            )
            ok = ok and all(v for v in indep.values() if v is not None)
            if product_inputs:
                ok = ok and all(verify_info_inequality(e))
            lens = expected_lengths(b.spec, p_xy, execution=e)
            ok = ok and all(lens[l] >= e.h(l) - 1e-9 for l in LINKS)
    _report("08 builtin x input-distribution property suite", ok)


def test_criterion_09_strengthening_chain():
    ok = True
    for name, kwargs in (("and", {}), ("sum", {}), ("remote-ot", {"m": 2})):
        b = builtin(name, **kwargs)
        px, py = _marginals(b.default_input)
        t1 = prelim_bounds(b.default_input, b.channel)
        t4 = intermediate_bounds(px, py, b.channel)
        t5 = switched_bounds(b.channel, px, py, CFG)
        t6 = conditional_bounds(b.channel, CFG)
        for link in LINKS:
            v1, v4 = t1[link], t4[link]
            v56 = t5[link].value
            if link in ("m23", "m31") and t6[link] is not None:
                v56 = max(v56, t6[link].value)
            ok = ok and v1 <= v4 + 1e-3 and v4 <= v56 + 1e-3
    _report("09 bound-family strengthening chain", ok)


def test_criterion_10_distribution_freeness():
    b = builtin("and")
    skew = JointDist.from_pmf(
        (b.channel.x_axis, b.channel.y_axis),
        {((0,), (0,)): 0.2, ((0,), (1,)): 0.2, ((1,), (0,)): 0.2, ((1,), (1,)): 0.4},
    )
    rep_u = best_bounds(b.default_input, b.channel, CFG)
    rep_s = best_bounds(skew, b.channel, CFG)
    ok = True
    for link in LINKS:
        tu = {t.name: t.value for t in rep_u.link(link).terms if t.distribution_free}
        ts = {t.name: t.value for t in rep_s.link(link).terms if t.distribution_free}
        ok = ok and set(tu) == set(ts)
        ok = ok and all(abs(tu[k] - ts[k]) < 1e-3 for k in tu)
    _report("10 distribution-free terms invariant", ok)


# -- block-length 2 checks of the per-copy claims ------------------------------


def _kron_dist(p, q=None):
    q = p if q is None else q
    return np.kron(np.asarray(p, dtype=float), np.asarray(q, dtype=float))


def _joint_power(q1):
    """Two iid copies of a 2x2 joint, laid out over ((x1,x2),(y1,y2))."""
    q1 = np.asarray(q1, dtype=float).reshape(2, 2)
    return np.einsum("ab,cd->acbd", q1, q1).reshape(4, 4)


def test_block_length_2_and():
    ch2 = builtin("and", n=2).channel
    v = term_value(
        ch2, "switched_m12_top",
        {"p_X'": _kron_dist([0.544, 0.456]), "p_Y'": _kron_dist([0.603, 0.397]),
         "p_Y''": _kron_dist([0.5, 0.5])},
    )
    ok = v >= 2 * 1.826 - 2e-3
    # the two Charlie links at the iid product of the 3-point witnesses
    q31 = _joint_power([1 / 3, 0.0, 1 / 3, 1 / 3])
    q23 = _joint_power([1 / 3, 1 / 3, 0.0, 1 / 3])
    x2, y2 = ch2.x_axis, ch2.y_axis
    v31 = term_value(ch2, "improved_m31_ri_yz", {"p_X'Y'": JointDist((x2, y2), q31)})
    ok = ok and v31 >= 2 * LOG3 - 1e-9
    v23 = term_value(ch2, "improved_m23_ri_xz", {"p_X'Y'": JointDist((x2, y2), q23)})
    ok = ok and v23 >= 2 * LOG3 - 1e-9
    b2 = builtin("and", n=2)
    e = run_exact(b2.spec, b2.default_input)
    ok = ok and e.h("m12") == pytest.approx(2 * (1 + LOG3), abs=1e-9)
    ok = ok and all(verify_privacy(e)) and verify_correctness(e, b2.channel)
    _report("n=2 and: 2x1.826 and 2xlog3 certified", ok)


def test_block_length_2_group_add_and_sum():
    b = builtin("group-add", order=2, n=2)
    tri = prelim_bounds(b.default_input, b.channel)
    e = run_exact(b.spec, b.default_input)
    ok = all(
        abs(v - 2.0) <= 1e-9 for v in (tri["m12"], tri["m23"], tri["m31"], e.h("m12"), e.h("m23"), e.h("m31"))
    )

    bs = builtin("sum", n=2)
    ch2 = bs.channel
    u4 = np.full(4, 0.25)
    v = term_value(ch2, "switched_m12_top", {"p_X'": u4, "p_Y'": u4, "p_Y''": u4})
    ok = ok and v >= 2 * 1.5 - 1e-9
    q = _joint_power([1 / 3, 1 / 6, 1 / 6, 1 / 3])
    vq = term_value(
        ch2, "improved_m31_ri_yz", {"p_X'Y'": JointDist((ch2.x_axis, ch2.y_axis), q)}
    )
    ok = ok and vq >= 2 * LOG3 - 1e-9
    e = run_exact(bs.spec, bs.default_input)
    ok = ok and all(abs(e.h(l) - 2 * LOG3) <= 1e-9 for l in LINKS)
    _report("n=2 group-add and sum claims certified", ok)


def test_block_length_2_erasure_and_remote_ot():
    be = builtin("erasure", n=2)
    ch2 = be.channel
    u4 = np.full(4, 0.25)
    v31 = term_value(ch2, "switched_m31", {"p_X": u4, "p_Y'": u4, "p_Y''": u4})
    ok = v31 >= 2 * 1.5 - 1e-9
    tri = prelim_bounds(be.default_input, be.channel)
    ok = ok and tri["m12"] >= 2 - 1e-9 and tri["m23"] >= 2 - 1e-9
    e = run_exact(be.spec, be.default_input)
    ok = ok and e.h("m31") == pytest.approx(3.0, abs=1e-9)

    bo = builtin("remote-ot", m=2, n=2)
    cho = bo.channel
    u16 = np.full(16, 1 / 16)
    u2 = np.full(2, 0.5)
    diag = np.array([1.0 if s[0] == s[1] else 0.0 for s in cho.x_axis.symbols])
    diag /= diag.sum()
    v31 = term_value(cho, "conditional_m31", {"p_X'": u16, "p_Y'": u2, "p_Y''": u2})
    ok = ok and v31 >= 4 - 1e-9
    vertex = np.zeros(16)
    vertex[0] = 1.0
    v23 = term_value(cho, "conditional_m23", {"p_Y'": u2, "p_X'": diag, "p_X''": vertex})
    ok = ok and v23 >= 3 - 1e-9
    v12 = term_value(cho, "switched_m12_bottom", {"p_Y'": u2, "p_X'": diag, "p_X''": u16})
    ok = ok and v12 >= 5 - 1e-9
    e = run_exact(bo.spec, bo.default_input)
    ok = ok and (e.h("m31"), e.h("m23"), e.h("m12")) == pytest.approx((4.0, 3.0, 5.0), abs=1e-9)
    ok = ok and all(verify_privacy(e)) and verify_correctness(e, bo.channel)
    _report("n=2 erasure and remote-ot claims certified", ok)


def test_block_length_3_and(tmp_path):
    # 8 x 8 inputs x 216 permutation triples: 13,824 branches over a product
    # of about 80.6M cells, run as support rows
    out = tmp_path / "and3.json"
    code = main(["simulate", "--builtin", "and", "--n", "3", "--out", str(out)])
    report = json.loads(out.read_text())
    h = report["entropies"]
    ok = code == 0
    ok = ok and abs(h["m12"] - 3 * (1 + LOG3)) <= 1e-9
    ok = ok and abs(h["m23"] - 3 * LOG3) <= 1e-9 and abs(h["m31"] - 3 * LOG3) <= 1e-9
    names = {"correctness", "privacy_alice", "privacy_bob", "privacy_charlie", "cutset_x",
             "cutset_y", "cutset_z", "info_ineq_31_23", "info_ineq_12_31", "info_ineq_23_12"}
    ok = ok and set(report["checks"]) == names and all(report["checks"].values())
    _report("n=3 and: 3(1+log3) and 3xlog3, all checks", ok)
