import math

import numpy as np
import pytest

from scbound.cmss import (
    CmssSpec,
    and_cmss,
    and_secret_dist,
    cmss_joint,
    separation_report,
    share_entropies,
    verify_cmss,
)
from scbound.bounds import best_bounds, cmss_bounds
from scbound.dists import Alphabet, JointDist
from scbound.protocols import ExecutionJoint, builtin, run_exact, verify_info_inequality
from scbound.simplex import OptConfig

LOG3 = math.log2(3.0)
CFG = OptConfig()


def test_and_scheme_joint_support():
    joint = cmss_joint(and_cmss(), and_secret_dist())
    # 4 input pairs x 6 permutations = 24 dealer branches; the six (1,1)
    # branches produce (a,a,a) so only 3 distinct tuples remain there
    assert len(joint.probs) == 21 and joint.probs.min() > 0
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_and_scheme_share_entropies():
    h = share_entropies(cmss_joint(and_cmss(), and_secret_dist()))
    for link in ("m12", "m23", "m31"):
        assert h[link] == pytest.approx(LOG3, abs=1e-9)


def test_and_scheme_verifies():
    checks = verify_cmss(cmss_joint(and_cmss(), and_secret_dist()))
    assert all(checks.values())


def test_and_scheme_m12_is_uniform_label():
    joint = cmss_joint(and_cmss(), and_secret_dist())
    m12 = joint.marginal({3})
    assert np.allclose(m12.probs, 1 / 3)


def test_leaky_scheme_fails_privacy():
    base = and_cmss()
    leaky_m31 = Alphabet("M31", tuple((l, y) for l in (0, 1, 2) for y in base.secret_axes[1]))

    def share(x, y, z, r):
        m12, m23, m31 = base.share_fn(x, y, z, r)
        return m12, m23, (m31, y)

    spec = CmssSpec(base.secret_axes, base.dealer_randomness,
                    (base.share_axes[0], base.share_axes[1], leaky_m31), share)
    checks = verify_cmss(cmss_joint(spec, and_secret_dist()))
    assert not checks["privacy_alice"]  # Alice's links now reveal Bob's input
    assert checks["reconstruct_x"] and checks["reconstruct_z"]


def test_additive_xor_scheme_uniform_shares():
    # one-time-pad sharing of an XOR triple: every share is a uniform bit
    # and every pairwise share marginal is uniform
    x, y, z = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1)), Alphabet("Z", (0, 1))
    spec = CmssSpec(
        (x, y, z),
        Alphabet("R", (0, 1)),
        (Alphabet("M12", (0, 1)), Alphabet("M23", (0, 1)), Alphabet("M31", (0, 1))),
        lambda a, b, c, k: (k, b ^ k, a ^ k),
    )
    p_xyz = JointDist.from_pmf(
        (x, y, z), {(a, b, a ^ b): 0.25 for a in (0, 1) for b in (0, 1)}
    )
    joint = cmss_joint(spec, p_xyz)
    assert all(verify_cmss(joint).values())
    for pair in ((3, 4), (4, 5), (3, 5)):
        assert np.allclose(joint.marginal(set(pair)).probs, 0.25)
    assert share_entropies(joint) == pytest.approx({"m12": 1.0, "m23": 1.0, "m31": 1.0})


def test_trivial_scheme_for_constant_secrets():
    axes = (Alphabet("X", ("x",)), Alphabet("Y", ("y",)), Alphabet("Z", ("z",)))
    spec = CmssSpec(
        axes, Alphabet("R", ("-",)),
        (Alphabet("M12", ("-",)), Alphabet("M23", ("-",)), Alphabet("M31", ("-",))),
        lambda x, y, z, r: ("-", "-", "-"),
    )
    joint = cmss_joint(spec, JointDist.uniform(axes))
    assert all(verify_cmss(joint).values())
    assert share_entropies(joint) == {"m12": 0.0, "m23": 0.0, "m31": 0.0}


@pytest.mark.parametrize("name,kwargs", [("and", {}), ("sum", {}), ("group-add", {"order": 2})])
def test_protocol_transcripts_form_a_scheme(name, kwargs):
    b = builtin(name, **kwargs)
    e = run_exact(b.spec, b.default_input)
    assert all(verify_cmss(e.joint).values())


def test_and_scheme_entropies_respect_share_bounds():
    joint = cmss_joint(and_cmss(), and_secret_dist())
    h = share_entropies(joint)
    out = cmss_bounds(and_secret_dist(), CFG)
    for link in ("m12", "m23", "m31"):
        assert h[link] >= out[link].value - 1e-9


def test_and_scheme_violates_protocol_inequality():
    # the dealer joint breaks the interactive-protocol information
    # inequality, so no protocol can generate these transcripts
    joint = cmss_joint(and_cmss(), and_secret_dist())
    checks = verify_info_inequality(ExecutionJoint(joint))
    assert not all(checks)


def test_separation_report_and_gap():
    rep = separation_report(cfg=CFG)
    assert rep.gaps["m12"] == pytest.approx(1.826 - LOG3, abs=2e-3)
    assert rep.gaps["m23"] == pytest.approx(0.0, abs=2e-3)
    assert rep.gaps["m31"] == pytest.approx(0.0, abs=2e-3)
    for link in ("m12", "m23", "m31"):
        assert rep.scheme_entropies[link] == pytest.approx(LOG3, abs=1e-9)


def test_separation_report_takes_the_callers_report():
    b = builtin("and")
    rep = best_bounds(b.default_input, b.channel, CFG)
    assert separation_report(cfg=CFG, report=rep) == separation_report(cfg=CFG)


def test_separation_report_group_add_no_gap():
    b = builtin("group-add", order=2)
    rep = separation_report(ch=b.channel, cfg=CFG)
    for link in ("m12", "m23", "m31"):
        assert rep.gaps[link] == pytest.approx(0.0, abs=2e-3)


def test_separation_report_remote_ot_charlie_links():
    b = builtin("remote-ot", m=2)
    rep = separation_report(ch=b.channel, cfg=CFG)
    assert rep.gaps["m23"] == pytest.approx(0.0, abs=2e-3)
    assert rep.gaps["m31"] == pytest.approx(0.0, abs=2e-3)

