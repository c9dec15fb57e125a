import math

import numpy as np
import pytest

from scbound.bounds import (
    best_bounds,
    cmss_bounds,
    conditional_bounds,
    improved_bounds,
    intermediate_bounds,
    prelim_bounds,
    randomness_bound,
    sampling_bounds,
    switched_bounds,
    term_value,
)
from scbound.dists import (
    Alphabet,
    Channel,
    JointDist,
    PreconditionError,
    join,
)
from scbound.protocols import builtin
from scbound.simplex import OptConfig

LOG3 = math.log2(3.0)
CFG = OptConfig()

I_XZ_AND = 0.31127812445913294  # brute force on the 4-point joint
H_XY_GIVEN_Z_AND = 1.188721875540867


def uniform_input(ch):
    return JointDist.uniform((ch.x_axis, ch.y_axis))


def marginals(p_xy):
    x = JointDist((p_xy.axes[0],), p_xy.probs.sum(axis=1))
    y = JointDist((p_xy.axes[1],), p_xy.probs.sum(axis=0))
    return x, y


# -- evaluation bounds -------------------------------------------------------


def test_prelim_group_add_uniform():
    b = builtin("group-add", order=2)
    tri = prelim_bounds(b.default_input, b.channel)
    assert (tri.m23, tri.m31, tri.m12) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_prelim_and_uniform(and_channel, uniform_bits):
    tri = prelim_bounds(uniform_bits, and_channel)
    # residual terms from the 4-point joint; conditional entropies direct
    assert tri.m12 == pytest.approx(I_XZ_AND + H_XY_GIVEN_Z_AND, abs=1e-12)
    assert tri.m12 == pytest.approx(1.5, abs=1e-12)
    assert tri.m23 == pytest.approx(I_XZ_AND + 1.0, abs=1e-12)
    assert tri.m31 == pytest.approx(I_XZ_AND + 1.0, abs=1e-12)


def test_prelim_constant_channel_collapses():
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    ch = Channel.from_function(x, y, z, lambda a, b: 0)
    from scbound.normal_form import channel_normal_form, pair_normal_form

    res = channel_normal_form(ch)
    assert all(len(ax) == 1 for ax in (res.reduced.x_axis, res.reduced.y_axis, res.reduced.z_axis))
    p1 = JointDist.uniform((res.reduced.x_axis, res.reduced.y_axis))
    pres = pair_normal_form(p1, res.reduced)
    tri = prelim_bounds(*pres.reduced)
    assert (tri.m23, tri.m31, tri.m12) == (0.0, 0.0, 0.0)


def test_prelim_requires_normal_form(and_channel):
    # a zero column makes the pair reducible
    p = JointDist.from_pmf(
        (and_channel.x_axis, and_channel.y_axis), {(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25}
    )
    with pytest.raises(PreconditionError):
        prelim_bounds(p, and_channel)


def test_intermediate_and(and_channel, uniform_bits):
    px, py = marginals(uniform_bits)
    tri = intermediate_bounds(px, py, and_channel)
    assert tri.m12 == pytest.approx(2 * I_XZ_AND + H_XY_GIVEN_Z_AND, abs=1e-12)
    assert tri.m12 == pytest.approx(1.811278124459133, abs=1e-12)
    assert tri.m23 == pytest.approx(I_XZ_AND + 1.0, abs=1e-12)


def test_intermediate_group_add():
    b = builtin("group-add", order=2)
    px, py = marginals(b.default_input)
    tri = intermediate_bounds(px, py, b.channel)
    assert (tri.m23, tri.m31, tri.m12) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_intermediate_degenerate_singletons():
    # a constant function collapses to singleton alphabets; everything is 0
    x, y, z = Alphabet("X", ("*",)), Alphabet("Y", ("*",)), Alphabet("Z", ("c",))
    ch = Channel.from_function(x, y, z, lambda a, b: "c")
    tri = intermediate_bounds(JointDist.uniform((x,)), JointDist.uniform((y,)), ch)
    assert (tri.m23, tri.m31, tri.m12) == (0.0, 0.0, 0.0)


def test_improved_dominates_prelim_on_random_channels(rng):
    # the optimized family includes the evaluation point, so for channels in
    # normal form under uniform inputs it can only be stronger on the
    # Alice-Bob link (and on the gated links when applicable)
    from scbound.normal_form import (
        channel_normal_form,
        check_condition1,
        check_condition2,
        is_pair_normal_form,
    )

    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    tried = 0
    for _ in range(12):
        kernel = np.zeros((3, 2, 2))
        for i in range(3):
            for j in range(2):
                kernel[i, j, rng.integers(2)] = 1.0
        ch = channel_normal_form(Channel(x, y, z, kernel)).reduced
        p = JointDist.uniform((ch.x_axis, ch.y_axis))
        if not is_pair_normal_form(p, ch):
            continue
        tried += 1
        t1 = prelim_bounds(p, ch)
        imp = improved_bounds(ch, CFG)
        assert imp["m12"].value >= t1.m12 - 1e-9
        if check_condition1(ch):
            assert imp["m31"].value >= t1.m31 - 1e-9
        if check_condition2(ch):
            assert imp["m23"].value >= t1.m23 - 1e-9
    assert tried >= 3


def test_intermediate_requires_full_support(and_channel):
    px = JointDist((and_channel.x_axis,), [1.0, 0.0])
    py = JointDist((and_channel.y_axis,), [0.5, 0.5])
    with pytest.raises(PreconditionError):
        intermediate_bounds(px, py, and_channel)


# -- optimized bounds --------------------------------------------------------


def test_improved_group_add():
    b = builtin("group-add", order=2)
    out = improved_bounds(b.channel, CFG)
    for link in ("m12", "m23", "m31"):
        assert out[link] is not None
        assert out[link].value == pytest.approx(1.0, abs=1e-6)


def test_improved_and_reaches_log3(and_channel):
    out = improved_bounds(and_channel, CFG)
    assert out["m31"].value == pytest.approx(LOG3, abs=1e-3)
    assert out["m23"].value == pytest.approx(LOG3, abs=1e-3)
    # the limiting witnesses sit on the boundary of the simplex
    assert out["m31"].limit_point and out["m23"].limit_point


def test_improved_erasure_gates():
    b = builtin("erasure")
    out = improved_bounds(b.channel, CFG)
    assert out["m31"] is None  # condition 1 fails
    assert out["m23"].value >= 1.0 - 1e-6
    assert out["m12"].value >= 1.0 - 1e-6


def test_improved_witness_reevaluates(and_channel):
    out = improved_bounds(and_channel, CFG)
    tv = out["m31"]
    assert tv.name.startswith("improved_m31_")
    again = term_value(and_channel, tv.name, {"p_X'Y'": tv.witnesses["p_X'Y'"]})
    assert again == pytest.approx(tv.value, abs=1e-9)


def test_switched_and_witnesses(and_channel, uniform_bits):
    px, py = marginals(uniform_bits)
    out = switched_bounds(and_channel, px, py, CFG)
    m12 = out["m12"]
    assert m12.value >= 1.826 - 1e-3
    assert m12.name == "switched_m12_top"
    assert m12.witnesses["p_X'"].probs[1] == pytest.approx(0.456, abs=0.02)
    assert m12.witnesses["p_Y'"].probs[1] == pytest.approx(0.397, abs=0.02)
    again = term_value(
        and_channel, "switched_m12_top",
        {"p_X'": m12.witnesses["p_X'"], "p_Y'": m12.witnesses["p_Y'"],
         "p_Y''": m12.witnesses["p_Y''"]},
    )
    assert again == pytest.approx(m12.value, abs=1e-9)


def test_switched_remote_ot():
    b = builtin("remote-ot", m=2)
    px, py = marginals(b.default_input)
    out = switched_bounds(b.channel, px, py, CFG)
    assert out["m31"].value >= 2.0 - 1e-3
    assert out["m23"].value >= 2.0 - 1e-3
    assert out["m12"].value >= 3.0 - 1e-3


def test_switched_sum_m12():
    b = builtin("sum")
    px, py = marginals(b.default_input)
    out = switched_bounds(b.channel, px, py, CFG)
    assert out["m12"].value == pytest.approx(1.5, abs=1e-3)


def test_conditional_remote_ot():
    b = builtin("remote-ot", m=2)
    out = conditional_bounds(b.channel, CFG)
    assert out["m31"].value >= 2.0 - 1e-3
    assert out["m23"].value >= 2.0 - 1e-3
    v = term_value(
        b.channel,
        "conditional_m31",
        {
            "p_X'": out["m31"].witnesses["p_X'"],
            "p_Y'": out["m31"].witnesses["p_Y'"],
            "p_Y''": out["m31"].witnesses["p_Y''"],
        },
    )
    assert v == pytest.approx(out["m31"].value, abs=1e-9)


def test_conditional_erasure_not_applicable():
    b = builtin("erasure")
    out = conditional_bounds(b.channel, CFG)
    assert out["m31"] is None
    assert out["m23"] is not None


def test_conditional_sum_dominated_by_improved():
    b = builtin("sum")
    cond = conditional_bounds(b.channel, CFG)
    imp = improved_bounds(b.channel, CFG)
    assert cond["m31"].value <= imp["m31"].value + 1e-6
    assert cond["m23"].value <= imp["m23"].value + 1e-6
    assert imp["m31"].value == pytest.approx(LOG3, abs=1e-3)


# -- best_bounds and randomness ---------------------------------------------


def test_best_bounds_and(and_channel, uniform_bits):
    rep = best_bounds(uniform_bits, and_channel, CFG)
    assert rep.h_m23.value >= LOG3 - 1e-3
    assert rep.h_m31.value >= LOG3 - 1e-3
    assert rep.h_m12.value >= 1.826 - 1e-3
    assert rep.rho >= 1.826 - 1e-3
    assert rep.conditions["condition1"] and rep.conditions["condition2"]


def test_best_bounds_group_add_6():
    b = builtin("group-add", order=6)
    rep = best_bounds(b.default_input, b.channel, CFG)
    for link in ("m12", "m23", "m31"):
        assert rep.link(link).value == pytest.approx(math.log2(6), abs=1e-6)
    assert rep.rho == pytest.approx(math.log2(6), abs=1e-6)


def test_best_bounds_erasure():
    b = builtin("erasure")
    rep = best_bounds(b.default_input, b.channel, CFG)
    assert rep.h_m31.value >= 1.5 - 1e-3
    assert rep.h_m12.value >= 1.0 - 1e-6
    assert rep.h_m23.value >= 1.0 - 1e-6
    # condition 1 fails, so the randomness bound comes from the other links
    assert rep.rho == pytest.approx(1.0, abs=1e-6)


def test_best_bounds_erasure_general_parameters():
    # non-uniform control bit: the Charlie-Alice bound tracks H2(p) + p and
    # the protocol still meets it exactly on every link
    from scbound.protocols import run_exact

    p = 0.3
    b = builtin("erasure", p=p, q=0.7)
    rep = best_bounds(b.default_input, b.channel, CFG)
    e = run_exact(b.spec, b.default_input)
    h2p = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert rep.h_m31.value == pytest.approx(h2p + p, abs=1e-6)
    for link in ("m12", "m23", "m31"):
        assert abs(e.h(link) - rep.link(link).value) <= 1e-6


def test_randomness_examples(and_channel, uniform_bits):
    rep = best_bounds(uniform_bits, and_channel, CFG)
    assert randomness_bound(rep) >= 1.826 - 1e-3
    b = builtin("sum")
    rep = best_bounds(b.default_input, b.channel, CFG)
    assert rep.rho >= LOG3 - 1e-3
    b = builtin("remote-ot", m=2)
    rep = best_bounds(b.default_input, b.channel, CFG)
    assert rep.rho >= 3.0 - 1e-3


def test_best_bounds_normalizes_redundant_channel(uniform_bits):
    # duplicated x symbol: merged before any bound is computed
    x = Alphabet("X", (0, 1, 2))
    y = Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    ch = Channel.from_function(x, y, z, lambda a, b: min(a, 1) & b)
    p = JointDist.uniform((x, y))
    rep = best_bounds(p, ch, CFG)
    assert rep.merges["x"][2] == 1
    assert rep.h_m12.value >= 1.826 - 1e-3


# -- sampling and dealer bounds ----------------------------------------------


def test_sampling_and_joint(and_joint):
    tri = sampling_bounds(and_joint)
    assert tri.m23 == pytest.approx(I_XZ_AND + 0.0 + 1.0, abs=1e-12)
    assert tri.m31 == pytest.approx(I_XZ_AND + 0.0 + 1.0, abs=1e-12)
    assert tri.m12 == pytest.approx(2 * I_XZ_AND + H_XY_GIVEN_Z_AND, abs=1e-12)


def test_sampling_identical_secrets():
    # X = Y = Z a uniform bit: every residual and conditional term vanishes
    x, y, z = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1)), Alphabet("Z", (0, 1))
    d = JointDist.from_pmf((x, y, z), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    tri = sampling_bounds(d)
    assert (tri.m23, tri.m31, tri.m12) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_sampling_requires_normal_form():
    # an independent component makes slices proportional, hence reducible
    x, y, z = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1)), Alphabet("Z", ("c",))
    d = JointDist.uniform((x, y, z))
    with pytest.raises(PreconditionError):
        sampling_bounds(d)


def test_cmss_bounds_and_joint(and_joint):
    out = cmss_bounds(and_joint, CFG)
    for link in ("m12", "m23", "m31"):
        assert out[link].value == pytest.approx(LOG3, abs=1e-3)


def test_cmss_bounds_group_add_joint():
    b = builtin("group-add", order=2)
    out = cmss_bounds(join(b.default_input, b.channel), CFG)
    for link in ("m12", "m23", "m31"):
        assert out[link].value >= 1.0 - 1e-6


def test_cmss_bounds_independent_secrets():
    x, y, z = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1)), Alphabet("Z", (0, 1))
    d = JointDist.uniform((x, y, z))
    out = cmss_bounds(d, CFG)
    # residual terms vanish; the conditional entropies are the whole bound
    for link in ("m12", "m23", "m31"):
        assert out[link].value == pytest.approx(2.0, abs=1e-6)


# -- cross-family invariants ----------------------------------------------------


@pytest.mark.parametrize("name,kwargs", [("and", {}), ("sum", {}), ("remote-ot", {"m": 2})])
def test_strengthening_chain(name, kwargs):
    b = builtin(name, **kwargs)
    px, py = marginals(b.default_input)
    t1 = prelim_bounds(b.default_input, b.channel)
    t4 = intermediate_bounds(px, py, b.channel)
    t5 = switched_bounds(b.channel, px, py, CFG)
    t6 = conditional_bounds(b.channel, CFG)
    for link in ("m12", "m23", "m31"):
        v1, v4 = getattr(t1, link), getattr(t4, link)
        assert v1 <= v4 + 1e-3
        v56 = t5[link].value
        if link in ("m23", "m31") and t6[link] is not None:
            v56 = max(v56, t6[link].value)
        assert v4 <= v56 + 1e-3


def test_distribution_free_terms_match_between_inputs(and_channel, uniform_bits):
    skew = JointDist.from_pmf(
        (and_channel.x_axis, and_channel.y_axis),
        {(0, 0): 0.2, (0, 1): 0.2, (1, 0): 0.2, (1, 1): 0.4},
    )
    rep_u = best_bounds(uniform_bits, and_channel, CFG)
    rep_s = best_bounds(skew, and_channel, CFG)
    for link in ("m12", "m23", "m31"):
        tu = {t.name: t.value for t in rep_u.link(link).terms if t.distribution_free}
        ts = {t.name: t.value for t in rep_s.link(link).terms if t.distribution_free}
        assert set(tu) == set(ts)
        for k in tu:
            assert tu[k] == pytest.approx(ts[k], abs=1e-3)


@pytest.mark.parametrize("name,kwargs", [("and", {}), ("group-add", {"order": 3})])
def test_m12_bound_invariant_across_full_support_inputs(name, kwargs):
    # the winning Alice-Bob bound never depends on the input distribution
    b = builtin(name, **kwargs)
    x_axis, y_axis = b.channel.x_axis, b.channel.y_axis
    n, m = len(x_axis), len(y_axis)
    w = np.arange(1.0, n * m + 1).reshape(n, m)
    skew = JointDist((x_axis, y_axis), w / w.sum())
    v1 = best_bounds(b.default_input, b.channel, CFG).h_m12.value
    v2 = best_bounds(skew, b.channel, CFG).h_m12.value
    assert abs(v1 - v2) <= 1e-6


def test_dependent_inputs_use_marginals(and_channel):
    dep = JointDist.from_pmf(
        (and_channel.x_axis, and_channel.y_axis),
        {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.4},
    )
    prod = JointDist(
        (and_channel.x_axis, and_channel.y_axis),
        np.outer(dep.probs.sum(axis=1), dep.probs.sum(axis=0)),
    )
    rep_d = best_bounds(dep, and_channel, CFG)
    rep_p = best_bounds(prod, and_channel, CFG)
    for link in ("m12", "m23", "m31"):
        for t_d, t_p in zip(rep_d.link(link).terms, rep_p.link(link).terms):
            if t_d.name.startswith(("intermediate", "switched", "improved", "conditional")):
                assert t_d.value == pytest.approx(t_p.value, abs=1e-9)


def test_deterministic_channel_entropy_breakdown(and_channel, uniform_bits):
    from scbound.dists import cond_entropy

    d = join(uniform_bits, and_channel)
    assert cond_entropy(d, (1, 2), (0,)) == pytest.approx(
        cond_entropy(d, (1,), (0,)) + cond_entropy(d, (2,), (0, 1)), abs=1e-10
    )
    assert cond_entropy(d, (2,), (0, 1)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "name,kwargs",
    [("group-add", {"order": 3}), ("erasure", {}), ("remote-ot", {"m": 2})],
)
def test_communication_ideal_protocols_meet_bounds(name, kwargs):
    # for these functions the protocol is optimal on every link at once
    from scbound.protocols import run_exact

    b = builtin(name, **kwargs)
    rep = best_bounds(b.default_input, b.channel, CFG)
    e = run_exact(b.spec, b.default_input)
    for link in ("m12", "m23", "m31"):
        assert e.h(link) >= rep.link(link).value - 1e-9
        assert abs(e.h(link) - rep.link(link).value) <= 1e-6


def _direct_generic_ri(joint, pair, mask):
    # I(U;V) minus the entropy of the block label, blocks frozen from `mask`
    from scbound.common_info import block_entropy, blocks_from_mask
    from scbound.dists import mutual_info

    i, j = pair
    lab_u, _, nb = blocks_from_mask(mask)
    p_u = joint.marginal({i}).probs
    return mutual_info(joint, (i,), (j,)) - block_entropy(p_u, lab_u, nb)


def test_pair_term_kernels_match_direct_computation(rng):
    # the vectorized product-form kernels agree with naive evaluation on the
    # assembled joint for every term kind
    from scbound.bounds import _TermBank
    from scbound.dists import SUPPORT_EPS, cond_entropy

    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    for _ in range(10):
        kernel = rng.random((3, 2, 3)) * (rng.random((3, 2, 3)) < 0.7)
        kernel[..., 0] += 0.05  # keep rows normalizable
        kernel /= kernel.sum(axis=2, keepdims=True)
        ch = Channel(x, y, z, kernel)
        bank = _TermBank(ch)
        a = rng.random(3) + 0.05
        a /= a.sum()
        b = rng.random(2) + 0.05
        b /= b.sum()
        kinds = ["ri_xz", "ri_yz", "h_xy_z", "h_yz_x", "h_xz_y"]
        got = [float(v[0, 0]) for v in bank.pair_values(a[None], b[None], kinds)]
        joint = join(JointDist((x, y), np.outer(a, b)), ch)
        mask_xz = (kernel > SUPPORT_EPS).any(axis=1)
        mask_yz = (kernel > SUPPORT_EPS).any(axis=0)
        want = [
            _direct_generic_ri(joint, (0, 2), mask_xz),
            _direct_generic_ri(joint, (1, 2), mask_yz),
            cond_entropy(joint, (0, 1), (2,)),
            cond_entropy(joint, (1, 2), (0,)),
            cond_entropy(joint, (0, 2), (1,)),
        ]
        assert got == pytest.approx(want, abs=1e-10)


def test_joint_term_kernels_match_direct_computation(rng):
    from scbound.bounds import _TermBank
    from scbound.dists import SUPPORT_EPS, cond_entropy, mutual_info

    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    for _ in range(10):
        kernel = rng.random((3, 2, 2))
        kernel /= kernel.sum(axis=2, keepdims=True)
        ch = Channel(x, y, z, kernel)
        bank = _TermBank(ch)
        q = rng.random((3, 2)) + 0.02
        q /= q.sum()
        kinds = ["ri_xz", "ri_yz", "ri_xy", "h_xy_z", "h_yz_x", "h_xz_y"]
        got = [float(bank.joint_values(q[None], [k])[0]) for k in kinds]
        joint = join(JointDist((x, y), q), ch)
        mask_xz = (kernel > SUPPORT_EPS).any(axis=1)
        mask_yz = (kernel > SUPPORT_EPS).any(axis=0)
        want = [
            _direct_generic_ri(joint, (0, 2), mask_xz),
            _direct_generic_ri(joint, (1, 2), mask_yz),
            mutual_info(joint, (0,), (1,)),  # generic (X,Y) graph is complete
            cond_entropy(joint, (0, 1), (2,)),
            cond_entropy(joint, (1, 2), (0,)),
            cond_entropy(joint, (0, 2), (1,)),
        ]
        assert got == pytest.approx(want, abs=1e-10)


def test_cone_term_kernels_match_direct_computation(rng, and_joint):
    from scbound.bounds import _SupportCone, _support_points
    from scbound.common_info import block_entropy, blocks_from_mask
    from scbound.dists import SUPPORT_EPS, cond_entropy, mutual_info

    cone = _SupportCone(and_joint.axes, _support_points(and_joint.probs))
    for _ in range(10):
        q = rng.random(cone.n_points) + 0.02
        q /= q.sum()
        d = cone.to_dist(q)
        kinds = ["ri_xz", "ri_yz", "ri_xy", "h_xy_z", "h_yz_x", "h_xz_y"]
        got = [float(cone.values(q[None], [k])[0]) for k in kinds]
        masks = {
            "xy": (and_joint.probs.sum(axis=2) > SUPPORT_EPS),
            "xz": (and_joint.probs.sum(axis=1) > SUPPORT_EPS),
            "yz": (and_joint.probs.sum(axis=0) > SUPPORT_EPS),
        }
        want = [
            _direct_generic_ri(d, (0, 2), masks["xz"]),
            _direct_generic_ri(d, (1, 2), masks["yz"]),
            _direct_generic_ri(d, (0, 1), masks["xy"]),
            cond_entropy(d, (0, 1), (2,)),
            cond_entropy(d, (1, 2), (0,)),
            cond_entropy(d, (0, 2), (1,)),
        ]
        assert got == pytest.approx(want, abs=1e-10)


def test_switched_eval_helpers_as_block_certificates(and_channel):
    # evaluating the switched objectives at explicit distributions gives a
    # certified value without optimization
    v = term_value(
        and_channel, "switched_m12_top",
        {"p_X'": [0.544, 0.456], "p_Y'": [0.603, 0.397], "p_Y''": [0.5, 0.5]},
    )
    assert v == pytest.approx(1.8259572019722226, abs=1e-6)
    b = builtin("remote-ot", m=2)
    v23 = term_value(
        b.channel, "switched_m23",
        {"p_Y": [0.5, 0.5], "p_X'": [0.5, 0, 0, 0.5], "p_X''": [0.25] * 4},
    )
    assert v23 == pytest.approx(2.0, abs=1e-9)
    v31 = term_value(
        b.channel, "switched_m31", {"p_X": [0.25] * 4, "p_Y'": [0.5, 0.5], "p_Y''": [0.5, 0.5]}
    )
    assert v31 == pytest.approx(2.0, abs=1e-9)
    v23c = term_value(
        b.channel, "conditional_m23",
        {"p_Y'": [0.5, 0.5], "p_X'": [0.5, 0, 0, 0.5], "p_X''": [1.0, 0, 0, 0]},
    )
    assert v23c == pytest.approx(2.0, abs=1e-9)


def _random_channel(rng, nx, ny, nz, duplicate_x=False):
    kernel = rng.random((nx, ny, nz)) * (rng.random((nx, ny, nz)) < 0.7)
    kernel[..., 0] += 0.05  # keep rows normalizable
    kernel /= kernel.sum(axis=2, keepdims=True)
    if duplicate_x:
        kernel[1] = kernel[0]
    axes = [Alphabet(name, tuple(range(k))) for name, k in zip("XYZ", (nx, ny, nz))]
    return Channel(*axes, kernel)


@pytest.mark.parametrize(
    "shape,duplicate_x",
    [((3, 3, 3), False), ((4, 3, 2), False), ((3, 3, 3), True)],
)
def test_sweep_matches_dense_reduction(rng, shape, duplicate_x):
    # the streamed per-side sweep equals max/argmax of the full value matrix,
    # bit for bit, including the first-index rule on ties; the grid gives
    # several _CHUNK slices on each side
    from scbound.bounds import _SWEEP_GROUPS, _TermBank

    cfg = OptConfig(grid_resolution=0.03)
    bank = _TermBank(_random_channel(rng, *shape, duplicate_x=duplicate_x))
    ties = 0
    for side, groups in _SWEEP_GROUPS.items():
        sw = bank.sweep(side, cfg)
        assert bank.sweep(side, cfg) is sw
        for g in groups:
            if side == "x":
                V = sum(bank.pair_values(sw.outer, sw.inner, g))
            else:
                V = sum(bank.pair_values(sw.inner, sw.outer, g)).T
            assert np.array_equal(sw.best[g], V.max(axis=1))
            assert np.array_equal(sw.arg[g], V.argmax(axis=1))
            ties += int(((V == V.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties > 0


def test_xlogx_bitwise_equal_to_masked_form():
    from scbound.bounds import _xlogx
    from scbound.dists import SUPPORT_EPS

    p = np.array([0.0, 1e-13, SUPPORT_EPS, 2e-12, 0.5, 1.0])
    want = np.zeros_like(p)
    mask = p > SUPPORT_EPS
    want[mask] = p[mask] * np.log2(p[mask])
    assert _xlogx(p).tobytes() == want.tobytes()
    assert _xlogx(p[None]).tobytes() == want[None].tobytes()


def test_term_value_reproduces_every_optimized_term():
    # every optimized term re-evaluates from its witnesses, plus the kept
    # input marginals, through the one evaluator
    from scbound.bounds import _PRODUCT_TERMS

    cfg = OptConfig(grid_resolution=0.05, refine_iters=20)
    names = set()
    for b in (builtin("and"), builtin("sum"), builtin("erasure"), builtin("remote-ot", m=2)):
        ch = b.channel
        px, py = marginals(b.default_input)
        families = (
            improved_bounds(ch, cfg),
            switched_bounds(ch, px, py, cfg),
            conditional_bounds(ch, cfg),
        )
        for tv in (tv for fam in families for tv in fam.values() if tv is not None):
            names.add(tv.name)
            got = term_value(ch, tv.name, {**tv.witnesses, "p_X": px, "p_Y": py})
            assert got == pytest.approx(tv.value, abs=1e-12), tv.name
    assert set(_PRODUCT_TERMS) <= names
    assert any(n.startswith("improved_") for n in names)


def test_remote_ot_improved_m23_reaches_limit():
    # the supremum 2 is approached on a face of the simplex (four zero cells);
    # the batched line search reaches that face instead of stopping short
    ch = builtin("remote-ot", m=2).channel
    tv = improved_bounds(ch, CFG)["m23"]
    assert tv.name == "improved_m23_ri_xz"
    assert tv.value == pytest.approx(2.0, abs=1e-12)
    assert tv.limit_point
    assert term_value(ch, tv.name, tv.witnesses) == pytest.approx(tv.value, abs=1e-12)


def test_term_value_rejects_bad_input(and_channel):
    with pytest.raises(ValueError):
        term_value(and_channel, "improved_m12_ri_xy", {})
    with pytest.raises(ValueError):
        term_value(and_channel, "cmss_switched_m12_ri_xz", {})
    with pytest.raises(ValueError):
        term_value(and_channel, "improved_m12_ri_xz", {"p_X'Y'": np.full(4, 0.25)})
    with pytest.raises(ValueError):
        term_value(and_channel, "conditional_m31", {"p_X'": [1.0], "p_Y'": [1, 0], "p_Y''": [1, 0]})
