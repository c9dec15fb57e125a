import functools
import math

import numpy as np
import pytest

from scbound.bounds import (
    _push_inputs,
    best_bounds,
    cmss_bounds,
    conditional_bounds,
    improved_bounds,
    intermediate_bounds,
    prelim_bounds,
    randomness_bound,
    switched_bounds,
    term_value,
)
from scbound.common_info import residual_info
from scbound.dists import (
    Alphabet,
    Channel,
    JointDist,
    LINKS,
    PreconditionError,
    cond_entropy,
    dist_to_json,
    join,
)
from scbound.normal_form import channel_normal_form, pair_normal_form, sampling_normal_form
from scbound.protocols import builtin, run_exact, verify_correctness, verify_privacy
from scbound.simplex import OptConfig

LOG3 = math.log2(3.0)
CFG = OptConfig()

I_XZ_AND = 0.31127812445913294  # brute force on the 4-point joint
H_XY_GIVEN_Z_AND = 1.188721875540867


def uniform_input(ch):
    return JointDist.uniform((ch.x_axis, ch.y_axis))


@functools.cache
def builtin_report(name, cfg=CFG, **params):
    """A built-in and its full best_bounds report at its default input,
    computed once for the tests that read it."""
    b = builtin(name, **params)
    return b, best_bounds(b.default_input, b.channel, cfg)


def marginals(p_xy):
    x = JointDist((p_xy.axes[0],), p_xy.probs.sum(axis=1))
    y = JointDist((p_xy.axes[1],), p_xy.probs.sum(axis=0))
    return x, y


# -- evaluation bounds -------------------------------------------------------


def test_prelim_group_add_uniform():
    b = builtin("group-add", order=2)
    tri = prelim_bounds(b.default_input, b.channel)
    assert (tri["m23"], tri["m31"], tri["m12"]) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_prelim_and_uniform(and_channel, uniform_bits):
    tri = prelim_bounds(uniform_bits, and_channel)
    # residual terms from the 4-point joint; conditional entropies direct
    assert tri["m12"] == pytest.approx(I_XZ_AND + H_XY_GIVEN_Z_AND, abs=1e-12)
    assert tri["m12"] == pytest.approx(1.5, abs=1e-12)
    assert tri["m23"] == pytest.approx(I_XZ_AND + 1.0, abs=1e-12)
    assert tri["m31"] == pytest.approx(I_XZ_AND + 1.0, abs=1e-12)


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
    assert (tri["m23"], tri["m31"], tri["m12"]) == (0.0, 0.0, 0.0)


def test_prelim_is_the_bound_of_the_pair_normal_form(and_channel):
    # a zero column makes the pair reducible: prelim_bounds reduces it itself
    # and reports the bound of its normal form, bit for bit
    p = JointDist.from_pmf(
        (and_channel.x_axis, and_channel.y_axis), {(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.25}
    )
    assert prelim_bounds(p, and_channel) == prelim_bounds(*pair_normal_form(p, and_channel).reduced)


@pytest.mark.parametrize("name,params", [("and", {}), ("erasure", {"p": 1})])
def test_best_bounds_reduces_the_pair_once(monkeypatch, name, params):
    # one pair normal form per call, and no is_pair_normal_form check, on a
    # full-support input and on one whose pair drops an output (erasure at
    # p = 1)
    import scbound.bounds as bounds
    import scbound.normal_form as normal_form

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(bounds, "pair_normal_form", counted(normal_form.pair_normal_form))
    monkeypatch.setattr(bounds, "is_pair_normal_form", counted(normal_form.is_pair_normal_form),
                        raising=False)
    for attr in ("is_pair_normal_form", "_keeps_symbols"):
        monkeypatch.setattr(normal_form, attr, counted(getattr(normal_form, attr)))
    b = builtin(name, **params)
    report = best_bounds(b.default_input, b.channel, CHEAP)
    assert calls == ["pair_normal_form"]
    assert report.conditions["full_support"] == (name == "and")


@pytest.mark.parametrize("name,params", [("and", {}), ("remote-ot", {"m": 3})])
def test_bank_builds_each_sides_candidates_once(monkeypatch, name, params):
    # every scan reads its bank's candidates(side), built on first use
    # through bounds.candidate_points: each side at most once per bank, bit
    # for bit the rows of candidate_points(k, cfg) at their first
    # occurrence, in order, and read-only; two best_bounds calls make two
    # banks, which share no array
    import scbound.bounds as bounds
    from scbound.simplex import candidate_points

    builds, reads = [], []
    candidates = bounds._TermBank.candidates

    def counted_points(k, cfg):
        builds.append(k)
        return candidate_points(k, cfg)

    def counted_candidates(self, side):
        before = len(builds)
        out = candidates(self, side)
        reads.append((self, side, out, len(builds) - before))
        return out

    monkeypatch.setattr(bounds, "candidate_points", counted_points)
    monkeypatch.setattr(bounds._TermBank, "candidates", counted_candidates)
    b = builtin(name, **params)
    for _ in range(2):
        best_bounds(b.default_input, b.channel, CHEAP)
    banks = list(dict.fromkeys(bank for bank, *_ in reads))
    assert len(banks) == 2
    assert sum(n for *_, n in reads) == len(builds)  # every build is a bank's
    arrays = []
    for bank in banks:
        sides = {}
        for owner, side, out, n in reads:
            if owner is bank:
                sides.setdefault(side, []).append((out, n))
        assert set(sides) <= {"x", "y", "xy"} and "x" in sides and "xy" in sides
        for side, got in sides.items():
            assert [n for _, n in got] == [1] + [0] * (len(got) - 1), side
            out = got[0][0]
            assert all(a is out for a, _ in got[1:]), side
            k = {"x": bank.nx, "y": bank.ny, "xy": bank.nx * bank.ny}[side]
            want = candidate_points(k, CHEAP)
            seen = {}
            want = want[[seen.setdefault(row.tobytes(), i) == i for i, row in enumerate(want)]]
            assert out.shape == want.shape and out.tobytes() == want.tobytes(), side
            assert not out.flags.writeable, side
        arrays.append([got[0][0] for got in sides.values()])
    assert not any(np.shares_memory(a, c) for a in arrays[0] for c in arrays[1])


def test_cmss_bounds_builds_candidates_only_behind_an_open_gate(monkeypatch, and_joint):
    # one candidate array per call when some pair's graph is connected, and
    # none on a cone whose pairs are all disconnected (X = Y = Z)
    import scbound.bounds as bounds
    from scbound.simplex import candidate_points

    builds = []
    monkeypatch.setattr(bounds, "candidate_points",
                        lambda k, cfg: builds.append(k) or candidate_points(k, cfg))
    cmss_bounds(and_joint, CHEAP)
    assert len(builds) == 1
    x, y, z = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1)), Alphabet("Z", (0, 1))
    diagonal = np.zeros((2, 2, 2))
    diagonal[0, 0, 0] = diagonal[1, 1, 1] = 0.5
    cmss_bounds(JointDist((x, y, z), diagonal), CHEAP)
    assert len(builds) == 1


def test_intermediate_and(and_channel, uniform_bits):
    px, py = marginals(uniform_bits)
    tri = intermediate_bounds(px, py, and_channel)
    assert tri["m12"] == pytest.approx(2 * I_XZ_AND + H_XY_GIVEN_Z_AND, abs=1e-12)
    assert tri["m12"] == pytest.approx(1.811278124459133, abs=1e-12)
    assert tri["m23"] == pytest.approx(I_XZ_AND + 1.0, abs=1e-12)


def test_intermediate_group_add():
    b = builtin("group-add", order=2)
    px, py = marginals(b.default_input)
    tri = intermediate_bounds(px, py, b.channel)
    assert (tri["m23"], tri["m31"], tri["m12"]) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_intermediate_degenerate_singletons():
    # a constant function collapses to singleton alphabets; everything is 0
    x, y, z = Alphabet("X", ("*",)), Alphabet("Y", ("*",)), Alphabet("Z", ("c",))
    ch = Channel.from_function(x, y, z, lambda a, b: "c")
    tri = intermediate_bounds(JointDist.uniform((x,)), JointDist.uniform((y,)), ch)
    assert (tri["m23"], tri["m31"], tri["m12"]) == (0.0, 0.0, 0.0)


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
        assert imp["m12"].value >= t1["m12"] - 1e-9
        if check_condition1(ch):
            assert imp["m31"].value >= t1["m31"] - 1e-9
        if check_condition2(ch):
            assert imp["m23"].value >= t1["m23"] - 1e-9
    assert tried >= 3


def test_intermediate_requires_full_support(and_channel):
    px = JointDist((and_channel.x_axis,), [1.0, 0.0])
    py = JointDist((and_channel.y_axis,), [0.5, 0.5])
    with pytest.raises(PreconditionError):
        intermediate_bounds(px, py, and_channel)


def _oracle_evaluation(family, d):
    """An evaluation bound of a 3-axis joint through residual_info and
    cond_entropy on the joint itself: the formulas the cone table replaced,
    kept as its reference."""
    ri_xz = residual_info(d.marginal({0, 2}))
    ri_yz = residual_info(d.marginal({1, 2}))
    ri_xy = residual_info(d.marginal({0, 1}))
    h = {"m12": cond_entropy(d, {0, 1}, {2}), "m23": cond_entropy(d, {1, 2}, {0}),
         "m31": cond_entropy(d, {0, 2}, {1})}
    if family == "prelim":
        gaps = {"m12": max(ri_xz, ri_yz), "m23": max(ri_xz, ri_xy), "m31": max(ri_yz, ri_xy)}
    else:
        gaps = {"m12": ri_xz + ri_yz, "m23": ri_xz, "m31": ri_yz}
    return {link: gaps[link] + h[link] for link in h}


def _assert_matches_oracle(family, values, d):
    expected = _oracle_evaluation(family, d)
    assert set(values) == set(expected)
    for link in expected:
        assert values[link] == pytest.approx(expected[link], abs=1e-12), (family, link)


CHEAP = OptConfig(grid_resolution=0.5, refine_iters=1)


def _check_pair(p_xy, ch):
    """Each evaluation bound of a pair in normal form against the oracle:
    prelim at the pair, intermediate at the product of its marginals (when
    of full support) and the dealer-share base at its joint."""
    d = join(p_xy, ch)
    _assert_matches_oracle("prelim", prelim_bounds(p_xy, ch), d)
    base = cmss_bounds(d, CHEAP)
    _assert_matches_oracle("prelim", {l: base[l].terms[0].value for l in base}, d)
    px, py = marginals(p_xy)
    if px.probs.min() > 0 and py.probs.min() > 0:
        prod = JointDist((ch.x_axis, ch.y_axis), np.outer(px.probs, py.probs))
        _assert_matches_oracle("intermediate", intermediate_bounds(px, py, ch), join(prod, ch))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["and", "group-add", "sum", "erasure", "remote-ot"])
def test_evaluation_table_matches_oracle_on_builtins(name, n):
    # normalized as best_bounds does
    b = builtin(name, n=n)
    chres = channel_normal_form(b.channel)
    p_n = _push_inputs(b.default_input, chres, chres.reduced)
    _check_pair(*pair_normal_form(p_n, chres.reduced).reduced)


def test_evaluation_table_matches_oracle_on_random_pairs(rng):
    # random channels under inputs with zero cells, reduced to normal form
    from conftest import random_joint

    x, y, z = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1, 2)), Alphabet("Z", (0, 1, 2))
    zero_cells = 0
    for _ in range(16):
        kernel = random_joint(rng, (3, 3, 3), max_weight=3).reshape(9, 3)
        kernel[kernel.sum(axis=1) == 0, 0] = 1.0
        ch = Channel(x, y, z, (kernel / kernel.sum(axis=1, keepdims=True)).reshape(3, 3, 3))
        p = JointDist((x, y), random_joint(rng, (3, 3), max_weight=3))
        p_nf, ch_nf = pair_normal_form(p, ch).reduced
        zero_cells += int(p_nf.probs.min() == 0)
        _check_pair(p_nf, ch_nf)
    assert zero_cells >= 4


def test_evaluation_table_matches_oracle_on_random_sampling_joints(rng):
    # random 3-axis joints with zero cells, reduced to sampling normal form:
    # the dealer-share base scores each at the joint itself
    from conftest import random_joint

    axes = (Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1, 2)), Alphabet("Z", (0, 1)))
    for _ in range(16):
        d = sampling_normal_form(JointDist(axes, random_joint(rng, (3, 3, 2), max_weight=3))).reduced
        base = cmss_bounds(d, CHEAP)
        _assert_matches_oracle("prelim", {l: base[l].terms[0].value for l in base}, d)


def test_evaluation_table_matches_oracle_on_singleton_channel():
    x, y, z = Alphabet("X", ("*",)), Alphabet("Y", ("*",)), Alphabet("Z", ("c",))
    ch = Channel.from_function(x, y, z, lambda a, b: "c")
    _check_pair(JointDist.uniform((x, y)), ch)


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
    _, rep = builtin_report("group-add", order=6)
    for link in ("m12", "m23", "m31"):
        assert rep.link(link).value == pytest.approx(math.log2(6), abs=1e-6)
    assert rep.rho == pytest.approx(math.log2(6), abs=1e-6)


def test_best_bounds_erasure():
    _, rep = builtin_report("erasure")
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
    _, rep = builtin_report("sum")
    assert rep.rho >= LOG3 - 1e-3
    _, rep = builtin_report("remote-ot", m=2)
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


# -- dealer bounds ----------------------------------------------------------


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
        v1, v4 = t1[link], t4[link]
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
    b, rep = builtin_report(name, **kwargs)
    x_axis, y_axis = b.channel.x_axis, b.channel.y_axis
    n, m = len(x_axis), len(y_axis)
    w = np.arange(1.0, n * m + 1).reshape(n, m)
    skew = JointDist((x_axis, y_axis), w / w.sum())
    v1 = rep.h_m12.value
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
    b, rep = builtin_report(name, **kwargs)
    e = run_exact(b.spec, b.default_input)
    for link in ("m12", "m23", "m31"):
        assert e.h(link) >= rep.link(link).value - 1e-9
        assert abs(e.h(link) - rep.link(link).value) <= 1e-6

# group-add 4 runs at a coarser grid: its full nested sweep at the default
# grid takes over a second, and the skips do not depend on the grid
VERIFIED_BUILTINS = [
    ("and", {}), ("sum", {}), ("erasure", {}), ("remote-ot", {"m": 2}), ("remote-ot", {"m": 3}),
    ("group-add", {"order": 2}), ("group-add", {"order": 3}),
    ("group-add", {"order": 4, "cfg": OptConfig(grid_resolution=0.1)}),
    ("group-add", {"order": 5}), ("group-add", {"order": 6}),
]


def _witness_json(lb):
    return {label: dist_to_json(d) for label, d in lb.witnesses.items()}


@pytest.mark.parametrize("name,kwargs", VERIFIED_BUILTINS)
def test_verified_upper_values_change_no_reported_number(name, kwargs):
    # every term bounds the entropy of a verified protocol, so a link that
    # meets it skips the remaining families and reports what the full
    # computation reports
    b, full = builtin_report(name, **kwargs)
    e = run_exact(b.spec, b.default_input)
    assert verify_correctness(e, b.channel) and all(verify_privacy(e))
    upper = {link: e.h(link) for link in LINKS}
    rep = best_bounds(b.default_input, b.channel, kwargs.get("cfg", CFG), upper=upper)
    assert rep.rho == full.rho
    assert rep.conditions == full.conditions
    for link in LINKS:
        got, want = rep.link(link), full.link(link)
        assert (got.value, got.theorem) == (want.value, want.theorem)
        assert (got.limit_point, got.distribution_free) == (want.limit_point, want.distribution_free)
        assert _witness_json(got) == _witness_json(want)
        assert got.upper == upper[link] and want.upper is None and want.skipped == ()
        # the kept terms are the full list's leading terms, the rest are
        # exactly the skipped families, and a link skips only once it is tight
        n = len(got.terms)
        assert [(t.name, t.value) for t in got.terms] == [(t.name, t.value) for t in want.terms[:n]]
        assert list(got.skipped) == list(dict.fromkeys(t.name.split("_")[0]
                                                       for t in want.terms[n:]))
        if got.skipped:
            assert got.value >= upper[link] - 1e-9
    if name == "group-add":
        # the evaluation bound alone meets the protocol on every link
        assert all(len(rep.link(link).terms) == 1 for link in LINKS)


@pytest.mark.parametrize("name,kwargs", [
    ("and", {}), ("sum", {}), ("erasure", {}), ("remote-ot", {"m": 2}), ("group-add", {"order": 3}),
])
def test_best_bounds_family_terms_match_the_public_families(name, kwargs):
    # best_bounds and the public family functions read one walker: each
    # link's family term in the report is the one the family function
    # returns on the normalized channel, and a link the family's gate
    # leaves out is None there and absent from the report
    b, rep = builtin_report(name, **kwargs)
    chres = channel_normal_form(b.channel)
    ch_n = chres.reduced
    p_n = _push_inputs(b.default_input, chres, ch_n)
    px, py = marginals(p_n)
    families = {
        "improved": improved_bounds(ch_n, CFG),
        "switched": switched_bounds(ch_n, px, py, CFG),
        "conditional": conditional_bounds(ch_n, CFG),
    }
    assert rep.conditions["full_support"]
    gated = 0
    for family, terms in families.items():
        for link in LINKS:
            got = [t for t in rep.link(link).terms if t.name.split("_")[0] == family]
            want = terms.get(link)
            if want is None:
                gated += link in terms
                assert got == []
                continue
            (got,) = got
            assert (got.name, got.link, got.value) == (want.name, want.link, want.value)
            assert (got.distribution_free, got.limit_point) == (want.distribution_free,
                                                                want.limit_point)
            assert _witness_json(got) == _witness_json(want)
    # erasure fails condition 1: its improved and conditional m31 are gated
    assert gated == (2 if name == "erasure" else 0)


def _direct_generic_ri(joint, pair, mask):
    # I(U;V) minus the entropy of the block label, blocks frozen from `mask`
    from common_info_oracle import block_entropy
    from scbound.common_info import blocks_from_mask
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


def test_oversize_support_cone_refused_before_allocating():
    from scbound.bounds import _SupportCone
    from scbound.dists import CapacityError

    # the support of remote-ot --m 3 --n 4: 12,288 points, whose (X, Z)
    # marginal alone has 65,536 cells: 12,288 x 65,536 float64 cells, 6 GiB
    axes = (Alphabet("X", range(4096)), Alphabet("Y", range(3)), Alphabet("Z", range(16)))
    x, y = np.repeat(np.arange(4096), 3), np.tile(np.arange(3), 4096)
    with pytest.raises(CapacityError, match=r"needs \d+ point-by-marginal cells \(points x the cells"
                       r" of its axes and axis pairs\), over the cap of \d+"):
        _SupportCone(axes, (x, y, (x >> 4 * y) & 15))


def test_generic_cone_holds_no_dense_marginal_maps():
    # group-add 40's cone has 1,600 points over 40 x 40 x 40 cells: one
    # dense 0/1 map per marginal took 60 MB, its integer cell maps take KBs
    import tracemalloc

    from scbound.bounds import _generic_cone

    ch = builtin("group-add", order=40).channel
    tracemalloc.start()
    try:
        cone = _generic_cone(ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cone.n_points == 40 * 40
    assert peak < 1 << 20


def test_cone_term_kernels_match_direct_computation(rng, and_joint):
    from scbound.bounds import _SupportCone, _support_points
    from scbound.dists import SUPPORT_EPS, cond_entropy

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


def _full_grid(monkeypatch):
    # the search finds no automorphism, so the sweep scores the whole grid
    import scbound.bounds as bounds

    monkeypatch.setattr(bounds, "_automorphisms", lambda W: ([], 0))


@pytest.mark.parametrize(
    "shape,duplicate_x",
    [((3, 3, 3), False), ((4, 3, 2), False), ((3, 3, 3), True)],
)
def test_sweep_matches_dense_reduction(rng, monkeypatch, shape, duplicate_x):
    # with the trivial group the fused sweep equals max/argmax of the full
    # value matrix on both sides, bit for bit, including the first-index
    # rule on ties; the grid gives several slices of x candidates, and the
    # matrix is scored in the sweep's slices, as a product's last bits may
    # change with its height (the duplicated x input is a symmetry, which
    # the orbit tests below cover)
    from scbound.bounds import _CHUNK, _SWEEP_CELLS, _SWEEP_GROUPS, _TermBank

    cfg = OptConfig(grid_resolution=0.03)
    _full_grid(monkeypatch)
    bank = _TermBank(_random_channel(rng, *shape, duplicate_x=duplicate_x), cfg)
    A, B = bank.candidates("x"), bank.candidates("y")
    rows = max(1, min(_CHUNK, len(A), _SWEEP_CELLS // len(B)))
    assert rows < len(A)
    ties = 0
    for side, groups in _SWEEP_GROUPS.items():
        sw = bank.sweep(side)
        assert bank.sweep(side) is sw
        for g in groups:
            V = np.concatenate([sum(bank.pair_values(A[lo:lo + rows], B, g))
                                for lo in range(0, len(A), rows)])
            if side == "y":
                V = V.T
            assert np.array_equal(sw.best[g], V.max(axis=1))
            assert np.array_equal(sw.arg[g], V.argmax(axis=1))
            ties += int(((V == V.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    # the candidates repeat no row, so only the duplicated x input makes exact ties
    assert ties > 0 or not duplicate_x


def _einsum_pair_values(ch, A, B, kinds):
    # the dense einsum formulation of the product-form kernel: every output
    # law in (pair, z) order, entropies summed over the last axis; its
    # common-part blocks are read off the channel's support independently
    from scbound.common_info import blocks_from_mask
    from scbound.dists import SUPPORT_EPS, xlogx

    def H(p):
        return -xlogx(p).sum(axis=-1)

    def labels(mask):
        lab, _, nb = blocks_from_mask(mask)
        return np.eye(nb)[lab]

    W = np.asarray(ch.kernel)
    Ca = np.einsum("nx,xyz->nyz", A, W)
    Cb = np.einsum("my,xyz->mxz", B, W)
    h_z = H(np.einsum("my,nyz->nmz", B, Ca))
    bil = A @ H(W) @ B.T
    Ha, Hb = H(A), H(B)
    blk_a = H(A @ labels((W > SUPPORT_EPS).any(axis=1)))
    blk_b = H(B @ labels((W > SUPPORT_EPS).any(axis=0)))
    vals = {
        "ri_xz": h_z - A @ H(Cb).T - blk_a[:, None],
        "ri_yz": h_z - H(Ca) @ B.T - blk_b[None, :],
        "h_xy_z": Ha[:, None] + Hb[None, :] + bil - h_z,
        "h_yz_x": Hb[None, :] + bil,
        "h_xz_y": Ha[:, None] + bil,
    }
    return [vals[k] for k in kinds]


@pytest.mark.parametrize("shape", [(4, 3, 2), (3, 4, 5), (2, 5, 3)])
def test_pair_values_match_dense_einsum_oracle(rng, shape):
    # the z-major GEMM kernel against the dense formulation for every kind,
    # on a batch of x laws taller than any sweep slice and y laws, both with
    # boundary rows; the channels have zero cells
    from scbound.bounds import _CHUNK, _TermBank

    nx, ny, _ = shape
    ch = _random_channel(rng, *shape)
    assert (np.asarray(ch.kernel) == 0).any()
    bank = _TermBank(ch)
    A = rng.dirichlet(np.ones(nx), 2 * _CHUNK + 37)
    A[:nx] = np.eye(nx)
    A[nx, 0] = 0.0
    A[nx] /= A[nx].sum()
    B = rng.dirichlet(np.ones(ny), 45)
    B[:ny] = np.eye(ny)
    kinds = ["ri_xz", "ri_yz", "h_xy_z", "h_yz_x", "h_xz_y"]
    got = bank.pair_values(A, B, kinds)
    want = _einsum_pair_values(ch, A, B, kinds)
    for kind, g, w in zip(kinds, got, want):
        assert g.shape == (len(A), len(B))
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=kind)


def _block_channel():
    # z = 2 (x // 2) + y // 2: two common-part blocks on each of the (X,Z)
    # and (Y,Z) graphs
    kernel = np.zeros((4, 4, 4))
    for x in range(4):
        for y in range(4):
            kernel[x, y, 2 * (x // 2) + y // 2] = 1.0
    axes = [Alphabet(name, tuple(range(4))) for name in "XYZ"]
    return Channel(*axes, kernel)


@pytest.mark.parametrize("shape", [(4, 3, 2), (3, 3, 3), (2, 5, 3), None])
def test_cone_scores_product_kinds_as_pair_values(rng, shape):
    # at a product law a b^T every product-form kind, and every sweep group,
    # scored on the generic-support cone equals the pair kernel's value;
    # the channels have zero cells (the last one blocks) and the laws
    # include vertices
    from scbound.bounds import _SWEEP_GROUPS, _TermBank

    ch = _block_channel() if shape is None else _random_channel(rng, *shape)
    assert (np.asarray(ch.kernel) == 0).any()
    bank = _TermBank(ch)
    nx, ny = bank.nx, bank.ny
    if shape is None:
        assert not bank.cone.connected("xz") and not bank.cone.connected("yz")
    A = rng.dirichlet(np.ones(nx), 23)
    A[:nx] = np.eye(nx)
    A[nx, 0] = 0.0
    A[nx] /= A[nx].sum()
    B = rng.dirichlet(np.ones(ny), 17)
    B[:ny] = np.eye(ny)
    Q = (A[:, None, :, None] * B[None, :, None, :]).reshape(-1, nx, ny)
    groups = [(k,) for k in ("ri_xz", "ri_yz", "h_xy_z", "h_yz_x", "h_xz_y")]
    groups += [g for gs in _SWEEP_GROUPS.values() for g in gs]
    for g in groups:
        want = sum(bank.pair_values(A, B, g))
        got = bank.joint_values(Q, g).reshape(len(A), len(B))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(g))


def _per_marginal_cone_values(cone, Qs, kinds):
    # the per-marginal formula: each marginal of the dense joints taken on
    # its own, each block law from the support pattern, kinds summed one by
    # one
    from scbound.bounds import _H
    from scbound.common_info import blocks_from_mask

    shape = tuple(len(a) for a in cone.axes)
    cells = cone.index
    P = np.zeros((len(Qs),) + shape)
    P[(slice(None),) + cells] = Qs
    support = np.zeros(shape, dtype=bool)
    support[cells] = True

    def h(*keep):
        drop = tuple(1 + a for a in range(3) if a not in keep)
        return _H(P.sum(axis=drop).reshape(len(P), -1))

    def h_blk(i, j):
        lab, _, nb = blocks_from_mask(support.any(axis=3 - i - j))
        p_i = P.sum(axis=tuple(1 + a for a in range(3) if a != i))
        return _H(p_i @ (lab[:, None] == np.arange(nb)).astype(float))

    h_xyz, h_x, h_y, h_z = h(0, 1, 2), h(0), h(1), h(2)
    vals = {
        "ri_xz": h_x + h_z - h(0, 2) - h_blk(0, 2),
        "ri_yz": h_y + h_z - h(1, 2) - h_blk(1, 2),
        "ri_xy": h_x + h_y - h(0, 1) - h_blk(0, 1),
        "h_xy_z": h_xyz - h_z,
        "h_yz_x": h_xyz - h_x,
        "h_xz_y": h_xyz - h_y,
    }
    return sum(vals[k] for k in kinds)


def _random_support(rng, shape):
    # random points of two colour classes, symbols coloured alternately, so
    # each pair of axes has at least two common-part blocks; every symbol
    # keeps a point
    colour = np.ix_(*(np.arange(k) % 2 for k in shape))
    same = (colour[0] == colour[1]) & (colour[1] == colour[2])
    support = same & (rng.random(shape) < 0.7)
    for p in zip(*np.nonzero(same)):
        if any(not np.take(support, s, axis=a).any() for a, s in enumerate(p)):
            support[p] = True
    return support


@pytest.mark.parametrize("cone_kind", ["and", "random"])
def test_fused_cone_kernel_matches_per_marginal_formula(rng, and_joint, cone_kind):
    # the one-GEMM cone kernel against each marginal's entropy taken on its
    # own, for every single kind and every joint variant, on batches longer
    # than _CHUNK rows (the last slice ragged) with vertex and boundary rows
    from scbound.bounds import _CHUNK, _JOINT_VARIANTS, _SupportCone, _support_points

    if cone_kind == "and":
        axes, probs = and_joint.axes, and_joint.probs
    else:
        probs = _random_support(rng, (3, 4, 2)).astype(float)
        axes = [Alphabet(name, tuple(range(k))) for name, k in zip("XYZ", probs.shape)]
    cone = _SupportCone(axes, _support_points(probs))
    if cone_kind == "random":
        assert not any(cone.connected(key) for key in ("xy", "xz", "yz"))
    Qs = rng.dirichlet(np.ones(cone.n_points), 2 * _CHUNK + 37)
    Qs[:cone.n_points] = np.eye(cone.n_points)
    Qs[cone.n_points, :2] = 0.0
    Qs[cone.n_points] /= Qs[cone.n_points].sum()
    singles = [(k,) for k in ("ri_xz", "ri_yz", "ri_xy", "h_xy_z", "h_yz_x", "h_xz_y")]
    variants = [v for vs in _JOINT_VARIANTS.values() for v in vs]
    for kinds in singles + variants:
        got = cone.values(Qs, kinds)
        assert got.shape == (len(Qs),)
        want = _per_marginal_cone_values(cone, Qs, kinds)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(kinds))
    with pytest.raises(ValueError, match="unknown term kind"):
        cone.values(Qs[:3], ("ri_xz", "h_zz"))


@pytest.mark.parametrize("name,params", [("and", {"n": 3}), ("sum", {"n": 3}),
                                         ("remote-ot", {"m": 3}), ("random", {})],
                         ids=["and-n3", "sum-n3", "remote-ot-m3", "random"])
def test_stacked_kernel_scores_each_bracket_as_alone(rng, name, params):
    # a lockstep polish round scores a (b, LINE_POINTS, ...) stack of
    # brackets; each bracket's values must be bit for bit those of the
    # bracket scored alone, as the one-at-a-time polish scored it, for the
    # cone kernel and for the joint-law map onto the cone
    from scbound.bounds import _JOINT_VARIANTS, _TermBank
    from scbound.simplex import LINE_POINTS

    if name == "random":
        axes = [Alphabet(a, (0, 1, 2)) for a in "XYZ"]
        ch = Channel(*axes, rng.dirichlet(np.ones(3), size=(3, 3)))
    else:
        ch = builtin(name, **params).channel
    bank = _TermBank(channel_normal_form(ch).reduced)
    cone, b = bank.cone, 7
    Qs = rng.dirichlet(np.ones(cone.n_points), size=(b, LINE_POINTS))
    n = min(LINE_POINTS, cone.n_points)
    Qs[0, :n] = np.eye(cone.n_points)[:n]  # vertices
    Qs[1, :, :2] = 0.0  # a face
    Qs[1] /= Qs[1].sum(axis=1, keepdims=True)
    laws = rng.dirichlet(np.ones(bank.nx * bank.ny), size=(b, LINE_POINTS))
    laws = laws.reshape(b, LINE_POINTS, bank.nx, bank.ny)
    for kinds in dict.fromkeys(v for vs in _JOINT_VARIANTS.values() for v in vs):
        got = cone.values(Qs, kinds)
        assert got.shape == (b, LINE_POINTS)
        assert np.array_equal(got, np.stack([cone.values(q, kinds) for q in Qs])), kinds
        got = bank.joint_values(laws, kinds)
        assert np.array_equal(got, np.stack([bank.joint_values(q, kinds) for q in laws])), kinds


def test_sweep_walks_the_grid_once(rng, monkeypatch):
    # both outer sides come from one pass: one pair_values call per slice of
    # x candidates, as tall as _SWEEP_CELLS allows, and the second side adds
    # none
    from scbound.bounds import _CHUNK, _SWEEP_CELLS, _TermBank

    calls = []
    pair_values = _TermBank.pair_values

    def counted(self, A, B, kinds, _work=None):
        calls.append(len(A))
        return pair_values(self, A, B, kinds, _work)

    monkeypatch.setattr(_TermBank, "pair_values", counted)
    cfg = OptConfig(grid_resolution=0.03)
    bank = _TermBank(_random_channel(rng, 4, 3, 2), cfg)
    n_x, n_y = len(bank.candidates("x")), len(bank.candidates("y"))
    rows = max(1, min(_CHUNK, n_x, _SWEEP_CELLS // n_y))
    assert n_x > rows
    bank.sweep("x")
    assert len(calls) == math.ceil(n_x / rows)
    bank.sweep("y")
    assert len(calls) == math.ceil(n_x / rows)
    assert sum(calls) == n_x
    assert max(calls) == rows


def test_sweep_is_bit_identical_at_every_slice_height(rng, monkeypatch):
    # slices of 1 row, of 5 rows (the last ragged) and of the whole grid:
    # with the trivial group, at each height both sides equal the max and
    # first-index argmax of the value matrix scored in slices of that
    # height, bit for bit, and the duplicated x row makes ties. Slices of 2
    # or more rows score every cell with the same GEMM arithmetic, so those
    # heights agree bit for bit; numpy scores a 1-row product with gemv,
    # which may round the last bit differently, so 1-row maxima agree to
    # 1e-12. The orbit path (the duplicated row is a symmetry) fills in
    # from the same reductions of its representatives' rows, so its
    # heights agree as the full grid's do
    import scbound.bounds as bounds

    ch = _random_channel(rng, 3, 3, 3, duplicate_x=True)
    cfg = OptConfig(grid_resolution=0.1)
    runs, orbit = {}, {}
    ties = 0
    for height in (1, 5, 1000):
        monkeypatch.setattr(bounds, "_SWEEP_CELLS", height * 67)
        bank = bounds._TermBank(ch, cfg)
        orbit[height] = {side: bank.sweep(side) for side in "xy"}
        with monkeypatch.context() as m:
            _full_grid(m)
            bank = bounds._TermBank(ch, cfg)
            runs[height] = {side: bank.sweep(side) for side in "xy"}
        A, B = bank.candidates("x"), bank.candidates("y")
        assert len(A) == len(B) == 67 and len(A) % 5
        for side, groups in bounds._SWEEP_GROUPS.items():
            for g in groups:
                V = np.concatenate([sum(bank.pair_values(A[lo:lo + height], B, g))
                                    for lo in range(0, len(A), height)])
                if side == "y":
                    V = V.T
                    ties += int(((V == V.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
                assert np.array_equal(runs[height][side].best[g], V.max(axis=1))
                assert np.array_equal(runs[height][side].arg[g], V.argmax(axis=1))
    assert ties > 0
    for sweeps in (runs, orbit):
        for side, groups in bounds._SWEEP_GROUPS.items():
            for g in groups:
                whole, five, one = (sweeps[h][side] for h in (1000, 5, 1))
                assert np.array_equal(five.best[g], whole.best[g])
                assert np.array_equal(five.arg[g], whole.arg[g])
                np.testing.assert_allclose(one.best[g], whole.best[g], rtol=0, atol=1e-12)


def _running_y_reduction(slices, n_y):
    # the earlier y-side reduction, kept as the oracle: the first-index
    # argmax of every column of each slice, its value taken along it, then a
    # running max over slices replaced only on strict >. Also counts the
    # slices in which no column rises and the columns whose slice max ties
    # the running max of earlier slices
    best, arg = np.full(n_y, -np.inf), np.zeros(n_y, dtype=int)
    quiet = ties = 0
    for lo, V in slices:
        a = V.argmax(axis=0)
        m = np.take_along_axis(V, a[None, :], axis=0)[0]
        up = m > best
        quiet += not up.any()
        ties += int((m == best).sum())
        best[up] = m[up]
        arg[up] = a[up] + lo
    return best, arg, quiet, ties


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 3, 2), (3, 4, 3)])
def test_y_reduction_matches_argmax_oracle(rng, monkeypatch, shape):
    # the y side's running reduction (column max first, argmax only on the
    # columns that rise) equals the argmax-of-every-column oracle bit for
    # bit, at slices of 1 row, of 5 rows (the last ragged) and of the whole
    # grid, on channels with zero cells and a duplicated x input, with the
    # rising columns taken in blocks of 7; the runs include slices where no
    # column rises and columns whose later slice ties an earlier maximum,
    # which must keep the earlier index. The trivial group makes every x
    # candidate a row of the grid
    import scbound.bounds as bounds

    ch = _random_channel(rng, *shape, duplicate_x=True)
    assert (np.asarray(ch.kernel) == 0).any()
    cfg = OptConfig(grid_resolution=0.1)
    _full_grid(monkeypatch)
    bank = bounds._TermBank(ch, cfg)
    A, B = bank.candidates("x"), bank.candidates("y")
    assert len(A) % 5 and len(A) <= bounds._CHUNK
    quiet = ties = 0
    for height in (1, 5, len(A)):
        monkeypatch.setattr(bounds, "_SWEEP_CELLS", height * len(B))
        monkeypatch.setattr(bounds, "_STACK_CELLS", height * 7)
        bank = bounds._TermBank(ch, cfg)
        sw = bank.sweep("y")
        for g in bounds._SWEEP_GROUPS["y"]:
            slices = []
            for lo in range(0, len(A), height):
                mats = bank.pair_values(A[lo:lo + height], B, g)
                V = mats[0]
                for mat in mats[1:]:
                    V = V + mat
                slices.append((lo, V))
            best, arg, q, t = _running_y_reduction(slices, len(B))
            assert np.array_equal(sw.best[g], best)
            assert np.array_equal(sw.arg[g], arg)
            quiet, ties = quiet + q, ties + t
    assert quiet > 0 and ties > 0


def test_y_reduction_keeps_the_first_index_on_crafted_slices(monkeypatch):
    # fixed 2-row slices through the sweep: the second slice raises
    # nothing, the third ties column 0's maximum (index kept) and raises
    # column 1, the fourth ties both
    import scbound.bounds as bounds

    g = bounds._SWEEP_GROUPS["y"][0]
    slices = [np.array([[1.0, 2.0], [3.0, 0.5]]),
              np.array([[0.0, 1.0], [2.0, 1.5]]),
              np.array([[3.0, 2.5], [-1.0, 4.0]]),
              np.array([[3.0, 4.0], [0.0, 0.0]])]
    best, arg, quiet, ties = _running_y_reduction(list(zip((0, 2, 4, 6), slices)), 2)
    assert quiet == 2 and ties == 3
    # eight x candidates, whose first cell is their row, in four 2-row
    # slices against 2 y candidates; no relabelling keeps them, so the
    # group is trivial
    A = np.zeros((8, 3))
    A[:, 0] = np.arange(8)
    monkeypatch.setattr(bounds, "candidate_points", lambda k, cfg: A if k == 3 else np.eye(2))
    monkeypatch.setattr(bounds, "_SWEEP_CELLS", 4)
    bank = bounds._TermBank(_random_channel(np.random.default_rng(0), 3, 2, 2), CFG)
    seen = []

    def pair_values(A, B, kinds, _work=None):
        # group g sums to the slice; every other kind reads 0
        i = int(A[0, 0]) // 2
        seen.append(i)
        return [slices[i].copy() if k == g[0] else np.zeros((2, 2)) for k in kinds]

    monkeypatch.setattr(bank, "pair_values", pair_values)
    sw = bank.sweep("y")
    assert seen == [0, 1, 2, 3]
    assert sw.best[g].tolist() == best.tolist() == [3.0, 4.0]
    assert sw.arg[g].tolist() == arg.tolist() == [1, 5]


def test_sweep_memory_stays_slice_sized():
    # the group-add 4 sweep (458 representatives x 3,283 y candidates, 4
    # outputs) scores its grid in one workspace of L2-sized matrices and
    # fills in the rest from eight index maps of each side; numpy reports
    # its buffers to tracemalloc, so the peak counts every matrix the sweep
    # allocates
    import tracemalloc

    from scbound.bounds import _TermBank

    bank = _TermBank(channel_normal_form(builtin("group-add", order=4).channel).reduced, CFG)
    A, B = bank.candidates("x"), bank.candidates("y")
    assert (len(A), len(B), bank.nz) == (3283, 3283, 4)
    tracemalloc.start()
    try:
        bank.sweep("x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _record_threads(monkeypatch):
    # the thread of every pair_values call, in call order, and the number of
    # threads alive at that call
    import threading

    from scbound.bounds import _TermBank

    seen = []
    pair_values = _TermBank.pair_values

    def recorded(self, A, B, kinds, _work=None):
        seen.append((threading.get_ident(), threading.active_count()))
        return pair_values(self, A, B, kinds, _work)

    monkeypatch.setattr(_TermBank, "pair_values", recorded)
    return seen


def test_reproduce_sweep_stays_on_one_worker(monkeypatch):
    # remote-ot m=2 at the default config: its 914 orbit representatives
    # against 51 y candidates, in 4 slices of 256 rows, are all scored on
    # the calling thread, and the sweep starts no other
    import threading

    from scbound.bounds import _TermBank

    bank = _TermBank(channel_normal_form(builtin("remote-ot", m=2).channel).reduced, CFG)
    A, B = bank.candidates("x"), bank.candidates("y")
    assert (len(A), len(B)) == (3283, 51)
    before = threading.active_count()
    seen = _record_threads(monkeypatch)
    bank.sweep("x")
    assert seen == [(threading.get_ident(), before)] * 4


def test_a_failing_worker_is_raised_after_the_join(rng, monkeypatch):
    # the sweep's one worker is the calling thread: a slice that raises
    # stops the sweep with that exception, leaves no thread behind and
    # caches nothing, so the next call sweeps afresh
    import threading

    import scbound.bounds as bounds

    cfg = OptConfig(grid_resolution=0.1)
    bank = bounds._TermBank(_random_channel(rng, 3, 3, 3), cfg)
    monkeypatch.setattr(bounds, "_SWEEP_CELLS", 5 * len(bank.candidates("y")))
    pair_values = bounds._TermBank.pair_values
    calls = []

    def failing(self, A, B, kinds, _work=None):
        calls.append(threading.get_ident())
        if len(calls) == 2:
            raise RuntimeError("slice failed")
        return pair_values(self, A, B, kinds, _work)

    monkeypatch.setattr(bounds._TermBank, "pair_values", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="slice failed"):
        bank.sweep("x")
    assert calls == [threading.get_ident()] * 2
    assert threading.active_count() == before
    assert "_sweeps" not in vars(bank)
    monkeypatch.setattr(bounds._TermBank, "pair_values", pair_values)
    sw = bank.sweep("x")
    assert all(np.isfinite(v).all() for v in sw.best.values())


def test_pair_values_without_a_workspace_returns_fresh_arrays(rng):
    # a caller outside the sweep gets arrays that a later call leaves alone
    from scbound.bounds import _TermBank

    ch = _random_channel(rng, 4, 3, 2)
    bank = _TermBank(ch)
    kinds = ["ri_xz", "ri_yz", "h_xy_z", "h_yz_x", "h_xz_y"]
    A1, A2 = rng.dirichlet(np.ones(4), 7), rng.dirichlet(np.ones(4), 7)
    B = rng.dirichlet(np.ones(3), 5)
    first = bank.pair_values(A1, B, kinds)
    kept = [v.copy() for v in first]
    bank.pair_values(A2, B, kinds)
    for kind, v, k, w in zip(kinds, first, kept, _einsum_pair_values(ch, A1, B, kinds)):
        assert np.array_equal(v, k), kind
        np.testing.assert_allclose(v, w, rtol=0, atol=1e-12, err_msg=kind)


def test_nested_scores_each_held_group_once(monkeypatch):
    # while a line search moves one law, an inner group that law does not
    # enter is scored once, not on every bracket: no call at a single
    # (outer, inner) product law with the same kinds repeats. Both starts
    # are stationary, so the skip is forced off for the polish to run lines
    import scbound.simplex as simplex
    from scbound.bounds import _TermBank, _nested

    monkeypatch.setattr(simplex, "frank_wolfe_gap", lambda slopes, points: np.inf)
    seen = []
    joint_values = _TermBank.joint_values

    def recorded(self, Q, kinds):
        if np.ndim(Q) == 3 and len(Q) == 1:
            seen.append((np.asarray(Q).tobytes(), tuple(kinds)))
        return joint_values(self, Q, kinds)

    monkeypatch.setattr(_TermBank, "joint_values", recorded)
    bank = _TermBank(builtin("sum").channel, OptConfig(grid_resolution=0.1, refine_iters=20))
    for name in ("conditional_m31", "switched_m12_bottom"):
        seen.clear()
        _nested(bank, name)
        assert seen
        assert len(seen) == len(set(seen))


def test_xlogx_bitwise_equal_to_masked_form():
    from scbound.dists import SUPPORT_EPS, xlogx

    p = np.array([0.0, 1e-13, SUPPORT_EPS, 2e-12, 0.5, 1.0])
    want = np.zeros_like(p)
    mask = p > SUPPORT_EPS
    want[mask] = p[mask] * np.log2(p[mask])
    assert xlogx(p).tobytes() == want.tobytes()
    assert xlogx(p[None]).tobytes() == want[None].tobytes()
    # the in-place form, over p itself, with its scratch
    work = (np.empty_like(p), np.empty(p.shape, dtype=bool))
    q = p.copy()
    assert xlogx(q, work=work) is q
    assert q.tobytes() == want.tobytes()


def test_term_value_reproduces_every_optimized_term():
    # every optimized term re-evaluates from its witnesses, plus the kept
    # input marginals, through the one evaluator
    from scbound.bounds import _TERMS

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
    assert {n for n in _TERMS if not n.startswith("improved_")} <= names
    assert any(n.startswith("improved_") for n in names)


def test_term_value_scores_every_term_against_the_joint_oracle(rng):
    # every _TERMS entry, scored through term_value at random full-support
    # laws, is the sum over its groups of their kinds on the group's
    # assembled joint: the joint law itself, or the product of the outer and
    # inner laws
    from scbound.bounds import _TERMS, _side
    from scbound.dists import SUPPORT_EPS, cond_entropy

    assert len(_TERMS) == 12
    pairs = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}
    for nx, ny, nz in ((3, 2, 3), (2, 3, 2), (2, 2, 3)):
        ch = _random_channel(rng, nx, ny, nz)
        support = ch.kernel > SUPPORT_EPS
        masks = {"xy": np.ones((nx, ny), dtype=bool), "xz": support.any(axis=1),
                 "yz": support.any(axis=0)}

        def kind_value(joint, kind):
            if kind.startswith("ri_"):
                return _direct_generic_ri(joint, pairs[kind[3:]], masks[kind[3:]])
            target, given = kind[2:4], kind[5]  # h_<target>_<given>
            return cond_entropy(joint, tuple("xyz".index(a) for a in target),
                                ("xyz".index(given),))

        def draw(label):
            shape = {"x": (nx,), "y": (ny,), "xy": (nx, ny)}[_side(label)]
            p = rng.random(shape) + 0.05
            return p / p.sum()

        for name, (outer, inner) in _TERMS.items():
            laws = {lab: draw(lab) for lab in [outer] + [lab for lab, _ in inner if lab]}
            want = 0.0
            for lab, kinds in inner:
                o = laws[outer]
                q = o if lab is None else (np.outer(o, laws[lab]) if _side(outer) == "x"
                                           else np.outer(laws[lab], o))
                joint = join(JointDist((ch.x_axis, ch.y_axis), q), ch)
                want += sum(kind_value(joint, kind) for kind in kinds)
            assert term_value(ch, name, laws) == pytest.approx(want, abs=1e-10), name


def test_term_value_scores_a_batch_as_its_points(rng):
    # laws with leading batch axes broadcast against each other, and one
    # call scores the batch: each entry is the call on its own point's laws
    from scbound.bounds import _TERMS, _side

    ch = _random_channel(rng, 3, 2, 3)
    sizes = {"x": (3,), "y": (2,), "xy": (3, 2)}

    def draw(lead, label):
        p = rng.random(lead + sizes[_side(label)]) * (rng.random(lead + sizes[_side(label)]) < 0.8)
        p[..., 0] += 0.01  # keep every law normalizable
        return p / p.sum(axis=tuple(range(-len(sizes[_side(label)]), 0)), keepdims=True)

    for name, (outer, inner) in _TERMS.items():
        labels = [outer] + [lab for lab, _ in inner if lab]
        laws = {lab: draw((4, 1) if k % 2 else (1, 5), lab) for k, lab in enumerate(labels)}
        got = term_value(ch, name, laws)
        assert got.shape == ((4, 5) if len(laws) > 1 else (1, 5))
        for i, j in np.ndindex(got.shape):
            point = {lab: p[min(i, len(p) - 1), min(j, p.shape[1] - 1)] for lab, p in laws.items()}
            assert got[i, j] == pytest.approx(term_value(ch, name, point), abs=1e-12), name
        # one batch law among single ones
        single = {lab: p[0, 0] for lab, p in laws.items()}
        batch = draw((6,), outer)
        got = term_value(ch, name, {**single, outer: batch})
        assert got.shape == (6,)
        assert isinstance(term_value(ch, name, single), float)
        for i in range(6):
            want = term_value(ch, name, {**single, outer: batch[i]})
            assert got[i] == pytest.approx(want, abs=1e-12), name


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
    with pytest.raises(ValueError):  # a batch of laws of the wrong size
        term_value(and_channel, "switched_m31", {"p_X": [0.5, 0.5], "p_Y'": np.full((4, 3), 1 / 3),
                                                  "p_Y''": [1, 0]})
    with pytest.raises(ValueError):  # a joint law where a law on one input belongs
        term_value(and_channel, "switched_m31", {"p_X": JointDist.uniform(
            (and_channel.x_axis, and_channel.y_axis)), "p_Y'": [1, 0], "p_Y''": [1, 0]})


@pytest.mark.parametrize("shape", [(300,), (7, 33)], ids=["batch", "stack"])
def test_cone_scores_an_f_ordered_operand_as_its_c_copy(rng, shape):
    # BLAS rounds a product differently with its operand's memory layout
    # (an F-ordered batch moved remote-ot m=3's single kinds and joint
    # variants by an ulp or so); an F-ordered batch or stack of brackets
    # scores bit for bit as its C-ordered copy
    from scbound.bounds import _JOINT_VARIANTS, _KIND_ENTROPIES, _TermBank

    cone = _TermBank(channel_normal_form(builtin("remote-ot", m=3).channel).reduced).cone
    C = rng.dirichlet(np.ones(cone.n_points), size=shape)
    F = np.asfortranarray(C)
    assert not F.flags.c_contiguous and np.array_equal(F, C)
    singles = [(k,) for k in _KIND_ENTROPIES]
    for kinds in singles + list(dict.fromkeys(v for vs in _JOINT_VARIANTS.values() for v in vs)):
        assert np.array_equal(cone.values(F, kinds), cone.values(C, kinds)), kinds


# -- the symmetry group and the orbit sweep ----------------------------------


def _reduced(name, **params):
    return channel_normal_form(builtin(name, **params).channel).reduced


def _x_group(gens, nx):
    # the distinct pi_X of every composition of the generators
    ident = tuple(range(nx))
    group, todo = {ident}, [ident]
    while todo:
        e = np.array(todo.pop())
        for g in gens:
            h = tuple(int(i) for i in g[0][e])
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


def _brute_x_group(W):
    # the pi_X of every (pi_X, pi_Y, pi_Z) that preserves W, by enumeration
    import itertools

    nx, ny, nz = W.shape
    return {px for px in itertools.permutations(range(nx))
            for py in itertools.permutations(range(ny))
            for pz in itertools.permutations(range(nz))
            if np.array_equal(W[np.ix_(px, py, pz)], W)}


def _planted_channel(rng, shape):
    # a random kernel summed over the cycle of a random relabelling (pi_X,
    # pi_Y, pi_Z), pi_X one cycle through every x, which is then one of its
    # automorphisms; integer cells keep the sum exact in any order, and each
    # row is divided by its integer total
    K = rng.integers(0, 4, size=shape) * (rng.random(shape) > 0.3)
    K[..., 0] += 1
    q, px = rng.permutation(shape[0]), np.empty(shape[0], dtype=int)
    px[q] = np.roll(q, 1)
    perms = np.ix_(px, *(rng.permutation(k) for k in shape[1:]))
    S, T = K.copy(), K[perms]
    while not np.array_equal(T, K):
        S, T = S + T, T[perms]
    axes = [Alphabet(name, tuple(range(k))) for name, k in zip("XYZ", shape)]
    return Channel(*axes, S / S.sum(axis=2, keepdims=True))


_GROUP_ORDERS = [("group-add", {"order": 4}, 8), ("group-add", {"order": 5}, 20),
                 ("group-add", {"order": 6}, 12), ("remote-ot", {"m": 2}, 4),
                 ("remote-ot", {"m": 3}, 12), ("and", {"n": 2}, 2), ("sum", {}, 2),
                 ("and", {}, 1), ("erasure", {}, 1)]


@pytest.mark.parametrize("name,params,order", _GROUP_ORDERS,
                         ids=["-".join([n] + [str(v) for v in p.values()])
                              for n, p, _ in _GROUP_ORDERS])
def test_automorphism_search_finds_the_group(name, params, order):
    # every generator preserves the reduced kernel exactly, and the
    # generators give the group's count of distinct x relabellings
    from scbound.bounds import _SEARCH_NODES, _automorphisms

    W = np.asarray(_reduced(name, **params).kernel)
    gens, nodes = _automorphisms(W)
    assert nodes < _SEARCH_NODES
    for px, py, pz in gens:
        assert np.array_equal(W[np.ix_(px, py, pz)], W)
    assert len(_x_group(gens, W.shape[0])) == order


def test_automorphism_search_matches_enumeration(rng):
    # on planted channels, and on each with one cell moved, the x
    # relabellings the generators give are exactly those of the brute-force
    # enumeration: the moved cell leaves no false automorphism, and every
    # returned generator preserves its kernel
    from scbound.bounds import _automorphisms

    broken = 0
    for shape in [(3, 3, 3), (3, 3, 2), (4, 3, 2), (2, 4, 3), (3, 2, 4)] * 2:
        W = np.asarray(_planted_channel(rng, shape).kernel)
        off = W.copy()
        off[0, 0] = np.roll(off[0, 0], 1)
        for kernel in (W, off):
            gens, _ = _automorphisms(kernel)
            for g in gens:
                assert np.array_equal(kernel[np.ix_(*g)], kernel)
            want = _brute_x_group(kernel)
            assert _x_group(gens, shape[0]) == want
        broken += len(_brute_x_group(off)) < len(_brute_x_group(W))
    assert broken > 0


def test_automorphism_search_stays_within_the_node_cap(rng, monkeypatch):
    # a random 6 x 6 x 6 kernel and remote-ot m=3 n=2 (64 x 3 x 4) finish
    # under the cap; a capped search returns verified generators only
    import scbound.bounds as bounds

    K = rng.random((6, 6, 6))
    for W in (K / K.sum(axis=2, keepdims=True),
              np.asarray(_reduced("remote-ot", m=3, n=2).kernel)):
        gens, nodes = bounds._automorphisms(W)
        assert nodes < bounds._SEARCH_NODES
        assert all(np.array_equal(W[np.ix_(*g)], W) for g in gens)
    assert W.shape == (64, 3, 4) and gens
    W = np.asarray(_reduced("group-add", order=6).kernel)
    monkeypatch.setattr(bounds, "_SEARCH_NODES", 5)
    gens, nodes = bounds._automorphisms(W)
    assert nodes == 5
    assert all(np.array_equal(W[np.ix_(*g)], W) for g in gens)
    assert 12 % len(_x_group(gens, 6)) == 0
    monkeypatch.setattr(bounds, "_SEARCH_NODES", 2)  # inside the first path
    assert bounds._automorphisms(W) == ([], 2)


def _orbit_and_full(monkeypatch, ch, cfg):
    # both sides of the sweep on the orbit path, then with the search
    # finding nothing (the full grid), and the orbit path's group order
    import scbound.bounds as bounds

    bank = bounds._TermBank(ch, cfg)
    orbit = {side: bank.sweep(side) for side in "xy"}
    order = len(bank._orbits(bank.candidates("x"), bank.candidates("y"))[0])
    with monkeypatch.context() as m:
        _full_grid(m)
        full = {side: bounds._TermBank(ch, cfg).sweep(side) for side in "xy"}
    return bank, orbit, full, order


def _assert_orbit_matches_full(bank, orbit, full):
    # every maximum within 1e-12 of the full grid's, and every arg names a
    # cell that attains it within 1e-12, scored on the cone
    from scbound.bounds import _SWEEP_GROUPS, _group_values

    for side, groups in _SWEEP_GROUPS.items():
        o, f = orbit[side], full[side]
        assert np.array_equal(o.outer, f.outer) and np.array_equal(o.inner, f.inner)
        for g in groups:
            np.testing.assert_allclose(o.best[g], f.best[g], rtol=0, atol=1e-12)
            hit = _group_values(bank, side, o.outer, o.inner[o.arg[g]], g)
            np.testing.assert_allclose(hit, f.best[g], rtol=0, atol=1e-12)


_CLOSED = [("group-add", {"order": 3}), ("group-add", {"order": 4}), ("group-add", {"order": 5}),
           ("group-add", {"order": 6}), ("remote-ot", {"m": 2}), ("and", {"n": 2}), ("sum", {})]


@pytest.mark.parametrize("name,params", _CLOSED,
                         ids=["-".join([n] + [str(v) for v in p.values()]) for n, p in _CLOSED])
def test_orbit_sweep_matches_the_full_grid_on_builtins(monkeypatch, name, params):
    # every built-in whose two sides are lattice candidates, at its default
    # config: a nontrivial group, and the full grid's maxima
    bank, orbit, full, order = _orbit_and_full(monkeypatch, _reduced(name, **params), CFG)
    assert order > 1
    _assert_orbit_matches_full(bank, orbit, full)


@pytest.mark.parametrize("height", [1, 5, 1000])
def test_orbit_sweep_matches_the_full_grid(rng, monkeypatch, height):
    # seeded random channels with a planted group, in slices of 1 row, of 5
    # rows and of the whole grid
    import scbound.bounds as bounds

    cfg = OptConfig(grid_resolution=0.1)
    monkeypatch.setattr(bounds, "_SWEEP_CELLS", height * 67)
    for shape in [(3, 3, 3), (3, 3, 2), (4, 3, 2), (2, 4, 3), (3, 2, 4)] * 2:
        bank, orbit, full, order = _orbit_and_full(monkeypatch, _planted_channel(rng, shape), cfg)
        assert order > 1
        _assert_orbit_matches_full(bank, orbit, full)


def test_orbit_sweep_on_group_add_scores_a_fraction_of_the_grid(monkeypatch):
    # group-add 4 and 5 score at most 15% and 7% of their full grids: one
    # x candidate per orbit (458 of 3,283 and 101 of 1,821)
    import scbound.bounds as bounds

    cells = []
    pair_values = bounds._TermBank.pair_values

    def counted(self, A, B, kinds, _work=None):
        cells.append(len(A) * len(B))
        return pair_values(self, A, B, kinds, _work)

    monkeypatch.setattr(bounds._TermBank, "pair_values", counted)
    for order, share in ((4, 0.15), (5, 0.07)):
        del cells[:]
        bank = bounds._TermBank(_reduced("group-add", order=order), CFG)
        bank.sweep("x")
        n_x, n_y = len(bank.candidates("x")), len(bank.candidates("y"))
        assert 0 < sum(cells) <= share * n_x * n_y


@pytest.mark.parametrize("name,params", [("remote-ot", {"m": 3}), ("erasure", {})],
                         ids=["remote-ot-3", "erasure"])
def test_sweep_without_a_symmetry_scores_the_full_grid(monkeypatch, name, params):
    # remote-ot m=3 (8 x-side symbols: Dirichlet draws, so no search) and
    # erasure (no x relabelling) sweep every x candidate: bit for bit the
    # max and first argmax of the grid scored in the sweep's slices
    import scbound.bounds as bounds

    searches = []
    search = bounds._automorphisms
    monkeypatch.setattr(bounds, "_automorphisms", lambda W: searches.append(W) or search(W))
    bank = bounds._TermBank(_reduced(name, **params), CFG)
    sweeps = {side: bank.sweep(side) for side in "xy"}
    assert len(searches) == (name == "erasure")
    A, B = bank.candidates("x"), bank.candidates("y")
    rows = max(1, min(bounds._CHUNK, len(A), bounds._SWEEP_CELLS // len(B)))
    for side, groups in bounds._SWEEP_GROUPS.items():
        for g in groups:
            V = np.concatenate([sum(bank.pair_values(A[lo:lo + rows], B, g))
                                for lo in range(0, len(A), rows)])
            if side == "y":
                V = V.T
            assert np.array_equal(sweeps[side].best[g], V.max(axis=1))
            assert np.array_equal(sweeps[side].arg[g], V.argmax(axis=1))


def test_group_search_runs_only_for_a_nested_term(monkeypatch):
    # the search is made inside the sweep, once per bank: an improved
    # family makes none, a conditional family one
    import scbound.bounds as bounds

    searches = []
    search = bounds._automorphisms
    monkeypatch.setattr(bounds, "_automorphisms", lambda W: searches.append(W) or search(W))
    ch = _reduced("group-add", order=3)
    improved_bounds(ch, CFG)
    assert not searches
    conditional_bounds(ch, CFG)
    assert len(searches) == 1
