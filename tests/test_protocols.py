import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from scbound.dists import (
    Alphabet,
    CapacityError,
    JointDist,
    channel_from_json,
    channel_to_json,
    cond_entropy,
    entropy,
    mutual_info,
)
from scbound.cmss import and_cmss, and_secret_dist, cmss_joint, verify_cmss
from scbound.protocols import (
    M12,
    M23,
    M31,
    X,
    Y,
    ExecutionJoint,
    ProtocolSpec,
    ProtocolSpecError,
    Round,
    builtin,
    expected_lengths,
    huffman_lengths,
    run_exact,
    spec_from_json,
    spec_to_json,
    verify_correctness,
    verify_cutset,
    verify_info_inequality,
    verify_privacy,
    verify_transcript_independence,
)

LOG3 = math.log2(3.0)
LOG6 = math.log2(6.0)


def entropies(e):
    return {l: e.h(l) for l in ("m12", "m23", "m31")}


def test_and_execution_entropies():
    b = builtin("and")
    e = run_exact(b.spec, b.default_input)
    h = entropies(e)
    assert h["m31"] == pytest.approx(LOG3, abs=1e-12)
    assert h["m23"] == pytest.approx(LOG3, abs=1e-12)
    assert h["m12"] == pytest.approx(1 + LOG3, abs=1e-12)


def test_group_add_execution_entropies():
    b = builtin("group-add", order=2)
    e = run_exact(b.spec, b.default_input)
    assert entropies(e) == pytest.approx({"m12": 1.0, "m23": 1.0, "m31": 1.0}, abs=1e-12)


def test_remote_ot_execution_entropies():
    b = builtin("remote-ot", m=2)
    e = run_exact(b.spec, b.default_input)
    h = entropies(e)
    assert h["m31"] == pytest.approx(2.0, abs=1e-12)
    assert h["m23"] == pytest.approx(2.0, abs=1e-12)
    assert h["m12"] == pytest.approx(3.0, abs=1e-12)


def test_input_marginal_preserved():
    b = builtin("sum")
    p = JointDist.from_pmf(
        (b.spec.x_axis, b.spec.y_axis),
        {((0,), (0,)): 0.4, ((0,), (1,)): 0.1, ((1,), (0,)): 0.2, ((1,), (1,)): 0.3},
    )
    e = run_exact(b.spec, p)
    assert np.max(np.abs(e.joint.marginal({X, Y}).probs - p.probs)) <= 1e-12


@pytest.mark.parametrize(
    "name,kwargs",
    [("and", {}), ("group-add", {"order": 3}), ("sum", {}), ("erasure", {}), ("remote-ot", {"m": 2})],
)
def test_builtin_security_suite(name, kwargs):
    b = builtin(name, **kwargs)
    e = run_exact(b.spec, b.default_input)
    assert verify_correctness(e, b.channel)
    assert all(verify_privacy(e))
    assert all(verify_cutset(e))
    assert all(verify_info_inequality(e))


def test_corrupted_and_fails_correctness():
    b = builtin("and")
    bad = ProtocolSpec(
        b.spec.x_axis, b.spec.y_axis, b.spec.z_axis, b.spec.randomness, b.spec.rounds,
        lambda v: tuple(1 - int(a == c) for a, c in zip(v.m31[0], v.m23[0])),
    )
    e = run_exact(bad, b.default_input)
    assert not verify_correctness(e, b.channel)
    assert all(verify_privacy(e))  # relabeling the output leaks nothing new


def test_plaintext_input_fails_privacy_against_bob():
    b = builtin("and")
    leaky_rounds = b.spec.rounds + (
        Round(1, 2, Alphabet("leak", b.spec.x_axis.symbols), lambda v: v.inp),
    )
    bad = ProtocolSpec(
        b.spec.x_axis, b.spec.y_axis, b.spec.z_axis, b.spec.randomness, leaky_rounds,
        b.spec.output_fn,
    )
    e = run_exact(bad, b.default_input)
    pa, pb, pc = verify_privacy(e)
    assert not pb
    assert verify_correctness(e, b.channel)


def test_empty_protocol_for_constant_channel():
    x, y = Alphabet("X", ((0,),)), Alphabet("Y", ((0,),))
    z = Alphabet("Z", ("c",))
    spec = ProtocolSpec(
        x, y, z,
        (Alphabet("R1", ("-",)), Alphabet("R2", ("-",)), Alphabet("R3", ("-",))),
        (),
        lambda v: "c",
    )
    from scbound.dists import Channel

    ch = Channel.from_function(x, y, z, lambda a, b: "c")
    e = run_exact(spec, JointDist.uniform((x, y)))
    assert verify_correctness(e, ch)
    assert all(verify_privacy(e))
    assert all(verify_info_inequality(e))  # empty transcripts: 0 >= 0
    assert entropies(e) == {"m12": 0.0, "m23": 0.0, "m31": 0.0}


def test_duplicate_input_symbol_breaks_cutset():
    # group-add over Z2 with a redundant third input symbol acting like 0:
    # the pair is not in normal form and the cut no longer reveals X
    x = Alphabet("X", (0, 1, 2))
    y = Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    r3 = Alphabet("R3", (0, 1))
    rounds = (
        Round(3, 2, Alphabet("K", (0, 1)), lambda v: v.rand),
        Round(2, 1, Alphabet("YK", (0, 1)), lambda v: (v.inp + v.m23[0]) % 2),
        Round(1, 3, Alphabet("XYK", (0, 1)), lambda v: (v.inp % 2 + v.m12[0]) % 2),
    )
    spec = ProtocolSpec(
        x, y, z,
        (Alphabet("R1", ("-",)), Alphabet("R2", ("-",)), r3),
        rounds,
        lambda v: (v.m31[0] - v.rand) % 2,
    )
    e = run_exact(spec, JointDist.uniform((x, y)))
    cut_x, cut_y, cut_z = verify_cutset(e)
    assert not cut_x
    assert cut_y and cut_z


def test_transcript_independence_flags():
    b = builtin("and")
    e = run_exact(b.spec, b.default_input)
    out = verify_transcript_independence(
        e, bigraph_connected=True, condition1=True, condition2=True, product_inputs=True
    )
    assert out == {"m12": True, "m31": True, "m23": True, "x_m23": True, "y_m31": True}

    b = builtin("erasure")
    e = run_exact(b.spec, b.default_input)
    out = verify_transcript_independence(
        e, bigraph_connected=True, condition1=False, condition2=True, product_inputs=True
    )
    assert out["m31"] is None  # independence not required on this link
    assert out["m12"] and out["m23"] and out["x_m23"] and out["y_m31"]
    # and it genuinely fails: Alice's input flows to Charlie in the open
    assert mutual_info(e.joint, (X,), (M31,)) > 0.1


def test_distribution_switching_keeps_link_entropies():
    b = builtin("and")
    h_ref = None
    for pmf in (
        {((0,), (0,)): 0.25, ((0,), (1,)): 0.25, ((1,), (0,)): 0.25, ((1,), (1,)): 0.25},
        {((0,), (0,)): 0.4, ((0,), (1,)): 0.2, ((1,), (0,)): 0.2, ((1,), (1,)): 0.2},
        {((0,), (0,)): 0.1, ((0,), (1,)): 0.3, ((1,), (0,)): 0.4, ((1,), (1,)): 0.2},
    ):
        p = JointDist.from_pmf((b.spec.x_axis, b.spec.y_axis), pmf)
        h = entropies(run_exact(b.spec, p))
        if h_ref is None:
            h_ref = h
        else:
            for l in h:
                assert h[l] == pytest.approx(h_ref[l], abs=1e-9)


def test_randomness_used_by_and():
    b = builtin("and")
    e = run_exact(b.spec, b.default_input)
    assert cond_entropy(e.joint, (M12, M23, M31), (X, Y)) == pytest.approx(1 + LOG3, abs=1e-9)


# -- expected lengths ---------------------------------------------------------


def test_huffman_uniform_three():
    lens = huffman_lengths({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
    assert sorted(lens.values()) == [1, 2, 2]


def test_huffman_singleton():
    assert huffman_lengths({"a": 1.0}) == {"a": 0}


def test_expected_lengths_group_add():
    b = builtin("group-add", order=2)
    lens = expected_lengths(b.spec, b.default_input)
    assert lens == pytest.approx({"m12": 1.0, "m23": 1.0, "m31": 1.0}, abs=1e-12)


def test_expected_lengths_and():
    b = builtin("and")
    lens = expected_lengths(b.spec, b.default_input)
    assert lens["m31"] == pytest.approx(5 / 3, abs=1e-12)  # Huffman on a uniform ternary source
    assert lens["m23"] == pytest.approx(5 / 3, abs=1e-12)
    assert lens["m12"] == pytest.approx(8 / 3, abs=1e-12)


def test_expected_lengths_erasure_caption_bound():
    b = builtin("erasure", p=0.5, q=0.5)
    lens = expected_lengths(b.spec, b.default_input)
    h2 = 1.0
    assert lens["m31"] < h2 + 1 + 0.5
    assert lens["m31"] == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize(
    "name,kwargs",
    [("and", {}), ("group-add", {"order": 3}), ("sum", {}), ("erasure", {}), ("remote-ot", {"m": 2})],
)
def test_expected_lengths_dominate_entropy(name, kwargs):
    b = builtin(name, **kwargs)
    e = run_exact(b.spec, b.default_input)
    lens = expected_lengths(b.spec, b.default_input, execution=e)
    for l in ("m12", "m23", "m31"):
        assert lens[l] >= e.h(l) - 1e-9


# -- errors and serialization --------------------------------------------------


def test_capacity_error(monkeypatch):
    monkeypatch.setattr("scbound.protocols.BRANCH_CAP", 10)
    b = builtin("remote-ot", m=2, n=1)
    with pytest.raises(CapacityError):
        run_exact(b.spec, b.default_input)


def test_oversize_builtin_rejected():
    with pytest.raises(CapacityError, match="branches"):
        b = builtin("remote-ot", m=4, n=4)
        run_exact(b.spec, b.default_input)


def test_spec_party_validation():
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    triv = (Alphabet("R1", ("-",)), Alphabet("R2", ("-",)), Alphabet("R3", ("-",)))
    with pytest.raises(ProtocolSpecError):
        ProtocolSpec(x, y, z, triv, (Round(1, 1, Alphabet("A", (0,)), lambda v: 0),), None)
    with pytest.raises(ProtocolSpecError):
        ProtocolSpec(x, y, z, triv, (Round(4, 1, Alphabet("A", (0,)), lambda v: 0),), None)


def test_message_outside_alphabet():
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    spec = ProtocolSpec(
        x, y, z,
        (Alphabet("R1", ("-",)), Alphabet("R2", ("-",)), Alphabet("R3", ("-",))),
        (Round(1, 3, Alphabet("A", (0,)), lambda v: v.inp),),
        lambda v: v.m31[0],
    )
    with pytest.raises(ProtocolSpecError):
        run_exact(spec, JointDist.uniform((x, y)))
    # the serializer walks the same branches, so it refuses to write a table
    # that spec_from_json could not load
    with pytest.raises(ProtocolSpecError):
        spec_to_json(spec)


def test_run_exact_deterministic():
    b = builtin("erasure")
    e1 = run_exact(b.spec, b.default_input)
    e2 = run_exact(b.spec, b.default_input)
    assert np.array_equal(e1.joint.coords, e2.joint.coords)
    assert np.array_equal(e1.joint.probs, e2.joint.probs)


def _densify(s):
    probs = np.zeros(tuple(len(a) for a in s.axes))
    probs[tuple(s.coords.T)] = s.probs
    return JointDist(s.axes, probs)


def _all_checks(e, ch):
    return (
        verify_correctness(e, ch) if ch is not None else None,
        verify_privacy(e),
        verify_cutset(e),
        verify_info_inequality(e),
        verify_transcript_independence(
            e, bigraph_connected=True, condition1=True, condition2=True, product_inputs=True
        ),
        verify_cmss(e.joint),
    )


_EQUIVALENCE_CONFIGS = [
    (name, dict(kwargs, n=n))
    for name, kwargs in (("and", {}), ("sum", {}), ("erasure", {}), ("remote-ot", {"m": 2}),
                         ("group-add", {"order": 2}), ("group-add", {"order": 3}))
    for n in (1, 2)
] + [("and-cmss", {})]


@pytest.mark.parametrize("name,kwargs", _EQUIVALENCE_CONFIGS)
def test_support_form_matches_dense_oracle(name, kwargs):
    if name == "and-cmss":
        support, ch = cmss_joint(and_cmss(), and_secret_dist()), None
    else:
        b = builtin(name, **kwargs)
        support, ch = run_exact(b.spec, b.default_input).joint, b.channel
    dense = _densify(support)
    for k in range(1, 7):
        for axes in itertools.combinations(range(6), k):
            assert abs(entropy(support, axes) - entropy(dense, axes)) <= 1e-12, axes
    assert _all_checks(ExecutionJoint(support), ch) == _all_checks(ExecutionJoint(dense), ch)


def test_spec_json_roundtrip_builtin_reference():
    blob = json.dumps({"builtin": "sum", "params": {"n": 1}})
    spec = spec_from_json(json.loads(blob))
    b = builtin("sum")
    e1 = run_exact(spec, b.default_input)
    e2 = run_exact(b.spec, b.default_input)
    assert entropies(e1) == pytest.approx(entropies(e2), abs=1e-12)


def test_spec_json_roundtrip_lookup_tables():
    b = builtin("group-add", order=2)
    blob = json.dumps(spec_to_json(b.spec))
    spec2 = spec_from_json(json.loads(blob))
    # string-symbol twin: same entropies and the same checks
    p2 = JointDist.uniform((spec2.x_axis, spec2.y_axis))
    e1 = run_exact(b.spec, b.default_input)
    e2 = run_exact(spec2, p2)
    assert entropies(e2) == pytest.approx(entropies(e1), abs=1e-12)
    assert all(verify_privacy(e2))
    assert all(verify_cutset(e2))


_SPEC_CONFIGS = [
    (name, dict(kwargs, n=n))
    for name, kwargs in (("and", {}), ("sum", {}), ("erasure", {}), ("remote-ot", {"m": 2}),
                         ("remote-ot", {"m": 3}), ("group-add", {"order": 2}),
                         ("group-add", {"order": 3}))
    for n in (1, 2)
    if not (kwargs.get("m") == 3 and n == 2)
]


def _loaded(obj):
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("name,kwargs", _SPEC_CONFIGS)
def test_spec_json_of_a_loaded_spec_is_the_same(name, kwargs):
    blob = spec_to_json(builtin(name, **kwargs).spec)
    assert spec_to_json(spec_from_json(_loaded(blob))) == blob


def _run_summary(spec, ch, p_xy):
    e = run_exact(spec, p_xy)
    checks = (verify_correctness(e, ch), verify_privacy(e), verify_cutset(e),
              verify_info_inequality(e))
    return entropies(e), expected_lengths(spec, p_xy, execution=e), checks


@pytest.mark.parametrize("drawn", [False, True])
@pytest.mark.parametrize("name,kwargs", _SPEC_CONFIGS)
def test_lookup_table_twin_matches_the_closures(rng, name, kwargs, drawn):
    b = builtin(name, **kwargs)
    twin = spec_from_json(_loaded(spec_to_json(b.spec)))
    twin_ch = channel_from_json(_loaded(channel_to_json(b.channel)))
    p = b.default_input
    if drawn:  # a full-support product input
        marginals = [0.1 / len(a) + 0.9 * rng.dirichlet(np.ones(len(a))) for a in p.axes]
        p = JointDist(p.axes, np.outer(*marginals))
    h, lens, checks = _run_summary(b.spec, b.channel, p)
    twin_h, twin_lens, twin_checks = _run_summary(
        twin, twin_ch, JointDist((twin.x_axis, twin.y_axis), p.probs)
    )
    assert twin_h == pytest.approx(h, abs=1e-12)
    assert twin_lens == pytest.approx(lens, abs=1e-12)
    assert twin_checks == checks


def test_output_fn_reads_charlies_view():
    b = builtin("group-add", order=3)
    seen = []

    def output(view):
        seen.append(view)
        return b.spec.output_fn(view)

    run_exact(dataclasses.replace(b.spec, output_fn=output), b.default_input)
    assert len(seen) == 27  # 9 input pairs x 3 keys
    assert len(set(seen)) == 9  # Charlie sees only the key and the masked sum
    for view in seen:
        assert view.inp is None and view.m12 is None
        assert view.m23 == (view.rand,)  # Charlie's key to Bob
        assert len(view.m31) == 1
