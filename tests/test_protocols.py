import dataclasses
import itertools
import json
import math
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbound import protocols
from scbound.dists import (
    Alphabet,
    CapacityError,
    Channel,
    JointDist,
    SupportJoint,
    channel_from_json,
    channel_to_json,
    cond_entropy,
    entropy,
    mutual_info,
    sym_str,
    _codes,
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
    View,
    _link_alphabet,
    _view_json,
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


def test_correctness_compares_supported_rows_only():
    # AND run where (1, 1) never occurs: a supported row off by 2e-9 fails,
    # one off by 5e-10 passes, and a change on the unsupported row is ignored
    b = builtin("and")
    x, y = b.spec.x_axis, b.spec.y_axis
    e = run_exact(b.spec, JointDist((x, y), [[0.25, 0.25], [0.5, 0.0]]))

    def channel(cells):
        kernel = b.channel.kernel.copy()
        for (i, j), row in cells.items():
            kernel[i, j] = row
        return Channel(x, y, b.spec.z_axis, kernel)

    assert verify_correctness(e, b.channel)
    assert not verify_correctness(e, channel({(1, 0): [1 - 2e-9, 2e-9]}))
    assert verify_correctness(e, channel({(1, 0): [1 - 5e-10, 5e-10]}))
    assert verify_correctness(e, channel({(1, 1): [1.0, 0.0]}))
    assert not verify_correctness(e, channel({(1, 1): [1.0, 0.0], (0, 1): [0.5, 0.5]}))


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


@pytest.mark.parametrize("name", ["and", "group-add", "sum", "erasure", "remote-ot"])
def test_oversize_builtin_kernel_refused_before_round_alphabets(monkeypatch, name):
    # the kernel cap is checked right after the X, Y and Z alphabets, so an
    # oversize built-in (sum --n 12) builds none of its round alphabets
    import scbound.dists as dists

    cells = builtin(name).channel.kernel.size
    built = []

    def recording_alphabet(alph_name, symbols):
        built.append(alph_name)
        return Alphabet(alph_name, symbols)

    monkeypatch.setattr(dists, "KERNEL_CELL_CAP", cells - 1)
    monkeypatch.setattr(protocols, "Alphabet", recording_alphabet)
    with pytest.raises(CapacityError, match="needs %d cells" % cells):
        builtin(name)
    assert built == ["X", "Y", "Z"]


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
    # 9 input pairs x 3 keys, but Charlie sees only the key and the masked
    # sum, and the map is called once per distinct view
    assert len(seen) == len(set(seen)) == 9
    for view in seen:
        assert view.inp is None and view.m12 is None
        assert view.m23 == (view.rand,)  # Charlie's key to Bob
        assert len(view.m31) == 1


# -- the branch walker against a depth-first oracle ----------------------------


def _oracle_branches(spec, x, y):
    """The depth-first enumeration the walker replaces: run the schedule on
    inputs (x, y) under every randomness triple in (r1, r2, r3) order,
    building one View and calling one map per round of every branch. Yields
    one list per branch: the (view, symbol) pair of every round, then
    Charlie's final view and the output."""
    plan = [
        (rnd, rnd.sender - 1, rnd.receiver - 1, View._fields.index(rnd.link()))
        for rnd in spec.rounds
    ]
    for r1, r2, r3 in itertools.product(*spec.randomness):
        views = [[x, r1, (), None, ()], [y, r2, (), (), None], [None, r3, None, (), ()]]
        steps = []
        for rnd, sender, receiver, field in plan:
            view = View(*views[sender])
            msg = rnd.fn(view)
            if msg not in rnd.alphabet._index:
                raise ProtocolSpecError("round %d->%d produced %r outside its alphabet"
                                        % (rnd.sender, rnd.receiver, msg))
            steps.append((view, msg))
            views[sender][field] += (msg,)
            views[receiver][field] += (msg,)
        view = View(*views[2])
        z = spec.output_fn(view)
        if z not in spec.z_axis._index:
            raise ProtocolSpecError("output %r outside the output alphabet" % (z,))
        steps.append((view, z))
        yield steps


def _oracle_joint(spec, p_xy):
    axes = (spec.x_axis, spec.y_axis, spec.z_axis) + tuple(
        _link_alphabet(spec, link) for link in ("m12", "m23", "m31"))
    r_weight = 1.0 / math.prod(len(a) for a in spec.randomness)
    on_12 = [t for t, rnd in enumerate(spec.rounds) if rnd.link() == "m12"]

    def rows():
        for (x, y), p in p_xy.support():
            for steps in _oracle_branches(spec, x, y):
                view, z = steps[-1]
                m12 = tuple(steps[t][1] for t in on_12)
                yield (x, y, z, m12, view.m23, view.m31), p * r_weight

    return SupportJoint.accumulate(axes, rows())


def _oracle_tables(spec, pairs):
    """Each round's {view: symbol} table, then the output's, in first-seen
    branch order over the input pairs."""
    tables = [{} for _ in range(len(spec.rounds) + 1)]
    for x, y in pairs:
        for steps in _oracle_branches(spec, x, y):
            for table, (view, sym) in zip(tables, steps):
                table[view] = sym
    return tables


def _oracle_maps(spec):
    """The map rows of spec_to_json, from the oracle's tables."""
    tables = _oracle_tables(spec, itertools.product(spec.x_axis, spec.y_axis))
    rows = [[{"view": _view_json(v), key: sym_str(s)} for v, s in table.items()]
            for table, key in zip(tables, ["send"] * len(spec.rounds) + ["z"])]
    return rows[:-1], rows[-1]


def _assert_same_joint(got, want):
    assert got.axes == want.axes
    assert np.array_equal(got.coords, want.coords)
    assert got.probs.tobytes() == want.probs.tobytes()


def _hashed_map(alphabet, salt, off):
    """A lookup table filled by a hash of the view, so it is a fixed
    function of the view whatever order the views come in; where `off`
    and the hash say so, the symbol is outside the alphabet."""

    def fn(view):
        h = zlib.crc32(("%d|%r" % (salt, tuple(view))).encode())
        if off and h % 5 == 0:
            return "off"
        return alphabet.symbols[h % len(alphabet)]

    return fn


@st.composite
def _random_protocols(draw):
    size = st.integers(2, 3)
    x = Alphabet("X", tuple(range(draw(size))))
    y = Alphabet("Y", tuple("ab"[:draw(st.integers(1, 2))] + "c"))  # string symbols
    z = Alphabet("Z", tuple(range(draw(size))))
    rand = tuple(Alphabet("R%d" % i, tuple(range(draw(st.integers(1, 3))))) for i in (1, 2, 3))
    off = draw(st.booleans())  # may a map step outside its alphabet?
    rounds = []
    for t in range(draw(st.integers(1, 4))):
        sender, receiver = draw(st.permutations((1, 2, 3)))[:2]
        a = Alphabet("A%d" % t, tuple(range(draw(size))))
        rounds.append(Round(sender, receiver, a, _hashed_map(a, t, off)))
    spec = ProtocolSpec(x, y, z, rand, tuple(rounds), _hashed_map(z, -1, off))
    full = draw(st.booleans())
    weights = np.array(draw(st.lists(st.integers(1 if full else 0, 3),
                                     min_size=len(x) * len(y), max_size=len(x) * len(y))),
                       dtype=float).reshape(len(x), len(y))
    if not weights.any():
        weights[0, 0] = 1.0
    return spec, JointDist((x, y), weights / weights.sum())


def _recorded(spec):
    """spec with every map wrapped to log its views, and the logs."""
    logs = [[] for _ in range(len(spec.rounds) + 1)]

    def logged(fn, log):
        def wrapped(view):
            log.append(view)
            return fn(view)
        return wrapped

    rounds = tuple(dataclasses.replace(r, fn=logged(r.fn, log)) for r, log in zip(spec.rounds, logs))
    return dataclasses.replace(spec, rounds=rounds, output_fn=logged(spec.output_fn, logs[-1])), logs


@settings(max_examples=150, deadline=None)
@given(_random_protocols(), st.sampled_from([1, 7, 1 << 16]))
def test_walker_matches_the_depth_first_oracle(case, block):
    spec, p_xy = case
    try:
        want = _oracle_joint(spec, p_xy)
    except ProtocolSpecError:
        want = None
    recorded, logs = _recorded(spec)
    with mock.patch.object(protocols, "_BLOCK_BRANCHES", block):
        if want is None:
            with pytest.raises(ProtocolSpecError):
                run_exact(recorded, p_xy)
        else:
            _assert_same_joint(run_exact(recorded, p_xy).joint, want)
            # each map ran once per distinct view, in first-seen order
            pairs = [key for key, _ in p_xy.support()]
            assert logs == [list(t) for t in _oracle_tables(spec, pairs)]
        try:
            want_maps = _oracle_maps(spec)
        except ProtocolSpecError:
            with pytest.raises(ProtocolSpecError):
                spec_to_json(spec)
            return
        blob = spec_to_json(spec)
    assert ([r["map"] for r in blob["rounds"]], blob["output_map"]) == want_maps
    twin = spec_from_json(_loaded(blob))
    twin_p = JointDist((twin.x_axis, twin.y_axis), p_xy.probs)
    _assert_same_joint(run_exact(twin, twin_p).joint, _oracle_joint(twin, twin_p))
    assert spec_to_json(twin) == blob


def test_walker_codes_renumber_before_int64_overflow():
    # the mixed-radix number of these rows would need 2^81 values; wrapped
    # to 64 bits, rows 0 and 1 would get the same code
    cols = [np.array([0, 2**24, 0, 2**24]), np.array([5, 5, 5, 6]), np.array([1, 1, 1, 0])]
    code = _codes(cols, [2**40, 2**40, 3])
    assert code[0] == code[2]
    assert code[0] < code[1] < code[3]  # the rows' lexicographic order


@pytest.mark.parametrize("block", [1, 500])
def test_walker_blocks_match_one_block_on_and_n3(monkeypatch, block):
    b = builtin("and", n=3)  # 64 input pairs x 216 permutations: 13,824 branches
    whole = run_exact(b.spec, b.default_input).joint
    blob = spec_to_json(b.spec)
    _assert_same_joint(whole, _oracle_joint(b.spec, b.default_input))
    monkeypatch.setattr("scbound.protocols._BLOCK_BRANCHES", block)  # 64 or 32 blocks
    _assert_same_joint(run_exact(b.spec, b.default_input).joint, whole)
    assert spec_to_json(b.spec) == blob
