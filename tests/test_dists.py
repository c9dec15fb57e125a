import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scbound.dists import (
    Alphabet,
    Channel,
    JointDist,
    SupportJoint,
    channel_from_json,
    channel_to_json,
    cond_entropy,
    cond_mutual_info,
    dist_from_json,
    dist_to_json,
    entropy,
    join,
    mutual_info,
    _codes,
)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("A", ())
    # hash-equal symbols are duplicates too: 1 == True
    for symbols in (("a", "a"), (1, True)):
        with pytest.raises(ValueError, match="duplicate symbols"):
            Alphabet("A", symbols)
    a = Alphabet("A", ("a", "b"))
    assert a.index("b") == 1
    with pytest.raises(ValueError):
        a.index("c")


def test_jointdist_validation():
    a = Alphabet("A", (0, 1))
    with pytest.raises(ValueError):
        JointDist((a,), [0.6, 0.6])
    with pytest.raises(ValueError):
        JointDist((a,), [1.2, -0.2])
    for bad in ([math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0], [math.inf, -math.inf]):
        with pytest.raises(ValueError):
            JointDist((a,), bad)
    JointDist((a,), [0.5, 0.5])


def test_support_joint_validation():
    a, b = Alphabet("A", (0, 1)), Alphabet("B", (0, 1, 2))
    good = [[0, 0], [1, 2]]
    SupportJoint((a, b), good, [0.5, 0.5])
    bad_inputs = [
        (good, [math.nan, 1.0]),  # NaN mass
        (good, [math.inf, 0.0]),  # infinite mass
        (good, [1.2, -0.2]),  # negative mass
        ([[0, 0], [2, 0]], [0.5, 0.5]),  # 2 is outside A
        ([[0, 0], [1, -1]], [0.5, 0.5]),  # -1 is outside B
        ([[1, 2], [1, 2]], [0.5, 0.5]),  # duplicate rows
        ([[0, 0, 0], [1, 2, 0]], [0.5, 0.5]),  # three columns for two axes
        ([0, 1], [0.5, 0.5]),  # one-dimensional coords
        (good, [0.5, 0.4]),  # total mass 0.9
        (good, [0.5, 0.5, 0.0]),  # more masses than rows
        ([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5]),  # non-integer coords
    ]
    for coords, probs in bad_inputs:
        with pytest.raises(ValueError):
            SupportJoint((a, b), coords, probs)


def test_support_joint_matches_dense(and_joint):
    coords = np.argwhere(and_joint.probs > 0)
    s = SupportJoint(and_joint.axes, coords, and_joint.probs[tuple(coords.T)])
    for axes in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}):
        assert entropy(s, axes) == pytest.approx(entropy(and_joint, axes), abs=1e-15)
        assert s.marginal(axes) == and_joint.marginal(axes)
    assert cond_mutual_info(s, (0,), (1,), (2,)) == pytest.approx(
        cond_mutual_info(and_joint, (0,), (1,), (2,)), abs=1e-15
    )
    # repeated points are summed in the order they arrive
    acc = SupportJoint.accumulate(
        and_joint.axes, [((0, 0, 0), 0.125), ((1, 1, 1), 0.25), ((0, 0, 0), 0.125),
                         ((0, 1, 0), 0.25), ((1, 0, 0), 0.25)]
    )
    assert acc.coords.tolist() == [[0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 0]]
    assert acc.probs.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert acc.marginal({0, 1, 2}) == and_joint
    with pytest.raises(ValueError):
        SupportJoint.accumulate(and_joint.axes, [((0, 0), 1.0)])


def test_row_codes_match_numpy_unique(rng):
    # sorted codes give np.unique(axis=0)'s rows and inverse, and the
    # walker's first-seen grouping of the same codes gives the rows in the
    # order a scan meets them; 2**40 and 2048 symbols on 2 and 6 columns
    # pass int64 and renumber
    from scbound.protocols import _first_seen

    for n, k, hi in ((0, 3, 4), (1, 1, 2), (60, 3, 3), (500, 6, 4), (200, 2, 2**40),
                     (300, 6, 2048)):
        cols = rng.integers(0, hi, size=(n, k))
        cols[n // 2:] = cols[:n - n // 2]  # repeat the first half's rows
        code = _codes(cols.T, [hi] * k)
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        ref_rows, ref_inverse = np.unique(cols, axis=0, return_inverse=True)
        assert np.array_equal(cols[first], ref_rows)
        assert np.array_equal(inverse, ref_inverse.reshape(-1))
        seen = {}
        for i, row in enumerate(map(tuple, cols.tolist())):
            seen.setdefault(row, i)
        first, rank = _first_seen(code)
        assert first.tolist() == list(seen.values())
        assert [list(seen)[r] for r in rank.tolist()] == list(map(tuple, cols.tolist()))


def test_support_joint_groups_past_int64():
    # 2048**6 = 2**66 cells: no flat int64 index exists for the full joint
    axes = tuple(Alphabet("A%d" % i, range(2048)) for i in range(6))
    top = 2047
    coords = [[0] * 6, [0] * 5 + [top], [top] * 6, [top] + [0] * 5]
    with pytest.raises(ValueError):
        np.ravel_multi_index(np.array(coords).T, (2048,) * 6)
    s = SupportJoint(axes, coords, [0.25] * 4)
    assert entropy(s, range(6)) == pytest.approx(2.0, abs=1e-15)
    assert entropy(s, range(5)) == pytest.approx(1.5, abs=1e-15)  # rows 0 and 1 merge
    assert entropy(s, (0,)) == pytest.approx(1.0, abs=1e-15)
    assert entropy(s, (5,)) == pytest.approx(1.0, abs=1e-15)
    assert cond_entropy(s, (5,), (0, 1, 2, 3, 4)) == pytest.approx(0.5, abs=1e-15)
    rows, mass = s.grouped(list(range(6)))
    assert rows.tolist() == sorted(coords)
    assert mass.tolist() == [0.25] * 4


def test_support_joint_refuses_duplicate_rows_past_int64():
    # on 6 axes of 2048 symbols, a code wrapped to 64 bits would give the
    # rows 0 and 512 * 2048**5 = 2**64 one code; the real codes tell them apart
    axes = tuple(Alphabet("A%d" % i, range(2048)) for i in range(6))
    low, high, top = [0] * 6, [512] + [0] * 5, [2047] * 6
    assert SupportJoint(axes, [low, high, top], [0.5, 0.25, 0.25]).grouped(range(6))[0].tolist() \
        == [low, high, top]
    for coords in ([low, high, low], [high, top, high], [top, low, top]):
        with pytest.raises(ValueError, match="duplicate coordinate rows"):
            SupportJoint(axes, coords, [0.5, 0.25, 0.25])


def test_support_joint_groupings_are_cached_read_only_and_exact():
    # an execution joint regroups the same axis sets for every verify check:
    # each grouping is made once, kept read-only, and equals numpy's sorted
    # distinct rows and a bincount on its inverse bit for bit
    import itertools

    from scbound.protocols import builtin, run_exact

    b = builtin("sum", n=2)
    s = run_exact(b.spec, b.default_input).joint
    fresh = SupportJoint(s.axes, s.coords, s.probs)
    subsets = [list(c) for r in (1, 2, 3) for c in itertools.combinations(range(s.n_axes), r)]
    for keep in subsets:
        rows, mass = s.grouped(keep)
        want_rows, inverse = np.unique(s.coords[:, keep], axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(mass, np.bincount(inverse, weights=s.probs,
                                                minlength=len(want_rows)))
        assert not rows.flags.writeable and not mass.flags.writeable
        with pytest.raises(ValueError):
            mass[0] = 0.0
        again = s.grouped(tuple(keep))
        assert again[0] is rows and again[1] is mass
    for keep in subsets:
        for _ in range(2):
            assert entropy(s, keep) == entropy(fresh, keep)
            assert np.array_equal(s.marginal(keep).probs, fresh.marginal(keep).probs)
    assert cond_entropy(s, (2,), (0, 1)) == cond_entropy(fresh, (2,), (0, 1))
    # unsigned coordinates group as signed ones do
    unsigned = SupportJoint(s.axes, s.coords.astype(np.uint64), s.probs)
    for keep in subsets:
        assert all(np.array_equal(a, b) for a, b in zip(unsigned.grouped(keep), s.grouped(keep)))


def test_channel_validation():
    x, y, z = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1)), Alphabet("Z", (0, 1))
    bad = np.full((2, 2, 2), 0.4)
    with pytest.raises(ValueError):
        Channel(x, y, z, bad)
    with pytest.raises(ValueError):
        Channel(x, y, z, np.zeros((2, 2, 3)))
    for bad in (math.nan, math.inf):
        kernel = np.full((2, 2, 2), 0.5)
        kernel[1, 0, 1] = bad
        with pytest.raises(ValueError):
            Channel(x, y, z, kernel)
    Channel(x, y, z, np.full((2, 2, 2), 0.5))


def test_from_pmf_arity_check():
    a, b = Alphabet("A", (0, 1)), Alphabet("B", (0, 1))
    with pytest.raises(ValueError):
        JointDist.from_pmf((a, b), {(0,): 1.0})


def test_entropy_uniform_four():
    a = Alphabet("A", (0, 1, 2, 3))
    assert entropy(JointDist.uniform((a,)), (0,)) == pytest.approx(2.0, abs=1e-12)


def test_entropy_point_mass():
    a = Alphabet("A", (0, 1, 2))
    d = JointDist((a,), [0.0, 1.0, 0.0])
    assert entropy(d, (0,)) == 0.0


def test_entropy_bernoulli():
    # direct evaluation of the binary entropy formula
    p = 0.11
    expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert expected == pytest.approx(0.499915958164528, abs=1e-12)
    a = Alphabet("A", (0, 1))
    d = JointDist((a,), [1 - p, p])
    assert entropy(d, (0,)) == pytest.approx(expected, abs=1e-12)


def test_entropy_axis_errors(and_joint):
    with pytest.raises(ValueError):
        entropy(and_joint, ())
    with pytest.raises(ValueError):
        entropy(and_joint, (3,))
    with pytest.raises(ValueError):
        entropy(and_joint, (0, 0))


def test_cond_entropy_deterministic_copy():
    a = Alphabet("X", (0, 1))
    b = Alphabet("Z", (0, 1))
    d = JointDist.from_pmf((a, b), {(0, 0): 0.5, (1, 1): 0.5})
    assert cond_entropy(d, (1,), (0,)) == pytest.approx(0.0, abs=1e-12)


def test_cond_entropy_independent_bits():
    a, b = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    d = JointDist.uniform((a, b))
    assert cond_entropy(d, (0,), (1,)) == pytest.approx(1.0, abs=1e-12)


def test_cond_entropy_and(and_joint):
    # Z is determined by (X, Y), so H(Y,Z|X) = H(Y|X) = 1
    assert cond_entropy(and_joint, (1, 2), (0,)) == pytest.approx(1.0, abs=1e-12)


def test_cond_entropy_overlap_error(and_joint):
    with pytest.raises(ValueError):
        cond_entropy(and_joint, (0, 1), (1,))


def test_mutual_info_independent(uniform_bits):
    assert mutual_info(uniform_bits, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_copy():
    a, b = Alphabet("U", (0, 1)), Alphabet("V", (0, 1))
    d = JointDist.from_pmf((a, b), {(0, 0): 0.5, (1, 1): 0.5})
    assert mutual_info(d, (0,), (1,)) == pytest.approx(1.0, abs=1e-12)


def test_mutual_info_and(and_joint):
    # brute force on the 4-point joint: I(X;Z) = H(X)+H(Z)-H(XZ)
    h = lambda ps: -sum(p * math.log2(p) for p in ps if p > 0)
    expected = h([0.5, 0.5]) + h([0.75, 0.25]) - h([0.5, 0.25, 0.25])
    assert expected == pytest.approx(0.31127812445913294, abs=1e-12)
    assert mutual_info(and_joint, (0,), (2,)) == pytest.approx(expected, abs=1e-12)


def test_mutual_info_overlap_error(and_joint):
    with pytest.raises(ValueError):
        mutual_info(and_joint, (0,), (0, 2))
    with pytest.raises(ValueError):
        cond_mutual_info(and_joint, (0,), (1,), (1,))


def test_join_and(uniform_bits, and_channel):
    d = join(uniform_bits, and_channel)
    expect = {(0, 0, 0): 0.25, (0, 1, 0): 0.25, (1, 0, 0): 0.25, (1, 1, 1): 0.25}
    assert dict(((k, v) for k, v in d.support())) == pytest.approx(expect)


def test_join_constant_channel(bit_axes):
    x, y, _ = bit_axes
    z = Alphabet("Z", ("c",))
    ch = Channel.from_function(x, y, z, lambda a, b: "c")
    d = join(JointDist.uniform((x, y)), ch)
    assert mutual_info(d, (0, 1), (2,)) == pytest.approx(0.0, abs=1e-12)
    assert entropy(d, (2,)) == 0.0


def test_join_erasure_table():
    # enumerate the 4 input pairs against the truth table (2 = erased)
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    ch = Channel.from_function(x, y, z, lambda a, b: b if a else 2)
    p, q = 0.3, 0.7
    p_xy = JointDist.from_pmf(
        (x, y),
        {(a, b): (p if a else 1 - p) * (q if b else 1 - q) for a in (0, 1) for b in (0, 1)},
    )
    d = join(p_xy, ch)
    expect = {(0, 0, 2): 0.21, (0, 1, 2): 0.49, (1, 0, 0): 0.09, (1, 1, 1): 0.21}
    assert dict(d.support()) == pytest.approx(expect)


def test_join_axis_mismatch(uniform_bits):
    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    ch = Channel.from_function(x, y, z, lambda a, b: min(a & b, 1))
    with pytest.raises(ValueError):
        join(uniform_bits, ch)


def test_product_points_and_uniform():
    # the uniform law on a product of alphabets puts equal mass on every point
    a, b = Alphabet("A", ("p",)), Alphabet("B", ("q",))
    assert dict(JointDist.uniform((a, b)).support()) == {("p", "q"): 1.0}
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    assert_allclose(JointDist.uniform((x, y)).probs, 0.25)


def test_join_recovers_inputs(rng):
    from conftest import random_joint

    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    for _ in range(20):
        p_xy = JointDist((x, y), random_joint(rng, (3, 2)))
        kernel = rng.random((3, 2, 2))
        kernel /= kernel.sum(axis=2, keepdims=True)
        ch = Channel(x, y, z, kernel)
        d = join(p_xy, ch)
        assert np.max(np.abs(d.marginal({0, 1}).probs - p_xy.probs)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=6, max_size=6), st.data())
def test_chain_rule_property(weights, data):
    if sum(weights) == 0:
        weights[0] = 1
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1, 2))
    probs = np.array(weights, dtype=float).reshape(2, 3) / sum(weights)
    d = JointDist((x, y), probs)
    # H(A,B) = H(A) + H(B|A)
    assert entropy(d, (0, 1)) == pytest.approx(
        entropy(d, (0,)) + cond_entropy(d, (1,), (0,)), abs=1e-10
    )
    # I(A;B) = H(A) + H(B) - H(A,B)
    assert mutual_info(d, (0,), (1,)) == pytest.approx(
        max(entropy(d, (0,)) + entropy(d, (1,)) - entropy(d, (0, 1)), 0.0), abs=1e-10
    )


def test_dist_json_roundtrip():
    x, y = Alphabet("X", ("a", "b")), Alphabet("Y", ("u", "v"))
    d = JointDist.from_pmf((x, y), {("a", "u"): 0.25, ("b", "v"): 0.75})
    blob = json.dumps(dist_to_json(d))
    d2 = dist_from_json(json.loads(blob))
    assert d2 == d


def test_channel_json_roundtrip():
    x, y = Alphabet("X", ("0", "1")), Alphabet("Y", ("0", "1"))
    z = Alphabet("Z", ("0", "1"))
    ch = Channel.from_function(x, y, z, lambda a, b: str(int(a) & int(b)))
    blob = json.dumps(channel_to_json(ch))
    ch2 = channel_from_json(json.loads(blob))
    assert ch2 == ch
