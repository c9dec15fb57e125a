import numpy as np
import pytest

from scbound.dists import ZERO_TOL, Alphabet, Channel, JointDist, join
from scbound.normal_form import (
    bigraph_connected,
    channel_normal_form,
    check_condition1,
    check_condition2,
    is_channel_normal_form,
    is_pair_normal_form,
    is_sampling_normal_form,
    pair_normal_form,
    sampling_normal_form,
)


def bits_channel(fn, zsyms=(0, 1)):
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    return Channel.from_function(x, y, Alphabet("Z", zsyms), fn)


def test_and_already_normal(and_channel):
    res = channel_normal_form(and_channel)
    assert res.reduced == and_channel
    assert is_channel_normal_form(and_channel)


def test_duplicate_x_row_merged():
    x = Alphabet("X", (0, 1, 2, 3, 4))
    y = Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    # the rows of x=0, 2 and 4 are identical, and so are those of x=1 and 3
    ch = Channel.from_function(x, y, z, lambda a, b: (a % 2) & b)
    res = channel_normal_form(ch)
    assert len(res.reduced.x_axis) == 2
    assert res.x_map == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}


def test_moves_follow_the_restart_order_on_tolerance_chains():
    # equality within ZERO_TOL is not transitive, so the order of the moves
    # shapes the result. W(0|x,y) = 1/4 + k[x][y] * 0.4 ZERO_TOL: merging
    # y=2 into y=1 brings the x rows within tolerance, and that x merge
    # comes next, as if the reduction restarted after every move. Draining
    # the y moves first would also merge y=3 into y=1 while x=1 is still
    # there, and then collapse the channel to one symbol per axis
    k = np.array([[-1, 0, 2, 2], [-2, 1, -1, 2]]) * 0.4 * ZERO_TOL
    kernel = np.stack([0.25 + k, 0.75 - k], axis=2)
    axes = [Alphabet(n, tuple(range(s))) for n, s in zip("XYZ", kernel.shape)]
    res = channel_normal_form(Channel(*axes, kernel))
    assert res.x_map == {0: 0, 1: 0}
    assert res.y_map == {0: 0, 1: 0, 2: 0, 3: 3}
    assert res.z_map == {0: 0, 1: 1}


def test_proportional_z_merged():
    # a channel whose output is a constant lottery: all outputs proportional,
    # so everything collapses to a single-symbol channel
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    kernel = np.tile(np.array([0.5, 1 / 3, 1 / 6]), (2, 2, 1))
    ch = Channel(x, y, z, kernel)
    res = channel_normal_form(ch)
    assert len(res.reduced.z_axis) == 1
    assert len(res.reduced.x_axis) == 1 and len(res.reduced.y_axis) == 1
    assert res.z_map[1] == 0 and res.z_map[2] == 0


def test_z_split_copy_merged():
    # z' behaves like a scaled copy of z: p(z1|x,y) = 2 p(z2|x,y) everywhere
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", ("a", "b1", "b2"))
    kernel = np.zeros((2, 2, 3))
    for i in (0, 1):
        for j in (0, 1):
            pa = 0.2 + 0.5 * (i & j)
            kernel[i, j] = [pa, (1 - pa) * 2 / 3, (1 - pa) / 3]
    ch = Channel(x, y, z, kernel)
    res = channel_normal_form(ch)
    assert len(res.reduced.z_axis) == 2
    assert res.z_map["b2"] == "b1"
    # masses added
    k = res.reduced.kernel
    assert k[0, 0, res.reduced.z_axis.index("b1")] == pytest.approx(0.8, abs=1e-12)


def test_channel_normal_form_idempotent(rng):
    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    for _ in range(25):
        kernel = rng.random((3, 2, 3))
        # randomly duplicate a row or output to exercise merges
        if rng.integers(2):
            kernel[2] = kernel[0]
        if rng.integers(2):
            kernel[:, :, 2] = kernel[:, :, 0] * rng.random()
        kernel /= kernel.sum(axis=2, keepdims=True)
        res = channel_normal_form(Channel(x, y, z, kernel))
        again = channel_normal_form(res.reduced)
        assert again.reduced == res.reduced


def test_channel_mass_conserved(rng):
    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    for _ in range(25):
        kernel = rng.random((3, 2, 3))
        kernel[1] = kernel[0]
        kernel /= kernel.sum(axis=2, keepdims=True)
        res = channel_normal_form(Channel(x, y, z, kernel))
        assert np.max(np.abs(res.reduced.kernel.sum(axis=2) - 1.0)) <= 1e-9


def test_equivalence_preservation(rng):
    # pushing the original joint through the merge maps reproduces the
    # joint of the reduced channel under the pushed input distribution
    from conftest import random_joint

    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    for _ in range(20):
        kernel = rng.random((3, 2, 3))
        kernel[2] = kernel[1]
        kernel /= kernel.sum(axis=2, keepdims=True)
        ch = Channel(x, y, z, kernel)
        res = channel_normal_form(ch)
        rch = res.reduced
        p_xy = JointDist((x, y), random_joint(rng, (3, 2)))
        d = join(p_xy, ch)
        pushed = np.zeros((len(rch.x_axis), len(rch.y_axis), len(rch.z_axis)))
        for (a, b, c), p in d.support():
            pushed[
                rch.x_axis.index(res.x_map[a]),
                rch.y_axis.index(res.y_map[b]),
                rch.z_axis.index(res.z_map[c]),
            ] += p
        p_xy_red = np.zeros((len(rch.x_axis), len(rch.y_axis)))
        for (a, b), p in p_xy.support():
            p_xy_red[rch.x_axis.index(res.x_map[a]), rch.y_axis.index(res.y_map[b])] += p
        d_red = join(JointDist((rch.x_axis, rch.y_axis), p_xy_red), rch)
        assert np.max(np.abs(d_red.probs - pushed)) <= 1e-9


def test_pair_full_support_normal(and_channel, uniform_bits):
    res = pair_normal_form(uniform_bits, and_channel)
    p2, ch2 = res.reduced
    assert p2 == uniform_bits and ch2 == and_channel
    assert is_pair_normal_form(uniform_bits, and_channel)


def test_pair_zero_column_merges():
    # x=2 has no probability; it merges into the first symbol
    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1))
    ch = Channel.from_function(x, y, z, lambda a, b: (a == 1) & b)
    p = JointDist.from_pmf((x, y), {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25})
    assert not is_pair_normal_form(p, ch)
    res = pair_normal_form(p, ch)
    p2, ch2 = res.reduced
    assert len(ch2.x_axis) == 2
    assert res.x_map[2] == 0
    assert p2.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_pair_z_merge_on_support():
    # two outputs proportional on the support (c = 1), merged with masses added
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0,))
    z = Alphabet("Z", ("a", "b", "c"))
    kernel = np.array([[[0.5, 0.25, 0.25]], [[0.0, 0.5, 0.5]]])
    ch = Channel(x, y, z, kernel)
    p = JointDist.from_pmf((x, y), {(0, 0): 0.5, (1, 0): 0.5})
    res = pair_normal_form(p, ch)
    _, ch2 = res.reduced
    assert len(ch2.z_axis) == 2
    assert res.z_map["c"] == "b"
    assert ch2.kernel[0, 0, ch2.z_axis.index("b")] == pytest.approx(0.5, abs=1e-12)


def test_pair_drops_unreachable_z():
    # z="dead" never occurs under the supported inputs; it is dropped
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, "dead"))
    kernel = np.zeros((2, 2, 3))
    for i in (0, 1):
        for j in (0, 1):
            kernel[i, j, i & j] = 1.0
    ch = Channel(x, y, z, kernel)
    p = JointDist.uniform((x, y))
    res = pair_normal_form(p, ch)
    _, ch2 = res.reduced
    assert "dead" not in ch2.z_axis.symbols
    assert res.z_map == {0: 0, 1: 1, "dead": None}


def test_pair_y_merge_fills_kept_column():
    # y="a" and y="b" agree where both carry mass (x=0); at x=1 only "b" does,
    # so the kept column "a" takes "b"'s row there, and the off-support
    # output 2 is then unreachable and dropped
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", ("a", "b"))
    z = Alphabet("Z", (0, 1, 2))
    kernel = np.zeros((2, 2, 3))
    kernel[0, :, 0] = 1.0
    kernel[1, 0, 2] = kernel[1, 1, 1] = 1.0
    ch = Channel(x, y, z, kernel)
    p = JointDist.from_pmf((x, y), {(0, "a"): 0.25, (0, "b"): 0.25, (1, "b"): 0.5})
    assert not is_pair_normal_form(p, ch)
    res = pair_normal_form(p, ch)
    p2, ch2 = res.reduced
    assert res.y_map == {"a": "a", "b": "a"}
    assert res.z_map == {0: 0, 1: 1, 2: None}
    assert ch2.z_axis.symbols == (0, 1)
    assert np.array_equal(ch2.kernel[:, 0], [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(p2.probs, [[0.5], [0.5]])


def test_sampling_point_mass_collapses():
    axes = (Alphabet("X", (0, 1)), Alphabet("Y", (0, 1)), Alphabet("Z", (0, 1)))
    d = JointDist.from_pmf(axes, {(0, 1, 0): 1.0})
    res = sampling_normal_form(d)
    assert all(len(a) == 1 for a in res.reduced.axes)


def test_sampling_and_joint_unchanged(and_joint):
    assert is_sampling_normal_form(and_joint)
    res = sampling_normal_form(and_joint)
    assert res.reduced == and_joint


def test_sampling_duplicate_slice_merged():
    axes = (Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1)), Alphabet("Z", (0, 1)))
    pmf = {}
    for y in (0, 1):
        for z in (0, 1):
            pmf[(0, y, z)] = 0.1
            pmf[(1, y, z)] = 0.1
            pmf[(2, y, z)] = 0.05
    d = JointDist.from_pmf(axes, pmf)
    # x=2 slice is proportional to x=0 and x=1 (all uniform over (y,z))
    res = sampling_normal_form(d)
    assert len(res.reduced.axes[0]) == 1
    assert not is_sampling_normal_form(d)


def test_sampling_drops_y_and_z_and_merges_z():
    axes = (Alphabet("X", (0, 1)), Alphabet("Y", (0, 1, 2)), Alphabet("Z", ("a", "b", "c", "d")))
    w = np.zeros((2, 3, 4))
    a = np.array([[4.0, 0.0, 2.0], [2.0, 0.0, 2.0]])  # (x, y) slice of z="a"; y=1 unused
    w[:, :, 0], w[:, :, 1] = a, 0.5 * a  # "b" is proportional to "a"
    w[:, :, 2] = [[2.0, 0.0, 1.0], [0.0, 0.0, 3.0]]  # "c" is not; "d" never occurs
    d = JointDist(axes, w / w.sum())
    assert not is_sampling_normal_form(d)
    res = sampling_normal_form(d)
    assert res.y_map == {0: 0, 1: None, 2: 2}
    assert res.z_map == {"a": "a", "b": "a", "c": "c", "d": None}
    assert [a.symbols for a in res.reduced.axes] == [(0, 1), (0, 2), ("a", "c")]
    assert np.allclose(res.reduced.probs[:, :, 0] * w.sum(), 1.5 * a[:, [0, 2]], atol=1e-12)
    assert is_sampling_normal_form(res.reduced)


def _sizes(obj):
    if isinstance(obj, Channel):
        return len(obj.x_axis), len(obj.y_axis), len(obj.z_axis)
    return tuple(len(a) for a in obj.axes)


def test_is_normal_form_iff_reduction_keeps_alphabets(rng):
    from conftest import random_joint

    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    seen = set()
    for _ in range(40):
        kernel = rng.random((3, 2, 3)) * (rng.random((3, 2, 3)) < 0.7)
        if rng.integers(2):
            kernel[2] = kernel[0]  # duplicate input row
        if rng.integers(2):
            kernel[:, :, 2] = kernel[:, :, 1] * rng.random()  # proportional outputs
        if rng.integers(2):
            kernel[:, :, 0] = 0.0  # zero output slice
        kernel[kernel.sum(axis=2) == 0] = 1.0
        ch = Channel(x, y, z, kernel / kernel.sum(axis=2, keepdims=True))
        p = JointDist((x, y), random_joint(rng, (3, 2), max_weight=3))
        d = JointDist((x, y, z), random_joint(rng, (3, 2, 3), max_weight=3))
        reduced = channel_normal_form(ch).reduced
        p2, ch2 = pair_normal_form(p, ch).reduced
        cases = [
            (is_channel_normal_form, (ch,), _sizes(reduced)),
            (is_channel_normal_form, (reduced,), _sizes(reduced)),
            (is_pair_normal_form, (p, ch), _sizes(ch2)),
            (is_pair_normal_form, (p2, ch2), _sizes(ch2)),
            (is_sampling_normal_form, (d,), _sizes(sampling_normal_form(d).reduced)),
        ]
        for is_normal, args, reduced_sizes in cases:
            kept = reduced_sizes == _sizes(args[-1])
            assert is_normal(*args) == kept
            seen.add((is_normal.__name__, kept))
    assert len(seen) == 6  # every form met both outcomes


def test_pair_normal_form_of_its_result_keeps_every_symbol(rng):
    # a reduced pair reduces to itself: every map is the identity and the
    # arrays come back unchanged
    from conftest import random_joint

    for _ in range(60):
        shape = tuple(int(k) for k in rng.integers(1, 6, 3))
        axes = [Alphabet(n, tuple(range(k))) for n, k in zip("XYZ", shape)]
        kernel = rng.integers(0, 3, shape) * (rng.random(shape) < 0.6)
        if shape[0] > 1 and rng.integers(2):
            kernel[-1] = kernel[0]  # duplicate input row
        if shape[2] > 1 and rng.integers(2):
            kernel[..., -1] = 2 * kernel[..., 0]  # proportional outputs
        kernel = kernel.astype(float)
        kernel[kernel.sum(axis=2) == 0] = 1.0
        ch = Channel(*axes, kernel / kernel.sum(axis=2, keepdims=True))
        p = JointDist(axes[:2], random_joint(rng, shape[:2], max_weight=3))
        p2, ch2 = pair_normal_form(p, ch).reduced
        again = pair_normal_form(p2, ch2)
        maps = (again.x_map, again.y_map, again.z_map)
        for ax, m in zip((ch2.x_axis, ch2.y_axis, ch2.z_axis), maps):
            assert m == {s: s for s in ax.symbols}
        p3, ch3 = again.reduced
        assert np.array_equal(p3.probs, p2.probs) and np.array_equal(ch3.kernel, ch2.kernel)
        assert is_pair_normal_form(p2, ch2)


def test_bigraph_connected_cases():
    x, y = Alphabet("X", (0, 1)), Alphabet("Y", (0, 1))
    assert bigraph_connected(JointDist.uniform((x, y)))
    diag = JointDist.from_pmf((x, y), {(0, 0): 0.5, (1, 1): 0.5})
    assert not bigraph_connected(diag)
    path = JointDist.from_pmf((x, y), {(0, 0): 1 / 3, (0, 1): 1 / 3, (1, 1): 1 / 3})
    assert bigraph_connected(path)


def test_conditions_for_worked_functions(and_channel):
    assert check_condition1(and_channel) and check_condition2(and_channel)
    erasure = bits_channel(lambda a, b: b if a else 2, zsyms=(0, 1, 2))
    assert not check_condition1(erasure)
    assert check_condition2(erasure)
    from scbound.protocols import builtin

    ot = builtin("remote-ot", m=2).channel
    assert check_condition1(ot) and check_condition2(ot)


def test_condition_monotone_under_support_addition(rng):
    # adding kernel support never flips a condition from true to false
    x, y = Alphabet("X", (0, 1, 2)), Alphabet("Y", (0, 1))
    z = Alphabet("Z", (0, 1, 2))
    for _ in range(30):
        kernel = np.zeros((3, 2, 3))
        for i in range(3):
            for j in range(2):
                kernel[i, j, rng.integers(3)] = 1.0
        ch = Channel(x, y, z, kernel)
        c1, c2 = check_condition1(ch), check_condition2(ch)
        k2 = kernel.copy()
        i, j = rng.integers(3), rng.integers(2)
        k2[i, j] = (k2[i, j] + 0.5) / (k2[i, j] + 0.5).sum()
        ch2 = Channel(x, y, z, k2)
        if c1:
            assert check_condition1(ch2)
        if c2:
            assert check_condition2(ch2)


def _tensor_power(ch, n):
    """The n-fold product of a channel over 1-tuple symbols: its symbols are
    the n-tuples of one-copy symbols in itertools.product order, and
    W[x, y, z] is the product of the n per-copy cells."""
    axes = [ch.x_axis, ch.y_axis, ch.z_axis]
    syms = [[()] for _ in axes]
    kernel = np.ones((1, 1, 1))
    for _ in range(n):
        syms = [[s + t for s in old for t in ax.symbols] for old, ax in zip(syms, axes)]
        kernel = np.einsum("abc,ijk->aibjck", kernel, ch.kernel).reshape([len(s) for s in syms])
    return syms, kernel


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, params", [
    ("and", {}), ("sum", {}), ("erasure", {}), ("group-add", {"order": 2}),
    ("group-add", {"order": 3}),
])
def test_block_normal_form_is_tensor_power(name, params, n):
    # the n-copy built-in's normal form is the n-fold tensor power of the
    # one-copy normal form
    from scbound.protocols import builtin

    one = channel_normal_form(builtin(name, n=1, **params).channel).reduced
    block = channel_normal_form(builtin(name, n=n, **params).channel).reduced
    syms, kernel = _tensor_power(one, n)
    assert [list(ax.symbols) for ax in (block.x_axis, block.y_axis, block.z_axis)] == syms
    np.testing.assert_allclose(block.kernel, kernel, rtol=0, atol=1e-15)
