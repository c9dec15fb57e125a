import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbound.common_info import blocks_from_mask, residual_info
from scbound.dists import Alphabet, CapacityError, JointDist, mutual_info

from common_info_oracle import residual_info_oracle


def pair(probs, nu=None, nv=None):
    probs = np.asarray(probs, dtype=float)
    u = Alphabet("U", tuple(range(probs.shape[0])))
    v = Alphabet("V", tuple(range(probs.shape[1])))
    return JointDist((u, v), probs / probs.sum())


def common_entropy(d):
    """H of the common part, as I(U;V) - RI(U;V)."""
    return mutual_info(d, (0,), (1,)) - residual_info(d)


def test_common_part_copy():
    d = pair([[0.5, 0.0], [0.0, 0.5]])
    labels_u, labels_v, n_blocks = blocks_from_mask(d.probs > 0)
    assert n_blocks == 2
    assert common_entropy(d) == pytest.approx(1.0, abs=1e-12)
    assert labels_u[0] != labels_u[1]
    assert labels_u[0] == labels_v[0]


def test_common_part_full_support_trivial():
    d = pair([[0.3, 0.2], [0.1, 0.4]])
    labels_u, _, n_blocks = blocks_from_mask(d.probs > 0)
    assert n_blocks == 1
    assert common_entropy(d) == pytest.approx(0.0, abs=1e-12)
    assert len(set(labels_u)) == 1


def test_common_part_and_xz(and_joint):
    # support pairs (0,0),(1,0),(1,1): one component, entropy 0
    d = and_joint.marginal({0, 2})
    labels_u, labels_v, n_blocks = blocks_from_mask(d.probs > 0)
    assert n_blocks == 1
    assert set(labels_u) | set(labels_v) == {0}
    assert common_entropy(d) == 0.0


def test_blocks_ignore_zero_marginal_symbols():
    # symbol u=2 never occurs; it belongs to no block
    d = pair([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
    labels_u, _, n_blocks = blocks_from_mask(d.probs > 0)
    assert n_blocks == 2
    assert labels_u[2] == -1
    assert common_entropy(d) == pytest.approx(1.0, abs=1e-12)


def test_residual_info_copy_is_zero():
    d = pair([[0.5, 0.0], [0.0, 0.5]])
    assert residual_info(d) == pytest.approx(0.0, abs=1e-12)


def test_residual_info_and(and_joint):
    d = and_joint.marginal({0, 2})
    assert residual_info(d) == pytest.approx(0.31127812445913294, abs=1e-12)


def test_residual_info_symmetry_and_range(rng):
    from conftest import random_joint

    for _ in range(50):
        probs = random_joint(rng, (4, 4))
        d = pair(probs)
        dt = pair(probs.T)
        ri = residual_info(d)
        assert ri == pytest.approx(residual_info(dt), abs=1e-12)
        assert -1e-12 <= ri <= mutual_info(d, (0,), (1,)) + 1e-12


def test_oracle_small_cases():
    assert residual_info_oracle(pair([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(0.0, abs=1e-12)
    # independent full support: I = 0 so RI = 0
    d = pair([[0.25, 0.25], [0.25, 0.25]])
    assert residual_info_oracle(d) == pytest.approx(0.0, abs=1e-12)


def test_oracle_capacity_error():
    probs = np.full((13, 13), 1.0)
    with pytest.raises(CapacityError):
        residual_info_oracle(pair(probs))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=9, max_size=9))
def test_oracle_matches_graph_construction_3x3(weights):
    if sum(weights) == 0:
        weights[0] = 1
    d = pair(np.array(weights, dtype=float).reshape(3, 3))
    assert residual_info(d) == pytest.approx(residual_info_oracle(d), abs=1e-9)


def test_oracle_matches_graph_construction_8x8(rng):
    from conftest import random_joint

    for _ in range(25):
        d = pair(random_joint(rng, (8, 8), max_weight=3))
        assert residual_info(d) == pytest.approx(residual_info_oracle(d), abs=1e-9)


def _markov_chain_quadruple(rng):
    """Random (U,T,V,W) satisfying U-T-W and T-W-V by construction:
    draw (T,W), then U from T alone and V from W alone."""
    from conftest import random_joint

    nt, nw, nu, nv = 3, 3, 2, 2
    p_tw = random_joint(rng, (nt, nw))
    k_u = rng.random((nt, nu))
    k_u /= k_u.sum(axis=1, keepdims=True)
    k_v = rng.random((nw, nv))
    k_v /= k_v.sum(axis=1, keepdims=True)
    probs = np.einsum("tw,tu,wv->utvw", p_tw, k_u, k_v)
    axes = (
        Alphabet("U", tuple(range(nu))),
        Alphabet("T", tuple(range(nt))),
        Alphabet("V", tuple(range(nv))),
        Alphabet("W", tuple(range(nw))),
    )
    return JointDist(axes, probs)


def test_data_processing_inequality(rng):
    # RI(T;W) <= RI((U,T);(V,W)) under the two Markov chains
    for _ in range(40):
        d = _markov_chain_quadruple(rng)
        lhs = residual_info(d.marginal({1, 3}))
        # (U,T) and (V,W) as two composite axes: the (u, t, v, w) array
        # reshaped to (u t, v w)
        nu, nt, nv, nw = d.probs.shape
        rhs = residual_info(pair(d.probs.reshape(nu * nt, nv * nw)))
        assert lhs <= rhs + 1e-9


def test_blocks_from_mask_shapes():
    mask = np.array([[True, False], [False, True]])
    lu, lv, nb = blocks_from_mask(mask)
    assert nb == 2
    assert lu[0] == lv[0] and lu[1] == lv[1] and lu[0] != lu[1]


def test_blocks_from_mask_matches_transitive_closure(rng):
    empty_rows = empty_cols = 0
    for _ in range(300):
        nu, nv = (int(n) for n in rng.integers(1, 8, 2))
        mask = rng.random((nu, nv)) < 0.3
        lu, lv, nb = blocks_from_mask(mask)
        # reachability in the (nu + nv)-node bipartite graph, by squaring
        adj = np.eye(nu + nv, dtype=int)
        adj[:nu, nu:], adj[nu:, :nu] = mask, mask.T
        reach = adj
        for _ in range((nu + nv).bit_length()):
            reach = np.minimum(reach @ reach, 1)
        labels = np.concatenate([lu, lv])
        live = np.concatenate([mask.any(axis=1), mask.any(axis=0)])
        assert np.array_equal(labels == -1, ~live)
        same = labels[:, None] == labels[None, :]
        assert np.array_equal(same[np.ix_(live, live)], reach[np.ix_(live, live)] == 1)
        # blocks are numbered 0, 1, ... in the order of their first row
        assert list(dict.fromkeys(lu[lu >= 0])) == list(range(nb))
        empty_rows += not live[:nu].all()
        empty_cols += not live[nu:].all()
    assert empty_rows and empty_cols
