import itertools
import math

import numpy as np
import pytest

from scbound.dists import entropy_of_array
from scbound.simplex import (
    LINE_POINTS,
    ZOOM_ROUNDS,
    OptConfig,
    candidate_points,
    coordinate_polish,
    optimize_over_simplex,
    simplex_grid,
)


def _rows_entropy(P):
    return np.array([entropy_of_array(p) for p in P])


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(grid_resolution=0.0)


def test_grid_points_are_distributions():
    for k in (2, 3, 4):
        g = simplex_grid(k, 0.1)
        assert np.allclose(g.sum(axis=1), 1.0)
        assert g.min() >= 0.0


def _loop_grid(k, n):
    pts = [c for c in itertools.product(range(n + 1), repeat=k - 1) if sum(c) <= n]
    return np.array([list(c) + [n - sum(c)] for c in pts]) / n


def test_grid_matches_lattice_loop():
    # same points in the same order as the per-point loop, which the scan's
    # argmax and its tie-breaks depend on
    for k in (2, 3, 4, 5, 6):
        for step in (0.02, 0.1, 0.3, 1.0):
            g = simplex_grid(k, step)
            n = round(1.0 / g[g > 0].min())
            assert np.array_equal(g, _loop_grid(k, n))


def test_candidates_include_structure():
    pts = candidate_points(8, OptConfig())
    # uniform, vertices, and pair midpoints are always present
    assert any(np.allclose(p, 1.0 / 8) for p in pts)
    assert any(p.max() == 1.0 for p in pts)
    assert any(sorted(p)[-2:] == [0.5, 0.5] for p in pts.tolist())


def test_maximize_entropy_on_1_simplex():
    res = optimize_over_simplex(_rows_entropy, 2, OptConfig())
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.witness, [0.5, 0.5], atol=1e-5)


def test_linear_functional_attained_at_vertex():
    c = np.array([0.3, 0.9, 0.1])
    res = optimize_over_simplex(lambda P: P @ c, 3, OptConfig())
    assert res.value == pytest.approx(0.9, abs=1e-9)
    assert res.witness[1] == pytest.approx(1.0, abs=1e-9)
    assert res.limit_point


def test_and_inner_composition_matches_known_value(and_channel):
    # with Alice's switched distribution fixed at Bern(0.456), maximizing the
    # output-side mutual information and adding the closed-form second term
    # reproduces the known 1.826 figure
    a = 0.456
    W = and_channel.kernel

    def values(B):
        p_yz = np.einsum("x,ny,xyz->nyz", np.array([1 - a, a]), B, W)
        return (
            _rows_entropy(p_yz.sum(axis=2))
            + _rows_entropy(p_yz.sum(axis=1))
            - _rows_entropy(p_yz.reshape(len(B), -1))
        )

    res = optimize_over_simplex(values, 2, OptConfig())
    h2a = -a * math.log2(a) - (1 - a) * math.log2(1 - a)
    total = res.value + h2a + (1 - a)
    assert total == pytest.approx(1.826, abs=1e-3)
    assert res.witness[1] == pytest.approx(0.397, abs=5e-3)


def test_deterministic_across_runs():
    def values(P):
        return -((P - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=1)

    r1 = optimize_over_simplex(values, 3, OptConfig())
    r2 = optimize_over_simplex(values, 3, OptConfig())
    assert r1.value == r2.value
    assert np.array_equal(r1.witness, r2.witness)


def test_evaluations_count_every_scored_row():
    # the scan scores all candidates in one call, each later call one line bracket
    rows = []

    def values(P):
        rows.append(len(P))
        return _rows_entropy(P)

    cfg = OptConfig()
    res = optimize_over_simplex(values, 3, cfg)
    assert rows[0] == len(candidate_points(3, cfg))
    assert len(rows) > 1
    assert all(n == LINE_POINTS for n in rows[1:])
    assert res.evaluations == sum(rows)


def test_polish_walks_two_laws():
    # the joint polish the nested terms use: H(p) + H(q) over a pair of laws
    def objective(ps):
        return entropy_of_array(ps[0]) + entropy_of_array(ps[1])

    def values(s, rows, ps):
        other = entropy_of_array(ps[1 - s])
        return np.array([entropy_of_array(r) + other for r in rows])

    start = [np.array([0.9, 0.1]), np.array([0.7, 0.2, 0.1])]
    value, pts, evals = coordinate_polish(values, start, OptConfig())
    assert value == pytest.approx(1.0 + math.log2(3), abs=1e-6)
    assert value == pytest.approx(objective(pts), abs=1e-12)
    assert evals > 0


def test_line_search_reaches_endpoints():
    # a linear objective is maximized at a vertex; the polish from an interior
    # start must land on it exactly, with exact zeros elsewhere
    c = np.array([0.3, 0.9, 0.1, 0.5])

    def values(s, rows, ps):
        return rows @ c

    start = [np.array([0.4, 0.1, 0.2, 0.3])]
    value, (p,), _ = coordinate_polish(values, start, OptConfig())
    assert value == 0.9
    assert p[1] == 1.0
    assert np.count_nonzero(p) == 1


def test_line_search_resolves_t_finer_than_golden_section():
    # 32 golden steps resolved t to about 2e-7; the zoomed brackets must not be coarser
    t_star = math.pi / 10
    res = optimize_over_simplex(lambda P: -np.abs(P[:, 0] - t_star), 2, OptConfig())
    assert abs(res.witness[0] - t_star) <= 1e-7
    assert 1.0 / (LINE_POINTS - 1) * (2.0 / (LINE_POINTS + 1)) ** ZOOM_ROUNDS <= 2e-7


def test_candidates_cached_read_only():
    cfg = OptConfig(grid_resolution=0.1)
    a = candidate_points(3, cfg)
    assert candidate_points(3, OptConfig(grid_resolution=0.1)) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.5
