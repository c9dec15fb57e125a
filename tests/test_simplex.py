import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbound.dists import CapacityError, entropy_of_array, xlogx
from scbound.simplex import (
    DIRICHLET_SEED,
    DIRICHLET_STARTS,
    FACE_SYMBOLS,
    LINE_POINTS,
    SCAN_CELL_CAP,
    ZOOM_ROUNDS,
    OptConfig,
    candidate_points,
    coordinate_polish,
    face_points,
    optimize_over_simplex,
    simplex_grid,
    structured_points,
)


def _rows_entropy(P):
    # (..., k) laws to their (...) entropies
    return np.apply_along_axis(entropy_of_array, -1, P)


def _unknown_slopes(p):
    # slopes of an objective that gives none: never stationary, so every
    # polish runs its line searches
    return np.full(len(p), np.inf)


def _unknown_law_slopes(points):
    return [_unknown_slopes(p) for p in points]


def test_config_validation():
    for kwargs in (
        {"grid_resolution": 0.0},
        {"grid_resolution": -0.1},
        {"grid_resolution": 1.5},
        {"grid_resolution": math.inf},
        {"grid_resolution": math.nan},
        {"refine_iters": -5},
        {"refine_iters": 2.5},
    ):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            OptConfig(**kwargs)


def test_config_accepts_its_range_ends():
    assert OptConfig(grid_resolution=1.0, refine_iters=0).refine_iters == 0


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
    res = optimize_over_simplex(_rows_entropy, _unknown_slopes, candidate_points(2, OptConfig()),
                                OptConfig())
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.witness, [0.5, 0.5], atol=1e-5)


def test_linear_functional_attained_at_vertex():
    # p . c has slope c_j - p . c toward vertex j: none is positive at the
    # vertex of the largest c_j, which the scan finds, so no line is scored
    c = np.array([0.3, 0.9, 0.1])
    cands = candidate_points(3, OptConfig())
    res = optimize_over_simplex(lambda P: P @ c, lambda p: c - p @ c, cands, OptConfig())
    assert res.value == pytest.approx(0.9, abs=1e-9)
    assert res.witness[1] == pytest.approx(1.0, abs=1e-9)
    assert res.limit_point
    assert res.evaluations == len(cands)


@pytest.mark.parametrize("k", range(1, FACE_SYMBOLS + 1))
def test_face_points_are_the_uniform_laws_on_3_to_k_minus_1_symbols(k):
    # by set size, then in combinations order: 4 rows at k = 4, 218 at 8
    pts = face_points(k)
    sets = [s for m in range(3, k) for s in itertools.combinations(range(k), m)]
    assert pts.shape == (len(sets), k)
    assert len(sets) == max(0, 2 ** k - k * (k + 1) // 2 - 2)
    for row, s in zip(pts, sets):
        assert np.flatnonzero(row).tolist() == list(s)
        assert set(row[list(s)].tolist()) == {1.0 / len(s)}
    assert len({row.tobytes() for row in pts}) == len(pts)
    assert not any(row.tobytes() in {r.tobytes() for r in structured_points(k)} for row in pts)


def _entropy_slopes(p):
    # d/dt H(p + t (e_j - p)) at t = 0, for a law of full support
    return -np.log2(p) + np.sum(p * np.log2(p))


def test_stationary_winning_seed_is_returned_unpolished():
    # entropy over 4 symbols, candidates without the uniform law and the
    # uniform law as a seed: it wins the scan, its gap is 0, and no line
    # is scored
    cands = structured_points(4)[1:]
    seeds = np.array([[0.4, 0.3, 0.2, 0.1], [0.25] * 4])
    res = optimize_over_simplex(_rows_entropy, _entropy_slopes, cands, OptConfig(), seeds=seeds)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.witness.tolist() == [0.25] * 4
    assert res.evaluations == len(cands) + len(seeds)


def _two_bumps(P):
    # a narrow bump of height 1.5 at a and a wider one of height 2 at b, on
    # the simplex of 3 symbols; no coordinate line near a passes near b
    a, b = np.array([0.6, 0.2, 0.2]), np.array([0.2, 0.2, 0.6])
    return (1.5 * np.exp(-((P - a) ** 2).sum(axis=-1) / 0.05 ** 2)
            + 2 * np.exp(-((P - b) ** 2).sum(axis=-1) / 0.1 ** 2))


def test_seed_that_is_not_stationary_keeps_the_candidates_polish():
    # the seed beats every candidate but lies on the lower bump: its polish
    # climbs to about 1.5, the best candidate's to 2, and the optimizer
    # keeps the better, the unseeded result
    cands = np.array([[0.25, 0.25, 0.5], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    seeds = np.array([[0.58, 0.21, 0.21]])
    assert _two_bumps(seeds).max() > _two_bumps(cands).max()
    cfg = OptConfig()
    unseeded = optimize_over_simplex(_two_bumps, _unknown_slopes, cands, cfg)
    res = optimize_over_simplex(_two_bumps, _unknown_slopes, cands, cfg, seeds=seeds)
    from_seed = optimize_over_simplex(_two_bumps, _unknown_slopes, seeds, cfg)
    assert from_seed.value < 1.6 < unseeded.value == pytest.approx(2.0, abs=1e-9)
    assert res.value == unseeded.value
    assert np.array_equal(res.witness, unseeded.witness)
    polish = unseeded.evaluations - len(cands)
    assert res.evaluations == len(cands) + len(seeds) + polish + from_seed.evaluations - 1


def test_seeds_that_lose_the_scan_change_nothing():
    values = lambda P: -((P - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=-1)  # noqa: E731
    cands = candidate_points(3, OptConfig())
    seeds = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    r1 = optimize_over_simplex(values, _unknown_slopes, cands, OptConfig())
    r2 = optimize_over_simplex(values, _unknown_slopes, cands, OptConfig(), seeds=seeds)
    assert r1.value == r2.value and np.array_equal(r1.witness, r2.witness)
    assert r2.evaluations == r1.evaluations + len(seeds)


def test_and_inner_composition_matches_known_value(and_channel):
    # with Alice's switched distribution fixed at Bern(0.456), maximizing the
    # output-side mutual information and adding the closed-form second term
    # reproduces the known 1.826 figure
    a = 0.456
    W = and_channel.kernel

    def values(B):
        p_yz = np.einsum("x,...y,xyz->...yz", np.array([1 - a, a]), B, W)
        return (
            _rows_entropy(p_yz.sum(axis=-1))
            + _rows_entropy(p_yz.sum(axis=-2))
            - _rows_entropy(p_yz.reshape(p_yz.shape[:-2] + (-1,)))
        )

    res = optimize_over_simplex(values, _unknown_slopes, candidate_points(2, OptConfig()),
                                OptConfig())
    h2a = -a * math.log2(a) - (1 - a) * math.log2(1 - a)
    total = res.value + h2a + (1 - a)
    assert total == pytest.approx(1.826, abs=1e-3)
    assert res.witness[1] == pytest.approx(0.397, abs=5e-3)


def test_deterministic_across_runs():
    def values(P):
        return -((P - np.array([0.2, 0.3, 0.5])) ** 2).sum(axis=-1)

    cands = candidate_points(3, OptConfig())
    r1 = optimize_over_simplex(values, _unknown_slopes, cands, OptConfig())
    r2 = optimize_over_simplex(values, _unknown_slopes, cands, OptConfig())
    assert r1.value == r2.value
    assert np.array_equal(r1.witness, r2.witness)


def test_evaluations_count_every_scored_row():
    # the scan scores all candidates in one call; each later call is one
    # bracket round of a lockstep batch, a (b, LINE_POINTS, k) stack, and
    # every row it scores counts, the lines run again after a gain included
    shapes = []
    target = np.array([0.11, 0.23, 0.07, 0.29, 0.30])

    def values(P):
        shapes.append(P.shape)
        return -((P - target) ** 2).sum(axis=-1) + 0.3 * P[..., 0] * P[..., 1]

    cfg = OptConfig()
    res = optimize_over_simplex(values, _unknown_slopes, candidate_points(5, cfg), cfg)
    assert shapes[0] == (len(candidate_points(5, cfg)), 5)
    assert len(shapes) > 1
    assert all(len(s) == 3 and s[1:] == (LINE_POINTS, 5) for s in shapes[1:])
    assert any(s[0] > 1 for s in shapes[1:])
    assert res.evaluations == sum(math.prod(s[:-1]) for s in shapes)
    # some lines were run again: more rows than the one-at-a-time polish scores
    cands = candidate_points(5, cfg)
    vals = values(cands)
    i = int(np.argmax(vals))
    _, _, oracle_evals = _oracle_polish(lambda s, rows, pts: values(rows), _unknown_law_slopes,
                                        [cands[i]], cfg, value=float(vals[i]))
    assert res.evaluations > len(cands) + oracle_evals


def test_polish_walks_two_laws():
    # the joint polish the nested terms use: H(p) + H(q) over a pair of laws
    def objective(ps):
        return entropy_of_array(ps[0]) + entropy_of_array(ps[1])

    def values(s, rows, ps):
        other = entropy_of_array(ps[1 - s])
        return _rows_entropy(rows) + other

    start = [np.array([0.9, 0.1]), np.array([0.7, 0.2, 0.1])]
    value, pts, evals = coordinate_polish(values, _unknown_law_slopes, start, OptConfig())
    assert value == pytest.approx(1.0 + math.log2(3), abs=1e-6)
    assert value == pytest.approx(objective(pts), abs=1e-12)
    assert evals > 0


def test_line_search_reaches_endpoints():
    # a linear objective is maximized at a vertex; the polish from an interior
    # start, whose gap 0.9 - p . c is positive, must land on it exactly, with
    # exact zeros elsewhere
    c = np.array([0.3, 0.9, 0.1, 0.5])

    def values(s, rows, ps):
        return rows @ c

    start = [np.array([0.4, 0.1, 0.2, 0.3])]
    value, (p,), evals = coordinate_polish(values, lambda ps: [c - ps[0] @ c], start, OptConfig())
    assert evals > 0
    assert value == 0.9
    assert p[1] == 1.0
    assert np.count_nonzero(p) == 1


def test_line_search_resolves_t_finer_than_golden_section():
    # 32 golden steps resolved t to about 2e-7; the zoomed brackets must not be coarser
    t_star = math.pi / 10
    cfg = OptConfig()
    res = optimize_over_simplex(lambda P: -np.abs(P[..., 0] - t_star), _unknown_slopes,
                                candidate_points(2, cfg), cfg)
    assert abs(res.witness[0] - t_star) <= 1e-7
    assert 1.0 / (LINE_POINTS - 1) * (2.0 / (LINE_POINTS + 1)) ** ZOOM_ROUNDS <= 2e-7


def test_candidates_read_only():
    cfg = OptConfig(grid_resolution=0.1)
    a = candidate_points(3, cfg)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.5


def test_scan_cap_refuses_before_building(monkeypatch):
    # the cap is checked on the candidate count, before structured_points
    # builds anything; the joint scans of every built-in that the tests,
    # the reproduction table and the benchmark run stay under it
    import scbound.simplex as simplex
    from scbound.protocols import builtin

    def cells(k):
        return (1 + k + k * (k - 1) // 2 + DIRICHLET_STARTS) * k

    for name, params in [("and", {}), ("sum", {}), ("erasure", {}), ("remote-ot", {"m": 4}),
                         ("group-add", {"order": 6})]:
        ch = builtin(name, **params).channel
        assert cells(len(ch.x_axis) * len(ch.y_axis)) <= SCAN_CELL_CAP, name
    k = 15 * 15
    assert cells(k) > SCAN_CELL_CAP
    monkeypatch.setattr(simplex, "structured_points", lambda k: pytest.fail("built"))
    with pytest.raises(CapacityError, match="cap"):
        simplex.candidate_points(k, OptConfig())


def _structured_points_from_rows(k):
    # the list-of-rows construction the in-place one replaced, as the oracle
    pts = [np.full(k, 1.0 / k)]
    for i in range(k):
        v = np.zeros(k)
        v[i] = 1.0
        pts.append(v)
    for i in range(k):
        for j in range(i + 1, k):
            v = np.zeros(k)
            v[i] = v[j] = 0.5
            pts.append(v)
    return np.array(pts)


@pytest.mark.parametrize("k", list(range(2, 10)) + [40])
def test_structured_points_built_in_place_match_row_list(k):
    want = _structured_points_from_rows(k)
    got = structured_points(k)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    cands = candidate_points(k, OptConfig())
    if k <= 6:
        want = np.concatenate([simplex_grid(k, OptConfig().grid_resolution), want])
    else:
        rng = np.random.default_rng(DIRICHLET_SEED + k)
        want = np.concatenate([want, rng.dirichlet(np.ones(k), size=DIRICHLET_STARTS)])
    assert cands.shape == want.shape and cands.tobytes() == want.tobytes()


# -- the one-at-a-time polish, as the oracle of the lockstep one -------------


def _oracle_line_rows(p, coord, ts):
    rest = 1.0 - p[coord]
    if rest > 1e-15:
        rows = p * ((1.0 - ts) / rest)[:, None]
    else:
        rows = np.repeat(((1.0 - ts) / (len(p) - 1))[:, None], len(p), axis=1)
    rows[:, coord] = ts
    return rows


def _oracle_line_search(score, p, coord):
    # one line, one (LINE_POINTS, k) bracket per call
    ts = np.linspace(0.0, 1.0, LINE_POINTS)
    h = ts[1]
    best, row, t = -np.inf, None, 0.0
    for _ in range(ZOOM_ROUNDS + 1):
        rows = _oracle_line_rows(p, coord, ts)
        f = np.asarray(score(rows), dtype=float)
        j = int(np.argmax(f))
        if f[j] > best:
            best, row, t = float(f[j]), rows[j].copy(), ts[j]
        lo, hi = max(0.0, t - h), min(1.0, t + h)
        h = (hi - lo) / (LINE_POINTS + 1)
        ts = lo + h * np.arange(1, LINE_POINTS + 1)
    return best, row


def _oracle_polish(values, slopes, points, cfg, value=None):
    # one line search at a time, in coordinate order; the start is never
    # taken as stationary
    points = [np.array(p, dtype=float) for p in points]
    best = float(values(0, points[0][None], points)[0]) if value is None else value
    coords = [(s, c) for s, p in enumerate(points) for c in range(len(p)) if len(p) > 1]
    if not coords:
        return best, points, 0
    evals = 0
    since_improve = 0
    for it in range(cfg.refine_iters):
        s, c = coords[it % len(coords)]
        f, row = _oracle_line_search(lambda rows: values(s, rows, points), points[s], c)
        evals += (ZOOM_ROUNDS + 1) * LINE_POINTS
        if f > best + 1e-14:
            best = f
            points[s] = row
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= len(coords):
                break
    return best, points, evals


def _smooth_objective(rng, sizes):
    """values(s, rows, points) of a random smooth objective over laws of the
    given sizes: per law a linear term, a weighted entropy and a pull toward
    a centre, plus bilinear couplings of each pair of laws. Every term is
    elementwise or a sum over the last axis, so each row's value does not
    depend on the shape of the stack it comes in."""
    lin = [rng.normal(size=k) for k in sizes]
    ent = rng.uniform(0.0, 2.0, len(sizes))
    centre = [rng.dirichlet(np.ones(k)) for k in sizes]
    couple = {(s, r): rng.normal(size=(sizes[s], sizes[r]))
              for s in range(len(sizes)) for r in range(len(sizes)) if s != r}

    def values(s, rows, points):
        out = (rows * lin[s]).sum(axis=-1) - ent[s] * xlogx(rows).sum(axis=-1)
        out = out - ((rows - centre[s]) ** 2).sum(axis=-1)
        for r, q in enumerate(points):
            if r != s:
                out = out + (rows * (couple[s, r] @ q)).sum(axis=-1)
        return out

    return values


def _start(rng, k, kind):
    if kind == "vertex":
        p = np.zeros(k)
        p[rng.integers(k)] = 1.0
        return p
    p = rng.dirichlet(np.ones(k))
    if kind == "face":
        # zero one to k - 1 cells
        p[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
        p /= p.sum()
    return p


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    kinds=st.lists(st.sampled_from(["vertex", "face", "interior"]), min_size=3, max_size=3),
    refine=st.sampled_from([0, 1, 5, 7, 60]),
    given_value=st.booleans(),
)
def test_lockstep_polish_matches_one_at_a_time(seed, sizes, kinds, refine, given_value):
    rng = np.random.default_rng(seed)
    values = _smooth_objective(rng, sizes)
    start = [_start(rng, k, kind) for k, kind in zip(sizes, kinds)]
    cfg = OptConfig(refine_iters=refine)
    value = float(values(0, start[0][None], start)[0]) if given_value else None
    want, want_pts, want_evals = _oracle_polish(values, _unknown_law_slopes, start, cfg, value)
    got, got_pts, got_evals = coordinate_polish(values, _unknown_law_slopes, start, cfg, value)
    assert got == want
    assert all(np.array_equal(a, b) for a, b in zip(got_pts, want_pts))
    assert got_evals >= want_evals


def _random_rounding_channel(rng):
    from scbound.dists import Alphabet, Channel

    axes = [Alphabet(name, (0, 1, 2)) for name in "XYZ"]
    return Channel(*axes, rng.dirichlet(np.ones(3), size=(3, 3)))


@pytest.mark.parametrize("channel", ["and-n3", "random-3x3x3"])
def test_lockstep_polish_matches_one_at_a_time_on_cone_objectives(monkeypatch, channel):
    # every optimized term of the channel, its joint-law terms
    # (_optimize_joint), its kept-marginal terms and its nested ones
    # (_nested), polished in lockstep and one line at a time
    import scbound.bounds as bounds
    import scbound.simplex as simplex
    from scbound.normal_form import channel_normal_form
    from scbound.protocols import builtin

    if channel == "and-n3":
        ch = builtin("and", n=3).channel
    else:
        ch = _random_rounding_channel(np.random.default_rng(7))
    bank = bounds._TermBank(channel_normal_form(ch).reduced, OptConfig())
    px, py = np.full(bank.nx, 1.0 / bank.nx), np.full(bank.ny, 1.0 / bank.ny)

    def run_all():
        return {name: bounds._run_term(bank, name, px, py) for name in bounds._TERMS}

    got = run_all()
    monkeypatch.setattr(simplex, "coordinate_polish", _oracle_polish)
    monkeypatch.setattr(bounds, "coordinate_polish", _oracle_polish)
    want = run_all()
    for name, tv in want.items():
        assert got[name].value == tv.value, name
        assert got[name].witnesses.keys() == tv.witnesses.keys(), name
        for label, d in tv.witnesses.items():
            assert np.array_equal(got[name].witnesses[label].probs, d.probs), (name, label)
