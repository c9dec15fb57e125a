"""The one-sided slopes of the cone kernel and the polish skip they drive.

A polish whose every law starts at a Frank-Wolfe gap at or below
simplex.STATIONARY_GAP returns its start without scoring a line. These tests
check the slopes against finite differences, pin two boundary starts, and
run the optimizers with the skip forced off and on: no term's value or
witness may move.
"""

import numpy as np
import pytest

import scbound.bounds as bounds
import scbound.simplex as simplex
from scbound.bounds import (
    _JOINT_VARIANTS,
    _TERMS,
    _generic_cone,
    _group_slopes,
    _group_values,
    _one_sided,
    _TermBank,
    best_bounds,
    cmss_bounds,
)
from scbound.dists import LINKS, Alphabet, Channel, JointDist
from scbound.normal_form import channel_normal_form
from scbound.protocols import builtin
from scbound.simplex import STATIONARY_GAP, OptConfig, coordinate_polish, frank_wolfe_gap

_KINDS = sorted({kinds for _, inner in _TERMS.values() for _, kinds in inner}
                | {kinds for variants in _JOINT_VARIANTS.values() for kinds in variants})


def _sparse_channel(rng, shape=(3, 3, 3)):
    # a randomized channel with zeros in its kernel, so that the cone's
    # common-part blocks are not all one
    W = rng.dirichlet(np.ones(shape[2]), size=shape[:2])
    W[rng.random(shape) < 0.4] = 0.0
    W[W.sum(axis=2) == 0, 0] = 1.0
    W /= W.sum(axis=2, keepdims=True)
    axes = [Alphabet(name, tuple(range(k))) for name, k in zip("XYZ", shape)]
    return Channel(*axes, W)


def _cones():
    return [_generic_cone(builtin("and").channel),
            _generic_cone(builtin("group-add", order=3).channel),
            _generic_cone(_sparse_channel(np.random.default_rng(3)))]


@pytest.mark.parametrize("kinds", _KINDS)
def test_slopes_match_central_differences_at_interior_cone_laws(kinds):
    rng = np.random.default_rng(11)
    h = 1e-6
    for cone in _cones():
        for _ in range(3):
            q = rng.dirichlet(np.ones(cone.n_points))
            D = np.eye(cone.n_points) - q
            got = _one_sided(cone.slopes(q, kinds, D))
            want = (cone.values(q + h * D, kinds) - cone.values(q - h * D, kinds)) / (2 * h)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6, err_msg=str(kinds))


@pytest.mark.parametrize("kinds", [("ri_xz",), ("ri_yz", "h_xy_z"), ("h_xz_y",)])
def test_group_slopes_match_central_differences(kinds):
    # the vertex directions of each law of a product term, mapped onto the cone
    rng = np.random.default_rng(5)
    bank = _TermBank(_sparse_channel(np.random.default_rng(3)))
    h = 1e-6
    for side in "xy":
        k_out, k_in = (bank.nx, bank.ny) if side == "x" else (bank.ny, bank.nx)
        a, b = rng.dirichlet(np.ones(k_out)), rng.dirichlet(np.ones(k_in))
        outer, inner = (_one_sided(s) for s in _group_slopes(bank, side, a, b, kinds))
        Da, Db = np.eye(k_out) - a, np.eye(k_in) - b
        want_outer = (_group_values(bank, side, a + h * Da, b, kinds)
                      - _group_values(bank, side, a - h * Da, b, kinds)) / (2 * h)
        want_inner = (_group_values(bank, side, a, b + h * Db, kinds)
                      - _group_values(bank, side, a, b - h * Db, kinds)) / (2 * h)
        np.testing.assert_allclose(outer, want_outer, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(inner, want_inner, rtol=1e-5, atol=1e-6)


def _clipped_slopes(cone, q, kinds, D):
    # the slopes with every log clipped at 1e-300, zero cells included
    xyz, T, w = cone._kernel(kinds)
    cells = np.concatenate([q, q @ T]) if xyz else q @ T
    delta = np.concatenate([D, D @ T], axis=1) if xyz else D @ T
    return delta @ (w * (np.log2(np.maximum(cells, 1e-300)) + 1.0 / np.log(2.0)))


def test_boundary_start_of_group_add_4_reads_no_false_gap(monkeypatch):
    # switched_m12_top starts from its sweep at log 4, its maximum, with
    # outer law [0, 0, 0.16, 0.84]. A clipped log reads a gap there; the
    # t log t coefficients of the cells each direction opens read none
    starts = []

    def recorded(values, slopes, points, cfg, value=None):
        starts.append((slopes, [p.copy() for p in points]))
        return coordinate_polish(values, slopes, points, cfg, value)

    monkeypatch.setattr(bounds, "coordinate_polish", recorded)
    bank = _TermBank(channel_normal_form(builtin("group-add", order=4).channel).reduced)
    term = bounds._nested(bank, "switched_m12_top")
    (slopes, (a, *bs)), = starts
    np.testing.assert_allclose(a, [0, 0, 0.16, 0.84], rtol=0, atol=1e-12)
    assert term.value == pytest.approx(2.0, abs=1e-12)
    assert frank_wolfe_gap(slopes, [a, *bs]) <= STATIONARY_GAP

    Mr = bank.M.reshape(bank.nx, bank.ny, -1)
    clipped = np.zeros(bank.nx)
    for b, (_, kinds) in zip(bs, _TERMS["switched_m12_top"][1]):
        xs = b @ Mr
        q = a @ xs
        clipped += _clipped_slopes(bank.cone, q, kinds, xs - q)
    assert clipped.max() >= 1.0


def test_start_opening_a_cell_with_negative_kappa_is_polished():
    # AND's cone points (0,0,0) and (0,1,0) share z = 0: from the vertex of
    # the first, moving mass to the second opens one xyz cell, whose
    # H(XYZ|Z) grows like -t log t, so the slope is +inf and the polish runs
    cone = _generic_cone(builtin("and").channel)
    kinds = ("h_xy_z",)
    z = cone.index[2]
    assert z[0] == z[1]
    q = np.zeros(cone.n_points)
    q[0] = 1.0
    slopes = _one_sided(cone.slopes(q, kinds, np.eye(cone.n_points) - q))
    assert slopes[1] == np.inf
    value, _, evals = coordinate_polish(
        lambda s, rows, pts: cone.values(rows, kinds),
        lambda pts: [_one_sided(cone.slopes(pts[0], kinds, np.eye(len(pts[0])) - pts[0]))],
        [q], OptConfig())
    assert evals > 0
    assert value > 1.0


# -- the skip forced off and on ------------------------------------------------


def _terms(result):
    # every term of a report or a cmss_bounds map, as (name, value, witnesses)
    links = result.values() if isinstance(result, dict) else map(result.link, LINKS)
    return [(t.name, t.value, {lab: d.probs for lab, d in t.witnesses.items()})
            for lb in links for t in lb.terms]


def _both_ways(monkeypatch, run):
    """run(), which returns _terms lists, with the skip forced off, recording
    each polish's start gap and gain, then with it on; asserts every term
    bit-identical and returns the (gap, gain) records."""
    gap = simplex.frank_wolfe_gap
    polish = simplex.coordinate_polish
    records = []

    def recorded(values, slopes, points, cfg, value=None):
        start = gap(slopes, points)
        out = polish(values, slopes, points, cfg, value)
        records.append((start, out[0] - (out[0] if value is None else value)))
        return out

    with monkeypatch.context() as m:
        m.setattr(simplex, "frank_wolfe_gap", lambda slopes, points: np.inf)
        m.setattr(simplex, "coordinate_polish", recorded)
        m.setattr(bounds, "coordinate_polish", recorded)
        off = run()
    on = run()
    assert len(off) == len(on)
    for (name, v_off, w_off), (name_on, v_on, w_on) in zip(off, on):
        assert name == name_on
        assert v_off == v_on, name
        assert w_off.keys() == w_on.keys(), name
        assert all(np.array_equal(w_off[lab], w_on[lab]) for lab in w_off), name
    return records


def _assert_margins(records):
    # every start at or below the tolerance gains nothing, with a 10x margin
    # on each side of it
    skipped = [g for g, gain in records if g <= STATIONARY_GAP]
    gaining = [g for g, gain in records if gain > 0]
    assert skipped and gaining
    assert all(gain == 0 for g, gain in records if g <= STATIONARY_GAP)
    assert 10 * max(skipped) <= STATIONARY_GAP
    assert min(gaining) >= 10 * STATIONARY_GAP


_BUILTINS = [("and", {}), ("and", {"n": 2}), ("and", {"n": 3}), ("sum", {}), ("erasure", {})] \
    + [("group-add", {"order": k}) for k in range(2, 7)] \
    + [("remote-ot", {"m": 2}), ("remote-ot", {"m": 3})]


def test_skip_changes_no_term_of_the_builtins(monkeypatch, and_joint):
    def run():
        reports = [best_bounds(b.default_input, b.channel)
                   for b in (builtin(name, **params) for name, params in _BUILTINS)]
        return [t for r in reports + [cmss_bounds(and_joint)] for t in _terms(r)]

    _assert_margins(_both_ways(monkeypatch, run))


def _random_channel(seed):
    # 2-3 symbols per axis; even seeds deterministic, odd ones sparse randomized
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 4, size=3))
    if seed % 2:
        return _sparse_channel(rng, shape)
    W = np.zeros(shape)
    f = rng.integers(shape[2], size=shape[:2])
    W[np.arange(shape[0])[:, None], np.arange(shape[1]), f] = 1.0
    return Channel(*(Alphabet(name, tuple(range(k))) for name, k in zip("XYZ", shape)), W)


def test_skip_changes_no_term_of_random_channels(monkeypatch):
    # refine_iters = 9 is one full cycle of the widest polish here (a 3 x 3
    # joint law, or three laws of 3 symbols): a polish gains at all iff it
    # gains within that cycle, so the records are the default config's
    cfg = OptConfig(refine_iters=9)
    chans = [_random_channel(seed) for seed in range(60)]

    def run():
        return [t for ch in chans
                for t in _terms(best_bounds(JointDist.uniform((ch.x_axis, ch.y_axis)), ch, cfg))]

    _assert_margins(_both_ways(monkeypatch, run))


def test_group_add_starts_are_stationary_and_and_polishes(monkeypatch):
    # every polish of group-add 4, 5 and 6 starts stationary and scores no
    # line; AND's gain, so they run lines
    calls = []
    line_searches = simplex._line_searches

    def counted(score, p, cs):
        calls.append(len(cs))
        return line_searches(score, p, cs)

    monkeypatch.setattr(simplex, "_line_searches", counted)
    for order in (4, 5, 6):
        b = builtin("group-add", order=order)
        best_bounds(b.default_input, b.channel)
        assert not calls, order
    b = builtin("and")
    best_bounds(b.default_input, b.channel)
    assert calls
