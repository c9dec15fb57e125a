"""The seeds of the scans: face seeds and channel seeds.

Every joint-law simplex of at most FACE_SYMBOLS cells is scanned with the
uniform law on every face of 3 to k - 1 cells as seeds (simplex.face_points,
given by bounds._joint_scan); a wider one with the channel's joint seeds,
and each input side holds its channel seed among its candidates
(bounds._channel_seeds). These tests run every term with the seeds and with
them patched to none: no value may fall. They also pin the tight AND terms
to exact 1/3 laws found by the scan alone.
"""

import math

import numpy as np
import pytest

import scbound.bounds as bounds
from scbound.bounds import _TERMS, _run_term, _side, _TermBank, cmss_bounds, improved_bounds
from scbound.dists import JointDist, join
from scbound.normal_form import channel_normal_form
from scbound.protocols import BUILTINS, builtin
from scbound.simplex import FACE_SYMBOLS, OptConfig

from test_stationary import _random_channel

_JOINT_TERMS = [name for name, (outer, _) in _TERMS.items() if _side(outer) == "xy"]


def _joint_law_values(ch, cfg):
    # every improved variant of the reduced channel, as _run_term gives it,
    # then every dealer-share term of its joint at the uniform input
    bank = _TermBank(channel_normal_form(ch).reduced, cfg)
    values = [_run_term(bank, name, None, None).value for name in _JOINT_TERMS]
    joint = join(JointDist.uniform((ch.x_axis, ch.y_axis)), ch)
    values += [t.value for lb in cmss_bounds(joint, cfg).values() for t in lb.terms]
    return values


def _seeded_and_unseeded(monkeypatch, chans, cfg):
    # with no face seeds, the channel's joint seeds would stand in for them
    seeded = [_joint_law_values(ch, cfg) for ch in chans]
    with monkeypatch.context() as m:
        m.setattr(bounds, "FACE_SYMBOLS", 0)
        m.setattr(bounds, "_channel_seeds", lambda W, side: None)
        unseeded = [_joint_law_values(ch, cfg) for ch in chans]
    return seeded, unseeded


def _term_values(ch, cfg):
    # every optimized term of the reduced channel, the switched ones at the
    # uniform marginals (the dealer-share terms read no channel seed)
    bank = _TermBank(channel_normal_form(ch).reduced, cfg)
    ux, uy = np.full(bank.nx, 1 / bank.nx), np.full(bank.ny, 1 / bank.ny)
    return [_run_term(bank, name, ux, uy).value for name in _TERMS]


def _seeded_channels(chans):
    # the channels some scan of which takes a channel seed: a side seed, or
    # joint seeds above FACE_SYMBOLS cells; any other runs the same code
    # with the seeds patched out
    def seeded(W):
        return (W.shape[0] * W.shape[1] > FACE_SYMBOLS
                or any(bounds._channel_seeds(W, side) is not None for side in "xy"))

    return [ch for ch in chans if seeded(np.asarray(channel_normal_form(ch).reduced.kernel))]


def _with_and_without_channel_seeds(monkeypatch, chans, cfg):
    seeded = [_term_values(ch, cfg) for ch in chans]
    with monkeypatch.context() as m:
        m.setattr(bounds, "_channel_seeds", lambda W, side: None)
        unseeded = [_term_values(ch, cfg) for ch in chans]
    return seeded, unseeded


def _assert_none_falls(seeded, unseeded):
    for got, base in zip(seeded, unseeded):
        assert len(got) == len(base)
        assert all(g >= b - 1e-12 for g, b in zip(got, base)), (got, base)


def test_seeds_lower_no_joint_law_term_of_the_builtins(monkeypatch):
    chans = [builtin(name).channel for name in BUILTINS]
    seeded, unseeded = _seeded_and_unseeded(monkeypatch, chans, OptConfig())
    _assert_none_falls(seeded, unseeded)
    # AND's and remote-ot's tight terms rise to their exact values
    assert sum(g > b for got, base in zip(seeded, unseeded) for g, b in zip(got, base)) > 0


def test_seeds_lower_no_joint_law_term_of_random_channels(monkeypatch):
    # 72 seeded channels with 2-3 symbols per axis, deterministic and
    # sparse randomized: joint laws of 4 to 9 cells, and cones of up to 27
    # points, so seeded, unseeded (k > FACE_SYMBOLS) and Dirichlet scans.
    # Seeds simply added to the candidates lower terms of channels 27, 37
    # and 67 (by 1.3e-11, 6.5e-12 and 1.7e-3)
    chans = [_random_channel(seed) for seed in range(72)]
    seeded, unseeded = _seeded_and_unseeded(monkeypatch, chans, OptConfig())
    _assert_none_falls(seeded, unseeded)


def test_channel_seeds_lower_no_term_of_the_builtins(monkeypatch):
    # the built-ins at their defaults, and the wider ones whose sides or
    # joint law the channel seeds reach: remote-ot m=3 and m=2 n=2 (a
    # constant-row x seed and joint seeds), AND n=2 (joint seeds)
    chans = [builtin(name).channel for name in BUILTINS]
    chans += [builtin("remote-ot", m=3).channel, builtin("remote-ot", m=2, n=2).channel,
              builtin("and", n=2).channel]
    seeded, unseeded = _with_and_without_channel_seeds(monkeypatch, chans, OptConfig())
    _assert_none_falls(seeded, unseeded)
    assert sum(g > b + 1e-9 for got, base in zip(seeded, unseeded) for g, b in zip(got, base)) > 0


def test_channel_seeds_lower_no_term_of_random_channels(monkeypatch):
    # the 72 channels of the census above, of which 22 take a channel seed:
    # 17 joint seeds on 3 x 3 inputs, 5 a side seed
    chans = _seeded_channels([_random_channel(seed) for seed in range(72)])
    assert len(chans) == 22
    seeded, unseeded = _with_and_without_channel_seeds(monkeypatch, chans, OptConfig())
    _assert_none_falls(seeded, unseeded)


def _recorded_optimizations(monkeypatch, run):
    # (result, number of candidates and seeds) of every optimize_over_simplex call
    calls = []
    optimize = bounds.optimize_over_simplex

    def recorded(values, slopes, cands, cfg, seeds=None):
        res = optimize(values, slopes, cands, cfg, seeds=seeds)
        calls.append((res, len(cands) + (0 if seeds is None else len(seeds))))
        return res

    monkeypatch.setattr(bounds, "optimize_over_simplex", recorded)
    run()
    return calls


def _assert_scanned_third_laws(calls):
    # each optimization at log 3 has an exact 1/3 law on three cells as its
    # witness, found by the scan: no polish line is scored
    tight = [(res, n) for res, n in calls if abs(res.value - math.log2(3)) <= 1e-12]
    for res, n in tight:
        assert sorted(res.witness.ravel().tolist())[-3:] == [1 / 3] * 3
        assert np.count_nonzero(res.witness) == 3
        assert res.evaluations == n
    return len(tight)


def test_and_tight_improved_terms_are_scanned_third_laws(monkeypatch):
    ch = builtin("and").channel
    reports = {}
    calls = _recorded_optimizations(monkeypatch,
                                    lambda: reports.update(improved_bounds(ch, OptConfig())))
    assert _assert_scanned_third_laws(calls) >= 2
    for link in ("m23", "m31"):
        w = reports[link].witnesses["p_X'Y'"].probs
        assert reports[link].value == pytest.approx(math.log2(3), abs=1e-12)
        assert sorted(w.ravel().tolist()) == [0.0] + [1 / 3] * 3


def test_and_cmss_terms_are_scanned_third_laws(monkeypatch, and_joint):
    reports = {}
    calls = _recorded_optimizations(monkeypatch,
                                    lambda: reports.update(cmss_bounds(and_joint, OptConfig())))
    assert _assert_scanned_third_laws(calls) >= 3
    for lb in reports.values():
        assert lb.value == pytest.approx(math.log2(3), abs=1e-12)
        w = lb.witnesses["p_X'Y'Z'"].probs
        assert sorted(w[w > 0].tolist()) == [1 / 3] * 3
