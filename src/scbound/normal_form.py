"""Normal-form reductions and connectivity checks.

Channels, (distribution, channel) pairs, and 3-axis sampling joints are
reduced by one reducer over a 3-axis array (a channel kernel or a sampling
joint) with three primitives, each taking an axis: `add` merges proportional
slices (their masses add), `keep` merges inputs with equal conditional rows
(their input masses add), and `drop` removes a symbol. Each form has a rule
that lists the merges and drops it allows in scan order; a reduction applies
the first one until none is left, so it is idempotent, and a form is normal
iff its rule lists nothing. The representative of a merge class is the
earliest symbol in alphabet order.
"""

from dataclasses import dataclass, field

import numpy as np

from .dists import Alphabet, Channel, JointDist, SUPPORT_EPS, ZERO_TOL
from .common_info import blocks_from_mask


@dataclass
class NormalFormResult:
    reduced: object  # Channel, JointDist, or (JointDist, Channel) for pairs
    x_map: dict = field(default_factory=dict)
    y_map: dict = field(default_factory=dict)
    z_map: dict = field(default_factory=dict)


def _proportional(u, v):
    """True iff u = c*v or v = c*u for some c >= 0 (a zero slice is a
    multiple of any slice)."""
    su, sv = u.sum(), v.sum()
    if su <= SUPPORT_EPS or sv <= SUPPORT_EPS:
        return True
    return bool(np.max(np.abs(u / su - v / sv)) <= ZERO_TOL)


def _rows_equal(a, b):
    return bool(np.max(np.abs(a - b), initial=0.0) <= ZERO_TOL)


def _pairs(n):
    return ((i, j) for i in range(n) for j in range(i + 1, n))


class _Reducer:
    """A 3-axis array, optional (X, Y) input masses (the pair form), and per
    axis its symbols and its map from original symbol to representative
    (None once dropped)."""

    def __init__(self, axes, array, probs=None):
        self.axes = tuple(axes)
        self.a = np.array(array)
        self.probs = None if probs is None else np.array(probs)
        self.syms = [list(ax.symbols) for ax in self.axes]
        self.maps = [{s: s for s in ax.symbols} for ax in self.axes]

    def _remove(self, ax, j, into):
        gone = self.syms[ax].pop(j)
        for orig, cur in self.maps[ax].items():
            if cur == gone:
                self.maps[ax][orig] = into
        self.a = np.delete(self.a, j, axis=ax)

    def add(self, ax, i, j):
        """Merge slice j into slice i (i < j); their masses add."""
        s = np.moveaxis(self.a, ax, 0)
        s[i] += s[j]
        self._remove(ax, j, self.syms[ax][i])

    def keep(self, ax, i, j):
        """Merge input j into input i (i < j), whose conditional rows agree.
        Row i takes row j's cells wherever only j carries input mass, and the
        input masses add."""
        if self.probs is not None:
            s, p = np.moveaxis(self.a, ax, 0), np.moveaxis(self.probs, ax, 0)
            fill = (p[i] <= SUPPORT_EPS) & (p[j] > SUPPORT_EPS)
            s[i][fill] = s[j][fill]
            p[i] += p[j]
            self.probs = np.delete(self.probs, j, axis=ax)
        self._remove(ax, j, self.syms[ax][i])

    def drop(self, ax, j):
        self._remove(ax, j, None)
        if self.probs is not None:
            # a pair's off-support rows may have lost mass; renormalize them
            # (their content never enters any on-support computation)
            sums = self.a.sum(axis=2)
            bad = sums <= SUPPORT_EPS
            if bad.any():
                self.a[bad] = 1.0 / self.a.shape[2]
                sums = self.a.sum(axis=2)
            self.a /= sums[:, :, None]

    def reduce(self, rule):
        while (move := next(rule(self), None)) is not None:
            move[0](*move[1:])
        return self

    def alphabets(self):
        return [Alphabet(ax.name, syms) for ax, syms in zip(self.axes, self.syms)]

    def result(self, reduced):
        return NormalFormResult(reduced, *self.maps)


# -- rules: each yields (primitive, axis, index...) moves in scan order -------


def _row_moves(r, supp):
    """Equal-row merges on x, then y, compared where both inputs of the pair
    carry mass under the (|X|, |Y|) mask `supp`."""
    for ax in (0, 1):
        s, on = np.moveaxis(r.a, ax, 0), np.moveaxis(supp, ax, 0)
        yield from (
            (r.keep, ax, i, j)
            for i, j in _pairs(len(s))
            if _rows_equal(s[i][on[i] & on[j]], s[j][on[i] & on[j]])
        )


def _channel_rule(r):
    yield from _row_moves(r, np.ones(r.a.shape[:2], dtype=bool))
    z = np.moveaxis(r.a, 2, 0)
    yield from ((r.add, 2, i, j) for i, j in _pairs(len(z)) if _proportional(z[i], z[j]))


def _pair_rule(r):
    supp = r.probs > SUPPORT_EPS
    yield from _row_moves(r, supp)
    z = np.moveaxis(r.a, 2, 0)
    if len(z) > 1:
        yield from ((r.drop, 2, j) for j in range(len(z)) if z[j][supp].sum() <= SUPPORT_EPS)
    yield from (
        (r.add, 2, i, j) for i, j in _pairs(len(z)) if _proportional(z[i][supp], z[j][supp])
    )


def _sampling_rule(r):
    for ax in range(3):
        s = np.moveaxis(r.a, ax, 0)
        if len(s) > 1:
            yield from ((r.drop, ax, j) for j in range(len(s)) if s[j].sum() <= SUPPORT_EPS)
        yield from ((r.add, ax, i, j) for i, j in _pairs(len(s)) if _proportional(s[i], s[j]))


def _channel_reducer(ch):
    return _Reducer((ch.x_axis, ch.y_axis, ch.z_axis), ch.kernel)


def _pair_reducer(p_xy, ch):
    if p_xy.n_axes != 2 or p_xy.axes[0] != ch.x_axis or p_xy.axes[1] != ch.y_axis:
        raise ValueError("distribution axes do not match channel alphabets")
    return _Reducer((ch.x_axis, ch.y_axis, ch.z_axis), ch.kernel, p_xy.probs)


def _sampling_reducer(p_xyz):
    if p_xyz.n_axes != 3:
        raise ValueError("sampling_normal_form expects a 3-axis joint")
    return _Reducer(p_xyz.axes, p_xyz.probs)


def channel_normal_form(ch):
    """Merge equivalent inputs and proportional outputs of a channel."""
    r = _channel_reducer(ch).reduce(_channel_rule)
    return r.result(Channel(*r.alphabets(), r.a))


def is_channel_normal_form(ch):
    return next(_channel_rule(_channel_reducer(ch)), None) is None


def pair_normal_form(p_xy, ch):
    """Reduce a (p_XY, p_Z|XY) pair; support-restricted equivalences.

    Output symbols with zero probability under every supported input pair are
    dropped; z_map sends them to None.
    """
    r = _pair_reducer(p_xy, ch).reduce(_pair_rule)
    x, y, z = r.alphabets()
    return r.result((JointDist((x, y), r.probs), Channel(x, y, z, r.a)))


def is_pair_normal_form(p_xy, ch):
    return next(_pair_rule(_pair_reducer(p_xy, ch)), None) is None


def sampling_normal_form(p_xyz):
    """Drop zero-probability symbols and merge proportional slices of a 3-axis joint."""
    r = _sampling_reducer(p_xyz).reduce(_sampling_rule)
    return r.result(JointDist(r.alphabets(), r.a))


def is_sampling_normal_form(p_xyz):
    return next(_sampling_rule(_sampling_reducer(p_xyz)), None) is None


def bigraph_connected(p_xy):
    """True iff the support bipartite graph of a 2-axis joint is connected."""
    if p_xy.n_axes != 2:
        raise ValueError("bigraph_connected expects a 2-axis joint")
    _, _, n_blocks = blocks_from_mask(p_xy.probs > SUPPORT_EPS)
    return n_blocks <= 1


def _inputs_connected(ch, ax):
    """No split of input axis `ax` (0 = x, 1 = y) with disjoint
    reachable-output sets."""
    reach = (ch.kernel > SUPPORT_EPS).any(axis=1 - ax)  # (|input|, |Z|)
    labels, _, _ = blocks_from_mask(reach)
    return len(set(labels)) <= 1


def check_condition1(ch):
    """No split of the x-alphabet with disjoint reachable-output sets."""
    return _inputs_connected(ch, 0)


def check_condition2(ch):
    """No split of the y-alphabet with disjoint reachable-output sets."""
    return _inputs_connected(ch, 1)
