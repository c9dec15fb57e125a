"""Normal-form reductions and connectivity checks.

Channels, (distribution, channel) pairs, and 3-axis sampling joints are
reduced by one reducer over a 3-axis array (a channel kernel or a sampling
joint) with three moves, each on one axis: `keep` merges inputs with equal
conditional rows (their input masses add), `add` merges proportional slices
(their masses add), and `drop` removes a zero-mass symbol. A form is a list
of (move, axis) passes; each compares a slice with all later ones at once.
A reduction applies the first move of the first pass that has one until none
has, so it is idempotent, a form is normal iff its reduction maps every
symbol to itself, and a merge class is represented by its earliest symbol.
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


class _Reducer:
    """A 3-axis array, optional (X, Y) input masses (the pair form), and per
    axis the original index of each slice and the slice of each original
    index (-1 once dropped)."""

    def __init__(self, axes, array, probs=None):
        self.axes = tuple(axes)
        self.a = np.array(array)
        self.probs = None if probs is None else np.array(probs)
        self.orig = [np.arange(len(ax)) for ax in self.axes]
        self.rep = [np.arange(len(ax)) for ax in self.axes]

    def _apply(self, ax, into):
        """Remove the slices on `ax` that `into` sends elsewhere (into[k] is k,
        its representative, or -1 to drop it); True iff any went."""
        live = into == np.arange(len(into))
        if live.all():
            return False
        into = np.where(into >= 0, np.cumsum(live)[into] - 1, -1)
        self.rep[ax] = np.where(self.rep[ax] >= 0, into[self.rep[ax]], -1)
        self.orig[ax] = self.orig[ax][live]
        self.a = np.compress(live, self.a, axis=ax)
        if self.probs is not None and ax < 2:
            self.probs = np.compress(live, self.probs, axis=ax)
        return True

    def _rows(self, ax):
        """The slices on `ax` as rows (a pair's outputs on its support only)."""
        rows = np.moveaxis(self.a, ax, 0).reshape(self.a.shape[ax], -1)
        return rows if self.probs is None else rows[:, (self.probs > SUPPORT_EPS).ravel()]

    def keep(self, ax, drain=False):
        """Merge the first input whose conditional row agrees with an earlier
        one's wherever both carry input mass into it; with `drain`, every
        such input. The kept row takes the merged row's cells wherever only
        the merged input carries mass, and the input masses add."""
        s = self.a.swapaxes(0, ax)
        p = None if self.probs is None else self.probs.swapaxes(0, ax)
        n = len(s)
        into = np.arange(n)
        for i in range(n):
            later = np.arange(i + 1, n)
            cand = later[into[i + 1:] == later] if into[i] == i else later[:0]
            while cand.size:
                diff = np.abs(s[cand] - s[i])
                if p is not None:
                    diff[~((p[cand] > SUPPORT_EPS) & (p[i] > SUPPORT_EPS))] = 0.0
                cand = cand[diff.reshape(len(cand), -1).max(axis=1) <= ZERO_TOL]
                if p is None and drain:
                    into[cand] = i  # a channel's row i stays as it is: every hit merges
                    break
                if not cand.size:
                    break
                # row i only gains compared cells, so only the other hits can hit again
                j, cand = cand[0], cand[1:]
                if p is not None:
                    fill = (p[i] <= SUPPORT_EPS) & (p[j] > SUPPORT_EPS)
                    s[i][fill] = s[j][fill]
                    p[i] += p[j]
                into[j] = i
                if not drain:
                    return self._apply(ax, into)
        return self._apply(ax, into)

    def add(self, ax):
        """Merge the first slice proportional to an earlier one into it (a
        zero slice is proportional to any); their masses add."""
        rows = self._rows(ax)
        mass = rows.sum(axis=1)
        for i in range(len(rows) - 1):
            cand = np.arange(i + 1, len(rows))
            if mass[i] > SUPPORT_EPS:
                with np.errstate(divide="ignore", invalid="ignore"):
                    dev = np.abs(rows[i] / mass[i] - rows[cand] / mass[cand, None]).max(axis=1)
                cand = cand[(mass[cand] <= SUPPORT_EPS) | (dev <= ZERO_TOL)]
            if cand.size:
                s, into = self.a.swapaxes(0, ax), np.arange(len(rows))
                s[i] += s[cand[0]]
                into[cand[0]] = i
                return self._apply(ax, into)
        return False

    def drop(self, ax, drain=False):
        """Drop the first zero-mass slice unless it is the last; with
        `drain`, every such slice."""
        moved = False
        while self.a.shape[ax] > 1:
            zero = np.flatnonzero(self._rows(ax).sum(axis=1) <= SUPPORT_EPS)
            if not zero.size:
                break
            into = np.arange(self.a.shape[ax])
            into[zero[0]] = -1
            moved = self._apply(ax, into)
            if self.probs is not None:
                # a pair's off-support rows may have lost mass; renormalize
                # them (their content never enters any on-support computation)
                self.a[self.a.sum(axis=2) <= SUPPORT_EPS] = 1.0 / self.a.shape[2]
                self.a /= self.a.sum(axis=2)[:, :, None]
            if not drain:
                break
        return moved

    def reduce(self, first, *rest):
        """Apply the first move of the first (move, axis) pass that has one
        until none has, as if restarting after every move: the first pass
        drains its kind in one call, as its moves create none of its kind
        before them, and any later pass makes one move."""
        while True:
            first[0](first[1], drain=True)
            if not any(move(ax) for move, ax in rest):
                return self

    def alphabets(self):
        return [Alphabet(ax.name, [ax.symbols[o] for o in orig])
                for ax, orig in zip(self.axes, self.orig)]

    def result(self, reduced):
        maps = [{s: None if r < 0 else ax.symbols[orig[r]] for s, r in zip(ax.symbols, rep)}
                for ax, orig, rep in zip(self.axes, self.orig, self.rep)]
        return NormalFormResult(reduced, *maps)


def _keeps_symbols(res):
    return all(s == t for m in (res.x_map, res.y_map, res.z_map) for s, t in m.items())


def channel_normal_form(ch):
    """Merge equivalent inputs and proportional outputs of a channel."""
    r = _Reducer((ch.x_axis, ch.y_axis, ch.z_axis), ch.kernel)
    r.reduce((r.keep, 0), (r.keep, 1), (r.add, 2))
    return r.result(Channel(*r.alphabets(), r.a))


def is_channel_normal_form(ch):
    return _keeps_symbols(channel_normal_form(ch))


def pair_normal_form(p_xy, ch):
    """Reduce a (p_XY, p_Z|XY) pair; support-restricted equivalences.

    Output symbols with zero probability under every supported input pair are
    dropped; z_map sends them to None.
    """
    if p_xy.n_axes != 2 or p_xy.axes[0] != ch.x_axis or p_xy.axes[1] != ch.y_axis:
        raise ValueError("distribution axes do not match channel alphabets")
    r = _Reducer((ch.x_axis, ch.y_axis, ch.z_axis), ch.kernel, p_xy.probs)
    r.reduce((r.keep, 0), (r.keep, 1), (r.drop, 2), (r.add, 2))
    x, y, z = r.alphabets()
    return r.result((JointDist((x, y), r.probs), Channel(x, y, z, r.a)))


def is_pair_normal_form(p_xy, ch):
    return _keeps_symbols(pair_normal_form(p_xy, ch))


def sampling_normal_form(p_xyz):
    """Drop zero-probability symbols and merge proportional slices of a 3-axis joint."""
    if p_xyz.n_axes != 3:
        raise ValueError("sampling_normal_form expects a 3-axis joint")
    r = _Reducer(p_xyz.axes, p_xyz.probs)
    r.reduce(*((move, ax) for ax in range(3) for move in (r.drop, r.add)))
    return r.result(JointDist(r.alphabets(), r.a))


def is_sampling_normal_form(p_xyz):
    return _keeps_symbols(sampling_normal_form(p_xyz))


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
    return blocks_from_mask(reach)[2] <= 1


def check_condition1(ch):
    """No split of the x-alphabet with disjoint reachable-output sets."""
    return _inputs_connected(ch, 0)


def check_condition2(ch):
    """No split of the y-alphabet with disjoint reachable-output sets."""
    return _inputs_connected(ch, 1)
