"""Gacs-Korner common information and residual information.

The common part of a pair (U, V) is the connected-component label of the
bipartite support graph of p_UV; residual information is the gap between
mutual information and the entropy of that label. A brute-force minimizer
over all common functions Q = f(U) = g(V) cross-checks the graph
construction.
"""

from dataclasses import dataclass

import numpy as np

from .dists import (
    Alphabet,
    CapacityError,
    JointDist,
    SUPPORT_EPS,
    entropy,
    entropy_of_array,
    mutual_info,
)


def blocks_from_mask(mask):
    """Connected components of the bipartite graph given by a boolean matrix.

    Returns (labels_u, labels_v, n_blocks); blocks are numbered in the order
    of their first row, and rows/columns with no edge get label -1 (they
    carry no probability in any distribution with this support pattern).
    """
    labels_u = np.full(mask.shape[0], -1, dtype=int)
    labels_v = np.full(mask.shape[1], -1, dtype=int)
    n_blocks = 0
    for i in np.flatnonzero(mask.any(axis=1)):
        if labels_u[i] >= 0:
            continue
        # grow the block of row i: rows -> the columns they reach -> the rows
        # those reach, until the row set stops growing
        rows = np.arange(mask.shape[0]) == i
        while True:
            cols = mask[rows].any(axis=0)
            grown = mask[:, cols].any(axis=1)
            if np.array_equal(grown, rows):
                break
            rows = grown
        labels_u[rows] = labels_v[cols] = n_blocks
        n_blocks += 1
    return labels_u, labels_v, n_blocks


def _block_mass(p_u, labels_u, n_blocks):
    """Mass of each block under the marginal p_u (unlabelled rows dropped)."""
    live = labels_u >= 0
    return np.bincount(labels_u[live], weights=p_u[live], minlength=n_blocks)


def block_entropy(p_u, labels_u, n_blocks):
    """Entropy of the block label under the marginal p_u."""
    if n_blocks == 0:
        return 0.0
    return entropy_of_array(_block_mass(p_u, labels_u, n_blocks))


@dataclass(frozen=True)
class CommonPart:
    """The maximal variable computable from U alone and from V alone."""

    block_of_u: dict
    block_of_v: dict
    block_dist: JointDist

    @property
    def entropy(self):
        return entropy(self.block_dist, (0,))


def common_part(d):
    """Common part of a 2-axis joint; blocks from the support bipartite graph."""
    if d.n_axes != 2:
        raise ValueError("common_part expects a 2-axis joint")
    mask = d.probs > SUPPORT_EPS
    labels_u, labels_v, n_blocks = blocks_from_mask(mask)
    if n_blocks == 0:
        agg = np.array([1.0])  # degenerate, cannot happen for a pmf
    else:
        agg = _block_mass(d.probs.sum(axis=1), labels_u, n_blocks)
    block_axis = Alphabet("Q", tuple(range(len(agg))))
    return CommonPart(
        block_of_u={s: int(labels_u[i]) for i, s in enumerate(d.axes[0]) if labels_u[i] >= 0},
        block_of_v={s: int(labels_v[j]) for j, s in enumerate(d.axes[1]) if labels_v[j] >= 0},
        block_dist=JointDist((block_axis,), agg / agg.sum()),
    )


def residual_info(d):
    """RI(U;V) = I(U;V) - H(common part), clamped to >= 0."""
    cp = common_part(d)
    return max(mutual_info(d, (0,), (1,)) - cp.entropy, 0.0)


def _set_partitions(items):
    """All set partitions of a list, in a deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


ORACLE_MAX_SUPPORT = 12  # live symbols per side
ORACLE_MAX_COMPONENTS = 10  # Bell(10) = 115,975 partitions


def residual_info_oracle(d):
    """Minimize I(U;V|Q) over all common functions Q = f(U) = g(V).

    Any Q consistent on the support is constant on each connected component
    of the support graph, so the candidates are exactly the ways of merging
    components; this enumerates every set partition of the components and
    evaluates the conditional mutual information directly.
    """
    if d.n_axes != 2:
        raise ValueError("residual_info_oracle expects a 2-axis joint")
    mask = d.probs > SUPPORT_EPS
    nu = int(mask.any(axis=1).sum())
    nv = int(mask.any(axis=0).sum())
    if nu > ORACLE_MAX_SUPPORT or nv > ORACLE_MAX_SUPPORT:
        raise CapacityError("support %dx%d exceeds oracle limit %d" % (nu, nv, ORACLE_MAX_SUPPORT))
    labels_u, labels_v, n_blocks = blocks_from_mask(mask)
    if n_blocks > ORACLE_MAX_COMPONENTS:
        raise CapacityError(
            "%d components exceed oracle limit %d" % (n_blocks, ORACLE_MAX_COMPONENTS)
        )

    best = None
    for part in _set_partitions(list(range(n_blocks))):
        # coarsen component labels into Q cells, then I(U;V|Q) by direct sum
        cell_of = {}
        for q, cell in enumerate(part):
            for c in cell:
                cell_of[c] = q
        val = 0.0
        for q in range(len(part)):
            rows = [i for i in range(mask.shape[0]) if labels_u[i] >= 0 and cell_of[labels_u[i]] == q]
            cols = [j for j in range(mask.shape[1]) if labels_v[j] >= 0 and cell_of[labels_v[j]] == q]
            sub = d.probs[np.ix_(rows, cols)]
            pq = sub.sum()
            if pq <= SUPPORT_EPS:
                continue
            cond = sub / pq
            h_u = entropy_of_array(cond.sum(axis=1))
            h_v = entropy_of_array(cond.sum(axis=0))
            h_uv = entropy_of_array(cond)
            val += pq * max(h_u + h_v - h_uv, 0.0)
        if best is None or val < best:
            best = val
    return max(best, 0.0)
