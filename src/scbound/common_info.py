"""Gacs-Korner common information and residual information.

The common part of a pair (U, V) is the connected-component label of the
bipartite support graph of p_UV; residual information is the gap between
mutual information and the entropy of that label.
"""

from dataclasses import dataclass

import numpy as np

from .dists import Alphabet, JointDist, SUPPORT_EPS, entropy, mutual_info


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
        # the mass of each block under the U marginal (unlabelled rows dropped)
        live = labels_u >= 0
        agg = np.bincount(labels_u[live], weights=d.probs.sum(axis=1)[live], minlength=n_blocks)
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
