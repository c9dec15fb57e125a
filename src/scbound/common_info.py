"""Gacs-Korner common information and residual information.

The common part of a pair (U, V) is the connected-component label of the
bipartite support graph of p_UV. blocks_from_mask computes those labels,
and they are the common part's only representation: the bound kernels,
the normal forms and every connectivity gate read them. Residual
information is the gap between mutual information and the entropy of the
label.
"""

import numpy as np

from .dists import SUPPORT_EPS, entropy_of_array, mutual_info


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


def residual_info(d):
    """RI(U;V) = I(U;V) - H(common part), clamped to >= 0, for a 2-axis
    joint. The common part's law is the U-marginal mass on each block."""
    if d.n_axes != 2:
        raise ValueError("residual_info expects a 2-axis joint")
    labels_u, _, n_blocks = blocks_from_mask(d.probs > SUPPORT_EPS)
    live = labels_u >= 0  # a symbol with no mass belongs to no block
    agg = np.bincount(labels_u[live], weights=d.probs.sum(axis=1)[live], minlength=n_blocks)
    return max(mutual_info(d, (0,), (1,)) - entropy_of_array(agg / agg.sum()), 0.0)
