"""Brute-force references for common_info, which the tests compare the
graph construction and the cone kernel against.

residual_info_oracle minimizes I(U;V|Q) over every common function
Q = f(U) = g(V) by enumerating the set partitions of the support graph's
components; block_entropy is the entropy of a block label under a marginal.
"""

import numpy as np

from scbound.common_info import blocks_from_mask
from scbound.dists import CapacityError, SUPPORT_EPS, entropy_of_array


def block_entropy(p_u, labels_u, n_blocks):
    """Entropy of the block label under the marginal p_u (unlabelled rows
    dropped)."""
    if n_blocks == 0:
        return 0.0
    live = labels_u >= 0
    return entropy_of_array(np.bincount(labels_u[live], weights=p_u[live], minlength=n_blocks))


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
