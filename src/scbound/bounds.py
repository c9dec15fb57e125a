"""Per-link transcript entropy lower bounds and randomness bounds.

Five bound families are computed for a randomized two-input function:
an evaluation bound at the given input distribution, an optimized bound
over full-support joint input distributions, an evaluation bound for
independent inputs, and two switched bounds whose terms are optimized
separately over independently chosen input distributions (the stronger of
the two gated on reachable-output connectivity conditions). Suprema over
open sets of full-support distributions are computed on the closed simplex
with the common-part block structure frozen from the interior support
pattern, so boundary-approaching witnesses evaluate to their limits.

Every optimized term is a sum of term kinds (a residual-information gap
ri_* or a conditional entropy h_*), each evaluated at one input law. One
term table decides which kinds make which term: _JOINT_VARIANTS holds the
single-law variants of each link (optimized and dealer-share bounds),
_EVAL_TERMS the evaluation bounds, each a per-link maximum of kinds tuples
at one fixed law, and _TERMS every optimized term by its outer law and its
inner laws' kinds. One walker, _families, reads _TERMS and _LINK_CONDITION
to say which optimized family runs on which link under which gate;
best_bounds and the public family functions both read it, and term_value
re-evaluates any _TERMS entry of a channel at given laws. Every term call
of the evaluation bounds, of the optimizers' scans and polishes, and of
term_value, is scored by one kernel, _SupportCone.values, on the support
cone of a 3-axis joint, in slices: _CHUNK rows of a batch, or whole
brackets, up to _STACK_CELLS cells, of the polish's (lines, LINE_POINTS,
points) stacks. A slice is one GEMM onto the marginals the kinds read (one
per bracket), whose 0/1 operand is built from the cone's integer cell maps,
one xlogx and one weighted sum. _SupportCone.slopes reads the same
kernel for the polish's stationary-start test: the one-sided derivative of
a term along each vertex direction of its laws, which each caller maps
linearly onto the cone. A channel's _TermBank
maps input laws onto the cone of its generic support; a product-form term
(one x law, one y law) is scored there at the product law, where each
product-form kind equals its joint-form kind.

_TermBank.pair_values serves only the nested sweep's grid, with matrix
products only: the channel is kept z-major, (|Z|, |X|, |Y|), so the z-th
cells of a slice of pairs' output laws come from one GEMM as an (n, m)
matrix, and their entropies accumulate z by z into one (n, m) matrix; no
(|Z|, n, m) array is built.

The switched and conditional families share their nested suprema: one
sweep per term bank (which holds its call's config; best_bounds builds one
bank per call, each public family function its own) scores x candidates
against every y candidate, in slices of rows <= _CHUNK x candidates with
rows x n_y <= _SWEEP_CELLS (a 512 KB matrix) in one workspace, and reduces
each slice for both outer sides as it streams: a per-outer max and argmax,
the y side's as a running max over slices. It scores one pair per orbit of
the channel's automorphism group, the triples (pi_X, pi_Y, pi_Z) with
W[pi_X x, pi_Y y, pi_Z z] = W[x, y, z] (_automorphisms): one x candidate
per orbit against one y candidate per orbit of the y-only subgroup K (pi_X
the identity). Every term kind is an entropy, which relabelling leaves
alone, so where both sides' candidates are lattice points, closed under the
group, every other cell's max follows (_sweeps). Group-add 4 scores 3.5% of
its grid; a grid of at most _SWEEP_CELLS cells is swept whole, no search.

The scans also take seeds read off the channel (_channel_seeds): each input
side's candidates hold the uniform law on the inputs whose kernel slice
does not depend on the other input. The joint-law scans (the improved
terms' p_X'Y' and the dealer-share laws) take candidates and seeds from one
builder, _joint_scan: the uniform law on every face (face_points) up to
FACE_SYMBOLS cells, the channel's joint seeds above. The tight built-in
terms peak at such laws.

Share-size bounds for dealer-generated secret sharing reuse the same term
kernels.
"""

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .common_info import blocks_from_mask
from .dists import (
    CONE_CELL_CAP,
    CapacityError,
    JointDist,
    LINKS,
    PreconditionError,
    SUPPORT_EPS,
    ZERO_TOL,
    dist_to_json,
    is_product,
    join,
    xlogx,
)
from .normal_form import (
    bigraph_connected,
    channel_normal_form,
    check_condition1,
    check_condition2,
    pair_normal_form,
)
from .simplex import (
    FACE_SYMBOLS,
    LATTICE_SYMBOLS,
    SUPPORT_BOUNDARY,
    OptConfig,
    candidate_points,
    coordinate_polish,
    face_points,
    optimize_over_simplex,
)

DEFAULT_CONFIG = OptConfig()
# a later term replaces an earlier one only if strictly better than this;
# keeps exact evaluations and canonical witness labels on near-ties
REPLACE_MARGIN = 1e-6
# a link whose best term is this close to a verified protocol's entropy on
# it skips the remaining bound families
UPPER_TOL = 1e-9
_CHUNK = 256
# cells of one slice of a stack of brackets in _SupportCone.values: 128 KiB
# of float64. Larger temporaries cost page faults on every call, as glibc's
# allocator maps or trims them afresh: up to 3x the time per bracket.
_STACK_CELLS = 1 << 14
# cells of one (rows, n_y) matrix of the nested sweep: 512 KB of float64.
# One such matrix fits a 2 MiB per-core L2 cache; the workspace's five plus
# its mask (2.6 MB) do not.
_SWEEP_CELLS = 1 << 16
# nodes the automorphism search refines at most: group-add 4-8 take 10-14,
# remote-ot m=3 n=2 (64 x 3 x 4) 80
_SEARCH_NODES = 1000

# -- the term table ----------------------------------------------------------

# single-law variants of each link: a residual-information gap plus the
# conditional entropy the cut must carry
_JOINT_VARIANTS = {
    "m12": (("ri_xz", "h_xy_z"), ("ri_yz", "h_xy_z")),
    "m23": (("ri_xz", "h_yz_x"), ("ri_xy", "h_yz_x")),
    "m31": (("ri_yz", "h_xz_y"), ("ri_xy", "h_xz_y")),
}

# evaluation bounds: family -> link -> the kinds tuples maximized at one
# fixed law. "prelim" is also the base of the dealer-share bounds; at a
# product law "intermediate" collects both gaps on the Alice-Bob link.
_EVAL_TERMS = {
    "prelim": _JOINT_VARIANTS,
    "intermediate": {
        "m12": (("ri_xz", "ri_yz", "h_xy_z"),),
        "m23": (("ri_xz", "h_yz_x"),),
        "m31": (("ri_yz", "h_xz_y"),),
    },
}

# every optimized term: "<family>_<link>[_<variant>]" -> (outer label,
# ((inner label, kinds), ...)), grouped by family and link in run order.
# An improved term scores its kinds at its one joint law p_X'Y' (inner label
# None), one term per single-law variant. A switched or conditional term
# maximizes each inner law separately against the outer law. A primed outer
# label is optimized too, and the term is distribution-free: over the joint
# law, or as a nested supremum on its side's shared sweep. "p_X" and "p_Y"
# are the kept marginal of the actual input and are not witnesses.
_TERMS = {
    **{"improved_%s_%s" % (link, kinds[0]): ("p_X'Y'", ((None, kinds),))
       for link, variants in _JOINT_VARIANTS.items() for kinds in variants},
    "switched_m23": ("p_Y", (("p_X'", ("ri_xz",)), ("p_X''", ("h_yz_x",)))),
    "switched_m31": ("p_X", (("p_Y'", ("ri_yz",)), ("p_Y''", ("h_xz_y",)))),
    "switched_m12_top": ("p_X'", (("p_Y'", ("ri_yz",)), ("p_Y''", ("ri_xz", "h_xy_z")))),
    "switched_m12_bottom": ("p_Y'", (("p_X'", ("ri_xz",)), ("p_X''", ("ri_yz", "h_xy_z")))),
    "conditional_m31": ("p_X'", (("p_Y'", ("ri_yz",)), ("p_Y''", ("h_xz_y",)))),
    "conditional_m23": ("p_Y'", (("p_X'", ("ri_xz",)), ("p_X''", ("h_yz_x",)))),
}

# a distribution-free term on a link to Charlie holds only under the link's
# reachable-output connectivity condition, which also forces the link's
# transcript independent of the inputs in the randomness bound
_LINK_CONDITION = {"m23": "condition2", "m31": "condition1"}


def _side(label):
    """"xy" for the joint law, else the input the one-axis law is on."""
    if label == "p_X'Y'":
        return "xy"
    return "x" if label.startswith("p_X") else "y"


def _free(name):
    # distribution-free: a primed outer label
    return _TERMS[name][0].endswith("'")


# inner-term groups of the nested sweeps, per outer side; the kinds of one
# group share one inner distribution
_SWEEP_GROUPS = {
    side: tuple(
        dict.fromkeys(
            kinds
            for name, (outer, inner) in _TERMS.items()
            if _free(name) and _side(outer) == side
            for _, kinds in inner
        )
    )
    for side in "xy"
}
# the product-form kinds pair_values scores, one workspace matrix each
_PAIR_KINDS = ("ri_xz", "ri_yz", "h_xy_z", "h_yz_x", "h_xz_y")
# the sweep's (side, group) pairs in the order a slice folds them: the
# one-kind groups first, so that a longer group can then be summed in place
# into its first kind's matrix, which no later group may read
_SLICE_GROUPS = sorted(((side, g) for side, gs in _SWEEP_GROUPS.items() for g in gs),
                       key=lambda sg: len(sg[1]))
assert not any(g[0] in h for i, (_, g) in enumerate(_SLICE_GROUPS) if len(g) > 1
               for _, h in _SLICE_GROUPS[i + 1:]), "a group summed in place feeds a later one"


def _automorphisms(W):
    """Generators of the automorphism group of a kernel W, as verified
    triples (px, py, pz) with W[px[x], py[y], pz[z]] = W[x, y, z], and the
    nodes refined: individualization and refinement (McKay & Piperno, JSC
    2014) on W's values coded as integers. A colour is a 64-bit hash;
    refining recolours each symbol by the sum over its cells of a hash of
    (code, colours of the cell's three symbols) until no class splits. The
    first path individualizes the first symbol of the first class of two or
    more, the axes in turn, to a discrete leaf; then, deepest level first,
    each other symbol of a class outside the first's orbit under the
    generators found is tried instead, its subtree searched for the first
    leaf whose map from the first leaf preserves W, and a node whose hashes
    differ from the first path's is pruned. After _SEARCH_NODES nodes the
    search stops."""
    # odd multipliers for the cell keys, and splitmix64's for their mixing
    mult = [np.uint64(m) for m in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
                                   0xD6E8FEB86659FD93)]
    code = np.unique(W, return_inverse=True)[1].reshape(W.shape).astype(np.uint64) * mult[3]
    nodes, path, choices, gens = [], [], [], []

    class Capped(Exception):
        pass

    def classes(cols):
        return sum(len(set(c.tolist())) for c in cols)

    def refine(cols):
        # a cell hashes its own symbols' colours too, so a round only splits classes
        if len(nodes) >= _SEARCH_NODES:
            raise Capped
        nodes.append(None)
        count = classes(cols)
        while True:
            cx, cy, cz = (c * m for c, m in zip(cols, mult))
            h = (code + cx[:, None, None] + cy[:, None] + cz) * mult[0]
            h ^= h >> np.uint64(29)
            h *= mult[1]
            h ^= h >> np.uint64(32)
            new = [h.sum(axis=(1, 2)), h.sum(axis=(0, 2)), h.sum(axis=(0, 1))]
            if (n := classes(new)) <= count:
                return new, b"".join(np.sort(c).tobytes() for c in new)
            cols, count = new, n

    def child(node, a, v):
        c = node[0][a] * mult[2]
        c[v] ^= np.uint64(1)
        return refine(node[0][:a] + [c] + node[0][a + 1:])

    def target(cols, depth):
        for a in (depth % 3, (depth + 1) % 3, (depth + 2) % 3):
            vals, counts = np.unique(cols[a], return_counts=True)
            if counts.max() > 1:
                return a, np.flatnonzero(cols[a] == vals[np.argmax(counts > 1)])
        return None

    def find(node, depth):
        if node[1] != path[depth][1]:
            return None
        if depth == len(choices):
            # each symbol to the one of this leaf whose colour has its rank
            g = tuple(np.argsort(c)[np.argsort(np.argsort(c0))]
                      for c, c0 in zip(node[0], path[-1][0]))
            return g if np.array_equal(W[np.ix_(*g)], W) else None
        a, cell = target(node[0], depth)
        return next((g for w in cell if (g := find(child(node, a, w), depth + 1))), None)

    try:
        path.append(refine([np.zeros(n, dtype=np.uint64) for n in W.shape]))
        while (t := target(path[-1][0], len(choices))) is not None:
            choices.append(t)
            path.append(child(path[-1], t[0], t[1][0]))
        for depth in reversed(range(len(choices))):
            a, cell = choices[depth]
            for w in cell[1:]:
                orbit, grown = set(), {int(cell[0])}
                while grown != orbit:
                    orbit, grown = grown, grown | {int(g[a][u]) for g in gens for u in grown}
                if w not in orbit and (g := find(child(path[depth], a, w), depth + 1)):
                    gens.append(g)
    except Capped:
        pass
    return gens, len(nodes)


def _relabel_maps(P, perms):
    """For each permutation p of P's columns, the index map sending row i
    to the row q with q[p[j]] = P[i, j], and whether it found every row:
    ((len(perms), n), (len(perms),)), from one sort and one searchsorted of
    the rows coded as integers, one digit per column."""
    vals, digits = np.unique(P, return_inverse=True)
    digits = digits.reshape(P.shape)
    if not perms or len(vals) ** P.shape[1] >= 1 << 62:
        return np.zeros((len(perms), len(P)), dtype=np.int64), np.zeros(len(perms), dtype=bool)
    code = digits @ len(vals) ** np.arange(P.shape[1])
    order = np.argsort(code)
    moved = (digits @ (len(vals) ** np.array(perms)).T).T  # (len(perms), n)
    idx = order[np.searchsorted(code[order], moved).clip(max=len(P) - 1)]
    return idx, (code[idx] == moved).all(axis=1)


def _first_rows(pts):
    """The rows of candidate_points array pts, each at its first occurrence
    (rows compared as bytes), as a read-only array: the structured points
    repeat lattice rows (3,287 to 3,283 on 4 symbols). Above LATTICE_SYMBOLS
    no row repeats (structured points and Dirichlet draws), and pts itself
    is returned, so a wide scan holds one candidate array, not two."""
    if pts.shape[1] > LATTICE_SYMBOLS:
        return pts
    rows = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1])))[:, 0]
    pts = pts[np.sort(np.unique(rows, return_index=True)[1])]
    pts.flags.writeable = False
    return pts


def _joint_scan(k, cfg, W=None):
    """The scan of a joint law on k cells, which the improved terms' p_X'Y'
    and the dealer-share laws on a support cone both take, as (candidates,
    seeds): the first rows of candidate_points(k, cfg), and, for 4 to
    FACE_SYMBOLS cells, the uniform law on every face of 3 to k - 1 cells
    (face_points); above FACE_SYMBOLS the joint seeds of kernel W
    (_channel_seeds), where one is given, else None. The tight built-in
    terms peak at such a law (AND's m23 and m31 at 1/3 on three cells,
    remote-ot m=2's m12 at 1/6 on six, remote-ot m=3's improved m12 on a
    row-modal law), where the scan then lands and the polish is skipped;
    optimize_over_simplex takes a seed only where that keeps every value at
    least its unseeded one."""
    cands = _first_rows(candidate_points(k, cfg))
    if k > FACE_SYMBOLS:
        return cands, None if W is None else _channel_seeds(W, "xy")
    return cands, face_points(k) if k > 3 else None


def _channel_seeds(W, side):
    """Scan seeds read off a kernel W (nx, ny, nz) for one side, as an (n,
    k) array of laws, or None. For "x" (and likewise "y"), the uniform law
    on the inputs whose slice of W is constant in the other input within
    ZERO_TOL, where at least two but not all inputs are: an automorphism
    maps such an input to another, so the seed is fixed by the group. For
    "xy", flattened joint laws: the products of {uniform, x seed} and
    {uniform, y seed} other than uniform x uniform, then the row-modal and
    column-modal laws, the uniform law on the cells (x, y) whose output law
    W[x, y] is the most frequent one of its row (or column), the first
    such law on a tie; on that support Z is a function of X (or of Y)."""
    if side == "y":
        return _channel_seeds(W.transpose(1, 0, 2), "x")
    if side == "x":
        const = np.abs(W - W[:, :1]).max(axis=(1, 2)) <= ZERO_TOL
        return const[None] / const.sum() if 2 <= const.sum() < len(const) else None
    xs, ys = (_channel_seeds(W, s) for s in "xy")
    laws = [np.outer(a, b) for a in (np.full(W.shape[0], 1 / W.shape[0]), xs)
            for b in (np.full(W.shape[1], 1 / W.shape[1]), ys) if a is not None and b is not None]
    for V, T in ((W, False), (W.transpose(1, 0, 2), True)):
        # same[r, i, j]: cells i and j of row r give one output law, built
        # column by column so no temporary outgrows the kernel
        same = np.stack([np.abs(V - V[:, j:j + 1]).max(axis=2) <= ZERO_TOL
                         for j in range(V.shape[1])], axis=2)
        modal = same[np.arange(len(V)), same.sum(axis=2).argmax(axis=1)]
        laws.append((modal.T if T else modal) / modal.sum())
    return np.array([p.ravel() for p in laws[1:]])


@dataclass
class TermValue:
    name: str
    link: str
    value: float
    witnesses: dict = field(default_factory=dict)  # label -> JointDist
    distribution_free: bool = False
    limit_point: bool = False


def _H(p, axis=-1):
    return -xlogx(p).sum(axis=axis)


def _H_lead(p):
    # entropy over the leading axis, accumulated over its contiguous slices
    # in order, which keeps the temporaries slice-sized
    acc = xlogx(p[0])
    for q in p[1:]:
        acc += xlogx(q)
    return -acc


@dataclass
class _Sweep:
    outer: np.ndarray  # (n_outer, k_out) candidates
    inner: np.ndarray  # (n_inner, k_in) candidates
    best: dict  # group -> (n_outer,) max over the inner candidates
    arg: dict  # group -> (n_outer,) first inner index attaining it


def _support_points(probs):
    return np.nonzero(probs > SUPPORT_EPS)


def _generic_cone(ch):
    """The cone of a channel's generic support, the points (x, y, z) with
    W > SUPPORT_EPS: the support of the joint of every full-support input
    law."""
    return _SupportCone((ch.x_axis, ch.y_axis, ch.z_axis), _support_points(ch.kernel))


# the entropies each term kind sums, with their signs; "blk_<pair>" is the
# law of the pair's first-axis common-part block
_KIND_ENTROPIES = {
    "ri_xz": (("x", 1), ("z", 1), ("xz", -1), ("blk_xz", -1)),
    "ri_yz": (("y", 1), ("z", 1), ("yz", -1), ("blk_yz", -1)),
    "ri_xy": (("x", 1), ("y", 1), ("xy", -1), ("blk_xy", -1)),
    "h_xy_z": (("xyz", 1), ("z", -1)),
    "h_yz_x": (("xyz", 1), ("x", -1)),
    "h_xz_y": (("xyz", 1), ("y", -1)),
}


class _SupportCone:
    """Distributions on (x, y, z) support points, given by their index
    columns. cells[m] is (each point's cell in marginal m, the number of
    cells) for x, y, z, xy, xz, yz and blk_<pair>, the common-part block of
    the point's first-axis symbol in the pair's support graph; labels[pair]
    is that block for every first-axis symbol, -1 for one with no point.

    The one joint-form term kernel. For each kinds tuple, values() builds
    once a 0/1 matrix T from the points onto the marginals those kinds read
    and a weight vector w folding the cell sums, the entropy's minus sign
    and the kinds' signs together; a marginal whose signs cancel is left
    out, and the joint's own cells stand in for the xyz marginal, so T holds
    no identity block. A batch is then scored in _CHUNK-row slices as
    xlogx(cells) @ w, one GEMM and one xlogx per slice. A 3-D stack of
    brackets is scored in slices of as many whole brackets as fit
    _STACK_CELLS cells, by stacked matmuls, which numpy runs as one GEMM
    and one gemv per bracket: each bracket's floats are those of the
    bracket scored alone, which a flattened (brackets x rows) batch would
    not keep, as BLAS rounds a product's rows differently with its height.
    """

    def __init__(self, axes, index):
        self.axes = tuple(axes)
        self.index = tuple(index)  # fancy index of the points in a dense joint
        self.n_points = len(self.index[0])
        shape = nx, ny, nz = tuple(len(a) for a in self.axes)
        cells = self.n_points * (nx + ny + nz + nx * ny + nx * nz + ny * nz)
        if cells > CONE_CELL_CAP:
            raise CapacityError(
                "support cone of %d points over %dx%dx%d needs %d point-by-marginal cells (points x"
                " the cells of its axes and axis pairs), over the cap of %d"
                % (self.n_points, nx, ny, nz, cells, CONE_CELL_CAP)
            )
        self.cells = {ax: (i, n) for ax, i, n in zip("xyz", self.index, shape)}
        self.labels = {}
        for key, (i, j) in {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}.items():
            u, v = self.index[i], self.index[j]
            mask = np.zeros((shape[i], shape[j]), dtype=bool)
            mask[u, v] = True
            self.labels[key], _, nb = blocks_from_mask(mask)
            self.cells[key] = (u * shape[j] + v, shape[i] * shape[j])
            self.cells["blk_" + key] = (self.labels[key][u], max(nb, 1))
        self._kernels = {}  # kinds -> (reads the xyz cells, T, w)

    def connected(self, key):
        return self.cells["blk_" + key][1] <= 1

    def to_dist(self, q):
        probs = np.zeros(tuple(len(a) for a in self.axes))
        probs[self.index] = q
        return JointDist(self.axes, probs)

    def _kernel(self, kinds):
        key = tuple(kinds)
        if key not in self._kernels:
            coef = {}
            for kind in key:
                if kind not in _KIND_ENTROPIES:
                    raise ValueError("unknown term kind %r" % kind)
                for m, c in _KIND_ENTROPIES[kind]:
                    coef[m] = coef.get(m, 0) + c
            xyz = coef.pop("xyz", 0)
            margs = [m for m, c in coef.items() if c]
            sizes = [self.cells[m][1] for m in margs]
            # one 1 per point and marginal, in the marginal's block of columns
            T, rows = np.zeros((self.n_points, sum(sizes))), np.arange(self.n_points)
            for m, lo in zip(margs, np.cumsum([0] + sizes)):
                T[rows, lo + self.cells[m][0]] = 1.0
            # the cells are the xyz cells, if read, then T's columns
            w = np.concatenate([np.full(self.n_points if xyz else 0, -xyz)]
                               + [np.full(n, -coef[m]) for m, n in zip(margs, sizes)])
            self._kernels[key] = (bool(xyz), T, w.astype(float))
        return self._kernels[key]

    def values(self, Qs, kinds):
        """Sum of term values for each cone distribution: the (n,) values of
        an (n, n_points) batch or the (b, r) values of a (b, r, n_points)
        stack of brackets."""
        # in C order: the GEMM rounds an F-ordered operand's products differently
        Qs = np.ascontiguousarray(Qs, dtype=float)
        xyz, T, w = self._kernel(kinds)
        if Qs.ndim == 3:
            # whole brackets per slice, as many as fit _STACK_CELLS cells
            step = max(1, _STACK_CELLS // (Qs.shape[1] * len(w)))
        else:
            Qs, step = np.atleast_2d(Qs), _CHUNK

        def score(q):
            cells = np.concatenate([q, q @ T], axis=-1) if xyz else q @ T
            return xlogx(cells) @ w

        if len(Qs) <= step:
            return score(Qs)
        return np.concatenate([score(Qs[lo:lo + step]) for lo in range(0, len(Qs), step)])

    def slopes(self, q, kinds, D):
        """One-sided derivative of the kinds' sum at the cone law q along
        each row of the (n, n_points) directions D, from values()' kernel,
        in parts that add over terms: a (3, n) array of the finite part, the
        t log t coefficient kappa and its scale, which _one_sided resolves.

        A cell above SUPPORT_EPS, the clip xlogx applies, adds w * delta *
        (log2 cell + 1/ln 2), one gemv over all directions. A cell at zero
        that a direction opens (delta > 0) grows like w * delta * t log t
        + w * delta * log2(delta) * t: it adds w * delta to kappa, |w *
        delta| to the scale and w * delta * log2 delta to the finite part.
        No log is clipped."""
        xyz, T, w = self._kernel(kinds)
        cells = np.concatenate([q, q @ T]) if xyz else q @ T
        delta = np.concatenate([D, D @ T], axis=1) if xyz else D @ T
        on = cells > SUPPORT_EPS
        parts = np.zeros((3, len(D)))
        parts[0] = delta[:, on] @ (w[on] * (np.log2(cells[on]) + 1.0 / np.log(2.0)))
        opened = np.maximum(delta[:, ~on], 0.0)
        if opened.any():
            wd = opened * w[~on]
            parts[0] += (wd * np.log2(np.where(opened > 0, opened, 1.0))).sum(axis=1)
            parts[1], parts[2] = wd.sum(axis=1), np.abs(wd).sum(axis=1)
        return parts


def _one_sided(parts):
    """The (n,) one-sided slopes of _SupportCone.slopes' parts, summed over
    any number of terms: the finite part where kappa vanishes, to
    SUPPORT_EPS of its scale, as a mass below SUPPORT_EPS is zero to the
    kernel; else +inf where kappa < 0 (the opened cells' t log t term, with
    log t -> -inf, dominates) and -inf where kappa > 0."""
    finite, kappa, scale = parts
    return np.where(np.abs(kappa) <= SUPPORT_EPS * scale, finite,
                    np.where(kappa < 0, np.inf, -np.inf))


class _TermBank:
    """Vectorized entropy kernels for one channel.

    joint_values scores every small term call on the cone of the channel's
    generic support, the points (x, y, z) with W > SUPPORT_EPS: the support
    of the joint of every full-support input law, whose common-part blocks
    every such law shares. Every W row sums to 1, so the cone's (X,Y) graph
    is complete. Product-form terms reach it through their product laws.

    pair_values serves only the nested sweep's x-candidate x y-candidate
    grid, one slice of x candidates per call. It reads a z-major copy of W,
    Wz of shape (nz, nx, ny), made here once. A batch of x laws A maps to
    the output laws A @ Wz, (nz, n, ny), whose z-th slice meets the y laws B
    in one GEMM, (n, ny) @ (ny, m): the z-th cells of every pair's output
    law, which are taken x log x in place and summed into one (n, m)
    matrix, z by z. Every scan reads candidates(side), one side's laws
    built once, on first use, each law once, with its channel seeds.
    """

    def __init__(self, ch, cfg=DEFAULT_CONFIG):
        self.ch, self.cfg = ch, cfg
        self._cands = {}  # side -> (scan candidates, seeds), see candidates()
        W = np.asarray(ch.kernel)
        self.nx, self.ny, self.nz = W.shape
        self.Wz = np.ascontiguousarray(W.transpose(2, 0, 1))  # z-major, (nz, nx, ny)
        self.Hrow = _H(W)  # (nx, ny)
        self.cone = _generic_cone(ch)
        # Q.reshape(-1, nx * ny) @ M is the joint of input laws Q on the cone
        x, y, z = self.cone.index
        self.M = np.zeros((self.nx * self.ny, self.cone.n_points))
        self.M[x * self.ny + y, np.arange(self.cone.n_points)] = W[x, y, z]
        # x-side blocks of the (X,Z) graph and y-side blocks of the (Y,Z)
        # graph, one 0/1 column each; a symbol with no point has a zero row
        labels, cells = self.cone.labels, self.cone.cells
        self.Lx, self.Ly = ((labels[k][:, None] == np.arange(cells["blk_" + k][1])).astype(float)
                            for k in ("xz", "yz"))

    def candidates(self, side):
        return self._scan(side)[0]

    def seeds(self, side):
        """The scan's seeds of one side: the joint law's face or channel
        seeds for "xy" (_scan), None for "x" and "y"."""
        return self._scan(side)[1]

    def _scan(self, side):
        """(candidates, seeds) of one side, built on first use, candidates
        first, so an oversize side raises before its seeds cost anything. An
        input side appends its channel seed (_channel_seeds) unless it is a
        row already; the joint side is _joint_scan's, given the kernel."""
        if side not in self._cands:
            W = np.asarray(self.ch.kernel)
            if side == "xy":
                cands, seeds = _joint_scan(self.nx * self.ny, self.cfg, W)
            else:
                k = self.nx if side == "x" else self.ny
                cands, seeds = _first_rows(candidate_points(k, self.cfg)), None
                seed = _channel_seeds(W, side)
                if seed is not None and not (cands == seed).all(axis=1).any():
                    cands = np.concatenate([cands, seed])
                    cands.flags.writeable = False
            self._cands[side] = cands, seeds
        return self._cands[side]

    # -- product-form terms: A (n,nx) x B (m,ny), value matrices (n,m) ------
    # Output laws are z-major, (nz, ..., ...): a law's z cells lie in nz
    # contiguous slices, so their entropies accumulate slice by slice.

    def _pre_a(self, A):
        # C[:, n, y] is the output law at y once x ~ A[n]; G is (n, ny), H and blk (n,)
        C = A @ self.Wz  # (nz, n, ny)
        return {"C": C, "G": _H_lead(C), "H": _H(A), "blk": _H(A @ self.Lx)}

    def _pre_b(self, B):
        # G[x, m] is the entropy of the output law at x once y ~ B[m]; H and blk (m,)
        C = self.Wz @ B.T  # (nz, nx, m)
        return {"G": _H_lead(C), "H": _H(B), "blk": _H(B @ self.Ly)}

    def pair_values(self, A, B, kinds, _work=None):
        """Evaluate product-form terms for all (A_i, B_j) pairs, one (len(A),
        len(B)) matrix per kind of `kinds`, in that order. All five kinds of
        _PAIR_KINDS are computed on every call, as each serves as another's
        scratch; `kinds` only picks the ones returned, so that a caller
        outside the sweep (the tests) gets the kinds of one group. The
        nested sweep passes its slices of x laws with one _PairWork made for
        B, whose five matrices then hold every kind's result until the next
        call; without one, the matrices and so the returned ones are fresh.
        No (nz, len(A), len(B)) array is built."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        w = _PairWork(self, B, len(A)) if _work is None else _work
        n, Bt = len(A), w.Bt
        pa, pb = self._pre_a(A), w.pre_b
        ri_xz, ri_yz, h_xy_z, h_yz_x, h_xz_y = (w.mats[kind][:n] for kind in _PAIR_KINDS)
        # h_z accumulates in ri_xz's matrix; the z-th cells of the output
        # laws and their log scratch use ri_yz's and h_xy_z's, not yet written
        h_z, xlog = ri_xz, (h_xy_z, w.off[:n])
        for z, C in enumerate(pa["C"]):
            # the z-th cells of the output laws, x log x taken in place
            Pz = h_z if z == 0 else ri_yz
            np.matmul(C, Bt, out=Pz)
            xlogx(Pz, work=xlog)
            if z:
                h_z += Pz
        np.negative(h_z, out=h_z)
        bil = h_yz_x  # becomes h_yz_x in place once h_xy_z and h_xz_y read it
        np.matmul(A @ self.Hrow, Bt, out=bil)
        # each kind left to right, in an order that reads h_z and bil before
        # their matrices are overwritten
        np.matmul(pa["G"], Bt, out=ri_yz)
        np.subtract(h_z, ri_yz, out=ri_yz)
        ri_yz -= pb["blk"][None, :]
        np.add(pa["H"][:, None], pb["H"][None, :], out=h_xy_z)
        h_xy_z += bil
        h_xy_z -= h_z
        np.matmul(A, pb["G"], out=h_xz_y)  # A.G_b, before h_xz_y is written
        np.subtract(h_z, h_xz_y, out=ri_xz)
        ri_xz -= pa["blk"][:, None]
        np.add(pa["H"][:, None], bil, out=h_xz_y)
        np.add(pb["H"][None, :], bil, out=h_yz_x)
        return [w.mats[kind][:n] for kind in kinds]

    def sweep(self, side):
        """Every inner-term group of one outer side, maximized over the inner
        candidates for each outer candidate; both sides come from one pass
        over the grid, made on the first call."""
        return self._sweeps[side]

    def _orbits(self, A, B):
        """The group generated by the automorphisms that keep both candidate
        sets, on the candidates: index maps (G, len(A)) and (G, len(B)), one
        element per x map, the identity first, whose row g sends candidate i
        to its relabelling by element g; and krep, each y candidate's first
        index in its orbit under K, the elements with pi_X the identity, which
        fix every x candidate. The closure is keyed by pi_X, so it keeps one
        element per x map (at most 720, where the group may hold 720^2), its
        index maps composed once, from its parent's: a transversal of K, which
        is normal, so any element may stand for its x map, and K is reached
        through its Schreier generators. The identity only, with no search,
        where a side has Dirichlet draws or the grid holds at most
        _SWEEP_CELLS cells: there the search costs more than the grid it would
        shrink (0.58 against 0.40 ms on AND's 51 x 51 candidates)."""
        ident = tuple(range(self.nx))
        group, todo, gens = {ident: (np.arange(len(A)), np.arange(len(B)))}, [ident], []
        if max(self.nx, self.ny) <= LATTICE_SYMBOLS and len(A) * len(B) > _SWEEP_CELLS:
            gens, _ = _automorphisms(np.asarray(self.ch.kernel))
            (mx, fx), (my, fy) = (_relabel_maps(P, [g[i] for g in gens])
                                  for i, P in enumerate((A, B)))
            gens = [(g[0].tolist(), gx, gy) for g, gx, gy, ok in zip(gens, mx, my, fx & fy) if ok]
        while todo:  # the closure: a composition of automorphisms is one
            ex, ey = group[px := todo.pop()]
            for gpx, gx, gy in gens:
                if (h := tuple(gpx[i] for i in px)) not in group:
                    group[h] = gx[ex], gy[ey]
                    todo.append(h)
        # K's Schreier generators t'^-1 s t on the y candidates, t in the
        # closure, s a generator, t' the element of s t's x map, each once
        inv, ks, krep = {px: np.argsort(m[1]) for px, m in group.items()}, {}, np.arange(len(B))
        for px, (_, ey) in group.items():
            for gpx, _, gy in gens:
                k = inv[tuple(gpx[i] for i in px)][gy[ey]]
                ks[k.tobytes()] = k
        while True:  # the least index along them, until none moves
            prev = krep
            for k in ks.values():
                krep = np.minimum(krep, krep[k])
            if np.array_equal(krep, prev):
                break
        sx, sy = (np.stack(m) for m in zip(*group.values()))
        return sx, sy, krep

    @functools.cached_property
    def _sweeps(self):
        """One pass over the rows of the orbit representatives (the first x
        candidate of each orbit) against the columns of the K representatives
        (krep of _orbits) in slices, filled in by the index maps sx, sy. A
        group's value V(i, j) at (A[i], B[j]) equals V(sx[g, i], sy[g, j])
        for every element g, and V(i, krep[j]) as K fixes every x candidate,
        so y candidate j takes the column max of krep[j]. Then x candidate
        sx[g, r] takes the max of its representative r, at y candidate sy[g,
        arg], and y candidate j the largest over g of the column max at the
        column sy[g] sends to j, at x candidate sx[g, rep], the first g
        winning a tie. A filled-in max is another cell's float, so it may
        differ in its last bits and its argmax move within its orbit against
        the full grid; the trivial group gives the full grid bit for bit."""
        A, B = self.candidates("x"), self.candidates("y")
        sx, sy, krep = self._orbits(A, B)
        reps = np.flatnonzero(sx.min(axis=0) == np.arange(len(A)))
        kreps = np.flatnonzero(krep == np.arange(len(B)))

        def fresh(side, outer, inner):
            gs = _SWEEP_GROUPS[side]
            return _Sweep(outer, inner, {g: np.full(len(outer), -np.inf) for g in gs},
                          {g: np.zeros(len(outer), dtype=int) for g in gs})

        R, C = A[reps], B[kreps]
        part = {"x": fresh("x", R, C), "y": fresh("y", C, R)}
        rows = max(1, min(_CHUNK, len(R), _SWEEP_CELLS // len(C)))
        work = _PairWork(self, C, rows)
        for lo in range(0, len(R), rows):
            self._reduce_slice(part, R[lo:lo + rows], work, lo)
        # each x candidate from the first element that reaches it from a representative
        g, r = np.divmod(np.unique(sx[:, reps], return_index=True)[1], len(reps))
        x = _Sweep(A, B, {k: v[r] for k, v in part["x"].best.items()},
                   {k: sy[g, kreps[v[r]]] for k, v in part["x"].arg.items()})
        # (G, len(B)): the K-representative's column of the column each element sends to j
        at = np.searchsorted(kreps, krep)[np.argsort(sy, axis=1)]
        y, cols = _Sweep(B, A, {}, {}), np.arange(len(B))
        for k, best in part["y"].best.items():
            vals = best[at]
            h = vals.argmax(axis=0)
            y.best[k], y.arg[k] = vals[h, cols], sx[h, reps[part["y"].arg[k][at[h, cols]]]]
        return {"x": x, "y": y}

    def _reduce_slice(self, sweeps, A, work, lo):
        """Fold one slice of x candidates A, rows lo on of the sweep's x
        side, against the y candidates work.B into both sides' sweeps: an
        x-side group's max and first argmax per row, and a y-side group's
        running max per column over the slices. V.max(axis=0) finds the
        columns that rise above it (strict >, so the first slice wins a
        tie), and only those take the strided argmax, in blocks of at most
        _STACK_CELLS cells. The one-kind groups are reduced first; a longer
        group is then summed in place into its first kind's matrix, which no
        later group reads (ri_xz += h_xy_z, ri_yz += h_xy_z)."""
        mats = dict(zip(_PAIR_KINDS, self.pair_values(A, work.B, _PAIR_KINDS, work)))
        x, y = sweeps["x"], sweeps["y"]
        for side, g in _SLICE_GROUPS:
            V = mats[g[0]]  # (len(A), len(work.B))
            for k in g[1:]:
                V += mats[k]
            if side == "x":
                arg = V.argmax(axis=1)
                x.best[g][lo:lo + len(A)] = np.take_along_axis(V, arg[:, None], axis=1)[:, 0]
                x.arg[g][lo:lo + len(A)] = arg
            else:
                # running max over x slices; strict > keeps the first index on ties
                best, args = y.best[g], y.arg[g]
                rising = np.flatnonzero(V.max(axis=0) > best)
                step = max(1, _STACK_CELLS // len(V))
                for c in range(0, rising.size, step):
                    cols = rising[c:c + step]
                    arg = V[:, cols].argmax(axis=0)
                    best[cols] = V[arg, cols]
                    args[cols] = arg + lo

    # -- joint-form terms: Q (n, nx, ny) -------------------------------------

    def joint_values(self, Q, kinds):
        """Sum of joint-form terms for each input law of the batch Q, an
        (..., nx, ny) array of laws, as a (...) array."""
        Q = np.asarray(Q, dtype=float)
        return self.cone.values(Q.reshape(Q.shape[:-2] + (self.nx * self.ny,)) @ self.M, kinds)

    def joint_slopes(self, p, kinds):
        """One-sided slopes of the kinds' sum at the joint input law p, a
        flat (nx * ny,) law, along e_j - p for every cell j: the vertex e_j
        maps to the cone law M[j], so the direction is M[j] - p @ M."""
        q = p @ self.M
        return _one_sided(self.cone.slopes(q, kinds, self.M - q))


class _PairWork:
    """pair_values' workspace for one batch of y laws B: B's side of the
    kernel, computed once (pre_b, and Bt, a C-contiguous copy of B.T that
    every GEMM of a slice takes as its right operand: a product on the
    transposed view costs about twice as much), and five (rows, len(B))
    matrices, one per product-form kind, plus a bool mask for x log x, that
    hold a slice of at most `rows` x laws as [:n] views; pair_values writes
    its scratch into the kind matrices not yet written."""

    def __init__(self, bank, B, rows):
        self.B, self.Bt, self.pre_b = B, np.ascontiguousarray(B.T), bank._pre_b(B)
        shape = (rows, len(B))
        self.mats = {kind: np.empty(shape) for kind in _PAIR_KINDS}
        self.off = np.empty(shape, dtype=bool)


def _as_prob_vector(p, size, what):
    if isinstance(p, JointDist):
        if p.n_axes != 1:
            raise ValueError("%s must be a 1-axis distribution" % what)
        p = p.probs
    p = np.asarray(p, dtype=float).ravel()
    if p.size != size:
        raise ValueError("%s has size %d, expected %d" % (what, p.size, size))
    return p


# ---------------------------------------------------------------------------
# Evaluation bounds (no optimization)


def _evaluate(family, p_xyz, cone=None):
    """An evaluation bound of _EVAL_TERMS at a 3-axis joint, {link: value}:
    per link, the largest of its kinds tuples at the joint, scored on `cone`
    (by default the cone of the joint's own support). Every kind is scored
    once on its own and a tuple summed in table order: a fused call cancels
    the entropies its kinds share inside one dot product, which read
    group-add 5's intermediate m12 4e-15 above log2(5)."""
    if cone is None:
        cone = _SupportCone(p_xyz.axes, _support_points(p_xyz.probs))
    q = p_xyz.probs[cone.index]
    value = {k: float(cone.values(q, (k,))[0]) for k in _KIND_ENTROPIES}
    return {link: max(sum(value[k] for k in kinds) for kinds in variants)
            for link, variants in _EVAL_TERMS[family].items()}


def prelim_bounds(p_xy, ch):
    """Per-link bounds at the pair's normal form: max residual information
    against the output or the co-input, plus the conditional entropy the cut
    must carry."""
    return _evaluate("prelim", join(*pair_normal_form(p_xy, ch).reduced))


def _full_support_inputs(p_x, p_y, ch):
    """Independent input laws of `ch` as vectors, each of full support."""
    px = _as_prob_vector(p_x, len(ch.x_axis), "p_x")
    py = _as_prob_vector(p_y, len(ch.y_axis), "p_y")
    if px.min() <= SUPPORT_EPS or py.min() <= SUPPORT_EPS:
        raise PreconditionError("inputs must have full support")
    return px, py


def intermediate_bounds(p_x, p_y, ch):
    """Per-link bounds for independent full-support inputs; the Alice-Bob
    link collects both residual-information terms. The product joint has
    the channel's generic support, so it is scored on that cone, as the
    optimized families are."""
    px, py = _full_support_inputs(p_x, p_y, ch)
    p_xy = JointDist((ch.x_axis, ch.y_axis), np.outer(px, py))
    return _evaluate("intermediate", join(p_xy, ch), _generic_cone(ch))


# ---------------------------------------------------------------------------
# Optimized bounds


def _optimize_joint(bank, name):
    """An improved term: its kinds maximized over full-support p_X'Y'."""
    nx, ny = bank.nx, bank.ny
    (_, kinds), = _TERMS[name][1]
    res = optimize_over_simplex(
        lambda Q: _group_values(bank, "xy", Q.reshape(Q.shape[:-1] + (nx, ny)), None, kinds),
        lambda p: bank.joint_slopes(p, kinds), bank.candidates("xy"), bank.cfg,
        seeds=bank.seeds("xy"),
    )
    return _term(bank, name, [res.witness.reshape(nx, ny)], res.value, res.limit_point)


def improved_bounds(ch, cfg=DEFAULT_CONFIG):
    """Optimized single-distribution bounds over full-support joint inputs.

    The Alice-Bob link is unconditional; the other two links require the
    reachable-output connectivity conditions and are None otherwise.
    Returns {link: best TermValue or None}; the winning variant is named
    in the TermValue's name.
    """
    return _family(ch, "improved", cfg)


def _group_values(bank, side, outer, p, kinds):
    """One group's kinds scored on the cone: at the joint law `outer` if
    `side` is "xy", else at the product of the outer law, on `side`, and the
    inner law p, where every product-form kind equals its joint-form kind.
    At most one law may be a batch (..., k) of rows, giving one value per
    row; a single law gives one value."""
    if side == "xy":
        return bank.joint_values(outer, kinds)
    a, b = np.atleast_2d(outer), np.atleast_2d(p)
    if side == "y":
        a, b = b, a
    return bank.joint_values(a[..., :, None] * b[..., None, :], kinds)


def _group_slopes(bank, side, outer, p, kinds):
    """The slope parts (_SupportCone.slopes) of _group_values at single
    product laws, as a pair: along e_j - outer for each symbol j of the
    outer law's side, and along e_j - p for each symbol j of the inner
    law's. With a the x law and b the y law, (e_j - a) x b maps to the
    cone law of e_j x b less that of a x b, and so does a x (e_j - b)."""
    a, b = (outer, p) if side == "x" else (p, outer)
    Mr = bank.M.reshape(bank.nx, bank.ny, -1)
    xs = b @ Mr  # (nx, n_points): e_j x b on the cone
    q = a @ xs
    ys = np.tensordot(a, Mr, 1)  # (ny, n_points): a x e_j on the cone
    s = bank.cone.slopes(q, kinds, np.concatenate([xs, ys]) - q)
    sa, sb = s[:, :bank.nx], s[:, bank.nx:]
    return (sa, sb) if side == "x" else (sb, sa)


def _term(bank, name, pts, value, limit):
    """The TermValue of `name`, whose witnesses are its primed outer law,
    if any, then its inner laws, given in that order as `pts`."""
    (outer, inner), ch = _TERMS[name], bank.ch
    labels = [outer] * _free(name) + [lab for lab, _ in inner if lab is not None]
    axes = {"x": (ch.x_axis,), "y": (ch.y_axis,), "xy": (ch.x_axis, ch.y_axis)}
    return TermValue(
        name=name,
        link=name.split("_")[1],
        value=value,
        witnesses={lab: JointDist(axes[_side(lab)], p) for lab, p in zip(labels, pts)},
        distribution_free=_free(name),
        limit_point=limit,
    )


def _switched_single(bank, name, marginal):
    """A switched term at the kept input marginal: each inner law maximized
    on its own against it."""
    outer, inner = _TERMS[name]
    side = _side(outer)
    cands = bank.candidates("y" if side == "x" else "x")
    res = [
        optimize_over_simplex(
            lambda P, kinds=kinds: _group_values(bank, side, marginal, P, kinds),
            lambda p, kinds=kinds: _one_sided(_group_slopes(bank, side, marginal, p, kinds)[1]),
            cands, bank.cfg,
        )
        for _, kinds in inner
    ]
    return _term(bank, name, [r.witness for r in res], sum(r.value for r in res),
                 any(r.limit_point for r in res))


def _nested(bank, name):
    """sup over the outer distribution of a sum of independently supremized
    inner terms, innermost evaluated first on the side's shared sweep, then a
    joint coordinate polish whose line searches score each round of their
    stacked brackets with one cone call per inner group (_group_values).

    The term's inner groups are groups of _SWEEP_GROUPS of its outer side
    (each inner distribution may carry a sum of kinds, e.g. ri_xz + h_xy_z
    shares one inner variable). One fused pass per bank scores the grid
    for both sides' groups. While the polish moves one law, an inner group
    that law does not enter is scored once, not per bracket.
    """
    outer, inner = _TERMS[name]
    side = _side(outer)
    groups = [kinds for _, kinds in inner]
    sw = bank.sweep(side)
    totals = np.zeros(len(sw.outer))
    for kinds in groups:
        totals += sw.best[kinds]
    i = int(np.argmax(totals))
    pts = [sw.outer[i].copy()] + [sw.inner[sw.arg[kinds][i]].copy() for kinds in groups]

    fixed = {}

    def group_values(outer, p, kinds):
        if outer.ndim > 1 or p.ndim > 1:
            return _group_values(bank, side, outer, p, kinds)
        # both laws held by the line search: the same value on every bracket
        key = (kinds, outer.tobytes(), p.tobytes())
        if key not in fixed:
            fixed[key] = _group_values(bank, side, outer, p, kinds)
        return fixed[key]

    def values(s, rows, ps):
        # rows in place of law s: one joint_values call per inner group it enters
        laws = ps[:s] + [rows] + ps[s + 1:]
        return sum(group_values(laws[0], p, kinds) for p, kinds in zip(laws[1:], groups))

    def slopes(ps):
        # the outer law enters every group, whose parts add; each inner law its own
        per = [_group_slopes(bank, side, ps[0], p, kinds) for p, kinds in zip(ps[1:], groups)]
        return [_one_sided(sum(o for o, _ in per))] + [_one_sided(s) for _, s in per]

    value, pts, _ = coordinate_polish(values, slopes, pts, bank.cfg, value=float(totals[i]))
    limit = any(p.min() <= SUPPORT_BOUNDARY for p in pts)
    return _term(bank, name, pts, value, limit)


def switched_bounds(ch, p_x, p_y, cfg=DEFAULT_CONFIG):
    """Separately-optimized switched bounds for independent full-support inputs.

    The Bob-Charlie and Charlie-Alice links keep the actual marginal of the
    non-switched input; the Alice-Bob value is the larger of the two nested
    rows and does not depend on the input distribution.
    """
    px, py = _full_support_inputs(p_x, p_y, ch)
    return _family(ch, "switched", cfg, px, py)


def conditional_bounds(ch, cfg=DEFAULT_CONFIG):
    """Nested switched bounds for the links to Charlie, gated on the
    reachable-output connectivity conditions; None when not applicable."""
    return _family(ch, "conditional", cfg)


def _family(ch, family, cfg, px=None, py=None):
    """One family's {link: TermValue or None} on `ch` as given, from the
    walker; px and py are the kept marginals the switched family reads."""
    conditions = {"condition1": check_condition1(ch), "condition2": check_condition2(ch)}
    return {link: None if term is None else term()
            for fam, link, term in _families(_TermBank(ch, cfg), px, py, conditions)
            if fam == family}


def _families(bank, px, py, conditions):
    """The families after the evaluation bound, in cost order, as (family,
    link, term) for every link of every family: `term()` computes that
    link's term, and is None where _LINK_CONDITION leaves the link out.
    The intermediate bound, computed for all links at once, runs on the
    first call for any link; the optimized families follow _TERMS, each
    link keeping the better of its terms, and the bank's nested sweep runs
    on the first nested term and serves both nested families."""
    intermediate = functools.cache(lambda: intermediate_bounds(px, py, bank.ch))
    for link in LINKS:
        yield "intermediate", link, functools.partial(
            lambda link: TermValue(name="intermediate_" + link, link=link,
                                   value=intermediate()[link]), link)
    for (family, link), names in itertools.groupby(_TERMS, lambda n: n.split("_")[:2]):
        names = list(names)
        cond = _LINK_CONDITION.get(link) if _free(names[0]) else None
        yield family, link, None if cond and not conditions[cond] else functools.partial(
            lambda names: _pick([_run_term(bank, n, px, py) for n in names]), names)


def _run_term(bank, name, px, py):
    """Optimize one _TERMS entry, by its outer law: the joint law alone, a
    kept input marginal (px or py), or a nested supremum."""
    outer = _TERMS[name][0]
    if _side(outer) == "xy":
        return _optimize_joint(bank, name)
    if not _free(name):
        return _switched_single(bank, name, px if outer == "p_X" else py)
    return _nested(bank, name)


def term_value(ch, name, dists):
    """Re-evaluate one optimized term of `ch` at given laws.

    `name` is the name of a TermValue from improved_bounds, switched_bounds
    or conditional_bounds, and `dists` maps the term's witness labels to
    laws (JointDist or arrays). switched_m23 and switched_m31 also read the
    kept input marginal, under "p_Y" and "p_X". An array may carry leading
    batch axes, which broadcast against the other laws' (one bank scores
    them all): the value is a float for single laws and an array of the
    broadcast batch shape otherwise.
    """
    if name not in _TERMS:
        raise ValueError("unknown term %r" % name)
    bank = _TermBank(ch)
    shapes = {"x": (bank.nx,), "y": (bank.ny,), "xy": (bank.nx, bank.ny)}

    def law(label):
        # (..., |input|) laws on one input, or (..., |X|, |Y|) joint laws; a
        # JointDist is one law
        p, shape = dists[label], shapes[_side(label)]
        q = np.asarray(p.probs if isinstance(p, JointDist) else p, dtype=float)
        if q.shape[-len(shape):] != shape or (isinstance(p, JointDist) and q.ndim != len(shape)):
            raise ValueError("%s has shape %s, not %s after any batch axes"
                             % (label, q.shape, shape))
        return q

    outer, inner = _TERMS[name]
    laws = {lab: law(lab) for lab in [outer] + [lab for lab, _ in inner if lab is not None]}
    total = sum(_group_values(bank, _side(outer), laws[outer], laws.get(lab), kinds)
                for lab, kinds in inner)
    single = all(q.ndim == len(shapes[_side(lab)]) for lab, q in laws.items())
    return float(total[0]) if single else total


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class LinkBound:
    value: float
    theorem: str
    witnesses: dict
    distribution_free: bool
    limit_point: bool
    terms: list
    upper: float | None = None  # a verified protocol's entropy on the link, if given
    skipped: tuple = ()  # families left out once the link met `upper`


@dataclass
class BoundReport:
    h_m12: LinkBound
    h_m23: LinkBound
    h_m31: LinkBound
    rho: float
    conditions: dict
    merges: dict
    config: OptConfig

    def link(self, name):
        return {"m12": self.h_m12, "m23": self.h_m23, "m31": self.h_m31}[name]

    def to_json(self):
        def link_json(lb):
            out = {
                "value": lb.value,
                "theorem": lb.theorem,
                "distribution_free": lb.distribution_free,
                "limit_point": lb.limit_point,
                "witnesses": {k: dist_to_json(v) for k, v in lb.witnesses.items()},
                "terms": [
                    {"name": t.name, "value": t.value, "distribution_free": t.distribution_free}
                    for t in lb.terms
                ],
            }
            if lb.upper is not None:
                out["upper"] = lb.upper
                out["skipped"] = list(lb.skipped)
            return out

        return {
            "links": {name: link_json(self.link(name)) for name in LINKS},
            "rho": self.rho,
            "conditions": self.conditions,
            "merges": {
                ax: {str(k): (None if v is None else str(v)) for k, v in m.items()}
                for ax, m in self.merges.items()
            },
            "config": dataclasses.asdict(self.config),
        }


def _pick(terms):
    best = None
    for t in terms:
        if best is None or t.value > best.value + REPLACE_MARGIN:
            best = t
    return best


def _link_bound(terms, upper=None, skipped=()):
    """The link's best term, with every candidate term kept for the report."""
    best = _pick(terms)
    return LinkBound(
        value=best.value,
        theorem=best.name,
        witnesses=best.witnesses,
        distribution_free=best.distribution_free,
        limit_point=best.limit_point,
        terms=terms,
        upper=upper,
        skipped=tuple(skipped),
    )


def best_bounds(p_xy, ch, cfg=DEFAULT_CONFIG, upper=None):
    """Per-link maximum over every applicable bound family.

    Normalizes the channel internally and records the merges; prelim_bounds
    reduces the pair, once, for the evaluation bound. Dependent full-support
    inputs are handled through the product of their marginals where a bound
    family needs independence.

    The families run in cost order: evaluation, intermediate, improved,
    switched, conditional. `upper`, when given, maps each link to the link
    entropy of a protocol verified correct and private at p_xy. Every term
    is a lower bound on that entropy, so once a link's best term is within
    UPPER_TOL of it the link skips the remaining families: a skipped term
    could replace the kept one only by beating it by REPLACE_MARGIN. Link
    values, theorems, witnesses and rho are those of the full computation;
    the report records `upper` and the skipped families per link.
    """
    if p_xy.n_axes != 2 or p_xy.axes[0] != ch.x_axis or p_xy.axes[1] != ch.y_axis:
        raise ValueError("input distribution axes do not match the channel alphabets")
    chres = channel_normal_form(ch)
    ch_n = chres.reduced
    p_n = _push_inputs(p_xy, chres, ch_n)

    conditions = {
        "bigraph_connected": bigraph_connected(p_n),
        "condition1": check_condition1(ch_n),
        "condition2": check_condition2(ch_n),
        "full_support": bool(p_n.probs.min() > SUPPORT_EPS),
        "product_inputs": is_product(p_n),
    }

    terms = {
        link: [TermValue(name="prelim_%s" % link, link=link, value=v)]
        for link, v in prelim_bounds(p_n, ch_n).items()
    }
    skipped = {link: [] for link in LINKS}

    if conditions["full_support"]:
        px, py = p_n.probs.sum(axis=1), p_n.probs.sum(axis=0)
        for family, link, term in _families(_TermBank(ch_n, cfg), px, py, conditions):
            if term is None:
                continue
            if upper is not None and _pick(terms[link]).value >= upper[link] - UPPER_TOL:
                skipped[link].append(family)
            else:
                terms[link].append(term())

    up = upper or {}
    report = BoundReport(
        **{"h_" + link: _link_bound(terms[link], up.get(link), skipped[link]) for link in LINKS},
        rho=0.0,
        conditions=conditions,
        merges={"x": chres.x_map, "y": chres.y_map, "z": chres.z_map},
        config=cfg,
    )
    report.rho = randomness_bound(report)
    return report


def _push_inputs(p_xy, chres, ch_n):
    """Apply the channel's input merges to the input distribution."""
    xi = [ch_n.x_axis.index(chres.x_map[x]) for x in p_xy.axes[0]]
    yi = [ch_n.y_axis.index(chres.y_map[y]) for y in p_xy.axes[1]]
    probs = np.zeros((len(ch_n.x_axis), len(ch_n.y_axis)))
    np.add.at(probs, np.ix_(xi, yi), p_xy.probs)
    return JointDist((ch_n.x_axis, ch_n.y_axis), probs)


def randomness_bound(report):
    """Randomness lower bound: the largest link bound whose transcript is
    forced independent of the inputs."""
    vals = []
    if report.conditions.get("bigraph_connected"):
        vals.append(report.h_m12.value)
    if report.conditions.get("full_support"):
        vals += [report.link(link).value for link, cond in _LINK_CONDITION.items()
                 if report.conditions.get(cond)]
    return max(vals, default=0.0)


# ---------------------------------------------------------------------------
# Dealer-generated share bounds


def cmss_bounds(p_xyz, cfg=DEFAULT_CONFIG):
    """Share-entropy lower bounds for dealer-generated sharing of a 3-axis
    joint: the evaluation bound at the given joint, strengthened by switching
    over distributions on its support cone, each share gated on connectivity
    of the relevant pair's generic bipartite graph."""
    if p_xyz.n_axes != 3:
        raise ValueError("cmss_bounds expects a 3-axis joint")
    cone = _SupportCone(p_xyz.axes, _support_points(p_xyz.probs))
    terms = {
        link: [TermValue(name="cmss_prelim_%s" % link, link=link, value=v)]
        for link, v in _evaluate("prelim", p_xyz, cone).items()
    }
    gates = {"m12": cone.connected("xy"), "m23": cone.connected("yz"), "m31": cone.connected("xz")}
    cands, seeds = _joint_scan(cone.n_points, cfg) if any(gates.values()) else (None, None)
    for link in LINKS:
        if not gates[link]:
            continue
        for kinds in _JOINT_VARIANTS[link]:
            res = optimize_over_simplex(
                lambda Q: cone.values(Q, kinds),
                lambda q: _one_sided(cone.slopes(q, kinds, np.eye(len(q)) - q)), cands, cfg,
                seeds=seeds,
            )
            terms[link].append(
                TermValue(
                    name="cmss_switched_%s_%s" % (link, kinds[0]),
                    link=link,
                    value=res.value,
                    witnesses={"p_X'Y'Z'": cone.to_dist(res.witness)},
                    limit_point=res.limit_point,
                )
            )
    return {link: _link_bound(terms[link]) for link in LINKS}
