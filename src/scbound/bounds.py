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
one xlogx and one weighted sum. A channel's _TermBank
maps input laws onto the cone of its generic support; a product-form term
(one x law, one y law) is scored there at the product law, where each
product-form kind equals its joint-form kind.

_TermBank.pair_values serves only the nested sweep's grid, with matrix
products only: the channel is kept z-major, (|Z|, |X|, |Y|), so the z-th
cells of a slice of pairs' output laws come from one GEMM as an (n, m)
matrix, and their entropies accumulate z by z into one (n, m) matrix; no
(|Z|, n, m) array is built.

The switched and conditional families share their nested suprema: the
x-candidate x y-candidate grid is scored once per term bank, which holds
its call's config (best_bounds builds one bank per call, each public
family function its own), in slices of x candidates, and each slice is
reduced for both outer sides as it streams (a per-outer max and argmax;
the y side's as a running max over slices). A slice has rows <= _CHUNK x
candidates with rows x n_y <= _SWEEP_CELLS, a 512 KB matrix. A sweep of
two or more slices of at least _SWEEP_CELLS // 2 cells is split between
two workers when two CPUs are usable: the calling thread scores the first
slices, as few as hold half the cells scored, and a thread started and
joined inside the sweep the rest; smaller sweeps, and every sweep on one
CPU, stay on the calling thread. The split pays in full when BLAS runs
one thread (see _TermBank._sweeps). Each worker scores its slices in its
own workspace of five such matrices, one per product-form kind, and the
workers share one y side. The second worker's y-side running max
replaces the first's only on strict >, the rule one worker applies from
slice to slice, so the result is that of one worker, bit for bit. The
sweep's memory is O(rows x n_y) rather than O(n_x x n_y).

On a channel symmetric in X and Y (_symmetric: the z-major kernel equals
its X<->Y transpose, and both sides have the same candidates) the sweep
scores each unordered pair of candidates once. A slice of x rows [lo, hi)
scores grid columns [lo, n) only: the cells of row i left of that are
the mirror group's cells of column i (_mirror: ri_xz <-> ri_yz, h_xz_y
<-> h_yz_x, h_xy_z itself), which the y side's running column max
already holds. Once the workers join, one elementwise max per x-side
group completes it from its mirror's y side, the smaller index winning a
tie, and the y side is then set to the x side's mirror. About half the
cells are scored (50.3% on group-add 4's 3,287 x 3,287 grid), and the
split balances the cells, not the slices. A mirror cell's last bits may
differ from the direct cell's, so a maximum may move by an ulp or so
against the full grid, and an index only where the maximum ties within
that.

Share-size bounds for dealer-generated secret sharing reuse the same term
kernels.
"""

import copy
import dataclasses
import functools
import itertools
import os
import threading
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
    SUPPORT_BOUNDARY,
    OptConfig,
    candidate_points,
    coordinate_polish,
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
# One such matrix fits a 2 MiB per-core L2 cache; a worker's five plus its
# mask (2.6 MB) do not.
_SWEEP_CELLS = 1 << 16

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


def _mirror(group):
    """The group's kinds with X and Y swapped: ri_xz <-> ri_yz, h_xz_y <->
    h_yz_x, and h_xy_z and ri_xy to themselves. On a channel symmetric in X
    and Y, a kind's value at (x law a, y law b) is its mirror's at (x law
    b, y law a)."""
    swap = str.maketrans("xy", "yx")
    return tuple("_".join([head] + ["".join(sorted(a.translate(swap))) for a in axes])
                 for head, *axes in (kind.split("_") for kind in group))


assert sorted(map(_mirror, _SWEEP_GROUPS["x"])) == sorted(_SWEEP_GROUPS["y"]), \
    "a sweep group has no mirror"


def _symmetric(Wz, A, B):
    """Whether the nested sweep scores each unordered pair of candidates
    once: the z-major kernel equals its X<->Y transpose and both sides have
    the same candidates."""
    return np.array_equal(Wz, Wz.transpose(0, 2, 1)) and np.array_equal(A, B)


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
    matrix, z by z. The sweep runs its slices on one or two workers, each
    with its own _PairWork; pair_values, _pre_a and _reduce_slice write
    only to the worker's workspace, its rows of the x side and its own y
    side, and read the bank's arrays, so two workers share one bank.
    """

    def __init__(self, ch, cfg=DEFAULT_CONFIG):
        self.ch = ch
        self.cfg = cfg
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

    @functools.cached_property
    def _sweeps(self):
        """One pass over the grid in slices of x candidates, shared by up to
        two workers. The calling thread takes the first slices, as few as
        hold half the cells the sweep scores, and a thread started here the
        rest, each in its own _PairWork
        (both allocated here, both on one y side), when the sweep has two
        slices or more of at least _SWEEP_CELLS // 2 cells and two CPUs are
        usable; on smaller slices the thread costs more than it saves
        (remote-ot m=2's 13 slices of 256 x 55 cells: 2.1 ms on one worker,
        2.4 ms on two, one BLAS thread). The x-side rows the workers write
        are disjoint; the second worker keeps its own y-side running max,
        which replaces the first's only on strict >, as a later slice does
        within one worker. The thread is joined before the sweep returns or
        raises, and its exception is raised here. The CPUs are counted by
        os.sched_getaffinity where the OS has it, else by os.cpu_count.
        The split pays in full when BLAS runs one thread. A multi-threaded
        OpenBLAS keeps its pool threads spinning on the cores for a while
        after a large GEMM, and the second worker then shares a core with
        them: on 2 cores with the BLAS thread variables unset, the
        group-add 4 sweep inside `analyze` took 65 ms on two workers
        against 81 ms on one (52 ms with one BLAS thread), and the sweeps
        of group-add 5 and 6 and remote-ot m=3 took 1-2 ms more.

        When _symmetric(Wz, A, B) holds (the kernel equals its X<->Y
        transpose and A equals B), the slice at x row lo scores the grid
        columns [lo, n) only: _reduce_slice is passed B[lo:] and the
        workspace's view on it (_PairWork.columns). Row i's cells left of
        its slice are the mirror group's (_mirror) cells of column i,
        which every slice from row 0 to the end of i's slice has folded
        into the y side's running max. After the join each x-side group
        takes its mirror's y-side max where that is greater, or equal at a
        smaller index, and the y side is set to the x side's mirror. The
        slices then shrink with lo, so the split counts cells: group-add
        4's 173 slices of 19 rows score 50.3% of the grid, the first 51
        slices on the calling thread. The sweep took 0.11-0.12 s on two
        workers against 0.15-0.17 s for the full grid (2 cores, one BLAS
        thread)."""
        A, B = candidate_points(self.nx, self.cfg), candidate_points(self.ny, self.cfg)

        def fresh(side, outer, inner):
            gs = _SWEEP_GROUPS[side]
            return _Sweep(outer, inner, {g: np.full(len(outer), -np.inf) for g in gs},
                          {g: np.zeros(len(outer), dtype=int) for g in gs})

        sweeps = {"x": fresh("x", A, B), "y": fresh("y", B, A)}
        rows = max(1, min(_CHUNK, len(A), _SWEEP_CELLS // len(B)))
        los = range(0, len(A), rows)
        mirror = _symmetric(self.Wz, A, B)
        work = _PairWork(self, B, rows)
        # the CPUs this process may run on, where the OS can tell (Linux)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        split = cpus >= 2 and len(los) >= 2 and rows * len(B) >= _SWEEP_CELLS // 2
        # the first worker's slices: the fewest whose cells scored reach half
        cells = np.cumsum([min(rows, len(A) - lo) * (len(B) - lo * mirror) for lo in los])
        half = int(np.argmax(2 * cells >= cells[-1])) + 1 if split else len(los)
        errors = []

        def run(sweeps, work, los):
            # one worker's slices; a failure is kept, and raised once the
            # thread has ended
            try:
                for lo in los:
                    self._reduce_slice(sweeps, A[lo:lo + rows],
                                       work.columns(lo) if mirror else work, lo)
            except BaseException as exc:
                errors.append(exc)

        if split:
            later = {"x": sweeps["x"], "y": fresh("y", B, A)}
            own = _PairWork(self, B, rows, (work.Bt, work.pre_b))
            thread = threading.Thread(target=run, args=(later, own, los[half:]))
            thread.start()
        try:
            run(sweeps, work, los[:half])
        finally:
            if split:
                thread.join()
        if errors:
            raise errors[0]
        if split:
            y, z = sweeps["y"], later["y"]
            for g in _SWEEP_GROUPS["y"]:
                up = z.best[g] > y.best[g]
                y.best[g][up] = z.best[g][up]
                y.arg[g][up] = z.arg[g][up]
        if mirror:
            # x row i has its columns from its slice's first row on; the
            # rest are the mirror group's column i, which the y side holds
            x, y = sweeps["x"], sweeps["y"]
            for g in _SWEEP_GROUPS["x"]:
                h = _mirror(g)
                xb, xa, yb, ya = x.best[g], x.arg[g], y.best[h], y.arg[h]
                up = (yb > xb) | ((yb == xb) & (ya < xa))
                xb[up], xa[up] = yb[up], ya[up]
                y.best[h], y.arg[h] = xb.copy(), xa.copy()
        return sweeps

    def _reduce_slice(self, sweeps, A, work, lo):
        """Fold one slice of x candidates A, starting at grid row lo,
        against the y candidates work.B, a tail of the grid's columns (all
        of them unless the sweep is symmetric), into both sides' sweeps.
        An x-side group's max and first argmax along each row are final
        over those columns. A y-side group keeps a running max per column
        over the slices: V.max(axis=0), a contiguous reduction, finds the
        columns that rise above it (strict >, so the first slice wins a
        tie), and only those columns take the strided argmax and the value
        read back from V, in blocks of at most _STACK_CELLS cells, so that
        neither worker's gathered copy grows past 128 KiB; a slice where
        no column rises costs one max.
        The one-kind groups are reduced first, on the kind matrices as
        pair_values leaves them; a longer group is then summed left to
        right in place into its first kind's matrix, which no later group
        reads (ri_xz += h_xy_z, ri_yz += h_xy_z)."""
        mats = dict(zip(_PAIR_KINDS, self.pair_values(A, work.B, _PAIR_KINDS, work)))
        x, y = sweeps["x"], sweeps["y"]
        first = len(x.inner) - len(work.B)  # the grid column of work.B[0]
        for side, g in _SLICE_GROUPS:
            V = mats[g[0]]  # (len(A), len(work.B))
            for k in g[1:]:
                V += mats[k]
            if side == "x":
                arg = V.argmax(axis=1)
                x.best[g][lo:lo + len(A)] = np.take_along_axis(V, arg[:, None], axis=1)[:, 0]
                x.arg[g][lo:lo + len(A)] = arg + first
            else:
                # running max over x slices; strict > keeps the first index on ties
                best, args = y.best[g][first:], y.arg[g][first:]
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


class _PairWork:
    """pair_values' workspace for one batch of y laws B: B's side of the
    kernel (a C-contiguous copy Bt of B.T, which every GEMM of a slice takes
    as its right operand, as a product on the transposed view costs about
    twice as much, and pre_b), computed once or shared with another
    workspace on the same B, and five (rows, len(B)) matrices, one per
    product-form kind, plus a bool mask for x log x, that hold a slice of at
    most `rows` x laws as [:n] views. pair_values uses the kind matrices not
    yet written as its scratch: the output laws' z-th cells, the log, the
    h_z accumulator and the bilinear term."""

    def __init__(self, bank, B, rows, y_side=None):
        self.B = B
        self.Bt, self.pre_b = y_side or (np.ascontiguousarray(B.T), bank._pre_b(B))
        shape = (rows, len(B))
        self.mats = {kind: np.empty(shape) for kind in _PAIR_KINDS}
        self.off = np.empty(shape, dtype=bool)

    def columns(self, lo):
        """This workspace on the y laws B[lo:], without copies: column views
        of B's side, and (rows, len(B) - lo) matrices laid out contiguously
        at the start of this workspace's buffers. A column slice of the
        full-width matrices would touch every row's cache lines, and a
        narrow slice then costs as much as a full one (a group-add 4 slice
        at half width: 1.22 ms so, 0.58 ms laid out contiguously, 1.11 ms
        at full width; medians of 200 calls, one BLAS thread)."""
        view = copy.copy(self)
        view.B, view.Bt = self.B[lo:], self.Bt[:, lo:]
        view.pre_b = {key: a[..., lo:] for key, a in self.pre_b.items()}
        m = len(view.B)
        view.mats = {kind: a.ravel()[:len(a) * m].reshape(-1, m) for kind, a in self.mats.items()}
        view.off = self.off.ravel()[:len(self.off) * m].reshape(-1, m)
        return view


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
        nx * ny, bank.cfg,
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
    k = bank.ny if side == "x" else bank.nx
    res = [
        optimize_over_simplex(
            lambda P, kinds=kinds: _group_values(bank, side, marginal, P, kinds), k, bank.cfg
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

    value, pts, _ = coordinate_polish(values, pts, bank.cfg, value=float(totals[i]))
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
    for link in LINKS:
        if not gates[link]:
            continue
        for kinds in _JOINT_VARIANTS[link]:
            res = optimize_over_simplex(lambda Q: cone.values(Q, kinds), cone.n_points, cfg)
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
