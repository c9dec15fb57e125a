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
single-law variants of each link (optimized and dealer-share bounds), and
_PRODUCT_TERMS the switched and conditional terms, whose inner laws are
chosen separately. term_value re-evaluates any optimized term of a channel
at given laws. Joint-form terms have one kernel, _SupportCone.values, on
the support cone of a 3-axis joint; a channel's _TermBank maps input laws
onto the cone of its generic support. Product-form terms (one x law, one y
law) are evaluated by _TermBank.pair_values.

The switched and conditional families share their nested suprema: each
outer side (x or y) is swept once per channel and config over the outer x
inner candidate grid, in _CHUNK-row slices that are reduced to a per-outer
max and argmax as they stream. The sweep's memory is
O(_CHUNK x n_inner x |Z|) rather than O(n_outer x n_inner).

Share-size bounds for dealer-generated secret sharing and for secure
sampling reuse the same term kernels.
"""

from dataclasses import dataclass, field

import numpy as np

from .common_info import blocks_from_mask, residual_info
from .dists import (
    Alphabet,
    JointDist,
    PreconditionError,
    SUPPORT_EPS,
    ZERO_TOL,
    cond_entropy,
    dist_to_json,
    join,
)
from .normal_form import (
    bigraph_connected,
    channel_normal_form,
    check_condition1,
    check_condition2,
    is_pair_normal_form,
    is_sampling_normal_form,
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
_CHUNK = 256

LINKS = ("m12", "m23", "m31")

# -- the term table ----------------------------------------------------------

# single-law variants of each link: a residual-information gap plus the
# conditional entropy the cut must carry
_JOINT_VARIANTS = {
    "m12": (("ri_xz", "h_xy_z"), ("ri_yz", "h_xy_z")),
    "m23": (("ri_xz", "h_yz_x"), ("ri_xy", "h_yz_x")),
    "m31": (("ri_yz", "h_xz_y"), ("ri_xy", "h_xz_y")),
}

# switched and conditional terms: name -> (outer label, ((inner label,
# kinds), ...)). Each inner law is maximized separately against the outer
# law. A primed outer label is optimized too, as a nested supremum on its
# side's shared sweep; "p_X" and "p_Y" are the kept marginal of the actual
# input and are not witnesses.
_PRODUCT_TERMS = {
    "switched_m23": ("p_Y", (("p_X'", ("ri_xz",)), ("p_X''", ("h_yz_x",)))),
    "switched_m31": ("p_X", (("p_Y'", ("ri_yz",)), ("p_Y''", ("h_xz_y",)))),
    "switched_m12_top": ("p_X'", (("p_Y'", ("ri_yz",)), ("p_Y''", ("ri_xz", "h_xy_z")))),
    "switched_m12_bottom": ("p_Y'", (("p_X'", ("ri_xz",)), ("p_X''", ("ri_yz", "h_xy_z")))),
    "conditional_m31": ("p_X'", (("p_Y'", ("ri_yz",)), ("p_Y''", ("h_xz_y",)))),
    "conditional_m23": ("p_Y'", (("p_X'", ("ri_xz",)), ("p_X''", ("h_yz_x",)))),
}


def _side(label):
    return "x" if label.startswith("p_X") else "y"


def _nested_term(name):
    return _PRODUCT_TERMS[name][0].endswith("'")


# inner-term groups of the nested sweeps, per outer side; the kinds of one
# group share one inner distribution
_SWEEP_GROUPS = {
    side: tuple(
        dict.fromkeys(
            kinds
            for name, (outer, inner) in _PRODUCT_TERMS.items()
            if _nested_term(name) and _side(outer) == side
            for _, kinds in inner
        )
    )
    for side in "xy"
}


@dataclass
class TermValue:
    name: str
    link: str
    value: float
    witnesses: dict = field(default_factory=dict)  # label -> JointDist
    distribution_free: bool = False
    limit_point: bool = False


@dataclass(frozen=True)
class LinkTriple:
    m23: float
    m31: float
    m12: float


def _xlogx(p):
    # off-support cells become 1 * log2(1) = 0, without a masked gather/scatter
    q = np.where(p > SUPPORT_EPS, p, 1.0)
    return q * np.log2(q)


def _H(p, axis=-1):
    return -_xlogx(p).sum(axis=axis)


@dataclass
class _Sweep:
    outer: np.ndarray  # (n_outer, k_out) candidates
    inner: np.ndarray  # (n_inner, k_in) candidates
    best: dict  # group -> (n_outer,) max over the inner candidates
    arg: dict  # group -> (n_outer,) first inner index attaining it


def _label_matrix(labels, n_blocks):
    mat = np.zeros((len(labels), max(n_blocks, 1)))
    for i, lab in enumerate(labels):
        if lab >= 0:
            mat[i, lab] = 1.0
    return mat


def _support_points(probs):
    return [tuple(int(i) for i in idx) for idx in np.argwhere(probs > SUPPORT_EPS)]


class _SupportCone:
    """Distributions on a list of (x, y, z) support points, with the
    common-part blocks of the points' pattern for each pair of axes."""

    def __init__(self, axes, points):
        self.axes = tuple(axes)
        self.points = list(points)
        self.n_points = len(self.points)
        shape = tuple(len(a) for a in self.axes)
        self.pair_info = {}
        for key, (i, j) in {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}.items():
            mask = np.zeros((shape[i], shape[j]), dtype=bool)
            for idx in self.points:
                mask[idx[i], idx[j]] = True
            li, lj, nb = blocks_from_mask(mask)
            # scatter matrices: support point -> marginal cells
            Mi = np.zeros((self.n_points, shape[i]))
            Mj = np.zeros((self.n_points, shape[j]))
            Mij = np.zeros((self.n_points, shape[i] * shape[j]))
            for t, idx in enumerate(self.points):
                Mi[t, idx[i]] = 1.0
                Mj[t, idx[j]] = 1.0
                Mij[t, idx[i] * shape[j] + idx[j]] = 1.0
            self.pair_info[key] = {
                "Mi": Mi,
                "Mj": Mj,
                "Mij": Mij,
                "Li": _label_matrix(li, nb),
                "n_blocks": nb,
            }

    def connected(self, key):
        return self.pair_info[key]["n_blocks"] <= 1

    def to_dist(self, q):
        probs = np.zeros(tuple(len(a) for a in self.axes))
        for t, idx in enumerate(self.points):
            probs[idx] = q[t]
        return JointDist(self.axes, probs)

    def values(self, Qs, kinds):
        """Sum of term values for each cone distribution in the batch."""
        Qs = np.atleast_2d(np.asarray(Qs, dtype=float))
        xy, xz, yz = self.pair_info["xy"], self.pair_info["xz"], self.pair_info["yz"]
        h_xyz = _H(Qs)
        p_x = Qs @ xy["Mi"]
        p_y = Qs @ xy["Mj"]
        p_z = Qs @ xz["Mj"]
        h_x, h_y, h_z = _H(p_x), _H(p_y), _H(p_z)
        h_xy = _H(Qs @ xy["Mij"])
        h_xz = _H(Qs @ xz["Mij"])
        h_yz = _H(Qs @ yz["Mij"])
        total = np.zeros(len(Qs))
        for kind in kinds:
            if kind == "ri_xz":
                total += h_x + h_z - h_xz - _H(p_x @ xz["Li"])
            elif kind == "ri_yz":
                total += h_y + h_z - h_yz - _H(p_y @ yz["Li"])
            elif kind == "ri_xy":
                total += h_x + h_y - h_xy - _H(p_x @ xy["Li"])
            elif kind == "h_xy_z":
                total += h_xyz - h_z
            elif kind == "h_yz_x":
                total += h_xyz - h_x
            elif kind == "h_xz_y":
                total += h_xyz - h_y
            else:
                raise ValueError("unknown term kind %r" % kind)
        return total


class _TermBank:
    """Vectorized entropy kernels for one channel.

    Joint-form terms are evaluated on the cone of the channel's generic
    support, the points (x, y, z) with W > SUPPORT_EPS: the support of the
    joint of every full-support input law, whose common-part blocks every
    such law shares. Every W row sums to 1, so the cone's (X,Y) graph is
    complete.
    """

    def __init__(self, ch):
        self.ch = ch
        W = np.asarray(ch.kernel)
        self.W = W
        self.nx, self.ny, self.nz = W.shape
        self.Hrow = _H(W)  # (nx, ny)
        points = _support_points(W)
        self.cone = _SupportCone((ch.x_axis, ch.y_axis, ch.z_axis), points)
        # Q.reshape(-1, nx * ny) @ M is the joint of input laws Q on the cone
        self.M = np.zeros((self.nx * self.ny, len(points)))
        for t, (x, y, z) in enumerate(points):
            self.M[x * self.ny + y, t] = W[x, y, z]
        self.Lx = self.cone.pair_info["xz"]["Li"]  # x-side blocks of the (X,Z) graph
        self.Ly = self.cone.pair_info["yz"]["Li"]  # y-side blocks of the (Y,Z) graph
        self._sweeps = {}  # (side, cfg) -> _Sweep

    # -- product-form terms: A (n,nx) x B (m,ny), value matrices (n,m) ------

    def _pre_a(self, A):
        C = np.einsum("nx,xyz->nyz", A, self.W)
        return {
            "A": A,
            "C": C,  # C[n, y, :] is the output law at y once x ~ A[n]
            "G": _H(C),  # (n, ny)
            "H": _H(A),  # (n,)
            "blk": _H(A @ self.Lx),  # (n,)
        }

    def _pre_b(self, B):
        C = np.einsum("my,xyz->mxz", B, self.W)
        return {
            "B": B,
            "C": C,
            "G": _H(C),  # (m, nx)
            "H": _H(B),
            "blk": _H(B @ self.Ly),
        }

    def pair_values(self, A, B, kinds):
        """Evaluate product-form terms for all (A_i, B_j) pairs, chunked."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        pb = self._pre_b(B)
        out = [np.empty((len(A), len(B))) for _ in kinds]
        for lo in range(0, len(A), _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, len(A)))
            pa = self._pre_a(A[sl])
            pz = np.einsum("my,nyz->nmz", B, pa["C"])
            h_z = _H(pz)  # (chunk, m)
            bil = pa["A"] @ self.Hrow @ B.T
            for t, kind in enumerate(kinds):
                if kind == "ri_xz":
                    v = h_z - pa["A"] @ pb["G"].T - pa["blk"][:, None]
                elif kind == "ri_yz":
                    v = h_z - pa["G"] @ B.T - pb["blk"][None, :]
                elif kind == "h_xy_z":
                    v = pa["H"][:, None] + pb["H"][None, :] + bil - h_z
                elif kind == "h_yz_x":
                    v = pb["H"][None, :] + bil
                elif kind == "h_xz_y":
                    v = pa["H"][:, None] + bil
                else:
                    raise ValueError("unknown term kind %r" % kind)
                out[t][sl] = v
        return out

    def sweep(self, side, cfg):
        """Every inner-term group of one outer side, maximized over the inner
        candidates for each outer candidate; computed once per (side, cfg)."""
        key = (side, cfg)
        if key not in self._sweeps:
            self._sweeps[key] = self._sweep(side, cfg)
        return self._sweeps[key]

    def _sweep(self, side, cfg):
        groups = _SWEEP_GROUPS[side]
        kinds = list(dict.fromkeys(k for g in groups for k in g))
        k_out, k_in = (self.nx, self.ny) if side == "x" else (self.ny, self.nx)
        outer = candidate_points(k_out, cfg)
        inner = candidate_points(k_in, cfg)
        # pair_values takes x-side rows first; slices walk the x side
        A, B = _xy(side, outer, inner)
        best = {g: np.full(len(outer), -np.inf) for g in groups}
        arg = {g: np.zeros(len(outer), dtype=int) for g in groups}
        for lo in range(0, len(A), _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, len(A)))
            mats = dict(zip(kinds, self.pair_values(A[sl], B, kinds)))
            for g in groups:
                V = sum(mats[k] for k in g)  # (slice, len(B))
                if side == "x":
                    best[g][sl] = V.max(axis=1)
                    arg[g][sl] = V.argmax(axis=1)
                else:
                    # running max over inner slices; strict > keeps the first index on ties
                    m = V.max(axis=0)
                    up = m > best[g]
                    best[g][up] = m[up]
                    arg[g][up] = V.argmax(axis=0)[up] + lo
        return _Sweep(outer, inner, best, arg)

    # -- joint-form terms: Q (n, nx, ny) -------------------------------------

    def joint_values(self, Q, kinds):
        """Sum of joint-form terms for each input law of the batch Q."""
        Q = np.asarray(Q, dtype=float)
        return self.cone.values(Q.reshape(-1, self.nx * self.ny) @ self.M, kinds)


def _as_prob_vector(p, size, what):
    if isinstance(p, JointDist):
        if p.n_axes != 1:
            raise ValueError("%s must be a 1-axis distribution" % what)
        p = p.probs
    p = np.asarray(p, dtype=float).ravel()
    if p.size != size:
        raise ValueError("%s has size %d, expected %d" % (what, p.size, size))
    return p


def _dist1(axis_name, symbols, probs):
    return JointDist((Alphabet(axis_name, symbols),), np.asarray(probs, dtype=float))


def _marginals(p_xy):
    p_x = _dist1(p_xy.axes[0].name, p_xy.axes[0].symbols, p_xy.probs.sum(axis=1))
    p_y = _dist1(p_xy.axes[1].name, p_xy.axes[1].symbols, p_xy.probs.sum(axis=0))
    return p_x, p_y


def _is_product(p_xy):
    outer = np.outer(p_xy.probs.sum(axis=1), p_xy.probs.sum(axis=0))
    return bool(np.max(np.abs(outer - p_xy.probs)) <= ZERO_TOL)


def _full_support(d):
    return bool(d.probs.min() > SUPPORT_EPS)


# ---------------------------------------------------------------------------
# Evaluation bounds (no optimization)


def prelim_bounds(p_xy, ch):
    """Per-link bounds at the given pair: max residual information against
    the output or the co-input, plus the conditional entropy the cut must
    carry. Requires the pair in normal form."""
    if not is_pair_normal_form(p_xy, ch):
        raise PreconditionError("(p_xy, channel) pair is not in normal form")
    d = join(p_xy, ch)
    ri_xz = residual_info(d.marginal({0, 2}))
    ri_yz = residual_info(d.marginal({1, 2}))
    ri_xy = residual_info(d.marginal({0, 1}))
    return LinkTriple(
        m23=max(ri_xz, ri_xy) + cond_entropy(d, {1, 2}, {0}),
        m31=max(ri_yz, ri_xy) + cond_entropy(d, {0, 2}, {1}),
        m12=max(ri_xz, ri_yz) + cond_entropy(d, {0, 1}, {2}),
    )


def intermediate_bounds(p_x, p_y, ch):
    """Per-link bounds for independent full-support inputs; the Alice-Bob
    link collects both residual-information terms."""
    px = _as_prob_vector(p_x, len(ch.x_axis), "p_x")
    py = _as_prob_vector(p_y, len(ch.y_axis), "p_y")
    if px.min() <= SUPPORT_EPS or py.min() <= SUPPORT_EPS:
        raise PreconditionError("inputs must have full support")
    p_xy = JointDist((ch.x_axis, ch.y_axis), np.outer(px, py))
    d = join(p_xy, ch)
    ri_xz = residual_info(d.marginal({0, 2}))
    ri_yz = residual_info(d.marginal({1, 2}))
    return LinkTriple(
        m23=ri_xz + cond_entropy(d, {1, 2}, {0}),
        m31=ri_yz + cond_entropy(d, {0, 2}, {1}),
        m12=ri_xz + ri_yz + cond_entropy(d, {0, 1}, {2}),
    )


def sampling_bounds(p_xyz):
    """Share bounds for securely sampling a 3-axis joint in normal form."""
    if p_xyz.n_axes != 3:
        raise ValueError("sampling_bounds expects a 3-axis joint")
    if not is_sampling_normal_form(p_xyz):
        raise PreconditionError("joint is not in sampling normal form")
    ri_xz = residual_info(p_xyz.marginal({0, 2}))
    ri_yz = residual_info(p_xyz.marginal({1, 2}))
    ri_xy = residual_info(p_xyz.marginal({0, 1}))
    return LinkTriple(
        m23=ri_xz + ri_xy + cond_entropy(p_xyz, {1, 2}, {0}),
        m31=ri_yz + ri_xy + cond_entropy(p_xyz, {0, 2}, {1}),
        m12=ri_xz + ri_yz + cond_entropy(p_xyz, {0, 1}, {2}),
    )


# ---------------------------------------------------------------------------
# Optimized bounds


def _optimize_joint(bank, link, kinds, cfg):
    """Maximize a sum of joint-form terms over full-support p_X'Y'."""
    nx, ny = bank.nx, bank.ny
    res = optimize_over_simplex(
        lambda Q: bank.joint_values(Q.reshape(-1, nx, ny), kinds), nx * ny, cfg
    )
    witness = JointDist((bank.ch.x_axis, bank.ch.y_axis), res.witness.reshape(nx, ny))
    return TermValue(
        name="improved_%s_%s" % (link, kinds[0]),
        link=link,
        value=res.value,
        witnesses={"p_X'Y'": witness},
        distribution_free=True,
        limit_point=res.limit_point,
    )


def improved_bounds(ch, cfg=DEFAULT_CONFIG):
    """Optimized single-distribution bounds over full-support joint inputs.

    The Alice-Bob link is unconditional; the other two links require the
    reachable-output connectivity conditions and are None otherwise.
    Returns {link: best TermValue or None}; the winning variant is named
    in the TermValue's name.
    """
    bank = _shared_bank(ch)
    gates = {"m12": True, "m23": check_condition2(ch), "m31": check_condition1(ch)}
    return {
        link: _pick([_optimize_joint(bank, link, kinds, cfg) for kinds in _JOINT_VARIANTS[link]])
        if gates[link]
        else None
        for link in LINKS
    }


def _xy(side, outer, inner):
    """(x law, y law) of a pair of laws whose outer law is on `side`."""
    return (outer, inner) if side == "x" else (inner, outer)


def _product_values(bank, side, outer, inners, groups):
    """Sum over the inner laws of their kinds, each evaluated against the
    outer law: one pair_values call per inner law. At most one of the laws
    may be an (n, k) batch of rows, giving (n,) values; single laws give (1,)."""
    return sum(
        sum(bank.pair_values(*_xy(side, np.atleast_2d(outer), np.atleast_2d(p)), kinds)).ravel()
        for p, kinds in zip(inners, groups)
    )


def _product_term(bank, name, labels, pts, value, limit):
    axes = {"x": bank.ch.x_axis, "y": bank.ch.y_axis}
    return TermValue(
        name=name,
        link=name.split("_")[1],
        value=value,
        witnesses={
            lab: _dist1(axes[_side(lab)].name, axes[_side(lab)].symbols, p)
            for lab, p in zip(labels, pts)
        },
        distribution_free=_nested_term(name),
        limit_point=limit,
    )


def _switched_single(bank, name, marginal, cfg):
    """A switched term at the kept input marginal: each inner law maximized
    on its own against it."""
    outer, inner = _PRODUCT_TERMS[name]
    side = _side(outer)
    k = bank.ny if side == "x" else bank.nx
    res = [
        optimize_over_simplex(
            lambda P, kinds=kinds: _product_values(bank, side, marginal, [P], [kinds]), k, cfg
        )
        for _, kinds in inner
    ]
    return _product_term(
        bank,
        name,
        [lab for lab, _ in inner],
        [r.witness for r in res],
        sum(r.value for r in res),
        any(r.limit_point for r in res),
    )


def _nested(bank, name, cfg):
    """sup over the outer distribution of a sum of independently supremized
    inner terms, innermost evaluated first on the side's shared sweep, then a
    joint coordinate polish whose line searches score each bracket of trial
    laws with one pair_values call per inner group.

    The term's inner groups are groups of _SWEEP_GROUPS of its outer side
    (each inner distribution may carry a sum of kinds, e.g. ri_xz + h_xy_z
    shares one inner variable). The side's sweep runs once per bank and
    config, in _CHUNK-row slices reduced as they stream, so its memory is
    O(_CHUNK x n_inner x |Z|) rather than O(n_outer x n_inner).
    """
    outer, inner = _PRODUCT_TERMS[name]
    side = _side(outer)
    groups = [kinds for _, kinds in inner]
    sw = bank.sweep(side, cfg)
    totals = np.zeros(len(sw.outer))
    for kinds in groups:
        totals += sw.best[kinds]
    i = int(np.argmax(totals))
    pts = [sw.outer[i].copy()] + [sw.inner[sw.arg[kinds][i]].copy() for kinds in groups]

    def values(s, rows, ps):
        # rows in place of law s: one pair_values call per inner group
        laws = ps[:s] + [rows] + ps[s + 1:]
        return _product_values(bank, side, laws[0], laws[1:], groups)

    value, pts, _ = coordinate_polish(values, pts, cfg, value=float(totals[i]))
    limit = any(p.min() <= SUPPORT_BOUNDARY for p in pts)
    return _product_term(bank, name, [outer] + [lab for lab, _ in inner], pts, value, limit)


_last_bank = None


def _shared_bank(ch):
    """The term bank of `ch`, reused while the same channel object is passed,
    so the improved, switched and conditional families share one bank and
    the last two share their nested sweeps.

    A one-entry cache keyed on identity: Channel is immutable but not
    hashable, and the cached bank keeps its channel alive.
    """
    global _last_bank
    if _last_bank is None or _last_bank.ch is not ch:
        _last_bank = _TermBank(ch)
    return _last_bank


def switched_bounds(ch, p_x, p_y, cfg=DEFAULT_CONFIG):
    """Separately-optimized switched bounds for independent full-support inputs.

    The Bob-Charlie and Charlie-Alice links keep the actual marginal of the
    non-switched input; the Alice-Bob value is the larger of the two nested
    rows and does not depend on the input distribution.
    """
    bank = _shared_bank(ch)
    px = _as_prob_vector(p_x, bank.nx, "p_x")
    py = _as_prob_vector(p_y, bank.ny, "p_y")
    if px.min() <= SUPPORT_EPS or py.min() <= SUPPORT_EPS:
        raise PreconditionError("inputs must have full support")
    return {
        "m23": _switched_single(bank, "switched_m23", py, cfg),
        "m31": _switched_single(bank, "switched_m31", px, cfg),
        "m12": _pick([_nested(bank, "switched_m12_top", cfg),
                      _nested(bank, "switched_m12_bottom", cfg)]),
    }


def conditional_bounds(ch, cfg=DEFAULT_CONFIG):
    """Nested switched bounds for the links to Charlie, gated on the
    reachable-output connectivity conditions; None when not applicable."""
    bank = _shared_bank(ch)
    return {
        "m31": _nested(bank, "conditional_m31", cfg) if check_condition1(ch) else None,
        "m23": _nested(bank, "conditional_m23", cfg) if check_condition2(ch) else None,
    }


def term_value(ch, name, dists):
    """Re-evaluate one optimized term of `ch` at given laws.

    `name` is the name of a TermValue from improved_bounds, switched_bounds
    or conditional_bounds, and `dists` maps the term's witness labels to
    laws (JointDist or arrays). switched_m23 and switched_m31 also read the
    kept input marginal, under "p_Y" and "p_X".
    """
    bank = _shared_bank(ch)
    if name in _PRODUCT_TERMS:
        outer, inner = _PRODUCT_TERMS[name]

        def law(label):
            size = bank.nx if _side(label) == "x" else bank.ny
            return _as_prob_vector(dists[label], size, label)

        inners = [law(lab) for lab, _ in inner]
        groups = [kinds for _, kinds in inner]
        return float(_product_values(bank, _side(outer), law(outer), inners, groups)[0])
    improved = {
        "improved_%s_%s" % (link, kinds[0]): kinds
        for link, variants in _JOINT_VARIANTS.items()
        for kinds in variants
    }
    if name not in improved:
        raise ValueError("unknown term %r" % name)
    q = dists["p_X'Y'"]
    q = np.asarray(q.probs if isinstance(q, JointDist) else q, dtype=float)
    if q.shape != (bank.nx, bank.ny):
        raise ValueError("p_X'Y' has shape %s, expected %s" % (q.shape, (bank.nx, bank.ny)))
    return float(bank.joint_values(q, improved[name])[0])


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
            return {
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

        return {
            "links": {name: link_json(self.link(name)) for name in LINKS},
            "rho": self.rho,
            "conditions": self.conditions,
            "merges": {
                ax: {str(k): (None if v is None else str(v)) for k, v in m.items()}
                for ax, m in self.merges.items()
            },
            "config": {
                "grid_resolution": self.config.grid_resolution,
                "refine_iters": self.config.refine_iters,
            },
        }


def _pick(terms):
    best = None
    for t in terms:
        if t is None:
            continue
        if best is None or t.value > best.value + REPLACE_MARGIN:
            best = t
    return best


def _link_bound(terms):
    """The link's best term, with every candidate term kept for the report."""
    best = _pick(terms)
    return LinkBound(
        value=best.value,
        theorem=best.name,
        witnesses=best.witnesses,
        distribution_free=best.distribution_free,
        limit_point=best.limit_point,
        terms=terms,
    )


def best_bounds(p_xy, ch, cfg=DEFAULT_CONFIG):
    """Per-link maximum over every applicable bound family.

    Normalizes the channel (and the pair, for the evaluation bound)
    internally and records the merges. Dependent full-support inputs are
    handled through the product of their marginals where a bound family
    needs independence.
    """
    if p_xy.n_axes != 2 or p_xy.axes[0] != ch.x_axis or p_xy.axes[1] != ch.y_axis:
        raise ValueError("input distribution axes do not match the channel alphabets")
    chres = channel_normal_form(ch)
    ch_n = chres.reduced
    p_n = _push_inputs(p_xy, chres, ch_n)

    pairres = pair_normal_form(p_n, ch_n)
    p_nf, ch_nf = pairres.reduced

    conditions = {
        "bigraph_connected": bigraph_connected(p_n),
        "condition1": check_condition1(ch_n),
        "condition2": check_condition2(ch_n),
        "full_support": _full_support(p_n),
        "product_inputs": _is_product(p_n),
    }

    terms = {link: [] for link in LINKS}
    tri = prelim_bounds(p_nf, ch_nf)
    for link in LINKS:
        terms[link].append(
            TermValue(name="prelim_%s" % link, link=link, value=getattr(tri, link))
        )

    if conditions["full_support"]:
        p_x, p_y = _marginals(p_n)
        tri = intermediate_bounds(p_x, p_y, ch_n)
        for link in LINKS:
            terms[link].append(
                TermValue(name="intermediate_%s" % link, link=link, value=getattr(tri, link))
            )
        for family in (
            improved_bounds(ch_n, cfg),
            switched_bounds(ch_n, p_x, p_y, cfg),
            conditional_bounds(ch_n, cfg),
        ):
            for link, tv in family.items():
                if tv is not None:
                    terms[link].append(tv)

    report = BoundReport(
        h_m12=_link_bound(terms["m12"]),
        h_m23=_link_bound(terms["m23"]),
        h_m31=_link_bound(terms["m31"]),
        rho=0.0,
        conditions=conditions,
        merges={"x": chres.x_map, "y": chres.y_map, "z": chres.z_map},
        config=cfg,
    )
    report.rho = randomness_bound(report)
    return report


def _push_inputs(p_xy, chres, ch_n):
    """Apply the channel's input merges to the input distribution."""
    probs = np.zeros((len(ch_n.x_axis), len(ch_n.y_axis)))
    for (x, y), p in p_xy.support():
        probs[ch_n.x_axis.index(chres.x_map[x]), ch_n.y_axis.index(chres.y_map[y])] += p
    return JointDist((ch_n.x_axis, ch_n.y_axis), probs)


def randomness_bound(report):
    """Randomness lower bound: the largest link bound whose transcript is
    forced independent of the inputs."""
    vals = []
    if report.conditions.get("bigraph_connected"):
        vals.append(report.h_m12.value)
    if report.conditions.get("full_support"):
        if report.conditions.get("condition1"):
            vals.append(report.h_m31.value)
        if report.conditions.get("condition2"):
            vals.append(report.h_m23.value)
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
    ri_xz = residual_info(p_xyz.marginal({0, 2}))
    ri_yz = residual_info(p_xyz.marginal({1, 2}))
    ri_xy = residual_info(p_xyz.marginal({0, 1}))
    base = {
        "m12": max(ri_xz, ri_yz) + cond_entropy(p_xyz, {0, 1}, {2}),
        "m23": max(ri_xz, ri_xy) + cond_entropy(p_xyz, {1, 2}, {0}),
        "m31": max(ri_yz, ri_xy) + cond_entropy(p_xyz, {0, 2}, {1}),
    }
    terms = {
        link: [TermValue(name="cmss_prelim_%s" % link, link=link, value=base[link])]
        for link in LINKS
    }

    cone = _SupportCone(p_xyz.axes, _support_points(p_xyz.probs))
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
