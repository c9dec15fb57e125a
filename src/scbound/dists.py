"""Exact finite probability distributions and Shannon functionals.

Everything downstream (common information, normal forms, bounds, protocol
simulation) runs on three carriers: a named finite Alphabet, an exact
JointDist over a product of alphabets, and a Channel p(z|x,y). Execution
joints, sparse over six axes, use a fourth, SupportJoint, which the entropy
functionals take as they take a JointDist. Probabilities are float64;
entropies are in bits.
"""

import json
import math

import numpy as np

# support membership: p > SUPPORT_EPS; equality-to-zero tests use ZERO_TOL
SUPPORT_EPS = 1e-12
ZERO_TOL = 1e-9
# the three links of the triangle (Alice-Bob, Bob-Charlie, Charlie-Alice),
# as reports, bounds and execution joints name them
LINKS = ("m12", "m23", "m31")
# point-by-marginal cells of a support cone, points x (the cells of its three
# axes and three axis pairs), which bound its term matrices: 256 MiB of
# float64. The largest the tests build is 7.9M (a 40 x 40 x 40 channel);
# remote-ot --m 3 --n 4 would need 1.0e9.
# A channel or distribution file is refused at load above as many dense
# cells, before its array is allocated.
CONE_CELL_CAP = 1 << 25
# dense cells of a kernel built from a function (the built-ins): 512 MiB of
# float64. The largest built-ins that build, erasure and sum at n = 7, need
# 35.8M; sum at n = 12 would need 8.9e12.
KERNEL_CELL_CAP = 1 << 26


class CapacityError(Exception):
    """An exact computation would exceed the configured enumeration size."""


class PreconditionError(ValueError):
    """Input violates a documented precondition (normal form, full support...)."""


class Alphabet:
    """Ordered finite set of distinct symbol labels."""

    __slots__ = ("name", "symbols", "_index")

    def __init__(self, name, symbols):
        symbols = tuple(symbols)
        if len(symbols) < 1:
            raise ValueError("alphabet %r needs at least one symbol" % name)
        self._index = {s: i for i, s in enumerate(symbols)}
        if len(self._index) != len(symbols):
            raise ValueError("alphabet %r has duplicate symbols" % name)
        self.name = name
        self.symbols = symbols

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError("symbol %r not in alphabet %r" % (symbol, self.name))

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.name == other.name
            and self.symbols == other.symbols
        )

    def __hash__(self):
        return hash((self.name, self.symbols))

    def __repr__(self):
        return "Alphabet(%r, %r)" % (self.name, list(self.symbols))


class JointDist:
    """Exact pmf over the product of named alphabets.

    Stored dense as an ndarray of shape (|A1|, ..., |Ak|); must be finite and
    nonnegative and sum to 1 within 1e-12. Immutable after construction.
    """

    __slots__ = ("axes", "probs")

    def __init__(self, axes, probs):
        axes = tuple(axes)
        probs = np.asarray(probs, dtype=float)
        if probs.shape != tuple(len(a) for a in axes):
            raise ValueError(
                "pmf shape %s does not match axes %s"
                % (probs.shape, tuple(len(a) for a in axes))
            )
        self.axes = axes
        self.probs = _checked_masses(probs)

    @classmethod
    def from_pmf(cls, axes, pmf):
        """Build from a {symbol-tuple: probability} map of support points."""
        axes = tuple(axes)
        probs = np.zeros(tuple(len(a) for a in axes))
        for key, p in pmf.items():
            if len(key) != len(axes):
                raise ValueError("pmf key %r has arity %d, expected %d" % (key, len(key), len(axes)))
            probs[tuple(a.index(s) for a, s in zip(axes, key))] += p
        return cls(axes, probs)

    @classmethod
    def uniform(cls, axes):
        axes = tuple(axes)
        size = int(np.prod([len(a) for a in axes]))
        return cls(axes, np.full(tuple(len(a) for a in axes), 1.0 / size))

    @property
    def n_axes(self):
        return len(self.axes)

    def support(self):
        """Yield (symbol-tuple, probability) for every support point."""
        for idx in np.argwhere(self.probs > SUPPORT_EPS):
            yield tuple(a.symbols[i] for a, i in zip(self.axes, idx)), float(self.probs[tuple(idx)])

    def marginal(self, axes_idx):
        # kept axes stay in their original order
        axes_idx = _check_axis_set(self, axes_idx, "axes")
        keep = sorted(axes_idx)
        drop = tuple(i for i in range(self.n_axes) if i not in axes_idx)
        return JointDist(
            tuple(self.axes[i] for i in keep), self.probs.sum(axis=drop) if drop else self.probs
        )

    def __eq__(self, other):
        return (
            isinstance(other, JointDist)
            and self.axes == other.axes
            and np.array_equal(self.probs, other.probs)
        )

    def __repr__(self):
        return "JointDist(axes=%r, support=%d)" % (
            [a.name for a in self.axes],
            int((self.probs > SUPPORT_EPS).sum()),
        )


class SupportJoint:
    """Exact pmf over the product of named alphabets, stored as its support.

    Row r of coords (shape (n, k), one column per axis) is a point of the
    product and probs[r] its mass. Points are distinct and inside their axes;
    masses are finite and nonnegative and sum to 1 within 1e-12. This is the
    form of execution joints, whose support is a vanishing share of the
    product of their six alphabets. Immutable after construction, so each
    grouping on an axis set is computed once and kept.
    """

    __slots__ = ("axes", "coords", "probs", "_groups")

    def __init__(self, axes, coords, probs):
        axes = tuple(axes)
        coords = np.array(coords)
        probs = np.array(probs, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != len(axes):
            raise ValueError(
                "coords of shape %s need one column per axis (%d)" % (coords.shape, len(axes))
            )
        if coords.shape[0] and coords.dtype.kind not in "iu":
            raise ValueError("coords must be integers, not %s" % coords.dtype)
        coords = coords.astype(np.int64, copy=False)  # uint64 would make row codes floats
        if probs.shape != (coords.shape[0],):
            raise ValueError(
                "probs of shape %s do not match %d coordinate rows" % (probs.shape, coords.shape[0])
            )
        sizes = [len(a) for a in axes]
        if (coords < 0).any() or (coords >= sizes).any():
            raise ValueError("coordinate outside its axis")
        # sorted codes compared with their neighbours, by the stable argsort
        # the groupings' np.unique already runs: a plain np.unique or np.sort
        # raised peak memory by 1.5 or 0.25 MB on its first call (numpy 2.4)
        code = _codes(coords.T, sizes)
        code = code[np.argsort(code, kind="stable")]
        if (code[1:] == code[:-1]).any():
            raise ValueError("duplicate coordinate rows")
        coords.setflags(write=False)
        self.axes = axes
        self.coords = coords
        self.probs = _checked_masses(probs)
        self._groups = {}  # tuple(keep) -> grouped(keep), read-only arrays

    @classmethod
    def accumulate(cls, axes, rows):
        """Build from (symbol-tuple, mass) rows, summing repeated points.

        Each point's mass is added up in row order starting from 0.0, the same
        sequence of float additions as `+=` into a zeroed dense array.
        """
        axes = tuple(axes)
        cells = {}
        for key, p in rows:
            if len(key) != len(axes):
                raise ValueError("point %r has arity %d, expected %d" % (key, len(key), len(axes)))
            idx = tuple(a.index(s) for a, s in zip(axes, key))
            cells[idx] = cells.get(idx, 0.0) + p
        coords = np.array(list(cells), dtype=np.int64).reshape(len(cells), len(axes))
        return cls(axes, coords, np.fromiter(cells.values(), float, len(cells)))

    @property
    def n_axes(self):
        return len(self.axes)

    def grouped(self, keep):
        """Distinct rows of coords[:, keep], sorted, and the mass of each
        (summed in row order), as read-only arrays made once per axis list:
        the verify checks take the same marginals again and again. Codes
        order rows lexicographically, so sorting them sorts the rows."""
        key = tuple(keep)
        if key not in self._groups:
            code = _codes([self.coords[:, i] for i in key], [len(self.axes[i]) for i in key])
            _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
            rows = self.coords[first][:, list(key)]
            mass = np.bincount(inverse, weights=self.probs, minlength=len(rows))
            rows.setflags(write=False)
            mass.setflags(write=False)
            self._groups[key] = rows, mass
        return self._groups[key]

    def marginal(self, axes_idx):
        """Dense JointDist over the kept axes, in their original order."""
        keep = sorted(_check_axis_set(self, axes_idx, "axes"))
        rows, mass = self.grouped(keep)
        probs = np.zeros(tuple(len(self.axes[i]) for i in keep))
        probs[tuple(rows.T)] = mass
        return JointDist(tuple(self.axes[i] for i in keep), probs)

def _checked_masses(probs):
    """The masses of a pmf, clipped at 0 and read-only, once they are known
    to be finite and nonnegative and to sum to 1 within 1e-12."""
    if probs.min(initial=0.0) < -SUPPORT_EPS:
        raise ValueError("negative probability in pmf")
    total = float(probs.sum())
    if not math.isfinite(total):  # a NaN passes every comparison below
        raise ValueError("non-finite probability in pmf")
    if abs(total - 1.0) > 1e-12 * max(1.0, probs.size ** 0.5):
        raise ValueError("pmf sums to %.17g, not 1" % total)
    probs = np.clip(probs, 0.0, None)
    probs.setflags(write=False)
    return probs


def _codes(cols, sizes):
    """One int64 code per row of equal-length integer columns, ordered as
    the rows are ordered lexicographically: their mixed-radix number in the
    column sizes (Python ints, so that the span check cannot wrap),
    renumbered densely, which keeps the order, before a column would
    overflow it. Rows are equal exactly where their codes are, however
    large the product of the sizes. One sort of one key is the cheap way to
    group rows: a column-by-column lexsort took 1.8 ms against 0.8 ms on
    13,824 rows of 4 columns, and np.unique(axis=0), which sorts rows as
    records, 2-6 times as long as the lexsort."""
    code, span = np.zeros(len(cols[0]), dtype=np.int64), 1
    for col, size in zip(cols, sizes):
        if span * size >= 1 << 63:
            uniq, code = np.unique(code, return_inverse=True)
            span = len(uniq)
        code *= size
        code += col
        span *= size
    return code


class Channel:
    """Conditional distribution p(z|x,y) over finite alphabets.

    kernel has shape (|X|, |Y|, |Z|); entries are finite and nonnegative, and
    every (x, y) row sums to 1 within 1e-12.
    """

    __slots__ = ("x_axis", "y_axis", "z_axis", "kernel")

    def __init__(self, x_axis, y_axis, z_axis, kernel):
        kernel = np.asarray(kernel, dtype=float)
        if kernel.shape != (len(x_axis), len(y_axis), len(z_axis)):
            raise ValueError("kernel shape %s does not match alphabets" % (kernel.shape,))
        if kernel.min(initial=0.0) < -SUPPORT_EPS:
            raise ValueError("negative probability in kernel")
        rows = kernel.sum(axis=2)
        if not np.isfinite(rows).all():
            raise ValueError("non-finite probability in kernel")
        if np.max(np.abs(rows - 1.0)) > 1e-12 * max(1.0, len(z_axis) ** 0.5):
            raise ValueError("kernel rows must sum to 1")
        kernel = np.clip(kernel, 0.0, None)
        kernel.setflags(write=False)
        self.x_axis = x_axis
        self.y_axis = y_axis
        self.z_axis = z_axis
        self.kernel = kernel

    @classmethod
    def from_function(cls, x_axis, y_axis, z_axis, fn):
        """Deterministic channel z = fn(x, y); a CapacityError, before the
        kernel is allocated, above KERNEL_CELL_CAP cells."""
        _check_cells((x_axis, y_axis, z_axis), "kernel", KERNEL_CELL_CAP)
        kernel = np.zeros((len(x_axis), len(y_axis), len(z_axis)))
        for i, x in enumerate(x_axis):
            for j, y in enumerate(y_axis):
                kernel[i, j, z_axis.index(fn(x, y))] = 1.0
        return cls(x_axis, y_axis, z_axis, kernel)

    def __eq__(self, other):
        return (
            isinstance(other, Channel)
            and (self.x_axis, self.y_axis, self.z_axis)
            == (other.x_axis, other.y_axis, other.z_axis)
            and np.array_equal(self.kernel, other.kernel)
        )

    def __repr__(self):
        return "Channel(%s x %s -> %s)" % (self.x_axis.name, self.y_axis.name, self.z_axis.name)


def _check_axis_set(d, axes, what):
    axes = tuple(axes)
    if len(axes) == 0:
        raise ValueError("%s must be non-empty" % what)
    if len(set(axes)) != len(axes):
        raise ValueError("%s contains duplicate indices" % what)
    for i in axes:
        if not isinstance(i, (int, np.integer)) or not (0 <= i < d.n_axes):
            raise ValueError("invalid axis index %r for %d-axis distribution" % (i, d.n_axes))
    return set(int(i) for i in axes)


def xlogx(p, work=None):
    """q * log2(q) cell by cell, with q = where(p > SUPPORT_EPS, p, 1): an
    off-support cell becomes 1 * log2(1) = 0 without a masked gather or
    scatter. With `work`, a (float, bool) pair of buffers of p's shape, q is
    p itself, overwritten, and the call allocates nothing."""
    if work is None:
        q = np.where(p > SUPPORT_EPS, p, 1.0)
        return np.multiply(q, np.log2(q), out=q)
    log, off = work
    np.logical_not(np.greater(p, SUPPORT_EPS, out=off), out=off)
    np.copyto(p, 1.0, where=off)
    return np.multiply(p, np.log2(p, out=log), out=p)


def entropy_of_array(p):
    """H of a raw probability array in bits, with 0 log 0 := 0."""
    p = np.asarray(p, dtype=float)
    return float(-xlogx(p[p > SUPPORT_EPS]).sum())


def _marginal_probs(d, axes):
    """Masses of the marginal of d on an axis set, in some fixed order.

    The one place that tells the two joint forms apart: a dense JointDist
    sums out the other axes, a SupportJoint groups its rows on the kept ones.
    """
    if isinstance(d, SupportJoint):
        return d.grouped(sorted(axes))[1]
    drop = tuple(i for i in range(d.n_axes) if i not in axes)
    return d.probs.sum(axis=drop) if drop else d.probs


def entropy(d, axes):
    """H of the marginal of d (a JointDist or a SupportJoint) on the given
    axis indices, in bits."""
    return entropy_of_array(_marginal_probs(d, _check_axis_set(d, axes, "axes")))


def cond_entropy(d, target_axes, given_axes=()):
    """H(target | given) = H(target u given) - H(given); >= 0 up to 1e-12."""
    target = _check_axis_set(d, target_axes, "target_axes")
    given = set()
    if given_axes:
        given = _check_axis_set(d, given_axes, "given_axes")
    if target & given:
        raise ValueError("target and given axis sets overlap")
    if not given:
        return entropy(d, target)
    return max(entropy(d, target | given) - entropy(d, given), 0.0)


def mutual_info(d, axes_a, axes_b):
    """I(A;B) = H(A) + H(B) - H(A,B), clamped to >= 0."""
    a = _check_axis_set(d, axes_a, "axes_a")
    b = _check_axis_set(d, axes_b, "axes_b")
    if a & b:
        raise ValueError("axis sets overlap")
    return max(entropy(d, a) + entropy(d, b) - entropy(d, a | b), 0.0)


def cond_mutual_info(d, axes_a, axes_b, given_axes):
    """I(A;B|C) via entropies, clamped to >= 0."""
    a = _check_axis_set(d, axes_a, "axes_a")
    b = _check_axis_set(d, axes_b, "axes_b")
    c = _check_axis_set(d, given_axes, "given_axes")
    if (a & b) or (a & c) or (b & c):
        raise ValueError("axis sets overlap")
    v = entropy(d, a | c) + entropy(d, b | c) - entropy(d, a | b | c) - entropy(d, c)
    return max(v, 0.0)


def is_product(p_xy):
    """Whether a 2-axis law is its marginals' product, within ZERO_TOL."""
    outer = np.outer(p_xy.probs.sum(axis=1), p_xy.probs.sum(axis=0))
    return bool(np.max(np.abs(outer - p_xy.probs)) <= ZERO_TOL)


def join(p_xy, ch):
    """p(x,y,z) = p(x,y) p(z|x,y)."""
    if p_xy.n_axes != 2 or p_xy.axes[0] != ch.x_axis or p_xy.axes[1] != ch.y_axis:
        raise ValueError("input distribution axes do not match channel alphabets")
    probs = p_xy.probs[:, :, None] * ch.kernel
    return JointDist((ch.x_axis, ch.y_axis, ch.z_axis), probs)


# ---------------------------------------------------------------------------
# JSON serialization. Symbols are rendered as strings; loading yields
# string-symbol objects, which is the intended interchange form.

def sym_str(s):
    if isinstance(s, str):
        return s
    if isinstance(s, tuple):
        return "(" + ",".join(sym_str(v) for v in s) + ")"
    return str(s)


def alphabet_to_json(a):
    return {"name": a.name, "symbols": [sym_str(s) for s in a.symbols]}


def alphabet_from_json(obj):
    return Alphabet(obj["name"], [str(s) for s in obj["symbols"]])


def dist_to_json(d):
    return {
        "axes": [alphabet_to_json(a) for a in d.axes],
        "pmf": [{"t": [sym_str(s) for s in key], "p": p} for key, p in d.support()],
    }


def unique_dict(pairs, what):
    """{key: value} from (key, value) pairs of a file; a key given twice is
    a ValueError that names it, since a later entry would silently replace
    the earlier one."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError("%s %r is given twice" % (what, key))
        out[key] = value
    return out


def _symbols(t, arity, what):
    """The symbols of a file's "t" entry, which must be a list of exactly
    `arity` of them: a string would be read as its characters."""
    if not isinstance(t, list) or len(t) != arity:
        raise ValueError("%s %r is not a list of %d symbols" % (what, t, arity))
    return tuple(str(s) for s in t)


def _check_cells(axes, what, cap):
    """A CapacityError, before any array is allocated, when the axes span
    more dense cells than `cap`: CONE_CELL_CAP for a file's."""
    cells = math.prod(len(a) for a in axes)
    if cells > cap:
        raise CapacityError("%s of %s symbols needs %d cells, over the cap of %d"
                            % (what, "x".join(str(len(a)) for a in axes), cells, cap))


def dist_from_json(obj):
    axes = [alphabet_from_json(a) for a in obj["axes"]]
    _check_cells(axes, "distribution", CONE_CELL_CAP)
    pmf = unique_dict(((_symbols(row["t"], len(axes), "pmf cell"), float(row["p"]))
                       for row in obj["pmf"]), "pmf cell")
    d = JointDist.from_pmf(axes, pmf)
    # every sum over the support leaves out cells at or below SUPPORT_EPS,
    # so a law enters with them zeroed and the rest rescaled to 1
    tiny = (d.probs > 0.0) & (d.probs <= SUPPORT_EPS)
    if not tiny.any():
        return d
    probs = np.where(tiny, 0.0, d.probs)
    return JointDist(axes, probs / probs.sum())


def channel_to_json(ch):
    rows = []
    for i, x in enumerate(ch.x_axis):
        for j, y in enumerate(ch.y_axis):
            row = {
                sym_str(z): float(p)
                for z, p in zip(ch.z_axis.symbols, ch.kernel[i, j])
                if p > SUPPORT_EPS
            }
            rows.append({"t": [sym_str(x), sym_str(y)], "row": row})
    return {
        "axes": [alphabet_to_json(ch.x_axis), alphabet_to_json(ch.y_axis), alphabet_to_json(ch.z_axis)],
        "kernel": rows,
    }


def channel_from_json(obj):
    x_axis, y_axis, z_axis = (alphabet_from_json(a) for a in obj["axes"])
    _check_cells((x_axis, y_axis, z_axis), "channel", CONE_CELL_CAP)
    kernel = np.zeros((len(x_axis), len(y_axis), len(z_axis)))
    rows = unique_dict(((_symbols(r["t"], 2, "kernel row"), r["row"]) for r in obj["kernel"]),
                       "kernel row")
    for (x, y), row in rows.items():
        i, j = x_axis.index(x), y_axis.index(y)
        for z, p in row.items():
            kernel[i, j, z_axis.index(str(z))] = float(p)
    return Channel(x_axis, y_axis, z_axis, kernel)


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)
