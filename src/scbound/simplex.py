"""Deterministic maximization of continuous objectives over a probability simplex.

Scan + polish: a lattice scan (auto-coarsened to a point cap for wide
alphabets, replaced by seeded Dirichlet(1) draws plus structured candidates
above LATTICE_SYMBOLS symbols, whose count grows as k^2 / 2: an array of
more than SCAN_CELL_CAP cells raises CapacityError before it is built)
followed by coordinate-wise line searches. Each line search scores a
bracket of t values, both simplex-boundary ends included, and then
zooms around the best t, so a supremum on a face of the simplex is reached,
not only approached. The pending line searches of one law run in lockstep:
each bracket round of the batch is one call on a (lines, LINE_POINTS, k)
stack, and the polish keeps exactly the value and points of the same line
searches run one at a time.

An objective maps a (..., k) array of laws to the (...) array of their
values. The lockstep polish returns the one-at-a-time result bit for bit as
long as the objective scores each bracket of a stack as it scores that
(LINE_POINTS, k) bracket alone.

Each objective also gives its one-sided slopes at a point along e_j - p,
toward each vertex j of each law p. The largest is the Frank-Wolfe gap
(Jaggi, ICML 2013): every line of the polish moves along such a direction
or its reverse, so where every law's gap is at most STATIONARY_GAP no line
can gain to first order, and the polish returns its start without scoring
a line. A polish that starts above it runs as it would without the test.

A caller may pass seeds, further starts scored in one more call: a seed
that beats every candidate starts the polish, and is returned unpolished
where it is stationary, as the uniform law on a face (face_points) is at
the tight joint-law terms. A seed that is not stationary is kept only if
its polish ends above the best candidate's.

Every reported value is the objective evaluated at the reported point, so
for the bound expressions any returned point certifies a valid lower bound;
global optimality is not claimed.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dists import CapacityError

GRID_POINT_CAP = 4000
LATTICE_SYMBOLS = 6  # the widest simplex whose candidates hold no Dirichlet draws
# the widest joint-law simplex whose scan also takes face_points: 218 rows at 8
FACE_SYMBOLS = 8
DIRICHLET_STARTS = 200
# cells (rows x symbols) of the largest candidate array the scan builds; the
# objectives map it onto a support cone whole, then score it in row slices,
# so their entropy temporaries are slice-sized
SCAN_CELL_CAP = 1 << 22
DIRICHLET_SEED = 20240501
SUPPORT_BOUNDARY = 1e-9
# line search: LINE_POINTS t values per bracket, the first bracket spanning
# [0, 1] with both ends, then ZOOM_ROUNDS brackets each inside the best t's
# neighbours; the final spacing is 1/32 * (2/34)**5, about 2.2e-8
LINE_POINTS = 33
ZOOM_ROUNDS = 5
_STEPS = np.arange(1, LINE_POINTS + 1)  # a bracket is lo + h * _STEPS
# the first bracket, at h = 1/32 and lo = -h: 0, 1/32, ..., 1 exactly
_FIRST = (-1.0 / (LINE_POINTS - 1) + 1.0 / (LINE_POINTS - 1) * _STEPS)[None]
# a polish whose every law starts at a Frank-Wolfe gap at or below this is
# skipped: far above the analytic gap's float noise at a stationary start,
# far below the smallest start gap of a polish that gains (at most 1.1e-15
# and at least 5.5e-7 on the built-ins and 60 random channels)
STATIONARY_GAP = 1e-9


@dataclass(frozen=True)
class OptConfig:
    grid_resolution: float = 0.02
    refine_iters: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.grid_resolution) and 0 < self.grid_resolution <= 1):
            raise ValueError("grid_resolution must be finite and in (0, 1]")
        if not isinstance(self.refine_iters, int) or self.refine_iters < 0:
            raise ValueError("refine_iters must be an int >= 0")


@dataclass
class OptResult:
    value: float
    witness: np.ndarray
    limit_point: bool
    evaluations: int


def simplex_grid(k, step):
    """Lattice {m/N} on the (k-1)-simplex, k >= 2, with N = round(1/step),
    coarsened until the point count fits under GRID_POINT_CAP."""
    n = max(1, round(1.0 / step))
    while math.comb(n + k - 1, k - 1) > GRID_POINT_CAP and n > 1:
        n = max(1, n // 2)
    # every composition of at most n into k-1 parts, in itertools.product order
    c = np.indices((n + 1,) * (k - 1)).reshape(k - 1, -1).T
    c = c[c.sum(axis=1) <= n]
    return np.column_stack([c, n - c.sum(axis=1)]) / n


def structured_points(k, out=None):
    """Uniform point, vertices, and all two-symbol even mixtures, in that
    order (pairs (i, j), i < j, row-major), written into `out`, a zeroed
    (1 + k + k(k-1)/2, k) array, or into a new one."""
    n_pairs = k * (k - 1) // 2
    pts = np.zeros((1 + k + n_pairs, k)) if out is None else out
    pts[0] = 1.0 / k
    pts[np.arange(1, 1 + k), np.arange(k)] = 1.0
    i, j = np.triu_indices(k, 1)
    rows = np.arange(1 + k, 1 + k + n_pairs)
    pts[rows, i] = 0.5
    pts[rows, j] = 0.5
    return pts


def face_points(k):
    """The uniform law on every set of 3 to k - 1 of k symbols, the faces
    structured_points leaves out, as an (n, k) array: by set size, then in
    itertools.combinations order. Empty for k <= 3; 4 rows at k = 4, 218 at
    k = 8, and 2^k - k(k+1)/2 - 2 in all, so only small k are asked for."""
    sets = [s for m in range(3, k) for s in itertools.combinations(range(k), m)]
    pts = np.zeros((len(sets), k))
    for row, s in zip(pts, sets):
        row[list(s)] = 1.0 / len(s)
    return pts


def candidate_points(k, cfg):
    """Deterministic scan candidates for one (k-1)-simplex, as a read-only
    (n, k) array; whoever scans a simplex more than once keeps them (a term
    bank, per side)."""
    if k == 1:
        pts = np.ones((1, 1))
    elif k <= LATTICE_SYMBOLS:
        pts = np.concatenate([simplex_grid(k, cfg.grid_resolution), structured_points(k)])
    else:
        rows = 1 + k + k * (k - 1) // 2 + DIRICHLET_STARTS
        if rows * k > SCAN_CELL_CAP:
            raise CapacityError(
                "scan over %d symbols needs %d candidate cells, over the cap of %d"
                % (k, rows * k, SCAN_CELL_CAP)
            )
        # one array, filled in place: a list of rows copied into it would
        # peak at about three times its size
        pts = np.zeros((rows, k))
        structured_points(k, out=pts[:rows - DIRICHLET_STARTS])
        rng = np.random.default_rng(DIRICHLET_SEED + k)
        pts[rows - DIRICHLET_STARTS:] = rng.dirichlet(np.ones(k), size=DIRICHLET_STARTS)
    pts.flags.writeable = False
    return pts


def _line_searches(score, p, cs):
    """Best (values, rows) on the lines that move each coordinate c of cs of
    law p over [0, 1], all from p, run in lockstep: a list of floats and a
    (len(cs), k) array of rows.

    The row at t on the line of c puts weight t on c and scales the rest of
    p by (1 - t) / (1 - p[c]); at the vertex of c (1 - p[c] <= 1e-15) the
    rest is uniform, the same formula with ones in place of p and k - 1 in
    place of 1 - p[c]. Each line's first bracket is LINE_POINTS evenly
    spaced t values from 0 to 1, both ends included; each of ZOOM_ROUNDS
    further brackets puts LINE_POINTS values strictly between the line's
    best t so far and its two neighbours. Each round makes one `score` call
    on the (len(cs), LINE_POINTS, k) stack of all the lines' brackets. Only
    the rows and the scores are arrays: each line's best value, t and
    bracket are Python floats, so no line's arithmetic depends on the lines
    beside it.
    """
    b, k = len(cs), len(p)
    rests = [1.0 - float(p[c]) for c in cs]
    vertex = [rest <= 1e-15 for rest in rests]
    P = np.where(np.array(vertex)[:, None], 1.0, p) if any(vertex) else p
    den = np.array([k - 1.0 if v else rest for v, rest in zip(vertex, rests)])[:, None]
    # flat index of each bracket row's coordinate c in the stack
    at = np.arange(0, b * LINE_POINTS * k, k).reshape(b, LINE_POINTS) + np.array(cs)[:, None]
    P3, lines = P[..., None, :], np.arange(b)
    best, t = [-np.inf] * b, [0.0] * b
    h = [1.0 / (LINE_POINTS - 1)] * b
    lo = [-h[0]] * b
    ts = _FIRST
    for r in range(ZOOM_ROUNDS + 1):
        if r:
            ts = np.array(lo)[:, None] + np.array(h)[:, None] * _STEPS
        rows = P3 * ((1.0 - ts) / den)[:, :, None]
        rows.reshape(-1)[at] = ts
        f = np.asarray(score(rows), dtype=float)
        js = f.argmax(axis=1)
        for i, (fj, j) in enumerate(zip(f[lines, js].tolist(), js.tolist())):
            if fj > best[i]:
                # ts[i, j], by the same float operations
                best[i], t[i] = fj, lo[i] + h[i] * (j + 1)
            lo[i], hi = max(0.0, t[i] - h[i]), min(1.0, t[i] + h[i])
            h[i] = (hi - lo[i]) / (LINE_POINTS + 1)
    # each line's best row, rebuilt once from its t
    t = np.array(t)
    rows = P * ((1.0 - t)[:, None] / den)
    rows[lines, cs] = t
    return best, rows


def frank_wolfe_gap(slopes, points):
    """The largest one-sided slope of `slopes(points)` over every law and
    vertex: each law's Frank-Wolfe gap max_j f'(p; e_j - p), maximized over
    the laws."""
    return float(np.max(np.concatenate(slopes(points))))


def coordinate_polish(values, slopes, points, cfg, value=None):
    """Cycle batched line searches over all coordinates of all laws.

    `points` is a list of 1-D simplex points (mutated copies are returned).
    `values(s, rows, points)` maps the (..., k_s) array `rows` to the (...)
    values of each row in place of law s, the other laws held at `points`.
    `slopes(points)` gives, per law s, the (k_s,) one-sided derivatives of
    the objective at `points` along e_j - points[s], toward each vertex j
    of law s; its largest is the law's Frank-Wolfe gap. If every law's gap
    is at or below STATIONARY_GAP, no line can gain to first order and the
    polish returns (value, points, 0) without scoring a line. Otherwise it
    runs cfg.refine_iters line searches in coordinate order, stopping early
    once a full cycle brings no improvement, and returns (value, points,
    rows scored); the value is the objective at the returned points.

    The next line searches of the current law run in lockstep
    (_line_searches), as many as the budget, the stop rule and a width
    allow. The width is one at first and after a gain, and doubles after a
    batch without one, so the lines run again, which are wasted work,
    never outnumber the lines the polish needs. The results are read in
    coordinate order up to the first gain, which is taken; the lines after
    it are run again from the new point. So the value and points are those
    of the line searches run one at a time, and the rows scored include
    the lines run again.
    """
    points = [np.array(p, dtype=float) for p in points]
    best = float(values(0, points[0][None], points)[0]) if value is None else value
    coords = [(s, c) for s, p in enumerate(points) for c in range(len(p)) if len(p) > 1]
    if not coords or frank_wolfe_gap(slopes, points) <= STATIONARY_GAP:
        return best, points, 0
    n = len(coords)
    evals = it = since_improve = 0
    width = 1
    while it < cfg.refine_iters and since_improve < n:
        s = coords[it % n][0]
        cap = min(width, cfg.refine_iters - it, n - since_improve)
        cs = []  # the next coordinates in cycle order, up to the end of law s
        for m in range(cap):
            law, c = coords[(it + m) % n]
            if law != s:
                break
            cs.append(c)
        fs, rows = _line_searches(lambda r: values(s, r, points), points[s], cs)
        evals += len(cs) * (ZOOM_ROUNDS + 1) * LINE_POINTS
        width *= 2
        for f, row in zip(fs, rows):
            it += 1
            if f > best + 1e-14:
                best, points[s] = f, row.copy()
                since_improve, width = 0, 1
                break
            since_improve += 1
    return best, points, evals


def optimize_over_simplex(values, slopes, cands, cfg, seeds=None):
    """Maximize a batched objective over the simplex of k symbols.

    `values` maps a (..., k) array of laws to their (...) values, and
    `slopes` one law p to the (k,) one-sided derivatives of the objective
    along e_j - p. The scan scores the (n, k) candidates `cands` in one
    call; the polish then scores one (lines, LINE_POINTS, k) stack of
    brackets per call, unless the scan's best point is stationary (see
    coordinate_polish). Deterministic for fixed cands, seeds and cfg.

    `seeds`, if given, is an (m, k) array of further starts, scored in one
    more call. Where the best seed beats every candidate, the polish starts
    from it, and a stationary seed is returned as it is. A polish of a seed
    that runs any line also polishes the best candidate, as without seeds,
    and keeps the better result: a seed that is not stationary can lead the
    polish to a lower local maximum than the best candidate does (1.7e-3
    lower on one of 72 seeded random channels).
    """
    vals = np.asarray(values(cands), dtype=float)
    i = int(np.argmax(vals))
    n = len(cands) if seeds is None else len(cands) + len(seeds)
    svals = None if seeds is None else np.asarray(values(seeds), dtype=float)

    def polish(start, value):
        return coordinate_polish(lambda s, rows, pts: values(rows),
                                 lambda pts: [slopes(pts[0])], [start], cfg, value=float(value))

    if svals is not None and svals.max() > vals[i]:
        j = int(np.argmax(svals))
        value, (witness,), evals = polish(seeds[j], svals[j])
        if evals:
            other, (at,), more = polish(cands[i], vals[i])
            evals += more
            if other > value:
                value, witness = other, at
    else:
        value, (witness,), evals = polish(cands[i], vals[i])
    limit = bool(witness.min() <= SUPPORT_BOUNDARY)
    return OptResult(value, witness, limit, n + evals)
