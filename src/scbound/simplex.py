"""Deterministic maximization of continuous objectives over probability simplexes.

Scan + polish: a lattice scan (auto-coarsened to a point cap for wide
alphabets, replaced by seeded Dirichlet(1) draws plus structured candidates
above 6 symbols) followed by coordinate-wise golden-section line searches.
Every reported value is the objective evaluated at the reported point, so
for the bound expressions any returned point certifies a valid lower bound;
global optimality is not claimed.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

GRID_POINT_CAP = 4000
DIRICHLET_STARTS = 200
DIRICHLET_SEED = 20240501
GOLDEN_ITERS = 32
SUPPORT_BOUNDARY = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptConfig:
    grid_resolution: float = 0.02
    refine_iters: int = 60
    simplex_floor: float = 0.0

    def __post_init__(self):
        if self.grid_resolution <= 0:
            raise ValueError("grid_resolution must be > 0")
        if self.simplex_floor < 0:
            raise ValueError("simplex_floor must be >= 0")


@dataclass
class OptResult:
    value: float
    witnesses: tuple  # one 1-D ndarray per simplex
    limit_point: bool
    evaluations: int


def simplex_grid(k, step):
    """Lattice {m/N} on the (k-1)-simplex with N = round(1/step), coarsened
    until the point count fits under GRID_POINT_CAP."""
    if k == 1:
        return np.ones((1, 1))
    n = max(1, round(1.0 / step))
    while math.comb(n + k - 1, k - 1) > GRID_POINT_CAP and n > 1:
        n = max(1, n // 2)
    pts = [c for c in itertools.product(range(n + 1), repeat=k - 1) if sum(c) <= n]
    arr = np.zeros((len(pts), k))
    for i, c in enumerate(pts):
        arr[i, : k - 1] = c
        arr[i, k - 1] = n - sum(c)
    return arr / n


def structured_points(k):
    """Uniform point, vertices, and all two-symbol even mixtures."""
    pts = [np.full(k, 1.0 / k)]
    for i in range(k):
        v = np.zeros(k)
        v[i] = 1.0
        pts.append(v)
    for i in range(k):
        for j in range(i + 1, k):
            v = np.zeros(k)
            v[i] = v[j] = 0.5
            pts.append(v)
    return np.array(pts)


def candidate_points(k, cfg):
    """Deterministic scan candidates for one (k-1)-simplex."""
    if k == 1:
        return np.ones((1, 1))
    if k <= 6:
        grid = simplex_grid(k, cfg.grid_resolution)
        return np.concatenate([grid, structured_points(k)])
    rng = np.random.default_rng(DIRICHLET_SEED + k)
    draws = rng.dirichlet(np.ones(k), size=DIRICHLET_STARTS)
    return np.concatenate([structured_points(k), draws])


def _apply_floor(p, floor):
    """Affine embedding of the simplex into {q : q_i >= floor}."""
    if floor <= 0:
        return p
    k = p.shape[-1]
    scale = 1.0 - k * floor
    if scale < 0:
        raise ValueError("simplex_floor %g infeasible for %d symbols" % (floor, k))
    return floor + scale * p


def _line_points(p, coord, t):
    """Move coordinate `coord` to weight t, scaling the rest proportionally."""
    out = p.copy()
    rest = 1.0 - p[coord]
    out[coord] = t
    if rest > 1e-15:
        scale = (1.0 - t) / rest
        for i in range(len(out)):
            if i != coord:
                out[i] = p[i] * scale
    else:
        out[:] = (1.0 - t) / (len(out) - 1) if len(out) > 1 else 1.0
        out[coord] = t
    return out


def _golden(fn, lo, hi, iters=GOLDEN_ITERS):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def coordinate_polish(objective, points, cfg, value=None):
    """Cycle golden-section line searches over all coordinates of all simplexes.

    `points` is a list of 1-D simplex points (mutated copies are returned);
    the floor, when set, is applied as an affine embedding at evaluation
    time. Runs cfg.refine_iters line searches, stopping early once a full
    cycle brings no improvement.
    """
    floor = cfg.simplex_floor

    def run(pts):
        return objective([_apply_floor(p, floor) for p in pts])

    points = [np.array(p, dtype=float) for p in points]
    best = run(points) if value is None else value
    coords = [(s, c) for s, p in enumerate(points) for c in range(len(p)) if len(p) > 1]
    if not coords:
        return best, [_apply_floor(p, floor) for p in points], 0
    evals = 0
    since_improve = 0
    for it in range(cfg.refine_iters):
        s, c = coords[it % len(coords)]
        base = [p.copy() for p in points]

        def fn(t):
            trial = [p if i != s else _line_points(base[s], c, t) for i, p in enumerate(base)]
            return run(trial)

        t_best, f_best = _golden(fn, 0.0, 1.0)
        evals += GOLDEN_ITERS + 2
        if f_best > best + 1e-14:
            best = f_best
            points[s] = _line_points(base[s], c, t_best)
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= len(coords):
                break
    return best, [_apply_floor(p, floor) for p in points], evals


def optimize_over_simplex(objective, shapes, cfg, batch_objective=None):
    """Maximize objective(list of pmfs) over a product of simplexes.

    shapes: alphabet sizes, one per optimized distribution. batch_objective,
    when given, maps a list of aligned (n, k_i) candidate blocks to an (n,)
    value array and is used for the scan. Deterministic for a fixed cfg.
    """
    shapes = tuple(int(k) for k in shapes)
    cand_sets = [candidate_points(k, cfg) for k in shapes]
    total = int(np.prod([len(c) for c in cand_sets]))
    if total <= GRID_POINT_CAP * 4:
        blocks = _cartesian(cand_sets)
    else:
        # scan one simplex at a time with the others held uniform
        parts = []
        for si, cands in enumerate(cand_sets):
            parts.append(
                [
                    cands if i == si else np.repeat(np.full((1, k), 1.0 / k), len(cands), axis=0)
                    for i, k in enumerate(shapes)
                ]
            )
        blocks = [np.concatenate([part[i] for part in parts]) for i in range(len(shapes))]

    floored = [_apply_floor(b, cfg.simplex_floor) for b in blocks]
    evals = len(floored[0])
    if batch_objective is not None:
        vals = np.asarray(batch_objective(floored), dtype=float)
    else:
        vals = np.array([objective([p[i] for p in floored]) for i in range(evals)])
    i = int(np.argmax(vals))
    best_val = float(vals[i])
    best_raw = [b[i].copy() for b in blocks]

    best_val, best_pt, polish_evals = coordinate_polish(objective, best_raw, cfg, value=best_val)
    evals += polish_evals
    limit = any(p.min() <= SUPPORT_BOUNDARY for p in best_pt)
    return OptResult(best_val, tuple(best_pt), limit, evals)


def _cartesian(cand_sets):
    """Cartesian product of candidate sets as aligned (n, k_i) blocks."""
    sizes = [len(c) for c in cand_sets]
    grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
    return [c[g.ravel()] for c, g in zip(cand_sets, grids)]
