"""Deterministic maximization of continuous objectives over a probability simplex.

Scan + polish: a lattice scan (auto-coarsened to a point cap for wide
alphabets, replaced by seeded Dirichlet(1) draws plus structured candidates
above 6 symbols, whose count grows as k^2 / 2: a candidate array of more
than SCAN_CELL_CAP cells raises CapacityError before any of it is built)
followed by coordinate-wise line searches. Each line search
scores a bracket of t values, both simplex-boundary ends included, in one
batched call and then zooms around the best t, so a supremum on a face of
the simplex is reached, not only approached.

Every reported value is the objective evaluated at the reported point, so
for the bound expressions any returned point certifies a valid lower bound;
global optimality is not claimed.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dists import CapacityError

GRID_POINT_CAP = 4000
DIRICHLET_STARTS = 200
# cells (rows x symbols) of the largest candidate array the scan builds; the
# objectives map it onto a support cone whole, then score it in row slices,
# so their entropy temporaries are slice-sized
SCAN_CELL_CAP = 1 << 22
DIRICHLET_SEED = 20240501
SUPPORT_BOUNDARY = 1e-9
# line search: LINE_POINTS t values per call, the first call spanning [0, 1]
# with both ends, then ZOOM_ROUNDS calls each inside the best t's neighbours;
# the final spacing is 1/32 * (2/34)**5, about 2.2e-8
LINE_POINTS = 33
ZOOM_ROUNDS = 5


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
    """Lattice {m/N} on the (k-1)-simplex with N = round(1/step), coarsened
    until the point count fits under GRID_POINT_CAP."""
    if k == 1:
        return np.ones((1, 1))
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


@functools.lru_cache(maxsize=64)
def candidate_points(k, cfg):
    """Deterministic scan candidates for one (k-1)-simplex, built once per
    (k, cfg) and shared read-only (the cache is bounded, since cfg comes from
    the caller)."""
    if k == 1:
        pts = np.ones((1, 1))
    elif k <= 6:
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


def _line_rows(p, coord, ts):
    """Law p with coordinate `coord` moved to each weight of ts and the rest
    scaled proportionally: one row per t, by one broadcast multiply."""
    rest = 1.0 - p[coord]
    if rest > 1e-15:
        rows = p * ((1.0 - ts) / rest)[:, None]
    else:
        rows = np.repeat(((1.0 - ts) / (len(p) - 1))[:, None], len(p), axis=1)
    rows[:, coord] = ts
    return rows


def _line_search(score, p, coord):
    """Best (value, row) on the line that moves coordinate `coord` of p over
    [0, 1].

    The first bracket is LINE_POINTS evenly spaced t values from 0 to 1, both
    ends included; each of ZOOM_ROUNDS further brackets puts LINE_POINTS
    values strictly between the best t so far and its two neighbours. Each
    bracket is one `score` call on an (LINE_POINTS, k) array of rows.
    """
    ts = np.linspace(0.0, 1.0, LINE_POINTS)
    h = ts[1]
    best, row, t = -np.inf, None, 0.0
    for _ in range(ZOOM_ROUNDS + 1):
        rows = _line_rows(p, coord, ts)
        f = np.asarray(score(rows), dtype=float)
        j = int(np.argmax(f))
        if f[j] > best:
            best, row, t = float(f[j]), rows[j].copy(), ts[j]
        lo, hi = max(0.0, t - h), min(1.0, t + h)
        h = (hi - lo) / (LINE_POINTS + 1)
        ts = lo + h * np.arange(1, LINE_POINTS + 1)
    return best, row


def coordinate_polish(values, points, cfg, value=None):
    """Cycle batched line searches over all coordinates of all laws.

    `points` is a list of 1-D simplex points (mutated copies are returned).
    `values(s, rows, points)` scores each row of the (n, k_s) array `rows`
    in place of law s, the other laws held at `points`. Runs cfg.refine_iters
    line searches, stopping early once a full cycle brings no improvement.
    Returns (value, points, rows scored); the value is the objective at the
    returned points.
    """
    points = [np.array(p, dtype=float) for p in points]
    best = float(values(0, points[0][None], points)[0]) if value is None else value
    coords = [(s, c) for s, p in enumerate(points) for c in range(len(p)) if len(p) > 1]
    if not coords:
        return best, points, 0
    evals = 0
    since_improve = 0
    for it in range(cfg.refine_iters):
        s, c = coords[it % len(coords)]
        f, row = _line_search(lambda rows: values(s, rows, points), points[s], c)
        evals += (ZOOM_ROUNDS + 1) * LINE_POINTS
        if f > best + 1e-14:
            best = f
            points[s] = row
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= len(coords):
                break
    return best, points, evals


def optimize_over_simplex(values, k, cfg):
    """Maximize a batched objective over the simplex of k symbols.

    `values` maps an (n, k) array of laws to their (n,) values. The scan
    scores every candidate point in one call; the polish then scores one
    line bracket per call. Deterministic for a fixed cfg.
    """
    cands = candidate_points(k, cfg)
    vals = np.asarray(values(cands), dtype=float)
    i = int(np.argmax(vals))
    value, (witness,), evals = coordinate_polish(
        lambda s, rows, pts: values(rows), [cands[i]], cfg, value=float(vals[i])
    )
    limit = bool(witness.min() <= SUPPORT_BOUNDARY)
    return OptResult(value, witness, limit, len(cands) + evals)
