"""Deterministic maximization of continuous objectives over a probability simplex.

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

    def __post_init__(self):
        if self.grid_resolution <= 0:
            raise ValueError("grid_resolution must be > 0")


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


def _line_points(p, coord, t):
    """Move coordinate `coord` to weight t, scaling the rest proportionally."""
    rest = 1.0 - p[coord]
    if rest > 1e-15:
        out = p * ((1.0 - t) / rest)
    else:
        out = np.full(len(p), (1.0 - t) / (len(p) - 1) if len(p) > 1 else 1.0)
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
    """Cycle golden-section line searches over all coordinates of all laws.

    `objective` maps a list of 1-D simplex points to a float; `points` is
    that list (mutated copies are returned). Runs cfg.refine_iters line
    searches, stopping early once a full cycle brings no improvement.
    """
    points = [np.array(p, dtype=float) for p in points]
    best = objective(points) if value is None else value
    coords = [(s, c) for s, p in enumerate(points) for c in range(len(p)) if len(p) > 1]
    if not coords:
        return best, points, 0
    evals = 0
    since_improve = 0
    for it in range(cfg.refine_iters):
        s, c = coords[it % len(coords)]
        base = [p.copy() for p in points]

        def fn(t):
            trial = [p if i != s else _line_points(base[s], c, t) for i, p in enumerate(base)]
            return objective(trial)

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
    return best, points, evals


def optimize_over_simplex(values, k, cfg):
    """Maximize a batched objective over the simplex of k symbols.

    `values` maps an (n, k) array of laws to their (n,) values. The scan
    scores every candidate point in one call; the polish then scores one
    row at a time. Deterministic for a fixed cfg.
    """
    cands = candidate_points(k, cfg)
    vals = np.asarray(values(cands), dtype=float)
    i = int(np.argmax(vals))

    def objective(pts):
        return float(values(pts[0][None])[0])

    value, (witness,), evals = coordinate_polish(objective, [cands[i]], cfg, value=float(vals[i]))
    limit = bool(witness.min() <= SUPPORT_BOUNDARY)
    return OptResult(value, witness, limit, len(cands) + evals)
