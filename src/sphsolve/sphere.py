"""Geometry of the unit sphere: points, sampling, mesh norm.

Points are unit vectors stored as float64 numpy arrays, shape (3,) for a
single point or (m, 3) for a batch.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNIT_NORM_TOL",
    "EvaluationGrid",
    "as_unit_vectors",
    "uniform_random_points",
    "mesh_norm",
]

UNIT_NORM_TOL = 1e-12


def as_unit_vectors(points) -> np.ndarray:
    """Coerce an (m, 3) array to float64 and check every row is unit length."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (m, 3) points, got shape {pts.shape}")
    norms = np.linalg.norm(pts, axis=1)
    bad = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)  # a NaN row is bad too
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"row {j} is not a unit vector: |x| = {norms[j]!r}")
    return pts / norms[:, None]


@dataclass(frozen=True)
class EvaluationGrid:
    """A batch of unit vectors used as evaluation targets, with its seed."""

    points: np.ndarray
    seed: int

    def __post_init__(self):
        pts = as_unit_vectors(self.points)
        if pts.shape[0] == 0:
            raise ValueError("evaluation grid must contain at least one point")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def uniform_random_points(m: int, seed: int) -> EvaluationGrid:
    """m independent uniform points on the sphere, reproducible from seed.

    Standard Gaussian draws normalized to unit length; exact in
    distribution, bit-identical for a fixed seed.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, 3))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms == 0.0):  # pragma: no cover - probability zero
        bad = norms == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return EvaluationGrid(points=v / norms[:, None], seed=seed)


# Every _SAMPLE_STRIDE-th probe point is measured exactly for the lower bound.
_SAMPLE_STRIDE = 256
# Nodes nearest each cell centre that bound a probe point's chord from above.
_CELL_NODES = 4
# Absolute slack of the filter on L^2: half of it is far above the few-ulp
# round-off of p.y, and absolute so that a nanoradian hole (L^2 ~ 1e-18)
# keeps its maximiser.
_FILTER_SLACK = 1e-12
# Probe rows filtered per block: the temporaries stay in cache, the peak low.
_CHUNK = 16384


def _cell_centres(bands: int, sectors: int) -> np.ndarray:
    """Centres of the cells, row band * (sectors + 1) + sector.

    The table is padded: band `bands` repeats the last band and sector
    `sectors` the last sector, so that z = 1 and phi = pi index a cell.
    """
    band = np.minimum(np.arange(bands + 1), bands - 1)
    sector = np.minimum(np.arange(sectors + 1), sectors - 1)
    z = -1.0 + (band + 0.5) * (2.0 / bands)
    phi = -math.pi + (sector + 0.5) * (2.0 * math.pi / sectors)
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([np.outer(r, np.cos(phi)).ravel(),
                            np.outer(r, np.sin(phi)).ravel(),
                            np.repeat(z, sectors + 1)])


def _node_dots(x: np.ndarray, y: np.ndarray, z: np.ndarray,
               node: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Dot of each row (x, y, z) with the node that node holds for the
    row's cell (node[a] is coordinate a of it), formed in place."""
    dot = node[0][cell]
    dot *= x
    term = node[1][cell]
    term *= y
    dot += term
    np.take(node[2], cell, out=term)
    term *= z
    dot += term
    return dot


def _far_rows(grid: np.ndarray, tables: np.ndarray, bands: int,
              sectors: int, max_dot: float) -> np.ndarray:
    """Rows whose dots with the nodes tables holds for their cell are all
    at most max_dot.

    A row's cell is a uniform band in z times a uniform sector in phi, of
    the padded table of _cell_centres.  The first node of each cell, the
    one nearest its centre, tests every row; the others test only the rows
    that pass it.
    """
    x, y, z = np.ascontiguousarray(grid.T)
    cell = ((z + 1.0) * (0.5 * bands)).astype(np.intp) * (sectors + 1)
    cell += ((np.arctan2(y, x) + math.pi)
             * (sectors / (2.0 * math.pi))).astype(np.intp)
    rows = np.flatnonzero(_node_dots(x, y, z, tables[0], cell) <= max_dot)
    x, y, z, cell = x[rows], y[rows], z[rows], cell[rows]
    best_dot = np.full(rows.shape[0], -np.inf)
    for node in tables[1:]:
        np.maximum(best_dot, _node_dots(x, y, z, node, cell), out=best_dot)
    return rows[best_dot <= max_dot]


def mesh_norm(points, probe: EvaluationGrid) -> float:
    """Geodesic radius of the largest hole of a point set, probed densely.

    Returns max over probe points of the geodesic distance to the nearest
    point of the set.  A lower bound on the true mesh norm that converges
    from below as the probe refines; a probe of >= 100x the set size is
    recommended.

    For unit vectors the chord |p - x| is monotone in the geodesic
    distance, so the probe point p whose nearest point x is farthest holds
    the largest hole.  A k-d tree on the m set points finds nearest points
    exactly, but only probe points that can hold the maximum go through it:

    * a probe point's squared chord to its nearest point is at most
      2 - 2 p . y for every point y of the set.  The y tried are the 4
      points nearest the centre of the probe point's cell, in an
      equal-area lat-long grid of about 2 min(m, P/32) cells for P probe
      points, padded by one band and one sector that repeat the last ones
      so that z = 1 and phi = pi index a cell; one tree query finds the 4
      points of every cell;
    * the tree's chords at every 256th probe point give a lower bound L on
      the largest chord;
    * a probe point can hold the maximum only if p . y <= 1 - (L^2 -
      1e-12) / 2 for each of its cell's points.  The first pass tests
      every probe point against the point nearest its cell's centre; the
      second tests only the survivors, up to about a third, against the
      other three;
    * the tree is queried at the survivors of both passes, and the first
      argmax among them is taken.

    The result is bit-identical to querying every probe point.  Every
    maximiser passes both passes: its chord is at least L; a bound over
    one point of the set is as much an upper bound as one over four, and
    any cell in range keeps it valid; and the bound errs by a few ulp of 1
    only (the slack is absolute, as L^2 can be far below 1e-12).  The
    tree's answer for a point does not depend on the batch it comes in, so
    the first argmax and its nearest point are the full query's.  That one
    pair is measured as atan2(|p x x|, p . x), which keeps full relative
    accuracy at every angle; arccos of a dot cannot tell a hole below
    about 2e-8 rad from none.
    """
    from scipy.spatial import cKDTree  # ~0.07 s, paid on the first call only

    pts = as_unit_vectors(points)
    if pts.shape[0] == 0:
        raise ValueError("mesh_norm of an empty point set is undefined")
    grid = probe.points
    tree = cKDTree(pts)
    # cells square at the equator: 2 / bands = 2 pi / sectors
    cells = max(1, 2 * min(pts.shape[0], grid.shape[0] // 32))
    bands = max(1, round(math.sqrt(cells / math.pi)))
    sectors = max(1, round(cells / bands))
    k = min(_CELL_NODES, pts.shape[0])
    _, cell_nodes = tree.query(_cell_centres(bands, sectors),
                               k=list(range(1, k + 1)))
    # tables[j, a] holds coordinate a of the j-th node of every cell
    tables = np.ascontiguousarray(pts[cell_nodes].transpose(1, 2, 0))
    lower = float(np.max(tree.query(grid[::_SAMPLE_STRIDE])[0]))
    # 2 - 2 p.y >= L^2 - slack, as a bound on the dot
    max_dot = 1.0 - (lower * lower - _FILTER_SLACK) / 2.0
    candidates = np.concatenate([
        start + _far_rows(grid[start:start + _CHUNK], tables, bands, sectors,
                          max_dot)
        for start in range(0, grid.shape[0], _CHUNK)])
    chord, nearest = tree.query(grid[candidates])
    i = int(np.argmax(chord))
    p, x = grid[candidates[i]], pts[nearest[i]]
    return float(np.arctan2(np.linalg.norm(np.cross(p, x)), p @ x))
