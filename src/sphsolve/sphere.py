"""Geometry of the unit sphere: points, sampling, the exact mesh norm.

Points are unit vectors stored as float64 numpy arrays, shape (3,) for a
single point or (m, 3) for a batch.  All functions are pure.
"""

from __future__ import annotations

import math
import warnings
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
    """A new C-ordered float64 (m, 3) array of the rows of points, each
    checked to be unit to UNIT_NORM_TOL and divided by its norm; a row unit
    to rounding (4 eps; one division leaves at most 1.5 eps) is divided by
    exactly 1, so it comes back as given and a second call changes nothing."""
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
    norms[np.abs(norms - 1.0) <= 4.0 * np.finfo(np.float64).eps] = 1.0
    return np.divide(pts, norms[:, None], order="C")


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


def _angles(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Geodesic angles between unit vectors p and x, over the last axis.

    atan2(|p x x|, p . x) keeps full relative accuracy at every angle;
    arccos of a dot cannot tell a hole below about 2e-8 rad from none.
    """
    return np.arctan2(np.linalg.norm(np.cross(p, x), axis=-1),
                      np.einsum("...i,...i->...", p, x))


def _midpoint_antipodes(pts: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """-(x + y) / |x + y| for each pair (x, y) that is not antipodal."""
    mid = pts[pairs[:, 0]] + pts[pairs[:, 1]]
    norm = np.linalg.norm(mid, axis=1)
    keep = norm > 0.0
    return mid[keep] / -norm[keep, None]


def _farthest(pts: np.ndarray, centres: np.ndarray) -> float:
    """Largest geodesic distance from a centre to its nearest point."""
    from scipy.spatial import cKDTree

    _, nearest = cKDTree(pts).query(centres)
    return float(np.max(_angles(centres, pts[nearest])))


def mesh_norm(points, probe: EvaluationGrid | None = None) -> float:
    """Mesh norm h_X of a point set: its geodesic covering radius, exactly.

    h_X is the largest geodesic distance from a point of the sphere to its
    nearest point of the set.  The farthest point y is a local maximum of
    that distance, of one of three kinds:

    * a vertex of the spherical Voronoi diagram.  These are the unit outward
      normals n of the facets of the convex hull of the points (one qhull
      call, Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996): no point lies
      beyond a facet's plane, so the cap about n through the facet's
      vertices is empty and they are n's nearest points.  A facet's value
      is the largest angle from n to one of its vertices;
    * the antipode of the midpoint of two Voronoi neighbours, where the
      distance peaks along their Voronoi edge if the edge reaches it.  It
      lies more than pi/2 from both, so it is a local maximum only when
      every point lies in a closed hemisphere, which is when some facet's
      value is at least pi/2.  Only then are the antipodes of the hull
      edges' midpoints measured, by one k-d-tree query for their nearest
      points;
    * the antipode of the point, when all points coincide.

    qhull raises QhullError for m <= 3 and for points on one circle (a
    flat hull).  There the Voronoi vertices are the two poles of the
    points' plane, +-its normal, and the neighbours are the pairs adjacent
    around the circle (a lone point pairs with itself, giving its antipode).
    All of these candidates are measured by the k-d tree; antipodal pairs,
    which have no midpoint, are skipped.

    probe is ignored and deprecated: passing one warns.
    """
    from scipy.spatial import ConvexHull, QhullError  # paid on the first call

    if probe is not None:
        warnings.warn("mesh_norm is exact and ignores probe, which will be "
                      "removed", DeprecationWarning, stacklevel=2)
    pts = as_unit_vectors(points)
    if pts.shape[0] == 0:
        raise ValueError("mesh_norm of an empty point set is undefined")
    try:
        hull = ConvexHull(pts)
    except QhullError:
        centred = pts - pts.mean(axis=0)
        _, axes = np.linalg.eigh(centred.T @ centred)  # ascending spread
        normal, e2, e1 = axes.T
        order = np.argsort(np.arctan2(pts @ e2, pts @ e1))
        pairs = np.column_stack([order, np.roll(order, -1)])
        return _farthest(pts, np.vstack([normal, -normal,
                                         _midpoint_antipodes(pts, pairs)]))
    facets = hull.simplices
    h = float(np.max(_angles(hull.equations[:, None, :3], pts[facets])))
    # a Voronoi vertex at exactly pi/2 may round to just below it
    if h >= math.pi / 2.0 - 1e-9:
        edges = np.concatenate([facets[:, [0, 1]], facets[:, [1, 2]],
                                facets[:, [2, 0]]])
        h = max(h, _farthest(pts, _midpoint_antipodes(pts, edges)))
    return h
