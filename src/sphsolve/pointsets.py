"""Quadrature rules on the sphere: file ingestion and built-in generators.

A rule is a point set X_m with positive weights w_j.  Externally computed
configurations (t-designs, minimal-energy, Fekete) are ingested from text
files; equal-area and random rules are generated here.

File format: one point per row, whitespace-separated `x y z [w]`, comments
starting with `#`.  Floats are written with 17 significant digits so a
load -> save -> load cycle is bit-identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import sphere
from .sphere import uniform_random_points

__all__ = [
    "QuadratureRule",
    "PointFileError",
    "load_pointset",
    "save_pointset",
    "equal_area_points",
    "random_rule",
    "equal_area_rings",
    "bundled_pointset_path",
    "bundled_pointsets",
]

# Row norms may deviate from 1 by at most this much before normalization.
INGEST_NORM_TOL = 1e-6
# Bound on the total weight of a rule (the true surface measure is 4*pi).
DEFAULT_WEIGHT_BOUND = 8.0 * math.pi

FOUR_PI = 4.0 * math.pi


class PointFileError(ValueError):
    """Malformed point-set file; message carries the 1-based line number."""


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable point set plus positive weights and a provenance label.

    mesh_norm, the nodes' covering radius, is measured on its first read.
    """

    points: np.ndarray
    weights: np.ndarray
    label: str

    def __post_init__(self):
        # Copies, so that neither the caller's arrays are frozen nor a later
        # edit of them reaches the validated rule.
        pts = np.array(self.points, dtype=np.float64, order="C")
        w = np.array(self.weights, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (m, 3), got {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ValueError(
                f"weights shape {w.shape} does not match {pts.shape[0]} points")
        if pts.shape[0] == 0:
            raise ValueError("a quadrature rule needs at least one point")
        norms = np.linalg.norm(pts, axis=1)
        # each check is "not (valid)", so that a NaN fails it
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            j = int(np.argmax(np.abs(norms - 1.0)))  # a NaN row comes first
            raise ValueError(f"point {j} is not on the unit sphere: |x| = {norms[j]!r}")
        if not np.all(w > 0.0):
            j = int(np.argmin(w > 0.0))
            raise ValueError(f"weight {j} is not positive: {w[j]!r}")
        total = float(np.sum(w))
        if total > DEFAULT_WEIGHT_BOUND:
            raise ValueError(f"total weight {total!r} exceeds the bound "
                             f"{DEFAULT_WEIGHT_BOUND!r}")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.m

    @functools.cached_property
    def mesh_norm(self) -> float:
        """h_X of the read-only nodes (sphere.mesh_norm), kept on the rule."""
        # perfbench's tracer wraps sphere.mesh_norm by name, reads args[1]
        return sphere.mesh_norm(self.points, None)


def load_pointset(path, weight_mode: str = "equal",
                  label: str | None = None) -> QuadratureRule:
    """Read a `x y z [w]` text file into a QuadratureRule.

    weight_mode "equal" assigns w_j = 4pi/m; "from_file" requires the 4th
    column on every row.  Rows whose norm deviates from 1 by more than 1e-6
    are rejected (with their line number) rather than silently normalized.
    """
    if weight_mode not in ("equal", "from_file"):
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    path = Path(path)
    rows: list[tuple[float, float, float]] = []
    file_weights: list[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (3, 4):
                raise PointFileError(
                    f"{path}:{lineno}: expected 3 or 4 columns, got {len(fields)}")
            try:
                vals = [float(s) for s in fields]
            except ValueError:
                raise PointFileError(
                    f"{path}:{lineno}: non-numeric field in {line!r}") from None
            if not all(math.isfinite(v) for v in vals):
                raise PointFileError(f"{path}:{lineno}: non-finite value")
            r = math.sqrt(vals[0] ** 2 + vals[1] ** 2 + vals[2] ** 2)
            if abs(r - 1.0) > INGEST_NORM_TOL:
                raise PointFileError(
                    f"{path}:{lineno}: point norm {r!r} deviates from 1 "
                    f"by more than {INGEST_NORM_TOL}")
            rows.append((vals[0] / r, vals[1] / r, vals[2] / r))
            if weight_mode == "from_file":
                if len(fields) != 4:
                    raise PointFileError(
                        f"{path}:{lineno}: weight_mode=from_file but the row "
                        f"has no weight column")
                if vals[3] <= 0.0:
                    raise PointFileError(
                        f"{path}:{lineno}: weight {vals[3]!r} is not positive")
                file_weights.append(vals[3])
    if not rows:
        raise PointFileError(f"{path}: no points found")
    pts = np.array(rows, dtype=np.float64)
    m = pts.shape[0]
    w = (np.array(file_weights, dtype=np.float64)
         if weight_mode == "from_file" else np.full(m, FOUR_PI / m))
    return QuadratureRule(points=pts, weights=w,
                          label=label if label is not None else path.name)


def save_pointset(rule: QuadratureRule, path, include_weights: bool = True) -> None:
    """Write a rule in the text format above, 17 significant digits."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {rule.label}: m = {rule.m}\n")
        for j in range(rule.m):
            x, y, z = rule.points[j]
            if include_weights:
                fh.write(f"{x:.17g} {y:.17g} {z:.17g} {rule.weights[j]:.17g}\n")
            else:
                fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def equal_area_rings(m: int) -> list[tuple[float, float, int]]:
    """Zonal layout behind equal_area_points: (theta_top, theta_bottom, count).

    Two polar caps of area 4pi/m plus collars of near-square height; each
    collar gets round(area / (4pi/m)) regions with the rounding discrepancy
    carried to the next collar, so counts sum to m exactly.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1:
        return [(0.0, math.pi, 1)]
    if m == 2:
        return [(0.0, math.pi / 2, 1), (math.pi / 2, math.pi, 1)]
    area = FOUR_PI / m
    theta_cap = math.acos(1.0 - 2.0 / m)  # cap of area 4pi/m
    ideal_height = math.sqrt(area)
    n_collars = max(1, round((math.pi - 2.0 * theta_cap) / ideal_height))
    height = (math.pi - 2.0 * theta_cap) / n_collars
    rings = [(0.0, theta_cap, 1)]
    carry = 0.0
    for i in range(n_collars):
        top = theta_cap + i * height
        bottom = theta_cap + (i + 1) * height
        ideal = 2.0 * math.pi * (math.cos(top) - math.cos(bottom)) / area
        count = max(1, round(ideal + carry))
        carry += ideal - count
        rings.append((top, bottom, count))
    rings.append((math.pi - theta_cap, math.pi, 1))
    assert sum(r[2] for r in rings) == m
    return rings


def equal_area_points(m: int) -> QuadratureRule:
    """Equal-weight rule on the recursive zonal equal-area partition.

    One point at each region center: caps contribute the poles; a collar
    with c regions contributes c points at its middle colatitude, equally
    spaced in longitude with alternating half-slice offsets between
    consecutive collars.
    """
    rings = equal_area_rings(m)
    pts = np.empty((m, 3))
    j = 0
    for i, (top, bottom, count) in enumerate(rings):
        if top == 0.0:
            pts[j] = (0.0, 0.0, 1.0)
            j += 1
            continue
        if bottom == math.pi:
            pts[j] = (0.0, 0.0, -1.0)
            j += 1
            continue
        theta = 0.5 * (top + bottom)
        st, ct = math.sin(theta), math.cos(theta)
        offset = 0.5 * (i % 2)
        for q in range(count):
            phi = 2.0 * math.pi * (q + offset) / count
            pts[j] = (st * math.cos(phi), st * math.sin(phi), ct)
            j += 1
    assert j == m
    return QuadratureRule(points=pts, weights=np.full(m, FOUR_PI / m),
                          label=f"equal_area:{m}")


def random_rule(m: int, seed: int) -> QuadratureRule:
    """m uniform random points with equal weights 4pi/m."""
    grid = uniform_random_points(m, seed)
    return QuadratureRule(points=grid.points,
                          weights=np.full(m, FOUR_PI / m),
                          label=f"random:{m}:{seed}")


def bundled_pointset_path(name: str) -> Path:
    """Filesystem path of a point-set file shipped with the package."""
    root = resources.files("sphsolve").joinpath("data", "pointsets")
    p = Path(str(root.joinpath(name)))
    if not p.exists():
        raise FileNotFoundError(
            f"no bundled point set {name!r}; available: {bundled_pointsets()}")
    return p


def bundled_pointsets() -> list[str]:
    """Names of all point-set files shipped with the package."""
    root = resources.files("sphsolve").joinpath("data", "pointsets")
    try:
        return sorted(entry.name for entry in root.iterdir()
                      if entry.name.endswith(".txt"))
    except FileNotFoundError:
        return []
