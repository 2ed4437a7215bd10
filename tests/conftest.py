"""Shared fixtures: bundled designs, probe grids, the octahedron rule."""

from __future__ import annotations

import numpy as np
import pytest

from sphsolve import (
    EvaluationGrid,
    QuadratureRule,
    bundled_pointset_path,
    load_pointset,
    uniform_random_points,
)
from sphsolve.sphere import as_unit_vectors


def pytest_configure(config):
    # An oracle value that could not be certified fails its test instead of
    # passing on loose bounds; pytest.warns still sees the warning.
    config.addinivalue_line(
        "filterwarnings", "error::sphsolve.moments.OracleAccuracyWarning")


def design_rule(t: int) -> QuadratureRule:
    """Bundled t-design with m = (t+1)^2 points and equal weights."""
    m = (t + 1) ** 2
    return load_pointset(bundled_pointset_path(f"td{t:03d}_{m:05d}.txt"),
                         weight_mode="equal", label=f"td{t}")


@pytest.fixture(scope="session")
def td10() -> QuadratureRule:
    return design_rule(10)


@pytest.fixture(scope="session")
def td20() -> QuadratureRule:
    return design_rule(20)


@pytest.fixture(scope="session")
def td40() -> QuadratureRule:
    return design_rule(40)


@pytest.fixture(scope="session")
def octahedron() -> QuadratureRule:
    pts = np.vstack([np.eye(3), -np.eye(3)])
    return QuadratureRule(points=pts, weights=np.full(6, 4.0 * np.pi / 6.0),
                          label="octahedron")


@pytest.fixture(scope="session")
def probe_grid() -> EvaluationGrid:
    # 100k uniform points, 0.023 from the farthest point of the sphere.
    return uniform_random_points(100_000, seed=7)


@pytest.fixture(scope="session")
def eval_grid() -> EvaluationGrid:
    # The seeded 5000-point grid every experiment reports errors on.
    return uniform_random_points(5000, seed=2024)


def full_query_mesh_norm(points, probe: EvaluationGrid) -> float:
    """A probe's reading of the mesh norm, one k-d-tree query per point.

    The first argmax of the tree chords and its nearest point, measured by
    atan2 as the exact sphere.mesh_norm measures its candidates.
    """
    from scipy.spatial import cKDTree

    pts, grid = as_unit_vectors(points), probe.points
    chord, nearest = cKDTree(pts).query(grid, k=1, workers=-1)
    i = int(np.argmax(chord))
    p, x = grid[i], pts[nearest[i]]
    return float(np.arctan2(np.linalg.norm(np.cross(p, x)), p @ x))


def assert_within_probe(h: float, reading: float,
                        probe_mesh_norm: float) -> None:
    """h is a mesh norm, reading a probe's reading of it: reading <= h, and
    h <= reading + the probe's own mesh norm, as some probe point lies
    that close to the farthest point of the sphere.
    """
    assert reading <= h <= reading + probe_mesh_norm + 1e-12, (
        h, reading, probe_mesh_norm)


@pytest.fixture(scope="session")
def probe_grid_mesh_norm(probe_grid) -> float:
    from sphsolve import mesh_norm

    return mesh_norm(probe_grid.points)


@pytest.fixture(scope="session")
def full_query():
    return full_query_mesh_norm
