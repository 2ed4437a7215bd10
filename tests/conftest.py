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
    # 100k uniform points; dense enough to probe mesh norms to ~1e-2.
    return uniform_random_points(100_000, seed=7)


@pytest.fixture(scope="session")
def eval_grid() -> EvaluationGrid:
    # The seeded 5000-point grid every experiment reports errors on.
    return uniform_random_points(5000, seed=2024)


def brute_force_mesh_norm(points, probe: EvaluationGrid,
                          chunk: int = 4096) -> float:
    """max over probe points of arccos(largest clipped dot with a point).

    The O(P m) scan over every probe-point/point dot, in probe blocks of
    chunk rows: the reference the k-d-tree mesh norm is checked against.
    """
    pts = as_unit_vectors(points)
    grid = probe.points
    worst = -1.0
    for start in range(0, grid.shape[0], chunk):
        dots = np.clip(grid[start:start + chunk] @ pts.T, -1.0, 1.0)
        worst = max(worst, float(np.arccos(np.min(np.max(dots, axis=1)))))
    return worst


@pytest.fixture(scope="session")
def brute_mesh_norm():
    return brute_force_mesh_norm
