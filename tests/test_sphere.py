"""Geometry primitives: sampling, mesh norm, the chord distance."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphsolve import (
    EvaluationGrid,
    bundled_pointset_path,
    bundled_pointsets,
    equal_area_points,
    load_pointset,
    mesh_norm,
    random_rule,
    solver,
    sphere,
    uniform_random_points,
)
from sphsolve.sphere import as_unit_vectors

from conftest import assert_within_probe


def test_as_unit_vectors_reports_offending_row() -> None:
    pts = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="row 1"):
        as_unit_vectors(pts)


@st.composite
def unit_vectors(draw):
    v = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(3)])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    return v / norm


@given(unit_vectors(), unit_vectors())
@example(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
@example(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))
@settings(max_examples=200, deadline=None)
def test_chord_angle_relation(x, y) -> None:
    # |x - y| = 2 sin(theta/2) for the great-circle angle theta, with the
    # distance formed as assembly and stage 2 form it, from -2 x.y
    dot = float(np.sum(x * y))
    theta = math.acos(min(max(dot, -1.0), 1.0))
    assert 0.0 <= theta <= math.pi
    r = solver._distance_from_scaled_dots(np.array([-2.0 * dot]))
    assert r[0] == pytest.approx(2.0 * math.sin(theta / 2.0), abs=1e-12)


def test_uniform_random_is_reproducible() -> None:
    a = uniform_random_points(100, seed=3)
    b = uniform_random_points(100, seed=3)
    c = uniform_random_points(100, seed=4)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.seed == 3
    assert len(a) == 100


def test_uniform_random_statistics() -> None:
    grid = uniform_random_points(100_000, seed=1)
    norms = np.linalg.norm(grid.points, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # mean of uniform points is near zero; z^2 averages to 1/3
    assert np.linalg.norm(grid.points.mean(axis=0)) <= 0.02
    zsq = float((grid.points[:, 2] ** 2).mean())
    assert 0.32 <= zsq <= 0.35


def test_evaluation_grid_rejects_empty_and_non_unit() -> None:
    with pytest.raises(ValueError):
        EvaluationGrid(points=np.zeros((0, 3)), seed=0)
    with pytest.raises(ValueError):
        EvaluationGrid(points=np.array([[2.0, 0.0, 0.0]]), seed=0)
    # a NaN fails every comparison, so it must fail the unit-norm check too
    with pytest.raises(ValueError, match="row 0"):
        EvaluationGrid(points=np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                       seed=0)


def test_mesh_norm_octahedron(octahedron) -> None:
    # largest hole of the octahedron vertices: face center, arccos(1/sqrt(3))
    target = math.acos(1.0 / math.sqrt(3.0))
    assert abs(mesh_norm(octahedron.points) - target) <= 1e-15


def test_mesh_norm_warns_on_probe_and_ignores_it(octahedron) -> None:
    # a probe holding the nodes themselves read 0 before; it is ignored now
    probe = EvaluationGrid(points=octahedron.points, seed=0)
    with pytest.warns(DeprecationWarning, match="probe") as record:
        h = mesh_norm(octahedron.points, probe)
    assert len(record) == 1
    assert h == mesh_norm(octahedron.points)


def test_mesh_norm_rejects_empty_set() -> None:
    with pytest.raises(ValueError):
        mesh_norm(np.zeros((0, 3)))


GENERATED_RULES = ([random_rule(m, seed=m + 17) for m in (1, 2, 500, 4000)]
                   + [equal_area_points(400)])


def test_mesh_norm_ignores_duplicated_points() -> None:
    points = random_rule(300, seed=5).points
    doubled = np.vstack([points, points[::3], points[:10]])
    assert mesh_norm(doubled) == mesh_norm(points)


def test_mesh_norm_probe_containing_the_points(full_query) -> None:
    points = random_rule(200, seed=9).points
    probe = EvaluationGrid(
        points=np.vstack([points, uniform_random_points(20_000, seed=3).points]),
        seed=3)
    h = mesh_norm(points)
    assert h > 0.1  # the holes between the points, not the points themselves
    assert_within_probe(h, full_query(points, probe),
                        mesh_norm(probe.points))


def test_mesh_norm_antipodal_pair_is_a_right_angle() -> None:
    # every equator point is pi/2 from both poles
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert mesh_norm(poles) == math.pi / 2.0


def nanoradian_turn(points: np.ndarray,
                    axis=(0.3, -0.5, 0.8)) -> np.ndarray:
    """The points turned by 1e-9 rad about axis."""
    axis = np.asarray(axis) / np.linalg.norm(axis)
    cross = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
    angle = 1e-9
    rotation = (np.eye(3) + math.sin(angle) * cross
                + (1.0 - math.cos(angle)) * cross @ cross)
    return points @ rotation.T


def test_mesh_norm_of_nanoradian_neighbours() -> None:
    # the td20 nodes with a copy of each turned by 1e-9 rad: the hull sees
    # pairs 1e-9 apart, and the holes shrink by at most 1e-9
    from conftest import design_rule

    points = design_rule(20).points
    h = mesh_norm(points)
    union = mesh_norm(np.vstack([points, nanoradian_turn(points)]))
    assert h - 1e-9 <= union <= h


def polar_cap(m: int, radius: float, seed: int) -> np.ndarray:
    """m random points within radius rad of the north pole."""
    rng = np.random.default_rng(seed)
    theta = radius * np.sqrt(rng.random(m))
    phi = rng.uniform(-math.pi, math.pi, m)
    return np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi), np.cos(theta)])


def circle(k: int, z: float) -> np.ndarray:
    """k equally spaced points on the circle at height z."""
    phi = 2.0 * math.pi * np.arange(k) / k
    r = math.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), np.full(k, z)])


# A rotation that puts the circles, poles and hemisphere below off the axes.
TILT = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]

# Both poles, and points on the phi = +-pi seam (x < 0, y = +-0), two of
# them equal.
POLES_AND_SEAM = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                           [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0],
                           [-0.6, 0.0, 0.8], [-0.6, -0.0, -0.8]])


def td(t: int) -> np.ndarray:
    from conftest import design_rule

    return design_rule(t).points


def farthest_last(points: np.ndarray, n: int, seed: int) -> EvaluationGrid:
    """n uniform probe points, the one farthest from points moved last."""
    grid = uniform_random_points(n, seed=seed).points
    i = int(np.argmin(np.max(grid @ points.T, axis=1)))
    return EvaluationGrid(points=np.vstack([np.delete(grid, i, axis=0),
                                            grid[i]]), seed=seed)


# case -> (probe -> (points, probe)), the probe given being the 100k grid
EXACTNESS_CASES = {
    **{name: lambda probe, name=name: (
        load_pointset(bundled_pointset_path(name)).points, probe)
       for name in bundled_pointsets()},
    **{rule.label: lambda probe, rule=rule: (rule.points, probe)
       for rule in GENERATED_RULES},
    "polar-cap": lambda probe: (polar_cap(300, 0.1, seed=1), probe),
    "poles-and-seam": lambda probe: (POLES_AND_SEAM, probe),
    # probes far coarser and far finer than the nodes
    "3-point-probe": lambda probe: (td(10), uniform_random_points(3, seed=5)),
    "probe-is-the-nodes": lambda probe: (
        td(20), EvaluationGrid(points=td(20), seed=0)),
    "nanoradian": lambda probe: (td(20), EvaluationGrid(
        points=nanoradian_turn(td(20)), seed=0)),
    # a probe with 40 points within 2e-9 rad of each node
    "nanoradian-40-axes": lambda probe: (td(10), EvaluationGrid(
        points=np.vstack([nanoradian_turn(td(10), axis) for axis in
                          np.random.default_rng(0).standard_normal((40, 3))]),
        seed=0)),
    # three nodes, which qhull cannot hull, and four
    **{f"random-m{m}": lambda probe, m=m: (
        random_rule(m, seed=m + 17).points, probe) for m in (3, 4)},
    "chunk-plus-one-probe": lambda probe: (
        td(10), farthest_last(td(10), 16385, seed=13)),
    "m20000-P20k": lambda probe: (random_rule(20_000, seed=11).points,
                                  uniform_random_points(20_000, seed=12)),
    # qhull fails on a flat set: points on one great or small circle
    "antipodal-pair": lambda probe: (np.array([[0.0, 0.0, 1.0],
                                               [0.0, 0.0, -1.0]]) @ TILT.T,
                                     probe),
    "great-circle-8": lambda probe: (circle(8, 0.0) @ TILT.T, probe),
    "small-circle-7": lambda probe: (circle(7, 0.6) @ TILT.T, probe),
    "small-circle-4": lambda probe: (circle(4, -0.3), probe),
    # an arc of the equator from 0 to 40 degrees, out of order
    "arc-5-shuffled": lambda probe: (circle(36, 0.0)[[0, 2, 1, 4, 3]] @ TILT.T,
                                     probe),
    "duplicated": lambda probe: (np.vstack([random_rule(300, seed=5).points,
                                            random_rule(300, seed=5).points[::3]]),
                                 probe),
    "duplicated-m2": lambda probe: (np.repeat(random_rule(2, seed=5).points,
                                              3, axis=0), probe),
    # a clustered 4-point set, whose farthest point lies inside a Voronoi
    # edge: the hull's facets alone read 2.1481
    "clustered-4": lambda probe: (polar_cap(4, 1.2, seed=4), probe),
    # a closed hemisphere, edge included, and an open one
    "hemisphere": lambda probe: (np.vstack([polar_cap(200, math.pi / 2, 1),
                                            circle(12, 0.0)]) @ TILT.T, probe),
    "hemisphere-cap": lambda probe: (polar_cap(200, math.pi / 2, 2), probe),
}


@pytest.mark.parametrize("case", EXACTNESS_CASES)
def test_mesh_norm_equals_full_query(case, probe_grid, probe_grid_mesh_norm,
                                     full_query) -> None:
    # the exact mesh norm equals a k-d-tree query at every probe point up to
    # the probe's own mesh norm, and never reads below it
    points, probe = EXACTNESS_CASES[case](probe_grid)
    gap = (probe_grid_mesh_norm if probe is probe_grid
           else mesh_norm(probe.points))
    assert_within_probe(mesh_norm(points), full_query(points, probe), gap)


def half_gap_antipode(points: np.ndarray) -> float:
    """pi - theta/2 for the angle theta between the first and last points:
    the distance to both from the antipode of their midpoint."""
    return math.pi - math.acos(float(points[0] @ points[-1])) / 2.0


# case -> its exact mesh norm, from its points
EXACT_VALUES = {
    "random:1:18": lambda points: math.pi,
    "random:2:19": half_gap_antipode,
    "duplicated-m2": half_gap_antipode,
    "antipodal-pair": lambda points: math.pi / 2.0,
    "great-circle-8": lambda points: math.pi / 2.0,
    # the far pole of a small circle at height z, pi - arccos(z) from it
    "small-circle-7": lambda points: math.pi - math.acos(0.6),
    # the antipode of the arc's middle, 160 degrees from both ends
    "arc-5-shuffled": lambda points: math.radians(160.0),
}


@pytest.mark.parametrize("case", EXACT_VALUES)
def test_mesh_norm_of_degenerate_sets(case) -> None:
    # qhull cannot hull these: the candidates of a flat set give the value
    points, _ = EXACTNESS_CASES[case](None)
    assert abs(mesh_norm(points) - EXACT_VALUES[case](points)) <= 1e-14


def test_import_leaves_spatial_unloaded() -> None:
    # mesh_norm imports scipy.spatial on its first call only
    src = os.path.dirname(os.path.dirname(sphere.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sphsolve; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
