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


def test_mesh_norm_octahedron(octahedron, probe_grid) -> None:
    # largest hole of the octahedron vertices: face center, arccos(1/sqrt(3))
    target = math.acos(1.0 / math.sqrt(3.0))
    h = mesh_norm(octahedron.points, probe_grid)
    assert h <= target + 1e-12  # probed value never exceeds the truth
    assert h >= target - 0.02   # 100k probe points land near a face center


def test_mesh_norm_zero_when_probe_is_subset(octahedron) -> None:
    probe = EvaluationGrid(points=octahedron.points, seed=0)
    assert mesh_norm(octahedron.points, probe) == pytest.approx(0.0, abs=1e-7)


def test_mesh_norm_rejects_empty_set(probe_grid) -> None:
    with pytest.raises(ValueError):
        mesh_norm(np.zeros((0, 3)), probe_grid)


def assert_matches_brute_force(h: float, reference: float) -> None:
    assert abs(h - reference) <= 1e-12 * reference + 1e-15, (h, reference)


@pytest.mark.parametrize("name", bundled_pointsets())
def test_mesh_norm_matches_brute_force_on_bundled_sets(
        name, probe_grid, brute_mesh_norm) -> None:
    rule = load_pointset(bundled_pointset_path(name))
    assert_matches_brute_force(mesh_norm(rule.points, probe_grid),
                               brute_mesh_norm(rule.points, probe_grid))


GENERATED_RULES = ([random_rule(m, seed=m + 17) for m in (1, 2, 500, 4000)]
                   + [equal_area_points(400)])


@pytest.mark.parametrize("rule", GENERATED_RULES, ids=lambda rule: rule.label)
def test_mesh_norm_matches_brute_force_on_generated_rules(
        rule, probe_grid, brute_mesh_norm) -> None:
    assert_matches_brute_force(mesh_norm(rule.points, probe_grid),
                               brute_mesh_norm(rule.points, probe_grid))


def test_mesh_norm_ignores_duplicated_points(probe_grid, brute_mesh_norm) -> None:
    points = random_rule(300, seed=5).points
    doubled = np.vstack([points, points[::3], points[:10]])
    h = mesh_norm(doubled, probe_grid)
    assert_matches_brute_force(h, brute_mesh_norm(doubled, probe_grid))
    assert_matches_brute_force(h, brute_mesh_norm(points, probe_grid))


def test_mesh_norm_probe_containing_the_points(brute_mesh_norm) -> None:
    points = random_rule(200, seed=9).points
    probe = EvaluationGrid(
        points=np.vstack([points, uniform_random_points(20_000, seed=3).points]),
        seed=3)
    h = mesh_norm(points, probe)
    assert h > 0.1  # the holes between the points, not the points themselves
    assert_matches_brute_force(h, brute_mesh_norm(points, probe))


def test_mesh_norm_antipodal_pair_is_a_right_angle() -> None:
    # every equator point is pi/2 from both poles, with a dot of exactly 0
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    probe = EvaluationGrid(
        points=np.vstack([[1.0, 0.0, 0.0],
                          uniform_random_points(1000, seed=4).points]),
        seed=4)
    assert mesh_norm(poles, probe) == math.pi / 2.0


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


def test_mesh_norm_resolves_a_nanoradian_hole() -> None:
    # the td20 nodes probed by themselves turned by 1e-9 rad about one
    # axis: each probe point lies 1e-9 sin(angle to the axis) from its
    # node, so the mesh norm is just below 1e-9.  arccos of the dot would
    # read round-off there (arccos(1 - 2^-53) is already 1.5e-8).
    from conftest import design_rule

    points = design_rule(20).points
    probe = EvaluationGrid(points=nanoradian_turn(points), seed=0)
    h = mesh_norm(points, probe)
    assert 0.9e-9 <= h <= 1e-9 * (1.0 + 1e-6)


def polar_cap(m: int, radius: float, seed: int) -> np.ndarray:
    """m random points within radius rad of the north pole."""
    rng = np.random.default_rng(seed)
    theta = radius * np.sqrt(rng.random(m))
    phi = rng.uniform(-math.pi, math.pi, m)
    return np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi), np.cos(theta)])


# Both poles, and points on the phi = +-pi seam (x < 0, y = +-0): the ends
# of the lat-long cell ranges.
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
    "poles-and-seam": lambda probe: (POLES_AND_SEAM, EvaluationGrid(
        points=np.vstack([POLES_AND_SEAM, probe.points]), seed=0)),
    # shorter than the sampling stride: one point gives the lower bound
    "3-point-probe": lambda probe: (td(10), uniform_random_points(3, seed=5)),
    # every chord is 0, so the lower bound is 0 and every point passes
    "probe-is-the-nodes": lambda probe: (
        td(20), EvaluationGrid(points=td(20), seed=0)),
    "nanoradian": lambda probe: (td(20), EvaluationGrid(
        points=nanoradian_turn(td(20)), seed=0)),
    # the td10 nodes turned by 1e-9 rad about 40 axes: each probe point's
    # node is among its cell's, so its bound rounds to 0 while L^2 ~ 1e-18,
    # and only an absolute slack keeps the maximiser
    "nanoradian-40-axes": lambda probe: (td(10), EvaluationGrid(
        points=np.vstack([nanoradian_turn(td(10), axis) for axis in
                          np.random.default_rng(0).standard_normal((40, 3))]),
        seed=0)),
    # three and four nodes: the second pass tries two and three of them
    **{f"random-m{m}": lambda probe, m=m: (
        random_rule(m, seed=m + 17).points, probe) for m in (3, 4)},
    # one row past a chunk: the last chunk holds only the maximiser, so its
    # offset must cross the chunk boundary
    "chunk-plus-one-probe": lambda probe: (
        td(10), farthest_last(td(10), sphere._CHUNK + 1, seed=13)),
    # 16 nodes per cell: about 60% of the probe passes the first pass and
    # 35% the second
    "m20000-P20k": lambda probe: (random_rule(20_000, seed=11).points,
                                  uniform_random_points(20_000, seed=12)),
}


@pytest.mark.parametrize("case", EXACTNESS_CASES)
def test_mesh_norm_equals_full_query(case, probe_grid, full_query) -> None:
    # the filtered mesh norm is the full k-d-tree query's value, bit for bit
    points, probe = EXACTNESS_CASES[case](probe_grid)
    assert mesh_norm(points, probe) == full_query(points, probe)


def test_import_leaves_spatial_unloaded() -> None:
    # mesh_norm imports scipy.spatial on its first call only
    src = os.path.dirname(os.path.dirname(sphere.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sphsolve; print('scipy.spatial' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
