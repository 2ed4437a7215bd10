"""Point-set ingestion, generation, and the file round trip."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sphsolve import (
    PointFileError,
    QuadratureRule,
    bundled_pointset_path,
    bundled_pointsets,
    equal_area_points,
    load_pointset,
    mesh_norm,
    random_rule,
    save_pointset,
)
from sphsolve.pointsets import equal_area_rings

FOUR_PI = 4.0 * math.pi


def test_quadrature_rule_validation() -> None:
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    QuadratureRule(points=pts, weights=np.array([1.0, 1.0]), label="ok")
    with pytest.raises(ValueError):
        QuadratureRule(points=pts, weights=np.array([1.0, -1.0]), label="neg")
    with pytest.raises(ValueError):
        QuadratureRule(points=pts, weights=np.array([1.0]), label="short")
    with pytest.raises(ValueError):
        QuadratureRule(points=pts[:, :2], weights=np.array([1.0, 1.0]),
                       label="shape")


def test_rule_is_immutable(octahedron) -> None:
    with pytest.raises(ValueError):
        octahedron.points[0, 0] = 2.0
    with pytest.raises(ValueError):
        octahedron.weights[0] = 0.0


def test_rule_copies_the_callers_arrays() -> None:
    # the caller's arrays stay writable, and editing them, even to a point
    # off the sphere, does not reach the validated rule
    base = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0]])
    weights = np.ones(4)
    rule = QuadratureRule(points=base[:3], weights=weights[:3], label="view")
    base[0] = (5.0, 0.0, 0.0)
    weights[0] = -1.0
    assert np.array_equal(rule.points[0], [0.0, 0.0, 1.0])
    assert rule.weights[0] == 1.0
    assert rule.points.flags.c_contiguous
    assert not rule.points.flags.writeable


def test_equal_area_rings_partition_counts() -> None:
    for m in (1, 2, 3, 10, 400, 441):
        rings = equal_area_rings(m)
        assert sum(r[2] for r in rings) == m
        # colatitudes tile [0, pi] without gaps
        assert rings[0][0] == 0.0
        assert rings[-1][1] == pytest.approx(math.pi)
        for (_, bot, _), (top, _, _) in zip(rings, rings[1:]):
            assert bot == pytest.approx(top)


def test_equal_area_points_basic() -> None:
    rule = equal_area_points(400)
    assert rule.m == 400
    assert np.allclose(np.linalg.norm(rule.points, axis=1), 1.0, atol=1e-14)
    assert np.allclose(rule.weights, FOUR_PI / 400)
    assert rule.weights.sum() == pytest.approx(FOUR_PI, rel=1e-14)
    assert rule.label == "equal_area:400"


def test_equal_area_mesh_norm_gate(probe_grid) -> None:
    # quasi-uniformity: the largest hole stays under 2 sqrt(4pi/m)
    rule = equal_area_points(400)
    assert mesh_norm(rule.points, probe_grid) <= 2.0 * math.sqrt(FOUR_PI / 400)


def test_random_rule_reproducible() -> None:
    a = random_rule(4000, 1)
    b = random_rule(4000, 1)
    assert np.array_equal(a.points, b.points)
    assert a.weights.sum() == pytest.approx(FOUR_PI, rel=1e-12)
    assert a.label == "random:4000:1"


def test_save_load_round_trip(tmp_path, octahedron) -> None:
    path = tmp_path / "oct.txt"
    save_pointset(octahedron, path, include_weights=True)
    back = load_pointset(path, weight_mode="from_file")
    assert np.array_equal(back.points, octahedron.points)
    assert np.array_equal(back.weights, octahedron.weights)

    # 3-column form with equal weights: w_j = 4pi/m
    path3 = tmp_path / "oct3.txt"
    save_pointset(octahedron, path3, include_weights=False)
    eq = load_pointset(path3, weight_mode="equal")
    assert np.allclose(eq.weights, FOUR_PI / 6.0)
    assert eq.weights[0] == pytest.approx(2.0943951, abs=1e-7)


def test_load_rejects_missing_weight_column(tmp_path, octahedron) -> None:
    path = tmp_path / "oct3.txt"
    save_pointset(octahedron, path, include_weights=False)
    with pytest.raises(PointFileError, match="no weight column"):
        load_pointset(path, weight_mode="from_file")


def test_load_reports_line_numbers(tmp_path) -> None:
    path = tmp_path / "bad.txt"
    path.write_text("0 0 1\n0 0 one\n")
    with pytest.raises(PointFileError, match=r"bad\.txt:2"):
        load_pointset(path)

    path.write_text("0 0 1\n0.5 0.5 0.5\n")
    with pytest.raises(PointFileError, match="deviates from 1"):
        load_pointset(path)

    path.write_text("0 0 1 1 1\n")
    with pytest.raises(PointFileError, match="columns"):
        load_pointset(path)

    path.write_text("# only a comment\n")
    with pytest.raises(PointFileError, match="no points"):
        load_pointset(path)


def test_load_rejects_nonpositive_file_weight(tmp_path) -> None:
    path = tmp_path / "w.txt"
    path.write_text("0 0 1 0.0\n0 0 -1 1.0\n")
    with pytest.raises(PointFileError, match="not positive"):
        load_pointset(path, weight_mode="from_file")


def test_load_accepts_comments_and_label(tmp_path) -> None:
    path = tmp_path / "two.txt"
    path.write_text("# two poles\n0 0 1  # north\n\n0 0 -1\n")
    rule = load_pointset(path, label="poles")
    assert rule.m == 2
    assert rule.label == "poles"
    unlabeled = load_pointset(path)
    assert unlabeled.label == "two.txt"


def test_bundled_designs_present_and_loadable() -> None:
    names = bundled_pointsets()
    # designs used by the acceptance suite and the sweep recipe
    for t in (10, 12, 18, 20, 24, 30, 36, 40, 42):
        assert f"td{t:03d}_{(t + 1) ** 2:05d}.txt" in names
    assert "me_00441.txt" in names
    assert "fk_00441.txt" in names

    rule = load_pointset(bundled_pointset_path("td010_00121.txt"))
    assert rule.m == 121
    with pytest.raises(FileNotFoundError, match="available"):
        bundled_pointset_path("td999_99999.txt")
