"""tools/generate_pointsets.py: its batched finite differences, each
against the one-point-at-a-time form bit for bit, and its residual gate."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from sphsolve import equal_area_points, random_rule

from conftest import design_rule

FOUR_PI = 4.0 * math.pi

_spec = importlib.util.spec_from_file_location(
    "generate_pointsets",
    Path(__file__).resolve().parents[1] / "tools" / "generate_pointsets.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def _moved_column(z, q, step, n):
    """Degree-n basis column of point q % m alone, its angle q moved by
    step, from one basis evaluation at that single point."""
    m = z.size // 2
    j = q % m
    zj = np.array([z[j], z[m + j]])
    zj[q // m] += step
    return tool.basis_matrix(n, tool.points_from_angles(zj))[:, 0]


def _central_difference(z, q, n, h=1e-6):
    return _moved_column(z, q, h, n) - _moved_column(z, q, -h, n)


def _td010_angles(jitter):
    z = tool.angles_from_points(design_rule(10).points)
    return z + np.random.default_rng(5).normal(scale=jitter, size=z.shape)


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["td010", "td010-jittered"])
def test_design_jacobian_equals_the_one_point_at_a_time_form(jitter) -> None:
    z = _td010_angles(jitter)
    t, h = 10, 1e-6
    m = z.size // 2
    ref = np.empty(((t + 1) ** 2 - 1, 2 * m))
    for q in range(2 * m):
        ref[:, q] = (FOUR_PI / m) * _central_difference(z, q, t, h)[1:] / (2.0 * h)
    assert np.array_equal(tool._design_jacobian(z, t, h), ref)


@pytest.mark.parametrize("m", [16, 25])
def test_fekete_value_and_gradient_equal_the_one_point_at_a_time_form(m) -> None:
    n = math.isqrt(m) - 1
    z = tool.angles_from_points(random_rule(m, 11).points)
    h = 1e-6
    lu, piv = lu_factor(tool.basis_matrix(n, tool.points_from_angles(z)))
    Yinv = lu_solve((lu, piv), np.eye(m))
    ref = np.array([-Yinv[q % m] @ (_central_difference(z, q, n, h) / (2.0 * h))
                    for q in range(2 * m)])
    val, grad = tool._fekete_value_grad(z, n)
    assert val == -float(np.sum(np.log(np.abs(np.diag(lu)))))
    assert np.array_equal(grad, ref)


def test_a_design_that_misses_the_residual_gate_stops_the_run(
        tmp_path, monkeypatch) -> None:
    seeds = []

    def missed(t_deg, seed=0):
        seeds.append(seed)
        return equal_area_points((t_deg + 1) ** 2).points, 1e-10

    monkeypatch.setattr(tool, "generate_t_design", missed)
    with pytest.raises(SystemExit) as exc:
        tool.main(["--designs", "10", "--me", "0", "--fekete", "0",
                   "--out", str(tmp_path)])
    assert seeds == [0, 1, 2, 3]
    assert "t=10" in exc.value.code and "1.000e-10" in exc.value.code
    assert list(tmp_path.iterdir()) == []
