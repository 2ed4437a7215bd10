"""The per-entry Legendre reference kernels against hand-rolled sums.

``sphsolve._kernels`` is the reference the solver's BLAS path is checked
against (``tests/test_solver.py``), so it is pinned here to
``legendre_table`` directly.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from sphsolve import _kernels, legendre_table


def reference_zonal(coeffs: np.ndarray, dots: np.ndarray) -> np.ndarray:
    table = legendre_table(len(coeffs) - 1, dots)
    return np.tensordot(coeffs, table, axes=(0, 0))


def test_numpy_zonal_sum_matches_legendre_table() -> None:
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(21)
    dots = rng.uniform(-1.0, 1.0, size=(17, 13))
    got = _kernels.zonal_sum(coeffs, dots)
    assert np.allclose(got, reference_zonal(coeffs, dots), atol=1e-12)
    # degenerate single-coefficient case
    assert np.allclose(_kernels.zonal_sum(coeffs[:1], dots), coeffs[0])


def test_product_weight_matrix_formula() -> None:
    # hand-rolled reference: w_j * sum_l c_l P_l(t_ij) * cos(10 r_ij)
    rng = np.random.default_rng(4)
    dots = rng.uniform(-1.0, 1.0, size=(6, 9))
    w = rng.uniform(0.1, 1.0, size=9)
    coeffs = rng.standard_normal(5)
    got = _kernels.product_weight_matrix(dots, w, coeffs, _kernels.K_COS, 10.0)
    zon = reference_zonal(coeffs, dots)
    r = np.sqrt(2.0 * (1.0 - dots))
    assert np.allclose(got, w[None, :] * zon * np.cos(10.0 * r), atol=1e-13)


def test_import_leaves_the_reference_kernels_unloaded() -> None:
    # the package has one implementation of each kernel and imports
    # neither numba nor the per-entry reference module
    code = ("import sys, sphsolve\n"
            "print(sorted({'numba', 'sphsolve._kernels'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
