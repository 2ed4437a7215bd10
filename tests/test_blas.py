"""sphsolve._blas against numpy's products, and a guard that the solver
modules take their dense products and eigensolves from it."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

import sphsolve
from sphsolve import _blas

# Two BLAS libraries may sum a dot product in different orders.
ULPS = 8 * np.finfo(np.float64).eps


def layouts(a: np.ndarray) -> dict[str, np.ndarray]:
    """a as a C-ordered, an F-ordered and a non-contiguous array."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "strided": wide[:, ::2]}


def assert_close(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1.0)
    assert np.max(np.abs(got - expected), initial=0.0) <= ULPS * scale


# (rows, inner, cols), with each one of them 1 once: the products of a
# rule of m = 1 node and of a rank-1 weight factor (h == 1).
SHAPES = [(37, 23, 19), (1, 23, 19), (37, 1, 19), (37, 23, 1), (1, 1, 1)]


@pytest.mark.parametrize("shape", SHAPES)
def test_matmul_matches_numpy_for_every_layout(shape) -> None:
    rows, inner, cols = shape
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal((rows, inner))
    b = rng.standard_normal((inner, cols))
    expected = a @ b
    for a_layout in layouts(a).values():
        for b_layout in layouts(b).values():
            got = _blas.matmul(a_layout, b_layout)
            assert got.flags.c_contiguous
            assert_close(got, expected)


def test_contiguous_operands_reach_blas_without_a_copy() -> None:
    a = np.arange(12.0).reshape(4, 3)
    for layout in (a, np.asfortranarray(a)):
        f, trans = _blas._fortran(layout)
        assert f.flags.f_contiguous and np.shares_memory(f, layout)
        assert np.array_equal(f.T if trans else f, a)


# An empty operand never reaches dgemv, which rejects it: a @ x of an a
# with no entries is zeros (stage 2 at no targets).
@pytest.mark.parametrize("shape", [(37, 23), (1, 23), (37, 1),
                                   (0, 5), (5, 0), (0, 0)])
def test_matvec_matches_numpy_for_every_layout_and_vector_shape(shape) -> None:
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    x = rng.standard_normal(shape[1])
    expected = a @ x
    for a_layout in layouts(a).values():
        assert_close(_blas.matvec(a_layout, x), expected)
        # scipy's onenormest hands LinearOperator.matvec an (m, 1) column
        assert_close(_blas.matvec(a_layout, x[:, None]), expected[:, None])
        assert_close(_blas.matvec(a_layout, np.repeat(x, 2)[::2]), expected)


def test_matvec_rejects_a_vector_of_the_wrong_length() -> None:
    with pytest.raises(ValueError, match="do not match"):
        _blas.matvec(np.ones((4, 3)), np.ones(4))
    with pytest.raises(ValueError, match="do not match"):
        _blas.matvec(np.ones((4, 3)), np.ones((3, 2)))


@pytest.mark.parametrize("size", [1, 2, 40])
def test_eigvalsh_matches_numpy(size) -> None:
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size))
    a = a + a.T
    assert_close(_blas.eigvalsh(a), np.linalg.eigvalsh(a))


GUARDED_MODULES = ("solver.py", "mz.py", "moments.py", "hyperinterp.py")
NUMPY_PRODUCTS = ("np.matmul", "np.dot", "np.linalg.eigvalsh")


def numpy_products(source: str) -> list[str]:
    """Every @ and every numpy product or eigensolve named in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append(f"line {node.lineno}: @")
        elif (isinstance(node, ast.Attribute)
              and ast.unparse(node) in NUMPY_PRODUCTS):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_numpy_products_guard_sees_each_form() -> None:
    source = ("a @ b\nc @= d\nnp.matmul(a, b)\nnp.dot(a, b)\n"
              "np.linalg.eigvalsh(g)\n_blas.matmul(a, b)\n")
    assert len(numpy_products(source)) == 5


@pytest.mark.parametrize("module", GUARDED_MODULES)
def test_solver_modules_take_products_from_scipy_blas(module) -> None:
    # numpy's and scipy's OpenBLAS each keep a thread pool; a product in
    # numpy's pool leaves a worker spinning beside scipy's LU
    path = pathlib.Path(sphsolve.__file__).parent / module
    assert numpy_products(path.read_text()) == []
