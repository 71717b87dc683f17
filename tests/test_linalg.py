"""Factorization wrappers, norms, and the Matrix Market round trip."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from expmrect import mmio
from expmrect.errors import DimensionMismatch, SingularMatrix
from expmrect.linalg import lu_factor, norm2


def test_dense_lu_solve():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x = lu_factor(A).solve(b)
    assert np.allclose(A @ x, b, atol=1e-12)


def test_sparse_lu_complex_shift_real_factor_split():
    # complex rhs against a real factorization goes through two real solves
    rng = np.random.default_rng(1)
    A = sp.csr_array(rng.standard_normal((15, 15)) + 15 * np.eye(15))
    fac = lu_factor(A)
    b = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    x = fac.solve(b)
    assert np.allclose(A @ x, b, atol=1e-11)


def test_complex_sparse_lu():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((10, 10))
    A = sp.csc_array((base + 10 * np.eye(10)) + 1j * rng.standard_normal((10, 10)))
    b = rng.standard_normal(10)
    x = lu_factor(A).solve(b)
    assert np.allclose(A @ x, b, atol=1e-11)


def test_lu_factor_exposes_triangular_factors():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    fac = lu_factor(A)
    L, U = fac.lower, fac.upper
    assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) == 1.0)
    assert np.array_equal(U, np.triu(U))
    # the product is A with its rows permuted
    LU = L @ U
    rows = [int(np.argmin(np.abs(A - row).sum(axis=1))) for row in LU]
    assert sorted(rows) == list(range(8))
    assert np.allclose(LU, A[rows], atol=1e-12)


def test_lu_rejects_singular():
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((4, 4)))
    singular = np.eye(4)
    singular[2, 2] = 0.0
    with pytest.raises(SingularMatrix):
        lu_factor(singular)
    with pytest.raises(SingularMatrix):
        lu_factor(sp.csr_array(singular))


def test_lu_validates_shape_and_rhs():
    with pytest.raises(DimensionMismatch):
        lu_factor(np.zeros((3, 4)))
    fac = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        fac.solve(np.ones(5))


def test_norm2_plain_euclidean():
    assert norm2(np.array([3.0, 4.0])) == 5.0


# --------------------------------------------------------------------------
# matrix market and vector files
# --------------------------------------------------------------------------

def test_matrix_market_roundtrip_general(tmp_path):
    rng = np.random.default_rng(7)
    A = sp.random(20, 20, density=0.2, random_state=rng, format="csr")
    path = tmp_path / "A.mtx"
    mmio.write_matrix_market(path, sp.csr_array(A))
    back = mmio.read_matrix_market(path)
    assert (abs(back - A) > 1e-15).nnz == 0


def test_matrix_market_roundtrip_symmetric(tmp_path):
    rng = np.random.default_rng(8)
    B = sp.random(15, 15, density=0.3, random_state=rng, format="csr")
    M = sp.csr_array(B + B.T)
    path = tmp_path / "M.mtx"
    mmio.write_matrix_market(path, M, symmetric=True)
    back = mmio.read_matrix_market(path)
    assert (abs(back - M) > 1e-15).nnz == 0


def test_vector_roundtrip_exact(tmp_path):
    x = np.array([1.0, -2.5e-17, 3.141592653589793, 0.0])
    path = tmp_path / "v.txt"
    mmio.write_vector(path, x)
    back = mmio.read_vector(path)
    assert np.array_equal(back, x)
