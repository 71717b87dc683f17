"""Factorization wrappers, norms, and the Matrix Market round trip."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from expmrect import mmio
from expmrect.bounds import split
from expmrect.errors import DimensionMismatch, SingularMatrix
from expmrect.linalg import definite_factor, inertia_gap, lu_factor, norm2


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


class _FactorWithoutLU:
    """A SuperLU factor that only solves: reading its L or U, which makes
    SciPy build CSC copies of both, fails."""

    def __init__(self, fac):
        self.solve = fac.solve

    @property
    def L(self):
        raise AssertionError("read the L factor")

    U = L


@pytest.mark.parametrize("dtype", [float, complex])
def test_solve_never_reads_the_triangular_factors(dtype):
    rng = np.random.default_rng(11)
    A = sp.csc_array((rng.standard_normal((15, 15)) + 15 * np.eye(15)).astype(dtype))
    fac = lu_factor(A)
    fac._splu = _FactorWithoutLU(fac._splu)
    for b in (rng.standard_normal(15), rng.standard_normal(15) + 1j * rng.standard_normal(15)):
        assert np.allclose(A @ fac.solve(b), b, atol=1e-11)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("dtype", [float, complex])
def test_lu_factor_builds_no_triangular_copies(monkeypatch, symmetric, dtype):
    # the singularity check probes the factor with a solve; reading its
    # pivots from U would build CSC copies of L and U as large as the factor
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: _FactorWithoutLU(splu(*args, **kwargs)))
    rng = np.random.default_rng(12)
    A = sp.csc_array((rng.standard_normal((15, 15)) + 15 * np.eye(15)).astype(dtype))
    fac = lu_factor(A, symmetric=symmetric)
    b = rng.standard_normal(15)
    assert np.allclose(A @ fac.solve(b), b, atol=1e-11)


def test_superlu_panel_size_is_one_only_for_symmetric_mode_lu(monkeypatch, square_sys_8):
    # Symmetric mode takes every shifted factor of the apply stage and the
    # verifying reference's one factor. On these FEM pencils SuperLU's
    # supernodes are small, and one-column panels keep the ordering, the
    # pivots and the fill while factoring faster than the default 10.
    # definite_factor keeps the default: its solves feed ARPACK, whose
    # extremes, and the certificates with them, move by up to 2.7e-12 with
    # one-column panels, for no measurable gain in the enclosure. The COLAMD
    # branch keeps it too: the tests and the benchmark's dense oracle check
    # factor there, and no apply path does.
    calls, splu = [], spla.splu  # the keyword arguments of each splu call

    def recorded(A, **kwargs):
        calls.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    A = sp.csc_array(square_sys_8.M - 0.1 * square_sys_8.K)
    lu_factor(A, symmetric=True)
    assert calls[-1]["panel_size"] == 1
    lu_factor(A)
    assert "panel_size" not in calls[-1]
    assert definite_factor(square_sys_8.M, 1.0) is not None
    assert "panel_size" not in calls[-1]
    assert len(calls) == 3


def test_complex_sparse_lu():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((10, 10))
    A = sp.csc_array((base + 10 * np.eye(10)) + 1j * rng.standard_normal((10, 10)))
    b = rng.standard_normal(10)
    x = lu_factor(A).solve(b)
    assert np.allclose(A @ x, b, atol=1e-11)


def test_lu_factor_exposes_triangular_factors():
    rng = np.random.default_rng(3)
    A = sp.random(30, 30, density=0.15, random_state=rng, format="csr") + sp.eye_array(30)
    fac = lu_factor(sp.csr_array(A))
    L, U = fac.lower.toarray(), fac.upper.toarray()
    assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) == 1.0)
    assert np.array_equal(U, np.triu(U))
    # the product is A with its rows and columns permuted: Pr A Pc = L U
    perm_r, perm_c = fac._splu.perm_r, fac._splu.perm_c
    assert not np.array_equal(perm_c, np.arange(30))
    assert np.allclose((L @ U)[np.ix_(perm_r, perm_c)], A.toarray(), rtol=0.0, atol=1e-12)


def test_lu_rejects_singular():
    with pytest.raises(SingularMatrix):
        lu_factor(np.zeros((4, 4)))
    singular = np.eye(4)
    singular[2, 2] = 0.0
    with pytest.raises(SingularMatrix):
        lu_factor(singular)
    with pytest.raises(SingularMatrix):
        lu_factor(sp.csr_array(singular))


@pytest.mark.parametrize("symmetric", [False, True])
def test_lu_rejects_near_singular_tridiagonal(symmetric):
    # block lower triangular, so the 1e-16 on the diagonal is an eigenvalue
    # that no pivoting can hide; SuperLU factors it without complaint
    A = sp.csr_array(sp.diags_array(
        [[1.0] * 4, [2.0, 2.0, 1e-16, 2.0, 2.0], [1.0, 0.0, 0.0, 1.0]], offsets=[-1, 0, 1]))
    assert np.linalg.cond(A.toarray()) > 1e16
    with pytest.raises(SingularMatrix):
        lu_factor(A, symmetric=symmetric)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("symmetric", [False, True])
def test_lu_rejects_non_finite_entries(bad, symmetric):
    A = sp.csr_array(np.eye(4) + np.diag([0.5, 0.5, 0.5], 1))
    A[1, 2] = bad
    with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
        lu_factor(A, symmetric=symmetric)
    A = np.eye(4, dtype=complex)
    A[3, 3] = complex(1.0, bad)
    with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
        lu_factor(A, symmetric=symmetric)


def test_lu_validates_shape_and_rhs():
    with pytest.raises(DimensionMismatch):
        lu_factor(np.zeros((3, 4)))
    fac = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        fac.solve(np.ones(5))


# --------------------------------------------------------------------------
# the factor whose pivot signs prove definiteness
# --------------------------------------------------------------------------

def _assert_solves(fac, B):
    b = np.linspace(-1.0, 1.0, B.shape[0])
    assert np.allclose(B @ fac.solve(b), b, rtol=0.0, atol=1e-10)


def test_definite_factor_of_spd_mass_solves_with_it(square_sys_8):
    M = square_sys_8.M
    _assert_solves(definite_factor(M, 1.0), M)


def test_definite_factor_of_negative_definite_symmetric_part(square_sys_8):
    D = split(square_sys_8.K).D
    _assert_solves(definite_factor(D, -1.0), D)


def test_definite_factor_refuses_indefinite(square_sys_8):
    # D + c M with c twice the largest |eigenvalue| of (D, M) is indefinite,
    # yet its diagonal stays negative, so only the pivots can rule it out
    s = square_sys_8
    D = split(s.K).D
    c = 2.0 * abs(sla.eigh(D.toarray(), s.M.toarray(), eigvals_only=True)[-1])
    B = sp.csr_array(D + c * s.M)
    w = np.linalg.eigvalsh(B.toarray())
    assert w[0] < 0.0 < w[-1] and np.all(B.diagonal() < 0.0)
    assert definite_factor(B, -1.0) is None
    assert definite_factor(B, 1.0) is None


def _no_splu(*args, **kwargs):
    raise AssertionError("a wrong-signed diagonal must rule B out without a factorization")


def test_definite_factor_wrong_signed_diagonal_skips_factorization(monkeypatch):
    monkeypatch.setattr(spla, "splu", _no_splu)
    B = sp.csr_array(sp.diags_array([2.0, -1.0, 3.0]))
    assert definite_factor(B, 1.0) is None
    assert definite_factor(B, -1.0) is None


def test_definite_factor_refuses_singular():
    # the path-graph Laplacian: positive diagonal, constant null vector
    B = sp.csr_array(sp.diags_array([[-1.0] * 4, [1.0, 2.0, 2.0, 2.0, 1.0], [-1.0] * 4],
                                    offsets=[-1, 0, 1]))
    assert np.linalg.matrix_rank(B.toarray()) == 4
    assert definite_factor(B, 1.0) is None


def _pivot_form(fac):
    """The Hermitian X = P^T L D L^H P, D = Re diag(U), of a definite
    factor, whose inertia its pivots give, densely."""
    L, d = fac.lower.toarray(), fac.upper.diagonal().real
    p = fac._splu.perm_r
    return ((L * d) @ L.conj().T)[np.ix_(p, p)]


@pytest.mark.parametrize("shifted", ["mass", "skew"])
def test_inertia_gap_bounds_the_distance_to_the_pivot_form(square_sys_8, shifted):
    # square/8: M itself, and sigma M + i S, whose complex pivots are real
    # only up to rounding; the gap covers B - X and stays near rounding
    s = square_sys_8
    S = split(s.K).S
    if shifted == "mass":
        B = s.M
    else:
        C = np.linalg.cholesky(s.M.toarray())
        sigma = 1.01 * np.linalg.norm(np.linalg.solve(C, np.linalg.solve(C, S.toarray()).T), 2)
        B = sp.csr_array(sigma * s.M + 1j * S)
    fac = definite_factor(B, 1.0)
    assert fac is not None
    gap, dense = inertia_gap(fac), B.toarray()
    assert np.linalg.norm(dense - _pivot_form(fac), 2) <= gap
    assert gap <= 1e-12 * np.linalg.norm(dense, 2)
    if shifted == "skew":
        assert gap >= np.max(np.abs(fac.upper.diagonal().imag))


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
