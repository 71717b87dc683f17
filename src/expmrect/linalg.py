"""Sparse linear-algebra substrate, the package's one home of SuperLU.

Thin, contract-checked wrappers around the SuperLU factorizations the rest
of the package builds on: LU factors with explicit singularity detection,
the symmetric factor whose pivot signs prove a matrix definite, a bound on
that factor's rounding, and the Euclidean norm. Matrices are scipy.sparse
arrays (a dense array given to ``lu_factor`` is converted to CSC first);
vectors are 1-d numpy arrays.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, SingularMatrix

__all__ = [
    "PIVOT_RTOL",
    "LuFactor",
    "definite_factor",
    "inertia_gap",
    "lu_factor",
    "norm2",
]

# A factor whose solve amplifies by more than 1/PIVOT_RTOL relative to max|A|
# is treated as singular: it would amplify roundoff past any useful
# accuracy, so we refuse it outright. A pivot of size delta * max|A| makes a
# solve grow by about 1/delta, so this also refuses such a pivot.
PIVOT_RTOL = 1e-14


@dataclass
class LuFactor:
    """SuperLU factorization P A Q = L U.

    ``lower``/``upper`` expose the triangular factors, whose product is A
    with its rows and columns permuted. Reading either makes SciPy build
    and cache CSC copies of both L and U, as large as the factor itself, so
    only tests and perfbench's traced fill count read them; solving and the
    singularity check do not. ``dtype`` is that of the factored matrix,
    recorded when the factor is made for the same reason.
    """

    shape: tuple[int, int]
    dtype: np.dtype
    _splu: Any = field(repr=False)
    kind = "sparse"  # every factor is SuperLU's; perfbench's fill count reads it

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if b.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"factor of shape {self.shape} cannot solve rhs of shape {b.shape}"
            )
        if np.iscomplexobj(b) and self.dtype.kind != "c":
            return self._splu.solve(np.ascontiguousarray(b.real)) + 1j * self._splu.solve(
                np.ascontiguousarray(b.imag)
            )
        return self._splu.solve(b)

    @property
    def lower(self):
        return self._splu.L

    @property
    def upper(self):
        return self._splu.U


def lu_factor(A, symmetric: bool = False) -> LuFactor:
    """Factor a square matrix as P*A*Q = L*U by SuperLU.

    A dense array is converted to CSC first. By default SuperLU orders the
    columns by COLAMD and pivots by rows. ``symmetric=True`` suits a
    structurally symmetric matrix whose diagonal pivots exist in any
    symmetric order: rows and columns are ordered alike by minimum degree on
    A^T + A (SuperLU's symmetric mode), and a diagonal pivot is kept unless
    it is below 0.1 times its column's largest entry, so the ordering's low
    fill survives; only such pivots fall back to row pivoting. This mode
    factors one column at a time (``panel_size=1``): on FEM pencils the
    supernodes are small, and the default 10-column panels cost more than
    they save. The ordering, the pivots and the fill of L and U are the
    same; only the order of the numeric updates changes, and with it the
    rounding of their entries.

    Raises ``SingularMatrix`` when SuperLU meets an exactly zero pivot, or
    when the factor amplifies too much: one solve of a fixed seeded
    standard-normal probe z must keep max|A| * ||A^-1 z||_inf / ||z||_inf
    finite and at most ``1 / PIVOT_RTOL``. That ratio is a lower bound on
    max|A| * ||A^-1||_inf, the growth a solve can apply to roundoff. The
    probe reads no entry of L or U, so no CSC copy of them is built.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    A = sp.csc_matrix(A)
    scale = float(np.max(np.abs(A.data))) if A.nnz else 0.0
    if not np.isfinite(scale):
        raise ValueError("matrix contains NaN or Inf entries")
    if scale == 0.0:
        raise SingularMatrix("matrix is identically zero")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if symmetric:
                fac = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                                panel_size=1, options={"SymmetricMode": True})
            else:
                fac = spla.splu(A)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrix(str(exc)) from exc
    z = np.random.default_rng(0).standard_normal(A.shape[0])
    growth = scale * np.max(np.abs(fac.solve(z))) / np.max(np.abs(z))
    if not growth <= 1.0 / PIVOT_RTOL:  # also refuses NaN
        raise SingularMatrix(f"sparse LU amplifies a probe solve by {growth:.3g}")
    return LuFactor(shape=A.shape, dtype=A.dtype, _splu=fac)


def definite_factor(B, sign: float) -> LuFactor | None:
    """SuperLU factor of square sparse Hermitian B if its pivots prove
    ``sign * B`` positive definite, else None.

    SuperLU runs in symmetric mode with ``diag_pivot_thresh=0``, so it keeps
    diagonal pivots, in the minimum degree order on B^T + B that
    ``lu_factor``'s symmetric mode takes. When the row and column
    permutations agree, P B P^T = L U, and the Hermitian matrix
    X = P^T L D L^H P with D = Re diag(U) has, by Sylvester's law of
    inertia, as many positive and negative eigenvalues as U has pivots of
    each sign. X is B only up to rounding; ``inertia_gap`` bounds how far
    apart they are. A diagonal entry of the wrong sign rules B out without
    a factorization.
    """
    if np.any(sign * B.diagonal().real <= 0.0):
        return None
    try:
        fac = spla.splu(
            sp.csc_matrix(B), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True}
        )
    except RuntimeError:  # exactly singular
        return None
    if np.array_equal(fac.perm_r, fac.perm_c) and np.all(sign * fac.U.diagonal().real > 0.0):
        return LuFactor(shape=B.shape, dtype=B.dtype, _splu=fac)
    return None


def inertia_gap(fac: LuFactor) -> float:
    """An upper bound on ||B - X||_2 for the matrix B that ``definite_factor``
    factored into ``fac`` and the Hermitian X whose inertia its pivots give.

    SuperLU's computed factors satisfy P B P^T + E = L U with
    |E| <= g |L| |U|, g = gamma_n = n u / (1 - n u) for any order of the
    updates (Higham, *Accuracy and Stability of Numerical Algorithms*,
    Thm 9.3), so P B P^T - L D L^H = L N - E with N = U - D L^H. N is formed
    here, rounding each entry by at most g (|U| + |D| |L^H|), so
    |B - X| <= |L| (|N| + 2 g (|U| + |D| |L^H|)) after the permutation, and
    the 2-norm is at most that matrix's largest row or column sum. The sums
    take at most 2n additions of nonnegative terms, covered by the factor
    1 / (1 - 3 g). Complex arithmetic rounds a product by at most
    sqrt(2) gamma_2 (Higham, Lemma 3.5), so a complex factor takes 6 u for
    the unit roundoff u.
    """
    n = fac.shape[0]
    L, U = fac._splu.L.tocsc(), fac._splu.U.tocsc()
    u = (6.0 if fac.dtype.kind == "c" else 1.0) * 2.0**-53
    g = n * u / (1.0 - n * u)
    d = U.diagonal().real
    # D L^H in CSR shares L's CSC index arrays, row j scaled by d_j
    N = U - sp.csr_array((np.conj(L.data) * np.repeat(d, np.diff(L.indptr)), L.indices,
                          L.indptr), shape=(n, n))
    aL, aU, aN = (type(A)((np.abs(A.data), A.indices, A.indptr), shape=(n, n))
                  for A in (L, U, N))
    ones = np.ones(n)
    w = aL.T @ ones
    rows = aL @ (aN @ ones + 2.0 * g * (aU @ ones + np.abs(d) * w))
    cols = aN.T @ w + 2.0 * g * (aU.T @ w + aL @ (np.abs(d) * w))
    return float(max(rows.max(), cols.max())) / (1.0 - 3.0 * g)


def norm2(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x)))
