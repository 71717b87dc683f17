"""Dense and sparse linear-algebra substrate.

Thin, contract-checked wrappers around the LAPACK and SuperLU routines the
rest of the package builds on: LU factorizations with explicit singularity
detection, and the Euclidean norm. Dense matrices are numpy arrays, sparse ones
are scipy.sparse arrays in CSR/CSC form; vectors are 1-d numpy arrays.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, SingularMatrix

__all__ = [
    "PIVOT_RTOL",
    "LuFactor",
    "is_sparse",
    "lu_factor",
    "norm2",
]

# A pivot below PIVOT_RTOL * max|A| is treated as an exact zero: the factor
# would amplify roundoff past any useful accuracy, so we refuse it outright.
PIVOT_RTOL = 1e-14


def is_sparse(A) -> bool:
    return sp.issparse(A)


def _require_square(A):
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")


def _require_finite(A):
    data = A.data if is_sparse(A) else A
    if data.size and not np.all(np.isfinite(data)):
        raise ValueError("matrix contains NaN or Inf entries")


def _max_abs(A) -> float:
    data = A.data if is_sparse(A) else A
    return float(np.max(np.abs(data))) if data.size else 0.0


@dataclass
class LuFactor:
    """LU factorization with partial pivoting, dense or sparse.

    The dense variant stores the packed LAPACK factor, the sparse variant a
    SuperLU object. ``lower``/``upper`` expose the triangular factors, whose
    product is A with its rows (and, for SuperLU, columns) permuted.
    """

    shape: tuple[int, int]
    kind: str  # "dense" | "sparse"
    _lu: Any = field(default=None, repr=False)
    _piv: Any = field(default=None, repr=False)
    _splu: Any = field(default=None, repr=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        if b.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"factor of shape {self.shape} cannot solve rhs of shape {b.shape}"
            )
        if self.kind == "dense":
            rhs = b
            if np.iscomplexobj(rhs) and not np.iscomplexobj(self._lu):
                x = sla.lu_solve((self._lu, self._piv), rhs.real)
                y = sla.lu_solve((self._lu, self._piv), rhs.imag)
                return x + 1j * y
            return sla.lu_solve((self._lu, self._piv), rhs)
        if np.iscomplexobj(b) and self._splu.U.dtype.kind != "c":
            return self._splu.solve(np.ascontiguousarray(b.real)) + 1j * self._splu.solve(
                np.ascontiguousarray(b.imag)
            )
        return self._splu.solve(b)

    @property
    def lower(self):
        if self.kind == "dense":
            return np.tril(self._lu, -1) + np.eye(self.shape[0], dtype=self._lu.dtype)
        return self._splu.L

    @property
    def upper(self):
        if self.kind == "dense":
            return np.triu(self._lu)
        return self._splu.U


def lu_factor(A) -> LuFactor:
    """Factor a square matrix as P*A*Q = L*U with partial pivoting.

    Dense inputs go through LAPACK getrf (Q = identity), sparse inputs
    through SuperLU with its default column ordering. Raises
    ``SingularMatrix`` when the smallest pivot falls below
    ``PIVOT_RTOL * max|A|``.
    """
    _require_square(A)
    _require_finite(A)
    scale = _max_abs(A)
    if scale == 0.0:
        raise SingularMatrix("matrix is identically zero")
    if is_sparse(A):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fac = spla.splu(sp.csc_matrix(A))
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(str(exc)) from exc
        pivots = np.abs(fac.U.diagonal())
        if pivots.size == 0 or pivots.min() < PIVOT_RTOL * scale:
            raise SingularMatrix("sparse LU produced a negligible pivot")
        return LuFactor(shape=A.shape, kind="sparse", _splu=fac)
    A = np.asarray(A)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = sla.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrix("dense LU produced a negligible pivot")
    return LuFactor(shape=A.shape, kind="dense", _lu=lu, _piv=piv)


def norm2(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x)))
