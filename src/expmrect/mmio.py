"""Matrix Market and plain-text vector file handling.

Matrices travel as ASCII Matrix Market coordinate files (``%%MatrixMarket``
header, 1-based indices), vectors as plain text with one value per line.
Real symmetric matrices may be stored with the ``symmetric`` qualifier so
only the lower triangle is written.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["read_matrix_market", "write_matrix_market", "read_vector", "write_vector"]


def read_matrix_market(path) -> sp.csr_array:
    """Read a Matrix Market file into CSR form (symmetry expanded)."""
    import scipy.io  # on first use: no sweep or generated run reads a file

    A = scipy.io.mmread(path)
    return sp.csr_array(A)


def write_matrix_market(path, A, symmetric: bool = False) -> None:
    """Write a sparse matrix in Matrix Market coordinate format.

    With ``symmetric=True`` the matrix is checked for exact symmetry of the
    stored values and written with the ``symmetric`` qualifier.
    """
    import scipy.io  # on first use, as in read_matrix_market

    A = sp.coo_matrix(A)
    symmetry = None
    if symmetric:
        diff = abs(A - A.T)
        if diff.nnz and diff.max() != 0.0:
            raise ValueError("matrix is not symmetric, cannot write as symmetric")
        symmetry = "symmetric"
    scipy.io.mmwrite(path, A, symmetry=symmetry)


def write_vector(path, x) -> None:
    """Write a vector as text, one value per line (complex as a+bj)."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = x if np.max(np.abs(x.imag), initial=0.0) > 0.0 else x.real
    if np.iscomplexobj(x):
        np.savetxt(path, x, fmt="%s")
    else:
        np.savetxt(path, x, fmt="%.17g")


def read_vector(path) -> np.ndarray:
    """Read a one-value-per-line vector written by :func:`write_vector`."""
    with open(path) as fh:
        text = [line.strip() for line in fh if line.strip() and not line.startswith("%")]
    if any(("j" in t or "(" in t) for t in text):
        return np.array([complex(t.strip("()")) for t in text])
    return np.array([float(t) for t in text])
