"""Desk-scale check of the spectral-set bound behind every certificate.

Theorem 1 turns the scalar sup error of r - exp on the rectangle into the
operator bound ||r(A) - exp(A)||_2 <= (1+sqrt 2) kappa(M)^(1/2) * sup-error.
``theorem1_bound_check`` takes the approximant a driver certificate holds
(``ExpmvCertificate.approximant``) and forms both sides densely,
independently of the pipeline under test; the tests that use it assert the
inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from expmrect.bounds import Pencil
from expmrect.expmv import CROUZEIX_CONSTANT
from expmrect.rational import CertifiedApproximant


@dataclass(frozen=True)
class BoundCheckReport:
    """Desk-scale comparison of ||r(A) - exp(A)|| with its certified bound."""

    lhs: float
    rhs: float
    kappa: float
    sup_error_estimate: float
    passed: bool


def _rational_matrix(cert: CertifiedApproximant, A: np.ndarray) -> np.ndarray:
    """r(A) densely; the form is conjugate-symmetric and A real, so the
    imaginary part of the complex sum is roundoff and is dropped."""
    pf = cert.form
    I = np.eye(A.shape[0])
    step = A / cert.scaling
    X = pf.gamma * I + sum(w * np.linalg.inv(p * I - step) for p, w in zip(pf.poles, pf.weights))
    return np.linalg.matrix_power(X, cert.scaling).real


def theorem1_bound_check(p: Pencil, cert: CertifiedApproximant,
                         size_cap: int = 200) -> BoundCheckReport:
    """Verify ||r(A) - exp(A)||_2 <= (1+sqrt 2) kappa(M)^(1/2) * sup-estimate.

    Dense, desk-scale only. ``kappa`` is recomputed exactly from M rather
    than trusted from any earlier estimate, and exp(A) comes from SciPy's
    dense ``expm``, so both sides of the inequality are independent of the
    pipeline under test.
    """
    n = p.n
    if n > size_cap:
        raise ValueError(f"bound check is desk-scale only (n <= {size_cap})")
    A = p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())
    R = _rational_matrix(cert, A)
    E = scipy.linalg.expm(A)
    lhs = float(np.linalg.norm(R - E, 2))
    w = np.linalg.eigvalsh(p.M.toarray())
    kappa = float(w[-1] / w[0])
    rhs = CROUZEIX_CONSTANT * math.sqrt(kappa) * cert.sup_error_estimate
    return BoundCheckReport(
        lhs=lhs,
        rhs=rhs,
        kappa=kappa,
        sup_error_estimate=cert.sup_error_estimate,
        passed=bool(lhs <= rhs),
    )
