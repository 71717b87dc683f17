"""Correctness checks and independent references for the benchmark.

Every check returns a list of problems (empty when the output is right), so
the harness can count an operation as failed and say why. The references
here use only numpy and scipy, never the package under test:
``expm_multiply_reference`` applies ``scipy.sparse.linalg.expm_multiply`` to
a ``LinearOperator`` for ``tau inv(M) K``, and ``dense_boundary_points``
resamples a rectangle boundary far more densely than the certificate did.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The dense oracle and expm_multiply agreed to 3.5e-14 relative on the
# reference systems; 1e-12 leaves room for roundoff while staying far below
# every certified bound the sweep reports.
ORACLE_AGREEMENT = 1e-12

# The boundary sup is resampled at this multiple of the certificate's density.
DENSE_FACTOR = 40


def expm_multiply_reference(M, K, b, tau_unit: float, multiples) -> dict:
    """exp(k * tau_unit * inv(M) K) b for every integer k in ``multiples``.

    One ``expm_multiply`` pass over the grid k = 0..max(multiples) gives all
    of them at the cost of the largest. ``rmatvec`` is supplied because
    ``onenormest`` raises ``TypeError`` without it.
    """
    lu = spla.splu(sp.csc_matrix(M))
    K = sp.csr_matrix(K)
    KT = sp.csr_matrix(K.T)
    op = spla.LinearOperator(
        K.shape,
        matvec=lambda v: tau_unit * lu.solve(K @ v),
        rmatvec=lambda v: tau_unit * (KT @ lu.solve(v, trans="T")),
        dtype=float,
    )
    top = int(max(multiples))
    with warnings.catch_warnings():
        # a LinearOperator has no trace; expm_multiply warns and runs unshifted
        warnings.simplefilter("ignore")
        xs = spla.expm_multiply(op, np.asarray(b, dtype=float), start=0.0, stop=float(top),
                                num=top + 1, endpoint=True, traceA=0.0)
    return {int(k): xs[int(k)] for k in multiples}


def dense_boundary_points(rect, n_per_side: int) -> np.ndarray:
    """Points on the rectangle boundary, uniform and corner-clustered.

    Each side carries ``n_per_side`` uniformly spaced points plus as many
    cosine-clustered ones, so both the middle of a side and its corners are
    resolved.
    """
    t = np.linspace(0.0, 1.0, n_per_side)
    t = np.concatenate([t, 0.5 - 0.5 * np.cos(np.pi * t)])
    xs = rect.mu_min + (rect.mu_max - rect.mu_min) * t
    ys = rect.nu_min + (rect.nu_max - rect.nu_min) * t
    return np.concatenate([
        xs + 1j * rect.nu_min,
        xs + 1j * rect.nu_max,
        rect.mu_min + 1j * ys,
        rect.mu_max + 1j * ys,
    ])


def relative_error(x, x_ref, b) -> float:
    return float(np.linalg.norm(np.asarray(x) - np.asarray(x_ref)) / np.linalg.norm(b))


def vector_problems(x, x_ref, b, eps: float) -> list[str]:
    """``||x - x_ref|| <= eps ||b||`` against the independent reference."""
    x = np.asarray(x)
    if x.shape != np.shape(x_ref) or not np.all(np.isfinite(x)):
        return [f"result of shape {x.shape} is not a finite vector like the reference"]
    err = relative_error(x, x_ref, b)
    if not err <= eps:
        return [f"||x - x_ref|| / ||b|| = {err:.3e} exceeds eps = {eps:.1e}"]
    return []


def certificate_problems(dense_sup: float, estimate: float, target: float) -> list[str]:
    """Densely resampled boundary sup <= sup_error_estimate <= scalar target."""
    problems = []
    if not dense_sup <= estimate:
        problems.append(
            f"dense boundary sup {dense_sup:.4e} exceeds sup_error_estimate {estimate:.4e} "
            f"(x{dense_sup / estimate:.3f})"
        )
    if not estimate <= target:
        problems.append(f"sup_error_estimate {estimate:.4e} exceeds target {target:.4e}")
    return problems


def _as_float(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def sweep_row_problems(row: dict) -> list[str]:
    """A sweep row is right when ``status`` is ok and
    ``measured_error <= certified_bound <= eps``."""
    cell = f"tau_factor={row.get('tau_factor')} method={row.get('method')} eps={row.get('eps')}"
    if row.get("status") != "ok":
        return [f"{cell}: status {row.get('status')!r}"]
    measured = _as_float(row.get("measured_error"))
    bound = _as_float(row.get("certified_bound"))
    eps = _as_float(row.get("eps"))
    if not measured <= bound:
        return [f"{cell}: measured_error {row.get('measured_error')!r} "
                f"not <= certified_bound {row.get('certified_bound')!r}"]
    if not bound <= eps:
        return [f"{cell}: certified_bound {row.get('certified_bound')!r} exceeds eps"]
    return []


def oracle_problems(oracle_x, ref_x, b, label: str) -> list[str]:
    """The sweep's dense oracle agrees with the independent reference."""
    err = relative_error(oracle_x, ref_x, b)
    if not err <= ORACLE_AGREEMENT:
        return [f"{label}: dense oracle and expm_multiply differ by {err:.3e} "
                f"relative (limit {ORACLE_AGREEMENT:.0e})"]
    return []
