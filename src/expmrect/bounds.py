"""Numerical-range bounding rectangles for pencils tau * inv(M) * K.

For M symmetric positive definite and K real, the similarity
Ahat = Mh * (tau inv(M) K) * inv(Mh) with Mh = M**(1/2) has numerical range
contained in the axis-aligned rectangle whose horizontal extent is given by
the extreme eigenvalues of the symmetric pencil (tau D, M) and whose vertical
extent by those of the Hermitian pencil (tau C, M), where D is the symmetric
part of K and C is the Hermitian part of its skew piece, C = (K - K^T)/(2i).
This module computes those extreme eigenvalues (eigenvalues only, by the
tridiagonal divide and conquer that ``numpy.linalg.eigh`` uses, at desk
scale; Lanczos in the M-inner product beyond), assembles the safety-inflated
rectangle, estimates the condition number of M, and certifies left-half-plane
location. ``analyze_pencil`` computes the tau-independent part (extremes and
condition estimate) once, for reuse across time steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import DimensionMismatch, NoConvergence, NotSPD, NotSymmetric
from .linalg import cholesky, is_sparse, lu_factor

__all__ = [
    "Pencil",
    "SymSkewSplit",
    "BoundingRectangle",
    "CondEstimate",
    "PencilAnalysis",
    "RawExtremes",
    "split",
    "extreme_eigs_sym_pencil",
    "extreme_eig_skew_pencil",
    "raw_extremes",
    "inflated_rectangle",
    "rectangle_from_extremes",
    "bounding_rectangle",
    "cond_estimate",
    "analyze_pencil",
    "is_lhp_certified",
]

DENSE_CUTOFF = 3000
DEFAULT_REL_RESID_TOL = 1e-3
INFLATION_FLOOR = 1e-12


@dataclass(frozen=True)
class Pencil:
    """A time-step/mass/stiffness triple describing exp(tau * inv(M) * K).

    ``M`` must be symmetric (checked here) and positive definite (certified
    by the Cholesky factorization wherever one is taken); ``K`` is a general
    real square matrix of matching size. Both are sparse.
    """

    tau: float
    M: sp.csr_array
    K: sp.csr_array

    def __post_init__(self):
        if not (self.tau > 0.0) or not np.isfinite(self.tau):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        M, K = self.M, self.K
        if not (is_sparse(M) and is_sparse(K)):
            raise TypeError("Pencil expects sparse M and K")
        if M.shape[0] != M.shape[1] or K.shape[0] != K.shape[1]:
            raise DimensionMismatch("M and K must be square")
        if M.shape != K.shape:
            raise DimensionMismatch(f"M {M.shape} and K {K.shape} differ in size")
        asym = abs(M - M.T)
        scale = float(np.max(np.abs(M.data))) if M.nnz else 0.0
        if scale == 0.0:
            raise NotSPD("M is identically zero")
        if asym.nnz and asym.max() > 1e-12 * scale:
            raise NotSymmetric("M is not symmetric to working accuracy")
        object.__setattr__(self, "M", sp.csr_array(M))
        object.__setattr__(self, "K", sp.csr_array(K))

    @property
    def n(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True)
class SymSkewSplit:
    """Symmetric and skew-symmetric parts of a real matrix.

    ``D`` is exactly symmetric and ``S`` exactly skew-symmetric in stored
    arithmetic; ``D + S`` reconstructs the source matrix to within one or
    two units in the last place per entry (entrywise exactness of all three
    properties at once is not attainable in floating point).
    """

    D: sp.csr_array
    S: sp.csr_array


def split(K) -> SymSkewSplit:
    """Split K into symmetric part D and skew part S, K = D + S."""
    K = sp.csr_array(K)
    D = sp.csr_array((K + K.T) * 0.5)
    S = sp.csr_array((K - K.T) * 0.5)
    return SymSkewSplit(D=D, S=S)


# --------------------------------------------------------------------------
# Lanczos in the M-inner product
# --------------------------------------------------------------------------

def _pencil_ops(B, M):
    """Matvec/solve closures for the pencil (B, M); M = None means identity."""
    B_mv = (lambda v: B @ v)
    if M is None:
        return B_mv, (lambda v: v), (lambda v: v)
    return B_mv, (lambda v: M @ v), lu_factor(sp.csc_array(M)).solve


def _lanczos_extreme(B_mv, M_mv, M_solve, n, which, tol, seed):
    """Extreme Ritz value of the M-symmetric pencil via Lanczos with full
    reorthogonalization in the M-inner product.

    Returns (theta, relative_residual, ritz_vector). The residual uses the
    scale-free form ||B x - theta M x|| / (|theta| ||M x|| + ||B x||).
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    Mv = M_mv(v)
    nrm = np.sqrt(v @ Mv)
    v /= nrm
    V = [v]
    MV = [M_mv(v)]
    alphas: list[float] = []
    betas: list[float] = []
    v_prev = None
    beta_prev = 0.0
    theta = resid = None
    x = None
    for _ in range(n):
        Bv = B_mv(V[-1])
        u = M_solve(Bv)
        alpha = float(V[-1] @ Bv)
        alphas.append(alpha)
        u = u - alpha * V[-1]
        if v_prev is not None:
            u = u - beta_prev * v_prev
        # full reorthogonalization against all Lanczos vectors, twice
        Vmat = np.column_stack(V)
        MVmat = np.column_stack(MV)
        for _ in range(2):
            u = u - Vmat @ (MVmat.T @ u)
        Mu = M_mv(u)
        beta = float(np.sqrt(max(u @ Mu, 0.0)))
        T_eigs, T_vecs = _tridiag_eig(alphas, betas)
        idx = -1 if which == "max" else 0
        theta = float(T_eigs[idx])
        y = T_vecs[:, idx]
        x = Vmat @ y
        Bx = B_mv(x)
        Mx = M_mv(x)
        denom = abs(theta) * np.linalg.norm(Mx) + np.linalg.norm(Bx)
        resid = float(np.linalg.norm(Bx - theta * Mx) / denom) if denom > 0.0 else 0.0
        if resid <= tol:
            return theta, resid, x
        if beta <= 1e-14 * (1.0 + abs(alpha)):
            # Krylov space became invariant: Ritz values are exact
            return theta, resid, x
        betas.append(beta)
        v_prev = V[-1]
        beta_prev = beta
        vnext = u / beta
        V.append(vnext)
        MV.append(Mu / beta)
    raise NoConvergence(
        f"Lanczos did not reach residual {tol:.1e} within {n} iterations "
        f"(last residual {resid:.3e})"
    )


def _tridiag_eig(alphas, betas):
    if len(alphas) == 1:
        return np.array(alphas), np.array([[1.0]])
    return sla.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas[: len(alphas) - 1]))


def extreme_eigs_sym_pencil(
    B,
    M,
    which: str = "max",
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
) -> tuple[float, float]:
    """Extreme eigenvalue of the symmetric pencil B x = theta M x by Lanczos.

    Returns (theta, achieved_residual). The iteration runs in the M-inner
    product (``M = None`` means the identity) until the relative Ritz
    residual drops below ``rel_resid_tol``.
    """
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    n = B.shape[0]
    if M is not None and M.shape != B.shape:
        raise DimensionMismatch("B and M sizes differ")
    B_mv, M_mv, M_solve = _pencil_ops(B, M)
    theta, resid, _ = _lanczos_extreme(B_mv, M_mv, M_solve, n, which, rel_resid_tol, seed)
    return theta, resid


def extreme_eig_skew_pencil(
    S,
    M,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
) -> tuple[float, float]:
    """Largest eigenvalue of the Hermitian pencil C x = theta M x, C = S/i.

    For real skew-symmetric S the spectrum of (C, M) is symmetric about 0,
    so only the maximum is needed; it equals the largest singular value of
    inv(L) S inv(L)^T. Lanczos runs on the real squared pencil
    (-S inv(M) S, M) and takes a square root, reconstructing a complex Ritz
    vector to report the residual in the original pencil.
    """
    n = S.shape[0]
    nnz = S.nnz if is_sparse(S) else int(np.count_nonzero(S))
    if nnz == 0:
        return 0.0, 0.0
    _, M_mv, M_solve = _pencil_ops(S, M)

    def sq_mv(v):
        return -(S @ M_solve(S @ v))

    tol = rel_resid_tol
    for _ in range(3):
        theta_sq, _, x = _lanczos_extreme(sq_mv, M_mv, M_solve, n, "max", tol, seed)
        sigma = float(np.sqrt(max(theta_sq, 0.0)))
        if sigma == 0.0:
            return 0.0, 0.0
        xc = x.astype(complex) - (1j / sigma) * M_solve(S @ x)
        resid = _skew_residual(S, M, sigma, xc)
        if resid <= rel_resid_tol:
            return sigma, resid
        tol *= 0.1
    raise NoConvergence(
        f"skew-pencil residual stalled at {resid:.3e} above {rel_resid_tol:.1e}"
    )


def _skew_residual(S, M, theta, x):
    # residual of the Hermitian pencil (S/i, M) at the Ritz pair (theta, x)
    Cx = (S @ x) / 1j
    Mx = M @ x
    denom = abs(theta) * np.linalg.norm(Mx) + np.linalg.norm(Cx)
    return float(np.linalg.norm(Cx - theta * Mx) / denom) if denom > 0.0 else 0.0


# --------------------------------------------------------------------------
# rectangles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundingRectangle:
    """Axis-aligned rectangle [mu_min, mu_max] x [nu_min, nu_max] in C.

    ``inflation`` records the relative outward widening that was applied to
    the raw extreme eigenvalues (each endpoint moved outward by
    max(inflation * |endpoint|, 1e-12)).
    """

    mu_min: float
    mu_max: float
    nu_min: float
    nu_max: float
    inflation: float = 0.0

    def __post_init__(self):
        if not (self.mu_min <= self.mu_max and self.nu_min <= self.nu_max):
            raise ValueError("rectangle endpoints are out of order")
        if self.inflation < 0.0:
            raise ValueError("inflation must be nonnegative")

    def contains(self, z):
        """Closed-rectangle membership of z, elementwise for an array."""
        z = np.asarray(z)
        return (
            (self.mu_min <= z.real)
            & (z.real <= self.mu_max)
            & (self.nu_min <= z.imag)
            & (z.imag <= self.nu_max)
        )

    def as_dict(self) -> dict:
        return {
            "mu_min": self.mu_min,
            "mu_max": self.mu_max,
            "nu_min": self.nu_min,
            "nu_max": self.nu_max,
            "inflation": self.inflation,
        }


def inflated_rectangle(
    mu_min: float, mu_max: float, nu_max: float, rel_resid_tol: float
) -> BoundingRectangle:
    """The rectangle [mu_min, mu_max] x [-nu_max, nu_max], widened outward.

    Each endpoint moves outward by max(2 * rel_resid_tol * |endpoint|,
    ``INFLATION_FLOOR``), so that eigenvalue-solver tolerance cannot shave
    the enclosure.
    """
    rel = 2.0 * rel_resid_tol

    def margin(x):
        return max(rel * abs(x), INFLATION_FLOOR)

    nu_hi = nu_max + margin(nu_max)
    return BoundingRectangle(
        mu_min=mu_min - margin(mu_min),
        mu_max=mu_max + margin(mu_max),
        nu_min=-nu_hi,
        nu_max=nu_hi,
        inflation=rel,
    )


@dataclass(frozen=True)
class RawExtremes:
    """tau-independent extreme eigenvalues of the pencils ((D, M), (C, M)):
    ``mu_min`` and ``mu_max`` of (D, M), ``nu_max`` of (C, M)."""

    mu_min: float
    mu_max: float
    nu_max: float


def _tridiagonal_eigvals(A, trd, trd_lwork) -> np.ndarray:
    """Ascending eigenvalues of the exactly symmetric or Hermitian A.

    The route of ``numpy.linalg.eigh`` (``?syevd`` / ``?heevd``) without
    its eigenvector back-transform: ``trd`` reduces the lower triangle to
    tridiagonal form with the optimal block size, and ``dstevd`` solves
    the tridiagonal problem. ``compute_v=1`` is what selects divide and
    conquer (``dstedc``), as ``eigh`` does; with ``compute_v=0`` (and in
    ``eigvalsh``) LAPACK takes ``dsterf``, whose different rounding moves
    the certificates.
    """
    lwork, _ = trd_lwork(A.shape[0], lower=1)
    _, d, e, _, _ = trd(A, lower=1, lwork=int(np.real(lwork)))
    w, _, info = sla.lapack.dstevd(d, e, compute_v=1)
    if info != 0:
        raise NoConvergence(f"dense tridiagonal eigensolver failed (info={info})")
    return w


def _dense_extremes(D, S, M) -> tuple[float, float, float]:
    """(mu_min, mu_max, nu_max) of the pencils (D, M) and (S/i, M), dense.

    One Cholesky factor L of M transforms each part to
    T = inv(L) B inv(L)^T; the eigenvalues of 0.5 (T + T^T) and of
    -i 0.5 (T - T^T) bound the rectangle. No eigenvector is computed, and
    the n x n temporaries are freed when this returns.
    """
    L = cholesky(M)

    def transformed(B):
        Y = sla.solve_triangular(L, B.toarray(), lower=True)
        return sla.solve_triangular(L, Y.T, lower=True).T

    T = transformed(D)
    w = _tridiagonal_eigvals(0.5 * (T + T.T), sla.lapack.dsytrd, sla.lapack.dsytrd_lwork)
    mu_min, mu_max = float(w[0]), float(w[-1])
    if S.nnz == 0:
        return mu_min, mu_max, 0.0
    del T  # one n x n transform alive at a time
    T = transformed(S)
    T = 0.5 * (T - T.T)
    w = _tridiagonal_eigvals(-1j * T, sla.lapack.zhetrd, sla.lapack.zhetrd_lwork)
    return mu_min, mu_max, float(w[-1])


def raw_extremes(
    M,
    K,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
) -> RawExtremes:
    """Extreme eigenvalues of (D, M) and (C, M) for the unit time step.

    Up to ``DENSE_CUTOFF`` unknowns they are computed densely, eigenvalues
    only (``_dense_extremes``); beyond it by Lanczos
    (``extreme_eigs_sym_pencil`` and ``extreme_eig_skew_pencil``).
    """
    parts = split(K)
    if parts.D.shape[0] <= DENSE_CUTOFF:
        if M.shape != parts.D.shape:
            raise DimensionMismatch("K and M sizes differ")
        return RawExtremes(*_dense_extremes(parts.D, parts.S, M))
    mu_min, _ = extreme_eigs_sym_pencil(parts.D, M, "min", rel_resid_tol, seed=seed)
    mu_max, _ = extreme_eigs_sym_pencil(parts.D, M, "max", rel_resid_tol, seed=seed)
    nu_max, _ = extreme_eig_skew_pencil(parts.S, M, rel_resid_tol, seed=seed)
    return RawExtremes(mu_min=mu_min, mu_max=mu_max, nu_max=nu_max)


def rectangle_from_extremes(
    ext: RawExtremes,
    tau: float,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
) -> BoundingRectangle:
    """Scale unit-step extremes by tau and apply the safety inflation."""
    return inflated_rectangle(tau * ext.mu_min, tau * ext.mu_max, tau * ext.nu_max, rel_resid_tol)


def bounding_rectangle(
    p: Pencil,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
) -> BoundingRectangle:
    """Rectangle enclosing the numerical range of the mass-symmetrized pencil.

    The horizontal extent comes from the extreme eigenvalues of (tau D, M),
    the vertical extent from the Hermitian pencil (tau C, M); for real K the
    rectangle is symmetric about the real axis. Endpoints are widened by
    ``inflated_rectangle``.
    """
    ext = raw_extremes(p.M, p.K, rel_resid_tol, seed=seed)
    return rectangle_from_extremes(ext, p.tau, rel_resid_tol)


def is_lhp_certified(r: BoundingRectangle) -> bool:
    """True when the rectangle certifies a left-half-plane numerical range."""
    return r.mu_max <= 0.0


# --------------------------------------------------------------------------
# condition estimate for M
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CondEstimate:
    """Two-norm condition estimate for M with a safety margin.

    ``kappa_safe = kappa_tilde / (1 - delta)`` guards against the relative
    error delta of the eigenvalue estimates; with delta = 0 (dense path) the
    estimate is used as computed.
    """

    kappa_tilde: float
    delta: float
    kappa_safe: float

    def __post_init__(self):
        if not (self.kappa_tilde >= 1.0):
            raise ValueError("condition number estimate below 1")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if self.kappa_safe < self.kappa_tilde:
            raise ValueError("safety margin must not shrink the estimate")


def cond_estimate(
    M,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
) -> CondEstimate:
    """Estimate the spectral condition number of symmetric positive definite M.

    Dense path (n <= DENSE_CUTOFF): exact extreme eigenvalues, delta 0.
    Iterative path: Lanczos estimates for both spectrum ends, delta 0.05 to
    absorb their residual tolerance.
    """
    n = M.shape[0]
    if n <= DENSE_CUTOFF:
        Md = M.toarray() if is_sparse(M) else np.asarray(M)
        w = np.linalg.eigvalsh(0.5 * (Md + Md.T))
        if w[0] <= 0.0:
            raise NotSPD("M has a nonpositive eigenvalue")
        kappa = float(w[-1] / w[0])
        d = 0.0
    else:
        lo, _ = extreme_eigs_sym_pencil(M, None, "min", rel_resid_tol, seed=seed)
        hi, _ = extreme_eigs_sym_pencil(M, None, "max", rel_resid_tol, seed=seed)
        if lo <= 0.0:
            raise NotSPD("Lanczos found a nonpositive Ritz value for M")
        kappa = float(hi / lo)
        d = 0.05
    kappa = max(kappa, 1.0)
    return CondEstimate(kappa_tilde=kappa, delta=d, kappa_safe=kappa / (1.0 - d))


# --------------------------------------------------------------------------
# tau-independent pencil analysis
# --------------------------------------------------------------------------

def _same_matrix(A, B) -> bool:
    return A is B or (A.shape == B.shape and (A != B).nnz == 0)


@dataclass(frozen=True, eq=False)
class PencilAnalysis:
    """Enclosure data of the pencil (M, K) that no time step changes.

    ``extremes`` are the unit-step extreme eigenvalues, which
    ``rectangle_from_extremes`` scales by tau, and ``cond`` is the condition
    estimate of M. Both were computed with the recorded settings, so one
    analysis serves every tau of the pencil.
    """

    M: sp.csr_array
    K: sp.csr_array
    extremes: RawExtremes
    cond: CondEstimate
    rel_resid_tol: float
    seed: int

    def check_fits(self, p: Pencil, rel_resid_tol: float, seed: int) -> None:
        """Raise ValueError unless this analysis is of p's M and K, computed
        with the given settings."""
        if not (_same_matrix(p.M, self.M) and _same_matrix(p.K, self.K)):
            raise ValueError("the pencil analysis was computed for a different pencil")
        wanted = {"rel_resid_tol": rel_resid_tol, "seed": seed}
        differ = {k: (getattr(self, k), v) for k, v in wanted.items() if getattr(self, k) != v}
        if differ:
            raise ValueError(f"pencil analysis settings differ (analysis, request): {differ}")


def analyze_pencil(
    M,
    K,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
) -> PencilAnalysis:
    """Enclose the pencil (M, K) once: unit-step extremes and kappa(M)."""
    return PencilAnalysis(
        M=sp.csr_array(M),
        K=sp.csr_array(K),
        extremes=raw_extremes(M, K, rel_resid_tol, seed=seed),
        cond=cond_estimate(M, rel_resid_tol, seed=seed),
        rel_resid_tol=rel_resid_tol,
        seed=seed,
    )
