"""Numerical-range bounding rectangles for pencils tau * inv(M) * K.

For M symmetric positive definite and K real, the similarity
Ahat = Mh * (tau inv(M) K) * inv(Mh) with Mh = M**(1/2) has numerical range
contained in the axis-aligned rectangle whose horizontal extent is given by
the extreme eigenvalues of the symmetric pencil (tau D, M) and whose vertical
extent by those of the Hermitian pencil (tau C, M), where D is the symmetric
part of K and C is the Hermitian part of its skew piece, C = (K - K^T)/(2i).
This module computes those extreme eigenvalues with ARPACK's ``eigsh`` at
every size. One symmetric sparse factorization of M proves M positive
definite by its pivot signs and then serves as the solve with M; the
maximum of a symmetric part whose pivots prove it negative definite comes
from shift-invert about 0. The module also assembles the safety-inflated
rectangle, estimates the condition number of M, and certifies
left-half-plane location. ``analyze_pencil`` decides every enclosure: it
computes the tau-independent part of either region mode once, for reuse
across time steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NoConvergence, NotSPD, NotSymmetric
from .linalg import definite_factor

__all__ = [
    "Pencil",
    "SymSkewSplit",
    "BoundingRectangle",
    "CondEstimate",
    "PencilAnalysis",
    "RawExtremes",
    "split",
    "raw_extremes",
    "inflated_rectangle",
    "rectangle_from_extremes",
    "bounding_rectangle",
    "cond_estimate",
    "analyze_pencil",
    "is_lhp_certified",
]

DEFAULT_REL_RESID_TOL = 1e-3
INFLATION_FLOOR = 1e-12


def _check_real_finite(**operands) -> None:
    """Raise ValueError naming the first operand that is complex or holds
    NaN or Inf entries. Only real M and K give a rectangle symmetric about
    the real axis, which every later stage relies on."""
    for name, A in operands.items():
        data = A.data if sp.issparse(A) else np.asarray(A)
        if np.iscomplexobj(data):
            raise ValueError(f"{name} is complex; the pencil must be real")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{name} contains NaN or Inf entries")


@dataclass(frozen=True)
class Pencil:
    """A time-step/mass/stiffness triple describing exp(tau * inv(M) * K).

    ``M`` must be symmetric (checked here) and positive definite (proved by
    the pivot signs of the symmetric sparse factorization the enclosure
    takes); ``K`` is a general real square matrix of matching size. Both are
    sparse, real and finite (``_check_real_finite``).
    """

    tau: float
    M: sp.csr_array
    K: sp.csr_array

    def __post_init__(self):
        if not (self.tau > 0.0) or not np.isfinite(self.tau):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (sp.issparse(self.M) and sp.issparse(self.K)):
            raise TypeError("Pencil expects sparse M and K")
        M, K = sp.csr_array(self.M), sp.csr_array(self.K)
        if M.shape[0] != M.shape[1] or K.shape[0] != K.shape[1]:
            raise DimensionMismatch("M and K must be square")
        if M.shape != K.shape:
            raise DimensionMismatch(f"M {M.shape} and K {K.shape} differ in size")
        _check_real_finite(M=M, K=K)
        asym = abs(M - M.T)
        scale = float(np.max(np.abs(M.data))) if M.nnz else 0.0
        if scale == 0.0:
            raise NotSPD("M is identically zero")
        if asym.nnz and asym.max() > 1e-12 * scale:
            raise NotSymmetric("M is not symmetric to working accuracy")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "K", K)

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
# extreme eigenvalues by ARPACK
# --------------------------------------------------------------------------

# ARPACK's relative Ritz-value tolerance, tightened to ``rel_resid_tol``
# when that is smaller; the accepted residual is ``rel_resid_tol``, checked
# on the returned pair.
ARPACK_TOL = 1e-10


def _operator(n, matvec):
    return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


def _ritz_pair(what, A, rel_resid_tol, seed, **kwargs):
    """The one Ritz pair of ``eigsh(A, k=1, **kwargs)``, started from
    ``default_rng(seed).standard_normal(n)`` with tolerance
    ``min(ARPACK_TOL, rel_resid_tol)``; ARPACK failures become
    ``NoConvergence`` naming ``what`` and n. ``eigsh`` needs k < n, so
    fewer than 2 unknowns raise ValueError."""
    n = A.shape[0]
    if n < 2:
        raise ValueError(f"enclosing {what} needs at least 2 unknowns, got n={n}")
    v0 = np.random.default_rng(seed).standard_normal(n)
    tol = min(ARPACK_TOL, rel_resid_tol)
    try:
        w, X = spla.eigsh(A, k=1, v0=v0, tol=tol, **kwargs)
    except spla.ArpackError as exc:  # ArpackNoConvergence derives from it
        raise NoConvergence(f"eigsh failed on {what} (n={n}): {exc}") from exc
    return float(w[0]), X[:, 0]


def _accepted(what, theta, Bx, Mx, rel_resid_tol) -> tuple[float, float]:
    """(theta, resid) with the scale-free residual
    ||B x - theta M x|| / (|theta| ||M x|| + ||B x||), if it is at most
    ``rel_resid_tol``."""
    denom = abs(theta) * np.linalg.norm(Mx) + np.linalg.norm(Bx)
    resid = float(np.linalg.norm(Bx - theta * Mx) / denom) if denom > 0.0 else 0.0
    if not resid <= rel_resid_tol:
        raise NoConvergence(f"{what}: residual {resid:.3e} above {rel_resid_tol:.1e}")
    return theta, resid


def _mass_solve(M):
    """Solve with M by the factor that proves M positive definite; ``NotSPD``
    when its pivots do not."""
    fac = definite_factor(M, 1.0)
    if fac is None:
        raise NotSPD(f"the pivots of M's symmetric factorization do not prove it "
                     f"positive definite (n={M.shape[0]})")
    return fac.solve


def _sym_extreme(B, M, M_solve, which, rel_resid_tol, seed) -> tuple[float, float]:
    """Extreme eigenvalue of the symmetric pencil B x = theta M x, ``which``
    "min" or "max", as (theta, achieved_residual).

    ``M = None`` means the identity; any other M comes with ``M_solve``, a
    solve with M. ``eigsh`` runs in regular mode, except that the maximum of
    a B whose pivots prove it negative definite (``linalg.definite_factor``)
    comes from shift-invert about 0. ``seed`` sets the start vector. The
    pair is accepted only if its relative residual is at most
    ``rel_resid_tol``; otherwise, or when ARPACK fails, ``NoConvergence`` is
    raised.
    """
    n = B.shape[0]
    what = f"the {which}imum of a symmetric pencil"
    fac = definite_factor(B, -1.0) if which == "max" else None
    if fac is not None:
        kwargs = {"sigma": 0.0, "OPinv": _operator(n, fac.solve)}
    else:
        kwargs = {"which": "SA" if which == "min" else "LA"}
        if M is not None:
            kwargs["Minv"] = _operator(n, M_solve)
    theta, x = _ritz_pair(what, B, rel_resid_tol, seed, M=M, **kwargs)
    return _accepted(what, theta, B @ x, x if M is None else M @ x, rel_resid_tol)


def _skew_extreme(S, M, M_solve, rel_resid_tol, seed) -> tuple[float, float]:
    """Largest eigenvalue of the Hermitian pencil C x = theta M x, C = S/i,
    given a solve with M, as (theta, achieved_residual).

    For real skew-symmetric S the spectrum of (C, M) is symmetric about 0,
    so only the maximum is needed; it equals the largest singular value of
    inv(L) S inv(L)^T. ARPACK's ``eigsh`` finds the largest eigenvalue of
    the real squared pencil (S^T inv(M) S, M). Its square root is accepted
    if the complex Ritz vector x - (i/sigma) inv(M) S x has relative
    residual at most ``rel_resid_tol`` in the original pencil.
    """
    if S.nnz == 0:
        return 0.0, 0.0
    n = S.shape[0]
    squared = _operator(n, lambda v: -(S @ M_solve(S @ v)))
    theta_sq, x = _ritz_pair(
        "the skew pencil", squared, rel_resid_tol, seed,
        M=M, Minv=_operator(n, M_solve), which="LA",
    )
    sigma = float(np.sqrt(max(theta_sq, 0.0)))
    if sigma == 0.0:
        return 0.0, 0.0
    xc = x - (1j / sigma) * M_solve(S @ x)
    return _accepted("the skew pencil", sigma, (S @ xc) / 1j, M @ xc, rel_resid_tol)


# --------------------------------------------------------------------------
# rectangles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundingRectangle:
    """Axis-aligned rectangle [mu_min, mu_max] x [nu_min, nu_max] in C,
    symmetric about the real axis like the numerical range of a real pencil
    (``nu_min == -nu_max``, checked here; every later stage relies on it).

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
        if self.nu_min != -self.nu_max:
            raise ValueError(f"rectangle is not symmetric about the real axis: "
                             f"nu_min={self.nu_min}, nu_max={self.nu_max}")
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


def raw_extremes(
    M,
    K,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
) -> RawExtremes:
    """Extreme eigenvalues of (D, M) and (C, M) for the unit time step.

    ARPACK computes them at every size. One symmetric sparse factor of M
    (``linalg.definite_factor``), whose pivots must prove M positive
    definite (``NotSPD`` otherwise), is the solve with M for all three
    extremes. A complex or non-finite M or K, or fewer than 2 unknowns,
    raise ValueError.
    """
    _check_real_finite(M=M, K=K)
    parts = split(K)
    if M.shape != parts.D.shape:
        raise DimensionMismatch("K and M sizes differ")
    M_solve = _mass_solve(M)
    mu_min, _ = _sym_extreme(parts.D, M, M_solve, "min", rel_resid_tol, seed)
    mu_max, _ = _sym_extreme(parts.D, M, M_solve, "max", rel_resid_tol, seed)
    nu_max, _ = _skew_extreme(parts.S, M, M_solve, rel_resid_tol, seed)
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

# relative error of ARPACK's estimates of M's extreme eigenvalues that
# kappa_safe absorbs
COND_DELTA = 0.05


@dataclass(frozen=True)
class CondEstimate:
    """Two-norm condition estimate for M with a safety margin.

    ``kappa_safe = kappa_tilde / (1 - delta)`` guards against the relative
    error delta (``COND_DELTA``) of the ARPACK eigenvalue estimates.
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

    ARPACK estimates both ends of the spectrum in regular mode (the pencil
    (M, I)), and ``COND_DELTA`` absorbs their residual tolerance. A
    nonpositive minimum raises ``NotSPD``; a complex or non-finite M, or
    fewer than 2 unknowns, ValueError.
    """
    _check_real_finite(M=M)
    lo, _ = _sym_extreme(M, None, None, "min", rel_resid_tol, seed)
    hi, _ = _sym_extreme(M, None, None, "max", rel_resid_tol, seed)
    if lo <= 0.0:
        raise NotSPD("eigsh found a nonpositive eigenvalue of M")
    kappa = max(float(hi / lo), 1.0)
    return CondEstimate(
        kappa_tilde=kappa, delta=COND_DELTA, kappa_safe=kappa / (1.0 - COND_DELTA)
    )


# --------------------------------------------------------------------------
# tau-independent pencil analysis
# --------------------------------------------------------------------------

def _same_matrix(A, B) -> bool:
    return A is B or (A.shape == B.shape and (A != B).nnz == 0)


@dataclass(frozen=True, eq=False)
class PencilAnalysis:
    """Enclosure data of the pencil (M, K) that no time step changes.

    ``extremes`` are the unit-step extreme eigenvalues of region ``mode``,
    which ``rectangle_from_extremes`` scales by tau, and ``cond`` is the
    condition estimate of M (None in mode "i"). All were computed with the
    recorded settings, so one analysis serves every tau of the pencil.
    """

    M: sp.csr_array
    K: sp.csr_array
    extremes: RawExtremes
    cond: CondEstimate | None
    rel_resid_tol: float
    seed: int
    mode: str

    @property
    def kappa_safe(self) -> float:
        """The certificate's kappa factor: 1.0 in mode "i"."""
        return 1.0 if self.cond is None else self.cond.kappa_safe

    def check_fits(self, p: Pencil, rel_resid_tol: float, seed: int, mode: str) -> None:
        """Raise ValueError unless this analysis is of p's M and K, computed
        with the given settings in the given mode."""
        if not (_same_matrix(p.M, self.M) and _same_matrix(p.K, self.K)):
            raise ValueError("the pencil analysis was computed for a different pencil")
        wanted = {"rel_resid_tol": rel_resid_tol, "seed": seed, "mode": mode}
        differ = {k: (getattr(self, k), v) for k, v in wanted.items() if getattr(self, k) != v}
        if differ:
            raise ValueError(f"pencil analysis settings differ (analysis, request): {differ}")


def analyze_pencil(
    M,
    K,
    rel_resid_tol: float = DEFAULT_REL_RESID_TOL,
    seed: int = 0,
    mode: str = "ii",
) -> PencilAnalysis:
    """Enclose the pencil (M, K) once: unit-step extremes and kappa(M) in
    mode "ii". Mode "i" encloses W(inv(M) K) itself and needs no kappa:
    with x = M y, x* inv(M) K x / x* x = y* (K M) y / y* (M M) y, so it is
    the numerical range of the sparse pencil (K M, M M), whose mass M M is
    symmetric positive definite with M.

    ``rel_resid_tol`` outside (0, 1), an unknown mode, or a complex or
    non-finite M or K (``raw_extremes`` checks them) raise ValueError
    before any solver runs.
    """
    if not (0.0 < rel_resid_tol < 1.0):
        raise ValueError(f"rel_resid_tol must lie in (0, 1), got {rel_resid_tol}")
    if mode not in ("i", "ii"):
        raise ValueError(f"unknown mode {mode!r}")
    mass, stiffness = (M @ M, K @ M) if mode == "i" else (M, K)
    return PencilAnalysis(
        M=sp.csr_array(M),
        K=sp.csr_array(K),
        extremes=raw_extremes(mass, stiffness, rel_resid_tol, seed=seed),
        cond=cond_estimate(M, rel_resid_tol, seed=seed) if mode == "ii" else None,
        rel_resid_tol=rel_resid_tol,
        seed=seed,
        mode=mode,
    )
