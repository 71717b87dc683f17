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
from shift-invert about 0. Every minimum is a loose regular-mode estimate
finished by shift-invert about a shift that the pivot signs of a second
factor prove to lie below the spectrum (spectrum slicing by Sylvester's law
of inertia). The module also assembles the safety-inflated rectangle,
certifies an upper bound on the condition number of M (a row sum over a
shift the same inertia proof places below its spectrum), and certifies
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
    "rectangle_from_extremes",
    "bounding_rectangle",
    "cond_estimate",
    "analyze_pencil",
    "is_lhp_certified",
    "MODES",
]

MODES = ("i", "ii")  # W(inv(M) K) itself; W of the mass-symmetrized operator

# the largest relative residual an extreme Ritz pair may have; each edge of
# the rectangle is widened by twice it
REL_RESID_TOL = 1e-3
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

# ARPACK's relative Ritz-value tolerance; the accepted residual is
# REL_RESID_TOL, checked on the returned pair.
ARPACK_TOL = 1e-10
# A minimum is first estimated in regular mode to this looser tolerance;
# shift-invert about a shift proved to lie below the spectrum then reaches
# ARPACK_TOL in a few solves. On square/64 that is 81 solves with M plus 21
# shift-invert solves, against 341 solves with M in regular mode alone.
BRACKET_TOL = 1e-4
# That shift lies BRACKET_DELTA * |theta| below the estimate theta; when the
# inertia does not prove it below the spectrum, the distance grows fourfold,
# at most BRACKET_WIDENINGS times (``_proved_shift``).
BRACKET_DELTA = 1e-3
BRACKET_WIDENINGS = 3


def _operator(n, matvec):
    return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


def _ritz_pair(what, A, tol, seed, **kwargs):
    """The one Ritz pair of ``eigsh(A, k=1, tol=tol, **kwargs)``, started
    from ``kwargs["v0"]`` if given, else from
    ``default_rng(seed).standard_normal(n)``; ARPACK failures become
    ``NoConvergence`` naming ``what`` and n. ``eigsh`` needs k < n, so
    fewer than 2 unknowns raise ValueError."""
    n = A.shape[0]
    if n < 2:
        raise ValueError(f"enclosing {what} needs at least 2 unknowns, got n={n}")
    if "v0" not in kwargs:
        kwargs["v0"] = np.random.default_rng(seed).standard_normal(n)
    try:
        w, X = spla.eigsh(A, k=1, tol=tol, **kwargs)
    except spla.ArpackError as exc:  # ArpackNoConvergence derives from it
        raise NoConvergence(f"eigsh failed on {what} (n={n}): {exc}") from exc
    return float(w[0]), X[:, 0]


def _residual(theta, Bx, Mx) -> float:
    """The scale-free residual ||B x - theta M x|| / (|theta| ||M x|| + ||B x||)."""
    denom = abs(theta) * np.linalg.norm(Mx) + np.linalg.norm(Bx)
    return float(np.linalg.norm(Bx - theta * Mx) / denom) if denom > 0.0 else 0.0


def _accepted(what, theta, Bx, Mx) -> tuple[float, float]:
    """(theta, resid) with resid the ``_residual`` of the pair, if it is at
    most ``REL_RESID_TOL``."""
    resid = _residual(theta, Bx, Mx)
    if not resid <= REL_RESID_TOL:
        raise NoConvergence(f"{what}: residual {resid:.3e} above {REL_RESID_TOL:.1e}")
    return theta, resid


def _mass_solve(M):
    """Solve with M by the factor that proves M positive definite; ``NotSPD``
    when its pivots do not."""
    fac = definite_factor(M, 1.0)
    if fac is None:
        raise NotSPD(f"the pivots of M's symmetric factorization do not prove it "
                     f"positive definite (n={M.shape[0]})")
    return fac.solve


def _proved_shift(B, mass, theta):
    """(sigma, factor of B - sigma mass) for the first sigma = theta -
    delta |theta| whose pivots prove it below the spectrum of (B, mass)
    (Sylvester's law of inertia, ``linalg.definite_factor``), else the
    factor None. delta grows fourfold from ``BRACKET_DELTA``, at most
    ``BRACKET_WIDENINGS`` times."""
    delta = BRACKET_DELTA
    for _ in range(BRACKET_WIDENINGS + 1):
        sigma = theta - delta * abs(theta)
        fac = definite_factor(B - sigma * mass, 1.0)
        if fac is not None:
            break
        delta *= 4.0
    return sigma, fac


def _sym_extreme(B, M, M_solve, which, seed) -> tuple[float, float]:
    """Extreme eigenvalue of the symmetric pencil B x = theta M x, ``which``
    "min" or "max", as (theta, achieved_residual), given ``M_solve``.

    ARPACK's tolerance is ``ARPACK_TOL``; ``seed`` sets the start vector.
    The maximum of a B whose pivots prove it negative definite
    (``linalg.definite_factor``) comes from shift-invert about 0. A minimum
    estimated in regular mode at ``BRACKET_TOL`` is kept if its
    ``_residual`` meets ``ARPACK_TOL``, else finished by shift-invert,
    from the estimate's vector, about a shift ``_proved_shift`` proves below
    the spectrum. Without a factor, regular mode runs to the full
    tolerance. The pair is accepted only if its relative residual is at
    most ``REL_RESID_TOL``; otherwise, or when ARPACK fails,
    ``NoConvergence`` is raised.
    """
    n = B.shape[0]
    what = f"the {which}imum of a symmetric pencil"
    regular = {"M": M, "Minv": _operator(n, M_solve), "which": "SA" if which == "min" else "LA"}
    if which == "min":
        theta, x = _ritz_pair(what, B, BRACKET_TOL, seed, **regular)
        if _residual(theta, B @ x, M @ x) <= ARPACK_TOL:
            return _accepted(what, theta, B @ x, M @ x)
        sigma, fac = _proved_shift(B, M, theta)
        start = {"v0": x}
    else:
        sigma, fac, start = 0.0, definite_factor(B, -1.0), {}
    if fac is None:
        theta, x = _ritz_pair(what, B, ARPACK_TOL, seed, **regular)
    else:
        theta, x = _ritz_pair(what, B, ARPACK_TOL, seed, M=M, sigma=sigma,
                              OPinv=_operator(n, fac.solve), **start)
    return _accepted(what, theta, B @ x, M @ x)


def _skew_extreme(S, M, M_solve, seed) -> tuple[float, float]:
    """Largest eigenvalue of the Hermitian pencil C x = theta M x, C = S/i,
    given a solve with M, as (theta, achieved_residual).

    For real skew-symmetric S the spectrum of (C, M) is symmetric about 0,
    so only the maximum is needed; it equals the largest singular value of
    inv(L) S inv(L)^T. ARPACK's ``eigsh`` finds the largest eigenvalue of
    the real squared pencil (S^T inv(M) S, M). Its square root is accepted
    if the complex Ritz vector x - (i/sigma) inv(M) S x has relative
    residual at most ``REL_RESID_TOL`` in the original pencil.
    """
    if S.nnz == 0:
        return 0.0, 0.0
    n = S.shape[0]
    squared = _operator(n, lambda v: -(S @ M_solve(S @ v)))
    theta_sq, x = _ritz_pair(
        "the skew pencil", squared, ARPACK_TOL, seed,
        M=M, Minv=_operator(n, M_solve), which="LA",
    )
    sigma = float(np.sqrt(max(theta_sq, 0.0)))
    if sigma == 0.0:
        return 0.0, 0.0
    xc = x - (1j / sigma) * M_solve(S @ x)
    return _accepted("the skew pencil", sigma, (S @ xc) / 1j, M @ xc)


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


@dataclass(frozen=True)
class RawExtremes:
    """tau-independent extreme eigenvalues of the pencils ((D, M), (C, M)):
    ``mu_min`` and ``mu_max`` of (D, M), ``nu_max`` of (C, M)."""

    mu_min: float
    mu_max: float
    nu_max: float


def raw_extremes(M, K, seed: int = 0) -> RawExtremes:
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
    mu_min, _ = _sym_extreme(parts.D, M, M_solve, "min", seed)
    mu_max, _ = _sym_extreme(parts.D, M, M_solve, "max", seed)
    nu_max, _ = _skew_extreme(parts.S, M, M_solve, seed)
    return RawExtremes(mu_min=mu_min, mu_max=mu_max, nu_max=nu_max)


def rectangle_from_extremes(ext: RawExtremes, tau: float) -> BoundingRectangle:
    """The rectangle [mu_min, mu_max] x [-nu_max, nu_max] of the unit-step
    extremes scaled by tau, widened outward.

    Each endpoint moves outward by max(2 * REL_RESID_TOL * |endpoint|,
    ``INFLATION_FLOOR``), so that eigenvalue-solver tolerance cannot shave
    the enclosure.
    """
    rel = 2.0 * REL_RESID_TOL

    def margin(x):
        return max(rel * abs(x), INFLATION_FLOOR)

    mu_min, mu_max, nu_max = tau * ext.mu_min, tau * ext.mu_max, tau * ext.nu_max
    nu_hi = nu_max + margin(nu_max)
    return BoundingRectangle(
        mu_min=mu_min - margin(mu_min),
        mu_max=mu_max + margin(mu_max),
        nu_min=-nu_hi,
        nu_max=nu_hi,
        inflation=rel,
    )


def bounding_rectangle(p: Pencil, seed: int = 0) -> BoundingRectangle:
    """Rectangle enclosing the numerical range of the mass-symmetrized pencil.

    The horizontal extent comes from the extreme eigenvalues of (tau D, M),
    the vertical extent from the Hermitian pencil (tau C, M); for real K the
    rectangle is symmetric about the real axis. Endpoints are widened by
    ``rectangle_from_extremes``.
    """
    return rectangle_from_extremes(raw_extremes(p.M, p.K, seed=seed), p.tau)


def is_lhp_certified(r: BoundingRectangle) -> bool:
    """True when the rectangle certifies a left-half-plane numerical range."""
    return r.mu_max <= 0.0


# --------------------------------------------------------------------------
# condition bound for M
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CondEstimate:
    """A certified upper bound ``kappa_safe`` on the spectral condition
    number of symmetric positive definite M (``cond_estimate``)."""

    kappa_safe: float

    def __post_init__(self):
        if not (self.kappa_safe >= 1.0):
            raise ValueError(f"condition number bound below 1: {self.kappa_safe}")


def cond_estimate(M, seed: int = 0) -> CondEstimate:
    """Certified upper bound on the spectral condition number of symmetric
    positive definite M: kappa_safe = rowsum (1 + (m + 2) u) / lower.

    lambda_max(M) <= rowsum = max_i sum_j |M_ij| (Gershgorin). A row's
    additions (at most m - 1, m the most entries in a row), the subtraction
    forming ``lower``, the product and the quotient round by at most u
    (unit roundoff) each, which 1 + (m + 2) u covers to first order.

    lambda_min(M) > lower = sigma - 2 g t, g = (n+1) u / (1 - (n+1) u):
    ``_proved_shift`` proves sigma, below a regular-mode estimate at
    ``BRACKET_TOL``, by the positive pivots of A = M - sigma I, and t is
    the computed trace of A. The factor is the exact L D L^T of a
    symmetric A + E with |E| <= g |L| D |L|^T (Higham, *Accuracy and
    Stability of Numerical Algorithms*, Thms 9.3 and 10.3). That
    semidefinite matrix has 2-norm at most its trace, trace(A + E) <=
    trace(A) / (1 - g). Adding the shift's rounding (u max A_ii) and the
    trace's (a factor 1 + gamma_n), the perturbation is at most 2 g t when
    (n+1) u <= 0.1, and Weyl's inequality gives the bound. No entry of the
    factor is read; its positive diagonal makes t > 0. 2 g t was
    5.8e-8 sigma on square/128 (n = 16129).

    An unproved ladder raises ``NoConvergence``, a ``lower`` that is not
    positive ``NotSPD``; a complex or non-finite M, or fewer than 2
    unknowns, ValueError.
    """
    _check_real_finite(M=M)
    M = sp.csr_array(M)
    n = M.shape[0]
    theta, _ = _ritz_pair("the minimum of M", M, BRACKET_TOL, seed, which="SA")
    sigma, fac = _proved_shift(M, sp.eye_array(n), theta)
    if fac is None:
        raise NoConvergence(f"no shift below M's minimum ({theta:.6g}) was proved (n={n})")
    u = 2.0**-53  # unit roundoff of IEEE double
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    lower = sigma - 2.0 * gamma * float(np.sum(M.diagonal() - sigma))
    if not lower > 0.0:
        raise NotSPD(f"the proved lower bound {lower:.6g} on M's minimum eigenvalue "
                     f"is not positive (n={n})")
    rowsum = float(np.max(abs(M).sum(axis=1)))
    longest = int(np.max(np.diff(M.indptr)))
    return CondEstimate(kappa_safe=rowsum * (1.0 + (longest + 2) * u) / lower)


# --------------------------------------------------------------------------
# tau-independent pencil analysis
# --------------------------------------------------------------------------

def _same_matrix(A, B) -> bool:
    return A is B or (A.shape == B.shape and (A != B).nnz == 0)


@dataclass(frozen=True, eq=False)
class PencilAnalysis:
    """Enclosure data of the pencil (M, K) that no time step changes, and
    the one record of how it was enclosed.

    ``extremes`` are the unit-step extreme eigenvalues of region ``mode``,
    which ``rectangle_from_extremes`` scales by tau, and ``kappa_safe`` is
    the certificate's kappa factor: the certified condition bound of M in
    mode "ii", 1.0 in mode "i". One analysis serves every tau of the pencil.
    """

    M: sp.csr_array
    K: sp.csr_array
    extremes: RawExtremes
    kappa_safe: float
    mode: str

    def check_fits(self, p: Pencil) -> None:
        """Raise ValueError unless this analysis is of p's M and K."""
        if not (_same_matrix(p.M, self.M) and _same_matrix(p.K, self.K)):
            raise ValueError("the pencil analysis was computed for a different pencil")


def analyze_pencil(M, K, seed: int = 0, mode: str = "ii") -> PencilAnalysis:
    """Enclose the pencil (M, K) once: unit-step extremes and kappa(M) in
    mode "ii". Mode "i" encloses W(inv(M) K) itself and needs no kappa:
    with x = M y, x* inv(M) K x / x* x = y* (K M) y / y* (M M) y, so it is
    the numerical range of the sparse pencil (K M, M M), whose mass M M is
    symmetric positive definite with M.

    An unknown mode, or a complex or non-finite M or K (``raw_extremes``
    checks them) raise ValueError before any solver runs.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    mass, stiffness = (M @ M, K @ M) if mode == "i" else (M, K)
    return PencilAnalysis(
        M=sp.csr_array(M),
        K=sp.csr_array(K),
        extremes=raw_extremes(mass, stiffness, seed=seed),
        kappa_safe=cond_estimate(M, seed=seed).kappa_safe if mode == "ii" else 1.0,
        mode=mode,
    )
