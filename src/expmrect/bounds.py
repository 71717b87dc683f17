"""Numerical-range bounding rectangles for pencils tau * inv(M) * K.

For M symmetric positive definite and K real, the similarity
Ahat = Mh * (tau inv(M) K) * inv(Mh) with Mh = M**(1/2) has numerical range
contained in the axis-aligned rectangle whose horizontal extent is given by
the extreme eigenvalues of the symmetric pencil (tau D, M) and whose vertical
extent by those of the Hermitian pencil (tau C, M), where D is the symmetric
part of K and C is the Hermitian part of its skew piece, C = (K - K^T)/(2i).
Every edge is proved the same way (``_proved_lower``): ARPACK's ``eigsh``
estimates the extreme to a loose tolerance, the pivot signs of a shifted
sparse factor prove a shift beyond it (spectrum slicing by Sylvester's law
of inertia), and bounds on the rounding of the factor
(``linalg.inertia_gap``) and of the matrices it factors widen that shift. The
same routine proves the lower eigenvalue bound of M behind the certified
condition number, and the rectangle is the tau-scaled edges rounded
outward. The module also certifies left-half-plane location.
``analyze_pencil`` decides every enclosure: it computes the tau-independent
part of either region mode once, for reuse across time steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NoConvergence, NotSPD, NotSymmetric
from .linalg import definite_factor, inertia_gap

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

# an edge that is exactly 0 (a symmetric or skew part with no nonzero
# entry) moves outward by this much, so the rectangle keeps an interior
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
# proved extreme eigenvalues
# --------------------------------------------------------------------------

# ARPACK estimates every extreme to this loose relative tolerance; the
# inertia proof that follows decides the edge, so the estimate only has to
# land within BRACKET_DELTA of the extreme.
BRACKET_TOL = 1e-4
# The proved shift lies BRACKET_DELTA * max(|theta|, scale) beyond the
# estimate theta; when the inertia does not prove it, the distance grows
# fourfold, at most BRACKET_WIDENINGS times (``_proved_shift``).
BRACKET_DELTA = 1e-3
BRACKET_WIDENINGS = 3
# scale is ZERO_STEP times the largest estimate's magnitude: the absolute
# step that proves an extreme at 0 (a singular symmetric part), too small to
# move any other edge (the smallest one, mu_max on star/4, is 3e-4 times
# the largest).
ZERO_STEP = 1e-6


def _operator(n, matvec):
    return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


def _ritz_pair(what, A, tol, seed, **kwargs):
    """The one Ritz value of ``eigsh(A, k=1, tol=tol, **kwargs)``, started
    from ``default_rng(seed).standard_normal(n)``; ARPACK failures become
    ``NoConvergence`` naming ``what`` and n. ``eigsh`` needs k < n, so
    fewer than 2 unknowns raise ValueError."""
    n = A.shape[0]
    if n < 2:
        raise ValueError(f"enclosing {what} needs at least 2 unknowns, got n={n}")
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        w = spla.eigsh(A, k=1, tol=tol, v0=v0, return_eigenvectors=False, **kwargs)
    except spla.ArpackError as exc:  # ArpackNoConvergence derives from it
        raise NoConvergence(f"eigsh failed on {what} (n={n}): {exc}") from exc
    return float(w[0])


def _mass_solve(M):
    """Solve with M by the factor that proves M positive definite; ``NotSPD``
    when its pivots do not."""
    fac = definite_factor(M, 1.0)
    if fac is None:
        raise NotSPD(f"the pivots of M's symmetric factorization do not prove it "
                     f"positive definite (n={M.shape[0]})")
    return fac.solve


def _proved_shift(B, mass, theta, scale):
    """(sigma, factor of B - sigma mass) for the first sigma = theta -
    delta max(|theta|, scale) whose pivots prove it below the spectrum of
    the Hermitian pencil (B, mass) (Sylvester's law of inertia,
    ``linalg.definite_factor``), else the factor None. delta grows fourfold
    from ``BRACKET_DELTA``, at most ``BRACKET_WIDENINGS`` times."""
    step = max(abs(theta), scale)
    delta = BRACKET_DELTA
    for _ in range(BRACKET_WIDENINGS + 1):
        sigma = theta - delta * step
        fac = definite_factor(B - sigma * mass, 1.0)
        if fac is not None:
            break
        delta *= 4.0
    return sigma, fac


def _proved_lower(what, B, mass, theta, scale, floor, err) -> float:
    """A proved lower bound on the smallest eigenvalue of the Hermitian
    pencil (B + F, mass) for every F with ||F||_2 <= err, from an estimate
    theta of it and a proved floor <= lambda_min(mass). This is every edge
    of the enclosure, and the bound on lambda_min(M) behind kappa.

    ``_proved_shift`` factors the computed A = B - sigma mass, whose pivots
    prove the Hermitian X of ``linalg.inertia_gap`` positive definite, and
    ||A - X||_2 <= gap. Forming A rounds each entry by at most
    gamma_2 (|B| + |sigma| |mass|), whose 2-norm is at most that matrix's
    largest row sum rho. So B + F - sigma mass > -e I >= -(e / floor) mass
    with e = gap + 3 u rho + err, and the smallest eigenvalue exceeds
    sigma - e / floor; 1 + 4 u covers the rounding of e / floor, and the
    difference is rounded down by one ulp. A complex B takes 6 u for the
    unit roundoff u, as in ``inertia_gap``. An unproved ladder raises
    ``NoConvergence`` naming ``what`` and n.
    """
    n = B.shape[0]
    sigma, fac = _proved_shift(B, mass, theta, scale)
    if fac is None:
        raise NoConvergence(f"no shift beyond {what} was proved (n={n})")
    u = (6.0 if np.iscomplexobj(B.data) else 1.0) * 2.0**-53
    rho = float(np.max(abs(B).sum(axis=1) + abs(sigma) * abs(mass).sum(axis=1)))
    e = (inertia_gap(fac) + 3.0 * u * rho + err) / floor * (1.0 + 4.0 * u)
    return float(np.nextafter(sigma - e, -np.inf))


def _rowsum(A) -> float:
    """max_i sum_j |A_ij|, a bound on ||A||_2 for Hermitian |A|."""
    return float(np.max(abs(A).sum(axis=1))) if A.nnz else 0.0


def _sym_estimates(D, M, regular, seed) -> tuple[float, float]:
    """ARPACK estimates of the minimum and maximum of the symmetric pencil
    (D, M) at ``BRACKET_TOL``; ``regular`` holds the mass and its solve.

    The minimum comes from regular mode. The maximum comes from
    shift-invert about s = ZERO_STEP * BRACKET_DELTA * |minimum| when the
    pivots of D - s M prove s above the spectrum: the eigenvalue nearest s
    is then the maximum, even a zero one. Otherwise D has eigenvalues near
    or above s, and regular mode finds the maximum. The shift only steers
    the estimate, so one factorization is tried, not ``_proved_shift``'s
    ladder.
    """
    n = D.shape[0]
    lo = _ritz_pair("the minimum of a symmetric pencil", D, BRACKET_TOL, seed,
                    which="SA", **regular)
    what = "the maximum of a symmetric pencil"
    s = ZERO_STEP * BRACKET_DELTA * abs(lo)
    fac = definite_factor(D - s * M, -1.0)
    if fac is None:
        hi = _ritz_pair(what, D, BRACKET_TOL, seed, which="LA", **regular)
    else:
        hi = _ritz_pair(what, D, BRACKET_TOL, seed, M=M, sigma=s,
                        OPinv=_operator(n, fac.solve))
    return lo, hi


def _skew_estimate(S, M_solve, regular, seed) -> float:
    """ARPACK estimate of the largest eigenvalue of the Hermitian pencil
    (C, M), C = S/i, at ``BRACKET_TOL``, given the solve with M and
    ``regular``, the mass and that solve as ARPACK takes them.

    For real skew-symmetric S the spectrum of (C, M) is symmetric about 0,
    so only the maximum is needed; it equals the largest singular value of
    inv(L) S inv(L)^T, the square root of the largest eigenvalue of the
    real squared pencil (S^T inv(M) S, M).
    """
    squared = _operator(S.shape[0], lambda v: -(S @ M_solve(S @ v)))
    theta_sq = _ritz_pair("the skew pencil", squared, BRACKET_TOL, seed, which="LA", **regular)
    return float(np.sqrt(max(theta_sq, 0.0)))


# --------------------------------------------------------------------------
# condition bound for M
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CondEstimate:
    """Certified bounds on symmetric positive definite M (``cond_estimate``):
    ``kappa_safe`` >= its spectral condition number, and 0 < ``floor`` <=
    its smallest eigenvalue."""

    kappa_safe: float
    floor: float

    def __post_init__(self):
        if not (self.kappa_safe >= 1.0):
            raise ValueError(f"condition number bound below 1: {self.kappa_safe}")
        if not (self.floor > 0.0):
            raise ValueError(f"lower eigenvalue bound not positive: {self.floor}")


def cond_estimate(M, seed: int = 0) -> CondEstimate:
    """Certified bounds on symmetric positive definite M: floor = lower and
    kappa_safe = rowsum (1 + (m + 2) u) / lower.

    lambda_max(M) <= rowsum = max_i sum_j |M_ij| (Gershgorin). A row's
    additions (at most m - 1, m the most entries in a row), the product and
    the quotient round by at most u (unit roundoff) each, which
    1 + (m + 2) u covers to first order.

    lambda_min(M) >= lower: ``_proved_lower`` proves it on the pencil
    (M, I) from a regular-mode estimate at ``BRACKET_TOL``. Its rounding
    term was 7.3e-11 sigma on square/128 (n = 16129).

    An unproved ladder raises ``NoConvergence``, a ``lower`` that is not
    positive ``NotSPD``; a complex or non-finite M, or fewer than 2
    unknowns, ValueError.
    """
    _check_real_finite(M=M)
    M = sp.csr_array(M)
    n = M.shape[0]
    theta = _ritz_pair("the minimum of M", M, BRACKET_TOL, seed, which="SA")
    lower = _proved_lower("M's minimum", M, sp.eye_array(n), theta, 0.0, 1.0, 0.0)
    if not lower > 0.0:
        raise NotSPD(f"the proved lower bound {lower:.6g} on M's minimum eigenvalue "
                     f"is not positive (n={n})")
    u = 2.0**-53  # unit roundoff of IEEE double
    rowsum = _rowsum(M)
    longest = int(np.max(np.diff(M.indptr)))
    return CondEstimate(kappa_safe=rowsum * (1.0 + (longest + 2) * u) / lower, floor=lower)


# --------------------------------------------------------------------------
# rectangles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundingRectangle:
    """Axis-aligned rectangle [mu_min, mu_max] x [nu_min, nu_max] in C,
    symmetric about the real axis like the numerical range of a real pencil
    (``nu_min == -nu_max``, checked here; every later stage relies on it).
    """

    mu_min: float
    mu_max: float
    nu_min: float
    nu_max: float

    def __post_init__(self):
        if not (self.mu_min <= self.mu_max and self.nu_min <= self.nu_max):
            raise ValueError("rectangle endpoints are out of order")
        if self.nu_min != -self.nu_max:
            raise ValueError(f"rectangle is not symmetric about the real axis: "
                             f"nu_min={self.nu_min}, nu_max={self.nu_max}")

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
        }


@dataclass(frozen=True)
class RawExtremes:
    """tau-independent proved edges of the pencils (D, M) and (C, M):
    ``mu_min`` <= lambda_min(D, M), ``mu_max`` >= lambda_max(D, M) and
    ``nu_max`` >= lambda_max(C, M). ``mass`` is the certified record of M
    (``cond_estimate``) whose ``floor`` put the proofs' rounding into
    eigenvalue units."""

    mu_min: float
    mu_max: float
    nu_max: float
    mass: CondEstimate


def raw_extremes(M, K, seed: int = 0) -> RawExtremes:
    """Proved edges of (D, M) and (C, M) for the unit time step.

    ``cond_estimate`` certifies M first. One symmetric sparse factor of M
    (``linalg.definite_factor``), whose pivots must prove M positive
    definite (``NotSPD`` otherwise), is then the solve with M for the
    ARPACK estimates (``_sym_estimates``, ``_skew_estimate``), and
    ``_proved_lower`` turns each estimate into an edge: mu_min on (D, M),
    mu_max on (-D, M) and nu_max on the Hermitian pencil (i S, M), whose
    mass-shifted matrix sigma M + i S is positive definite exactly when
    sigma > nu_max. Each proof also covers the rounding of ``split``, at
    most u |D| and u |S| per entry. A part with no nonzero entry gives its
    edges exactly 0 with no solver run. A complex or non-finite M or K, or
    fewer than 2 unknowns, raise ValueError.
    """
    _check_real_finite(M=M, K=K)
    parts = split(K)
    if M.shape != parts.D.shape:
        raise DimensionMismatch("K and M sizes differ")
    mass = cond_estimate(M, seed)
    M_solve = _mass_solve(M)
    regular = {"M": M, "Minv": _operator(M.shape[0], M_solve)}
    D, S = parts.D, parts.S
    sym, skew = np.any(D.data), np.any(S.data)
    lo, hi = _sym_estimates(D, M, regular, seed) if sym else (0.0, 0.0)
    nu = _skew_estimate(S, M_solve, regular, seed) if skew else 0.0
    scale = ZERO_STEP * max(abs(lo), abs(hi), nu)
    u = 2.0**-53  # split rounds each entry of D and S by at most u of it
    if sym:
        err = 2.0 * u * _rowsum(D)
        lo = _proved_lower("the minimum of a symmetric pencil", D, M, lo, scale, mass.floor, err)
        hi = -_proved_lower("the maximum of a symmetric pencil", -D, M, -hi, scale, mass.floor,
                            err)
    if skew:
        nu = -_proved_lower("the maximum of the skew pencil", 1j * S, M, -nu, scale, mass.floor,
                            2.0 * u * _rowsum(S))
    return RawExtremes(mu_min=lo, mu_max=hi, nu_max=nu, mass=mass)


def _outward(x, direction):
    """x moved one ulp toward ``direction`` * inf, or to ``direction`` *
    ``INFLATION_FLOOR`` when it is exactly 0."""
    return direction * INFLATION_FLOOR if x == 0.0 else float(np.nextafter(x, direction * np.inf))


def rectangle_from_extremes(ext: RawExtremes, tau: float) -> BoundingRectangle:
    """The rectangle [mu_min, mu_max] x [-nu_max, nu_max] of the unit-step
    edges scaled by tau, each rounded outward by one ulp so that the
    product's rounding cannot shave the enclosure. An edge that is exactly
    0 moves outward by ``INFLATION_FLOOR`` instead, so the rectangle keeps
    an interior.
    """
    nu = _outward(tau * ext.nu_max, 1.0)
    return BoundingRectangle(
        mu_min=_outward(tau * ext.mu_min, -1.0),
        mu_max=_outward(tau * ext.mu_max, 1.0),
        nu_min=-nu,
        nu_max=nu,
    )


def bounding_rectangle(p: Pencil, seed: int = 0) -> BoundingRectangle:
    """Rectangle enclosing the numerical range of the mass-symmetrized pencil.

    The horizontal extent comes from the extreme eigenvalues of (tau D, M),
    the vertical extent from the Hermitian pencil (tau C, M); for real K the
    rectangle is symmetric about the real axis. Edges are proved by
    ``raw_extremes`` and scaled by ``rectangle_from_extremes``.
    """
    return rectangle_from_extremes(raw_extremes(p.M, p.K, seed=seed), p.tau)


def is_lhp_certified(r: BoundingRectangle) -> bool:
    """True when the rectangle certifies a left-half-plane numerical range."""
    return r.mu_max <= 0.0


# --------------------------------------------------------------------------
# tau-independent pencil analysis
# --------------------------------------------------------------------------

def _same_matrix(A, B) -> bool:
    return A is B or (A.shape == B.shape and (A != B).nnz == 0)


@dataclass(frozen=True, eq=False)
class PencilAnalysis:
    """Enclosure data of the pencil (M, K) that no time step changes, and
    the one record of how it was enclosed.

    ``extremes`` are the unit-step proved edges of region ``mode``, which
    ``rectangle_from_extremes`` scales by tau, and ``kappa_safe`` is the
    certificate's kappa factor: the certified condition bound of M that the
    edges' proof already took in mode "ii", 1.0 in mode "i". One analysis
    serves every tau of the pencil.
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


def _product_error(A, B) -> float:
    """A bound on ||fl(A B) - A B||_2: each entry is a sum of at most m
    products, m the most entries in a row of A, so it rounds by at most
    gamma_m (|A| |B|), whose largest row or column sum bounds the 2-norm;
    gamma_{m + 2} covers the sums' own rounding."""
    A, B = sp.csr_array(A), sp.csr_array(B)
    m = int(np.max(np.diff(A.indptr))) + 2
    absA, absB = abs(A), abs(B)
    ones = np.ones(A.shape[0])
    sums = max(np.max(absA @ (absB @ ones)), np.max(absB.T @ (absA.T @ ones)))
    return float(sums) * m * 2.0**-53 / (1.0 - m * 2.0**-53)


def _widened(ext: RawExtremes, err: float, mass_err: float) -> RawExtremes:
    """ext's edges moved out to hold for the pencils (K + F, M + G) of
    every ||F||_2 <= err and ||G||_2 <= mass_err, where ext encloses (K, M).

    With mu an edge, x^H (D + herm F) x - mu x^H (M + G) x exceeds
    x^H (D - mu M) x - (err + |mu| mass_err) ||x||^2, and M + G has the
    floor ``ext.mass.floor`` - mass_err, so each edge moves outward by
    (err + |mu| mass_err) / that floor, the skew pencil's alike; 1 + 4 u
    covers the rounding of that step, one ulp that of the sum, and a zero
    step leaves the edge as it is. ``NotSPD`` when the floor is not
    positive.
    """
    floor = ext.mass.floor - mass_err
    if not floor > 0.0:
        raise NotSPD(f"the rounding {mass_err:.3g} of the mass exceeds its floor "
                     f"{ext.mass.floor:.3g}")

    def out(x, direction):
        step = (err + abs(x) * mass_err) / floor * (1.0 + 4.0 * 2.0**-53)
        return float(np.nextafter(x + direction * step, direction * np.inf)) if step else x

    return RawExtremes(mu_min=out(ext.mu_min, -1.0), mu_max=out(ext.mu_max, 1.0),
                       nu_max=out(ext.nu_max, 1.0), mass=ext.mass)


def analyze_pencil(M, K, seed: int = 0, mode: str = "ii") -> PencilAnalysis:
    """Enclose the pencil (M, K) once: unit-step edges and kappa(M) in
    mode "ii", where ``raw_extremes`` certifies M once for both. Mode "i"
    encloses W(inv(M) K) itself and needs no kappa: with x = M y,
    x* inv(M) K x / x* x = y* (K M) y / y* (M M) y, so it is the numerical
    range of the sparse pencil (K M, M M), whose mass M M is symmetric
    positive definite with M. Its edges are proved for the computed
    products and then widened by their rounding (``_widened``).

    An unknown mode, or a complex or non-finite M or K (``raw_extremes``
    checks them) raise ValueError before any solver runs.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "i":
        extremes = _widened(raw_extremes(M @ M, K @ M, seed=seed), _product_error(K, M),
                            _product_error(M, M))
    else:
        extremes = raw_extremes(M, K, seed=seed)
    return PencilAnalysis(
        M=sp.csr_array(M),
        K=sp.csr_array(K),
        extremes=extremes,
        kappa_safe=extremes.mass.kappa_safe if mode == "ii" else 1.0,
        mode=mode,
    )
