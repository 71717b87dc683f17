"""Scalar rational approximation of exp on axis-aligned rectangles.

Two approximant families are built here. The first is the subdiagonal (4,5)
Pade approximant of exp in the scaled form (r(z/s))**s, whose closed-form
coefficients make it cheap to certify. The second, fitted by greedy
interpolation and refitting (see :mod:`expmrect.aaa`), shares the partial
fraction representation

    r(z) = gamma + sum_k weights[k] / (poles[k] - z),

which is the form the matrix driver can apply through shifted linear solves.

Accuracy claims are certified by sampling |r(z) - exp(z)| on the boundary of
the rectangle: the error function is analytic inside whenever no pole lies in
the rectangle, so by the maximum principle the boundary sup bounds the
interior sup. Sampling is Chebyshev-clustered toward the corners and the
observed maximum is inflated by a safety factor to account for the finite
sample density. A partial fraction form whose terms far exceed its value
is evaluated with rounding noise of the size of its error, so its
certificate also adds a rounding term.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bounds import BoundingRectangle
from .errors import (
    PoleEvaluation,
    PoleInsideRegion,
    ScalingExhausted,
)

__all__ = [
    "METHODS",
    "PADE45_CORE",
    "PADE45_DEN",
    "PADE45_NUM",
    "PadeRational",
    "PartialFractionRational",
    "RegionBoundary",
    "CertifiedApproximant",
    "pade45",
    "boundary_samples",
    "sup_error_on_rectangle",
    "select_scaling",
    "eval_rational",
]

METHODS = ("sub-pade", "rat-interp")  # the scaled (4,5) Pade form; AAA with a refit
DEFAULT_SAMPLES_PER_SIDE = 500
S_MAX = 64  # largest scaling select_scaling tries
SAMPLING_SAFETY = 1.1
UNIT_ROUNDOFF = 2.0**-53


# --------------------------------------------------------------------------
# subdiagonal (4, 5) Pade approximant of exp
# --------------------------------------------------------------------------

# Closed form for the (4,5) Pade approximant of exp: numerator degree 4,
# denominator degree 5, coefficients in ascending order, p(0) = q(0) = 1.
PADE45_NUM = np.array([
    factorial(9 - j) * factorial(4) / (factorial(9) * factorial(j) * factorial(4 - j))
    for j in range(5)
])
PADE45_DEN = np.array([
    (-1) ** j * factorial(9 - j) * factorial(5) / (factorial(9) * factorial(j) * factorial(5 - j))
    for j in range(6)
])


@dataclass(frozen=True)
class PadeRational:
    """The (4,5) Pade approximant of exp, optionally scaled-and-powered.

    Represents r(z) = (p(z/s)/q(z/s))**s with ``scaling`` = s >= 1, where p
    and q have the coefficients ``PADE45_NUM`` and ``PADE45_DEN``.
    """

    scaling: int = 1

    def __post_init__(self):
        if self.scaling < 1:
            raise ValueError("scaling must be a positive integer")


def pade45(scaling: int = 1) -> PadeRational:
    """Construct the (4,5) Pade approximant of exp with the given scaling."""
    return PadeRational(scaling=int(scaling))


# --------------------------------------------------------------------------
# partial fraction form
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractionRational:
    """gamma + sum_k weights[k] / (poles[k] - z), the solver-ready form.

    Exactly conjugate-symmetric, like the best approximant of exp on a
    rectangle symmetric about the real axis: ``gamma`` is real, each real
    pole has a real weight, and each non-real pole has its exact conjugate,
    with the conjugate weight (ValueError otherwise). ``real_poles`` and
    ``pairs`` are the pole indices from ``classify_conjugate_poles``.
    """

    gamma: float
    poles: np.ndarray
    weights: np.ndarray
    real_poles: list = field(init=False, repr=False)
    pairs: list = field(init=False, repr=False)

    def __post_init__(self):
        poles = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=complex))
        if poles.shape != weights.shape:
            raise ValueError("poles and weights must have matching shapes")
        if poles.size and not np.all(np.isfinite(poles) & np.isfinite(weights)):
            raise ValueError("poles and weights must be finite")
        if complex(self.gamma).imag != 0.0:
            raise ValueError(f"gamma must be real, got {self.gamma}")
        real_poles, pairs = classify_conjugate_poles(poles)
        if any(weights[i].imag != 0.0 for i in real_poles):
            raise ValueError("a real pole has a non-real weight")
        if any(weights[j] != np.conj(weights[i]) for i, j in pairs):
            raise ValueError("a conjugate pole pair has weights that are not conjugate")
        object.__setattr__(self, "gamma", complex(self.gamma).real)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "real_poles", real_poles)
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other):  # the generated == takes the truth value of an array
        if not isinstance(other, PartialFractionRational):
            return NotImplemented
        return (self.gamma == other.gamma and np.array_equal(self.poles, other.poles)
                and np.array_equal(self.weights, other.weights))

    @property
    def degree(self) -> int:
        return int(self.poles.size)


def classify_conjugate_poles(poles: np.ndarray):
    """Split an exactly conjugate-closed pole set into real poles and
    (upper, lower) index pairs.

    Returns (real_indices, pairs); raises ValueError when some pole has no
    exact partner. Exactness is deliberate: downstream consumers (the
    symmetric least-squares basis, the one-solve-per-pair application) rely
    on the pairing being a structural fact, not a numerical coincidence.
    """
    real_idx = [i for i, p in enumerate(poles) if p.imag == 0.0]
    unpaired = [i for i, p in enumerate(poles) if p.imag != 0.0]
    pairs: list[tuple[int, int]] = []
    while unpaired:
        i = unpaired.pop(0)
        p = complex(poles[i])
        j = next((j for j in unpaired if complex(poles[j]) == p.conjugate()), None)
        if j is None:
            raise ValueError(f"pole {p} has no exact conjugate partner")
        unpaired.remove(j)
        pairs.append((i, j) if p.imag > 0.0 else (j, i))
    return real_idx, pairs


def _pade45_core() -> PartialFractionRational:
    # The denominator roots are simple: one real and two conjugate pairs, all
    # with positive real part.
    roots = np.roots(PADE45_DEN[::-1])
    weights = -npoly.polyval(roots, PADE45_NUM) / npoly.polyval(roots, npoly.polyder(PADE45_DEN))
    order = np.lexsort((roots.imag, roots.real))
    return PartialFractionRational(gamma=0.0, poles=roots[order], weights=weights[order])


# Partial fraction form of the unscaled (4,5) core p/q; any outer scaling and
# powering is the caller's.
PADE45_CORE = _pade45_core()


# --------------------------------------------------------------------------
# rectangle boundary sampling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionBoundary:
    """Boundary samples of a rectangle, corner-clustered and exactly closed
    under conjugation."""

    rectangle: BoundingRectangle
    samples: np.ndarray
    n_per_side: int


def _lobatto(a: float, b: float, n: int) -> np.ndarray:
    # Chebyshev-Lobatto points on [a, b], endpoints included, clustered at
    # both ends. Returned in increasing order.
    if n <= 1 or a == b:
        return np.array([0.5 * (a + b)])
    theta = np.pi * np.arange(n) / (n - 1)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)[::-1]


def boundary_samples(rect, n_per_side: int = DEFAULT_SAMPLES_PER_SIDE) -> RegionBoundary:
    """Sample the boundary of a rectangle for sup-norm estimation.

    The vertical samples are made exactly antisymmetric, so the sample set
    is exactly closed under conjugation, like the rectangle. Degenerate
    rectangles are handled: a horizontal or vertical segment is sampled
    along its length, a point yields a single sample. Corners appear
    exactly once.
    """
    mu0, mu1 = rect.mu_min, rect.mu_max
    nu0, nu1 = rect.nu_min, rect.nu_max

    def antisymmetric_ys(n):
        ys = _lobatto(nu0, nu1, n)
        return 0.5 * (ys - ys[::-1])

    if nu1 <= nu0:  # a real segment, or a point
        pts = _lobatto(mu0, mu1, 2 * n_per_side) + 1j * nu0
    elif mu1 <= mu0:
        pts = mu0 + 1j * antisymmetric_ys(2 * n_per_side)
    else:
        xs = _lobatto(mu0, mu1, n_per_side)
        ys = antisymmetric_ys(n_per_side)
        bottom = xs + 1j * nu0
        top = xs + 1j * nu1
        left = mu0 + 1j * ys[1:-1]
        right = mu1 + 1j * ys[1:-1]
        pts = np.concatenate([bottom, top, left, right])
    return RegionBoundary(rectangle=rect, samples=pts, n_per_side=int(n_per_side))


# --------------------------------------------------------------------------
# evaluation and certification
# --------------------------------------------------------------------------

def _effective_poles(r) -> np.ndarray:
    if isinstance(r, PadeRational):
        return r.scaling * PADE45_CORE.poles
    if isinstance(r, PartialFractionRational):
        return r.poles
    raise TypeError(f"not a rational form: {type(r)!r}")


def _pf_terms(pf: PartialFractionRational, z: np.ndarray) -> np.ndarray:
    """The terms w_k / (p_k - z) of ``pf``, one row per point z."""
    diff = pf.poles[None, ...] - z[..., None]
    if np.any(np.abs(diff) < 1e-15 * (1.0 + np.abs(pf.poles)[None, ...])):
        raise PoleEvaluation("evaluation point coincides with a pole")
    return pf.weights[None, ...] / diff


def eval_rational(r, z):
    """Evaluate a rational form at scalar or array argument z.

    ``PadeRational`` with scaling s is evaluated as (p(z/s)/q(z/s))**s via
    the stable polynomial ratio; ``PartialFractionRational`` by direct pole
    summation.
    """
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if isinstance(r, PadeRational):
        w = zz / r.scaling
        den = npoly.polyval(w, PADE45_DEN)
        if np.any(np.abs(den) == 0.0):
            raise PoleEvaluation("evaluation point coincides with a pole")
        vals = (npoly.polyval(w, PADE45_NUM) / den) ** r.scaling
    elif isinstance(r, PartialFractionRational) and not r.poles.size:
        vals = np.full(zz.shape, r.gamma, dtype=complex)
    elif isinstance(r, PartialFractionRational):
        vals = r.gamma + _pf_terms(r, zz).sum(axis=-1)
    else:
        raise TypeError(f"not a rational form: {type(r)!r}")
    return vals[0] if scalar else vals


def sup_error_on_rectangle(
    r,
    rect,
    n_per_side: int = DEFAULT_SAMPLES_PER_SIDE,
) -> float:
    """Estimate sup over the rectangle of |r(z) - exp(z)| from the boundary.

    Requires that no pole of ``r`` lies inside or on the rectangle, so the
    maximum principle applies and boundary sampling is sound; otherwise
    ``PoleInsideRegion`` is raised. The sampled maximum is multiplied by
    ``SAMPLING_SAFETY`` to cover the gaps between samples, and the rounding
    bound of ``_sup_on_samples`` is added that many times for the sampled
    values plus once for any evaluation between them.
    """
    if np.any(rect.contains(_effective_poles(r))):
        raise PoleInsideRegion("a pole lies inside or on the rectangle")
    boundary = boundary_samples(rect, n_per_side)
    return _sup_on_samples(r, boundary.samples)


def _sup_on_samples(r, samples: np.ndarray) -> float:
    """SAMPLING_SAFETY max |r - exp| over the samples, plus (1 +
    SAMPLING_SAFETY) u max (|gamma| + sum_k |w_k / (p_k - z)|), the rounding
    error of a partial fraction form, whose terms can exceed its value
    (about |exp(z)|) by 10**9. The Pade ratio form sums no such terms."""
    rounding = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(r, PartialFractionRational) and r.poles.size:
            terms = _pf_terms(r, samples)
            vals = r.gamma + terms.sum(axis=-1)
            rounding = UNIT_ROUNDOFF * float(np.max(abs(r.gamma) + np.abs(terms).sum(axis=-1)))
        else:
            vals = eval_rational(r, samples)
        err = np.abs(vals - np.exp(samples))
    return SAMPLING_SAFETY * float(np.max(err)) + (1.0 + SAMPLING_SAFETY) * rounding


def select_scaling(
    rect,
    target: float,
    s_max: int = S_MAX,
    n_per_side: int = DEFAULT_SAMPLES_PER_SIDE,
) -> int:
    """Smallest scaling s <= s_max with certified Pade error below target.

    Scans s = 1, 2, ... and returns the first s whose boundary-certified
    sup-error of (r45(z/s))**s on the rectangle is at most ``target``.
    Scalings whose scaled poles would enter the rectangle are skipped (the
    approximant is unusable there). Raises ``ScalingExhausted`` when no
    admissible s exists up to the cap.
    """
    if target <= 0.0:
        raise ValueError("target must be positive")
    boundary = boundary_samples(rect, n_per_side)
    for s in range(1, int(s_max) + 1):
        cand = pade45(scaling=s)
        if np.any(rect.contains(_effective_poles(cand))):
            continue
        if _sup_on_samples(cand, boundary.samples) <= target:
            return s
    raise ScalingExhausted(
        f"no scaling up to {s_max} meets target {target:.3e} on {rect}",
        context={"s_max": int(s_max), "target": float(target)},
    )


# --------------------------------------------------------------------------
# certified approximant
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedApproximant:
    """A partial fraction rational with a boundary-certified sup error.

    For the scaled Pade method the represented function is
    (form(z/scaling))**scaling and ``form`` holds the degree-5 core; for the
    interpolation method ``scaling`` is 1 and ``form`` is the fitted
    rational itself. ``sup_error_estimate`` is the certified bound on
    |r - exp| over the rectangle the approximant was built for, and never
    exceeds ``target``.
    """

    form: PartialFractionRational
    sup_error_estimate: float
    target: float
    method: str
    scaling: int = 1

    def __post_init__(self):
        if self.sup_error_estimate > self.target:
            raise ValueError("certified sup error exceeds the stated target")
        if self.scaling < 1:
            raise ValueError("scaling must be a positive integer")
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")

    @property
    def degree(self) -> int:
        return self.scaling * self.form.degree
