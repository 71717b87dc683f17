"""Scalar rational approximation of exp on axis-aligned rectangles.

Two approximant families are built here. The first is the subdiagonal (4,5)
Pade approximant of exp in the scaled form (r(z/s))**s, whose closed-form
coefficients make it cheap to certify. The second, fitted by greedy
interpolation and refitting (see :mod:`expmrect.aaa`), shares the partial
fraction representation

    r(z) = gamma + sum_k weights[k] / (poles[k] - z),

which is the form the matrix driver can apply through shifted linear solves,
and the form evaluated and certified here; the Pade approximant is its core
at z/s raised to the power s.

Accuracy claims are certified by sampling |r(z) - exp(z)| on the boundary of
the rectangle: the error function is analytic inside whenever no pole lies in
the rectangle, so by the maximum principle the boundary sup bounds the
interior sup. The samples (``BoundingRectangle.samples``) cluster toward the
corners, and the observed maximum is inflated by a safety factor to account
for the finite sample density. A partial fraction form whose terms far
exceed its value is evaluated with rounding noise of the size of its error,
so its certificate also adds a rounding term, carried through the power.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
# Exact, and rounded once; they serve only to build ``PADE45_CORE``.
_PADE45_P = [Fraction(factorial(9 - j) * factorial(4),
                      factorial(9) * factorial(j) * factorial(4 - j))
             for j in range(5)]
_PADE45_Q = [Fraction((-1) ** j * factorial(9 - j) * factorial(5),
                      factorial(9) * factorial(j) * factorial(5 - j))
             for j in range(6)]
PADE45_NUM = np.array([float(c) for c in _PADE45_P])
PADE45_DEN = np.array([float(c) for c in _PADE45_Q])


@dataclass(frozen=True)
class PadeRational:
    """The (4,5) Pade approximant of exp, optionally scaled-and-powered.

    Represents r(z) = (PADE45_CORE(z/s))**s with ``scaling`` = s >= 1: the
    partial fractions of p/q, p and q with the coefficients ``PADE45_NUM``
    and ``PADE45_DEN``, the form that ``expmv.apply_scaled_pade`` applies.
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
    # with positive real part. np.roots leaves them 5e-14 and the weights
    # -p/q' 5e-12 off (the form 5e-13 off p/q), so the real and upper roots
    # take Newton steps, and the weights are formed, in extended precision
    # from the exact coefficients; the lower roots are their conjugates.
    p, q = (np.array([np.longdouble(c.numerator) / c.denominator for c in cs])
            for cs in (_PADE45_P, _PADE45_Q))
    dq = npoly.polyder(q)
    roots = np.roots(PADE45_DEN[::-1])
    upper = roots[roots.imag >= 0.0].astype(np.clongdouble)
    for _ in range(3):
        upper = upper - npoly.polyval(upper, q) / npoly.polyval(upper, dq)
    weights = -npoly.polyval(upper, p) / npoly.polyval(upper, dq)
    pair = upper.imag != 0.0
    roots = np.concatenate([upper, np.conj(upper[pair])]).astype(complex)
    weights = np.concatenate([weights, np.conj(weights[pair])]).astype(complex)
    order = np.lexsort((roots.imag, roots.real))
    return PartialFractionRational(gamma=0.0, poles=roots[order], weights=weights[order])


# Partial fraction form of the unscaled (4,5) core p/q; ``PadeRational``
# scales and powers it.
PADE45_CORE = _pade45_core()


# --------------------------------------------------------------------------
# rectangle boundary samples
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionBoundary:
    """A rectangle with its boundary samples, as the AAA fit and refit take
    them: corner-clustered and exactly closed under conjugation."""

    rectangle: BoundingRectangle
    samples: np.ndarray
    n_per_side: int


def boundary_samples(rect, n_per_side: int = DEFAULT_SAMPLES_PER_SIDE) -> RegionBoundary:
    """The rectangle's boundary samples (``BoundingRectangle.samples``)."""
    return RegionBoundary(rect, rect.samples(n_per_side), int(n_per_side))


# --------------------------------------------------------------------------
# evaluation and certification
# --------------------------------------------------------------------------

def _core(r) -> tuple[PartialFractionRational, int]:
    """The partial fraction form that r raises at z/s to the power s, and s."""
    if isinstance(r, PadeRational):
        return PADE45_CORE, r.scaling
    if isinstance(r, PartialFractionRational):
        return r, 1
    raise TypeError(f"not a rational form: {type(r)!r}")


def _pf_terms(pf: PartialFractionRational, z: np.ndarray) -> np.ndarray:
    """The terms w_k / (p_k - z) of ``pf``, one row per point z."""
    diff = pf.poles[None, ...] - z[..., None]
    if np.any(np.abs(diff) < 1e-15 * (1.0 + np.abs(pf.poles)[None, ...])):
        raise PoleEvaluation("evaluation point coincides with a pole")
    return pf.weights[None, ...] / diff


def eval_rational(r, z):
    """Evaluate a rational form at scalar or array argument z.

    A ``PartialFractionRational`` is summed pole by pole; a ``PadeRational``
    with scaling s is its core ``PADE45_CORE``, summed the same way at z/s
    and raised to the power s.
    """
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    form, s = _core(r)
    vals = (form.gamma + _pf_terms(form, zz / s).sum(axis=-1)) ** s
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
    bound of ``_sup_on_samples`` is added at the sampled values and once
    more for any evaluation between them.
    """
    form, s = _core(r)
    if np.any(rect.contains(s * form.poles)):
        raise PoleInsideRegion("a pole lies inside or on the rectangle")
    return _sup_on_samples(r, rect.samples(n_per_side))


def _sup_on_samples(r, samples: np.ndarray) -> float:
    """SAMPLING_SAFETY max |r - exp| over the samples plus the largest
    rounding bound there.

    r is its core v = gamma + sum_k w_k / (p_k - z/s) raised to the power s.
    The terms can exceed v (about |exp(z/s)|) by 10**9, so v is off by up to
    delta = (1 + SAMPLING_SAFETY) u (|gamma| + sum_k |w_k / (p_k - z/s)|),
    and v**s by up to s (|v| + delta)**(s - 1) delta."""
    form, s = _core(r)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _pf_terms(form, samples / s)
        v = form.gamma + terms.sum(axis=-1)
        sampled = SAMPLING_SAFETY * float(np.max(np.abs(v**s - np.exp(samples))))
        amp = abs(form.gamma) + np.abs(terms).sum(axis=-1)
        delta = (1.0 + SAMPLING_SAFETY) * (UNIT_ROUNDOFF * amp)
        return sampled + float(np.max(s * (np.abs(v) + delta) ** (s - 1) * delta))


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
    samples = rect.samples(n_per_side)
    for s in range(1, int(s_max) + 1):
        if np.any(rect.contains(s * PADE45_CORE.poles)):
            continue
        cand = pade45(scaling=s)
        # a subset's bound is at most the full one, so it may reject s first
        if (_sup_on_samples(cand, samples[::10]) <= target
                and _sup_on_samples(cand, samples) <= target):
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
