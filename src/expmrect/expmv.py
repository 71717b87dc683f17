"""Controlled-accuracy action of exp(tau * inv(M) * K) on a vector.

The driver assembles the pieces from the other modules into the certified
pipeline: bound the numerical range of the mass-symmetrized operator by a
rectangle, estimate the condition number of M, derive the scalar
approximation target

    target = eps / ((1 + sqrt(2)) * kappa_safe ** 0.5),

construct a rational approximant r certified below that target on the
rectangle, and apply r through shifted pencil solves. Because the rectangle
encloses the numerical range and that range is a (1 + sqrt(2))-spectral set,
the result satisfies ||x - exp(tau inv(M) K) b|| <= eps * ||b|| whenever the
certificate holds. The power 1/2 (``KAPPA_POWER``) is exact: the similarity
A_hat = M^(1/2) A M^(-1/2) costs the factor kappa(M)^(1/2) and no more.

Two region modes exist, and both enclose at any scale through one call,
``bounds.analyze_pencil``, whose tau-independent result a request may carry
in. Mode "ii" (default) bounds the numerical range of the symmetrized
operator via the pencils of the symmetric and skew parts against M. Mode
"i" rectangles W(A) of A = tau inv(M) K itself; no kappa factor is needed
but the rectangle may protrude far into the right half-plane when M mixes
eigenvectors strongly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .aaa import M_MAX, aaa_poles, refit_partial_fractions
from .bounds import (
    BoundingRectangle,
    Pencil,
    PencilAnalysis,
    analyze_pencil,
    bounding_rectangle,
    rectangle_from_extremes,
)
from .errors import (
    DegreeExhausted,
    DimensionMismatch,
    RefitFailed,
    ScalingExhausted,
    SingularShift,
    SingularMatrix,
)
from .linalg import lu_factor
from .rational import (
    CertifiedApproximant,
    DEFAULT_SAMPLES_PER_SIDE,
    PADE45_CORE,
    S_MAX,
    PadeRational,
    PartialFractionRational,
    boundary_samples,
    pade45,
    select_scaling,
    sup_error_on_rectangle,
)

__all__ = [
    "CROUZEIX_CONSTANT",
    "ORACLE_CUTOFF",
    "ExpmvRequest",
    "ExpmvCertificate",
    "apply_partial_fraction",
    "apply_scaled_pade",
    "expmv_controlled",
    "expm_dense_oracle",
    # unused here; perfbench's test_tracer_sees_calls_inside_the_driver_and_restores
    # reads expmv.bounding_rectangle (ROADMAP item 4(c))
    "bounding_rectangle",
]

CROUZEIX_CONSTANT = 1.0 + math.sqrt(2.0)
KAPPA_POWER = 0.5  # the similarity transform's exact cost: kappa(M)**(1/2)
AAA_SAMPLES_PER_SIDE = 125  # coarse grid for pole placement; refit gets the dense one
ORACLE_CUTOFF = 3000  # largest n expm_dense_oracle accepts


# --------------------------------------------------------------------------
# applying a partial fraction form through shifted solves
# --------------------------------------------------------------------------

def _shift_factor(p: Pencil, beta: complex, tau: float):
    """LU factor of (beta * M - tau * K), real when beta is real.

    The shifted matrix has the structurally symmetric pattern of M and K,
    so it is factored in ``lu_factor``'s symmetric mode: minimum degree on
    A^T + A with diagonal pivots. Those pivots exist because beta lies
    outside the rectangle R, which contains the numerical range of
    A_hat = tau M^(-1/2) K M^(-1/2). R is convex, so some unimodular c has
    Re(c (beta - z)) > 0 on R, and c (beta M - tau K), congruent to
    c (beta I - A_hat) through M^(1/2), has a positive definite Hermitian
    part. So has every principal submatrix and every Schur complement,
    whatever the symmetric order. SuperLU's default row pivoting would
    leave the diagonal on advection-dominated shifts and defeat the
    ordering (square/64 d=1e-3, tau=10h, beta=1+1j: 6.0M fill, not 189k).
    """
    # Unnamed, the CSR sum can be freed once lu_factor has its CSC copy, before
    # the factorization; named, a square/64 sub-pade operation peaked 1.2 MB higher.
    try:
        return lu_factor((beta if beta.imag else beta.real) * p.M - tau * p.K, symmetric=True)
    except SingularMatrix as exc:
        raise SingularShift(f"shift {beta} makes the pencil singular") from exc


def _pf_apply(pf: PartialFractionRational, p: Pencil, b: np.ndarray, factor) -> np.ndarray:
    """Evaluate gamma*b + sum_k w_k (beta_k M - tau K)^{-1} M b.

    ``factor(beta)`` returns the LU factor of beta M - tau K. The form is
    exactly conjugate-symmetric and M and K are real, so one solve per real
    pole and one per conjugate pair suffice: a pair's contribution is twice
    the real part of its upper member's, and the result is real for real b.
    A complex b is applied by linearity, as f(b.real) + 1j f(b.imag): each
    pole's factor solves both parts, and the two real sums run in the same
    order as for a real b. This function holds each factor only for that
    pole's solves; whether it outlives them is up to ``factor``.
    """
    parts = (b.real, b.imag) if np.iscomplexobj(b) else (b,)
    Mb = [p.M @ part for part in parts]

    def solves(i):
        fac = factor(pf.poles[i])
        return [fac.solve(rhs) for rhs in Mb]

    xs = [pf.gamma * part.astype(float) for part in parts]
    for i in pf.real_poles:
        xs = [x + pf.weights[i].real * y.real for x, y in zip(xs, solves(i))]
    for i, _ in pf.pairs:
        xs = [x + 2.0 * (pf.weights[i] * y).real for x, y in zip(xs, solves(i))]
    return xs[0] + 1j * xs[1] if len(xs) == 2 else xs[0]


def apply_partial_fraction(r: PartialFractionRational, p: Pencil, b: np.ndarray) -> np.ndarray:
    """Apply r(tau inv(M) K) to b via shifted sparse solves.

    Each real pole and each conjugate pair costs one factorization of
    (beta_k M - tau K) and one solve with M b (two for a complex b, one per
    part). Poles are taken one at a time, and each factor is released as
    soon as its solves return, so at most one factor is alive at any time
    and peak memory does not grow with the degree.
    """
    if b.shape[0] != p.n:
        raise DimensionMismatch(f"vector of shape {b.shape} does not fit n={p.n}")
    return _pf_apply(r, p, np.asarray(b), lambda beta: _shift_factor(p, complex(beta), p.tau))


def apply_scaled_pade(pade: PadeRational, p: Pencil, b: np.ndarray) -> np.ndarray:
    """Apply (r45(tau inv(M) K / s))**s to b, one partial fraction pass per
    power.

    The shifts are the same in every pass, so the three factors of r45 (one
    real pole and two conjugate pairs) are taken once, in the first pass,
    kept for all s passes and released when the call returns.
    """
    if b.shape[0] != p.n:
        raise DimensionMismatch(f"vector of shape {b.shape} does not fit n={p.n}")
    tau_step = p.tau / pade.scaling
    factors: dict = {}

    def factor(beta):
        key = complex(beta)
        if key not in factors:
            factors[key] = _shift_factor(p, key, tau_step)
        return factors[key]

    x = np.asarray(b)
    for _ in range(pade.scaling):
        x = _pf_apply(PADE45_CORE, p, x, factor)
    return x


# --------------------------------------------------------------------------
# request / certificate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpmvRequest:
    """Everything needed to run the controlled-accuracy driver once.

    ``analysis`` optionally carries the pencil's tau-independent enclosure
    (see ``bounds.analyze_pencil``), in either mode; the driver then reuses
    it instead of enclosing again. It must be of this pencil's M and K and
    computed with this request's ``rel_resid_tol``, ``seed`` and ``mode``,
    or the request raises ValueError.

    ``kappa_power``, ``n_per_side``, ``s_max`` and ``m_max`` are fixed, not
    arguments. They hold the driver's ``KAPPA_POWER``, its boundary sampling
    density ``DEFAULT_SAMPLES_PER_SIDE``, and the caps ``S_MAX`` on the Pade
    scaling and ``M_MAX`` on the AAA degree.
    """

    pencil: Pencil
    b: np.ndarray
    eps: float
    method: str = "sub-pade"  # "sub-pade" | "rat-interp"
    mode: str = "ii"  # "ii": W of the symmetrized operator; "i": W(A) itself
    kappa_power: float = field(default=KAPPA_POWER, init=False)
    rel_resid_tol: float = 1e-3
    n_per_side: int = field(default=DEFAULT_SAMPLES_PER_SIDE, init=False)
    s_max: int = field(default=S_MAX, init=False)
    m_max: int = field(default=M_MAX, init=False)
    seed: int = 0
    analysis: PencilAnalysis | None = None

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.method not in ("sub-pade", "rat-interp"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.mode not in ("i", "ii"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b contains NaN or Inf entries")
        if self.analysis is not None:
            self.analysis.check_fits(self.pencil, self.rel_resid_tol, self.seed, self.mode)


@dataclass(frozen=True)
class ExpmvCertificate:
    """The a priori accuracy certificate attached to a driver result.

    ``achieved_bound`` is the boundary-certified sup of |r - exp| on the
    rectangle; multiplying by (1 + sqrt(2)) * kappa_safe**kappa_power bounds
    ||r(A) - exp(A)||_2, which is at most eps by construction.
    """

    rectangle: BoundingRectangle
    kappa_safe: float
    kappa_power: float
    scalar_target: float
    achieved_bound: float
    degree: int
    method: str
    mode: str
    eps: float

    @property
    def operator_bound(self) -> float:
        """The certified two-norm bound on ||x - exp(A) b|| / ||b||.

        By construction it never exceeds ``eps``, and it dominates the
        measured error whenever the rectangle and condition estimate are
        sound, which is what makes it the right column for result tables.
        """
        return CROUZEIX_CONSTANT * self.kappa_safe**self.kappa_power * self.achieved_bound

    def to_json(self) -> str:
        payload = {
            "schema": "expmrect/certificate-v1",
            "rectangle": self.rectangle.as_dict(),
            "kappa_safe": self.kappa_safe,
            "kappa_power": self.kappa_power,
            "scalar_target": self.scalar_target,
            "achieved_bound": self.achieved_bound,
            "operator_bound": self.operator_bound,
            "degree": self.degree,
            "method": self.method,
            "mode": self.mode,
            "eps": self.eps,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _attach_context(exc, rect, kappa, target, req):
    exc.context.update(
        {
            "rectangle": rect.as_dict(),
            "kappa_safe": kappa,
            "scalar_target": target,
            "method": req.method,
            "mode": req.mode,
            "eps": req.eps,
        }
    )
    return exc


def expmv_controlled(req: ExpmvRequest) -> tuple[np.ndarray, ExpmvCertificate]:
    """Compute x ~= exp(tau inv(M) K) b with ||x - exact|| <= eps * ||b||.

    Returns the vector and the accuracy certificate. Raises
    ``ScalingExhausted``, ``DegreeExhausted`` or ``RefitFailed`` (with the
    partial certificate attached as ``context``) when the requested
    tolerance is honestly unreachable within the method's caps.
    """
    p = req.pencil
    b = np.asarray(req.b)
    if b.shape[0] != p.n:
        raise DimensionMismatch(f"vector of shape {b.shape} does not fit n={p.n}")

    analysis = req.analysis or analyze_pencil(p.M, p.K, req.rel_resid_tol, req.seed, req.mode)
    rect = rectangle_from_extremes(analysis.extremes, p.tau, req.rel_resid_tol)
    kappa_safe = analysis.kappa_safe
    target = req.eps / (CROUZEIX_CONSTANT * kappa_safe**KAPPA_POWER)

    if req.method == "sub-pade":
        try:
            s = select_scaling(rect, target)
        except ScalingExhausted as exc:
            raise _attach_context(exc, rect, kappa_safe, target, req)
        pade = pade45(scaling=s)
        achieved = sup_error_on_rectangle(pade, rect)
        cert_form = CertifiedApproximant(
            form=PADE45_CORE,
            sup_error_estimate=achieved,
            target=target,
            method="sub-pade",
            scaling=s,
        )
        x = apply_scaled_pade(pade, p, b)
    else:
        try:
            poles = aaa_poles(boundary_samples(rect, AAA_SAMPLES_PER_SIDE), target)
            cert_form = refit_partial_fractions(poles, boundary_samples(rect), target)
        except (DegreeExhausted, RefitFailed) as exc:
            raise _attach_context(exc, rect, kappa_safe, target, req)
        x = apply_partial_fraction(cert_form.form, p, b)
    cert = ExpmvCertificate(
        rectangle=rect,
        kappa_safe=kappa_safe,
        kappa_power=KAPPA_POWER,
        scalar_target=target,
        achieved_bound=cert_form.sup_error_estimate,
        degree=cert_form.degree,
        method=req.method,
        mode=req.mode,
        eps=req.eps,
    )
    return x, cert


# --------------------------------------------------------------------------
# dense reference exponential
# --------------------------------------------------------------------------

def expm_dense_oracle(A: np.ndarray) -> np.ndarray:
    """Dense matrix exponential, SciPy's ``expm``.

    Independent desk-scale reference for the certified pipeline. At most
    ``ORACLE_CUTOFF`` unknowns are accepted.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {A.shape}")
    n = A.shape[0]
    if n > ORACLE_CUTOFF:
        raise ValueError(f"dense oracle limited to n <= {ORACLE_CUTOFF}, got {n}")
    return scipy.linalg.expm(A)
