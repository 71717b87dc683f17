"""Controlled-accuracy action of exp(tau * inv(M) * K) on a vector.

The driver assembles the pieces from the other modules into the certified
pipeline: bound the numerical range of the mass-symmetrized operator by a
rectangle, bound the condition number of M from above, derive the scalar
approximation target

    target = eps / ((1 + sqrt(2)) * kappa_safe ** 0.5),

construct a rational approximant r certified below that target on the
rectangle, and apply r through shifted pencil solves. Because the rectangle
encloses the numerical range and that range is a (1 + sqrt(2))-spectral set,
the result satisfies ||x - exp(tau inv(M) K) b|| <= eps * ||b|| whenever the
certificate holds. The power 1/2 (``KAPPA_POWER``) is exact: the similarity
A_hat = M^(1/2) A M^(-1/2) costs the factor kappa(M)^(1/2) and no more;
``kappa_safe`` is a certified upper bound on kappa(M), and every rectangle
edge is proved by an inertia proof widened by its rounding bound. Only the
scalar sup (``rational.SAMPLING_SAFETY``) still rests on a heuristic
margin.

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
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .aaa import M_MAX, aaa_poles, refit_partial_fractions
from .bounds import (
    BoundingRectangle,
    Pencil,
    PencilAnalysis,
    analyze_pencil,
    bounding_rectangle,
    rectangle_from_extremes,
)
from .errors import (DimensionMismatch, RefitFailed, SingularMatrix, SingularShift,
                     ToleranceUnreachable)
from .linalg import lu_factor
from .rational import (
    CertifiedApproximant,
    DEFAULT_SAMPLES_PER_SIDE,
    METHODS,
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
# AAA's poles jump with the rectangle: moving an edge by 1e-4 of its length
# can move the outer pole column of a tall rectangle by several units, and
# the partial fraction form's amplitude (its rounding term) thirtyfold. A
# refit that fails is retried on poles placed on the rectangle grown by each
# of these fractions of its sides (``_rat_interp``).
POLE_GROWTHS = (0.0, 1e-4, 3e-4)
ORACLE_CUTOFF = 3000  # largest n expm_dense_oracle accepts


# --------------------------------------------------------------------------
# applying a partial fraction form through shifted solves
# --------------------------------------------------------------------------

class _ShiftPattern(NamedTuple):
    """M's and K's values on one canonical CSC pattern, the union of theirs."""

    M: np.ndarray
    K: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _shift_pattern(p: Pencil) -> _ShiftPattern:
    """Lay M and K out on the union of their CSC patterns, once per apply
    call, so that each shifted matrix is one pass over two value arrays."""
    M, K = p.M.tocsc(), p.K.tocsc()
    M.sum_duplicates()
    K.sum_duplicates()

    def ones(A):
        return sp.csc_array((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)

    union = ones(M) + ones(K)  # every entry is 1 or 2, so none is dropped

    def keys(A):
        return np.repeat(np.arange(p.n, dtype=np.int64), np.diff(A.indptr)) * p.n + A.indices

    at = keys(union)

    def values(A):
        out = np.zeros(union.nnz)
        out[np.searchsorted(at, keys(A))] = A.data
        return out

    return _ShiftPattern(values(M), values(K), union.indices, union.indptr)


def _shift_factor(pattern: _ShiftPattern, beta: complex, tau: float):
    """LU factor of (beta * M - tau * K), real when beta is real.

    The shifted matrix is built on ``pattern``, the union of the patterns of
    M and K that each apply call lays out once (on every generated system
    the two patterns are the same). Its values are beta * M - tau * K entry
    by entry, the arithmetic of the sparse sum, so it is bitwise that sum
    wherever no entry cancels exactly; the sum would drop such an entry,
    this matrix keeps it as an explicit zero. The matrix is factored in
    ``lu_factor``'s symmetric mode: minimum degree on A^T + A with diagonal
    pivots, one column at a time (SuperLU panel size 1). Those pivots exist
    because beta lies outside the rectangle R, which contains the numerical
    range of A_hat = tau M^(-1/2) K M^(-1/2). R is convex, so
    some unimodular c has Re(c (beta - z)) > 0 on R, and c (beta M - tau K),
    congruent to c (beta I - A_hat) through M^(1/2), has a positive definite
    Hermitian part. So has every principal submatrix and every Schur
    complement, whatever the symmetric order. SuperLU's default row pivoting
    would leave the diagonal on advection-dominated shifts and defeat the
    ordering (square/64 d=1e-3, tau=10h, beta=1+1j: 6.0M fill, not 189k).
    """
    n = pattern.indptr.size - 1
    data = (beta if beta.imag else beta.real) * pattern.M - tau * pattern.K
    try:
        return lu_factor(sp.csc_array((data, pattern.indices, pattern.indptr), shape=(n, n)),
                         symmetric=True)
    except SingularMatrix as exc:
        raise SingularShift(f"shift {beta} makes the pencil singular") from exc


def apply_partial_fraction(r: PartialFractionRational, p: Pencil, b: np.ndarray,
                           scaling: int = 1) -> np.ndarray:
    """Apply r(tau inv(M) K / s)**s to b, s = ``scaling``, as s passes of
    x <- gamma*x + sum_k w_k (beta_k M - (tau/s) K)^{-1} M x.

    The form is exactly conjugate-symmetric and M and K are real, so one
    solve per real pole and one per conjugate pair suffice: a pair's
    contribution is twice the real part of its upper member's, and the
    result is real for real b. A complex b is applied by linearity, as
    f(b.real) + 1j f(b.imag): each pole's factor solves both parts, and the
    two real sums run in the same order as for a real b. A pole's factor is
    taken in the first pass and released after its solves in the last, so
    one pass holds at most one factor at any time.
    """
    if b.shape[0] != p.n:
        raise DimensionMismatch(f"vector of shape {b.shape} does not fit n={p.n}")
    pattern = _shift_pattern(p)
    tau_step = p.tau / scaling
    kept: dict = {}

    def solves(i, rhs, last):
        fac = kept.pop(i) if i in kept else _shift_factor(pattern, complex(r.poles[i]), tau_step)
        if not last:
            kept[i] = fac
        return [fac.solve(v) for v in rhs]

    x = np.asarray(b)
    for k in range(scaling):
        last = k == scaling - 1
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
        Mx = [p.M @ part for part in parts]
        xs = [r.gamma * part.astype(float) for part in parts]
        for i in r.real_poles:
            xs = [y + r.weights[i].real * z.real for y, z in zip(xs, solves(i, Mx, last))]
        for i, _ in r.pairs:
            xs = [y + 2.0 * (r.weights[i] * z).real for y, z in zip(xs, solves(i, Mx, last))]
        x = xs[0] + 1j * xs[1] if len(xs) == 2 else xs[0]
    return x


def apply_scaled_pade(pade: PadeRational, p: Pencil, b: np.ndarray) -> np.ndarray:
    """Apply (r45(tau inv(M) K / s))**s to b: ``PADE45_CORE`` in s passes,
    its three factors (one real pole and two conjugate pairs) taken once."""
    return apply_partial_fraction(PADE45_CORE, p, b, pade.scaling)


# --------------------------------------------------------------------------
# request / certificate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpmvRequest:
    """Everything needed to run the controlled-accuracy driver once.

    ``analysis`` carries the pencil's tau-independent enclosure (see
    ``bounds.analyze_pencil``), and with it the region mode and the seed it
    was enclosed with; the driver reuses it instead of enclosing again.
    Without one the driver encloses in mode "ii" with seed 0. An analysis
    of another M or K raises ValueError, and so does a non-finite ``b``; a
    ``b`` whose length is not the pencil's n raises DimensionMismatch.

    ``kappa_power``, ``n_per_side``, ``s_max`` and ``m_max`` are fixed, not
    arguments. They hold the driver's ``KAPPA_POWER``, its boundary sampling
    density ``DEFAULT_SAMPLES_PER_SIDE``, and the caps ``S_MAX`` on the Pade
    scaling and ``M_MAX`` on the AAA degree.
    """

    pencil: Pencil
    b: np.ndarray
    eps: float
    method: str = "sub-pade"  # one of rational.METHODS
    kappa_power: float = field(default=KAPPA_POWER, init=False)
    n_per_side: int = field(default=DEFAULT_SAMPLES_PER_SIDE, init=False)
    s_max: int = field(default=S_MAX, init=False)
    m_max: int = field(default=M_MAX, init=False)
    analysis: PencilAnalysis | None = None

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        b = np.asarray(self.b)
        if b.shape[0] != self.pencil.n:
            raise DimensionMismatch(f"vector of shape {b.shape} does not fit n={self.pencil.n}")
        if not np.all(np.isfinite(b)):
            raise ValueError("b contains NaN or Inf entries")
        if self.analysis is not None:
            self.analysis.check_fits(self.pencil)


@dataclass(frozen=True)
class ExpmvCertificate:
    """The a priori accuracy certificate attached to a driver result.

    ``approximant`` is the certified rational r that the driver applied to
    b; ``scalar_target``, ``achieved_bound``, ``degree`` and ``method`` are
    read from it. ``achieved_bound`` is the boundary-certified sup of
    |r - exp| on the rectangle; multiplying by (1 + sqrt(2)) *
    kappa_safe**kappa_power bounds ||r(A) - exp(A)||_2, which is at most eps
    by construction. None of these depends on b.
    """

    rectangle: BoundingRectangle
    kappa_safe: float
    approximant: CertifiedApproximant = field(hash=False)  # its arrays have no hash
    mode: str
    eps: float
    kappa_power: float = field(default=KAPPA_POWER, init=False)

    @property
    def scalar_target(self) -> float:
        return self.approximant.target

    @property
    def achieved_bound(self) -> float:
        return self.approximant.sup_error_estimate

    @property
    def degree(self) -> int:
        return self.approximant.degree

    @property
    def method(self) -> str:
        return self.approximant.method

    @property
    def operator_bound(self) -> float:
        """The certified two-norm bound on ||x - exp(A) b|| / ||b||.

        By construction it never exceeds ``eps``. Its kappa factor is
        certified, so it dominates the measured error whenever the rectangle
        and the sampled sup of |r - exp| are sound: the column for tables.
        """
        return CROUZEIX_CONSTANT * self.kappa_safe**self.kappa_power * self.achieved_bound

    def to_json(self) -> str:
        payload = {
            "schema": "expmrect/certificate-v2",
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


def _grown(rect: BoundingRectangle, growth: float) -> BoundingRectangle:
    """rect with its vertical sides moved outward by ``growth`` times its
    width, and its horizontal sides by ``growth`` times its height."""
    dmu, dnu = growth * (rect.mu_max - rect.mu_min), growth * 2.0 * rect.nu_max
    return BoundingRectangle(rect.mu_min - dmu, rect.mu_max + dmu,
                             rect.nu_min - dnu, rect.nu_max + dnu)


def _rat_interp(rect: BoundingRectangle, target: float) -> CertifiedApproximant:
    """The first partial fraction form certified below ``target`` on rect
    whose poles AAA placed on rect grown by one of ``POLE_GROWTHS``.

    Poles outside a grown rectangle lie outside rect, and every refit is
    certified on rect itself, so a growth changes which form is found, not
    what its certificate means. The first growth's failure is the one
    raised: a ``DegreeExhausted`` there ends the search, and the later
    growths only retry a ``RefitFailed``.
    """
    first = None
    for growth in POLE_GROWTHS:
        try:
            poles = aaa_poles(boundary_samples(_grown(rect, growth), AAA_SAMPLES_PER_SIDE),
                              target)
            return refit_partial_fractions(poles, boundary_samples(rect), target)
        except ToleranceUnreachable as exc:
            if first is None and not isinstance(exc, RefitFailed):
                raise
            first = first or exc
    raise first


def expmv_controlled(req: ExpmvRequest) -> tuple[np.ndarray, ExpmvCertificate]:
    """Compute x ~= exp(tau inv(M) K) b with ||x - exact|| <= eps * ||b||.

    Returns the vector and the certificate, which holds the approximant
    applied. Raises ``ScalingExhausted``, ``DegreeExhausted`` or
    ``RefitFailed``, with the partial certificate as ``context``, when the
    tolerance is honestly unreachable within the method's caps.
    """
    p = req.pencil
    analysis = req.analysis or analyze_pencil(p.M, p.K)
    rect = rectangle_from_extremes(analysis.extremes, p.tau)
    target = req.eps / (CROUZEIX_CONSTANT * analysis.kappa_safe**KAPPA_POWER)
    try:
        if req.method == "sub-pade":
            s = select_scaling(rect, target)
            approximant = CertifiedApproximant(
                form=PADE45_CORE,
                sup_error_estimate=sup_error_on_rectangle(pade45(scaling=s), rect),
                target=target,
                method="sub-pade",
                scaling=s,
            )
        else:
            approximant = _rat_interp(rect, target)
    except ToleranceUnreachable as exc:
        exc.context.update({"rectangle": rect.as_dict(), "kappa_safe": analysis.kappa_safe,
                            "scalar_target": target, "method": req.method,
                            "mode": analysis.mode, "eps": req.eps})
        raise
    x = apply_partial_fraction(approximant.form, p, np.asarray(req.b), approximant.scaling)
    return x, ExpmvCertificate(rect, analysis.kappa_safe, approximant, analysis.mode, req.eps)


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
