"""Greedy rational interpolation of exp on rectangle boundaries, plus the
extended-precision partial-fraction refit that turns its poles into a
certified approximant.

Pole placement uses the adaptive Antoulas-Anderson scheme (Nakatsukasa,
Sete and Trefethen, 2018): support points are chosen greedily at the worst
sample, barycentric weights come from the smallest singular vector of the
Loewner matrix, and the poles are the finite generalized eigenvalues of the
barycentric arrowhead pencil. The continuum problem on the rectangle
boundary is approached by refining the discrete sample set, doubling its
density until the selected degree stabilizes.

The rectangle is symmetric about the real axis and so is the best
approximant, as in the symmetric variant of the scheme: the sample set is
closed under conjugation and support points come in conjugate pairs. The
greedy fit solves that conjugate-symmetric problem exactly, in real
arithmetic on the samples with Im z >= 0: a pair's weights a +- ib are two
real unknowns (a real support point has one), a sample off the axis stands
for itself and its conjugate and so weighs sqrt(2) in the least squares,
and the weights are the smallest right singular vector of the real matrix
[Re B; Im B] of the Loewner columns, conjugate by construction. The poles
are the eigenvalues of a real arrowhead pencil, in which each conjugate
support pair is one real 2x2 block, so they too are an exactly closed set,
with no pairing by tolerance. The barycentric coefficients themselves are
discarded: the final weights are re-fitted by real least squares on the
conjugate-symmetric basis {1} + {1/(p - z)} (real p) +
{1/(p - z) + 1/(conj p - z)} and {i/(p - z) - i/(conj p - z)} (pairs),
with the residual accumulated in double-double arithmetic so the
ill-conditioning of the basis does not silently eat the last digits. The refit is certified a posteriori by
boundary sampling, and an approximant that cannot be certified below its
target is rejected rather than returned optimistically.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import DegreeExhausted, PoleEvaluation, PoleInsideRegion, RefitFailed
from .rational import (
    CertifiedApproximant,
    PartialFractionRational,
    RegionBoundary,
    boundary_samples,
    classify_conjugate_poles,
    sup_error_on_rectangle,
)

__all__ = ["aaa_poles", "refit_partial_fractions"]

FROISSART_RTOL = 1e-13
M_MAX = 128  # degree cap of the greedy fit
MAX_DOUBLINGS = 4  # boundary-density doublings while the AAA degree settles
MAX_REFINEMENTS = 4  # double-double refinement steps of the least-squares refit
_SQRT_HALF = np.sqrt(0.5)


# --------------------------------------------------------------------------
# double-double helpers (error-free transformations)
# --------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant for float64


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dd_residual(A: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - A @ x for real A and x, with products and sums carried in
    double-double: hi + lo holds the running value."""
    hi = np.array(rhs, dtype=float)
    lo = np.zeros_like(hi)
    for k in range(A.shape[1]):
        p, pe = _two_prod(A[:, k], -float(x[k]))
        hi, e = _two_sum(hi, p)
        lo = lo + (e + pe)
    return hi + lo


# --------------------------------------------------------------------------
# greedy barycentric interpolation
# --------------------------------------------------------------------------

def _barycentric_poles(support: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Finite generalized eigenvalues of the barycentric arrowhead pencil, the
    zeros of sum_k w_k / (z - support_k), as an exactly conjugate-closed set.

    The pencil is real. A real support point keeps its row of the arrowhead;
    a conjugate pair (s, conj s), whose upper member sits just before its
    conjugate in ``support``, becomes the block [[Re s, Im s], [-Im s, Re s]]
    with row entries (2 Re w, 2 Im w) and column entries (1, 0), which has
    the same resolvent term w / (z - s) + conj w / (z - conj s). Real QZ
    returns a pair's two members with different scalings, so each member
    with Im > 0 is emitted with its exact conjugate and the other discarded;
    the two infinite eigenvalues are dropped.
    """
    m = support.size
    E = np.zeros((m + 1, m + 1))
    row, col, D = E[0, 1:], E[1:, 0], E[1:, 1:]  # views of the arrowhead's parts
    row[:] = w.real
    col[:] = 1.0
    np.fill_diagonal(D, support.real)
    k = np.flatnonzero(support.imag > 0.0)  # upper members; k + 1 holds the conjugate
    row[k], row[k + 1] = 2.0 * w[k].real, 2.0 * w[k].imag
    col[k + 1] = 0.0
    D[k, k + 1], D[k + 1, k] = support[k].imag, -support[k].imag
    B = np.eye(m + 1)
    B[0, 0] = 0.0
    eigs = sla.eigvals(E, B)
    eigs = eigs[np.isfinite(eigs) & (eigs.imag >= 0.0)]
    return np.concatenate([eigs, np.conj(eigs[eigs.imag > 0.0])])


def _conjugate_permutation(points: np.ndarray) -> np.ndarray:
    """Index map sending each point to its exact conjugate; ValueError if
    some conjugate is missing from the set. A repeated point stands for its
    last occurrence: a stable sort (in which -0.0 and 0.0 tie) puts that one
    last among its equals, and a binary search finds each conjugate there."""
    order = np.argsort(points, kind="stable")
    ranked = points[order]
    last = np.ones(points.size, dtype=bool)
    last[:-1] = ranked[1:] != ranked[:-1]
    distinct, index = ranked[last], order[last]
    conj = np.conj(points)
    pos = np.minimum(np.searchsorted(distinct, conj), distinct.size - 1)
    missing = distinct[pos] != conj
    if missing.any():
        p = points[np.argmax(missing)]
        raise ValueError(f"sample {p} has no exact conjugate in the sample set")
    return index[pos]


def _support_columns(z, f, s, fs):
    """Loewner and Cauchy columns of the support point s (f(s) = fs) over the
    samples z.

    A real s has one real weight a; a point s off the axis brings in conj s,
    with weights a + ib and a - ib. The Loewner columns, one per real
    unknown, are then the sum and i times the difference of the two points'
    columns, scaled by 1/sqrt(2) so that the unknowns have the norm of the
    weights (``_weights``). The Cauchy columns 1/(z - s), one per support
    point, evaluate the barycentric form. Both are (k, z.size) arrays.
    """
    if s.imag == 0.0:
        return ((f - fs) / (z - s))[None], (1.0 / (z - s))[None]
    sc, fc = np.conj(s), np.conj(fs)
    l1, l2 = (f - fs) / (z - s), (f - fc) / (z - sc)
    return _SQRT_HALF * np.stack([l1 + l2, 1j * (l1 - l2)]), 1.0 / np.stack([z - s, z - sc])


def _weights(v: np.ndarray, pairs: list[int]) -> np.ndarray:
    """Barycentric weights from the real unknowns: a real support point's
    weight is its unknown, and a pair (a, b) at positions (k, k + 1) gives
    (a + ib) / sqrt(2) and its exact conjugate."""
    p = np.array(pairs, dtype=int)
    w = v.astype(complex)
    w[p] = _SQRT_HALF * v[p] + 1j * (_SQRT_HALF * v[p + 1])
    w[p + 1] = np.conj(w[p])
    return w


def _aaa_on_samples(Z: np.ndarray, F: np.ndarray, tol: float, max_poles: int, rect):
    """Greedy fit on a fixed sample set of the rectangle ``rect``, which must
    be exactly closed under conjugation (ValueError otherwise), with
    F = exp(Z).

    Returns (poles, support, fsupp, weights). The number of poles
    is one less than the number of support points. Raises ``DegreeExhausted``
    when the cap is hit, or every sample has become a support point, with the
    sample error still above ``tol``. Raises ValueError naming ``rect`` when
    the Loewner matrix or the barycentric evaluation is not finite, as on a
    side so short that sample differences underflow.

    The problem is solved exactly in its conjugate-symmetric form, in real
    arithmetic on the samples with Im z >= 0. Support points come in
    conjugate pairs (a real one alone) and their weights are conjugate, so
    the error at conj z is the conjugate of the error at z: a sample off the
    axis stands for itself and its conjugate, with row weight sqrt(2). Each
    support point adds the columns of ``_support_columns``, computed once and
    kept across steps in arrays that grow by doubling. The real unknowns are
    the smallest right singular vector of [Re B; Im B], B the row-weighted
    Loewner columns, and numerator and denominator are one matrix-vector
    product each with the Cauchy columns.
    """
    n = Z.size
    _conjugate_permutation(Z)  # ValueError unless closed under conjugation
    err = float(np.max(np.abs(F - np.mean(F))))
    if err <= tol:
        empty = np.empty(0, dtype=complex)
        return empty, empty, empty, empty
    upper = Z.imag >= 0.0
    z, f = Z[upper], F[upper]
    nz = z.size
    row_weight = np.where(z.imag > 0.0, np.sqrt(2.0), 1.0)
    mask = np.ones(nz, dtype=bool)  # candidate (non-support) samples
    R = np.full(nz, np.mean(F), dtype=complex)
    support: list[complex] = []
    fsupp: list[complex] = []
    pairs: list[int] = []  # position of each pair's upper member in support
    cap = 8  # stored columns: rows of the arrays below, doubled as needed
    A = np.empty((cap, 2 * nz))  # [Re B; Im B], one row per real unknown
    cauchy = np.empty((cap, nz), dtype=complex)  # one row per support point
    while True:
        j = int(np.argmax(np.where(mask, np.abs(f - R), -np.inf)))
        s, fs = z[j], f[j]
        k = len(support)
        support.append(s)
        fsupp.append(fs)
        if s.imag != 0.0:
            pairs.append(k)
            support.append(np.conj(s))
            fsupp.append(np.conj(fs))
        mask[j] = False
        if not mask.any():
            break
        A[:k, [j, nz + j]] = 0.0
        cauchy[:k, j] = 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            loewner, c = _support_columns(z, f, s, fs)
        loewner[:, ~mask] = c[:, ~mask] = 0.0
        if not np.isfinite(loewner).all():
            raise ValueError(f"AAA Loewner matrix is not finite on {rect}")
        m = len(support)
        if m > cap:
            cap *= 2
            A, cauchy = (
                np.concatenate([a[:k], np.empty((cap - k, a.shape[1]), a.dtype)])
                for a in (A, cauchy)
            )
        A[k:m, :nz] = row_weight * loewner.real
        A[k:m, nz:] = row_weight * loewner.imag
        cauchy[k:m] = c
        _, _, Vh = np.linalg.svd(np.linalg.qr(A[:m].T, mode="r"))
        w = _weights(Vh[-1], pairs)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            num = (w * np.array(fsupp)) @ cauchy[:m]
            den = w @ cauchy[:m]
            R = np.where(mask, num / den, f)
        if not (np.isfinite(den[mask]).all() and np.isfinite(R).all()):
            raise ValueError(f"AAA barycentric evaluation is not finite on {rect}")
        err = float(np.max(np.abs(f[mask] - R[mask]), initial=0.0))
        if err <= tol or m > max_poles:
            break
    if err > tol:
        reached = (
            f"used up all {n} samples at {len(support) - 1} poles"
            if not mask.any()
            else f"reached {max_poles} poles"
        )
        raise DegreeExhausted(
            f"greedy interpolation {reached} with sample error {err:.3e} > {tol:.3e}",
            context={"max_poles": int(max_poles), "sample_error": err},
        )
    support, fsupp = np.array(support), np.array(fsupp)
    return _barycentric_poles(support, w), support, fsupp, w


def _filter_poles(poles, support, w, fsupp, rect, fscale):
    """Drop spurious poles from a conjugate-closed set: anything inside the
    rectangle, and Froissart doublets whose barycentric residue is
    negligible. A pair is kept or dropped as one, so the set stays closed.

    A pole equal to a support point lies on the rectangle's boundary and has
    no finite residue, so it is dropped before the residues are evaluated.
    Raises ValueError naming ``rect`` when the residues of the others cannot
    be evaluated in floating point, as when a pole lies so close to a
    support point that the squared distance underflows.
    """
    poles = poles[~np.isin(poles, support)]
    keep = ~rect.contains(poles)
    diff = poles[:, None] - support[None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num = (w * fsupp / diff).sum(axis=1)
        dden = -(w / diff**2).sum(axis=1)
        residues = np.abs(num / dden)
    if not (np.isfinite(num).all() and np.isfinite(dden).all()):
        raise ValueError(f"AAA barycentric evaluation at the poles is not finite on {rect}")
    keep &= ~(residues < FROISSART_RTOL * fscale)
    return poles[keep & keep[_conjugate_permutation(poles)]]


def aaa_poles(
    boundary: RegionBoundary,
    target: float,
    m_max: int = M_MAX,
) -> np.ndarray:
    """Pole set for a rational approximant of exp on the boundary's rectangle.

    Runs the greedy barycentric fit with stopping tolerance ``target / 2``
    (the headroom is spent later by the refit) on the boundary's samples,
    then resamples the rectangle at doubled density, at most
    ``MAX_DOUBLINGS`` times, until the selected denominator degree
    stabilizes between consecutive densities.
    The poles come from a real pencil and so form an exactly conjugate-closed
    set; spurious ones are filtered in pairs, and the rest are returned
    sorted by real part, then imaginary part.
    """
    if target <= 0.0:
        raise ValueError("target must be positive")
    rect = boundary.rectangle
    tol = 0.5 * target
    prev_degree = None
    poles = np.empty(0, dtype=complex)
    b = boundary
    for _ in range(MAX_DOUBLINGS + 1):
        Z = b.samples
        F = np.exp(Z)
        raw, support, fsupp, w = _aaa_on_samples(Z, F, tol, m_max, rect)
        fscale = float(np.max(np.abs(F)))
        poles = _filter_poles(raw, support, w, fsupp, rect, fscale)
        if prev_degree is not None and poles.size == prev_degree:
            break
        prev_degree = poles.size
        b = boundary_samples(rect, 2 * b.n_per_side)
    return poles[np.lexsort((poles.imag, poles.real))]


# --------------------------------------------------------------------------
# least-squares refit with extended-precision residual
# --------------------------------------------------------------------------

def _solve_refined(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Real minimum-norm least squares through a column-equilibrated SVD,
    then iterative refinement with the residual carried in double-double;
    the iterate with the smallest max-abs residual wins."""
    col_scale = np.linalg.norm(A, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    As = A / col_scale
    U, sv, Vh = np.linalg.svd(As, full_matrices=False)
    rank_cut = sv > sv[0] * max(A.shape) * np.finfo(float).eps
    Uk = U[:, rank_cut]
    svk = sv[rank_cut]
    Vk = Vh[rank_cut].T

    def ls_apply(r):
        return (Vk @ ((Uk.T @ r) / svk)) / col_scale

    x = ls_apply(rhs)
    best_x = x
    best_err = float(np.max(np.abs(A @ x - rhs)))
    for _ in range(MAX_REFINEMENTS):
        r = _dd_residual(A, x, rhs)
        x = x + ls_apply(r)
        err = float(np.max(np.abs(A @ x - rhs)))
        if err < best_err:
            best_err, best_x = err, x
        else:
            break
    return best_x


def _symmetric_ls_columns(poles: np.ndarray, real_idx, pairs, z: np.ndarray):
    """Complex columns whose span over REAL coefficients is exactly the
    conjugate-symmetric partial fractions: constant, one column per real
    pole, and per conjugate pair the symmetric and antisymmetric combinations
    (so the pair weight u + iv is recovered from two real unknowns)."""
    cols = [np.ones(z.size, dtype=complex)] + [1.0 / (poles[i] - z) for i in real_idx]
    for i, j in pairs:
        a = 1.0 / (poles[i] - z)
        b = 1.0 / (poles[j] - z)
        cols += [a + b, 1j * (a - b)]
    return np.column_stack(cols)


def _weights_from_real_solution(t: np.ndarray, n_poles: int, real_idx, pairs):
    """gamma and the weights from the real unknowns of the symmetric basis."""
    weights = np.zeros(n_poles, dtype=complex)
    weights[real_idx] = t[1:1 + len(real_idx)]
    u, v = t[1 + len(real_idx)::2], t[2 + len(real_idx)::2]
    upper, lower = np.array(pairs, dtype=int).reshape(-1, 2).T
    weights[upper] = u + 1j * v
    weights[lower] = u - 1j * v
    return float(t[0]), weights


def refit_partial_fractions(
    poles: np.ndarray,
    boundary: RegionBoundary,
    target: float,
) -> CertifiedApproximant:
    """Least-squares weights for fixed poles, certified on the rectangle.

    Fits gamma + sum_k w_k / (poles[k] - z) to exp(z) over the boundary
    samples. The pole set must be exactly closed under conjugation
    (ValueError otherwise, from ``classify_conjugate_poles``), and the
    unknowns are real: gamma, one weight per real pole, and the real and
    imaginary parts of one weight per conjugate pair, so the fitted form is
    exactly conjugate-symmetric by construction. The normal-equation-free
    solve of the stacked real and imaginary equations goes through an SVD
    with column equilibration; iterative refinement with the residual
    accumulated in double-double arithmetic recovers the digits the
    ill-conditioned basis loses. The result is certified by re-sampling the
    boundary at twice the density; if the certified sup error exceeds
    ``target``, or a pole lies so near a boundary sample that the form
    cannot be evaluated there (``PoleEvaluation``), the fit is rejected with
    ``RefitFailed``.
    """
    poles = np.asarray(poles, dtype=complex)
    rect = boundary.rectangle
    if np.any(rect.contains(poles)):
        raise PoleInsideRegion("a candidate pole lies inside or on the rectangle")
    z = boundary.samples
    if z.size < 2 * (poles.size + 1):
        raise ValueError(
            f"{z.size} samples cannot determine {poles.size + 1} coefficients safely"
        )
    rhs = np.exp(z)
    real_idx, pairs = classify_conjugate_poles(poles)
    C = _symmetric_ls_columns(poles, real_idx, pairs, z)
    t = _solve_refined(np.vstack([C.real, C.imag]), np.concatenate([rhs.real, rhs.imag]))
    gamma, weights = _weights_from_real_solution(t, poles.size, real_idx, pairs)
    pf = PartialFractionRational(gamma=gamma, poles=poles, weights=weights)
    context = {"target": float(target), "degree": int(poles.size)}
    try:
        achieved = sup_error_on_rectangle(pf, rect, n_per_side=2 * boundary.n_per_side)
    except PoleEvaluation as exc:
        # a pole outside the rectangle, but within rounding of a boundary sample
        raise RefitFailed(f"the refitted form cannot be certified: {exc}",
                          context=context) from exc
    if achieved > target:
        raise RefitFailed(
            f"certified sup error {achieved:.3e} exceeds target {target:.3e}",
            context={"achieved": achieved, **context},
        )
    return CertifiedApproximant(
        form=pf,
        sup_error_estimate=achieved,
        target=float(target),
        method="rat-interp",
    )
