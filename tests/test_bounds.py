"""Pencil rectangles, generalized extreme eigenvalues, condition estimates.

Dense eigendecompositions computed directly in the tests serve as oracles
for the module's one eigensolver path, ARPACK.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from expmrect import bounds, expmv, fem
from expmrect.bounds import (
    BoundingRectangle,
    CondEstimate,
    Pencil,
    analyze_pencil,
    bounding_rectangle,
    cond_estimate,
    is_lhp_certified,
    raw_extremes,
    rectangle_from_extremes,
    split,
)
from expmrect.errors import DimensionMismatch, NoConvergence, NotSPD, NotSymmetric

from conftest import random_nonsym_sparse, random_spd_sparse


# --------------------------------------------------------------------------
# symmetric/skew splitting
# --------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_split_reassembles_exactly(n, seed):
    rng = np.random.default_rng(seed)
    K = sp.csr_array(rng.standard_normal((n, n)))
    parts = split(K)
    D, S = parts.D.toarray(), parts.S.toarray()
    assert np.array_equal(D, D.T)
    assert np.array_equal(S, -S.T)
    # D + S reproduces K up to one rounding of each entry's halving
    assert np.allclose(D + S, K.toarray(), rtol=0.0, atol=2 * np.finfo(float).eps)


# --------------------------------------------------------------------------
# generalized extreme eigenvalues
# --------------------------------------------------------------------------

def _dense_pencil_extremes(B, M):
    L = np.linalg.cholesky(M.toarray())
    T = np.linalg.solve(L, np.linalg.solve(L, B.toarray()).T).T
    w = np.linalg.eigvalsh(0.5 * (T + T.T))
    return float(w[0]), float(w[-1])


def _dense_skew_max(S, M):
    L = np.linalg.cholesky(M.toarray())
    C = np.linalg.solve(L, np.linalg.solve(L, S.toarray()).T).T / 1j
    w = np.linalg.eigvalsh(0.5 * (C + C.conj().T))
    return float(w[-1])


def test_sym_pencil_dense_matches_oracle(random_pencil_60):
    p = random_pencil_60
    lo, hi = _dense_pencil_extremes(split(p.K).D, p.M)
    ext = raw_extremes(p.M, p.K)
    assert math.isclose(ext.mu_min, lo, rel_tol=1e-12)
    assert math.isclose(ext.mu_max, hi, rel_tol=1e-12)


@pytest.mark.parametrize("which,tol,agree", [("min", 1e-3, 1e-3), ("max", 1e-3, 1e-3),
                                             ("min", 1e-6, 1e-6), ("max", 1e-6, 1e-6)])
def test_sym_pencil_iterative_agrees_with_dense(which, tol, agree):
    rng = np.random.default_rng(3)
    M = random_spd_sparse(150, rng)
    D = split(random_nonsym_sparse(150, rng)).D
    dense = _dense_pencil_extremes(D, M)[0 if which == "min" else 1]
    iterative, resid = bounds._sym_extreme(D, M, bounds._mass_solve(M), which, tol, 0)
    assert resid <= tol
    assert abs(iterative - dense) <= agree * abs(dense)


def test_skew_pencil_dense_matches_oracle(random_pencil_60):
    p = random_pencil_60
    want = _dense_skew_max(split(p.K).S, p.M)
    got = raw_extremes(p.M, p.K).nu_max
    assert math.isclose(got, want, rel_tol=1e-11)


def test_skew_pencil_iterative_agrees_with_dense():
    rng = np.random.default_rng(11)
    M = random_spd_sparse(150, rng)
    S = split(random_nonsym_sparse(150, rng)).S
    dense = _dense_skew_max(S, M)
    iterative, resid = bounds._skew_extreme(S, M, bounds._mass_solve(M), 1e-3, 0)
    assert resid <= 1e-3
    assert abs(iterative - dense) <= 1e-3 * abs(dense)


def test_shift_invert_needs_negative_definite_symmetric_part(square_sys_8):
    # shifting K by c M with c > |mu_max| gives D positive eigenvalues, so
    # the maximum must come from regular mode, not from the eigenvalue
    # nearest 0 that shift-invert about 0 would find
    s = square_sys_8
    c = 2.0 * abs(_dense_pencil_extremes(split(s.K).D, s.M)[1])
    for K in (s.K, s.K + c * s.M):
        lo, hi = _dense_pencil_extremes(split(K).D, s.M)
        iterative = raw_extremes(s.M, K)
        assert (lo < 0.0 < hi) == (K is not s.K)
        for got, want in ((iterative.mu_min, lo), (iterative.mu_max, hi)):
            assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.parametrize("d", [1e-1, 1e-3])
@pytest.mark.parametrize("domain", ["square", "star"])
def test_iterative_enclosure_agrees_with_dense_on_reference_systems(domain, d):
    # square/32 and star/4, the reference systems
    mesh = fem.mesh_square(32) if domain == "square" else fem.mesh_star(refine=4)
    s = fem.assemble_p1(mesh, d=d, domain=domain)
    parts = split(s.K)
    dense = (*_dense_pencil_extremes(parts.D, s.M), _dense_skew_max(parts.S, s.M))
    w = np.linalg.eigvalsh(s.M.toarray())
    ext = raw_extremes(s.M, s.K)
    for got, want in zip((ext.mu_min, ext.mu_max, ext.nu_max), dense):
        assert math.isclose(got, want, rel_tol=1e-10)
    assert math.isclose(cond_estimate(s.M).kappa_tilde, w[-1] / w[0], rel_tol=1e-10)


def _no_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.array([]), None)


def _arpack_error(*args, **kwargs):
    raise spla.ArpackError(-9999)


@pytest.mark.parametrize("fail", [_no_convergence, _arpack_error])
def test_arpack_failure_raises_no_convergence(fail, square_sys_8, monkeypatch):
    s = square_sys_8
    M_solve = bounds._mass_solve(s.M)
    monkeypatch.setattr(spla, "eigsh", fail)
    with pytest.raises(NoConvergence, match=r"minimum of a symmetric pencil \(n=49\)"):
        bounds._sym_extreme(split(s.K).D, s.M, M_solve, "min", 1e-3, 0)
    with pytest.raises(NoConvergence, match=r"skew pencil \(n=49\)"):
        bounds._skew_extreme(split(s.K).S, s.M, M_solve, 1e-3, 0)
    with pytest.raises(NoConvergence, match="n=49"):
        raw_extremes(s.M, s.K)
    with pytest.raises(NoConvergence, match="n=49"):
        cond_estimate(s.M)


def test_iterative_enclosure_meets_a_tolerance_below_arpack_tol(square_sys_8):
    # ARPACK's own tolerance tightens to the caller's residual tolerance
    s = square_sys_8
    parts = split(s.K)
    dense = (*_dense_pencil_extremes(parts.D, s.M), _dense_skew_max(parts.S, s.M))
    tol = 1e-3 * bounds.ARPACK_TOL
    ext = raw_extremes(s.M, s.K, rel_resid_tol=tol)
    for got, want in zip((ext.mu_min, ext.mu_max, ext.nu_max), dense):
        assert math.isclose(got, want, rel_tol=1e-10)
    assert cond_estimate(s.M, rel_resid_tol=tol).kappa_tilde > 1.0


def test_iterative_residual_above_tolerance_raises_no_convergence(square_sys_8, monkeypatch):
    # ARPACK's pair is accepted only if its relative residual meets the
    # tolerance; a Ritz value 1% off leaves a residual far above 1e-3
    eigsh = spla.eigsh

    def off_by_one_percent(*args, **kwargs):
        w, X = eigsh(*args, **kwargs)
        return 1.01 * w, X

    monkeypatch.setattr(spla, "eigsh", off_by_one_percent)
    with pytest.raises(NoConvergence, match="minimum of a symmetric pencil: residual"):
        raw_extremes(square_sys_8.M, square_sys_8.K, rel_resid_tol=1e-3)


def _raising(*args, **kwargs):
    raise AssertionError("the enclosure must not call a dense eigensolver")


@pytest.mark.parametrize("domain", ["square", "star"])
def test_dense_raw_extremes_computes_no_eigenvectors(domain, monkeypatch):
    # square/8 and star/1: desk-scale pencils take ARPACK too
    mesh = fem.mesh_square(8) if domain == "square" else fem.mesh_star(refine=1)
    s = fem.assemble_p1(mesh, d=0.1, domain=domain)
    parts = split(s.K)
    lo, hi = _dense_pencil_extremes(parts.D, s.M)
    nu = _dense_skew_max(parts.S, s.M)
    monkeypatch.setattr(np.linalg, "eigh", _raising)
    monkeypatch.setattr(sla, "eigh", _raising)
    ext = raw_extremes(s.M, s.K)
    for got, want in ((ext.mu_min, lo), (ext.mu_max, hi), (ext.nu_max, nu)):
        assert math.isclose(got, want, rel_tol=1e-13)


def test_dense_raw_extremes_of_symmetric_k_has_zero_height(square_sys_8):
    K = split(square_sys_8.K).D
    assert split(K).S.nnz == 0
    assert raw_extremes(square_sys_8.M, K).nu_max == 0.0


# --------------------------------------------------------------------------
# rectangles
# --------------------------------------------------------------------------

def test_rectangle_validation_and_accessors():
    with pytest.raises(ValueError):
        BoundingRectangle(mu_min=0.0, mu_max=-1.0, nu_min=0.0, nu_max=0.0)
    r = BoundingRectangle(mu_min=-2.0, mu_max=-1.0, nu_min=-3.0, nu_max=3.0)
    assert r.contains(-1.5 + 2.9j)
    assert not r.contains(-0.99)
    # closed and elementwise: edges and corners count as inside
    z = np.array([-2.0 - 3.0j, -1.0 + 0.0j, -1.5 + 3.0001j, -2.0001 + 0.0j])
    assert r.contains(z).tolist() == [True, True, False, False]


def test_rectangle_rejects_asymmetry_about_the_real_axis():
    # real M and K give a conjugate-symmetric numerical range; every later
    # stage relies on the rectangle sharing that symmetry
    with pytest.raises(ValueError, match="not symmetric about the real axis"):
        BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-0.2, nu_max=0.5)
    assert BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-0.0, nu_max=0.0).nu_max == 0.0


def test_raw_extremes_rejects_size_mismatch(random_pencil_60):
    with pytest.raises(DimensionMismatch):
        raw_extremes(sp.eye_array(3).tocsr(), random_pencil_60.K)


def test_enclosure_needs_two_unknowns():
    # eigsh needs k < n, so a 1 x 1 pencil fails cleanly, naming n
    one = sp.csr_array(np.array([[2.0]]))
    with pytest.raises(ValueError, match=r"at least 2 unknowns, got n=1"):
        raw_extremes(one, -one)
    with pytest.raises(ValueError, match=r"at least 2 unknowns, got n=1"):
        cond_estimate(one)


def test_indefinite_mass_raises_not_spd(square_sys_8):
    # M shifted so that its smallest eigenvalue is -4e-4: its diagonal stays
    # positive, so the pivot signs of the factorization must catch it
    s = square_sys_8
    lowest = np.linalg.eigvalsh(s.M.toarray())[0]
    M = sp.csr_array(s.M - (lowest + 4e-4) * sp.eye_array(s.n))
    assert math.isclose(np.linalg.eigvalsh(M.toarray())[0], -4e-4, rel_tol=1e-9)
    assert np.all(M.diagonal() > 0.0)
    with pytest.raises(NotSPD):
        raw_extremes(M, s.K)
    with pytest.raises(NotSPD):
        analyze_pencil(M, s.K)
    req = expmv.ExpmvRequest(pencil=Pencil(s.mesh.h_bar, M, s.K), b=s.b0, eps=1e-6)
    with pytest.raises(NotSPD):
        expmv.expmv_controlled(req)


def test_rectangle_tau_linearity_without_inflation(square_sys_8):
    # the endpoints are the unit-step extremes times tau, widened by
    # max(rel * |endpoint|, 1e-12); here every rel * |endpoint| exceeds the floor
    s = square_sys_8
    ext = raw_extremes(s.M, s.K)
    rel = 2e-3
    for tau in (1.0, 3.0):
        r = rectangle_from_extremes(ext, tau)
        assert r.mu_min == tau * ext.mu_min - rel * abs(tau * ext.mu_min)
        assert r.mu_max == tau * ext.mu_max + rel * abs(tau * ext.mu_max)
        assert r.nu_max == tau * ext.nu_max + rel * abs(tau * ext.nu_max)
        assert r.nu_min == -r.nu_max


def test_rectangle_inflation_widens_every_endpoint(square_pencil_8):
    p = square_pencil_8
    ext = raw_extremes(p.M, p.K)
    wide = bounding_rectangle(p)
    assert wide.mu_min < p.tau * ext.mu_min <= p.tau * ext.mu_max < wide.mu_max
    assert wide.nu_max > p.tau * ext.nu_max
    assert wide.inflation == 2e-3


def test_rectangle_contains_dense_spectrum(square_pencil_8):
    p = square_pencil_8
    rect = bounding_rectangle(p)
    A = p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())
    for lam in np.linalg.eigvals(A):
        assert rect.contains(complex(lam))


def test_rectangle_contains_transformed_rayleigh_quotients(square_pencil_8):
    p = square_pencil_8
    rect = bounding_rectangle(p)
    L = np.linalg.cholesky(p.M.toarray())
    A_hat = p.tau * np.linalg.solve(L, np.linalg.solve(L, p.K.toarray()).T).T
    rng = np.random.default_rng(0)
    n = A_hat.shape[0]
    Z = rng.standard_normal((n, 200)) + 1j * rng.standard_normal((n, 200))
    quot = np.einsum("ij,ij->j", Z.conj(), A_hat @ Z) / np.einsum("ij,ij->j", Z.conj(), Z)
    for q in quot:
        assert rect.contains(complex(q))


def test_advection_diffusion_rectangle_is_lhp(square_pencil_8):
    rect = bounding_rectangle(square_pencil_8)
    assert is_lhp_certified(rect)
    assert not is_lhp_certified(
        BoundingRectangle(mu_min=-1.0, mu_max=0.1, nu_min=0.0, nu_max=0.0)
    )


def _dense_plain_range_edges(p):
    A = p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    nu = np.linalg.svd(0.5 * (A - A.T), compute_uv=False)[0]
    return float(w[0]), float(w[-1]), float(nu)


@pytest.mark.parametrize("domain, size, d, tau_factor", [
    *[("square", 16, d, tf) for d in (1e-1, 1e-3) for tf in (1.0, 10.0)],
    ("star", 2, 1e-1, 1.0),
    ("star", 2, 1e-3, 10.0),
])
def test_plain_range_rectangle_matches_dense_range_of_a(domain, size, d, tau_factor):
    # mode "i" encloses W(tau inv(M) K) through the pencil (K M, M M); its
    # edges before inflation are those of A's symmetric and skew parts, and
    # W(A) reaches into the right half plane on the advective pencils
    mesh = fem.mesh_square(size) if domain == "square" else fem.mesh_star(refine=size)
    s = fem.assemble_p1(mesh, d=d, domain=domain)
    p = Pencil(tau_factor * mesh.h_bar, s.M, s.K)
    analysis = analyze_pencil(p.M, p.K, mode="i")
    ext = analysis.extremes
    got = [p.tau * e for e in (ext.mu_min, ext.mu_max, ext.nu_max)]
    for g, want in zip(got, _dense_plain_range_edges(p)):
        assert math.isclose(g, want, rel_tol=1e-10)
    assert (got[1] > 0.0) == (d == 1e-3)
    assert ext == raw_extremes(p.M @ p.M, p.K @ p.M)
    assert analysis.cond is None and analysis.kappa_safe == 1.0


# --------------------------------------------------------------------------
# condition estimate
# --------------------------------------------------------------------------

def test_cond_estimate_dense_matches_eigvalsh(square_sys_8):
    # ARPACK's estimate against the dense eigenvalues of M
    M = square_sys_8.M
    w = np.linalg.eigvalsh(M.toarray())
    est = cond_estimate(M)
    assert math.isclose(est.kappa_tilde, w[-1] / w[0], rel_tol=1e-12)
    assert est.kappa_safe == est.kappa_tilde / (1.0 - est.delta)


def test_cond_estimate_iterative_margin(square_sys_8):
    est = cond_estimate(square_sys_8.M)
    assert est.delta == bounds.COND_DELTA == 0.05
    assert est.kappa_safe == est.kappa_tilde / 0.95


def test_cond_estimate_rejects_indefinite():
    bad = sp.csr_array(sp.diags_array([1.0, -1.0, 2.0]))
    with pytest.raises(NotSPD):
        cond_estimate(bad)


def test_cond_estimate_validation():
    with pytest.raises(ValueError):
        CondEstimate(kappa_tilde=0.5, delta=0.0, kappa_safe=0.5)
    with pytest.raises(ValueError):
        CondEstimate(kappa_tilde=2.0, delta=0.0, kappa_safe=1.5)


# --------------------------------------------------------------------------
# pencil container
# --------------------------------------------------------------------------

def test_pencil_validation(square_sys_8):
    M, K = square_sys_8.M, square_sys_8.K
    with pytest.raises(ValueError):
        Pencil(0.0, M, K)
    with pytest.raises(NotSymmetric):
        Pencil(1.0, sp.csr_array(K), K)  # K is not symmetric
    with pytest.raises(DimensionMismatch):
        Pencil(1.0, M, sp.eye_array(3).tocsr())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("operand", ["M", "K"])
def test_pencil_rejects_non_finite_entries(square_sys_8, operand, bad):
    # NaN or Inf would otherwise surface as a misleading NotSPD or
    # NoConvergence from the enclosure
    mats = {"M": square_sys_8.M.copy(), "K": square_sys_8.K.copy()}
    mats[operand].data[3] = bad
    with pytest.raises(ValueError, match=f"^{operand} contains NaN or Inf entries$"):
        Pencil(1.0, mats["M"], mats["K"])


@pytest.mark.parametrize("operand", ["M", "K"])
def test_pencil_rejects_complex_operands(square_sys_8, operand):
    # a complex K used to fail much later, as NoConvergence in the enclosure
    mats = {"M": square_sys_8.M, "K": square_sys_8.K}
    mats[operand] = mats[operand] * (1.0 + 0.5j)
    with pytest.raises(ValueError, match=f"^{operand} is complex; the pencil must be real$"):
        Pencil(1.0, mats["M"], mats["K"])


def _with_nan(A):
    A = A.copy()
    A.data[3] = np.nan
    return A


@pytest.mark.parametrize("entry", [
    lambda s: raw_extremes(s.M, _with_nan(s.K)),  # was NoConvergence (ARPACK -9999)
    lambda s: raw_extremes(_with_nan(s.M), s.K),
    lambda s: cond_estimate(_with_nan(s.M)),  # was NoConvergence
    lambda s: analyze_pencil(s.M, _with_nan(s.K)),
    lambda s: analyze_pencil(_with_nan(s.M), s.K),  # was NotSPD
], ids=["raw_extremes-K", "raw_extremes-M", "cond_estimate-M", "analyze_pencil-K",
        "analyze_pencil-M"])
def test_enclosure_entry_points_reject_non_finite_entries(square_sys_8, entry):
    with pytest.raises(ValueError, match=r"^[MK] contains NaN or Inf entries$"):
        entry(square_sys_8)


@pytest.mark.parametrize("settings, message", [
    ({"rel_resid_tol": 0.0}, "rel_resid_tol must lie in"),  # was NoConvergence
    ({"rel_resid_tol": -1e-3}, "rel_resid_tol must lie in"),
    ({"rel_resid_tol": np.nan}, "rel_resid_tol must lie in"),
    ({"rel_resid_tol": 1.0}, "rel_resid_tol must lie in"),
    ({"mode": "iii"}, "unknown mode"),
], ids=["tol-zero", "tol-negative", "tol-nan", "tol-one", "mode"])
def test_analyze_pencil_rejects_bad_settings(square_sys_8, monkeypatch, settings, message):
    # refused before any solver runs
    monkeypatch.setattr(bounds, "raw_extremes", None)
    monkeypatch.setattr(bounds, "cond_estimate", None)
    with pytest.raises(ValueError, match=message):
        analyze_pencil(square_sys_8.M, square_sys_8.K, **settings)


def test_pencil_records_size(square_pencil_8):
    assert square_pencil_8.n == square_pencil_8.M.shape[0] == 49
