"""Pencil rectangles, generalized extreme eigenvalues, condition bounds.

Dense eigendecompositions computed directly in the tests serve as oracles
for the module's one eigensolver path, ARPACK, and for the inertia proofs
that turn its estimates into edges.
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
from expmrect.linalg import inertia_gap

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


# the widest shift the ladder tries, relative to the estimate
WIDEST = 4**bounds.BRACKET_WIDENINGS * bounds.BRACKET_DELTA


def _assert_edge(edge, exact, side, scale=0.0):
    """A proved edge lies beyond the exact extreme (``side`` -1 below a
    minimum, +1 above a maximum) and within WIDEST * max(|exact|, scale)
    of it."""
    assert side * (edge - exact) > 0.0, (edge, exact)
    assert side * (edge - exact) <= WIDEST * max(abs(exact), scale), (edge, exact)


def _assert_edges(ext, D, S, M, scale=0.0):
    lo, hi = _dense_pencil_extremes(D, M)
    _assert_edge(ext.mu_min, lo, -1.0, scale)
    _assert_edge(ext.mu_max, hi, 1.0, scale)
    _assert_edge(ext.nu_max, _dense_skew_max(S, M), 1.0, scale)


def test_sym_pencil_dense_matches_oracle(random_pencil_60):
    p = random_pencil_60
    lo, hi = _dense_pencil_extremes(split(p.K).D, p.M)
    ext = raw_extremes(p.M, p.K)
    _assert_edge(ext.mu_min, lo, -1.0)
    _assert_edge(ext.mu_max, hi, 1.0)


@pytest.mark.parametrize("which", ["min", "max"])
def test_sym_pencil_iterative_agrees_with_dense(which):
    rng = np.random.default_rng(3)
    M = random_spd_sparse(150, rng)
    D = split(random_nonsym_sparse(150, rng)).D
    dense = _dense_pencil_extremes(D, M)[0 if which == "min" else 1]
    ext = raw_extremes(M, D)
    if which == "min":
        _assert_edge(ext.mu_min, dense, -1.0)
    else:
        _assert_edge(ext.mu_max, dense, 1.0)


def test_skew_pencil_dense_matches_oracle(random_pencil_60):
    p = random_pencil_60
    want = _dense_skew_max(split(p.K).S, p.M)
    _assert_edge(raw_extremes(p.M, p.K).nu_max, want, 1.0)


def test_skew_pencil_iterative_agrees_with_dense():
    rng = np.random.default_rng(11)
    M = random_spd_sparse(150, rng)
    S = split(random_nonsym_sparse(150, rng)).S
    ext = raw_extremes(M, S)
    assert ext.mu_min == ext.mu_max == 0.0  # S has no symmetric part
    _assert_edge(ext.nu_max, _dense_skew_max(S, M), 1.0)


@pytest.mark.parametrize("sigma_factor, proved", [(1.0001, True), (0.9999, False)])
def test_hermitian_skew_form_decides_the_skew_edge(square_sys_8, sigma_factor, proved):
    # sigma M + i S is Hermitian and positive definite exactly when sigma
    # exceeds the largest eigenvalue of (S/i, M); its pivots decide it
    s = square_sys_8
    S = split(s.K).S
    sigma = sigma_factor * _dense_skew_max(S, s.M)
    fac = bounds.definite_factor(sp.csr_array(sigma * s.M + 1j * S), 1.0)
    assert (fac is not None) == proved


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
        _assert_edge(iterative.mu_min, lo, -1.0)
        _assert_edge(iterative.mu_max, hi, 1.0)


@pytest.mark.parametrize("d", [1e-1, 1e-3])
@pytest.mark.parametrize("domain", ["square", "star"])
def test_iterative_enclosure_agrees_with_dense_on_reference_systems(domain, d):
    # square/32 and star/4, the reference systems
    mesh = fem.mesh_square(32) if domain == "square" else fem.mesh_star(refine=4)
    s = fem.assemble_p1(mesh, d=d, domain=domain)
    # (kappa(M) is checked in test_cond_estimate_matches_dense_eigvalsh)
    parts = split(s.K)
    _assert_edges(raw_extremes(s.M, s.K), parts.D, parts.S, s.M)


def _no_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.array([]), None)


def _arpack_error(*args, **kwargs):
    raise spla.ArpackError(-9999)


@pytest.mark.parametrize("fail", [_no_convergence, _arpack_error])
def test_arpack_failure_raises_no_convergence(fail, square_sys_8, monkeypatch):
    s = square_sys_8
    M_solve = bounds._mass_solve(s.M)
    regular = {"M": s.M, "Minv": bounds._operator(s.n, M_solve)}
    monkeypatch.setattr(spla, "eigsh", fail)
    with pytest.raises(NoConvergence, match=r"minimum of a symmetric pencil \(n=49\)"):
        bounds._sym_estimates(split(s.K).D, s.M, regular, 0)
    with pytest.raises(NoConvergence, match=r"skew pencil \(n=49\)"):
        bounds._skew_estimate(split(s.K).S, M_solve, regular, 0)
    with pytest.raises(NoConvergence, match="n=49"):
        raw_extremes(s.M, s.K)
    with pytest.raises(NoConvergence, match="n=49"):
        cond_estimate(s.M)


def _shifted_estimates(monkeypatch, shift):
    """Make every ARPACK estimate of the pencil (D, M)'s minimum come out
    ``shift`` * |theta| above the true theta, that is inward; record the
    factors ``definite_factor`` returns."""
    ritz_pair, factor = bounds._ritz_pair, bounds.definite_factor
    factors = []

    def inward(what, A, tol, seed, **kwargs):
        theta = ritz_pair(what, A, tol, seed, **kwargs)
        if what == "the minimum of a symmetric pencil":
            theta += shift * abs(theta)
        return theta

    def recording(A, sign):
        factors.append(factor(A, sign))
        return factors[-1]

    monkeypatch.setattr(bounds, "_ritz_pair", inward)
    monkeypatch.setattr(bounds, "definite_factor", recording)
    return factors


def test_inward_estimate_is_widened_not_accepted(square_sys_8, monkeypatch):
    # an estimate 0.5% inside the minimum: the first two shifts (0.1% and
    # 0.4% beyond it) lie inside the spectrum too, and their pivots refuse
    # them; the third (1.6%) is proved, and the edge lies below the minimum
    s = square_sys_8
    D = split(s.K).D
    factors = _shifted_estimates(monkeypatch, 5e-3)
    ext = raw_extremes(s.M, s.K)
    _assert_edge(ext.mu_min, _dense_pencil_extremes(D, s.M)[0], -1.0)
    # the factors of M's floor, of M and of the shift-invert estimate of the
    # maximum come first
    assert [f is not None for f in factors[3:6]] == [False, False, True]


def test_maximum_estimate_takes_one_shift_factor(monkeypatch):
    # Neumann advection-diffusion on square/8: D has positive eigenvalues,
    # so the pivots refuse the tiny shift above 0 and regular mode finds the
    # maximum; the shift only steers the estimate, so one factor is tried
    M, K = fem.assemble_p1_full(fem.mesh_square(8), d=0.1, c=(1.0, 1.0))
    D = split(K).D
    regular = {"M": M, "Minv": bounds._operator(M.shape[0], bounds._mass_solve(M))}
    factors, factor = [], bounds.definite_factor
    monkeypatch.setattr(bounds, "definite_factor",
                        lambda A, sign: factors.append(factor(A, sign)) or factors[-1])
    lo, hi = bounds._sym_estimates(D, M, regular, 0)
    assert factors == [None]
    want = _dense_pencil_extremes(D, M)
    assert want[1] > 0.0
    assert hi == pytest.approx(want[1], rel=10 * bounds.BRACKET_TOL)
    assert lo == pytest.approx(want[0], rel=10 * bounds.BRACKET_TOL)


def test_unprovable_estimate_raises_no_convergence(square_sys_8, monkeypatch):
    # an estimate 50% inside the minimum puts every shift of the ladder, even
    # the widest (6.4%), inside the spectrum: no edge is proved
    s = square_sys_8
    factors = _shifted_estimates(monkeypatch, 0.5)
    with pytest.raises(NoConvergence,
                       match=r"no shift beyond the minimum of a symmetric pencil .*\(n=49\)"):
        raw_extremes(s.M, s.K)
    assert factors[3:] == [None] * (bounds.BRACKET_WIDENINGS + 1)


def _dense_min(B, M):
    """Smallest eigenvalue of the Hermitian pencil (B, M) by dense ``eigh``."""
    return sla.eigh(B.toarray(), M.toarray(), eigvals_only=True)[0]


@pytest.mark.parametrize("mode", ["ii", "i"])
@pytest.mark.parametrize("domain", ["square", "star"])
def test_every_minimum_agrees_with_dense_eigh(domain, mode, monkeypatch):
    # square/8 and star/1. Every edge, and the floor of the mass behind
    # kappa, is the proved lower bound on the smallest eigenvalue of a
    # Hermitian pencil (B, mass): mode "ii" proves (M, I), (D, M), (-D, M)
    # and (i S, M), mode "i" the same with M M for M and sym(K M) for D.
    # Each starts from one ARPACK estimate at BRACKET_TOL, with no finish.
    mesh = fem.mesh_square(8) if domain == "square" else fem.mesh_star(refine=1)
    s = fem.assemble_p1(mesh, d=0.1, domain=domain)
    proofs, ritz_calls = [], []
    proved_lower, ritz_pair = bounds._proved_lower, bounds._ritz_pair

    def recording_proof(what, B, mass, theta, scale, floor, err):
        proofs.append((B, mass, proved_lower(what, B, mass, theta, scale, floor, err)))
        return proofs[-1][2]

    def recording_ritz_pair(what, A, tol, seed, **kwargs):
        ritz_calls.append(tol)
        return ritz_pair(what, A, tol, seed, **kwargs)

    monkeypatch.setattr(bounds, "_proved_lower", recording_proof)
    monkeypatch.setattr(bounds, "_ritz_pair", recording_ritz_pair)
    analyze_pencil(s.M, s.K, mode=mode)
    assert len(proofs) == 4
    for B, mass, bound in proofs:
        exact = _dense_min(B, mass)
        assert exact - WIDEST * abs(exact) <= bound < exact
    assert ritz_calls == [bounds.BRACKET_TOL] * 4


def _raising(*args, **kwargs):
    raise AssertionError("the enclosure must not call a dense eigensolver")


@pytest.mark.parametrize("domain", ["square", "star"])
def test_raw_extremes_calls_no_dense_eigensolver(domain, monkeypatch):
    # square/8 and star/1: desk-scale pencils take ARPACK too
    mesh = fem.mesh_square(8) if domain == "square" else fem.mesh_star(refine=1)
    s = fem.assemble_p1(mesh, d=0.1, domain=domain)
    parts = split(s.K)
    monkeypatch.setattr(np.linalg, "eigh", _raising)
    monkeypatch.setattr(sla, "eigh", _raising)
    ext = raw_extremes(s.M, s.K)
    monkeypatch.undo()
    _assert_edges(ext, parts.D, parts.S, s.M)


def test_raw_extremes_of_symmetric_k_has_zero_height(square_sys_8):
    K = split(square_sys_8.K).D
    assert split(K).S.nnz == 0
    assert raw_extremes(square_sys_8.M, K).nu_max == 0.0


def degenerate_pencils():
    """Pencils on square/16 over all 289 vertices whose symmetric part is
    singular or zero: pure-Neumann diffusion (c = 0, D negative
    semidefinite with maximum 0, S = 0), pure transport (K its own skew
    part, D = 0) and K = 0."""
    mesh = fem.mesh_square(16)
    M, K = fem.assemble_p1_full(mesh, d=0.1, c=(0.0, 0.0))
    _, K_adv = fem.assemble_p1_full(mesh, d=0.1, c=(1.0, 1.0))
    return M, {"neumann": K, "transport": split(K_adv).S, "zero": sp.csr_array(M.shape)}


def assert_degenerate_edges(edges, mass, stiffness):
    """One-sided checks of (mu_min, mu_max, nu_max) against dense eigh; a
    part with no nonzero entry must give its edges exactly 0."""
    parts = split(stiffness)
    exact = (*_dense_pencil_extremes(parts.D, mass), _dense_skew_max(parts.S, mass))
    scale = bounds.ZERO_STEP * max(map(abs, exact))
    for edge, want, side, part in zip(edges, exact, (-1.0, 1.0, 1.0), (parts.D, parts.D, parts.S)):
        if np.any(part.data):
            _assert_edge(edge, want, side, scale)
        else:
            assert edge == 0.0 and abs(want) <= 1e-12 * max(map(abs, exact), default=0.0)


@pytest.mark.parametrize("mode", ["ii", "i"])
@pytest.mark.parametrize("name", ["neumann", "transport", "zero"])
def test_singular_symmetric_part_encloses(name, mode):
    # these raised NoConvergence (a residual of 0.71 on the zero maximum) or
    # ARPACK error -9 (a zero operator) before the edges were proved
    M, pencils = degenerate_pencils()
    K = pencils[name]
    ext = analyze_pencil(M, K, mode=mode).extremes
    mass, stiffness = (M @ M, K @ M) if mode == "i" else (M, K)
    assert_degenerate_edges((ext.mu_min, ext.mu_max, ext.nu_max), mass, stiffness)


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
    with pytest.raises(NotSPD, match="lower bound .* not positive"):
        cond_estimate(M)
    req = expmv.ExpmvRequest(pencil=Pencil(s.mesh.h_bar, M, s.K), b=s.b0, eps=1e-6)
    with pytest.raises(NotSPD):
        expmv.expmv_controlled(req)


def test_rectangle_tau_linearity_without_inflation(square_sys_8):
    # the endpoints are the unit-step edges times tau, each product rounded
    # outward by one ulp and by nothing more
    s = square_sys_8
    ext = raw_extremes(s.M, s.K)
    for tau in (1.0, 3.0, 0.1):
        r = rectangle_from_extremes(ext, tau)
        assert r.mu_min == np.nextafter(tau * ext.mu_min, -np.inf)
        assert r.mu_max == np.nextafter(tau * ext.mu_max, np.inf)
        assert r.nu_max == np.nextafter(tau * ext.nu_max, np.inf)
        assert r.nu_min == -r.nu_max


def test_rectangle_inflation_widens_every_endpoint(square_pencil_8):
    p = square_pencil_8
    ext = raw_extremes(p.M, p.K)
    wide = bounding_rectangle(p)
    assert wide.mu_min < p.tau * ext.mu_min <= p.tau * ext.mu_max < wide.mu_max
    assert wide.nu_max > p.tau * ext.nu_max
    assert set(wide.as_dict()) == {"mu_min", "mu_max", "nu_min", "nu_max"}
    # an edge that is exactly 0 keeps the rectangle an interior
    flat = rectangle_from_extremes(bounds.RawExtremes(-1.0, 0.0, 0.0, ext.mass), 2.0)
    assert (flat.mu_max, flat.nu_max) == (bounds.INFLATION_FLOOR, bounds.INFLATION_FLOOR)


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
    # edges lie just outside those of A's symmetric and skew parts, and
    # W(A) reaches into the right half plane on the advective pencils
    mesh = fem.mesh_square(size) if domain == "square" else fem.mesh_star(refine=size)
    s = fem.assemble_p1(mesh, d=d, domain=domain)
    p = Pencil(tau_factor * mesh.h_bar, s.M, s.K)
    analysis = analyze_pencil(p.M, p.K, mode="i")
    ext = analysis.extremes
    got = [p.tau * e for e in (ext.mu_min, ext.mu_max, ext.nu_max)]
    for g, want, side in zip(got, _dense_plain_range_edges(p), (-1.0, 1.0, 1.0)):
        _assert_edge(g, want, side)
    assert (got[1] > 0.0) == (d == 1e-3)
    # the edges of the computed products, widened by their rounding
    assert ext == bounds._widened(raw_extremes(p.M @ p.M, p.K @ p.M),
                                  bounds._product_error(p.K, p.M),
                                  bounds._product_error(p.M, p.M))
    assert analysis.kappa_safe == 1.0


def test_product_error_bounds_the_rounding_of_mode_i_products(square_sys_8):
    # mode "i" widens its edges by these bounds; check them against the
    # products formed in extended precision
    K, M = square_sys_8.K, square_sys_8.M
    for A, B in ((K, M), (M, M)):
        exact = A.toarray().astype(np.longdouble) @ B.toarray().astype(np.longdouble)
        rounding = np.linalg.norm(((A @ B).toarray() - exact).astype(float), 2)
        assert 0.0 < rounding <= bounds._product_error(A, B) <= 1e-14 * np.linalg.norm(
            (A @ B).toarray(), 2)


# --------------------------------------------------------------------------
# condition bound
# --------------------------------------------------------------------------

def _reference_mass(domain, size):
    mesh = fem.mesh_square(size) if domain == "square" else fem.mesh_star(refine=size)
    return fem.assemble_p1(mesh, d=0.1, domain=domain).M


# Gershgorin's row sum exceeds lambda_max(M) by 5.0% on square/8 and by 19.5%
# on star/1, and by at most 3.4% on the reference systems; the proved shift
# adds BRACKET_DELTA = 0.1%
KAPPA_CEILINGS = {("square", 8): 1.06, ("star", 1): 1.2, ("square", 32): 1.05, ("star", 4): 1.05}


def test_cond_estimate_matches_dense_eigvalsh():
    # the certified bound against the dense eigenvalues of M and Wathen's a
    # priori bound 4 max(diag M) / min(diag M) for P1 mass matrices
    for (domain, size), ceiling in KAPPA_CEILINGS.items():
        M = _reference_mass(domain, size)
        w = np.linalg.eigvalsh(M.toarray())
        exact, kappa = w[-1] / w[0], cond_estimate(M).kappa_safe
        assert type(kappa) is float  # CSV and JSON print it with repr
        assert exact <= kappa <= ceiling * exact, (domain, size, kappa / exact)
        rowsum = np.max(abs(M).sum(axis=1))
        assert kappa <= (1.0 + 2.0 * bounds.BRACKET_DELTA) * rowsum / w[0]
        assert kappa <= 4.0 * M.diagonal().max() / M.diagonal().min()


def test_cond_estimate_iterative_margin(square_sys_8, monkeypatch):
    # kappa_safe is the row sum over the proved shift less the stated
    # rounding margin (gap + 3 u rho)(1 + 4 u), gap the factor's inertia gap
    # and rho the largest row sum of |M| + sigma I, rounded down by one ulp
    M, shifts = square_sys_8.M, []
    proved_shift = bounds._proved_shift

    def recording(*args):
        shifts.append(proved_shift(*args))
        return shifts[-1]

    monkeypatch.setattr(bounds, "_proved_shift", recording)
    est = cond_estimate(M)
    ((sigma, fac),) = shifts
    u = np.finfo(float).eps / 2.0
    rho = np.max(abs(M).sum(axis=1) + sigma)
    margin = (inertia_gap(fac) + 3.0 * u * rho) * (1.0 + 4.0 * u)
    assert fac is not None and 0.0 < margin < 1e-12 * sigma
    assert sigma < np.linalg.eigvalsh(M.toarray())[0]
    assert est.floor == np.nextafter(sigma - margin, -np.inf)
    rowsum = np.max(abs(M).sum(axis=1))
    assert est.kappa_safe == rowsum * (1.0 + 9 * u) / est.floor  # 7 entries in a row


def test_cond_estimate_rejects_indefinite():
    bad = sp.csr_array(sp.diags_array([1.0, -1.0, 2.0]))
    with pytest.raises(NotSPD):
        cond_estimate(bad)


def test_cond_estimate_unproved_ladder_raises_no_convergence(square_sys_8, monkeypatch):
    # every shift of the ladder left unproved: a typed failure naming M
    factors = []
    monkeypatch.setattr(bounds, "definite_factor", lambda A, sign: factors.append(A))
    with pytest.raises(NoConvergence, match=r"M's minimum .*\(n=49\)"):
        cond_estimate(square_sys_8.M)
    assert len(factors) == bounds.BRACKET_WIDENINGS + 1


def test_cond_estimate_validation():
    for bad in (0.5, np.nan):
        with pytest.raises(ValueError, match="condition number bound below 1"):
            CondEstimate(kappa_safe=bad, floor=1.0)
        with pytest.raises(ValueError, match="lower eigenvalue bound not positive"):
            CondEstimate(kappa_safe=2.0, floor=bad - 0.5)


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
    ({"mode": "iii"}, "unknown mode"),
], ids=["mode"])
def test_analyze_pencil_rejects_bad_settings(square_sys_8, monkeypatch, settings, message):
    # refused before any solver runs
    monkeypatch.setattr(bounds, "raw_extremes", None)
    monkeypatch.setattr(bounds, "cond_estimate", None)
    with pytest.raises(ValueError, match=message):
        analyze_pencil(square_sys_8.M, square_sys_8.K, **settings)


def test_pencil_records_size(square_pencil_8):
    assert square_pencil_8.n == square_pencil_8.M.shape[0] == 49
