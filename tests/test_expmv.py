"""Controlled-accuracy driver: application paths, certificates, oracle.

Every accuracy claim is checked against a reference computed inside the
test (dense exponential, direct dense rational evaluation), never against
the code path being tested.
"""
from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from expmrect import expmv, fem
from expmrect.aaa import aaa_poles, refit_partial_fractions
from expmrect.bounds import Pencil, analyze_pencil, bounding_rectangle
from expmrect.errors import DimensionMismatch, ScalingExhausted
from expmrect.expmv import (
    ExpmvRequest,
    apply_partial_fraction,
    apply_scaled_pade,
    expm_dense_oracle,
    expmv_controlled,
)
from expmrect.linalg import LuFactor, lu_factor
from expmrect.rational import PADE45_CORE, boundary_samples, pade45

from conftest import random_nonsym_sparse, random_spd_sparse
from theorem1 import theorem1_bound_check


def _dense_A(p: Pencil) -> np.ndarray:
    return p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())


# --------------------------------------------------------------------------
# dense oracle
# --------------------------------------------------------------------------

def _taylor_expm(A: np.ndarray, terms: int = 30) -> np.ndarray:
    X = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        X = X + term
    return X


def test_oracle_matches_taylor_on_small_norms():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((8, 8))
        A *= 0.5 / np.linalg.norm(A, 1)
        diff = np.linalg.norm(expm_dense_oracle(A) - _taylor_expm(A), 2)
        worst = max(worst, diff)
    assert worst <= 1e-13


def test_oracle_handles_scaling_branch():
    # norm far above the degree-13 threshold exercises squaring
    A = np.diag([-40.0, -1.0, 0.5])
    got = expm_dense_oracle(A)
    assert np.allclose(np.diag(got), np.exp(np.diag(A)), rtol=1e-12)


def test_oracle_validates_input(monkeypatch):
    with pytest.raises(DimensionMismatch):
        expm_dense_oracle(np.zeros((2, 3)))
    monkeypatch.setattr(expmv, "ORACLE_CUTOFF", 4)
    with pytest.raises(ValueError):
        expm_dense_oracle(np.zeros((5, 5)))
    assert np.array_equal(expm_dense_oracle(np.zeros((4, 4))), np.eye(4))
    assert expm_dense_oracle(np.zeros((0, 0))).shape == (0, 0)


# --------------------------------------------------------------------------
# partial fraction application
# --------------------------------------------------------------------------

def test_apply_partial_fraction_matches_dense(square_pencil_8):
    p = square_pencil_8
    pf = PADE45_CORE
    rng = np.random.default_rng(5)
    b = rng.standard_normal(p.n)
    got = apply_partial_fraction(pf, p, b)
    A = _dense_A(p)
    I = np.eye(p.n)
    want = np.zeros(p.n, dtype=complex)
    for beta, w in zip(pf.poles, pf.weights):
        want = want + w * np.linalg.solve(beta * I - A, b)
    assert np.iscomplexobj(got) is False  # conjugate pairing keeps it real
    assert np.allclose(got, want.real, rtol=0.0, atol=1e-12 * np.linalg.norm(b))


def test_apply_complex_vector_matches_dense(square_pencil_8):
    # a complex b is applied to its real and imaginary parts by linearity
    p = square_pencil_8
    rng = np.random.default_rng(6)
    b = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    A = _dense_A(p)
    pf = PADE45_CORE
    I = np.eye(p.n)

    def pf_matrix(step):
        return sum(w * np.linalg.inv(beta * I - step) for beta, w in zip(pf.poles, pf.weights))

    got = apply_partial_fraction(pf, p, b)
    assert np.allclose(got, pf_matrix(A) @ b, rtol=0.0, atol=1e-12 * np.linalg.norm(b))
    got = apply_scaled_pade(pade45(scaling=2), p, b)
    want = np.linalg.matrix_power(pf_matrix(A / 2.0), 2) @ b
    assert np.allclose(got, want, rtol=0.0, atol=1e-11 * np.linalg.norm(b))


def test_apply_scaled_pade_matches_dense_power(square_pencil_8):
    p = square_pencil_8
    pade = pade45(scaling=3)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(p.n)
    got = apply_scaled_pade(pade, p, b)
    A = _dense_A(p)
    pf = PADE45_CORE
    I = np.eye(p.n)
    base = np.zeros((p.n, p.n), dtype=complex)
    for beta, w in zip(pf.poles, pf.weights):
        base = base + w * np.linalg.inv(beta * I - A / 3.0)
    want = (np.linalg.matrix_power(base, 3) @ b).real
    assert np.allclose(got, want, rtol=0.0, atol=1e-11 * np.linalg.norm(b))


def _aaa_form(p: Pencil):
    rect = bounding_rectangle(p)
    poles = aaa_poles(boundary_samples(rect, 125), 1e-8, 128)
    return refit_partial_fractions(poles, boundary_samples(rect, 500), 1e-8).form


def _track_factors(monkeypatch):
    """Weak references to every shifted factor, and how many of them were
    alive as each factorization began and at each solve."""
    refs, at_factor, at_solve = [], [], []

    def alive():
        return sum(ref() is not None for ref in refs)

    def shift_factor(*args):
        at_factor.append(alive())
        fac = shift_factor_orig(*args)
        refs.append(weakref.ref(fac))
        return fac

    def solve(self, b):
        at_solve.append(alive())
        return solve_orig(self, b)

    shift_factor_orig, solve_orig = expmv._shift_factor, LuFactor.solve
    monkeypatch.setattr(expmv, "_shift_factor", shift_factor)
    monkeypatch.setattr(LuFactor, "solve", solve)
    return refs, at_factor, at_solve, alive


@pytest.mark.parametrize("complex_b", [False, True])
def test_partial_fraction_keeps_one_factor_alive(square_pencil_8, monkeypatch, complex_b):
    p = square_pencil_8
    pf = _aaa_form(p)
    assert pf.degree >= 6
    rng = np.random.default_rng(8)
    b = rng.standard_normal(p.n) + (1j * rng.standard_normal(p.n) if complex_b else 0.0)
    refs, at_factor, at_solve, alive = _track_factors(monkeypatch)
    apply_partial_fraction(pf, p, b)
    assert len(refs) == len(pf.real_poles) + len(pf.pairs)
    assert at_factor == [0] * len(refs)  # the previous factor is gone before the next
    assert len(at_solve) == len(refs) * (2 if complex_b else 1)
    assert max(at_solve) == 1
    assert alive() == 0


@pytest.mark.parametrize("complex_b", [False, True])
def test_scaled_pade_keeps_its_three_factors_for_the_call(square_pencil_8, monkeypatch,
                                                         complex_b):
    p = square_pencil_8
    rng = np.random.default_rng(9)
    b = rng.standard_normal(p.n) + (1j * rng.standard_normal(p.n) if complex_b else 0.0)
    refs, at_factor, at_solve, alive = _track_factors(monkeypatch)
    apply_scaled_pade(pade45(scaling=3), p, b)
    assert len(refs) == 3  # one real pole and two pairs, shared by the 3 passes
    assert at_factor == [0, 1, 2]
    assert max(at_solve) == 3
    assert alive() == 0


def test_complex_vector_is_exactly_the_sum_of_its_parts(square_pencil_8):
    # one factor per pole serves both parts, and each part's sum runs in the
    # same order as for a real vector, so the result is bitwise linear
    p = square_pencil_8
    rng = np.random.default_rng(10)
    b = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    pf = _aaa_form(p)
    for f in (lambda v: apply_partial_fraction(pf, p, v),
              lambda v: apply_scaled_pade(pade45(scaling=3), p, v)):
        got = f(b)
        want = f(b.real.copy()) + 1j * f(b.imag.copy())
        assert np.array_equal(got, want)


def test_shift_factor_ordering_fills_less_and_solves_accurately():
    # the shifts of sub-pade at s = 8 on square/32, tau = 10 h
    system = fem.assemble_p1(fem.mesh_square(32), d=1e-3)
    tau = 10.0 * system.mesh.h_bar / 8
    p = Pencil(tau, system.M, system.K)
    b = np.random.default_rng(3).standard_normal(p.n)
    for beta in PADE45_CORE.poles:
        fac = expmv._shift_factor(p, complex(beta), tau)
        shifted = beta * p.M - tau * p.K
        colamd = lu_factor(shifted)
        assert fac.lower.nnz + fac.upper.nnz < colamd.lower.nnz + colamd.upper.nnz
        x = fac.solve(b)
        assert np.linalg.norm(shifted @ x - b) <= 1e-13 * np.linalg.norm(b)


@pytest.fixture(scope="module")
def square_sys_32_advective():
    return fem.assemble_p1(fem.mesh_square(32), d=1e-3)


@pytest.mark.parametrize("beta", [1.0, 1 + 1j, 1.8 + 4j])
@pytest.mark.parametrize("tau_factor", [10.0, 30.0])
def test_shift_factor_keeps_its_ordering_on_advective_shifts(square_sys_32_advective,
                                                             tau_factor, beta):
    # With row pivoting, minimum degree filled up to 6 times COLAMD here; symmetric
    # mode keeps the diagonal pivots that beta outside the rectangle guarantees.
    system = square_sys_32_advective
    tau = tau_factor * system.mesh.h_bar
    p = Pencil(tau, system.M, system.K)
    fac = expmv._shift_factor(p, complex(beta), tau)
    shifted = beta * p.M - tau * p.K
    colamd = lu_factor(shifted)
    assert fac.lower.nnz + fac.upper.nnz <= colamd.lower.nnz + colamd.upper.nnz
    b = np.random.default_rng(4).standard_normal(p.n)
    x = fac.solve(b)
    assert np.linalg.norm(shifted @ x - b) <= 1e-14 * np.linalg.norm(b)


def _old_shifted_matrix(p: Pencil, beta: complex, tau: float):
    """The shifted matrix as ``_shift_factor`` built it before it let
    ``lu_factor`` take the CSR sum: two complex copies, two conversions."""
    if abs(beta.imag) == 0.0:
        shifted = (beta.real * p.M - tau * p.K).tocsc()
    else:
        shifted = (beta * p.M.astype(complex) - tau * p.K.astype(complex)).tocsc()
    return sp.csc_array(shifted)


def _bits(A):
    A = sp.csc_matrix(A)  # what lu_factor factors
    return A.dtype, A.indptr.tolist(), A.indices.tolist(), A.data.view(np.uint64).tolist()


@pytest.mark.parametrize("d", [0.1, 1e-3])
def test_shift_factor_matrix_is_bitwise_the_old_construction(monkeypatch, d):
    system = fem.assemble_p1(fem.mesh_square(32), d=d)
    factored = []
    monkeypatch.setattr(expmv, "lu_factor", lambda A, symmetric: factored.append(A))
    shifts = [1.0, 3.0, 1e-3 + 1e-9j, 1 + 1j, 1.8 + 4j, -0.5 - 3j, 2.0 - 0.0j]
    shifts += list(PADE45_CORE.poles)
    for tau_factor in (1.0, 10.0):
        p = Pencil(tau_factor * system.mesh.h_bar, system.M, system.K)
        for beta in shifts:
            expmv._shift_factor(p, complex(beta), p.tau)
            assert _bits(factored.pop()) == _bits(_old_shifted_matrix(p, complex(beta), p.tau))


# --------------------------------------------------------------------------
# the controlled driver
# --------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["sub-pade", "rat-interp"])
@pytest.mark.parametrize("mode", ["ii", "i"])
def test_driver_meets_eps(square_pencil_8, method, mode):
    p = square_pencil_8
    b = fem.initial_vector(fem.mesh_square(8), "square")[
        ~fem.mesh_square(8).boundary
    ]
    x, cert = expmv_controlled(
        ExpmvRequest(pencil=p, b=b, eps=1e-6, method=method, mode=mode)
    )
    assert x.dtype == np.float64
    exact = expm_dense_oracle(_dense_A(p)) @ b
    err = np.linalg.norm(x - exact) / np.linalg.norm(b)
    assert err <= 1e-6
    assert cert.achieved_bound <= cert.scalar_target
    assert err <= cert.operator_bound <= 1e-6 * (1.0 + 1e-12)
    assert cert.method == method and cert.mode == mode
    assert cert.eps == 1e-6
    if mode == "i":
        assert cert.kappa_safe == 1.0
    else:
        assert cert.kappa_safe > 1.0
    if method == "rat-interp" and mode == "ii":
        # A mild diffusion pencil at tau = h_bar is easy: the interpolation
        # method should settle on a compact denominator.  A blowup here means
        # pole selection or certification regressed.
        assert cert.degree <= 18


def test_driver_certificate_json(square_pencil_8):
    b = np.ones(square_pencil_8.n)
    _, cert = expmv_controlled(
        ExpmvRequest(pencil=square_pencil_8, b=b, eps=1e-4)
    )
    import json

    payload = json.loads(cert.to_json())
    assert payload["schema"] == "expmrect/certificate-v1"
    assert payload["degree"] == cert.degree
    assert payload["operator_bound"] == cert.operator_bound
    assert payload["rectangle"]["mu_max"] < 0.0


def test_driver_scaling_exhausted_carries_context(square_sys_8):
    # d=1e-3, tau=30h: no scaling up to the cap of 64 meets the target
    S = fem.assemble_p1(square_sys_8.mesh, d=1e-3)
    p = Pencil(30.0 * S.mesh.h_bar, S.M, S.K)
    with pytest.raises(ScalingExhausted) as ei:
        expmv_controlled(ExpmvRequest(pencil=p, b=S.b0, eps=1e-8))
    assert ei.value.context["s_max"] == 64
    assert "rectangle" in ei.value.context
    assert ei.value.context["scalar_target"] < 1e-8


def test_driver_request_validation(square_pencil_8):
    with pytest.raises(ValueError):
        ExpmvRequest(pencil=square_pencil_8, b=np.ones(3), eps=2.0)
    with pytest.raises(ValueError):
        ExpmvRequest(pencil=square_pencil_8, b=np.ones(3), eps=1e-6, method="cf")
    with pytest.raises(ValueError):
        ExpmvRequest(pencil=square_pencil_8, b=np.ones(3), eps=1e-6, mode="iii")
    # the driver's fixed settings are fields, not arguments
    for retired in ({"kappa_power": 0.5}, {"n_per_side": 500}, {"s_max": 64}, {"m_max": 128}):
        with pytest.raises(TypeError):
            ExpmvRequest(pencil=square_pencil_8, b=np.ones(3), eps=1e-6, **retired)
    defaults = {f.name: f.default for f in dataclasses.fields(ExpmvRequest)}
    assert [defaults[k] for k in ("kappa_power", "n_per_side", "s_max", "m_max")] == [
        0.5, 500, 64, 128
    ]
    with pytest.raises(DimensionMismatch):
        expmv_controlled(
            ExpmvRequest(pencil=square_pencil_8, b=np.ones(3), eps=1e-6)
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_driver_request_rejects_non_finite_b(square_pencil_8, bad):
    b = np.ones(square_pencil_8.n)
    b[5] = bad
    with pytest.raises(ValueError, match="^b contains NaN or Inf entries$"):
        ExpmvRequest(pencil=square_pencil_8, b=b, eps=1e-6)


@pytest.mark.parametrize("method", ["sub-pade", "rat-interp"])
def test_expmv_with_analysis_is_bit_identical(square_pencil_8, method):
    p = square_pencil_8
    b = np.ones(p.n)
    # one analysis per mode serves every time step of the pencil
    for mode in ("ii", "i"):
        analysis = analyze_pencil(p.M, p.K, mode=mode)
        for tau in (p.tau, 10.0 * p.tau):
            q = Pencil(tau, p.M, p.K)
            x1, c1 = expmv_controlled(ExpmvRequest(pencil=q, b=b, eps=1e-6, method=method,
                                                   mode=mode, analysis=analysis))
            x2, c2 = expmv_controlled(ExpmvRequest(pencil=q, b=b, eps=1e-6, method=method,
                                                   mode=mode))
            assert np.array_equal(x1, x2)
            assert c1.to_json() == c2.to_json()


def test_expmv_rejects_mismatched_analysis(square_pencil_8, square_sys_8):
    p = square_pencil_8
    b = np.ones(p.n)
    analysis = analyze_pencil(p.M, p.K)
    ok = ExpmvRequest(pencil=Pencil(3.0 * p.tau, p.M, p.K.copy()), b=b, eps=1e-6,
                      analysis=analysis)
    assert ok.analysis is analysis
    mismatched = [
        {"seed": 1},
        {"rel_resid_tol": 1e-4},
        {"mode": "i"},
    ]
    for settings in mismatched:
        with pytest.raises(ValueError, match="settings differ"):
            expmv_controlled(ExpmvRequest(pencil=p, b=b, eps=1e-6, analysis=analysis,
                                          **settings))
    other_d = fem.assemble_p1(square_sys_8.mesh, d=1e-3)
    other_n = fem.assemble_p1(fem.mesh_square(6), d=0.1)
    for sysm in (other_d, other_n):
        with pytest.raises(ValueError, match="different pencil"):
            expmv_controlled(ExpmvRequest(pencil=Pencil(p.tau, sysm.M, sysm.K), b=sysm.b0,
                                          eps=1e-6, analysis=analysis))


# --------------------------------------------------------------------------
# operator-norm bound verification
# --------------------------------------------------------------------------

def certified_form(p: Pencil, eps: float, method: str):
    """Build the certified scalar approximant for a pencil the same way the
    driver does, returning it (the driver itself only keeps the summary)."""
    from expmrect.aaa import aaa_poles, refit_partial_fractions
    from expmrect.bounds import bounding_rectangle, cond_estimate
    from expmrect.rational import (
        CertifiedApproximant,
        boundary_samples,
        select_scaling,
        sup_error_on_rectangle,
    )

    rect = bounding_rectangle(p)
    kappa_safe = cond_estimate(p.M).kappa_safe
    target = eps / ((1.0 + math.sqrt(2.0)) * math.sqrt(kappa_safe))
    if method == "sub-pade":
        s = select_scaling(rect, target)
        achieved = sup_error_on_rectangle(pade45(s), rect)
        return CertifiedApproximant(
            form=PADE45_CORE,
            sup_error_estimate=achieved,
            target=target,
            method="sub-pade",
            scaling=s,
        )
    poles = aaa_poles(boundary_samples(rect, 250), target)
    return refit_partial_fractions(poles, boundary_samples(rect, 500), target)


def test_theorem_bound_holds_on_random_pencil(random_pencil_60):
    p = random_pencil_60
    for method in ("sub-pade", "rat-interp"):
        form = certified_form(p, 1e-5, method)
        report = theorem1_bound_check(p, form)
        assert report.passed
        assert report.lhs <= report.rhs <= (1.0 + math.sqrt(2.0)) * math.sqrt(
            report.kappa
        ) * form.sup_error_estimate * (1.0 + 1e-12)


def test_theorem_bound_check_size_cap(square_pencil_8):
    pf = PADE45_CORE
    from expmrect.rational import CertifiedApproximant

    cert = CertifiedApproximant(
        form=pf, sup_error_estimate=1e-7, target=1e-6, method="sub-pade"
    )
    with pytest.raises(ValueError):
        theorem1_bound_check(square_pencil_8, cert, size_cap=10)
