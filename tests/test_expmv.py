"""Controlled-accuracy driver: application paths, certificates, oracle.

Every accuracy claim is checked against a reference computed inside the
test (dense exponential, direct dense rational evaluation), never against
the code path being tested.
"""
from __future__ import annotations

import dataclasses
import json
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from expmrect import expmv, fem
from expmrect.aaa import aaa_poles, refit_partial_fractions
from expmrect.bounds import BoundingRectangle, Pencil, analyze_pencil, bounding_rectangle
from expmrect.errors import (
    DegreeExhausted,
    DimensionMismatch,
    RefitFailed,
    ScalingExhausted,
    SingularShift,
)
from expmrect.expmv import (
    ExpmvRequest,
    apply_partial_fraction,
    apply_scaled_pade,
    expm_dense_oracle,
    expmv_controlled,
)
from expmrect.linalg import LuFactor, lu_factor
from expmrect.rational import PADE45_CORE, PartialFractionRational, boundary_samples, pade45

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


@pytest.mark.parametrize("scaling", [0, -1])
def test_apply_partial_fraction_refuses_a_scaling_below_one(square_pencil_8, scaling):
    # -1 ran no pass and returned b, 0 divided tau by zero
    b = np.ones(square_pencil_8.n)
    with pytest.raises(ValueError, match="scaling must be a positive integer"):
        apply_partial_fraction(PADE45_CORE, square_pencil_8, b, scaling)


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
        fac = expmv._shift_factor(expmv._shift_pattern(p), complex(beta), tau)
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
    fac = expmv._shift_factor(expmv._shift_pattern(p), complex(beta), tau)
    shifted = beta * p.M - tau * p.K
    colamd = lu_factor(shifted)
    fill = fac.lower.nnz + fac.upper.nnz
    assert fill <= colamd.lower.nnz + colamd.upper.nnz
    # one-column panels change SuperLU's schedule, not its ordering or fill
    default = spla.splu(sp.csc_matrix(shifted), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.1, options={"SymmetricMode": True})
    assert fill == default.L.nnz + default.U.nnz
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
    factored = []
    monkeypatch.setattr(expmv, "lu_factor", lambda A, symmetric: factored.append(A))
    shifts = [1.0, 3.0, 1e-3 + 1e-9j, 1 + 1j, 1.8 + 4j, -0.5 - 3j, 2.0 - 0.0j]
    shifts += list(PADE45_CORE.poles)
    for mesh in (fem.mesh_square(32), fem.mesh_star(refine=4)):
        system = fem.assemble_p1(mesh, d=d)
        for tau_factor in (1.0, 10.0):
            p = Pencil(tau_factor * system.mesh.h_bar, system.M, system.K)
            pattern = expmv._shift_pattern(p)
            for beta in shifts:
                expmv._shift_factor(pattern, complex(beta), p.tau)
                assert _bits(factored.pop()) == _bits(_old_shifted_matrix(p, complex(beta), p.tau))


def test_shift_factor_takes_the_union_of_the_patterns():
    # file input: K couples two unknowns that M does not, so the shifted
    # matrix has an entry outside M's pattern
    system = fem.assemble_p1(fem.mesh_square(8), d=0.1)
    n = system.M.shape[0]
    extra = sp.csr_array(([0.5, -0.25], ([0, n - 1], [n - 1, 0])), shape=(n, n))
    p = Pencil(system.mesh.h_bar, system.M, sp.csr_array(system.K + extra))
    assert p.M.toarray()[0, n - 1] == 0.0
    union = (abs(p.M) + abs(p.K)).toarray() != 0.0
    pattern = expmv._shift_pattern(p)
    stored = sp.csc_array((np.ones(pattern.indices.size), pattern.indices, pattern.indptr),
                          shape=(n, n))
    assert np.array_equal(stored.toarray() != 0.0, union)
    b = np.random.default_rng(5).standard_normal(n)
    for beta in (3.0, 1 + 1j, 1.8 - 4j):
        want = (beta * p.M - p.tau * p.K).toarray()
        values = beta * pattern.M - p.tau * pattern.K
        on_pattern = sp.csc_array((values, pattern.indices, pattern.indptr), shape=(n, n))
        assert np.array_equal(on_pattern.toarray(), want)
        x = expmv._shift_factor(pattern, complex(beta), p.tau).solve(b)
        assert np.linalg.norm(want @ x - b) <= 1e-12 * np.linalg.norm(b)


def _diagonal_pencil():
    # M = I and K = diag(-1, ..., -5), so beta M - tau K = diag(beta + 1, ..., beta + 5)
    return Pencil(1.0, sp.eye_array(5, format="csr"), sp.diags_array(-np.arange(1.0, 6.0)))


@pytest.mark.parametrize("beta", [-1.0, -1.0 + 1e-15], ids=["exact", "near"])
def test_singular_shift_is_refused(beta):
    # the near shift leaves 1.1e-15 on the diagonal, which SuperLU factors
    r = PartialFractionRational(gamma=0.0, poles=[beta], weights=[1.0])
    with pytest.raises(SingularShift, match="makes the pencil singular"):
        apply_partial_fraction(r, _diagonal_pencil(), np.ones(5))


def test_shift_clear_of_the_spectrum_applies():
    r = PartialFractionRational(gamma=0.0, poles=[-1.5], weights=[1.0])
    x = apply_partial_fraction(r, _diagonal_pencil(), np.ones(5))
    assert np.allclose(x, 1.0 / (np.arange(1.0, 6.0) - 1.5), rtol=1e-15, atol=0.0)


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
        ExpmvRequest(pencil=p, b=b, eps=1e-6, method=method,
                     analysis=analyze_pencil(p.M, p.K, mode=mode))
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


@pytest.fixture(scope="module")
def square_sys_16():
    mesh = fem.mesh_square(16)
    return mesh, fem.assemble_p1(mesh, d=0.1)


@pytest.mark.parametrize("case", ["tau=1e-8h", "tau=1e-6h", "tau=1e-4h", "K=0"])
def test_certificate_covers_the_applied_form_near_the_identity(square_sys_16, case):
    # The rectangle shrinks toward 0, where the certified r45 and the applied
    # one must agree to working precision: with np.roots' partial fractions
    # every sub-pade cell here measured 4.9e-13 against a bound of 5.9e-16 to
    # 2.3e-15. Both methods and both modes, against dense expm.
    mesh, S = square_sys_16
    if case == "K=0":
        tau, K = mesh.h_bar, sp.csr_array(S.K.shape)
    else:
        tau, K = float(case[4:-1]) * mesh.h_bar, S.K
    p = Pencil(tau, S.M, K)
    exact = scipy.linalg.expm(_dense_A(p)) @ S.b0
    for mode in ("ii", "i"):
        analysis = analyze_pencil(S.M, K, mode=mode)
        for method in ("sub-pade", "rat-interp"):
            x, cert = expmv_controlled(ExpmvRequest(pencil=p, b=S.b0, eps=1e-6, method=method,
                                                    analysis=analysis))
            err = np.linalg.norm(x - exact) / np.linalg.norm(S.b0)
            assert err <= cert.operator_bound, (mode, method, err, cert.operator_bound)


@pytest.mark.parametrize("method", ["sub-pade", "rat-interp"])
def test_driver_applies_the_certified_core_and_scaling(square_pencil_8, monkeypatch, method):
    calls = []

    def recording(*args):
        calls.append(args)
        return apply_orig(*args)

    apply_orig = expmv.apply_partial_fraction
    monkeypatch.setattr(expmv, "apply_partial_fraction", recording)
    p = square_pencil_8
    b = np.ones(p.n)
    _, cert = expmv_controlled(ExpmvRequest(pencil=p, b=b, eps=1e-8, method=method))
    [(form, pencil, vector, scaling)] = calls
    assert form is cert.approximant.form and scaling == cert.approximant.scaling
    assert pencil is p and np.array_equal(vector, b)
    if method == "sub-pade":
        assert form is PADE45_CORE and scaling > 1


@pytest.mark.parametrize("tau_factor", [1, 10])
@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_rat_interp_certifies_a_pencil_with_symmetric_k(tau_factor, eps):
    # no advection: K is symmetric, nu_max = 0, and the rectangle is a
    # segment inflated to a height of 1e-12
    s = fem.assemble_p1(fem.mesh_square(16), d=0.1, c=(0.0, 0.0))
    assert (s.K != s.K.T).nnz == 0
    p = Pencil(tau_factor * s.mesh.h_bar, s.M, s.K)
    x, cert = expmv_controlled(ExpmvRequest(pencil=p, b=s.b0, eps=eps, method="rat-interp"))
    exact = expm_dense_oracle(_dense_A(p)) @ s.b0
    err = np.linalg.norm(x - exact) / np.linalg.norm(s.b0)
    assert err <= cert.operator_bound <= eps


def _rat_interp_calls(monkeypatch, failures):
    """Record the rectangles ``_rat_interp`` places poles on and certifies
    on; the refit raises the given failures first, then runs."""
    placed, certified, failures = [], [], list(failures)

    def poles(boundary, target):
        placed.append(boundary.rectangle)
        return aaa_poles(boundary, target)

    def refit(poles, boundary, target):
        certified.append(boundary.rectangle)
        if failures:
            raise failures.pop(0)
        return refit_partial_fractions(poles, boundary, target)

    monkeypatch.setattr(expmv, "aaa_poles", poles)
    monkeypatch.setattr(expmv, "refit_partial_fractions", refit)
    return placed, certified


def test_rat_interp_retries_a_failed_refit_on_a_grown_rectangle(monkeypatch):
    rect = BoundingRectangle(-4.0, -0.5, -3.0, 3.0)
    placed, certified = _rat_interp_calls(monkeypatch, [RefitFailed("first")])
    approximant = expmv._rat_interp(rect, 1e-6)
    assert approximant.sup_error_estimate <= 1e-6
    assert certified == [rect, rect]
    grown = rect.grown(expmv.POLE_GROWTHS[1])
    assert placed == [rect, grown]
    # the grown rectangle's sides moved outward by 1e-4 of width and height
    assert grown.mu_min < rect.mu_min and grown.mu_max > rect.mu_max
    assert grown.nu_max == pytest.approx(3.0 + 6e-4, rel=1e-12)
    assert grown.mu_max == pytest.approx(-0.5 + 3.5e-4, rel=1e-12)


def test_rat_interp_raises_the_first_failure(monkeypatch):
    rect = BoundingRectangle(-4.0, -0.5, -3.0, 3.0)
    failures = [RefitFailed(f"growth {g}") for g in expmv.POLE_GROWTHS]
    placed, _ = _rat_interp_calls(monkeypatch, failures)
    with pytest.raises(RefitFailed, match="growth 0.0"):
        expmv._rat_interp(rect, 1e-6)
    assert len(placed) == len(expmv.POLE_GROWTHS)


def test_rat_interp_does_not_retry_a_degree_exhausted_fit(monkeypatch):
    rect = BoundingRectangle(-4.0, -0.5, -3.0, 3.0)
    placed = []

    def exhausted(boundary, target):
        placed.append(boundary.rectangle)
        raise DegreeExhausted("cap")

    monkeypatch.setattr(expmv, "aaa_poles", exhausted)
    with pytest.raises(DegreeExhausted):
        expmv._rat_interp(rect, 1e-6)
    assert placed == [rect]


def test_driver_certificate_json(square_pencil_8):
    b = np.ones(square_pencil_8.n)
    _, cert = expmv_controlled(
        ExpmvRequest(pencil=square_pencil_8, b=b, eps=1e-4)
    )
    import json

    payload = json.loads(cert.to_json())
    assert payload["schema"] == "expmrect/certificate-v2"
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
    # without an analysis the driver encloses in mode "ii"
    assert ei.value.context["mode"] == "ii"


def test_driver_request_validation(square_pencil_8):
    with pytest.raises(ValueError):
        ExpmvRequest(pencil=square_pencil_8, b=np.ones(3), eps=2.0)
    with pytest.raises(ValueError):
        ExpmvRequest(pencil=square_pencil_8, b=np.ones(3), eps=1e-6, method="cf")
    # the driver's fixed settings are fields, not arguments, and the
    # enclosure's mode and seed are the analysis's alone
    for retired in ({"kappa_power": 0.5}, {"n_per_side": 500}, {"s_max": 64}, {"m_max": 128},
                    {"mode": "i"}, {"seed": 1}):
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


def test_request_rejects_b_of_wrong_length(square_pencil_8):
    # construction alone refuses it, before any enclosure runs
    with pytest.raises(DimensionMismatch, match="does not fit n=49"):
        ExpmvRequest(pencil=square_pencil_8, b=np.ones(48), eps=1e-6)


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
    # one analysis per mode serves every time step of the pencil, and the
    # certificate's mode is the analysis's
    for mode in ("ii", "i"):
        analysis = analyze_pencil(p.M, p.K, mode=mode)
        for tau in (p.tau, 10.0 * p.tau):
            q = Pencil(tau, p.M, p.K)
            x1, c1 = expmv_controlled(ExpmvRequest(pencil=q, b=b, eps=1e-6, method=method,
                                                   analysis=analysis))
            x2, c2 = expmv_controlled(ExpmvRequest(pencil=q, b=b, eps=1e-6, method=method,
                                                   analysis=analyze_pencil(q.M, q.K, mode=mode)))
            assert np.array_equal(x1, x2)
            assert c1.to_json() == c2.to_json()
            assert c1.mode == analysis.mode == mode
            if mode == "ii":  # the driver's own enclosure is the default analysis
                x3, c3 = expmv_controlled(ExpmvRequest(pencil=q, b=b, eps=1e-6, method=method))
                assert np.array_equal(x1, x3) and c1.to_json() == c3.to_json()


def test_expmv_rejects_mismatched_analysis(square_pencil_8, square_sys_8):
    p = square_pencil_8
    b = np.ones(p.n)
    analysis = analyze_pencil(p.M, p.K)
    ok = ExpmvRequest(pencil=Pencil(3.0 * p.tau, p.M, p.K.copy()), b=b, eps=1e-6,
                      analysis=analysis)
    assert ok.analysis is analysis
    other_d = fem.assemble_p1(square_sys_8.mesh, d=1e-3)
    other_n = fem.assemble_p1(fem.mesh_square(6), d=0.1)
    for sysm in (other_d, other_n):
        with pytest.raises(ValueError, match="different pencil"):
            expmv_controlled(ExpmvRequest(pencil=Pencil(p.tau, sysm.M, sysm.K), b=sysm.b0,
                                          eps=1e-6, analysis=analysis))


@pytest.mark.parametrize("mode", ["ii", "i"])
@pytest.mark.parametrize("method", ["sub-pade", "rat-interp"])
def test_certificate_carries_the_applied_approximant(square_sys_8, square_pencil_8, method, mode):
    p, b = square_pencil_8, square_sys_8.b0
    analysis = analyze_pencil(p.M, p.K, mode=mode)
    x, cert = expmv_controlled(ExpmvRequest(pencil=p, b=b, eps=1e-6, method=method,
                                            analysis=analysis))
    r = cert.approximant
    if method == "sub-pade":
        assert r.form is PADE45_CORE
        applied = apply_scaled_pade(pade45(scaling=r.scaling), p, b)
    else:
        assert r.scaling == 1
        applied = apply_partial_fraction(r.form, p, b)
    assert x.dtype == applied.dtype and x.tobytes() == applied.tobytes()
    assert (cert.degree, cert.achieved_bound, cert.scalar_target, cert.method) == (
        r.degree, r.sup_error_estimate, r.target, r.method)
    assert cert.method == method and cert.mode == mode
    assert set(json.loads(cert.to_json())) == {
        "schema", "rectangle", "kappa_safe", "kappa_power", "scalar_target", "achieved_bound",
        "operator_bound", "degree", "method", "mode", "eps"}
    # a second run builds its own approximant; the certificates compare and hash equal
    _, again = expmv_controlled(ExpmvRequest(pencil=p, b=b, eps=1e-6, method=method,
                                             analysis=analyze_pencil(p.M, p.K, mode=mode)))
    assert again == cert and hash(again) == hash(cert)


# --------------------------------------------------------------------------
# operator-norm bound verification
# --------------------------------------------------------------------------

def test_theorem_bound_holds_on_random_pencil(random_pencil_60):
    p = random_pencil_60
    for method in ("sub-pade", "rat-interp"):
        _, cert = expmv_controlled(ExpmvRequest(pencil=p, b=np.zeros(p.n), eps=1e-5,
                                                method=method))
        form = cert.approximant
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
