"""End-to-end acceptance suite.

Eight numbered criteria, one test and one printed verdict line each, run
against four generated P1 advection-diffusion systems (unit square at 32
divisions, five-pointed star at refinement 4, diffusion 1e-1 and 1e-3,
n = 961 and 945). Every accuracy statement is measured against the dense
oracle, SciPy's scaling-and-squaring ``expm``, never against the pipeline
under test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they are produced (they are also shown for any failing criterion).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from expmrect import bounds, fem
from expmrect.aaa import aaa_poles, refit_partial_fractions
from expmrect.bounds import (
    Pencil,
    PencilAnalysis,
    analyze_pencil,
    bounding_rectangle,
    raw_extremes,
    split,
)
from expmrect.errors import DegreeExhausted, RefitFailed, ScalingExhausted
from expmrect.expmv import (
    ExpmvRequest,
    expm_dense_oracle,
    expmv_controlled,
)
from expmrect.linalg import lu_factor, norm2
from expmrect.rational import (
    PADE45_DEN,
    PADE45_NUM,
    boundary_samples,
    classify_conjugate_poles,
    eval_rational,
    pade45,
)

from conftest import random_nonsym_sparse, random_spd_sparse
from theorem1 import theorem1_bound_check

EPS_GRID = (1e-2, 1e-4, 1e-6, 1e-8)
METHODS = ("sub-pade", "rat-interp")
FAILURE_TYPES = (ScalingExhausted, DegreeExhausted, RefitFailed)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@dataclass
class FixtureSystem:
    name: str
    mesh: fem.TriMesh
    domain: str
    d: float
    system: fem.AssembledSystem
    pencils: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict)
    analyses: dict = field(default_factory=dict)

    def pencil(self, tau_factor: float) -> Pencil:
        if tau_factor not in self.pencils:
            tau = tau_factor * self.mesh.h_bar
            self.pencils[tau_factor] = Pencil(tau, self.system.M, self.system.K)
        return self.pencils[tau_factor]

    def analysis(self, mode: str) -> PencilAnalysis:
        """The tau-independent enclosure in ``mode``, shared by every run in
        that mode."""
        if mode not in self.analyses:
            self.analyses[mode] = analyze_pencil(self.system.M, self.system.K, mode=mode)
        return self.analyses[mode]

    def exact(self, tau_factor: float) -> np.ndarray:
        if tau_factor not in self.oracles:
            p = self.pencil(tau_factor)
            A = p.tau * lu_factor(p.M).solve(p.K.toarray())
            self.oracles[tau_factor] = expm_dense_oracle(A) @ self.system.b0
        return self.oracles[tau_factor]


class AcceptanceRunner:
    """Builds the fixture systems lazily, encloses each once, and caches
    every expmv_controlled run."""

    def __init__(self):
        self._systems: dict[str, FixtureSystem] = {}
        self._runs: dict = {}

    def systems(self) -> list[FixtureSystem]:
        if not self._systems:
            square = fem.mesh_square(32)
            star = fem.mesh_star(refine=4)
            for mesh, domain in ((square, "square"), (star, "star")):
                for d in (1e-1, 1e-3):
                    name = f"{domain}-d{d:g}"
                    self._systems[name] = FixtureSystem(
                        name=name,
                        mesh=mesh,
                        domain=domain,
                        d=d,
                        system=fem.assemble_p1(mesh, d=d, domain=domain),
                    )
        return list(self._systems.values())

    def run(self, fx: FixtureSystem, tau_factor: float, method: str, mode: str,
            eps: float):
        """(status, degree, certified_bound, measured_error) with caching.

        status is "ok" or the failure type name; measured_error is the
        relative error against the dense oracle (None on failure).
        """
        key = (fx.name, tau_factor, method, mode, eps)
        if key in self._runs:
            return self._runs[key]
        req = ExpmvRequest(
            pencil=fx.pencil(tau_factor), b=fx.system.b0, eps=eps,
            method=method, analysis=fx.analysis(mode),
        )
        try:
            x, cert = expmv_controlled(req)
        except FAILURE_TYPES as exc:
            result = (type(exc).__name__, None, None, None)
        else:
            err = norm2(x - fx.exact(tau_factor)) / norm2(fx.system.b0)
            result = ("ok", cert.degree, cert.achieved_bound, err)
        self._runs[key] = result
        return result


@pytest.fixture(scope="module")
def runner():
    return AcceptanceRunner()


def test_criterion_1_tolerance_compliance(runner):
    """tau = h_bar, eps grid, both methods: 32/32 runs meet eps."""
    failures = []
    worst = (0.0, "")
    total = 0
    for fx in runner.systems():
        assert 300 <= fx.system.n <= 2500
        for method in METHODS:
            for eps in EPS_GRID:
                total += 1
                status, _, _, err = runner.run(fx, 1.0, method, "ii", eps)
                if status != "ok" or err > eps:
                    failures.append(f"{fx.name}/{method}/eps={eps:g}: {status} err={err}")
                elif err / eps > worst[0]:
                    worst = (err / eps, f"{fx.name}/{method}/eps={eps:g}")
    ok = not failures and total == 32
    verdict(1, ok, f"{total - len(failures)}/{total} runs met eps at tau=h_bar; "
                   f"worst error/eps = {worst[0]:.3f} ({worst[1]})"
                   + (f"; failures: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_2_large_step_no_silent_violations(runner):
    """tau = 10 h_bar: every run meets eps or fails with a typed certificate."""
    silent = []
    explicit = []
    total = 0
    for fx in runner.systems():
        for method in METHODS:
            for eps in EPS_GRID:
                total += 1
                status, _, _, err = runner.run(fx, 10.0, method, "ii", eps)
                if status == "ok":
                    if err > eps:
                        silent.append(f"{fx.name}/{method}/eps={eps:g}: err={err:.3e}")
                else:
                    explicit.append(f"{fx.name}/{method}/eps={eps:g}: {status}")
    ok = not silent and total == 32
    verdict(2, ok, f"{total} runs at tau=10*h_bar: {total - len(explicit)} met eps, "
                   f"{len(explicit)} explicit failures ({explicit}), "
                   f"{len(silent)} silent violations" + (f": {silent}" if silent else ""))
    assert ok, silent


def test_criterion_3_degree_dominance(runner):
    """At eps = 1e-6 mode (ii) never needs a higher degree than mode (i),
    and at tau = 10 h_bar some mode (i) run fails where mode (ii) succeeds."""
    violations = []
    dash_pattern = []
    compared = 0
    for fx in runner.systems():
        for tf in (1.0, 10.0):
            for method in METHODS:
                s_i, deg_i, _, _ = runner.run(fx, tf, method, "i", 1e-6)
                s_ii, deg_ii, _, _ = runner.run(fx, tf, method, "ii", 1e-6)
                if s_i == "ok" and s_ii == "ok":
                    compared += 1
                    if deg_ii > deg_i:
                        violations.append(
                            f"{fx.name}/tau={tf:g}h/{method}: (ii) {deg_ii} > (i) {deg_i}"
                        )
                if tf == 10.0 and s_i != "ok" and s_ii == "ok":
                    dash_pattern.append(f"{fx.name}/{method}: (i) {s_i}, (ii) degree {deg_ii}")
    ok = not violations and bool(dash_pattern)
    verdict(3, ok, f"degree (ii) <= degree (i) in {compared} comparable cells"
                   + (f"; violations: {violations}" if violations else "")
                   + f"; mode (i) fails where (ii) succeeds at tau=10*h_bar: "
                     f"{dash_pattern if dash_pattern else 'NONE'}")
    assert ok, (violations, dash_pattern)


def test_criterion_4_left_half_plane_certification(runner):
    """mu_max <= 0 for every advection-diffusion pencil, confirmed densely."""
    checked = 0
    bad = []
    extra = [
        fem.assemble_p1(fem.mesh_square(8), d=1.0),
        fem.assemble_p1(fem.mesh_square(12), d=1e-2),
        fem.assemble_p1(fem.mesh_star(refine=2), d=1e-1, domain="star"),
        fem.assemble_p1(fem.mesh_star(refine=1), d=1e-3, domain="star"),
    ]
    # the fixture systems' extremes are the ones their mode-(ii) runs reused
    enclosed = [(fx.system, fx.analysis("ii").extremes) for fx in runner.systems()] + [
        (sysm, raw_extremes(sysm.M, sysm.K)) for sysm in extra
    ]
    for sysm, ext in enclosed:
        checked += 1
        if ext.mu_max > 0.0:
            bad.append(f"n={sysm.n}: mu_max={ext.mu_max:.3e}")
            continue
        # independent dense confirmation that sym(K) is negative definite
        D = split(sysm.K).D.toarray()
        top = float(np.max(np.linalg.eigvalsh(0.5 * (D + D.T))))
        if top >= 0.0:
            bad.append(f"n={sysm.n}: dense top eig of D = {top:.3e}")
    ok = not bad
    verdict(4, ok, f"mu_max <= 0 and sym(K) negative definite for {checked}/{checked} "
                   f"pencils" + (f"; offenders: {bad}" if bad else ""))
    assert ok, bad


def test_criterion_5_spectral_set_inequality():
    """||r(A) - exp(A)||_2 <= (1+sqrt2) kappa(M)^(1/2) sup-estimate on 20
    random non-normal desk-scale pencils."""
    checked = 0
    bad = []
    margins = []
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(40, 180))
        M = random_spd_sparse(n, rng)
        K = random_nonsym_sparse(n, rng)
        p = Pencil(float(rng.uniform(0.2, 1.5)), M, K)
        method = METHODS[trial % 2]
        _, cert = expmv_controlled(ExpmvRequest(pencil=p, b=np.zeros(n), eps=1e-5,
                                                method=method))
        report = theorem1_bound_check(p, cert.approximant)
        checked += 1
        margins.append(report.lhs / report.rhs if report.rhs > 0 else math.inf)
        if not report.passed:
            bad.append(f"trial {trial} ({method}, n={n}): lhs={report.lhs:.3e} rhs={report.rhs:.3e}")
    ok = not bad and checked == 20
    verdict(5, ok, f"inequality held in {checked - len(bad)}/{checked} trials; "
                   f"largest lhs/rhs = {max(margins):.3e}"
                   + (f"; offenders: {bad}" if bad else ""))
    assert ok, bad


def test_criterion_6_rectangle_containment_and_iterative_agreement():
    """Dense spectrum and transformed Rayleigh quotients lie inside the
    rectangle; every proved edge lies outside the dense extreme, and within
    the widest shift of the proof's ladder (6.4%) of it."""
    escapes = []
    agree_fail = []
    pencils = []
    for mesh, domain in ((fem.mesh_square(12), "square"), (fem.mesh_star(refine=3), "star")):
        for d in (1e-1, 1e-3):
            sysm = fem.assemble_p1(mesh, d=d, domain=domain)
            pencils.append((f"{domain}-d{d:g}", Pencil(mesh.h_bar, sysm.M, sysm.K)))
    rng = np.random.default_rng(0)
    for name, p in pencils:
        assert p.n <= 500
        rect = bounding_rectangle(p)
        A = p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())
        for lam in np.linalg.eigvals(A):
            if not rect.contains(complex(lam)):
                escapes.append(f"{name}: eigenvalue {lam:.6g} outside")
        L = np.linalg.cholesky(p.M.toarray())
        A_hat = p.tau * np.linalg.solve(L, np.linalg.solve(L, p.K.toarray()).T).T
        Z = rng.standard_normal((p.n, 10_000)) + 1j * rng.standard_normal((p.n, 10_000))
        quots = np.einsum("ij,ij->j", Z.conj(), A_hat @ Z) / np.einsum(
            "ij,ij->j", Z.conj(), Z
        )
        outside = [q for q in quots if not rect.contains(complex(q))]
        if outside:
            escapes.append(f"{name}: {len(outside)} Rayleigh quotients outside")
        T = np.linalg.solve(L, np.linalg.solve(L, p.K.toarray()).T).T
        mu = np.linalg.eigvalsh(0.5 * (T + T.T))
        dense_nu = float(np.linalg.eigvalsh(-0.5j * (T - T.T))[-1])
        ext = raw_extremes(p.M, p.K)
        widest = 4**bounds.BRACKET_WIDENINGS * bounds.BRACKET_DELTA
        for what, edge, dense, side in (("min", ext.mu_min, mu[0], -1.0),
                                        ("max", ext.mu_max, mu[-1], 1.0),
                                        ("skew", ext.nu_max, dense_nu, 1.0)):
            if not 0.0 < side * (edge - dense) <= widest * abs(dense):
                agree_fail.append(f"{name}/{what}: {side * (edge - dense) / abs(dense):.2e}")
    ok = not escapes and not agree_fail
    verdict(6, ok, f"{len(pencils)} pencils: spectrum + 10^4 Rayleigh quotients inside "
                   f"rectangles; every proved edge outside the dense extreme, within 6.4%"
                   + (f"; escapes: {escapes}" if escapes else "")
                   + (f"; agreement failures: {agree_fail}" if agree_fail else ""))
    assert ok, (escapes, agree_fail)


def test_criterion_7_scalar_golden_values():
    """Pade gap at 1, partial-fraction agreement, AAA certified degree."""
    problems = []
    r = pade45()
    num = np.polynomial.polynomial.polyval(1.0, PADE45_NUM)
    den = np.polynomial.polynomial.polyval(1.0, PADE45_DEN)
    gap = abs(math.e - num / den)
    if not (1e-9 <= gap <= 1e-8):
        problems.append(f"|e - r45(1)| = {gap:.6e} outside [1e-9, 1e-8]")
    pts = np.array([0.0, 1.0, -1.0, 1j, -10.0], dtype=complex)
    ratio = np.polynomial.polynomial.polyval(pts, PADE45_NUM) / np.polynomial.polynomial.polyval(
        pts, PADE45_DEN)
    agreement = float(np.max(np.abs(eval_rational(r, pts) - ratio)))
    if agreement > 1e-12:
        problems.append(f"pf/ratio disagreement {agreement:.3e} > 1e-12")
    from expmrect.bounds import BoundingRectangle

    rect = BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-0.5, nu_max=0.5)
    poles = aaa_poles(boundary_samples(rect, 250), 1e-8)
    cert = refit_partial_fractions(poles, boundary_samples(rect, 500), 1e-8)
    if cert.degree > 8:
        problems.append(f"AAA degree {cert.degree} > 8 on the golden rectangle")
    if cert.sup_error_estimate > 1e-8:
        problems.append(f"certified sup {cert.sup_error_estimate:.3e} > 1e-8")
    ok = not problems
    verdict(7, ok, f"|e - r45(1)| = {gap:.3e}; pf agreement {agreement:.2e}; "
                   f"AAA degree {cert.degree} certified {cert.sup_error_estimate:.2e}"
                   + (f"; problems: {problems}" if problems else ""))
    assert ok, problems


def test_criterion_8_oracle_validity():
    """Dense scaling-and-squaring vs 30-term Taylor at small norms."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((8, 8))
        A *= 0.5 / np.linalg.norm(A, 1)
        T = np.eye(8)
        term = np.eye(8)
        for k in range(1, 31):
            term = term @ A / k
            T = T + term
        worst = max(worst, float(np.linalg.norm(expm_dense_oracle(A) - T, 2)))
    ok = worst <= 1e-13
    verdict(8, ok, f"max ||expm - taylor30||_2 = {worst:.3e} over 20 random 8x8 "
                   f"matrices with ||A||_1 <= 0.5")
    assert ok, worst
