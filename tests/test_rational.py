"""Scaled subdiagonal Pade machinery and rectangle certification tests.

The coefficient oracle is recomputed here in exact rational arithmetic so a
typo in the closed form cannot hide; the scalar golden values were measured
once with this oracle in place and then frozen.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from expmrect.bounds import BoundingRectangle
from expmrect.errors import PoleInsideRegion, ScalingExhausted
from expmrect.rational import (
    PADE45_CORE,
    PADE45_DEN,
    PADE45_NUM,
    SAMPLING_SAFETY,
    UNIT_ROUNDOFF,
    CertifiedApproximant,
    PadeRational,
    PartialFractionRational,
    _sup_on_samples,
    boundary_samples,
    classify_conjugate_poles,
    eval_rational,
    pade45,
    select_scaling,
    sup_error_on_rectangle,
)

# |exp(1) - r45(1)| for the unscaled (4,5) approximant, measured once and
# frozen. The leading truncation term 4!5!/(9!10!) ~ 2.19e-9 underestimates
# the true gap because the series terms beyond it are not negligible at z=1.
R45_GAP_AT_ONE = 6.746947445179785e-09

UNIT_RECT = BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-0.5, nu_max=0.5)


def exact_pade45_coefficients():
    """(4,5) Pade coefficients of exp in exact arithmetic.

    p_j = (9-j)! 4! / (9! j! (4-j)!),  q_j = (-1)^j (9-j)! 5! / (9! j! (5-j)!)
    """
    f = math.factorial
    p = [Fraction(f(9 - j) * f(4), f(9) * f(j) * f(4 - j)) for j in range(5)]
    q = [Fraction((-1) ** j * f(9 - j) * f(5), f(9) * f(j) * f(5 - j)) for j in range(6)]
    return p, q


def test_pade45_coefficients_match_exact_fractions():
    p_exact, q_exact = exact_pade45_coefficients()
    assert len(PADE45_NUM) == len(p_exact) and len(PADE45_DEN) == len(q_exact)
    for got, want in zip(PADE45_NUM, p_exact):
        assert got == float(want)
    for got, want in zip(PADE45_DEN, q_exact):
        assert got == float(want)


def test_pade45_gap_at_one():
    num = np.polynomial.polynomial.polyval(1.0, PADE45_NUM)
    den = np.polynomial.polynomial.polyval(1.0, PADE45_DEN)
    gap = abs(math.e - num / den)
    assert 1e-9 <= gap <= 1e-8
    assert math.isclose(gap, R45_GAP_AT_ONE, rel_tol=1e-9)


def test_pade45_taylor_match_order():
    # the coefficients' ratio p/q agrees with exp through order 9, so the gap
    # at z shrinks like |z|^10 near the origin
    def gap(z):
        ratio = np.polynomial.polynomial.polyval(z, PADE45_NUM) / np.polynomial.polynomial.polyval(
            z, PADE45_DEN)
        return abs(ratio - np.exp(z))

    assert gap(0.1) <= 4e-16  # truncation ~6e-19 is invisible under roundoff
    ratio = gap(0.5) / gap(1.0)
    assert ratio < 2.0 ** (-9)


def test_pade_scaling_validation():
    with pytest.raises(ValueError):
        pade45(scaling=0)
    # the (4,5) coefficients are fixed: scaling is the only argument
    for retired in ({"num": PADE45_NUM}, {"den": PADE45_DEN}):
        with pytest.raises(TypeError):
            PadeRational(**retired)
    assert pade45(3) == PadeRational(scaling=3)


# --------------------------------------------------------------------------
# partial fraction form
# --------------------------------------------------------------------------

def _exact_ratio(z):
    # p(z)/q(z) from the exact coefficients, in extended precision
    p, q = exact_pade45_coefficients()
    num, den = (np.polynomial.polynomial.polyval(
        np.asarray(z, dtype=np.clongdouble),
        np.array([np.longdouble(c.numerator) / c.denominator for c in cs])) for cs in (p, q))
    return (num / den).astype(complex)


def test_partial_fraction_matches_ratio_form():
    pts = np.array([0.0, 1.0, -1.0, 1j, -10.0], dtype=complex)
    assert np.max(np.abs(eval_rational(PADE45_CORE, pts) - _exact_ratio(pts))) <= 1e-12


def test_pade45_core_is_the_ratio_to_working_precision():
    # np.roots alone left the form 5.2e-13 from p/q on the unit disk; the
    # polished poles and weights leave the rounding of the sum, about 2e-14
    pts = np.concatenate([r * np.exp(2j * np.pi * np.arange(64) / 64) for r in (0.0, 0.5, 1.0)])
    assert np.max(np.abs(eval_rational(PADE45_CORE, pts) - _exact_ratio(pts))) <= 5e-14


def test_scaled_pade_is_the_powered_core():
    # the certified form is the applied one: PADE45_CORE at z/s, to the power s
    zs = boundary_samples(UNIT_RECT, 20).samples
    core = PADE45_CORE.gamma + (PADE45_CORE.weights / (PADE45_CORE.poles - zs[:, None] / 3)).sum(
        axis=1)
    assert np.array_equal(eval_rational(pade45(3), zs), core**3)
    assert np.array_equal(eval_rational(pade45(1), zs), eval_rational(PADE45_CORE, zs))


def test_pade_poles_are_conjugate_closed_right_half_plane():
    pf = PADE45_CORE
    assert pf.degree == 5
    assert np.all(pf.poles.real > 0.0)
    classified = classify_conjugate_poles(pf.poles)
    assert classified is not None
    real_idx, pairs = classified
    assert len(real_idx) == 1 and len(pairs) == 2
    # simple roots, so the partial fraction form exists
    gaps = np.abs(pf.poles[:, None] - pf.poles[None, :])
    assert np.min(gaps[~np.eye(5, dtype=bool)]) > 1e-8


def test_classify_conjugate_poles_cases():
    ok = np.array([3.0 + 0.0j, 1.0 + 2.0j, 1.0 - 2.0j])
    real_idx, pairs = classify_conjugate_poles(ok)
    assert real_idx == [0]
    assert pairs == [(1, 2)]
    lone = np.array([1.0 + 2.0j, 1.0 - 2.0000001j])
    with pytest.raises(ValueError, match="no exact conjugate partner"):
        classify_conjugate_poles(lone)


def test_partial_fraction_validation():
    with pytest.raises(ValueError):
        PartialFractionRational(gamma=0.0, poles=np.array([1.0 + 1j]), weights=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PartialFractionRational(gamma=0.0, poles=np.array([np.inf + 0j]), weights=np.array([1.0 + 0j]))


@pytest.mark.parametrize("gamma,poles,weights,message", [
    (0.3, [2.0 + 1.0j, 3.0 - 0.5j, 4.0], [1.0 + 0.5j, -0.2 + 1.0j, 0.7], "no exact conjugate"),
    (0.3, [2.0 + 1.0j, 2.0 - 1.0j], [1.0 + 0.5j, 1.0 + 0.5j], "not conjugate"),
    (0.3, [4.0], [0.7 + 1e-17j], "real pole has a non-real weight"),
    (0.3 + 1e-300j, [4.0], [0.7], "gamma must be real"),
], ids=["lone-pole", "pair-weights-not-conjugate", "real-pole-complex-weight", "complex-gamma"])
def test_partial_fraction_rejects_forms_that_are_not_conjugate_symmetric(
    gamma, poles, weights, message
):
    # the apply stage does one solve per conjugate pair, which is exact only
    # for a conjugate-symmetric form, so no other form can be built
    with pytest.raises(ValueError, match=message):
        PartialFractionRational(gamma=gamma, poles=poles, weights=weights)


def test_partial_fraction_records_its_pairing():
    pf = PADE45_CORE
    assert isinstance(pf.gamma, float)
    assert len(pf.real_poles) == 1 and len(pf.pairs) == 2
    for i, j in pf.pairs:
        assert pf.poles[i].imag > 0.0 and pf.poles[j] == np.conj(pf.poles[i])


# --------------------------------------------------------------------------
# boundary sampling and sup certification
# --------------------------------------------------------------------------

def test_boundary_samples_lie_on_rectangle_and_mirror():
    rect = BoundingRectangle(mu_min=-3.0, mu_max=-0.5, nu_min=-1.25, nu_max=1.25)
    boundary = boundary_samples(rect, n_per_side=40)
    z = boundary.samples
    on_edge = (
        np.isclose(z.real, rect.mu_min)
        | np.isclose(z.real, rect.mu_max)
        | np.isclose(z.imag, rect.nu_min)
        | np.isclose(z.imag, rect.nu_max)
    )
    assert bool(np.all(on_edge))
    # a rectangle symmetric about the real axis must be sampled symmetrically
    mirrored = {complex(np.conj(s)) for s in z}
    assert {complex(s) for s in z} == mirrored


def test_boundary_samples_cluster_toward_corners():
    boundary = boundary_samples(UNIT_RECT, n_per_side=64)
    top = np.sort(np.unique(boundary.samples[np.isclose(boundary.samples.imag, 0.5)].real))
    gaps = np.diff(top)
    assert gaps[0] < gaps[len(gaps) // 2]  # Lobatto points tighten at the ends


def test_sup_error_zero_for_exact_function():
    # A rational that IS exp would have sup error 0; the closest available
    # check is that the certified sup of the Pade core shrinks with scaling.
    sup1 = sup_error_on_rectangle(pade45(1), UNIT_RECT)
    sup4 = sup_error_on_rectangle(pade45(4), UNIT_RECT)
    assert sup4 < sup1 * 1e-3


def test_fewer_than_two_samples_per_side_are_refused():
    # one sample per side gave mid-bottom and mid-top only, no corner, and a
    # "certified" sup of 1.73e-7 from those two points
    rect = BoundingRectangle(mu_min=-2.0, mu_max=-1.0, nu_min=-1.0, nu_max=1.0)
    for n in (0, 1):
        for call in (lambda: boundary_samples(rect, n),
                     lambda: sup_error_on_rectangle(pade45(1), rect, n),
                     lambda: select_scaling(rect, 1e-6, n_per_side=n)):
            with pytest.raises(ValueError, match="n_per_side"):
                call()
    corners = {complex(rect.mu_min, rect.nu_min), complex(rect.mu_max, rect.nu_max)}
    assert corners <= set(boundary_samples(rect, 2).samples.tolist())


def test_sup_error_rejects_pole_inside():
    pf = PartialFractionRational(
        gamma=0.0, poles=np.array([-0.5 + 0.0j]), weights=np.array([1.0 + 0.0j])
    )
    with pytest.raises(PoleInsideRegion):
        sup_error_on_rectangle(pf, UNIT_RECT)


def _exact_pf(pf, z):
    # gamma + sum_k w_k / (p_k - z) in exact rational arithmetic, rounded once
    def frac(x):
        return Fraction(float(x.real)), Fraction(float(x.imag))

    zr, zi = frac(z)
    re, im = frac(pf.gamma)
    for p, w in zip(pf.poles, pf.weights):
        (pr, pi), (wr, wi) = frac(p), frac(w)
        dr, di = pr - zr, pi - zi
        den = dr * dr + di * di
        re += (wr * dr + wi * di) / den
        im += (wi * dr - wr * di) / den
    return complex(float(re), float(im))


def test_rounding_term_covers_evaluation_noise():
    # two pairs of close poles with weights +-1e9: the terms are about 1e9
    # and cancel to about 1e-1, so float64 evaluation is off by ~1e-8, far
    # above the 1e-17 noise of the Pade ratio form
    pf = PartialFractionRational(
        gamma=0.25 + 0.0j,
        poles=np.array([2.0 + 1.0j, 2.0 + 1.0j + 1e-9, 2.0 - 1.0j, 2.0 - 1.0j + 1e-9]),
        weights=np.array([1e9 + 3.0j, -1e9 - 3.0j, 1e9 - 3.0j, -1e9 + 3.0j]),
    )
    zs = boundary_samples(UNIT_RECT, 50).samples
    noise = np.abs(eval_rational(pf, zs) - np.array([_exact_pf(pf, z) for z in zs]))
    assert noise.max() > 1e-10
    amp = abs(pf.gamma) + np.abs(pf.weights / (pf.poles - zs[:, None])).sum(axis=1)
    rounding = UNIT_ROUNDOFF * float(amp.max())
    assert noise.max() <= rounding
    with np.errstate(over="ignore", invalid="ignore"):
        sampled = np.abs(eval_rational(pf, zs) - np.exp(zs)).max()
    assert _sup_on_samples(pf, zs) == SAMPLING_SAFETY * sampled + (1.0 + SAMPLING_SAFETY) * rounding
    # a scaled form carries its core's rounding term delta at z/s through the
    # power s: s (|v| + delta)**(s - 1) delta, v the core's value
    core = PADE45_CORE
    terms = core.weights / (core.poles - zs[:, None] / 4)
    v = terms.sum(axis=1)
    delta = (1.0 + SAMPLING_SAFETY) * UNIT_ROUNDOFF * np.abs(terms).sum(axis=1)
    powered = 4 * (np.abs(v) + delta) ** 3 * delta
    sampled = np.abs(v**4 - np.exp(zs)).max()
    assert _sup_on_samples(pade45(4), zs) == SAMPLING_SAFETY * sampled + powered.max()
    assert powered.max() > 0.0


def test_select_scaling_monotone_in_target():
    rect = BoundingRectangle(mu_min=-30.0, mu_max=-0.1, nu_min=-3.0, nu_max=3.0)
    s_loose = select_scaling(rect, 1e-4)
    s_tight = select_scaling(rect, 1e-10)
    assert 1 <= s_loose <= s_tight
    # certified: the returned scaling really meets its target
    assert sup_error_on_rectangle(pade45(s_tight), rect) <= 1e-10


def test_select_scaling_exhausts_honestly():
    rect = BoundingRectangle(mu_min=-2000.0, mu_max=-0.1, nu_min=-300.0, nu_max=300.0)
    with pytest.raises(ScalingExhausted) as ei:
        select_scaling(rect, 1e-14, s_max=8)
    assert ei.value.context["s_max"] == 8


def test_select_scaling_validates_target():
    with pytest.raises(ValueError):
        select_scaling(UNIT_RECT, 0.0)


# --------------------------------------------------------------------------
# certified approximant container
# --------------------------------------------------------------------------

def test_certified_approximant_rejects_broken_certificate():
    pf = PADE45_CORE
    with pytest.raises(ValueError):
        CertifiedApproximant(form=pf, sup_error_estimate=1e-3, target=1e-6, method="sub-pade")
