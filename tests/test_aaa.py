"""Greedy rational interpolation, double-double refinement, certified refit.

The error-free transform primitives are checked in exact arithmetic with
hypothesis; the interpolation pipeline is checked end to end on the
rectangle whose certified degree is part of the package's golden values.
"""
from __future__ import annotations

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from expmrect import aaa
from expmrect.aaa import (
    M_MAX,
    _aaa_on_samples,
    _barycentric_poles,
    _conjugate_permutation,
    _dd_residual,
    _filter_poles,
    _two_prod,
    _two_sum,
    aaa_poles,
    refit_partial_fractions,
)
from expmrect import fem
from expmrect.bounds import BoundingRectangle, cond_estimate, raw_extremes, rectangle_from_extremes
from expmrect.errors import DegreeExhausted, PoleInsideRegion, RefitFailed
from expmrect.expmv import AAA_SAMPLES_PER_SIDE, CROUZEIX_CONSTANT
from expmrect.rational import (
    DEFAULT_SAMPLES_PER_SIDE,
    boundary_samples,
    classify_conjugate_poles,
    eval_rational,
    sup_error_on_rectangle,
)

GOLDEN_RECT = BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-0.5, nu_max=0.5)

finite_floats = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)

# Dekker's product transform is exact only while a*b neither overflows nor
# falls into the subnormal range where the error term is unrepresentable.
normal_range_floats = st.floats(
    min_value=1e-120, max_value=1e120, allow_nan=False, allow_infinity=False
) | st.floats(
    min_value=-1e120, max_value=-1e-120, allow_nan=False, allow_infinity=False
)


@given(finite_floats, finite_floats)
def test_two_sum_is_exact(a, b):
    s, e = _two_sum(a, b)
    assert Fraction(a) + Fraction(b) == Fraction(s) + Fraction(e)


@given(normal_range_floats, normal_range_floats)
@settings(max_examples=200)
def test_two_prod_is_exact(a, b):
    p, e = _two_prod(a, b)
    assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)


def test_dd_accumulator_beats_naive_summation():
    # alternating huge/tiny/-huge terms whose exact sum is 11; plain float64
    # accumulation swallows every one of the tiny contributions
    terms = np.array([[1e16, 1.0, -1e16] * 11])
    naive = 0.0
    for term in terms[0]:
        naive += term
    assert float(_dd_residual(terms, -np.ones(terms.shape[1]), np.zeros(1))[0]) == 11.0
    assert naive == 0.0


def test_dd_accumulator_product_terms():
    # -1e16 - (1e8 + 1) * -(1e8 - 1), exactly -1
    got = _dd_residual(np.array([[1e8 + 1.0]]), np.array([-(1e8 - 1.0)]), np.array([-1e16]))
    assert float(got[0]) == -1.0


# rectangles symmetric about the real axis, flat ones and nu_max = 0 (a real
# segment or a point) included; a side is either 0 or long enough that its
# samples stay distinct after rounding
symmetric_rectangles = st.builds(
    lambda mu_min, width, nu_max: BoundingRectangle(
        mu_min=mu_min, mu_max=mu_min + width, nu_min=-nu_max, nu_max=nu_max
    ),
    st.floats(min_value=-8.0, max_value=0.0),
    st.sampled_from([0.0]) | st.floats(min_value=1e-6, max_value=8.0),
    st.sampled_from([0.0]) | st.floats(min_value=1e-6, max_value=3.0),
)


@given(symmetric_rectangles, st.integers(min_value=20, max_value=60))
@settings(max_examples=100, deadline=None)
def test_symmetric_rectangles_give_conjugate_closed_samples_and_poles(rect, n_per_side):
    z = boundary_samples(rect, n_per_side).samples
    assert {complex(s) for s in z} == {complex(np.conj(s)) for s in z}
    poles = aaa_poles(boundary_samples(rect, n_per_side), 1e-6)
    classify_conjugate_poles(poles)  # raises unless exactly closed
    assert not np.any(rect.contains(poles))


@given(symmetric_rectangles, st.integers(min_value=20, max_value=60))
@settings(max_examples=100, deadline=None)
def test_aaa_weights_are_exactly_conjugate_symmetric(rect, n_per_side):
    # the first fit aaa_poles makes; a support point's conjugate carries the
    # conjugate weight exactly, with no projection afterwards
    z = boundary_samples(rect, n_per_side).samples
    _, support, fsupp, w = _aaa_on_samples(z, np.exp(z), 0.5e-6, M_MAX, rect)
    conj = _conjugate_permutation(support)  # raises unless support is closed
    assert np.array_equal(w[conj], np.conj(w))
    assert np.array_equal(fsupp[conj], np.conj(fsupp))


def _conjugate_permutation_by_dict(points):
    """The dict loop that ``_conjugate_permutation`` replaced, kept as its
    reference: a repeated point maps to its last occurrence."""
    lookup = {complex(p): i for i, p in enumerate(points)}
    perm = np.empty(points.size, dtype=int)
    for i, p in enumerate(points):
        j = lookup.get(complex(np.conj(p)))
        if j is None:
            raise ValueError(f"sample {p} has no exact conjugate in the sample set")
        perm[i] = j
    return perm


def _map_or_message(f, points):
    try:
        return f(points).tolist()
    except ValueError as exc:
        return str(exc)


# few distinct parts, so points repeat and both signed zeros occur
_parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])
_points = st.lists(st.builds(complex, _parts, _parts), max_size=12)
conjugate_test_sets = (
    _points
    | _points.flatmap(lambda zs: st.permutations(zs + [z.conjugate() for z in zs]))
).map(lambda zs: np.array(zs, dtype=complex)) | st.builds(
    lambda rect, n: boundary_samples(rect, n).samples,
    symmetric_rectangles,
    st.integers(min_value=2, max_value=60),
)


@given(conjugate_test_sets)
@settings(max_examples=300, deadline=None)
def test_conjugate_permutation_matches_dict_loop(points):
    want = _map_or_message(_conjugate_permutation_by_dict, points)
    assert _map_or_message(_conjugate_permutation, points) == want


def test_conjugate_permutation_maps_repeats_to_last_and_names_a_missing_conjugate():
    assert _conjugate_permutation(np.array([1 + 1j, 1 - 1j, 1 + 1j, -0.0 + 0j])).tolist() == [
        1, 2, 1, 3,
    ]
    with pytest.raises(ValueError, match=r"sample \(2\+1j\) has no exact conjugate"):
        _conjugate_permutation(np.array([3 + 0j, 1 + 2j, 2 + 1j, 1 - 2j, 5 + 1j]))


# --------------------------------------------------------------------------
# greedy interpolation + certified refit
# --------------------------------------------------------------------------

def test_aaa_poles_golden_rectangle():
    boundary = boundary_samples(GOLDEN_RECT, 120)
    target = 1e-8 / (1.0 + np.sqrt(2.0))
    poles = aaa_poles(boundary, target)
    assert poles.size <= 8
    assert classify_conjugate_poles(poles) is not None
    for p in poles:
        assert not GOLDEN_RECT.contains(p)


def _enclosed_rect(mu_min, mu_max, nu_max):
    return BoundingRectangle(mu_min=mu_min, mu_max=mu_max, nu_min=-nu_max, nu_max=nu_max)


_EPS_2, _EPS_6 = 0.002020927287067057, 2.0209272870670566e-07  # eps / (CROUZEIX kappa**0.5)
WIDE_RECT = BoundingRectangle(mu_min=-35.0, mu_max=-0.2, nu_min=-2.5, nu_max=2.5)

# (rectangle, samples per side, target, degree). The first 13 are the
# rat-interp cells of perfbench's approx-apply workload at seed 0:
# square/64, d = 0.1 then 1e-3, tau = h, 10h, 30h, eps = 1e-2 and 1e-6, and
# last square/32 d=1e-3, tau=10h, eps=1e-8. Their rectangles and targets
# are the enclosure's floats, recorded literally.
DEGREE_TABLE = [
    (_enclosed_rect(-188.18832208323676, -0.035008038584677416, 2.517966556973196),
     125, _EPS_2, 7),
    (_enclosed_rect(-188.18832208323676, -0.035008038584677416, 2.517966556973196),
     125, _EPS_6, 11),
    (_enclosed_rect(-1881.8832208323677, -0.3500803858467742, 25.17966556973196),
     125, _EPS_2, 15),
    (_enclosed_rect(-1881.8832208323677, -0.3500803858467742, 25.17966556973196),
     125, _EPS_6, 19),
    (_enclosed_rect(-5645.649662497103, -1.0502411575403228, 75.53899670919589),
     125, _EPS_2, 31),
    (_enclosed_rect(-5645.649662497103, -1.0502411575403228, 75.53899670919589),
     125, _EPS_6, 37),
    (_enclosed_rect(-1.8818832208323666, -0.00035008038584677587, 2.517966556973202),
     125, _EPS_2, 5),
    (_enclosed_rect(-1.8818832208323666, -0.00035008038584677587, 2.517966556973202),
     125, _EPS_6, 7),
    (_enclosed_rect(-18.81883220832367, -0.003500803858467759, 25.179665569732023),
     125, _EPS_2, 13),
    (_enclosed_rect(-18.81883220832367, -0.003500803858467759, 25.179665569732023),
     125, _EPS_6, 17),
    (_enclosed_rect(-56.456496624971, -0.010502411575403277, 75.53899670919606),
     125, _EPS_2, 31),
    (_enclosed_rect(-56.456496624971, -0.010502411575403277, 75.53899670919606),
     125, _EPS_6, 37),
    (_enclosed_rect(-9.356125156995814, -0.00700565541764708, 25.00342077395273),
     125, 2.0278192428949655e-09, 19),
    (GOLDEN_RECT, 120, 1e-8 / (1.0 + np.sqrt(2.0)), 5),
    (GOLDEN_RECT, 200, 1e-8, 5),
    (WIDE_RECT, 300, 1e-6 / ((1.0 + np.sqrt(2.0)) * 2.0), 9),
]


@pytest.mark.parametrize("rect, n_per_side, target, degree", DEGREE_TABLE)
def test_aaa_degree_is_pinned(rect, n_per_side, target, degree):
    assert aaa_poles(boundary_samples(rect, n_per_side), target).size == degree


def _complex_arrowhead_poles(support, w):
    """Finite eigenvalues of the complex arrowhead pencil, the construction
    the real one replaced, kept as its reference."""
    m = support.size
    E = np.zeros((m + 1, m + 1), dtype=complex)
    E[0, 1:] = w
    E[1:, 0] = 1.0
    E[1:, 1:] = np.diag(support)
    B = np.eye(m + 1)
    B[0, 0] = 0.0
    eigs = scipy.linalg.eigvals(E, B)
    return eigs[np.isfinite(eigs)]


@pytest.mark.parametrize("rect, n_per_side, target, degree", DEGREE_TABLE)
def test_barycentric_poles_are_exactly_conjugate_closed(rect, n_per_side, target, degree):
    # the first fit aaa_poles makes on the row's samples
    z = boundary_samples(rect, n_per_side).samples
    _, support, _, w = _aaa_on_samples(z, np.exp(z), 0.5 * target, M_MAX, rect)
    poles = _barycentric_poles(support, w)
    assert np.array_equal(poles[_conjugate_permutation(poles)], np.conj(poles))
    if rect in (GOLDEN_RECT, WIDE_RECT):
        # not on the degree-37 rows, whose ill-conditioned poles differ by 3e-3
        ref = _complex_arrowhead_poles(support, w)
        assert ref.size == poles.size
        dist = np.abs(poles[:, None] - ref[None, :])
        assert np.all(dist.min(axis=1) <= 1e-7 * np.abs(poles))
        assert np.all(dist.min(axis=0) <= 1e-7 * np.abs(ref))


def test_aaa_memory_follows_the_degree_not_the_cap(monkeypatch):
    # the fit's arrays grow with its support points; columns for M_MAX of
    # them would take about 25 MB at this sample count
    densities = []

    def recording(rect, n):
        densities.append(n)
        return boundary_samples(rect, n)

    monkeypatch.setattr(aaa, "boundary_samples", recording)
    tracemalloc.start()
    try:
        poles = aaa_poles(boundary_samples(WIDE_RECT, 1000), 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the given 1000 per side are fitted as they are; only 2000 is resampled
    assert densities == [2000] and poles.size <= 11
    samples = boundary_samples(WIDE_RECT, 2000).samples.size  # 7996
    assert peak <= 100 * samples * (poles.size + 1)


def test_refit_certifies_golden_rectangle():
    boundary = boundary_samples(GOLDEN_RECT, 120)
    target = 1e-8 / (1.0 + np.sqrt(2.0))
    poles = aaa_poles(boundary, target)
    cert = refit_partial_fractions(poles, boundary_samples(GOLDEN_RECT, 500), target)
    assert cert.sup_error_estimate <= target
    assert cert.method == "rat-interp"
    assert cert.degree == poles.size
    # weight conjugate closure is exact, not approximate
    real_idx, pairs = classify_conjugate_poles(cert.form.poles)
    for i, j in pairs:
        assert cert.form.weights[i] == np.conj(cert.form.weights[j])
    for i in real_idx:
        assert cert.form.weights[i].imag == 0.0
    assert cert.form.gamma.imag == 0.0


def test_refit_evaluates_close_to_exp_inside():
    boundary = boundary_samples(GOLDEN_RECT, 200)
    target = 1e-8
    poles = aaa_poles(boundary, target)
    cert = refit_partial_fractions(poles, boundary, target)
    # maximum principle: interior error of the analytic difference is
    # bounded by the boundary sup
    zs = np.array([-0.5 + 0.25j, -0.1 - 0.4j, -0.9 + 0.0j])
    err = np.abs(eval_rational(cert.form, zs) - np.exp(zs))
    assert float(err.max()) <= cert.sup_error_estimate


def _dense_boundary(rect, n_per_side):
    # each side: n_per_side uniform points plus as many cosine-clustered ones
    t = np.linspace(0.0, 1.0, n_per_side)
    t = np.concatenate([t, 0.5 - 0.5 * np.cos(np.pi * t)])
    xs = rect.mu_min + (rect.mu_max - rect.mu_min) * t
    ys = rect.nu_min + (rect.nu_max - rect.nu_min) * t
    return np.concatenate([xs + 1j * rect.nu_min, xs + 1j * rect.nu_max,
                           rect.mu_min + 1j * ys, rect.mu_max + 1j * ys])


@pytest.mark.parametrize("divisions,tau_factor,eps,seed,certifies", [
    (32, 10, 1e-8, 0, False),  # degree 19, sum |w_k| ~ 1.5e8
    (64, 30, 1e-6, 1, True),  # degree 37, sum |w_k| ~ 1.5e9, ARPACK enclosure
    (64, 30, 1e-6, 5, True),
])
def test_refit_certificate_covers_forty_times_denser_resampling(
    divisions, tau_factor, eps, seed, certifies
):
    # d = 1e-3 cells whose fitted terms exceed the certified error by
    # 10**8-10**9, so rounding noise in |r - exp| exceeded the sampled
    # certificate on a denser resampling until the certificate counted it
    s = fem.assemble_p1(fem.mesh_square(divisions), d=1e-3)
    tau = tau_factor * s.mesh.h_bar
    rect = rectangle_from_extremes(raw_extremes(s.M, s.K, seed=seed), tau)
    kappa = cond_estimate(s.M, seed=seed).kappa_safe
    target = eps / (CROUZEIX_CONSTANT * kappa**0.5)
    poles = aaa_poles(boundary_samples(rect, AAA_SAMPLES_PER_SIDE), target)
    boundary = boundary_samples(rect, DEFAULT_SAMPLES_PER_SIDE)
    cert = refit_partial_fractions(poles, boundary, 1.0)
    assert np.sum(np.abs(cert.form.weights)) > 1e8
    z = _dense_boundary(rect, 40 * DEFAULT_SAMPLES_PER_SIDE)
    dense_sup = float(np.max(np.abs(eval_rational(cert.form, z) - np.exp(z))))
    assert dense_sup <= cert.sup_error_estimate
    if certifies:
        assert refit_partial_fractions(poles, boundary, target).sup_error_estimate <= target
    else:
        # the noise is about the target: an honest failure
        with pytest.raises(RefitFailed):
            refit_partial_fractions(poles, boundary, target)


def test_refit_fails_honestly_at_impossible_target():
    boundary = boundary_samples(GOLDEN_RECT, 120)
    poles = aaa_poles(boundary, 1e-8)
    with pytest.raises(RefitFailed) as ei:
        refit_partial_fractions(poles, boundary_samples(GOLDEN_RECT, 400), 1e-30)
    assert ei.value.context["target"] == 1e-30


def test_refit_with_a_pole_at_rounding_distance_fails_typed():
    # AAA places a real pole at 7.2e-19, just right of mu_max = 0: outside
    # the rectangle, but on a certification sample to rounding. That
    # PoleEvaluation used to escape, and run_sweep recorded no row.
    rect = BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-1e-300, nu_max=1e-300)
    poles = aaa_poles(boundary_samples(rect, 20), 1e-2)
    assert 0.0 < np.abs(poles).min() < 1e-15
    with pytest.raises(RefitFailed, match="cannot be certified") as ei:
        refit_partial_fractions(poles, boundary_samples(rect, 100), 1e-2)
    assert ei.value.context == {"target": 1e-2, "degree": poles.size}


def test_refit_rejects_pole_inside_rectangle():
    with pytest.raises(PoleInsideRegion):
        refit_partial_fractions(
            np.array([-0.5 + 0.0j]), boundary_samples(GOLDEN_RECT, 100), 1e-6
        )


def test_refit_requires_enough_samples():
    poles = np.array([3.0 + 1j, 3.0 - 1j, 2.0 + 0j] * 20)
    with pytest.raises(ValueError):
        refit_partial_fractions(poles, boundary_samples(GOLDEN_RECT, 10), 1e-6)


def test_aaa_degree_exhausts_on_tiny_cap():
    rect = BoundingRectangle(mu_min=-40.0, mu_max=-0.1, nu_min=-6.0, nu_max=6.0)
    boundary = boundary_samples(rect, 150)
    with pytest.raises(DegreeExhausted):
        aaa_poles(boundary, 1e-12, m_max=3)


def test_aaa_exhausting_the_samples_reports_the_poles_it_reached():
    # a flat rectangle with 2 samples per side has 4 samples, so at most 3
    # poles, far below the cap
    rect = BoundingRectangle(mu_min=0.0, mu_max=0.0, nu_min=-1.0, nu_max=1.0)
    with pytest.raises(DegreeExhausted, match="used up all 4 samples at 3 poles") as info:
        aaa_poles(boundary_samples(rect, 2), 1e-12)
    assert info.value.context["max_poles"] == 128
    assert "128" not in str(info.value)


@pytest.mark.parametrize(
    "nu_max, where",
    [
        (5e-324, "Loewner matrix"),  # top and bottom samples 1e-323 apart
        (1e-310, "Loewner matrix"),  # a subnormal height
    ],
)
def test_aaa_degenerate_rectangle_fails_typed_and_names_it(nu_max, where):
    rect = BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-nu_max, nu_max=nu_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{where} is not finite on BoundingRectangle") as info:
            aaa_poles(boundary_samples(rect, 20), 1e-2)
    assert repr(rect) in str(info.value)


@pytest.mark.parametrize("nu_max", [1e-305, 1e-300, 1e-100])
def test_aaa_tiny_height_gives_closed_poles_outside_the_rectangle(nu_max):
    # normal heights down to 1e-305 fit; subnormal ones fail in the Loewner
    # matrix (test above)
    rect = BoundingRectangle(mu_min=-1.0, mu_max=0.0, nu_min=-nu_max, nu_max=nu_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poles = aaa_poles(boundary_samples(rect, 20), 1e-2)
    assert poles.size > 0 and np.isfinite(poles).all()
    classify_conjugate_poles(poles)  # raises unless exactly closed
    assert not np.any(rect.contains(poles))


def test_filter_poles_names_the_rectangle_when_residues_underflow():
    # a pole 1e-200 from the support point 0: the squared distance is 0
    support = np.array([0.0, -1.0 + 0.5j, -1.0 - 0.5j])
    w = np.array([1.0, 1.0 + 1.0j, 1.0 - 1.0j])
    poles = np.array([1e-200 + 0.0j, 2.0 + 1.0j, 2.0 - 1.0j])
    with pytest.raises(ValueError, match="at the poles is not finite on BoundingRectangle"):
        _filter_poles(poles, support, w, np.exp(support), GOLDEN_RECT, 1.0)


def test_filter_poles_drops_a_pole_on_a_support_point():
    # its residue is NaN; evaluating it first would fail the whole fit
    support = boundary_samples(GOLDEN_RECT, 4).samples
    w = np.linspace(1.0, 2.0, support.size).astype(complex)
    poles = np.array([support[2], 3.0 + 0.0j])
    kept = _filter_poles(poles, support, w, np.exp(support), GOLDEN_RECT, 1.0)
    assert np.array_equal(kept, poles[1:])


def test_aaa_pole_on_a_support_point_is_not_fatal():
    # the mode-"i" rectangle of star/4 d=1e-3, tau=30h, where a pole landed
    # exactly on the support point at mu_max and AAA raised ValueError
    rect = BoundingRectangle(mu_min=-65.67238866668586, mu_max=11.845887824377824,
                             nu_min=-153.196183971747, nu_max=153.196183971747)
    try:
        poles = aaa_poles(boundary_samples(rect, 125), 1e-8 / CROUZEIX_CONSTANT, 128)
    except DegreeExhausted:
        return
    assert not np.any(rect.contains(poles))


def test_aaa_exact_real_segment_gives_its_poles_without_warning():
    rect = BoundingRectangle(mu_min=-30.0, mu_max=-0.1, nu_min=0.0, nu_max=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poles = aaa_poles(boundary_samples(rect, 125), 1e-8)
    assert poles.size == 8
    real_idx, pairs = classify_conjugate_poles(poles)
    assert len(real_idx) == 0 and len(pairs) == 4


def test_aaa_wide_rectangle_still_certifies():
    # a rectangle shaped like the tau = h_bar pencil rectangles
    rect = WIDE_RECT
    target = 1e-6 / ((1.0 + np.sqrt(2.0)) * 2.0)
    poles = aaa_poles(boundary_samples(rect, 300), target)
    cert = refit_partial_fractions(poles, boundary_samples(rect, 500), target)
    assert cert.sup_error_estimate <= target
    assert sup_error_on_rectangle(cert.form, rect) <= 1.21 * target
