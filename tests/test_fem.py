"""Mesh generation and P1 assembly tests.

Counting oracles (vertices, triangles, areas) are derived by hand from the
constructions; matrix-level facts are checked against small dense
computations done independently in the test.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from expmrect import fem
from expmrect.errors import DegenerateMesh


# --------------------------------------------------------------------------
# unit square
# --------------------------------------------------------------------------

def test_square_counts_div2():
    mesh = fem.mesh_square(2)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert int(np.sum(mesh.boundary)) == 8
    assert int(np.sum(~mesh.boundary)) == 1


def test_square_counts_div4():
    mesh = fem.mesh_square(4)
    assert mesh.n_vertices == 25
    assert mesh.n_triangles == 32
    assert int(np.sum(mesh.boundary)) == 16


@pytest.mark.parametrize("div", [1, 2, 3, 5, 8])
def test_square_equal_areas(div):
    mesh = fem.mesh_square(div)
    areas = fem._signed_areas(mesh.vertices, mesh.triangles)
    expected = 1.0 / (2.0 * div * div)
    assert np.allclose(areas, expected, rtol=1e-13)
    assert math.isclose(float(np.sum(areas)), 1.0, rel_tol=1e-13)


def test_square_h_bar_div2_brute_force():
    # 2x2 grid: 12 axis-parallel edges of length 1/2 and 4 diagonals of
    # length sqrt(2)/2, 16 unique edges in total.
    mesh = fem.mesh_square(2)
    expected = (12 * 0.5 + 4 * (math.sqrt(2.0) / 2.0)) / 16.0
    assert math.isclose(mesh.h_bar, expected, rel_tol=1e-14)


def test_square_rejects_bad_divisions():
    with pytest.raises(ValueError):
        fem.mesh_square(0)


# --------------------------------------------------------------------------
# star polygon
# --------------------------------------------------------------------------

def test_star_fan_counts_no_refine():
    # A 3-pointed star outline has 6 vertices; ear clipping any hexagon
    # yields 4 triangles and every vertex sits on the boundary.
    mesh = fem.mesh_star(points=3, refine=0)
    assert mesh.n_vertices == 6
    assert mesh.n_triangles == 4
    assert bool(np.all(mesh.boundary))


def test_star_refinement_quadruples():
    m0 = fem.mesh_star(points=5, refine=0)
    m1 = fem.mesh_star(points=5, refine=1)
    m2 = fem.mesh_star(points=5, refine=2)
    assert m1.n_triangles == 4 * m0.n_triangles
    assert m2.n_triangles == 16 * m0.n_triangles
    assert m2.n_vertices == 85
    assert m2.n_triangles == 128


def _distance_to_outline(q: np.ndarray, outline: np.ndarray) -> float:
    best = math.inf
    n = outline.shape[0]
    for i in range(n):
        a, b = outline[i], outline[(i + 1) % n]
        ab = b - a
        t = float(np.dot(q - a, ab) / np.dot(ab, ab))
        t = min(1.0, max(0.0, t))
        best = min(best, float(np.linalg.norm(q - (a + t * ab))))
    return best


def test_star_boundary_vertices_stay_on_polygon():
    outline = fem._star_outline(5, 2.0, 0.8)
    mesh = fem.mesh_star(points=5, refine=3)
    for idx in np.flatnonzero(mesh.boundary):
        assert _distance_to_outline(mesh.vertices[idx], outline) <= 1e-12


def test_star_positive_areas_after_smoothing():
    mesh = fem.mesh_star(refine=3)
    areas = fem._signed_areas(mesh.vertices, mesh.triangles)
    assert float(np.min(areas)) > 0.0


def test_star_total_area_matches_shoelace():
    outline = fem._star_outline(5, 2.0, 0.8)
    x, y = outline[:, 0], outline[:, 1]
    shoelace = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    for refine in (0, 2):
        mesh = fem.mesh_star(refine=refine)
        total = float(np.sum(fem._signed_areas(mesh.vertices, mesh.triangles)))
        assert math.isclose(total, shoelace, rel_tol=1e-12)


def test_star_argument_validation():
    with pytest.raises(ValueError):
        fem.mesh_star(points=2)
    with pytest.raises(ValueError):
        fem.mesh_star(r_outer=1.0, r_inner=1.0)


def test_ear_clip_rejects_degenerate_polygon():
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateMesh):
        fem._ear_clip(collinear)


# --------------------------------------------------------------------------
# P1 assembly
# --------------------------------------------------------------------------

def _element_matrices(p0, p1, p2, c):
    """Mass, stiffness and advection blocks of one triangle, written out."""
    area2 = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
    area = 0.5 * area2
    g = np.array(
        [
            [p1[1] - p2[1], p2[0] - p1[0]],
            [p2[1] - p0[1], p0[0] - p2[0]],
            [p0[1] - p1[1], p1[0] - p0[0]],
        ]
    ) / area2
    mass = (area / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    stiff = area * (g @ g.T)
    adv = (area / 3.0) * np.tile(g @ np.asarray(c, dtype=float), (3, 1))
    return mass, stiff, adv


def _loop_assemble(mesh, d, c=(1.0, 1.0)):
    """assemble_p1_full as one Python loop over the elements."""
    nv = mesh.n_vertices
    rows, cols, mvals, kvals = [], [], [], []
    for tri in mesh.triangles:
        mass, stiff, adv = _element_matrices(*mesh.vertices[tri], c)
        kelem = -d * stiff + adv
        for a in range(3):
            for b in range(3):
                rows.append(tri[a])
                cols.append(tri[b])
                mvals.append(mass[a, b])
                kvals.append(kelem[a, b])
    M = sp.coo_array((mvals, (rows, cols)), shape=(nv, nv)).tocsr()
    K = sp.coo_array((kvals, (rows, cols)), shape=(nv, nv)).tocsr()
    return M, K


def test_reference_triangle_element_mass():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = fem.TriMesh(vertices, np.array([[0, 1, 2]]), np.ones(3, dtype=bool), 1.0)
    mass, minus_stiff = (X.toarray() for X in fem.assemble_p1_full(mesh, 1.0, (0.0, 0.0)))
    expected = (1.0 / 24.0) * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    assert np.allclose(mass, expected, rtol=0.0, atol=1e-16)
    # stiffness of the unit right triangle, computed by hand from the
    # constant hat-function gradients
    expected_stiff = 0.5 * np.array(
        [[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
    )
    assert np.allclose(-minus_stiff, expected_stiff, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("d", [1e-1, 1e-3])
@pytest.mark.parametrize("domain", ["square", "star"])
def test_assembly_is_bitwise_the_element_loop(domain, d):
    # the batched assembly scatters in the loop's order, so duplicates are
    # summed in the same order and every stored byte agrees
    mesh = fem.mesh_square(32) if domain == "square" else fem.mesh_star(refine=4)
    for got, want in zip(fem.assemble_p1_full(mesh, d), _loop_assemble(mesh, d)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_assembly_rejects_inverted_element():
    vertices = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # clockwise
    mesh = fem.TriMesh(vertices, np.array([[0, 1, 2]]), np.ones(3, dtype=bool), 1.0)
    with pytest.raises(DegenerateMesh):
        fem.assemble_p1_full(mesh, 1.0)


def test_full_mass_rows_integrate_to_area(square_mesh_8):
    M_full, _ = fem.assemble_p1_full(square_mesh_8, d=0.1)
    # sum_i sum_j M_ij = integral of 1 over the domain
    assert math.isclose(float(M_full.sum()), 1.0, rel_tol=1e-12)


def test_pure_diffusion_k_symmetric_negative_definite(square_mesh_8):
    sysm = fem.assemble_p1(square_mesh_8, d=0.1, c=(0.0, 0.0))
    K = sysm.K.toarray()
    assert np.allclose(K, K.T, atol=1e-14)
    assert float(np.max(np.linalg.eigvalsh(K))) < 0.0


def test_advection_part_is_skew_on_interior(square_mesh_8):
    # For constant velocity the advection block over interior vertices is
    # skew-symmetric, so the symmetric part of K must coincide with the
    # pure-diffusion operator.
    adv = fem.assemble_p1(square_mesh_8, d=0.1, c=(1.0, 1.0)).K.toarray()
    diff = fem.assemble_p1(square_mesh_8, d=0.1, c=(0.0, 0.0)).K.toarray()
    sym_part = 0.5 * (adv + adv.T)
    assert np.allclose(sym_part, diff, atol=1e-13)


def test_assemble_rejects_nonpositive_diffusion(square_mesh_8):
    with pytest.raises(ValueError):
        fem.assemble_p1(square_mesh_8, d=0.0)


def test_square_mass_condition_number_near_four():
    # Structured P1 square meshes have kappa(M) -> 4 as the grid refines;
    # at 32 divisions the interior mass matrix is within 5 percent.
    sysm = fem.assemble_p1(fem.mesh_square(32), d=0.1)
    w = np.linalg.eigvalsh(sysm.M.toarray())
    kappa = float(w[-1] / w[0])
    assert abs(kappa - 4.0) / 4.0 <= 0.05


# --------------------------------------------------------------------------
# initial condition
# --------------------------------------------------------------------------

def test_initial_vector_square_values():
    mesh = fem.mesh_square(2)
    u = fem.initial_vector(mesh, "square")
    center = np.flatnonzero(
        (mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5)
    )[0]
    assert u[center] == 1.0
    edge_mid = np.flatnonzero(
        (mesh.vertices[:, 0] == 0.0) & (mesh.vertices[:, 1] == 0.5)
    )[0]
    assert math.isclose(u[edge_mid], math.exp(-math.sinh(70.0 * 0.5**4)), rel_tol=1e-15)
    assert u[edge_mid] < 1e-17


def test_initial_vector_star_origin_is_one():
    mesh = fem.mesh_star(points=3, refine=0)
    with_origin = fem.TriMesh(
        vertices=np.vstack([mesh.vertices, [0.0, 0.0]]),
        triangles=mesh.triangles,
        boundary=np.append(mesh.boundary, False),
        h_bar=mesh.h_bar,
    )
    u = fem.initial_vector(with_origin, "star")
    assert u[-1] == 1.0


def test_initial_vector_unknown_domain():
    with pytest.raises(ValueError):
        fem.initial_vector(fem.mesh_square(2), "disk")


def test_initial_vector_no_overflow_far_out():
    # sinh overflows in float64 well inside the star's bounding box; the
    # interpolant must clamp those nodes to zero instead of NaN.
    mesh = fem.mesh_star(points=3, refine=0, r_outer=6.0, r_inner=2.0)
    u = fem.initial_vector(mesh, "star")
    assert np.all(np.isfinite(u))
    assert float(np.min(u)) == 0.0


# --------------------------------------------------------------------------
# mesh text format
# --------------------------------------------------------------------------

def test_mesh_roundtrip(tmp_path, star_mesh_2):
    path = tmp_path / "mesh.txt"
    fem.write_mesh(path, star_mesh_2)
    back = fem.read_mesh(path)
    assert np.array_equal(back.triangles, star_mesh_2.triangles)
    assert np.array_equal(back.boundary, star_mesh_2.boundary)
    assert np.allclose(back.vertices, star_mesh_2.vertices, rtol=0.0, atol=1e-15)
    assert math.isclose(back.h_bar, star_mesh_2.h_bar, rel_tol=1e-12)
