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
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # A 5-pointed star outline has 10 vertices; ear clipping any decagon
    # yields 8 triangles and every vertex sits on the boundary.
    mesh = fem.mesh_star(refine=0)
    assert mesh.n_vertices == 10
    assert mesh.n_triangles == 8
    assert bool(np.all(mesh.boundary))


def test_star_refinement_quadruples():
    m0 = fem.mesh_star(refine=0)
    m1 = fem.mesh_star(refine=1)
    m2 = fem.mesh_star(refine=2)
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
    outline = fem._star_outline()
    mesh = fem.mesh_star(refine=3)
    for idx in np.flatnonzero(mesh.boundary):
        assert _distance_to_outline(mesh.vertices[idx], outline) <= 1e-12


def test_star_positive_areas_after_smoothing():
    mesh = fem.mesh_star(refine=3)
    areas = fem._signed_areas(mesh.vertices, mesh.triangles)
    assert float(np.min(areas)) > 0.0


def test_star_total_area_matches_shoelace():
    outline = fem._star_outline()
    x, y = outline[:, 0], outline[:, 1]
    shoelace = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    for refine in (0, 2):
        mesh = fem.mesh_star(refine=refine)
        total = float(np.sum(fem._signed_areas(mesh.vertices, mesh.triangles)))
        assert math.isclose(total, shoelace, rel_tol=1e-12)


def test_star_argument_validation():
    # the star's geometry is fixed: refine is the only argument
    for retired in ("points", "r_outer", "r_inner", "smoothing_sweeps"):
        with pytest.raises(TypeError):
            fem.mesh_star(refine=0, **{retired: 5})
    outline = fem._star_outline()
    assert outline.shape == (10, 2)
    assert np.allclose(np.hypot(*outline.T), [2.0, 0.8] * 5, rtol=1e-15, atol=0.0)


def test_star_triangles_triangulate_the_outline():
    outline = fem._star_outline()
    tris = fem.STAR_TRIANGLES
    assert tris.shape == (8, 3)
    assert np.all(fem._signed_areas(outline, tris) > 0.0)  # counterclockwise
    # the 10 outline edges lie in one triangle each, every other edge in two
    ring = {(k, k + 1) for k in range(9)} | {(0, 9)}
    edges, counts = _loop_edges(tris)
    assert np.array_equal(fem._edge_table(tris, 10)[0], edges)
    assert ring <= set(map(tuple, edges.tolist()))
    for edge, count in zip(map(tuple, edges.tolist()), counts):
        assert count == (1 if edge in ring else 2), edge
    for p in outline[tris]:
        for k in range(3):
            u, v = p[(k + 1) % 3] - p[k], p[(k + 2) % 3] - p[k]
            cos = float(u @ v) / (math.hypot(*u) * math.hypot(*v))
            assert math.degrees(math.acos(cos)) >= 36.0 - 1e-9


# --------------------------------------------------------------------------
# the array mesh builders against the Python loops they replaced
# --------------------------------------------------------------------------

def _loop_edges(triangles):
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0, return_counts=True)


def _loop_make_mesh(vertices, triangles):
    edges, counts = _loop_edges(triangles)
    boundary = np.zeros(vertices.shape[0], dtype=bool)
    boundary[edges[counts == 1].ravel()] = True
    d = vertices[edges[:, 0]] - vertices[edges[:, 1]]
    return fem.TriMesh(vertices, triangles, boundary, float(np.mean(np.hypot(d[:, 0], d[:, 1]))))


def _loop_square(d):
    xs = np.linspace(0.0, 1.0, d + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (d + 1) + i

    tris = []
    for j in range(d):
        for i in range(d):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return _loop_make_mesh(vertices, np.array(tris, dtype=int))


def _loop_refine_once(vertices, triangles):
    verts = list(map(tuple, vertices))
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            pa, pb = vertices[a], vertices[b]
            verts.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    new_tris = []
    for a, b, c in triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return np.array(verts, dtype=float), np.array(new_tris, dtype=int)


def _loop_smooth(vertices, triangles, boundary, sweeps):
    """Vertex-by-vertex smoothing; also returns the 1-based sweep that was
    undone, or None."""
    edges, _ = _loop_edges(triangles)
    nv = vertices.shape[0]
    neighbors = [[] for _ in range(nv)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    pts = vertices.copy()
    for sweep in range(1, sweeps + 1):
        prev = pts.copy()
        for v in range(nv):
            if boundary[v] or not neighbors[v]:
                continue
            pts[v] = np.mean(prev[neighbors[v]], axis=0)
        if np.any(fem._signed_areas(pts, triangles) <= 0.0):
            return prev, sweep
    return pts, None


def _loop_star(refine):
    verts, tris = fem._star_outline(), fem.STAR_TRIANGLES
    for _ in range(refine):
        verts, tris = _loop_refine_once(verts, tris)
    flags = _loop_make_mesh(verts, tris).boundary
    verts, undone = _loop_smooth(verts, tris, flags, 8)
    return _loop_make_mesh(verts, tris), undone


def _assert_same_mesh(got, want):
    for attr in ("vertices", "triangles", "boundary"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr
    assert np.array_equal(np.signbit(got.vertices), np.signbit(want.vertices))
    assert got.h_bar == want.h_bar


@pytest.mark.parametrize("divisions", [1, 8, 32, 64])
def test_square_mesh_is_bitwise_the_loop(divisions):
    _assert_same_mesh(fem.mesh_square(divisions), _loop_square(divisions))


@pytest.mark.parametrize(
    "kwargs, undone",
    [
        ({"refine": 0}, None),
        ({"refine": 1}, None),
        ({"refine": 2}, 7),
        ({"refine": 3}, 6),
        ({"refine": 4}, 6),
    ],
)
def test_star_mesh_is_bitwise_the_loop(kwargs, undone):
    # ``undone`` is the smoothing sweep that inverts a triangle and is rolled
    # back, so the rollback rule is pinned too
    want, want_undone = _loop_star(**kwargs)
    assert want_undone == undone
    _assert_same_mesh(fem.mesh_star(**kwargs), want)


triangle_arrays = st.integers(min_value=1, max_value=40).flatmap(
    lambda nt: st.lists(
        st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3),
        min_size=nt,
        max_size=nt,
    )
)


@given(triangle_arrays)
@settings(max_examples=200, deadline=None)
def test_unique_edges_matches_unique_rows(tris):
    tri = np.array(tris, dtype=int)
    e = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    want_edges, want_counts = np.unique(np.sort(e, 1), axis=0, return_counts=True)
    got_edges, got_counts = fem._unique_edges(tri, return_counts=True)
    assert np.array_equal(got_edges, want_edges)
    assert np.array_equal(got_counts, want_counts)


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
    # the sweep's rule for d: finite and positive
    for d in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            fem.assemble_p1(square_mesh_8, d=d)


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
    mesh = fem.mesh_star(refine=0)
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
    # sinh overflows in float64 well inside the bounding box of a star three
    # times the size; the interpolant must clamp those nodes to zero, not NaN.
    mesh = fem.mesh_star(refine=0)
    mesh = fem.TriMesh(3.0 * mesh.vertices, mesh.triangles, mesh.boundary, 3.0 * mesh.h_bar)
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
