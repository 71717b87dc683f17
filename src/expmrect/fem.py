"""Triangular meshes and P1 finite element assembly for the test problems.

Two domains are built: the unit square with a structured criss-cross
triangulation, and a five-pointed star polygon cut by a fixed table of
triangles (its best ears tie five ways), refined by uniform midpoint
subdivision and relaxed by Laplacian smoothing.
On either mesh the advection-diffusion operator

    u_t = d * laplace(u) - c . grad(u)

is discretized with piecewise-linear elements and homogeneous Dirichlet
conditions eliminated, yielding the semi-discrete system M u' = K u with M
the interior mass matrix and K = -d * A + N (A the stiffness matrix, N the
advection matrix). The symmetric part of K is then negative definite: for
constant c the advection term is skew-symmetric between interior basis
functions up to roundoff, because the symmetric combination integrates
c . grad(phi_i phi_j) over the domain, which is a pure boundary term.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateMesh

__all__ = [
    "DOMAINS",
    "TriMesh",
    "AssembledSystem",
    "mesh_square",
    "mesh_star",
    "assemble_p1",
    "assemble_p1_full",
    "initial_vector",
    "write_mesh",
    "read_mesh",
]

DOMAINS = ("square", "star")  # meshed by mesh_square and mesh_star
# the smallest mesh_square divisions and mesh_star refine with an interior vertex
SMALLEST_INTERIOR_SIZE = {"divisions": 2, "refine": 1}


@dataclass(frozen=True)
class TriMesh:
    """A conforming triangulation of a planar domain.

    ``vertices`` is (nv, 2) float, ``triangles`` (nt, 3) int with
    counterclockwise orientation (positive signed area), ``boundary`` a
    boolean mask marking vertices on the domain boundary, and ``h_bar`` the
    mean length over the unique edges of the mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    h_bar: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    return 0.5 * (
        (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    )


def _unique_edges(triangles: np.ndarray, return_index: bool = False,
                  return_inverse: bool = False, return_counts: bool = False):
    """Sorted vertex pairs of the mesh edges, each once, in lexicographic
    order, followed by the requested ``np.unique`` outputs.

    The half-edges are taken in the order (a, b), (b, c), (c, a) of each
    triangle in turn, which is the order the indices and the inverse refer
    to. Each sorted pair (a, b) is encoded as the key a*nv + b, so a 1-D
    unique sorts the pairs lexicographically.
    """
    nv = int(triangles.max()) + 1
    e = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, *rest = np.unique(
        e[:, 0].astype(np.int64) * nv + e[:, 1],
        return_index=return_index,
        return_inverse=return_inverse,
        return_counts=return_counts,
    )
    edges = np.column_stack(np.divmod(keys, nv))
    return (edges, *rest) if rest else edges


def _edge_table(triangles: np.ndarray, nv: int):
    """The unique edges of the mesh and the boundary flags of its vertices.

    Boundary edges belong to exactly one triangle.
    """
    edges, counts = _unique_edges(triangles, return_counts=True)
    boundary = np.zeros(nv, dtype=bool)
    boundary[edges[counts == 1].ravel()] = True
    return edges, boundary


def _make_mesh(vertices: np.ndarray, triangles: np.ndarray, edges: np.ndarray,
               boundary: np.ndarray) -> TriMesh:
    """Check the orientation and attach ``boundary`` and the mean length of
    ``edges``, which are the unique edges of ``triangles``."""
    areas = _signed_areas(vertices, triangles)
    if np.any(areas <= 0.0):
        raise DegenerateMesh("triangulation contains nonpositive signed areas")
    d = vertices[edges[:, 0]] - vertices[edges[:, 1]]
    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        boundary=boundary,
        h_bar=float(np.mean(np.hypot(d[:, 0], d[:, 1]))),
    )


# --------------------------------------------------------------------------
# unit square
# --------------------------------------------------------------------------

def mesh_square(divisions: int) -> TriMesh:
    """Structured triangulation of the unit square.

    Each of the divisions x divisions grid cells is cut along its diagonal
    into two triangles, so all triangle areas equal 1/(2*divisions**2) and
    the vertex count is (divisions+1)**2.
    """
    if divisions < 1:
        raise ValueError("divisions must be at least 1")
    d = divisions
    xs = np.linspace(0.0, 1.0, d + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    j, i = np.divmod(np.arange(d * d), d)
    v00 = j * (d + 1) + i
    v10, v01, v11 = v00 + 1, v00 + d + 1, v00 + d + 2
    # per cell the triangles (v00, v10, v11) and (v00, v11, v01)
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    return _make_mesh(vertices, tris, *_edge_table(tris, vertices.shape[0]))


# --------------------------------------------------------------------------
# star polygon
# --------------------------------------------------------------------------

STAR_POINTS = 5
STAR_R_OUTER = 2.0
STAR_R_INNER = 0.8
STAR_SMOOTHING_SWEEPS = 8

# The coarse triangulation of ``_star_outline()``: the five point triangles,
# then the inner pentagon cut by the diagonals 3-7 and 7-1 (smallest angle
# 36 degrees). The row order fixes the midpoint numbering of
# ``_refine_once`` and the summation order of assembly.
STAR_TRIANGLES = np.array([
    [9, 0, 1], [3, 4, 5], [1, 2, 3], [5, 6, 7], [7, 8, 9],
    [3, 5, 7], [7, 9, 1], [1, 3, 7],
])
STAR_TRIANGLES.flags.writeable = False


def _star_outline() -> np.ndarray:
    k = np.arange(2 * STAR_POINTS)
    ang = np.pi / 2 + np.pi * k / STAR_POINTS
    rad = np.where(k % 2 == 0, STAR_R_OUTER, STAR_R_INNER)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def _refine_once(vertices: np.ndarray, triangles: np.ndarray):
    """Uniform midpoint subdivision of every triangle into four.

    Midpoints are numbered after the old vertices in the order the edges
    are first met, going through (a, b), (b, c), (c, a) of each triangle.
    """
    nv = vertices.shape[0]
    edges, first, inverse = _unique_edges(triangles, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ab, bc, ca = (nv + rank[inverse.reshape(-1)]).reshape(-1, 3).T
    a, b, c = triangles.T
    mids = (vertices[edges[order, 0]] + vertices[edges[order, 1]]) / 2.0
    new_tris = np.column_stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]).reshape(-1, 3)
    return np.vstack([vertices, mids]), new_tris


def _smooth(vertices: np.ndarray, triangles: np.ndarray, edges: np.ndarray,
            boundary: np.ndarray):
    """Laplacian smoothing of interior vertices with per-sweep rollback.

    Each of ``STAR_SMOOTHING_SWEEPS`` sweeps moves every interior vertex to
    the mean of its neighbors as they were before the sweep (a Jacobi
    sweep), computed as ``A @ prev / deg`` with ``A`` the adjacency matrix:
    its sorted column indices sum the neighbors in ascending order. A sweep
    that would invert any triangle is undone and smoothing stops.
    """
    nv = vertices.shape[0]
    ends = np.concatenate([edges, edges[:, ::-1]])
    A = sp.csr_array(
        (np.ones(ends.shape[0]), (ends[:, 0], ends[:, 1])), shape=(nv, nv)
    )
    A.sort_indices()
    deg = np.diff(A.indptr)
    move = ~boundary & (deg > 0)
    A, deg = A[move], deg[move, None]
    pts = vertices.copy()
    for _ in range(STAR_SMOOTHING_SWEEPS):
        prev = pts
        pts = prev.copy()
        pts[move] = (A @ prev) / deg
        if np.any(_signed_areas(pts, triangles) <= 0.0):
            pts = prev
            break
    return pts


def mesh_star(refine: int = 0) -> TriMesh:
    """Triangulated five-pointed star polygon centered at the origin.

    The outline alternates ``STAR_POINTS`` outer and inner radii
    (``STAR_R_OUTER`` and ``STAR_R_INNER``). The coarse triangulation is the
    fixed table ``STAR_TRIANGLES``, as the best ears of the outline tie five
    ways in exact arithmetic and only rounding would choose among them. It
    is refined ``refine`` times by midpoint subdivision (each round
    quadruples the triangle count, new boundary vertices stay on the polygon
    edges exactly) and then smoothed by at most ``STAR_SMOOTHING_SWEEPS``
    sweeps.
    """
    verts, tris = _star_outline(), STAR_TRIANGLES
    for _ in range(refine):
        verts, tris = _refine_once(verts, tris)
    edges, boundary = _edge_table(tris, verts.shape[0])
    verts = _smooth(verts, tris, edges, boundary)
    return _make_mesh(verts, tris, edges, boundary)


# --------------------------------------------------------------------------
# P1 assembly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AssembledSystem:
    """Interior-only mass/stiffness pair and initial data for M u' = K u."""

    M: sp.csr_array
    K: sp.csr_array
    b0: np.ndarray
    mesh: TriMesh
    d: float
    c: tuple[float, float]

    @property
    def n(self) -> int:
        return self.M.shape[0]


def assemble_p1_full(mesh: TriMesh, d: float, c=(1.0, 1.0)):
    """Assemble mass and right-hand matrices over all vertices (no boundary
    elimination). Returns (M_full, K_full) with K = -d * stiffness + advection.

    The element blocks are computed for all triangles at once and scattered
    element by element, row-major within each 3 x 3 block, so duplicates are
    summed in element order.
    """
    nv = mesh.n_vertices
    tri = mesh.triangles
    area = _signed_areas(mesh.vertices, tri)
    if np.any(area <= 0.0):
        raise DegenerateMesh("element with nonpositive area")
    # constant gradients of the three hat functions, (nt, 3, 2): the edge
    # opposite each vertex turned a quarter clockwise, over twice the area
    p0, p1, p2 = (mesh.vertices[tri[:, k]] for k in range(3))
    edges = np.stack([p1 - p2, p2 - p0, p0 - p1], axis=1)
    g = np.stack([edges[..., 1], -edges[..., 0]], axis=2) / (2.0 * area)[:, None, None]
    ref_mass = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    mass = (area / 12.0)[:, None, None] * ref_mass
    stiff = area[:, None, None] * (g @ g.transpose(0, 2, 1))
    cg = g @ np.asarray(c, dtype=float)  # c . grad(phi_j), constant per element
    adv = (area / 3.0)[:, None, None] * cg[:, None, :]  # int phi_i (c . grad phi_j)
    kelem = -d * stiff + adv
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    M = sp.coo_array((mass.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    K = sp.coo_array((kelem.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return M, K


def assemble_p1(mesh: TriMesh, d: float, c=(1.0, 1.0), domain: str = "square") -> AssembledSystem:
    """P1 discretization of u_t = d*laplace(u) - c.grad(u), Dirichlet-eliminated.

    The returned system couples only interior vertices; boundary rows and
    columns are removed (homogeneous Dirichlet data). ``b0`` interpolates
    the bump initial condition for ``domain`` at the interior vertices. A
    ``d`` that is not finite and positive raises ValueError.
    """
    if not 0.0 < d < np.inf:
        raise ValueError(f"diffusion coefficient must be finite and positive, got {d}")
    M_full, K_full = assemble_p1_full(mesh, d, c)
    interior = np.flatnonzero(~mesh.boundary)
    if interior.size == 0:
        raise DegenerateMesh("mesh has no interior vertices")
    M = sp.csr_array(M_full[interior][:, interior])
    K = sp.csr_array(K_full[interior][:, interior])
    u0 = initial_vector(mesh, domain)
    return AssembledSystem(M=M, K=K, b0=u0[interior], mesh=mesh, d=float(d), c=tuple(c))


def initial_vector(mesh: TriMesh, domain: str = "square") -> np.ndarray:
    """Nodal interpolation of the bump initial condition on all vertices.

    square: exp(-sinh(70 (x-1/2)^4) - sinh(70 (y-1/2)^4))
    star:   exp(-sinh(70 (x/2)^4) - sinh(70 (y/2)^4))
    """
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    if domain == "square":
        u, v = x - 0.5, y - 0.5
    elif domain == "star":
        u, v = x / 2.0, y / 2.0
    else:
        raise ValueError(f"unknown domain {domain!r}")
    with np.errstate(over="ignore"):
        val = np.exp(-np.sinh(70.0 * u**4) - np.sinh(70.0 * v**4))
    return np.where(np.isfinite(val), val, 0.0)


# --------------------------------------------------------------------------
# mesh text format
# --------------------------------------------------------------------------

MESH_HEADER = "# trimesh v1: nv nt, then nv lines 'x y boundary', then nt lines 'i j k'"


def write_mesh(path, mesh: TriMesh) -> None:
    with open(path, "w") as fh:
        fh.write(MESH_HEADER + "\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for (x, y), b in zip(mesh.vertices, mesh.boundary):
            fh.write(f"{float(x)!r} {float(y)!r} {int(b)}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def read_mesh(path) -> TriMesh:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    nv, nt = map(int, lines[0].split())
    verts = np.empty((nv, 2))
    flags = np.zeros(nv, dtype=bool)
    for i in range(nv):
        x, y, b = lines[1 + i].split()
        verts[i] = (float(x), float(y))
        flags[i] = bool(int(b))
    tris = np.array([list(map(int, lines[1 + nv + j].split())) for j in range(nt)], dtype=int)
    mesh = _make_mesh(verts, tris, *_edge_table(tris, nv))
    if not np.array_equal(mesh.boundary, flags):
        raise DegenerateMesh("stored boundary flags disagree with mesh topology")
    return mesh
