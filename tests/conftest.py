import hashlib
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from decpotentials import (
    BogovskiiOperator,
    DiscretePoincareOperator,
    MeshGeometry,
    generate_square_mesh,
    generate_ushape_mesh,
    potentials,
    star_cone,
)
from decpotentials.simplicial import Cochain, SimplicialComplex


@pytest.fixture(scope="session")
def square1():
    return generate_square_mesh(1)


@pytest.fixture(scope="session")
def square2():
    return generate_square_mesh(2)


@pytest.fixture(scope="session")
def square8():
    return generate_square_mesh(8)


@pytest.fixture(scope="session")
def ushape10():
    return generate_ushape_mesh(10)


@pytest.fixture(scope="session")
def geom2(square2):
    return MeshGeometry(square2)


@pytest.fixture(scope="session")
def geom8(square8):
    return MeshGeometry(square8)


@pytest.fixture(scope="session")
def ugeom(ushape10):
    return MeshGeometry(ushape10)


@pytest.fixture(scope="session")
def triangle():
    """One reference-like triangle with vertices (0,0), (1,0), (0,1)."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SimplicialComplex([(0, 1, 2)], coords)


def matrix_digest(op) -> str:
    """sha256 of the data, indices and indptr of matrix(1) and matrix(2)."""
    h = hashlib.sha256()
    for k in (1, 2):
        m = op.matrix(k)
        for part in (m.data, m.indices, m.indptr):
            h.update(part.tobytes())
    return h.hexdigest()


def random_cochain(cx, k, rng):
    return Cochain(cx, k, rng.uniform(-1.0, 1.0, cx.num_simplices(k)))


def annulus_complex(with_coords=True):
    """Six triangles around a missing center: not contractible."""
    triangles = [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4), (2, 0, 3), (2, 3, 5)]
    coords = None
    if with_coords:
        inner = [(0.4 * np.cos(t), 0.4 * np.sin(t))
                 for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        outer = [(np.cos(t), np.sin(t))
                 for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        coords = np.array(inner + outer)
    return SimplicialComplex(triangles, coords)


def holed_square_complex():
    """square:24 without the 8 triangles inside (0.45, 0.55)^2: a 2x2-cell hole."""
    cx = generate_square_mesh(24)
    c = cx.coordinates
    triangles = [t for t in cx.simplices(2)
                 if not all(0.45 < c[v][0] < 0.55 and 0.45 < c[v][1] < 0.55 for v in t)]
    assert len(triangles) == cx.num_simplices(2) - 8
    return SimplicialComplex(triangles, c)


def fold_mesh():
    """square:4 with a third triangle (2, 7, 25) on its interior edge (2, 7)."""
    cx = generate_square_mesh(4)
    return SimplicialComplex([*cx._rows[2].tolist(), (2, 7, 25)],
                             np.vstack([cx.coordinates, [0.55, 0.1]]))


def flip_mesh():
    """square:2 with its centre vertex 4 moved to (0.9, 0.3), past edge (1, 5):
    triangle (1, 4, 5) flips, and overlaps its neighbours."""
    cx = generate_square_mesh(2)
    coords = np.array(cx.coordinates)
    coords[4] = (0.9, 0.3)
    return SimplicialComplex(cx._rows[2].tolist(), coords)


def dangling_edge_complex():
    """One triangle and an edge (2, 3) of no triangle."""
    return SimplicialComplex([(0, 1, 2), (2, 3)], [(0, 0), (1, 0), (0, 1), (0, 2)])


def csc_conversions(monkeypatch) -> list:
    """The shape of each CSR matrix converted to CSC from now on."""
    shapes, tocsc = [], sp.csr_matrix.tocsc

    def counted(self, *args, **kwargs):
        shapes.append(self.shape)
        return tocsc(self, *args, **kwargs)
    monkeypatch.setattr(sp.csr_matrix, "tocsc", counted)
    return shapes


def jitter_interior(cx, seed=0, amplitude=0.15):
    """The mesh with each interior vertex moved by a seeded uniform jitter.

    Every coordinate moves by at most ``amplitude`` times the shortest edge,
    so no triangle flips; boundary vertices stay, so the domain is the same.
    """
    coords = np.array(cx.coordinates)
    ends = coords[np.array(cx.simplices(1))]
    h = float(np.min(np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)))
    moves = np.random.default_rng(seed).uniform(-amplitude * h, amplitude * h, coords.shape)
    boundary = set(cx.boundary_simplices(0))
    for (v,) in cx.simplices(0):
        if (v,) not in boundary:
            coords[v] += moves[v]
    return SimplicialComplex(cx.simplices(2), coords)


@pytest.fixture(scope="session", params=["square8", "ushape10"])
def jittered(request):
    """(name, mesh): square:8 or ushape:10 with jittered interior vertices."""
    base = {"square8": lambda: generate_square_mesh(8),
            "ushape10": lambda: generate_ushape_mesh(10)}[request.param]()
    return request.param, jitter_interior(base)


def unchecked_bogovskii(point, cx, geometry=None):
    """The Bogovskii construction on a domain that need not be star-shaped.

    On a domain that is not star-shaped about the point, such as the
    U-shape, the shadow cones still give the homotopy identity on inputs of
    zero trace, but the outputs no longer keep zero trace, so
    ``BogovskiiOperator`` rejects the domain.  Assembly and verification
    tests still build it there, past that one check, because the U-shape's
    notch gives shadow pieces that leave and re-enter the mesh.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials, "check_star_shaped", lambda geometry, point, closed=False: None)
        return BogovskiiOperator(point, cx, geometry)


def unchecked_star(point, cx, geometry=None):
    """The star construction on a domain that need not be star-shaped.

    A star operator rejects such a domain before any row is assembled
    (``NotStarShapedError``); assembly tests still build it there, with its
    cone not marked ``star``, to reach the rows whose joins leave the mesh.
    """
    cone = star_cone(point, cx)
    cone.star = False
    return DiscretePoincareOperator(cone, geometry)


def certified_residual(op) -> float:
    """max_k ||R_k Pi_k||_inf from the sparse matrices: the worst residual of
    the homotopy identity over admissible inputs with entries in [-1, 1].

    R_k = D_{k-1} P_k + P_{k+1} D_k - I, plus pi in every row at k = 0, and
    Pi_k is the admissible projection: the identity for Poincare operators.
    For Bogovskii operators Pi_k keeps the interior columns below the top
    degree; at the top degree Pi = I - a o^T / A (signed areas a,
    orientations o, total area A), so row i of R Pi is r_i - c_i o^T with
    c_i = r_i . a / A, whose absolute sum is taken over the row's support
    plus |c_i| for each column off it, with nothing dense.
    """
    cx = op.complex
    top = cx.dim
    worst = 0.0
    for k in range(top + 1):
        n = cx.num_simplices(k)
        r = -sp.identity(n, format="csr")
        if k > 0:
            r = r + cx.coboundary_matrix(k - 1) @ op.matrix(k)
        if k < top:
            r = r + op.matrix(k + 1) @ cx.coboundary_matrix(k)
        if k == 0:
            vertices, weights = op._pi
            r = r + sp.csr_matrix((np.tile(weights, n), (np.repeat(np.arange(n), len(vertices)),
                                                          np.tile(vertices, n))), shape=(n, n))
        r = sp.csr_matrix(r)
        r.sum_duplicates()
        if not isinstance(op, BogovskiiOperator):
            sums = abs(r).sum(axis=1).A1
        elif k < top:
            interior = np.ones(n)
            interior[cx.boundary_indices(k)] = 0.0
            sums = abs(r @ sp.diags(interior)).sum(axis=1).A1
        else:
            geom = op.geometry
            c = (r @ geom.signed_area) / geom.total_area
            row = np.repeat(np.arange(n), np.diff(r.indptr))
            on = np.abs(r.data - c[row] * geom.orientation[r.indices])
            sums = np.bincount(row, on, minlength=n) + (n - np.diff(r.indptr)) * np.abs(c)
        worst = max(worst, float(sums.max(initial=0.0)))
    return worst


def random_collapsible(rng, rounds=8):
    """Grow a complex by repeatedly coning a new vertex over an existing face."""
    pool = {(0,)}
    for new in range(1, rounds + 1):
        s = sorted(pool)[rng.integers(0, len(pool))]
        if len(s) >= 4:  # cap the new simplex at dimension 3
            keep = sorted(rng.choice(len(s), size=3, replace=False))
            s = tuple(s[int(i)] for i in keep)
        glued = tuple(sorted((*s, new)))
        for r in range(1, len(glued) + 1):
            pool.update(combinations(glued, r))
    return SimplicialComplex(sorted(pool, key=lambda t: (len(t), t)))
