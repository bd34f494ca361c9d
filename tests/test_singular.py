"""Singular chains, degeneracy, clipping, and the planar integration engine."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from decpotentials import (
    BogovskiiOperator,
    DiscretePoincareOperator,
    SlabAffineContraction,
    generate_square_mesh,
    generate_ushape_mesh,
    lipschitz_cone,
    star_cone,
)
from decpotentials import singular
from decpotentials.meshes import vertex_at
from decpotentials.simplicial import Chain, pairing
from decpotentials.singular import (
    ConeChain,
    InfiniteCone,
    LinearSimplex,
    OutsideDomainError,
    SingularChain,
    chain_functional,
    clip_polygon,
    cone_boundary,
    cone_functional,
    integrate_whitney,
    is_degenerate,
    lift_chain,
    lift_simplex,
    polygon_area,
    segment_functional,
    singular_boundary,
    triangle_functional,
)
from decpotentials.whitney import MeshGeometry
from conftest import jitter_interior, matrix_digest, random_cochain, unchecked_bogovskii


def test_lift_matches_coordinates(square2):
    s = lift_simplex(square2, (0, 1, 4))
    assert s.points == ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5))
    assert s.dim == 2


def test_singular_boundary_of_triangle():
    t = LinearSimplex(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    b = singular_boundary(SingularChain(2, [(1, t)]))
    assert sorted(b.terms, key=repr) == sorted([
        (1, LinearSimplex(((1.0, 0.0), (0.0, 1.0)))),
        (-1, LinearSimplex(((0.0, 0.0), (0.0, 1.0)))),
        (1, LinearSimplex(((0.0, 0.0), (1.0, 0.0)))),
    ], key=repr)


def test_singular_boundary_squares_to_zero(square2):
    rng = np.random.default_rng(0)
    for _ in range(5):
        terms = {s: int(rng.integers(-3, 4)) for s in square2.simplices(2)}
        chain = lift_chain(Chain(square2, 2, terms))
        bb = singular_boundary(singular_boundary(chain))
        assert bb.is_zero()


def test_cone_boundary_squares_to_zero():
    cone = InfiniteCone(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    bb = cone_boundary(cone_boundary(ConeChain(2, [(1, cone)])))
    assert bb.is_zero()


def test_cone_boundary_keeps_the_apex():
    # faces of a cone omit only non-apex points; a 1-cone's boundary is -apex
    cone = InfiniteCone(((0.0, 0.0), (1.0, 1.0)))
    b = cone_boundary(ConeChain(1, [(1, cone)])).simplify()
    assert b.terms == [(-1, InfiniteCone(((0.0, 0.0),)))]

    tri = InfiniteCone(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    b2 = cone_boundary(ConeChain(2, [(1, tri)])).simplify()
    assert sorted(b2.terms, key=repr) == sorted([
        (-1, InfiniteCone(((0.0, 0.0), (0.0, 1.0)))),
        (1, InfiniteCone(((0.0, 0.0), (1.0, 0.0)))),
    ], key=repr)


def test_degeneracy_is_scale_relative():
    assert is_degenerate(np.array([[0, 0], [1, 0], [2, 0]], dtype=float))
    assert not is_degenerate(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
    # small but well-shaped triangles are not degenerate
    tiny = 1e-8 * np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    assert not is_degenerate(tiny)
    # 3-simplices are always flat in the plane
    assert is_degenerate(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float))


def test_clip_polygon_areas():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    # the triangle with legs of length 2 contains the whole square
    big = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    assert abs(abs(polygon_area(clip_polygon(square, big))) - 1.0) < 1e-14
    # the unit-leg triangle cuts it down to the lower-left half
    half = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert abs(abs(polygon_area(clip_polygon(square, half))) - 0.5) < 1e-14
    assert clip_polygon(square, [(5.0, 5.0), (6.0, 5.0), (5.0, 6.0)]) == []


def test_clip_polygon_edge_crossing_is_consistent():
    # A thin star-cone triangle of the ushape:20 Bogovskii operator with base
    # point (0.152, 0.151) against one mesh triangle.  Testing "inside" and
    # computing the crossing in two different ways once made a crossing edge
    # look parallel to the clip edge, and the clip divided by zero.
    subject = [(0.152, 0.151), (0.75, 0.7), (0.8, 0.75)]
    clipper = [(0.3, 0.25), (0.25, 0.25), (0.25, 0.2)]
    poly = clip_polygon(subject, clipper)
    assert len(poly) == 4
    for x, y in poly:
        assert 0.25 <= x <= 0.3 and 0.2 <= y <= 0.25
    # both triangles are convex and CCW, so the overlap does not depend on
    # which one clips the other
    swapped = polygon_area(clip_polygon(clipper, subject))
    assert 0.0 < polygon_area(poly) < polygon_area(clipper)
    assert abs(polygon_area(poly) - swapped) < 1e-15


def test_polygon_area_sign():
    ccw = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert abs(polygon_area(ccw) - 0.5) < 1e-15
    assert abs(polygon_area(ccw[::-1]) + 0.5) < 1e-15


def test_integrate_matches_pairing_on_mesh_chains(square2, geom2):
    # integrating W(alpha) over a lifted mesh chain is the duality pairing
    rng = np.random.default_rng(7)
    for k in (1, 2):
        alpha = random_cochain(square2, k, rng)
        terms = {s: int(rng.integers(-2, 3)) for s in square2.simplices(k)}
        chain = Chain(square2, k, terms)
        val = integrate_whitney(geom2, alpha, lift_chain(chain))
        assert abs(val - pairing(alpha, chain)) < 1e-13


def test_segment_functional_is_additive(square2, geom2):
    rng = np.random.default_rng(8)
    alpha = random_cochain(square2, 1, rng)
    a = np.array([0.05, 0.11])
    b = np.array([0.93, 0.81])
    # a point on the segment, strictly inside a triangle (between the
    # diagonal crossing at t = 1/3 and the x = 0.5 crossing at t ~ 0.511)
    mid = a + 0.45 * (b - a)
    whole = segment_functional(geom2, a, b)
    direct = sum(alpha.values[i] * w for i, w in whole.items())
    split = 0.0
    for part in (segment_functional(geom2, a, mid), segment_functional(geom2, mid, b)):
        split += sum(alpha.values[i] * w for i, w in part.items())
    assert abs(direct - split) < 1e-13


def closed_form_row(geom, t, a, b):
    """lambda_i(a) lambda_j(b) - lambda_j(a) lambda_i(b) on the edges of triangle t."""
    la, lb = geom.barycentric(t, a), geom.barycentric(t, b)
    return {int(geom.triangle_edges[t, local]): la[i] * lb[j] - la[j] * lb[i]
            for local, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)))}


def test_segment_functional_is_the_closed_form_inside_a_triangle(jittered):
    _, cx = jittered
    geom = MeshGeometry(cx)
    rng = np.random.default_rng(9)
    for t in rng.choice(cx.num_simplices(2), 20, replace=False):
        a, b = rng.dirichlet(np.ones(3), 2) @ geom.corners[t]
        row = segment_functional(geom, a, b)
        want = closed_form_row(geom, t, a, b)
        assert set(row) <= set(want)
        assert max(abs(row.get(e, 0.0) - w) for e, w in want.items()) <= 1e-15, t


def test_segment_functional_sums_the_closed_form_over_its_pieces(jittered):
    _, cx = jittered
    geom = MeshGeometry(cx)
    ends = geom.edge_coords
    rng = np.random.default_rng(10)
    for _ in range(10):
        a, b = (rng.dirichlet(np.ones(3)) @ geom.corners[t]
                for t in rng.choice(cx.num_simplices(2), 2, replace=False))
        # crossing parameters along a -> b with every mesh edge, in order
        r, s = b - a, ends[:, 1] - ends[:, 0]
        q = ends[:, 0] - a
        denom = r[0] * s[:, 1] - r[1] * s[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (q[:, 0] * s[:, 1] - q[:, 1] * s[:, 0]) / denom
            v = (q[:, 0] * r[1] - q[:, 1] * r[0]) / denom
        cuts = np.sort(u[(denom != 0) & (u > 0) & (u < 1) & (v >= 0) & (v <= 1)])
        want = {}
        for t0, t1 in zip(np.r_[0.0, cuts], np.r_[cuts, 1.0]):
            if t1 - t0 < 1e-12:
                continue
            t = geom.locate(a + 0.5 * (t0 + t1) * r)
            if t is None:
                continue  # a U-shape's notch: the form is zero off the mesh
            for e, w in closed_form_row(geom, t, a + t0 * r, a + t1 * r).items():
                want[e] = want.get(e, 0.0) + w
        row = segment_functional(geom, a, b)
        assert len(want) > 3
        assert max(abs(row.get(e, 0.0) - want.get(e, 0.0)) for e in set(row) | set(want)) \
            <= 1e-14, (a, b)


def closed_form_over_pieces(geom, a, b):
    """Reference row of the segment a -> b: split at every crossing with a
    mesh edge, each piece located by its midpoint and integrated in closed
    form in its triangle; pieces off the mesh give zero."""
    ends = geom.edge_coords
    r, s = b - a, ends[:, 1] - ends[:, 0]
    q = ends[:, 0] - a
    denom = r[0] * s[:, 1] - r[1] * s[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (q[:, 0] * s[:, 1] - q[:, 1] * s[:, 0]) / denom
        v = (q[:, 0] * r[1] - q[:, 1] * r[0]) / denom
    cuts = np.sort(u[(denom != 0) & (u > 0) & (u < 1) & (v >= 0) & (v <= 1)])
    want = {}
    for t0, t1 in zip(np.r_[0.0, cuts], np.r_[cuts, 1.0]):
        t = geom.locate(a + 0.5 * (t0 + t1) * r)
        if t1 - t0 >= 1e-12 and t is not None:
            for e, w in closed_form_row(geom, t, a + t0 * r, a + t1 * r).items():
                want[e] = want.get(e, 0.0) + w
    return want


@pytest.mark.parametrize("a, b", [((0.1, 0.1), (0.9, 0.5)), ((0.0, 0.3), (1.0, 0.8))],
                         ids=["interior", "wall-to-wall"])
def test_segment_through_mesh_vertices_sums_the_closed_form_over_its_pieces(a, b):
    # slope 1/2 on square:10: the segment passes through mesh vertices
    # obliquely, where a piece ends at a corner of the triangle it leaves and
    # starts at a corner of the one it enters
    geom = MeshGeometry(generate_square_mesh(10))
    a, b = np.array(a), np.array(b)
    row, want = segment_functional(geom, a, b), closed_form_over_pieces(geom, a, b)
    assert len(want) > 3
    assert max(abs(row.get(e, 0.0) - want.get(e, 0.0)) for e in set(row) | set(want)) <= 1e-14


@pytest.mark.parametrize("mesh", ["square10", "jittered-square8"])
def test_segment_inside_a_mesh_edge_gives_its_share_of_the_edge(mesh):
    # pieces of mesh edges with both ends off the mesh vertices: the segment's
    # line passes through the edge's ends, or within rounding of them, and
    # its share of the edge must land in exactly one triangle
    cx = generate_square_mesh(10) if mesh == "square10" else jitter_interior(generate_square_mesh(8))
    geom = MeshGeometry(cx)
    rng = np.random.default_rng(0)
    edge = rng.integers(0, cx.num_simplices(1), 100)
    share = np.sort(rng.uniform(size=(100, 2)), axis=1)
    u, w = geom.edge_coords[edge].transpose(1, 0, 2)
    pts = u[:, None] + share[..., None] * (w - u)[:, None]
    m = singular.functional_matrix(geom, 1, np.arange(100), np.ones(100), pts,
                                   np.arange(200).reshape(100, 2), 100)
    want = sp.csr_matrix((share[:, 1] - share[:, 0], (np.arange(100), edge)), shape=m.shape)
    assert abs(m - want).max() <= 1e-14


@pytest.mark.parametrize("dim", [1, 2])
def test_functional_matrix_of_no_terms_is_empty(geom2, dim):
    m = singular.functional_matrix(geom2, dim, [], [], [], [], 3)
    assert m.shape == (3, geom2.complex.num_simplices(dim))
    assert m.nnz == 0
    assert m.indptr.tolist() == [0, 0, 0, 0]


def test_a_convex_quadrilateral_weighs_as_its_two_triangles(geom2):
    # a quadrilateral cell is the sum of the triangles on either side of a
    # diagonal, to rounding; a triangle among quadrilaterals has -1 as its
    # fourth corner, and keeps the bits it has alone
    points = np.array([[0.1, 0.2], [0.8, 0.15], [0.9, 0.7], [0.3, 0.95], [0.6, 0.4]])
    corners = [[0, 1, 2, 3], [3, 2, 1, 0], [0, 4, 3, -1]]
    m = singular.functional_matrix(geom2, 2, [0, 1, 2], [1.0, 1.0, 1.0], points, corners, 3)
    halves = singular.functional_matrix(geom2, 2, [0, 0, 1, 1], [1.0] * 4, points,
                                        [[0, 1, 2], [0, 2, 3], [3, 2, 1], [3, 1, 0]], 2)
    assert abs(m[:2] - halves).max() <= 1e-15
    assert m[0].nnz == 8 and abs(m[0] + m[1]).max() <= 1e-15  # reversed, it flips
    alone = singular.functional_matrix(geom2, 2, [0], [1.0], points, [[0, 4, 3]], 1)
    assert m[2].toarray().tobytes() == alone.toarray().tobytes()


def test_a_quadrilateral_off_the_mesh_is_named(geom2):
    points = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 0.9], [0.5, 0.9]])
    with pytest.raises(OutsideDomainError,
                       match=r"^image quadrilateral \(\(0.5, 0.5\), \(1.5, 0.5\), \(1.5, 0.9\), "
                             r"\(0.5, 0.9\)\) leaves the mesh: area 2.000e-01 of its 4.000e-01"):
        singular.functional_matrix(geom2, 2, [0], [1.0], points, [[0, 1, 2, 3]], 1)


def test_triangle_functional_identity_row(geom2):
    pts = np.array(geom2.corners[3])
    row = triangle_functional(geom2, pts)
    assert set(row) == {3}
    assert abs(row[3] - 1.0) < 1e-14


def test_triangle_functional_flips_with_image_orientation(geom2):
    pts = np.array(geom2.corners[3])[::-1]
    row = triangle_functional(geom2, pts)
    assert abs(row[3] + 1.0) < 1e-14


def test_triangle_functional_outside_strict(geom2):
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5]])
    with pytest.raises(OutsideDomainError):
        triangle_functional(geom2, pts)
    row = triangle_functional(geom2, pts, allow_exterior=True)
    assert row  # the overlapping part still contributes


def test_triangle_functional_lists_only_the_triangles_it_overlaps():
    # the image is the union of 9 mesh triangles of square:10: its legs run
    # along a grid row and column, its hypotenuse along mesh diagonals, and
    # its corners are mesh vertices, so other triangles share an edge or a
    # vertex with it without overlapping it
    geom = MeshGeometry(generate_square_mesh(10))
    image = np.array([[0.3, 0.2], [0.6, 0.2], [0.6, 0.5]])
    row = triangle_functional(geom, image)
    x, y = geom.corners.mean(axis=1).T
    inside = (y > 0.2) & (x < 0.6) & (y - 0.2 < x - 0.3)
    assert sorted(row) == np.flatnonzero(inside).tolist() and len(row) == 9
    assert max(abs(w - geom.orientation[t]) for t, w in row.items()) <= 1e-14
    at_corner = (np.abs(geom.corners[:, :, None] - image).max(axis=3) == 0.0).any(axis=(1, 2))
    assert (at_corner & ~inside).any()


def test_touching_image_triangles_reach_no_clip(monkeypatch):
    # the star cone's image triangles run along mesh edges and through mesh
    # vertices; only the pairs that overlap, one per matrix entry, are clipped
    op = DiscretePoincareOperator(star_cone((0.5, 0.5), generate_square_mesh(16)))
    clip = singular._clip
    clipped = []

    def spy(xy, n, sides):
        clipped.append(len(xy))
        return clip(xy, n, sides)

    monkeypatch.setattr(singular, "_clip", spy)
    nnz = op.matrix(2).nnz
    assert sum(clipped) == nnz == 11360


@pytest.mark.parametrize("n", [10, 20])
def test_lipschitz_top_matrix_keeps_no_sliver_entries(n):
    # the contraction's image triangles touch mesh triangles along edges;
    # such pairs once left entries of order 1e-30
    cx = generate_ushape_mesh(n)
    phi = SlabAffineContraction.ushape((0.2, 0.2))
    m = DiscretePoincareOperator(lipschitz_cone(phi, cx)).matrix(2)
    assert m.nnz and np.abs(m.data).min() >= 1e-13


def edge_row(cx, u, v):
    """The row of the mesh edge from vertex u to vertex v: 1 on it, 0 elsewhere."""
    return {cx.index(tuple(sorted((u, v)))): 1.0 if u < v else -1.0}


@pytest.mark.parametrize("path", [[(0.3, 0.3), (0.4, 0.4)],
                                  [(0.3, 0.2), (0.3, 0.3), (0.3, 0.4)],
                                  [(0.2, 0.3), (0.3, 0.3), (0.4, 0.3)]],
                         ids=["one-edge", "two-vertical-edges", "two-horizontal-edges"])
def test_segment_along_mesh_edges_gives_their_weights(path):
    # a segment on interior mesh edges only touches the triangles on either
    # side, and they must still split and integrate it
    cx = generate_square_mesh(10)
    ids = [vertex_at(cx, p) for p in path]
    want = {}
    for u, v in zip(ids, ids[1:]):
        want.update(edge_row(cx, u, v))
    row = segment_functional(MeshGeometry(cx), np.array(path[0]), np.array(path[-1]))
    assert set(want) <= set(row)
    assert max(abs(row[e] - want.get(e, 0.0)) for e in row) <= 1e-15


def test_exterior_segment_contributes_nothing(geom2):
    row = segment_functional(geom2, np.array([2.0, 2.0]), np.array([3.0, 2.5]))
    assert row == {}


def wedge_row(geom, p, a, b):
    """Reference row of the infinite cone (p, a, b), one mesh triangle at a time.

    Each triangle is clipped by the wedge's two half-planes through p (a
    scalar Sutherland-Hodgman) and weighted by its overlap area, with the
    sign of the cone's orientation.
    """
    det = (a[0] - p[0]) * (b[1] - p[1]) - (a[1] - p[1]) * (b[0] - p[0])
    if det == 0.0:
        return {}
    u, w = (a, b) if det > 0 else (b, a)
    row = {}
    for t, corners in enumerate(geom.corners):
        poly = [tuple(c) for c in corners]
        for c1, c2 in ((p, u), (w, p)):  # keep the points left of c1 -> c2
            dist = [(c2[0] - c1[0]) * (q[1] - c1[1]) - (c2[1] - c1[1]) * (q[0] - c1[0])
                    for q in poly]
            out = []
            for i, (q, d) in enumerate(zip(poly, dist)):
                r, dr = poly[i - 1], dist[i - 1]
                if (d >= 0.0) != (dr >= 0.0):
                    f = dr / (dr - d)
                    out.append((r[0] + f * (q[0] - r[0]), r[1] + f * (q[1] - r[1])))
                if d >= 0.0:
                    out.append(q)
            poly = out
        area = abs(0.5 * sum(x0 * y1 - x1 * y0
                             for (x0, y0), (x1, y1) in zip(poly[-1:] + poly[:-1], poly)))
        if area > 0.0:
            row[t] = float(np.sign(det)) * area / geom.signed_area[t]
    return row


@pytest.mark.parametrize("apex", [(0.52, 0.51), (1.7, 1.3), (1.5, 0.5)],
                         ids=["inside", "outside", "collinear"])
def test_cone_functional_matches_the_clipped_wedge(square2, geom2, apex):
    # the cone is its star triangle plus its shadow inside the bounding box;
    # the reference clips the whole wedge instead
    collinear = 0
    for s in square2.simplices(1):
        a, b = (tuple(square2.coordinates[v]) for v in s)
        row = cone_functional(geom2, InfiniteCone((apex, a, b)))
        ref = wedge_row(geom2, apex, a, b)
        if not ref:
            collinear += 1
            assert row == {}
        for t in set(row) | set(ref):
            assert abs(row.get(t, 0.0) - ref.get(t, 0.0)) < 1e-13, (apex, s, t)
    # only the edges on the line y = 0.5 are collinear with (1.5, 0.5)
    assert collinear == (2 if apex == (1.5, 0.5) else 0)


def test_degenerate_cone_integrates_to_zero(geom2):
    cone = InfiniteCone(((0.25, 2.0), (0.25, 0.5), (0.25, 1.0)))  # collinear
    assert cone_functional(geom2, cone) == {}


def test_chain_functional_combines_terms(square2, geom2):
    rng = np.random.default_rng(10)
    alpha = random_cochain(square2, 2, rng)
    t0 = LinearSimplex(tuple(map(tuple, geom2.corners[0])))
    t1 = LinearSimplex(tuple(map(tuple, geom2.corners[1])))
    chain = SingularChain(2, [(2, t0), (-1, t1)])
    row = chain_functional(geom2, chain)
    val = sum(alpha.values[i] * w for i, w in row.items())
    assert abs(val - (2 * alpha.values[0] - alpha.values[1])) < 1e-13


SHADOW_MESHES = {"square:8": lambda: generate_square_mesh(8),
                 "square:16": lambda: generate_square_mesh(16),
                 "ushape:20": lambda: generate_ushape_mesh(20)}

# sha256 of the data, indices and indptr of Bogovskii matrix(1) and matrix(2)
# at (0.152, 0.151), recorded since segments are cut to each triangle at
# crossings both neighbours share, only exactly flat simplices count as
# degenerate, and a triangle inside an image weighs exactly +-1
SHADOW_MATRIX_DIGESTS = {
    "square:8": "cc84a273149f669953f43c0a7136cb55cd88ebafd5c1a09e2fdeda9dcdae1057",
    "square:16": "b617fb457610106209daceb4942d9221e32905dff5dfe7751db9cfc71d048ef9",
    "ushape:20": "87356c63a40efee9b60830224d7a15f20030c25be23af4a4c94d3438c2db13a1",
}


@pytest.fixture(scope="module", params=sorted(SHADOW_MESHES))
def shadow_op(request):
    build = unchecked_bogovskii if request.param.startswith("ushape") else BogovskiiOperator
    return request.param, build((0.152, 0.151), SHADOW_MESHES[request.param]())


def test_shadow_cone_stores_no_degenerate_piece(shadow_op):
    _, op = shadow_op
    pieces = [s.points for chain in op.cone.table.values() for _, s in chain.terms]
    assert pieces
    assert not [p for p in pieces if is_degenerate(p)]


def _strictly_inside(tri, corner) -> bool:
    """Exactly, in rationals: is the point strictly inside the triangle?"""
    (ax, ay), (bx, by), (cx, cy), (px, py) = ([Fraction(v) for v in p] for p in (*tri, corner))
    o = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return all(o * ((qx - sx) * (py - sy) - (qy - sy) * (px - sx)) > 0
               for (sx, sy), (qx, qy) in (((ax, ay), (bx, by)), ((bx, by), (cx, cy)),
                                          ((cx, cy), (ax, ay))))


@pytest.mark.parametrize("jitter", [False, True])
def test_triangles_inside_an_image_weigh_exactly_one(jitter):
    # a mesh triangle strictly inside the image overlaps it whole: its weight
    # is the image's orientation times the triangle's, exactly, with no clip
    cx = generate_square_mesh(8)
    if jitter:
        cx = jitter_interior(cx, seed=3, amplitude=0.2)
    geom = MeshGeometry(cx)
    rng = np.random.default_rng(11)
    enclosed = 0
    for image in rng.uniform(-0.04, 0.04, (3, 3, 2)) + [[0.05, 0.05], [0.95, 0.05], [0.05, 0.95]]:
        # about half the square, in both orientations
        for pts, sign in ((image, 1.0), (image[::-1], -1.0)):
            row = triangle_functional(geom, pts)
            for t, corners in enumerate(geom.corners.tolist()):
                if all(_strictly_inside(pts.tolist(), c) for c in corners):
                    enclosed += 1
                    assert row[t] == sign * np.sign(geom.signed_area[t]), t
    assert enclosed >= 100


def test_shadow_matrices_keep_their_bits(shadow_op):
    name, op = shadow_op
    assert matrix_digest(op) == SHADOW_MATRIX_DIGESTS[name]
