"""Singular chains, degeneracy, clipping, and the planar integration engine."""

import hashlib

import numpy as np
import pytest

from decpotentials import BogovskiiOperator, generate_square_mesh, generate_ushape_mesh
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
from conftest import random_cochain


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
# at (0.152, 0.151), recorded while shadow_pieces still emitted fan triangles
# of zero area (functional_matrix dropped them)
SHADOW_MATRIX_DIGESTS = {
    "square:8": "a2e19804237183636f613c0a0c24fdc63a87478873637a7b5ac4de805cf3e2be",
    "square:16": "5ffe1186a47e1da9c7f18c75ac7dcbe0abc696157642a5ccc7df37cde18f8a81",
    "ushape:20": "94458851932de3ec367eed4a5feb25806eff1b0ca596f6a6c7b883be4ebb3d7b",
}


@pytest.fixture(scope="module", params=sorted(SHADOW_MESHES))
def shadow_op(request):
    return request.param, BogovskiiOperator((0.152, 0.151), SHADOW_MESHES[request.param]())


def test_shadow_cone_stores_no_degenerate_piece(shadow_op):
    _, op = shadow_op
    pieces = [s.points for chain in op.cone.table.values() for _, s in chain.terms]
    assert pieces
    assert not [p for p in pieces if is_degenerate(p)]


def test_shadow_matrices_keep_their_bits(shadow_op):
    name, op = shadow_op
    h = hashlib.sha256()
    for k in (1, 2):
        m = op.matrix(k)
        for part in (m.data, m.indices, m.indptr):
            h.update(part.tobytes())
    assert h.hexdigest() == SHADOW_MATRIX_DIGESTS[name]
