"""Whitney interpolation and the de Rham (integration) map."""

import warnings

import numpy as np
import pytest
from scipy.spatial import Delaunay

from decpotentials import generate_square_mesh, generate_ushape_mesh
from decpotentials.simplicial import Cochain, SimplicialComplex, coboundary
from decpotentials.whitney import (GAUSS3_NODES, GAUSS3_WEIGHTS, TRI6_BARY, TRI6_WEIGHTS,
                                   MeshGeometry, _dot, de_rham, whitney_value)

from conftest import jitter_interior


def test_barycentric_gradients(triangle):
    geom = MeshGeometry(triangle)
    # reference triangle: grad(lambda_0) = (-1,-1), lambda_1 -> (1,0), lambda_2 -> (0,1)
    assert np.allclose(geom.gradients[0], [[-1, -1], [1, 0], [0, 1]])
    assert geom.signed_area[0] == 0.5
    assert geom.orientation[0] == 1


def test_edge_whitney_value_at_barycenter(triangle):
    geom = MeshGeometry(triangle)
    alpha = Cochain(triangle, 1, np.array([1.0, 0.0, 0.0]))  # edge (0,1) indicator
    val = whitney_value(geom, alpha, np.array([1 / 3, 1 / 3]))
    # lambda_0 grad(lambda_1) - lambda_1 grad(lambda_0) at the barycenter
    assert np.allclose(val, [2 / 3, 1 / 3], atol=1e-15)


def test_scalar_partition_of_unity(square2, geom2):
    ones = Cochain(square2, 0, np.ones(square2.num_simplices(0)))
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(0, 1, 2)
        assert abs(whitney_value(geom2, ones, p) - 1.0) < 1e-14


def test_density_value_is_area_normalized(triangle):
    geom = MeshGeometry(triangle)
    alpha = Cochain(triangle, 2, np.array([0.7]))
    val = whitney_value(geom, alpha, np.array([0.2, 0.2]))
    assert abs(val - 0.7 / 0.5) < 1e-15


def test_de_rham_inverts_whitney(square2, geom2):
    # R W = id in every degree; all three quadratures are exact here
    rng = np.random.default_rng(4)
    for k in (0, 1, 2):
        alpha = Cochain(square2, k, rng.uniform(-1, 1, square2.num_simplices(k)))
        back = de_rham(square2, lambda p: whitney_value(geom2, alpha, p), k)
        assert np.max(np.abs(back.values - alpha.values)) < 1e-13


def test_de_rham_commutes_with_d(square2):
    # d R(u) = R(du) for polynomial data the quadratures integrate exactly
    u = lambda p: p[0] ** 2 + p[0] * p[1]
    du = lambda p: np.array([2 * p[0] + p[1], p[0]])
    lhs = coboundary(de_rham(square2, u, 0))
    rhs = de_rham(square2, du, 1)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-14

    F = lambda p: np.array([-p[1] ** 2, p[0] ** 2])
    curlF = lambda p: 2 * p[0] + 2 * p[1]
    lhs = coboundary(de_rham(square2, F, 1))
    rhs = de_rham(square2, curlF, 2)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-14


def test_integral_of_g1_is_one_36th(square8, geom8):
    g1 = lambda p: p[0] * (1 - p[0]) * p[1] * (1 - p[1])
    rg1 = de_rham(square8, g1, 2)
    total = float(rg1.values @ geom8.orientation)
    assert abs(total - 1 / 36) < 1e-15


def test_edge_integral_of_f(square1):
    f = lambda p: np.array([p[1] - 0.5, p[0] - 0.5])
    rf = de_rham(square1, f, 1)
    # along (0,0) -> (1,0) the tangential part is y - 1/2 = -1/2
    assert abs(rf.evaluate((0, 1)) - (-0.5)) < 1e-15


def test_curl_free_field_has_exact_zero_curl(square8):
    f = lambda p: np.array([p[1] - 0.5, p[0] - 0.5])
    rf = de_rham(square8, f, 1)
    assert np.max(np.abs(coboundary(rf).values)) < 1e-15


def test_locate(geom2):
    assert geom2.locate(np.array([0.1, 0.05])) == 0
    assert geom2.locate(np.array([2.0, 2.0])) is None
    # a shared vertex belongs to several triangles; lowest index wins
    t = geom2.locate(np.array([0.5, 0.5]))
    assert t is not None
    assert t == min(i for i in range(geom2.signed_area.size)
                    if np.all(geom2.barycentric(i, [0.5, 0.5]) >= -1e-12))


def test_locate_puts_points_with_a_nan_or_infinite_coordinate_nowhere(geom2, square2):
    # a NaN coordinate has no grid cell: it used to be cast to int64 (with
    # numpy's "invalid value" warning) and then index the grid out of bounds
    points = np.array([[np.nan, 0.5], [0.1, 0.05], [0.5, np.nan], [np.nan, np.nan],
                       [np.inf, 0.5], [-np.inf, np.nan], [0.3, 0.2]])
    finite = np.isfinite(points).all(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = geom2.locate_all(points)
        assert geom2.locate(np.array([np.nan, 0.5])) is None
    assert got[~finite].tolist() == [-1] * 5
    assert got[finite].tolist() == geom2.locate_all(points[finite]).tolist() == [0, 0]
    rng = np.random.default_rng(6)
    for k in range(3):
        alpha = Cochain(square2, k, rng.uniform(-1, 1, square2.num_simplices(k)))
        with pytest.raises(ValueError, match="lies outside the mesh"):
            whitney_value(geom2, alpha, np.array([np.nan, 0.5]))


def test_locate_on_a_mesh_scaled_by_1e17_puts_non_finite_points_nowhere():
    # the mesh's lower-left corner sits at (1e17, 1e17), where a sentinel point
    # one unit below it rounds back onto the corner, inside triangle 0
    square = generate_square_mesh(4)
    big = SimplicialComplex.from_rows([square._rows[2]], (square.coordinates + 1.0) * 1e17)
    geom = MeshGeometry(big)
    assert geom.bbox_min.tolist() == [1e17, 1e17] and (geom.bbox_min - 1.0 == 1e17).all()
    centroids = geom.corners.mean(axis=1)
    odd = np.array([[np.nan, 1.5e17], [np.nan, np.nan], [np.inf, 1.5e17], [1.5e17, -np.inf],
                    [-np.inf, np.nan]])
    points = np.concatenate([odd, centroids, odd])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = geom.locate_all(points)
    n = len(odd)
    assert got[:n].tolist() == got[-n:].tolist() == [-1] * n
    assert got[n:-n].tolist() == list(range(len(centroids)))


def test_whitney_value_names_the_first_outside_point_as_floats(geom2, square2):
    alpha = Cochain(square2, 0, np.zeros(square2.num_simplices(0)))
    for point in (np.array([np.nan, 0.5]), (np.nan, 0.5), [np.nan, 0.5],
                  np.array([[0.3, 0.2], [np.nan, 0.5], [2.0, 0.5]])):
        with pytest.raises(ValueError) as info:
            whitney_value(geom2, alpha, point)
        assert str(info.value) == "point (nan, 0.5) lies outside the mesh"
    with pytest.raises(ValueError) as info:
        whitney_value(geom2, alpha, np.array([[[0.3, 0.2], [0.1, 0.1]], [[0.2, 0.1], [1.5, -0.5]]]))
    assert str(info.value) == "point (1.5, -0.5) lies outside the mesh"


def test_whitney_value_with_triangle_hint(geom2, square2):
    rng = np.random.default_rng(5)
    alpha = Cochain(square2, 1, rng.uniform(-1, 1, square2.num_simplices(1)))
    p = np.array([0.3, 0.2])
    t = geom2.locate(p)
    assert np.allclose(whitney_value(geom2, alpha, p),
                       whitney_value(geom2, alpha, p, t))


def test_whitney_value_builds_no_simplex_tuples():
    cx = generate_square_mesh(8)
    geom = MeshGeometry(cx)
    rng = np.random.default_rng(8)
    p = np.array([0.37, 0.61])
    t = geom.locate(p)
    for k in range(3):
        alpha = Cochain(cx, k, rng.uniform(-1, 1, cx.num_simplices(k)))
        value = whitney_value(geom, alpha, p)
        if k == 0:
            corners = geom.corner_rows[t]
            assert value == float(geom.barycentric(t, p) @ alpha.values[corners])
    assert "simplices_by_dim" not in vars(cx)
    assert "_index" not in vars(cx)


def test_grid_locate_matches_a_full_scan(jittered):
    # random points in and around the domain, every vertex and every edge
    # midpoint: on shared edges and vertices the lowest triangle index wins
    _, cx = jittered
    geom = MeshGeometry(cx)
    coords = cx.coordinates
    edges = np.array(cx.simplices(1))
    points = np.concatenate([np.random.default_rng(11).uniform(-0.1, 1.1, (300, 2)), coords,
                             0.5 * (coords[edges[:, 0]] + coords[edges[:, 1]])])
    everything = np.arange(len(geom.corners))
    for p, t in zip(points, geom.locate_all(points)):
        hits = np.nonzero((geom.barycentric(everything, p) >= -1e-12).all(axis=1))[0]
        assert t == (hits[0] if hits.size else -1)
        assert geom.locate(p) == (int(hits[0]) if hits.size else None)


@pytest.mark.parametrize("mesh", ["square8", "jittered-square8", "jittered-ushape10"])
def test_candidates_are_a_full_scan_of_bounding_boxes(mesh):
    cx = {"square8": lambda: generate_square_mesh(8),
          "jittered-square8": lambda: jitter_interior(generate_square_mesh(8)),
          "jittered-ushape10": lambda: jitter_interior(generate_ushape_mesh(10))}[mesh]()
    geom = MeshGeometry(cx)
    tmin, tmax = geom.corners.min(axis=1), geom.corners.max(axis=1)
    rng = np.random.default_rng(5)
    lo = rng.uniform(-0.2, 1.1, (300, 2))
    t = rng.integers(0, len(tmin), 200)
    right = np.stack([tmax[t, 0], tmin[t, 1] - 0.01], axis=1)
    above = np.stack([tmin[t, 0] - 0.01, tmax[t, 1]], axis=1)
    # random boxes, then point boxes: random points, every vertex and each
    # triangle's upper right box corner; then boxes whose lower (upper) edge
    # is a triangle box's upper (lower) edge, met at one coordinate only
    lo = np.concatenate([lo, rng.uniform(-0.2, 1.1, (200, 2)), cx.coordinates, tmax, right,
                         above, tmin[t] - 0.02])
    hi = np.concatenate([lo[:300] + rng.uniform(0.0, 0.3, (300, 2)), lo[300:-3 * len(t)],
                         right + 0.01, above + 0.01, np.stack([tmin[t, 0] + 0.01, tmin[t, 1]], 1)])
    box, tri = geom.candidates(lo, hi)
    # the grid lists a box's triangles cell by cell (each filed under the
    # cell of its box's lower left corner), in index order within a cell
    ix, iy = geom._cell_of(tmin)
    filed = iy * geom._shape[0] + ix
    meets = ((tmin <= hi[:, None]) & (tmax >= lo[:, None])).all(axis=2)
    want_box, want_tri = np.nonzero(meets)
    order = np.lexsort((want_tri, filed[want_tri], want_box))
    assert np.array_equal(box, want_box[order]) and np.array_equal(tri, want_tri[order])
    # the test is closed: a box that meets a triangle's box at one
    # coordinate lists the triangle
    touch = len(lo) - 3 * len(t) + np.arange(3 * len(t))
    assert meets[touch, np.tile(t, 3)].all()


def test_triangle_edges_and_vertices_follow_the_canonical_tuples():
    # an equality pin: the arrays read from the complex's rows and coboundary
    # are what a loop over the canonical simplex tuples gives
    points = np.vstack([[[0, 0], [1, 0], [0, 1], [1, 1]],
                        np.random.default_rng(17).uniform(size=(200, 2))])
    for cx in (generate_square_mesh(8), generate_ushape_mesh(20),
               SimplicialComplex(Delaunay(points).simplices, points)):
        geom = MeshGeometry(cx)
        index = {s: i for i, s in enumerate(cx.simplices(1))}
        want = [[index[(a, b)], index[(a, c)], index[(b, c)]] for a, b, c in cx.simplices(2)]
        assert geom.triangle_edges.tolist() == want
        assert cx._rows[2].tolist() == [list(t) for t in cx.simplices(2)]
        assert np.array_equal(geom.edge_coords, cx.coordinates[np.array(cx.simplices(1))])


# The de Rham map as it was written before it took one pass per degree: a
# loop over the canonical simplex tuples and the quadrature nodes.  The
# batched map must give every value bit for bit.
def loop_de_rham(cx, field, k):
    coords = cx.coordinates
    if k == 0:
        return np.array([float(field(coords[v])) for (v,) in cx.simplices(0)])
    vals = np.empty(cx.num_simplices(k))
    if k == 1:
        for i, (u, v) in enumerate(cx.simplices(1)):
            p, q = coords[u], coords[v]
            d = q - p
            acc = 0.0
            for t, w in zip(GAUSS3_NODES, GAUSS3_WEIGHTS):
                acc += w * float(np.asarray(field(p + t * d)) @ d)
            vals[i] = acc
        return vals
    for i, tri in enumerate(cx.simplices(2)):
        P = coords[np.array(tri)]
        e1 = P[1] - P[0]
        e2 = P[2] - P[0]
        area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
        acc = 0.0
        for p, w in zip(TRI6_BARY @ P, TRI6_WEIGHTS):
            acc += w * float(field(p))
        vals[i] = area * acc
    return vals


ORACLE_FIELDS = {
    0: [lambda p: p[0] * (1.0 - p[0]) * p[1] * (1.0 - p[1]),
        lambda p: np.sin(3.0 * p[0]) * np.exp(p[1]),
        lambda p: p[0] - 2.0 * p[1] ** 3 + 0.1],
    1: [lambda p: np.array([p[1] - 0.5, p[0] - 0.5]),
        lambda p: [np.cos(2.0 * p[1]), p[0] * p[1] - 0.3],
        lambda p: (p[1] ** 2 - 0.3, np.exp(-p[0]) * np.sin(p[1]))],
    2: [lambda p: p[0] * (1.0 - p[0]) * p[1] * (1.0 - p[1]),
        lambda p: p[0] * (1.0 - p[0]) * p[1] * (1.0 - p[1]) - 1.0 / 36.0,
        lambda p: np.sin(5.0 * p[0] * p[1]) + p[0] ** 3],
}


def oracle_mesh(name):
    if name == "delaunay204":
        points = np.vstack([[[0, 0], [1, 0], [0, 1], [1, 1]],
                            np.random.default_rng(9).uniform(size=(200, 2))])
        return SimplicialComplex(Delaunay(points).simplices, points)
    return {"square7": lambda: generate_square_mesh(7),
            "ushape10": lambda: generate_ushape_mesh(10)}[name]()


@pytest.mark.parametrize("mesh", ["square7", "ushape10", "delaunay204"])
def test_de_rham_is_the_simplex_loop_bit_for_bit(mesh):
    cx = oracle_mesh(mesh)
    for k, fields in ORACLE_FIELDS.items():
        for n, field in enumerate(fields):
            got = de_rham(cx, field, k).values
            assert got.dtype == np.float64 and got.shape == (cx.num_simplices(k),)
            assert got.tobytes() == loop_de_rham(cx, field, k).tobytes(), (k, n)


@pytest.mark.parametrize("mesh", ["square7", "ushape10", "delaunay204"])
def test_de_rham_calls_the_field_once_per_node_in_simplex_order(mesh):
    for k, nodes in ((0, 1), (1, 3), (2, 6)):
        cx, seen = oracle_mesh(mesh), []
        de_rham(cx, lambda p: seen.append(np.array(p)) or (np.ones(2) if k == 1 else 1.0), k)
        # the batched map reads the complex's rows, not its simplex tuples
        assert "simplices_by_dim" not in vars(cx) and "_index" not in vars(cx)
        want = []
        loop_de_rham(cx, lambda p: want.append(np.array(p)) or (np.ones(2) if k == 1 else 1.0), k)
        assert len(seen) == nodes * cx.num_simplices(k)
        assert all(p.shape == (2,) for p in seen)
        assert np.array(seen).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("mesh", ["square7", "ushape10", "delaunay204"])
def test_whitney_value_of_many_points_is_the_point_loop_bit_for_bit(mesh):
    cx = oracle_mesh(mesh)
    geom = MeshGeometry(cx)
    rng = np.random.default_rng(21)
    # a random point of every triangle, and every barycenter
    lam = rng.dirichlet(np.ones(3), len(geom.corners))
    points = np.concatenate([np.einsum("ti,tij->tj", lam, geom.corners),
                             geom.corners.mean(axis=1)])
    triangles = np.tile(np.arange(len(geom.corners)), 2)
    for k in range(3):
        alpha = Cochain(cx, k, rng.uniform(-1, 1, cx.num_simplices(k)))
        got = whitney_value(geom, alpha, points, triangles)
        want = np.array([whitney_value(geom, alpha, p, int(t)) for p, t in zip(points, triangles)])
        assert got.shape == want.shape == (len(points),) + ((2,) if k == 1 else ())
        assert got.tobytes() == want.tobytes(), k
        # barycenters lie inside one triangle each, the one locating them finds
        located = whitney_value(geom, alpha, points[len(geom.corners):])
        assert located.tobytes() == got[len(geom.corners):].tobytes(), k
        if k == 0:
            # one point's value is one dot of its barycentrics with its corner values
            t = int(triangles[0])
            corners = alpha.values[geom.corner_rows[t]]
            assert got[0] == float(geom.barycentric(t, points[0]) @ corners)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 64, 100, 1000, 4099, 8192])
def test_row_dot_rounds_as_the_dot_of_each_pair_of_rows(n):
    rng = np.random.default_rng(n)
    u = rng.uniform(-1, 1, (12, n))
    v = rng.uniform(-1, 1, n)
    want = np.array([row @ v for row in u])
    assert _dot(u, v).tobytes() == want.tobytes()
    w = rng.uniform(-1, 1, (12, n))
    assert _dot(u, w).tobytes() == np.array([a @ b for a, b in zip(u, w)]).tobytes()
    signs = rng.choice([-1, 1], n)
    assert _dot(u, signs).tobytes() == np.array([row @ signs for row in u]).tobytes()


@pytest.mark.parametrize("mesh", ["square7", "ushape10"])
def test_scalar_triangle_index_gives_the_row_of_the_batched_call(mesh):
    geom = MeshGeometry(oracle_mesh(mesh))
    rng = np.random.default_rng(8)
    triangles = np.arange(len(geom.corners))
    points = np.einsum("ti,tij->tj", rng.dirichlet(np.ones(3), len(triangles)), geom.corners)
    for method in (geom.barycentric, geom.edge_forms):
        batch = method(triangles, points)
        for t in (0, len(triangles) // 2, len(triangles) - 1):
            for index in (t, np.int64(t), np.intp(t)):
                one = method(index, points[t])
                assert one.shape == batch.shape[1:]
                assert one.tobytes() == batch[t].tobytes()
    t = geom.locate(points[3])
    assert type(t) is int
    assert geom.barycentric(t, points[3]).min() >= -1e-12
    assert geom.locate(np.array([5.0, 5.0])) is None
