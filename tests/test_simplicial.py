"""Chains, cochains, boundary/coboundary, and simplicial maps."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import Delaunay

from decpotentials import generate_square_mesh, generate_ushape_mesh, simplicial
from decpotentials.homotopy import ProductComplex, uniform_breakpoints
from decpotentials.singular import segment_functional
from decpotentials.whitney import MeshGeometry
from decpotentials.simplicial import (
    _face_closure,
    Chain,
    Cochain,
    SimplicialComplex,
    SimplicialMap,
    boundary,
    canonical_simplex,
    coboundary,
    facets_of,
    induced_chain_map,
    pairing,
    validate_simplicial_map,
)

from conftest import csc_conversions, dangling_edge_complex


def test_canonical_simplex_parity():
    assert canonical_simplex((0, 1, 2)) == ((0, 1, 2), 1)
    assert canonical_simplex((1, 0)) == ((0, 1), -1)
    assert canonical_simplex((2, 0, 1)) == ((0, 1, 2), 1)   # even cycle
    assert canonical_simplex((0, 2, 1)) == ((0, 1, 2), -1)  # one swap
    assert canonical_simplex((5,)) == ((5,), 1)


def test_canonical_simplex_rejects_repeats():
    with pytest.raises(ValueError):
        canonical_simplex((0, 1, 0))


def test_facets_alternate():
    assert facets_of((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]


def test_closure_of_triangle():
    cx = SimplicialComplex([(0, 1, 2)])
    assert cx.dim == 2
    assert cx.simplices(0) == [(0,), (1,), (2,)]
    assert cx.simplices(1) == [(0, 1), (0, 2), (1, 2)]
    assert cx.simplices(2) == [(0, 1, 2)]
    assert (0, 1) in cx and (0, 1, 2) in cx and (0, 3) not in cx


def test_boundary_of_triangle():
    cx = SimplicialComplex([(0, 1, 2)])
    b = boundary(Chain.single(cx, (0, 1, 2)))
    assert b.terms == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


def test_boundary_squares_to_zero(square2):
    rng = np.random.default_rng(0)
    for k in (1, 2):
        for _ in range(10):
            terms = {s: int(rng.integers(-5, 6))
                     for s in square2.simplices(k) if rng.random() < 0.4}
            c = Chain(square2, k, terms)
            assert boundary(boundary(c)).is_zero()


def test_coboundary_squares_to_zero(square2):
    d0 = square2.coboundary_matrix(0)
    d1 = square2.coboundary_matrix(1)
    product = (d1 @ d0).toarray()
    assert product.dtype.kind == "i"
    assert np.all(product == 0)


def test_coboundary_is_adjoint_of_boundary(square2):
    # <d alpha, c> == <alpha, boundary c>, exactly, on integer data
    rng = np.random.default_rng(1)
    for k in (0, 1):
        for _ in range(10):
            alpha = Cochain(square2, k, rng.integers(-9, 10, square2.num_simplices(k)))
            terms = {s: int(rng.integers(-3, 4)) for s in square2.simplices(k + 1)}
            c = Chain(square2, k + 1, terms)
            assert pairing(coboundary(alpha), c) == pairing(alpha, boundary(c))


def test_cochain_evaluate_is_signed(square2):
    alpha = Cochain(square2, 1, np.arange(square2.num_simplices(1), dtype=float))
    assert alpha.evaluate((1, 0)) == -alpha.evaluate((0, 1))


def test_euler_characteristic_and_boundary(square2):
    assert square2.euler_characteristic() == 1
    assert len(square2.boundary_simplices(1)) == 8
    assert len(square2.boundary_simplices(0)) == 8
    interior = [v for (v,) in square2.simplices(0)
                if (v,) not in set(square2.boundary_simplices(0))]
    assert interior == [4]


def test_boundary_indices_locate_the_boundary_simplices(square2):
    for k in range(square2.dim + 1):
        rows = square2.boundary_indices(k)
        assert rows.tolist() == [square2.index(s) for s in square2.boundary_simplices(k)]
        assert rows is square2.boundary_indices(k)
        assert not rows.flags.writeable
    assert square2.boundary_indices(2).size == 0


def test_positions_find_rows_and_name_none_for_the_rest(square2):
    for k in range(3):
        rows = np.array(square2.simplices(k))
        assert square2.positions(k, rows).tolist() == list(range(len(rows)))
        assert square2.positions(k, rows[::-1]).tolist() == list(range(len(rows)))[::-1]
        assert square2.positions(k, []).tolist() == []
        assert square2.positions(k, np.empty((0, k + 1), dtype=np.int64)).tolist() == []
    assert square2.positions(1, [(1, 0), (0, 99), (0, 1)]).tolist() == [-1, -1, 0]


def test_cofacets(square2):
    assert square2.cofacets((0, 1)) == [(0, 1, 4)]
    assert len(square2.cofacets((0, 4))) == 2


def test_a_dangling_edge_keeps_its_cofacets_boundary_and_segment_rows():
    # an edge of no triangle, last among the edges: its cofacet column is
    # empty, past every other column's end
    cx = dangling_edge_complex()
    assert [cx.boundary_indices(k).tolist() for k in range(3)] == [[0, 1, 2], [0, 1, 2], []]
    assert cx.cofacets((2, 3)) == [] and cx.cofacets((2,)) == [(0, 2), (1, 2), (2, 3)]
    geom = MeshGeometry(cx)
    assert segment_functional(geom, (0.25, 0.26), (0.0, 2.0)) == {
        0: 0.0822147651006711, 1: 0.40778523489932883, 2: 0.16442953020134224}
    assert segment_functional(geom, (0.0, 0.0), (0.0, 1.0)) == {1: 1.0}
    assert segment_functional(geom, (0.0, 1.0), (0.0, 2.0)) == {}


def test_cofacet_columns_are_converted_once_per_degree_on_first_read(monkeypatch):
    cx = generate_square_mesh(2)
    shapes = csc_conversions(monkeypatch)
    assert cx.cofacets((0, 1)) == [(0, 1, 4)] and shapes == [cx.coboundary_matrix(1).shape]
    cx.boundary_indices(1), cx.cofacets((0, 4))
    assert cx._cofacet_csc(1) is cx._cofacet_csc(1) and len(shapes) == 1


def test_chain_algebra(square2):
    a = Chain.single(square2, (0, 1))
    b = Chain.single(square2, (1, 0))
    assert (a + b).is_zero()          # opposite orientations cancel
    assert (2 * a - a) == a
    assert (-a).terms == {(0, 1): -1}


def test_validate_simplicial_map(square2, square1):
    ok = validate_simplicial_map({v: 0 for (v,) in square2.simplices(0)},
                                 square2, square2)
    assert ok.ok
    # collapsing only one diagonal endpoint breaks some triangles
    bad = validate_simplicial_map(
        {v: (0 if v == 8 else v) for (v,) in square2.simplices(0)}, square2, square2)
    assert not bad.ok
    assert (4, 7, 8) in bad.violations


def test_induced_chain_map_drops_degenerate(square2):
    const = SimplicialMap(square2, square2, {v: 4 for (v,) in square2.simplices(0)})
    image = induced_chain_map(const, Chain.single(square2, (0, 1)))
    assert image.is_zero()
    ident = SimplicialMap(square2, square2, lambda v: v)
    c = 3 * Chain.single(square2, (0, 1, 4))
    assert induced_chain_map(ident, c) == c


def test_complex_requires_consistent_coordinates():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1, 2)], np.zeros((3, 2)))  # all vertices coincide
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1, 2)], np.array([[0.0, 0.0], [1.0, 0.0]]))  # too short


def test_degenerate_geometry_names_the_first_offender_in_order():
    # zero-length edges (3, 6) and (4, 5); the edges are checked before the
    # lexicographically earlier flat triangle (0, 1, 2)
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0],
                       [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^zero-length edge \(3, 6\)$"):
        SimplicialComplex([(2, 4, 5), (3, 5, 6), (0, 1, 2), (0, 1, 3)], coords)
    # flat triangles (0, 2, 4) and (1, 2, 4), no zero-length edge
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match=r"^degenerate triangle \(0, 2, 4\)$"):
        SimplicialComplex([(1, 2, 4), (0, 1, 3), (0, 2, 4)], coords)


def _geometry_error_reference(cx_rows, coords):
    """The mesh check as one scalar loop over the edges, then the triangles."""
    for u, v in cx_rows.get(1, []):
        if np.all(coords[u] == coords[v]):
            return f"zero-length edge {(u, v)}"
    for a, b, c in cx_rows.get(2, []):
        e1 = coords[b] - coords[a]
        e2 = coords[c] - coords[a]
        if e1[0] * e2[1] - e1[1] * e2[0] == 0.0:
            return f"degenerate triangle {(a, b, c)}"
    return None


def test_degenerate_geometry_check_matches_a_scalar_loop():
    # vertices 0-2 on a coarse grid of tenths (coincident points, flat
    # triangles) and 3-5 on one line through grid points, whose rounded
    # cross product is zero for some triples and not for others
    rng = np.random.default_rng(15)
    outcomes = set()
    for _ in range(300):
        start, step = rng.integers(0, 10, 2), rng.integers(-3, 4, 2)
        line = start + rng.choice([1, 2, 3], size=3, replace=False)[:, None] * step
        coords = np.concatenate([rng.integers(0, 4, size=(3, 2)), line]) / 10
        triangles = [tuple(rng.permutation(t).tolist()) for t in ((0, 1, 2), (3, 4, 5))]
        want = _geometry_error_reference(_closure_reference(triangles), coords)
        try:
            SimplicialComplex(triangles, coords)
            got = None
        except ValueError as err:
            got = str(err)
        assert got == want
        outcomes.add(want)
    assert {None, "degenerate triangle (3, 4, 5)"} < outcomes
    assert any(w and w.startswith("zero-length edge") for w in outcomes)


def _closure_reference(simplices):
    """Face closure by a pure-Python stack walk, per dimension, sorted."""
    seen = set()
    stack = [tuple(sorted(int(v) for v in s)) for s in simplices]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            if len(t) > 1:
                stack.extend(facets_of(t))
    by_dim = {}
    for t in seen:
        by_dim.setdefault(len(t) - 1, []).append(t)
    return {k: sorted(v) for k, v in sorted(by_dim.items())}


def _random_inputs(rng):
    """Mixed dimensions, duplicates, unsorted orders, faces next to cofaces,
    and vertex ids as Python ints, numpy ints or numpy rows."""
    ids = rng.choice(40, size=int(rng.integers(4, 12)), replace=False)
    out = []
    for _ in range(int(rng.integers(1, 10))):
        s = rng.choice(ids, size=int(rng.integers(1, min(5, len(ids)) + 1)), replace=False)
        out.append([tuple(int(v) for v in s), list(s), s][int(rng.integers(0, 3))])
        if rng.random() < 0.3:
            out.append(tuple(reversed(out[-1])))  # a duplicate, reordered
        if len(s) > 1 and rng.random() < 0.4:
            out.append(tuple(s[1:]))  # a face given explicitly
    rng.shuffle(out)
    return out


def test_closure_matches_python_reference_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        simplices = _random_inputs(rng)
        cx = SimplicialComplex(simplices)
        ref = _closure_reference(simplices)
        assert cx.simplices_by_dim == ref
        assert all(type(v) is int
                   for sims in cx.simplices_by_dim.values() for s in sims for v in s)
        assert cx.vertex_count == ref[0][-1][0] + 1


def test_repeated_vertex_names_the_input_simplex():
    with pytest.raises(ValueError, match=r"^repeated vertex in simplex \(3, 1, 3\)$"):
        SimplicialComplex([(0, 1, 2), (2, 3), (3, 1, 3), (4, 4)])
    with pytest.raises(ValueError, match=r"^repeated vertex in simplex \(5, 5\)$"):
        SimplicialComplex([[0, 1, 2], [5, 5], (3, 1, 3)])


def test_empty_input_is_rejected():
    for empty in ([], iter(())):
        with pytest.raises(ValueError, match="cannot build an empty complex"):
            SimplicialComplex(empty)


def test_array_input_rejects_repeats_and_empty_input():
    with pytest.raises(ValueError, match=r"^repeated vertex in simplex \(3, 1, 3\)$"):
        SimplicialComplex.from_rows([np.array([[0, 1], [2, 3]]), np.array([[0, 1, 2], [3, 1, 3]])])
    for empty in ([], [np.empty((0, 3), dtype=np.int64)]):
        with pytest.raises(ValueError, match="cannot build an empty complex"):
            SimplicialComplex.from_rows(empty)


def _coboundary_reference(cx, k):
    """The signed incidence matrix from a loop over the (k+1)-simplices."""
    index = {s: i for i, s in enumerate(cx.simplices(k))}
    rows, cols, vals = [], [], []
    for i, s in enumerate(cx.simplices(k + 1)):
        for j, f in enumerate(facets_of(s)):
            rows.append(i)
            cols.append(index[f])
            vals.append(1 if j % 2 == 0 else -1)
    return sp.csr_matrix((np.array(vals, dtype=np.int64), (rows, cols)),
                         shape=(cx.num_simplices(k + 1), cx.num_simplices(k)))


def test_coboundary_matrix_matches_a_loop_reference(square8, ushape10):
    rng = np.random.default_rng(13)
    huge = 2**62  # vertex ids whose powers overflow int64
    complexes = [square8, ushape10,
                 ProductComplex(generate_square_mesh(2), uniform_breakpoints(3)).complex,
                 SimplicialComplex([(0, huge, huge + 5, 7), (huge - 1, huge, 3)])]
    complexes += [SimplicialComplex(_random_inputs(rng)) for _ in range(50)]
    for cx in complexes:
        for k in range(cx.dim):
            got, want = cx.coboundary_matrix(k), _coboundary_reference(cx, k)
            assert got.dtype == np.int64
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (cx, k, part)


def test_product_complex_matches_the_prism_tuples(square8):
    rng = np.random.default_rng(14)
    bases = [(square8, m) for m in (1, 2, 3)]
    bases += [(SimplicialComplex(_random_inputs(rng)), int(rng.integers(1, 5))) for _ in range(20)]
    for base, m in bases:
        prod = ProductComplex(base, uniform_breakpoints(m))
        ref = SimplicialComplex(prism for sims in base.simplices_by_dim.values()
                                for s in sims for _, prism in prod.prisms(s))
        assert prod.complex.simplices_by_dim == ref.simplices_by_dim
        assert prod.complex.vertex_count == ref.vertex_count
        assert prod.complex.euler_characteristic() == ref.euler_characteristic()


def test_counting_the_product_complex_builds_no_tuple_views(square8):
    cx = ProductComplex(square8, uniform_breakpoints(80)).complex
    assert sum(cx.num_simplices(k) for k in range(cx.dim + 1)) == 141_377
    assert cx.euler_characteristic() == 1
    assert "simplices_by_dim" not in vars(cx) and "_index" not in vars(cx)
    assert cx.simplices(0)[:2] == [(0,), (1,)]  # the views are built on first use
    assert "simplices_by_dim" in vars(cx)


def _staircase_counts(base, m):
    """n_k(K x I_m) = (m+1) n_k(K) + m k n_k(K) + m k n_{k-1}(K): level
    copies, faces that split a k-face's prism, and the prisms themselves."""
    n = [base.num_simplices(k) for k in range(base.dim + 1)] + [0]  # n[-1] == 0
    return [(m + 1) * n[k] + m * k * n[k] + m * k * n[k - 1] for k in range(base.dim + 2)]


def test_product_complex_counts_follow_the_staircase_formula(square8):
    # square:8 with its strong collapse's 80 slabs is the benchmark's
    # product complex of 141,377 simplices
    rng = np.random.default_rng(12)
    bases = [(square8, 80)] + [(SimplicialComplex(_random_inputs(rng)), int(rng.integers(1, 5)))
                               for _ in range(20)]
    for base, m in bases:
        prod = ProductComplex(base, uniform_breakpoints(m))
        got = [prod.complex.num_simplices(k) for k in range(base.dim + 2)]
        assert got == _staircase_counts(base, m)
    assert sum(_staircase_counts(square8, 80)) == 141_377


def _closed_prisms(prod):
    """The product's rows as the face closure of all its prisms."""
    levels = np.arange(prod.n_slabs, dtype=np.int64)[:, None, None, None]
    prisms = []
    for rows in prod.base._rows.values():
        n = rows.shape[1]
        up = np.arange(n + 1) > np.arange(n)[:, None]
        prisms.append(((levels + up) * prod.stride + rows[:, np.arange(n + 1) - up])
                      .reshape(-1, n + 1))
    return _face_closure(prisms)


def test_product_complex_rows_equal_the_closure_of_its_prisms(square8, ushape10):
    rng = np.random.default_rng(15)
    cases = [(square8, uniform_breakpoints(m)) for m in (1, 2, 80)]
    cases += [(ushape10, uniform_breakpoints(7)), (square8, (0.0, 0.05, 0.5, 0.51, 1.0))]
    for i in range(20):
        base = SimplicialComplex(_random_inputs(rng))
        if i < 4:  # 0- and 1-dimensional bases: skeleta of random ones
            base = SimplicialComplex.from_rows([base._rows[i % 2]])
        times = np.sort(rng.uniform(size=int(rng.integers(0, 4))))
        cases.append((base, (0.0, *times.tolist(), 1.0)))
    gaps = SimplicialComplex([(0, 3, 7), (3, 7, 9), (9, 12)])  # stride 13, 5 vertices
    cases += [(gaps, (0.0, 0.1, 1.0)), (gaps, (0.0, 0.3, 0.35, 0.9, 1.0))]
    assert {base.dim for base, _ in cases} >= {0, 1, 2, 3}
    for base, times in cases:
        prod = ProductComplex(base, times)
        got, want = prod.complex._rows, _closed_prisms(prod)
        # and the public route: the complex closing every base simplex's prisms
        closed = SimplicialComplex.from_rows(
            [prod.prism_rows(rows).reshape(-1, k + 2) for k, rows in base._rows.items()])._rows
        assert got.keys() == want.keys() == closed.keys()
        for k in want:
            assert got[k].dtype == np.int64 and np.array_equal(got[k], want[k]), (base, times, k)
            assert np.array_equal(closed[k], want[k]), (base, times, k)


def test_product_complex_is_listed_without_a_face_closure(square8, monkeypatch):
    def closure(*args, **kwargs):
        raise AssertionError("the product complex took a face closure")

    monkeypatch.setattr(simplicial, "_face_closure", closure)
    prod = ProductComplex(square8, uniform_breakpoints(80))
    tracemalloc.start()
    try:
        rows = prod.complex._rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(r.nbytes for r in rows.values())


def _prism_tuples(simplex, n_slabs, stride):
    """(sign, prism) per slab r and position i: v_0..v_i@r v_i..v_k@r+1."""
    for r in range(n_slabs):
        lo = [r * stride + v for v in simplex]
        hi = [(r + 1) * stride + v for v in simplex]
        for i in range(len(simplex)):
            yield (-1) ** i, tuple(lo[: i + 1] + hi[i:])


def test_prism_rows_equal_the_prism_tuples(square8):
    rng = np.random.default_rng(16)
    cases = [(square8, uniform_breakpoints(3)), (square8, (0.0, 0.05, 0.5, 0.51, 1.0))]
    for _ in range(20):
        times = np.sort(rng.uniform(size=int(rng.integers(0, 4))))
        cases.append((SimplicialComplex(_random_inputs(rng)), (0.0, *times.tolist(), 1.0)))
    for base, times in cases:
        prod = ProductComplex(base, times)
        for k, rows in base._rows.items():
            want = [p for s in base.simplices(k)
                    for p in _prism_tuples(s, prod.n_slabs, prod.stride)]
            got = prod.prism_rows(rows)
            assert got.dtype == np.int64 and got.shape == (prod.n_slabs, len(rows), k + 1, k + 2)
            by_simplex = got.swapaxes(0, 1).reshape(-1, k + 2).tolist()
            assert [tuple(p) for p in by_simplex] == [p for _, p in want], (base, times, k)
            for s in base.simplices(k)[:3]:
                assert list(prod.prisms(s)) == list(_prism_tuples(s, prod.n_slabs, prod.stride))


def _boundary_closure(cx):
    """Boundary simplices per dimension: the codimension-1 simplices with one
    cofacet, then their faces, dimension by dimension, as sets."""
    n = cx.dim
    out = {k: [] for k in range(n, cx.dim + 1)}
    if n == 0:
        return out
    level = {s for s in cx.simplices(n - 1) if len(cx.cofacets(s)) == 1}
    for k in range(n - 1, -1, -1):
        out[k] = sorted(level)
        level = {f for s in level for f in facets_of(s)}
    return out


def test_boundary_indices_equal_the_set_closure(square8):
    # an equality pin: the coboundary-matrix boundary is the set closure's
    rng = np.random.default_rng(17)
    points = np.vstack([[[0, 0], [1, 0], [0, 1], [1, 1]], rng.uniform(size=(200, 2))])
    cases = [square8, generate_ushape_mesh(20),
             SimplicialComplex(Delaunay(points).simplices, points)]
    cases += [SimplicialComplex(_random_inputs(rng)) for _ in range(20)]
    for cx in cases:
        for k, want in _boundary_closure(cx).items():
            assert cx.boundary_simplices(k) == want, (cx, k)
            assert cx.boundary_indices(k).tolist() == [cx.index(s) for s in want], (cx, k)


def test_dim_is_the_largest_row_dimension_on_every_construction_path():
    # stored once when the complex is set up, not recomputed on each read
    rows = {0: np.array([[0], [1], [2]]), 1: np.array([[0, 1], [0, 2], [1, 2]]),
            2: np.array([[0, 1, 2]])}
    product = ProductComplex(SimplicialComplex([(0, 1, 2)]), uniform_breakpoints(2))
    made = [SimplicialComplex([(0, 1, 2), (3,)]), SimplicialComplex([(0, 1), (1, 2)]),
            SimplicialComplex([(4,)]), SimplicialComplex.from_rows([np.array([[0, 1, 2, 3]])]),
            SimplicialComplex._from_closed(rows), product.complex]
    for cx, want in zip(made, [2, 1, 0, 3, 2, 3]):
        assert vars(cx)["dim"] == max(cx._rows) == want
