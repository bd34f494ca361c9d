"""Chains, cochains, boundary/coboundary, and simplicial maps."""

import numpy as np
import pytest

from decpotentials.homotopy import ProductComplex, uniform_breakpoints
from decpotentials.simplicial import (
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


def test_cofacets(square2):
    assert square2.cofacets((0, 1)) == [(0, 1, 4)]
    assert len(square2.cofacets((0, 4))) == 2


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


def test_simplicial_map_compose_and_constant(square2):
    ident = SimplicialMap.identity(square2)
    const = SimplicialMap.constant(square2, 4)
    comp = const.compose(ident)
    assert all(comp(v) == 4 for (v,) in square2.simplices(0))
    with pytest.raises(ValueError):
        SimplicialMap.constant(square2, 99)


def test_induced_chain_map_drops_degenerate(square2):
    const = SimplicialMap.constant(square2, 4)
    image = induced_chain_map(const, Chain.single(square2, (0, 1)))
    assert image.is_zero()
    ident = SimplicialMap.identity(square2)
    c = Chain.single(square2, (0, 1, 4), 3)
    assert induced_chain_map(ident, c) == c


def test_complex_requires_consistent_coordinates():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1, 2)], np.zeros((3, 2)))  # all vertices coincide
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1, 2)], np.array([[0.0, 0.0], [1.0, 0.0]]))  # too short


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
