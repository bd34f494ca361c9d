"""Cone operators: collapse-based, contraction-based, star, infinite, Lipschitz."""

import functools
import hashlib
import json
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from decpotentials import cones, generate_square_mesh, generate_ushape_mesh
from decpotentials.cones import (
    SlabAffineContraction,
    _checked_images,
    collapse_cone,
    contraction_cone,
    infinite_cone,
    lipschitz_cone,
    shadow_cone,
    star_cone,
    strong_collapse_cone,
    validate_contraction,
)
from decpotentials.homotopy import (
    ProductComplex,
    StrongCollapseSequence,
    build_product_complex,
    contraction_from_strong_collapse,
    extrusion,
    find_collapse_sequence,
    find_strong_collapse_sequence,
    uniform_breakpoints,
    validate_collapse_sequence,
    validate_strong_collapse_sequence,
)
from decpotentials.simplicial import (
    Chain,
    SimplicialComplex,
    SimplicialMap,
    boundary,
    induced_chain_map,
)
from decpotentials.potentials import BogovskiiOperator, DiscretePoincareOperator, verify_homotopy
from decpotentials.singular import (
    ConeChain,
    InfiniteCone,
    LinearSimplex,
    SingularChain,
    is_degenerate,
    lift_simplex,
    shadow_pieces,
    singular_boundary,
)
from decpotentials.whitney import MeshGeometry

from conftest import jitter_interior


def _random_collapsible(rng, rounds=8):
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


def _check_cone_identity(op, cx):
    """boundary(Co s) + Co(boundary s) == s, exactly, for every simplex."""
    for k in sorted(cx.simplices_by_dim):
        for s in cx.simplices(k):
            c = Chain.single(cx, s)
            got = boundary(op.apply(c))
            if k > 0:
                got = got + op.apply(boundary(c))
                assert got == c
            else:
                assert got == c - Chain.single(cx, (op.vertex,))


def test_collapse_cone_single_triangle_table():
    cx = SimplicialComplex([(0, 1, 2)])
    seq = find_collapse_sequence(cx)
    assert seq.steps == [((0, 1, 2), (0, 1)), ((0, 2), (0,)), ((1, 2), (1,))]
    op = collapse_cone(seq)
    assert op.vertex == 2
    assert op.table[(2,)] == Chain(cx, 1, {})
    assert op.table[(1,)] == Chain(cx, 1, {(1, 2): -1})
    assert op.table[(0,)] == Chain(cx, 1, {(0, 2): -1})
    assert op.table[(0, 1)] == Chain(cx, 2, {(0, 1, 2): 1})
    assert op.table[(0, 2)].is_zero() and op.table[(1, 2)].is_zero()
    _check_cone_identity(op, cx)


def test_collapse_cone_identity_on_random_complexes():
    rng = np.random.default_rng(1)
    for _ in range(6):
        cx = _random_collapsible(rng)
        seq = find_collapse_sequence(cx)
        assert seq is not None, "coned growth must stay collapsible"
        op = collapse_cone(seq)
        _check_cone_identity(op, cx)


def test_collapse_cone_respects_orientation_signs(square2):
    seq = find_collapse_sequence(square2)
    op = collapse_cone(seq)
    c = op.chain((1, 0))
    assert c == -op.chain((0, 1))


def test_collapse_cone_rejects_invalid_sequence(square1):
    seq = find_collapse_sequence(square1)
    from decpotentials.homotopy import CollapseSequence

    bad = CollapseSequence(square1, list(reversed(seq.steps)), seq.terminal)
    with pytest.raises(ValueError):
        collapse_cone(bad)


def test_contraction_cone_single_triangle():
    cx = SimplicialComplex([(0, 1, 2)])
    seq = find_strong_collapse_sequence(cx)
    prod = build_product_complex(cx, uniform_breakpoints(2))
    psi = contraction_from_strong_collapse(seq, prod)
    op = contraction_cone(psi, prod)
    assert op.vertex == 2
    # extruded vertex path pushed through psi: 0 -> 1 -> 2 gives two edges
    assert op.table[(0,)] == Chain(cx, 1, {(1, 2): -1, (0, 1): -1})
    assert op.table[(1,)] == Chain(cx, 1, {(1, 2): -1})
    _check_cone_identity(op, cx)


def test_contraction_cone_identity_square2(square2):
    seq = find_strong_collapse_sequence(square2)
    prod = build_product_complex(square2, uniform_breakpoints(len(seq.steps)))
    psi = contraction_from_strong_collapse(seq, prod)
    op = contraction_cone(psi, prod)
    _check_cone_identity(op, square2)


@pytest.mark.parametrize("mesh", ["square8", "ushape10"])
def test_contraction_cone_matches_product_complex_push_forward(mesh, request):
    # oracle: push each extruded prism chain through psi as a simplicial map
    # checked over the whole product complex
    cx = request.getfixturevalue(mesh)
    seq = find_strong_collapse_sequence(cx)
    prod = build_product_complex(cx, uniform_breakpoints(len(seq.steps)))
    psi = contraction_from_strong_collapse(seq, prod)
    op = contraction_cone(psi, prod)
    assert "complex" not in vars(prod)
    ref = SimplicialMap(prod.complex, cx, psi, check=True)
    for k in sorted(cx.simplices_by_dim):
        for s in cx.simplices(k):
            assert op.table[s] == induced_chain_map(ref, extrusion(s, prod)), s


def test_contraction_cone_rejects_invalid_strong_collapse():
    cx = SimplicialComplex([(0, 1, 2), (2, 3)])
    # vertex 0 is not dominated by 3: level 2 sends the triangle's prism to
    # {0, 1, 2, 3}, which is no simplex
    seq = StrongCollapseSequence(cx, [(0, 3), (1, 2), (2, 3)], 3)
    prod = build_product_complex(cx, uniform_breakpoints(3))
    with pytest.raises(ValueError) as err:
        contraction_cone(contraction_from_strong_collapse(seq, prod), prod)
    # the first bad prism in (k, simplex, slab, i) order, as every slab's loop named it
    assert str(err.value) == ("not a simplicial map: prism (8, 12) over (0,) "
                              "maps to (0, 3), which is not a base simplex")


def test_contraction_cone_checks_the_slabs_it_skips():
    # On the path 0-1-2-3, the image of edge (0, 1) is {0, 2}, no edge, at
    # levels 2 to 5: slabs 2, 3 and 4, in which neither 0 nor 1 moves, so
    # contraction_cone visits none of them.  The moving slab below them
    # must still report the image.
    cx = SimplicialComplex([(0, 1), (1, 2), (2, 3)])
    levels = {0: [0, 0, 0, 0, 0, 0, 0, 0],
              1: [0, 1, 2, 2, 2, 2, 1, 1],
              2: [0, 1, 2, 2, 2, 2, 2, 2],
              3: [0, 1, 2, 3, 3, 3, 3, 3]}
    prod = build_product_complex(cx, uniform_breakpoints(7))

    def psi(pv):
        v, level = prod.vertex_level(pv)
        return levels[v][level]

    with pytest.raises(ValueError, match="not a simplicial map") as err:
        contraction_cone(psi, prod)
    # the same prism as when every slab was visited
    assert str(err.value) == ("not a simplicial map: prism (4, 8, 9) over (0, 1) "
                              "maps to (0, 2), which is not a base simplex")
    assert tuple(sorted({psi(pv) for pv in (4, 8, 9)})) not in cx


def _table_matrix(op, k):
    """P_k as the per-simplex loop over the cone's chain table assembled it."""
    cx = op.complex
    index = cx._index[k]
    rows, cols, vals = [], [], []
    for i, s in enumerate(cx.simplices(k - 1)):
        terms = op.cone.table[s].terms
        rows.extend([i] * len(terms))
        cols.extend(index[t] for t in terms)
        vals.extend(terms.values())
    shape = (cx.num_simplices(k - 1), cx.num_simplices(k))
    return sp.csr_matrix((np.array(vals, dtype=float), (rows, cols)), shape=shape)


@pytest.mark.parametrize("mesh", ["square:8", "ushape:10", "random"])
def test_strong_collapse_cone_reads_its_moves(mesh):
    # the strong-collapse map is never called; sampled through a SimplicialMap
    # it gives the same term arrays, and P_k matches the chain table's
    complexes = {"square:8": lambda: [generate_square_mesh(8)],
                 "ushape:10": lambda: [generate_ushape_mesh(10)],
                 "random": lambda: [_random_collapsible(np.random.default_rng(seed), rounds=10)
                                    for seed in range(6)]}[mesh]()
    for cx in complexes:
        seq = find_strong_collapse_sequence(cx)
        assert seq is not None, "coned growth is strong collapsible"
        prod = build_product_complex(cx, uniform_breakpoints(max(len(seq.steps), 1)))
        psi = contraction_from_strong_collapse(seq, prod)
        calls = []

        @functools.wraps(psi)  # keeps the map's steps
        def spy(pv):
            calls.append(pv)
            return psi(pv)

        op = contraction_cone(spy, prod)
        assert calls == []
        sampled = contraction_cone(SimplicialMap(prod.complex, cx, psi), prod)
        assert op.terms.keys() == sampled.terms.keys() == cx._rows.keys()
        for k, arrays in op.terms.items():
            for got, want in zip(arrays, sampled.terms[k]):
                assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), k
        P = DiscretePoincareOperator(op)
        for k in range(1, cx.dim + 1):
            got, want = P.matrix(k), _table_matrix(P, k)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, name)


def test_sampled_contraction_cone_equals_the_push_forward():
    # any vertex function into a full simplex is simplicial: images that move
    # back and forth give repeated and cancelling prism images
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = 2 + trial % 4
        cx = SimplicialComplex([tuple(range(n))])
        prod = build_product_complex(cx, uniform_breakpoints(1 + trial % 5))
        levels = rng.integers(0, n, size=(prod.n_slabs + 1, n))
        levels[0], levels[-1] = int(rng.integers(0, n)), np.arange(n)

        def psi(pv):
            v, level = prod.vertex_level(pv)
            return int(levels[level, v])

        op = contraction_cone(psi, prod)
        ref = SimplicialMap(prod.complex, cx, psi)
        for k in range(cx.dim + 1):
            for s in cx.simplices(k):
                assert op.table[s] == induced_chain_map(ref, extrusion(s, prod)), (trial, s)


def test_contraction_cone_names_images_outside_the_base():
    cx = SimplicialComplex([(0, 1), (1, 2)])
    prod = build_product_complex(cx, uniform_breakpoints(2))
    for bad, image in [(-1, "(-1, 2)"), (7, "(2, 7)")]:
        def psi(pv):
            v, level = prod.vertex_level(pv)
            return v if level == 2 else bad if (v, level) == (0, 1) else 1 if level == 1 else 2

        with pytest.raises(ValueError) as err:
            contraction_cone(psi, prod)
        assert str(err.value) == (f"not a simplicial map: prism (0, 3) over (0,) maps to "
                                  f"{image}, which is not a base simplex")


def _path_contraction(levels):
    """The path 0-1-2 over two slabs, and psi reading ``levels[level][v]``."""
    prod = build_product_complex(SimplicialComplex([(0, 1), (1, 2)]), uniform_breakpoints(2))

    def psi(pv):
        v, level = prod.vertex_level(pv)
        return levels[level][v]

    return psi, prod


@pytest.mark.parametrize("levels, message", [
    ([[1, 1, 2], [1, 1, 2], [0, 1, 2]], "contraction is not constant at level 0"),
    ([[1, 1, 1], [1, 1, 1], [0, 1, 1]], "contraction is not the identity at the top level"),
])
def test_contraction_cone_checks_both_ends(levels, message):
    psi, prod = _path_contraction(levels)
    with pytest.raises(ValueError) as err:
        contraction_cone(psi, prod)
    assert str(err.value) == message


def test_contraction_cone_samples_a_plain_map_once_per_vertex_and_level():
    psi, prod = _path_contraction([[1, 1, 1], [0, 1, 1], [0, 1, 2]])
    calls = []

    def spy(pv):
        calls.append(pv)
        return psi(pv)

    op = contraction_cone(spy, prod)
    assert sorted(calls) == [prod.vertex_id(v, level) for level in range(3) for v in range(3)]
    assert op.vertex == 1
    _check_cone_identity(op, prod.base)


def test_truncated_strong_collapse_is_no_contraction():
    # the steps but the last leave two vertices: each step is a valid
    # retraction, so the recurrence runs, but level 0 is not constant, and
    # the cone is refused, not read off the steps
    cx = generate_square_mesh(2)
    seq = find_strong_collapse_sequence(cx)
    short = StrongCollapseSequence(cx, seq.steps[:-1], seq.terminal)
    prod = build_product_complex(cx, uniform_breakpoints(len(short.steps)))
    psi = contraction_from_strong_collapse(short, prod)
    assert cones._strong_collapse_terms(cx, psi.steps)
    with pytest.raises(ValueError) as err:
        contraction_cone(psi, prod)
    assert str(err.value) == "contraction is not constant at level 0"


def _strong_collapse_cone(cx):
    seq = find_strong_collapse_sequence(cx)
    prod = build_product_complex(cx, uniform_breakpoints(max(len(seq.steps), 1)))
    return contraction_cone(contraction_from_strong_collapse(seq, prod), prod)


@pytest.mark.parametrize("top", [60000, 10**6, 3_000_000])
def test_strong_collapse_cone_of_sparse_vertex_ids(top):
    # (0, 1, top) is (0, 1, 2) relabelled in order, so its terms, which are
    # positions, are the same; the support keys fit in int64 however large
    # the ids, since they ravel vertex positions, not ids, and a support
    # wider than every base simplex is rejected before it is keyed
    op, dense = _strong_collapse_cone(SimplicialComplex([(0, 1, top)])), \
        _strong_collapse_cone(SimplicialComplex([(0, 1, 2)]))
    assert (op.vertex, dense.vertex) == (top, 2)
    assert op.terms.keys() == dense.terms.keys()
    for k, arrays in op.terms.items():
        for got, want in zip(arrays, dense.terms[k]):
            assert got.dtype == np.int64 and np.array_equal(got, want), k
    _check_cone_identity(op, op.complex)


# sha256 of every (simplex, list(table[simplex].terms.items())) in sorted
# simplex order, recorded before contraction_cone skipped the slabs in which
# no vertex of a simplex moves: the same terms, in the same insertion order
CONTRACTION_TABLE_DIGESTS = {
    "square:8": "5c0c7ce4c24019b8e53a03a22fed9c30e206215f6427bc31c9e50e191475b553",
    "ushape:10": "c41884881673adc86a519a286e3442dc27db1686b2eea2105c0cfbecafc77820",
    "square:16": "2d7b931b364b8e640ef248acb2a63852d7b7df81b45a3c6fde415ccd2c4f042a",
}


def test_strong_collapse_cone_tables_are_pinned():
    meshes = {"square:8": generate_square_mesh(8), "ushape:10": generate_ushape_mesh(10),
              "square:16": generate_square_mesh(16)}
    digests = {}
    for name, cx in meshes.items():
        seq = find_strong_collapse_sequence(cx)
        prod = build_product_complex(cx, uniform_breakpoints(len(seq.steps)))
        op = contraction_cone(contraction_from_strong_collapse(seq, prod), prod)
        h = hashlib.sha256()
        for s in sorted(op.table):
            h.update(repr((s, list(op.table[s].terms.items()))).encode())
        digests[name] = h.hexdigest()
    assert digests == CONTRACTION_TABLE_DIGESTS


def _swept(psi):
    """``psi`` without its steps, so that its cone is sampled and swept."""
    def bare(pv):
        return psi(pv)

    return bare


def _assert_same_terms(op, want):
    assert op.vertex == want.vertex and op.terms.keys() == want.terms.keys()
    for k, arrays in op.terms.items():
        for got, ref in zip(arrays, want.terms[k]):
            assert got.dtype == ref.dtype == np.int64 and np.array_equal(got, ref), k


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 14))
def test_strong_collapse_recurrence_equals_the_sweep(seed, rounds):
    cx = _random_collapsible(np.random.default_rng(seed), rounds=rounds)
    seq = find_strong_collapse_sequence(cx)
    assert seq is not None, "coned growth is strong collapsible"
    prod = build_product_complex(cx, uniform_breakpoints(max(len(seq.steps), 1)))
    psi = contraction_from_strong_collapse(seq, prod)
    assert cones._strong_collapse_terms(cx, psi.steps)
    op = contraction_cone(psi, prod)
    _assert_same_terms(op, contraction_cone(_swept(psi), prod))
    _check_cone_identity(op, cx)


def test_strong_collapse_cone_falls_back_to_the_sweep_for_a_deeper_bad_join():
    # (0,)'s first step joins it to 1, an edge, but its second, 1 -> 3, joins
    # (1, 3), no edge: the recurrence gives way, and the sweep names that
    # prism over (0,), in the lower slab it visits first
    cx = SimplicialComplex([(0, 1), (1, 2), (2, 3)])
    seq = StrongCollapseSequence(cx, [(0, 1), (1, 3), (2, 3)], 3)
    prod = build_product_complex(cx, uniform_breakpoints(3))
    psi = contraction_from_strong_collapse(seq, prod)
    message = ("not a simplicial map: prism (4, 8) over (0,) maps to (1, 3), "
               "which is not a base simplex")
    for f in (psi, _swept(psi)):
        with pytest.raises(ValueError) as err:
            contraction_cone(f, prod)
        assert str(err.value) == message


@pytest.mark.parametrize("simplex, steps", [((1, 2), [(2, 1), (1, 2)]),
                                            ((0, 1, 2), [(0, 1), (0, 2), (1, 2)])])
def test_strong_collapse_cone_of_steps_it_cannot_follow_is_swept(simplex, steps):
    # a vertex removed to one already removed, or removed twice: no strong
    # collapse, but a contraction all the same
    cx = SimplicialComplex([simplex])
    seq = StrongCollapseSequence(cx, steps, 2)
    prod = build_product_complex(cx, uniform_breakpoints(len(steps)))
    psi = contraction_from_strong_collapse(seq, prod)
    op = contraction_cone(psi, prod)
    _assert_same_terms(op, contraction_cone(_swept(psi), prod))
    _check_cone_identity(op, cx)


def test_strong_collapse_cone_of_another_slab_count_is_swept(monkeypatch):
    # psi padded with one identity slab on top keeps its steps, which no
    # longer fit the product: the sweep gives the same cone
    cx = generate_square_mesh(4)
    seq = find_strong_collapse_sequence(cx)
    m = len(seq.steps)
    prod, padded = (build_product_complex(cx, uniform_breakpoints(n)) for n in (m, m + 1))
    psi = contraction_from_strong_collapse(seq, prod)

    def taller(pv):
        v, level = padded.vertex_level(pv)
        return psi(prod.vertex_id(v, min(level, m)))

    taller.steps, sweep, swept = psi.steps, cones._swept_terms, []
    want = contraction_cone(psi, prod)
    monkeypatch.setattr(cones, "_swept_terms", lambda *args: swept.append(1) or sweep(*args))
    _assert_same_terms(contraction_cone(taller, padded), want)
    assert swept == [1]


def test_strong_collapse_cone_tables_come_from_the_recurrence(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep was taken")

    monkeypatch.setattr(cones, "_swept_terms", no_sweep)
    test_strong_collapse_cone_tables_are_pinned()


def _step_list(rng, cx, kind):
    """A strong collapse of cx as (steps, terminal), or one corrupted by ``kind``:
    1 swaps two steps, 2 takes another terminal, 3 and 4 another dominating or
    dominated vertex, 5 repeats a removal, 6 truncates, 7 is random and 8 is
    empty.  A vertex drawn may be one past the complex's, which is none of its."""
    ids = [v for (v,) in cx.simplices(0)]
    seq = find_strong_collapse_sequence(cx)
    steps, terminal = (list(seq.steps), seq.terminal) if seq else ([], ids[0])

    def pick():
        return int(rng.choice(ids + [ids[-1] + 1]))

    at = int(rng.integers(max(len(steps), 1)))
    if kind == 1 and len(steps) > 1:
        i, j = rng.choice(len(steps), 2, replace=False)
        steps[i], steps[j] = steps[j], steps[i]
    elif kind == 2:
        terminal = pick()
    elif kind in (3, 4) and steps:
        steps[at] = (steps[at][0], pick()) if kind == 3 else (pick(), steps[at][1])
    elif kind == 5 and steps:
        steps.insert(int(rng.integers(at, len(steps) + 1)), steps[at])
    elif kind == 6:
        steps = steps[:at]
    elif kind == 7:
        steps, terminal = [(pick(), pick()) for _ in range(int(rng.integers(len(ids))))], pick()
    elif kind == 8:
        steps = []
    return steps, terminal


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 8), kind=st.integers(0, 8),
       hollow=st.booleans())
def test_strong_collapse_cone_accepts_exactly_the_valid_sequences(seed, rounds, kind, hollow):
    rng = np.random.default_rng(seed)
    cx = _random_collapsible(rng, rounds=rounds)
    if hollow:  # a cycle on three new vertices: no strong collapse at all
        n = cx.vertex_count
        cx = SimplicialComplex([*cx.simplices(cx.dim), (n, n + 1), (n + 1, n + 2), (n, n + 2)])
    seq = StrongCollapseSequence(cx, *_step_list(rng, cx, kind))
    try:
        op = strong_collapse_cone(seq)
    except ValueError as exc:
        assert not validate_strong_collapse_sequence(seq), exc
        assert str(exc).startswith("not a strong collapse")
        return
    assert validate_strong_collapse_sequence(seq)
    prod = build_product_complex(cx, uniform_breakpoints(max(len(seq.steps), 1)))
    _assert_same_terms(op, contraction_cone(contraction_from_strong_collapse(seq, prod), prod))
    assert op.vertex == seq.terminal


@pytest.mark.parametrize("steps, terminal, message", [
    ([(3, 2), (0, 1), (1, 2)], 2, None),
    ([(3, 2), (0, 1), (1, 2)], 1, "not a strong collapse to vertex 1: the steps leave vertices [2]"),
    ([], 2, "not a strong collapse to vertex 2: the steps leave vertices [0, 1, 2, 3]"),
    ([(0, 7), (1, 2)], 2, "not a strong collapse: step 0 (0, 7) names a vertex not in the complex"),
    ([(3, 2), (0, 1), (0, 2)], 2,
     "not a strong collapse: step 2 (0, 2) removes 0 again, after step 1"),
    ([(0, 1), (1, 0)], 0,
     "not a strong collapse: step 1 (1, 0) retracts 1 onto a removed vertex or itself"),
    ([(1, 1), (0, 2)], 2,
     "not a strong collapse: step 0 (1, 1) retracts 1 onto a removed vertex or itself"),
    ([(1, 3), (0, 2), (2, 3)], 3,
     "not a strong collapse: step 0 (1, 3) 3 does not dominate 1, so the retraction is not "
     "simplicial: the join of 3 and (1,) is no simplex"),
    # the missing join comes first, before the unknown vertex
    ([(1, 3), (0, 9)], 3,
     "not a strong collapse: step 0 (1, 3) 3 does not dominate 1, so the retraction is not "
     "simplicial: the join of 3 and (1,) is no simplex"),
    ([(0, 1), (1, 3), (2, 3)], 3,
     "not a strong collapse: step 1 (1, 3) 3 does not dominate 1, so the retraction is not "
     "simplicial: the join of 3 and (1,) is no simplex"),
])
def test_strong_collapse_cone_names_the_first_bad_step(steps, terminal, message):
    # a triangle with an edge hanging off its vertex 2
    cx = SimplicialComplex([(0, 1, 2), (2, 3)])
    seq = StrongCollapseSequence(cx, steps, terminal)
    assert validate_strong_collapse_sequence(seq) == (message is None)
    if message is None:
        _check_cone_identity(strong_collapse_cone(seq), cx)
        return
    with pytest.raises(ValueError) as err:
        strong_collapse_cone(seq)
    assert str(err.value) == message


def test_star_cone_formal_homotopy_identity(square2):
    a = np.array([0.31, 0.47])
    op = star_cone(a, square2)
    apex = LinearSimplex(((0.31, 0.47),))
    for k in sorted(square2.simplices_by_dim):
        for s in square2.simplices(k):
            lhs = singular_boundary(op.table[s])
            if k > 0:
                for f, c in boundary(Chain.single(square2, s)).terms.items():
                    lhs = lhs + c * op.table[f]
                rhs = SingularChain(k, [(1, lift_simplex(square2, s))])
            else:
                rhs = SingularChain(0, [(1, lift_simplex(square2, s)), (-1, apex)])
            assert (lhs - rhs).is_zero()


def test_star_cone_keeps_degenerate_joins(square2):
    # apex collinear with a mesh edge: the join is degenerate but still stored
    op = star_cone(np.array([0.25, 0.0]), square2)
    degen = op.table[(0, 1)]
    assert len(degen.terms) == 1
    (coeff, simplex), = degen.terms
    assert is_degenerate(simplex.array())


def test_infinite_cone_tables_are_apex_first(square2):
    a = np.array([0.4, 0.45])
    op = infinite_cone(a, square2)
    (coeff, cone), = op.table[(0, 1)].terms
    assert coeff == 1
    assert cone.apex == (0.4, 0.45)
    assert cone.dim == 2


def test_straight_line_contraction_endpoints():
    phi = SlabAffineContraction.straight_line(np.array([0.2, 0.7]))
    x = np.array([0.9, 0.1])
    assert np.allclose(phi(x, 1.0), x)
    assert np.allclose(phi(x, 0.0), [0.2, 0.7])
    assert np.allclose(phi(x, 0.5), (x + np.array([0.2, 0.7])) / 2)
    assert phi.breakpoints == (0.0, 1.0)


def test_ushape_contraction_moves_vertically_then_horizontally():
    a = np.array([0.2, 0.2])
    phi = SlabAffineContraction.ushape(a)
    x = np.array([0.9, 0.8])
    assert np.allclose(phi(x, 1.0), x)
    assert np.allclose(phi(x, 0.75), [0.9, 0.5])   # dropping toward y = a_y
    assert np.allclose(phi(x, 0.5), [0.9, 0.2])    # inside the bottom strip
    assert np.allclose(phi(x, 0.25), [0.55, 0.2])  # sliding toward a
    assert np.allclose(phi(x, 0.0), a)


def test_contraction_matrices_round_trip(tmp_path):
    # a jointly affine slab map: identity at t=1, a translation earlier on
    mats = [
        [[1.0, 0.0, 0.25, -0.25], [0.0, 1.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.25, -0.25], [0.0, 1.0, 0.6, -0.3]],
    ]
    phi = SlabAffineContraction.from_matrices((0.0, 0.5, 1.0), mats, (0.0, 0.0))
    path = tmp_path / "phi.json"
    phi.save(path)
    back = SlabAffineContraction.load(path)
    assert back.breakpoints == phi.breakpoints
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(0, 1, 2)
        t = float(rng.uniform(0, 1))
        assert np.allclose(phi(x, t), back(x, t), atol=1e-15)
    # byte-stable rewrite
    back.save(tmp_path / "phi2.json")
    assert path.read_bytes() == (tmp_path / "phi2.json").read_bytes()


def test_matrix_descriptors_cannot_reach_a_point():
    # a translation path is expressible but fails the contraction endpoint
    # conditions, so the singular cone construction must refuse it
    mats = [[[1.0, 0.0, 0.5, -0.5], [0.0, 1.0, 0.0, 0.0]]]
    phi = SlabAffineContraction.from_matrices((0.0, 1.0), mats, (0.0, 0.0))
    cx = SimplicialComplex([(0, 1, 2)],
                           np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        lipschitz_cone(phi, cx, geometry=MeshGeometry(cx))


def test_from_matrices_rejects_discontinuous_slabs():
    mats = [
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        [[1.0, 0.0, 0.0, 5.0], [0.0, 1.0, 0.0, 0.0]],  # jumps at t = 0.5
    ]
    with pytest.raises(ValueError):
        SlabAffineContraction.from_matrices((0.0, 0.5, 1.0), mats, (0.0, 0.0))


@pytest.mark.parametrize("point, name", [
    (np.array([np.nan, 0.5]), "(nan, 0.5)"),
    ((0.5, np.inf), "(0.5, inf)"),
    ([0.2], "(0.2,)"),
    ([0.2, 0.2, 0.2], "(0.2, 0.2, 0.2)"),
], ids=["nan", "inf", "one-number", "three-numbers"])
def test_contraction_rejects_a_point_that_is_not_two_finite_numbers(point, name, tmp_path):
    message = f"contraction point {name} is not two finite numbers"
    slab = [[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]]
    builds = [lambda: SlabAffineContraction.straight_line(point),
              lambda: SlabAffineContraction.ushape(point),
              lambda: SlabAffineContraction.from_matrices((0.0, 1.0), slab, point)]
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"breakpoints": [0.0, 1.0], "slabs": [{"matrix": slab[0]}],
                                "point": np.asarray(point, dtype=float).tolist()}))
    with pytest.raises(ValueError) as info:
        SlabAffineContraction.load(path)
    assert str(info.value) == message


def test_validate_contraction_flags_escapes(ushape10):
    geom = MeshGeometry(ushape10)
    # straight lines to (0.2, 0.2) cut across the notch from the right arm
    bad = SlabAffineContraction.straight_line(np.array([0.2, 0.2]))
    assert validate_contraction(bad, ushape10, geom)
    good = SlabAffineContraction.ushape(np.array([0.2, 0.2]))
    assert validate_contraction(good, ushape10, geom) == []


def test_lipschitz_cone_residual_is_degenerate_only(ushape10, ugeom):
    phi = SlabAffineContraction.ushape(np.array([0.2, 0.2]))
    op = lipschitz_cone(phi, ushape10, geometry=ugeom)
    apex = LinearSimplex((tuple(map(float, phi.point)),))
    rng = np.random.default_rng(3)
    for k in (0, 1, 2):
        sims = ushape10.simplices(k)
        for i in rng.choice(len(sims), size=6, replace=False):
            s = sims[int(i)]
            lhs = singular_boundary(op.table[s])
            if k > 0:
                for f, c in boundary(Chain.single(ushape10, s)).terms.items():
                    lhs = lhs + c * op.table[f]
                rhs = SingularChain(k, [(1, lift_simplex(ushape10, s))])
            else:
                rhs = SingularChain(0, [(1, lift_simplex(ushape10, s)), (-1, apex)])
            residual = (lhs - rhs).simplify()
            if k == 0:
                assert residual.is_zero()
            else:
                assert all(is_degenerate(np.array(t.points)) for _, t in residual.terms)


def test_lipschitz_cone_builds_no_product_complex(ushape10, ugeom, monkeypatch):
    built = []
    init = ProductComplex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ProductComplex, "__init__", recording_init)
    lipschitz_cone(SlabAffineContraction.ushape(np.array([0.2, 0.2])), ushape10,
                   geometry=ugeom)
    assert built and all("complex" not in vars(p) for p in built)


def test_lipschitz_cone_checks_containment_without_a_geometry(ushape10):
    # straight lines to (0.2, 0.2) cut across the notch from the right arm
    phi = SlabAffineContraction.straight_line((0.2, 0.2))
    with pytest.raises(ValueError, match="leaves the mesh"):
        lipschitz_cone(phi, ushape10)
    assert validate_contraction(phi, ushape10) == validate_contraction(
        phi, ushape10, MeshGeometry(ushape10))


def test_checked_images_are_phi_at_every_breakpoint():
    # the one array expression gives bitwise what phi gives point by point
    cx = generate_ushape_mesh(10)
    mats = [[[0.3, 0.1, 0.7, 0.2], [0.1, 0.3, 0.3, 0.2]],
            [[0.3, 0.1, 0.4, 0.3], [0.1, 0.3, 0.6, 0.1]]]  # agree at t = 1/3
    contractions = [SlabAffineContraction.straight_line((0.2, 0.7)),
                    SlabAffineContraction.ushape((0.2, 0.2)),
                    SlabAffineContraction.from_matrices((0.0, 1 / 3, 1.0), mats, (0.2, 0.2))]
    vertices = cx._rows[0][:, 0]
    for phi in contractions:
        images, _ = _checked_images(phi, cx, None)
        assert images.shape == (len(vertices), len(phi.breakpoints), 2)
        for n, v in enumerate(vertices.tolist()):
            for j, t in enumerate(phi.breakpoints):
                assert images[n, j].tobytes() == phi(cx.coordinates[v], t).tobytes()


def test_lipschitz_cone_on_closed_star_yields_mesh_chains(square2, geom2):
    star_tris = [t for t in square2.simplices(2) if 4 in t]
    cx = SimplicialComplex(star_tris, square2.coordinates)
    phi = SlabAffineContraction.straight_line(square2.coordinates[4])
    op = lipschitz_cone(phi, cx, geometry=MeshGeometry(cx))
    # the join of an edge with the center is a mesh triangle (possibly degenerate)
    for s in cx.simplices(1):
        for _, t in op.table[s].terms:
            pts = np.array(t.points)
            if not is_degenerate(pts):
                verts = tuple(sorted(
                    int(np.argmin(np.linalg.norm(cx.coordinates[:9] - p, axis=1)))
                    for p in pts))
                assert verts in cx


# -- per-simplex builders, kept as the oracle of the index-array cones --------


def _joined_table(point, cx, element, chain):
    """One joined simplex per simplex, apex first, point by point."""
    a = np.asarray(point, dtype=float)
    return {s: chain(k + 1, [(1, element(tuple((float(p[0]), float(p[1]))
                                               for p in [a, *(cx.coordinates[v] for v in s)])))])
            for k, sims in cx.simplices_by_dim.items() for s in sims}


def _shadow_table(point, cx, geom):
    a = np.asarray(point, dtype=float)
    table = {}
    for k in range(cx.dim):
        simplices = cx.simplices(k)
        owner, pieces = shadow_pieces(geom, [[a, *cx.coordinates[list(s)]] for s in simplices])
        table.update((s, SingularChain(k + 1, [])) for s in simplices)
        for i, piece in zip(owner.tolist(), pieces.tolist()):
            table[simplices[i]].terms.append((-1, LinearSimplex(tuple(map(tuple, piece)))))
    return table


def _prism_tuples(simplex, n_slabs, stride):
    """(sign, prism) per slab r and position i: v_0..v_i@r v_i..v_k@r+1."""
    for r in range(n_slabs):
        lo = [r * stride + v for v in simplex]
        hi = [(r + 1) * stride + v for v in simplex]
        for i in range(len(simplex)):
            yield (-1) ** i, tuple(lo[: i + 1] + hi[i:])


def _lipschitz_table(phi, cx):
    stride, times = cx.vertex_count, phi.breakpoints
    images = {level * stride + v: tuple(phi(cx.coordinates[v], t))
              for level, t in enumerate(times) for (v,) in cx.simplices(0)}
    return {s: SingularChain(k + 1, [(sign, LinearSimplex(tuple(images[pv] for pv in prism)))
                                     for sign, prism in _prism_tuples(s, len(times) - 1, stride)])
            for k, sims in cx.simplices_by_dim.items() for s in sims}


def _assert_same_tables(got, want):
    assert list(got) == list(want)
    for s, chain in want.items():
        view = got[s]
        assert type(view) is type(chain) and view.dim == chain.dim, s
        assert len(view.terms) == len(chain.terms), s
        for (c, x), (c_ref, x_ref) in zip(view.terms, chain.terms):
            assert type(c) is type(c_ref) and c == c_ref, s
            assert type(x) is type(x_ref) and x.points == x_ref.points, s


@pytest.mark.parametrize("name", ["square8", "ushape10", "jittered-square8", "jittered-ushape10"])
def test_singular_cone_tables_equal_the_per_simplex_builders(name):
    # an equality pin: the index-array cones read back as the chains that the
    # per-simplex builders made, term by term
    square = "square" in name
    cx = generate_square_mesh(8) if square else generate_ushape_mesh(10)
    if name.startswith("jittered"):
        cx = jitter_interior(cx)
    geom = MeshGeometry(cx)
    point = (0.52, 0.51) if square else (0.152, 0.151)
    _assert_same_tables(star_cone(point, cx).table,
                        _joined_table(point, cx, LinearSimplex, SingularChain))
    _assert_same_tables(infinite_cone(point, cx).table,
                        _joined_table(point, cx, InfiniteCone, ConeChain))
    _assert_same_tables(shadow_cone(point, cx, geom).table, _shadow_table(point, cx, geom))
    contractions = [SlabAffineContraction.ushape(np.array([0.2, 0.2]))]
    if square:
        contractions.append(SlabAffineContraction.straight_line(np.array(point)))
    for phi in contractions:
        _assert_same_tables(lipschitz_cone(phi, cx).table, _lipschitz_table(phi, cx))


def test_singular_cone_tables_share_one_point_tuple_per_point(square2):
    table = star_cone((0.31, 0.47), square2).table
    apexes = {id(chain.terms[0][1].points[0]) for chain in table.values()}
    assert len(apexes) == 1
    assert table[(0, 1)].terms[0][1].points[1] is table[(0,)].terms[0][1].points[1]


def test_whitney_operators_build_no_chain_table_or_tuple_views():
    ops = {}
    for op in ("star", "bogovskii"):
        cx = generate_square_mesh(6)
        geom = MeshGeometry(cx)
        ops[op] = (BogovskiiOperator((0.52, 0.51), cx, geometry=geom) if op == "bogovskii" else
                   DiscretePoincareOperator(star_cone((0.52, 0.51), cx), geometry=geom))
        verify_homotopy(ops[op], trials=2)
        assert "simplices_by_dim" not in vars(cx) and "_index" not in vars(cx), op
    cx = generate_ushape_mesh(10)
    phi = SlabAffineContraction.ushape(np.array([0.2, 0.2]))
    ops["lipschitz"] = DiscretePoincareOperator(lipschitz_cone(phi, cx, MeshGeometry(cx)))
    for op in ops.values():
        op.matrix(1), op.matrix(2)
        assert "table" not in vars(op.cone), op.label
    # the table is still there to read, built on first use
    star = ops["star"].cone
    (c, x), = star.chain((1, 0)).terms
    assert c == -1 and x is star.table[(0, 1)].terms[0][1]


def test_combinatorial_operators_build_no_tuple_views():
    # the searches, their validation and the cones run on simplex positions
    for op in ("collapse", "strong-collapse"):
        cx = generate_square_mesh(6)
        if op == "collapse":
            seq = find_collapse_sequence(cx)
            assert validate_collapse_sequence(seq)
            cone = collapse_cone(seq)
        else:
            seq = find_strong_collapse_sequence(cx)
            assert validate_strong_collapse_sequence(seq)
            product = build_product_complex(cx, uniform_breakpoints(len(seq.steps)))
            cone = contraction_cone(contraction_from_strong_collapse(seq, product), product)
        p = DiscretePoincareOperator(cone)
        p.matrix(1), p.matrix(2)
        assert verify_homotopy(p, trials=2)["per_k"]["1"]["max"] < 1e-12
        assert not {"_cofacets", "simplices_by_dim", "_index"} & vars(cx).keys(), op
        assert "table" not in vars(cone), op
