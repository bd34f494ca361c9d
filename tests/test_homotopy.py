"""Product complexes, the extrusion chain map, and collapse searches."""

import hashlib
import time

import numpy as np
import pytest

from decpotentials.homotopy import (
    CollapseSequence,
    StrongCollapseSequence,
    build_product_complex,
    contraction_from_strong_collapse,
    extrusion,
    find_collapse_sequence,
    find_strong_collapse_sequence,
    load_sequence,
    save_sequence,
    uniform_breakpoints,
    validate_collapse_sequence,
    validate_strong_collapse_sequence,
)
from decpotentials.simplicial import Chain, SimplicialComplex, boundary, induced_chain_map
from decpotentials.meshes import vertex_at
from conftest import annulus_complex, holed_square_complex


def _random_complex(rng, n_vertices=9, n_maximal=6, max_dim=3):
    simplices = []
    for _ in range(n_maximal):
        k = int(rng.integers(1, max_dim + 1))
        verts = rng.choice(n_vertices, size=k + 1, replace=False)
        simplices.append(tuple(int(v) for v in verts))
    return SimplicialComplex(simplices)


def test_product_breakpoints_validated(square1):
    with pytest.raises(ValueError):
        build_product_complex(square1, (0.0, 0.5))
    with pytest.raises(ValueError):
        build_product_complex(square1, (0.0, 0.6, 0.4, 1.0))
    assert uniform_breakpoints(4) == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_product_of_triangle():
    cx = SimplicialComplex([(0, 1, 2)])
    prod = build_product_complex(cx, (0.0, 1.0))
    assert prod.stride == 3
    assert prod.complex.num_simplices(0) == 6
    assert prod.complex.num_simplices(3) == 3  # staircase prisms of the triangle
    assert prod.vertex_id(2, 1) == 5
    assert prod.vertex_level(5) == (2, 1)


def test_extrusion_of_an_edge():
    cx = SimplicialComplex([(0, 1)])
    prod = build_product_complex(cx, (0.0, 1.0))
    e = extrusion((0, 1), prod)
    # stride 2: (v,0) -> v, (v,1) -> v+2
    assert e.terms == {(0, 2, 3): 1, (0, 1, 3): -1}


def test_prism_identity_is_exact_integers():
    rng = np.random.default_rng(0)
    for trial in range(8):
        cx = _random_complex(rng)
        total = sum(cx.num_simplices(k) for k in cx.simplices_by_dim)
        assert total <= 200
        n_slabs = 1 + trial % 4
        prod = build_product_complex(cx, uniform_breakpoints(n_slabs))
        for k in sorted(cx.simplices_by_dim):
            for s in cx.simplices(k):
                c = Chain.single(cx, s)
                lhs = boundary(extrusion(c, prod))
                if k > 0:
                    lhs = lhs + extrusion(boundary(c), prod)
                rhs = induced_chain_map(prod.j1, c) - induced_chain_map(prod.j0, c)
                diff = lhs - rhs
                assert diff.is_zero()
                assert all(isinstance(v, (int, np.integer))
                           for v in (lhs - rhs).terms.values())


def test_collapse_single_triangle():
    cx = SimplicialComplex([(0, 1, 2)])
    seq = find_collapse_sequence(cx)
    assert seq is not None
    assert len(seq.steps) == 3  # 7 simplices -> 1 vertex, two removed per step
    assert validate_collapse_sequence(seq)


def test_collapse_square1(square1):
    seq = find_collapse_sequence(square1)
    assert seq is not None and len(seq.steps) == 5
    assert validate_collapse_sequence(seq)


def test_collapse_with_pinned_terminal(square2):
    for terminal in (0, 4, 8):
        seq = find_collapse_sequence(square2, terminal=terminal)
        assert seq is not None
        assert seq.terminal == terminal
        assert validate_collapse_sequence(seq)


def test_collapse_fails_on_annulus():
    cx = annulus_complex(with_coords=False)
    assert find_collapse_sequence(cx) is None


def test_collapse_budget_exhaustion_returns_none():
    cx = annulus_complex(with_coords=False)
    assert find_collapse_sequence(cx, budget=10) is None


def test_collapse_search_on_holed_square_returns_none():
    # the greedy descent is about 1,700 steps long before it gets stuck on a
    # cycle around the hole; backtracking from there must neither recurse
    # that deep nor run past the budget
    assert find_collapse_sequence(holed_square_complex(), budget=2000) is None


def test_validate_rejects_corrupt_sequence(square1):
    seq = find_collapse_sequence(square1)
    bad = CollapseSequence(square1.__class__([(0, 1, 2)]), seq.steps, seq.terminal)
    assert not validate_collapse_sequence(bad)
    swapped = CollapseSequence(square1, list(reversed(seq.steps)), seq.terminal)
    assert not validate_collapse_sequence(swapped)


def test_strong_collapse_single_triangle():
    cx = SimplicialComplex([(0, 1, 2)])
    seq = find_strong_collapse_sequence(cx)
    assert seq.steps == [(0, 1), (1, 2)]
    assert seq.terminal == 2
    assert validate_strong_collapse_sequence(seq)

    pinned = find_strong_collapse_sequence(cx, terminal=0)
    assert pinned.steps == [(1, 0), (2, 0)]
    assert pinned.terminal == 0


def test_strong_collapse_fan():
    cx = SimplicialComplex([(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    seq = find_strong_collapse_sequence(cx, terminal=0)
    assert seq is not None and seq.terminal == 0
    assert validate_strong_collapse_sequence(seq)
    assert len(seq.steps) == 4


def test_strong_collapse_fails_on_annulus():
    cx = annulus_complex(with_coords=False)
    assert find_strong_collapse_sequence(cx) is None


def test_contraction_from_single_triangle_sequence():
    cx = SimplicialComplex([(0, 1, 2)])
    seq = find_strong_collapse_sequence(cx)  # [(0,1), (1,2)], terminal 2
    prod = build_product_complex(cx, uniform_breakpoints(2))
    psi = contraction_from_strong_collapse(seq, prod)
    # level 2 is the identity, level 1 retracts 0 -> 1, level 0 is constant
    assert [psi(prod.vertex_id(v, 2)) for v in (0, 1, 2)] == [0, 1, 2]
    assert [psi(prod.vertex_id(v, 1)) for v in (0, 1, 2)] == [1, 1, 2]
    assert [psi(prod.vertex_id(v, 0)) for v in (0, 1, 2)] == [2, 2, 2]


def test_contraction_needs_matching_slab_count():
    cx = SimplicialComplex([(0, 1, 2)])
    seq = find_strong_collapse_sequence(cx)
    prod = build_product_complex(cx, uniform_breakpoints(3))
    with pytest.raises(ValueError):
        contraction_from_strong_collapse(seq, prod)


def test_sequence_files_round_trip(tmp_path, square1, ushape10):
    seq = find_collapse_sequence(square1)
    path = tmp_path / "collapse.json"
    save_sequence(seq, path)
    back = load_sequence(square1, path)
    assert isinstance(back, CollapseSequence)
    assert back.steps == seq.steps and back.terminal == seq.terminal

    sseq = find_strong_collapse_sequence(ushape10, terminal=0)
    spath = tmp_path / "strong.json"
    save_sequence(sseq, spath)
    sback = load_sequence(ushape10, spath)
    assert isinstance(sback, StrongCollapseSequence)
    assert sback.steps == sseq.steps and sback.terminal == sseq.terminal

    # byte-stable rewrite
    save_sequence(sback, tmp_path / "strong2.json")
    assert (tmp_path / "strong.json").read_bytes() == (tmp_path / "strong2.json").read_bytes()


def test_ushape_strong_collapse_step_count(ushape10):
    seq = find_strong_collapse_sequence(ushape10, terminal=0)
    assert seq is not None
    assert len(seq.steps) == ushape10.num_simplices(0) - 1
    assert validate_strong_collapse_sequence(seq)


# sha256 of save_sequence output, recorded before the searches were rewritten
# around incremental coface counts and alive-vertex stars
SEQUENCE_FILE_DIGESTS = {
    "collapse square:8": "ce2016abe3e14dba55e687aa2268d9f7a5b34962e3dffba9c07d53d926c3c4ef",
    "collapse square:8 at 0": "7a0fd66a1aa2ad42839cd7378f1d3ada35d3c3286374183b85cf697d3541fee6",
    "collapse ushape:10": "f545bf8675e277e045140863ee6a3e514015087625f136d8b29f493b4bd3172f",
    "strong square:8": "c53fda55712e43c04b45085c97b00523c076c5a5907983ac304b59e9ee99b41b",
    "strong ushape:10 at (0, 0)":
        "ca8c418b07adec44a35b12339d3a7c2411ecb3143631ebec01cda844c6795fb9",
}


def test_sequence_files_are_pinned(tmp_path, square8, ushape10):
    sequences = {
        "collapse square:8": find_collapse_sequence(square8),
        "collapse square:8 at 0": find_collapse_sequence(square8, terminal=0),
        "collapse ushape:10": find_collapse_sequence(ushape10),
        "strong square:8": find_strong_collapse_sequence(square8),
        "strong ushape:10 at (0, 0)": find_strong_collapse_sequence(
            ushape10, terminal=vertex_at(ushape10, (0.0, 0.0))),
    }
    digests = {}
    for name, seq in sequences.items():
        save_sequence(seq, tmp_path / "seq.json")
        digests[name] = hashlib.sha256((tmp_path / "seq.json").read_bytes()).hexdigest()
    assert digests == SEQUENCE_FILE_DIGESTS


def test_euler_characteristic_rejects_the_holed_square_at_once():
    # a collapse keeps the homotopy type, so no search is needed to reject a
    # complex whose Euler characteristic is not 1
    cx = holed_square_complex()
    assert cx.euler_characteristic() == 0
    start = time.perf_counter()
    assert find_collapse_sequence(cx) is None
    assert find_strong_collapse_sequence(cx) is None
    assert time.perf_counter() - start < 1.0


def test_collapse_search_past_the_euler_check_stops_within_budget():
    # a disjoint triangle lifts the holed square's Euler characteristic to 1,
    # so the search runs: its greedy descent sticks on the cycle round the
    # hole, and backtracking must stop at the budget without deep recursion
    holed = holed_square_complex()
    n = holed.vertex_count
    cx = SimplicialComplex(holed.simplices(2) + [(n, n + 1, n + 2)])
    assert cx.euler_characteristic() == 1
    assert find_collapse_sequence(cx, budget=2000) is None
