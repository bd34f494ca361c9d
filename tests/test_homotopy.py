"""Product complexes, the extrusion chain map, and collapse searches."""

import hashlib
import itertools
import time
import tracemalloc

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
    greedy_strong_collapse,
    load_sequence,
    save_sequence,
    uniform_breakpoints,
    validate_collapse_sequence,
    validate_strong_collapse_sequence,
)
from decpotentials.cones import collapse_cone, strong_collapse_cone
from decpotentials.simplicial import Chain, SimplicialComplex, boundary, induced_chain_map
from decpotentials.meshes import generate_square_mesh, generate_ushape_mesh, vertex_at
from conftest import annulus_complex, csc_conversions, holed_square_complex


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


def test_collapse_search_on_holed_square_returns_none():
    assert find_collapse_sequence(holed_square_complex()) is None


def _collapsible_by_exhaustive_search(cx):
    """Whether some order of free-pair removals ends at one vertex: every
    free pair is tried in every state, with a memo of the states reached."""
    simplices = [s for sims in cx.simplices_by_dim.values() for s in sims]
    cofacets = {s: cx.cofacets(s) for s in simplices}
    memo = {}

    def search(current):
        if len(current) == 1:
            return True
        if current not in memo:
            memo[current] = any(
                search(current - {tau, cofaces[0]})
                for tau in current
                for cofaces in [[s for s in cofacets[tau] if s in current]]
                if len(cofaces) == 1)
        return memo[current]

    return search(frozenset(simplices))


def _random_euler_one_2_complex(rng):
    while True:
        n = int(rng.integers(5, 9))
        triples = list(itertools.combinations(range(n), 3))
        size = min(int(rng.integers(3, 15)), len(triples))
        picks = rng.choice(len(triples), size=size, replace=False)
        triangles = [triples[i] for i in picks]
        relabel = {v: i for i, v in enumerate(sorted({v for t in triangles for v in t}))}
        cx = SimplicialComplex([tuple(relabel[v] for v in t) for t in triangles])
        if cx.euler_characteristic() == 1:
            return cx


def test_greedy_collapse_agrees_with_exhaustive_search_in_dimension_2():
    # greedy collapse is complete for 2-complexes: it finds a collapse
    # exactly when some removal order reaches a vertex
    rng = np.random.default_rng(8)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        cx = _random_euler_one_2_complex(rng)
        collapsible = _collapsible_by_exhaustive_search(cx)
        seq = find_collapse_sequence(cx)
        assert (seq is not None) == collapsible
        if seq is not None:
            assert validate_collapse_sequence(seq)
        outcomes[collapsible] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


def test_collapse_search_replay_and_cone_convert_each_degree_once(monkeypatch):
    cx = generate_square_mesh(8)
    shapes = csc_conversions(monkeypatch)
    seq = find_collapse_sequence(cx)
    assert validate_collapse_sequence(seq)
    collapse_cone(seq)
    assert sorted(shapes) == sorted(cx.coboundary_matrix(k).shape for k in (0, 1))


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


@pytest.mark.parametrize("search", [find_collapse_sequence, find_strong_collapse_sequence])
@pytest.mark.parametrize("terminal", [1.0, np.float64(1.0), 0.0, True, np.True_, "1", 3, -1,
                                      2**63, 2**70])
def test_searches_reject_a_terminal_that_is_no_vertex_id(search, terminal):
    # a float or a bool equal to a vertex id named it to the strong search
    # and was ignored by the collapse search
    with pytest.raises(ValueError, match=f"^terminal vertex {terminal} not in complex$"):
        search(SimplicialComplex([(0, 1, 2)]), terminal=terminal)


def test_a_bool_beside_integers_names_no_vertex_of_a_strong_collapse():
    # numpy reads [True, False, 2, False] as [1, 0, 2, 0], a valid collapse
    cx = SimplicialComplex([(0, 1, 2)])
    mixed = StrongCollapseSequence(cx, [(True, False), (2, False)], 0)
    assert validate_strong_collapse_sequence(mixed) is False
    messages = []
    for steps in (mixed.steps, [(True, False)]):
        with pytest.raises(ValueError) as err:
            strong_collapse_cone(StrongCollapseSequence(cx, steps, 0))
        messages.append(str(err.value))
    assert messages[0] == messages[1] == \
        "not a strong collapse: step 0 (True, False) names a vertex not in the complex"


@pytest.mark.parametrize("search", [find_collapse_sequence, find_strong_collapse_sequence])
@pytest.mark.parametrize("terminal", [1, np.int64(1), np.uint8(1)])
def test_searches_take_any_integer_terminal(search, terminal):
    seq = search(SimplicialComplex([(0, 1, 2)]), terminal=terminal)
    assert seq.terminal == 1 and type(seq.terminal) is int


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


def test_contraction_keeps_only_its_steps():
    # the cone reads a contraction's steps and never calls it, so building
    # one does no work and keeps only its steps; a call walks them, building
    # no table, and level 0 maps every vertex to the terminal
    cx = generate_square_mesh(16)
    seq = find_strong_collapse_sequence(cx)
    prod = build_product_complex(cx, uniform_breakpoints(len(seq.steps)))
    tracemalloc.start()
    try:
        psi = contraction_from_strong_collapse(seq, prod)
        built = tracemalloc.get_traced_memory()[0]
        assert all(psi(prod.vertex_id(v, 0)) == seq.terminal for v in range(cx.vertex_count))
        called = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built <= psi.steps.nbytes + 1024 and called <= built + 256


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
# around incremental coface counts and alive-vertex stars; the square:16,
# square:32 and ushape:20 entries were recorded before the backtracking
# collapse search became one greedy pass
SEQUENCE_FILE_DIGESTS = {
    "collapse square:8": "ce2016abe3e14dba55e687aa2268d9f7a5b34962e3dffba9c07d53d926c3c4ef",
    "collapse square:8 at 0": "7a0fd66a1aa2ad42839cd7378f1d3ada35d3c3286374183b85cf697d3541fee6",
    "collapse ushape:10": "f545bf8675e277e045140863ee6a3e514015087625f136d8b29f493b4bd3172f",
    "collapse square:16": "fc7f650da11c84f69d4f111205fba43dc920a4b118796f10282d13c9eb776b93",
    "collapse square:16 at 0": "6940f6880871a1756c88b97afe16ffa68a0e1032026ff445c01dd9fdf415c44b",
    "collapse square:32": "030338f0659d8d1242f3efe01c451fa68f1b9c5dce01c64b95ec9c657ebf169a",
    "collapse ushape:20": "7e8d9c677be2dd08b58adc9e2ea24663e8c6e4b9ec7bb836f5293d563eeff5dd",
    "strong square:8": "c53fda55712e43c04b45085c97b00523c076c5a5907983ac304b59e9ee99b41b",
    "strong ushape:10 at (0, 0)":
        "ca8c418b07adec44a35b12339d3a7c2411ecb3143631ebec01cda844c6795fb9",
}


def test_sequence_files_are_pinned(tmp_path, square8, ushape10):
    square16, square32 = generate_square_mesh(16), generate_square_mesh(32)
    sequences = {
        "collapse square:8": find_collapse_sequence(square8),
        "collapse square:8 at 0": find_collapse_sequence(square8, terminal=0),
        "collapse ushape:10": find_collapse_sequence(ushape10),
        "collapse square:16": find_collapse_sequence(square16),
        "collapse square:16 at 0": find_collapse_sequence(square16, terminal=0),
        "collapse square:32": find_collapse_sequence(square32),
        "collapse ushape:20": find_collapse_sequence(generate_ushape_mesh(20)),
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


def test_collapse_search_past_the_euler_check_gets_stuck():
    # a disjoint triangle lifts the holed square's Euler characteristic to 1,
    # so the search runs: the greedy collapse sticks on the cycle round the
    # hole
    holed = holed_square_complex()
    n = holed.vertex_count
    cx = SimplicialComplex(holed.simplices(2) + [(n, n + 1, n + 2)])
    assert cx.euler_characteristic() == 1
    assert find_collapse_sequence(cx) is None


def _sha(*parts) -> str:
    """sha256 of the dtype and bytes of each array part and the repr of any other."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(p.dtype.str.encode() + np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


# sha256 of the steps, the terminal, and each degree's (rows, cols, coeffs)
# cone terms, recorded before the searches, their validation and the
# collapse cone ran on simplex positions
COLLAPSE_PINS = {
    "square:16": {
        "steps": "0fd92ab51193c3a43fd0612d4b9ffe718078611a2886b1c314124949fb9a8e1c",
        "terminal": 288,
        "terms 0": "c7c0039945cc95674d6219482774d15ae4a4952c53de97c0b2629afbc8e06fff",
        "terms 1": "6433ee940448364b0e2a3a52fd07556a4a2a43114c710de6ff410e4ca01f7bec",
        "terms 2": "cf7f3e053316f5ff376d4684964bf230925b90b4ebe866353eb434e2dc6ea8c2",
    },
    "ushape:20": {
        "steps": "f5c4e5ba3662ac2b69091e2ee90bb775e600568294ff5abc6ce6b2b3c4fa9fc8",
        "terminal": 342,
        "terms 0": "064a84ab77cbc2649d88c45dd2737d088f37659092f0dd3f7abb5070c151c862",
        "terms 1": "eeae72b06ea1f14a9bf17da02522a346772f7edde11db72b7f4f3b6771a2703b",
        "terms 2": "cf7f3e053316f5ff376d4684964bf230925b90b4ebe866353eb434e2dc6ea8c2",
    },
}
STRONG_COLLAPSE_PINS = {
    "square:10": {"steps": "a657129b656eab2da07bb948a1a6d780b71f3b71d8907bd9230c5cf3fc242190",
                  "terminal": 120},
    "ushape:20": {"steps": "732feda90842b600e348e15d5dfa6bcad5bbf168c56f6ba8254bc0d7aece9a1f",
                  "terminal": 342},
}


@pytest.mark.parametrize("mesh", sorted(COLLAPSE_PINS))
def test_collapse_steps_and_cone_terms_are_pinned(mesh):
    kind, n = mesh.split(":")
    cx = (generate_square_mesh if kind == "square" else generate_ushape_mesh)(int(n))
    seq = find_collapse_sequence(cx)
    terms = collapse_cone(seq).terms
    got = {"steps": _sha(seq.steps), "terminal": seq.terminal,
           **{f"terms {k}": _sha(*terms[k]) for k in sorted(terms)}}
    assert got == COLLAPSE_PINS[mesh]


@pytest.mark.parametrize("mesh", sorted(STRONG_COLLAPSE_PINS))
def test_strong_collapse_steps_are_pinned(mesh):
    kind, n = mesh.split(":")
    cx = (generate_square_mesh if kind == "square" else generate_ushape_mesh)(int(n))
    seq = find_strong_collapse_sequence(cx)
    assert {"steps": _sha(seq.steps), "terminal": seq.terminal} == STRONG_COLLAPSE_PINS[mesh]


def test_strong_collapse_cores_are_pinned():
    # the cores left where greedy removal sticks, free and with the terminal pinned
    annulus, holed = annulus_complex(with_coords=False), holed_square_complex()
    assert greedy_strong_collapse(annulus)[1] == set(range(6))
    assert greedy_strong_collapse(annulus, 0)[1] == set(range(6))
    assert greedy_strong_collapse(holed)[1] == {286, 287, 288, 311, 313, 336, 337, 338}
    assert greedy_strong_collapse(holed, 0)[1] == {
        0, 26, 52, 78, 104, 130, 156, 182, 208, 234, 260, 286, 287, 288, 311, 313, 336, 337, 338}


# first steps that no collapse of square:2 takes: ((0, 1, 4), (0, 1)) is its first
# step, (0, 1) is free there and (0, 3, 4) is a triangle not containing it
BAD_FIRST_STEPS = {
    "absent sigma": ((0, 1, 99), (0, 1)),
    "absent tau": ((0, 1, 4), (0, 99)),
    "negative vertex": ((-1, 0, 1), (0, 1)),
    "unsorted sigma": ((4, 1, 0), (0, 1)),
    "unsorted tau": ((0, 1, 4), (1, 0)),
    "sigma not a coface": ((0, 3, 4), (0, 1)),
    "sigma two dimensions up": ((0, 1, 4), (0,)),
    "sigma of tau's dimension": ((0, 1), (0, 1)),
    "tau of top dimension": ((0, 1, 4), (0, 1, 4)),
    "tau of top dimension, sigma above it": ((0, 1, 3, 4), (0, 1, 4)),
    "empty tau": ((0,), ()),
    "bool beside integers": ((0, True, 4), (0, True)),
    "numpy bool beside integers": ((0, 1, 4), (0, np.True_)),
}


@pytest.mark.parametrize("name", sorted(BAD_FIRST_STEPS))
def test_validate_collapse_rejects_a_bad_step_without_raising(square2, name):
    seq = find_collapse_sequence(square2)
    assert seq.steps[0] == ((0, 1, 4), (0, 1))
    assert validate_collapse_sequence(seq) is True
    bad = [BAD_FIRST_STEPS[name]] + seq.steps[1:]
    assert validate_collapse_sequence(CollapseSequence(square2, bad, seq.terminal)) is False
    # the same step after the valid ones, where nothing is left to remove
    late = seq.steps + [BAD_FIRST_STEPS[name]]
    assert validate_collapse_sequence(CollapseSequence(square2, late, seq.terminal)) is False
    for terminal in (seq.terminal + 1, 99):
        assert not validate_collapse_sequence(CollapseSequence(square2, seq.steps, terminal))
