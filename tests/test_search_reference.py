"""The collapse and strong-collapse searches and the strong-collapse
validation against their step-by-step references in ``collapse_reference``:
the same steps, terminals, cores and verdicts, on pinned meshes, random
complexes, complexes where greedy gets stuck, and corrupted sequences."""

import numpy as np
import pytest

import collapse_reference as ref
from conftest import annulus_complex, holed_square_complex, random_collapsible
from decpotentials.cones import strong_collapse_cone
from decpotentials.homotopy import (
    StrongCollapseSequence,
    find_collapse_sequence,
    find_strong_collapse_sequence,
    greedy_strong_collapse,
    validate_strong_collapse_sequence,
)
from decpotentials.meshes import generate_square_mesh, generate_ushape_mesh
from decpotentials.simplicial import SimplicialComplex

PINNED_MESHES = ["square:1", "square:2", "square:4", "square:8", "square:10", "square:16",
                 "square:32", "ushape:10", "ushape:20"]


def _mesh(name):
    kind, n = name.split(":")
    return (generate_square_mesh if kind == "square" else generate_ushape_mesh)(int(n))


def _stuck_complexes():
    """The annulus and the holed square, whose greedy searches get stuck, and
    the holed square with a disjoint triangle, whose Euler check passes."""
    holed = holed_square_complex()
    n = holed.vertex_count
    return [annulus_complex(with_coords=False), holed,
            SimplicialComplex(holed.simplices(2) + [(n, n + 1, n + 2)])]


def _random_complexes():
    """``random_collapsible`` complexes up to dimension 3, non-manifold where a
    new vertex is coned over a face that already has a coface, and each with a
    disjoint hollow triangle added: its Euler characteristic stays 1, so the
    searches run, and get stuck on the cycle."""
    out = []
    for seed in range(40):
        cx = random_collapsible(np.random.default_rng(seed), rounds=2 + seed % 9)
        n = cx.vertex_count
        every = [t for k in range(cx.dim + 1) for t in cx.simplices(k)]
        out += [cx, SimplicialComplex([*every, (n, n + 1), (n + 1, n + 2), (n, n + 2)])]
    return out


def _same_collapse(cx, terminal=None):
    got, want = find_collapse_sequence(cx, terminal), ref.find_collapse_sequence(cx, terminal)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.steps == want.steps and got.terminal == want.terminal
        assert all(type(v) is int for s, t in got.steps for v in (*s, *t))


def _same_strong(cx, terminal=None):
    got, want = greedy_strong_collapse(cx, terminal), ref.greedy_strong_collapse(cx, terminal)
    assert got == want
    seq = find_strong_collapse_sequence(cx, terminal)
    if seq is not None:
        assert (seq.steps, {seq.terminal}) == want
        assert validate_strong_collapse_sequence(seq)
        assert ref.validate_strong_collapse_sequence(seq)


@pytest.mark.parametrize("mesh", PINNED_MESHES)
def test_searches_match_the_reference_on_pinned_meshes(mesh):
    cx = _mesh(mesh)
    for terminal in (None, 0, int(cx._rows[0][-1, 0])):
        _same_collapse(cx, terminal)
        _same_strong(cx, terminal)


def test_searches_match_the_reference_on_random_complexes():
    for cx in _random_complexes():
        for terminal in (None, 0, cx.vertex_count - 1, cx.vertex_count // 2):
            _same_collapse(cx, terminal)
            _same_strong(cx, terminal)


def test_searches_match_the_reference_where_greedy_gets_stuck():
    for cx in _stuck_complexes():
        for terminal in (None, 0):
            _same_collapse(cx, terminal)
            _same_strong(cx, terminal)
            assert find_strong_collapse_sequence(cx, terminal) is None


def test_searches_match_the_reference_at_every_terminal_of_square4():
    cx = generate_square_mesh(4)
    for (v,) in cx.simplices(0):
        _same_collapse(cx, v)
        _same_strong(cx, v)
        assert find_collapse_sequence(cx, v).terminal == v
        assert find_strong_collapse_sequence(cx, v).terminal == v


def _corruptions(seq: StrongCollapseSequence):
    """Corrupted copies of a valid strong collapse: reversed, each step dropped
    in turn, a wrong dominator, a repeated vertex, and the wrong terminal."""
    steps, cx = list(seq.steps), seq.complex
    out = [list(reversed(steps))]
    out += [steps[:j] + steps[j + 1:] for j in range(0, len(steps), max(1, len(steps) // 7))]
    ids = cx._rows[0][:, 0].tolist()
    for j in range(0, len(steps), max(1, len(steps) // 5)):
        v, w = steps[j]
        wrong = next(u for u in ids if u not in (v, w))
        out.append(steps[:j] + [(v, wrong)] + steps[j + 1:])
        out.append(steps[:j + 1] + [steps[j]] + steps[j + 1:])
    return [StrongCollapseSequence(cx, s, seq.terminal) for s in out] + [
        StrongCollapseSequence(cx, steps, seq.steps[-1][0] if steps else seq.terminal + 1)]


@pytest.mark.parametrize("mesh", ["square:2", "square:4", "ushape:10"])
def test_strong_validation_matches_the_reference_on_corrupted_sequences(mesh):
    cx = _mesh(mesh)
    for terminal in (None, 0):
        for bad in _corruptions(find_strong_collapse_sequence(cx, terminal)):
            assert validate_strong_collapse_sequence(bad) == \
                ref.validate_strong_collapse_sequence(bad)


def test_strong_validation_matches_the_reference_on_random_complexes():
    for cx in _random_complexes():
        seq = find_strong_collapse_sequence(cx)
        if seq is None:
            continue
        for bad in _corruptions(seq):
            want = ref.validate_strong_collapse_sequence(bad)
            assert validate_strong_collapse_sequence(bad) == want
            try:
                strong_collapse_cone(bad)
            except ValueError:
                assert not want
            else:
                assert want
