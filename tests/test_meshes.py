"""Mesh generators, vertex lookup, and file round trips."""

import hashlib

import numpy as np
import pytest

from decpotentials import (
    Cochain,
    SimplicialComplex,
    generate_square_mesh,
    generate_ushape_mesh,
    load_cochain_csv,
    load_mesh_json,
    save_cochain_csv,
    save_mesh_json,
    vertex_at,
)

from conftest import random_cochain


def test_square_counts():
    cx = generate_square_mesh(1)
    assert (cx.num_simplices(0), cx.num_simplices(1), cx.num_simplices(2)) == (4, 5, 2)
    assert cx.euler_characteristic() == 1


def test_square8_counts(square8):
    counts = tuple(square8.num_simplices(k) for k in range(3))
    assert counts == (81, 208, 128)
    assert square8.euler_characteristic() == 1
    assert square8.dim == 2


def test_square_rejects_bad_sizes():
    for n in (0, -2):
        with pytest.raises(ValueError):
            generate_square_mesh(n)


def test_ushape_counts(ushape10):
    counts = tuple(ushape10.num_simplices(k) for k in range(3))
    assert counts == (100, 243, 144)
    assert ushape10.euler_characteristic() == 1


def test_ushape_rejects_bad_sizes():
    for n in (0, 7, -10, 15):
        with pytest.raises(ValueError):
            generate_ushape_mesh(n)


def test_vertex_lookup_square(square8):
    assert vertex_at(square8, (0.0, 0.0)) == 0
    assert vertex_at(square8, (1.0, 1.0)) == 80
    assert vertex_at(square8, (0.5, 0.5)) == 40
    # within tolerance counts as a hit
    assert vertex_at(square8, (1e-10, 0.0)) == 0
    with pytest.raises(KeyError):
        vertex_at(square8, (0.51, 0.5))
    # a lookup reads the vertex rows, not the canonical simplex tuples
    cx = generate_square_mesh(8)
    assert vertex_at(cx, (0.5, 0.5)) == 40
    assert "simplices_by_dim" not in vars(cx)


def test_vertex_lookup_ushape(ushape10):
    assert vertex_at(ushape10, (0.0, 0.0)) == 0
    assert vertex_at(ushape10, (0.2, 0.2)) == 24
    assert vertex_at(ushape10, (0.5, 0.2)) == 27
    # the notch interior has no vertices at all
    with pytest.raises(KeyError):
        vertex_at(ushape10, (0.5, 0.5))


def test_ushape_keeps_only_arm_and_strip_cells(ugeom):
    assert ugeom.locate((0.5, 0.8)) is None
    assert ugeom.locate((0.15, 0.8)) is not None
    assert ugeom.locate((0.85, 0.8)) is not None
    assert ugeom.locate((0.5, 0.15)) is not None
    assert abs(ugeom.total_area - 0.72) < 1e-12


def test_mesh_json_round_trip(tmp_path, ushape10):
    path = tmp_path / "mesh.json"
    save_mesh_json(ushape10, path)
    loaded = load_mesh_json(path)
    assert loaded.simplices(2) == ushape10.simplices(2)
    assert np.array_equal(loaded.coordinates, ushape10.coordinates)

    again = tmp_path / "again.json"
    save_mesh_json(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_mesh_json_requires_triangles(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"triangles": [], "vertices": [[0.0, 0.0]]}\n')
    with pytest.raises(ValueError):
        load_mesh_json(path)


def test_mesh_json_requires_coordinates(tmp_path):
    bare = SimplicialComplex([(0, 1, 2)])
    with pytest.raises(ValueError):
        save_mesh_json(bare, tmp_path / "bare.json")


def test_cochain_csv_round_trip(tmp_path, square2):
    alpha = random_cochain(square2, 1, np.random.default_rng(5))
    path = tmp_path / "alpha.csv"
    save_cochain_csv(alpha, path)
    header = path.read_text().splitlines()[0]
    assert header == "dim,1"
    loaded = load_cochain_csv(square2, path)
    assert loaded.dim == 1
    # repr round trip keeps every bit
    assert np.array_equal(loaded.values, alpha.values)


def test_cochain_csv_canonicalizes_vertex_order(tmp_path, square1):
    path = tmp_path / "swapped.csv"
    rows = ["dim,1"]
    for s in square1.simplices(1):
        rows.append(f"{s[1]},{s[0]},1.0")
    path.write_text("\n".join(rows) + "\n")
    loaded = load_cochain_csv(square1, path)
    # every edge was written against orientation, so every value flips
    assert np.array_equal(loaded.values, -np.ones(5))


def test_cochain_csv_reports_missing_rows(tmp_path, square1):
    path = tmp_path / "partial.csv"
    path.write_text("dim,1\n0,1,2.0\n")
    with pytest.raises(ValueError, match="misses 4"):
        load_cochain_csv(square1, path)


def test_cochain_csv_rejects_bad_header(tmp_path, square1):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2.0\n")
    with pytest.raises(ValueError):
        load_cochain_csv(square1, path)


def test_cochain_csv_rejects_wrong_arity(tmp_path, square1):
    path = tmp_path / "arity.csv"
    path.write_text("dim,1\n0,1,2,3.0\n")
    with pytest.raises(ValueError):
        load_cochain_csv(square1, path)


def test_cochain_csv_degree_zero_and_two(tmp_path, square2):
    for k in (0, 2):
        alpha = random_cochain(square2, k, np.random.default_rng(6 + k))
        path = tmp_path / f"deg{k}.csv"
        save_cochain_csv(alpha, path)
        loaded = load_cochain_csv(square2, path)
        assert np.array_equal(loaded.values, alpha.values)


# sha256 of the coordinates and the vertex, edge and triangle rows, recorded
# with the per-cell Python loops, before both grids came from one mask
MESH_DIGESTS = {
    "square:1": "1620b6c87a8285a0cf487eacc94a1467cfd18269e3d606d55a935188b2a8f9c8",
    "square:2": "743a46d05faad56d8de7b1d945a407fd396cf29f01282c216e587b0e40984799",
    "square:8": "734b41a29e688af9dfa5cccb79261592acf8c4ed81348d3f17b9fe9c069d6275",
    "square:16": "7b5b8287df1f77a18d854a8c95ae67d68c1560e284f4e963e6627037ff2fb2f6",
    "square:64": "3df5fc102b41d3c5d555380ad8dc65908c00e6ac98540220b4f1e0793bc5e12b",
    "ushape:10": "d3123afdabc587e63009bce0f247f1492f700c35e50a22d817689c2101f3761b",
    "ushape:20": "984c819bd9d7eb64bc67522f0df57aefd2b81fce3203deb57128d4e2bdb351e3",
    "ushape:40": "f96ecedc59a265da9a2207e749952dd70016e84f6396d5cf84c899939370e545",
}


def test_grid_mesh_arrays_are_pinned():
    generators = {"square": generate_square_mesh, "ushape": generate_ushape_mesh}
    digests = {}
    for name in MESH_DIGESTS:
        family, n = name.split(":")
        cx = generators[family](int(n))
        h = hashlib.sha256()
        for a in (cx.coordinates, cx._rows[0], cx._rows[1], cx._rows[2]):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        digests[name] = h.hexdigest()
    assert digests == MESH_DIGESTS
