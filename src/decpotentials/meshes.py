"""Structured mesh generators and file round trips.

Both generators call one grid function with a mask of the cells to keep; it
splits every kept cell along the same (southwest-northeast) diagonal.
Vertex ids run row-major from the bottom-left corner, so for the unit
square the origin is vertex 0 and the top-right corner is the last vertex;
the U-shaped domain keeps the same numbering restricted to its cells,
putting the origin at id 0.

File formats:

* mesh JSON: ``{"vertices": [[x, y], ...], "triangles": [[i, j, k], ...]}``
  with triangles written canonically sorted, so a load/save round trip is
  byte-stable;
* cochain CSV: a ``dim,<k>`` header line followed by
  ``v0,...,vk,value`` rows over canonical simplices in index order.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .simplicial import Cochain, SimplicialComplex, canonical_simplex


def _grid_mesh(n: int, cells: np.ndarray) -> SimplicialComplex:
    """Grid of spacing 1/n on the unit square, keeping the cells where the
    (n, n) mask ``cells[j, i]`` is set.

    Each kept cell (i, j) is split along its southwest-northeast diagonal.
    The vertices of the kept cells are numbered row-major from the bottom
    left, and vertex (i, j) sits at ``(i / n, j / n)``.
    """
    j, i = np.nonzero(cells)
    v00 = j * (n + 1) + i  # lower-left corner, numbered on the full grid
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    corners = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    # the used vertices, renumbered in row-major order
    used, triangles = np.unique(corners, return_inverse=True)
    jv, iv = np.divmod(used, n + 1)
    coords = np.column_stack([iv / n, jv / n])
    return SimplicialComplex.from_rows([triangles.reshape(-1, 3)], coords)


def generate_square_mesh(n: int) -> SimplicialComplex:
    """Unit square [0,1]^2 with (n+1)^2 vertices and 2 n^2 triangles."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _grid_mesh(n, np.ones((n, n), dtype=bool))


def generate_ushape_mesh(n: int) -> SimplicialComplex:
    """U-shaped domain: a bottom strip of height 0.3 joining two side arms
    of width 0.3, meshed at spacing 1/n.  ``n`` must be a multiple of 10 so
    the 0.3/0.7 walls land on grid lines."""
    if n < 10 or n % 10 != 0:
        raise ValueError("n must be a positive multiple of 10")
    wall = 3 * n // 10
    right = 7 * n // 10
    j, i = np.indices((n, n))
    return _grid_mesh(n, (j < wall) | (i < wall) | (i >= right))


def vertex_at(complex: SimplicialComplex, point) -> int:
    """Id of the vertex at (or within 1e-9 of) a coordinate point."""
    ids = complex._rows[0][:, 0]
    hits = ids[np.abs(complex.coordinates[ids] - point).max(axis=1) <= 1e-9]
    if hits.size:
        return int(hits[0])
    raise KeyError(f"no vertex at {tuple(np.asarray(point, dtype=float))}")


# -- files ---------------------------------------------------------------


def save_mesh_json(complex: SimplicialComplex, path) -> None:
    if complex.coordinates is None:
        raise ValueError("mesh files need vertex coordinates")
    data = {
        "vertices": [[float(x), float(y)] for x, y in
                     complex.coordinates[: complex.vertex_count]],
        "triangles": complex._rows[2].tolist() if 2 in complex._rows else [],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def load_mesh_json(path) -> SimplicialComplex:
    with open(path) as fh:
        data = json.load(fh)
    if type(data) is not dict or type(data.get("triangles")) is not list:
        raise ValueError("mesh file must be an object with a list of triangles")
    if type(data.get("vertices")) is not list:
        raise ValueError("mesh file must be an object with a list of vertices")
    coords = np.array(data["vertices"], dtype=float)
    triangles = data["triangles"]
    for row in triangles:
        # JSON ids load as int; a bool is an int to Python, not an id
        if (type(row) is not list or len(row) != 3
                or not all(type(v) is int and v >= 0 for v in row)):
            raise ValueError(f"mesh file triangle {row} is not three vertex ids")
    if not triangles:
        raise ValueError("mesh file has no triangles")
    return SimplicialComplex(triangles, coords)


def save_cochain_csv(cochain: Cochain, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", cochain.dim])
        # ids as ints, values as float reprs
        rows = cochain.complex._rows.get(cochain.dim, np.empty((0, 0), dtype=np.int64)).tolist()
        writer.writerows(s + [v] for s, v in zip(rows, cochain.values.astype(float).tolist()))


def load_cochain_csv(complex: SimplicialComplex, path) -> Cochain:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) != 2 or header[0] != "dim" or not header[1].isdecimal():
            raise ValueError(f"cochain file must start with a 'dim,<k>' header, got row {header}")
        k = int(header[1])
        values = np.zeros(complex.num_simplices(k))
        seen = np.zeros(complex.num_simplices(k), dtype=bool)
        for row in reader:
            if not row:
                continue
            verts = [int(x) for x in row[:-1]]
            if len(verts) != k + 1:
                raise ValueError(f"row {row} does not name a {k}-simplex")
            t, sign = canonical_simplex(verts)
            i = complex.index(t)
            if seen[i]:
                raise ValueError(f"row {row} names {k}-simplex {t}, which an earlier row named")
            value = float(row[-1])
            if not math.isfinite(value):
                raise ValueError(f"row {row} gives {k}-simplex {t} the non-finite value {value}")
            values[i] = sign * value
            seen[i] = True
        if not np.all(seen):
            missing = int(np.sum(~seen))
            raise ValueError(f"cochain file misses {missing} {k}-simplices")
    return Cochain(complex, k, values)
