"""Oriented simplicial complexes with chain and cochain algebra.

A complex keeps one integer array per dimension, a row of strictly increasing
vertex ids per simplex, rows in lexicographic order; the canonical simplex
tuples and their index are built from the rows on first use.  Any other
vertex ordering is converted on the fly and picks up the parity sign of the
sorting permutation.  Chains are sparse signed combinations of canonical
simplices; cochains are dense value arrays indexed by the complex's
deterministic (lexicographic) simplex ordering.

Coefficient arithmetic is whatever the inputs carry: integer chains stay
integer, so the structural identities (double boundary, double coboundary,
prism-style cancellations) can be checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

Simplex = tuple[int, ...]


def canonical_simplex(vertices: Sequence[int]) -> tuple[Simplex, int]:
    """Sort a vertex sequence into canonical order.

    Returns the increasing tuple together with the sign (+1/-1) of the
    permutation that sorts the input.  Raises on repeated vertices, which do
    not name a simplex.
    """
    verts = list(vertices)
    sign = 1
    for i in range(1, len(verts)):
        j = i
        while j > 0 and verts[j - 1] > verts[j]:
            verts[j - 1], verts[j] = verts[j], verts[j - 1]
            sign = -sign
            j -= 1
    simplex = tuple(verts)
    for u, v in zip(simplex, simplex[1:]):
        if u == v:
            raise ValueError(f"repeated vertex in simplex {tuple(vertices)!r}")
    return simplex, sign


def facets_of(simplex: Simplex):
    """Codimension-1 faces in boundary order (vertex i omitted at position i)."""
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _face_closure(groups: Iterable[np.ndarray], items=()) -> dict[int, np.ndarray]:
    """Every face of the given simplices, as sorted distinct rows per dimension.

    Each group is an integer array with one simplex per row, in any vertex
    order.  Raises on a row with a repeated vertex, naming the first of
    ``items`` that has one, or else that row as given.
    """
    given: dict[int, list[np.ndarray]] = {}
    for group in groups:
        rows = np.sort(group, axis=1)
        bad = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        if bad.size:
            name = next((t for t in items if len(set(t)) < len(t)), tuple(group[bad[0]].tolist()))
            raise ValueError(f"repeated vertex in simplex {name!r}")
        if rows.size:
            given.setdefault(rows.shape[1], []).append(rows)
    if not given:
        raise ValueError("cannot build an empty complex")
    closure: dict[int, np.ndarray] = {}
    faces = np.empty((0, max(given)), dtype=np.int64)
    for n in range(max(given), 0, -1):
        rows = _unique_rows(np.concatenate([faces, *given.get(n, [])]))
        closure[n - 1] = rows
        faces = np.concatenate([np.delete(rows, i, axis=1) for i in range(n)])
    return dict(sorted(closure.items()))


class SimplicialComplex:
    """A finite simplicial complex, closed under taking faces.

    Args:
        simplices: iterable of vertex tuples (any order, any dimension); the
            face closure is generated automatically.
        coordinates: optional (num_vertices, 2) array of planar vertex
            positions, indexed by vertex id.  Required for everything
            geometric (Whitney forms, integration).
    """

    def __init__(self, simplices: Iterable[Sequence[int]], coordinates=None):
        items = list(map(tuple, simplices))
        lengths = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
        groups = [np.array([items[i] for i in np.flatnonzero(lengths == n).tolist()], dtype=np.int64)
                  for n in np.unique(lengths[lengths > 0]).tolist()]
        self._setup(_face_closure(groups, items), coordinates)

    @classmethod
    def from_rows(cls, groups: Iterable[np.ndarray], coordinates=None) -> "SimplicialComplex":
        """The complex closing integer arrays with one simplex per row."""
        return cls._from_closed(_face_closure(groups), coordinates)

    @classmethod
    def _from_closed(cls, rows: dict[int, np.ndarray], coordinates=None) -> "SimplicialComplex":
        """The complex of rows already closed under faces, sorted and distinct."""
        cx = cls.__new__(cls)
        cx._setup(rows, coordinates)
        return cx

    def _setup(self, rows: dict[int, np.ndarray], coordinates) -> None:
        self._rows = rows
        self.vertex_count = int(rows[0][-1, 0]) + 1
        self._coboundary: dict[int, sp.csr_matrix] = {}
        self._boundary_indices: dict[int, np.ndarray] = {}
        if coordinates is not None:
            coords = np.array(coordinates, dtype=float)
            if coords.ndim != 2 or coords.shape[1] != 2:
                raise ValueError("coordinates must be an (n, 2) array")
            if coords.shape[0] < self.vertex_count:
                raise ValueError(
                    f"coordinates cover {coords.shape[0]} vertices, "
                    f"complex references ids up to {self.vertex_count - 1}"
                )
            self._check_nondegenerate(coords)
            coords.setflags(write=False)
            self.coordinates = coords
        else:
            self.coordinates = None

    def _check_nondegenerate(self, coords):
        edges = self._rows.get(1, np.empty((0, 2), dtype=np.int64))
        same = (coords[edges[:, 0]] == coords[edges[:, 1]]).all(axis=1)
        if same.any():
            raise ValueError(f"zero-length edge {tuple(edges[same.argmax()].tolist())}")
        triangles = self._rows.get(2, np.empty((0, 3), dtype=np.int64))
        a, b, c = coords[triangles.T]
        e1, e2 = b - a, c - a
        flat = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] == 0.0
        if flat.any():
            raise ValueError(f"degenerate triangle {tuple(triangles[flat.argmax()].tolist())}")

    @cached_property
    def simplices_by_dim(self) -> dict[int, list[Simplex]]:
        """Canonical simplex tuples per dimension, in index order."""
        ids = self._rows[0][:, 0]
        # one int object per vertex id, shared by every tuple that names it
        pool = np.array(ids.tolist(), dtype=object)
        return {k: list(zip(*pool[np.searchsorted(ids, r)].T.tolist()))
                for k, r in self._rows.items()}

    @cached_property
    def _index(self) -> dict[int, dict[Simplex, int]]:
        return {k: {s: i for i, s in enumerate(v)} for k, v in self.simplices_by_dim.items()}

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._rows)

    def simplices(self, k: int) -> list[Simplex]:
        return self.simplices_by_dim.get(k, [])

    def num_simplices(self, k: int) -> int:
        return len(self._rows[k]) if k in self._rows else 0

    def index(self, simplex: Simplex) -> int:
        """Position of a canonical simplex in the dimension's ordering."""
        k = len(simplex) - 1
        try:
            return self._index[k][simplex]
        except KeyError:
            raise KeyError(f"simplex {simplex} not in complex") from None

    def __contains__(self, simplex) -> bool:
        t = tuple(simplex)
        return t in self._index.get(len(t) - 1, {})

    def positions(self, k: int, rows) -> np.ndarray:
        """Positions among the k-simplices of rows of vertex ids, -1 for a row
        that names none (absent, or not strictly increasing)."""
        known, ids, rows = self._rows[k], self._rows[0][:, 0], np.asarray(rows).reshape(-1, k + 1)
        if rows.dtype.kind not in "iu" or not len(rows):
            return np.full(len(rows), -1)
        # one key per row of vertex positions, ascending over the known rows
        keys = [np.ravel_multi_index(np.searchsorted(ids, r).T, (len(ids),) * (k + 1), mode="clip")
                for r in (known, rows)]
        at = np.minimum(np.searchsorted(*keys), len(known) - 1)
        return np.where((known[at] == rows).all(axis=1), at, -1)

    @cached_property
    def _cofacet_csc(self) -> dict[int, sp.csc_matrix]:
        """Each ``coboundary_matrix(k)`` as CSC: column i lists simplex i's cofacets, ascending."""
        return {k: self.coboundary_matrix(k).tocsc() for k in range(self.dim)}

    def cofacets(self, simplex: Simplex) -> list[Simplex]:
        """All codimension-1 cofaces of a simplex, ascending: its ``_cofacet_csc`` column."""
        k = len(simplex) - 1
        if not 0 <= k < self.dim or simplex not in self:
            return []
        m, i = self._cofacet_csc[k], self.index(simplex)
        return list(map(tuple, self._rows[k + 1][m.indices[m.indptr[i]:m.indptr[i + 1]]].tolist()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(r) for k, r in self._rows.items())

    def boundary_simplices(self, k: int) -> list[Simplex]:
        """Canonical k-simplices lying on the geometric boundary."""
        simplices = self.simplices(k)
        return [simplices[i] for i in self.boundary_indices(k).tolist()]

    def boundary_indices(self, k: int) -> np.ndarray:
        """Ascending positions of the k-simplices on the geometric boundary.

        A top-codimension-1 simplex is on the boundary when it has exactly one
        cofacet; lower dimensions take the faces of the boundary one above.
        """
        if k not in self._boundary_indices:
            n = self.dim
            if k >= n:
                rows = np.empty(0, dtype=np.intp)
            elif k == n - 1:
                cofacets = np.bincount(self.coboundary_matrix(k).indices,
                                       minlength=self.num_simplices(k))
                rows = np.flatnonzero(cofacets == 1)
            else:
                faces = self.coboundary_matrix(k)[self.boundary_indices(k + 1)].indices
                rows = np.unique(faces).astype(np.intp)
            rows.setflags(write=False)
            self._boundary_indices[k] = rows
        return self._boundary_indices[k]

    def coboundary_matrix(self, k: int) -> sp.csr_matrix:
        """Signed incidence matrix of shape (num (k+1)-simplices, num k-simplices)."""
        if k >= self.dim:
            raise ValueError(f"no coboundary above dimension {self.dim}")
        if k not in self._coboundary:
            faces, cofaces = self._rows[k], self._rows[k + 1]
            n, width = cofaces.shape
            # a coface's facets sort in the order of their omitted vertex,
            # last first, and facet j carries the sign (-1)^j
            omit = np.arange(width - 1, -1, -1)
            facets = np.stack([np.delete(cofaces, j, axis=1) for j in omit.tolist()], axis=1)
            # merged with the faces, each face sorts just before its equal facets
            order = np.lexsort(np.concatenate([faces, facets.reshape(-1, width - 1)]).T[::-1])
            is_facet = order >= len(faces)
            cols = np.empty(n * width, dtype=np.int64)
            cols[order[is_facet] - len(faces)] = np.cumsum(~is_facet)[is_facet] - 1
            mat = sp.csr_matrix((np.tile(1 - 2 * (omit % 2), n), cols,
                                 np.arange(0, n * width + 1, width)), shape=(n, len(faces)))
            self._coboundary[k] = mat
        return self._coboundary[k]

    def __repr__(self):
        counts = ", ".join(f"{len(r)} of dim {k}" for k, r in self._rows.items())
        return f"SimplicialComplex({counts})"


class Chain:
    """Sparse signed combination of canonical k-simplices of one complex."""

    __slots__ = ("complex", "dim", "terms")

    def __init__(self, complex: SimplicialComplex, dim: int, terms=None, check: bool = True):
        self.complex = complex
        self.dim = dim
        clean: dict[Simplex, float] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            index = complex._index.get(dim, {})
            for s, c in items:
                if c == 0:
                    continue
                if check and s not in index:
                    raise ValueError(f"simplex {s} not in complex (dim {dim})")
                clean[s] = clean.get(s, 0) + c
        self.terms = {s: c for s, c in clean.items() if c != 0}

    @classmethod
    def single(cls, complex: SimplicialComplex, vertices: Sequence[int]) -> "Chain":
        t, sign = canonical_simplex(vertices)
        return cls(complex, len(t) - 1, {t: sign})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Chain") -> "Chain":
        if other.dim != self.dim:
            raise ValueError("chain dimensions differ")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return Chain(self.complex, self.dim, out, check=False)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return Chain(self.complex, self.dim, {s: -c for s, c in self.terms.items()}, check=False)

    def __rmul__(self, scalar) -> "Chain":
        return Chain(
            self.complex, self.dim, {s: scalar * c for s, c in self.terms.items()}, check=False
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __iter__(self):
        return iter(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return f"Chain(dim={self.dim}, 0)"
        body = " + ".join(f"{c}*{s}" for s, c in sorted(self.terms.items()))
        return f"Chain(dim={self.dim}, {body})"


def boundary(chain: Chain) -> Chain:
    """Alternating sum of codimension-1 faces, extended linearly."""
    if chain.dim <= 0:
        return Chain(chain.complex, chain.dim - 1, {})
    out: dict[Simplex, float] = {}
    for s, c in chain.terms.items():
        for i in range(len(s)):
            f = s[:i] + s[i + 1:]
            out[f] = out.get(f, 0) + (c if i % 2 == 0 else -c)
    return Chain(chain.complex, chain.dim - 1, out, check=False)


class Cochain:
    """Dense k-cochain: one value per canonical k-simplex, in index order."""

    __slots__ = ("complex", "dim", "values")

    def __init__(self, complex: SimplicialComplex, dim: int, values):
        arr = np.asarray(values)
        want = (complex.num_simplices(dim),)
        if arr.shape != want:
            raise ValueError(f"expected values of shape {want}, got {arr.shape}")
        self.complex = complex
        self.dim = dim
        self.values = arr

    def evaluate(self, vertices: Sequence[int]):
        """Value on an arbitrarily ordered simplex, with orientation sign."""
        t, sign = canonical_simplex(vertices)
        return sign * self.values[self.complex.index(t)]

    def __add__(self, other: "Cochain") -> "Cochain":
        if other.dim != self.dim:
            raise ValueError("cochain dimensions differ")
        return Cochain(self.complex, self.dim, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        if other.dim != self.dim:
            raise ValueError("cochain dimensions differ")
        return Cochain(self.complex, self.dim, self.values - other.values)

    def __rmul__(self, scalar) -> "Cochain":
        return Cochain(self.complex, self.dim, scalar * self.values)

    def __repr__(self):
        return f"Cochain(dim={self.dim}, values={self.values!r})"


def _cochain_of(complex: SimplicialComplex, dim: int, values: np.ndarray) -> Cochain:
    """A Cochain of values whose shape its caller has just produced, unchecked."""
    cochain = object.__new__(Cochain)
    cochain.complex, cochain.dim, cochain.values = complex, dim, values
    return cochain


def coboundary(cochain: Cochain) -> Cochain:
    """Adjoint of the boundary under the duality pairing."""
    k = cochain.dim
    if k >= cochain.complex.dim:
        raise ValueError(f"no coboundary of a top-dimensional ({k}-)cochain")
    mat = cochain.complex.coboundary_matrix(k)
    return Cochain(cochain.complex, k + 1, mat @ cochain.values)


def pairing(cochain: Cochain, chain: Chain):
    """Bilinear evaluation of a k-cochain against a k-chain."""
    if cochain.dim != chain.dim:
        raise ValueError("pairing needs matching dimensions")
    if cochain.complex is not chain.complex:
        raise ValueError("pairing needs a common complex")
    index = cochain.complex._index.get(chain.dim, {})
    total = 0
    for s, c in chain.terms.items():
        total = total + c * cochain.values[index[s]]
    return total


# -- simplicial maps -----------------------------------------------------


@dataclass
class MapValidation:
    ok: bool
    violations: list[Simplex]


def _vertex_function(vertex_map) -> Callable[[int], int]:
    """A vertex map given as a mapping or as a function, as a function."""
    if isinstance(vertex_map, Mapping):
        return vertex_map.__getitem__
    return vertex_map


def validate_simplicial_map(vertex_map, source: SimplicialComplex,
                            target: SimplicialComplex) -> MapValidation:
    """Check that every source simplex lands on a target simplex.

    The image vertex set is deduplicated and sorted; a simplex is violating
    when that set is not a simplex of the target.
    """
    f = _vertex_function(vertex_map)
    bad: list[Simplex] = []
    for k in source.simplices_by_dim:
        idx = target._index
        for s in source.simplices(k):
            image = tuple(sorted({f(v) for v in s}))
            if image not in idx.get(len(image) - 1, {}):
                bad.append(s)
    return MapValidation(not bad, bad)


class SimplicialMap:
    """Vertex map between complexes that sends simplices to simplices."""

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 vertex_map, check: bool = True):
        f = _vertex_function(vertex_map)
        self.source = source
        self.target = target
        self.vertex_map = {v: f(v) for (v,) in source.simplices(0)}
        if check:
            report = validate_simplicial_map(self.vertex_map, source, target)
            if not report.ok:
                head = report.violations[:5]
                raise ValueError(
                    f"not a simplicial map: {len(report.violations)} simplices "
                    f"have no image simplex, e.g. {head}"
                )

    def __call__(self, v: int) -> int:
        return self.vertex_map[v]


def induced_chain_map(f: SimplicialMap, chain: Chain) -> Chain:
    """Push a chain forward: degenerate images (repeated vertices) drop out."""
    out: dict[Simplex, float] = {}
    vm = f.vertex_map
    for s, c in chain.terms.items():
        image = [vm[v] for v in s]
        if len(set(image)) != len(image):
            continue
        t, sign = canonical_simplex(image)
        out[t] = out.get(t, 0) + sign * c
    return Chain(f.target, chain.dim, out, check=False)
