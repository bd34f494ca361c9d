"""Oriented simplicial complexes with chain and cochain algebra.

Simplices are stored canonically as strictly increasing tuples of integer
vertex ids.  Any other vertex ordering is converted on the fly and picks up
the parity sign of the sorting permutation.  Chains are sparse signed
combinations of canonical simplices; cochains are dense value arrays indexed
by the complex's deterministic (lexicographic) simplex ordering.

Coefficient arithmetic is whatever the inputs carry: integer chains stay
integer, so the structural identities (double boundary, double coboundary,
prism-style cancellations) can be checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _face_closure(items: list[tuple]) -> dict[int, np.ndarray]:
    """Every face of the given simplices, as sorted distinct rows per dimension.

    Each row lists a simplex's vertex ids in increasing order, and the rows
    of one dimension are in lexicographic order.  Raises on a simplex with a
    repeated vertex, naming the first such input.
    """
    lengths = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
    if not lengths.any():
        raise ValueError("cannot build an empty complex")
    given: dict[int, np.ndarray] = {}
    for n in np.unique(lengths[lengths > 0]).tolist():
        at = np.flatnonzero(lengths == n)
        group = np.sort(np.array([items[i] for i in at.tolist()], dtype=np.int64), axis=1)
        if (group[:, 1:] == group[:, :-1]).any():
            bad = next(t for t in items if len(set(t)) < len(t))
            raise ValueError(f"repeated vertex in simplex {bad!r}")
        given[n] = group
    closure: dict[int, np.ndarray] = {}
    faces = np.empty((0, max(given)), dtype=np.int64)
    for n in range(max(given), 0, -1):
        rows = _unique_rows(np.concatenate([faces, given[n]]) if n in given else faces)
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
        rows = _face_closure(list(map(tuple, simplices)))
        # one int object per vertex id, shared by every tuple that names it
        ids = rows[0][:, 0]
        pool = np.array(ids.tolist(), dtype=object)
        self.simplices_by_dim = {
            k: list(zip(*pool[np.searchsorted(ids, r)].T.tolist())) for k, r in rows.items()
        }
        self._index = {
            k: {s: i for i, s in enumerate(v)} for k, v in self.simplices_by_dim.items()
        }
        self._cofacets: dict[Simplex, list[Simplex]] | None = None
        self._coboundary: dict[int, sp.csr_matrix] = {}
        self._boundary_simplices: dict[int, list[Simplex]] = {}
        self._boundary_indices: dict[int, np.ndarray] = {}

        self.vertex_count = self.simplices_by_dim[0][-1][0] + 1
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
        for u, v in self.simplices(1):
            if np.all(coords[u] == coords[v]):
                raise ValueError(f"zero-length edge {(u, v)}")
        for a, b, c in self.simplices(2):
            e1 = coords[b] - coords[a]
            e2 = coords[c] - coords[a]
            if e1[0] * e2[1] - e1[1] * e2[0] == 0.0:
                raise ValueError(f"degenerate triangle {(a, b, c)}")

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self.simplices_by_dim)

    def simplices(self, k: int) -> list[Simplex]:
        return self.simplices_by_dim.get(k, [])

    def num_simplices(self, k: int) -> int:
        return len(self.simplices(k))

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

    def cofacets(self, simplex: Simplex) -> list[Simplex]:
        """All codimension-1 cofaces of a simplex."""
        if self._cofacets is None:
            table: dict[Simplex, list[Simplex]] = {}
            for k in self.simplices_by_dim:
                if k == 0:
                    continue
                for s in self.simplices(k):
                    for f in facets_of(s):
                        table.setdefault(f, []).append(s)
            self._cofacets = table
        return self._cofacets.get(simplex, [])

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(v) for k, v in self.simplices_by_dim.items())

    def boundary_simplices(self, k: int) -> list[Simplex]:
        """Canonical k-simplices lying on the geometric boundary.

        A top-codimension-1 simplex is on the boundary when it has exactly one
        cofacet; lower dimensions inherit by downward closure.
        """
        n = self.dim
        if k >= n:
            return []
        if k not in self._boundary_simplices:
            rim = [s for s in self.simplices(n - 1) if len(self.cofacets(s)) == 1]
            self._boundary_simplices[n - 1] = rim
            level = set(rim)
            for d in range(n - 2, -1, -1):
                level = {f for s in level for f in facets_of(s)}
                self._boundary_simplices[d] = sorted(level)
        return self._boundary_simplices[k]

    def boundary_indices(self, k: int) -> np.ndarray:
        """Positions of ``boundary_simplices(k)`` in the degree-k ordering."""
        if k not in self._boundary_indices:
            index = self._index.get(k, {})
            rows = np.array([index[s] for s in self.boundary_simplices(k)], dtype=np.intp)
            rows.setflags(write=False)
            self._boundary_indices[k] = rows
        return self._boundary_indices[k]

    def coboundary_matrix(self, k: int) -> sp.csr_matrix:
        """Signed incidence matrix of shape (num (k+1)-simplices, num k-simplices)."""
        if k >= self.dim:
            raise ValueError(f"no coboundary above dimension {self.dim}")
        if k not in self._coboundary:
            rows, cols, vals = [], [], []
            idx_k = self._index[k]
            for i, s in enumerate(self.simplices(k + 1)):
                for j, f in enumerate(facets_of(s)):
                    rows.append(i)
                    cols.append(idx_k[f])
                    vals.append(1 if j % 2 == 0 else -1)
            mat = sp.csr_matrix(
                (np.array(vals, dtype=np.int64), (rows, cols)),
                shape=(self.num_simplices(k + 1), self.num_simplices(k)),
            )
            self._coboundary[k] = mat
        return self._coboundary[k]

    def __repr__(self):
        counts = ", ".join(f"{len(v)} of dim {k}" for k, v in self.simplices_by_dim.items())
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
    def single(cls, complex: SimplicialComplex, vertices: Sequence[int], coeff=1) -> "Chain":
        t, sign = canonical_simplex(vertices)
        return cls(complex, len(t) - 1, {t: sign * coeff})

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

    @classmethod
    def zeros(cls, complex: SimplicialComplex, dim: int, dtype=float) -> "Cochain":
        return cls(complex, dim, np.zeros(complex.num_simplices(dim), dtype=dtype))

    def evaluate(self, vertices: Sequence[int]):
        """Value on an arbitrarily ordered simplex, with orientation sign."""
        t, sign = canonical_simplex(vertices)
        return sign * self.values[self.complex.index(t)]

    def copy(self) -> "Cochain":
        return Cochain(self.complex, self.dim, self.values.copy())

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
    if callable(vertex_map):
        return vertex_map
    if isinstance(vertex_map, Mapping):
        return vertex_map.__getitem__
    arr = vertex_map
    return lambda v: arr[v]


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

    def compose(self, inner: "SimplicialMap") -> "SimplicialMap":
        """self after inner (inner's target must be self's source)."""
        if inner.target is not self.source:
            raise ValueError("composition needs matching complexes")
        vm = {v: self.vertex_map[w] for v, w in inner.vertex_map.items()}
        return SimplicialMap(inner.source, self.target, vm, check=False)

    @classmethod
    def identity(cls, complex: SimplicialComplex) -> "SimplicialMap":
        return cls(complex, complex, {v: v for (v,) in complex.simplices(0)}, check=False)

    @classmethod
    def constant(cls, source: SimplicialComplex, vertex: int,
                 target: SimplicialComplex | None = None) -> "SimplicialMap":
        tgt = source if target is None else target
        if (vertex,) not in tgt:
            raise ValueError(f"vertex {vertex} not in target complex")
        return cls(source, tgt, {v: vertex for (v,) in source.simplices(0)}, check=False)


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
