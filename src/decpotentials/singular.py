"""Linear singular simplices, infinite cones, and exact planar integration.

A linear singular k-simplex is the affine map from the reference simplex
determined by an ordered (k+1)-tuple of planar points; an infinite cone is
the analogous affine map from the nonnegative orthant, with the apex listed
first.  Chains are signed formal combinations of either kind.

Integration of Whitney interpolants over these objects is organized around
*functionals*: sparse rows mapping mesh simplex indices to weights, so that
the integral of ``W(alpha)`` is the dot product of the row with the cochain
values.  ``functional_matrix`` assembles many rows at once, one matrix per
degree; ``segment_functional``, ``triangle_functional``,
``chain_functional``, ``cone_functional`` and ``cone_chain_functional`` are
the same computation on a batch of one term set, returning the row as a
dict.

Piecewise structure is resolved exactly, in chunked numpy passes over the
candidate (subject, mesh triangle) pairs that the geometry's bucket grid
and a separating-axis test leave: 1-dimensional images are split at every
crossing with a mesh edge and integrated per piece by Gauss quadrature (the
integrand is affine per piece, so this is exact); 2-dimensional images are
clipped against each mesh triangle by a batched Sutherland-Hodgman and
weighted by the signed overlap area.  A chunk holds about CHUNK_PAIRS grid
candidates, which bounds the memory of every pass.  Pieces outside the mesh
integrate to zero for segments and are an error for triangles unless
explicitly allowed (an infinite cone is its star simplex, which may overhang
the mesh, plus its shadow cut off exactly by the mesh bounding box).  The
coverage test compares the uncovered area with COVERAGE_TOL times the mesh
area, not with the image's own area, so a thin image near an edge is not
rejected for the round-off of its clipped pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .simplicial import Cochain
from .whitney import GAUSS3_NODES, GAUSS3_WEIGHTS, MeshGeometry

DEGENERACY_TOL = 1e-12
PARAM_TOL = 1e-12
# uncovered image area allowed in strict clipping, as a share of the mesh area
COVERAGE_TOL = 1e-10
# grid candidate pairs per numpy pass of the batched kernels
CHUNK_PAIRS = 1 << 12


class OutsideDomainError(ValueError):
    """A 2-dimensional image extends beyond the mesh and clipping is strict."""


Point = tuple[float, float]


def _point_tuple(p) -> Point:
    return (float(p[0]), float(p[1]))


@dataclass(frozen=True)
class LinearSimplex:
    """Affine image of the reference k-simplex, given by its vertex points."""

    points: tuple[Point, ...]

    @classmethod
    def from_points(cls, pts) -> "LinearSimplex":
        return cls(tuple(_point_tuple(p) for p in pts))

    @property
    def dim(self) -> int:
        return len(self.points) - 1

    def array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)


@dataclass(frozen=True)
class InfiniteCone:
    """Affine image of the nonnegative orthant; the apex is the first point."""

    points: tuple[Point, ...]

    @classmethod
    def from_points(cls, pts) -> "InfiniteCone":
        return cls(tuple(_point_tuple(p) for p in pts))

    @property
    def dim(self) -> int:
        return len(self.points) - 1

    @property
    def apex(self) -> Point:
        return self.points[0]


class _FormalChain:
    """Shared arithmetic for signed combinations of hashable simplex objects."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms: list = list(terms) if terms else []

    def _new(self, dim, terms):
        return type(self)(dim, terms)

    def __add__(self, other):
        if other.dim != self.dim:
            raise ValueError("chain dimensions differ")
        return self._new(self.dim, self.terms + other.terms)

    def __neg__(self):
        return self._new(self.dim, [(-c, s) for c, s in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        return self._new(self.dim, [(scalar * c, s) for c, s in self.terms])

    def __iter__(self):
        return iter(self.terms)

    def simplify(self):
        """Combine exactly equal simplices; drop zero coefficients."""
        acc: dict = {}
        for c, s in self.terms:
            acc[s] = acc.get(s, 0) + c
        return self._new(self.dim, [(c, s) for s, c in acc.items() if c != 0])

    def is_zero(self) -> bool:
        return not self.simplify().terms

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, {len(self.terms)} terms)"


class SingularChain(_FormalChain):
    """Signed combination of linear singular simplices of one dimension."""


class ConeChain(_FormalChain):
    """Signed combination of infinite cones of one dimension."""


def lift_simplex(complex, simplex) -> LinearSimplex:
    """The canonical linear singular simplex of a mesh simplex."""
    coords = complex.coordinates
    return LinearSimplex.from_points([coords[v] for v in simplex])


def lift_chain(chain) -> SingularChain:
    """Apply the canonical lift linearly to a simplicial chain."""
    cx = chain.complex
    return SingularChain(chain.dim, [(c, lift_simplex(cx, s)) for s, c in chain.terms.items()])


def singular_boundary(chain: SingularChain) -> SingularChain:
    """Alternating sum of vertex-omitted faces, extended linearly."""
    if chain.dim <= 0:
        return SingularChain(chain.dim - 1, [])
    out = []
    for c, s in chain.terms:
        pts = s.points
        for i in range(len(pts)):
            face = LinearSimplex(pts[:i] + pts[i + 1:])
            out.append((c if i % 2 == 0 else -c, face))
    return SingularChain(chain.dim - 1, out)


def cone_boundary(chain: ConeChain) -> ConeChain:
    """Boundary of infinite cones: the apex is never omitted.

    The sum starts at the first non-apex slot, so a 1-dimensional cone has
    boundary ``-[apex]`` and a 0-dimensional cone (a point) has boundary zero.
    """
    if chain.dim <= 0:
        return ConeChain(chain.dim - 1, [])
    out = []
    for c, s in chain.terms:
        pts = s.points
        for i in range(1, len(pts)):
            face = InfiniteCone(pts[:i] + pts[i + 1:])
            out.append((-c if i % 2 == 1 else c, face))
    return ConeChain(chain.dim - 1, out)


def _degenerate(pts: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """``is_degenerate`` over a batch of point sets, shape (S, k + 1, 2)."""
    k = pts.shape[1] - 1
    if k <= 0 or k >= 3:
        return np.full(len(pts), k >= 3)
    diffs = pts[:, None, :, :] - pts[:, :, None, :]
    scale = np.sqrt((diffs ** 2).sum(axis=3).max(axis=(1, 2)))
    if k == 1:
        return scale == 0.0
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    return (scale == 0.0) | (np.abs(det) <= tol * scale * scale)


def is_degenerate(points, tol: float = DEGENERACY_TOL) -> bool:
    """Rank test: do the points span an affine k-flat in the plane?

    The threshold is relative to the squared diameter of the point set, so
    the verdict is invariant under rigid motions and uniform scaling.
    """
    pts = np.asarray(points, dtype=float)
    return bool(_degenerate(pts.reshape(1, len(pts), 2), tol)[0])


# -- polygon clipping ----------------------------------------------------


def _clip(xy: np.ndarray, n: np.ndarray, sides: np.ndarray):
    """Sutherland-Hodgman over a batch of polygons, each against half-planes.

    Polygon i is the first ``n[i]`` points of ``xy[i]``; it is clipped in
    turn against the half-planes ``sides[i, j] = (start, end)``, each the
    points on or left of the line from start to end.  Returns the clipped
    polygons in the same padded layout.  Every row does the arithmetic of a
    scalar clip in the same order, so a batch of one is that clip.
    """
    rows = np.arange(len(xy))
    for j in range(sides.shape[1]):
        if xy.shape[1] == 0:
            break
        cp1, cp2 = sides[:, j, 0], sides[:, j, 1]
        ex = (cp2[:, 0] - cp1[:, 0])[:, None]
        ey = (cp2[:, 1] - cp1[:, 1])[:, None]
        dist = ex * (xy[..., 1] - cp1[:, None, 1]) - ey * (xy[..., 0] - cp1[:, None, 0])
        last = np.maximum(n - 1, 0)
        # distance of each point's predecessor (the last point for the first)
        d_s = np.concatenate([dist[rows, last][:, None], dist[:, :-1]], axis=1)
        valid = np.arange(xy.shape[1]) < n[:, None]
        inside = dist >= 0.0
        cross = valid & (inside != (d_s >= 0.0))
        keep = valid & inside
        # each input point emits its crossing, then itself
        end = np.cumsum(cross.astype(np.int64) + keep, axis=1)
        n = end[:, -1]
        out = np.zeros((len(xy), int(n.max(initial=0)), 2))
        r, c = np.nonzero(keep)
        out[r, end[r, c] - 1] = xy[r, c]
        r, c = np.nonzero(cross)
        prev = np.where(c == 0, last[r], c - 1)
        s, e = xy[r, prev], xy[r, c]
        t = (d_s[r, c] / (d_s[r, c] - dist[r, c]))[:, None]
        out[r, end[r, c] - 1 - keep[r, c]] = s + t * (e - s)
        xy = out
    return xy, n


def _sides(poly: np.ndarray) -> np.ndarray:
    """Half-planes of convex CCW polygons, one per edge, the closing edge first."""
    return np.stack([np.roll(poly, 1, axis=1), poly], axis=2)


def _areas(xy: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Signed shoelace areas of padded polygons, summed point by point."""
    acc = np.zeros(len(xy))
    if xy.shape[1] == 0:
        return acc
    rows = np.arange(len(xy))
    x0, y0 = xy[rows, n - 1, 0], xy[rows, n - 1, 1]
    for j in range(xy.shape[1]):
        x1, y1 = xy[:, j, 0], xy[:, j, 1]
        acc += np.where(j < n, x0 * y1 - x1 * y0, 0.0)
        x0, y0 = x1, y1
    return np.where(n >= 3, 0.5 * acc, 0.0)


def _polygon(points) -> tuple[np.ndarray, np.ndarray]:
    xy = np.asarray(points, dtype=float).reshape(1, -1, 2)
    return xy, np.array([xy.shape[1]])


def clip_polygon(subject, clipper):
    """Sutherland-Hodgman clip of a polygon against a convex CCW clipper.

    Points on a clip edge count as inside; the output may contain repeated
    points, which downstream area formulas tolerate.  Each vertex's signed
    distance to a clip edge is computed once and used both for the inside
    test and for the crossing, so an edge whose ends test differently always
    has a crossing parameter in [0, 1].
    """
    xy, n = _clip(*_polygon(subject), _sides(np.asarray(clipper, dtype=float)[None]))
    return [_point_tuple(p) for p in xy[0, :n[0]]]


def polygon_area(poly) -> float:
    """Signed shoelace area."""
    return float(_areas(*_polygon(poly))[0])


# -- batched Whitney functionals ------------------------------------------


def _edge_axes(poly: np.ndarray):
    """(normal, lo, hi) per edge of convex polygons: the edge normal and each
    polygon's extent along it.  A segment has one edge."""
    m = poly.shape[1]
    axes = []
    for i in range(1 if m == 2 else m):
        e = poly[:, (i + 1) % m] - poly[:, i]
        proj = poly[..., 1] * e[:, None, 0] - poly[..., 0] * e[:, None, 1]
        axes.append((e, proj.min(axis=1), proj.max(axis=1)))
    return axes


def _apart(axes, own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Per pair: does an edge normal of polygon ``own`` separate ``other`` from it?

    Separation is strict: along the normal, one projection ends before the
    other begins.
    """
    out = np.zeros(len(own), dtype=bool)
    for e, lo, hi in axes:
        ex, ey = e[own, 0], e[own, 1]
        proj = [p[:, 1] * ex - p[:, 0] * ey for p in other.transpose(1, 0, 2)]
        out |= (reduce(np.maximum, proj) < lo[own]) | (reduce(np.minimum, proj) > hi[own])
    return out


def _pairs(geom: MeshGeometry, pts: np.ndarray, rows: np.ndarray):
    """(first, stop, subject, triangle) per chunk of consecutive subjects.

    Candidates come from the geometry's bucket grid and must pass the
    separating-axis test (subject edges first, as they reject most pairs of
    a thin subject, then triangle edges).  A chunk holds whole rows (``rows``
    is sorted) and about CHUNK_PAIRS grid candidates (a row with more is a
    chunk of its own), which bounds the memory of every later pass.
    """
    lo = pts.min(axis=1)
    hi = pts.max(axis=1)
    ends = np.cumsum(geom.candidate_counts(lo, hi))
    row_end = np.searchsorted(rows, rows, side="right")
    triangle_axes = _edge_axes(geom.ccw_corners)
    first = 0
    while first < len(pts):
        done = ends[first - 1] if first else 0
        stop = max(first + 1, int(np.searchsorted(ends, done + CHUNK_PAIRS, side="right")))
        stop = int(row_end[stop - 1])
        sub, tri = geom.candidates(lo[first:stop], hi[first:stop])
        chunk = pts[first:stop]
        meet = ~_apart(_edge_axes(chunk), sub, geom.ccw_corners[tri])
        sub, tri = sub[meet], tri[meet]
        meet = ~_apart(triangle_axes, tri, chunk[sub])
        yield first, stop, sub[meet] + first, tri[meet]
        first = stop


def _accumulate(major, minor, vals, n_minor: int):
    """Sum values per (major, minor) key, in input order; keys come sorted."""
    keys, slot = np.unique(major.astype(np.int64) * n_minor + minor, return_inverse=True)
    sums = np.zeros(len(keys))
    np.add.at(sums, slot, vals)
    return keys // n_minor, keys % n_minor, sums


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (N, 2) arrays, rounded as ``u[i] @ v[i]``."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _segment_entries(geom: MeshGeometry, pts: np.ndarray, rows: np.ndarray):
    """(subject, edge, weight) per chunk, for segments pts[:, 0] -> pts[:, 1].

    Each segment is split at its crossings with the edges of the triangles it
    meets; every piece takes its triangle from the grid (pieces outside the
    mesh contribute zero) and is integrated by the 3-point Gauss rule, which
    is exact because the integrand is affine per piece.
    """
    n_edges = len(geom.edge_coords)
    a = pts[:, 0]
    r = pts[:, 1] - a
    for first, stop, sub, tri in _pairs(geom, pts, rows):
        # crossing parameters; spurious extra ones are harmless (splitting
        # never changes the integral), nearly parallel edges need no split
        sub = np.repeat(sub, 3)
        ec = geom.edge_coords[geom.triangle_edges[tri].ravel()]
        p = ec[:, 0]
        s = ec[:, 1] - ec[:, 0]
        rs = r[sub]
        denom = rs[:, 0] * s[:, 1] - rs[:, 1] * s[:, 0]
        ok = np.abs(denom) > 1e-12 * np.sqrt(_dot(rs, rs)) * np.sqrt((s * s).sum(axis=1))
        qp = p - a[sub]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / denom
            u = (qp[:, 0] * rs[:, 1] - qp[:, 1] * rs[:, 0]) / denom
        cut = ok & (u >= -1e-9) & (u <= 1.0 + 1e-9) & (t > PARAM_TOL) & (t < 1.0 - PARAM_TOL)
        # every segment's parameters, sorted: 0, its crossings, 1; a crossing
        # within PARAM_TOL of the previous parameter or of 1 is dropped
        own = np.arange(first, stop)
        seg = np.concatenate([own, sub[cut], own])
        t = np.concatenate([np.zeros(len(own)), t[cut], np.ones(len(own))])
        order = np.lexsort((t, seg))
        seg, t = seg[order], t[order]
        gap = np.diff(t, prepend=-np.inf)
        new = np.diff(seg, prepend=-1) != 0
        keep = new | (t == 1.0) | ((gap > PARAM_TOL) & (1.0 - t > PARAM_TOL))
        seg, t = seg[keep], t[keep]
        piece = seg[1:] == seg[:-1]
        seg, t0, t1 = seg[:-1][piece], t[:-1][piece], t[1:][piece]
        d = r[seg]
        where = geom.locate_all(a[seg] + (0.5 * (t0 + t1))[:, None] * d)
        inside = where >= 0
        seg, t0, t1, d, where = seg[inside], t0[inside], t1[inside], d[inside], where[inside]
        h = t1 - t0
        G = geom.gradients[where]
        vals = np.empty((len(seg), len(GAUSS3_NODES), 3))
        for q, (node, w) in enumerate(zip(GAUSS3_NODES, GAUSS3_WEIGHTS)):
            lam = geom.barycentric(where, a[seg] + (t0 + node * h)[:, None] * d)
            for local, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
                form = lam[:, i, None] * G[:, j] - lam[:, j, None] * G[:, i]
                vals[:, q, local] = w * h * _dot(form, d)
        owner = np.broadcast_to(seg[:, None, None], vals.shape)
        edges = np.broadcast_to(geom.triangle_edges[where][:, None, :], vals.shape)
        yield _accumulate(owner.ravel(), edges.ravel(), vals.ravel(), n_edges)


def _triangle_entries(geom: MeshGeometry, pts: np.ndarray, rows: np.ndarray,
                      allow_exterior: bool, describe):
    """(subject, triangle, weight) per chunk, for image triangles.

    Each image is clipped against every mesh triangle it meets and weighted
    by the overlap area over the triangle's signed area, with the image's
    orientation sign.  Unless ``allow_exterior``, the image must be covered
    by the mesh: the area it leaves uncovered may not exceed COVERAGE_TOL
    times the mesh area.
    """
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    sign = np.where(area > 0, 1.0, -1.0)
    sides = _sides(geom.ccw_corners)
    for first, stop, sub, tri in _pairs(geom, pts, rows):
        xy, n = _clip(pts[sub], np.full(len(sub), 3), sides[tri])
        overlap = np.abs(_areas(xy, n))
        hit = overlap != 0.0
        sub, tri, overlap = sub[hit], tri[hit], overlap[hit]
        if not allow_exterior:
            covered = np.bincount(sub - first, overlap, minlength=stop - first)
            uncovered = np.abs(area[first:stop]) - covered
            tol = COVERAGE_TOL * geom.total_area
            bad = np.nonzero(uncovered > tol)[0]
            if bad.size:
                j = first + int(bad[0])
                what = "image triangle" if describe is None else \
                    f"{describe(j)}: image triangle"
                raise OutsideDomainError(
                    f"{what} {tuple(map(_point_tuple, pts[j]))} leaves the mesh: "
                    f"area {uncovered[bad[0]]:.3e} of its {abs(area[j]):.3e} is not "
                    f"covered (tolerance {tol:.1e}, {COVERAGE_TOL:g} of the mesh area)"
                )
        yield sub, tri, sign[sub] * overlap / geom.signed_area[tri]


def functional_matrix(geom: MeshGeometry, dim: int, rows, coeffs, points, n_rows: int, *,
                      allow_exterior: bool = False, describe=None):
    """Sparse matrix of many functional rows, assembled in batched passes.

    Term i adds ``coeffs[i]`` times the functional of the linear singular
    simplex ``points[i]`` (dimension ``dim``, 1 or 2) to row ``rows[i]``.
    Within a row, weights add up in term order, so a row equals the dict
    that the per-term functionals would accumulate.  Degenerate simplices
    integrate to zero.  ``describe(row)`` names a row in errors.  Returns a
    CSR matrix of shape (n_rows, number of mesh ``dim``-simplices) without
    explicit zeros.
    """
    if dim not in (1, 2):
        raise ValueError(f"cannot integrate Whitney forms over dimension {dim}")
    rows = np.asarray(rows, dtype=np.int64)
    pts = np.asarray(points, dtype=float).reshape(len(rows), dim + 1, 2)
    # terms grouped by row, in term order within a row
    keep = np.argsort(rows, kind="stable")
    keep = keep[~_degenerate(pts[keep])]
    rows, coeffs, pts = rows[keep], np.asarray(coeffs, dtype=float)[keep], pts[keep]
    n_cols = geom.complex.num_simplices(dim)
    if dim == 1:
        chunks = _segment_entries(geom, pts, rows)
    else:
        name = None if describe is None else (lambda j: describe(int(rows[j])))
        chunks = _triangle_entries(geom, pts, rows, allow_exterior, name)
    # a chunk holds whole rows, so each chunk's sums are final and the
    # chunks come in row order
    parts = [_accumulate(rows[sub], col, coeffs[sub] * w, n_cols) for sub, col, w in chunks]
    row, col, val = (np.concatenate(x) for x in zip(*parts)) if parts else \
        (np.zeros(0, dtype=np.int64),) * 3
    nz = val != 0.0
    row, col, val = row[nz], col[nz], val[nz]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_rows))])
    return sp.csr_matrix((val, col, indptr), shape=(n_rows, n_cols))


def _row(geom: MeshGeometry, dim: int, coeffs, points, allow_exterior: bool) -> dict[int, float]:
    """One functional row as a dict: a batch of one term set."""
    m = functional_matrix(geom, dim, np.zeros(len(coeffs)), coeffs, points, 1,
                          allow_exterior=allow_exterior)
    return {int(i): float(w) for i, w in zip(m.indices, m.data)}


def segment_functional(geom: MeshGeometry, a, b) -> dict[int, float]:
    """Row of edge-index weights for alpha -> integral of W(alpha) over a->b.

    Pieces outside the mesh contribute zero (the interpolant is extended by
    zero off the mesh).
    """
    return _row(geom, 1, [1.0], [a, b], False)


def triangle_functional(geom: MeshGeometry, pts, *,
                        allow_exterior: bool = False) -> dict[int, float]:
    """Row of triangle-index weights for alpha -> integral of W(alpha).

    ``pts`` are the three (ordered) corner points of the image triangle; its
    orientation sign multiplies every overlap.  With strict clipping, image
    area falling outside the mesh (beyond COVERAGE_TOL of the mesh area)
    raises OutsideDomainError.
    """
    return _row(geom, 2, [1.0], pts, allow_exterior)


def chain_functional(geom: MeshGeometry, chain: SingularChain, *,
                     allow_exterior: bool = False) -> dict[int, float]:
    """Functional row for a singular chain of dimension 1 or 2."""
    if not chain.terms:
        return {}
    return _row(geom, chain.dim, [c for c, _ in chain.terms],
                [s.points for _, s in chain.terms], allow_exterior)


def integrate_whitney(geom: MeshGeometry, alpha: Cochain, chain: SingularChain, *,
                      allow_exterior: bool = False) -> float:
    """Integral of the Whitney interpolant of alpha over a singular chain."""
    if alpha.dim != chain.dim:
        raise ValueError("cochain degree must match chain dimension")
    row = chain_functional(geom, chain, allow_exterior=allow_exterior)
    return float(sum(alpha.values[i] * w for i, w in row.items()))


# -- infinite cones ------------------------------------------------------


def point_segment_distance(p, a, b) -> np.ndarray:
    """Distances from points ``p`` to segments ``a b``, row by row.

    Arguments are (N, 2) arrays or single points, broadcast against each
    other; a zero-length segment is its point.
    """
    p, a, b = np.broadcast_arrays(*(np.atleast_2d(np.asarray(x, dtype=float))
                                    for x in (p, a, b)))
    d = b - a
    denom = _dot(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(_dot(p - a, d) / denom, 0.0, 1.0)
    v = p - (a + np.where(denom == 0.0, 0.0, t)[:, None] * d)
    return np.sqrt(_dot(v, v))


def shadow_pieces(geom: MeshGeometry, points):
    """(cone index, points) of the pieces of the shadows {p + t (x - p) : t >= 1}
    of infinite cones, apex p first in ``points``, shape (S, k + 1, 2), k = 1, 2.

    Vertex v: the segment from v to where the ray p -> v leaves the mesh
    bounding box (a slab clip).  Edge ab: the box clipped by the wedge sides
    through p and line ab, fanned into triangles oriented like (p, a, b).
    All points lie in the box.  Degenerate cones and pieces are dropped."""
    pts = np.asarray(points, dtype=float)
    keep = np.nonzero(~_degenerate(pts))[0]
    pts = pts[keep]
    p, lo, hi = pts[:, 0], geom.bbox_min, geom.bbox_max
    if pts.shape[1] == 2:
        v, d = pts[:, 1], pts[:, 1] - p
        with np.errstate(divide="ignore", invalid="ignore"):
            # per axis, the ray's parameter range in the slab lo..hi
            t0, t1 = (lo - p) / d, (hi - p) / d
            enter = np.where(d == 0.0, np.where((lo <= p) & (p <= hi), -np.inf, np.inf),
                             np.minimum(t0, t1)).max(axis=1)
            leave = np.where(d == 0.0, np.inf, np.maximum(t0, t1)).min(axis=1)
            start = np.where((enter <= 1.0)[:, None], v, p + enter[:, None] * d)
            ends = np.stack([start, p + leave[:, None] * d], axis=1)
        ok = leave > np.maximum(enter, 1.0)
        owner, pieces = keep[ok], np.clip(ends[ok], lo, hi)
    else:
        e = pts[:, 1:] - p[:, None]
        ccw = (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0] > 0)[:, None]
        u, w = np.where(ccw[..., None], pts[:, 1:], pts[:, :0:-1]).transpose(1, 0, 2)
        sides = np.stack([np.stack(pair, axis=1) for pair in ((p, u), (w, p), (w, u))], axis=1)
        box = np.array([lo, (hi[0], lo[1]), hi, (lo[0], hi[1])])
        xy, n = _clip(np.broadcast_to(box, (len(pts), 4, 2)), np.full(len(pts), 4), sides)
        # fan triangles (q_0, q_c+1, q_c+2) with c + 2 < n, ordered like (p, a, b)
        at, c = np.nonzero(np.arange(2, max(xy.shape[1], 2)) < n[:, None])
        q, r, turn = xy[at, c + 1], xy[at, c + 2], ccw[at]
        owner, pieces = keep[at], np.stack([xy[at, 0 * c], np.where(turn, q, r),
                                            np.where(turn, r, q)], axis=1).reshape(-1, 3, 2)
    # clipping can leave repeated or collinear polygon points, whose fan
    # triangles have no area
    good = ~_degenerate(pieces)
    return owner[good], pieces[good]


def cone_functional(geom: MeshGeometry, cone: InfiniteCone) -> dict[int, float]:
    """Functional row for a single infinite cone."""
    return cone_chain_functional(geom, ConeChain(cone.dim, [(1, cone)]))


def cone_chain_functional(geom: MeshGeometry, chain: ConeChain,
                          factor: float | None = None) -> dict[int, float]:
    """Exact functional row for a chain of infinite cones: each is its star
    simplex plus its shadow pieces.  ``factor`` is accepted and ignored."""
    if not chain.terms:
        return {}
    coeffs = np.array([c for c, _ in chain.terms], dtype=float)
    pts = np.array([s.points for _, s in chain.terms], dtype=float)
    owner, pieces = shadow_pieces(geom, pts)
    return _row(geom, chain.dim, np.concatenate([coeffs, coeffs[owner]]),
                np.concatenate([pts, pieces]), True)
