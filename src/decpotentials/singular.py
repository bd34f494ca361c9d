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
candidate (subject, mesh triangle) pairs of the geometry's bucket grid.
1-dimensional images are cut to each triangle their line meets.  Each
corner's side of the line depends on the segment and the vertex alone, and
each crossing on the segment and the canonical edge alone, so neighbouring
triangles agree bitwise on where a piece ends (the orientation tests of a
straight walk, Devillers, Pion and Teillaud 2002); each piece is integrated
in its triangle by the midpoint rule, exact for the affine integrand.  A
piece along a mesh edge is integrated once, in the edge's lowest-index
triangle, and weighs only on that edge: a lowest-order Whitney 1-form's
tangential trace on an edge belongs to that edge alone (Whitney, Geometric
Integration Theory, 1957), so the other two edge forms' rounding-level
values there become exact zeros and leave the matrix.  Each distinct
segment of a batch (by its corner indices) is integrated once, and its
entries go to every term that names it, added in term order.
2-dimensional images are convex cells: triangles, or strictly convex
quadrilaterals, which the Lipschitz cone makes of a prism slab's two
triangles; in a batch that holds both, a triangle repeats its last corner,
and that edge of no length separates nothing.  A cell must pass a
separating-axis test, in which an image that only touches a mesh triangle
counts as apart (their overlap has no area, so such pairs leave no
rounding-level sliver entries); a quadrilateral that shares a side with a
mesh triangle lying across it is told apart exactly, by its corners' bits
(``_across_a_side``).  The cells are clipped against each mesh triangle by
a batched Sutherland-Hodgman and weighted by the signed overlap area.  The
image's own axes also find the mesh triangles strictly inside it, which
need no clip: they weigh exactly +-1, free of the clip's rounding, which
grows with the image's extent over the triangle's size and so with the
mesh.  The clip keeps its
polygons as flat point lists (each point's x, y and polygon index, in
polygon order), so a half-plane is a few whole-array passes and one
compaction in which every point emits its crossing and then itself.  A chunk
holds about CHUNK_PAIRS grid candidates, which bounds the memory of every
pass; its size trades a fixed cost per chunk (some 550 Python and numpy
calls of the cell kernel, whatever the chunk holds) against memory and
cache (see ``_pairs``).  Rows and columns of multi-dimensional arrays are
gathered with ``ndarray.take`` (a mask through ``flatnonzero`` first): the
same values that advanced indexing gathers, on a path several times
faster.  Pieces outside the mesh are an error unless explicitly allowed, in
which case they integrate to zero (an infinite cone is its star simplex, which may overhang
the mesh, plus its shadow cut off exactly by the mesh bounding box;
``segment_functional`` extends the interpolant by zero).  The coverage test
compares the uncovered area (length) with COVERAGE_TOL times the mesh area
(diagonal), not with the image's own, so a thin image near an edge is not
rejected for the round-off of its clipped pieces.  Simplices exactly flat in
floating point (``is_degenerate``, the one rule by which a complex also
rejects a flat mesh simplex) are degenerate and integrate to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .simplicial import Cochain, _cross, _degenerate, _offsets
from .whitney import MeshGeometry

# uncovered image area (length) allowed in strict integration, as a share of
# the mesh area (diagonal)
COVERAGE_TOL = 1e-10
# grid candidate pairs per numpy pass of the batched kernels
CHUNK_PAIRS = 1 << 13


class OutsideDomainError(ValueError):
    """An image extends beyond the mesh and integration is strict."""


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


def is_degenerate(points) -> bool:
    """Rank test: are the points exactly flat in floating point?

    Two points are when they coincide, three when their cross product is
    exactly zero, at every scale; four or more always are, in the plane.
    This is the batch rule ``simplicial._degenerate`` on one set: the rule
    that also rejects a flat edge or triangle when a complex is built.
    """
    pts = np.asarray(points, dtype=float)
    return bool(_degenerate(pts.reshape(1, len(pts), 2))[0])


# -- polygon clipping ----------------------------------------------------


def _clip(xy: np.ndarray, n: np.ndarray, sides: np.ndarray):
    """Sutherland-Hodgman over a batch of polygons, each against half-planes.

    Polygon i is the first ``n[i]`` points of ``xy[i]``; it is clipped in
    turn against the half-planes ``sides[i, j] = (start, end)``, each the
    points on or left of the line from start to end.  Returns the clipped
    polygons as flat lists: their points in polygon order, shape (M, 2), and
    each point's polygon index, ascending; an emptied polygon has no points.
    Every polygon does the arithmetic of a scalar clip in the same order, so
    a batch of one is that clip.
    """
    at = np.flatnonzero(np.arange(xy.shape[1]) < n[:, None])
    row = at // xy.shape[1]
    x, y = xy.reshape(-1, 2).take(at, axis=0).T
    for (c1x, c1y), (c2x, c2y) in np.ascontiguousarray(sides.transpose(1, 2, 3, 0)):
        if not len(row):
            break
        x1, y1 = c1x[row], c1y[row]
        dist = (c2x - c1x)[row] * (y - y1) - (c2y - c1y)[row] * (x - x1)
        prev = _predecessors(row)
        d_s, sx, sy = dist[prev], x[prev], y[prev]
        inside = dist >= 0.0
        # each point emits its crossing with the edge from its predecessor,
        # then itself; crossings are computed everywhere and kept where the
        # ends' sides differ
        emit = np.flatnonzero(np.stack([inside != (d_s >= 0.0), inside], axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = d_s / (d_s - dist)
            x = np.stack([sx + t * (x - sx), x], axis=1).ravel()[emit]
            y = np.stack([sy + t * (y - sy), y], axis=1).ravel()[emit]
        row = row[emit >> 1]
    return np.stack([x, y], axis=1), row


def _predecessors(row: np.ndarray) -> np.ndarray:
    """Each point's predecessor in its flat polygon list, the last point for the first."""
    start = np.ones(len(row), dtype=bool)
    start[1:] = row[1:] != row[:-1]
    first = np.flatnonzero(start)
    prev = np.arange(-1, len(row) - 1)
    prev[first] = np.append(first[1:], len(row)) - 1
    return prev


def _sides(poly: np.ndarray) -> np.ndarray:
    """Half-planes of convex CCW polygons, one per edge, the closing edge first."""
    return np.stack([np.roll(poly, 1, axis=1), poly], axis=2)


def _areas(xy: np.ndarray, row: np.ndarray, n_polygons: int) -> np.ndarray:
    """Signed shoelace areas of the flat polygon lists of ``_clip``.

    Each polygon's terms ``x_prev y - x y_prev`` add up point by point, the
    closing edge first, as a scalar loop adds them; a polygon of fewer than
    three points sums to exactly zero.
    """
    x, y = xy.T
    prev = _predecessors(row)
    return 0.5 * np.bincount(row, x[prev] * y - x * y[prev], minlength=n_polygons)


def clip_polygon(subject, clipper):
    """Sutherland-Hodgman clip of a polygon against a convex CCW clipper.

    Points on a clip edge count as inside; the output may contain repeated
    points, which downstream area formulas tolerate.  Each vertex's signed
    distance to a clip edge is computed once and used both for the inside
    test and for the crossing, so an edge whose ends test differently always
    has a crossing parameter in [0, 1].
    """
    xy = np.asarray(subject, dtype=float).reshape(1, -1, 2)
    xy, _ = _clip(xy, np.array([xy.shape[1]]), _sides(np.asarray(clipper, dtype=float)[None]))
    return [_point_tuple(p) for p in xy]


def polygon_area(poly) -> float:
    """Signed shoelace area."""
    xy = np.asarray(poly, dtype=float).reshape(-1, 2)
    return float(_areas(xy, np.zeros(len(xy), dtype=np.int64), 1)[0])


# -- batched Whitney functionals ------------------------------------------


def _edge_axes(poly: np.ndarray):
    """(edge, lo, hi) per edge of convex polygons: the edge vectors as
    (xy, polygon) columns, and each polygon's extent along the edge normal.
    Among quadrilaterals, the edge of no length at a triangle's repeated
    corner has the extent -inf..inf, so that it neither separates nor
    excludes."""
    m = poly.shape[1]
    axes = []
    for i in range(m):
        e = poly[:, (i + 1) % m] - poly[:, i]
        proj = poly[..., 1] * e[:, None, 0] - poly[..., 0] * e[:, None, 1]
        lo, hi = proj.min(axis=1), proj.max(axis=1)
        if m == 4:
            flat = np.flatnonzero((e[:, 0] == 0.0) & (e[:, 1] == 0.0))
            lo[flat], hi[flat] = -np.inf, np.inf
        axes.append((np.ascontiguousarray(e.T), lo, hi))
    return axes


def _apart(axes, own: np.ndarray, other: np.ndarray, inside: bool = False):
    """Per pair: does an edge normal of polygon ``own`` separate ``other`` from
    it, and, if ``inside`` is asked (else None), do ``other``'s corners lie
    strictly inside ``own``?

    ``other`` holds the other polygon's corners as (corner, xy, pair)
    columns.  Along the normal, one projection ends where or before the
    other begins, so that two convex polygons which only share boundary
    points count as apart.  ``own`` is counterclockwise, so the low end of
    its extent along each normal is that edge's line, and a corner is inside
    when it projects above the low end of every one.
    """
    apart = np.zeros(len(own), dtype=bool)
    enclosed = np.ones(len(own), dtype=bool) if inside else None
    for e, lo, hi in axes:
        ex, ey = e.take(own, axis=1)
        lo = lo.take(own)
        proj = [py * ex - px * ey for px, py in other]
        bottom = reduce(np.minimum, proj)
        apart |= reduce(np.maximum, proj) <= lo
        apart |= bottom >= hi.take(own)
        if inside:
            enclosed &= bottom > lo
    return apart, enclosed


def _pairs(geom: MeshGeometry, pts: np.ndarray, rows: np.ndarray):
    """(first, stop, subject, triangle) per chunk of consecutive subjects: the
    candidate pairs of the geometry's bucket grid.  A chunk holds whole rows
    (``rows`` is sorted) and about CHUNK_PAIRS candidates (a row with more is
    a chunk of its own), which bounds the memory of every later pass.

    Since a chunk holds whole rows, its size changes no bit of a matrix, only
    time and memory.  The tracemalloc peak of star square:16 ``matrix(2)`` is
    1.4, 2.1, 3.5 and 5.8 MB at 4,096, 8,192, 16,384 and 32,768 pairs, and
    on a 2-core VM the time that each doubling saves shrinks past 8,192.
    """
    lo = pts.min(axis=1)
    hi = pts.max(axis=1)
    ends = np.cumsum(geom.candidate_counts(lo, hi))
    row_end = np.searchsorted(rows, rows, side="right")
    first = 0
    while first < len(pts):
        done = ends[first - 1] if first else 0
        stop = max(first + 1, int(np.searchsorted(ends, done + CHUNK_PAIRS, side="right")))
        stop = int(row_end[stop - 1])
        sub, tri = geom.candidates(lo[first:stop], hi[first:stop])
        sub += first  # in place: the generator holds no second copy
        yield first, stop, sub, tri
        first = stop


def _accumulate(major, minor, vals, n_minor: int):
    """Sum values per (major, minor) key, in input order; keys come sorted."""
    keys, slot = np.unique(major.astype(np.int64) * n_minor + minor, return_inverse=True)
    return keys // n_minor, keys % n_minor, np.bincount(slot, vals, minlength=len(keys))


def _check_covered(geom: MeshGeometry, pts: np.ndarray, first: int, uncovered, whole,
                   describe, n=None) -> None:
    """Reject the first of the subjects ``first, first + 1, ...`` whose length
    (segments) or area (cells) off the mesh exceeds COVERAGE_TOL times the
    mesh diagonal or area; ``whole`` is each subject's own length or area,
    and ``n`` each cell's corner count."""
    tol = COVERAGE_TOL * (geom.diagonal if pts.shape[1] == 2 else geom.total_area)
    bad = np.nonzero(uncovered > tol)[0]
    if bad.size:
        i = int(bad[0])
        corners = pts.shape[1] if n is None else int(n[first + i])
        what, measure, scale = ("segment", "length", "diagonal") if corners == 2 else (
            "image triangle" if corners == 3 else "image quadrilateral", "area", "area")
        if describe is not None:
            what = f"{describe(first + i)}: {what}"
        raise OutsideDomainError(
            f"{what} {tuple(map(_point_tuple, pts[first + i, :corners]))} leaves the mesh: "
            f"{measure} {uncovered[i]:.3e} of its {whole[i]:.3e} is not "
            f"covered (tolerance {tol:.1e}, {COVERAGE_TOL:g} of the mesh {scale})"
        )


def _segment_entries(geom: MeshGeometry, pts: np.ndarray, rows: np.ndarray,
                     allow_exterior: bool, describe):
    """(subject, edge, weight) per chunk, for segments pts[:, 0] -> pts[:, 1].

    A segment's piece in a triangle its line meets runs from the least to the
    greatest parameter of the line's edge crossings and of the corners on
    it, cut to [0, 1]; a piece along an edge (both of its corners on the
    line by the same sign test) is integrated only in the edge's
    lowest-index triangle, and weighs only on that edge: the other two edge
    forms' weights are exact zeros.  Unless ``allow_exterior``, the length
    that no piece covers may not exceed COVERAGE_TOL times the mesh diagonal.
    """
    n_edges, cof = len(geom.edge_coords), geom.complex._cofacet_csc(1)
    # each edge's lowest-index triangle: its first cofacet, -1 for an edge with none
    lowest = np.where(np.diff(cof.indptr) > 0, np.append(cof.indices, -1)[cof.indptr[:-1]], -1)
    # corners and local edges, one row each; local edge m = (01, 02, 12)[m]
    # runs from corner i[m] to corner j[m], its canonical direction
    i, j = [0, 0, 1], [1, 2, 2]
    cx, cy = np.ascontiguousarray(geom.corners.transpose(2, 1, 0))
    ex, ey = cx[j] - cx[i], cy[j] - cy[i]
    a = np.ascontiguousarray(pts[:, 0])
    r = pts[:, 1] - a
    (ax, ay), (rx, ry) = a.T, r.T
    for first, stop, sub, tri in _pairs(geom, pts, rows):
        # each corner's side of the segment's line: the line meets the
        # triangles whose corners are not all strictly on one side
        dx, dy = cx.take(tri, axis=1) - ax[sub], cy.take(tri, axis=1) - ay[sub]
        sign = np.sign(rx[sub] * dy - ry[sub] * dx)
        meet = np.flatnonzero(np.abs(sign.sum(axis=0)) < 3.0)
        sub, tri = sub[meet], tri[meet]
        dx, dy, sign = (v.take(meet, axis=1) for v in (dx, dy, sign))
        sx, sy, ux, uy = rx[sub], ry[sub], ex.take(tri, axis=1), ey.take(tri, axis=1)
        # the line meets a corner on it at the corner's projection, and an
        # edge whose ends lie strictly on either side where it crosses the
        # edge's line, a parameter of the canonical edge alone, clamped
        # between the ends' projections against rounding
        with np.errstate(divide="ignore", invalid="ignore"):
            proj = (dx * sx + dy * sy) / (sx * sx + sy * sy)
            cut = (dx.take(i, axis=0) * uy - dy.take(i, axis=0) * ux) / (sx * uy - sy * ux)
        pi, pj = proj.take(i, axis=0), proj.take(j, axis=0)
        cut = np.fmin(np.fmax(cut, np.minimum(pi, pj)), np.maximum(pi, pj))
        on = sign == 0.0
        # the least and the greatest of the crossings and the corners on the
        # line, each kind taken apart (min and max do not round)
        cut = np.where(sign.take(i, axis=0) * sign.take(j, axis=0) < 0.0, cut, np.nan)
        proj = np.where(on, proj, np.nan)
        t0 = np.maximum(np.fmin(np.fmin.reduce(cut), np.fmin.reduce(proj)), 0.0)
        t1 = np.minimum(np.fmax(np.fmax.reduce(cut), np.fmax.reduce(proj)), 1.0)
        along = on.take(i, axis=0) & on.take(j, axis=0)
        edge = geom.triangle_edges.ravel().take(3 * tri + along.argmax(axis=0))
        keep = np.flatnonzero((t1 > t0) & (~along.any(axis=0) | (lowest[edge] == tri)))
        sub, tri, t0, t1, along = sub[keep], tri[keep], t0[keep], t1[keep], along.take(keep, axis=1)
        if not allow_exterior:
            whole = np.hypot(rx[first:stop], ry[first:stop])
            covered = np.bincount(sub - first, t1 - t0, minlength=stop - first)
            _check_covered(geom, pts, first, whole * (1.0 - covered), whole, describe)
        d = r.take(sub, axis=0)
        mid = a.take(sub, axis=0) + (0.5 * (t0 + t1))[:, None] * d
        step = (t1 - t0)[:, None] * d
        vals = (geom.edge_forms(tri, mid) @ step[:, :, None])[..., 0]
        # along an edge, the other two edge forms have no tangential part:
        # their rounding-level values become exact zeros
        vals[along.any(axis=0)[:, None] & ~along.T] = 0.0
        yield _accumulate(np.repeat(sub, 3), geom.triangle_edges.take(tri, axis=0).ravel(),
                          vals.ravel(), n_edges)


def _cell_entries(geom: MeshGeometry, pts: np.ndarray, n: np.ndarray, rows: np.ndarray,
                  allow_exterior: bool, describe):
    """(subject, triangle, weight) per chunk, for image cells: convex
    polygons, cell i the first ``n[i]`` (3 or 4) corners of ``pts[i]``, a
    triangle among quadrilaterals repeating its last corner.

    Each image is clipped against every mesh triangle that no separating axis
    sets apart from it, and weighted by the overlap area over the triangle's
    signed area, with the image's orientation sign; a triangle whose corners
    lie strictly inside the image needs no clip, and weighs exactly +-1.
    Unless ``allow_exterior``, the image must be covered by the mesh: the
    area it leaves uncovered may not exceed COVERAGE_TOL times the mesh area.
    """
    area = 0.5 * _cross(pts[:, :3])
    if pts.shape[1] == 4:  # a quadrilateral's: half the cross product of its diagonals
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts.transpose(1, 2, 0)
        area = np.where(n == 4, 0.5 * ((cx - ax) * (dy - by) - (cy - ay) * (dx - bx)), area)
    sign = np.where(area > 0, 1.0, -1.0)
    ccw = np.where(area[:, None, None] > 0, pts, pts[:, ::-1])  # for the image's axes
    # clip in each mesh triangle's frame, so rounding scales with the triangle
    origin = geom.ccw_corners[:, :1].copy()
    # the half-planes are kept with the triangle index last, the layout that
    # _clip walks, so that a chunk's gather is its only copy of them
    sides = np.ascontiguousarray(_sides(geom.ccw_corners - origin).transpose(1, 2, 3, 0))
    image_axes, triangle_axes = _edge_axes(ccw), _edge_axes(geom.ccw_corners)
    # corners as (corner, xy, subject or triangle) columns, for the axis tests
    images, corners = (np.ascontiguousarray(p.transpose(1, 2, 0)) for p in (pts, geom.ccw_corners))
    for first, stop, sub, tri in _pairs(geom, pts, rows):
        # separating axes, the image's first: they reject most pairs of a thin image
        apart, enclosed = _apart(image_axes, sub, corners.take(tri, axis=2), inside=True)
        meet = np.flatnonzero(~apart)
        sub, tri, enclosed = sub.take(meet), tri.take(meet), enclosed.take(meet)
        meet = np.flatnonzero(~_apart(triangle_axes, tri, images.take(sub, axis=2))[0])
        sub, tri, enclosed = sub.take(meet), tri.take(meet), enclosed.take(meet)
        # a triangle inside the image overlaps it whole, and weighs exactly +-1
        overlap = np.abs(geom.signed_area.take(tri))
        clip = np.flatnonzero(~enclosed)
        if pts.shape[1] == 4:
            # a quadrilateral across a side from a mesh triangle only touches it
            q = clip[n.take(sub.take(clip)) == 4]
            touch = q[_across_a_side(images.take(sub.take(q), axis=2), sign.take(sub.take(q)),
                                     corners.take(tri.take(q), axis=2))]
            overlap[touch] = 0.0
            clip = np.setdiff1d(clip, touch, assume_unique=True)
        s, t = sub.take(clip), tri.take(clip)
        # the clipped polygons are no local, so no chunk holds them into the next
        overlap[clip] = np.abs(_areas(*_clip(pts.take(s, axis=0) - origin.take(t, axis=0),
                                             n.take(s),
                                             sides.take(t, axis=3).transpose(3, 0, 1, 2)),
                                      len(clip)))
        hit = np.flatnonzero(overlap)
        sub, tri, overlap = sub.take(hit), tri.take(hit), overlap.take(hit)
        if not allow_exterior:
            whole = np.abs(area[first:stop])
            covered = np.bincount(sub - first, overlap, minlength=stop - first)
            _check_covered(geom, pts, first, whole - covered, whole, describe, n)
        yield sub, tri, sign.take(sub) * overlap / geom.signed_area.take(tri)


def _across_a_side(quads: np.ndarray, sign: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Per pair: does the convex quadrilateral (orientation ``sign``) share a
    side with the triangle, whose third corner lies strictly outside it?
    Their interiors are then disjoint.  Corners come as (corner, xy, pair)
    columns and are compared bit by bit, and a side's ends give exactly zero
    in its own orientation test, so this holds where separating axes and the
    clip round: both ends of a shared side project alike only up to
    rounding, and a crossing computed onto a corner on the clip line need
    not land on it."""
    same = [[(qx == tx) & (qy == ty) for tx, ty in triangles] for qx, qy in quads]
    at = [reduce(np.logical_or, row) for row in same]
    across = np.zeros(len(sign), dtype=bool)
    for i in range(4):
        j = (i + 1) % 4
        pair = np.flatnonzero(at[i] & at[j])
        # the triangle's corner that is neither end of the side
        w = triangles[np.argmin([(same[i][c] | same[j][c])[pair] for c in range(3)], axis=0),
                      :, pair].T
        a, b = quads[i][:, pair], quads[j][:, pair]
        turn = (b[0] - a[0]) * (w[1] - a[1]) - (b[1] - a[1]) * (w[0] - a[0])
        across[pair[turn * sign.take(pair) < 0.0]] = True
    return across


def _first_appearances(keys: np.ndarray):
    """The rows where each distinct row of an (N, c) int64 array first
    appears, in order, and each row's index among the distinct rows."""
    order = np.lexsort(keys.T[::-1])  # stable: a row's first appearance leads its run
    ordered = keys.take(order, axis=0)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    if new.all():
        return np.arange(len(keys)), np.arange(len(keys))
    first = order[new]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = rank[np.cumsum(new) - 1]
    return np.sort(first), index


def functional_matrix(geom: MeshGeometry, dim: int, rows, coeffs, points, corners, n_rows: int,
                      *, allow_exterior: bool = False, describe=None):
    """Sparse matrix of many functional rows, assembled in batched passes.

    Term i adds ``coeffs[i]`` times the functional of the cell on the points
    ``points[corners[i]]`` to row ``rows[i]``: the linear singular simplex
    of dimension ``dim`` (1 or 2), or, for four corners, the strictly convex
    quadrilateral they bound in order (a triangle among quadrilaterals has
    -1 as its fourth corner).  ``rows`` must ascend, as a cone's terms do.
    Each distinct segment is integrated once, and within a row weights add up
    in term order, so a row equals the dict that the per-term functionals
    would accumulate.  Degenerate simplices integrate to zero.
    ``describe(row)`` names a row in errors.  Returns a CSR matrix of shape
    (n_rows, number of mesh ``dim``-simplices) without explicit zeros.
    """
    if dim not in (1, 2):
        raise ValueError(f"cannot integrate Whitney forms over dimension {dim}")
    rows = np.asarray(rows, dtype=np.int64)
    corners = np.asarray(corners, dtype=np.int64).reshape(len(rows), -1 if len(rows) else dim + 1)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    m = corners.shape[1]
    n = m - (corners[:, -1] < 0)  # each cell's corner count
    if m == 4:  # a triangle's fourth corner repeats its third
        corners = np.where(corners < 0, corners[:, 2:3], corners)
    pts = points.take(corners, axis=0)
    keep = np.flatnonzero((n == 4) | ~_degenerate(pts[:, :dim + 1]))
    rows, coeffs, corners = rows[keep], np.asarray(coeffs, dtype=float)[keep], corners[keep]
    pts, n = pts.take(keep, axis=0), n.take(keep)
    n_cols = geom.complex.num_simplices(dim)
    # each distinct segment once, as the subject of its first term (subjects
    # in term order, so a chunk holds whole rows of them)
    first, subject = _first_appearances(corners) if dim == 1 else (np.arange(len(rows)),) * 2
    name = None if describe is None else (lambda j: describe(int(rows[first[j]])))
    chunks = _segment_entries(geom, pts.take(first, axis=0), rows.take(first), allow_exterior,
                              name) if dim == 1 else \
        _cell_entries(geom, pts, n, rows, allow_exterior, name)
    if len(first) == len(rows):
        # a chunk holds whole rows, so each chunk's sums are final and the
        # chunks come in row order
        parts = [_accumulate(rows[sub], col, coeffs[sub] * w, n_cols) for sub, col, w in chunks]
    else:
        # each term takes its subject's entries, in term order
        sub, col, w = (np.concatenate(x) for x in zip(*chunks))
        count = np.bincount(sub, minlength=len(first)).take(subject)
        at = np.repeat(np.searchsorted(sub, subject), count) + _offsets(count)
        term = np.repeat(np.arange(len(rows)), count)
        parts = [_accumulate(rows[term], col.take(at), coeffs[term] * w.take(at), n_cols)]
    row, col, val = (np.concatenate(x) for x in zip(*parts)) if parts else \
        (np.zeros(0, dtype=np.int64),) * 3
    nz = val != 0.0
    row, col, val = row[nz], col[nz], val[nz]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_rows))])
    return sp.csr_matrix((val, col, indptr), shape=(n_rows, n_cols))


def _row(geom: MeshGeometry, dim: int, coeffs, points, allow_exterior: bool) -> dict[int, float]:
    """One functional row as a dict: a batch of one term set."""
    corners = np.arange(len(coeffs) * (dim + 1)).reshape(-1, dim + 1)
    m = functional_matrix(geom, dim, np.zeros(len(coeffs)), coeffs, points, corners, 1,
                          allow_exterior=allow_exterior)
    return {int(i): float(w) for i, w in zip(m.indices, m.data)}


def segment_functional(geom: MeshGeometry, a, b) -> dict[int, float]:
    """Row of edge-index weights for alpha -> integral of W(alpha) over a->b.

    Pieces outside the mesh contribute zero (the interpolant is extended by
    zero off the mesh).
    """
    return _row(geom, 1, [1.0], [a, b], True)


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


def integrate_whitney(geom: MeshGeometry, alpha: Cochain, chain: SingularChain) -> float:
    """Integral of the Whitney interpolant of alpha over a singular chain."""
    if alpha.dim != chain.dim:
        raise ValueError("cochain degree must match chain dimension")
    row = chain_functional(geom, chain)
    return float(sum(alpha.values[i] * w for i, w in row.items()))


# -- infinite cones ------------------------------------------------------


def shadow_pieces(geom: MeshGeometry, points):
    """(cone index, points) of the pieces of the shadows {p + t (x - p) : t >= 1}
    of infinite cones, apex p first in ``points``, shape (S, k + 1, 2), k = 1, 2.

    Vertex v: the segment from v to where the ray p -> v leaves the mesh
    bounding box (a slab clip).  Edge ab: the box clipped by the wedge sides
    through p and line ab, fanned into triangles oriented like (p, a, b).
    All points lie in the box.  Degenerate cones and pieces are dropped."""
    pts = np.asarray(points, dtype=float)
    keep = np.flatnonzero(~_degenerate(pts))
    pts = pts.take(keep, axis=0)
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
        ok = np.flatnonzero(leave > np.maximum(enter, 1.0))
        owner, pieces = keep[ok], np.clip(ends.take(ok, axis=0), lo, hi)
    else:
        ccw = (_cross(pts) > 0)[:, None]
        u, w = np.where(ccw[..., None], pts[:, 1:], pts[:, :0:-1]).transpose(1, 0, 2)
        sides = np.stack([np.stack(pair, axis=1) for pair in ((p, u), (w, p), (w, u))], axis=1)
        box = np.array([lo, (hi[0], lo[1]), hi, (lo[0], hi[1])])
        xy, cone = _clip(np.broadcast_to(box, (len(pts), 4, 2)), np.full(len(pts), 4), sides)
        # fan triangles (q_first, q_i-1, q_i) with i - first >= 2, ordered like (p, a, b)
        first = np.searchsorted(cone, cone)
        i = np.flatnonzero(np.arange(len(cone)) - first >= 2)
        q, r, turn = xy.take(i - 1, axis=0), xy.take(i, axis=0), ccw.take(cone[i], axis=0)
        owner, pieces = keep[cone[i]], np.stack([xy.take(first[i], axis=0), np.where(turn, q, r),
                                                 np.where(turn, r, q)], axis=1)
    # clipping can leave repeated or collinear polygon points, whose fan
    # triangles have no area
    good = np.flatnonzero(~_degenerate(pieces))
    return owner[good], pieces.take(good, axis=0)


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
