"""Lowest-order Whitney forms and the de Rham (integration) map.

Conventions on a planar triangle mesh:

* 0-cochains interpolate to continuous piecewise-linear scalars.
* 1-cochains interpolate to the edge elements
  ``lambda_u grad(lambda_v) - lambda_v grad(lambda_u)`` for canonical edges
  ``u < v``; tangential components match across shared edges.  They are
  written once, in ``MeshGeometry.edge_forms``, and are affine per triangle,
  so a straight piece's integral is exactly the midpoint value times its vector.
* 2-cochains interpolate to piecewise-constant densities.  A value is stored
  against the canonical (sorted) triangle, whose geometric orientation may be
  clockwise; dividing by the *signed* area yields the density with respect to
  the plane's standard orientation, so integrating the form over the
  canonically oriented triangle returns exactly the stored value.

The de Rham map integrates fields over canonical simplices by quadrature
(vertex sampling for k=0, 3-point Gauss-Legendre on edges for k=1, a
6-point symmetric triangle rule for k=2).  Both rules are exact for
polynomial integrands up to degree 4, which covers every built-in field.
It is one pass per degree over the complex's rows, with one field call per
quadrature node; each simplex's node terms add up in the rule's order from
zero.  ``whitney_value`` also takes arrays of points and their triangles.

``MeshGeometry`` also holds a uniform bucket grid over the mesh, built in
numpy on first read, as are its frames, extents and edge tables.  It lists
the candidate triangles of a batch of boxes in one pass (the integration
kernels in ``singular`` take their (image, triangle) pairs from it), and
``locate``/``locate_all`` are one probe of it: a tiny box around each point,
then an exact barycentric test of its candidates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .simplicial import Cochain, SimplicialComplex, _cross, _offsets

# 3-point Gauss-Legendre on [0, 1]
_D = 0.5 * np.sqrt(0.6)
GAUSS3_NODES = np.array([0.5 - _D, 0.5, 0.5 + _D])
GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# 6-point symmetric triangle rule (degree 4); weights sum to one.
_A1 = 0.44594849091596488632
_W1 = 0.22338158967801146570
_A2 = 0.09157621350977074346
_W2 = 0.10995174365532186764
TRI6_BARY = np.array(
    [
        [1 - 2 * _A1, _A1, _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [_A2, _A2, 1 - 2 * _A2],
    ]
)
TRI6_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])


class MeshGeometry:
    """Per-triangle barycentric frames, a bucket grid, and mesh extents, each
    group of fields computed on the first read of one of them (``_GROUPS``):
    a combinatorial operator reads none.

    The bucket grid is uniform over the mesh's bounding box, with cells about
    one mean edge long.  Each triangle is filed under the one cell that holds
    the lower-left corner of its bounding box, so a query box only has to be
    widened down and to the left by the largest triangle extent to find every
    triangle whose bounding box meets it: ``candidates`` lists those
    (box, triangle) pairs for a whole batch of boxes at once, and ``locate``
    is one such probe of a tiny box around each point.
    """

    _GROUPS = {name: group for group, names in (
        ("_frames", "corner_rows corners signed_area orientation ccw_corners gradients"),
        ("_extents", "bbox_min bbox_max diagonal total_area"),
        ("_edges", "triangle_edges edge_coords"),
        ("_grid", "_reach _tri_box _shape _cell _cell_triangles _cell_start _count_table"),
    ) for name in names.split()}

    def __init__(self, complex: SimplicialComplex):
        if complex.coordinates is None:
            raise ValueError("complex has no vertex coordinates")
        if complex.num_simplices(2) == 0:
            raise ValueError("geometry needs a triangle mesh")
        self.complex = complex
        self._planar = False  # set once potentials.check_triangulation passes

    def __getattr__(self, name):
        """A field not computed yet: its group's builder sets the whole group."""
        if name not in MeshGeometry._GROUPS:
            raise AttributeError(f"'MeshGeometry' object has no attribute {name!r}")
        getattr(self, MeshGeometry._GROUPS[name])()
        return self.__dict__[name]

    def _frames(self) -> None:
        complex = self.complex
        tris = complex._rows[2]
        # each corner's row in the vertex ordering, where its 0-cochain value sits
        self.corner_rows = np.searchsorted(complex._rows[0][:, 0], tris)
        P = complex.coordinates.take(tris, axis=0)  # (T, 3, 2)
        self.corners = P
        self.signed_area = 0.5 * _cross(P)
        self.orientation = np.sign(self.signed_area).astype(int)
        # corners in counterclockwise order, the clipper orientation
        self.ccw_corners = np.where(self.orientation[:, None, None] > 0, P, P[:, ::-1])

        # grad(lambda_i) = perp(opposite edge) / (2 * signed area)
        def perp(v):
            return np.stack([-v[:, 1], v[:, 0]], axis=1)

        inv2A = 1.0 / (2.0 * self.signed_area)
        g0 = perp(P[:, 2] - P[:, 1]) * inv2A[:, None]
        g1 = perp(P[:, 0] - P[:, 2]) * inv2A[:, None]
        g2 = perp(P[:, 1] - P[:, 0]) * inv2A[:, None]
        self.gradients = np.stack([g0, g1, g2], axis=1)  # (T, 3, 2)

    def _extents(self) -> None:
        used = np.unique(self.complex._rows[2])
        pts = self.complex.coordinates.take(used, axis=0)
        self.bbox_min = pts.min(axis=0)
        self.bbox_max = pts.max(axis=0)
        self.diagonal = float(np.linalg.norm(self.bbox_max - self.bbox_min))
        self.total_area = float(np.abs(self.signed_area).sum())

    def _edges(self) -> None:
        # local edge -> global edge index, per triangle, order (01, 02, 12):
        # a triangle's coboundary row lists its facets in that order
        complex = self.complex
        self.triangle_edges = complex.coboundary_matrix(1).indices.reshape(-1, 3)
        self.edge_coords = complex.coordinates.take(complex._rows[1], axis=0)  # (E, 2, 2)

    def _grid(self) -> None:
        # bucket grid, with at most about 4 cells per triangle
        P = self.corners
        tri_min, tri_max = P.min(axis=1), P.max(axis=1)
        self._reach = (tri_max - tri_min).max(axis=0)
        # triangle bounding boxes as contiguous columns: x0, y0, x1, y1
        self._tri_box = np.ascontiguousarray(np.concatenate([tri_min, tri_max], axis=1).T)
        extent = self.bbox_max - self.bbox_min
        mean_edge = float(np.linalg.norm(self.edge_coords[:, 1] - self.edge_coords[:, 0],
                                         axis=1).mean())
        cell = max(mean_edge, float(np.sqrt(extent[0] * extent[1] / (4 * len(P)))))
        self._shape = np.maximum(1, np.ceil(extent / cell)).astype(int)  # (nx, ny)
        self._cell = extent / self._shape
        nx, ny = self._shape
        ix, iy = self._cell_of(tri_min)
        filed = iy * nx + ix
        self._cell_triangles = np.argsort(filed, kind="stable")
        counts = np.bincount(filed, minlength=nx * ny)
        self._cell_start = np.concatenate([[0], np.cumsum(counts)])
        # summed-area table of the per-cell counts, for candidate counts
        self._count_table = np.zeros((ny + 1, nx + 1), dtype=np.int64)
        self._count_table[1:, 1:] = counts.reshape(ny, nx).cumsum(0).cumsum(1)

    def _cell_of(self, xy):
        """Column and row of the cells holding points (clamped to the grid)."""
        ij = np.floor((xy - self.bbox_min) / self._cell)
        ij = np.clip(ij, 0, self._shape - 1).astype(np.int64)
        return ij[..., 0], ij[..., 1]

    def _cell_ranges(self, lo, hi):
        """First and last grid column and row whose filed triangles may meet each box."""
        x0, y0 = self._cell_of(np.asarray(lo, dtype=float) - self._reach)
        x1, y1 = self._cell_of(np.asarray(hi, dtype=float))
        return x0, x1, y0, y1

    def candidate_counts(self, lo, hi) -> np.ndarray:
        """Per box ``[lo_i, hi_i]``: how many triangles ``candidates`` will test."""
        x0, x1, y0, y1 = self._cell_ranges(lo, hi)
        S = self._count_table
        return S[y1 + 1, x1 + 1] - S[y0, x1 + 1] - S[y1 + 1, x0] + S[y0, x0]

    def candidates(self, lo, hi):
        """(box, triangle) index pairs whose bounding boxes meet, box by box.

        ``lo`` and ``hi`` are (N, 2) arrays of box corners.  Pairs come
        grouped by box in box order.
        """
        x0, x1, y0, y1 = self._cell_ranges(lo, hi)
        nx = self._shape[0]
        # one run of consecutive cells per box and grid row
        n_rows = y1 - y0 + 1
        box = np.repeat(np.arange(len(lo)), n_rows)
        row = y0[box] + _offsets(n_rows)
        first = self._cell_start[row * nx + x0[box]]
        length = self._cell_start[row * nx + x1[box] + 1] - first
        box = np.repeat(box, length)
        tri = self._cell_triangles[np.repeat(first, length) + _offsets(length)]
        (lx, ly), (hx, hy) = (np.ascontiguousarray(np.asarray(c, dtype=float).T) for c in (lo, hi))
        tx0, ty0, tx1, ty1 = self._tri_box.take(tri, axis=1)
        meet = (tx0 <= hx[box]) & (ty0 <= hy[box]) & (tx1 >= lx[box]) & (ty1 >= ly[box])
        return box[meet], tri[meet]

    def barycentric(self, t, point) -> np.ndarray:
        """Barycentric coordinates of points in triangles, last axis of length 3.

        ``t`` and ``point`` broadcast: one triangle index and one point give
        a length-3 array, index and point arrays give one row per pair.
        """
        d = np.asarray(point, dtype=float) - self.corners.take(t, axis=0)[..., 0, :]
        lam = (self.gradients.take(t, axis=0)[..., 1:, :] @ d[..., None])[..., 0]
        return np.concatenate([1.0 - lam[..., :1] - lam[..., 1:], lam], axis=-1)

    def edge_forms(self, t, point) -> np.ndarray:
        """Edge forms ``lambda_i grad(lambda_j) - lambda_j grad(lambda_i)`` of
        triangles at points, shape (..., 3, 2), local edges (01, 02, 12)."""
        lam = self.barycentric(t, point)[..., None]
        G = self.gradients.take(t, axis=0)
        i, j = [0, 0, 1], [1, 2, 2]
        return lam[..., i, :] * G[..., j, :] - lam[..., j, :] * G[..., i, :]

    def locate_all(self, points, tol: float = 1e-12) -> np.ndarray:
        """Triangle index containing each point, -1 where none does.

        A point belongs to a triangle when each barycentric coordinate is at
        least ``-tol``; ties on shared edges/vertices resolve to the lowest
        triangle index, which is harmless for tangentially continuous
        integrands.  A point with a NaN or infinite coordinate lies in none:
        it has no grid cell to probe, so it is left out of the probe.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        finite = np.flatnonzero(np.isfinite(pts).all(axis=1))
        probe = pts.take(finite, axis=0)
        # a barycentric slack of tol moves a point at most 2 tol diameters
        pad = 4.0 * tol * float(self._reach.sum())
        box, tri = self.candidates(probe - pad, probe + pad)
        box = finite.take(box)
        lam = self.barycentric(tri, pts.take(box, axis=0))
        inside = (lam >= -tol).all(axis=1)
        none = len(self.corners)
        best = np.full(len(pts), none)
        np.minimum.at(best, box[inside], tri[inside])
        return np.where(best == none, -1, best)

    def locate(self, point):
        """Index of a triangle containing the point, or None (see ``locate_all``)."""
        t = int(self.locate_all(point)[0])
        return None if t < 0 else t


def _own(complex: SimplicialComplex, geometry: MeshGeometry | None) -> MeshGeometry | None:
    """A geometry given with a complex (or None), refused unless built from that complex."""
    if geometry is not None and geometry.complex is not complex:
        raise ValueError(f"the geometry belongs to another complex, {geometry.complex!r}")
    return geometry


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of the rows (last axis) of two arrays, broadcast over the
    leading axes, each rounded as ``u[i] @ v[i]``."""
    return np.vecdot(u, v)


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right from zero, as a scalar loop adds it."""
    return np.add.reduce(np.ascontiguousarray(terms.T), axis=0, initial=0.0)


def whitney_value(geom: MeshGeometry, alpha: Cochain, point, triangle=None):
    """Evaluate the Whitney interpolant of a cochain at a point.

    Returns a scalar (k=0), a covector as a length-2 array (k=1), or the
    density relative to dx^dy (k=2).  An (N, 2) array of points gives N
    values, each bitwise the value of its point alone.  ``triangle`` holds
    the point's (points') triangle index, located when None.  For points on
    shared edges the k=1 normal component and the k=2 density depend on the
    chosen triangle.
    """
    if triangle is None:
        triangle = geom.locate_all(point).reshape(np.shape(point)[:-1])
        if (triangle < 0).any():
            outside = np.asarray(point, dtype=float).reshape(-1, 2)[np.argmax(triangle < 0)]
            raise ValueError(f"point {tuple(outside.tolist())} lies outside the mesh")
    t, k = triangle, alpha.dim
    if k == 2:
        return alpha.values[t] / geom.signed_area[t]
    if k == 0:
        values = np.asarray(alpha.values[geom.corner_rows[t]], dtype=float)
        value = _dot(geom.barycentric(t, point), values)
        return value if value.ndim else float(value)
    if k == 1:
        return (alpha.values[geom.triangle_edges[t], None] * geom.edge_forms(t, point)).sum(axis=-2)
    raise ValueError(f"no Whitney form in dimension {k}")


def de_rham(complex: SimplicialComplex, field: Callable, k: int) -> Cochain:
    """Integrate a smooth field over every canonical k-simplex.

    Args:
        field: callable of a length-2 point; must return a scalar for k=0 and
            k=2 (a density against dx^dy), and a length-2 covector for k=1.
            It is called once per quadrature node, simplex by simplex.
        k: cochain degree, 0..2.
    """
    coords = complex.coordinates
    if coords is None:
        raise ValueError("complex has no vertex coordinates")
    if k not in (0, 1, 2):
        raise ValueError(f"no de Rham map in dimension {k}")
    P = coords[complex._rows.get(k, np.empty((0, k + 1), dtype=np.int64))]  # (S, k + 1, 2)
    if k == 0:
        return Cochain(complex, 0, np.array([float(field(p)) for p in P[:, 0]]))
    if k == 1:
        d = P[:, 1] - P[:, 0]
        nodes = P[:, :1] + GAUSS3_NODES[:, None] * d[:, None]
        f = np.array([field(p) for p in nodes.reshape(-1, 2)], dtype=float).reshape(-1, 3, 2)
        return Cochain(complex, 1, _in_order(GAUSS3_WEIGHTS * _dot(f, d[:, None])))
    area = 0.5 * _cross(P)
    g = np.array([float(field(p)) for p in (TRI6_BARY @ P).reshape(-1, 2)]).reshape(-1, 6)
    return Cochain(complex, 2, area * _in_order(TRI6_WEIGHTS * g))
