"""Lowest-order Whitney forms and the de Rham (integration) map.

Conventions on a planar triangle mesh:

* 0-cochains interpolate to continuous piecewise-linear scalars.
* 1-cochains interpolate to the edge elements
  ``lambda_u grad(lambda_v) - lambda_v grad(lambda_u)`` for canonical edges
  ``u < v``; tangential components match across shared edges.
* 2-cochains interpolate to piecewise-constant densities.  A value is stored
  against the canonical (sorted) triangle, whose geometric orientation may be
  clockwise; dividing by the *signed* area yields the density with respect to
  the plane's standard orientation, so integrating the form over the
  canonically oriented triangle returns exactly the stored value.

The de Rham map integrates fields over canonical simplices by quadrature
(vertex sampling for k=0, 3-point Gauss-Legendre on edges for k=1, a
6-point symmetric triangle rule for k=2).  Both rules are exact for
polynomial integrands up to degree 4, which covers every built-in field.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .simplicial import Cochain, SimplicialComplex

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
    """Per-triangle barycentric frames, point location, and mesh extents."""

    def __init__(self, complex: SimplicialComplex):
        if complex.coordinates is None:
            raise ValueError("complex has no vertex coordinates")
        if complex.num_simplices(2) == 0:
            raise ValueError("geometry needs a triangle mesh")
        self.complex = complex
        coords = complex.coordinates
        tris = np.array(complex.simplices(2), dtype=int)
        self.triangle_vertices = tris
        P = coords[tris]  # (T, 3, 2)
        self.corners = P
        e1 = P[:, 1] - P[:, 0]
        e2 = P[:, 2] - P[:, 0]
        self.signed_area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        self.orientation = np.sign(self.signed_area).astype(int)

        # grad(lambda_i) = perp(opposite edge) / (2 * signed area)
        def perp(v):
            return np.stack([-v[:, 1], v[:, 0]], axis=1)

        inv2A = 1.0 / (2.0 * self.signed_area)
        g0 = perp(P[:, 2] - P[:, 1]) * inv2A[:, None]
        g1 = perp(P[:, 0] - P[:, 2]) * inv2A[:, None]
        g2 = perp(P[:, 1] - P[:, 0]) * inv2A[:, None]
        self.gradients = np.stack([g0, g1, g2], axis=1)  # (T, 3, 2)

        used = np.unique(tris)
        pts = coords[used]
        self.bbox_min = pts.min(axis=0)
        self.bbox_max = pts.max(axis=0)
        self.diagonal = float(np.linalg.norm(self.bbox_max - self.bbox_min))
        self.total_area = float(np.abs(self.signed_area).sum())

        # local edge -> global edge index, per triangle, order (01, 02, 12)
        idx1 = complex._index[1]
        te = np.empty((len(tris), 3), dtype=int)
        for t, (a, b, c) in enumerate(complex.simplices(2)):
            te[t, 0] = idx1[(a, b)]
            te[t, 1] = idx1[(a, c)]
            te[t, 2] = idx1[(b, c)]
        self.triangle_edges = te

        self._ccw_corners = [
            [tuple(p) for p in (tri if o > 0 else tri[::-1])]
            for tri, o in zip(P, self.orientation)
        ]
        self._edge_coords = None

    @property
    def edge_coords(self):
        """(E, 2, 2) endpoint coordinates of canonical edges."""
        if self._edge_coords is None:
            edges = np.array(self.complex.simplices(1), dtype=int)
            self._edge_coords = self.complex.coordinates[edges]
        return self._edge_coords

    def ccw_corners(self, t: int):
        """Triangle corner tuples in counterclockwise order (for clipping)."""
        return self._ccw_corners[t]

    def barycentric(self, t: int, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        d = p - self.corners[t, 0]
        l1 = self.gradients[t, 1] @ d
        l2 = self.gradients[t, 2] @ d
        return np.array([1.0 - l1 - l2, l1, l2])

    def locate(self, point, tol: float = 1e-12):
        """Index of a triangle containing the point, or None.

        Ties on shared edges/vertices resolve to the lowest triangle index,
        which is harmless for tangentially continuous integrands.
        """
        p = np.asarray(point, dtype=float)
        d = p[None, :] - self.corners[:, 0]
        l1 = np.einsum("tj,tj->t", self.gradients[:, 1], d)
        l2 = np.einsum("tj,tj->t", self.gradients[:, 2], d)
        ok = (l1 >= -tol) & (l2 >= -tol) & (1.0 - l1 - l2 >= -tol)
        hits = np.nonzero(ok)[0]
        if hits.size == 0:
            return None
        return int(hits[0])


def whitney_value(geom: MeshGeometry, alpha: Cochain, point, triangle: int | None = None):
    """Evaluate the Whitney interpolant of a cochain at a point.

    Returns a scalar (k=0), a covector as a length-2 array (k=1), or the
    density relative to dx^dy (k=2).  For points on shared edges the k=1
    normal component and the k=2 density depend on the chosen triangle.
    """
    t = geom.locate(point) if triangle is None else triangle
    if t is None:
        raise ValueError(f"point {tuple(point)} lies outside the mesh")
    k = alpha.dim
    if k == 2:
        return alpha.values[t] / geom.signed_area[t]
    lam = geom.barycentric(t, point)
    cx = geom.complex
    tri = cx.simplices(2)[t]
    if k == 0:
        idx0 = cx._index[0]
        vals = [alpha.values[idx0[(v,)]] for v in tri]
        return float(lam @ np.asarray(vals, dtype=float))
    if k == 1:
        G = geom.gradients[t]
        out = np.zeros(2)
        for local, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            a = alpha.values[geom.triangle_edges[t, local]]
            out += a * (lam[i] * G[j] - lam[j] * G[i])
        return out
    raise ValueError(f"no Whitney form in dimension {k}")


def whitney_field(geom: MeshGeometry, alpha: Cochain) -> Callable:
    """Pointwise-evaluating closure over the Whitney interpolant."""

    def field(point):
        return whitney_value(geom, alpha, point)

    return field


def de_rham(complex: SimplicialComplex, field: Callable, k: int) -> Cochain:
    """Integrate a smooth field over every canonical k-simplex.

    Args:
        field: callable of a length-2 point; must return a scalar for k=0 and
            k=2 (a density against dx^dy), and a length-2 covector for k=1.
        k: cochain degree, 0..2.
    """
    coords = complex.coordinates
    if coords is None:
        raise ValueError("complex has no vertex coordinates")
    if k == 0:
        vals = np.array([float(field(coords[v])) for (v,) in complex.simplices(0)])
        return Cochain(complex, 0, vals)
    if k == 1:
        vals = np.empty(complex.num_simplices(1))
        for i, (u, v) in enumerate(complex.simplices(1)):
            p, q = coords[u], coords[v]
            d = q - p
            acc = 0.0
            for t, w in zip(GAUSS3_NODES, GAUSS3_WEIGHTS):
                acc += w * float(np.asarray(field(p + t * d)) @ d)
            vals[i] = acc
        return Cochain(complex, 1, vals)
    if k == 2:
        vals = np.empty(complex.num_simplices(2))
        for i, tri in enumerate(complex.simplices(2)):
            P = coords[np.array(tri)]
            e1 = P[1] - P[0]
            e2 = P[2] - P[0]
            area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
            pts = TRI6_BARY @ P
            acc = 0.0
            for p, w in zip(pts, TRI6_WEIGHTS):
                acc += w * float(field(p))
            vals[i] = area * acc
        return Cochain(complex, 2, vals)
    raise ValueError(f"no de Rham map in dimension {k}")
