"""Linear singular simplices, infinite cones, and exact planar integration.

A linear singular k-simplex is the affine map from the reference simplex
determined by an ordered (k+1)-tuple of planar points; an infinite cone is
the analogous affine map from the nonnegative orthant, with the apex listed
first.  Chains are signed formal combinations of either kind.

Integration of Whitney interpolants over these objects is organized around
*functionals*: sparse rows mapping mesh simplex indices to weights, so that
the integral of ``W(alpha)`` is the dot product of the row with the cochain
values.  Rows are what operator assembly needs; plain integrals are the dot
product.

Piecewise structure is resolved exactly: 1-dimensional images are split at
every crossing with a mesh edge and integrated per piece by Gauss quadrature
(the integrand is affine per piece, so this is exact); 2-dimensional images
are clipped against each mesh triangle by Sutherland-Hodgman and weighted by
the signed overlap area.  Pieces outside the mesh integrate to zero for
segments and are an error for triangles unless explicitly allowed (infinite
cones integrate compactly supported data, so their truncated images may
overhang the mesh).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplicial import Cochain
from .whitney import GAUSS3_NODES, GAUSS3_WEIGHTS, MeshGeometry

DEGENERACY_TOL = 1e-12
PARAM_TOL = 1e-12


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

    def array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)


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


def is_degenerate(points, tol: float = DEGENERACY_TOL) -> bool:
    """Rank test: do the points span an affine k-flat in the plane?

    The threshold is relative to the squared diameter of the point set, so
    the verdict is invariant under rigid motions and uniform scaling.
    """
    pts = np.asarray(points, dtype=float)
    k = len(pts) - 1
    if k <= 0:
        return False
    diffs = pts[None, :, :] - pts[:, None, :]
    scale = float(np.sqrt((diffs ** 2).sum(axis=2).max()))
    if scale == 0.0:
        return True
    if k >= 3:
        return True
    if k == 1:
        return False
    e1 = pts[1] - pts[0]
    e2 = pts[2] - pts[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    return abs(det) <= tol * scale * scale


# -- polygon clipping ----------------------------------------------------


def clip_polygon(subject, clipper):
    """Sutherland-Hodgman clip of a polygon against a convex CCW clipper.

    Points on a clip edge count as inside; the output may contain repeated
    points, which downstream area formulas tolerate.  Each vertex's signed
    distance to a clip edge is computed once and used both for the inside
    test and for the crossing, so an edge whose ends test differently always
    has a crossing parameter in [0, 1].
    """
    output = [_point_tuple(p) for p in subject]
    cp1 = _point_tuple(clipper[-1])
    for cp2 in clipper:
        cp2 = _point_tuple(cp2)
        if not output:
            return []
        ex, ey = cp2[0] - cp1[0], cp2[1] - cp1[1]
        dist = [ex * (p[1] - cp1[1]) - ey * (p[0] - cp1[0]) for p in output]
        inputs, output = output, []
        s, d_s = inputs[-1], dist[-1]
        for e, d_e in zip(inputs, dist):
            if (d_e >= 0.0) != (d_s >= 0.0):
                t = d_s / (d_s - d_e)
                output.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
            if d_e >= 0.0:
                output.append(e)
            s, d_s = e, d_e
        cp1 = cp2
    return output


def polygon_area(poly) -> float:
    """Signed shoelace area."""
    if len(poly) < 3:
        return 0.0
    acc = 0.0
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        acc += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return 0.5 * acc


# -- segment splitting and Whitney functionals ---------------------------


def segment_crossings(geom: MeshGeometry, a, b) -> list[float]:
    """Parameters in (0, 1) where segment a->b crosses a mesh edge.

    Spurious extra parameters are harmless (splitting never changes the
    integral); the point is not to miss genuine crossings, so the edge-range
    test is generous.  Nearly parallel pairs are skipped: a segment riding
    along an edge needs no split at that edge.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r = b - a
    ec = geom.edge_coords
    p = ec[:, 0]
    s = ec[:, 1] - ec[:, 0]
    denom = r[0] * s[:, 1] - r[1] * s[:, 0]
    lengths = np.linalg.norm(s, axis=1)
    ok = np.abs(denom) > 1e-12 * np.linalg.norm(r) * lengths
    if not np.any(ok):
        return []
    qp = p - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / denom
        u = (qp[:, 0] * r[1] - qp[:, 1] * r[0]) / denom
    keep = ok & (u >= -1e-9) & (u <= 1.0 + 1e-9) & (t > PARAM_TOL) & (t < 1.0 - PARAM_TOL)
    return sorted(float(x) for x in t[keep])


def _merged_params(ts) -> list[float]:
    out = [0.0]
    for t in ts:
        if t - out[-1] > PARAM_TOL:
            out.append(t)
    if 1.0 - out[-1] > PARAM_TOL:
        out.append(1.0)
    else:
        out[-1] = 1.0
    return out


def segment_functional(geom: MeshGeometry, a, b) -> dict[int, float]:
    """Row of edge-index weights for alpha -> integral of W(alpha) over a->b.

    Pieces outside the mesh contribute zero (the interpolant is extended by
    zero off the mesh).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    if is_degenerate([a, b]):
        return {}
    params = _merged_params(segment_crossings(geom, a, b))
    out: dict[int, float] = {}
    for t0, t1 in zip(params, params[1:]):
        mid = a + 0.5 * (t0 + t1) * d
        t = geom.locate(mid)
        if t is None:
            continue
        G = geom.gradients[t]
        edges = geom.triangle_edges[t]
        h = t1 - t0
        for node, w in zip(GAUSS3_NODES, GAUSS3_WEIGHTS):
            lam = geom.barycentric(t, a + (t0 + node * h) * d)
            for local, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
                val = w * h * float((lam[i] * G[j] - lam[j] * G[i]) @ d)
                if val != 0.0:
                    e = int(edges[local])
                    out[e] = out.get(e, 0.0) + val
    return out


def triangle_functional(geom: MeshGeometry, pts, *,
                        allow_exterior: bool = False) -> dict[int, float]:
    """Row of triangle-index weights for alpha -> integral of W(alpha).

    ``pts`` are the three (ordered) corner points of the image triangle; its
    orientation sign multiplies every overlap.  With strict clipping, any
    image area falling outside the mesh raises OutsideDomainError.
    """
    p = np.asarray(pts, dtype=float)
    if is_degenerate(p):
        return {}
    e1 = p[1] - p[0]
    e2 = p[2] - p[0]
    area_img = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    sign_img = 1.0 if area_img > 0 else -1.0
    subject = [tuple(q) for q in p]

    lo = p.min(axis=0)
    hi = p.max(axis=0)
    corners = geom.corners
    cand = np.nonzero(
        (corners[:, :, 0].min(axis=1) <= hi[0])
        & (corners[:, :, 0].max(axis=1) >= lo[0])
        & (corners[:, :, 1].min(axis=1) <= hi[1])
        & (corners[:, :, 1].max(axis=1) >= lo[1])
    )[0]

    out: dict[int, float] = {}
    covered = 0.0
    for t in cand:
        poly = clip_polygon(subject, geom.ccw_corners(int(t)))
        if len(poly) < 3:
            continue
        overlap = abs(polygon_area(poly))
        if overlap == 0.0:
            continue
        covered += overlap
        out[int(t)] = out.get(int(t), 0.0) + sign_img * overlap / geom.signed_area[t]
    if not allow_exterior and covered < abs(area_img) * (1.0 - 1e-9):
        raise OutsideDomainError(
            f"image triangle area {abs(area_img):.3e} only overlaps the mesh "
            f"by {covered:.3e}"
        )
    return out


def chain_functional(geom: MeshGeometry, chain: SingularChain, *,
                     allow_exterior: bool = False) -> dict[int, float]:
    """Functional row for a singular chain of dimension 1 or 2."""
    out: dict[int, float] = {}
    for c, s in chain.terms:
        pts = s.array()
        if chain.dim == 1:
            row = segment_functional(geom, pts[0], pts[1])
        elif chain.dim == 2:
            row = triangle_functional(geom, pts, allow_exterior=allow_exterior)
        else:
            raise ValueError(f"cannot integrate Whitney forms over dimension {chain.dim}")
        for i, w in row.items():
            out[i] = out.get(i, 0.0) + c * w
    return {i: w for i, w in out.items() if w != 0.0}


def integrate_whitney(geom: MeshGeometry, alpha: Cochain, chain: SingularChain, *,
                      allow_exterior: bool = False) -> float:
    """Integral of the Whitney interpolant of alpha over a singular chain."""
    if alpha.dim != chain.dim:
        raise ValueError("cochain degree must match chain dimension")
    row = chain_functional(geom, chain, allow_exterior=allow_exterior)
    return float(sum(alpha.values[i] * w for i, w in row.items()))


# -- infinite cones ------------------------------------------------------


def point_segment_distance(p, a, b) -> float:
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ d / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * d)))


def truncate_cone(geom: MeshGeometry, cone: InfiniteCone,
                  factor: float = 10.0) -> LinearSimplex | None:
    """Finite proxy simplex whose integral equals the cone's.

    Non-apex points are pushed out radially by a common scale chosen so the
    truncation face stays at least ``factor`` mesh diagonals away from the
    apex; since the mesh (and hence the integrand's support) sits well inside
    that radius, the clipped integral is independent of the scale.  Returns
    None for degenerate cones, which integrate to zero.
    """
    pts = cone.array()
    if is_degenerate(pts):
        return None
    apex = pts[0]
    w = pts[1:] - apex
    radius = factor * geom.diagonal
    if cone.dim == 1:
        reach = float(np.linalg.norm(w[0]))
    else:
        reach = point_segment_distance((0.0, 0.0), w[0], w[1])
    if reach == 0.0:
        return None
    s = max(radius / reach, 1.0)
    return LinearSimplex.from_points([apex, *(apex + s * w)])


def cone_functional(geom: MeshGeometry, cone: InfiniteCone,
                    factor: float = 10.0) -> dict[int, float]:
    """Functional row for a single infinite cone (via its truncated proxy)."""
    proxy = truncate_cone(geom, cone, factor)
    if proxy is None:
        return {}
    pts = proxy.array()
    if cone.dim == 1:
        return segment_functional(geom, pts[0], pts[1])
    if cone.dim == 2:
        return triangle_functional(geom, pts, allow_exterior=True)
    raise ValueError(f"cannot integrate Whitney forms over cone dimension {cone.dim}")


def cone_chain_functional(geom: MeshGeometry, chain: ConeChain,
                          factor: float = 10.0) -> dict[int, float]:
    out: dict[int, float] = {}
    for c, cone in chain.terms:
        for i, w in cone_functional(geom, cone, factor).items():
            out[i] = out.get(i, 0.0) + c * w
    return {i: w for i, w in out.items() if w != 0.0}
