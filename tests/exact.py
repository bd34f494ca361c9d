"""Exact rational reference rows for the Whitney functionals.

Every float is an exact dyadic rational, so the integral of a Whitney
interpolant over a linear singular simplex with float corners is a rational
number.  This module computes it in ``fractions.Fraction``, one mesh triangle
at a time, and shares no code with ``decpotentials.singular``:

* an image triangle, or any convex image polygon, weighs ``sign |S n T| / A_T``
  in mesh triangle T, with the overlap from a Sutherland-Hodgman clip of S
  against T and the signed area A_T;
* a segment's piece in T runs over the parameters where it lies in T (a
  parametric clip against T's three edge lines), between barycentric ends
  beta and beta', and adds ``beta_i beta'_j - beta_j beta'_i`` to local edge
  ij; a piece along a mesh edge counts only in the edge's lowest-index
  triangle, and a piece outside the mesh counts nowhere.

``exact_row`` sums a chain of (coefficient, points) terms into a row.
"""

from fractions import Fraction

LOCAL_EDGES = ((0, 1), (0, 2), (1, 2))


def _q(p):
    return (Fraction(float(p[0])), Fraction(float(p[1])))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class ExactMesh:
    """A mesh's triangles in rationals, with each edge's lowest-index triangle."""

    def __init__(self, complex):
        coords = complex.coordinates
        self.triangles = [tuple(t) for t in complex.simplices(2)]
        self.corners = [[_q(coords[v]) for v in t] for t in self.triangles]
        self.edge_index = {e: i for i, e in enumerate(complex.simplices(1))}
        self.lowest = {}
        for t, tri in enumerate(self.triangles):
            for i, j in LOCAL_EDGES:
                self.lowest.setdefault((tri[i], tri[j]), t)
        self.boxes = [(min(p[0] for p in c), max(p[0] for p in c),
                       min(p[1] for p in c), max(p[1] for p in c)) for c in self.corners]

    def near(self, pts):
        """Triangles whose bounding boxes meet that of the points."""
        x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
        y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
        return [t for t, (a, b, c, d) in enumerate(self.boxes)
                if a <= x1 and b >= x0 and c <= y1 and d >= y0]

    def barycentric(self, t, p):
        a, b, c = self.corners[t]
        area = _cross(a, b, c)
        return (_cross(p, b, c) / area, _cross(a, p, c) / area, _cross(a, b, p) / area)


def _clip(subject, clipper):
    """Sutherland-Hodgman of a polygon against a CCW triangle, in rationals."""
    out = list(subject)
    for k in range(3):
        c1, c2 = clipper[k - 1], clipper[k]
        src, out = out, []
        for i, q in enumerate(src):
            p = src[i - 1]
            dp, dq = _cross(c1, c2, p), _cross(c1, c2, q)
            if (dq >= 0) != (dp >= 0):
                t = dp / (dp - dq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            if dq >= 0:
                out.append(q)
        if not out:
            return []
    return out


def _area(poly):
    return sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly[-1:] + poly[:-1], poly)) / 2


def polygon_row(mesh: ExactMesh, points, row: dict, coeff=1) -> None:
    """Add ``coeff`` times the exact row of a convex image polygon (a triangle
    or a strictly convex quadrilateral)."""
    pts = [_q(p) for p in points]
    sign = _area(pts)
    if sign == 0:
        return
    for t in mesh.near(pts):
        corners = mesh.corners[t]
        area = _cross(*corners)
        ccw = corners if area > 0 else corners[::-1]
        overlap = abs(_area(_clip(pts, ccw)))
        if overlap:
            w = (1 if sign > 0 else -1) * overlap * 2 / area
            row[t] = row.get(t, 0) + coeff * w


def segment_row(mesh: ExactMesh, points, row: dict, coeff=1, along=None) -> None:
    """Add ``coeff`` times the exact row of a segment, keyed by edge index;
    into the set ``along``, if given, add the other two edges of the lowest
    triangle of each edge that a piece runs along."""
    a, b = (_q(p) for p in points)
    if a == b:
        return
    r = (b[0] - a[0], b[1] - a[1])
    for t in mesh.near((a, b)):
        corners = mesh.corners[t]
        area = _cross(*corners)
        lo, hi = Fraction(0), Fraction(1)
        for k in range(3):
            # the edge opposite corner k: inside where its side has area's sign
            p, q = corners[(k + 1) % 3], corners[(k + 2) % 3]
            fa, fb = _cross(p, q, a) * area, _cross(p, q, b) * area
            if min(fa, fb) < 0 and max(fa, fb) <= 0:
                lo, hi = 1, 0
                break
            if fa < 0 or fb < 0:
                s = fa / (fa - fb)
                lo, hi = (max(lo, s), hi) if fa < 0 else (lo, min(hi, s))
        if hi <= lo:
            continue
        beta = [mesh.barycentric(t, (a[0] + s * r[0], a[1] + s * r[1])) for s in (lo, hi)]
        tri = mesh.triangles[t]
        on = [k for k in range(3) if beta[0][k] == 0 and beta[1][k] == 0]
        if on and along is not None:
            i, j = (k for k in range(3) if k != on[0])
            if mesh.lowest[(tri[i], tri[j])] == t:
                along.update(mesh.edge_index[(tri[a], tri[b])] for a, b in LOCAL_EDGES
                             if on[0] in (a, b))
        for i, j in LOCAL_EDGES:
            if on and (on[0] in (i, j) or mesh.lowest[(tri[i], tri[j])] != t):
                continue
            w = beta[0][i] * beta[1][j] - beta[0][j] * beta[1][i]
            if w:
                e = mesh.edge_index[(tri[i], tri[j])]
                row[e] = row.get(e, 0) + coeff * w


def exact_row(mesh: ExactMesh, terms, along=None) -> dict:
    """Exact row of a chain of (coefficient, points) terms of one dimension;
    ``along`` is passed to ``segment_row``."""
    row: dict = {}
    for coeff, points in terms:
        c = Fraction(float(coeff))
        if len(points) == 2:
            segment_row(mesh, points, row, c, along)
        else:
            polygon_row(mesh, points, row, c)
    return row
