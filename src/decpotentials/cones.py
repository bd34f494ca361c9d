"""Cone operators: the algebraic engines behind discrete potentials.

A cone operator sends each k-simplex of a complex to a (k+1)-dimensional
object "filling" it toward a distinguished point or vertex:

* ``collapse_cone``   -- simplicial chains, from a collapse sequence;
* ``contraction_cone``-- simplicial chains, pushing extruded prisms through a
                         discrete contraction, given as a vertex function on
                         the product vertices, in the slabs where the
                         simplex's image moves;
* ``star_cone``       -- linear singular simplices joining a star point;
* ``lipschitz_cone``  -- linear singular chains, pushing extruded prisms
                         through a piecewise (per-slab) contraction map;
* ``infinite_cone``   -- infinite cones from a base point;
* ``shadow_cone``     -- star cone minus infinite cone, as bounded shadows.

Every simplicial cone operator Co satisfies the chain homotopy identity
``boundary(Co(c)) + Co(boundary(c)) = c`` in dimensions >= 1 and
``boundary(Co(v)) = v - a`` for vertices, exactly.  The singular analogues
satisfy the same identities up to degenerate simplices (which integrate to
zero and are deliberately kept in the stored chains so that formal boundary
cancellation still works).  Singular cones are index arrays into one point
table, and their chain tables are built only when read.  The prism-based
cones never build the product complex: ``lipschitz_cone`` reads
``ProductComplex.prism_rows``, and ``contraction_cone`` visits only the
slabs in which a vertex of the simplex changes image, since every prism of
any other slab is degenerate.  ``lipschitz_cone`` evaluates its contraction
once per (vertex, breakpoint), into one table that both the endpoint and
containment checks and the cone's points are read from; containment in the
mesh is always checked, with a geometry built when none is given.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .homotopy import (
    CollapseSequence,
    ProductComplex,
    checked_breakpoints,
    validate_collapse_sequence,
)
from .simplicial import (
    Chain,
    Simplex,
    SimplicialComplex,
    canonical_simplex,
    facets_of,
)
from .singular import ConeChain, InfiniteCone, LinearSimplex, SingularChain, shadow_pieces
from .whitney import MeshGeometry


class _ConeOperatorBase:
    """Shared table plumbing: canonical lookup and linear extension."""

    def chain(self, vertices):
        """Cone of a single (arbitrarily ordered) simplex."""
        t, sign = canonical_simplex(vertices)
        result = self.table[t]
        return result if sign == 1 else sign * result

    def apply(self, chain: Chain):
        out = None
        for s, c in chain.terms.items():
            piece = c * self.table[s]
            out = piece if out is None else out + piece
        if out is None:
            return self._zero(chain.dim + 1)
        return out


class SimplicialConeOperator(_ConeOperatorBase):
    """Cone operator with simplicial chain values and a contraction vertex."""

    def __init__(self, complex: SimplicialComplex, vertex: int, table: dict):
        self.complex = complex
        self.vertex = vertex
        self.table = table

    def _zero(self, dim):
        return Chain(self.complex, dim, {})


class SingularConeOperator(_ConeOperatorBase):
    """Cone operator with linear singular chain values and a base point.

    ``points`` is a (P, 2) float array.  For each simplex dimension k,
    ``terms[k] = (rows, coeffs, corners)`` lists the cone terms: row
    ``rows[i]`` (ascending) of the k-simplices gets ``coeffs[i]`` times the
    singular simplex on ``points[corners[i]]``.  ``table`` holds the same
    terms as one chain per simplex, built on first read.
    """

    _element, _chain_type = LinearSimplex, SingularChain

    def __init__(self, complex: SimplicialComplex, point, points: np.ndarray, terms: dict):
        self.complex = complex
        self.point = np.asarray(point, dtype=float)
        self.points = points
        self.terms = terms

    @cached_property
    def table(self) -> dict:
        pool = list(map(tuple, self.points.tolist()))  # one tuple per point, shared
        table = {}
        for k, (rows, coeffs, corners) in self.terms.items():
            chains = [self._chain_type(k + 1) for _ in range(self.complex.num_simplices(k))]
            for r, c, ids in zip(rows.tolist(), coeffs.tolist(), corners.tolist()):
                chains[r].terms.append((c, self._element(tuple([pool[i] for i in ids]))))
            table.update(zip(self.complex.simplices(k), chains))
        return table

    def _zero(self, dim):
        return self._chain_type(dim, [])


class InfiniteConeOperator(SingularConeOperator):
    """Cone operator with infinite-cone values from a base point."""

    _element, _chain_type = InfiniteCone, ConeChain


# -- collapse-based cones ------------------------------------------------


def collapse_cone(seq: CollapseSequence) -> SimplicialConeOperator:
    """Cone operator from a collapse sequence, built in expansion order.

    Growing the complex back step by step, the new coface starts with cone
    zero and the freed face records the coface corrected by the cone of the
    remaining boundary; the terminal vertex also has cone zero.
    """
    if not validate_collapse_sequence(seq):
        raise ValueError("invalid collapse sequence")
    cx = seq.complex
    table: dict[Simplex, Chain] = {(seq.terminal,): Chain(cx, 1, {})}
    for sigma, tau in reversed(seq.steps):
        table[sigma] = Chain(cx, len(sigma), {})
        # Co(tau) = eps * (sigma - Co(rest)), where boundary(sigma) = eps*tau + rest
        facets = facets_of(sigma)
        eps = (-1) ** facets.index(tau)
        out: dict[Simplex, int] = {sigma: eps}
        for i, f in enumerate(facets):
            if f != tau:
                c = eps * (-1) ** i
                for t, x in table[f].terms.items():
                    out[t] = out.get(t, 0) - c * x
        table[tau] = Chain(cx, len(tau), out, check=False)
    return SimplicialConeOperator(cx, seq.terminal, table)


def contraction_cone(psi: Callable[[int], int],
                     product: ProductComplex) -> SimplicialConeOperator:
    """Cone operator from a discrete contraction of the product complex.

    ``psi`` is any function from product vertex ids to base vertices that
    is the identity at the top level and constant at level 0.  The prisms of
    each base simplex are pushed through it: every prism's image must be a
    simplex of the base (every product simplex is a face of a prism, so
    ``psi`` is simplicial), and the non-degenerate images form the cone.

    Only the slabs in which the image of one of the simplex's vertices moves
    are visited.  In any other slab each prism repeats a vertex image, so it
    is degenerate and its support is the simplex's image, which is constant
    from one moving slab to the next; the first and last prisms of a moving
    slab contain the whole image at its upper and lower level, so checking
    the moving slabs checks every prism.
    """
    base = product.base
    top = product.n_slabs
    stride = product.stride
    moves: dict[int, list[int]] = {}  # vertex -> slabs where its image changes
    values: dict[int, list[int]] = {}  # vertex -> image below each move, then above the last
    for (v,) in base.simplices(0):
        row = [psi(product.vertex_id(v, level)) for level in range(top + 1)]
        moves[v] = [r for r in range(top) if row[r] != row[r + 1]]
        values[v] = [row[r] for r in moves[v]] + [row[top]]
    bottom_images = {images[0] for images in values.values()}
    if len(bottom_images) != 1:
        raise ValueError("contraction is not constant at level 0")
    if any(images[-1] != v for v, images in values.items()):
        raise ValueError("contraction is not the identity at the top level")
    (vertex,) = bottom_images

    def image(v: int, level: int) -> int:
        return values[v][bisect_left(moves[v], level)]

    table: dict[Simplex, Chain] = {}
    for k, simplices in base.simplices_by_dim.items():
        for s in simplices:
            out: dict[Simplex, int] = {}
            for r in sorted(set().union(*(moves[v] for v in s))):
                lo = [image(v, r) for v in s]
                hi = [image(v, r + 1) for v in s]
                for i in range(k + 1):
                    prism_image = lo[: i + 1] + hi[i:]
                    support = tuple(sorted(set(prism_image)))
                    if support not in base:
                        prism = tuple([r * stride + v for v in s[: i + 1]]
                                      + [(r + 1) * stride + v for v in s[i:]])
                        raise ValueError(f"not a simplicial map: prism {prism} over {s} "
                                         f"maps to {support}, which is not a base simplex")
                    if len(support) == k + 2:
                        t, perm = canonical_simplex(prism_image)
                        out[t] = out.get(t, 0) + perm * (-1) ** i
            table[s] = Chain(base, k + 1, out, check=False)
    return SimplicialConeOperator(base, vertex, table)


# -- geometric cones -----------------------------------------------------


def _join(point, complex: SimplicialComplex, operator):
    """Every simplex joined to a point, apex first, as one term per simplex."""
    coords = complex.coordinates
    if coords is None:
        raise ValueError("complex has no vertex coordinates")
    a = np.asarray(point, dtype=float)
    terms = {k: (np.arange(len(r)), np.ones(len(r), dtype=np.int64),
                 np.insert(r + 1, 0, 0, axis=1)) for k, r in complex._rows.items()}
    return operator(complex, a, np.concatenate([a[None], coords]), terms)


def star_cone(point, complex: SimplicialComplex) -> SingularConeOperator:
    """Join every simplex to a star point by a linear singular simplex.

    Simplices whose join with the point is degenerate keep their (degenerate)
    simplex in the table; it integrates to zero.
    """
    return _join(point, complex, SingularConeOperator)


def infinite_cone(point, complex: SimplicialComplex) -> InfiniteConeOperator:
    """Infinite cone from a base point over every simplex."""
    return _join(point, complex, InfiniteConeOperator)


def shadow_cone(point, complex: SimplicialComplex, geometry) -> SingularConeOperator:
    """Star cone minus infinite cone from a base point: every vertex and edge
    maps to its negated shadow pieces (``singular.shadow_pieces``)."""
    star = star_cone(point, complex)
    pieces, terms = [], {}
    for k in range(complex.dim):
        owner, piece = shadow_pieces(geometry, star.points[star.terms[k][2]])
        corners = sum(map(len, pieces)) + np.arange(piece.size // 2).reshape(-1, k + 2)
        terms[k] = (owner, np.full(len(owner), -1), corners)
        pieces.append(piece.reshape(-1, 2))
    return SingularConeOperator(complex, star.point, np.concatenate(pieces), terms)


class SlabAffineContraction:
    """Contraction of the plane onto a point, described slab by slab in time.

    Between consecutive breakpoints the map may be given by an affine matrix
    acting on homogeneous ``(x, y, t, 1)`` input, or by an arbitrary callable
    (used for the built-in contractions, whose slabs are bilinear in space
    and time).  Only evaluations at mesh vertices and breakpoints enter the
    cone construction, which interpolates affinely in between.
    """

    def __init__(self, breakpoints: Sequence[float], evaluate: Callable,
                 point, matrices=None):
        self.breakpoints = checked_breakpoints(breakpoints)
        self._evaluate = evaluate
        self.point = np.asarray(point, dtype=float)
        self.matrices = matrices

    def __call__(self, xy, t: float) -> np.ndarray:
        return np.asarray(self._evaluate(np.asarray(xy, dtype=float), float(t)),
                          dtype=float)

    @classmethod
    def straight_line(cls, point) -> "SlabAffineContraction":
        a = np.asarray(point, dtype=float)

        def ev(xy, t):
            return (1.0 - t) * a + t * xy

        return cls((0.0, 1.0), ev, a)

    @classmethod
    def ushape(cls, point) -> "SlabAffineContraction":
        """Axis-aligned two-stage contraction: horizontal first, then vertical.

        For t in [0, 1/2] the image slides along the horizontal line through
        the target point; for t in (1/2, 1] it rises vertically to the
        identity.  Suited to meshes whose domain is an axis-aligned union of
        rectangles containing that horizontal line.
        """
        a = np.asarray(point, dtype=float)

        def ev(xy, t):
            if t <= 0.5:
                return np.array([(1.0 - 2.0 * t) * a[0] + 2.0 * t * xy[0], a[1]])
            return np.array([xy[0], 2.0 * (1.0 - t) * a[1] + (2.0 * t - 1.0) * xy[1]])

        return cls((0.0, 0.5, 1.0), ev, a)

    @classmethod
    def from_matrices(cls, breakpoints, matrices, point) -> "SlabAffineContraction":
        times = tuple(float(t) for t in breakpoints)
        mats = [np.array(m, dtype=float) for m in matrices]
        if len(mats) != len(times) - 1:
            raise ValueError("need one matrix per slab")
        for m in mats:
            if m.shape != (2, 4):
                raise ValueError("slab matrices must be 2x4 (homogeneous x, y, t, 1)")

        def ev(xy, t, _times=times, _mats=mats):
            i = min(max(bisect_right(_times, t) - 1, 0), len(_mats) - 1)
            return _mats[i] @ np.array([xy[0], xy[1], t, 1.0])

        self = cls(times, ev, np.asarray(point, dtype=float), matrices=mats)
        self._check_matrix_continuity()
        return self

    def _check_matrix_continuity(self):
        for i in range(len(self.matrices) - 1):
            t = self.breakpoints[i + 1]
            a, b = self.matrices[i], self.matrices[i + 1]
            # restriction to the plane {time = t}: x/y columns plus t*tcol+const
            ra = np.column_stack([a[:, 0], a[:, 1], a[:, 2] * t + a[:, 3]])
            rb = np.column_stack([b[:, 0], b[:, 1], b[:, 2] * t + b[:, 3]])
            if np.max(np.abs(ra - rb)) > 1e-10:
                raise ValueError(f"slab maps disagree at breakpoint {t}")

    def to_json(self) -> dict:
        if self.matrices is None:
            raise ValueError("only matrix-based contractions can be serialized")
        return {
            "breakpoints": list(self.breakpoints),
            "slabs": [{"matrix": m.tolist()} for m in self.matrices],
            "point": [float(self.point[0]), float(self.point[1])],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SlabAffineContraction":
        return cls.from_matrices(
            data["breakpoints"],
            [slab["matrix"] for slab in data["slabs"]],
            data["point"],
        )

    @classmethod
    def load(cls, path) -> "SlabAffineContraction":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _checked_images(phi: SlabAffineContraction, complex: SimplicialComplex, geometry):
    """(V, B, 2) images of the vertices, in row order, at each breakpoint,
    and the endpoint and containment issues read off them."""
    coords = complex.coordinates
    if coords is None:
        raise ValueError("complex has no vertex coordinates")
    if geometry is None:
        geometry = MeshGeometry(complex)
    vertices = complex._rows[0][:, 0]
    images = np.array([[phi(x, t) for t in phi.breakpoints] for x in coords[vertices]])
    moved = np.max(np.abs(images[:, -1] - coords[vertices]), axis=1) > 1e-10
    unbased = np.max(np.abs(images[:, 0] - phi.point), axis=1) > 1e-10
    # (vertex, breakpoint) images, and (vertex, slab) path midpoints, each
    # located in one probe of the grid
    escaped = geometry.locate_all(images, tol=1e-9).reshape(images.shape[:2]) < 0
    midpoints = 0.5 * (images[:, :-1] + images[:, 1:])
    cut = geometry.locate_all(midpoints, tol=1e-9).reshape(midpoints.shape[:2]) < 0
    issues = []
    for n, v in enumerate(vertices.tolist()):
        if moved[n]:
            issues.append(f"phi(vertex {v}, 1) != identity")
        if unbased[n]:
            issues.append(f"phi(vertex {v}, 0) != base point")
        issues += [f"phi(vertex {v}, {t}) leaves the mesh"
                   for t, out in zip(phi.breakpoints, escaped[n]) if out]
        issues += [f"interpolated path of vertex {v} leaves the mesh"
                   for out in cut[n] if out]
    return images, issues


def validate_contraction(phi: SlabAffineContraction, complex: SimplicialComplex,
                         geometry=None) -> list[str]:
    """Endpoint and containment checks at mesh vertices.

    Containment is probed at the breakpoints and at the midpoint of each
    vertex path segment: the cone construction interpolates affinely between
    breakpoint images, so on a nonconvex domain a segment can leave the mesh
    even though its endpoints stay inside.  Without a geometry, one is built.
    """
    return _checked_images(phi, complex, geometry)[1]


def lipschitz_cone(phi: SlabAffineContraction, complex: SimplicialComplex,
                   geometry=None) -> SingularConeOperator:
    """Singular cone operator from a per-slab contraction map.

    The interval is subdivided exactly at the contraction's breakpoints;
    each extruded prism becomes the linear singular simplex on its vertex
    images, i.e. the affine interpolation of the contraction per prism.
    Degenerate image simplices are kept (they matter for formal boundary
    cancellation, and integrate to zero).  The contraction is evaluated once
    per (vertex, breakpoint) and checked by ``validate_contraction``.
    """
    images, issues = _checked_images(phi, complex, geometry)
    if issues:
        raise ValueError("invalid contraction: " + "; ".join(issues[:5]))

    product = ProductComplex(complex, phi.breakpoints)
    # vertex images by product vertex id
    points = np.zeros((len(product.times), product.stride, 2))
    points[:, complex._rows[0][:, 0]] = images.swapaxes(0, 1)
    # each base simplex's prisms, slab by slab, with the signs of prism_rows
    terms = {k: (np.repeat(np.arange(len(rows)), product.n_slabs * (k + 1)),
                 np.tile((-1) ** np.arange(k + 1), len(rows) * product.n_slabs),
                 product.prism_rows(rows).swapaxes(0, 1).reshape(-1, k + 2))
             for k, rows in complex._rows.items()}
    return SingularConeOperator(complex, phi.point, points.reshape(-1, 2), terms)
