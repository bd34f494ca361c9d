"""Cone operators: the algebraic engines behind discrete potentials.

A cone operator sends each k-simplex of a complex to a (k+1)-dimensional
object "filling" it toward a distinguished point or vertex:

* ``collapse_cone``   -- simplicial chains, from a collapse sequence;
* ``strong_collapse_cone`` -- the same, from a strong collapse's steps;
* ``contraction_cone``-- simplicial chains, pushing extruded prisms through a
                         discrete contraction of the product vertices, in
                         the slabs where the simplex's image moves;
* ``star_cone``       -- linear singular simplices joining a star point;
* ``lipschitz_cone``  -- linear singular chains, pushing extruded prisms
                         through a contraction's breakpoint maps;
* ``infinite_cone``   -- infinite cones from a base point;
* ``shadow_cone``     -- star cone minus infinite cone, as bounded shadows.

Every simplicial cone operator Co satisfies the chain homotopy identity
``boundary(Co(c)) + Co(boundary(c)) = c`` in dimensions >= 1 and
``boundary(Co(v)) = v - a`` for vertices, exactly.  The singular analogues
satisfy the same identities up to degenerate simplices (which integrate to
zero and are deliberately kept in the stored chains so that formal boundary
cancellation still works).  Every cone is stored as index arrays per simplex
dimension: (row, column, coefficient) of each term for simplicial cones, and
(row, coefficient, corners) into one point table for singular ones; chain
tables are built only when read.  The prism-based cones never build the
product complex.  A strong collapse's cone is read off its steps by their
recurrence, one numpy walk per degree whose checks validate the sequence,
also in ``contraction_cone``; any other contraction it samples once into a
table of every vertex's image at every level, and pushes the prisms of the
slabs where a vertex of the simplex moves through that table in numpy,
every other prism being degenerate.  ``lipschitz_cone`` reads
``ProductComplex.prism_rows`` and maps every vertex at every breakpoint in
one array expression, into one table that the endpoint and containment
checks (always made, with a geometry built when none is given) and the
cone's points are read from.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from bisect import bisect_right
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .homotopy import (
    CollapseSequence,
    ProductComplex,
    StrongCollapseSequence,
    _replay,
    checked_breakpoints,
)
from .simplicial import (
    Chain,
    SimplicialComplex,
    canonical_simplex,
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
    """Cone operator with simplicial chain values and a contraction vertex.

    ``terms[k] = (rows, cols, coeffs)``, int64 arrays: row ``rows[i]``
    (ascending) of the k-simplices gets ``coeffs[i]`` times (k+1)-simplex
    ``cols[i]``.  ``table`` holds them, in order, as chains built when read.
    """

    def __init__(self, complex: SimplicialComplex, vertex: int, terms: dict):
        self.complex = complex
        self.vertex = vertex
        self.terms = terms

    @cached_property
    def table(self) -> dict:
        cx, table = self.complex, {}
        for k, (rows, cols, coeffs) in self.terms.items():
            targets = cx.simplices(k + 1)
            chains = [Chain(cx, k + 1) for _ in range(cx.num_simplices(k))]
            for r, c, x in zip(rows.tolist(), cols.tolist(), coeffs.tolist()):
                chains[r].terms[targets[c]] = x
            table.update(zip(cx.simplices(k), chains))
        return table

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
    star = False  # every term joins the point to a simplex (``star_cone``)

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
    replay = _replay(seq)
    if replay is None:
        raise ValueError("invalid collapse sequence")
    steps, facets = replay
    cx = seq.complex
    cone: dict[int, list] = {k: [None] * len(r) for k, r in cx._rows.items()}
    cone[0][int(cx.positions(0, [seq.terminal])[0])] = {}
    for k, sigma, tau in reversed(steps):
        cone[k + 1][sigma] = {}
        # Co(tau) = eps * (sigma - Co(rest)), where boundary(sigma) = eps*tau + rest
        faces, lower = facets[k + 1][sigma], cone[k]
        eps = (-1) ** faces.index(tau)
        out: dict[int, int] = {sigma: eps}
        for i, f in enumerate(faces):
            if f != tau:
                c = eps * (-1) ** i
                for t, x in lower[f].items():
                    out[t] = out.get(t, 0) - c * x
        lower[tau] = {t: x for t, x in out.items() if x}
    terms = {}
    for k in cx._rows:
        chains, cone[k] = cone[k], None
        sizes = np.fromiter(map(len, chains), dtype=np.int64, count=len(chains))
        terms[k] = (np.repeat(np.arange(len(chains), dtype=np.int64), sizes),
                    *(np.fromiter(itertools.chain.from_iterable(map(part, chains)), dtype=np.int64,
                                  count=sizes.sum()) for part in (dict.keys, dict.values)))
    return SimplicialConeOperator(cx, seq.terminal, terms)


def strong_collapse_cone(seq: StrongCollapseSequence) -> SimplicialConeOperator:
    """Cone operator of a strong collapse, read off its steps: step j retracts
    v_j onto w_j, so ``C(tau) = [w_j, tau] + s C(tau[v_j -> w_j])``, v_j the
    first removed vertex of tau and s the sign that sorts the next row, or 0
    when w_j is in tau or tau is the terminal.  Its checks (w_j joins every
    live simplex holding v_j: it dominates v_j) and a terminal never removed
    are ``validate_strong_collapse_sequence``; a ``ValueError`` names the first
    bad step."""
    steps = np.array(seq.steps, dtype=np.int64).reshape(-1, 2).T
    terms = _strong_collapse_terms(seq.complex, steps)
    left = np.setdiff1d(seq.complex._rows[0][:, 0], steps[0]).tolist()
    if left != [seq.terminal]:
        raise ValueError(f"not a strong collapse to vertex {seq.terminal}: the steps leave "
                         f"vertices {left[:4]}{'...' if len(left) > 4 else ''}")
    return SimplicialConeOperator(seq.complex, left[0], terms)


def contraction_cone(psi: Callable[[int], int],
                     product: ProductComplex) -> SimplicialConeOperator:
    """Cone operator from a discrete contraction of the product complex.

    ``psi`` is any function from product vertex ids to base vertices that
    is the identity at the top level and constant at level 0.  The prisms of
    each base simplex are pushed through it: every prism's image must be a
    simplex of the base (every product simplex is a face of a prism, so
    ``psi`` is simplicial), and the non-degenerate images form the cone.

    A strong collapse's ``psi`` carries its ``steps``.  When they fit the
    product (one slab per step), leave one vertex and pass the recurrence's
    checks, the cone is ``strong_collapse_cone``'s and ``psi`` is never
    called.  Any other ``psi`` is sampled once per (vertex, level) into one
    image table, whose first and last rows are checked, and swept
    (``_swept_terms``).  Both give the same terms in the same order.
    """
    base, ids = product.base, product.base._rows[0][:, 0]
    steps = getattr(psi, "steps", None)
    if steps is not None and product.n_slabs == max(steps.shape[1], 1):
        left = np.setdiff1d(ids, steps[0])
        if len(left) == 1:
            with contextlib.suppress(ValueError):  # the sweep names the bad prism
                return SimplicialConeOperator(base, int(left[0]),
                                              _strong_collapse_terms(base, steps))
    image = np.array([[psi(product.vertex_id(u, level)) for u in ids.tolist()]
                      for level in range(product.n_slabs + 1)], dtype=np.int64)
    if (image[0] != image[0, 0]).any():
        raise ValueError("contraction is not constant at level 0")
    if (image[-1] != ids).any():
        raise ValueError("contraction is not the identity at the top level")
    return SimplicialConeOperator(base, int(image[0, 0]), _swept_terms(product, image))


def _strong_collapse_terms(base: SimplicialComplex, steps: np.ndarray) -> dict:
    """The cone's terms from a strong collapse's (v_j, w_j) ``steps`` columns, all
    rows walking their recurrence at once; a ``ValueError`` names the first step
    that is no elementary strong collapse."""
    ids, m = base._rows[0][:, 0], steps.shape[1]
    step = np.arange(m)
    at = base.positions(0, steps.reshape(-1, 1)).reshape(2, m)
    removal = np.full(len(ids) + 1, m)  # each vertex's first removal step, m for none; -1 is spare
    np.minimum.at(removal, at[0], step)
    bad = np.flatnonzero((at < 0).any(axis=0) | (removal[at[0]] < step) | (removal[at[1]] <= step))
    b = int(bad[0]) if bad.size else m
    removal[removal >= b] = m  # the walk takes the steps before the first bad one
    terms, missing = {}, []
    for k, rows in base._rows.items():
        # each row's first step j, removing its vertex at column p; a row with
        # no step never moves, and one holding w_j is degenerate from there on
        first = removal[np.searchsorted(ids, rows)]
        p, j = first.argmin(axis=1), first.min(axis=1)
        live = np.flatnonzero(j < m)
        live = live[(rows[live] != steps[1, j[live], None]).all(axis=1)]
        r, w, p = rows[live], steps[1, j[live]], p[live]
        below = (r < w[:, None]).sum(axis=1)
        col, nxt = np.full((2, len(rows)), -1)
        col[live] = base.positions(k + 1, np.sort(np.c_[r, w], axis=1)) if k < base.dim else -1
        # a missing join is a fault; else the next rows, faces of the joins, are base simplices
        missing += [(j[i], k, tuple(rows[i].tolist())) for i in live[col[live] < 0].tolist()]
        if missing:
            continue
        r[np.arange(len(r)), p] = w
        nxt[live] = base.positions(k, np.sort(r, axis=1))
        # the join's sign orients (w_j, tau); flip sorts the next row
        sign, flip = np.zeros((2, len(rows)), dtype=np.int64)
        sign[live], flip[live] = 1 - 2 * (below % 2), 1 - 2 * ((below - p - (below > p)) % 2)
        src, cur, run, parts = live, live, np.ones(len(live), dtype=np.int64), [(live[:0],) * 3]
        while cur.size:
            parts.append((src, col[cur], run * sign[cur]))
            run, cur = run * flip[cur], nxt[cur]
            keep = col[cur] >= 0
            src, cur, run = src[keep], cur[keep], run[keep]
        row, col, coeff = map(np.concatenate, zip(*parts[::-1]))  # reverse path order
        order = np.argsort(row, kind="stable")
        terms[k] = (row[order], col[order], coeff[order])
    if missing or b < m:
        j, _, tau = min(missing) if missing else (b, 0, ())
        v, w = steps[:, j].tolist()
        why = (f"{w} does not dominate {v}, so the retraction is not simplicial: the join of "
               f"{w} and {tau} is no simplex" if missing else
               "names a vertex not in the complex" if (at[:, j] < 0).any() else
               f"removes {v} again, after step {removal[at[0, j]]}" if removal[at[0, j]] < j
               else f"retracts {v} onto a removed vertex or itself")
        raise ValueError(f"not a strong collapse: step {j} ({v}, {w}) {why}")
    return terms


def _swept_terms(product: ProductComplex, image: np.ndarray) -> dict:
    """The cone's terms, pushing the prisms of each base simplex through
    ``image[level, i]``, the image of vertex ``i`` (its position) at a level,
    in the slabs where a vertex of the simplex moves: elsewhere each prism
    repeats a vertex image, within the simplex's image, which the first and
    last prisms of a moving slab hold whole."""
    base, ids = product.base, product.base._rows[0][:, 0]
    moving = image[:-1] != image[1:]  # (slab, vertex)
    terms = {}
    for k, rows in base._rows.items():
        at = np.searchsorted(ids, rows)
        # every (simplex, slab) in which a vertex of the simplex moves, in order
        owner, r = np.nonzero(moving[:, at].any(axis=2).T)
        # prism i takes the images of v_0..v_i at level r and of v_i..v_k at r + 1
        pick = np.arange(k + 2) + k * (np.arange(k + 2) > np.arange(k + 1)[:, None])
        images = np.hstack([image[r[:, None] + j, at[owner]] for j in (0, 1)])
        images = images[:, pick].reshape(-1, k + 2)
        # each prism's support: its distinct images, right-aligned after -1
        # padding, looked up among the base simplices of its width; one wider
        # than every base simplex is none of them
        support = np.sort(images, axis=1)
        support[:, 1:][support[:, 1:] == support[:, :-1]] = -1
        support.sort(axis=1)
        width, found = (support >= 0).sum(axis=1), np.full(len(support), -1)
        for w in range(1, min(k + 2, base.dim + 1) + 1):
            sel = np.flatnonzero(width == w)
            found[sel] = base.positions(w - 1, support[sel, -w:])
        bad = np.flatnonzero((found < 0) | (images < 0).any(axis=1))
        if bad.size:
            p, i = divmod(bad[0], k + 1)
            s = tuple(rows[owner[p]].tolist())
            prism = list(product.prisms(s))[r[p] * (k + 1) + i][1]
            raise ValueError(f"not a simplicial map: prism {prism} over {s} maps to "
                             f"{tuple(sorted(set(images[bad[0]].tolist())))}, "
                             "which is not a base simplex")
        # a non-degenerate prism i enters with its sorting parity times (-1)^i,
        # summed per (simplex, term), zeros dropped, in order of first appearance
        live = np.flatnonzero(width == k + 2)
        swaps = np.triu(images[live, :, None] > images[live, None, :]).sum(axis=(1, 2))
        n = max(base.num_simplices(k + 1), 1)  # none at the top degree, where no prism is live
        key, first, inverse = np.unique(owner[live // (k + 1)] * n + found[live],
                                        return_index=True, return_inverse=True)
        sums = np.bincount(inverse, 1 - 2 * ((swaps + live % (k + 1)) % 2), len(key))
        keep = np.flatnonzero(sums)[np.argsort(first[sums != 0])]
        terms[k] = (*np.divmod(key[keep], n), sums[keep].astype(np.int64))
    return terms


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
    simplex in the table; it integrates to zero.  The cone is marked ``star``,
    so an operator on it first checks that the domain is star-shaped.
    """
    cone = _join(point, complex, SingularConeOperator)
    cone.star = True
    return cone


def infinite_cone(point, complex: SimplicialComplex) -> InfiniteConeOperator:
    """Infinite cone from a base point over every simplex."""
    return _join(point, complex, InfiniteConeOperator)


def shadow_cone(point, complex: SimplicialComplex, geometry) -> SingularConeOperator:
    """Star cone minus infinite cone from a base point: every vertex and edge
    maps to its negated shadow pieces (``singular.shadow_pieces``)."""
    star = star_cone(point, complex)
    pieces, terms = [], {}
    for k in range(complex.dim):
        owner, piece = shadow_pieces(geometry, star.points.take(star.terms[k][2], axis=0))
        corners = sum(map(len, pieces)) + np.arange(piece.size // 2).reshape(-1, k + 2)
        terms[k] = (owner, np.full(len(owner), -1), corners)
        pieces.append(piece.reshape(-1, 2))
    return SingularConeOperator(complex, star.point, np.concatenate(pieces), terms)


def _affine(maps: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Images of (..., 2) points under (..., 2, 3) maps of ``(x, y, 1)``, broadcast."""
    return maps[..., 0] * xy[..., :1] + maps[..., 1] * xy[..., 1:] + maps[..., 2]


def _base_point(point) -> np.ndarray:
    """A contraction's point as a float array, which must be two finite numbers."""
    a = np.asarray(point, dtype=float)
    if a.shape != (2,) or not np.isfinite(a).all():
        raise ValueError(
            f"contraction point {tuple(a.ravel().tolist())} is not two finite numbers")
    return a


class SlabAffineContraction:
    """Contraction of the plane onto a point, as affine maps at its breakpoints.

    ``maps[j]`` is the (2, 3) matrix of the contraction at ``breakpoints[j]``,
    acting on homogeneous ``(x, y, 1)`` input; in between, the map is
    interpolated linearly in time.  The cone construction reads only the
    images of mesh vertices at the breakpoints.  A contraction read from
    per-slab matrices keeps them, as ``matrices``, for ``save``.
    """

    def __init__(self, breakpoints: Sequence[float], maps, point, matrices=None):
        self.breakpoints = checked_breakpoints(breakpoints)
        self.maps = np.array(maps, dtype=float)
        if self.maps.shape != (len(self.breakpoints), 2, 3):
            raise ValueError("need one 2x3 map (homogeneous x, y, 1) per breakpoint")
        self.point = _base_point(point)
        self.matrices = matrices

    def __call__(self, xy, t: float) -> np.ndarray:
        times = self.breakpoints
        i = min(max(bisect_right(times, t), 1), len(times) - 1) - 1
        s = (t - times[i]) / (times[i + 1] - times[i])
        return _affine((1.0 - s) * self.maps[i] + s * self.maps[i + 1],
                       np.asarray(xy, dtype=float))

    @classmethod
    def straight_line(cls, point) -> "SlabAffineContraction":
        a = _base_point(point)
        return cls((0.0, 1.0), [[[0.0, 0.0, a[0]], [0.0, 0.0, a[1]]],
                                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], a)

    @classmethod
    def ushape(cls, point) -> "SlabAffineContraction":
        """Axis-aligned two-stage contraction: horizontal first, then vertical.

        For t in [0, 1/2] the image slides along the horizontal line through
        the target point; for t in (1/2, 1] it rises vertically to the
        identity.  Suited to meshes whose domain is an axis-aligned union of
        rectangles containing that horizontal line.
        """
        a = _base_point(point)
        return cls((0.0, 0.5, 1.0), [[[0.0, 0.0, a[0]], [0.0, 0.0, a[1]]],
                                     [[1.0, 0.0, 0.0], [0.0, 0.0, a[1]]],
                                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], a)

    @classmethod
    def from_matrices(cls, breakpoints, matrices, point) -> "SlabAffineContraction":
        """From one 2x4 matrix per slab acting on ``(x, y, t, 1)``; each slab
        gives its maps at its end times, which must agree where slabs meet."""
        times = checked_breakpoints(breakpoints)
        mats = np.array(matrices, dtype=float)
        if mats.shape != (len(times) - 1, 2, 4):
            raise ValueError("need one 2x4 matrix (homogeneous x, y, t, 1) per slab")
        t = np.array(times)[:, None, None]
        # each slab's map in the planes {time = t} of its lower and upper end
        lower, upper = (np.concatenate([mats[..., :2], mats[..., 2:3] * ts + mats[..., 3:]], axis=2)
                        for ts in (t[:-1], t[1:]))
        jumps = np.flatnonzero(np.abs(upper[:-1] - lower[1:]).max(axis=(1, 2)) > 1e-10)
        if jumps.size:
            raise ValueError(f"slab maps disagree at breakpoint {times[jumps[0] + 1]}")
        return cls(times, np.concatenate([lower, upper[-1:]]), point, matrices=mats)

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
    at = coords.take(vertices, axis=0)
    images = _affine(phi.maps, at[:, None])
    moved = np.max(np.abs(images[:, -1] - at), axis=1) > 1e-10
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
    cancellation, and integrate to zero).  The contraction is read only at
    (vertex, breakpoint) pairs, and checked by ``validate_contraction``.
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
