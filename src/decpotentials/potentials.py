"""Discrete potential operators and their verification.

Every potential operator has one representation: for each degree k a sparse
matrix ``P_k`` (a ``scipy.sparse.csr_matrix`` of shape (num (k-1)-simplices,
num k-simplices)) plus a constant functional ``pi`` on 0-cochains.  Row s of
``P_k`` is the functional of the (k-1)-simplex s: pair the input with the
cone of s (combinatorial kind), or integrate its Whitney interpolant over the
singular cone of s (Whitney kind).  Matrices are assembled per degree on
first use and cached, from the cone's stored term arrays, so no chain table
is built: a combinatorial matrix is its (row, column, coefficient) terms
converted once to CSR; a Whitney matrix comes from one batched pass
(``singular.functional_matrix``) over terms whose corner indices pick their
points from the cone's point table.  Every operator satisfies

    d P alpha + P d alpha = alpha            (0 < k < n)
    P d alpha = alpha - (pi alpha)           (k = 0)
    d P alpha = alpha                        (k = n)

on its admissible inputs, where pi is the value at the contraction vertex
for combinatorial operators and the interpolated value at the base point for
Whitney ones, stored once per operator as vertex rows and weights: the
vertex with weight 1, or the base point's triangle corners and barycentrics.

Two operators are built from the same representation, each setting only
the state it needs.  The trace-preserving ``BogovskiiOperator`` is the
Whitney kind over ``shadow_cone``: its row, the star-cone row minus the
infinite-cone row, is minus the integral over the bounded shadow beyond the
simplex.  Its admissible inputs have vanishing boundary trace (vanishing
mean in top degree); on them the identity holds with pi = 0, and the
outputs again have vanishing trace.  Every Whitney operator first checks
that its mesh is a planar triangulation (``check_triangulation``), and
refuses a geometry built from another complex.  Before its one star cone
is built, inside ``shadow_cone``, its base point must lie in the mesh, 1e-12 mesh
diagonals off every edge (``check_base_point``), then that far inside every
boundary edge's line, so that the domain is star-shaped about it
(``check_star_shaped``): elsewhere the identity still holds but the outputs
do not keep zero trace.  A star operator needs only the closed kernel,
checked before any row.  ``ComplexPropertyOperator`` copies its base's
state and holds the matrices of ``P - d P P``, which satisfy the same
identity and square to zero: on a 2-D mesh they are P's.

One cochain (1-D values of a real dtype no wider than float64) costs
``apply`` one read of its matrix's ``shape``, one zeroed float64 output and
one call of scipy's CSR kernel; a float64 C-contiguous block (2-D, one
cochain per column) the same, through scipy's CSR block kernel, and any
other input goes through ``@``.  The kernel gets the matrix's ``indptr``,
``indices`` and ``data`` as they are at the call; no copy of them or of the
shape is kept, so the result stays bitwise ``matrix(k) @ values`` after the
matrix is edited in place.  ``apply`` and ``project_admissible`` wrap their
results without re-checking the shape they just produced.  Bogovskii masses
dot a float64 copy of the orientation, which gives the int64 dot's bits.

``verify_homotopy`` estimates the identity's residual on seeded random
cochains and reports per-degree maxima.  Degree k draws its trials from one
generator, ``default_rng((seed, k))``: trial t is bitwise row t of
``uniform(-1, 1, (trials, n))``.  The trials are evaluated a block at a time:
the generator's next rows are stacked as the columns of one C-ordered block
and projected to admissible inputs at once, and the raw draws are dropped.
The residual ``D P X + P D X - X`` (plus pi at degree 0) is one sparse
mat-mat per term, each through the block kernel into one zeroed output, and
the later terms are added to the first product in place, in that order: a
block allocates one array per product and none per sum, so the allocator
has no fresh temporaries to trim and fault back in on the next call.
Column sums run in the order of a single mat-vec, so each trial's residual
is bitwise what a trial-by-trial loop gives; its largest entry is taken in
place, and the trials' maxima are reduced by ``fmax``, which skips a NaN as
the loop's ``max`` does, and summed in trial order by ``add.accumulate``,
so the report is bitwise the loop's too.  ``homotopy_residual`` is the
one-column case of the same kernel.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import scipy.sparse as sp
# scipy's private CSR kernels: ``matrix @ vector`` ends in ``csr_matvec`` and
# ``matrix @ block`` in ``csr_matvecs``, after a dispatch that costs more than
# the product itself on these matrices, so one cochain and one float64 block
# call them directly, as ``_cs_matrix._matmul_vector`` and
# ``_matmul_multivector`` do; a test in tests/test_potentials.py fails if a
# scipy upgrade renames or changes either
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .cones import SimplicialConeOperator, SingularConeOperator, shadow_cone
from .simplicial import Cochain, SimplicialComplex, coboundary  # noqa: F401 (perfbench reads it)
from .simplicial import _cochain_of
from .singular import functional_matrix
from .whitney import MeshGeometry, _dot, _own


class PreconditionError(ValueError):
    """An operator's standing assumption is violated by the input."""


class BasePointOnFacetError(PreconditionError):
    """The base point lies on a codimension-1 simplex, which the
    trace-preserving construction does not allow."""


class NotStarShapedError(PreconditionError):
    """The domain is not star-shaped about the base point, so the shadows of
    its boundary simplices reach back into it and the trace is not kept."""


def _located(geometry: MeshGeometry, point):
    """The base point as a float array, and the index of a triangle holding it."""
    p = np.asarray(point, dtype=float)
    t = geometry.locate(p)
    if t is None:
        raise PreconditionError(f"base point {tuple(p.tolist())} lies outside the mesh")
    return p, t


def check_base_point(geometry: MeshGeometry, point) -> None:
    """Reject base points outside the mesh or within 1e-12 mesh diagonals of an edge.

    Only the edges of the triangle t holding the point are measured: on a
    planar triangulation, a shortest segment from a point of t to any other
    edge crosses t's boundary (``locate``'s slack puts a point at most 2e-12
    of t's diameter outside t).  ``check_triangulation`` rejects folded
    meshes; a flap overlapping the mesh, joined to it at a vertex, passes
    that check and lies outside this argument.
    """
    p, t = _located(geometry, point)
    tol = 1e-12 * geometry.diagonal
    edges = geometry.triangle_edges[t]  # ascending
    a, b = geometry.edge_coords[edges].transpose(1, 0, 2)
    foot = a + np.clip(_dot(p - a, b - a) / _dot(b - a, b - a), 0.0, 1.0)[:, None] * (b - a)
    on = edges[np.sqrt(_dot(p - foot, p - foot)) <= tol]
    if on.size:
        raise BasePointOnFacetError(
            f"base point ({p[0]:g}, {p[1]:g}) lies on edge "
            f"{tuple(geometry.complex._rows[1][on[0]].tolist())} within {tol:.1e}"
        )


def check_triangulation(geometry: MeshGeometry) -> None:
    """Reject a mesh that no planar triangulation has.

    Every edge must lie in one or two triangles, every vertex in a triangle,
    and the two triangles of an interior edge on opposite sides of it: the
    side of an edge that a triangle lies on is the edge's sign in the
    triangle's boundary times the triangle's orientation.  Whitney operators
    need this; collapse acts on the abstract complex and does not.  A
    geometry that passes is marked, and not checked again.
    """
    if geometry._planar:
        return
    cx, cofacets = geometry.complex, geometry.complex._cofacet_csc(1)
    count = np.diff(cofacets.indptr)
    bad = np.flatnonzero((count == 0) | (count > 2))
    if bad.size:
        raise PreconditionError(
            f"edge {tuple(cx._rows[1][bad[0]].tolist())} lies in {count[bad[0]]} triangles; "
            "in a planar triangulation every edge lies in one or two")
    seen = np.zeros(cx.num_simplices(0), dtype=bool)
    seen[geometry.corner_rows] = True
    if not seen.all():
        raise PreconditionError(f"vertex {cx._rows[0][seen.argmin(), 0]} lies in no triangle")
    # per edge, its triangles' sides summed: +-2 where both lie on one side
    side = cofacets.data * geometry.orientation[cofacets.indices]
    folded = np.flatnonzero(np.abs(np.add.reduceat(side, cofacets.indptr[:-1])) == 2)
    if folded.size:
        raise PreconditionError(
            f"the two triangles of edge {tuple(cx._rows[1][folded[0]].tolist())} lie on one "
            "side of it: the mesh folds over itself there")
    geometry._planar = True


def check_star_shaped(geometry: MeshGeometry, point, closed: bool = False) -> None:
    """Reject a domain that is not star-shaped about a base point of the mesh.

    The point must lie on the inner side of every boundary edge's line, the
    side of the edge's triangle, by a margin (signed distance to the line) of
    at least 1e-12 mesh diagonals.  A ray from such a point crosses each of
    those lines at most once, and only outward, so once it leaves the mesh
    it never re-enters: the point sees the whole mesh, whatever its
    topology.  For a simple polygon these points are its kernel (Lee and
    Preparata, 1979).  A star cone needs only the ``closed`` kernel, to that
    margin: a point on those lines, as on a convex domain's boundary, is kept.
    """
    cx = geometry.complex
    edges = cx.boundary_indices(1)
    # +1 where the edge's one triangle lies to its left: the edge's sign in
    # that triangle's boundary times the triangle's orientation
    cofacets = cx._cofacet_csc(1)
    at = cofacets.indptr[edges]
    side = cofacets.data[at] * geometry.orientation[cofacets.indices[at]]
    a, b = geometry.edge_coords[edges].transpose(1, 0, 2)
    d, p = b - a, np.asarray(point, dtype=float)
    margin = side * (d[:, 0] * (p[1] - a[:, 1]) - d[:, 1] * (p[0] - a[:, 0])) / np.hypot(*d.T)
    worst = int(np.argmin(margin))
    tol = 1e-12 * geometry.diagonal
    if margin[worst] < (-tol if closed else tol):
        where = "outside" if margin[worst] < 0 else f"within {tol:.1e} of the line of"
        raise NotStarShapedError(
            f"the domain is not star-shaped about base point ({p[0]:g}, {p[1]:g}): it "
            f"lies {where} boundary edge {tuple(cx._rows[1][edges[worst]].tolist())}, "
            f"margin {margin[worst]:.3g}")


class DiscretePoincareOperator:
    """Potential operator wrapping a simplicial or singular cone operator."""

    def __init__(self, cone, geometry: MeshGeometry | None = None, label: str | None = None):
        # exact types: an InfiniteConeOperator's terms are no linear simplices
        if type(cone) not in (SimplicialConeOperator, SingularConeOperator):
            raise TypeError(f"unsupported cone operator {type(cone).__name__}")
        _own(cone.complex, geometry)
        if type(cone) is SimplicialConeOperator:
            kind = "combinatorial"
            pi = np.searchsorted(cone.complex._rows[0][:, 0], [cone.vertex]), np.ones(1)
        else:
            kind, geometry = "whitney", geometry or MeshGeometry(cone.complex)
            check_triangulation(geometry)
            p, t = _located(geometry, cone.point)
            if cone.star:  # every join must lie in the domain
                check_star_shaped(geometry, p, closed=True)
            pi = geometry.corner_rows[t], geometry.barycentric(t, p)
        self._hold(cone, geometry, kind, pi, label)

    def _hold(self, cone, geometry, kind: str, pi, label) -> None:
        """Set the operator's state; matrices are assembled on first use."""
        self.cone, self.geometry, self.kind, self._pi = cone, geometry, kind, pi
        self.complex: SimplicialComplex = cone.complex
        self.label = label or kind
        self._matrices: dict[int, sp.csr_matrix] = {}

    def matrix(self, k: int) -> sp.csr_matrix:
        """Sparse matrix of P on k-cochains, shape (num (k-1)-simplices, num k)."""
        if k in self._matrices:
            return self._matrices[k]
        cx = self.complex
        if not 1 <= k <= cx.dim:
            raise ValueError(f"P acts on degrees 1..{cx.dim}, got {k}")
        shape = (cx.num_simplices(k - 1), cx.num_simplices(k))
        if self.kind == "combinatorial":
            rows, cols, coeffs = self.cone.terms[k - 1]
            m = sp.csr_matrix((coeffs.astype(float), (rows, cols)), shape=shape)
        else:
            # every row's singular cone, integrated in one batched pass
            rows, coeffs, corners = self.cone.terms[k - 1]
            m = functional_matrix(
                self.geometry, k, rows, coeffs, self.cone.points.take(corners, axis=0), shape[0],
                allow_exterior=self.kind == "bogovskii",
                describe=lambda i: f"row of simplex {tuple(cx._rows[k - 1][i].tolist())}")
        self._matrices[k] = m
        return m

    def apply_values(self, k: int, values: np.ndarray) -> np.ndarray:
        """P_k on k-cochain values: one cochain (1-D) or one per column (2-D)."""
        m = self._matrices.get(k)
        if m is None:
            m = self.matrix(k)
        # shape and arrays are read afresh on every call, never kept: a
        # caller may reassign the matrix's data or resize it in place
        rows, cols = m.shape
        # one real vector, whose product with the float64 matrix is float64
        if values.shape != (cols,) or values.dtype.kind not in "biuf" or values.itemsize > 8:
            return _product(m, values)
        out = np.zeros(rows)
        csr_matvec(rows, cols, m.indptr, m.indices, m.data, values, out)
        return out

    def apply(self, alpha: Cochain) -> Cochain:
        if alpha.complex is not self.complex:
            raise ValueError("cochain lives on a different complex")
        return _cochain_of(self.complex, alpha.dim - 1, self.apply_values(alpha.dim, alpha.values))

    def constant_component(self, alpha: Cochain) -> float:
        """The degree-0 identity's constant term pi evaluated on a 0-cochain."""
        if alpha.dim != 0:
            raise ValueError("constant component is defined for 0-cochains")
        return float(self.constant_component_block(alpha.values[:, None])[0])

    def constant_component_block(self, values: np.ndarray) -> np.ndarray:
        """pi of each column of a block of 0-cochain values."""
        rows, weights = self._pi
        # one dot with a contiguous row per column, as whitney_value takes it
        return _dot(weights, np.array(values[rows].T, dtype=float, order="C"))

    def project_admissible(self, alpha: Cochain) -> Cochain:
        """Nearest input on which the identity holds (see the block form)."""
        if alpha.complex is not self.complex:
            raise ValueError("cochain lives on a different complex")
        return _cochain_of(self.complex, alpha.dim,
                           self.project_admissible_block(alpha.dim, alpha.values))

    def project_admissible_block(self, k: int, values: np.ndarray) -> np.ndarray:
        """The nearest admissible input of one cochain (1-D) or of each column
        (2-D): every cochain is admissible."""
        return values


class ComplexPropertyOperator(DiscretePoincareOperator):
    """P - d P P: same homotopy identity, and the composition squares to zero.

    ``P_k - D_{k-2} (P_{k-1} P_k)`` is formed here, one mat-vec each, on a
    complex of dimension 3 or more.  A 2-D mesh keeps ``P``, as its
    correction ``D_0 (P_1 P_2)`` vanishes: with ``R_1 = D_0 P_1 + P_2 D_1 - I``
    and ``R_2 = D_1 P_2 - I``, ``D_0 (P_1 P_2) = R_1 P_2 - P_2 R_2``, zero
    where the identity holds (exactly, in integers, for a combinatorial
    operator).  So ``P_1 P_2`` is a constant on a connected mesh, which
    ``P_1 D_0 + pi = I`` makes ``pi P_1 P_2``: zero where ``pi P_1 = 0``, as
    for collapse, star and straight-line cones, but not where a contraction's
    paths bend off a mesh vertex or its terminal vertex moves, and no
    correction ``D_0 (...)`` removes a constant.  In higher dimensions
    ``R_2 = -P_3 D_2`` is not zero, nor in general is the correction (a
    contraction of a 3-simplex shows it).
    """

    def __init__(self, base: DiscretePoincareOperator):
        self._hold(base.cone, base.geometry, base.kind, base._pi,
                   base.label + "+complex-property")
        self.base = base
        cx = self.complex
        for k in range(1, cx.dim + 1):
            p = base.matrix(k)
            if k >= 2 and cx.dim >= 3:
                p = (p - cx.coboundary_matrix(k - 2) @ (base.matrix(k - 1) @ p)).tocsr()
            self._matrices[k] = p

    def project_admissible_block(self, k: int, values: np.ndarray) -> np.ndarray:
        return self.base.project_admissible_block(k, values)


class BogovskiiOperator(DiscretePoincareOperator):
    """Trace-preserving potential operator from a base point.

    The value on a (k-1)-simplex is the integral of the Whitney interpolant
    over the finite join minus that over the infinite cone: minus that over
    the shadow beyond the simplex (``shadow_cone``), which for a boundary
    simplex of a domain star-shaped about the point lies off the domain, so
    the trace vanishes.  Any other domain raises ``NotStarShapedError``.
    ``truncation_factor`` is accepted and ignored.
    """

    def __init__(self, point, complex: SimplicialComplex,
                 geometry: MeshGeometry | None = None,
                 truncation_factor: float | None = None):
        geometry = _own(complex, geometry) or MeshGeometry(complex)
        # the gate locates the point; a rejected domain builds no shadows
        check_triangulation(geometry)
        check_base_point(geometry, point)
        check_star_shaped(geometry, point)
        # on admissible inputs the identity has no constant term
        self._hold(shadow_cone(point, complex, geometry), geometry, "bogovskii",
                   (np.zeros(0, dtype=np.int64), np.zeros(0)), "bogovskii")
        # the masses dot a float64 copy, which an int64 one is cast to on every call
        self._orientation = geometry.orientation.astype(float)

    def signed_mass(self, alpha: Cochain) -> float:
        """Total integral of the Whitney interpolant of a top cochain."""
        if alpha.dim != self.complex.dim:
            raise ValueError("mass is defined for top-degree cochains")
        try:
            mass = float(alpha.values @ self._orientation)
        except RuntimeWarning:  # inf - inf, with warnings raised as errors
            mass = math.nan
        if not math.isfinite(mass):
            raise _nonzero_mean(mass)
        return mass

    def _check_zero_mean(self, values: np.ndarray) -> None:
        """Reject top-degree values (one cochain or one per column) of nonzero mass."""
        block = values.reshape(len(values), -1)
        try:
            masses = self._orientation @ block
        except RuntimeWarning:  # inf - inf, with warnings raised as errors
            with np.errstate(invalid="ignore"):
                masses = self._orientation @ block
        for j, mass in enumerate(masses.tolist()):
            # a mass of at most 1e-9 passes at any scale, so the scale is read
            # only past it; a NaN or infinite mass (from a non-finite value) fails
            if not math.isfinite(mass) or (
                    abs(mass) > 1e-9 and abs(mass) > 1e-9 * max(np.abs(block[:, j]).max(), 1.0)):
                raise _nonzero_mean(mass)

    def apply_values(self, k: int, values: np.ndarray) -> np.ndarray:
        if k == self.complex.dim:
            self._check_zero_mean(values)
        return DiscretePoincareOperator.apply_values(self, k, values)

    def project_admissible_block(self, k: int, values: np.ndarray) -> np.ndarray:
        """The nearest admissible input of one cochain (1-D) or of each column
        (2-D): zero boundary trace, or zero mean on top."""
        cx, g = self.complex, self.geometry
        if k == cx.dim:
            values = np.asarray(values, dtype=float)
            # each mass (one, or one per column) from a contiguous row, as
            # signed_mass takes it: a strided row's dot rounds differently
            rows = np.ascontiguousarray(values.T)
            try:
                mass = _dot(rows, self._orientation)
            except RuntimeWarning:  # inf - inf or an overflow, with warnings raised as errors
                with np.errstate(invalid="ignore", over="ignore"):
                    mass = _dot(rows, self._orientation)
            # a non-finite value makes its mass non-finite: one scalar check
            # for one cochain, one per column for a block
            if not (math.isfinite(mass) if values.ndim == 1 else np.isfinite(mass).all()):
                bad = np.atleast_1d(mass)
                raise _nonzero_mean(float(bad[~np.isfinite(bad)][0]))
            return np.subtract(values, np.multiply.outer(g.signed_area, mass / g.total_area),
                               order="C")
        values = np.array(values, dtype=float, order="C")
        values[cx.boundary_indices(k)] = 0.0
        return values


def _nonzero_mean(mass: float) -> PreconditionError:
    return PreconditionError(f"top-degree input must have zero mean, got total integral {mass:.3e}")


# Trials are evaluated in column blocks of at most this many entries of the
# complex's largest degree, so each temporary of a block stays near 2 MB.
BLOCK_ENTRIES = 1 << 18


def _product(m: sp.csr_matrix, values) -> np.ndarray:
    """``m @ values``: a float64 C-contiguous block goes straight to scipy's
    CSR kernel, into one zeroed output, with the bits of ``m @ values``."""
    rows, cols = m.shape
    if (type(values) is not np.ndarray or values.ndim != 2 or values.shape[0] != cols
            or values.dtype != np.float64 or not values.flags.c_contiguous):
        return m @ values
    out = np.zeros((rows, values.shape[1]))
    csr_matvecs(rows, cols, values.shape[1], m.indptr, m.indices, m.data,
                values.reshape(-1), out.reshape(-1))
    return out


def _residuals(op, k: int, values: np.ndarray) -> np.ndarray:
    """Residuals of the homotopy identity on k-cochain values, one per column;
    each term is added to the first product in place, in the order
    ``(D P X + P D X) - X``, plus pi at degree 0."""
    cx = op.complex
    if k == 0:
        r = op.apply_values(1, _product(cx.coboundary_matrix(0), values))
        r -= values
        r += op.constant_component_block(values)
        return r
    r = _product(cx.coboundary_matrix(k - 1), op.apply_values(k, values))
    if k < cx.dim:
        r += op.apply_values(k + 1, _product(cx.coboundary_matrix(k), values))
    r -= values
    return r


def _degree(cx: SimplicialComplex, k) -> int:
    """k as an int, checked to be a degree in which the identity holds."""
    k = operator.index(k)
    if not 0 <= k <= cx.dim:
        raise ValueError(f"the homotopy identity holds in degrees 0..{cx.dim}, got {k}")
    return k


def homotopy_residual(op, alpha: Cochain) -> np.ndarray:
    """Componentwise residual of the homotopy identity on one cochain."""
    if alpha.complex is not op.complex:
        raise ValueError("cochain lives on a different complex")
    return _residuals(op, _degree(op.complex, alpha.dim), alpha.values[:, None])[:, 0]


def verify_homotopy(op, ks=None, trials: int = 100, seed: int = 0) -> dict:
    """Max/mean homotopy residuals over seeded random cochains.

    Trial t of degree k is row t of
    ``default_rng((seed, k)).uniform(-1, 1, (trials, n))``, so the report is
    reproducible for a non-negative integer ``seed``, and a call's trials are
    the first trials of any call with more.  Inputs are first projected to
    the operator's admissible subspace.  Each degree's trials go through
    ``_residuals`` in column blocks; a trial's residual is bitwise the one
    ``homotopy_residual`` gives on its cochain.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    index = operator.index(seed) if hasattr(seed, "__index__") else -1
    if index < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    cx = op.complex
    ks = [_degree(cx, k) for k in (range(cx.dim + 1) if ks is None else ks)]
    width = max(1, BLOCK_ENTRIES // max(map(cx.num_simplices, range(cx.dim + 1))))
    per_k = {}
    for k in ks:
        # assemble the degree's matrices before its blocks take memory
        for j in (k, k + 1):
            if 1 <= j <= cx.dim:
                op.matrix(j)
        size = cx.num_simplices(k)
        rng = np.random.default_rng((index, k))
        maxima = np.empty(trials)  # each trial's largest residual entry
        for start in range(0, trials, width):
            stop = min(start + width, trials)
            # the raw draws are dropped once projected to a C-ordered block
            block = np.ascontiguousarray(op.project_admissible_block(
                k, rng.uniform(-1.0, 1.0, (stop - start, size)).T))
            r = _residuals(op, k, block)
            np.abs(r, out=r).max(axis=0, initial=0.0, out=maxima[start:stop])
            del block, r  # so that no array of this block lives beside the next one's
        # the trial loop's max skips a NaN, as fmax does, and its sum adds in
        # trial order, as accumulate does: the report keeps the loop's bits
        per_k[str(k)] = {"max": float(np.fmax.reduce(maxima, initial=0.0)),
                         "mean": float(np.add.accumulate(maxima)[-1]) / trials}
    return {
        "operator": getattr(op, "label", type(op).__name__),
        "trials": trials,
        "seed": index,
        "per_k": per_k,
    }


def max_residual(report: dict) -> float:
    return max(entry["max"] for entry in report["per_k"].values())
