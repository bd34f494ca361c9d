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

Two operators are built from the same representation.  The trace-preserving
``BogovskiiOperator`` is the Whitney kind over ``shadow_cone``: its row, the
star-cone row minus the infinite-cone row, is minus the integral over the
bounded shadow beyond the simplex.  Its admissible inputs have vanishing
boundary trace (vanishing mean in top degree); on them the identity holds
with pi = 0, and the outputs again have vanishing trace.  Its base point
must not meet any codimension-1 simplex, and must lie at least 1e-12 mesh
diagonals inside every boundary edge's line, so that the domain is
star-shaped about it (``check_star_shaped``): elsewhere the identity still
holds but the outputs do not keep zero trace.  A star operator needs only
the closed kernel, checked before any row.  ``ComplexPropertyOperator``
holds the matrices of ``P - d P P``, which satisfy the same identity and
square to zero: on a 2-D mesh they are P's.

One cochain (1-D values of a real dtype no wider than float64) costs
``apply`` one read of its matrix's ``shape``, one zeroed float64 output and
one call of scipy's CSR kernel.  The kernel gets the matrix's ``indptr``,
``indices`` and ``data`` as they are at the call; no copy of them or of the
shape is kept, so the result stays bitwise ``matrix(k) @ values`` after the
matrix is edited in place.  ``apply`` and ``project_admissible`` wrap their
results without re-checking the shape they just produced.  Bogovskii masses
dot a float64 copy of the orientation, which gives the int64 dot's bits.

``verify_homotopy`` estimates the identity's residual on seeded random
cochains and reports per-degree maxima.  Degree k draws its trials from one
generator, ``default_rng((seed, k))``: trial t is bitwise row t of
``uniform(-1, 1, (trials, n))``.  The trials are evaluated a block at a time:
the generator's next rows are stacked as the columns of one block and
projected to admissible inputs at once, and the residual
``D P X + P D X - X`` (plus pi at degree 0) is one sparse mat-mat per term.
Column sums run in the order of a single mat-vec, so each trial's residual,
and the report, is bitwise what a trial-by-trial loop gives.
``homotopy_residual`` is the one-column case of the same kernel.
"""

from __future__ import annotations

import operator

import numpy as np
import scipy.sparse as sp
# scipy's private CSR mat-vec kernel: ``matrix @ vector`` ends in it, after a
# dispatch that costs more than the product itself on these matrices, so one
# cochain calls it directly, as ``_cs_matrix._matmul_vector`` does; a test in
# tests/test_potentials.py fails if a scipy upgrade renames or changes it
from scipy.sparse._sparsetools import csr_matvec

from .cones import SimplicialConeOperator, SingularConeOperator, shadow_cone, star_cone
from .simplicial import Cochain, SimplicialComplex, coboundary  # noqa: F401 (perfbench reads it)
from .simplicial import _cochain_of
from .singular import functional_matrix, point_segment_distance
from .whitney import MeshGeometry, _dot


class PreconditionError(ValueError):
    """An operator's standing assumption is violated by the input."""


class BasePointOnFacetError(PreconditionError):
    """The base point lies on a codimension-1 simplex, which the
    trace-preserving construction does not allow."""


class NotStarShapedError(PreconditionError):
    """The domain is not star-shaped about the base point, so the shadows of
    its boundary simplices reach back into it and the trace is not kept."""


def check_base_point(geometry: MeshGeometry, point) -> None:
    """Reject base points on any mesh edge, or within 1e-12 mesh diagonals of one."""
    p = np.asarray(point, dtype=float)
    tol = 1e-12 * geometry.diagonal
    ends = geometry.edge_coords
    on = np.nonzero(point_segment_distance(p, ends[:, 0], ends[:, 1]) <= tol)[0]
    if on.size:
        raise BasePointOnFacetError(
            f"base point ({p[0]:g}, {p[1]:g}) lies on edge "
            f"{tuple(geometry.complex._rows[1][on[0]].tolist())} within {tol:.1e}"
        )


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
    cofacets = cx.coboundary_matrix(1).tocsc()
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
        if type(cone) is SimplicialConeOperator:
            self.kind = "combinatorial"
            self._pi = np.searchsorted(cone.complex._rows[0][:, 0], [cone.vertex]), np.ones(1)
        elif type(cone) is SingularConeOperator:
            self.kind = "whitney"
            geometry = geometry or MeshGeometry(cone.complex)
            t = geometry.locate(cone.point)
            if t is None:
                raise PreconditionError(
                    f"base point {tuple(cone.point.tolist())} lies outside the mesh")
            self._pi = geometry.corner_rows[t], geometry.barycentric(t, cone.point)
            if cone.star:  # every join must lie in the domain
                check_star_shaped(geometry, cone.point, closed=True)
        else:
            raise TypeError(f"unsupported cone operator {type(cone).__name__}")
        self.cone = cone
        self.geometry = geometry
        self.complex: SimplicialComplex = cone.complex
        self.label = label or self.kind
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
            return m @ values
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

    A combinatorial operator's ``P_k - D_{k-2} (P_{k-1} P_k)`` are formed
    here, one mat-vec each; a Whitney operator's mesh is 2-D, where
    ``P_1 P_2`` is the only composition and is zero, so it keeps ``P``.
    With ``R_1 = D_0 P_1 + P_2 D_1 - I`` and ``R_2 = D_1 P_2 - I``,
    ``D_0 (P_1 P_2) = R_1 P_2 - P_2 R_2``, so ``P_1 P_2`` is closed, a
    constant on a connected mesh, which ``P_1 D_0 + pi = I`` makes
    ``pi P_1 P_2 = 0``: ``pi P_1 = 0`` for every cone here.
    """

    def __init__(self, base: DiscretePoincareOperator):
        super().__init__(base.cone, base.geometry, base.label + "+complex-property")
        self.kind = base.kind
        self._pi = base._pi
        self.base = base
        cx = self.complex
        for k in range(1, cx.dim + 1):
            p = base.matrix(k)
            if k >= 2 and self.kind == "combinatorial":
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
        geometry = geometry or MeshGeometry(complex)
        check_base_point(geometry, point)
        # the star cone locates the point; a rejected domain builds no shadows
        super().__init__(star_cone(point, complex), geometry, "bogovskii")
        check_star_shaped(geometry, point)
        self.cone = shadow_cone(point, complex, geometry)
        self.kind = "bogovskii"
        # on admissible inputs the identity has no constant term
        self._pi = np.zeros(0, dtype=np.int64), np.zeros(0)
        # the masses dot a float64 copy, which an int64 one is cast to on every call
        self._orientation = geometry.orientation.astype(float)

    def signed_mass(self, alpha: Cochain) -> float:
        """Total integral of the Whitney interpolant of a top cochain."""
        if alpha.dim != self.complex.dim:
            raise ValueError("mass is defined for top-degree cochains")
        return float(alpha.values @ self._orientation)

    def _check_zero_mean(self, values: np.ndarray) -> None:
        """Reject top-degree values (one cochain or one per column) of nonzero mass."""
        mass = self._orientation @ values
        # a mass of at most 1e-9 passes at any scale, so the scale is read only past it
        if values.ndim > 1:  # the first column of nonzero mass, if any, as one cochain
            heavy = np.flatnonzero(np.abs(mass) > 1e-9)
            scale = np.abs(values[:, heavy]).max(axis=0, initial=0.0)
            bad = np.flatnonzero(np.abs(mass[heavy]) > 1e-9 * np.maximum(scale, 1.0))
            mass, scale = (mass[heavy[bad[0]]], scale[bad[0]]) if bad.size else (0.0, 0.0)
        else:
            scale = np.abs(values).max(initial=0.0) if abs(mass) > 1e-9 else 0.0
        if abs(mass) > 1e-9 * max(scale, 1.0):
            raise PreconditionError(
                f"top-degree input must have zero mean, got total integral {mass:.3e}")

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
            if values.ndim == 1:
                # a strided view is copied, as its dot rounds differently
                values = np.ascontiguousarray(values)
                return values - (values @ self._orientation / g.total_area) * g.signed_area
            # each mass from a contiguous row, as signed_mass takes it
            mass = _dot(np.ascontiguousarray(values.T), self._orientation)
            return values - g.signed_area[:, None] * (mass / g.total_area)
        values = np.array(values, dtype=float)
        values[cx.boundary_indices(k)] = 0.0
        return values


# Trials are evaluated in column blocks of at most this many entries of the
# complex's largest degree, so each temporary of a block stays near 2 MB.
BLOCK_ENTRIES = 1 << 18


def _residuals(op, k: int, values: np.ndarray) -> np.ndarray:
    """Residuals of the homotopy identity on k-cochain values, one per column."""
    cx = op.complex
    if k == 0:
        r = op.apply_values(1, cx.coboundary_matrix(0) @ values) - values
        return r + op.constant_component_block(values)
    dp = cx.coboundary_matrix(k - 1) @ op.apply_values(k, values)
    if k == cx.dim:
        return dp - values
    return dp + op.apply_values(k + 1, cx.coboundary_matrix(k) @ values) - values


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
        worst = 0.0
        total = 0.0
        for start in range(0, trials, width):
            draws = rng.uniform(-1.0, 1.0, (min(width, trials - start), size))
            admissible = op.project_admissible_block(k, draws.T)
            r = _residuals(op, k, np.ascontiguousarray(admissible))
            for m in np.abs(r).max(axis=0, initial=0.0).tolist():
                worst = max(worst, m)
                total += m
        per_k[str(k)] = {"max": worst, "mean": total / trials}
    return {
        "operator": getattr(op, "label", type(op).__name__),
        "trials": trials,
        "seed": index,
        "per_k": per_k,
    }


def max_residual(report: dict) -> float:
    return max(entry["max"] for entry in report["per_k"].values())
