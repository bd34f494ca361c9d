"""Discrete potential operators and their verification.

Every potential operator has one representation: for each degree k a sparse
matrix ``P_k`` (a ``scipy.sparse.csr_matrix`` of shape (num (k-1)-simplices,
num k-simplices)) plus a constant functional ``pi`` on 0-cochains.  Row s of
``P_k`` is the functional of the (k-1)-simplex s: pair the input with the
cone of s (combinatorial kind), or integrate its Whitney interpolant over the
singular cone of s (Whitney kind).  Matrices are assembled per degree on
first use and cached; a Whitney matrix comes from one batched pass over the
singular cones of all its rows (``singular.functional_matrix``).  Every
operator satisfies

    d P alpha + P d alpha = alpha            (0 < k < n)
    P d alpha = alpha - (pi alpha)           (k = 0)
    d P alpha = alpha                        (k = n)

on its admissible inputs, where pi is the value at the contraction vertex
for combinatorial operators and the interpolated value at the base point for
Whitney ones.

Two operators are built from the same representation.  The trace-preserving
``BogovskiiOperator`` is the Whitney kind over ``shadow_cone``: its row, the
star-cone row minus the infinite-cone row, is minus the integral over the
bounded shadow beyond the simplex.  Its admissible inputs have vanishing
boundary trace (vanishing mean in top degree); on them the identity holds
with pi = 0, and the outputs again have vanishing trace.  Its base point
must not meet any codimension-1 simplex.  ``ComplexPropertyOperator`` holds
the matrices of ``P - d P P``, formed once from its base operator's; they
satisfy the same identity and square to zero.

``verify_homotopy`` estimates the identity's residual on seeded random
cochains and reports per-degree maxima; everything is deterministic given
the seed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .cones import SimplicialConeOperator, SingularConeOperator, shadow_cone
from .simplicial import Cochain, SimplicialComplex, coboundary
from .singular import functional_matrix, point_segment_distance
from .whitney import MeshGeometry, whitney_value


class PreconditionError(ValueError):
    """An operator's standing assumption is violated by the input."""


class BasePointOnFacetError(PreconditionError):
    """The base point lies on a codimension-1 simplex, which the
    trace-preserving construction does not allow."""


def check_base_point(geometry: MeshGeometry, point, tol_rel: float = 1e-12) -> None:
    """Reject base points on (or numerically on) any mesh edge."""
    p = np.asarray(point, dtype=float)
    tol = tol_rel * geometry.diagonal
    ends = geometry.edge_coords
    on = np.nonzero(point_segment_distance(p, ends[:, 0], ends[:, 1]) <= tol)[0]
    if on.size:
        raise BasePointOnFacetError(
            f"base point ({p[0]:g}, {p[1]:g}) lies on edge "
            f"{geometry.complex.simplices(1)[on[0]]} within {tol:.1e}"
        )


def _gather(table, simplices):
    """(row, coefficient, points) arrays of the chain terms of each simplex."""
    terms = [(i, c, x.points) for i, s in enumerate(simplices) for c, x in table[s].terms]
    rows, coeffs, points = zip(*terms) if terms else ((), (), ())
    return np.array(rows, dtype=np.int64), np.array(coeffs, dtype=float), np.array(points)


class DiscretePoincareOperator:
    """Potential operator wrapping a simplicial or singular cone operator."""

    def __init__(self, cone, geometry: MeshGeometry | None = None, label: str | None = None):
        if isinstance(cone, SimplicialConeOperator):
            self.kind = "combinatorial"
        elif isinstance(cone, SingularConeOperator):
            self.kind = "whitney"
            geometry = geometry or MeshGeometry(cone.complex)
        else:
            raise TypeError(f"unsupported cone operator {type(cone).__name__}")
        self.cone = cone
        self.geometry = geometry
        self.complex: SimplicialComplex = cone.complex
        self.label = label or self.kind
        self._matrices: dict[int, sp.csr_matrix] = {}

    def matrix(self, k: int) -> sp.csr_matrix:
        """Sparse matrix of P on k-cochains, shape (num (k-1)-simplices, num k)."""
        if not 1 <= k <= self.complex.dim:
            raise ValueError(f"P acts on degrees 1..{self.complex.dim}, got {k}")
        if k not in self._matrices:
            cx = self.complex
            simplices = cx.simplices(k - 1)
            shape = (cx.num_simplices(k - 1), cx.num_simplices(k))
            if self.kind == "combinatorial":
                index = cx._index[k]
                rows, cols, vals = [], [], []
                for i, s in enumerate(simplices):
                    terms = self.cone.table[s].terms
                    rows.extend([i] * len(terms))
                    cols.extend(index[t] for t in terms)
                    vals.extend(terms.values())
                m = sp.csr_matrix((np.array(vals, dtype=float), (rows, cols)), shape=shape)
            else:
                # every row's singular cone, integrated in one batched pass
                m = functional_matrix(self.geometry, k, *_gather(self.cone.table, simplices),
                                      shape[0], allow_exterior=self.kind == "bogovskii",
                                      describe=lambda i: f"row of simplex {simplices[i]}")
            self._matrices[k] = m
        return self._matrices[k]

    def apply(self, alpha: Cochain) -> Cochain:
        if alpha.complex is not self.complex:
            raise ValueError("cochain lives on a different complex")
        return Cochain(self.complex, alpha.dim - 1, self.matrix(alpha.dim) @ alpha.values)

    def constant_component(self, alpha: Cochain) -> float:
        """The degree-0 identity's constant term pi evaluated on a 0-cochain."""
        if alpha.dim != 0:
            raise ValueError("constant component is defined for 0-cochains")
        if self.kind == "combinatorial":
            return float(alpha.values[self.complex.index((self.cone.vertex,))])
        return float(whitney_value(self.geometry, alpha, self.cone.point, self._base_triangle))

    @cached_property
    def _base_triangle(self) -> int | None:
        """The mesh triangle holding the Whitney base point, located once."""
        return self.geometry.locate(self.cone.point)

    def project_admissible(self, alpha: Cochain) -> Cochain:
        """Nearest input on which the identity holds: every cochain is admissible."""
        return alpha


class ComplexPropertyOperator(DiscretePoincareOperator):
    """P - d P P: same homotopy identity, and the composition squares to zero.

    The matrices ``P_k - D_{k-2} (P_{k-1} P_k)`` are formed here from the base
    operator's, so ``apply`` is one sparse mat-vec.
    """

    def __init__(self, base: DiscretePoincareOperator):
        super().__init__(base.cone, base.geometry, base.label + "+complex-property")
        self.kind = base.kind
        self.base = base
        cx = self.complex
        for k in range(1, cx.dim + 1):
            p = base.matrix(k)
            if k >= 2:
                p = (p - cx.coboundary_matrix(k - 2) @ (base.matrix(k - 1) @ p)).tocsr()
            self._matrices[k] = p

    def constant_component(self, alpha: Cochain) -> float:
        return self.base.constant_component(alpha)

    def project_admissible(self, alpha: Cochain) -> Cochain:
        return self.base.project_admissible(alpha)


class BogovskiiOperator(DiscretePoincareOperator):
    """Trace-preserving potential operator from a base point.

    The value on a (k-1)-simplex is the integral of the Whitney interpolant
    over the finite join minus that over the infinite cone: minus that over
    the shadow beyond the simplex (``shadow_cone``), which for a boundary
    simplex of a domain star-shaped about the point lies off the domain, so
    the trace vanishes.  ``truncation_factor`` is accepted and ignored.
    """

    def __init__(self, point, complex: SimplicialComplex,
                 geometry: MeshGeometry | None = None,
                 truncation_factor: float | None = None, label: str = "bogovskii"):
        geometry = geometry or MeshGeometry(complex)
        check_base_point(geometry, point)
        super().__init__(shadow_cone(point, complex, geometry), geometry, label)
        self.kind = "bogovskii"

    def constant_component(self, alpha: Cochain) -> float:
        """Zero: on admissible inputs the identity has no constant term."""
        return 0.0

    def signed_mass(self, alpha: Cochain) -> float:
        """Total integral of the Whitney interpolant of a top cochain."""
        if alpha.dim != self.complex.dim:
            raise ValueError("mass is defined for top-degree cochains")
        return float(alpha.values @ self.geometry.orientation)

    def apply(self, alpha: Cochain, *, check_mean: bool = True) -> Cochain:
        if check_mean and alpha.complex is self.complex and alpha.dim == self.complex.dim:
            mass = self.signed_mass(alpha)
            scale = float(np.max(np.abs(alpha.values))) if alpha.values.size else 0.0
            if abs(mass) > 1e-9 * max(scale, 1.0):
                raise PreconditionError(
                    f"top-degree input must have zero mean, got total integral {mass:.3e}"
                )
        return super().apply(alpha)

    def project_admissible(self, alpha: Cochain) -> Cochain:
        """Nearest admissible input: zero boundary trace, or zero mean on top."""
        cx = self.complex
        k = alpha.dim
        values = np.array(alpha.values, dtype=float)
        if k == cx.dim:
            areas = self.geometry.signed_area
            c = self.signed_mass(alpha) / self.geometry.total_area
            values = values - c * areas
        else:
            for s in cx.boundary_simplices(k):
                values[cx.index(s)] = 0.0
        return Cochain(cx, k, values)


def homotopy_residual(op, alpha: Cochain) -> np.ndarray:
    """Componentwise residual of the homotopy identity on one cochain."""
    n = op.complex.dim
    k = alpha.dim
    if k == 0:
        r = op.apply(coboundary(alpha)).values - alpha.values
        return r + op.constant_component(alpha)
    if k == n:
        return coboundary(op.apply(alpha)).values - alpha.values
    r = coboundary(op.apply(alpha)).values + op.apply(coboundary(alpha)).values
    return r - alpha.values


def verify_homotopy(op, ks=None, trials: int = 100, seed: int = 0) -> dict:
    """Max/mean homotopy residuals over seeded random cochains.

    Random inputs are uniform on (-1, 1) per simplex, with one generator per
    (seed, degree, trial) triple so the report is reproducible and trials
    could be evaluated in any order.  Inputs are first projected to the
    operator's admissible subspace.
    """
    cx = op.complex
    n = cx.dim
    if ks is None:
        ks = range(n + 1)
    per_k = {}
    for k in ks:
        worst = 0.0
        total = 0.0
        for trial in range(trials):
            rng = np.random.default_rng((seed, k, trial))
            alpha = Cochain(cx, k, rng.uniform(-1.0, 1.0, cx.num_simplices(k)))
            r = homotopy_residual(op, op.project_admissible(alpha))
            m = float(np.max(np.abs(r))) if r.size else 0.0
            worst = max(worst, m)
            total += m
        per_k[str(k)] = {"max": worst, "mean": total / trials}
    return {
        "operator": getattr(op, "label", type(op).__name__),
        "trials": trials,
        "seed": seed,
        "per_k": per_k,
    }


def max_residual(report: dict) -> float:
    return max(entry["max"] for entry in report["per_k"].values())
