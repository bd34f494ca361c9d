"""Discrete potential operators and their verification.

Every potential operator has one representation: for each degree k a sparse
matrix ``P_k`` (a ``scipy.sparse.csr_matrix`` of shape (num (k-1)-simplices,
num k-simplices)) plus a constant functional ``pi`` on 0-cochains.  Row s of
``P_k`` is the functional of the (k-1)-simplex s: pair the input with the
cone of s (combinatorial kind), or integrate its Whitney interpolant over the
singular cone of s (Whitney kind).  Matrices are assembled per degree on
first use and cached; a Whitney matrix comes from one batched pass
(``singular.functional_matrix``) over the cone's stored terms, whose corner
indices pick the points of every term from the cone's point table, so no
chain table is built.  Every operator satisfies

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
cochains and reports per-degree maxima.  Trial t of degree k draws bitwise
``default_rng((seed, k, t)).uniform(-1, 1, n)``, seeded from states that
``_seed_states`` hashes at once, and a degree's trials are evaluated together:
stacked as the columns of one block, projected to admissible inputs at once,
and the residual ``D P X + P D X - X`` (plus pi at degree 0) is one sparse
mat-mat per term.  Column sums run in the order of a single mat-vec, so each
trial's residual, and the report, is bitwise what a trial-by-trial loop gives.
``homotopy_residual`` is the one-column case of the same kernel.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.random.bit_generator import ISeedSequence

from .cones import SimplicialConeOperator, SingularConeOperator, shadow_cone
from .simplicial import Cochain, SimplicialComplex, coboundary  # noqa: F401 (perfbench reads it)
from .singular import functional_matrix, point_segment_distance
from .whitney import MeshGeometry


class PreconditionError(ValueError):
    """An operator's standing assumption is violated by the input."""


class BasePointOnFacetError(PreconditionError):
    """The base point lies on a codimension-1 simplex, which the
    trace-preserving construction does not allow."""


def check_base_point(geometry: MeshGeometry, point) -> None:
    """Reject base points on any mesh edge, or within 1e-12 mesh diagonals of one."""
    p = np.asarray(point, dtype=float)
    tol = 1e-12 * geometry.diagonal
    ends = geometry.edge_coords
    on = np.nonzero(point_segment_distance(p, ends[:, 0], ends[:, 1]) <= tol)[0]
    if on.size:
        raise BasePointOnFacetError(
            f"base point ({p[0]:g}, {p[1]:g}) lies on edge "
            f"{geometry.complex.simplices(1)[on[0]]} within {tol:.1e}"
        )


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
            shape = (cx.num_simplices(k - 1), cx.num_simplices(k))
            if self.kind == "combinatorial":
                index = cx._index[k]
                rows, cols, vals = [], [], []
                for i, s in enumerate(cx.simplices(k - 1)):
                    terms = self.cone.table[s].terms
                    rows.extend([i] * len(terms))
                    cols.extend(index[t] for t in terms)
                    vals.extend(terms.values())
                m = sp.csr_matrix((np.array(vals, dtype=float), (rows, cols)), shape=shape)
            else:
                # every row's singular cone, integrated in one batched pass
                rows, coeffs, corners = self.cone.terms[k - 1]
                m = functional_matrix(self.geometry, k, rows, coeffs, self.cone.points[corners],
                                      shape[0], allow_exterior=self.kind == "bogovskii",
                                      describe=lambda i: f"row of simplex {cx.simplices(k - 1)[i]}")
            self._matrices[k] = m
        return self._matrices[k]

    def apply_values(self, k: int, values: np.ndarray) -> np.ndarray:
        """P_k on k-cochain values: one cochain (1-D) or one per column (2-D)."""
        return self.matrix(k) @ values

    def apply(self, alpha: Cochain) -> Cochain:
        if alpha.complex is not self.complex:
            raise ValueError("cochain lives on a different complex")
        return Cochain(self.complex, alpha.dim - 1, self.apply_values(alpha.dim, alpha.values))

    def constant_component(self, alpha: Cochain) -> float:
        """The degree-0 identity's constant term pi evaluated on a 0-cochain."""
        if alpha.dim != 0:
            raise ValueError("constant component is defined for 0-cochains")
        return float(self.constant_component_block(alpha.values[:, None])[0])

    def constant_component_block(self, values: np.ndarray) -> np.ndarray:
        """pi of each column of a block of 0-cochain values."""
        cx = self.complex
        if self.kind == "combinatorial":
            return np.asarray(values[cx.index((self.cone.vertex,))], dtype=float)
        t = self._base_triangle
        if t is None:
            raise ValueError(f"point {tuple(self.cone.point)} lies outside the mesh")
        lam = self.geometry.barycentric(t, self.cone.point)
        corners = np.searchsorted(cx._rows[0][:, 0], self.geometry.triangle_vertices[t])
        # one dot with a contiguous row per column, as whitney_value takes it
        rows = np.array(values[corners].T, dtype=float, order="C")
        return np.array([lam @ row for row in rows])

    @cached_property
    def _base_triangle(self) -> int | None:
        """The mesh triangle holding the Whitney base point, located once."""
        return self.geometry.locate(self.cone.point)

    def project_admissible(self, alpha: Cochain) -> Cochain:
        """Nearest input on which the identity holds (see the block form)."""
        values = self.project_admissible_block(alpha.dim, alpha.values[:, None])
        return Cochain(self.complex, alpha.dim, values[:, 0])

    def project_admissible_block(self, k: int, values: np.ndarray) -> np.ndarray:
        """Each column's nearest admissible input: every cochain is admissible."""
        return values


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

    def constant_component_block(self, values: np.ndarray) -> np.ndarray:
        return self.base.constant_component_block(values)

    def project_admissible_block(self, k: int, values: np.ndarray) -> np.ndarray:
        return self.base.project_admissible_block(k, values)


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

    def constant_component_block(self, values: np.ndarray) -> np.ndarray:
        """Zero: on admissible inputs the identity has no constant term."""
        return np.zeros(values.shape[1])

    def signed_mass(self, alpha: Cochain) -> float:
        """Total integral of the Whitney interpolant of a top cochain."""
        if alpha.dim != self.complex.dim:
            raise ValueError("mass is defined for top-degree cochains")
        return float(alpha.values @ self.geometry.orientation)

    def _check_zero_mean(self, values: np.ndarray) -> None:
        """Reject top-degree values (one cochain or one per column) of nonzero mass."""
        mass = self.geometry.orientation @ values
        scale = np.abs(values).max(axis=0, initial=0.0)
        bad = np.flatnonzero(np.abs(mass) > 1e-9 * np.maximum(scale, 1.0))
        if bad.size:
            raise PreconditionError(
                f"top-degree input must have zero mean, got total integral "
                f"{np.atleast_1d(mass)[bad[0]]:.3e}"
            )

    def apply_values(self, k: int, values: np.ndarray) -> np.ndarray:
        if k == self.complex.dim:
            self._check_zero_mean(values)
        return super().apply_values(k, values)

    def project_admissible_block(self, k: int, values: np.ndarray) -> np.ndarray:
        """Each column's nearest admissible input: zero boundary trace, or zero
        mean on top."""
        cx = self.complex
        values = np.array(values, dtype=float)
        if k == cx.dim:
            # each mass from a contiguous row, as signed_mass takes it
            rows = np.ascontiguousarray(values.T)
            orientation = self.geometry.orientation
            c = np.array([row @ orientation for row in rows]) / self.geometry.total_area
            return values - self.geometry.signed_area[:, None] * c
        values[cx.boundary_indices(k)] = 0.0
        return values


# Trials are evaluated in column blocks of at most this many entries of the
# complex's largest degree, so each temporary of a block stays near 2 MB.
BLOCK_ENTRIES = 1 << 18


def _residuals(op, k: int, values: np.ndarray) -> np.ndarray:
    """Residuals of the homotopy identity on k-cochain values, one per column."""
    cx = op.complex
    if not 0 <= k <= cx.dim:
        raise ValueError(f"the homotopy identity holds in degrees 0..{cx.dim}, got {k}")
    if k == 0:
        r = op.apply_values(1, cx.coboundary_matrix(0) @ values) - values
        return r + op.constant_component_block(values)
    dp = cx.coboundary_matrix(k - 1) @ op.apply_values(k, values)
    if k == cx.dim:
        return dp - values
    return dp + op.apply_values(k + 1, cx.coboundary_matrix(k) @ values) - values


def homotopy_residual(op, alpha: Cochain) -> np.ndarray:
    """Componentwise residual of the homotopy identity on one cochain."""
    if alpha.complex is not op.complex:
        raise ValueError("cochain lives on a different complex")
    return _residuals(op, alpha.dim, alpha.values[:, None])[:, 0]


class _Seeded(ISeedSequence):
    """A seed sequence that hands its bit generator one precomputed state."""
    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _seed_states(seed: int, ks, trials: int) -> np.ndarray:
    """``SeedSequence((seed, k, t)).generate_state(4, np.uint64)`` for k in ks, t < trials."""
    words = np.frombuffer(seed.to_bytes((seed.bit_length() + 31) // 32 * 4 or 4, "little"), "<u4")
    entropy = np.broadcast_arrays(*words, np.asarray(ks).astype(np.uint32)[:, None],
                                  np.arange(trials, dtype=np.uint32))
    const = [0x43B0D7E5]

    def hashmix(value, mult=0x931E8875):
        value = value ^ const[0]
        const[0] = const[0] * mult & 0xFFFFFFFF
        value = value * const[0]
        return value ^ value >> 16

    # NumPy's mixing into a pool of 4 words, vectorised over every (k, t)
    with np.errstate(over="ignore"):
        pool = [hashmix(e) for e in (*entropy, np.zeros_like(entropy[-1]))[:4]]
        for src, dst in [(s, d) for s in range(max(4, len(entropy))) for d in range(4) if s != d]:
            y = hashmix(pool[src] if src < 4 else entropy[src])
            r = pool[dst] * 0xCA01F9DD - y * 0x4973F715
            pool[dst] = r ^ r >> 16
        const[0] = 0x8B51F9DD
        state = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(8)], axis=-1)
    return state.view(np.uint64)


def verify_homotopy(op, ks=None, trials: int = 100, seed: int = 0) -> dict:
    """Max/mean homotopy residuals over seeded random cochains.

    Trial t of degree k draws ``default_rng((seed, k, t)).uniform(-1, 1, n)``,
    so the report is reproducible for a non-negative integer ``seed``.
    Inputs are first projected to the operator's admissible subspace.  Each
    degree's trials go through ``_residuals`` in column blocks; a trial's
    residual is bitwise the one ``homotopy_residual`` gives on its cochain.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials >= 2**32:
        raise ValueError(f"trials must be below 2**32, got {trials}")
    index = operator.index(seed) if hasattr(seed, "__index__") else -1
    if index < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    cx = op.complex
    ks = [operator.index(k) for k in (range(cx.dim + 1) if ks is None else ks)]
    width = max(1, BLOCK_ENTRIES // max(map(cx.num_simplices, range(cx.dim + 1))))
    per_k = {}
    for k, k_states in zip(ks, _seed_states(index, ks, trials)):
        # assemble the degree's matrices before its blocks take memory
        for j in (k, k + 1):
            if 1 <= j <= cx.dim:
                op.matrix(j)
        size = cx.num_simplices(k)
        worst = 0.0
        total = 0.0
        for start in range(0, trials, width):
            draws = np.empty((min(width, trials - start), size))
            for row, state in zip(draws, k_states[start:start + width]):
                np.random.Generator(np.random.PCG64(_Seeded(state))).random(out=row)
            draws *= 2.0  # bitwise uniform(-1, 1), which forms -1 + 2 * u exactly
            draws -= 1.0
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
