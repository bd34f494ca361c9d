"""The Whitney matrices against exact rational rows (``exact.py``).

Every entry of a row of matrix(1) or matrix(2) is within ORACLE_C times the
unit roundoff u times max(1, the exact row's absolute sum) of the exact row
of the row's chain: the same bound README states.  The exact rows share no
code with ``decpotentials.singular``.  They also check, exactly, the
derivation in ``ComplexPropertyOperator``'s docstring: ``pi P_1`` and
``P_1 P_2``.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import Delaunay

from decpotentials import (
    BogovskiiOperator,
    DiscretePoincareOperator,
    MeshGeometry,
    SimplicialComplex,
    SlabAffineContraction,
    generate_square_mesh,
    lipschitz_cone,
    star_cone,
)
from decpotentials.singular import triangle_functional

from conftest import jitter_interior
from exact import ExactMesh, exact_row

ORACLE_C = 8
U = 2.0 ** -53

MESHES = {"square:4": lambda: generate_square_mesh(4),
          "jittered square:4": lambda: jitter_interior(generate_square_mesh(4))}


def build(kind, cx):
    if kind == "star":
        return DiscretePoincareOperator(star_cone((0.5, 0.5), cx))
    if kind == "lipschitz":
        return DiscretePoincareOperator(lipschitz_cone(SlabAffineContraction.ushape((0.2, 0.2)), cx))
    if kind == "straight":  # Lipschitz along straight paths to the same point
        return DiscretePoincareOperator(
            lipschitz_cone(SlabAffineContraction.straight_line((0.2, 0.2)), cx))
    return BogovskiiOperator((0.52, 0.51), cx)


def assert_within_the_bound(row, exact, what):
    """``row`` and ``exact`` map column to weight; ``exact`` in Fractions."""
    scale = max(1.0, sum(abs(float(w)) for w in exact.values()))
    err = max((abs(row.get(j, 0.0) - float(exact.get(j, 0))) for j in set(row) | set(exact)),
              default=0.0)
    assert err <= ORACLE_C * U * scale, (what, err / (U * scale))


@pytest.mark.parametrize("kind", ["star", "lipschitz", "bogovskii"])
@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_every_row_is_within_the_bound_of_its_exact_row(mesh, kind):
    cx = MESHES[mesh]()
    op, em = build(kind, cx), ExactMesh(cx)
    for k in (1, 2):
        m = op.matrix(k)
        for i, s in enumerate(cx.simplices(k - 1)):
            row = dict(zip(m.indices[m.indptr[i]:m.indptr[i + 1]].tolist(),
                           m.data[m.indptr[i]:m.indptr[i + 1]].tolist()))
            exact = exact_row(em, [(c, t.points) for c, t in op.cone.table[s].terms])
            assert_within_the_bound(row, exact, (k, s))


def exact_matrix(op, em, k):
    """The exact rows of ``op.matrix(k)``, one dict per (k-1)-simplex."""
    return [exact_row(em, [(c, t.points) for c, t in op.cone.table[s].terms])
            for s in op.complex.simplices(k - 1)]


def times(row, rows):
    """A row (a dict) times a matrix given by its rows, zeros dropped."""
    out = {}
    for i, w in row.items():
        for j, x in rows[i].items():
            out[j] = out.get(j, 0) + w * x
    return {j: x for j, x in out.items() if x}


def exact_rows(mesh, kind):
    """The operator and the exact rows of pi, P_1 and P_2; pi takes the exact
    barycentric weights of the point in the first triangle that holds it."""
    cx = MESHES[mesh]()
    op, em = build(kind, cx), ExactMesh(cx)
    point = tuple(Fraction(float(x)) for x in op.cone.point)
    for t, tri in enumerate(em.triangles):
        weights = em.barycentric(t, point)
        if min(weights) >= 0:
            break
    pi = {cx.index((v,)): w for v, w in zip(tri, weights)}
    return op, pi, exact_matrix(op, em, 1), exact_matrix(op, em, 2)


@pytest.mark.parametrize("kind", ["star", "straight"])
@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_exact_double_potential_is_zero(mesh, kind):
    # ComplexPropertyOperator's derivation, in exact rows: pi P_1 = 0, so the
    # closed P_1 P_2 is 0 too, and P - dPP = P squares to zero
    _, pi, p1, p2 = exact_rows(mesh, kind)
    assert times(pi, p1) == {} and all(times(row, p2) == {} for row in p1)


@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_exact_double_potential_of_bent_paths_is_constant(mesh):
    # the ushape contraction's paths bend, so pi P_1 is not zero at the point
    # (0.2, 0.2), which is no mesh vertex here; P_1 P_2 is still closed: the
    # constant pi P_1 P_2 on every row, which no correction D_0 (...) removes
    _, pi, p1, p2 = exact_rows(mesh, "lipschitz")
    want = times(times(pi, p1), p2)
    assert all(times(row, p2) == want for row in p1)


@pytest.mark.parametrize("mesh", sorted(MESHES))
def test_exact_bogovskii_double_potential_on_zero_mean_inputs(mesh):
    # on zero-mean inputs P_1 P_2 is zero up to the rounding of the shadow
    # pieces' corners: each exact row less its multiple of the orientation
    # (whose dot with a cochain is its mass) is within ORACLE_C u times the
    # row sum of |P_1| times the largest row sum of |P_2|
    op, _, p1, p2 = exact_rows(mesh, "bogovskii")
    o = [Fraction(float(x)) for x in op._orientation]
    top = max(sum(map(abs, row.values())) for row in p2)
    for i, row in enumerate(p1):
        pp = times(row, p2)
        c = sum(x * o[t] for t, x in pp.items()) / sum(x * x for x in o)
        err = max(abs(pp.get(t, 0) - c * o[t]) for t in range(len(o)))
        assert err <= ORACLE_C * U * max(1, sum(map(abs, row.values())) * top), i


def sliver_mesh(d):
    """200 points, the unit square's corners and (d, 0.5): a boundary sliver
    of area d / 2 against the edge x = 0."""
    pts = np.vstack([np.random.default_rng(2).random((200, 2)) * 0.9 + 0.05,
                     [[0, 0], [1, 0], [0, 1], [1, 1]], [[d, 0.5]]])
    return SimplicialComplex(Delaunay(pts).simplices, coordinates=pts)


# Bogovskii images on the sliver mesh with d = 1e-8: a shadow fan triangle
# with a corner 6e-17 from a mesh vertex and an edge along that vertex's
# triangle, and a thin image that hugs the sliver from inside
SLIVER_IMAGES = {
    "fan-corner-at-a-vertex": ((0.9499622778302402, 0.3263661105367388),
                               (1.0, 0.30499534845899456), (1.0, 0.0)),
    "hugging-the-sliver": ((0.06962017524249635, 0.3401763426587325), (0.0, 0.4999999998076924),
                           (9.99999993922529e-09, 0.5000000000000001)),
}


@pytest.mark.parametrize("name", sorted(SLIVER_IMAGES))
def test_sliver_images_are_within_the_bound_of_their_exact_rows(name):
    cx = sliver_mesh(1e-8)
    image = SLIVER_IMAGES[name]
    row = triangle_functional(MeshGeometry(cx), np.array(image), allow_exterior=True)
    exact = exact_row(ExactMesh(cx), [(1.0, image)])
    assert len(exact) >= 2
    assert_within_the_bound(row, exact, name)
