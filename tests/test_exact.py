"""The Whitney matrices against exact rational rows (``exact.py``).

Every entry of a row of matrix(1) or matrix(2) is within ORACLE_C times the
unit roundoff u times max(1, the exact row's absolute sum) of the exact row
of the row's chain: the same bound README states.  The exact rows share no
code with ``decpotentials.singular``.
"""

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
