"""Potential operators: matrices, homotopy identities, trace preservation."""

import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import Delaunay

from decpotentials import (
    BasePointOnFacetError,
    BogovskiiOperator,
    Cochain,
    ComplexPropertyOperator,
    DiscretePoincareOperator,
    MeshGeometry,
    NotStarShapedError,
    OutsideDomainError,
    PreconditionError,
    SimplicialComplex,
    StrongCollapseSequence,
    build_product_complex,
    check_base_point,
    coboundary,
    collapse_cone,
    contraction_cone,
    contraction_from_strong_collapse,
    find_collapse_sequence,
    SlabAffineContraction,
    find_strong_collapse_sequence,
    generate_square_mesh,
    generate_ushape_mesh,
    homotopy_residual,
    infinite_cone,
    lipschitz_cone,
    max_residual,
    shadow_cone,
    star_cone,
    strong_collapse_cone,
    uniform_breakpoints,
    validate_contraction,
    verify_homotopy,
    whitney_value,
)
from decpotentials import cones as cone_module, potentials
from decpotentials.cli import main
from decpotentials.whitney import _dot

from conftest import (annulus_complex, certified_residual, csc_conversions, dangling_edge_complex,
                      flip_mesh, fold_mesh, holed_square_complex, jitter_interior,
                      random_cochain, random_collapsible, unchecked_bogovskii, unchecked_star)


@pytest.fixture(scope="module")
def collapse_op2(square2):
    seq = find_collapse_sequence(square2)
    assert seq is not None
    return DiscretePoincareOperator(collapse_cone(seq))


@pytest.fixture(scope="module")
def star_op2(square2, geom2):
    return DiscretePoincareOperator(star_cone((0.52, 0.51), square2), geometry=geom2)


@pytest.fixture(scope="module")
def bogovskii2(square2, geom2):
    return BogovskiiOperator((0.52, 0.51), square2, geometry=geom2)


def int_cochain(cx, k, rng):
    return Cochain(cx, k, rng.integers(-5, 6, cx.num_simplices(k)).astype(float))


def test_kinds_and_labels(collapse_op2, star_op2, bogovskii2):
    assert collapse_op2.kind == "combinatorial"
    assert collapse_op2.label == "combinatorial"
    assert star_op2.kind == "whitney"
    assert bogovskii2.kind == "bogovskii"
    relabeled = DiscretePoincareOperator(collapse_op2.cone, label="collapse")
    assert relabeled.label == "collapse"


def test_unsupported_cone_rejected(square2):
    with pytest.raises(TypeError):
        DiscretePoincareOperator(object())
    # an infinite cone is not its star simplex
    with pytest.raises(TypeError, match="InfiniteConeOperator"):
        DiscretePoincareOperator(infinite_cone((0.52, 0.51), generate_square_mesh(4)))


def test_base_point_outside_the_mesh_is_rejected(square2):
    # pi is read off the triangle holding the base point, and a Bogovskii
    # domain must be star-shaped about its point, which lies in it
    for build in (lambda p: DiscretePoincareOperator(star_cone(p, square2)),
                  lambda p: BogovskiiOperator(p, square2)):
        with pytest.raises(PreconditionError, match=r"\(1.5, 0.5\) lies outside the mesh"):
            build((1.5, 0.5))


def test_matrix_shapes_and_apply(collapse_op2, square2):
    for k in (1, 2):
        mat = collapse_op2.matrix(k)
        assert mat.shape == (square2.num_simplices(k - 1), square2.num_simplices(k))
        alpha = random_cochain(square2, k, np.random.default_rng(3 + k))
        out = collapse_op2.apply(alpha)
        assert out.dim == k - 1
        assert np.allclose(out.values, mat @ alpha.values)


def test_matrix_degree_bounds(collapse_op2):
    with pytest.raises(ValueError):
        collapse_op2.matrix(0)
    with pytest.raises(ValueError):
        collapse_op2.matrix(3)


def test_apply_rejects_foreign_cochain(collapse_op2, bogovskii2, square1):
    alpha = random_cochain(square1, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        collapse_op2.apply(alpha)
    with pytest.raises(ValueError):
        bogovskii2.apply(alpha)


def test_constant_component_combinatorial(collapse_op2, square2):
    alpha = Cochain(square2, 0, np.arange(9.0))
    terminal = collapse_op2.cone.vertex
    assert collapse_op2.constant_component(alpha) == float(terminal)


def test_constant_component_whitney(square2, geom2):
    # Base point at the barycenter of triangle (0, 1, 4): all three
    # barycentric coordinates are 1/3 there.
    op = DiscretePoincareOperator(star_cone((1 / 3, 1 / 6), square2), geometry=geom2)
    alpha = Cochain(square2, 0, np.arange(9.0))
    assert abs(op.constant_component(alpha) - 5 / 3) < 1e-14


def test_constant_component_needs_degree_zero(collapse_op2, square2):
    alpha = random_cochain(square2, 1, np.random.default_rng(1))
    with pytest.raises(ValueError):
        collapse_op2.constant_component(alpha)


def test_degree_zero_identity_exact_on_integers(collapse_op2, square2):
    rng = np.random.default_rng(11)
    terminal_index = square2.index((collapse_op2.cone.vertex,))
    for _ in range(5):
        alpha = int_cochain(square2, 0, rng)
        got = collapse_op2.apply(coboundary(alpha)).values
        want = alpha.values - alpha.values[terminal_index]
        # integer combinatorics: the identity holds without rounding
        assert np.array_equal(got, want)


def test_middle_degree_identity_exact_on_integers(collapse_op2, square2):
    rng = np.random.default_rng(12)
    for _ in range(5):
        alpha = int_cochain(square2, 1, rng)
        lhs = coboundary(collapse_op2.apply(alpha)).values
        lhs = lhs + collapse_op2.apply(coboundary(alpha)).values
        assert np.array_equal(lhs, alpha.values)


def test_top_degree_identity_exact_on_integers(collapse_op2, square2):
    rng = np.random.default_rng(13)
    for _ in range(5):
        alpha = int_cochain(square2, 2, rng)
        assert np.array_equal(coboundary(collapse_op2.apply(alpha)).values, alpha.values)


def test_star_identities_all_degrees(star_op2, square2):
    rng = np.random.default_rng(21)
    for k in (0, 1, 2):
        alpha = random_cochain(square2, k, rng)
        assert np.max(np.abs(homotopy_residual(star_op2, alpha))) < 1e-12


def test_zero_input_zero_residual(collapse_op2, square2):
    r = homotopy_residual(collapse_op2, Cochain(square2, 1, np.zeros(16)))
    assert not np.any(r)


def test_complex_property_definition(star_op2, square2):
    tilde = ComplexPropertyOperator(star_op2)
    assert tilde.label.endswith("complex-property")
    rng = np.random.default_rng(31)
    beta = random_cochain(square2, 1, rng)
    assert np.allclose(tilde.apply(beta).values, star_op2.apply(beta).values)
    alpha = random_cochain(square2, 2, rng)
    want = star_op2.apply(alpha)
    want = want - coboundary(star_op2.apply(want))
    assert np.allclose(tilde.apply(alpha).values, want.values)


def test_complex_property_squares_to_zero(star_op2, collapse_op2, square2):
    rng = np.random.default_rng(32)
    for base in (star_op2, collapse_op2):
        tilde = ComplexPropertyOperator(base)
        for _ in range(5):
            alpha = random_cochain(square2, 2, rng)
            twice = tilde.apply(tilde.apply(alpha))
            assert np.max(np.abs(twice.values)) < 1e-12


def test_complex_property_keeps_homotopy_identity(star_op2, square2):
    tilde = ComplexPropertyOperator(star_op2)
    report = verify_homotopy(tilde, trials=10, seed=4)
    assert max_residual(report) < 1e-12


def test_base_point_on_vertex_rejected(square2, geom2):
    with pytest.raises(BasePointOnFacetError):
        BogovskiiOperator((0.5, 0.5), square2, geometry=geom2)


def test_base_point_on_interior_edge_rejected(square2, geom2):
    # midpoint of the diagonal edge (0, 4)
    with pytest.raises(BasePointOnFacetError):
        check_base_point(geom2, (0.25, 0.25))


def test_base_point_off_edges_accepted(geom2):
    check_base_point(geom2, (0.52, 0.51))


def _edge_distances(geometry, p):
    """Distances from a point to every mesh edge: the scan the gate once made."""
    a, b = geometry.edge_coords.transpose(1, 0, 2)
    d = b - a
    t = np.clip(_dot(p - a, d) / _dot(d, d), 0.0, 1.0)
    v = p - (a + t[:, None] * d)
    return np.sqrt(_dot(v, v))


@pytest.mark.parametrize("mesh", ["square8-jittered", "delaunay200"])
def test_base_point_gate_agrees_with_a_scan_of_every_edge(mesh):
    # the gate measures only the edges of the triangle holding the point
    cx = jitter_interior(generate_square_mesh(8)) if mesh == "square8-jittered" \
        else _delaunay(200, 5)
    geom = MeshGeometry(cx)
    tol = 1e-12 * geom.diagonal
    rng = np.random.default_rng(3)
    ends = cx.coordinates[cx._rows[1]]
    outcomes = {"accepted": 0, "rejected": 0, "outside": 0}
    for j in range(10, 15):
        for _ in range(60):
            # a random point of a random edge, or one of its ends, moved
            # 10^-j diagonals in a random direction
            a, b = ends[rng.integers(len(ends))]
            w = rng.uniform() if rng.uniform() < 0.5 else 0.0
            angle = rng.uniform(0.0, 2.0 * np.pi)
            p = a + w * (b - a) + 10.0 ** -j * geom.diagonal * np.array(
                [np.cos(angle), np.sin(angle)])
            distances = _edge_distances(geom, p)
            if geom.locate(p) is None:
                with pytest.raises(PreconditionError, match="lies outside the mesh"):
                    check_base_point(geom, p)
                outcomes["outside"] += 1
                continue
            try:
                check_base_point(geom, p)
            except BasePointOnFacetError as err:
                named = re.search(r"lies on edge \((\d+), (\d+)\) within", str(err)).groups()
                assert distances[cx.index(tuple(map(int, named)))] <= tol
                outcomes["rejected"] += 1
            else:
                assert distances.min() > tol
                outcomes["accepted"] += 1
    assert min(outcomes["accepted"], outcomes["rejected"]) >= 10, outcomes


def _counting(monkeypatch, counts, owner, name, *also):
    """Wrap ``owner.name`` (and the same function wherever ``also`` imported
    it) so that each call adds one to ``counts[name]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    for where in (owner, *also):
        monkeypatch.setattr(where, name, counted, raising=False)


def test_bogovskii_builds_one_star_cone_and_checks_the_domain_once(square8, geom8, monkeypatch):
    counts = {"star_cone": 0, "check_star_shaped": 0, "check_triangulation": 0, "locate": 0}
    _counting(monkeypatch, counts, cone_module, "star_cone", potentials)
    _counting(monkeypatch, counts, potentials, "check_star_shaped")
    _counting(monkeypatch, counts, potentials, "check_triangulation")
    _counting(monkeypatch, counts, MeshGeometry, "locate")
    op = BogovskiiOperator((0.52, 0.51), square8, geom8)
    assert counts == {"star_cone": 1, "check_star_shaped": 1, "check_triangulation": 1,
                      "locate": 1}
    assert op.kind == op.label == "bogovskii" and op.geometry is geom8
    assert op._pi[0].size == op._pi[1].size == 0 and op._matrices == {}


@pytest.mark.parametrize("kind", ["star", "bogovskii"])
def test_complex_property_copies_its_base_state(kind, square8, geom8, monkeypatch):
    base = (DiscretePoincareOperator(star_cone((0.52, 0.51), square8), geom8) if kind == "star"
            else BogovskiiOperator((0.52, 0.51), square8, geom8))
    counts = {"check_star_shaped": 0, "locate": 0}
    _counting(monkeypatch, counts, potentials, "check_star_shaped")
    _counting(monkeypatch, counts, MeshGeometry, "locate")
    tilde = ComplexPropertyOperator(base)
    assert counts == {"check_star_shaped": 0, "locate": 0}
    assert (tilde.cone, tilde.geometry, tilde._pi) == (base.cone, base.geometry, base._pi)
    assert tilde.kind == base.kind and tilde.label == base.label + "+complex-property"


def test_bogovskii_matrix_vanishes_on_boundary_rows(bogovskii2, square2):
    for k in (1, 2):
        mat = bogovskii2.matrix(k)
        for s in square2.boundary_simplices(k - 1):
            assert np.max(np.abs(mat[square2.index(s)])) < 1e-12


def test_bogovskii_homotopy(bogovskii2):
    report = verify_homotopy(bogovskii2, trials=20, seed=7)
    assert max_residual(report) < 1e-10


def test_bogovskii_nonzero_mean_rejected(bogovskii2, square2, geom2):
    # signed-area values interpolate to the constant density 1: mass = area;
    # the message names the mass of one cochain, or of a block's first bad column
    message = "^top-degree input must have zero mean, got total integral "
    alpha = Cochain(square2, 2, np.array(geom2.signed_area, dtype=float))
    with pytest.raises(PreconditionError, match=message + r"1.000e\+00$"):
        bogovskii2.apply(alpha)
    rng = np.random.default_rng(43)
    alpha = random_cochain(square2, 2, rng)
    with pytest.raises(PreconditionError, match=message + r"1.280e\+00$"):
        bogovskii2.apply(alpha)
    with pytest.raises(PreconditionError, match=message + "-1.280e-07$"):
        bogovskii2.apply(Cochain(square2, 2, alpha.values[::-1] * 1e-7))
    with pytest.raises(PreconditionError, match=message + r"-4.000e\+00$"):
        bogovskii2.apply(Cochain(square2, 2, np.arange(8)))
    o = geom2.orientation
    block = bogovskii2.project_admissible_block(2, rng.uniform(-1.0, 1.0, (8, 4)))
    block[:, 2] += 0.3 * o
    block[:, 3] -= 0.7 * o
    with pytest.raises(PreconditionError, match=message + r"2.400e\+00$"):
        bogovskii2.apply_values(2, block)
    # projected inputs pass, alone or as a strided column
    for v in (bogovskii2.project_admissible(alpha).values, block[:, 1]):
        bogovskii2.apply(Cochain(square2, 2, v))


def test_bogovskii_non_finite_mass_rejected(bogovskii2, square2, geom2):
    # abs(nan) > 1e-9 is false, so a NaN mass once passed the check; an
    # infinite one passed against its own infinite scale
    message = "^top-degree input must have zero mean, got total integral "
    for bad in (np.nan, np.inf, -np.inf):
        v = bogovskii2.project_admissible_block(2, np.linspace(-1.0, 1.0, 8))
        v[3] = bad
        mass = f"{bad * geom2.orientation[3]:.3e}$"
        with pytest.raises(PreconditionError, match=message + mass):
            bogovskii2.apply(Cochain(square2, 2, v))
        with pytest.raises(PreconditionError, match=message + mass):
            bogovskii2.apply_values(2, np.column_stack([np.zeros(8), v]))
    # masses +inf and -inf add up to NaN (past numpy's warning of inf - inf)
    v = np.zeros(8)
    v[[2, 5]] = np.inf * geom2.orientation[2], -np.inf * geom2.orientation[5]
    with np.errstate(invalid="ignore"), pytest.raises(PreconditionError, match=message + "nan$"):
        bogovskii2.apply(Cochain(square2, 2, v))


def test_bogovskii_opposite_infinite_masses_are_rejected_under_warnings_as_errors(
        bogovskii2, square2, geom2):
    # +inf and -inf masses add up to NaN, past numpy's "invalid value"
    # warning, which came out as a RuntimeWarning where warnings raise
    v = np.zeros(8)
    v[[2, 5]] = np.inf * geom2.orientation[2], -np.inf * geom2.orientation[5]
    alpha = Cochain(square2, 2, v)
    message = "^top-degree input must have zero mean, got total integral nan$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: bogovskii2.apply(alpha),
                     lambda: bogovskii2.apply_values(2, np.column_stack([np.zeros(8), v])),
                     lambda: homotopy_residual(bogovskii2, alpha)):
            with pytest.raises(PreconditionError, match=message):
                call()


def test_bogovskii_mass_and_projection_reject_a_non_finite_input(bogovskii2, square2, geom2):
    # signed_mass returned NaN, and the top-degree projection subtracted
    # NaN; where warnings raise, both came out as numpy's RuntimeWarning
    message = "^top-degree input must have zero mean, got total integral "
    opposite = np.zeros(8)
    opposite[[2, 5]] = np.inf * geom2.orientation[2], -np.inf * geom2.orientation[5]
    cases = [(opposite, "nan")]
    for bad in (np.nan, np.inf, -np.inf):
        v = np.zeros(8)
        v[3] = bad
        cases.append((v, f"{bad * geom2.orientation[3]:.3e}"))
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            for v, mass in cases:
                alpha = Cochain(square2, 2, v)
                for call in (lambda: bogovskii2.signed_mass(alpha),
                             lambda: bogovskii2.project_admissible(alpha),
                             lambda: bogovskii2.project_admissible_block(
                                 2, np.column_stack([np.zeros(8), v]))):
                    with pytest.raises(PreconditionError, match=message + mass + "$"):
                        call()
    # a block's masses are checked column by column: two columns of opposite
    # infinite mass, or of finite masses whose sum overflows, add no warning
    plus, minus = np.zeros(8), np.zeros(8)
    plus[2], minus[2] = np.inf * geom2.orientation[2], -np.inf * geom2.orientation[2]
    huge = np.zeros((8, 2))
    huge[2] = 0.9 * np.finfo(float).max * geom2.orientation[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=message + "inf$"):
            bogovskii2.project_admissible_block(2, np.column_stack([plus, minus]))
        with pytest.raises(PreconditionError, match=message + "-inf$"):
            bogovskii2.project_admissible_block(2, np.column_stack([minus, plus]))
        masses = bogovskii2.project_admissible_block(2, huge).T @ geom2.orientation
        assert np.isfinite(masses).all()
    # finite values keep their mass and projection
    v = np.linspace(-1.0, 1.0, 8)
    assert bogovskii2.signed_mass(Cochain(square2, 2, v)) == float(v @ geom2.orientation)
    assert abs(bogovskii2.signed_mass(bogovskii2.project_admissible(Cochain(square2, 2, v)))) \
        < 1e-15


def test_bogovskii_zero_mean_threshold(bogovskii2, square2, geom2):
    # a mass passes up to 1e-9 times the largest |value|, and up to 1e-9 at
    # any scale: one cochain and a block's columns alike
    o = geom2.orientation.astype(float)
    message = "^top-degree input must have zero mean, got total integral "
    wide = np.zeros(8)
    wide[:2] = 1000.0 * o[:2] * [1.0, -1.0]  # scale 1000, mass 0
    cases = [(wide, 1.1e-6, "1.100e-06"), (wide, 0.9e-6, None), (wide, 1e-9, None),
             (np.zeros(8), 1e-9, None), (np.zeros(8), 1.2e-9, "1.200e-09")]
    for base, mass, raised in cases:
        v = base.copy()
        v[2] = mass * o[2]
        for apply in (lambda: bogovskii2.apply(Cochain(square2, 2, v)),
                      lambda: bogovskii2.apply_values(2, np.column_stack([np.zeros(8), v]))):
            if raised is None:
                apply()
            else:
                with pytest.raises(PreconditionError, match=message + raised + "$"):
                    apply()


def test_bogovskii_signed_mass(bogovskii2, square2, geom2):
    alpha = Cochain(square2, 2, np.array(geom2.signed_area, dtype=float))
    assert abs(bogovskii2.signed_mass(alpha) - geom2.total_area) < 1e-14
    # value +1 against canonical orientation means density 1/|T| on each
    # triangle, so every triangle contributes exactly 1
    ones = Cochain(square2, 2, np.array(geom2.orientation, dtype=float))
    assert abs(bogovskii2.signed_mass(ones) - 8.0) < 1e-14
    with pytest.raises(ValueError):
        bogovskii2.signed_mass(Cochain(square2, 1, np.zeros(16)))


def test_project_admissible_top_degree(bogovskii2, square2):
    rng = np.random.default_rng(41)
    alpha = random_cochain(square2, 2, rng)
    proj = bogovskii2.project_admissible(alpha)
    assert abs(bogovskii2.signed_mass(proj)) < 1e-13
    again = bogovskii2.project_admissible(proj)
    assert np.allclose(again.values, proj.values)


def test_project_admissible_zeroes_boundary(bogovskii2, square2):
    rng = np.random.default_rng(42)
    for k in (0, 1):
        alpha = random_cochain(square2, k, rng)
        proj = bogovskii2.project_admissible(alpha)
        boundary = set(square2.boundary_simplices(k))
        for s in square2.simplices(k):
            i = square2.index(s)
            if s in boundary:
                assert proj.values[i] == 0.0
            else:
                assert proj.values[i] == alpha.values[i]


def l_shape_mesh(n):
    """square:n without its top-right quarter: star-shaped about the points
    of [0, 0.5]^2 only."""
    cx = generate_square_mesh(n)
    c = cx.coordinates
    return SimplicialComplex([t for t in cx.simplices(2) if not (c[list(t)] >= 0.5).all()], c)


def delaunay_mesh():
    # 300 uniform points plus the corners of the unit square
    pts = np.vstack([np.random.default_rng(1).uniform(size=(300, 2)),
                     [[0, 0], [1, 0], [0, 1], [1, 1]]])
    return SimplicialComplex(Delaunay(pts).simplices, coordinates=pts)


ACCEPTED = {
    "square8": (lambda: generate_square_mesh(8), (0.52, 0.51)),
    "square8-corner": (lambda: generate_square_mesh(8), (0.152, 0.151)),
    "jittered-square8": (lambda: jitter_interior(generate_square_mesh(8)), (0.52, 0.51)),
    "l-shape8": (lambda: l_shape_mesh(8), (0.27, 0.26)),
    "delaunay": (delaunay_mesh, (0.5013, 0.4987)),
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_accepted_bogovskii_outputs_have_zero_trace(name):
    mesh, point = ACCEPTED[name]
    cx = mesh()
    op = BogovskiiOperator(point, cx)
    rng = np.random.default_rng(44)
    for k in (1, 2):
        alphas = op.project_admissible_block(k, rng.uniform(-1, 1, (cx.num_simplices(k), 4)))
        out = op.apply_values(k, alphas)
        assert np.all(out[cx.boundary_indices(k - 1)] == 0.0), (name, k)


def bowtie_mesh():
    """Two triangles that share only a vertex: Euler characteristic 1."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 1.0]])
    return SimplicialComplex([(0, 1, 2), (2, 3, 4)], coords)


@pytest.mark.parametrize("mesh, point, message", [
    (lambda: generate_ushape_mesh(10), (0.152, 0.151), "boundary edge (40, 48), margin -0.548"),
    (lambda: l_shape_mesh(8), (0.77, 0.26), "boundary edge (40, 49), margin -0.27"),
    (lambda: l_shape_mesh(8), (0.1623, 0.5 + 1e-7), "margin -1e-07"),
    (holed_square_complex, (0.152, 0.151), "boundary edge (336, 337), margin -0.391"),
    (bowtie_mesh, (0.5, 0.2), "boundary edge (2, 3), margin -0.212"),
    # within 1e-12 diagonals of the re-entrant wall's line, on either side
    (lambda: jitter_interior(l_shape_mesh(8), seed=3), (0.5 - 1e-13, 0.2),
     "lies within 1.4e-12 of the line of boundary edge (40, 49), margin 1e-13"),
    (lambda: jitter_interior(l_shape_mesh(8), seed=3), (0.5 + 1e-13, 0.2),
     "lies outside boundary edge (40, 49), margin -1e-13"),
], ids=["ushape10", "l-shape8", "l-shape8-near-kernel", "holed-square", "bowtie",
        "l-shape8-band-inside", "l-shape8-band-outside"])
def test_bogovskii_rejects_a_domain_not_star_shaped_about_its_point(mesh, point, message):
    with pytest.raises(NotStarShapedError, match=re.escape(message)):
        BogovskiiOperator(point, mesh())


@pytest.mark.parametrize("mesh", [holed_square_complex, annulus_complex, bowtie_mesh],
                         ids=["holed-square24", "annulus", "bowtie"])
def test_bogovskii_rejects_every_point_of_a_domain_star_shaped_about_none(mesh):
    cx = mesh()
    geom = MeshGeometry(cx)
    rng = np.random.default_rng(19)
    # 1,000 points spread over the triangles by area
    picks = rng.choice(len(geom.corners), 1000, p=np.abs(geom.signed_area) / geom.total_area)
    points = np.einsum("ni,nij->nj", rng.dirichlet((1, 1, 1), 1000), geom.corners[picks])
    for p in points:
        with pytest.raises((NotStarShapedError, BasePointOnFacetError)):
            BogovskiiOperator(p, cx, geom)


def isolated_vertex_complex():
    """One triangle and a vertex 3 of no edge."""
    return SimplicialComplex([(0, 1, 2), (3,)], [(0, 0), (1, 0), (0, 1), (0, 2)])


@pytest.mark.parametrize("mesh, point, message", [
    # a star operator here said only that (0.52, 0.51) lies outside boundary
    # edge (7, 25); Lipschitz certified at 1.40
    (fold_mesh, (0.52, 0.51), "edge (2, 7) lies in 3 triangles"),
    # star and Lipschitz certified at 2.0; Bogovskii rejected its own verify
    # draws, as of nonzero mean
    (flip_mesh, (0.3, 0.6), "the two triangles of edge (1, 4) lie on one side of it"),
    (flip_mesh, (0.3, 0.61), "the two triangles of edge (1, 4) lie on one side of it"),
    # Bogovskii built and certified at about 1
    (dangling_edge_complex, (0.25, 0.26), "edge (2, 3) lies in 0 triangles"),
    (isolated_vertex_complex, (0.25, 0.26), "vertex 3 lies in no triangle"),
], ids=["fold", "flip", "flip-bogovskii-point", "dangling-edge", "isolated-vertex"])
def test_whitney_operators_reject_a_mesh_no_planar_triangulation_has(mesh, point, message):
    cx = mesh()
    builds = {"star": lambda: DiscretePoincareOperator(star_cone(point, cx)),
              "bogovskii": lambda: BogovskiiOperator(point, cx)}
    # Lipschitz names the mesh before its straight-line paths leave it
    phi = SlabAffineContraction.straight_line(np.array(point))
    builds["lipschitz"] = lambda: DiscretePoincareOperator(lipschitz_cone(phi, cx))
    for name, build in builds.items():
        with pytest.raises(PreconditionError, match=re.escape(message)):
            build()
    # collapse acts on the abstract complex, and still certifies exactly
    if mesh is not isolated_vertex_complex:  # which has two components
        assert certified_residual(DiscretePoincareOperator(collapse_cone(
            find_collapse_sequence(cx)))) == 0.0


def test_lipschitz_checks_the_triangulation_once_per_geometry(monkeypatch):
    cx = generate_ushape_mesh(10)
    geom = MeshGeometry(cx)
    cone = lipschitz_cone(SlabAffineContraction.ushape(np.array([0.2, 0.2])), cx, geom)
    assert geom._planar

    def refuse(k):
        raise AssertionError("the triangulation was checked again")
    monkeypatch.setattr(cx, "_cofacet_csc", refuse)
    op = DiscretePoincareOperator(cone, geom)
    assert op.geometry is geom and op._matrices == {}


def test_whitney_operators_accept_a_mirrored_mesh_of_clockwise_triangles():
    # mirroring flips every triangle's orientation: each side flips with it
    cx = generate_square_mesh(4)
    mirrored = SimplicialComplex(cx._rows[2].tolist(), cx.coordinates * [-1.0, 1.0])
    geom = MeshGeometry(mirrored)
    assert (geom.orientation == -MeshGeometry(cx).orientation).all()
    phi = SlabAffineContraction.straight_line(np.array([-0.52, 0.51]))
    for op in (DiscretePoincareOperator(star_cone((-0.52, 0.51), mirrored), geom),
               DiscretePoincareOperator(lipschitz_cone(phi, mirrored, geom), geom),
               BogovskiiOperator((-0.52, 0.51), mirrored, geom)):
        assert max_residual(verify_homotopy(op, trials=5)) <= 1e-10, op.label


def test_a_geometry_of_another_complex_is_rejected_before_any_work(monkeypatch):
    # the jittered mesh has the same simplex counts: a star operator with its
    # geometry assembled silently and certified at 0.48
    cx = generate_square_mesh(4)
    other = MeshGeometry(jitter_interior(cx))

    def refuse(*args, **kwargs):
        raise AssertionError("work was done")

    for name in ("check_triangulation", "check_base_point", "check_star_shaped"):
        monkeypatch.setattr(potentials, name, refuse)
    monkeypatch.setattr(MeshGeometry, "locate_all", refuse)
    monkeypatch.setattr(cone_module, "star_cone", refuse)
    phi = SlabAffineContraction.straight_line(np.array([0.5, 0.5]))
    seq = find_collapse_sequence(cx)
    for build in (lambda: DiscretePoincareOperator(star_cone((0.5, 0.5), cx), other),
                  lambda: DiscretePoincareOperator(collapse_cone(seq), other),
                  lambda: BogovskiiOperator((0.5, 0.5), cx, other),
                  lambda: lipschitz_cone(phi, cx, other),
                  lambda: validate_contraction(phi, cx, other),
                  lambda: shadow_cone((0.5, 0.5), cx, other)):
        with pytest.raises(ValueError, match="^the geometry belongs to another complex"):
            build()


def test_star_and_bogovskii_convert_degree_one_once_between_them(monkeypatch):
    # each star-shape check converted the edges' coboundary matrix afresh
    cx = generate_square_mesh(8)
    shapes = csc_conversions(monkeypatch)
    for op in (DiscretePoincareOperator(star_cone((0.52, 0.51), cx)),
               BogovskiiOperator((0.52, 0.51), cx)):
        op.matrix(1), op.matrix(2)
    assert shapes == [cx.coboundary_matrix(1).shape]


def test_bogovskii_preserves_zero_trace(bogovskii2, square2):
    rng = np.random.default_rng(43)
    alpha = bogovskii2.project_admissible(random_cochain(square2, 2, rng))
    out = bogovskii2.apply(alpha)
    boundary = set(square2.boundary_simplices(1))
    worst = max(abs(out.evaluate(s)) for s in boundary)
    assert worst < 1e-12


def test_verify_report_shape_and_determinism(collapse_op2):
    a = verify_homotopy(collapse_op2, trials=5, seed=9)
    b = verify_homotopy(collapse_op2, trials=5, seed=9)
    assert a == b
    assert a["operator"] == "combinatorial"
    assert a["trials"] == 5 and a["seed"] == 9
    assert sorted(a["per_k"]) == ["0", "1", "2"]
    for entry in a["per_k"].values():
        assert entry["mean"] <= entry["max"]


def test_verify_selected_degrees(star_op2):
    report = verify_homotopy(star_op2, ks=[1], trials=3, seed=2)
    assert list(report["per_k"]) == ["1"]
    assert max_residual(report) < 1e-12


def residual_operator(op, k):
    """R_k = D_{k-1} P_k + P_{k+1} D_k - I, plus 1 pi^T at k = 0, as an array.

    Its largest absolute row sum is the worst residual over all inputs in
    the [-1, 1] box, which seeded trials only sample.
    """
    cx = op.complex
    size = cx.num_simplices(k)
    r = -np.eye(size)
    if k >= 1:
        r += (cx.coboundary_matrix(k - 1) @ op.matrix(k)).toarray()
    if k < cx.dim:
        r += (op.matrix(k + 1) @ cx.coboundary_matrix(k)).toarray()
    if k == 0:
        pi = [op.constant_component(Cochain(cx, 0, e)) for e in np.eye(size)]
        r += np.asarray(pi)[None, :]
    return r


@pytest.fixture(scope="module")
def collapse_op8(square8):
    return DiscretePoincareOperator(collapse_cone(find_collapse_sequence(square8)))


@pytest.fixture(scope="module")
def star_op8(square8, geom8):
    return DiscretePoincareOperator(star_cone((0.52, 0.51), square8), geometry=geom8)


def test_matrices_are_csr(collapse_op2, star_op2, bogovskii2):
    for op in (collapse_op2, star_op2, bogovskii2, ComplexPropertyOperator(star_op2)):
        for k in (1, 2):
            assert isinstance(op.matrix(k), sp.csr_matrix)


def test_combinatorial_residual_operator_is_exactly_zero(collapse_op8):
    cx = generate_square_mesh(3)
    seq = find_strong_collapse_sequence(cx)
    product = build_product_complex(cx, uniform_breakpoints(len(seq.steps)))
    strong = DiscretePoincareOperator(
        contraction_cone(contraction_from_strong_collapse(seq, product), product))
    for op in (collapse_op8, ComplexPropertyOperator(collapse_op8), strong):
        for k in range(op.complex.dim + 1):
            assert not np.any(residual_operator(op, k)), (op.label, k)


def test_star_residual_operator_row_sums(star_op8):
    for op in (star_op8, ComplexPropertyOperator(star_op8)):
        for k in range(op.complex.dim + 1):
            worst = np.abs(residual_operator(op, k)).sum(axis=1).max()
            assert worst <= 1e-10, (op.label, k, worst)


def test_complex_property_matrices_square_to_zero(collapse_op8, star_op8):
    for base in (collapse_op8, star_op8):
        tilde = ComplexPropertyOperator(base)
        product = abs(tilde.matrix(1) @ tilde.matrix(2))
        assert product.sum(axis=1).max() <= 1e-12, base.label


def _delaunay(n, seed):
    """n uniform points plus the corners of the unit square, triangulated."""
    pts = np.vstack([np.random.default_rng(seed).random((n, 2)), [[0, 0], [1, 0], [0, 1], [1, 1]]])
    return SimplicialComplex(Delaunay(pts).simplices, coordinates=pts)


def test_combinatorial_double_potentials_are_exactly_zero(square8, ushape10):
    closed_star = SimplicialComplex([(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    cones = [collapse_cone(find_collapse_sequence(cx)) for cx in (square8, ushape10)]
    cones += [strong_collapse_cone(find_strong_collapse_sequence(cx)) for cx in (square8, ushape10)]
    # --op contraction: every vertex of a closed star retracted onto its centre
    cones.append(strong_collapse_cone(StrongCollapseSequence(
        closed_star, [(v, 4) for v in range(4)], 4)))
    for cone in cones:
        op = DiscretePoincareOperator(cone)
        assert (op.matrix(1) @ op.matrix(2)).count_nonzero() == 0
        cp = ComplexPropertyOperator(op)
        for k in (1, 2):  # P - dPP keeps P's bits
            assert (cp.matrix(k) != op.matrix(k)).nnz == 0


def _assert_exact_complex_property(cp):
    """In int64: P - dPP squares to zero in every degree and keeps the
    homotopy identity, D P + P D = I, with pi added in degree 0."""
    cx, n = cp.complex, cp.complex.num_simplices
    P = {k: cp.matrix(k).astype(np.int64) for k in range(1, cx.dim + 1)}
    D = {k: cx.coboundary_matrix(k).astype(np.int64) for k in range(cx.dim)}
    for k in range(2, cx.dim + 1):
        assert (P[k - 1] @ P[k]).count_nonzero() == 0, k
    terminal = np.full(n(0), cx.index((cp.cone.vertex,)))
    for k in range(cx.dim + 1):
        r = -sp.identity(n(k), dtype=np.int64, format="csr")
        if k == 0:
            r = r + sp.csr_matrix((np.ones(n(0), dtype=np.int64), (np.arange(n(0)), terminal)),
                                  shape=(n(0), n(0)))
        else:
            r = r + D[k - 1] @ P[k]
        if k < cx.dim:
            r = r + P[k + 1] @ D[k]
        assert r.count_nonzero() == 0, k


@pytest.mark.parametrize("seed", [0, 3, 10])
def test_complex_property_of_collapses_in_three_dimensions(seed):
    # a collapse's P_1 P_2 is 0 in int64 in any dimension; above two, P - dPP
    # is formed from degree 2 on, and it squares to zero and keeps the
    # homotopy identity exactly
    cx = random_collapsible(np.random.default_rng(seed), rounds=12)
    assert cx.num_simplices(3) > 0
    for cone in (collapse_cone(find_collapse_sequence(cx)),
                 strong_collapse_cone(find_strong_collapse_sequence(cx))):
        op = DiscretePoincareOperator(cone)
        p1, p2 = (op.matrix(k).astype(np.int64) for k in (1, 2))
        assert (p1 @ p2).count_nonzero() == 0
        _assert_exact_complex_property(ComplexPropertyOperator(op))


def test_complex_property_corrects_degree_two_above_two_dimensions():
    # a contraction of the 3-simplex that keeps vertex 1 in place: its P_1 P_2
    # and P_2 P_3 are not zero (R_2 = -P_3 D_2 is not), so P - dPP must differ
    # from P in degree 2 to square to zero
    cx = SimplicialComplex([(0, 1, 2, 3)])
    levels = [[1, 1, 1, 1], [3, 1, 0, 0], [3, 1, 0, 2], [0, 1, 2, 3]]
    prod = build_product_complex(cx, uniform_breakpoints(3))

    def psi(pv):
        v, level = prod.vertex_level(pv)
        return levels[level][v]

    op = DiscretePoincareOperator(contraction_cone(psi, prod))
    p = {k: op.matrix(k).astype(np.int64) for k in (1, 2, 3)}
    assert (p[1] @ p[2]).count_nonzero() and (p[2] @ p[3]).count_nonzero()
    cp = ComplexPropertyOperator(op)
    assert (cp.matrix(2) != op.matrix(2)).nnz
    _assert_exact_complex_property(cp)


# P_1 P_2 is zero in exact arithmetic (ComplexPropertyOperator); in floats each
# row sum of |P_1 P_2| stays below this many units of roundoff times the row's
# scale, the row sum of |P_1| times the largest row sum of |P_2|.  The scale is
# not the row sum of |P_1| |P_2|: where an entry of P_1 or P_2 is itself
# roundoff, such as the Lipschitz U-shape's, that sum is roundoff too.  The
# largest multiple measured on these meshes is 2.4.
DOUBLE_POTENTIAL_ROUNDOFFS = 16


@pytest.mark.parametrize("mesh", ["square:12", "ushape:20", "delaunay:200"])
def test_whitney_double_potentials_are_roundoff(mesh):
    kind, n = mesh.split(":")
    cx = {"square": generate_square_mesh, "ushape": generate_ushape_mesh,
          "delaunay": lambda n: _delaunay(n, 1)}[kind](int(n))
    geom = MeshGeometry(cx)
    if kind == "ushape":  # star-shaped about no point
        ops = [lipschitz_cone(SlabAffineContraction.ushape((0.2, 0.2)), cx, geom)]
    else:
        ops = [star_cone((0.52, 0.51), cx),
               lipschitz_cone(SlabAffineContraction.straight_line((0.3, 0.6)), cx, geom)]
    ops = [DiscretePoincareOperator(cone, geom) for cone in ops]
    if kind != "ushape":
        ops.append(BogovskiiOperator((0.5013, 0.4987), cx, geom))
    u = np.finfo(float).eps / 2
    for op in ops:
        p1, p2 = op.matrix(1), op.matrix(2)
        rows = abs(p1 @ p2).sum(axis=1).A1
        scale = abs(p1).sum(axis=1).A1 * abs(p2).sum(axis=1).max()
        assert (rows <= DOUBLE_POTENTIAL_ROUNDOFFS * u * scale).all(), (mesh, op.label)
        # so P - dPP is P itself
        cp = ComplexPropertyOperator(op)
        assert all(cp.matrix(k) is op.matrix(k) for k in (1, 2))


def test_star_rejects_a_domain_not_star_shaped_before_any_row(ushape10, ugeom, square8, geom8,
                                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a row was assembled")

    geometries, init = [], MeshGeometry.__init__
    monkeypatch.setattr(MeshGeometry, "__init__",
                        lambda self, cx: geometries.append(cx) or init(self, cx))
    monkeypatch.setattr(potentials, "functional_matrix", refuse)
    with pytest.raises(NotStarShapedError) as err:
        DiscretePoincareOperator(star_cone((0.2, 0.2), ushape10), ugeom)
    assert str(err.value) == ("the domain is not star-shaped about base point (0.2, 0.2): "
                              "it lies outside boundary edge (40, 48), margin -0.5")
    # a point on the boundary of a convex domain sees all of it
    for point in ((0.0, 0.0), (0.0, 0.5), (1.0, 0.25)):
        DiscretePoincareOperator(star_cone(point, square8), geom8)
    # a point outside the mesh is named as such, before the domain is checked
    with pytest.raises(PreconditionError, match=r"lies outside the mesh"):
        DiscretePoincareOperator(star_cone((1.5, 0.5), square8), geom8)
    assert geometries == []  # the check reads the given geometry


@pytest.mark.parametrize("point", [(0.0, 0.0), (0.0, 0.5)])
def test_star_from_a_boundary_point_of_a_convex_domain(square8, geom8, point):
    op = DiscretePoincareOperator(star_cone(point, square8), geom8)
    assert max_residual(verify_homotopy(op, trials=5)) <= 1e-10


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_star_operator_with_base_point_near_an_edge(square8, geom8, eps):
    # the base point sits eps to the right of the mesh edge on x = 0.5, so the
    # star cones over that edge are slivers of area about eps / 16; their
    # clipped pieces carry round-off far above a sliver-relative tolerance
    op = DiscretePoincareOperator(star_cone((0.5 + eps, 0.3), square8), geometry=geom8)
    assert max_residual(verify_homotopy(op, trials=10)) <= 1e-10


def test_outside_domain_error_names_the_row_and_the_missing_area(ushape10, ugeom):
    # from the left arm of the U, star cones over edges of the right arm
    # cross the notch; a checked star operator rejects the domain first
    op = unchecked_star((0.15, 0.8), ushape10, ugeom)
    with pytest.raises(OutsideDomainError,
                       match=r"row of simplex \(\d+, \d+\): image triangle .* "
                             r"area \d\.\d{3}e-\d+ of its"):
        op.matrix(2)


def test_segment_leaving_the_mesh_names_the_row_and_the_missing_length(ushape10, ugeom):
    # the same operator's segment cones: from the left arm, the segment to a
    # vertex of the right arm crosses the notch
    op = unchecked_star((0.15, 0.8), ushape10, ugeom)
    message = r"row of simplex \(\d+,\): segment .* length \d\.\d{3}e-\d+ of its"
    with pytest.raises(OutsideDomainError, match=message):
        op.matrix(1)
    alpha = Cochain(ushape10, 1, np.ones(ushape10.num_simplices(1)))
    with pytest.raises(OutsideDomainError, match=message):
        op.apply(alpha)


def workload_operator(name):
    """Star, Lipschitz or Bogovskii as a benchmark workload builds it."""
    kind, mesh = name.split("-")
    build = generate_square_mesh if mesh.startswith("square") else generate_ushape_mesh
    cx = build(int(mesh[len("square"):]))
    if kind == "star":
        return DiscretePoincareOperator(star_cone((0.5, 0.5), cx))
    if kind == "lipschitz":
        phi = SlabAffineContraction.ushape((0.2, 0.2))
        return DiscretePoincareOperator(lipschitz_cone(phi, cx))
    return BogovskiiOperator((0.52, 0.51), cx)


# sha256 of the data, indices and indptr of matrix(1) for the Whitney
# operators of the benchmark workloads, recorded before segment pieces off the
# mesh were an error (on meshes that hold every segment the check moves no
# bit); bogovskii-square12, lipschitz-ushape10/20 and star-square12
# re-recorded since segments are cut at crossings both neighbours share
MATRIX1_DIGESTS = {
    "star-square8": "04f70a554cd528fdd772200e18711cd1c722c7b250e1706e1a2f57a5421963ba",
    "star-square12": "d98f8f22275562c2a48724f50c0fb10d201d2606a26c7c4de2837925a0ba9d71",
    "star-square16": "4af5feef17ec8aad0d93c2f5aecf8ec61ccacccfb06667d414bd91a46a1fc661",
    "lipschitz-ushape10": "3b967dd3c134a9325ce6b46a46cb9b0c3e5d9f693b6831e09e31bf995235eefc",
    "lipschitz-ushape20": "9bf57233a532435cc047ed121ce223e8289a18e2f1f8f2adeded37eaaeb08a72",
    "bogovskii-square8": "be1497a447e71c87deb6146d37afb21658106f5786646e911decacde17c0d7b4",
    "bogovskii-square12": "bf2d22fbd60c7a9446c8d78d066319706db89d68f6a5663627bb17c61148dc88",
    "bogovskii-square16": "261499d1e24618273b037fbbecbdeb029dfdcb925d101a06f37a0a76b7646029",
}


@pytest.mark.parametrize("name", sorted(MATRIX1_DIGESTS))
def test_segment_containment_moves_no_bit_of_a_contained_operator(name):
    m = workload_operator(name).matrix(1)
    h = hashlib.sha256()
    for part in (m.data, m.indices, m.indptr):
        h.update(part.tobytes())
    assert h.hexdigest() == MATRIX1_DIGESTS[name]


# -- segment pieces that end where both neighbouring triangles say -----------
#
# A base point a hair off a mesh edge or vertex once certified at 2e-10 to
# 6e-10, and images a hair outside a wall read residuals of 1.8 to 10.7: the
# segments were split at crossings kept or dropped by slacks that did not
# agree with each other, so neighbouring triangles could miss or double a
# piece.  Each crossing is now decided once for both.


def certified_operator(kind, n, point):
    cx = generate_square_mesh(n)
    if kind == "star":
        return DiscretePoincareOperator(star_cone(point, cx))
    return BogovskiiOperator(point, cx)


@pytest.mark.parametrize("kind, n, point", [
    ("star", 32, (0.5 + 1e-12, 0.5 + 1e-12)),
    ("star", 32, (0.5 + 1e-12, 0.53)),
    ("bogovskii", 32, (0.5 + 2e-12, 0.53)),
    ("bogovskii", 32, (0.5 + 5e-12, 0.53)),
    ("star", 16, (0.5 + 1e-12, 0.5 + 1e-12)),
], ids=["star-square32-near-vertex", "star-square32-near-edge", "bogovskii-square32-2e-12",
        "bogovskii-square32-5e-12", "star-square16-near-vertex"])
def test_base_point_a_hair_off_a_mesh_edge_or_vertex_certifies(kind, n, point):
    assert certified_residual(certified_operator(kind, n, point)) <= 1e-10


@pytest.mark.parametrize("kind", ["star", "bogovskii", "lipschitz"])
def test_certified_residual_bounds_every_trial(kind):
    if kind == "lipschitz":
        op = DiscretePoincareOperator(lipschitz_cone(SlabAffineContraction.ushape((0.2, 0.2)),
                                                     generate_ushape_mesh(10)))
    else:
        op = certified_operator(kind, 8, (0.52, 0.51))
    assert max_residual(verify_homotopy(op, trials=20)) <= certified_residual(op) <= 1e-10


def test_bogovskii_certificate_grows_slower_than_its_rows():
    # a shadow row's weights sum to O(N) over the triangles it covers; those
    # inside its image weigh exactly +-1, so the certificate does not take
    # the clip's rounding of each, which grew 10.6x from square:16 to 32
    low, high = (certified_residual(certified_operator("bogovskii", n, (0.52, 0.51)))
                 for n in (16, 32))
    assert 0.0 < high <= 7.0 * low


def test_collapse_operator_certifies_exactly_zero():
    # integer matrices: every entry of R_k is an exact sum of integers
    cx = generate_square_mesh(4)
    assert certified_residual(DiscretePoincareOperator(collapse_cone(find_collapse_sequence(cx)))) \
        == 0.0


@pytest.mark.parametrize("build", [
    lambda: DiscretePoincareOperator(star_cone((0.5 + 2.2e-16, 0.23), l_shape_mesh(8))),
    lambda: DiscretePoincareOperator(star_cone((0.5 + 1e-13, 0.23), l_shape_mesh(8))),
    lambda: DiscretePoincareOperator(lipschitz_cone(
        SlabAffineContraction.ushape((0.21, 0.3 + 1e-13)), generate_ushape_mesh(10))),
], ids=["star-l-shape8-2.2e-16", "star-l-shape8-1e-13", "lipschitz-ushape10-1e-13"])
def test_image_a_hair_outside_a_wall_is_rejected(build):
    # star segments from just right of the L's inner wall x = 0.5 to its top
    # arm, and the contraction's segments just above the U's notch floor
    with pytest.raises(OutsideDomainError, match=r"segment .* leaves the mesh"):
        build().matrix(1)


# -- batched verification against the trial-by-trial loop it replaced --------
#
# The loop below is verify_homotopy as it was before trials were evaluated in
# blocks: per trial one Cochain, its projection, and one mat-vec per term.  It
# shares no code with the block kernel beyond the matrices, so equality of
# the reports (dicts of floats) means every trial's residual kept its bits.


def loop_project(op, alpha):
    if not isinstance(op, BogovskiiOperator):
        return alpha
    cx = op.complex
    values = np.array(alpha.values, dtype=float)
    if alpha.dim == cx.dim:
        c = float(alpha.values @ op.geometry.orientation) / op.geometry.total_area
        values = values - c * op.geometry.signed_area
    else:
        for s in cx.boundary_simplices(alpha.dim):
            values[cx.index(s)] = 0.0
    return Cochain(cx, alpha.dim, values)


def loop_pi(op, alpha):
    if isinstance(op, BogovskiiOperator):
        return 0.0
    if op.kind == "combinatorial":
        return float(alpha.values[op.complex.index((op.cone.vertex,))])
    t = op.geometry.locate(op.cone.point)
    return float(whitney_value(op.geometry, alpha, op.cone.point, t))


def loop_residual(op, alpha):
    cx = op.complex
    k = alpha.dim
    if k == 0:
        r = op.matrix(1) @ coboundary(alpha).values - alpha.values
        return r + loop_pi(op, alpha)
    dp = coboundary(Cochain(cx, k - 1, op.matrix(k) @ alpha.values)).values
    if k == cx.dim:
        return dp - alpha.values
    return dp + op.matrix(k + 1) @ coboundary(alpha).values - alpha.values


def loop_verify(op, ks=None, trials=100, seed=0):
    cx = op.complex
    per_k = {}
    for k in range(cx.dim + 1) if ks is None else ks:
        worst = 0.0
        total = 0.0
        # one trial at a time, each the next row of the degree's generator
        rng = np.random.default_rng((seed, k))
        for _ in range(trials):
            alpha = Cochain(cx, k, rng.uniform(-1.0, 1.0, cx.num_simplices(k)))
            r = loop_residual(op, loop_project(op, alpha))
            m = float(np.max(np.abs(r))) if r.size else 0.0
            worst = max(worst, m)
            total += m
        per_k[str(k)] = {"max": worst, "mean": total / trials}
    return {"operator": op.label, "trials": trials, "seed": seed, "per_k": per_k}


def every_operator(cx, square: bool):
    """Collapse, strong collapse, star (square only), Lipschitz, Bogovskii
    (past its star-shapedness check on the U-shape), and P - dPP of
    collapse and star, all assembled."""
    seq = find_strong_collapse_sequence(cx)
    product = build_product_complex(cx, uniform_breakpoints(len(seq.steps)))
    collapse = DiscretePoincareOperator(collapse_cone(find_collapse_sequence(cx)),
                                        label="collapse")
    ops = [collapse, ComplexPropertyOperator(collapse), DiscretePoincareOperator(
        contraction_cone(contraction_from_strong_collapse(seq, product), product),
        label="strong-collapse")]
    if square:
        star = DiscretePoincareOperator(star_cone((0.52, 0.51), cx), label="star")
        phi = SlabAffineContraction.straight_line((0.52, 0.51))
        ops += [star, ComplexPropertyOperator(star)]
    else:
        phi = SlabAffineContraction.ushape((0.2, 0.2))
    ops.append(DiscretePoincareOperator(lipschitz_cone(phi, cx), label="lipschitz"))
    ops.append(BogovskiiOperator((0.52, 0.51), cx) if square else
               unchecked_bogovskii((0.152, 0.151), cx))
    return ops


@pytest.fixture(scope="module", params=["square8", "ushape10", "jittered-square8",
                                        "jittered-ushape10"])
def every_op(request):
    square = "square" in request.param
    cx = generate_square_mesh(8) if square else generate_ushape_mesh(10)
    if request.param.startswith("jittered"):
        cx = jitter_interior(cx)
    return every_operator(cx, square)


def test_verify_reports_equal_the_trial_loop(every_op):
    for op in every_op:
        for seed in (3, 2**70):
            assert verify_homotopy(op, trials=7, seed=seed) == \
                loop_verify(op, trials=7, seed=seed), (op.label, seed)
        for ks in ([1], [0, 2], [2, 1]):
            assert verify_homotopy(op, ks=ks, trials=1, seed=5) == \
                loop_verify(op, ks=ks, trials=1, seed=5), (op.label, ks)


@pytest.mark.parametrize("columns", [1, 3])
def test_verify_reports_do_not_depend_on_the_block_width(every_op, monkeypatch, columns):
    # blocks of 1 and of 3 columns: 7 trials split into 7, and into 3 + 3 + 1
    cx = every_op[0].complex
    largest = max(map(len, cx.simplices_by_dim.values()))
    monkeypatch.setattr(potentials, "BLOCK_ENTRIES", columns * largest)
    for op in every_op:
        assert verify_homotopy(op, trials=7, seed=1) == loop_verify(op, trials=7, seed=1), \
            op.label


def test_verify_holds_few_blocks_at_once():
    # star (0.5, 0.5) on square:16 verifies 40 trials per degree in one block
    # of 40 columns; the residual adds each term to the first product in
    # place and the draws are dropped once projected, which peaks at 3.65
    # arrays of the largest degree's block size (degree 1: the block, the
    # first product, P_2's input and its product, 933,918 bytes).  A sum
    # that is not in place, or draws kept beside the block, reach 4.0 and
    # 4.6, past the bound of 3.8.
    cx = generate_square_mesh(16)
    op = DiscretePoincareOperator(star_cone((0.5, 0.5), cx))
    verify_homotopy(op, trials=40)  # assembles and caches every matrix
    block = 40 * max(map(cx.num_simplices, range(cx.dim + 1))) * 8
    assert potentials.BLOCK_ENTRIES // (block // 8 // 40) >= 40
    tracemalloc.start()
    try:
        verify_homotopy(op, trials=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.8 * block, peak / block


def test_homotopy_residual_is_bitwise_the_loop_residual(every_op):
    rng = np.random.default_rng(11)
    for op in every_op:
        cx = op.complex
        for k in range(cx.dim + 1):
            alpha = loop_project(op, random_cochain(cx, k, rng))
            got = homotopy_residual(op, alpha)
            assert got.tobytes() == loop_residual(op, alpha).tobytes(), (op.label, k)
            if k == 0:
                assert op.constant_component(alpha) == loop_pi(op, alpha), op.label


def test_projection_of_raw_cochains_is_bitwise_the_loop_projection(every_op):
    # contiguous, strided and integer values; the projection reads a
    # contiguous float copy, so a strided view projects as its copy does (a
    # strided dot rounds differently), and one cochain as a one-column block
    rng = np.random.default_rng(12)
    bogovskii = every_op[-1]
    cx = bogovskii.complex
    for k in range(cx.dim + 1):
        n = cx.num_simplices(k)
        for v in (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, 2))[:, 1],
                  rng.integers(-9, 10, n)):
            got = bogovskii.project_admissible(Cochain(cx, k, v)).values
            want = loop_project(bogovskii, Cochain(cx, k, v.copy())).values
            assert got.tobytes() == want.tobytes(), (k, v.dtype, v.strides)
            column = bogovskii.project_admissible_block(k, v[:, None])[:, 0]
            assert got.tobytes() == column.tobytes(), (k, v.dtype, v.strides)


def test_pi_and_projection_of_a_block_are_the_column_loops(every_op):
    # each column of a block gets bitwise the pi and the projection it gets
    # alone: one row dot per column, not one mat-vec for the block
    rng = np.random.default_rng(13)
    for op in every_op:
        cx = op.complex
        for k in range(cx.dim + 1):
            block = rng.uniform(-1.0, 1.0, (cx.num_simplices(k), 9))
            want = np.column_stack([loop_project(op, Cochain(cx, k, block[:, j].copy())).values
                                    for j in range(block.shape[1])])
            assert op.project_admissible_block(k, block).tobytes() == want.tobytes(), (op.label, k)
        block = rng.uniform(-1.0, 1.0, (cx.num_simplices(0), 9))
        want = [loop_pi(op, Cochain(cx, 0, block[:, j].copy())) for j in range(block.shape[1])]
        assert op.constant_component_block(block).tobytes() == np.array(want).tobytes(), op.label


def one_cochain_inputs(op, k, rng):
    """A block of three admissible k-cochains, and one-cochain values of it
    and of integers: contiguous float64, a strided column of the block,
    int64, float32 and read-only."""
    cx = op.complex
    n = cx.num_simplices(k)
    block = op.project_admissible_block(k, rng.uniform(-1.0, 1.0, (n, 3)))
    ints = rng.integers(-9, 10, n)
    if isinstance(op, BogovskiiOperator) and k == cx.dim:
        # zero mass: the last value cancels the signed sum of the others
        o = op.geometry.orientation
        ints[-1] -= o[-1] * (ints @ o)
    readonly = block[:, 2].copy()
    readonly.flags.writeable = False
    return block, [block[:, 0].copy(), block[:, 1], ints, (ints / 8).astype(np.float32), readonly]


def test_one_cochain_is_the_kernel_product_bit_for_bit(every_op):
    # one cochain goes straight to scipy's CSR kernel, and must give the
    # bits of scipy's own product; a scipy that renames or changes the
    # kernel fails here
    rng = np.random.default_rng(14)
    for op in every_op:
        cx = op.complex
        for k in range(1, cx.dim + 1):
            block, inputs = one_cochain_inputs(op, k, rng)
            for v in inputs:
                want = op.matrix(k) @ v
                got = op.apply_values(k, v)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), \
                    (op.label, k, v.dtype, v.strides)
                assert op.apply(Cochain(cx, k, v)).values.tobytes() == want.tobytes()
            columns = np.column_stack([op.apply_values(k, block[:, j]) for j in range(3)])
            assert op.apply_values(k, block).tobytes() == columns.tobytes(), (op.label, k)


def test_one_cochain_of_a_wrong_shape_or_a_wider_dtype_is_scipys_product(collapse_op2):
    # the kernel writes float64 only, and reads past a short vector
    n = collapse_op2.complex.num_simplices(1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        collapse_op2.apply_values(1, np.ones(n + 1))
    for dtype in (np.complex64, np.complex128, np.longdouble):
        v = (np.arange(n) + 0.5).astype(dtype)
        want = collapse_op2.matrix(1) @ v
        got = collapse_op2.apply_values(1, v)
        assert got.dtype == want.dtype != np.float64 and got.tobytes() == want.tobytes()


def counted_block_kernel(monkeypatch):
    """The widths of the blocks that reach scipy's CSR block kernel."""
    widths = []
    kernel = potentials.csr_matvecs

    def counted(*args):
        widths.append(args[2])
        kernel(*args)

    monkeypatch.setattr(potentials, "csr_matvecs", counted)
    return widths


def test_a_float64_block_is_the_kernel_product_bit_for_bit(every_op, monkeypatch):
    # a float64 C-contiguous block goes straight to scipy's CSR block kernel,
    # and must give the bits of scipy's own product, whose one-column case
    # ends in the one-cochain kernel; a scipy that renames or changes
    # csr_matvecs fails here
    widths = counted_block_kernel(monkeypatch)
    rng = np.random.default_rng(17)
    for op in every_op:
        cx = op.complex
        for k in range(1, cx.dim + 1):
            for width in (0, 1, 5):
                block = op.project_admissible_block(
                    k, rng.uniform(-1.0, 1.0, (cx.num_simplices(k), width)))
                assert block.flags.c_contiguous, (op.label, k)
                widths.clear()
                got = op.apply_values(k, block)
                assert widths == [width], (op.label, k)
                want = op.matrix(k) @ block
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (op.label, k, width)


def test_other_blocks_are_scipys_product(every_op, monkeypatch):
    # F-ordered, strided, integer and complex blocks go through @, unchanged
    widths = counted_block_kernel(monkeypatch)
    rng = np.random.default_rng(18)
    for op in every_op:
        cx = op.complex
        for k in range(1, cx.dim + 1):
            n = cx.num_simplices(k)
            floats = op.project_admissible_block(k, rng.uniform(-1.0, 1.0, (n, 6)))
            ints = rng.integers(-9, 10, (n, 3))
            top_bogovskii = isinstance(op, BogovskiiOperator) and k == cx.dim
            if top_bogovskii:
                # zero mass: each column's last value cancels the signed sum of the others
                o = op.geometry.orientation
                ints[-1] -= o[-1] * (o @ ints)
            blocks = [np.asfortranarray(floats), floats[:, ::2], ints]
            if not top_bogovskii:  # a complex mass is no zero-mean input
                blocks.append(floats + 0.5j * floats[:, ::-1])
            for block in blocks:
                want = op.matrix(k) @ block
                got = op.apply_values(k, block)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                    (op.label, k, block.dtype, block.strides)
    assert widths == []


def test_apply_and_projection_give_cochains_of_the_right_degree_and_shape(every_op):
    # the results are wrapped without a shape check, so the shapes are checked here
    rng = np.random.default_rng(15)
    other = generate_square_mesh(2)
    for op in every_op:
        cx = op.complex
        for k in range(cx.dim + 1):
            alpha = op.project_admissible(random_cochain(cx, k, rng))
            assert type(alpha) is Cochain and alpha.complex is cx and alpha.dim == k
            assert alpha.values.shape == (cx.num_simplices(k),), (op.label, k)
            if k == 0:
                with pytest.raises(ValueError, match="degrees 1..2, got 0"):
                    op.apply(alpha)
                continue
            out = op.apply(alpha)
            assert type(out) is Cochain and out.complex is cx and out.dim == k - 1
            assert out.values.shape == (cx.num_simplices(k - 1),), (op.label, k)
        # a cochain of another complex is rejected before it is wrapped
        for method in (op.apply, op.project_admissible):
            with pytest.raises(ValueError, match="cochain lives on a different complex"):
                method(random_cochain(other, 1, rng))
        # a contiguous float64 top-degree cochain is projected, never written
        v = rng.uniform(-1.0, 1.0, cx.num_simplices(cx.dim))
        before = v.tobytes()
        got = op.project_admissible(Cochain(cx, cx.dim, v)).values
        assert v.tobytes() == before, op.label
        if isinstance(op, BogovskiiOperator):
            assert not np.shares_memory(got, v)


@pytest.mark.parametrize("kind", ["star", "star+cp", "bogovskii"])
def test_one_cochain_reads_the_matrix_as_it_is_now(kind):
    # apply_values keeps no copy of a matrix's arrays or shape: after each
    # in-place edit of matrix(k) it is still bitwise matrix(k) @ v; the
    # operator is built afresh, as the edits would spoil a shared one
    cx = generate_square_mesh(4)
    if kind == "bogovskii":
        op = BogovskiiOperator((0.52, 0.51), cx)
    else:
        op = DiscretePoincareOperator(star_cone((0.52, 0.51), cx))
        if kind == "star+cp":
            op = ComplexPropertyOperator(op)
    rng = np.random.default_rng(16)
    for k in (1, 2):
        m = op.matrix(k)
        v = op.project_admissible_block(k, rng.uniform(-1.0, 1.0, cx.num_simplices(k)))

        def check(step):
            got = op.apply_values(k, v)
            assert got.tobytes() == (op.matrix(k) @ v).tobytes(), (k, step)

        check("as assembled")
        m.data = 3.0 * m.data
        check("data reassigned")
        # reverse each row's entries in place, then let scipy sort them back
        for r in range(m.shape[0]):
            row = slice(m.indptr[r], m.indptr[r + 1])
            m.indices[row], m.data[row] = m.indices[row][::-1].copy(), m.data[row][::-1].copy()
        m.has_sorted_indices = False
        check("rows reversed")
        m.sort_indices()
        check("indices sorted")
        m.data[::3] = 0.0
        nnz = m.nnz
        m.eliminate_zeros()
        assert m.nnz < nnz
        check("zeros eliminated")
        m.resize(m.shape[0] + 2, m.shape[1])
        assert op.apply_values(k, v).shape == (m.shape[0],)
        check("resized")


@pytest.mark.parametrize("n", [8, 65])
def test_bogovskii_float_orientation_keeps_the_int64_bits(n):
    # the masses dot a float64 copy of the int64 orientation; square:65 has
    # 8,450 triangles, past numpy's 8,192-element cast buffer
    cx = generate_square_mesh(n)
    op = BogovskiiOperator((0.52, 0.51), cx)
    g = op.geometry
    o = g.orientation
    assert o.dtype == np.int64
    rng = np.random.default_rng(n)
    size = cx.num_simplices(2)
    block = rng.uniform(-1.0, 1.0, (size, 4))
    ones = [block[:, 0].copy(), block[:, 1], rng.integers(-9, 10, size)]

    def int64_check(values):
        """The zero-mean check with the int64 orientation: None or its message."""
        mass = o @ values
        if values.ndim > 1:
            heavy = np.flatnonzero(np.abs(mass) > 1e-9)
            scale = np.abs(values[:, heavy]).max(axis=0, initial=0.0)
            bad = np.flatnonzero(np.abs(mass[heavy]) > 1e-9 * np.maximum(scale, 1.0))
            mass, scale = (mass[heavy[bad[0]]], scale[bad[0]]) if bad.size else (0.0, 0.0)
        else:
            scale = np.abs(values).max(initial=0.0) if abs(mass) > 1e-9 else 0.0
        if abs(mass) > 1e-9 * max(scale, 1.0):
            return f"top-degree input must have zero mean, got total integral {mass:.3e}"
        return None

    def check(values):
        try:
            op._check_zero_mean(values)
        except PreconditionError as e:
            return str(e)
        return None

    for v in ones:
        assert np.float64(op._orientation @ v).tobytes() == np.float64(o @ v).tobytes()
        assert op.signed_mass(Cochain(cx, 2, v)) == float(v @ o)
        want = np.array(v, dtype=float)
        want = want - (want @ o / g.total_area) * g.signed_area
        assert op.project_admissible_block(2, v).tobytes() == want.tobytes(), v.strides
        # the raw input, and its projection given masses about the 1e-9 threshold
        for w in [v] + [want + mass / size * o for mass in (0.9e-9, 1.1e-9, 1e-6, 1.0)]:
            assert check(w) == int64_check(w), v.strides
    assert (op._orientation @ block).tobytes() == (o @ block).tobytes()
    mass = _dot(np.ascontiguousarray(block.T), o)
    want = block - g.signed_area[:, None] * (mass / g.total_area)
    assert op.project_admissible_block(2, block).tobytes() == want.tobytes()
    for mass in (0.0, 1.1e-9, 1.0):
        w = want.copy()
        w[:, 2] += mass / size * o
        assert check(w) == int64_check(w), mass


def test_bogovskii_rejects_one_cochain_as_it_rejects_a_one_column_block(bogovskii2, square2):
    # masses on both sides of the 1e-9 threshold, at scales below and above 1
    rng = np.random.default_rng(44)
    o = bogovskii2.geometry.orientation
    base = bogovskii2.project_admissible(random_cochain(square2, 2, rng)).values
    seen = set()
    for scale in (0.5, 1.0, 30.0):
        for mass in np.geomspace(1e-11, 1e-7, 41) * max(scale, 1.0):
            for v in (scale * base + mass / 8 * o, scale * base - mass / 8 * o):
                outcomes = []
                for values in (v, v[:, None]):
                    try:
                        bogovskii2.apply_values(2, values)
                        outcomes.append(None)
                    except PreconditionError as e:
                        outcomes.append(str(e))
                assert outcomes[0] == outcomes[1], (scale, mass)
                seen.add((scale, outcomes[0] is None))
    assert len(seen) == 6


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_needs_at_least_one_trial(collapse_op2, trials):
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        verify_homotopy(collapse_op2, trials=trials)


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, "3"])
def test_verify_rejects_a_seed_that_is_not_a_non_negative_integer(collapse_op2, seed):
    message = f"seed must be a non-negative integer, got {seed}"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_homotopy(collapse_op2, trials=1, seed=seed)


class RecordingOperator:
    """Forwards to an operator and keeps every block verify_homotopy draws."""

    def __init__(self, op):
        self.op = op
        self.draws = []

    def __getattr__(self, name):
        return getattr(self.op, name)

    def project_admissible_block(self, k, values):
        self.draws.extend((k, column.copy()) for column in values.T)
        return self.op.project_admissible_block(k, values)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3, np.int64(5), True])
@pytest.mark.parametrize("ks", [[0, 1, 2], [2, 0], [1, 1]])
def test_verify_draws_are_the_numpy_streams(collapse_op2, seed, ks):
    # pinned against the library call, so a change of NumPy's SeedSequence or
    # PCG64 streams shows here rather than as a silent change of reports
    trials = 3
    recorder = RecordingOperator(collapse_op2)
    report = verify_homotopy(recorder, ks=ks, trials=trials, seed=seed)
    assert report["seed"] == seed and type(report["seed"]) is int
    size = collapse_op2.complex.num_simplices
    want = [(k, row) for k in ks
            for row in np.random.default_rng((seed, k)).uniform(-1.0, 1.0, (trials, size(k)))]
    assert len(recorder.draws) == len(want)
    for (k, got), (want_k, draw) in zip(recorder.draws, want):
        assert k == want_k
        assert got.tobytes() == draw.tobytes(), (k, seed)


@pytest.mark.parametrize("columns", [None, 3])
def test_verify_draws_of_fewer_trials_are_a_prefix(collapse_op2, monkeypatch, columns):
    # 7 trials in blocks of 3 are 3 + 3 + 1, and 11 are 3 + 3 + 3 + 2
    if columns is not None:
        largest = max(map(collapse_op2.complex.num_simplices, range(3)))
        monkeypatch.setattr(potentials, "BLOCK_ENTRIES", columns * largest)
    draws = {}
    for trials in (7, 11):
        recorder = RecordingOperator(collapse_op2)
        verify_homotopy(recorder, trials=trials, seed=13)
        draws[trials] = recorder.draws
    for k in range(3):
        few = [d for j, d in draws[7] if j == k]
        many = [d for j, d in draws[11] if j == k]
        assert len(few) == 7 and len(many) == 11
        assert all(a.tobytes() == b.tobytes() for a, b in zip(few, many[:7])), k


def test_verify_rejects_a_degree_outside_the_complex(collapse_op2):
    with pytest.raises(ValueError, match="degrees 0..2, got 3"):
        verify_homotopy(collapse_op2, ks=[3], trials=1)
    with pytest.raises(ValueError, match="degrees 0..2, got -1"):
        verify_homotopy(collapse_op2, ks=[-1], trials=1)
    with pytest.raises(TypeError):
        verify_homotopy(collapse_op2, ks=[1.0], trials=1)


@pytest.mark.parametrize("k", [-1, 3])
def test_every_operator_names_a_degree_outside_the_complex(every_op, k):
    for op in every_op:
        with pytest.raises(ValueError, match=f"degrees 0..2, got {k}"):
            verify_homotopy(op, ks=[k], trials=1)


# sha256 of `decpot verify --mesh builtin:square:8 --trials 10 --report`,
# recorded since each degree's trials are the rows of one generator's draw;
# bogovskii re-recorded since only exactly flat shadow pieces are dropped, and
# again since a triangle inside a shadow piece weighs exactly +-1
REPORT_DIGESTS = {
    "collapse": "0604944560c32c3d7f54a6d90ab5919379c698bcacf73be88b879c82a5dc730b",
    "strong-collapse": "96eac11276058f82a7015e60172c4bd6cd7e575fb2cf193bdc4983282f284f77",
    "star": "5d1995a3047bed0cedab8fd57e7bcf603829fd4e5135d29a45615f2898cb775a",
    "lipschitz": "b98d777dd6028a90f0fe3befc7fb3d2b5261713dfbee7659faec44e2d9bdd522",
    "bogovskii": "40e3752ee6d80fdc72c005c9ba2759dd5377159388d8881226fae45acc8105d2",
}
REPORT_ARGS = {
    "collapse": [],
    "strong-collapse": [],
    "star": ["--point", "0.52,0.51"],
    "lipschitz": ["--contraction", "straight-line", "--point", "0.52,0.51"],
    "bogovskii": ["--point", "0.52,0.51"],
}


@pytest.mark.parametrize("op", sorted(REPORT_DIGESTS))
def test_verify_report_bytes_are_pinned(op, tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "--mesh", "builtin:square:8", "--op", op, *REPORT_ARGS[op],
            "--trials", "10", "--report", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[op]


def test_whitney_identities_hold_to_1e11_on_a_delaunay_mesh():
    # 800 uniform points plus the corners of the unit square: edges of every
    # direction and length, unlike the structured square and U grids
    pts = np.vstack([np.random.default_rng(1).uniform(size=(800, 2)),
                     [[0, 0], [1, 0], [0, 1], [1, 1]]])
    cx = SimplicialComplex(Delaunay(pts).simplices, coordinates=pts)
    for op in (DiscretePoincareOperator(star_cone((0.5, 0.5), cx)),
               BogovskiiOperator((0.5013, 0.4987), cx)):
        report = verify_homotopy(op, trials=5)
        assert max(r["max"] for r in report["per_k"].values()) <= 1e-11, report
