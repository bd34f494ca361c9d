"""Potential operators: matrices, homotopy identities, trace preservation."""

import numpy as np
import pytest
import scipy.sparse as sp

from decpotentials import (
    BasePointOnFacetError,
    BogovskiiOperator,
    Cochain,
    ComplexPropertyOperator,
    DiscretePoincareOperator,
    OutsideDomainError,
    PreconditionError,
    build_product_complex,
    check_base_point,
    coboundary,
    collapse_cone,
    contraction_cone,
    contraction_from_strong_collapse,
    find_collapse_sequence,
    find_strong_collapse_sequence,
    generate_square_mesh,
    homotopy_residual,
    max_residual,
    star_cone,
    uniform_breakpoints,
    verify_homotopy,
)

from conftest import random_cochain


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


def test_bogovskii_matrix_vanishes_on_boundary_rows(bogovskii2, square2):
    for k in (1, 2):
        mat = bogovskii2.matrix(k)
        for s in square2.boundary_simplices(k - 1):
            assert np.max(np.abs(mat[square2.index(s)])) < 1e-12


def test_bogovskii_homotopy(bogovskii2):
    report = verify_homotopy(bogovskii2, trials=20, seed=7)
    assert max_residual(report) < 1e-10


def test_bogovskii_nonzero_mean_rejected(bogovskii2, square2, geom2):
    # signed-area values interpolate to the constant density 1: mass = area
    alpha = Cochain(square2, 2, np.array(geom2.signed_area, dtype=float))
    with pytest.raises(PreconditionError):
        bogovskii2.apply(alpha)
    # the check can be bypassed explicitly
    out = bogovskii2.apply(alpha, check_mean=False)
    assert out.dim == 1


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


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_star_operator_with_base_point_near_an_edge(square8, geom8, eps):
    # the base point sits eps to the right of the mesh edge on x = 0.5, so the
    # star cones over that edge are slivers of area about eps / 16; their
    # clipped pieces carry round-off far above a sliver-relative tolerance
    op = DiscretePoincareOperator(star_cone((0.5 + eps, 0.3), square8), geometry=geom8)
    assert max_residual(verify_homotopy(op, trials=10)) <= 1e-10


def test_outside_domain_error_names_the_row_and_the_missing_area(ushape10, ugeom):
    # from the left arm of the U, star cones over edges of the right arm
    # cross the notch
    op = DiscretePoincareOperator(star_cone((0.15, 0.8), ushape10), geometry=ugeom)
    with pytest.raises(OutsideDomainError,
                       match=r"row of simplex \(\d+, \d+\): image triangle .* "
                             r"area \d\.\d{3}e-\d+ of its"):
        op.matrix(2)
