"""Potential operators: matrices, homotopy identities, trace preservation."""

import hashlib
import re

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
    OutsideDomainError,
    PreconditionError,
    SimplicialComplex,
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
    lipschitz_cone,
    max_residual,
    star_cone,
    uniform_breakpoints,
    verify_homotopy,
    whitney_value,
)
from decpotentials import potentials
from decpotentials.cli import main

from conftest import jitter_interior, random_cochain


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
        for trial in range(trials):
            rng = np.random.default_rng((seed, k, trial))
            alpha = Cochain(cx, k, rng.uniform(-1.0, 1.0, cx.num_simplices(k)))
            r = loop_residual(op, loop_project(op, alpha))
            m = float(np.max(np.abs(r))) if r.size else 0.0
            worst = max(worst, m)
            total += m
        per_k[str(k)] = {"max": worst, "mean": total / trials}
    return {"operator": op.label, "trials": trials, "seed": seed, "per_k": per_k}


def every_operator(cx, square: bool):
    """Collapse, strong collapse, star (square only), Lipschitz, Bogovskii,
    and P - dPP of collapse and star, all assembled."""
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
    ops.append(BogovskiiOperator((0.52, 0.51) if square else (0.152, 0.151), cx))
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
    rng = np.random.default_rng(12)
    bogovskii = every_op[-1]
    cx = bogovskii.complex
    for k in range(cx.dim + 1):
        alpha = random_cochain(cx, k, rng)
        got = bogovskii.project_admissible(alpha).values
        assert got.tobytes() == loop_project(bogovskii, alpha).values.tobytes(), k


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_needs_at_least_one_trial(collapse_op2, trials):
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        verify_homotopy(collapse_op2, trials=trials)


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, "3"])
def test_verify_rejects_a_seed_that_is_not_a_non_negative_integer(collapse_op2, seed):
    message = f"seed must be a non-negative integer, got {seed}"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_homotopy(collapse_op2, trials=1, seed=seed)


def test_verify_rejects_trial_indices_beyond_32_bits(collapse_op2):
    with pytest.raises(ValueError, match=re.escape("trials must be below 2**32")):
        verify_homotopy(collapse_op2, trials=2**32)


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
    want = [(k, np.random.default_rng((seed, k, trial)).uniform(-1.0, 1.0, size(k)))
            for k in ks for trial in range(trials)]
    assert len(recorder.draws) == len(want)
    for (k, got), (want_k, draw) in zip(recorder.draws, want):
        assert k == want_k
        assert got.tobytes() == draw.tobytes(), (k, seed)


def test_verify_rejects_a_degree_outside_the_complex(collapse_op2):
    with pytest.raises(ValueError, match="degrees 0..2, got 3"):
        verify_homotopy(collapse_op2, ks=[3], trials=1)
    with pytest.raises(ValueError, match="degrees 0..2, got -1"):
        verify_homotopy(collapse_op2, ks=[-1], trials=1)
    with pytest.raises(TypeError):
        verify_homotopy(collapse_op2, ks=[1.0], trials=1)


# sha256 of `decpot verify --mesh builtin:square:8 --trials 10 --report`,
# recorded with the trial-by-trial loop, before trials were evaluated in blocks;
# star, lipschitz and bogovskii re-recorded since image triangles are clipped
# in each mesh triangle's own frame
REPORT_DIGESTS = {
    "collapse": "ceb8b92e828ef9a8e49dc39a2cb5e5dc898cca3793eb5a709e420ecdfeccddc7",
    "strong-collapse": "f7fe5f1b4acf8e14f323046f1952f132573c18e17149ac99c278ad9a4e26ec5c",
    "star": "d67d2eaeefa5a4cd4ab5fca89b8633adc19bbb2eb67bd16e0c65ce8477c70329",
    "lipschitz": "6aaff73d17314aecdf9a97a9a8a1036010828660fd423c80f85c1a1a4cf3e940",
    "bogovskii": "db16921438417b61c8f7483aa6b4b5835466dea258356d85e9dc291b5f5002e5",
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
