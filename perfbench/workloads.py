"""Workload definitions and the operator builders the benchmark times.

Meshes, base points and sizes are fixed parameters of each workload; the
run's seed only drives the random cochains and the verification trials.
Every builder calls the library's public functions in the order
``decpot verify`` does: mesh spec -> mesh -> geometry -> sequence / cone ->
operator -> one assembled matrix per degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from decpotentials import cli, cones, homotopy, potentials, whitney

# Contract tolerances of the homotopy identity, never loosened.  The
# benchmark keeps its own copy so that a change to the CLI defaults cannot
# loosen its correctness check.
TOLERANCE = {
    "collapse": 1e-12,
    "strong-collapse": 1e-12,
    "star": 1e-10,
    "lipschitz": 1e-10,
    "bogovskii": 1e-10,
}


@dataclass(frozen=True)
class OperatorSpec:
    op: str
    mesh: str
    point: tuple[float, float] | None = None

    @property
    def label(self) -> str:
        where = "" if self.point is None else "@%g,%g" % self.point
        return f"{self.op}:{self.mesh.removeprefix('builtin:')}{where}"


@dataclass(frozen=True)
class Workload:
    name: str
    operators: tuple[OperatorSpec, ...]
    # untraced builds of each operator per run, at least 2 each; setup_s
    # takes each operator's median scaled build
    builds: tuple[int, ...]
    trials: int  # verify_homotopy trials per degree
    batch: int  # seeded cochains per operator and degree in one apply pass
    cli_op: OperatorSpec  # smallest operator, run once through the CLI when traced
    complex_property: tuple[str, ...] = ()  # ops also streamed as P - dPP
    probes: tuple[OperatorSpec, ...] = ()  # known-defect probes, kept out of the timings

    def __post_init__(self):
        if len(self.builds) != len(self.operators) or min(self.builds) < 2:
            raise ValueError(f"{self.name}: need at least 2 builds of every operator")


WORKLOADS = {
    # Combinatorial operators only: the quadratic collapse searches, the
    # strong-collapse product complex (141,377 and 327,281 simplices) and
    # the combinatorial cone tables.  No quadrature; the product complex
    # sets the peak RSS.  Strong collapse stops at square:10 (3 s per build)
    # rather than square:12 (8 s) to keep a run near 40 s.
    "combinatorial": Workload(
        name="combinatorial",
        operators=(
            OperatorSpec("collapse", "builtin:square:8"),
            OperatorSpec("collapse", "builtin:square:16"),
            OperatorSpec("collapse", "builtin:ushape:20"),
            OperatorSpec("strong-collapse", "builtin:square:8"),
            OperatorSpec("strong-collapse", "builtin:square:10"),
        ),
        builds=(4, 2, 2, 2, 2),
        trials=40,
        batch=8,
        cli_op=OperatorSpec("collapse", "builtin:square:8"),
    ),
    # Whitney operators only: polygon clipping, segment quadrature and
    # dense assembly dominate set-up; lipschitz brings in the nonconvex
    # U-shaped domain.  The probe is a known clip_polygon defect.
    "whitney": Workload(
        name="whitney",
        operators=(
            OperatorSpec("star", "builtin:square:8", (0.5, 0.5)),
            OperatorSpec("star", "builtin:square:16", (0.5, 0.5)),
            OperatorSpec("lipschitz", "builtin:ushape:10", (0.2, 0.2)),
            OperatorSpec("lipschitz", "builtin:ushape:20", (0.2, 0.2)),
            OperatorSpec("bogovskii", "builtin:square:8", (0.52, 0.51)),
            OperatorSpec("bogovskii", "builtin:square:16", (0.52, 0.51)),
        ),
        builds=(4, 2, 4, 2, 4, 2),
        trials=40,
        batch=8,
        probes=(OperatorSpec("bogovskii", "builtin:ushape:20", (0.152, 0.151)),),
        cli_op=OperatorSpec("star", "builtin:square:8", (0.5, 0.5)),
    ),
    # Few operators, many right-hand sides: set-up is short and the run is
    # dominated by reads of the assembled matrices (apply, P - dPP, verify).
    "many-rhs": Workload(
        name="many-rhs",
        operators=(
            OperatorSpec("collapse", "builtin:square:12"),
            OperatorSpec("star", "builtin:square:12", (0.5, 0.5)),
            OperatorSpec("bogovskii", "builtin:square:12", (0.52, 0.51)),
        ),
        builds=(4, 4, 4),
        trials=50,
        batch=32,
        complex_property=("collapse", "star"),
        cli_op=OperatorSpec("collapse", "builtin:square:12"),
    ),
}


def build_operator(spec: OperatorSpec, span):
    """Build and fully assemble one operator; returns (operator, counts).

    ``span(name)`` opens a tracing span around a public call that the tracer
    does not wrap itself (constructors and methods).  Nothing here is timed;
    the caller times the whole call.
    """
    counts: dict[str, int] = {}
    cx = cli.load_mesh(spec.mesh)
    with span("whitney.geometry"):
        geom = whitney.MeshGeometry(cx)
    if spec.op == "collapse":
        seq = homotopy.find_collapse_sequence(cx)
        if seq is None:
            raise RuntimeError(f"no collapse sequence for {spec.mesh}")
        counts["collapse_steps"] = len(seq.steps)
        op = potentials.DiscretePoincareOperator(cones.collapse_cone(seq), geom,
                                                 label=spec.op)
    elif spec.op == "strong-collapse":
        seq = homotopy.find_strong_collapse_sequence(cx)
        if seq is None:
            raise RuntimeError(f"no strong collapse sequence for {spec.mesh}")
        product = homotopy.build_product_complex(
            cx, homotopy.uniform_breakpoints(max(len(seq.steps), 1)))
        psi = homotopy.contraction_from_strong_collapse(seq, product)
        op = potentials.DiscretePoincareOperator(cones.contraction_cone(psi, product),
                                                 geom, label=spec.op)
        counts["strong_steps"] = len(seq.steps)
        counts["product_simplices"] = sum(
            product.complex.num_simplices(k) for k in range(product.complex.dim + 1))
    elif spec.op == "star":
        op = potentials.DiscretePoincareOperator(cones.star_cone(spec.point, cx), geom,
                                                 label=spec.op)
    elif spec.op == "lipschitz":
        phi = cones.SlabAffineContraction.ushape(spec.point)
        op = potentials.DiscretePoincareOperator(
            cones.lipschitz_cone(phi, cx, geometry=geom), geom, label=spec.op)
    elif spec.op == "bogovskii":
        op = potentials.BogovskiiOperator(spec.point, cx, geom)
    else:
        raise ValueError(f"unknown operator {spec.op!r}")
    for k in range(1, cx.dim + 1):
        with span(f"potentials.assemble_k{k}"):
            op.matrix(k)
    return op, counts


def operator_counts(op) -> dict[str, int]:
    """Exact work counts of an assembled operator, taken outside any timing."""
    tables = [op.star.table, op.infinite.table] if hasattr(op, "star") else [op.cone.table]
    counts = {"table_terms": sum(len(c.terms) for t in tables for c in t.values())}
    cx = op.complex
    for k in range(1, cx.dim + 1):
        m = op.matrix(k)
        counts[f"nnz_k{k}"] = int(m.count_nonzero() if hasattr(m, "count_nonzero")
                                  else (m != 0).sum())
        counts[f"dense_bytes_k{k}"] = m.shape[0] * m.shape[1] * 8
    counts["simplices"] = sum(cx.num_simplices(k) for k in range(cx.dim + 1))
    return counts
