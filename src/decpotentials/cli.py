"""Command-line front end.

Subcommands:

* ``mesh-info``              -- simplex counts, Euler characteristic, extents;
* ``verify``                 -- homotopy-identity residuals over random cochains;
* ``potential``              -- compute a discrete potential of a field and
  export it as a cochain plus barycenter samples;
* ``find-collapse``          -- search for a collapse sequence;
* ``find-strong-collapse``   -- search for a strong collapse sequence.

Mesh sources: ``builtin:square:N``, ``builtin:ushape:N``, ``file:PATH`` (or a
bare path).  Operators: ``collapse``, ``strong-collapse``, ``contraction``,
``star``, ``lipschitz``, ``bogovskii``.  Exit codes: 0 success, 2 precondition
failure (with an error JSON on stderr), 3 residual over tolerance.

All reports and output files are deterministic for a fixed command line: keys
are sorted and nothing time- or host-dependent is recorded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .cones import (SlabAffineContraction, collapse_cone, lipschitz_cone, star_cone,
                    strong_collapse_cone)
from .homotopy import (
    CollapseSequence,
    StrongCollapseSequence,
    find_collapse_sequence,
    _strong_search,
    load_sequence,
    save_sequence,
)
from .meshes import (
    generate_square_mesh,
    generate_ushape_mesh,
    load_cochain_csv,
    load_mesh_json,
    save_cochain_csv,
)
from .potentials import (
    BogovskiiOperator,
    ComplexPropertyOperator,
    DiscretePoincareOperator,
    PreconditionError,
    homotopy_residual,
    max_residual,
    verify_homotopy,
)
from .simplicial import SimplicialComplex
from .whitney import MeshGeometry, de_rham, whitney_value

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_THRESHOLD = 3

# default verification tolerances: exact-arithmetic operators vs quadrature-based
DEFAULT_TOLERANCE = {
    "collapse": 1e-12,
    "strong-collapse": 1e-12,
    "contraction": 1e-12,
    "star": 1e-10,
    "lipschitz": 1e-10,
    "bogovskii": 1e-10,
}


def _field_g1(p):
    x, y = p
    return x * (1.0 - x) * y * (1.0 - y)


def _field_g2(p):
    return _field_g1(p) - 1.0 / 36.0


def _field_f(p):
    x, y = p
    return np.array([y - 0.5, x - 0.5])


# name -> (callable, cochain degree it integrates to)
BUILTIN_FIELDS = {
    "g1": (_field_g1, 2),
    "g2": (_field_g2, 2),
    "f": (_field_f, 1),
}


def load_mesh(spec: str) -> SimplicialComplex:
    """Resolve a mesh source string to a complex."""
    if spec.startswith("builtin:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"builtin mesh spec must be builtin:<name>:<N>, got {spec!r}")
        _, name, n = parts
        if not n.isdecimal() or int(n) < 1:
            raise ValueError(f"builtin mesh spec {spec!r}: N must be a positive integer")
        if name == "square":
            return generate_square_mesh(int(n))
        if name == "ushape":
            return generate_ushape_mesh(int(n))
        raise ValueError(f"unknown builtin mesh {name!r} (square, ushape)")
    if spec.startswith("file:"):
        return load_mesh_json(spec[len("file:"):])
    return load_mesh_json(spec)


def _parse_point(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'x,y', got {text!r}")
    return np.array([float(parts[0]), float(parts[1])])


def _require(value, flag: str, op: str):
    if value is None:
        raise PreconditionError(f"--{flag} is required for --op {op}")
    return value


def _load_field(args, cx: SimplicialComplex):
    name = args.field
    if name in BUILTIN_FIELDS:
        fn, k = BUILTIN_FIELDS[name]
        return de_rham(cx, fn, k)
    path = name[len("file:"):] if name.startswith("file:") else name
    return load_cochain_csv(cx, path)


def _check_zero_trace(alpha) -> None:
    """Reject a Bogovskii input below the top degree whose value on a boundary
    simplex exceeds 1e-9 times max(1, max |value|), the scale of the top
    degree's zero-mean check."""
    cx = alpha.complex
    if alpha.dim >= cx.dim:
        return
    on = cx.boundary_indices(alpha.dim)
    bad = on[np.abs(alpha.values[on]) > 1e-9 * max(np.abs(alpha.values).max(), 1.0)]
    if bad.size:
        raise PreconditionError(
            f"bogovskii input must have zero boundary trace, got {alpha.values[bad[0]]:.3e} on "
            f"boundary simplex {tuple(cx._rows[alpha.dim][bad[0]].tolist())}")


def _load_contraction(args):
    spec = _require(args.contraction, "contraction", args.op)
    if spec == "straight-line":
        point = _parse_point(_require(args.point, "point", args.op))
        return SlabAffineContraction.straight_line(point)
    if spec == "ushape":
        point = _parse_point(_require(args.point, "point", args.op))
        return SlabAffineContraction.ushape(point)
    path = spec[len("file:"):] if spec.startswith("file:") else spec
    return SlabAffineContraction.load(path)


# --op name -> sequence class of the combinatorial operators
SEQUENCE_KINDS = {"collapse": CollapseSequence, "strong-collapse": StrongCollapseSequence}


def _find_sequence(kind: str, cx: SimplicialComplex, terminal):
    if kind == "collapse":
        seq, core = find_collapse_sequence(cx, terminal=terminal), None
    else:  # one search gives the sequence, or the core a failure names
        seq, core = _strong_search(cx, terminal)
    if seq is None:
        chi = cx.euler_characteristic()
        if chi != 1:
            why = f"Euler characteristic {chi}; a collapsible mesh has 1"
        elif kind == "collapse":
            why = ("the greedy collapse got stuck, and greedy is complete in "
                   "dimension 2, so the mesh is not collapsible")
        else:
            why = (f"the strong-collapse core has {len(core)} "
                   f"of {cx.num_simplices(0)} vertices, and the core is unique (Barmak-Minian), "
                   "so the mesh is not strong collapsible")
        raise PreconditionError(
            f"no {kind.replace('-', ' ')} sequence found for this mesh ({why})")
    return seq


def _sequence(args, cx: SimplicialComplex):
    """The sequence --op needs: read from --sequence, else searched for."""
    if not getattr(args, "sequence", None):
        return _find_sequence(args.op, cx, args.terminal_vertex)
    seq = load_sequence(cx, args.sequence)
    if not isinstance(seq, SEQUENCE_KINDS[args.op]):
        raise PreconditionError(
            f"sequence file {args.sequence} holds a "
            f"{'strong-collapse' if isinstance(seq, StrongCollapseSequence) else 'collapse'} "
            f"sequence, but --op {args.op} needs the other kind"
        )
    return seq


def build_operator(args, cx: SimplicialComplex, geometry: MeshGeometry | None):
    """Construct the potential operator selected by --op."""
    op = args.op
    if op == "collapse":
        base = DiscretePoincareOperator(collapse_cone(_sequence(args, cx)), geometry,
                                        label="collapse")
    elif op == "strong-collapse":
        base = DiscretePoincareOperator(strong_collapse_cone(_sequence(args, cx)), geometry,
                                        label="strong-collapse")
    elif op == "contraction":
        # a closed star retracts onto its centre a vertex at a time: joins to it
        terminal = _require(args.terminal_vertex, "terminal-vertex", op)
        if cx.positions(0, [terminal])[0] < 0:
            raise PreconditionError(f"terminal vertex {terminal} not in mesh")
        steps = [(v, terminal) for v in cx._rows[0][:, 0].tolist() if v != terminal]
        cone = strong_collapse_cone(StrongCollapseSequence(cx, steps, terminal))
        base = DiscretePoincareOperator(cone, geometry, label="contraction")
    elif op == "star":
        point = _parse_point(_require(args.point, "point", op))
        base = DiscretePoincareOperator(star_cone(point, cx), geometry, label="star")
    elif op == "lipschitz":
        phi = _load_contraction(args)
        cone = lipschitz_cone(phi, cx, geometry=geometry)
        base = DiscretePoincareOperator(cone, geometry, label="lipschitz")
    elif op == "bogovskii":
        point = _parse_point(_require(args.point, "point", op))
        base = BogovskiiOperator(point, cx, geometry)
    else:
        raise PreconditionError(f"unknown operator {op!r}")

    if getattr(args, "complex_property", False):
        if isinstance(base, BogovskiiOperator):
            raise PreconditionError("--complex-property applies to Poincare operators only")
        return ComplexPropertyOperator(base)
    return base


def _geometry_or_none(cx: SimplicialComplex) -> MeshGeometry | None:
    if cx.coordinates is None or cx.num_simplices(2) == 0:
        return None
    return MeshGeometry(cx)


def _emit(payload: dict, path=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _tolerance(args) -> float:
    if args.tolerance is None:
        return DEFAULT_TOLERANCE[args.op]
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise PreconditionError(
            f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    return args.tolerance


# -- subcommands ---------------------------------------------------------


def cmd_mesh_info(args) -> int:
    cx = load_mesh(args.mesh)
    info = {
        "command": "mesh-info",
        "mesh": args.mesh,
        "dim": cx.dim,
        "vertices": cx.num_simplices(0),
        "edges": cx.num_simplices(1),
        "triangles": cx.num_simplices(2),
        "euler_characteristic": cx.euler_characteristic(),
    }
    if cx.dim >= 1:
        info["boundary_edges"] = len(cx.boundary_indices(min(cx.dim - 1, 1)))
    geom = _geometry_or_none(cx)
    if geom is not None:
        info["bbox"] = [list(map(float, geom.bbox_min)), list(map(float, geom.bbox_max))]
        info["total_area"] = geom.total_area
    _emit(info, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise PreconditionError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise PreconditionError(f"--seed must be a non-negative integer, got {args.seed}")
    tol = _tolerance(args)
    cx = load_mesh(args.mesh)
    geom = _geometry_or_none(cx)
    op = build_operator(args, cx, geom)
    report = verify_homotopy(op, trials=args.trials, seed=args.seed)
    worst = max_residual(report)
    payload = {
        "command": "verify",
        "mesh": args.mesh,
        "op": args.op,
        "tolerance": tol,
        "max_residual": worst,
        "pass": worst <= tol,
        **report,
    }
    _emit(payload, args.report)
    return EXIT_OK if worst <= tol else EXIT_THRESHOLD


def _write_samples(geom: MeshGeometry, pot, path) -> None:
    # one row per triangle barycenter; covectors are written as vectors, and
    # floats as their repr
    barycenters = geom.corners.mean(axis=1)
    values = whitney_value(geom, pot, barycenters, np.arange(len(barycenters)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"] if pot.dim == 0 else ["x", "y", "vx", "vy"])
        writer.writerows(np.column_stack([barycenters, values]).tolist())


def cmd_potential(args) -> int:
    tol = _tolerance(args)
    cx = load_mesh(args.mesh)
    geom = _geometry_or_none(cx)
    op = build_operator(args, cx, geom)
    alpha = _load_field(args, cx)
    if alpha.dim < 1:
        raise PreconditionError("potentials are defined for cochains of degree >= 1")
    if args.samples and geom is None:
        raise PreconditionError("--samples needs a mesh with coordinates")
    if args.op == "bogovskii":
        _check_zero_trace(alpha)
    potential = op.apply(alpha)
    # every matrix the residual reads is assembled before any file is written
    residual = homotopy_residual(op, alpha)
    worst = float(np.max(np.abs(residual))) if residual.size else 0.0
    if args.out:
        save_cochain_csv(potential, args.out)
    if args.samples:
        _write_samples(geom, potential, args.samples)
    payload = {
        "command": "potential",
        "mesh": args.mesh,
        "op": args.op,
        "field": args.field,
        "degree": alpha.dim,
        "tolerance": tol,
        "residual_max": worst,
        "pass": worst <= tol,
    }
    _emit(payload, args.report)
    return EXIT_OK if worst <= tol else EXIT_THRESHOLD


def cmd_find_sequence(args, kind: str) -> int:
    """find-collapse / find-strong-collapse: search, save, report."""
    cx = load_mesh(args.mesh)
    seq = _find_sequence(kind, cx, args.terminal_vertex)
    if args.out:
        save_sequence(seq, args.out)
    _emit({
        "command": f"find-{kind}",
        "mesh": args.mesh,
        "steps": len(seq.steps),
        "terminal": seq.terminal,
    })
    return EXIT_OK


# -- wiring --------------------------------------------------------------


def _add_mesh(p):
    p.add_argument("--mesh", required=True,
                   help="builtin:square:N | builtin:ushape:N | file:PATH | PATH")


def _add_operator_args(p):
    p.add_argument("--op", required=True, choices=sorted(DEFAULT_TOLERANCE),
                   help="potential operator to build")
    p.add_argument("--point", help="base point 'x,y' (star, lipschitz, bogovskii)")
    p.add_argument("--terminal-vertex", type=int, default=None,
                   help="terminal vertex for collapse searches / contraction")
    p.add_argument("--contraction", default=None,
                   help="straight-line | ushape | file:PATH (lipschitz)")
    p.add_argument("--sequence", default=None,
                   help="reuse a saved collapse / strong-collapse sequence file")
    p.add_argument("--truncation-factor", type=float, default=10.0,
                   help="ignored: bogovskii integrals are exact, with no truncation")
    p.add_argument("--complex-property", action="store_true",
                   help="replace P by P - dPP, which squares to zero; on a 2-D mesh it is P")
    p.add_argument("--tolerance", type=float, default=None,
                   help="residual threshold (default depends on --op)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decpot",
        description="Discrete Poincare / Bogovskii potentials on triangle meshes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mesh-info", help="simplex counts and mesh extents")
    _add_mesh(p)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_mesh_info)

    p = sub.add_parser("verify", help="homotopy-identity residuals on random cochains")
    _add_mesh(p)
    _add_operator_args(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("potential", help="apply a potential operator to a field")
    _add_mesh(p)
    _add_operator_args(p)
    p.add_argument("--field", required=True,
                   help="g1 | g2 | f | file:PATH (cochain CSV)")
    p.add_argument("--out", default=None, help="write the potential cochain CSV here")
    p.add_argument("--samples", default=None,
                   help="write barycenter samples of the potential here")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("find-collapse", help="search for a collapse sequence")
    _add_mesh(p)
    p.add_argument("--terminal-vertex", type=int, default=None)
    p.add_argument("--out", default=None, help="write the sequence JSON here")
    p.set_defaults(func=functools.partial(cmd_find_sequence, kind="collapse"))

    p = sub.add_parser("find-strong-collapse", help="search for a strong collapse sequence")
    _add_mesh(p)
    p.add_argument("--terminal-vertex", type=int, default=None)
    p.add_argument("--out", default=None, help="write the sequence JSON here")
    p.set_defaults(func=functools.partial(cmd_find_sequence, kind="strong-collapse"))

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
