"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH and the BLAS
thread pools pinned to one thread.  Prints information lines, then one JSON
result line with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

An untraced run builds each operator of the workload the number of times
its ``builds`` entry gives, each time from its mesh spec to a matrix
assembled in every degree, and keeps the first build of each.  The
``--seconds`` of measurement are cut into slices, one after the first builds
and one after each later build.  A slice alternates one chunk of the seeded
cochain stream through ``apply`` with one ``verify_homotopy`` call, operator
by operator.  Every timed piece (a build, a chunk, a verify call) is followed by
a slice of fixed calibration kernels, and its time is scaled by how much
slower than nominal its metric's kernel ran around it (see ``Speedometer``).
``setup_s`` is the sum over operators of the median scaled build time,
``potentials_per_s`` the median scaled rate over the chunks, ``verify_s`` the
sum over targets of the median scaled verify time.  The known-defect probes
run once, first, outside every timing.  At the end the potentials of the
builtin fields and the homotopy identity on every streamed cochain are
checked.

With ``--trace 1`` the set-up runs twice untraced, the second being the
reference for the tracing overhead, and once traced; the measurement is
traced pass by pass, the CLI is timed in its own processes, and the
per-layer metrics are printed instead.  The traced run also checks the
exact counts it reports against a second interpreter with another hash
seed, which rebuilds the smallest operator of each kind.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.sparse

import decpotentials
from decpotentials import cli, potentials, whitney
from decpotentials.simplicial import Cochain

import tracing
from workloads import TOLERANCE, WORKLOADS, OperatorSpec, Workload, build_operator, operator_counts

PROBE_OP_BASE = 100  # operation ids of probes, kept out of the layer sums
CHUNK_S = 0.01  # least length of one timed chunk of the apply stream
HERE = Path(__file__).resolve().parent

SETUP_LAYERS = (
    "meshes.generate", "whitney.geometry",
    "homotopy.find_collapse", "homotopy.validate_collapse",
    "homotopy.find_strong_collapse", "homotopy.product_complex",
    "homotopy.contraction_map",
    "cones.collapse_cone", "cones.contraction_cone", "cones.star_cone",
    "cones.infinite_cone", "cones.lipschitz_cone",
    "singular.segment_rows", "singular.triangle_rows", "singular.cone_rows",
    "potentials.assemble_k1", "potentials.assemble_k2",
)
FIELD_LAYERS = ("whitney.de_rham",)
MEASURE_LAYERS = ("potentials.apply", "potentials.verify", "simplicial.coboundary")
TIME_LAYERS = SETUP_LAYERS + FIELD_LAYERS + MEASURE_LAYERS

class Failed(Exception):
    """An operation's output broke the homotopy identity's tolerance."""


class Ledger:
    """Attempted and failed operations; a failure is recorded, the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args):
        """Run one operation; returns (ok, value)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # the run must go on and report the failure
            self.fail(label, exc)
            return False, None

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        info("failure", {"operation": label, "type": type(exc).__name__, "message": str(exc)})


def info(tag: str, payload) -> None:
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def check_residual(label: str, worst: float, tol: float) -> None:
    if not worst <= tol:
        raise Failed(f"{label}: residual {worst:.3e} over tolerance {tol:.0e}")


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in pins},
        "machine": platform.machine(),
    }


# -- machine speed -------------------------------------------------------

# Other tenants of the host slow this machine's vCPUs by up to 2x, in spells
# from a tenth of a second to several minutes.  CPU time slows with wall
# time, so the loss is in the shared hardware, not in scheduling, and no
# statistic over one run removes a spell that outlasts the run.  Every timed
# piece is therefore bracketed by slices of fixed calibration kernels, and
# its time is scaled by a kernel's nominal time over the kernel's measured
# time around it.  The kernels do not touch the library, so a change to the
# library moves the scaled times exactly as it moves the raw ones.  The
# interference slows different kinds of code by different amounts, so each
# metric is scaled by the kernel whose kind of work is closest to its own
# (see KERNEL_OF).
CAL_SHARE = 0.5  # calibration seconds per timed second ...
CAL_MIN_S = 0.006  # ... but at least this long
CAL_MAX_S = 0.25  # ... and at most this long
_CAL_RNG = np.random.default_rng(20240917)


def _incidence(rows: int, cols: int, per_row: int):
    """A fixed random sparse matrix shaped like a coboundary of square:12."""
    idx = np.sort(_CAL_RNG.choice(cols, (rows, per_row)), axis=1).ravel()
    vals = np.tile([1.0, -1.0, 1.0][:per_row], rows)
    ptr = np.arange(0, rows * per_row + 1, per_row)
    return scipy.sparse.csr_matrix((vals, idx, ptr), shape=(rows, cols))


_CAL_D0 = _incidence(456, 169, 2)
_CAL_D1 = _incidence(288, 456, 3)
_CAL_P1 = _CAL_RNG.uniform(-1.0, 1.0, (169, 456))
_CAL_P2 = _CAL_RNG.uniform(-1.0, 1.0, (456, 288))


def kernel_py() -> int:
    """Interpreter work on dicts and sets keyed by tuples, as in the set-up."""
    table = {}
    for i in range(600):
        table[(i % 37, i % 41, i)] = table.get((i % 37, i % 41, i - 1), 0) + i
    live = {k for k in table if k[2] % 3}
    return len(sorted(live)[:8])


def kernel_np() -> float:
    """Seeded generators, sparse and small dense mat-vecs, as in verify_homotopy."""
    acc = 0.0
    for trial in range(4):
        rng = np.random.default_rng((7, 1, trial))
        a = rng.uniform(-1.0, 1.0, 456)
        r = _CAL_D0 @ (_CAL_P1 @ a) + _CAL_P2 @ (_CAL_D1 @ a) - a
        acc += float(np.max(np.abs(r)))
    return acc


KERNELS = {"py": kernel_py, "np": kernel_np}
# The set-up is mostly interpreter work, verify_homotopy mostly calls into
# numpy and scipy, and apply both: its slowness is the geometric mean of the
# two kernels'.  In five-run trials on each workload, these pairings tracked
# the library best among the kernels tried (perfbench/README.md).
KERNEL_OF = {"setup_s": ("py",), "potentials_per_s": ("py", "np"), "verify_s": ("np",)}
# Seconds of one call of each kernel at the machine's usual speed; they set
# the scale of the metrics only.
NOMINAL_S = {"py": 6.0e-4, "np": 8.6e-4}


class Speedometer:
    """Scales timed pieces to the machine's nominal speed.

    Call ``start`` before the first piece; then ``bracket(dt)`` after each
    piece runs a calibration slice and returns, per kernel, the mean
    slowness of the slices just before and just after the piece.  A piece's
    scaled time is ``dt`` divided by the slowness of its metric's kernels
    (see ``KERNEL_OF``).
    """

    def __init__(self):
        self.last: dict[str, float] = {}
        self.samples: dict[str, list] = defaultdict(list)

    def slowness(self, min_s: float) -> dict[str, float]:
        """Measured over nominal time of each kernel, over at least min_s."""
        spent = dict.fromkeys(KERNELS, 0.0)
        n = 0
        t_end = perf_counter() + min_s
        while True:
            for name, fn in KERNELS.items():
                t0 = perf_counter()
                fn()
                spent[name] += perf_counter() - t0
            n += 1
            if perf_counter() >= t_end:
                break
        self.last = {k: t / n / NOMINAL_S[k] for k, t in spent.items()}
        for k, v in self.last.items():
            self.samples[k].append(v)
        return self.last

    def start(self) -> None:
        self.slowness(CAL_MIN_S)

    def bracket(self, dt: float) -> dict[str, float]:
        before = self.last
        after = self.slowness(min(max(CAL_SHARE * dt, CAL_MIN_S), CAL_MAX_S))
        return {k: 0.5 * (before[k] + after[k]) for k in KERNELS}


# -- set-up --------------------------------------------------------------


def timed_build(spec: OperatorSpec, tracer):
    # Objects from earlier builds are frozen out of the cyclic collector, so
    # each build pays collection costs like a fresh ``decpot`` process does.
    gc.collect()
    gc.freeze()
    try:
        t0 = perf_counter()
        op, counts = build_operator(spec, tracer.span)
        dt = perf_counter() - t0
    finally:
        gc.unfreeze()
    counts.update(operator_counts(op))
    return op, counts, dt


def build_one(wl: Workload, i: int, ledger: Ledger, tracer, seen: dict):
    """Build operator ``i`` once; checks that its exact counts repeat.

    Returns (operator, seconds), or None when the build failed.
    """
    spec = wl.operators[i]
    tracer.op = i
    ok, res = ledger.run(spec.label + " setup", timed_build, spec, tracer)
    if not ok:
        return None
    op, counts, dt = res
    if seen.setdefault(i, counts) != counts:
        ledger.fail(spec.label + " counts", Failed(f"counts {counts} differ from {seen[i]}"))
    return op, dt


def setup_pass(wl: Workload, ledger: Ledger, tracer, seen: dict, times: dict):
    """Build every operator once; appends each build's seconds to ``times``."""
    ops = []
    for i in range(len(wl.operators)):
        res = build_one(wl, i, ledger, tracer, seen)
        ops.append(None if res is None else res[0])
        if res is not None:
            times[i].append(res[1])
    return ops


def probe(spec: OperatorSpec, tracer) -> dict:
    """Build and verify a known-defect probe; the outcome is reported, not timed."""
    try:
        op, _, _ = timed_build(spec, tracer)
        worst = potentials.max_residual(potentials.verify_homotopy(op, trials=10))
        check_residual(spec.label, worst, TOLERANCE[spec.op])
        return {"operator": spec.label, "failed": False}
    except Exception as exc:  # the probe exists to record this failure
        return {"operator": spec.label, "failed": True,
                "type": type(exc).__name__, "message": str(exc)}


# The counts of ``timed_build``, printed as JSON, for a list of
# (op, mesh, point) operator specs.
RECOUNT = """
import json, sys
import child, tracing
from workloads import OperatorSpec
counts = []
for op, mesh, point in json.loads(sys.argv[1]):
    spec = OperatorSpec(op, mesh, None if point is None else tuple(point))
    counts.append(child.timed_build(spec, tracing.NullTracer())[1])
print(json.dumps(counts))
"""


def recount_check(wl: Workload, seen: dict, ledger: Ledger) -> None:
    """Rebuild the smallest operator of each kind in a second interpreter.

    That interpreter gets another hash seed, so a count that depends on the
    iteration order of a set or dict shows up as a mismatch.
    """
    smallest: dict[str, int] = {}
    for i in sorted(seen, key=lambda i: seen[i]["simplices"]):
        smallest.setdefault(wl.operators[i].op, i)
    chosen = sorted(smallest.values())
    specs = [[wl.operators[i].op, wl.operators[i].mesh, wl.operators[i].point] for i in chosen]
    hash_seed = os.environ.get("PYTHONHASHSEED", "")
    src = Path(decpotentials.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]),
               PYTHONHASHSEED=str(int(hash_seed) + 1) if hash_seed.isdigit() else "1")

    def recount():
        res = subprocess.run([sys.executable, "-c", RECOUNT, json.dumps(specs)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        for i, counts in zip(chosen, json.loads(res.stdout)):
            if counts != seen[i]:
                raise Failed(f"{wl.operators[i].label}: counts {counts} from a second "
                             f"process differ from {seen[i]}")
        info("recount", {"operators": [wl.operators[i].label for i in chosen],
                         "PYTHONHASHSEED": env["PYTHONHASHSEED"], "equal": True})
    ledger.run("recount", recount)


# -- fields and the measured stream ---------------------------------------


def field_checks(wl: Workload, ops, ledger: Ledger, tracer) -> None:
    """Potentials of the builtin fields g1, g2 (2-forms) and f (1-form)."""
    for i, (spec, op) in enumerate(zip(wl.operators, ops)):
        if op is None:
            continue
        tracer.op = i
        for name, (fn, k) in cli.BUILTIN_FIELDS.items():
            def check(fn=fn, k=k, name=name):
                alpha = admissible(op, whitney.de_rham(op.complex, fn, k))
                r = potentials.homotopy_residual(op, alpha)
                check_residual(f"{spec.label} field {name}", float(np.max(np.abs(r))),
                               TOLERANCE[spec.op])
            ledger.run(f"{spec.label} field {name}", check)


def targets_of(wl: Workload, ops):
    """(operation id, label, tolerance, operator) per operator and P - dPP variant."""
    out = []
    for i, (spec, op) in enumerate(zip(wl.operators, ops)):
        if op is None:
            continue
        out.append((i, spec.label, TOLERANCE[spec.op], op))
        if spec.op in wl.complex_property:
            out.append((i, spec.label + "+cp", TOLERANCE[spec.op],
                        potentials.ComplexPropertyOperator(op)))
    return out


def admissible(target, alpha):
    """Bogovskii inputs are projected first, as the README does."""
    if isinstance(target, potentials.BogovskiiOperator):
        return target.project_admissible(alpha)
    return alpha


def stream_items(targets, batch: int, seed: int):
    """(operation id, label, tolerance, target, apply, cochain) per stream entry.

    An operator and its P - dPP variant see the same seeded cochains.
    """
    items = []
    for i, label, tol, target in targets:
        rng = np.random.default_rng([seed, i])
        cx = target.complex

        def fn(alpha, target=target):
            return target.apply(admissible(target, alpha))
        for k in range(1, cx.dim + 1):
            for _ in range(batch):
                alpha = Cochain(cx, k, rng.uniform(-1.0, 1.0, cx.num_simplices(k)))
                items.append((i, label, tol, target, fn, alpha))
    return items


def check_stream(items, ledger: Ledger) -> None:
    """The homotopy identity on every cochain of the stream, outside timing."""
    for _, label, tol, target, _, alpha in items:
        def check():
            r = potentials.homotopy_residual(target, admissible(target, alpha))
            check_residual(f"{label} stream k={alpha.dim}", float(np.max(np.abs(r))), tol)
        ledger.run(f"{label} stream", check)


def timed_verify(target, trials: int, seed: int, label: str, tol: float) -> float:
    t0 = perf_counter()
    report = potentials.verify_homotopy(target, trials=trials, seed=seed)
    dt = perf_counter() - t0
    check_residual(label + " verify", potentials.max_residual(report), tol)
    return dt


def verify_pass(targets, trials: int, seed: int, ledger: Ledger, tracer, times: dict) -> None:
    """One ``verify_homotopy`` per target; its wall time goes to ``times[label]``."""
    for i, label, tol, target in targets:
        tracer.op = i
        ok, dt = ledger.run(label + " verify", timed_verify, target, trials, seed, label, tol)
        if ok:
            times[label].append(dt)


def apply_chunk(fns, ledger: Ledger) -> tuple[int, float]:
    """Whole passes of the stream through ``apply`` for at least CHUNK_S.

    Returns (cochains, seconds).
    """
    n = 0
    errors = 0
    t0 = perf_counter()
    while True:
        for fn, alpha in fns:
            try:
                fn(alpha)
            except Exception:  # counted, and reported below
                errors += 1
        n += len(fns)
        dt = perf_counter() - t0
        if dt >= CHUNK_S:
            break
    ledger.attempted += n
    if errors:
        ledger.failed += errors
        info("failure", {"operation": "apply stream", "count": errors})
    return n, dt


class Measurement:
    """The untraced measurement, taken in slices spread over the run.

    Each slice alternates apply chunks and verify calls, target by target.
    Keeps (cochains, seconds, slowness) per chunk and (seconds, slowness)
    per verify call of each target.
    """

    def __init__(self, wl: Workload, items, targets, seed: int, ledger: Ledger,
                 speed: Speedometer):
        self.wl, self.targets, self.seed, self.ledger, self.speed = (
            wl, targets, seed, ledger, speed)
        self.fns = [(it[4], it[5]) for it in items]
        self.chunks: list[tuple[int, float, dict]] = []
        self.verify: dict[str, list] = defaultdict(list)
        self.calls = 0

    def slice(self, seconds: float) -> None:
        """Measure for ``seconds``, and until every target has a verify time."""
        speed = self.speed
        speed.start()
        end = perf_counter() + seconds
        while perf_counter() < end or self.calls < len(self.targets):
            n, dt = apply_chunk(self.fns, self.ledger)
            self.chunks.append((n, dt, speed.bracket(dt)))
            _, label, tol, target = self.targets[self.calls % len(self.targets)]
            ok, dt = self.ledger.run(label + " verify", timed_verify, target, self.wl.trials,
                                     self.seed * 1000 + self.calls // len(self.targets),
                                     label, tol)
            if ok:
                self.verify[label].append((dt, speed.bracket(dt)))
            else:
                speed.start()  # the next chunk still needs a slice just before it
            self.calls += 1


# -- traced run ----------------------------------------------------------


def fitted_exponent(points) -> float | None:
    """Slope of log time against log simplex count, pooled over operator kinds.

    ``points`` maps an operator kind to its (simplex count, seconds) pairs;
    each kind gets its own intercept, so only kinds measured at two or more
    sizes contribute.  None when no kind does.
    """
    sxy = sxx = 0.0
    for pairs in points.values():
        pairs = [(math.log(n), math.log(t)) for n, t in pairs if t > 0]
        if len({x for x, _ in pairs}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pairs)
        my = statistics.fmean(y for _, y in pairs)
        sxy += sum((x - mx) * (y - my) for x, y in pairs)
        sxx += sum((x - mx) ** 2 for x, _ in pairs)
    return sxy / sxx if sxx > 0 else None


# Runs a command and reports its wall time and its own peak RSS.  Linux keeps
# a forked process's peak RSS across exec, so the command is started from
# this small interpreter rather than from the benchmark's large one.
CLI_LAUNCHER = """
import json, os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - t0
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({"exit": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}))
"""
CLI_IMPORT = ("import time; t = time.perf_counter(); import decpotentials.cli; "
              "print(time.perf_counter() - t)")


def cli_metrics(spec: OperatorSpec, seed: int, root: Path, ledger: Ledger) -> dict:
    """Import time, and wall time and peak RSS of one ``decpot verify`` process."""
    argv = [sys.executable, "-m", "decpotentials.cli", "verify", "--mesh", spec.mesh,
            "--op", spec.op, "--trials", "10", "--seed", str(seed)]
    if spec.point is not None:
        argv += ["--point", "%r,%r" % spec.point]
    metrics = {}

    def child(cmd):
        res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60,
                             check=True)
        return res.stdout

    ok, out = ledger.run("cli import", child, [sys.executable, "-c", CLI_IMPORT])
    if ok:
        metrics["cli.import_s"] = float(out)
    ok, out = ledger.run(f"cli verify {spec.label}", child,
                         [sys.executable, "-c", CLI_LAUNCHER, *argv])
    if ok:
        res = json.loads(out)
        if res["exit"] == 0:
            metrics["cli.verify_wall_s"] = res["wall_s"]
            metrics["cli.verify_peak_rss_mb"] = res["maxrss_kb"] / 1024
        else:
            ledger.fail(f"cli verify {spec.label}", Failed(f"exit code {res['exit']}"))
    return metrics


def traced_run(wl: Workload, seed: int, seconds: float, root: Path, ledger: Ledger) -> dict:
    # the second untraced set-up is the reference: the first one runs cold
    null = tracing.NullTracer()
    times: dict[int, list] = defaultdict(list)
    seen: dict = {}
    for _ in range(2):
        ops = None
        gc.collect()
        ops = setup_pass(wl, ledger, null, seen, times)
    untraced = sum(t[-1] for t in times.values())
    ops = None
    gc.collect()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        first = len(tracer.names)
        traced_times: dict[int, list] = defaultdict(list)
        ops = setup_pass(wl, ledger, tracer, seen, traced_times)
        traced = sum(t[-1] for t in traced_times.values())
        setup_self = tracer.self_times(first)

        probes = []
        for j, spec in enumerate(wl.probes):
            tracer.op = PROBE_OP_BASE + j
            probes.append(probe(spec, tracer))
        for p in probes:
            info("probe", p)

        first = len(tracer.names)
        field_checks(wl, ops, ledger, tracer)
        field_self = tracer.self_times(first)

        targets = targets_of(wl, ops)
        items = stream_items(targets, wl.batch, seed)
        passes = []
        end = perf_counter() + seconds
        rep = 0
        while perf_counter() < end or not passes:
            first = len(tracer.names)
            for i, label, _, _, fn, alpha in items:
                tracer.op = i
                with tracer.span("potentials.apply"):
                    ledger.run(label + " apply", fn, alpha)
            verify_pass(targets, wl.trials, seed * 1000 + rep, ledger, tracer,
                        defaultdict(list))
            passes.append(tracer.self_times(first))
            rep += 1
    finally:
        tracer.uninstall()
    check_stream(items, ledger)

    # per (layer, op) self time: the traced set-up, the field phase, and the
    # median over measurement passes
    per_op: dict[tuple[str, int], float] = defaultdict(float)
    for (name, op_id), t in list(setup_self.items()) + list(field_self.items()):
        per_op[name, op_id] += t
    for name in MEASURE_LAYERS:
        for i in range(len(wl.operators)):
            per_op[name, i] = statistics.median(p.get((name, i), 0.0) for p in passes)

    sizes = {i: seen[i]["simplices"] for i in seen}
    metrics: dict[str, float] = {}
    undefined = []
    for layer in TIME_LAYERS:
        total = 0.0
        points: dict[str, list] = defaultdict(list)
        for i, spec in enumerate(wl.operators):
            t = per_op.get((layer, i), 0.0)
            total += t
            if t > 0 and i in sizes:
                points[spec.op].append((sizes[i], t))
        metrics[layer + "_s"] = total
        slope = fitted_exponent(points)
        if slope is None:
            undefined.append(layer + "_s.exponent")
        metrics[layer + "_s.exponent"] = 0.0 if slope is None else slope
    info("exponent_undefined", undefined)

    def count(key):
        return sum(c.get(key, 0) for c in seen.values())
    metrics["homotopy.collapse_steps"] = count("collapse_steps")
    metrics["homotopy.strong_steps"] = count("strong_steps")
    metrics["homotopy.product_simplices"] = count("product_simplices")
    metrics["cones.table_terms"] = count("table_terms")
    metrics["singular.rows"] = sum(
        n for (key, op_id), n in tracer.calls.items()
        if key in ("singular.chain_functional", "singular.cone_chain_functional")
        and 0 <= op_id < PROBE_OP_BASE)
    metrics["potentials.nnz_k1"] = count("nnz_k1")
    metrics["potentials.nnz_k2"] = count("nnz_k2")
    metrics["potentials.nnz"] = metrics["potentials.nnz_k1"] + metrics["potentials.nnz_k2"]
    metrics["potentials.dense_bytes"] = count("dense_bytes_k1") + count("dense_bytes_k2")
    metrics["trace.overhead_s"] = traced - untraced
    probe_failed = sum(p["failed"] for p in probes)
    metrics["probe.failed"] = probe_failed
    setups_failed = sum(1 for op in ops if op is None) + probe_failed
    metrics["setup.failed_frac"] = setups_failed / (len(wl.operators) + len(probes))
    metrics.update(cli_metrics(wl.cli_op, seed, root, ledger))
    recount_check(wl, seen, ledger)

    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{wl.name}-seed{seed}.json")
    info("trace", {"spans": len(tracer.names), "setup_untraced_s": untraced,
                   "setup_traced_s": traced, "passes": len(passes)})
    return metrics


# -- untraced run --------------------------------------------------------


def untraced_run(wl: Workload, seed: int, seconds: float, ledger: Ledger) -> dict:
    # The first build of each operator is kept and measured.  The later
    # builds go round the operators until each has had its count; each is
    # discarded at once and followed by a slice of the measurement, so that
    # the samples of every metric spread over the whole run.
    null = tracing.NullTracer()
    speed = Speedometer()
    times: dict[int, list] = defaultdict(list)
    seen: dict = {}
    # Probes run first: their memory is freed before the workload's peak.
    for spec in wl.probes:
        info("probe", probe(spec, null))
    gc.collect()

    def build(i):
        res = build_one(wl, i, ledger, null, seen)
        if res is None:
            speed.start()
            return None
        times[i].append((res[1], speed.bracket(res[1])))
        return res[0]

    speed.start()
    ops = [build(i) for i in range(len(wl.operators))]
    targets = targets_of(wl, ops)
    items = stream_items(targets, wl.batch, seed)
    meas = Measurement(wl, items, targets, seed, ledger, speed)
    later = [i for r in range(1, max(wl.builds)) for i, n in enumerate(wl.builds) if r < n]
    meas.slice(seconds / (len(later) + 1))
    for i in later:
        build(i)
        meas.slice(seconds / (len(later) + 1))
    chunks, verify = meas.chunks, meas.verify
    info("counts", {"sha256": hashlib.sha256(
        json.dumps(seen, sort_keys=True).encode()).hexdigest()[:16],
        "per_operator": {wl.operators[i].label: c for i, c in sorted(seen.items())}})
    field_checks(wl, ops, ledger, null)
    check_stream(items, ledger)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def summarise(scale):
        """The metrics from the samples, each time divided by scale(metric, slowness)."""
        def t(metric, pairs):
            return statistics.median(dt / scale(metric, slow) for dt, slow in pairs)
        return {
            "setup_s": sum(t("setup_s", p) for p in times.values()),
            "potentials_per_s": statistics.median(
                n * scale("potentials_per_s", slow) / dt for n, dt, slow in chunks),
            "verify_s": sum(t("verify_s", p) for p in verify.values()),
        }

    def slowness(metric, slow):
        kernels = KERNEL_OF[metric]
        return math.prod(slow[k] for k in kernels) ** (1 / len(kernels))
    metrics = summarise(slowness)
    info("samples", {
        "setup_s": {wl.operators[i].label: [dt / slowness("setup_s", s) for dt, s in p]
                    for i, p in sorted(times.items())},
        "potentials_per_s": [n * slowness("potentials_per_s", s) / dt for n, dt, s in chunks],
        "verify_s": {label: [dt / slowness("verify_s", s) for dt, s in p]
                     for label, p in verify.items()},
        "unscaled": summarise(lambda metric, slow: 1.0),
        "slowness": {k: {"median": statistics.median(v), "min": min(v), "max": max(v)}
                     for k, v in speed.samples.items()}})
    metrics["peak_rss_mb"] = peak_kb / 1024
    return metrics


UNITS = {"setup_s": "s", "potentials_per_s": "cochains/s", "verify_s": "s",
         "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".exponent") or name.endswith("_frac"):
        return "1"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "count"


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    info("machine", machine_facts())
    info("workload", {"name": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
                      "operators": [s.label for s in wl.operators]})
    ledger = Ledger()
    if trace:
        metrics = traced_run(wl, seed, seconds, root, ledger)
    else:
        metrics = untraced_run(wl, seed, seconds, ledger)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", type=Path, required=True)
    args = ap.parse_args(argv)
    src = (args.root / "src").resolve()
    if Path(decpotentials.__file__).resolve().parent.parent != src:
        print(f"decpotentials was imported from {decpotentials.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.root)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
