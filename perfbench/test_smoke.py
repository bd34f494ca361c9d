"""Smoke check of the benchmark harness at the smallest mesh sizes.

    python3 -m pytest perfbench

Runs one untraced and one traced run of a tiny workload in process, and
checks the result against the metric lists in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
from workloads import OperatorSpec, Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    operators=(
        OperatorSpec("collapse", "builtin:square:2"),
        OperatorSpec("collapse", "builtin:square:3"),
        OperatorSpec("strong-collapse", "builtin:square:2"),
        OperatorSpec("star", "builtin:square:2", (0.5, 0.5)),
        OperatorSpec("lipschitz", "builtin:ushape:10", (0.2, 0.2)),
        OperatorSpec("bogovskii", "builtin:square:2", (0.52, 0.51)),
    ),
    builds=(2, 2, 2, 2, 2, 2),
    trials=2,
    batch=2,
    complex_property=("collapse", "star"),
    cli_op=OperatorSpec("collapse", "builtin:square:2"),
)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_result(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    result = child.run(TINY, seed=1, seconds=0.2, trace=False, root=tmp_path)
    check_result(result, benchmark_spec()["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    result = child.run(TINY, seed=1, seconds=0.2, trace=True, root=tmp_path)
    check_result(result, benchmark_spec()["per_layer"])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["homotopy.collapse_steps"] > 0
    assert metrics["singular.rows"] > 0
    assert metrics["probe.failed"] == 0
    # two collapse sizes give a defined exponent
    assert metrics["homotopy.find_collapse_s.exponent"] != 0.0
    assert (tmp_path / ".perfbench" / "trace-tiny-seed1.json").is_file()
    # the tracer put the library back as it found it
    from decpotentials import homotopy, potentials
    assert not hasattr(homotopy.find_collapse_sequence, "__wrapped__")
    assert not hasattr(potentials.coboundary, "__wrapped__")


def test_scaling_keeps_a_slower_library_slower(monkeypatch):
    # The calibration kernels must not absorb a change in the library: doing
    # every verify three times has to read as about three times the time.
    spec = OperatorSpec("collapse", "builtin:square:3")
    wl = Workload(name="one", operators=(spec,), builds=(2,), trials=20, batch=2, cli_op=spec)
    base = child.run(wl, seed=1, seconds=0.5, trace=False, root=ROOT)["metrics"]
    verify = child.potentials.verify_homotopy

    def thrice(*args, **kwargs):
        verify(*args, **kwargs)
        verify(*args, **kwargs)
        return verify(*args, **kwargs)
    monkeypatch.setattr(child.potentials, "verify_homotopy", thrice)
    slow = child.run(wl, seed=1, seconds=0.5, trace=False, root=ROOT)["metrics"]
    assert 2.0 < slow["verify_s"]["value"] / base["verify_s"]["value"] < 4.5


def test_exponent_pools_operator_kinds():
    points = {"a": [(10, 1.0), (100, 100.0)], "b": [(10, 5.0), (100, 500.0)], "c": [(10, 3.0)]}
    assert child.fitted_exponent(points) == pytest.approx(2.0)
    assert child.fitted_exponent({"c": [(10, 3.0)]}) is None


def test_refuses_a_checkout_without_library_source(tmp_path):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "many-rhs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert res.returncode != 0
    assert res.stdout == ""


def test_recount_catches_counts_that_differ():
    spec = OperatorSpec("collapse", "builtin:square:2")
    wl = Workload(name="one", operators=(spec,), builds=(2,), trials=2, batch=2, cli_op=spec)
    _, counts, _ = child.timed_build(spec, child.tracing.NullTracer())
    ledger = child.Ledger()
    child.recount_check(wl, {0: counts}, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    child.recount_check(wl, {0: dict(counts, table_terms=counts["table_terms"] + 1)}, ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)
