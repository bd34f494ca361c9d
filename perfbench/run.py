"""Benchmark entry point: one workload run in a fresh child interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The child imports the library from
the checkout's ``src`` with OpenBLAS/OpenMP pinned to one thread; its last
stdout line is the JSON result, printed here as this program's last line.
Exits non-zero, without a result, when the checkout has no library source,
when the child fails, or when it outlives the time limit.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170
WORKLOADS = ("combinatorial", "whitney", "many-rhs")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="decpotentials benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    root = Path.cwd()
    if not (root / "src" / "decpotentials" / "__init__.py").is_file():
        print(f"no library source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_THREADS, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    # The child leads its own process group, so that nothing it started
    # (the CLI processes of a traced run) outlives the run.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        out, err = proc.communicate()
        sys.stderr.write(err)
        print(f"benchmark child exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    kill_group(proc.pid)
    sys.stderr.write(err)
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"benchmark child exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # every process of the group has already ended
        pass


if __name__ == "__main__":
    sys.exit(main())
