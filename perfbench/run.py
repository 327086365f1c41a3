"""Benchmark launcher: one fresh process per workload, BLAS pinned to 1 thread.

    python3 perfbench/run.py --workload sod-converge --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 1

Run from the root of a source checkout; the solver is imported from its
src/ directory. Each workload runs in its own child process so that peak RSS
and allocation peaks belong to that workload alone. The last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Without the pins OpenBLAS starts nproc threads in the main process and in
# each worker, oversubscribing the cores the pool is meant to fill.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def run_child(workload: str, args) -> dict | None:
    """Run bench.py for one workload; its last stdout line is the result."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **PINS},
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
        print(f"error: {workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
    finally:
        # The session holds the child and its pool workers; none may outlive us.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if not out or proc.returncode != 0:
        if out:
            sys.stdout.write(out)
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "parabgk" / "__init__.py").is_file():
        print(f"error: no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
