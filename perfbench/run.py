"""qcompat benchmark: time to a verdict at the default solver tolerances.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports ``qcompat``
from its ``src/`` directory and exits with code 2 when there is none.  Each
workload runs in fresh worker processes (``worker.py``) with BLAS pinned to
one thread.  With ``--trace 0`` it prints the end-to-end metrics: set-up time
(median of SETUPS fresh processes), median decision time, decisions per
second and peak RSS.  Times are adjusted to a fixed machine speed, as
``worker.py`` explains; the unadjusted ones are in the details.  With
``--trace 1`` a separate traced process prints the per-layer metrics.  The
last line of stdout is the result object; the line before it carries details
(tail latency, failures, sweeps per decision, environment).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # fresh processes timed per run; the last one also measures
DEADLINE_S = 170  # for all of a run's workers together
TAIL_BEYOND = 10  # samples that must lie above the tail percentile

# Identical on both sides of every comparison.  OpenBLAS otherwise starts
# one thread per core, and the robustness bisections then vary about twice
# as much from run to run.  No bytecode is written, so every set-up compiles
# the same sources.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
        cwd=ROOT,
        env={**os.environ, **WORKER_ENV},
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> dict | None:
    """Highest percentile with TAIL_BEYOND samples above it, if it is >= p50."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < len(ordered) / 2:
        return None
    return {"value_s": ordered[k - 1], "percentile": 100 * k / len(ordered), "samples": len(ordered)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qcompat" / "__init__.py").is_file():
        sys.stderr.write(f"no qcompat sources under {ROOT / 'src'}\n")
        raise SystemExit(2)

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = run_worker(args.workload, args.seed, args.seconds, "trace", deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
        correct = result["counts_repeat"]
        detail = {
            "counts_repeat": result["counts_repeat"],
            "sweeps_by_decision": result["sweeps_by_decision"],
        }
    else:
        setups = [
            run_worker(args.workload, args.seed, args.seconds, "setup", deadline)
            for _ in range(SETUPS - 1)
        ]
        result = run_worker(args.workload, args.seed, args.seconds, "measure", deadline)
        setups.append(result)
        metrics = {
            "decide_s_p50": {"value": result["decide_s_p50"], "unit": "s"},
            "decisions_per_s": {"value": result["decisions_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
        }
        correct = True
        detail = {
            "decide_s_tail": tail(result["times_s"]),
            "unadjusted": {
                **result["raw"],
                "setup_s": statistics.median(r["raw_setup_s"] for r in setups),
            },
        }

    failures = result["failures"]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        passes=result["passes"],
        failed_frac=len(failures) / result["decisions"],
        failures=failures,
        warmup_errors=result["warmup_errors"],
        environment=result["environment"],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct and not failures,
        "attempted": result["decisions"],
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
