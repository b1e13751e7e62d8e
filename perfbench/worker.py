"""One workload in one fresh process: set up, then measure or trace.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

``setup`` times the set-up alone.  ``measure`` sets up, then runs whole
passes over the workload's decisions, back to back from one client, until
the whole number of passes nearest ``--seconds`` is done.  ``trace`` runs one
untraced pass, then traced passes, and reports per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object.

Times are reported twice: as measured, and adjusted to a fixed machine speed.
On a shared 2-core x86-64 virtual machine, identical decisions were measured
up to 1.8x slower for stretches of tens of seconds, with CPU time slowing as
much as the wall clock.  A fixed numpy kernel, shaped like
the workload's bottleneck and independent of ``qcompat``, is timed before
and after every decision; each decision's time is scaled by the kernel's
reference time over its measured time.  The adjusted times are what the
benchmark's metrics report.
"""

import time

STARTED = time.perf_counter()  # set-up includes importing numpy and qcompat

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qcompat  # noqa: E402

if not Path(qcompat.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"qcompat imported from {qcompat.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Reference kernels, independent of qcompat, each with about its median time
# on an idle reference machine (2-core x86-64, numpy 2.4.6 with OpenBLAS 0.3.31
# on one thread).  The time only sets the scale: adjusted times are seconds
# on a machine running at that speed.  A workload names the kernel whose
# bottleneck matches its own: small-block PSD projections are bound by
# Python and LAPACK call overhead, a qutrit-sized dense affine projection by
# memory traffic through a shared last-level cache.
_rng = np.random.default_rng(0)
_BLOCKS = [
    m + m.conj().T
    for m in (_rng.normal(size=(d, d)) + 1j * _rng.normal(size=(d, d)) for d in (2, 4, 8, 27))
]
_AFFINE_SHAPE = (477, 6561)  # rows x coordinates of the qutrit parallel problem
_AFFINE_X = _rng.normal(size=_AFFINE_SHAPE[1])


def _blocks_kernel() -> float:
    """Seconds for 20 PSD projections of 2x2, 4x4, 8x8 and 27x27 blocks."""
    started = time.perf_counter()
    for _ in range(20):
        for m in _BLOCKS:
            w, v = np.linalg.eigh(m)
            (v * np.maximum(w, 0.0)) @ v.conj().T
    return time.perf_counter() - started


def _affine_kernel() -> float:
    """Seconds for one projection x - B^T (B x) on a 477 x 6561 basis.

    The basis is allocated for each run and freed after, so that it does not
    stay resident between calibrations.
    """
    basis = np.full(_AFFINE_SHAPE, 1e-3)
    started = time.perf_counter()
    _AFFINE_X - basis.T @ (basis @ _AFFINE_X)
    return time.perf_counter() - started


KERNELS = {"blocks": (_blocks_kernel, 0.0035), "affine": (_affine_kernel, 0.0030)}
CALIBRATION_SHARE = 0.03
CALIBRATION_MIN_S = 0.01


class Speed:
    """Scale factors that adjust measured times to the reference speed."""

    def __init__(self, kernel_name: str):
        self._kernel, self._nominal = KERNELS[kernel_name]

    def sample(self, budget_s: float) -> list[float]:
        """Kernel times, run at least three times and for about ``budget_s``."""
        samples: list[float] = []
        started = time.perf_counter()
        while len(samples) < 3 or time.perf_counter() - started < budget_s:
            samples.append(self._kernel())
        return samples

    def scale(self, samples: list[float]) -> float:
        return self._nominal / statistics.median(samples)


def run_pass(decisions, speed: Speed, record: list, failures: list[str], tracer=None, base=0) -> None:
    """Run each decision once; record (seconds, speed scale) per decision.

    The scale comes from the kernel runs just before and just after the
    decision; they take about CALIBRATION_SHARE of its time.
    """
    before = speed.sample(CALIBRATION_MIN_S)
    for k, decision in enumerate(decisions):
        if tracer is not None:
            tracer.decision = base + k
        t0 = time.perf_counter()
        try:
            problem = decision.run()
        except Exception as exc:  # a raising decision counts as failed
            problem = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        after = speed.sample(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * elapsed))
        record.append((elapsed, speed.scale(before + after)))
        before = after
        if problem is not None:
            failures.append(f"{decision.name}: {problem}")


def raw_total(record) -> float:
    return sum(t for t, _ in record)


def adjusted_total(record) -> float:
    return sum(t * scale for t, scale in record)


def measure(decisions, speed: Speed, seconds: float) -> dict:
    record: list[tuple[float, float]] = []
    failures: list[str] = []
    passes = 0
    # Whole passes, as many as bring the measured time nearest --seconds.
    while passes == 0 or raw_total(record) * (1 + 0.5 / passes) < seconds:
        run_pass(decisions, speed, record, failures)
        passes += 1
    raw = [t for t, _ in record]
    adjusted = [t * scale for t, scale in record]
    return {
        "decisions": len(record),
        "failures": failures,
        "passes": passes,
        "decide_s_p50": statistics.median(adjusted),
        "decisions_per_s": len(record) / adjusted_total(record),
        "times_s": adjusted,
        "raw": {
            "decide_s_p50": statistics.median(raw),
            "decisions_per_s": len(record) / raw_total(record),
            "speed_scale_median": statistics.median(s for _, s in record),
        },
    }


def trace(workload: str, decisions, speed: Speed, seconds: float) -> dict:
    untraced: list[tuple[float, float]] = []
    run_pass(decisions, speed, untraced, [])
    tracer = tracing.Tracer()
    tracer.install()
    record: list[tuple[float, float]] = []
    failures: list[str] = []
    passes = 0
    try:
        while passes == 0 or raw_total(untraced + record) * (1 + 0.5 / (passes + 1)) < seconds:
            run_pass(decisions, speed, record, failures, tracer, passes * len(decisions))
            passes += 1
    finally:
        tracer.uninstall()
    missing = tracer.missing_sites(workload)
    if missing:
        raise SystemExit(f"{workload}: traced import sites never fired: {missing}")
    escaped = tracer.escaped_calls()
    if escaped:
        raise SystemExit(f"{workload}: calls escaped the tracer: {escaped}")

    scales = [scale for _, scale in record]
    metrics = tracing.layer_metrics(tracer.spans, scales, passes)
    overhead = adjusted_total(record) / passes / adjusted_total(untraced) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    counts = tracing.pass_counts(tracer.spans, len(decisions))
    sweeps = tracing.sweeps_by_decision(tracer.spans, len(decisions))
    return {
        "decisions": len(record),
        "failures": failures,
        "passes": passes,
        "metrics": metrics,
        "counts_repeat": all(c == counts[0] for c in counts),
        "sweeps_by_decision": {decisions[k].name: n for k, n in sorted(sweeps.items())},
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        warmup_errors = []
        for step in workload.warmup:
            try:
                step()
            except Exception as exc:  # the timed decisions report the failure
                warmup_errors.append(f"{type(exc).__name__}: {exc}")
        setup = time.perf_counter() - STARTED
        speed = Speed(workload.kernel)
        setup_scale = speed.scale(speed.sample(CALIBRATION_SHARE * setup))
        result = {
            "setup_s": setup * setup_scale,
            "raw_setup_s": setup,
            "warmup_errors": warmup_errors,
        }
        if args.mode == "measure":
            result.update(measure(workload.decisions, speed, args.seconds))
        elif args.mode == "trace":
            result.update(trace(args.workload, workload.decisions, speed, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
