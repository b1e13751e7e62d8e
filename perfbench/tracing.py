"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent span, decision id) in
memory and count calls per import site.  Several names are bound at import
time in other modules, so every import site is patched, and the class
methods are patched on the class.  ``layer_metrics`` turns the spans into the per-layer metrics:
times are means per decision unless the name says per sweep or per call;
counts are per pass.

Spans nest through one stack, not one per thread: the only threaded code path
(``check --batch``) runs with one worker while the calling thread waits, so
calls never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from qcompat import cli, compatibility, deviceio, devices, feasibility

CHECK_NAMES = (
    "obs_obs", "obs_chan", "chan_chan", "weak", "traditional", "parallel", "redefined"
)

# Import sites that each workload must reach.  A site that never fires means
# a call escaped the tracer, and the traced run errors instead of reporting 0.
_SOLVER_SITES = {
    "ConstraintBuilder.build",
    "AffineConstraintSet.__init__",
    "AffineConstraintSet.project",
}
EXPECTED_SITES = {
    "qubit-cli": _SOLVER_SITES | {
        "qcompat.cli.main",
        "qcompat.cli.load_device",
        "qcompat.cli._CHECKS",
        "qcompat.compatibility.check_traditional",  # weak precheck, redefined leg
        "qcompat.compatibility.check_weak",
        "qcompat.compatibility.dykstra_solve",
        "qcompat.compatibility.choi_compose",
        "qcompat.devices.choi_compose",
    },
    "qutrit-parallel": _SOLVER_SITES | {
        "qcompat.compatibility.check_parallel",
        "qcompat.compatibility.check_traditional",
        "qcompat.compatibility.check_weak",
        "qcompat.compatibility.dykstra_solve",
    },
    "robustness": _SOLVER_SITES | {
        "qcompat.feasibility.robustness_bisect",
        "qcompat.feasibility.dykstra_solve",
    },
}


@dataclass
class Span:
    name: str
    parent: int | None
    decision: int | None
    start: float
    end: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(span: Span, args: tuple, result) -> None:
    span.info["status"] = result.status.value
    span.info["sweeps"] = result.iterations


def _factor_info(span: Span, args: tuple, result) -> None:
    cs = args[0]
    span.info["rows"] = cs.rank
    span.info["coords"] = cs.total_size


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.decision: int | None = None
        self.fired: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def _wrap(self, name: str, site: str, fn, on_exit=None):
        spans, stack, fired = self.spans, self._stack, self.fired

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fired[site] += 1
            span = Span(name, stack[-1] if stack else None, self.decision, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, site: str, on_exit=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, site, original, on_exit))
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        for module, attr, name, on_exit in (
            (cli, "main", "cli.main", None),
            (deviceio, "load_device", "deviceio.load_device", None),
            (cli, "load_device", "deviceio.load_device", None),
            (devices, "choi_compose", "devices.choi_compose", None),
            (compatibility, "choi_compose", "devices.choi_compose", None),
            (feasibility, "dykstra_solve", "feasibility.dykstra_solve", _solve_info),
            (compatibility, "dykstra_solve", "feasibility.dykstra_solve", _solve_info),
            (feasibility, "robustness_bisect", "feasibility.robustness_bisect", None),
            (cli, "robustness_bisect", "feasibility.robustness_bisect", None),
        ) + tuple(
            (compatibility, f"check_{c}", f"compatibility.check_{c}", None)
            for c in CHECK_NAMES
        ):
            self._patch(module, attr, name, f"{module.__name__}.{attr}", on_exit)
        for cls, attr, name, on_exit in (
            (feasibility.ConstraintBuilder, "build", "feasibility.build", None),
            (feasibility.AffineConstraintSet, "__init__", "feasibility.factor", _factor_info),
            (feasibility.AffineConstraintSet, "project", "feasibility.project", None),
        ):
            self._patch(cls, attr, name, f"{cls.__name__}.{attr}", on_exit)

        # cli._CHECKS holds references taken at import.
        checks = dict(cli._CHECKS)
        for notion, (fn, kinds) in checks.items():
            cli._CHECKS[notion] = (
                self._wrap(f"compatibility.{fn.__name__}", "qcompat.cli._CHECKS", fn),
                kinds,
            )
        self._restore.append(lambda: cli._CHECKS.update(checks))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def missing_sites(self, workload: str) -> list[str]:
        return sorted(s for s in EXPECTED_SITES[workload] if not self.fired[s])

    def escaped_calls(self) -> list[str]:
        """Calls seen only through their callees, so their own site escaped.

        Class methods cannot be bypassed, so an affine projection outside a
        traced solve, or a factorization outside a traced build, means a
        solve or build was called through a name the tracer did not patch.
        """
        inside = {"feasibility.project": "feasibility.dykstra_solve",
                  "feasibility.factor": "feasibility.build"}
        escaped = Counter(
            s.name for s in self.spans
            if s.name in inside
            and (s.parent is None or self.spans[s.parent].name != inside[s.name])
        )
        return [f"{n} {name} outside {inside[name]}" for name, n in sorted(escaped.items())]


def _durations(spans: list[Span], scales: list[float]) -> tuple[list[float], list[float]]:
    """Speed-adjusted duration and self time of each span."""
    total = [s.duration * scales[s.decision] for s in spans]
    child = [0.0] * len(spans)
    for span, t in zip(spans, total):
        if span.parent is not None:
            child[span.parent] += t
    return total, [t - c for t, c in zip(total, child)]


def layer_metrics(
    spans: list[Span], scales: list[float], passes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``scales[d]`` is the speed adjustment of traced decision ``d``.
    """
    total, own = _durations(spans, scales)
    decisions = len(scales)

    def pick(prefix: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    def ms_per_decision(idx: list[int], self_time: bool = False) -> float:
        return 1e3 * sum(own[i] if self_time else total[i] for i in idx) / decisions

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    loads = pick("deviceio.load_device")
    chois = pick("devices.choi_compose")
    builds = pick("feasibility.build")
    factors = pick("feasibility.factor")
    projects = pick("feasibility.project")
    solves = pick("feasibility.dykstra_solve")

    def sweeps(status: str | None = None) -> int:
        return sum(
            spans[i].info["sweeps"]
            for i in solves
            if status is None or spans[i].info["status"] == status
        )

    total_sweeps = sweeps()
    largest = max(factors, key=lambda i: spans[i].info["coords"], default=None)
    rows = spans[largest].info["rows"] if largest is not None else 0
    coords = spans[largest].info["coords"] if largest is not None else 0
    decided = sum(1 for i in solves if spans[i].info["status"] != "undecided")
    return {
        "cli.self_ms": (ms_per_decision(pick("cli.main"), True), "ms"),
        "deviceio.load_ms": (ms_per_decision(loads), "ms"),
        "deviceio.loads": (len(loads) / passes, "count"),
        "devices.choi_compose_ms": (ms_per_decision(chois), "ms"),
        "devices.choi_compose_calls": (len(chois) / passes, "count"),
        "compatibility.self_ms": (ms_per_decision(pick("compatibility.check_"), True), "ms"),
        "feasibility.build_ms": (ms_per_decision(builds, True), "ms"),
        "feasibility.factor_ms": (ms_per_decision(factors), "ms"),
        "feasibility.builds": (len(builds) / passes, "count"),
        # Largest problem of the pass; bytes are computed, not measured: one
        # affine projection reads the rows x coords basis twice, in float64.
        "feasibility.rows": (rows, "count"),
        "feasibility.coords": (coords, "count"),
        "feasibility.affine_bytes_per_sweep": (2 * rows * coords * 8, "bytes"),
        "feasibility.solves": (len(solves) / passes, "count"),
        "feasibility.decided_ratio": (ratio(decided, len(solves)), "ratio"),
        "feasibility.sweeps": (total_sweeps / passes, "count"),
        "feasibility.sweeps_feasible": (sweeps("feasible") / passes, "count"),
        "feasibility.sweeps_infeasible": (sweeps("infeasible") / passes, "count"),
        # dykstra_solve time, its affine projections included, per sweep.
        "feasibility.sweep_us": (
            1e6 * ratio(sum(total[i] for i in solves), total_sweeps), "us"
        ),
        "feasibility.affine_project_us": (
            1e6 * ratio(sum(total[i] for i in projects), len(projects)), "us"
        ),
        # Derived: dykstra_solve self time per sweep, i.e. sweep_us minus the
        # affine projections, which leaves PSD projection and stopping checks.
        "feasibility.psd_and_checks_us": (
            1e6 * ratio(sum(own[i] for i in solves), total_sweeps), "us"
        ),
    }


def pass_counts(spans: list[Span], decisions_per_pass: int) -> list[tuple]:
    """Counts of each pass, which a deterministic program repeats exactly."""
    per_pass: dict[int, Counter] = {}
    for s in spans:
        c = per_pass.setdefault(s.decision // decisions_per_pass, Counter())
        c[s.name] += 1
        if "sweeps" in s.info:
            c[f"sweeps {s.info['status']}"] += s.info["sweeps"]
    return [tuple(sorted(per_pass[p].items())) for p in sorted(per_pass)]


def sweeps_by_decision(spans: list[Span], decisions_per_pass: int) -> dict[int, int]:
    """Sweeps of each decision of one pass (the first traced pass)."""
    out: Counter[int] = Counter()
    for s in spans:
        if "sweeps" in s.info and s.decision < decisions_per_pass:
            out[s.decision] += s.info["sweeps"]
    return dict(out)
