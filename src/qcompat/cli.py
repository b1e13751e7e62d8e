"""Command-line frontend.

Subcommands::

    qcompat check NOTION A.json B.json [--witness-out W.json] [flags]
    qcompat check --batch manifest.json [flags]
    qcompat demo {prop1,prop2,example1,example2,theorem1} [--seed N] [flags]
    qcompat robustness NOTION A.json B.json [flags]
    qcompat validate FILE [FILE ...]

Every command prints one JSON report to stdout.  Exit codes: 0 the devices
are compatible (or the demo reproduced all expected verdicts), 1 they are
incompatible (or a demo verdict mismatched), 2 the solver could not decide,
3 the input was malformed (the report names the violated invariant), 4 the
solver failed (status ``solver-error``: an exception raised while deciding,
a feasible witness that is not a valid device or misses the marginals, or an
infeasibility certificate that does not hold).  Only the input stage, from
parsing the arguments to checking the devices' kinds and dimensions, exits 3.
The input stage also checks every output path before any solve: the
directories of ``--witness-out`` and of a batch entry's ``report_out`` must
exist and be writable (neither file is created there), and ``--trace-log``
must open for appending.

A check report's ``certificate`` is ``{"value", "min_eig"}`` for an
INFEASIBLE verdict the solver certified: Re⟨λ, t⟩ and the smallest
eigenvalue of the incompatibility witness A†λ, re-checked against the
devices before the report is written.  It is null only for FEASIBLE and
UNDECIDED results and for an INFEASIBLE decided exactly, before any solve
(``weak``, and the ``traditional`` prechecks).

A batch manifest is a JSON object ``{"checks": [...]}`` where each entry has
``notion``, ``devices`` (list of file paths), and optionally ``witness_out``
and ``report_out``; entries run one after another, in order, and per-check
reports are written atomically.  An entry that is not an object with a
string ``notion``, a list ``devices`` and string paths gets an error report
of its own, as does an entry whose ``report_out`` cannot be written (that
entry is not decided) and an entry whose decision fails.  The batch exits
with the worst code of its entries.  ``--batch`` together with a notion,
device files or ``--witness-out`` is an input error (exit 3).

The solver flags are ``--tol-feas``, ``--max-iter`` and ``--trace-log``.
``--trace-log`` appends one line per solver sweep: sweep number, the gap
between the cone-side iterate and its affine projection, and the magnitude
of the most negative eigenvalue of that affine projection (0 when none).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import compatibility as compat
from .compatibility import Scenario
from .devices import (
    DimMismatch,
    Instrument,
    InvariantViolation,
    QuantumChannel,
    induced_observable,
    total_channel,
)
from .deviceio import device_to_json, load_device, save_device
from .feasibility import NotFeasibleAtOne, SolverConfig, Status, robustness_bisect
from .feasibility import ROBUSTNESS_PRECISION
from .sampling import random_channel, random_instrument

REPORT_SCHEMA_VERSION = "1"

EXIT_BY_STATUS = {
    "feasible": 0,
    "ok": 0,
    "infeasible": 1,
    "mismatch": 1,
    "undecided": 2,
    "error": 3,
    "solver-error": 4,
}

_CHECKS = {name: (notion.check, notion.kinds) for name, notion in compat.NOTIONS.items()}
_FAMILIES = [compat.NOTION_CHAN_CHAN, compat.NOTION_OBS_OBS, compat.NOTION_PARALLEL]

class CliInputError(Exception):
    def __init__(self, message: str, invariant: str | None = None):
        super().__init__(message)
        self.invariant = invariant


# The input stage's errors (InvariantViolation, DimMismatch and a bad
# SolverConfig are ValueErrors); a decision's reach main only as SolverError.
_INPUT_ERRORS = (CliInputError, ValueError)


def _finite(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _verdict_json(verdict) -> dict:
    certificate = verdict.certificate
    return {
        "status": verdict.status.value,
        "residuals": {
            "affine": _finite(verdict.residual_affine),
            "psd": _finite(verdict.residual_psd),
            "gap": _finite(verdict.gap_estimate),
        },
        "iterations": verdict.iterations,
        "certificate": None if certificate is None else {
            "value": certificate.value,
            "min_eig": certificate.min_eig,
        },
    }


def _report(command: list[str], action: str, **fields) -> dict:
    """Every document the CLI prints or writes starts with this header."""
    return {"schema_version": REPORT_SCHEMA_VERSION, "command": command, "action": action, **fields}


def _load_devices(notion: str, paths: list[str], known) -> list:
    """Load one device file per side of ``notion``, each of the kind it takes."""
    if notion not in known:
        raise CliInputError(f"unknown notion {notion!r}; expected one of {sorted(known)}")
    kinds = compat.NOTIONS[notion].kinds
    if len(paths) != len(kinds):
        raise CliInputError(f"{notion!r} takes {len(kinds)} device files, got {len(paths)}")
    devices = []
    for path, kind in zip(paths, kinds):
        device = load_device(path)
        if not isinstance(device, kind):
            raise CliInputError(
                f"{path}: {notion!r} needs a {kind.__name__.lower()}, "
                f"got {type(device).__name__.lower()}"
            )
        devices.append(device)
    return devices


def _check_writable(path: str) -> None:
    """An output file must be able to land at ``path``; it is not created."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path) or not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise CliInputError(f"cannot write {path}: {directory} is not a writable directory")


@contextlib.contextmanager
def _deciding():
    """Around a decision: any exception raised in it is the solver's failure,
    reported as ``solver-error``, except the input faults a decision finds,
    devices of different dimensions and a robustness family that is not
    feasible at full noise."""
    try:
        yield
    except (DimMismatch, NotFeasibleAtOne, compat.SolverError):
        raise
    except Exception as exc:
        raise compat.SolverError(f"decision failed: {type(exc).__name__}: {exc}") from exc


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    kwargs = {}
    if getattr(args, "tol_feas", None) is not None:
        kwargs["tol_feas"] = args.tol_feas
    if getattr(args, "max_iter", None) is not None:
        kwargs["max_iter"] = args.max_iter
    if getattr(args, "trace_log", None):
        try:
            open(args.trace_log, "a").close()
        except OSError as exc:
            raise CliInputError(f"cannot append to --trace-log {args.trace_log}: {exc}") from exc
        kwargs["trace_path"] = args.trace_log
    return SolverConfig(**kwargs)


def _emit(report: dict, stream=None) -> None:
    print(json.dumps(report, indent=2), file=stream or sys.stdout)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    Path(tmp).write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _run_one_check(
    notion: str,
    device_paths: list[str],
    cfg: SolverConfig,
    witness_out: str | None,
    command: list[str],
) -> tuple[dict, int]:
    if witness_out:
        _check_writable(witness_out)
    devices = _load_devices(notion, device_paths, _CHECKS)
    started = time.perf_counter()
    with _deciding():
        report = _CHECKS[notion][0](*devices, cfg)
    wall = time.perf_counter() - started

    doc = _report(
        command, "check",
        notion=notion,
        devices=list(device_paths),
        **_verdict_json(report.verdict),
        notes=list(report.notes),
        witness=None,
        witness_path=None,
        wall_time_s=round(wall, 6),
    )
    if report.joint_device is not None:
        doc["witness"] = device_to_json(report.joint_device)
        if witness_out:
            save_device(report.joint_device, witness_out)
            doc["witness_path"] = witness_out
    return doc, EXIT_BY_STATUS[doc["status"]]


def _cmd_check(args: argparse.Namespace, command: list[str]) -> tuple[dict, int]:
    cfg = _solver_config(args)
    if args.batch:
        if args.notion is not None or args.devices or args.witness_out:
            raise CliInputError(
                "--batch runs the manifest alone: give no notion, device files or --witness-out"
            )
        return _cmd_check_batch(args, cfg, command)
    if args.notion is None or len(args.devices) == 0:
        raise CliInputError("check needs a notion and device files (or --batch)")
    return _run_one_check(args.notion, args.devices, cfg, args.witness_out, command)


def _cmd_check_batch(
    args: argparse.Namespace, cfg: SolverConfig, command: list[str]
) -> tuple[dict, int]:
    try:
        manifest = json.loads(Path(args.batch).read_text(encoding="utf-8"))
        entries = manifest["checks"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliInputError(f"cannot read batch manifest {args.batch}: {exc}") from exc
    if not isinstance(entries, list):
        raise CliInputError(f"batch manifest {args.batch}: 'checks' must be a list")

    results = [
        _guarded(command, lambda: _run_batch_entry(entry, cfg, command))[0] for entry in entries
    ]
    worst = max(results, key=lambda r: EXIT_BY_STATUS[r["status"]], default={"status": "ok"})
    code = EXIT_BY_STATUS[worst["status"]]
    status = worst["status"] if code else "ok"
    return _report(command, "batch", status=status, results=results), code


def _run_batch_entry(entry, cfg: SolverConfig, command: list[str]) -> tuple[dict, int]:
    """A malformed entry or an unwritable ``report_out`` raises before the
    decision; the decision's own report, error or not, goes to ``report_out``."""
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("notion"), str)
        and isinstance(entry.get("devices"), list)
        and all(isinstance(entry.get(k, ""), str) for k in ("witness_out", "report_out"))
    ):
        raise CliInputError(
            "a batch entry must be an object with a string 'notion', a list "
            "'devices', and strings for 'witness_out' and 'report_out' if given"
        )
    report_out = entry.get("report_out")
    if report_out:
        _check_writable(report_out)
    devices = [str(p) for p in entry["devices"]]
    doc, code = _guarded(
        command,
        lambda: _run_one_check(entry["notion"], devices, cfg, entry.get("witness_out"), command),
    )
    if report_out:
        _atomic_write(report_out, json.dumps(doc, indent=2))
    return doc, code


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


def _cmd_robustness(args: argparse.Namespace, command: list[str]) -> tuple[dict, int]:
    devices = _load_devices(args.notion, args.devices, _FAMILIES)
    cfg = _solver_config(args)
    started = time.perf_counter()
    with _deciding():
        value = robustness_bisect(compat.family(args.notion, *devices), cfg)
    doc = _report(
        command, "robustness",
        notion=args.notion,
        devices=list(args.devices),
        status="ok",
        robustness=round(value, 6),
        noise_model="mix each device toward its trivial counterpart: (1-t) D + t D_trivial",
        precision=ROBUSTNESS_PRECISION,
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    return doc, 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace, command: list[str]) -> tuple[dict, int]:
    entries = []
    ok = True
    for path in args.files:
        try:
            device = load_device(path)
            entries.append(
                {"path": path, "ok": True, "kind": type(device).__name__.lower()}
            )
        except InvariantViolation as exc:
            ok = False
            entries.append(
                {
                    "path": path,
                    "ok": False,
                    "violated_invariant": exc.invariant,
                    "detail": str(exc),
                }
            )
    doc = _report(command, "validate", status="ok" if ok else "error", files=entries)
    return doc, EXIT_BY_STATUS[doc["status"]]


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------


def _expect_entry(name: str, notion: str, report, expected: Status) -> dict:
    return {
        "name": name,
        "notion": notion,
        "status": report.status.value,
        "expected": expected.value,
        "ok": report.status is expected,
        "iterations": report.verdict.iterations,
        "gap": _finite(report.verdict.gap_estimate),
        "notes": list(report.notes),
    }


def _ok_entry(name: str, ok: bool, **compared) -> dict:
    return {"name": name, "status": "ok" if ok else "mismatch", "expected": "ok", "ok": ok, **compared}


def _identity_entry(name: str, residual: float, tol: float) -> dict:
    return _ok_entry(name, bool(residual <= tol), residual=_finite(residual), tolerance=tol)


def _scenario_checks(sc: Scenario, cfg: SolverConfig, which: list[str]) -> list[dict]:
    return [
        _expect_entry(
            notion, notion, _CHECKS[notion][0](sc.first, sc.second, cfg), sc.expected[notion]
        )
        for notion in which
    ]


def _demo_prop2(cfg: SolverConfig, seed: int) -> list[dict]:
    sc = compat.gen_traditional_only_pair(np.full((2, 2), 0.25))
    return _scenario_checks(sc, cfg, ["weak", "traditional", "parallel", "redefined"])


def _demo_prop1(cfg: SolverConfig, seed: int) -> list[dict]:
    sc = compat.gen_parallel_only_pair(seed=seed)
    checks = _scenario_checks(sc, cfg, ["weak", "traditional", "parallel"])
    grid = compat._parallel_grid(sc.first, sc.second)
    residual = max(compat._grid_residuals(grid, sc.extras["giant"].branches))
    checks.append(_identity_entry("constructive-witness-marginals", residual, 1e-6))
    return checks


def _demo_example1(cfg: SolverConfig, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Exactly solvable instance: attach a maximally mixed ancilla, then run
    # equal-weight identity branches on both legs.
    ident = QuantumChannel.identity(2).choi
    attach_mixed = QuantumChannel(np.kron(ident, np.eye(2) / 2), 2, 4)
    half_id = Instrument([ident / 2] * 2, 2, 2)
    i1, i2, giant = compat.parallel_composition(attach_mixed, half_id, half_id)
    residual = max(compat._grid_residuals(compat._parallel_grid(i1, i2), giant.branches))
    checks.append(_identity_entry("mixed-ancilla-witness-marginals", residual, 1e-12))

    # Generic instance: random broadcast channel, random local instruments.
    broadcast = random_channel(2, 4, 3, rng)
    local1 = random_instrument(2, 2, 2, 1, rng)
    local2 = random_instrument(2, 2, 2, 1, rng)
    i1, i2, giant = compat.parallel_composition(broadcast, local1, local2)
    residual = max(compat._grid_residuals(compat._parallel_grid(i1, i2), giant.branches))
    checks.append(_identity_entry("constructive-witness-marginals", residual, 1e-9))
    checks.append(
        _expect_entry(
            "parallel", "parallel", compat.check_parallel(i1, i2, cfg), Status.FEASIBLE
        )
    )
    return checks


def _demo_example2(cfg: SolverConfig, seed: int) -> list[dict]:
    ident = QuantumChannel.identity(2)
    sc = compat.gen_shared_observable_pair([0.5, 0.5], ident, ident)
    checks = _scenario_checks(sc, cfg, ["weak", "traditional", "parallel"])
    redefined = compat.check_redefined(sc.first, sc.second, cfg)
    checks.append(
        _expect_entry("redefined", "redefined", redefined, sc.expected["redefined"])
    )
    via_traditional = "traditional leg: feasible" in redefined.notes
    checks.append(_ok_entry("redefined-via-traditional-leg", via_traditional, notes=list(redefined.notes)))
    return checks


def _demo_theorem1(cfg: SolverConfig, seed: int) -> list[dict]:
    # Two channels are compatible exactly when their one-outcome instruments
    # are parallelly compatible.  The qubit identity mixed toward noise t is
    # compatible with itself iff t >= d / (2(d+1)) = 1/3, Werner's optimal
    # cloning threshold (R. F. Werner, Phys. Rev. A 58, 1827 (1998)).
    identity = QuantumChannel.identity(2)
    checks = []
    for t, expected in ((1 / 3 - 2e-3, Status.INFEASIBLE), (1 / 3 + 2e-3, Status.FEASIBLE)):
        noisy = compat.mix_instrument(identity, t)
        report = compat.check_parallel(noisy, noisy, cfg)
        name = f"cloning-threshold-{expected.value}"
        checks.append(_expect_entry(name, "parallel", report, expected))

    # Outcome-marginal reductions of a constructive joint instrument measure
    # one side's observable while implementing the other side's channel.
    rng = np.random.default_rng(seed)
    broadcast = random_channel(2, 4, 3, rng)
    local1 = random_instrument(2, 2, 2, 1, rng)
    local2 = random_instrument(2, 2, 2, 2, rng)
    i1, i2, giant = compat.parallel_composition(broadcast, local1, local2)
    split = (local1.out_dim, local2.out_dim)
    for keep, own, other in (("first", i1, i2), ("second", i2, i1)):
        reduced = compat.marginal_instrument(giant, split, keep=keep)
        effects = zip(induced_observable(reduced).effects, induced_observable(own).effects)
        residual = max(
            max(np.linalg.norm(e1 - e2) for e1, e2 in effects),
            np.linalg.norm(total_channel(reduced).choi - total_channel(other).choi),
        )
        checks.append(_identity_entry(f"marginal-keeps-{keep}-outcome", float(residual), 1e-9))
    return checks


# Each demo with its default seed.
_DEMOS = {
    "prop1": (_demo_prop1, 7),
    "prop2": (_demo_prop2, 0),
    "example1": (_demo_example1, 0),
    "example2": (_demo_example2, 0),
    "theorem1": (_demo_theorem1, 3),
}
DEMO_NAMES = tuple(_DEMOS)


def _cmd_demo(args: argparse.Namespace, command: list[str]) -> tuple[dict, int]:
    if args.name not in _DEMOS:
        raise CliInputError(f"unknown demo {args.name!r}; expected one of {DEMO_NAMES}")
    cfg = _solver_config(args)
    demo, default_seed = _DEMOS[args.name]
    seed = args.seed if args.seed is not None else default_seed
    if seed < 0:
        raise CliInputError(f"--seed must be non-negative, got {seed}")
    started = time.perf_counter()
    with _deciding():
        checks = demo(cfg, seed)
    if any(c["status"] == "undecided" for c in checks):
        status = "undecided"
    elif all(c["ok"] for c in checks):
        status = "ok"
    else:
        status = "mismatch"
    doc = _report(
        command, "demo",
        name=args.name,
        seed=seed,
        status=status,
        checks=checks,
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    return doc, EXIT_BY_STATUS[status]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcompat",
        description="Decide joint implementability of quantum devices, with witnesses.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    def add_solver_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol-feas", type=float, default=None, help="feasibility tolerance")
        p.add_argument("--max-iter", type=int, default=None, help="solver iteration cap")
        p.add_argument("--trace-log", default=None, help="append per-iteration residuals to this file")

    p_check = sub.add_parser("check", help="decide one compatibility notion for two devices")
    p_check.add_argument("notion", nargs="?", help=f"one of {sorted(_CHECKS)}")
    p_check.add_argument("devices", nargs="*", help="device JSON files")
    p_check.add_argument("--witness-out", default=None, help="write the joint device here")
    p_check.add_argument("--batch", default=None, help="run a manifest of checks instead")
    add_solver_flags(p_check)

    p_demo = sub.add_parser("demo", help="reproduce a named scenario end to end")
    p_demo.add_argument("name", help=f"one of {DEMO_NAMES}")
    p_demo.add_argument("--seed", type=int, default=None, help="seed for randomized scenarios")
    add_solver_flags(p_demo)

    p_rob = sub.add_parser("robustness", help="bisect the noise level at which a pair turns compatible")
    p_rob.add_argument("notion", help=f"one of {_FAMILIES}")
    p_rob.add_argument("devices", nargs="*", help="device JSON files")
    add_solver_flags(p_rob)

    p_val = sub.add_parser("validate", help="lint device files against their invariants")
    p_val.add_argument("files", nargs="+", help="device JSON files")

    return parser


# Built once per process: a build costs about as much as deciding a small check.
_PARSER = build_parser()


def _guarded(command: list[str], run) -> tuple[dict, int]:
    """``run()``'s report and exit code, or an error report: exit 3 for an
    input error, 4 for a solver error."""
    try:
        return run()
    except _INPUT_ERRORS as exc:
        doc = _report(command, "error", status="error", error=str(exc))
        if getattr(exc, "invariant", None):
            doc["violated_invariant"] = exc.invariant
    except compat.SolverError as exc:
        doc = _report(command, "error", status="solver-error", error=str(exc))
    return doc, EXIT_BY_STATUS[doc["status"]]


def main(argv: list[str] | None = None) -> int:
    command = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(command)
    except SystemExit as exc:
        return 0 if not exc.code else EXIT_BY_STATUS["error"]

    handlers = {
        "check": _cmd_check,
        "demo": _cmd_demo,
        "robustness": _cmd_robustness,
        "validate": _cmd_validate,
    }
    report, code = _guarded(command, lambda: handlers[args.action](args, command))
    _emit(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
