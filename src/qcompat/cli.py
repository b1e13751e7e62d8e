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
solver's answer failed its own checks (status ``solver-error``: a feasible
witness that is not a valid device or misses the marginals, or an
infeasibility certificate that does not hold).

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
of its own.  The batch exits with the
worst code of its entries.

The solver flags are ``--tol-feas``, ``--max-iter`` and ``--trace-log``.
``--trace-log`` appends one line per solver sweep: sweep number, the gap
between the cone-side iterate and its affine projection, and the magnitude
of the most negative eigenvalue of that affine projection (0 when none).
"""

from __future__ import annotations

import argparse
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
_FAMILIES = sorted(name for name, notion in compat.NOTIONS.items() if notion.mix)

class CliInputError(Exception):
    def __init__(self, message: str, invariant: str | None = None):
        super().__init__(message)
        self.invariant = invariant


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


def _load_typed(path: str, expected_kind: type, notion: str):
    device = load_device(path)
    if not isinstance(device, expected_kind):
        raise CliInputError(
            f"{path}: {notion!r} needs a {expected_kind.__name__.lower()}, "
            f"got {type(device).__name__.lower()}"
        )
    return device


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    kwargs = {}
    if getattr(args, "tol_feas", None) is not None:
        kwargs["tol_feas"] = args.tol_feas
    if getattr(args, "max_iter", None) is not None:
        kwargs["max_iter"] = args.max_iter
    if getattr(args, "trace_log", None):
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
) -> dict:
    if notion not in _CHECKS:
        raise CliInputError(
            f"unknown notion {notion!r}; expected one of {sorted(_CHECKS)}"
        )
    fn, kinds = _CHECKS[notion]
    if len(device_paths) != len(kinds):
        raise CliInputError(
            f"{notion!r} takes {len(kinds)} device files, got {len(device_paths)}"
        )
    devices = [
        _load_typed(path, kind, notion) for path, kind in zip(device_paths, kinds)
    ]
    started = time.perf_counter()
    report = fn(*devices, cfg)
    wall = time.perf_counter() - started

    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "action": "check",
        "notion": notion,
        "devices": list(device_paths),
        **_verdict_json(report.verdict),
        "notes": list(report.notes),
        "witness": None,
        "witness_path": None,
        "wall_time_s": round(wall, 6),
    }
    if report.joint_device is not None:
        doc["witness"] = device_to_json(report.joint_device)
        if witness_out:
            save_device(report.joint_device, witness_out)
            doc["witness_path"] = witness_out
    return doc


def _cmd_check(args: argparse.Namespace, command: list[str]) -> tuple[dict, int]:
    cfg = _solver_config(args)
    if args.batch:
        return _cmd_check_batch(args, cfg, command)
    if args.notion is None or len(args.devices) == 0:
        raise CliInputError("check needs a notion and device files (or --batch)")
    doc = _run_one_check(args.notion, args.devices, cfg, args.witness_out, command)
    return doc, EXIT_BY_STATUS[doc["status"]]


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

    results = []
    for entry in entries:
        well_formed = (
            isinstance(entry, dict)
            and isinstance(entry.get("notion"), str)
            and isinstance(entry.get("devices"), list)
            and all(isinstance(entry.get(k, ""), str) for k in ("witness_out", "report_out"))
        )
        try:
            if not well_formed:
                raise CliInputError(
                    "a batch entry must be an object with a string 'notion', a list "
                    "'devices', and strings for 'witness_out' and 'report_out' if given"
                )
            doc = _run_one_check(
                entry["notion"],
                [str(p) for p in entry["devices"]],
                cfg,
                entry.get("witness_out"),
                command,
            )
        except (CliInputError, InvariantViolation, DimMismatch) as exc:
            doc = _error_report(command, exc)
        except compat.SolverError as exc:
            doc = _error_report(command, exc, "solver-error")
        if well_formed and entry.get("report_out"):
            _atomic_write(entry["report_out"], json.dumps(doc, indent=2))
        results.append(doc)

    worst = max((EXIT_BY_STATUS[r["status"]] for r in results), default=0)
    status = {0: "ok", 1: "infeasible", 2: "undecided", 3: "error", 4: "solver-error"}[worst]
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "action": "batch",
        "status": status,
        "results": results,
    }
    return doc, worst


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


def _cmd_robustness(args: argparse.Namespace, command: list[str]) -> tuple[dict, int]:
    if args.notion not in _FAMILIES:
        raise CliInputError(f"robustness supports {_FAMILIES}, got {args.notion!r}")
    if len(args.devices) != 2:
        raise CliInputError("robustness takes exactly two device files")
    devices = [
        _load_typed(path, kind, args.notion)
        for path, kind in zip(args.devices, compat.NOTIONS[args.notion].kinds)
    ]
    cfg = _solver_config(args)
    started = time.perf_counter()
    try:
        value = robustness_bisect(compat.family(args.notion, *devices), cfg)
    except NotFeasibleAtOne as exc:
        raise CliInputError(str(exc)) from exc
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "action": "robustness",
        "notion": args.notion,
        "devices": list(args.devices),
        "status": "ok",
        "robustness": round(value, 6),
        "noise_model": "mix each device toward its trivial counterpart: (1-t) D + t D_trivial",
        "precision": ROBUSTNESS_PRECISION,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
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
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "action": "validate",
        "status": "ok" if ok else "error",
        "files": entries,
    }
    return doc, 0 if ok else EXIT_BY_STATUS["error"]


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


def _identity_entry(name: str, residual: float, tol: float) -> dict:
    return {
        "name": name,
        "status": "ok" if residual <= tol else "mismatch",
        "expected": "ok",
        "ok": bool(residual <= tol),
        "residual": _finite(residual),
        "tolerance": tol,
    }


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
    sc = compat.gen_parallel_only_pair(seed=seed, cfg=cfg)
    checks = _scenario_checks(sc, cfg, ["weak", "traditional", "parallel"])
    giant = sc.extras["giant"]
    residual = max(
        compat._parallel_marginal_residuals(giant, sc.first, sc.second)
    )
    checks.append(_identity_entry("constructive-witness-marginals", residual, 1e-6))
    return checks


def _demo_example1(cfg: SolverConfig, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Exactly solvable instance: attach a maximally mixed ancilla, then run
    # equal-weight identity branches on both legs.
    eye2 = np.eye(2)
    attach_mixed = QuantumChannel.from_map(lambda rho: np.kron(rho, eye2 / 2), 2, 4)
    half_id = Instrument([QuantumChannel.identity(2).choi / 2] * 2, 2, 2)
    i1, i2, giant = compat.parallel_composition(attach_mixed, half_id, half_id)
    residual = max(compat._parallel_marginal_residuals(giant, i1, i2))
    checks.append(_identity_entry("mixed-ancilla-witness-marginals", residual, 1e-12))

    # Generic instance: random broadcast channel, random local instruments.
    broadcast = random_channel(2, 4, 3, rng)
    local1 = random_instrument(2, 2, 2, 1, rng)
    local2 = random_instrument(2, 2, 2, 1, rng)
    i1, i2, giant = compat.parallel_composition(broadcast, local1, local2)
    residual = max(compat._parallel_marginal_residuals(giant, i1, i2))
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
    checks.append(
        {
            "name": "redefined-via-traditional-leg",
            "status": "ok" if via_traditional else "mismatch",
            "expected": "ok",
            "ok": via_traditional,
            "notes": list(redefined.notes),
        }
    )
    return checks


def _demo_theorem1(cfg: SolverConfig, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    # Verdict agreement: broadcasting two channels is the same question as
    # implementing their single-outcome instruments side by side.
    pairs = [(QuantumChannel.identity(2), QuantumChannel.identity(2))]
    for _ in range(3):
        noise1, noise2 = rng.uniform(0, 0.8, size=2)
        pairs.append(
            (
                compat.mix_channel(random_channel(2, 2, int(rng.integers(1, 5)), rng), noise1),
                compat.mix_channel(random_channel(2, 2, int(rng.integers(1, 5)), rng), noise2),
            )
        )
    for k, (c1, c2) in enumerate(pairs):
        as_channels = compat.check_chan_chan(c1, c2, cfg)
        as_instruments = compat.check_parallel(
            Instrument([c1.choi], c1.in_dim, c1.out_dim),
            Instrument([c2.choi], c2.in_dim, c2.out_dim),
            cfg,
        )
        decided = Status.UNDECIDED not in (as_channels.status, as_instruments.status)
        agree = decided and as_channels.status is as_instruments.status
        checks.append(
            {
                "name": f"verdict-agreement-{k}",
                "status": (
                    "ok" if agree else
                    ("undecided" if not decided else "mismatch")
                ),
                "expected": "ok",
                "ok": agree,
                "chan_chan": as_channels.status.value,
                "parallel": as_instruments.status.value,
            }
        )

    # Outcome-marginal reductions of a constructive joint instrument measure
    # one side's observable while implementing the other side's channel.
    broadcast = random_channel(2, 4, 3, rng)
    local1 = random_instrument(2, 2, 2, 1, rng)
    local2 = random_instrument(2, 2, 2, 2, rng)
    i1, i2, giant = compat.parallel_composition(broadcast, local1, local2)
    split = (local1.out_dim, local2.out_dim)
    first = compat.marginal_instrument(giant, split, keep="first")
    second = compat.marginal_instrument(giant, split, keep="second")
    residual_first = max(
        max(
            np.linalg.norm(e1 - e2)
            for e1, e2 in zip(
                induced_observable(first).effects, induced_observable(i1).effects
            )
        ),
        np.linalg.norm(total_channel(first).choi - total_channel(i2).choi),
    )
    residual_second = max(
        max(
            np.linalg.norm(e1 - e2)
            for e1, e2 in zip(
                induced_observable(second).effects, induced_observable(i2).effects
            )
        ),
        np.linalg.norm(total_channel(second).choi - total_channel(i1).choi),
    )
    checks.append(_identity_entry("marginal-keeps-first-outcome", float(residual_first), 1e-9))
    checks.append(_identity_entry("marginal-keeps-second-outcome", float(residual_second), 1e-9))
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
    started = time.perf_counter()
    checks = demo(cfg, seed)
    if any(c["status"] == "undecided" for c in checks):
        status = "undecided"
    elif all(c["ok"] for c in checks):
        status = "ok"
    else:
        status = "mismatch"
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "action": "demo",
        "name": args.name,
        "seed": seed,
        "status": status,
        "checks": checks,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
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


def _error_report(command: list[str], exc: Exception, status: str = "error") -> dict:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "action": "error",
        "status": status,
        "error": str(exc),
    }
    invariant = getattr(exc, "invariant", None)
    if invariant:
        doc["violated_invariant"] = invariant
    return doc


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
    try:
        report, code = handlers[args.action](args, command)
    except (CliInputError, InvariantViolation, DimMismatch, compat.BadDistribution, ValueError) as exc:
        _emit(_error_report(command, exc))
        return EXIT_BY_STATUS["error"]
    except compat.SolverError as exc:
        _emit(_error_report(command, exc, "solver-error"))
        return EXIT_BY_STATUS["solver-error"]
    _emit(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
