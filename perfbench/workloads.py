"""The benchmark's workloads: seeded inputs, decisions and their oracles.

A *decision* is one call into a public ``qcompat`` entry point: a CLI
command run in process through ``qcompat.cli.main`` (``qubit-cli``), a
``compatibility.check_*`` call (``qutrit-parallel``) or a
``feasibility.robustness_bisect`` call (``robustness``).  Every decision runs
at the default ``SolverConfig()`` and is checked against an oracle that does
not use the solver: a physics fact about the pair (no cloning, the Busch
criterion, closed-form robustness) or a constructive witness.

Entry points are looked up on their module at call time, so the tracer's
patches in ``tracing.py`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcompat import cli, compatibility, deviceio, feasibility
from qcompat.devices import Instrument, Observable, QuantumChannel, compose_instrument_channel
from qcompat.feasibility import SolverConfig, Status
from qcompat.linalg import partial_trace
from qcompat.sampling import haar_unitary, random_channel, random_instrument

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Warm-up solves stop after this many sweeps: enough to build, factor and
# project every problem once (filling lazy caches), not enough to decide.
WARMUP_CFG = SolverConfig(max_iter=25, stall_window=25)

# robustness_bisect's default precision; the oracle bracket is this wide.
ROBUSTNESS_PRECISION = 1e-3

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2)


@dataclass
class Decision:
    """One timed call; ``run`` returns None when the oracle agrees, else why not."""

    name: str
    run: Callable[[], str | None]


@dataclass
class Workload:
    decisions: list[Decision]
    # The reference kernel in worker.py that shares this workload's bottleneck.
    kernel: str
    # Untimed calls that run each decision's code path once; their results
    # are not checked, and an error is recorded, not fatal.
    warmup: list[Callable[[], object]]


# ---------------------------------------------------------------------------
# qubit-cli
# ---------------------------------------------------------------------------

# (notion, device A, device B, verdict known without the solver)
FIXTURE_CHECKS = [
    ("obs-obs", "sharp_x", "sharp_z", "infeasible"),  # sharp X and Z do not commute
    ("obs-chan", "sharp_x", "identity_channel", "infeasible"),  # measuring X disturbs
    ("obs-chan", "sharp_x", "depolarizing_channel", "feasible"),  # measure, then prepare I/2
    ("chan-chan", "identity_channel", "identity_channel", "infeasible"),  # no cloning
    ("chan-chan", "depolarizing_channel", "identity_channel", "feasible"),  # discard a copy
    ("parallel", "prop1_i1", "prop1_i2", "feasible"),  # constructive giant witness
    ("traditional", "prop1_i1", "prop1_i2", "infeasible"),  # total channels differ
    ("parallel", "prop2_p", "prop2_q", "infeasible"),  # would broadcast the identity
    ("traditional", "prop2_p", "prop2_q", "feasible"),  # r_ij x identity
    ("redefined", "example2_i1", "example2_i2", "feasible"),  # traditional leg
]

# The --batch manifest: one entry per fixture pair.
BATCH_CHECKS = [FIXTURE_CHECKS[i] for i in (0, 1, 2, 3, 4, 5, 8, 9)]

# Noisy-Pauli pairs per verdict, the same for every seed.  Incompatible
# pairs stop at the 500-sweep stall floor; there are enough of them that the
# median decision of a pass falls inside that group of like-cost decisions.
NOISY_PAULI_PAIRS = {"feasible": 2, "infeasible": 10}


def _cli(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _expect_cli(argv: list[str], status: str) -> str | None:
    code, doc = _cli(argv)
    want_code = cli.EXIT_BY_STATUS[status]
    if doc["status"] != status or code != want_code:
        return f"status {doc['status']} exit {code}, expected {status} exit {want_code}"
    return None


def _expect_batch(argv: list[str], statuses: list[str]) -> str | None:
    code, doc = _cli(argv)
    got = [r["status"] for r in doc["results"]]
    if got != statuses:
        return f"batch statuses {got}, expected {statuses}"
    worst = max(cli.EXIT_BY_STATUS[s] for s in statuses)
    if code != worst:
        return f"batch exit {code}, expected {worst}"
    return None


def _noisy_pauli(lam: float, pauli: np.ndarray) -> Observable:
    return Observable([(_I2 + lam * pauli) / 2, (_I2 - lam * pauli) / 2], ["+", "-"])


def _busch_pairs(rng: np.random.Generator) -> list[tuple[float, float, str]]:
    """Unsharp X and Z with sharpness (la, lb), at least 0.1 from la^2+lb^2 = 1.

    By the Busch criterion the pair is jointly measurable iff
    la^2 + lb^2 <= 1.
    """
    pairs = []
    for status, (lo, hi) in (("feasible", (0.3, 0.9)), ("infeasible", (1.1, 1.8))):
        for _ in range(NOISY_PAULI_PAIRS[status]):
            s = rng.uniform(lo, hi)
            cap = min(1.0, 1.0 / math.sqrt(s))  # keeps both sharpnesses <= 1
            phi = rng.uniform(math.acos(cap), math.asin(cap))
            pairs.append((math.sqrt(s) * math.cos(phi), math.sqrt(s) * math.sin(phi), status))
    return pairs


def _qubit_cli(seed: int, workdir: Path) -> Workload:
    def fixture(name: str) -> str:
        return str(FIXTURES / f"{name}.json")

    checks = [(n, fixture(a), fixture(b), s) for n, a, b, s in FIXTURE_CHECKS]
    for k, (la, lb, status) in enumerate(_busch_pairs(np.random.default_rng(seed))):
        a, b = workdir / f"pauli{k}_x.json", workdir / f"pauli{k}_z.json"
        deviceio.save_device(_noisy_pauli(la, _X), a)
        deviceio.save_device(_noisy_pauli(lb, _Z), b)
        checks.append(("obs-obs", str(a), str(b), status))

    manifest = workdir / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "checks": [
                    {"notion": n, "devices": [fixture(a), fixture(b)]}
                    for n, a, b, _ in BATCH_CHECKS
                ]
            }
        ),
        encoding="utf-8",
    )

    decisions = [
        Decision(
            f"check {n} {Path(a).stem} {Path(b).stem}",
            lambda argv=["check", n, a, b], s=s: _expect_cli(argv, s),
        )
        for n, a, b, s in checks
    ]
    batch_statuses = [s for *_, s in BATCH_CHECKS]
    decisions.append(
        Decision(
            "check --batch",
            lambda: _expect_batch(["check", "--batch", str(manifest)], batch_statuses),
        )
    )
    decisions += [
        Decision(f"demo {name}", lambda argv=["demo", name]: _expect_cli(argv, "ok"))
        for name in cli.DEMO_NAMES
    ]

    def warm_check(notion: str, a: str, b: str) -> Callable[[], object]:
        fn = getattr(compatibility, "check_" + notion.replace("-", "_"))
        return lambda: fn(deviceio.load_device(a), deviceio.load_device(b), WARMUP_CFG)

    paths = sorted({p for _, a, b, _ in checks for p in (a, b)})
    warmup = [lambda: _cli(["validate", *paths])]
    warmup += [warm_check(n, a, b) for n, a, b, _ in checks]
    warmup.append(lambda: _cli(["demo", "prop1"]))
    return Workload(decisions, "blocks", warmup)


# ---------------------------------------------------------------------------
# qutrit-parallel
# ---------------------------------------------------------------------------

CONSTRUCTIVE_NOISE = 0.2
# The constructive pair is drawn once from this fixed stream.  Fresh draws
# need anywhere from 215 to 561 sweeps, which would make the seed, not the
# code, set the time; the seed instead picks the input basis (below).
CONSTRUCTIVE_DRAW = 0


def _constructive_pair(rng: np.random.Generator) -> tuple[Instrument, Instrument]:
    """Effective instruments of a broadcast followed by local instruments.

    ``parallel_composition`` returns a giant instrument whose marginals are
    the pair, so the pair is parallel compatible by construction.  Mixing
    both with the same noise keeps it so: the mixed giant and a product of
    the noise parts' trivial observables form a joint instrument.
    """
    broadcast = random_channel(3, 9, 2, rng)
    local1 = random_instrument(3, 3, 3, 1, rng)
    local2 = random_instrument(3, 3, 3, 1, rng)
    i1, i2, giant = compatibility.parallel_composition(broadcast, local1, local2)
    # Check the giant's marginals without the solver.
    shape = (3, 3, 3)
    branches = np.array(giant.branches).reshape(3, 3, 27, 27)
    for x, label in enumerate(i1.outcomes):
        row = partial_trace(branches[x].sum(axis=0), shape, {2})
        if np.linalg.norm(row - i1.branch(label)) > 1e-9:
            raise RuntimeError("constructive witness misses the first marginal")
    for y, label in enumerate(i2.outcomes):
        col = partial_trace(branches[:, y].sum(axis=0), shape, {1})
        if np.linalg.norm(col - i2.branch(label)) > 1e-9:
            raise RuntimeError("constructive witness misses the second marginal")
    return (
        compatibility.mix_instrument(i1, CONSTRUCTIVE_NOISE),
        compatibility.mix_instrument(i2, CONSTRUCTIVE_NOISE),
    )


def _qutrit_parallel(seed: int, workdir: Path) -> Workload:
    ident = QuantumChannel.identity(3)
    shared = compatibility.gen_shared_observable_pair([1 / 3] * 3, ident, ident)
    constructive = _constructive_pair(np.random.default_rng(CONSTRUCTIVE_DRAW))
    # A seeded Haar-random unitary applied first to both instruments of a
    # pair.  It keeps every verdict (a witness rotates with the pair), and
    # the solver, built on Frobenius-orthogonal projections, takes the same
    # number of sweeps in every basis.
    rng = np.random.default_rng(seed)

    def rotated(pair):
        u = QuantumChannel.unitary(haar_unitary(3, rng))
        return [compose_instrument_channel(i, u) for i in pair]

    identity_pair = rotated((shared.first, shared.second))
    cases = [
        # Parallel compatibility would broadcast the qutrit identity: no cloning.
        ("parallel identity-branch", "parallel", *identity_pair, Status.INFEASIBLE),
        # Branches p_x p_y x (the same channel) form a joint instrument.
        ("traditional identity-branch", "traditional", *identity_pair, Status.FEASIBLE),
        ("parallel constructive", "parallel", *rotated(constructive), Status.FEASIBLE),
    ]

    def decision(name, notion, i1, i2, status) -> Decision:
        def run() -> str | None:
            got = getattr(compatibility, "check_" + notion)(i1, i2).status
            return None if got is status else f"{got.value}, expected {status.value}"

        return Decision(name, run)

    warmup = [
        lambda fn=getattr(compatibility, "check_" + notion), i1=i1, i2=i2: fn(i1, i2, WARMUP_CFG)
        for _, notion, i1, i2, _ in cases
    ]
    return Workload([decision(*c) for c in cases], "affine", warmup)


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------

# Sharp X/Z plus two more fixed angles, then one seeded angle in
# [pi/6, pi/2].  Bisection cost jumps with the angle (2388 to 3381 sweeps), so
# the fixed angles keep the seed from setting the median decision time.
FIXED_ANGLES = (math.pi / 2, math.pi / 3, math.pi / 4)


def _sharp_at(theta: float) -> Observable:
    """Sharp qubit observable along a Bloch direction theta away from Z."""
    n = math.cos(theta) * _Z + math.sin(theta) * _X
    return Observable([(_I2 + n) / 2, (_I2 - n) / 2], ["+", "-"])


def _robustness(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    thetas = [*FIXED_ANGLES, rng.uniform(math.pi / 6, math.pi / 2)]
    cases = [
        # Two sharp observables at angle theta: 1 - 1/(cos(theta/2) + sin(theta/2)).
        (
            f"obs-obs theta={theta:.4f}",
            compatibility.obs_obs_family(_sharp_at(0.0), _sharp_at(theta)),
            1 - 1 / (math.cos(theta / 2) + math.sin(theta / 2)),
        )
        for theta in thetas
    ]
    ident = QuantumChannel.identity(2)
    # Optimal symmetric 1->2 cloning shrinks the Bloch vector by 2/3.
    cases.append(("chan-chan identity", compatibility.chan_chan_family(ident, ident), 1 / 3))

    def decision(name, family, exact) -> Decision:
        def run() -> str | None:
            value = feasibility.robustness_bisect(family)
            if exact <= value <= exact + ROBUSTNESS_PRECISION:
                return None
            return f"robustness {value:.6f} outside [{exact:.6f}, {exact + ROBUSTNESS_PRECISION:.6f}]"

        return Decision(name, run)

    warmup = [
        lambda family=family: feasibility.robustness_bisect(family, WARMUP_CFG)
        for _, family, _ in cases
    ]
    return Workload([decision(*c) for c in cases], "blocks", warmup)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "qubit-cli": _qubit_cli,
    "qutrit-parallel": _qutrit_parallel,
    "robustness": _robustness,
}
