"""Compatibility deciders for pairs of quantum devices.

The paper calls two instruments compatible when they are traditionally OR
parallelly compatible, and recovers the older notions as special cases: in
the instrument view of :mod:`~qcompat.devices`, an observable has branches
A(x)^T onto a one-dimensional output and a channel is the one-outcome
instrument.  So obs-obs, obs-chan (channel first) and chan-chan are the
``parallel`` grid of the two views.  Each solver-backed notion is one grid, a
:class:`~qcompat.feasibility.ConstraintBuilder`: PSD blocks X_xy of factor
shape ``shape`` with  sum_y R1(X_xy) = first[x]  and  sum_x R2(X_xy) =
second[y],  where R1 (R2) is the identity or the partial trace over factor
``trace_first`` (``trace_second``):

===========  =======  ===========  ==========================  ============================
notion       n1 x n2  ``shape``    ``first``, ``trace_first``  ``second``, ``trace_second``
===========  =======  ===========  ==========================  ============================
traditional  n1 x n2  (d, k)       branches of I1, None        branches of I2, None
parallel     n1 x n2  (d, k1, k2)  I1 branches, 2 (k2)         I2 branches, 1 (k1)
===========  =======  ===========  ==========================  ============================

A traced factor of dimension 1 (an observable's output) is written as None.

``weak`` compares total channels exactly, ``check_traditional`` runs it first
(unequal totals rule out a common-output joint), and ``redefined`` is the
disjunction traditional OR parallel.  :data:`NOTIONS` holds each notion's
device kinds, grid and joint-device constructor.  A feasible
witness is rebuilt into the joint device and re-validated with
:func:`linalg.partial_trace`, independently of the solver's constraint
operator; a witness failing either step raises :class:`SolverError`.  An
INFEASIBLE verdict's Farkas certificate is re-checked the same way, its
blocks W_xy rebuilt with :func:`linalg.tensor` and
:func:`linalg.reorder_factors`; one that does not hold raises
:class:`SolverError` too.
``parallel_composition`` and ``marginal_instrument`` build witnesses in
closed form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .devices import (
    DimMismatch,
    Instrument,
    InvariantViolation,
    Observable,
    QuantumChannel,
    choi_compose,
    choi_tensor,
    composite_label,
    compose_instrument_channel,
    luders_instrument,
    split_composite,
    total_channel,
)
from .feasibility import (
    TOL_PSD,
    AffineConstraintSet,
    Certificate,
    ConstraintBuilder,
    FeasibilityVerdict,
    SolverConfig,
    Status,
    dykstra_solve,
)


class BadDistribution(ValueError):
    """Weights fed to a scenario generator are not a probability table."""


class SolverError(RuntimeError):
    """The solver's answer cannot be trusted: a FEASIBLE witness that is not
    a valid device or misses the marginals, or an INFEASIBLE certificate
    that does not hold."""


NOTION_OBS_OBS = "obs-obs"
NOTION_OBS_CHAN = "obs-chan"
NOTION_CHAN_CHAN = "chan-chan"
NOTION_WEAK = "weak"
NOTION_TRADITIONAL = "traditional"
NOTION_PARALLEL = "parallel"
NOTION_REDEFINED = "redefined"


@dataclass
class CompatReport:
    notion: str
    verdict: FeasibilityVerdict
    joint_device: Observable | QuantumChannel | Instrument | None = None
    notes: list[str] = dataclass_field(default_factory=list)

    @property
    def status(self) -> Status:
        return self.verdict.status


def _cfg(cfg: SolverConfig | None) -> SolverConfig:
    return cfg or SolverConfig()


def _witness_tols(cfg: SolverConfig, blocks: int = 1) -> dict[str, float]:
    # Solver witnesses carry residuals at the solver's scale, an order or two
    # above the construction-time defaults of exact devices.  A device or
    # grid equation sums up to ``blocks`` witness blocks, each off by up to
    # the solver's tolerance, so the allowance grows with √blocks.
    return {"tol_psd": 10 * TOL_PSD, "tol_feas": 10 * cfg.tol_feas * math.sqrt(blocks)}


# ---------------------------------------------------------------------------
# The grid problem
# ---------------------------------------------------------------------------


def _grid_residuals(grid: ConstraintBuilder, blocks: Sequence[np.ndarray]) -> list[float]:
    """Frobenius misfit of every grid equation on ``blocks``, recomputed with
    :func:`linalg.partial_trace` rather than the solver's operator."""
    n2 = len(grid.second)
    rows = [blocks[x * n2 : (x + 1) * n2] for x in range(len(grid.first))]

    def misfit(cells, factor: int | None, target: np.ndarray) -> float:
        if factor is not None:
            cells = [linalg.partial_trace(m, grid.shape, {factor}) for m in cells]
        return float(np.linalg.norm(sum(cells) - target))

    return [misfit(row, grid.trace_first, t) for row, t in zip(rows, grid.first)] + [
        misfit(col, grid.trace_second, t) for col, t in zip(zip(*rows), grid.second)
    ]


def _lift(m: np.ndarray, shape: tuple[int, ...], factor: int | None) -> np.ndarray:
    """Adjoint of the partial trace over ``factor``: ``m`` tensored with the
    identity on that factor, moved back into place."""
    if factor is None:
        return m
    n = len(shape)
    rest = [d for k, d in enumerate(shape) if k != factor] + [shape[factor]]
    perm = [k if k < factor else n - 1 if k == factor else k - 1 for k in range(n)]
    return linalg.reorder_factors(linalg.tensor(m, np.eye(shape[factor])), rest, perm)


def _check_certificate(notion: str, grid: ConstraintBuilder, certificate: Certificate) -> float:
    """Re-check a Farkas certificate with :mod:`linalg` rather than the
    solver's operator; return its bound Re⟨λ, t⟩ + τ·max(0, -λ_min(W)),
    which must lie below the rounding margin, or raise :class:`SolverError`.

    Every PSD solution X has total trace τ = sum_x tr first[x], so
    ⟨λ, t⟩ = ⟨W, X⟩ >= min(0, λ_min(W))·τ and a negative bound rules it out.
    """
    lam, n1 = certificate.multipliers, len(grid.first)
    targets = [*grid.first, *grid.second]
    if len(lam) != len(targets):
        raise SolverError(f"{notion} certificate has {len(lam)} multipliers, not {len(targets)}")
    rows = [_lift(m, grid.shape, grid.trace_first) for m in lam[:n1]]
    cols = [_lift(m, grid.shape, grid.trace_second) for m in lam[n1:]]
    value = sum(float(np.vdot(m, t).real) for m, t in zip(lam, targets))
    min_eig = min(linalg.min_eigval(r + c) for r in rows for c in cols)
    total_trace = sum(float(np.trace(t).real) for t in grid.first)
    bound = value + total_trace * max(0.0, -min_eig)
    margin = 1e-9 * (1.0 + float(np.sqrt(sum(np.linalg.norm(t) ** 2 for t in targets))))
    if not bound < -margin:
        raise SolverError(
            f"{notion} certificate failed re-validation against the original "
            f"devices (bound {bound:.3e} >= {-margin:.3e})"
        )
    return bound


def _require_same_input(first, second) -> None:
    if first.in_dim != second.in_dim:
        raise DimMismatch(f"devices have input dims {first.in_dim} and {second.in_dim}")


def _decide(notion: str, first, second, cfg: SolverConfig | None) -> CompatReport:
    """Solve the notion's grid; rebuild and re-validate a feasible witness,
    re-check an infeasible verdict's certificate."""
    _require_same_input(first, second)
    cfg = _cfg(cfg)
    record = NOTIONS[notion]
    grid = record.grid(first, second)
    verdict = dykstra_solve(grid.build(), cfg)
    report = CompatReport(notion, verdict)
    if verdict.status is Status.FEASIBLE:
        tols = _witness_tols(cfg, len(grid.first) * len(grid.second))
        try:
            joint = record.joint(verdict.witness, first, second, **tols)
        except InvariantViolation as exc:
            raise SolverError(f"{notion} witness is not a valid device: {exc}") from exc
        worst = max(_grid_residuals(grid, verdict.witness))
        limit = tols["tol_feas"]
        if worst > limit:
            raise SolverError(
                f"{notion} witness failed re-validation against the original "
                f"devices (residual {worst:.3e} > {limit:.3e})"
            )
        report.notes.append(f"witness marginals residual {worst:.2e}")
        report.joint_device = joint
    elif verdict.certificate is not None:
        bound = _check_certificate(notion, grid, verdict.certificate)
        report.notes.append(f"certificate bound {bound:.2e}")
    return report


def _parallel_grid(p, q) -> ConstraintBuilder:
    """The parallel grid of two devices in their instrument view."""
    return ConstraintBuilder(
        (p.in_dim, p.out_dim, q.out_dim),
        p.branches,
        q.branches,
        2 if q.out_dim > 1 else None,
        1 if p.out_dim > 1 else None,
    )


def _constraints(notion: str, first, second) -> AffineConstraintSet:
    return NOTIONS[notion].grid(first, second).build()


# ---------------------------------------------------------------------------
# Observable / channel compatibility
# ---------------------------------------------------------------------------


def check_obs_obs(
    a: Observable, b: Observable, cfg: SolverConfig | None = None
) -> CompatReport:
    """Joint measurability of two observables on the same space."""
    return _decide(NOTION_OBS_OBS, a, b, cfg)


def check_obs_chan(
    a: Observable, c: QuantumChannel, cfg: SolverConfig | None = None
) -> CompatReport:
    """Is there one instrument measuring ``a`` whose total channel is ``c``?"""
    return _decide(NOTION_OBS_CHAN, a, c, cfg)


def check_chan_chan(
    c1: QuantumChannel, c2: QuantumChannel, cfg: SolverConfig | None = None
) -> CompatReport:
    """Broadcast compatibility of two channels with a common input space."""
    return _decide(NOTION_CHAN_CHAN, c1, c2, cfg)


# ---------------------------------------------------------------------------
# Instrument compatibility
# ---------------------------------------------------------------------------


def check_weak(
    i1: Instrument, i2: Instrument, cfg: SolverConfig | None = None
) -> CompatReport:
    """Weak compatibility: the two total channels coincide (exact check)."""
    _require_same_input(i1, i2)
    if i1.out_dim != i2.out_dim:
        raise DimMismatch(f"instruments have output dims {i1.out_dim} and {i2.out_dim}")
    cfg = _cfg(cfg)
    diff = float(np.linalg.norm(sum(i1.branches) - sum(i2.branches)))
    feasible = diff <= cfg.tol_feas
    status = Status.FEASIBLE if feasible else Status.INFEASIBLE
    verdict = FeasibilityVerdict(status, None, diff, gap_estimate=0.0 if feasible else diff)
    report = CompatReport(NOTION_WEAK, verdict)
    report.notes.append(f"total-channel difference {diff:.2e}")
    if feasible:
        report.joint_device = total_channel(i1, **_witness_tols(cfg))
    return report


def check_traditional(
    i1: Instrument, i2: Instrument, cfg: SolverConfig | None = None
) -> CompatReport:
    """Joint instrument on the common output space with outcome marginals.

    Requires a common output space; pairs with different output dimensions
    are reported incompatible with a note rather than raising, so the
    disjunctive check stays total.  A cheap total-channel equality precheck
    runs first: unequal totals rule the joint instrument out immediately.
    """
    _require_same_input(i1, i2)
    cfg = _cfg(cfg)
    if i1.out_dim != i2.out_dim:
        verdict = FeasibilityVerdict(Status.INFEASIBLE, None, np.inf, gap_estimate=np.inf)
        return CompatReport(NOTION_TRADITIONAL, verdict, notes=["output spaces differ"])

    weak = check_weak(i1, i2, cfg)
    if weak.status is not Status.FEASIBLE:
        report = CompatReport(NOTION_TRADITIONAL, weak.verdict)
        report.notes.append("weak precheck failed")
        return report
    return _decide(NOTION_TRADITIONAL, i1, i2, cfg)


def check_parallel(
    i1: Instrument, i2: Instrument, cfg: SolverConfig | None = None
) -> CompatReport:
    """Joint instrument onto the tensor product of the two output spaces.

    Branch (x, y) of the joint must reproduce branch x of ``i1`` after
    summing over y and tracing out the second output factor, and vice versa.
    Output dimensions may differ.
    """
    return _decide(NOTION_PARALLEL, i1, i2, cfg)


def check_redefined(
    i1: Instrument, i2: Instrument, cfg: SolverConfig | None = None
) -> CompatReport:
    """Compatible iff traditionally or parallelly compatible.

    Both legs always run; the notes record each leg's outcome.  When neither
    leg succeeds but one is undecided, the disjunction is undecided too.
    """
    cfg = _cfg(cfg)
    trad = check_traditional(i1, i2, cfg)
    par = check_parallel(i1, i2, cfg)
    notes = [f"traditional leg: {trad.status.value}", f"parallel leg: {par.status.value}"]
    notes.extend(f"traditional: {n}" for n in trad.notes)
    notes.extend(f"parallel: {n}" for n in par.notes)
    if trad.status is Status.FEASIBLE:
        return CompatReport(NOTION_REDEFINED, trad.verdict, trad.joint_device, notes)
    if par.status is Status.FEASIBLE:
        return CompatReport(NOTION_REDEFINED, par.verdict, par.joint_device, notes)
    if Status.UNDECIDED in (trad.status, par.status):
        undecided = trad if trad.status is Status.UNDECIDED else par
        return CompatReport(NOTION_REDEFINED, undecided.verdict, None, notes)
    return CompatReport(NOTION_REDEFINED, par.verdict, None, notes)


# ---------------------------------------------------------------------------
# Constructive witnesses
# ---------------------------------------------------------------------------


def parallel_composition(
    joint: QuantumChannel,
    local1: Instrument,
    local2: Instrument,
) -> tuple[Instrument, Instrument, Instrument]:
    """Run a broadcast channel, then one local instrument on each output leg.

    ``joint`` maps the input space onto a product of two intermediate spaces
    sized by the local instruments' inputs.  Returns the two effective
    instruments seen on each side together with the giant joint instrument
    over composite outcomes; the giant's marginals reproduce the effective
    instruments identically, making the triple a ready-made parallel witness.
    """
    h1, h2 = local1.in_dim, local2.in_dim
    if joint.out_dim != h1 * h2:
        raise DimMismatch(
            f"broadcast output dim {joint.out_dim} != {h1} x {h2} local inputs"
        )
    h = joint.in_dim
    k1, k2 = local1.out_dim, local2.out_dim
    shape = (h, h1, h2)
    lam1 = QuantumChannel(linalg.partial_trace(joint.choi, shape, {2}), h, h1)
    lam2 = QuantumChannel(linalg.partial_trace(joint.choi, shape, {1}), h, h2)
    i1 = compose_instrument_channel(local1, lam1)
    i2 = compose_instrument_channel(local2, lam2)

    branches = []
    labels = []
    for x in local1.outcomes:
        bx = local1.branch(x)
        for y in local2.outcomes:
            pair = choi_tensor(bx, (h1, k1), local2.branch(y), (h2, k2))
            branches.append(
                choi_compose(pair, (h1 * h2, k1 * k2), joint.choi, (h, h1 * h2))
            )
            labels.append(composite_label(x, y))
    giant = Instrument(branches, h, k1 * k2, labels)
    return i1, i2, giant


def marginal_instrument(
    giant: Instrument,
    out_split: tuple[int, int],
    keep: str = "first",
) -> Instrument:
    """Reduce a composite-outcome instrument to one outcome index.

    With ``keep='first'`` the branches are  sum_y tr_first[branch_(x,y)],
    leaving an instrument that reports outcome x while emitting the *second*
    output leg; such a reduction measures the first side's observable while
    implementing the second side's total channel.  ``keep='second'`` is the
    mirror image.
    """
    if keep not in ("first", "second"):
        raise ValueError("keep must be 'first' or 'second'")
    k1, k2 = out_split
    if k1 * k2 != giant.out_dim:
        raise DimMismatch(f"output split {out_split} does not factor {giant.out_dim}")
    shape = (giant.in_dim, k1, k2)
    pairs = [split_composite(label) for label in giant.outcomes]
    pick = 0 if keep == "first" else 1
    traced = {1} if keep == "first" else {2}
    out_dim = k2 if keep == "first" else k1

    order: list[str] = []
    groups: dict[str, np.ndarray] = {}
    for (labels, branch) in zip(pairs, giant.branches):
        key = labels[pick]
        reduced = linalg.partial_trace(branch, shape, traced)
        if key not in groups:
            groups[key] = reduced
            order.append(key)
        else:
            groups[key] = groups[key] + reduced
    return Instrument([groups[k] for k in order], giant.in_dim, out_dim, order)


# ---------------------------------------------------------------------------
# Noise families for robustness quantification
# ---------------------------------------------------------------------------


def mix_instrument(i: Observable | QuantumChannel | Instrument, t: float) -> Instrument:
    """Mix each branch of a device's instrument view toward (its average
    weight) x the constant channel: an observable's effects toward
    tr[A(x)] I / d, a channel toward rho -> I / out_dim."""
    depol = np.eye(i.in_dim * i.out_dim) / i.out_dim
    branches = []
    for b in i.branches:
        w = np.real(np.trace(b)) / i.in_dim
        branches.append((1 - t) * b + t * w * depol)
    return Instrument(branches, i.in_dim, i.out_dim, i.outcomes)


def family(notion: str, first, second) -> Callable[[float], AffineConstraintSet]:
    """Grid problems of ``notion`` with both devices mixed toward noise t by
    :func:`mix_instrument`."""
    return lambda t: _constraints(notion, mix_instrument(first, t), mix_instrument(second, t))


def obs_obs_family(a: Observable, b: Observable) -> Callable[[float], AffineConstraintSet]:
    return family(NOTION_OBS_OBS, a, b)


def chan_chan_family(
    c1: QuantumChannel, c2: QuantumChannel
) -> Callable[[float], AffineConstraintSet]:
    return family(NOTION_CHAN_CHAN, c1, c2)


# ---------------------------------------------------------------------------
# The notion table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Notion:
    """How one notion is decided; see the module docstring.

    ``grid(first, second)`` states the grid as a ``ConstraintBuilder``:
    :func:`_parallel_grid` of the instrument views for every notion but
    ``traditional``.  ``joint(blocks, first, second, **tols)`` rebuilds the
    joint device from a solver witness.  Both are None for the notions
    decided without a grid solve.
    """

    check: Callable[..., CompatReport]
    kinds: tuple[type, type]
    grid: Callable[..., ConstraintBuilder] | None = None
    joint: Callable[..., Observable | QuantumChannel | Instrument] | None = None


def _pair_labels(first, second) -> list[str]:
    return [composite_label(x, y) for x in first.outcomes for y in second.outcomes]


NOTIONS: dict[str, Notion] = {
    # The grid holds the views' branches A(x)^T, so the joint effects are
    # the transposed witness blocks.
    NOTION_OBS_OBS: Notion(
        check_obs_obs,
        (Observable, Observable),
        grid=_parallel_grid,
        joint=lambda w, a, b, **tols: Observable([m.T for m in w], _pair_labels(a, b), **tols),
    ),
    NOTION_OBS_CHAN: Notion(
        check_obs_chan,
        (Observable, QuantumChannel),
        grid=lambda a, c: _parallel_grid(c, a),
        joint=lambda w, a, c, **tols: Instrument(w, c.in_dim, c.out_dim, a.outcomes, **tols),
    ),
    NOTION_CHAN_CHAN: Notion(
        check_chan_chan,
        (QuantumChannel, QuantumChannel),
        grid=_parallel_grid,
        joint=lambda w, c1, c2, **tols: QuantumChannel(
            w[0], c1.in_dim, c1.out_dim * c2.out_dim, **tols
        ),
    ),
    NOTION_WEAK: Notion(check_weak, (Instrument, Instrument)),
    NOTION_TRADITIONAL: Notion(
        check_traditional,
        (Instrument, Instrument),
        grid=lambda i1, i2: ConstraintBuilder(
            (i1.in_dim, i1.out_dim), i1.branches, i2.branches
        ),
        joint=lambda w, i1, i2, **tols: Instrument(
            w, i1.in_dim, i1.out_dim, _pair_labels(i1, i2), **tols
        ),
    ),
    NOTION_PARALLEL: Notion(
        check_parallel,
        (Instrument, Instrument),
        grid=_parallel_grid,
        joint=lambda w, i1, i2, **tols: Instrument(
            w, i1.in_dim, i1.out_dim * i2.out_dim, _pair_labels(i1, i2), **tols
        ),
    ),
    NOTION_REDEFINED: Notion(check_redefined, (Instrument, Instrument)),
}


# ---------------------------------------------------------------------------
# Scenario generators
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """A device pair with the verdicts it is expected to produce."""

    name: str
    first: Instrument
    second: Instrument
    expected: dict[str, Status]
    extras: dict = dataclass_field(default_factory=dict)


def _check_probabilities(weights: np.ndarray, what: str) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < -1e-12):
        raise BadDistribution(f"{what} has negative entries")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise BadDistribution(f"{what} sums to {weights.sum()}, expected 1")
    return weights


def gen_traditional_only_pair(r: np.ndarray) -> Scenario:
    """Identity-branch qubit instruments with correlated outcome weights.

    Both instruments leave the state untouched and merely announce a random
    label, with the two label distributions being the margins of the table
    ``r``.  A joint instrument {r_ij x identity} realizes them on a common
    output space, but no side-by-side realization exists: it would broadcast
    the identity channel against itself, which cloning forbids.
    """
    r = _check_probabilities(r, "weight table r")
    if r.shape != (2, 2):
        raise BadDistribution(f"weight table has shape {r.shape}, expected (2, 2)")
    ident = QuantumChannel.identity(2).choi
    p = r.sum(axis=1)
    q = r.sum(axis=0)
    first = Instrument([p[0] * ident, p[1] * ident], 2, 2)
    second = Instrument([q[0] * ident, q[1] * ident], 2, 2)
    joint = Instrument(
        [r[i, j] * ident for i in range(2) for j in range(2)],
        2,
        2,
        [composite_label(str(i), str(j)) for i in range(2) for j in range(2)],
    )
    return Scenario(
        name="traditional-only",
        first=first,
        second=second,
        expected={
            NOTION_WEAK: Status.FEASIBLE,
            NOTION_TRADITIONAL: Status.FEASIBLE,
            NOTION_PARALLEL: Status.INFEASIBLE,
            NOTION_REDEFINED: Status.FEASIBLE,
        },
        extras={"joint": joint, "r": r},
    )


def gen_shared_observable_pair(
    p: Sequence[float], chan1: QuantumChannel, chan2: QuantumChannel
) -> Scenario:
    """Two instruments measuring the same trivial observable {p_x I}.

    Branch x of each instrument is p_x times one fixed channel.  Whether the
    pair is parallelly compatible reduces to whether the two channels admit a
    broadcast; with two identity channels (the default regression instance)
    it does not.
    """
    p = _check_probabilities(np.asarray(p, dtype=float), "probability vector p")
    if chan1.in_dim != chan2.in_dim or chan1.out_dim != chan2.out_dim:
        raise DimMismatch("the two channels must share input and output spaces")
    first = Instrument([w * chan1.choi for w in p], chan1.in_dim, chan1.out_dim)
    second = Instrument([w * chan2.choi for w in p], chan2.in_dim, chan2.out_dim)
    same = np.linalg.norm(chan1.choi - chan2.choi) <= 1e-12
    d = chan1.in_dim
    both_identity = (
        chan1.out_dim == d
        and np.linalg.norm(chan1.choi - QuantumChannel.identity(d).choi) <= 1e-12
        and np.linalg.norm(chan2.choi - QuantumChannel.identity(d).choi) <= 1e-12
    )
    expected: dict[str, Status] = {}
    if same:
        expected[NOTION_WEAK] = Status.FEASIBLE
        expected[NOTION_TRADITIONAL] = Status.FEASIBLE
        expected[NOTION_REDEFINED] = Status.FEASIBLE
    if both_identity:
        expected[NOTION_PARALLEL] = Status.INFEASIBLE
    return Scenario(
        name="shared-observable",
        first=first,
        second=second,
        expected=expected,
        extras={"p": p},
    )


def gen_parallel_only_pair(seed: int = 7) -> Scenario:
    """A qubit pair that is parallelly but not traditionally compatible.

    Construction: the broadcast channel rho -> (rho (x) I/2 + I/2 (x) rho)/2,
    whose two marginals are 50% depolarized identities, then an independent
    Haar-random unitary scrambling each leg and a sharp measurement of each
    leg in a random basis.  The two effective instruments then share a
    constructive parallel witness, while their total channels differ
    (generically), so no common-output joint instrument can exist.
    """
    eye = np.eye(2)
    lam = QuantumChannel.from_kraus(
        [np.kron(eye, e[:, None]) / 2 for e in eye] + [np.kron(e[:, None], eye) / 2 for e in eye]
    )

    from .sampling import haar_unitary, random_sharp_observable

    rng = np.random.default_rng(seed)
    for _ in range(16):
        gamma1 = QuantumChannel.unitary(haar_unitary(2, rng))
        gamma2 = QuantumChannel.unitary(haar_unitary(2, rng))
        local1 = compose_instrument_channel(
            luders_instrument(random_sharp_observable(2, rng)), gamma1
        )
        local2 = compose_instrument_channel(
            luders_instrument(random_sharp_observable(2, rng)), gamma2
        )
        i1, i2, giant = parallel_composition(lam, local1, local2)
        total_gap = np.linalg.norm(sum(i1.branches) - sum(i2.branches))
        if total_gap > 1e-6:
            break
    else:  # pragma: no cover - astronomically unlikely
        raise RuntimeError("failed to draw legs with distinct total channels")

    return Scenario(
        name="parallel-only",
        first=i1,
        second=i2,
        expected={
            NOTION_WEAK: Status.INFEASIBLE,
            NOTION_TRADITIONAL: Status.INFEASIBLE,
            NOTION_PARALLEL: Status.FEASIBLE,
            NOTION_REDEFINED: Status.FEASIBLE,
        },
        extras={"giant": giant, "broadcast": lam},
    )
