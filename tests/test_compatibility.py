import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from qcompat import compatibility
from qcompat.compatibility import (
    NOTIONS,
    BadDistribution,
    SolverError,
    check_chan_chan,
    check_obs_chan,
    check_obs_obs,
    check_parallel,
    check_redefined,
    check_traditional,
    check_weak,
    chan_chan_family,
    family,
    gen_parallel_only_pair,
    gen_shared_observable_pair,
    gen_traditional_only_pair,
    marginal_instrument,
    mix_instrument,
    obs_obs_family,
    parallel_composition,
    _check_certificate,
    _grid_residuals,
)
from qcompat.deviceio import load_device
from qcompat.devices import (
    DimMismatch,
    Instrument,
    Observable,
    QuantumChannel,
    composite_label,
    induced_observable,
    luders_instrument,
    split_composite,
    total_channel,
)
from qcompat.feasibility import ROBUSTNESS_PRECISION, Status, robustness_bisect
from qcompat.linalg import partial_trace
from qcompat.sampling import random_channel, random_instrument

from conftest import (
    EYE2,
    PAULI_X,
    PAULI_Z,
    busch_compatible,
    grid_misfit,
    noisy_pauli,
    random_observable,
)


class TestObsObs:
    def test_commuting_sharp(self, sharp_z):
        report = check_obs_obs(sharp_z, sharp_z)
        assert report.status is Status.FEASIBLE
        joint = report.joint_device
        p0 = np.diag([1.0, 0.0])
        effect = dict(zip(joint.outcomes, joint.effects))
        assert np.linalg.norm(effect[composite_label("+", "+")] - p0) <= 1e-6
        assert np.linalg.norm(effect[composite_label("+", "-")]) <= 1e-6

    def test_sharp_x_vs_z(self, sharp_x, sharp_z):
        assert not busch_compatible(1.0, 1.0)
        report = check_obs_obs(sharp_x, sharp_z)
        assert report.status is Status.INFEASIBLE
        assert report.joint_device is None

    def test_trivial_vs_any(self, rng):
        trivial = Observable([0.25 * EYE2, 0.75 * EYE2], ["a", "b"])
        other = random_observable(2, 3, rng)
        report = check_obs_obs(trivial, other)
        assert report.status is Status.FEASIBLE
        # Witness marginals reproduce the inputs.
        assert grid_misfit("obs-obs", trivial, other, report.joint_device.branches) <= 1e-6

    def test_dim_mismatch(self, sharp_z, rng):
        with pytest.raises(DimMismatch):
            check_obs_obs(sharp_z, random_observable(3, 2, rng))

    def test_witness_marginals_match_originals(self, rng):
        a = noisy_pauli(PAULI_X, 0.6)
        b = noisy_pauli(PAULI_Z, 0.6)
        report = check_obs_obs(a, b)
        assert report.status is Status.FEASIBLE
        assert grid_misfit("obs-obs", a, b, report.joint_device.branches) <= 1e-6


class TestObsChan:
    def test_trivial_observable_vs_any_channel(self, rng):
        trivial = Observable([0.25 * EYE2, 0.75 * EYE2], ["a", "b"])
        chan = total_channel(mix_instrument(random_channel(2, 2, 2, rng), 0.3))
        report = check_obs_chan(trivial, chan)
        assert report.status is Status.FEASIBLE
        inst = report.joint_device
        induced = induced_observable(inst, tol_feas=1e-5, tol_psd=1e-6)
        for got, want in zip(induced.effects, trivial.effects):
            assert np.linalg.norm(got - want) <= 1e-6
        assert np.linalg.norm(total_channel(inst, tol_feas=1e-5).choi - chan.choi) <= 1e-6

    def test_sharp_z_vs_identity_channel(self, sharp_z):
        report = check_obs_chan(sharp_z, QuantumChannel.identity(2))
        assert report.status is Status.INFEASIBLE

    def test_cross_check_via_channel_reduction(self, sharp_z):
        # Independent reduction: a sharp observable implemented alongside the
        # identity would make its measurement channel broadcast-compatible
        # with the identity, which the channel-channel check refutes.
        dephasing = total_channel(luders_instrument(sharp_z))
        report = check_chan_chan(dephasing, QuantumChannel.identity(2))
        assert report.status is Status.INFEASIBLE

    def test_sharp_z_vs_dephasing(self, sharp_z):
        dephasing = total_channel(luders_instrument(sharp_z))
        report = check_obs_chan(sharp_z, dephasing)
        assert report.status is Status.FEASIBLE


class TestChanChan:
    def test_identity_vs_depolarizing(self):
        report = check_chan_chan(QuantumChannel.identity(2), QuantumChannel.depolarizing(2))
        assert report.status is Status.FEASIBLE
        joint = report.joint_device
        shape = (2, 2, 2)
        assert np.linalg.norm(
            partial_trace(joint.choi, shape, {2}) - QuantumChannel.identity(2).choi
        ) <= 1e-6

    def test_no_cloning(self):
        ident = QuantumChannel.identity(2)
        report = check_chan_chan(ident, ident)
        assert report.status is Status.INFEASIBLE

    def test_depolarizing_self_compatible(self):
        depol = QuantumChannel.depolarizing(2)
        report = check_chan_chan(depol, depol)
        assert report.status is Status.FEASIBLE

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            check_chan_chan(QuantumChannel.identity(2), QuantumChannel.identity(3))


class TestWeak:
    def test_weighted_same_channel(self, rng):
        chan = random_channel(2, 2, 2, rng)
        i1 = Instrument([0.3 * chan.choi, 0.7 * chan.choi], 2, 2)
        i2 = Instrument([0.5 * chan.choi, 0.5 * chan.choi], 2, 2)
        report = check_weak(i1, i2)
        assert report.status is Status.FEASIBLE
        assert np.linalg.norm(report.joint_device.choi - chan.choi) <= 1e-9

    def test_self_weak(self, rng):
        inst = random_instrument(2, 2, 2, 2, rng)
        assert check_weak(inst, inst).status is Status.FEASIBLE

    def test_different_totals(self, rng):
        i1 = random_instrument(2, 2, 2, 1, rng)
        i2 = random_instrument(2, 2, 2, 1, rng)
        report = check_weak(i1, i2)
        assert report.status is Status.INFEASIBLE
        assert report.joint_device is None


class TestTraditional:
    def test_correlated_identity_weights(self):
        sc = gen_traditional_only_pair(np.array([[0.25, 0.25], [0.25, 0.25]]))
        report = check_traditional(sc.first, sc.second)
        assert report.status is Status.FEASIBLE
        ident_choi = QuantumChannel.identity(2).choi
        for i in range(2):
            for j in range(2):
                got = report.joint_device.branch(composite_label(str(i), str(j)))
                assert np.linalg.norm(got - 0.25 * ident_choi) <= 1e-6

    def test_self_compatibility_solver_on_full_rank_instrument(self, rng):
        inst = mix_instrument(random_instrument(2, 2, 2, 2, rng), 0.3)
        report = check_traditional(inst, inst)
        assert report.status is Status.FEASIBLE

    def test_diagonal_joint_is_always_a_witness(self, rng):
        # The diagonal joint certifies self-compatibility for any instrument,
        # independent of solver geometry.
        inst = random_instrument(2, 2, 3, 1, rng)
        zero = np.zeros_like(inst.branches[0])
        branches = []
        labels = []
        for i, x in enumerate(inst.outcomes):
            for j, y in enumerate(inst.outcomes):
                branches.append(inst.branches[i] if i == j else zero)
                labels.append(composite_label(x, y))
        joint = Instrument(branches, 2, 2, labels)
        n = len(inst.outcomes)
        for i in range(n):
            row = sum(branches[i * n + j] for j in range(n))
            assert np.linalg.norm(row - inst.branches[i]) <= 1e-12

    def test_weak_precheck_short_circuits(self, rng):
        sc = gen_parallel_only_pair(seed=7)
        report = check_traditional(sc.first, sc.second)
        assert report.status is Status.INFEASIBLE
        assert "weak precheck failed" in report.notes
        assert report.verdict.iterations == 0

    def test_different_output_spaces(self, rng):
        i1 = random_instrument(2, 2, 2, 1, rng)
        i2 = random_instrument(2, 3, 2, 1, rng)
        report = check_traditional(i1, i2)
        assert report.status is Status.INFEASIBLE
        assert "output spaces differ" in report.notes


class TestParallel:
    def test_constructed_pair_is_parallel_compatible(self, rng):
        broadcast = random_channel(2, 4, 3, rng)
        i1, i2, giant = parallel_composition(
            broadcast,
            random_instrument(2, 2, 2, 1, rng),
            random_instrument(2, 2, 2, 1, rng),
        )
        assert grid_misfit("parallel", i1, i2, giant.branches) <= 1e-12
        report = check_parallel(i1, i2)
        assert report.status is Status.FEASIBLE
        assert grid_misfit("parallel", i1, i2, report.joint_device.branches) <= 1e-6

    def test_correlated_identity_weights_not_parallel(self):
        sc = gen_traditional_only_pair(np.array([[0.25, 0.25], [0.25, 0.25]]))
        assert check_parallel(sc.first, sc.second).status is Status.INFEASIBLE

    def test_weighted_depolarizing_pair(self):
        depol = QuantumChannel.depolarizing(2).choi
        i1 = Instrument([0.3 * depol, 0.7 * depol], 2, 2)
        i2 = Instrument([0.5 * depol, 0.5 * depol], 2, 2)
        report = check_parallel(i1, i2)
        assert report.status is Status.FEASIBLE

    def test_parallel_witness_totals_are_channel_witness(self, rng):
        # Summing all witness branches gives a broadcast channel for the two
        # total channels.
        broadcast = random_channel(2, 4, 2, rng)
        i1, i2, _ = parallel_composition(
            broadcast,
            random_instrument(2, 2, 2, 1, rng),
            random_instrument(2, 2, 2, 2, rng),
        )
        report = check_parallel(i1, i2)
        assert report.status is Status.FEASIBLE
        joint_total = sum(report.joint_device.branches)
        shape = (2, i1.out_dim, i2.out_dim)
        assert np.linalg.norm(
            partial_trace(joint_total, shape, {2}) - sum(i1.branches)
        ) <= 1e-6
        assert np.linalg.norm(
            partial_trace(joint_total, shape, {1}) - sum(i2.branches)
        ) <= 1e-6


@pytest.fixture(scope="module")
def giant_self_pair():
    # 16 blocks of 32x32: the trace-preservation residual of the rebuilt
    # instrument sums all of them (about 1.5e-6 at the solver's 1e-7 gap).
    giant = load_device(Path(__file__).resolve().parent.parent / "fixtures" / "prop1_giant.json")
    return giant, check_parallel(giant, giant)


class TestWitnessTolerance:
    def test_many_block_witness_revalidates(self, giant_self_pair):
        giant, report = giant_self_pair
        assert report.status is Status.FEASIBLE
        assert report.joint_device is not None
        assert grid_misfit("parallel", giant, giant, report.joint_device.branches) <= 1e-6

    def test_perturbed_witness_is_rejected(self, giant_self_pair, monkeypatch):
        giant, report = giant_self_pair
        witness = list(report.verdict.witness)
        dim = witness[0].shape[0]
        # PSD, so only the marginals can catch it: 1e-3 in Frobenius norm.
        witness[0] = witness[0] + 1e-3 * np.eye(dim) / np.sqrt(dim)
        bumped = dataclasses.replace(report.verdict, witness=witness)
        monkeypatch.setattr(compatibility, "dykstra_solve", lambda cs, cfg=None: bumped)
        with pytest.raises(SolverError):
            check_parallel(giant, giant)


class TestNearlyEqualTargets:
    """Targets that agree only to about 1e-9, which device validation
    accepts: the grid is solved on its least-squares set, not called empty."""

    def test_instrument_pair_is_compatible(self):
        ident = QuantumChannel.identity(2).choi
        near = (1 - 1e-9) * ident + 1e-9 * np.eye(4) / 2
        i1 = Instrument([ident / 2, ident / 2], 2, 2)
        i2 = Instrument([near / 2, near / 2], 2, 2)
        grid = NOTIONS["traditional"].grid(i1, i2)
        for check in (check_traditional, check_redefined):
            report = check(i1, i2)
            assert report.status is Status.FEASIBLE
            assert max(_grid_residuals(grid, report.joint_device.branches)) <= 1e-8

    def test_residual_affine_is_measured_against_the_targets(self):
        # The witness solves the least-squares set exactly, but misses the
        # targets by the system's misfit, and residual_affine must show that.
        ident = QuantumChannel.identity(2).choi
        near = (1 - 1e-9) * ident + 1e-9 * np.eye(4) / 2
        i1 = Instrument([ident / 2, ident / 2], 2, 2)
        i2 = Instrument([near / 2, near / 2], 2, 2)
        report = check_traditional(i1, i2)
        grid = NOTIONS["traditional"].grid(i1, i2)
        worst = max(_grid_residuals(grid, report.joint_device.branches))
        assert worst > 1e-10
        assert report.verdict.residual_affine >= worst

    def test_sharp_z_with_a_perturbed_effect(self, sharp_z):
        effects = [sharp_z.effects[0] + np.diag([6.4e-10, 0.0]), sharp_z.effects[1]]
        perturbed = Observable(effects, sharp_z.outcomes)
        report = check_obs_obs(sharp_z, perturbed)
        assert report.status is Status.FEASIBLE
        grid = NOTIONS["obs-obs"].grid(sharp_z, perturbed)
        assert max(_grid_residuals(grid, report.joint_device.effects)) <= 1e-6


class TestRedefined:
    def test_traditional_leg_only(self):
        sc = gen_traditional_only_pair(np.array([[0.25, 0.25], [0.25, 0.25]]))
        report = check_redefined(sc.first, sc.second)
        assert report.status is Status.FEASIBLE
        assert "traditional leg: feasible" in report.notes
        assert "parallel leg: infeasible" in report.notes

    def test_parallel_leg_only(self):
        sc = gen_parallel_only_pair(seed=7)
        report = check_redefined(sc.first, sc.second)
        assert report.status is Status.FEASIBLE
        assert "traditional leg: infeasible" in report.notes
        assert "parallel leg: feasible" in report.notes

    def test_notions_are_non_nested(self):
        # One pair passes only sequentially, another only side by side, so
        # neither notion contains the other.
        trad_only = gen_traditional_only_pair(np.full((2, 2), 0.25))
        par_only = gen_parallel_only_pair(seed=7)
        assert check_redefined(trad_only.first, trad_only.second).status is Status.FEASIBLE
        assert check_redefined(par_only.first, par_only.second).status is Status.FEASIBLE


class TestParallelComposition:
    def test_exact_mixed_ancilla_case(self):
        ident_choi = QuantumChannel.identity(2).choi
        attach = QuantumChannel(np.kron(ident_choi, EYE2 / 2), 2, 4)
        halves = Instrument([ident_choi / 2, ident_choi / 2], 2, 2)
        i1, i2, giant = parallel_composition(attach, halves, halves)
        assert grid_misfit("parallel", i1, i2, giant.branches) <= 1e-12
        # First leg sees the state unchanged, second leg sees the ancilla.
        assert np.linalg.norm(sum(i1.branches) - ident_choi) <= 1e-12
        assert np.linalg.norm(
            sum(i2.branches) - QuantumChannel.depolarizing(2).choi
        ) <= 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            parallel_composition(
                QuantumChannel.identity(2),
                random_instrument(2, 2, 2, 1, rng),
                random_instrument(2, 2, 2, 1, rng),
            )


class TestJointObservableExtraction:
    def test_marginals_match_induced_observables(self, rng):
        broadcast = random_channel(2, 4, 3, rng)
        i1, i2, giant = parallel_composition(
            broadcast,
            random_instrument(2, 2, 2, 1, rng),
            random_instrument(2, 3, 2, 1, rng),
        )
        joint = induced_observable(giant)
        a = induced_observable(i1)
        b = induced_observable(i2)
        assert grid_misfit("obs-obs", a, b, joint.branches) <= 1e-10

    def test_single_branch_giant(self, rng):
        chan = random_channel(2, 4, 2, rng)
        giant = Instrument([chan.choi], 2, 4, [composite_label("0", "0")])
        joint = induced_observable(giant)
        assert np.linalg.norm(joint.effects[0] - EYE2) <= 1e-10

    def test_trivial_weights_giant(self):
        ident_choi = QuantumChannel.identity(2).choi
        attach = QuantumChannel(np.kron(ident_choi, EYE2 / 2), 2, 4)
        halves = Instrument([ident_choi / 2, ident_choi / 2], 2, 2)
        _, _, giant = parallel_composition(attach, halves, halves)
        joint = induced_observable(giant)
        for e in joint.effects:
            assert np.linalg.norm(e - EYE2 / 4) <= 1e-12


class TestMarginalInstrument:
    def test_product_reduction(self, rng):
        broadcast = random_channel(2, 4, 3, rng)
        l1 = random_instrument(2, 2, 2, 1, rng)
        l2 = random_instrument(2, 3, 2, 2, rng)
        i1, i2, giant = parallel_composition(broadcast, l1, l2)
        split = (l1.out_dim, l2.out_dim)

        first = marginal_instrument(giant, split, keep="first")
        assert first.outcomes == i1.outcomes
        assert first.out_dim == l2.out_dim
        induced_first = induced_observable(first)
        want_first = induced_observable(i1)
        for got, want in zip(induced_first.effects, want_first.effects):
            assert np.linalg.norm(got - want) <= 1e-10
        assert np.linalg.norm(
            total_channel(first).choi - total_channel(i2).choi
        ) <= 1e-10

        second = marginal_instrument(giant, split, keep="second")
        assert second.outcomes == i2.outcomes
        induced_second = induced_observable(second)
        want_second = induced_observable(i2)
        for got, want in zip(induced_second.effects, want_second.effects):
            assert np.linalg.norm(got - want) <= 1e-10
        assert np.linalg.norm(
            total_channel(second).choi - total_channel(i1).choi
        ) <= 1e-10

    def test_bad_split(self, rng):
        giant = Instrument(
            [QuantumChannel.identity(2).choi], 2, 2, [composite_label("0", "0")]
        )
        with pytest.raises(DimMismatch):
            marginal_instrument(giant, (2, 2), keep="first")


class TestTheorem1Item1:
    def test_joint_observable_gives_jointly_measuring_instruments(self):
        # Explicit joint for two equally unsharp orthogonal qubit
        # observables at lam = 0.5: effects (I ± lam X ± lam Z)/4.
        lam = 0.5
        effects = []
        labels = []
        for sx in (1, -1):
            for sz in (1, -1):
                effects.append((EYE2 + lam * sx * PAULI_X + lam * sz * PAULI_Z) / 4)
                labels.append(composite_label("+x" if sx > 0 else "-x", "+z" if sz > 0 else "-z"))
        joint = Observable(effects, labels)
        lud = luders_instrument(joint)

        inst_a = marginal_traditional(lud, "first")
        inst_b = marginal_traditional(lud, "second")
        a = noisy_pauli(PAULI_X, lam)
        b = noisy_pauli(PAULI_Z, lam)
        for got, want in zip(induced_observable(inst_a).effects, a.effects):
            assert np.linalg.norm(got - want) <= 1e-10
        for got, want in zip(induced_observable(inst_b).effects, b.effects):
            assert np.linalg.norm(got - want) <= 1e-10
        # The joint Lüders instrument itself witnesses their traditional
        # compatibility.
        n = 2
        for i in range(n):
            row = sum(lud.branches[i * n + j] for j in range(n))
            assert np.linalg.norm(row - inst_a.branches[i]) <= 1e-12

    def test_traditional_witness_yields_joint_observable(self, rng):
        # Converse direction: marginals of a full-rank composite-outcome
        # instrument are traditionally compatible, and the solver witness
        # dualizes to a joint observable for the two induced observables.
        base = mix_instrument(random_instrument(2, 2, 4, 1, rng), 0.3)
        labels = [
            composite_label(x, y) for x in ("0", "1") for y in ("0", "1")
        ]
        composite = Instrument(base.branches, 2, 2, labels)
        i1 = marginal_traditional(composite, "first")
        i2 = marginal_traditional(composite, "second")
        report = check_traditional(i1, i2)
        assert report.status is Status.FEASIBLE
        joint_obs = induced_observable(report.joint_device, tol_feas=1e-5, tol_psd=1e-6)
        a = induced_observable(i1)
        b = induced_observable(i2)
        assert grid_misfit("obs-obs", a, b, joint_obs.branches) <= 1e-6


def marginal_traditional(joint: Instrument, keep: str) -> Instrument:
    """Outcome-group sums of a composite-outcome instrument (common output
    space, no partial trace)."""
    pick = 0 if keep == "first" else 1
    order: list[str] = []
    groups: dict[str, np.ndarray] = {}
    for label, branch in zip(joint.outcomes, joint.branches):
        key = split_composite(label)[pick]
        if key not in groups:
            groups[key] = branch
            order.append(key)
        else:
            groups[key] = groups[key] + branch
    return Instrument([groups[k] for k in order], joint.in_dim, joint.out_dim, order)


class TestMixers:
    def test_fully_mixed_observable_is_trivial(self, sharp_x):
        mixed = mix_instrument(sharp_x, 1.0)
        for e in mixed.branches:
            assert np.linalg.norm(e - EYE2 / 2) <= 1e-12

    def test_fully_mixed_channel_is_depolarizing(self, rng):
        chan = random_channel(2, 2, 3, rng)
        assert np.linalg.norm(
            total_channel(mix_instrument(chan, 1.0)).choi - QuantumChannel.depolarizing(2).choi
        ) <= 1e-12

    def test_mixed_instrument_keeps_weights(self, rng):
        inst = random_instrument(2, 2, 2, 2, rng)
        mixed = mix_instrument(inst, 0.5)
        for b_old, b_new in zip(inst.branches, mixed.branches):
            assert np.trace(b_new).real == pytest.approx(np.trace(b_old).real, abs=1e-10)

    def test_chan_chan_family_monotone_probe(self):
        ident = QuantumChannel.identity(2)
        family = chan_chan_family(ident, ident)
        from qcompat.feasibility import dykstra_solve

        assert dykstra_solve(family(0.0)).status is Status.INFEASIBLE
        assert dykstra_solve(family(0.5)).status is Status.FEASIBLE
        assert dykstra_solve(family(1.0)).status is Status.FEASIBLE


    def test_parallel_family_endpoints(self, fixtures_dir):
        from qcompat.deviceio import load_device
        from qcompat.feasibility import dykstra_solve

        p = load_device(fixtures_dir / "prop2_p.json")
        q = load_device(fixtures_dir / "prop2_q.json")
        problems = family("parallel", p, q)
        assert dykstra_solve(problems(1.0)).status is Status.FEASIBLE
        noiseless = dykstra_solve(problems(0.0))
        assert noiseless.status is Status.INFEASIBLE
        assert noiseless.status is check_parallel(p, q).status


class TestGenerators:
    def test_traditional_only_rejects_bad_tables(self):
        with pytest.raises(BadDistribution):
            gen_traditional_only_pair(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(BadDistribution):
            gen_traditional_only_pair(np.array([[1.5, -0.5], [0.0, 0.0]]))

    def test_traditional_only_margins(self):
        r = np.array([[0.1, 0.2], [0.3, 0.4]])
        sc = gen_traditional_only_pair(r)
        ident_choi = QuantumChannel.identity(2).choi
        assert np.linalg.norm(sc.first.branches[0] - 0.3 * ident_choi) <= 1e-12
        assert np.linalg.norm(sc.second.branches[1] - 0.6 * ident_choi) <= 1e-12
        assert sc.expected["traditional"] is Status.FEASIBLE
        assert sc.expected["parallel"] is Status.INFEASIBLE

    def test_shared_observable_rejects_bad_vector(self):
        ident = QuantumChannel.identity(2)
        with pytest.raises(BadDistribution):
            gen_shared_observable_pair([0.6, 0.6], ident, ident)

    def test_shared_observable_pair_structure(self):
        ident = QuantumChannel.identity(2)
        sc = gen_shared_observable_pair([0.5, 0.5], ident, ident)
        assert np.linalg.norm(sc.first.branches[0] - ident.choi / 2) <= 1e-12
        assert sc.expected["parallel"] is Status.INFEASIBLE
        assert sc.expected["traditional"] is Status.FEASIBLE

    def test_parallel_only_pair_seed7(self):
        sc = gen_parallel_only_pair(seed=7)
        assert check_weak(sc.first, sc.second).status is Status.INFEASIBLE
        giant = sc.extras["giant"]
        assert grid_misfit("parallel", sc.first, sc.second, giant.branches) <= 1e-9

    def test_parallel_only_pair_is_deterministic(self):
        sc1 = gen_parallel_only_pair(seed=7)
        sc2 = gen_parallel_only_pair(seed=7)
        for b1, b2 in zip(sc1.first.branches, sc2.first.branches):
            assert np.array_equal(b1, b2)


def _hand_built(device) -> Instrument:
    """The instrument a device is, built from its own matrices rather than
    its instrument view: the transposed effects onto a one-dimensional
    output, or the Choi matrix as the one branch."""
    if isinstance(device, Observable):
        return Instrument([e.T for e in device.effects], device.in_dim, 1, device.outcomes)
    return Instrument([device.choi], device.in_dim, device.out_dim)


def _shipped(fixtures_dir, kind) -> list:
    devices = (load_device(path) for path in sorted(fixtures_dir.glob("*.json")))
    return [d for d in devices if isinstance(d, kind)]


class TestInstrumentView:
    def test_notion_grids_are_the_parallel_grid_of_instruments(self, fixtures_dir):
        observables = _shipped(fixtures_dir, Observable)
        channels = _shipped(fixtures_dir, QuantumChannel)
        assert len(observables) >= 2 and len(channels) >= 2
        # (notion, first, second, the parallel pair, its traced factors);
        # obs-chan keeps the channel as the first side.
        cases = [("obs-obs", a, b, (a, b), (None, None)) for a in observables for b in observables]
        cases += [("obs-chan", a, c, (c, a), (None, 1)) for a in observables for c in channels]
        cases += [("chan-chan", c1, c2, (c1, c2), (2, 1)) for c1 in channels for c2 in channels]
        for notion, first, second, pair, traced in cases:
            grid = NOTIONS[notion].grid(first, second)
            p, q = map(_hand_built, pair)
            ref = NOTIONS["parallel"].grid(p, q)
            assert grid.shape == ref.shape == (p.in_dim, p.out_dim, q.out_dim)
            assert (grid.trace_first, grid.trace_second) == (ref.trace_first, ref.trace_second) == traced
            assert (len(grid.first), len(grid.second)) == (len(ref.first), len(ref.second))
            for got, want in zip([*grid.first, *grid.second], [*ref.first, *ref.second]):
                assert np.array_equal(got, want)

    def test_mix_instrument_of_a_view_is_the_per_kind_mix(self, fixtures_dir):
        # The noise mixes the robustness families used per device kind.
        for t in (0.0, 0.3, 1.0):
            for a in _shipped(fixtures_dir, Observable):
                d = a.in_dim
                want = [((1 - t) * e + t * (np.trace(e).real / d) * np.eye(d)).T for e in a.effects]
                got = mix_instrument(a, t)
                assert (got.in_dim, got.out_dim, got.outcomes) == (d, 1, a.outcomes)
                assert max(np.abs(g - w).max() for g, w in zip(got.branches, want)) <= 1e-15
            for c in _shipped(fixtures_dir, QuantumChannel):
                want = (1 - t) * c.choi + t * np.eye(c.in_dim * c.out_dim) / c.out_dim
                got = mix_instrument(c, t)
                assert got.outcomes == Instrument([c.choi], c.in_dim, c.out_dim).outcomes
                assert np.abs(got.branches[0] - want).max() <= 1e-15

    def test_view_is_read_only(self, fixtures_dir):
        for device in [*_shipped(fixtures_dir, Observable), *_shipped(fixtures_dir, QuantumChannel)]:
            assert isinstance(device.branches, tuple)
            for branch in device.branches:
                with pytest.raises(ValueError):
                    branch[0, 0] = 0.0


def _mub_pair(d: int, t: float) -> tuple[Observable, Observable]:
    """The computational and Fourier bases of C^d as sharp observables,
    each effect mixed with white noise: (1 - t) P + t I/d."""
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)

    def noisy(basis: np.ndarray) -> Observable:
        return Observable([(1 - t) * np.outer(v, v.conj()) + t * np.eye(d) / d for v in basis.T])

    return noisy(np.eye(d)), noisy(fourier)


def _identity_pair(d: int, t: float) -> tuple[QuantumChannel, QuantumChannel]:
    """Two copies of the identity channel mixed toward rho -> I/d."""
    noisy = QuantumChannel((1 - t) * QuantumChannel.identity(d).choi + t * np.eye(d * d) / d, d, d)
    return noisy, noisy


# Thresholds known in closed form.  Two mutually unbiased bases under white
# noise are jointly measurable iff the visibility is at most
# (2 + √d)/(2(1 + √d)) (Carmeli, Heinosaari & Toigo, PRA 85, 012109, 2012);
# optimal symmetric 1 -> 2 cloning shrinks by (d + 2)/(2(d + 1)) (Werner,
# PRA 58, 1827, 1998).
ORACLES = [
    *(("mub", d, 1 - (2 + math.sqrt(d)) / (2 * (1 + math.sqrt(d)))) for d in range(2, 7)),
    *(("identity", d, d / (2 * (d + 1))) for d in (2, 3)),
]


@pytest.mark.parametrize("case, d, exact", ORACLES, ids=[f"{c}-d{d}" for c, d, _ in ORACLES])
def test_closed_form_thresholds(case, d, exact):
    # The notion's solve goes through the instrument view; the parallel
    # solve on hand-built instruments and the closed form do not.
    if case == "mub":
        pair, check, family_of = (lambda t: _mub_pair(d, t)), check_obs_obs, obs_obs_family
    else:
        pair, check, family_of = (lambda t: _identity_pair(d, t)), check_chan_chan, chan_chan_family
    assert exact <= robustness_bisect(family_of(*pair(0.0))) <= exact + ROBUSTNESS_PRECISION
    for t, status in ((exact - 2e-3, Status.INFEASIBLE), (exact + 2e-3, Status.FEASIBLE)):
        devices = pair(t)
        instruments = [_hand_built(device) for device in devices]
        hand_grid = NOTIONS["parallel"].grid(*instruments)
        for report in (check(*devices), check_parallel(*instruments)):
            assert report.status is status, (report.notion, t)
            if status is Status.INFEASIBLE:
                assert _check_certificate("parallel", hand_grid, report.verdict.certificate) < 0
            else:
                assert max(_grid_residuals(hand_grid, report.joint_device.branches)) <= 1e-6
