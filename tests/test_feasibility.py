import io

import numpy as np
import pytest

from qcompat.compatibility import _chan_chan_constraints, _obs_obs_constraints, obs_obs_family
from qcompat.devices import QuantumChannel
from qcompat.feasibility import (
    AffineConstraintSet,
    ConstraintBuilder,
    InconsistentConstraints,
    NotFeasibleAtOne,
    SolverConfig,
    Status,
    dykstra_solve,
    project_affine,
    robustness_bisect,
)
from qcompat.linalg import herm_to_vec

from conftest import EYE2, PAULI_X, PAULI_Z, busch_compatible, noisy_pauli


def sharp(axis):
    return noisy_pauli(axis, 1.0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol_feas == 1e-7
        assert cfg.tol_psd == 1e-9
        assert cfg.tol_gap == 1e-6
        assert cfg.max_iter == 20000
        assert cfg.stall_window == 500

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_feas=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=10, stall_window=100)


class TestProjectAffine:
    def test_zero_sum_constraint(self):
        builder = ConstraintBuilder()
        block = builder.add_block(2)
        builder.add_equality([(block, np.ones((1, 4)))], np.zeros((1, 1)))
        cs = builder.build()
        assert np.allclose(project_affine(np.zeros(4), cs), np.zeros(4))

    def test_joint_povm_fixed_point(self, sharp_z):
        cs = _obs_obs_constraints(sharp_z, sharp_z)
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        point = np.concatenate(
            [herm_to_vec(g) for g in (p0, np.zeros((2, 2)), np.zeros((2, 2)), p1)]
        )
        assert np.linalg.norm(project_affine(point, cs) - point) <= 1e-10

    def test_projection_lands_on_set(self, rng):
        cs = _obs_obs_constraints(sharp(PAULI_X), sharp(PAULI_Z))
        v = rng.normal(size=cs.total_size)
        projected = cs.project(v)
        assert cs.residual(projected) <= 1e-10 * (1 + np.linalg.norm(cs.rhs))

    def test_inconsistent_traces(self):
        builder = ConstraintBuilder()
        block = builder.add_block(2)
        trace_row = herm_to_vec(EYE2).reshape(1, -1)
        builder.add_equality([(block, trace_row)], np.eye(1))
        builder.add_equality([(block, trace_row)], 2.0 * np.eye(1))
        cs = builder.build()
        assert not cs.consistent
        with pytest.raises(InconsistentConstraints):
            cs.project(np.zeros(4))

    def test_inconsistent_reported_infeasible(self):
        builder = ConstraintBuilder()
        block = builder.add_block(2)
        trace_row = herm_to_vec(EYE2).reshape(1, -1)
        builder.add_equality([(block, trace_row)], np.eye(1))
        builder.add_equality([(block, trace_row)], 2.0 * np.eye(1))
        verdict = dykstra_solve(builder.build())
        assert verdict.status is Status.INFEASIBLE
        assert verdict.iterations == 0


class TestDykstra:
    def test_commuting_sharp_observables(self, sharp_z):
        verdict = dykstra_solve(_obs_obs_constraints(sharp_z, sharp_z))
        assert verdict.status is Status.FEASIBLE
        blocks = verdict.witness
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        for got, want in zip(blocks, (p0, np.zeros((2, 2)), np.zeros((2, 2)), p1)):
            assert np.linalg.norm(got - want) <= 1e-6

    def test_sharp_x_vs_z_infeasible(self, sharp_x, sharp_z):
        # Oracle: for unbiased orthogonal qubit observables the joint exists
        # iff lam_a^2 + lam_b^2 <= 1; here 1 + 1 = 2 > 1.
        assert not busch_compatible(1.0, 1.0)
        verdict = dykstra_solve(_obs_obs_constraints(sharp_x, sharp_z))
        assert verdict.status is Status.INFEASIBLE
        assert verdict.gap_estimate >= SolverConfig().tol_gap

    def test_cloning_identity_infeasible(self):
        ident = QuantumChannel.identity(2)
        verdict = dykstra_solve(_chan_chan_constraints(ident, ident))
        assert verdict.status is Status.INFEASIBLE

    def test_feasible_witness_satisfies_both_residuals(self):
        cfg = SolverConfig()
        verdict = dykstra_solve(
            _obs_obs_constraints(noisy_pauli(PAULI_X, 0.5), noisy_pauli(PAULI_Z, 0.5)), cfg
        )
        assert verdict.status is Status.FEASIBLE
        assert verdict.residual_affine <= cfg.tol_feas
        assert verdict.residual_psd <= cfg.tol_psd
        assert verdict.witness is not None

    def test_determinism(self, sharp_x, sharp_z):
        cs = _obs_obs_constraints(sharp_x, sharp_z)
        v1 = dykstra_solve(cs, SolverConfig())
        v2 = dykstra_solve(cs, SolverConfig())
        assert v1.status == v2.status
        assert v1.iterations == v2.iterations
        assert v1.gap_estimate == v2.gap_estimate

    @pytest.mark.parametrize("lam", [0.5, 0.72, 1.0])
    def test_decided_statuses_stable_under_doubled_budget(self, lam):
        cs = _obs_obs_constraints(noisy_pauli(PAULI_X, lam), noisy_pauli(PAULI_Z, lam))
        v1 = dykstra_solve(cs, SolverConfig())
        v2 = dykstra_solve(cs, SolverConfig(max_iter=40000))
        assert v1.status is not Status.UNDECIDED
        assert v1.status == v2.status
        assert v1.iterations == v2.iterations

    def test_trace_log_format_and_monotone_distance(self, sharp_x, sharp_z, tmp_path):
        buf = io.StringIO()
        dykstra_solve(_obs_obs_constraints(sharp_x, sharp_z), SolverConfig(), trace=buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines() if not line.startswith("#")]
        assert all(len(r) == 4 for r in rows)
        iterations = [int(r[0]) for r in rows]
        assert iterations == list(range(1, len(rows) + 1))
        affine_dist = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(affine_dist) <= 1e-12)

        path = tmp_path / "trace.log"
        dykstra_solve(
            _obs_obs_constraints(sharp_x, sharp_z), SolverConfig(trace_path=str(path))
        )
        assert path.read_text().splitlines()[0].startswith("#")


def test_trace_log_columns_are_distinct(sharp_x, sharp_z):
    buf = io.StringIO()
    dykstra_solve(_obs_obs_constraints(sharp_x, sharp_z), SolverConfig(), trace=buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines() if not line.startswith("#")]
    gap = np.array([float(r[1]) for r in rows])
    correction = np.array([float(r[3]) for r in rows])
    assert np.any(gap != correction)


class TestRobustness:
    def test_compatible_family_returns_zero(self, sharp_z):
        assert robustness_bisect(obs_obs_family(sharp_z, sharp_z)) == 0.0

    def test_always_feasible_family_returns_zero(self):
        a = noisy_pauli(PAULI_X, 0.3)
        b = noisy_pauli(PAULI_Z, 0.3)
        assert robustness_bisect(obs_obs_family(a, b)) == 0.0

    def test_malformed_family_raises(self, sharp_x, sharp_z):
        cs = _obs_obs_constraints(sharp_x, sharp_z)
        with pytest.raises(NotFeasibleAtOne):
            robustness_bisect(lambda t: cs)


def test_constraint_set_reports_shapes(sharp_x, sharp_z):
    cs = _obs_obs_constraints(sharp_x, sharp_z)
    assert cs.block_dims == [2, 2, 2, 2]
    assert cs.total_size == 16
    assert cs.constraint_matrix.shape[1] == 16
    # orthonormal reduced rows
    gram = cs.constraint_matrix @ cs.constraint_matrix.T
    assert np.allclose(gram, np.eye(cs.rank))
