import math

import numpy as np
import pytest

from qcompat import compatibility, linalg
from qcompat.compatibility import (
    NOTIONS,
    _check_certificate,
    _constraints,
    _grid_residuals,
    obs_obs_family,
)
from qcompat.deviceio import load_device
from qcompat.devices import Instrument, QuantumChannel, total_channel
from qcompat.feasibility import (
    TOL_PSD,
    AffineConstraintSet,
    ConstraintBuilder,
    NotFeasibleAtOne,
    SolverConfig,
    Status,
    dykstra_solve,
    robustness_bisect,
)
from qcompat.sampling import random_channel, random_instrument

from conftest import PAULI_X, PAULI_Z, busch_compatible, noisy_pauli, random_hermitian
from hermitian_coords import herm_to_vec, linmap_matrix, vec_to_herm


def sharp(axis):
    return noisy_pauli(axis, 1.0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol_feas == 1e-7
        assert TOL_PSD == 1e-9
        assert cfg.max_iter == 20000
        assert cfg.trace_path is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_feas=0.0)
        # stall_window does nothing, so it does not bound max_iter.
        SolverConfig(max_iter=10, stall_window=100)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tol_feas"])
    def test_rejects_non_finite_tolerance(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})


def _inconsistent_traces() -> ConstraintBuilder:
    # tr(X) = 1 and tr(X) = 2 on one qubit block: a 1x1 grid of shape (1, 2)
    # whose two sides both trace out factor 1.
    return ConstraintBuilder((1, 2), [np.eye(1)], [2.0 * np.eye(1)], 1, 1)


def _near_equal_traces() -> ConstraintBuilder:
    # tr(X) = 1 and tr(X) = 1 + δ, with least-squares misfit δ/√2 = 1e-10.
    delta = 2**0.5 * 1e-10
    return ConstraintBuilder((1, 2), [np.eye(1)], [(1 + delta) * np.eye(1)], 1, 1)


class TestProjectAffine:
    def test_zero_sum_constraint(self):
        cs = ConstraintBuilder((1, 2), [np.zeros((1, 1))], [np.zeros((1, 1))], 1, 1).build()
        assert np.allclose(cs.project(np.zeros((1, 2, 2))), 0.0)

    def test_joint_povm_fixed_point(self, sharp_z):
        cs = _constraints("obs-obs", sharp_z, sharp_z)
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        point = np.array([p0, np.zeros((2, 2)), np.zeros((2, 2)), p1], dtype=complex)
        assert np.linalg.norm(cs.project(point) - point) <= 1e-10

    def test_projection_lands_on_set(self, rng):
        a, b = sharp(PAULI_X), sharp(PAULI_Z)
        cs = _constraints("obs-obs", a, b)
        point = np.array([random_hermitian(2, rng) for _ in range(4)])
        projected = cs.project(point)
        assert np.linalg.norm(cs.project(projected) - projected) <= 1e-10
        grid = NOTIONS["obs-obs"].grid(a, b)
        assert max(_grid_residuals(grid, projected)) <= 1e-10

    def test_inconsistent_traces(self):
        cs = _inconsistent_traces().build()
        # The least-squares misfit: both traces at 1.5.
        assert cs.inconsistency == pytest.approx(0.5**0.5)
        # project is the Moore-Penrose projection onto tr X = 1.5.
        projected = cs.project(np.zeros((1, 2, 2)))
        assert np.allclose(projected, 0.75 * np.eye(2))
        assert np.linalg.norm(cs.project(projected) - projected) <= 1e-12

    def test_inconsistent_reported_infeasible(self):
        grid = _inconsistent_traces()
        verdict = dykstra_solve(grid.build())
        assert verdict.status is Status.INFEASIBLE
        assert verdict.iterations == 0
        # λ = (1, -1)/√2: A†λ = 0 and Re⟨λ, t⟩ = -√0.5.
        certificate = verdict.certificate
        assert certificate.value == pytest.approx(-(0.5**0.5))
        assert abs(certificate.min_eig) <= 1e-12
        assert _check_certificate("toy", grid, certificate) == pytest.approx(-(0.5**0.5))

    def test_misfit_below_the_margin_is_undecided(self):
        # Misfit 1e-10 exceeds tol_feas 1e-12, but its certificate cannot
        # clear the rounding margin of about 2e-9.
        grid = _near_equal_traces()
        verdict = dykstra_solve(grid.build(), SolverConfig(tol_feas=1e-12))
        assert (verdict.status, verdict.iterations, verdict.certificate) == (Status.UNDECIDED, 0, None)

    def test_misfit_within_tol_feas_is_solved(self):
        # The same misfit under the default tol_feas: solved on the
        # least-squares set, tr X = 1 + 0.5·δ.
        grid = _near_equal_traces()
        verdict = dykstra_solve(grid.build())
        assert verdict.status is Status.FEASIBLE
        assert max(_grid_residuals(grid, verdict.witness)) <= 1e-10


def test_builder_rejects_malformed_equations():
    # Each case breaks one side of an otherwise valid grid of shape (2, 2).
    eye2 = [np.eye(2)]
    with pytest.raises(ValueError, match="outside the block shape"):
        ConstraintBuilder((2, 2), eye2, eye2, 2, 0).build()
    with pytest.raises(ValueError, match="does not match"):
        ConstraintBuilder((2, 2), eye2, [np.eye(4)], 1, 0).build()
    with pytest.raises(ValueError, match="Hermiticity"):
        ConstraintBuilder((2, 2), eye2, [np.triu(np.ones((2, 2)))], 1, 0).build()
    ConstraintBuilder((2, 2), eye2, eye2, 1, 0).build()


def test_d4_parallel_grid_projects_onto_the_set(rng):
    i1, i2 = (random_instrument(4, 4, 4, 1, rng) for _ in range(2))
    grid = NOTIONS["parallel"].grid(i1, i2)
    cs = grid.build()
    point = np.array([random_hermitian(64, rng) for _ in range(16)])
    assert max(_grid_residuals(grid, cs.project(point))) <= 1e-10


def _dense_reference(grid) -> tuple[np.ndarray, np.ndarray]:
    """The grid's equalities as a dense real system on the stacked blocks'
    :func:`herm_to_vec` coordinates, each partial trace materialized from
    :func:`linalg.partial_trace` by :func:`linmap_matrix`."""
    n1, n2 = len(grid.first), len(grid.second)
    dim = math.prod(grid.shape)
    equations = [([x * n2 + y for y in range(n2)], grid.trace_first, t) for x, t in enumerate(grid.first)]
    equations += [([x * n2 + y for x in range(n1)], grid.trace_second, t) for y, t in enumerate(grid.second)]
    rows, rhs = [], []
    for cells, factor, target in equations:
        if factor is None:
            coeff = np.eye(dim * dim)
        else:
            coeff = linmap_matrix(
                lambda m: linalg.partial_trace(m, grid.shape, {factor}), dim, dim // grid.shape[factor]
            )
        rows.append(np.hstack([coeff if k in cells else 0 * coeff for k in range(n1 * n2)]))
        rhs.append(herm_to_vec(target, tol=1e-9))
    return np.vstack(rows), np.concatenate(rhs)


def _grid_cases():
    rng = np.random.default_rng(31)
    sx, sz = sharp(PAULI_X), sharp(PAULI_Z)
    chan = total_channel(compatibility.mix_instrument(random_channel(2, 2, 2, rng), 0.3))
    wide = total_channel(compatibility.mix_instrument(random_channel(2, 3, 2, rng), 0.3))
    i1 = random_instrument(2, 2, 2, 1, rng)
    i2 = random_instrument(2, 2, 3, 1, rng)
    # Same total channel as i1, so the traditional system is consistent.
    j2 = Instrument([w * sum(i1.branches) for w in (0.3, 0.7)], 2, 2)
    return {
        "obs-obs": (sx, noisy_pauli(PAULI_Z, 0.8)),
        "obs-chan": (sz, chan),
        "chan-chan": (chan, wide),
        "traditional": (i1, j2),
        "parallel": (i1, i2),
    }


@pytest.mark.parametrize("notion", ["obs-obs", "obs-chan", "chan-chan", "traditional", "parallel"])
def test_projection_matches_dense_reference(notion, rng):
    first, second = _grid_cases()[notion]
    grid = NOTIONS[notion].grid(first, second)
    cs = _constraints(notion, first, second)
    matrix, rhs = _dense_reference(grid)
    n = len(grid.first) * len(grid.second)
    dim = math.prod(grid.shape)
    point = np.array([random_hermitian(dim, rng) for _ in range(n)])
    coords = np.concatenate([herm_to_vec(m) for m in point])
    step = np.linalg.lstsq(matrix, matrix @ coords - rhs, rcond=None)[0]
    ref = np.array([vec_to_herm(c) for c in (coords - step).reshape(n, dim * dim)])

    projected = cs.project(point)
    assert np.linalg.norm(projected - ref) <= 1e-10
    assert np.linalg.norm(cs.project(projected) - projected) <= 1e-10
    assert cs.rank == np.linalg.matrix_rank(matrix)
    assert cs.total_size == n * dim * dim


@pytest.mark.parametrize(
    "notion, first, second, sweeps",
    [
        # Each INFEASIBLE is certified at the first try, sweep 1.
        ("obs-obs", "sharp_x", "sharp_z", 1),
        ("parallel", "prop1_i1", "prop1_i2", 143),
        ("parallel", "prop2_p", "prop2_q", 1),
        ("chan-chan", "identity_channel", "identity_channel", 1),
    ],
)
def test_fixture_sweep_counts(notion, first, second, sweeps, fixtures_dir):
    a, b = (load_device(fixtures_dir / f"{name}.json") for name in (first, second))
    assert NOTIONS[notion].check(a, b).verdict.iterations == sweeps


@pytest.fixture
def prop1_parallel(fixtures_dir):
    # A FEASIBLE solve of 143 sweeps; INFEASIBLE ones stop at sweep 1.
    a, b = (load_device(fixtures_dir / f"prop1_{name}.json") for name in ("i1", "i2"))
    return _constraints("parallel", a, b)


class TestDykstra:
    def test_commuting_sharp_observables(self, sharp_z):
        verdict = dykstra_solve(_constraints("obs-obs", sharp_z, sharp_z))
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
        grid = NOTIONS["obs-obs"].grid(sharp_x, sharp_z)
        verdict = dykstra_solve(grid.build())
        assert verdict.status is Status.INFEASIBLE
        assert _check_certificate("obs-obs", grid, verdict.certificate) < 0

    def test_cloning_identity_infeasible(self):
        ident = QuantumChannel.identity(2)
        verdict = dykstra_solve(_constraints("chan-chan", ident, ident))
        assert verdict.status is Status.INFEASIBLE

    def test_feasible_witness_satisfies_both_residuals(self):
        cfg = SolverConfig()
        verdict = dykstra_solve(
            _constraints("obs-obs", noisy_pauli(PAULI_X, 0.5), noisy_pauli(PAULI_Z, 0.5)), cfg
        )
        assert verdict.status is Status.FEASIBLE
        assert verdict.residual_affine <= cfg.tol_feas
        assert verdict.residual_psd <= TOL_PSD
        assert verdict.witness is not None

    def test_determinism(self, sharp_x, sharp_z):
        cs = _constraints("obs-obs", sharp_x, sharp_z)
        v1 = dykstra_solve(cs, SolverConfig())
        v2 = dykstra_solve(cs, SolverConfig())
        assert v1.status == v2.status
        assert v1.iterations == v2.iterations
        assert v1.gap_estimate == v2.gap_estimate

    @pytest.mark.parametrize("lam", [0.5, 0.72, 1.0])
    def test_decided_statuses_stable_under_doubled_budget(self, lam):
        cs = _constraints("obs-obs", noisy_pauli(PAULI_X, lam), noisy_pauli(PAULI_Z, lam))
        v1 = dykstra_solve(cs, SolverConfig())
        v2 = dykstra_solve(cs, SolverConfig(max_iter=40000))
        assert v1.status is not Status.UNDECIDED
        assert v1.status == v2.status
        assert v1.iterations == v2.iterations

    def test_trace_log_format_and_monotone_distance(self, prop1_parallel, tmp_path):
        path = tmp_path / "trace.log"
        dykstra_solve(prop1_parallel, SolverConfig(trace_path=str(path)))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert len(rows) == 143
        assert all(len(r) == 3 for r in rows)
        iterations = [int(r[0]) for r in rows]
        assert iterations == list(range(1, len(rows) + 1))
        affine_dist = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(affine_dist) <= 1e-12)


def test_one_eigendecomposition_per_sweep(prop1_parallel, monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        solve = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    tries = []
    certificate = AffineConstraintSet.certificate
    monkeypatch.setattr(
        AffineConstraintSet, "certificate", lambda cs, y: tries.append(y) or certificate(cs, y)
    )
    verdict = dykstra_solve(prop1_parallel)
    assert verdict.status is Status.FEASIBLE
    assert verdict.iterations == 143
    # One eigh for the starting point and one per sweep; eigvalsh only in a
    # certificate try and, for the two iterates' reports, at the exit.
    assert calls["eigh"] <= verdict.iterations + 1
    assert calls["eigvalsh"] <= len(tries) + 2


def test_trace_log_columns_are_distinct(prop1_parallel, tmp_path):
    path = tmp_path / "trace.log"
    dykstra_solve(prop1_parallel, SolverConfig(trace_path=str(path)))
    rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 143
    gap = np.array([float(r[1]) for r in rows])
    negative_eig = np.array([float(r[2]) for r in rows])
    assert np.any(gap != negative_eig)


class TestRobustness:
    def test_compatible_family_returns_zero(self, sharp_z):
        assert robustness_bisect(obs_obs_family(sharp_z, sharp_z)) == 0.0

    def test_always_feasible_family_returns_zero(self):
        a = noisy_pauli(PAULI_X, 0.3)
        b = noisy_pauli(PAULI_Z, 0.3)
        assert robustness_bisect(obs_obs_family(a, b)) == 0.0

    def test_malformed_family_raises(self, sharp_x, sharp_z):
        cs = _constraints("obs-obs", sharp_x, sharp_z)
        with pytest.raises(NotFeasibleAtOne):
            robustness_bisect(lambda t: cs)
