"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in captured output) and enforces the stated tolerance.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qcompat.cli import main as cli_main
from qcompat.compatibility import (
    _parallel_marginal_residuals,
    check_chan_chan,
    check_obs_obs,
    check_parallel,
    check_redefined,
    check_traditional,
    check_weak,
    gen_parallel_only_pair,
    gen_shared_observable_pair,
    gen_traditional_only_pair,
    marginal_instrument,
    mix_channel,
    obs_obs_family,
    observable_marginal,
    _constraints,
)
from qcompat.devices import (
    Instrument,
    QuantumChannel,
    dual_apply,
    induced_observable,
    total_channel,
)
from qcompat.deviceio import load_device
from qcompat.feasibility import SolverConfig, Status, dykstra_solve, robustness_bisect
from qcompat.linalg import partial_trace
from qcompat.sampling import (
    haar_isometry,
    random_channel,
    random_density,
    random_instrument,
    random_observable,
)

from conftest import EYE2, FIXTURES_DIR, PAULI_X, PAULI_Z, busch_compatible, noisy_pauli


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


@pytest.fixture(scope="module")
def constructed_pairs():
    """20 parallel-compatible triples built constructively (no solver)."""
    from qcompat.compatibility import parallel_composition

    rng = np.random.default_rng(424242)
    triples = []
    for k in range(20):
        out2 = 3 if k % 4 == 0 else 2
        broadcast = random_channel(2, 2 * out2, int(rng.integers(2, 5)), rng)
        local1 = random_instrument(2, 2, 2, 1, rng)
        local2 = random_instrument(out2, out2, 2, 1, rng)
        triples.append(parallel_composition(broadcast, local1, local2))
    return triples


def test_criterion_1_correlated_identity_pair():
    with criterion(1, "correlated identity-branch pair: traditional feasible, parallel infeasible, < 30 s"):
        started = time.perf_counter()
        sc = gen_traditional_only_pair(np.full((2, 2), 0.25))
        trad = check_traditional(sc.first, sc.second)
        par = check_parallel(sc.first, sc.second)
        elapsed = time.perf_counter() - started
        assert trad.status is Status.FEASIBLE
        assert par.status is Status.INFEASIBLE
        assert elapsed < 30.0


def test_criterion_2_parallel_only_pair_seed_7():
    with criterion(2, "seed-7 constructed pair: weak fails, parallel feasible, witness marginals <= 1e-6"):
        sc = gen_parallel_only_pair(seed=7)
        assert check_weak(sc.first, sc.second).status is Status.INFEASIBLE
        report = check_parallel(sc.first, sc.second)
        assert report.status is Status.FEASIBLE
        residuals = _parallel_marginal_residuals(report.joint_device, sc.first, sc.second)
        assert max(residuals) <= 1e-6


def test_criterion_3_no_cloning_and_verdict_agreement():
    with criterion(3, "identity channel not self-broadcastable; channel/instrument verdicts agree on 21 pairs"):
        ident = QuantumChannel.identity(2)
        assert check_chan_chan(ident, ident).status is Status.INFEASIBLE

        rng = np.random.default_rng(20250102)
        pairs = [(ident, ident)]
        for _ in range(20):
            noise1, noise2 = rng.uniform(0.0, 0.8, size=2)
            pairs.append(
                (
                    mix_channel(random_channel(2, 2, int(rng.integers(1, 5)), rng), noise1),
                    mix_channel(random_channel(2, 2, int(rng.integers(1, 5)), rng), noise2),
                )
            )
        for c1, c2 in pairs:
            as_channels = check_chan_chan(c1, c2).status
            as_instruments = check_parallel(
                Instrument([c1.choi], c1.in_dim, c1.out_dim),
                Instrument([c2.choi], c2.in_dim, c2.out_dim),
            ).status
            assert as_channels is not Status.UNDECIDED
            assert as_channels is as_instruments


def test_criterion_4_joint_observable_extraction(constructed_pairs):
    with criterion(4, "joint observable of 20 constructed witnesses matches induced observables <= 1e-6"):
        for i1, i2, giant in constructed_pairs:
            joint = induced_observable(giant)
            a = induced_observable(i1)
            b = induced_observable(i2)
            marg_a = observable_marginal(joint, "first")
            marg_b = observable_marginal(joint, "second")
            for got, want in zip(marg_a.effects, a.effects):
                assert np.linalg.norm(got - want) <= 1e-6
            for got, want in zip(marg_b.effects, b.effects):
                assert np.linalg.norm(got - want) <= 1e-6


def test_criterion_5_marginal_instruments(constructed_pairs):
    with criterion(5, "outcome marginals of 20 witnesses measure one side and implement the other <= 1e-6"):
        for i1, i2, giant in constructed_pairs:
            split = (i1.out_dim, i2.out_dim)
            first = marginal_instrument(giant, split, keep="first")
            for got, want in zip(
                induced_observable(first).effects, induced_observable(i1).effects
            ):
                assert np.linalg.norm(got - want) <= 1e-6
            assert np.linalg.norm(
                total_channel(first).choi - total_channel(i2).choi
            ) <= 1e-6

            second = marginal_instrument(giant, split, keep="second")
            for got, want in zip(
                induced_observable(second).effects, induced_observable(i2).effects
            ):
                assert np.linalg.norm(got - want) <= 1e-6
            assert np.linalg.norm(
                total_channel(second).choi - total_channel(i1).choi
            ) <= 1e-6


def test_criterion_6_unsharp_qubit_benchmark():
    with criterion(6, "verdicts match the closed-form unsharp-qubit criterion; robustness = 1 - 1/sqrt(2) +- 5e-3"):
        for lam in (0.5, 0.70, 0.72, 0.9):
            report = check_obs_obs(noisy_pauli(PAULI_X, lam), noisy_pauli(PAULI_Z, lam))
            expected = Status.FEASIBLE if busch_compatible(lam, lam) else Status.INFEASIBLE
            assert report.status is expected, f"lam={lam}"
        value = robustness_bisect(
            obs_obs_family(noisy_pauli(PAULI_X, 1.0), noisy_pauli(PAULI_Z, 1.0))
        )
        assert value == pytest.approx(1 - 1 / np.sqrt(2), abs=5e-3)


def test_criterion_7_shared_trivial_observable_pair():
    with criterion(7, "equal-weight identity instruments: traditional feasible, parallel infeasible, redefined via traditional"):
        ident = QuantumChannel.identity(2)
        sc = gen_shared_observable_pair([0.5, 0.5], ident, ident)
        assert check_traditional(sc.first, sc.second).status is Status.FEASIBLE
        assert check_parallel(sc.first, sc.second).status is Status.INFEASIBLE
        redefined = check_redefined(sc.first, sc.second)
        assert redefined.status is Status.FEASIBLE
        assert "traditional leg: feasible" in redefined.notes
        assert "parallel leg: infeasible" in redefined.notes


def test_criterion_8_invariant_suites():
    with criterion(8, "invariant suites on 200 random devices per type; determinism and budget stability"):
        rng = np.random.default_rng(808)

        for _ in range(200):
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            least = -(-dims[0] // dims[1])
            chan = random_channel(*dims, int(rng.integers(least, least + 3)), rng)
            # dual unitality
            assert np.linalg.norm(
                chan.dual(np.eye(chan.out_dim)) - np.eye(chan.in_dim)
            ) <= 1e-10
            # Kraus -> Choi reproduces the stored Choi
            from qcompat.devices import kraus_to_choi

            assert np.linalg.norm(kraus_to_choi(chan.kraus) - chan.choi) <= 1e-10

        for _ in range(200):
            d = int(rng.integers(2, 4))
            inst = random_instrument(d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 1, rng)
            rho = random_density(d, rng)
            effects = induced_observable(inst)
            for label in inst.outcomes:
                p_branch = np.trace(inst.apply_branch(label, rho)).real
                p_effect = np.trace(rho @ effects.effect(label)).real
                assert p_branch == pytest.approx(p_effect, abs=1e-10)

        for _ in range(200):
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            g = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
            m = (g + g.conj().T) / 2
            reduced = partial_trace(m, (d1, d2), {int(rng.integers(0, 2))})
            assert np.trace(reduced).real == pytest.approx(np.trace(m).real, abs=1e-12)

        # determinism: identical problems give identical verdicts/iterations
        problems = [
            _constraints("obs-obs", noisy_pauli(PAULI_X, 0.72), noisy_pauli(PAULI_Z, 0.72)),
            _constraints("chan-chan", QuantumChannel.identity(2), QuantumChannel.identity(2)),
        ]
        for cs in problems:
            v1 = dykstra_solve(cs, SolverConfig())
            v2 = dykstra_solve(cs, SolverConfig())
            assert (v1.status, v1.iterations, v1.gap_estimate) == (
                v2.status,
                v2.iterations,
                v2.gap_estimate,
            )

        # decided verdicts stay put when the iteration budget doubles
        sc = gen_traditional_only_pair(np.full((2, 2), 0.25))
        regression = problems + [
            _constraints("obs-obs", noisy_pauli(PAULI_X, lam), noisy_pauli(PAULI_Z, lam))
            for lam in (0.5, 0.9)
        ] + [_constraints("traditional", sc.first, sc.second)]
        for cs in regression:
            v1 = dykstra_solve(cs, SolverConfig())
            v2 = dykstra_solve(cs, SolverConfig(max_iter=40000))
            assert v1.status is not Status.UNDECIDED
            assert v1.status is v2.status


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "demos exit 0; malformed fixtures exit 3 naming the invariant; witness files re-validate"):
        for name in ("prop1", "prop2", "example1", "example2", "theorem1"):
            code = cli_main(["demo", name])
            capsys.readouterr()
            assert code == 0, f"demo {name} exited {code}"

        # malformed fixture: effects no longer sum to identity
        doc = json.loads((FIXTURES_DIR / "sharp_x.json").read_text())
        doc["matrices"]["+"][0][0] = [3.0, 0.0]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(doc))
        code = cli_main(["check", "obs-obs", str(bad), str(FIXTURES_DIR / "sharp_z.json")])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 3
        assert report["violated_invariant"] == "observable.effects_sum_to_identity"

        # witness written by the CLI re-validates against the originals
        witness_path = tmp_path / "witness.json"
        code = cli_main(
            [
                "check",
                "traditional",
                str(FIXTURES_DIR / "prop2_p.json"),
                str(FIXTURES_DIR / "prop2_q.json"),
                "--witness-out",
                str(witness_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        joint = load_device(witness_path)
        p = load_device(FIXTURES_DIR / "prop2_p.json")
        q = load_device(FIXTURES_DIR / "prop2_q.json")
        n2 = q.n_outcomes
        for i, x in enumerate(p.outcomes):
            row = sum(joint.branches[i * n2 + j] for j in range(n2))
            assert np.linalg.norm(row - p.branch(x)) <= 1e-6
        for j, y in enumerate(q.outcomes):
            col = sum(joint.branches[i * n2 + j] for i in range(p.n_outcomes))
            assert np.linalg.norm(col - q.branch(y)) <= 1e-6
