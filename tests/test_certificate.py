"""Farkas certificates of INFEASIBLE verdicts: found by the solver on its
cone-side iterate, re-checked by ``compatibility`` with ``linalg`` alone."""

import itertools

import numpy as np
import pytest

from qcompat import feasibility
from qcompat.compatibility import NOTIONS, SolverError, _check_certificate, _constraints
from qcompat.deviceio import load_device
from qcompat.feasibility import (
    AffineConstraintSet,
    Certificate,
    SolverConfig,
    Status,
    dykstra_solve,
)

from conftest import PAULI_X, PAULI_Z, noisy_pauli

# Every shipped device but prop1_giant, whose 16-block grids are slow.
DEVICES = [
    "sharp_x", "sharp_z", "identity_channel", "depolarizing_channel",
    "example2_i1", "example2_i2", "prop1_i1", "prop1_i2", "prop2_p", "prop2_q",
]


def _pairs(fixtures_dir):
    devices = {name: load_device(fixtures_dir / f"{name}.json") for name in DEVICES}
    for notion, record in NOTIONS.items():
        for (na, a), (nb, b) in itertools.product(devices.items(), repeat=2):
            if isinstance(a, record.kinds[0]) and isinstance(b, record.kinds[1]):
                yield notion, na, nb, record.check(a, b)


def test_every_infeasible_fixture_verdict_is_certified(fixtures_dir):
    certified = 0
    for notion, na, nb, report in _pairs(fixtures_dir):
        if report.status is not Status.INFEASIBLE:
            continue
        certificate = report.verdict.certificate
        if notion == "weak" or {"weak precheck failed", "output spaces differ"} & set(report.notes):
            # Decided exactly, before any solve: unequal total channels.
            assert certificate is None, (notion, na, nb)
            continue
        assert certificate is not None, (notion, na, nb)
        grid = NOTIONS["parallel" if notion == "redefined" else notion].grid(
            load_device(fixtures_dir / f"{na}.json"), load_device(fixtures_dir / f"{nb}.json")
        )
        assert _check_certificate(notion, grid, certificate) < 0
        certified += 1
    assert certified >= 40


@pytest.mark.parametrize(
    "case",
    ["prop1-parallel", "z-z", "noisy-pauli-0.5"],
)
def test_no_iterate_of_a_feasible_solve_is_certified(case, fixtures_dir, monkeypatch):
    if case == "prop1-parallel":
        a, b = (load_device(fixtures_dir / f"prop1_{name}.json") for name in ("i1", "i2"))
        cs = _constraints("parallel", a, b)
    elif case == "z-z":
        cs = _constraints("obs-obs", noisy_pauli(PAULI_Z, 1.0), noisy_pauli(PAULI_Z, 1.0))
    else:
        cs = _constraints("obs-obs", noisy_pauli(PAULI_X, 0.5), noisy_pauli(PAULI_Z, 0.5))
    iterates = []
    psd_part = feasibility._psd_part

    def recording(w, v):
        iterates.append(psd_part(w, v))
        return iterates[-1]

    monkeypatch.setattr(feasibility, "_psd_part", recording)
    verdict = dykstra_solve(cs)
    assert verdict.status is Status.FEASIBLE
    assert len(iterates) == verdict.iterations
    assert all(cs.certificate(y) is None for y in iterates)


def _z_z() -> tuple:
    z = noisy_pauli(PAULI_Z, 1.0)
    return NOTIONS["obs-obs"].grid(z, z), _constraints("obs-obs", z, z)


def test_negative_value_without_psd_witness_is_rejected_by_the_solver():
    # y = x0 - I in every block: λ = (-I/2, -I/2), W = -I, Re⟨λ, t⟩ = -2, but
    # the total trace 2 times λ_min(W) = -1 brings the bound back to 0.
    _, cs = _z_z()
    y = cs.project(np.zeros(cs.stack_shape, dtype=complex)) - np.eye(2)
    assert cs.certificate(y) is None


def test_negative_value_without_psd_witness_is_rejected_by_the_recheck():
    grid, _ = _z_z()
    minus = [-np.eye(2), -np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]
    with pytest.raises(SolverError, match="certificate failed re-validation"):
        _check_certificate("obs-obs", grid, Certificate(minus, -2.0, -1.0))


def test_recheck_rejects_a_wrong_number_of_multipliers(sharp_x, sharp_z):
    grid = NOTIONS["obs-obs"].grid(sharp_x, sharp_z)
    certificate = dykstra_solve(grid.build()).certificate
    short = Certificate(certificate.multipliers[:-1], certificate.value, certificate.min_eig)
    with pytest.raises(SolverError, match="multipliers"):
        _check_certificate("obs-obs", grid, short)


def test_identical_inputs_give_identical_certificates(sharp_x, sharp_z):
    first, second = (
        dykstra_solve(_constraints("obs-obs", sharp_x, sharp_z)).certificate for _ in range(2)
    )
    assert (first.value, first.min_eig) == (second.value, second.min_eig)
    assert all(np.array_equal(m1, m2) for m1, m2 in zip(first.multipliers, second.multipliers))


def test_sharp_x_z_certificate_is_the_squared_distance(sharp_x, sharp_z):
    # With W = y - x PSD and orthogonal to y, Re⟨λ, t⟩ = ⟨W, x⟩ = -‖y - x‖²:
    # the first sweep of sharp X/Z already lands there.
    verdict = dykstra_solve(_constraints("obs-obs", sharp_x, sharp_z))
    assert verdict.iterations == 1
    assert verdict.certificate.value == pytest.approx(-verdict.gap_estimate**2, rel=1e-9)
    assert verdict.certificate.min_eig >= -1e-12


def test_stall_rule_is_an_uncertified_fallback(sharp_x, sharp_z, monkeypatch):
    # Without a certificate the solve runs its whole budget and ends
    # UNDECIDED: a stalled gap is never an uncertified INFEASIBLE.
    monkeypatch.setattr(AffineConstraintSet, "certificate", lambda self, y: None)
    verdict = dykstra_solve(_constraints("obs-obs", sharp_x, sharp_z), SolverConfig(max_iter=600))
    assert verdict.status is Status.UNDECIDED
    assert verdict.iterations == 600
    assert verdict.certificate is None
