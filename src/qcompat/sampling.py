"""Seeded random device generation for scenarios and the benchmark.

Unitaries are Haar distributed (QR of a complex Ginibre matrix with phase
correction); channels and instruments come from Haar-random isometries cut
into Kraus blocks, sharp observables from Haar-random bases.
"""

from __future__ import annotations

import numpy as np

from .devices import Instrument, Observable, QuantumChannel, kraus_to_choi


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2)


def haar_isometry(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random isometry V (out_dim x in_dim, out_dim >= in_dim) with V†V = I."""
    if out_dim < in_dim:
        raise ValueError("an isometry needs out_dim >= in_dim")
    q, r = np.linalg.qr(_ginibre(out_dim, in_dim, rng))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return haar_isometry(dim, dim, rng)


def random_sharp_observable(dim: int, rng: np.random.Generator) -> Observable:
    """Rank-one projective measurement onto a Haar-random basis."""
    u = haar_unitary(dim, rng)
    return Observable([np.outer(u[:, k], u[:, k].conj()) for k in range(dim)])


def random_channel(
    in_dim: int, out_dim: int, n_kraus: int, rng: np.random.Generator
) -> QuantumChannel:
    """Channel whose Kraus operators are blocks of a Haar-random isometry.

    Needs out_dim * n_kraus >= in_dim, else no trace-preserving map exists
    with that many Kraus operators.
    """
    if out_dim * n_kraus < in_dim:
        raise ValueError(
            f"a {in_dim}->{out_dim} channel needs at least "
            f"{-(-in_dim // out_dim)} Kraus operators, got {n_kraus}"
        )
    v = haar_isometry(out_dim * n_kraus, in_dim, rng)
    kraus = [v[k * out_dim : (k + 1) * out_dim, :] for k in range(n_kraus)]
    return QuantumChannel.from_kraus(kraus)


def random_instrument(
    in_dim: int,
    out_dim: int,
    n_outcomes: int,
    kraus_per_branch: int,
    rng: np.random.Generator,
) -> Instrument:
    """Instrument whose branches group Kraus blocks of one random isometry."""
    v = haar_isometry(out_dim * n_outcomes * kraus_per_branch, in_dim, rng)
    branches = []
    for x in range(n_outcomes):
        ops = [
            v[(x * kraus_per_branch + j) * out_dim : (x * kraus_per_branch + j + 1) * out_dim, :]
            for j in range(kraus_per_branch)
        ]
        branches.append(kraus_to_choi(ops))
    return Instrument(branches, in_dim, out_dim)
