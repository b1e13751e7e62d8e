from pathlib import Path

import numpy as np
import pytest

from qcompat.compatibility import NOTIONS, _grid_residuals
from qcompat.devices import Observable

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def noisy_pauli(axis: np.ndarray, lam: float) -> Observable:
    """Two-outcome unbiased qubit observable with effects (I ± lam*axis)/2."""
    return Observable([(EYE2 + lam * axis) / 2, (EYE2 - lam * axis) / 2], ["+", "-"])


def busch_compatible(lam_a: float, lam_b: float) -> bool:
    """Closed-form joint-measurability criterion for two unbiased qubit
    observables along orthogonal axes.  Used as an oracle independent of the
    solver."""
    return lam_a * lam_a + lam_b * lam_b <= 1.0 + 1e-12


def grid_misfit(notion: str, first, second, blocks) -> float:
    """Largest misfit of ``blocks`` as a ``notion`` witness for the pair,
    recomputed with ``linalg.partial_trace`` by ``_grid_residuals``."""
    return max(_grid_residuals(NOTIONS[notion].grid(first, second), blocks))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _ginibre(dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_observable(dim: int, n_outcomes: int, rng: np.random.Generator) -> Observable:
    """POVM from random PSD operators, normalized by S^{-1/2} . S^{-1/2}."""
    raw = []
    for _ in range(n_outcomes):
        g = _ginibre(dim, rng)
        raw.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(raw))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return Observable([inv_sqrt @ e @ inv_sqrt for e in raw])


def apply_choi(choi: np.ndarray, rho: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Apply the map with Choi matrix ``choi`` to ``rho``: tr_in[(rho^T (x) I) J]."""
    return np.einsum("ij,iajb->ab", rho, np.reshape(choi, (in_dim, out_dim, in_dim, out_dim)))


def dual_apply(choi: np.ndarray, x: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Heisenberg-picture dual: tr[Phi(rho) X] = tr[rho Phi*(X)] for all rho, X."""
    return np.einsum("iajb,ba->ji", np.reshape(choi, (in_dim, out_dim, in_dim, out_dim)), x)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def sharp_x() -> Observable:
    return noisy_pauli(PAULI_X, 1.0)


@pytest.fixture
def sharp_z() -> Observable:
    return noisy_pauli(PAULI_Z, 1.0)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR
