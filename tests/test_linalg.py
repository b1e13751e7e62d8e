import numpy as np
import pytest

from qcompat.feasibility import _psd_part
from qcompat.linalg import (
    BadFactorIndex,
    NotHermitian,
    ShapeMismatch,
    as_hermitian,
    partial_trace,
    psd_sqrt,
    reorder_factors,
    tensor,
)

from conftest import EYE2, PAULI_X, PAULI_Z, random_hermitian
from hermitian_coords import (
    LengthMismatch,
    NonLinearityDetected,
    herm_to_vec,
    linmap_matrix,
    vec_to_herm,
)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(EYE2, EYE2), np.eye(4))

    def test_basis_projectors(self):
        assert np.array_equal(
            tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1, 0, 0])
        )

    def test_pauli_x_times_z(self):
        # Expanded by hand from the Kronecker formula.
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert np.allclose(tensor(PAULI_X, PAULI_Z), expected)

    def test_three_factors(self):
        a, b, c = np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.diag([5.0, 6.0])
        assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))


class TestPartialTrace:
    def test_identity_reduction(self):
        assert np.allclose(partial_trace(np.eye(4), (2, 2), {1}), 2 * EYE2)

    def test_product_factorizes(self, rng):
        rho = random_hermitian(2, rng)
        sigma = random_hermitian(3, rng)
        reduced = partial_trace(tensor(rho, sigma), (2, 3), {1})
        assert np.allclose(reduced, rho * np.trace(sigma))
        reduced = partial_trace(tensor(rho, sigma), (2, 3), {0})
        assert np.allclose(reduced, sigma * np.trace(rho))

    def test_bell_projector(self):
        # |Ω> = |00> + |11| (unnormalized); expand the rank-1 matrix and sum
        # diagonal blocks of the first factor.
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0
        proj = np.outer(omega, omega.conj())
        assert np.allclose(partial_trace(proj, (2, 2), {0}), EYE2)
        assert np.allclose(partial_trace(proj, (2, 2), {1}), EYE2)

    @pytest.mark.parametrize("shape,traced", [((2, 2), {0}), ((2, 3), {1}), ((2, 2, 3), {0, 2})])
    def test_trace_preserved(self, shape, traced, rng):
        m = random_hermitian(int(np.prod(shape)), rng)
        assert np.trace(partial_trace(m, shape, traced)) == pytest.approx(
            np.trace(m).real, abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            partial_trace(np.eye(4), (2, 3), {1})

    def test_bad_factor_index(self):
        with pytest.raises(BadFactorIndex):
            partial_trace(np.eye(4), (2, 2), {2})
        with pytest.raises(BadFactorIndex):
            partial_trace(np.eye(4), (2, 2), set())
        with pytest.raises(BadFactorIndex):
            partial_trace(np.eye(4), (2, 2), {0, 1})


def test_reorder_factors_swaps_kron(rng):
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    swapped = reorder_factors(tensor(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, tensor(b, a))


class TestEigh:
    """``psd_sqrt`` is the one eigendecomposition left in ``linalg``."""

    def test_identity(self):
        assert np.allclose(psd_sqrt(EYE2), EYE2)

    def test_pauli_z_spectrum(self):
        # Eigenvalues -1 and +1: the negative one is clipped to zero.
        assert np.allclose(psd_sqrt(PAULI_Z), np.diag([1.0, 0.0]))

    def test_pauli_x_eigenvectors(self):
        # I + X = 2|+><+| with |+> = (|0>+|1>)/sqrt(2), so its root is
        # sqrt(2)|+><+| = (I + X)/sqrt(2).
        assert np.allclose(psd_sqrt(EYE2 + PAULI_X), (EYE2 + PAULI_X) / np.sqrt(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_reconstruction(self, dim, rng):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        root = psd_sqrt(m, tol=1e-9)
        assert np.linalg.norm(root - root.conj().T) == 0.0
        assert np.linalg.eigvalsh(root)[0] >= -1e-10
        assert np.linalg.norm(root @ root - m) <= 1e-10 * np.linalg.norm(m)


def project_psd(m: np.ndarray) -> np.ndarray:
    """The solver's cone projection on a single matrix."""
    return _psd_part(*np.linalg.eigh(as_hermitian(m)[None]))[0]


class TestProjectPsd:
    def test_psd_unchanged(self):
        assert np.allclose(project_psd(EYE2), EYE2)

    def test_clips_pauli_z(self):
        assert np.allclose(project_psd(PAULI_Z), np.diag([1.0, 0.0]))

    def test_diagonal_clipping(self):
        assert np.allclose(project_psd(np.diag([3.0, -2.0, 0.0])), np.diag([3.0, 0, 0]))

    def test_idempotent_and_nearest(self, rng):
        for _ in range(20):
            m = random_hermitian(4, rng)
            p = project_psd(m)
            assert np.linalg.norm(project_psd(p) - p) <= 1e-10
            assert np.linalg.eigvalsh(p)[0] >= -1e-10
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q = g @ g.conj().T
            assert np.linalg.norm(p - m) <= np.linalg.norm(q - m) + 1e-12


class TestHermVec:
    def test_zero(self):
        assert np.array_equal(herm_to_vec(np.zeros((3, 3))), np.zeros(9))

    def test_identity_norm(self):
        assert np.linalg.norm(herm_to_vec(EYE2)) ** 2 == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        # tr(XZ) = 0 by direct multiplication.
        assert np.dot(herm_to_vec(PAULI_X), herm_to_vec(PAULI_Z)) == pytest.approx(
            0.0, abs=1e-14
        )

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_round_trip_and_isometry(self, dim, rng):
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        assert np.linalg.norm(vec_to_herm(herm_to_vec(a)) - a) <= 1e-12
        assert np.dot(herm_to_vec(a), herm_to_vec(b)) == pytest.approx(
            np.trace(a @ b).real, abs=1e-10
        )

    def test_rejects_non_square_length(self):
        with pytest.raises(LengthMismatch):
            vec_to_herm(np.zeros(5))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_to_vec(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLinmapMatrix:
    def test_identity_map(self):
        assert np.allclose(linmap_matrix(lambda m: m, 2, 2), np.eye(4))

    def test_partial_trace_consistency(self):
        mat = linmap_matrix(lambda m: partial_trace(m, (2, 2), {1}), 4, 2)
        image = mat @ herm_to_vec(np.eye(4))
        assert np.allclose(vec_to_herm(image), 2 * EYE2)

    def test_trace_to_identity_has_rank_one(self):
        mat = linmap_matrix(lambda m: np.trace(m).real * EYE2 / 2, 2, 2)
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 1

    def test_detects_nonlinearity(self):
        with pytest.raises(NonLinearityDetected):
            linmap_matrix(lambda m: m + np.eye(2), 2, 2)

    def test_applying_matches_map(self, rng):
        mat = linmap_matrix(lambda m: partial_trace(m, (2, 3), {0}), 6, 3)
        m = random_hermitian(6, rng)
        assert np.linalg.norm(
            mat @ herm_to_vec(m) - herm_to_vec(partial_trace(m, (2, 3), {0}))
        ) <= 1e-10


def test_as_hermitian_symmetrizes_small_drift():
    m = EYE2 + 1e-14 * np.array([[0, 1], [0, 0]])
    h = as_hermitian(m)
    assert np.allclose(h, h.conj().T)


def test_as_hermitian_rejects_rectangular():
    with pytest.raises(ShapeMismatch):
        as_hermitian(np.zeros((2, 3)))
