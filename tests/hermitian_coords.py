"""Real coordinates of Hermitian matrices, for tests only.

The solver never leaves matrix form.  These helpers write a linear map on
Hermitian matrices as a dense real matrix, the independent reference that
the solver's matrix-free projection is tested against.

Hermitian matrices of dimension d are identified with real vectors of length
d**2 through a fixed orthonormal basis (diagonal units first, then for each
upper-triangle position (i, j), row-major, the symmetric element
(e_ij + e_ji)/sqrt(2) followed by the antisymmetric element
i(e_ij - e_ji)/sqrt(2)).  The mapping is an isometry for the Frobenius inner
product.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from qcompat.linalg import TOL_HERM, ShapeMismatch, as_hermitian


class LengthMismatch(ValueError):
    """Coordinate vector length is not a perfect square."""


class NonLinearityDetected(ValueError):
    """A callback advertised as linear failed a superposition check."""


def herm_to_vec(m: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the fixed orthonormal basis.

    dot(herm_to_vec(a), herm_to_vec(b)) == tr(a @ b) for Hermitian a, b.
    """
    m = as_hermitian(m, tol)
    d = m.shape[0]
    iu, ju = np.triu_indices(d, k=1)
    out = np.empty(d * d, dtype=float)
    out[:d] = np.real(np.diag(m))
    upper = m[iu, ju]
    out[d::2] = np.sqrt(2.0) * upper.real
    out[d + 1 :: 2] = np.sqrt(2.0) * upper.imag
    return out


def vec_to_herm(coords: np.ndarray) -> np.ndarray:
    """Inverse of :func:`herm_to_vec`."""
    coords = np.asarray(coords, dtype=float)
    d = int(round(np.sqrt(coords.size)))
    if d * d != coords.size:
        raise LengthMismatch(f"coordinate length {coords.size} is not a square")
    m = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(m, coords[:d])
    iu, ju = np.triu_indices(d, k=1)
    upper = (coords[d::2] + 1j * coords[d + 1 :: 2]) / np.sqrt(2.0)
    m[iu, ju] = upper
    m[ju, iu] = upper.conj()
    return m


def linmap_matrix(
    apply_map: Callable[[np.ndarray], np.ndarray],
    in_dim: int,
    out_dim: int,
    check_tol: float = 1e-8,
) -> np.ndarray:
    """Materialize a Hermiticity-preserving real-linear map on Hermitian
    matrices as an (out_dim², in_dim²) real matrix acting on
    :func:`herm_to_vec` coordinates.

    A deterministic random-superposition check guards against callbacks that
    are not real-linear; violations beyond ``check_tol`` raise
    :class:`NonLinearityDetected`.
    """
    cols = np.empty((out_dim * out_dim, in_dim * in_dim), dtype=float)
    unit = np.zeros(in_dim * in_dim)
    for k in range(in_dim * in_dim):
        unit[k] = 1.0
        image = apply_map(vec_to_herm(unit))
        if image.shape != (out_dim, out_dim):
            raise ShapeMismatch(
                f"callback returned shape {image.shape}, expected ({out_dim}, {out_dim})"
            )
        cols[:, k] = herm_to_vec(image, tol=1e-9)
        unit[k] = 0.0

    rng = np.random.default_rng(1905)
    a = rng.normal(size=in_dim * in_dim)
    b = rng.normal(size=in_dim * in_dim)
    direct = herm_to_vec(
        apply_map(vec_to_herm(a) + 0.5 * vec_to_herm(b)), tol=1e-9
    )
    via_matrix = cols @ (a + 0.5 * b)
    scale = 1.0 + np.linalg.norm(direct)
    if np.linalg.norm(direct - via_matrix) > check_tol * scale:
        raise NonLinearityDetected(
            "callback failed the random superposition linearity check"
        )
    return cols
