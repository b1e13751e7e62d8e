"""Dense Hermitian matrix algebra on small Hilbert spaces.

Matrices are plain complex numpy arrays; multipartite structure is described
by a *factor shape*, a tuple of subsystem dimensions whose product equals the
matrix dimension.  Factor 0 is the slowest-varying (leftmost Kronecker)
index, matching ``numpy.kron``.

The solver acts on stacks of Hermitian matrices directly, with the
Frobenius inner product; no real coordinates are involved.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

TOL_HERM = 1e-12


class ShapeMismatch(ValueError):
    """Factor shape inconsistent with the matrix dimension."""


class BadFactorIndex(ValueError):
    """Factor index outside the factor shape, or an illegal trace set."""


class NotHermitian(ValueError):
    """Matrix fails the Hermiticity tolerance."""


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m†)/2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2


def as_hermitian(m: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Symmetrize ``m`` to (m + m†)/2, rejecting matrices that are not
    Hermitian within ``tol`` (max-entry deviation)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > tol:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds tol {tol:.1e}")
    return hermitian_part(m)


def tensor(a: np.ndarray, b: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the slower-varying index."""
    out = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    for m in more:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def _check_shape(m: np.ndarray, shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeMismatch(f"factor dimensions must be positive, got {shape}")
    if int(np.prod(shape)) != m.shape[0]:
        raise ShapeMismatch(
            f"factor shape {shape} has product {int(np.prod(shape))}, "
            f"matrix dimension is {m.shape[0]}"
        )
    return shape


def partial_trace(
    m: np.ndarray, shape: Sequence[int], traced: Iterable[int]
) -> np.ndarray:
    """Trace out the factors listed in ``traced`` (0-based indices into
    ``shape``), preserving the order of the remaining factors.

    The total trace is preserved: tr(partial_trace(m)) == tr(m).
    """
    m = np.asarray(m, dtype=complex)
    shape = _check_shape(m, shape)
    traced_set = {int(i) for i in traced}
    if not traced_set:
        raise BadFactorIndex("traced factor set is empty")
    for i in traced_set:
        if i < 0 or i >= len(shape):
            raise BadFactorIndex(f"factor index {i} out of range for {shape}")
    if len(traced_set) == len(shape):
        raise BadFactorIndex("cannot trace out every factor")

    n = len(shape)
    t = m.reshape(shape + shape)
    dims = list(shape)
    for idx in sorted(traced_set, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    kept = int(np.prod(dims))
    return t.reshape(kept, kept)


def reorder_factors(
    m: np.ndarray, shape: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    """Permute the tensor factors of ``m`` so factor ``perm[k]`` of the input
    becomes factor ``k`` of the output."""
    m = np.asarray(m, dtype=complex)
    shape = _check_shape(m, shape)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(len(shape))):
        raise BadFactorIndex(f"{perm} is not a permutation of {len(shape)} factors")
    n = len(shape)
    t = m.reshape(shape + shape)
    t = t.transpose(perm + [p + n for p in perm])
    return t.reshape(m.shape)


def min_eigval(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``m``."""
    return float(np.linalg.eigvalsh(hermitian_part(m))[0])


def psd_sqrt(m: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Principal square root of a PSD matrix (negative drift clipped)."""
    w, v = np.linalg.eigh(as_hermitian(m, tol))
    w = np.sqrt(np.maximum(w, 0.0))
    return hermitian_part((v * w) @ v.conj().T)
