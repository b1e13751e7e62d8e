"""Quantum devices: observables, channels, and instruments.

Conventions
-----------
A channel (or any completely positive map) Phi from a d_in-dimensional input
space to a d_out-dimensional output space is stored as its Choi matrix

    J(Phi) = sum_ij e_ij (x) Phi(e_ij),

an unnormalized maximally-entangled encoding with factor order
(input, output).  Under this convention:

* Phi is completely positive  iff  J is positive semidefinite;
* Phi is trace preserving     iff  the partial trace of J over the output
  factor equals the input identity;
* the Heisenberg-picture dual is  Phi*(X) = transpose(tr_out[J (I (x) X)]),
  so in particular Phi*(I_out) = I_in for any trace-preserving Phi.

Kraus lists are optional derived data; the Choi matrix is the source of
truth.  Outcome labels are strings, and the composite outcome of a pair
(x, y) serializes as "x⊗y".

All device objects are immutable after construction (arrays are frozen) and
validated against their defining constraints.

Every device has the instrument view ``in_dim``, ``out_dim``, ``branches``,
``outcomes``: an observable is the instrument with branches A(x)^T (the Choi
matrices of rho -> tr[rho A(x)]) onto a one-dimensional output, and a channel
the one-outcome instrument whose branch is its Choi matrix.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import as_hermitian, hermitian_part

TOL_PSD = 1e-9
TOL_FEAS = 1e-9

COMPOSITE_SEP = "⊗"  # "⊗"


class DimMismatch(ValueError):
    """Input/output dimensions of two objects do not chain or agree."""


class InvariantViolation(ValueError):
    """A device failed one of its defining constraints.

    ``invariant`` names the first violated constraint, e.g.
    ``"observable.effects_sum_to_identity"``.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


def composite_label(x: str, y: str) -> str:
    return f"{x}{COMPOSITE_SEP}{y}"


def split_composite(label: str) -> tuple[str, str]:
    first, sep, second = label.partition(COMPOSITE_SEP)
    if not sep:
        raise ValueError(f"{label!r} is not a composite outcome label")
    return first, second


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Choi-matrix primitives
# ---------------------------------------------------------------------------


def kraus_to_choi(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix of the map rho -> sum_k K_k rho K_k†."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    out_dim, in_dim = kraus[0].shape
    j = np.zeros((in_dim * out_dim, in_dim * out_dim), dtype=complex)
    for k in kraus:
        if k.shape != (out_dim, in_dim):
            raise DimMismatch("Kraus operators have inconsistent shapes")
        v = k.T.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def choi_compose(
    outer_choi: np.ndarray,
    outer_dims: tuple[int, int],
    inner_choi: np.ndarray,
    inner_dims: tuple[int, int],
) -> np.ndarray:
    """Choi matrix of (outer ∘ inner), computed as the link product
    J[i p, j q] = sum_ab J_inner[i a, j b] J_outer[a p, b q]; the inner output
    must feed the outer input."""
    h, mid = inner_dims
    mid2, out = outer_dims
    if mid != mid2:
        raise DimMismatch(f"cannot chain maps: {inner_dims} then {outer_dims}")
    inner = np.asarray(inner_choi, dtype=complex).reshape(h, mid, h, mid)
    outer = np.asarray(outer_choi, dtype=complex).reshape(mid, out, mid, out)
    return np.einsum("iajb,apbq->ipjq", inner, outer).reshape(h * out, h * out)


def choi_tensor(
    choi_a: np.ndarray,
    dims_a: tuple[int, int],
    choi_b: np.ndarray,
    dims_b: tuple[int, int],
) -> np.ndarray:
    """Choi matrix of the product map A (x) B acting factor-wise.

    Input factors combine as (in_a, in_b) and outputs as (out_a, out_b).
    """
    ha, ka = dims_a
    hb, kb = dims_b
    prod = linalg.tensor(choi_a, choi_b)  # factors (ha, ka, hb, kb)
    return linalg.reorder_factors(prod, (ha, ka, hb, kb), (0, 2, 1, 3))


# ---------------------------------------------------------------------------
# Device types
# ---------------------------------------------------------------------------


# Per kind: the noun for one matrix, whether the matrices carry outcome
# labels (a channel's one matrix does not), the Hermiticity tolerance, and
# the invariants checked per matrix (shape, finite, Hermitian, PSD) and on
# the sum.
_KINDS = {
    "observable": (
        "effect", True, linalg.TOL_HERM, "observable.effect_shape", "observable.effect_finite",
        "observable.effect_hermitian", "observable.effect_psd",
        "observable.effects_sum_to_identity",
    ),
    "channel": (
        "Choi matrix", False, 1e-9, "channel.shape", "channel.finite",
        "channel.choi_hermitian", "channel.choi_psd", "channel.trace_preserving",
    ),
    "instrument": (
        "branch", True, 1e-9, "instrument.branch_shape", "instrument.branch_finite",
        "instrument.branch_hermitian", "instrument.branch_psd",
        "instrument.total_trace_preserving",
    ),
}


def _validate(
    kind: str,
    matrices: tuple[np.ndarray, ...],
    outcomes: Sequence[str] | None,
    in_dim: int,
    out_dim: int,
    tol_psd: float,
    tol_feas: float,
) -> tuple[str, ...]:
    """Check a device as an instrument with Choi matrices ``matrices`` and
    return its outcome labels; raise :class:`InvariantViolation` naming the
    first violated invariant.

    The order is: the outcome labels (none, count mismatch, duplicates);
    each matrix for shape, finite entries, Hermitian, PSD; trace
    preservation of the summed matrices.  An observable is the out_dim = 1
    case: its effects A(x) stand in for their Choi matrices A(x)^T, which
    have the same shape, spectrum and sum.  A channel is the one-outcome
    case.
    """
    noun, labelled, tol_herm, shape_inv, finite_inv, herm_inv, psd_inv, total_inv = _KINDS[kind]
    labels: tuple[str, ...] = ()
    if labelled:
        if not matrices:
            raise InvariantViolation(f"{kind}.outcomes", f"at least one {noun} required")
        labels = (
            tuple(str(o) for o in outcomes)
            if outcomes is not None
            else _default_labels(len(matrices))
        )
        if len(labels) != len(matrices):
            raise InvariantViolation(
                f"{kind}.outcomes", f"{len(labels)} labels for {len(matrices)} matrices"
            )
        if len(set(labels)) != len(labels):
            raise InvariantViolation(f"{kind}.outcomes", "duplicate outcome labels")

    def what(k: int) -> str:
        return f"{noun} {labels[k]!r}" if labels else noun

    d = in_dim * out_dim
    for k, m in enumerate(matrices):
        if m.shape != (d, d):
            raise InvariantViolation(shape_inv, f"{what(k)} has shape {m.shape}, expected ({d}, {d})")
        # NaN fails every comparison, so it would slip through the checks below.
        if not np.all(np.isfinite(m)):
            raise InvariantViolation(finite_inv, f"{what(k)} has non-finite entries")
        try:
            herm = as_hermitian(m, tol_herm)
        except linalg.NotHermitian as exc:
            raise InvariantViolation(herm_inv, f"{what(k)}: {exc}") from exc
        lo = float(np.linalg.eigvalsh(herm)[0])
        if lo < -tol_psd:
            raise InvariantViolation(
                psd_inv, f"{what(k)} has eigenvalue {lo:.3e} below -{tol_psd:.1e}"
            )

    total = sum(matrices)
    if out_dim > 1:  # with out_dim = 1 the sum is its own partial trace
        total = np.trace(total.reshape(in_dim, out_dim, in_dim, out_dim), axis1=1, axis2=3)
    dev = np.linalg.norm(total - np.eye(in_dim))
    if dev > tol_feas:
        raise InvariantViolation(
            total_inv, f"output partial trace of the sum deviates from the identity by {dev:.3e}"
        )
    return labels


class Observable:
    """Finite-outcome POVM: PSD effects summing to the identity.

    The probability of outcome x on state rho is tr[rho A(x)].
    """

    def __init__(
        self,
        effects: Iterable[np.ndarray],
        outcomes: Sequence[str] | None = None,
        *,
        tol_psd: float = TOL_PSD,
        tol_feas: float = TOL_FEAS,
    ):
        self.effects = tuple(_frozen(e) for e in effects)
        shape = self.effects[0].shape if self.effects else ()
        self.in_dim = shape[0] if shape else 0  # a 0-d effect fails the shape check
        self.outcomes = _validate(
            "observable", self.effects, outcomes, self.in_dim, 1, tol_psd, tol_feas
        )
        self.out_dim = 1
        self.branches = tuple(e.T for e in self.effects)

    def __repr__(self) -> str:
        return f"Observable(in_dim={self.in_dim}, outcomes={self.outcomes})"


class QuantumChannel:
    """Completely positive trace-preserving map in Choi form."""

    def __init__(
        self,
        choi: np.ndarray,
        in_dim: int,
        out_dim: int,
        kraus: Sequence[np.ndarray] | None = None,
        *,
        tol_psd: float = TOL_PSD,
        tol_feas: float = TOL_FEAS,
    ):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.choi = _frozen(choi)
        self.kraus = tuple(_frozen(k) for k in kraus) if kraus is not None else None
        _validate("channel", (self.choi,), None, self.in_dim, self.out_dim, tol_psd, tol_feas)
        self.branches, self.outcomes = (self.choi,), _default_labels(1)
        if self.kraus is None:
            return
        if not all(np.all(np.isfinite(k)) for k in self.kraus):
            raise InvariantViolation("channel.finite", "Kraus operators have non-finite entries")
        dev = np.linalg.norm(sum(k.conj().T @ k for k in self.kraus) - np.eye(self.in_dim))
        if dev > tol_feas:
            raise InvariantViolation(
                "channel.kraus_completeness", f"sum K†K deviates from identity by {dev:.3e}"
            )
        dev = np.linalg.norm(kraus_to_choi(self.kraus) - self.choi)
        if dev > tol_feas:
            raise InvariantViolation(
                "channel.kraus_choi_consistency",
                f"Kraus list and Choi matrix disagree by {dev:.3e}",
            )

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "QuantumChannel":
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        out_dim, in_dim = kraus[0].shape
        return cls(kraus_to_choi(kraus), in_dim, out_dim, kraus=kraus)

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls.from_kraus([np.eye(dim)])

    @classmethod
    def depolarizing(cls, dim: int) -> "QuantumChannel":
        """The constant channel rho -> tr(rho) I/dim."""
        return cls(np.eye(dim * dim, dtype=complex) / dim, dim, dim)

    @classmethod
    def unitary(cls, u: np.ndarray) -> "QuantumChannel":
        return cls.from_kraus([np.asarray(u, dtype=complex)])

    def __repr__(self) -> str:
        return f"QuantumChannel(in_dim={self.in_dim}, out_dim={self.out_dim})"


class Instrument:
    """Outcome-indexed family of CP maps whose sum is a channel.

    Branch x applied to rho yields the unnormalized post-measurement state;
    its trace is the probability of outcome x.
    """

    def __init__(
        self,
        branches: Iterable[np.ndarray],
        in_dim: int,
        out_dim: int,
        outcomes: Sequence[str] | None = None,
        *,
        tol_psd: float = TOL_PSD,
        tol_feas: float = TOL_FEAS,
    ):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.branches = tuple(_frozen(b) for b in branches)
        self.outcomes = _validate(
            "instrument", self.branches, outcomes, self.in_dim, self.out_dim, tol_psd, tol_feas
        )

    def branch(self, label: str) -> np.ndarray:
        return self.branches[self.outcomes.index(label)]

    def __repr__(self) -> str:
        return (
            f"Instrument(in_dim={self.in_dim}, out_dim={self.out_dim}, "
            f"outcomes={self.outcomes})"
        )


# ---------------------------------------------------------------------------
# Device operations
# ---------------------------------------------------------------------------


def induced_observable(inst: Instrument, **kwargs) -> Observable:
    """Observable measured by an instrument: effect(x) = branch_x*(I), the
    transposed output partial trace of the branch's Choi matrix."""
    shape = (inst.in_dim, inst.out_dim)
    effects = [hermitian_part(linalg.partial_trace(b, shape, {1}).T) for b in inst.branches]
    return Observable(effects, inst.outcomes, **kwargs)


def total_channel(inst: Instrument, **kwargs) -> QuantumChannel:
    """The channel implemented when the instrument's outcome is discarded."""
    return QuantumChannel(sum(inst.branches), inst.in_dim, inst.out_dim, **kwargs)


def luders_instrument(a: Observable) -> Instrument:
    """Instrument with branches rho -> sqrt(A(x)) rho sqrt(A(x))."""
    branches = [kraus_to_choi([linalg.psd_sqrt(e, tol=1e-9)]) for e in a.effects]
    return Instrument(branches, a.in_dim, a.in_dim, a.outcomes)


def compose_instrument_channel(post: Instrument, pre_channel: QuantumChannel) -> Instrument:
    """Instrument that first applies ``pre_channel``, then runs ``post``."""
    if post.in_dim != pre_channel.out_dim:
        raise DimMismatch(
            f"channel output dim {pre_channel.out_dim} does not feed "
            f"instrument input dim {post.in_dim}"
        )
    branches = [
        choi_compose(
            b,
            (post.in_dim, post.out_dim),
            pre_channel.choi,
            (pre_channel.in_dim, pre_channel.out_dim),
        )
        for b in post.branches
    ]
    return Instrument(branches, pre_channel.in_dim, post.out_dim, post.outcomes)
