"""Convex feasibility: affine subspace meets a product of PSD cones.

A problem instance is a stack ``X`` of n Hermitian blocks of one factor shape
(a complex array of shape ``(n, D, D)``), each block constrained to the PSD
cone, plus affine equalities ``A X = b``.  Each equality sums blocks, each
reduced by the identity or by the partial trace over one factor, and sets
the sum to a Hermitian target.  ``A`` and its adjoint ``A†`` (which embeds
with an identity on the traced factor) act on the stack directly; the small
Gram matrix ``G = A A†`` is factored once per constraint structure, and the
affine projection is ``X - A†(G⁺(A X - b))``.  The Frobenius norm on the
stack is the norm the projections are orthogonal in.

Membership of the intersection is decided by alternating projections with
Dykstra correction terms on the cone side; affine subspaces need no
correction.  Each sweep projects the whole stack onto the cone with one
batched eigendecomposition and tests the affine-side iterate with one
batched eigenvalue solve.

Infeasibility is read off numerically: the Frobenius distance between the
cone-side and affine-side iterates is non-increasing and converges to the
distance between the two sets, so a distance that stalls at a strictly
positive value certifies an empty intersection at desk scale.  Borderline
instances time out as ``Status.UNDECIDED`` instead of guessing.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, IO, Sequence

import numpy as np

from .linalg import as_hermitian


class InconsistentConstraints(ValueError):
    """The affine equality system has no solution at all."""


class NotFeasibleAtOne(ValueError):
    """A robustness family whose fully-noisy endpoint is not feasible."""


class Status(str, enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


@dataclass
class SolverConfig:
    """Tolerances and iteration limits for :func:`dykstra_solve`.

    ``tol_gap`` sits an order of magnitude above ``tol_feas`` so that a slow
    approach to feasibility is not mistaken for a genuine gap.
    """

    tol_feas: float = 1e-7
    tol_psd: float = 1e-9
    tol_gap: float = 1e-6
    max_iter: int = 20000
    stall_window: int = 500
    trace_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("tol_feas", "tol_psd", "tol_gap"):
            value = getattr(self, name)
            # NaN fails every comparison and inf passes every one.
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_iter < self.stall_window:
            raise ValueError("max_iter must be at least stall_window")


@dataclass
class FeasibilityVerdict:
    status: Status
    witness: list[np.ndarray] | None
    residual_affine: float
    residual_psd: float
    gap_estimate: float
    iterations: int


# A reduction keeps a block whole (None) or, for a factor shape collapsed to
# (p, k, q) around the traced factor, traces out the k.
_Split = tuple[int, int, int] | None


def _reduce(m: np.ndarray, split: _Split) -> np.ndarray:
    """Partial trace of each matrix of a stack."""
    if split is None:
        return m
    p, k, q = split
    return np.trace(m.reshape(-1, p, k, q, p, k, q), axis1=2, axis2=5).reshape(-1, p * q, p * q)


def _embed(m: np.ndarray, split: _Split) -> np.ndarray:
    """Adjoint of :func:`_reduce`: each matrix tensored with the identity on k."""
    if split is None:
        return m
    p, k, q = split
    t = m.reshape(-1, p, 1, q, p, 1, q) * np.eye(k).reshape(1, 1, k, 1, 1, k, 1)
    return t.reshape(-1, p * k * q, p * k * q)


def _out_dim(shape: tuple[int, ...], split: _Split) -> int:
    return math.prod(shape) // (1 if split is None else split[1])


@dataclass(frozen=True)
class _Factor:
    """Equations grouped by reduction, and the Gram pseudo-inverse.

    Row e of group (split, incidence, rows) sums the blocks weighted by
    ``incidence[e]`` and reduces the sum; the group's outputs fill the
    ``rows`` slice of the concatenated left-hand sides.  ``order`` lists the
    equation behind each group row, group by group.
    """

    groups: tuple[tuple[_Split, np.ndarray, slice], ...]
    order: tuple[int, ...]
    gram_pinv: np.ndarray
    rank: int


_RANK_CUTOFF = 1e-10  # relative to the largest Gram eigenvalue


@lru_cache(maxsize=64)
def _gram_factor(shape: tuple[int, ...], n_blocks: int, structure: tuple) -> _Factor:
    """Factor ``G = A A†`` for equations ``structure``, a tuple of (traced
    factor or None, blocks summed).  Targets do not enter, so every problem
    of one structure shares the factor."""
    groups, order, start = [], [], 0
    for traced in dict.fromkeys(f for f, _ in structure):
        eqs = [e for e, (f, _) in enumerate(structure) if f == traced]
        incidence = np.zeros((len(eqs), n_blocks), dtype=complex)
        for row, e in enumerate(eqs):
            np.add.at(incidence[row], list(structure[e][1]), 1.0)
        split = None if traced is None else (
            math.prod(shape[:traced]), shape[traced], math.prod(shape[traced + 1 :])
        )
        size = len(eqs) * _out_dim(shape, split) ** 2
        groups.append((split, incidence, slice(start, start + size)))
        order.extend(eqs)
        start += size

    def coupling(g, h):
        # Rows of g against rows of h: the blocks both sum, times R_g R_h†.
        (split_g, inc_g, _), (split_h, inc_h, _) = g, h
        out = _out_dim(shape, split_h)
        units = np.eye(out * out).reshape(-1, out, out)
        maps = _reduce(_embed(units, split_h), split_g).reshape(out * out, -1)
        return np.kron(inc_g @ inc_h.T, maps.T)

    w, v = np.linalg.eigh(np.block([[coupling(g, h) for h in groups] for g in groups]))
    keep = w > _RANK_CUTOFF * w[-1]
    pinv = (v[:, keep] / w[keep]) @ v[:, keep].conj().T
    pinv.setflags(write=False)
    return _Factor(tuple(groups), tuple(order), pinv, int(np.count_nonzero(keep)))


class AffineConstraintSet:
    """Equalities ``A X = b`` on a stack ``X`` of n Hermitian blocks.

    ``equations`` lists ``(terms, target)``, each term ``(block, traced
    factor or None)``; the terms of one equation trace the same factor.
    ``project`` is exact, ``X - A†(G⁺(A X - b))``, with the Gram
    pseudo-inverse ``G⁺`` shared by all sets of one structure.  ``rank``
    counts the independent real equations, ``total_size`` the real
    coordinates n·D².
    """

    def __init__(self, shape: tuple[int, ...], n_blocks: int, equations: Sequence[tuple]):
        dim = math.prod(shape)
        self.stack_shape = (n_blocks, dim, dim)
        self.total_size = n_blocks * dim * dim
        structure = tuple(
            (terms[0][1] if terms else None, tuple(b for b, _ in terms)) for terms, _ in equations
        )
        self._factor = _gram_factor(tuple(shape), n_blocks, structure)
        self.rank = self._factor.rank
        self._rhs = np.concatenate([np.ravel(equations[e][1]) for e in self._factor.order])
        x0 = self._adjoint(self._factor.gram_pinv @ self._rhs)
        self.inconsistency = float(np.linalg.norm(self._apply(x0) - self._rhs))
        self._consistency_tol = 1e-10 * (1.0 + float(np.linalg.norm(self._rhs)))

    @property
    def consistent(self) -> bool:
        return self.inconsistency <= self._consistency_tol

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """A X: the left-hand sides, row by row of ``order``, flattened."""
        flat = x.reshape(len(x), -1)
        return np.concatenate(
            [_reduce(inc @ flat, split).ravel() for split, inc, _ in self._factor.groups]
        )

    def _adjoint(self, r: np.ndarray) -> np.ndarray:
        """A† r: a stack of blocks."""
        out = 0
        for split, inc, rows in self._factor.groups:
            out = out + inc.T @ _embed(r[rows], split).reshape(len(inc), -1)
        return out.reshape(self.stack_shape)

    def _correction(self, x: np.ndarray) -> np.ndarray:
        return self._adjoint(self._factor.gram_pinv @ (self._apply(x) - self._rhs))

    def residual(self, x: np.ndarray) -> float:
        """Distance from ``x`` to the affine set."""
        return float(np.linalg.norm(self._correction(x)))

    def project(self, x: np.ndarray) -> np.ndarray:
        if not self.consistent:
            raise InconsistentConstraints(
                f"affine system is empty (best residual {self.inconsistency:.3e})"
            )
        return x - self._correction(x)


class ConstraintBuilder:
    """Assemble an :class:`AffineConstraintSet` block by block.

    All blocks share one factor shape.  An equality reads  sum_k R_k(X_{b_k})
    = target,  each term naming a block ``b_k`` and the factor that ``R_k``
    traces out; None, like a factor of dimension 1, keeps the block whole.
    """

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None
        self._n_blocks = 0
        self._equations: list[tuple[list[tuple[int, int | None]], np.ndarray]] = []

    def add_block(self, dim: int, factor_shape: Sequence[int] | None = None) -> int:
        shape = tuple(int(s) for s in factor_shape) if factor_shape is not None else (dim,)
        if math.prod(shape) != dim:
            raise ValueError(f"factor shape {shape} does not multiply to dim {dim}")
        if self._shape not in (None, shape):
            raise ValueError(f"block shape {shape} differs from the earlier {self._shape}")
        self._shape = shape
        self._n_blocks += 1
        return self._n_blocks - 1

    def add_equality(self, terms: Sequence[tuple[int, int | None]], target: np.ndarray) -> None:
        shape = self._shape or ()
        if any(not 0 <= b < self._n_blocks for b, _ in terms):
            raise ValueError(f"equation names a block outside 0..{self._n_blocks - 1}")
        if any(f is not None and not 0 <= f < len(shape) for _, f in terms):
            raise ValueError(f"equation traces a factor outside the block shape {shape}")
        traced = {None if f is None or shape[f] == 1 else f for _, f in terms}
        if len(traced) > 1:
            raise ValueError("the terms of one equation must trace the same factor")
        factor = traced.pop() if traced else None
        out = math.prod(shape) // (1 if factor is None else shape[factor])
        target = as_hermitian(target, tol=1e-9)
        if target.shape != (out, out):
            raise ValueError(f"target of shape {target.shape} does not match terms of dim {out}")
        self._equations.append(([(b, factor) for b, _ in terms], target))

    def build(self) -> AffineConstraintSet:
        return AffineConstraintSet(self._shape or (), self._n_blocks, self._equations)


def _project_psd(z: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(z)
    y = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().swapaxes(1, 2)
    return (y + y.conj().swapaxes(1, 2)) / 2


def _min_eig(x: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(x)[:, 0].min())


def _blocks(x: np.ndarray) -> list[np.ndarray]:
    return list((x + x.conj().swapaxes(1, 2)) / 2)


_STALL_CHECK_EVERY = 25


def dykstra_solve(
    cs: AffineConstraintSet,
    cfg: SolverConfig | None = None,
    trace: IO[str] | None = None,
) -> FeasibilityVerdict:
    """Decide whether the affine set intersects the PSD product cone.

    Starting from the affine projection of zero, each sweep projects onto the
    cone (with Dykstra's correction) and back onto the affine set.  Feasible
    is declared as soon as either iterate satisfies the other constraint
    within tolerance; Infeasible when the iterate gap stalls (relative spread
    below 1% across ``stall_window`` sweeps) at a value above ``tol_gap``;
    otherwise Undecided at ``max_iter``.

    The procedure is deterministic: identical problems and configs give
    identical verdicts and iteration counts.
    """
    cfg = cfg or SolverConfig()
    managed = None
    if trace is None and cfg.trace_path:
        managed = trace = open(cfg.trace_path, "a")
    try:
        return _dykstra_loop(cs, cfg, trace)
    finally:
        if managed is not None:
            managed.close()


def _dykstra_loop(
    cs: AffineConstraintSet, cfg: SolverConfig, trace: IO[str] | None
) -> FeasibilityVerdict:
    gap, neg, it = cs.inconsistency, 0.0, 0

    def verdict(status: Status, witness=None, affine=None, psd=None) -> FeasibilityVerdict:
        return FeasibilityVerdict(
            status=status,
            witness=witness,
            residual_affine=gap if affine is None else affine,
            residual_psd=max(0.0, -neg) if psd is None else psd,
            gap_estimate=gap,
            iterations=it,
        )

    if not cs.consistent:
        return verdict(Status.INFEASIBLE)
    if trace is not None:
        trace.write(
            f"# solve: blocks={'x'.join(map(str, cs.stack_shape))} rows={cs.rank} "
            f"tol_feas={cfg.tol_feas:g} tol_gap={cfg.tol_gap:g}\n"
        )

    x = cs.project(np.zeros(cs.stack_shape, dtype=complex))
    p = np.zeros(cs.stack_shape, dtype=complex)
    window: deque[float] = deque(maxlen=cfg.stall_window)
    gap, neg = np.inf, -np.inf
    for it in range(1, cfg.max_iter + 1):
        z = x + p
        y = _project_psd(z)
        p = z - y
        x = cs.project(y)
        gap = float(np.linalg.norm(y - x))
        neg = _min_eig(x)
        window.append(gap)

        if trace is not None:
            trace.write(f"{it},{gap:.6e},{max(0.0, -neg):.6e},{np.linalg.norm(p):.6e}\n")

        if gap <= cfg.tol_feas:
            return verdict(Status.FEASIBLE, _blocks(y), psd=max(0.0, -_min_eig(y)))
        if neg >= -cfg.tol_psd:
            return verdict(Status.FEASIBLE, _blocks(x), affine=cs.residual(x))
        if (
            it % _STALL_CHECK_EVERY == 0
            and len(window) == cfg.stall_window
            and gap > cfg.tol_gap
        ):
            hi, lo = max(window), min(window)
            if hi - lo <= 0.01 * hi:
                return verdict(Status.INFEASIBLE)
    return verdict(Status.UNDECIDED)


def robustness_bisect(
    problem_family: Callable[[float], AffineConstraintSet],
    cfg: SolverConfig | None = None,
    precision: float = 1e-3,
) -> float:
    """Smallest noise level t in [0, 1] at which the family turns feasible.

    ``problem_family(t)`` must be monotone: feasible at t implies feasible at
    every larger t, with t=1 (fully noisy devices) feasible.  Returns 0.0
    when the noiseless problem is already feasible.  Undecided probes are
    treated as not-feasible, which can only bias the answer upward, by less
    than the bisection precision.
    """
    cfg = cfg or SolverConfig()
    if dykstra_solve(problem_family(1.0), cfg).status is not Status.FEASIBLE:
        raise NotFeasibleAtOne("family is not feasible even at full noise (t=1)")
    if dykstra_solve(problem_family(0.0), cfg).status is Status.FEASIBLE:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if dykstra_solve(problem_family(mid), cfg).status is Status.FEASIBLE:
            hi = mid
        else:
            lo = mid
    return hi
