"""Convex feasibility: affine subspace meets a product of PSD cones.

A problem instance is a list of Hermitian matrix blocks, each constrained to
the PSD cone, plus affine equality constraints over the blocks'
:func:`~qcompat.linalg.herm_to_vec` coordinates.  Membership of the
intersection is decided by alternating projections with Dykstra correction
terms on the cone side; affine subspaces need no correction.

Infeasibility is read off numerically: the Frobenius distance between the
cone-side and affine-side iterates is non-increasing and converges to the
distance between the two sets, so a distance that stalls at a strictly
positive value certifies an empty intersection at desk scale.  Borderline
instances time out as ``Status.UNDECIDED`` instead of guessing.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, IO, Sequence

import numpy as np

from .linalg import herm_to_vec, vec_to_herm


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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


class AffineConstraintSet:
    """Equality constraints over the concatenated block coordinates.

    The raw system is reduced to an orthonormal full-row-rank form by SVD at
    build time; with orthonormal rows the constraint residual of a point is
    exactly its distance to the affine set.
    """

    def __init__(
        self,
        variable_shapes: Sequence[tuple[int, tuple[int, ...]]],
        matrix: np.ndarray,
        rhs: np.ndarray,
        rank_cutoff: float = 1e-10,
    ):
        self.variable_shapes = [(int(d), tuple(s)) for d, s in variable_shapes]
        self.block_dims = [d for d, _ in self.variable_shapes]
        sizes = [d * d for d in self.block_dims]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.total_size = int(self.offsets[-1])

        matrix = np.asarray(matrix, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if matrix.shape != (rhs.size, self.total_size):
            raise ValueError(
                f"constraint matrix shape {matrix.shape} does not match "
                f"{rhs.size} rows x {self.total_size} coordinates"
            )

        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        keep = s > rank_cutoff * (s[0] if s.size else 1.0)
        self.rank = int(np.count_nonzero(keep))
        # Orthonormal-row reduction of the system; particular solution x0 is
        # the min-norm least-squares point.
        self._row_basis = vt[: self.rank]  # (rank, total)
        coeffs = (u[:, keep].T @ rhs) / s[keep]
        self.x0 = self._row_basis.T @ coeffs
        self.constraint_matrix = self._row_basis
        self.rhs = self._row_basis @ self.x0
        self.inconsistency = float(np.linalg.norm(matrix @ self.x0 - rhs))
        self._consistency_tol = 1e-10 * (1.0 + float(np.linalg.norm(rhs)))

    @property
    def consistent(self) -> bool:
        return self.inconsistency <= self._consistency_tol

    def residual(self, v: np.ndarray) -> float:
        """Distance from ``v`` to the affine set."""
        return float(np.linalg.norm(self._row_basis @ v - self.rhs))

    def project(self, v: np.ndarray) -> np.ndarray:
        if not self.consistent:
            raise InconsistentConstraints(
                f"affine system is empty (best residual {self.inconsistency:.3e})"
            )
        return v - self._row_basis.T @ (self._row_basis @ v) + self.x0

    def split(self, v: np.ndarray) -> list[np.ndarray]:
        """Slice a concatenated coordinate vector back into Hermitian blocks."""
        return [
            vec_to_herm(v[self.offsets[k] : self.offsets[k + 1]])
            for k in range(len(self.block_dims))
        ]


def project_affine(v: np.ndarray, cs: AffineConstraintSet) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the affine constraint set."""
    v = np.asarray(v, dtype=float)
    if v.size != cs.total_size:
        raise ValueError(f"vector length {v.size}, expected {cs.total_size}")
    return cs.project(v)


class ConstraintBuilder:
    """Assemble an :class:`AffineConstraintSet` block by block.

    Equalities have the form  sum_k  C_k . x_{b_k} = herm_to_vec(target),
    where each coefficient ``C_k`` is a real matrix on coordinates (``None``
    meaning the identity, for plain block sums).
    """

    def __init__(self) -> None:
        self._shapes: list[tuple[int, tuple[int, ...]]] = []
        self._equations: list[tuple[list[tuple[int, np.ndarray | None]], np.ndarray]] = []

    def add_block(self, dim: int, factor_shape: Sequence[int] | None = None) -> int:
        shape = tuple(factor_shape) if factor_shape is not None else (dim,)
        if int(np.prod(shape)) != dim:
            raise ValueError(f"factor shape {shape} does not multiply to dim {dim}")
        self._shapes.append((dim, shape))
        return len(self._shapes) - 1

    def add_equality(
        self,
        terms: Sequence[tuple[int, np.ndarray | None]],
        target: np.ndarray,
    ) -> None:
        rhs_vec = herm_to_vec(target, tol=1e-9)
        checked: list[tuple[int, np.ndarray | None]] = []
        for block, coeff in terms:
            dim = self._shapes[block][0]
            if coeff is not None:
                coeff = np.asarray(coeff, dtype=float)
                if coeff.shape != (rhs_vec.size, dim * dim):
                    raise ValueError(
                        f"coefficient shape {coeff.shape} does not map block "
                        f"{block} ({dim * dim} coords) to {rhs_vec.size} rows"
                    )
            elif dim * dim != rhs_vec.size:
                raise ValueError(
                    f"identity term needs block dim {dim} to match target"
                )
            checked.append((block, coeff))
        self._equations.append((checked, rhs_vec))

    def build(self) -> AffineConstraintSet:
        sizes = [d * d for d, _ in self._shapes]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        total = int(offsets[-1])
        n_rows = sum(rhs.size for _, rhs in self._equations)
        matrix = np.zeros((n_rows, total))
        rhs = np.zeros(n_rows)
        row = 0
        for terms, target in self._equations:
            n = target.size
            for block, coeff in terms:
                col = offsets[block]
                width = sizes[block]
                section = matrix[row : row + n, col : col + width]
                if coeff is None:
                    section += np.eye(n)
                else:
                    section += coeff
            rhs[row : row + n] = target
            row += n
        return AffineConstraintSet(self._shapes, matrix, rhs)


def _project_psd_blocks(v: np.ndarray, cs: AffineConstraintSet) -> np.ndarray:
    out = np.empty_like(v)
    for k, d in enumerate(cs.block_dims):
        lo, hi = cs.offsets[k], cs.offsets[k + 1]
        m = vec_to_herm(v[lo:hi])
        w, vecs = np.linalg.eigh(m)
        np.maximum(w, 0.0, out=w)
        proj = (vecs * w) @ vecs.conj().T
        out[lo:hi] = herm_to_vec((proj + proj.conj().T) / 2, tol=np.inf)
    return out


def _min_block_eig(v: np.ndarray, cs: AffineConstraintSet) -> float:
    lo_eig = np.inf
    for k in range(len(cs.block_dims)):
        lo, hi = cs.offsets[k], cs.offsets[k + 1]
        w = np.linalg.eigvalsh(vec_to_herm(v[lo:hi]))
        lo_eig = min(lo_eig, float(w[0]))
    return lo_eig


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
    if not cs.consistent:
        return FeasibilityVerdict(
            status=Status.INFEASIBLE,
            witness=None,
            residual_affine=cs.inconsistency,
            residual_psd=0.0,
            gap_estimate=cs.inconsistency,
            iterations=0,
        )
    if trace is not None:
        trace.write(
            f"# solve: blocks={cs.block_dims} rows={cs.rank} "
            f"tol_feas={cfg.tol_feas:g} tol_gap={cfg.tol_gap:g}\n"
        )

    x = cs.project(np.zeros(cs.total_size))
    p = np.zeros(cs.total_size)
    window: deque[float] = deque(maxlen=cfg.stall_window)

    gap = np.inf
    neg = -np.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        z = x + p
        y = _project_psd_blocks(z, cs)
        p = z - y
        x = cs.project(y)
        gap = float(np.linalg.norm(y - x))
        neg = _min_block_eig(x, cs)
        window.append(gap)

        if trace is not None:
            trace.write(f"{it},{gap:.6e},{max(0.0, -neg):.6e},{np.linalg.norm(p):.6e}\n")

        if gap <= cfg.tol_feas:
            return FeasibilityVerdict(
                status=Status.FEASIBLE,
                witness=cs.split(y),
                residual_affine=gap,
                residual_psd=max(0.0, -_min_block_eig(y, cs)),
                gap_estimate=gap,
                iterations=it,
            )
        if neg >= -cfg.tol_psd:
            return FeasibilityVerdict(
                status=Status.FEASIBLE,
                witness=cs.split(x),
                residual_affine=cs.residual(x),
                residual_psd=max(0.0, -neg),
                gap_estimate=gap,
                iterations=it,
            )
        if (
            it % _STALL_CHECK_EVERY == 0
            and len(window) == cfg.stall_window
            and gap > cfg.tol_gap
        ):
            hi, lo = max(window), min(window)
            if hi - lo <= 0.01 * hi:
                return FeasibilityVerdict(
                    status=Status.INFEASIBLE,
                    witness=None,
                    residual_affine=gap,
                    residual_psd=max(0.0, -neg),
                    gap_estimate=gap,
                    iterations=it,
                )

    return FeasibilityVerdict(
        status=Status.UNDECIDED,
        witness=None,
        residual_affine=gap,
        residual_psd=max(0.0, -neg),
        gap_estimate=gap,
        iterations=it,
    )


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
