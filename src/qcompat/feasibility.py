"""Convex feasibility: affine subspace meets a product of PSD cones.

A problem is a grid (:class:`ConstraintBuilder`): n1 x n2 Hermitian blocks
X_xy of one factor shape, held as one complex stack of shape ``(n1·n2, D,
D)`` (block x·n2 + y is X_xy), each block constrained to the PSD cone, plus
the equalities

    sum_y R1(X_xy) = T1_x  (x < n1)   and   sum_x R2(X_xy) = T2_y  (y < n2),

where R1 (R2) is the identity or the partial trace over one factor of
dimension k1 (k2; 1 when nothing is traced), leaving o1 x o1 (o2 x o2)
matrices.  ``A`` maps the stack to these left-hand sides; its adjoint
``A†`` embeds each target, tensored with the identity on the traced factor,
in every block of its row or column.  The affine projection is
``X - A†(G⁺(A X - t))`` for the stacked targets t, and the Frobenius norm
on the stack is the norm the projections are orthogonal in.

The Gram matrix ``G = A A†`` is known in closed form.  With a = n2·k1,
b = n1·k2, J the n1 x n2 all-ones matrix and M = R1 R2† (o1² x o2²),

    G = [[a·I, J⊗M], [Jᵀ⊗M†, b·I]].

Eliminating the first side leaves b·I - (1/a)·JᵀJ⊗M†M, which is b·I
except on second-side rows constant across y, where it is

    K = b·I - (n1·n2/a)·M†M   (o2² x o2²).

So K is the only matrix eigendecomposed, rank(A) = n1·o1² + (n2-1)·o2² +
rank(K), and ``G⁺`` is assembled from K's spectrum once per grid layout
(shape, n1, n2, traced factors); targets do not enter.

Membership of the intersection is decided by plain alternating
projections, x <- P_A(P_S(x)): a feasibility problem needs some point of
the intersection, not the nearest one, so no Dykstra correction is kept.
Each sweep runs one batched eigendecomposition of the affine iterate x,
which both tests x for PSD (its smallest eigenvalue) and gives the next
sweep's cone projection.

The affine set is the least-squares one, A X = P t with P the projection
onto range(A), so ``project`` is exact for any t.  A system whose misfit
‖t - P t‖ is within ``tol_feas`` is solved as it stands, and its FEASIBLE
verdict reports as ``residual_affine`` the witness's misfit ‖A X - t‖
against the targets, not its distance to the least-squares set.

Infeasibility is certified, not guessed.  For multipliers λ (one Hermitian
matrix per equation) and W = A†λ, every PSD X with A X = t satisfies

    ⟨λ, t⟩ = ⟨W, X⟩ >= min(0, λ_min(W))·τ,

where τ = sum_x tr first[x] is the total trace of every solution (each R
preserves the trace).  So ``Re⟨λ, t⟩ + τ·max(0, -λ_min(W)) < 0`` is a
Farkas certificate that the intersection is empty (:class:`Certificate`);
W is an incompatibility witness.  The solver tries λ = G⁺(A Y - t) on the
cone-side iterate Y, which makes W = Y - P(Y) the displacement that
alternating projections converge to when the sets are disjoint (Bauschke &
Borwein, "On the convergence of von Neumann's alternating projection
algorithm for two sets", Set-Valued Analysis 1993): W tends to PSD and
⟨λ, t⟩ to minus the squared distance.
The try runs at sweep 1 and every 25 sweeps after, and accepts only below
a rounding margin, so no feasible problem can pass it.  A misfit above
``tol_feas`` is tried once, before any sweep, with λ = (P t - t)/‖P t - t‖,
so W = 0 and ⟨λ, t⟩ = -‖t - P t‖, through the same acceptance test.  So
INFEASIBLE always carries a certificate, and a solve without a witness or a
certificate ends ``Status.UNDECIDED``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Callable, Sequence

import numpy as np

from .linalg import as_hermitian


class NotFeasibleAtOne(ValueError):
    """A robustness family whose fully-noisy endpoint is not feasible."""


class Status(str, enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


# Smallest eigenvalue an affine iterate may have and still count as PSD.
TOL_PSD = 1e-9


@dataclass
class SolverConfig:
    """Settings of :func:`dykstra_solve`.

    ``stall_window`` does nothing; the benchmark's warm-up config sets it.
    """

    tol_feas: float = 1e-7
    max_iter: int = 20000
    stall_window: int = 500
    trace_path: str | None = None

    def __post_init__(self) -> None:
        # NaN fails every comparison and inf passes every one.
        if not (math.isfinite(self.tol_feas) and self.tol_feas > 0):
            raise ValueError(f"tol_feas must be positive and finite, got {self.tol_feas}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class Certificate:
    """A Farkas certificate that a grid has no PSD solution.

    ``multipliers`` holds λ per equation, the n1 first-side matrices then
    the n2 second-side ones; ``value`` is Re⟨λ, t⟩ against the targets and
    ``min_eig`` the smallest eigenvalue of A†λ over the blocks.
    """

    multipliers: list[np.ndarray]
    value: float
    min_eig: float


@dataclass
class FeasibilityVerdict:
    status: Status
    witness: list[np.ndarray] | None
    residual_affine: float
    residual_psd: float = 0.0
    gap_estimate: float = 0.0
    iterations: int = 0
    certificate: Certificate | None = None


# A reduction keeps a block whole (None) or, for a factor shape collapsed to
# (p, k, q) around the traced factor, traces out the k.
_Split = tuple[int, int, int] | None


def _split(shape: tuple[int, ...], traced: int | None) -> _Split:
    if traced is None:
        return None
    return math.prod(shape[:traced]), shape[traced], math.prod(shape[traced + 1 :])


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


def _traced_dim(split: _Split) -> int:
    return 1 if split is None else split[1]


_RANK_CUTOFF = 1e-10  # relative to b, the largest eigenvalue K can have


@lru_cache(maxsize=64)
def _gram_pinv(
    shape: tuple[int, ...], n1: int, n2: int, trace_first: int | None, trace_second: int | None
) -> tuple[np.ndarray, int]:
    """``G⁺`` and ``rank(A)`` of a grid layout; see the module docstring.

    Write K⁺[c] for K's pseudo-inverse with c in place of 0 on K's null
    space, 1 for the all-ones column and s = (a + b)².  Then

        G⁺ = [[I/a + (n2/a²)·11ᵀ⊗M K⁺[-(2a+b)/s] M†,   -(1/a)·J⊗M K⁺[-a/s]],
              [its transpose,                    I/b + 11ᵀ⊗(K⁺[b/s] - I/b)/n2]].

    With every c = 0 this is the block-elimination inverse, which is only a
    generalized inverse when K is singular: each null vector q of K gives
    the null vector (-(n2/a)·1⊗M q, 1⊗q) of G.  The values of c remove that
    null space, which makes it the Moore-Penrose inverse, so the starting
    point and the misfit of an inconsistent system are least-squares ones.
    """
    s1, s2 = _split(shape, trace_first), _split(shape, trace_second)
    dim = math.prod(shape)
    o1, o2 = dim // _traced_dim(s1), dim // _traced_dim(s2)
    a, b = n2 * _traced_dim(s1), n1 * _traced_dim(s2)
    units = np.eye(o2 * o2).reshape(-1, o2, o2)
    m = _reduce(_embed(units, s2), s1).reshape(o2 * o2, o1 * o1).T  # R1 R2†
    w, v = np.linalg.eigh(b * np.eye(o2 * o2) - (n1 * n2 / a) * (m.T @ m))
    keep = w > _RANK_CUTOFF * b

    def k_pinv(on_null: float) -> np.ndarray:
        return (v * np.divide(1.0, w, out=np.full_like(w, on_null), where=keep)) @ v.T

    sq = (a + b) ** 2
    first = np.eye(n1 * o1 * o1) / a + np.kron(
        np.ones((n1, n1)), (n2 / a**2) * m @ k_pinv(-(2 * a + b) / sq) @ m.T
    )
    cross = np.kron(np.ones((n1, n2)), (-1 / a) * m @ k_pinv(-a / sq))
    second = np.eye(n2 * o2 * o2) / b + np.kron(
        np.ones((n2, n2)), (k_pinv(b / sq) - np.eye(o2 * o2) / b) / n2
    )
    pinv = np.block([[first, cross], [cross.T, second]])
    pinv.setflags(write=False)
    return pinv, n1 * o1 * o1 + (n2 - 1) * o2 * o2 + int(np.count_nonzero(keep))


class AffineConstraintSet:
    """The equalities ``A X = t`` of a grid on its stack ``X``; see the
    module docstring.

    ``project`` is exact, ``X - A†(G⁺(A X - t))``, with ``G⁺`` from
    :func:`_gram_pinv`, shared by all grids of one layout.  ``rank`` counts
    the independent real equations, n1·o1² + (n2-1)·o2² + rank(K);
    ``total_size`` the real coordinates n1·n2·D²; ``inconsistency`` the
    misfit ‖t - P t‖, and ``target_residual`` a stack's ‖A X - t‖.
    ``certificate`` and ``misfit_certificate`` try Farkas certificates on a
    cone-side iterate and on the misfit.
    """

    def __init__(self, grid: ConstraintBuilder, rhs: np.ndarray):
        n1, n2 = len(grid.first), len(grid.second)
        dim = math.prod(grid.shape)
        self._grid_shape = (n1, n2, dim, dim)
        self._splits = _split(grid.shape, grid.trace_first), _split(grid.shape, grid.trace_second)
        self._out_dims = tuple(dim // _traced_dim(split) for split in self._splits)
        self._cut = n1 * self._out_dims[0] ** 2
        self.stack_shape = (n1 * n2, dim, dim)
        self.total_size = n1 * n2 * dim * dim
        self._gram_pinv, self.rank = _gram_pinv(
            grid.shape, n1, n2, grid.trace_first, grid.trace_second
        )
        self._rhs = rhs
        x0 = self._adjoint(self._gram_solve(rhs))
        self._misfit = self._apply(x0) - rhs
        self.inconsistency = float(np.linalg.norm(self._misfit))
        # Every solution has this total trace: each R preserves the trace.
        self._total_trace = float(sum(np.trace(t).real for t in grid.first))
        self._margin = 1e-9 * (1.0 + float(np.linalg.norm(rhs)))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """A X: the reduced row sums, then the reduced column sums, flattened."""
        blocks = x.reshape(self._grid_shape)
        s1, s2 = self._splits
        return np.concatenate(
            [_reduce(blocks.sum(axis=1), s1).ravel(), _reduce(blocks.sum(axis=0), s2).ravel()]
        )

    def _adjoint(self, r: np.ndarray) -> np.ndarray:
        """A† r: a stack of blocks."""
        n1, n2, dim, _ = self._grid_shape
        s1, s2 = self._splits
        rows = _embed(r[: self._cut], s1).reshape(n1, 1, dim, dim)
        cols = _embed(r[self._cut :], s2).reshape(1, n2, dim, dim)
        return (rows + cols).reshape(self.stack_shape)

    def _gram_solve(self, r: np.ndarray) -> np.ndarray:
        """G⁺ r.  G⁺ is real, so it acts on the real and imaginary parts as
        two columns of one real matmul."""
        return (self._gram_pinv @ r.view(float).reshape(-1, 2)).view(complex)[:, 0]

    def certificate(self, y: np.ndarray) -> Certificate | None:
        """The Farkas certificate λ = G⁺(A y - t) read off a cone-side
        iterate ``y`` (see the module docstring), or None when its bound
        does not clear the rounding margin."""
        return self._certify(self._gram_solve(self._apply(y) - self._rhs))

    def misfit_certificate(self) -> Certificate | None:
        """The certificate λ = (P t - t)/‖P t - t‖ of an inconsistent
        system, for which A†λ = 0 and Re⟨λ, t⟩ = -‖t - P t‖, or None when
        that does not clear the rounding margin (λ = 0 without a misfit)."""
        return self._certify(self._misfit / (self.inconsistency or 1.0))

    def _certify(self, lam: np.ndarray) -> Certificate | None:
        """Accept λ when Re⟨λ, t⟩ + τ·max(0, -λ_min(A†λ)) < -margin."""
        w = self._adjoint(lam)
        value = float(np.vdot(lam, self._rhs).real)
        min_eig = _min_eig(w)
        if value + self._total_trace * max(0.0, -min_eig) >= -self._margin:
            return None
        (n1, n2, _, _), (o1, o2) = self._grid_shape, self._out_dims
        multipliers = [*lam[: self._cut].reshape(n1, o1, o1), *lam[self._cut :].reshape(n2, o2, o2)]
        return Certificate([(m + m.conj().T) / 2 for m in multipliers], value, min_eig)

    def target_residual(self, x: np.ndarray) -> float:
        """‖A x - t‖: how far ``x`` misses the targets themselves."""
        return float(np.linalg.norm(self._apply(x) - self._rhs))

    def project(self, x: np.ndarray) -> np.ndarray:
        """The exact projection onto the least-squares affine set."""
        return x - self._adjoint(self._gram_solve(self._apply(x) - self._rhs))


@dataclass(frozen=True)
class ConstraintBuilder:
    """A grid problem: PSD blocks X_xy (x < n1 = len(first), y < n2 =
    len(second)) of factor shape ``shape`` with

        sum_y R1(X_xy) = first[x]   and   sum_x R2(X_xy) = second[y],

    where R1 (R2) traces out factor ``trace_first`` (``trace_second``), or
    is the identity when that is None.  ``build`` checks the targets and
    returns the :class:`AffineConstraintSet`.
    """

    shape: tuple[int, ...]
    first: Sequence[np.ndarray]
    second: Sequence[np.ndarray]
    trace_first: int | None = None
    trace_second: int | None = None

    def build(self) -> AffineConstraintSet:
        rhs = []
        for targets, traced in ((self.first, self.trace_first), (self.second, self.trace_second)):
            if traced is not None and not 0 <= traced < len(self.shape):
                raise ValueError(f"traced factor {traced} is outside the block shape {self.shape}")
            out = math.prod(self.shape) // (1 if traced is None else self.shape[traced])
            for target in targets:
                target = as_hermitian(target, tol=1e-9)
                if target.shape != (out, out):
                    raise ValueError(f"target of shape {target.shape} does not match dim {out}")
                rhs.append(target.ravel())
        return AffineConstraintSet(self, np.concatenate(rhs))


def _psd_part(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection onto the PSD cone of the stack with eigenpairs ``(w, v)``."""
    y = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().swapaxes(1, 2)
    return (y + y.conj().swapaxes(1, 2)) / 2


def _min_eig(x: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(x)[:, 0].min())


def _blocks(x: np.ndarray) -> list[np.ndarray]:
    return list((x + x.conj().swapaxes(1, 2)) / 2)


_CHECK_EVERY = 25


def dykstra_solve(cs: AffineConstraintSet, cfg: SolverConfig | None = None) -> FeasibilityVerdict:
    """Decide whether the affine set intersects the PSD product cone.

    A system whose least-squares misfit exceeds ``tol_feas`` is decided
    before any sweep: Infeasible when its misfit certificate verifies,
    Undecided otherwise.  Any other starts from the affine projection of
    zero, and each sweep projects onto the cone and back onto the affine
    set.  Feasible is declared as soon as either iterate satisfies the other
    constraint within tolerance.  Infeasible is declared only when a Farkas
    certificate read off the cone-side iterate verifies (tried at sweep 1
    and every 25 sweeps); the verdict carries it.  Otherwise Undecided at
    ``max_iter``.  ``cfg.trace_path``, when set, gets the per-sweep log.

    Within a sweep, the gap exit and the certificate try come before the
    eigendecomposition of the new affine iterate, so a solve that ends there
    pays only an eigenvalue solve of that iterate, for its report.

    The procedure is deterministic: identical problems and configs give
    identical verdicts and iteration counts.
    """
    cfg = cfg or SolverConfig()
    if not cfg.trace_path:
        return _alternate(cs, cfg, None)
    with open(cfg.trace_path, "a") as trace:
        return _alternate(cs, cfg, trace)


def _alternate(
    cs: AffineConstraintSet, cfg: SolverConfig, trace: IO[str] | None
) -> FeasibilityVerdict:
    gap, neg, it = cs.inconsistency, 0.0, 0

    def verdict(
        status: Status, witness=None, affine=None, psd=None, certificate=None
    ) -> FeasibilityVerdict:
        return FeasibilityVerdict(
            status=status,
            witness=witness,
            residual_affine=gap if affine is None else affine,
            residual_psd=max(0.0, -neg) if psd is None else psd,
            gap_estimate=gap,
            iterations=it,
            certificate=certificate,
        )

    if cs.inconsistency > cfg.tol_feas:
        cert = cs.misfit_certificate()
        return verdict(Status.UNDECIDED if cert is None else Status.INFEASIBLE, certificate=cert)
    if trace is not None:
        trace.write(
            f"# solve: blocks={'x'.join(map(str, cs.stack_shape))} rows={cs.rank} "
            f"tol_feas={cfg.tol_feas:g}\n"
        )

    x = cs.project(np.zeros(cs.stack_shape, dtype=complex))
    w, v = np.linalg.eigh(x)
    gap, neg = np.inf, -np.inf

    def log() -> None:
        if trace is not None:
            trace.write(f"{it},{gap:.6e},{max(0.0, -neg):.6e}\n")

    for it in range(1, cfg.max_iter + 1):
        y = _psd_part(w, v)
        x = cs.project(y)
        gap = float(np.linalg.norm(y - x))

        if gap <= cfg.tol_feas:
            neg = _min_eig(x)
            log()
            return verdict(
                Status.FEASIBLE, _blocks(y), affine=cs.target_residual(y), psd=max(0.0, -_min_eig(y))
            )
        if (it == 1 or it % _CHECK_EVERY == 0) and (cert := cs.certificate(y)) is not None:
            neg = _min_eig(x)
            log()
            return verdict(Status.INFEASIBLE, certificate=cert)
        w, v = np.linalg.eigh(x)
        neg = float(w[:, 0].min())
        log()
        if neg >= -TOL_PSD:
            return verdict(Status.FEASIBLE, _blocks(x), affine=cs.target_residual(x))
    return verdict(Status.UNDECIDED)


ROBUSTNESS_PRECISION = 1e-3


def robustness_bisect(
    problem_family: Callable[[float], AffineConstraintSet],
    cfg: SolverConfig | None = None,
) -> float:
    """Smallest noise level t in [0, 1] at which the family turns feasible,
    to within ``ROBUSTNESS_PRECISION``.

    ``problem_family(t)`` must be monotone: feasible at t implies feasible at
    every larger t, with t=1 (fully noisy devices) feasible.  Returns 0.0
    when the noiseless problem is already feasible.  Undecided probes are
    treated as not-feasible, which can only bias the answer upward, but not
    only by the bisection precision: an undecided probe at a ``mid`` above
    the true threshold sets ``lo = mid``, so the bias can be as large as
    ``mid`` minus the threshold.
    """
    cfg = cfg or SolverConfig()
    if dykstra_solve(problem_family(1.0), cfg).status is not Status.FEASIBLE:
        raise NotFeasibleAtOne("family is not feasible even at full noise (t=1)")
    if dykstra_solve(problem_family(0.0), cfg).status is Status.FEASIBLE:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > ROBUSTNESS_PRECISION:
        mid = 0.5 * (lo + hi)
        if dykstra_solve(problem_family(mid), cfg).status is Status.FEASIBLE:
            hi = mid
        else:
            lo = mid
    return hi
