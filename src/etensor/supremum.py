"""Numerical supremum of tensor components over products of local unitaries.

Basis-dependent components (any subset smaller than the whole state) only
become an entanglement figure after maximizing over local bases.  The
search is a multi-start ascent:

* restart 0 always begins from the identity, so the reported best is never
  below the component of the input basis;
* every other restart begins from independent per-party unitaries drawn
  uniformly (QR of complex Gaussians with the phase fix);
* a restart's only state is its current per-party unitaries.  A step of
  length t along a direction multiplies each moving party's unitary on the
  left by exp(t A_j), where A_j is the anti-Hermitian matrix of that
  party's dim^2 coordinates of the direction: steepest ascent on U(dim)
  from the current point (Abrudan, Eriksson & Koivunen, IEEE Trans. Signal
  Process. 56, 1134 (2008)).  The objective is climbed by central
  finite-difference gradient ascent with a backtracking (and
  greedy-doubling) line search.

The gradient is taken at the current point tensor.  Because steps multiply
on the left, a probe of party j is exp(+-h G_k) applied to axis j of that
tensor, for each of the dim^2 generators G_k.  So the 2 * dim^2 probe
unitaries of a dimension are one fixed stack, built once per search, and a
gradient runs no ``eigh`` and re-applies no other party's unitary.  The
probes of one party are applied with one matmul per pass of the batched
kernel, and ``_Objective.scores`` scores the ``(P, *dims)`` stack of a pass
with one call of each subset's evaluator from
:func:`etensor.tensor.component_evaluator`.  A pass holds as many probes as
one kernel pass of every evaluator takes: the whole stack on small states,
one probe on large ones, so a gradient never holds more probe tensors than
one pass.  Line-search points take one stacked ``eigh`` per dimension for
their step unitaries and are scored the same way, as stacks of one.

Directions that cannot change the value are not probed.  A pair component
is sqrt(2 sum_s p_s (1 - Tr rho_s^2)) over the sectors s of the other
parties, and unitaries on the pair's own two parties leave every p_s and
Tr rho_s^2 as they are (Rungta et al., PRA 64, 042315 (2001)).  The
objective holds this fact once, as a table of the subsets each party's
unitary can change.  A party with none keeps its start unitary, which is
applied to the state once per restart; a single-pair search moves only the
other M - 2 parties.  A probe on party j evaluates only party j's subsets,
and every pair that contains j keeps its current value.

The objective has absolute-value kinks, so a restart simply stops when the
line search stalls below the step tolerance.  Each restart reports why it
stopped, how many iterations and objective evaluations it took, and its
wall time.  Identical configurations and seeds reproduce identical
trajectories and results; restarts draw from independently spawned seed
streams, so a parallel execution order would not change the outcome.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .localops import LocalUnitary, _apply_matrix, apply_local
from .states import PartyStructure, StateVector
from .tensor import (
    DEFAULT_SCHEME,
    NormalizationScheme,
    SubsetSelector,
    component_evaluator,
)

GRADIENT_STEP = 1e-6
INITIAL_STEP = 0.5
MAX_STEP = 4.0
# Restarts one search may ask for; each spawns a seed stream up front.
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start search budget and tolerances."""

    restarts: int = 32
    max_iters: int = 500
    step_tol: float = 1e-8
    value_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(
                f"restarts must be between 1 and {MAX_RESTARTS:,}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not all(math.isfinite(t) and t > 0.0
                   for t in (self.step_tol, self.value_tol)):
            raise ValueError("tolerances must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended and what it cost.

    ``stop_reason`` is ``grad_zero`` (the gradient vanished),
    ``line_search_stall`` (no step down to ``step_tol`` improved the value),
    ``value_tol`` (the last accepted step gained less than ``value_tol``) or
    ``max_iters``.  ``evaluations`` counts every point at which the
    objective was evaluated, gradient probes included.
    """

    stop_reason: str
    iterations: int
    evaluations: int
    seconds: float


@dataclass(frozen=True)
class SupremumResult:
    """Best value found, the unitaries that achieve it, per-restart bests.

    ``restarts`` holds one :class:`RestartRecord` per restart, in order.
    """

    best_value: float
    best_unitaries: tuple[LocalUnitary, ...]
    restart_values: tuple[float, ...]
    best_restart: int
    restarts: tuple[RestartRecord, ...]

    def apply_to(self, state: StateVector) -> StateVector:
        """Re-apply the winning unitaries; certifies the reported value."""
        for unitary in self.best_unitaries:
            state = apply_local(state, unitary)
        return state


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    z /= math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@functools.lru_cache(maxsize=None)
def _generators(dim: int) -> np.ndarray:
    """Row k is the flattened anti-Hermitian generator of parameter k.

    The first ``dim`` parameters are the diagonal phases; then each pair
    p < q in row-major order takes two, the real and imaginary parts of the
    entry (p, q).
    """
    gens = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    gens[np.arange(dim), np.arange(dim), np.arange(dim)] = 1j
    k = dim
    for p in range(dim):
        for q in range(p + 1, dim):
            gens[k, p, q], gens[k, q, p] = 1.0, -1.0
            gens[k + 1, p, q] = gens[k + 1, q, p] = 1j
            k += 2
    gens = gens.reshape(dim * dim, dim * dim)
    gens.flags.writeable = False
    return gens


def _antihermitian(theta: np.ndarray, dim: int) -> np.ndarray:
    """Anti-Hermitian ``(..., dim, dim)`` matrices from ``(..., dim^2)`` parameters.

    Each entry has at most one generator with a nonzero coefficient of
    modulus 1, so the product is exact.
    """
    return (theta @ _generators(dim)).reshape(theta.shape[:-1] + (dim, dim))


def _unitary_exp(antiherm: np.ndarray) -> np.ndarray:
    """exp(A) for a stack of anti-Hermitian A, exactly unitary up to round-off."""
    eigvals, eigvecs = np.linalg.eigh(-1j * antiherm)
    return (eigvecs * np.exp(1j * eigvals)[..., None, :]) @ np.swapaxes(
        eigvecs.conj(), -1, -2
    )


class _Objective:
    """Components of some subsets, combined by ``min`` or ``mean``.

    Each subset has one evaluator from :func:`component_evaluator`, and
    :meth:`scores` runs them on a ``(P, *dims)`` stack: a line-search point
    is a stack of one, a gradient pass a stack of probes on one party.
    ``batch`` is the number of probe tensors that one kernel pass of every
    evaluator takes.  ``changed_by[j]`` lists the subsets whose component
    party j's unitary can change: all but the pairs that contain j.
    ``frozen`` lists the parties that change none, which are never probed.
    ``moving`` lists the others with the slice of a direction vector each
    one owns, and ``probes`` holds each moving dimension's exp(+h G_k) then
    exp(-h G_k).
    """

    def __init__(
        self,
        structure: PartyStructure,
        subsets: Sequence[SubsetSelector],
        scheme: NormalizationScheme,
        combine: str,
    ) -> None:
        dims = structure.dims
        self.dims = dims
        self.evaluators = [
            component_evaluator(structure, subset, scheme) for subset in subsets
        ]
        self.batch = min(evaluate.batch for evaluate in self.evaluators)
        self.combine = combine
        # a pair component ignores unitaries on its own two parties
        self.changed_by = [
            [row for row, subset in enumerate(subsets)
             if not (subset.size == 2 and j in subset.parties)]
            for j in range(len(dims))
        ]
        self.frozen = tuple(j for j, rows in enumerate(self.changed_by) if not rows)
        self.moving = []
        offset = 0
        for j, n in enumerate(dims):
            if j not in self.frozen:
                self.moving.append((j, offset, offset + n * n))
                offset += n * n
        self.num_params = offset
        # moving parties of one dimension get their unitaries in one call
        self.blocks = []
        for n in sorted({dims[j] for j, _, _ in self.moving}):
            same = [(j, a, b) for j, a, b in self.moving if dims[j] == n]
            self.blocks.append((n, [j for j, _, _ in same],
                                np.array([np.arange(a, b) for _, a, b in same])))
        self.probes = {
            n: _unitary_exp(_antihermitian(
                GRADIENT_STEP * np.concatenate([np.eye(n * n), -np.eye(n * n)]), n))
            for n, _, _ in self.blocks
        }

    def scores(
        self,
        stack: np.ndarray,
        party: int | None = None,
        values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(len(subsets), P)`` rows of components and the combined objective.

        With ``party``, the ``(P, *dims)`` stack differs only on that party
        from a point whose rows are ``values``, so only the rows in
        ``changed_by[party]`` are evaluated.  The mean sums the rows in
        order: numpy's pairwise sum would score a stack of one differently
        from eight rows on.
        """
        rows = np.empty((len(self.evaluators), len(stack)))
        if party is None:
            changed = range(len(rows))
        else:
            rows[:] = values
            changed = self.changed_by[party]
        for row in changed:
            rows[row] = self.evaluators[row](stack)
        if self.combine == "min":
            return rows, rows.min(axis=0)
        return rows, sum(rows) / len(rows)

    def stepped(
        self, mats: list[np.ndarray], direction: np.ndarray
    ) -> list[np.ndarray]:
        """``mats`` with each moving party's unitary left-multiplied by exp(A_j).

        A_j is the anti-Hermitian matrix of party j's slice of ``direction``;
        the parties of one dimension get theirs from one stacked ``eigh``.
        """
        mats = list(mats)
        for n, parties, index in self.blocks:
            exps = _unitary_exp(_antihermitian(direction[index], n))
            for j, exp in zip(parties, exps):
                mats[j] = exp @ mats[j]
        return mats

    def gradient(self, point: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Central-difference gradient of :meth:`stepped` at the point tensor.

        ``values`` are the rows of :meth:`scores` at ``point``.  Each moving
        party's fixed probe stack is applied to its axis of ``point`` and
        scored ``batch`` probes at a time.
        """
        grad = np.empty(self.num_params)
        for j, a, b in self.moving:
            probes = self.probes[self.dims[j]]
            probed = np.empty(len(probes))
            for start in range(0, len(probes), self.batch):
                part = slice(start, start + self.batch)
                probed[part] = self.scores(_apply_matrix(probes[part], point, j), j,
                                           values)[1]
            grad[a:b] = (probed[:b - a] - probed[b - a:]) / (2.0 * GRADIENT_STEP)
        return grad


def _ascend(
    psi: np.ndarray,
    starts: list[np.ndarray],
    objective: _Objective,
    config: OptimizerConfig,
) -> tuple[float, list[np.ndarray], list[float], RestartRecord]:
    """Single restart; returns (value, unitaries, accepted-value trace, record)."""
    began = time.perf_counter()
    base = psi
    for j in objective.frozen:
        base = _apply_matrix(starts[j], base, j)
    evaluations = 0

    def scored(mats: list[np.ndarray]):
        """(objective, unitaries, point tensor, components) at ``mats``."""
        nonlocal evaluations
        evaluations += 1
        point = base
        for j, _, _ in objective.moving:
            point = _apply_matrix(mats[j], point, j)
        values, combined = objective.scores(point[None])
        return float(combined[0]), mats, point, values

    current, mats, point, values = scored(list(starts))
    trace = [current]
    step = INITIAL_STEP
    stop_reason = "max_iters"
    iterations = 0
    while iterations < config.max_iters:
        iterations += 1
        grad = objective.gradient(point, values)
        evaluations += 2 * len(grad)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < 1e-12:
            stop_reason = "grad_zero"
            break
        direction = grad / grad_norm
        trial_step = step
        accepted = False
        while trial_step >= config.step_tol:
            candidate = scored(objective.stepped(mats, trial_step * direction))
            if candidate[0] > current:
                # ride the ray while it keeps paying
                while trial_step * 2.0 <= MAX_STEP:
                    extended = scored(
                        objective.stepped(mats, 2.0 * trial_step * direction))
                    if extended[0] > candidate[0]:
                        trial_step *= 2.0
                        candidate = extended
                    else:
                        break
                improvement = candidate[0] - current
                current, mats, point, values = candidate
                trace.append(current)
                step = trial_step
                accepted = True
                break
            trial_step /= 2.0
        if not accepted:
            stop_reason = "line_search_stall"
            break
        if improvement < config.value_tol:
            stop_reason = "value_tol"
            break
    record = RestartRecord(stop_reason, iterations, evaluations,
                           time.perf_counter() - began)
    return current, mats, trace, record


def maximize_component(
    state: StateVector,
    subset: SubsetSelector,
    scheme: NormalizationScheme = DEFAULT_SCHEME,
    config: OptimizerConfig = OptimizerConfig(),
) -> SupremumResult:
    """Largest component value found for one subset over local bases."""
    return maximize_simultaneous(state, [subset], scheme, config)


def maximize_simultaneous(
    state: StateVector,
    subsets: Sequence[SubsetSelector],
    scheme: NormalizationScheme = DEFAULT_SCHEME,
    config: OptimizerConfig = OptimizerConfig(),
    objective: str = "min",
) -> SupremumResult:
    """Maximize the minimum (or mean) of several components jointly.

    With ``objective="min"`` this looks for a basis in which all listed
    components are large at once; :func:`maximize_component` is this
    search on one subset.
    """
    if not subsets:
        raise ValueError("at least one subset is required")
    if objective not in ("min", "mean"):
        raise ValueError(f"objective must be 'min' or 'mean', got {objective!r}")
    search = _Objective(state.structure, subsets, scheme, objective)
    dims = state.structure.dims
    streams = np.random.SeedSequence(config.seed).spawn(config.restarts)
    runs = []
    for r in range(config.restarts):
        if r == 0:
            starts = [np.eye(n, dtype=np.complex128) for n in dims]
        else:
            rng = np.random.default_rng(streams[r])
            starts = [haar_unitary(n, rng) for n in dims]
        runs.append(_ascend(state.tensor, starts, search, config))
    # max keeps the first restart of the best value
    best = max(range(config.restarts), key=lambda r: runs[r][0])
    return SupremumResult(
        best_value=runs[best][0],
        best_unitaries=tuple(
            LocalUnitary(party, mat) for party, mat in enumerate(runs[best][1])),
        restart_values=tuple(run[0] for run in runs),
        best_restart=best,
        restarts=tuple(run[3] for run in runs),
    )
