"""Numerical supremum of tensor components over products of local unitaries.

Basis-dependent components (any subset smaller than the whole state) only
become an entanglement figure after maximizing over local bases.  The
search is a multi-start ascent:

* restart 0 always begins from the identity, so the reported best is never
  below the component of the input basis;
* every other restart begins from independent per-party unitaries drawn
  uniformly (QR of complex Gaussians with the phase fix);
* each party's unitary is parameterized as start * exp(A) with A
  anti-Hermitian built from dim^2 real parameters, and the objective is
  climbed by central finite-difference gradient ascent with a backtracking
  (and greedy-doubling) line search.

The objective has absolute-value kinks, so a restart simply stops when the
line search stalls below the step tolerance.  Identical configurations and
seeds reproduce identical trajectories and results; restarts draw from
independently spawned seed streams, so a parallel execution order would not
change the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .localops import LocalUnitary, _apply_matrix, apply_local
from .states import StateVector
from .tensor import (
    DEFAULT_SCHEME,
    NormalizationScheme,
    SubsetSelector,
    component_evaluator,
)

GRADIENT_STEP = 1e-6
INITIAL_STEP = 0.5
MAX_STEP = 4.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start search budget and tolerances."""

    restarts: int = 32
    max_iters: int = 500
    step_tol: float = 1e-8
    value_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.step_tol <= 0.0 or self.value_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SupremumResult:
    """Best value found, the unitaries that achieve it, per-restart bests."""

    best_value: float
    best_unitaries: tuple[LocalUnitary, ...]
    restart_values: tuple[float, ...]
    best_restart: int

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


def _antihermitian(theta: np.ndarray, dim: int) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[np.arange(dim), np.arange(dim)] = 1j * theta[:dim]
    k = dim
    for p in range(dim):
        for q in range(p + 1, dim):
            re, im = theta[k], theta[k + 1]
            k += 2
            mat[p, q] = re + 1j * im
            mat[q, p] = -re + 1j * im
    return mat


def _unitary_exp(antiherm: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A, exactly unitary up to round-off."""
    dim = antiherm.shape[0]
    if dim == 2:
        # closed form via the Pauli decomposition of H = -iA
        h00 = antiherm[0, 0].imag
        h11 = antiherm[1, 1].imag
        od = -1j * antiherm[0, 1]
        mean = 0.5 * (h00 + h11)
        dz = 0.5 * (h00 - h11)
        angle = math.sqrt(dz * dz + od.real * od.real + od.imag * od.imag)
        phase = complex(math.cos(mean), math.sin(mean))
        if angle < 1e-300:
            return np.array([[phase, 0.0], [0.0, phase]])
        c = math.cos(angle)
        s = math.sin(angle) / angle
        return phase * np.array(
            [[c + 1j * s * dz, 1j * s * od],
             [1j * s * od.conjugate(), c - 1j * s * dz]]
        )
    eigvals, eigvecs = np.linalg.eigh(-1j * antiherm)
    return (eigvecs * np.exp(1j * eigvals)) @ eigvecs.conj().T


def _ascend(
    psi: np.ndarray,
    dims: tuple[int, ...],
    starts: list[np.ndarray],
    objective: Callable[[np.ndarray], float],
    config: OptimizerConfig,
) -> tuple[float, list[np.ndarray], list[float]]:
    """Single restart; returns (value, unitaries, accepted-value trace)."""
    slices: list[tuple[int, int]] = []
    offset = 0
    for n in dims:
        slices.append((offset, offset + n * n))
        offset += n * n
    theta = np.zeros(offset)

    def unitaries_of(th: np.ndarray) -> list[np.ndarray]:
        return [
            start @ _unitary_exp(_antihermitian(th[a:b], n))
            for start, (a, b), n in zip(starts, slices, dims)
        ]

    def value_of(th: np.ndarray) -> float:
        out = psi
        for axis, mat in enumerate(unitaries_of(th)):
            out = _apply_matrix(mat, out, axis)
        return objective(out)

    current = value_of(theta)
    trace = [current]
    step = INITIAL_STEP
    for _ in range(config.max_iters):
        grad = np.zeros_like(theta)
        mats = unitaries_of(theta)
        for j, n in enumerate(dims):
            rest = psi
            for axis, mat in enumerate(mats):
                if axis != j:
                    rest = _apply_matrix(mat, rest, axis)
            a, b = slices[j]
            base = theta[a:b]
            for p in range(b - a):
                plus = base.copy()
                plus[p] += GRADIENT_STEP
                up = starts[j] @ _unitary_exp(_antihermitian(plus, n))
                f_plus = objective(_apply_matrix(up, rest, j))
                minus = base.copy()
                minus[p] -= GRADIENT_STEP
                um = starts[j] @ _unitary_exp(_antihermitian(minus, n))
                f_minus = objective(_apply_matrix(um, rest, j))
                grad[a + p] = (f_plus - f_minus) / (2.0 * GRADIENT_STEP)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < 1e-12:
            break
        direction = grad / grad_norm
        trial_step = step
        accepted = False
        while trial_step >= config.step_tol:
            candidate = value_of(theta + trial_step * direction)
            if candidate > current:
                # ride the ray while it keeps paying
                while trial_step * 2.0 <= MAX_STEP:
                    extended = value_of(theta + 2.0 * trial_step * direction)
                    if extended > candidate:
                        trial_step *= 2.0
                        candidate = extended
                    else:
                        break
                theta = theta + trial_step * direction
                improvement = candidate - current
                current = candidate
                trace.append(current)
                step = trial_step
                accepted = True
                break
            trial_step /= 2.0
        if not accepted:
            break
        if improvement < config.value_tol:
            break
    return current, unitaries_of(theta), trace


def _maximize(
    state: StateVector,
    objective: Callable[[np.ndarray], float],
    config: OptimizerConfig,
) -> SupremumResult:
    dims = state.structure.dims
    psi = state.tensor
    streams = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best_value = -math.inf
    best_mats: list[np.ndarray] = []
    best_index = 0
    restart_values: list[float] = []
    for r in range(config.restarts):
        if r == 0:
            starts = [np.eye(n, dtype=np.complex128) for n in dims]
        else:
            rng = np.random.default_rng(streams[r])
            starts = [haar_unitary(n, rng) for n in dims]
        value, mats, _ = _ascend(psi, dims, starts, objective, config)
        restart_values.append(value)
        if value > best_value:
            best_value = value
            best_mats = mats
            best_index = r
    unitaries = tuple(
        LocalUnitary(party, mat) for party, mat in enumerate(best_mats)
    )
    return SupremumResult(
        best_value=best_value,
        best_unitaries=unitaries,
        restart_values=tuple(restart_values),
        best_restart=best_index,
    )


def maximize_component(
    state: StateVector,
    subset: SubsetSelector,
    scheme: NormalizationScheme = DEFAULT_SCHEME,
    config: OptimizerConfig = OptimizerConfig(),
) -> SupremumResult:
    """Largest component value found for one subset over local bases."""
    evaluator = component_evaluator(state.structure, subset, scheme)
    return _maximize(state, evaluator, config)


def maximize_simultaneous(
    state: StateVector,
    subsets: Sequence[SubsetSelector],
    scheme: NormalizationScheme = DEFAULT_SCHEME,
    config: OptimizerConfig = OptimizerConfig(),
    objective: str = "min",
) -> SupremumResult:
    """Maximize the minimum (or mean) of several components jointly.

    With ``objective="min"`` this looks for a basis in which all listed
    components are large at once; a single-subset list degenerates to
    :func:`maximize_component`.
    """
    if not subsets:
        raise ValueError("at least one subset is required")
    if objective not in ("min", "mean"):
        raise ValueError(f"objective must be 'min' or 'mean', got {objective!r}")
    evaluators = [
        component_evaluator(state.structure, subset, scheme) for subset in subsets
    ]
    if len(evaluators) == 1:
        combined = evaluators[0]
    elif objective == "min":
        def combined(tensor: np.ndarray) -> float:
            return min(ev(tensor) for ev in evaluators)
    else:
        def combined(tensor: np.ndarray) -> float:
            return sum(ev(tensor) for ev in evaluators) / len(evaluators)
    return _maximize(state, combined, config)
