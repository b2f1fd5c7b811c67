"""Independent concurrence references used to cross-check the tensor engine.

None of these functions call into :mod:`etensor.tensor`; they go through
the spin-flip construction, reduced-state purity, or the mixed-state
eigenvalue formula, so agreement with the tensor components is a genuine
two-path check rather than a tautology.

The mixed-state oracles take a :class:`~etensor.localops.DensityMatrix`
that holds one 4x4 matrix or a ``(P, 4, 4)`` stack, and score a stack with
one stacked ``eigh``, matmul and ``svd``:
:func:`mean_traced_concurrence_squared` traces and scores all C(M, 2)
qubit pairs of a state that way, and :func:`dur_average` is its value on
W_M.  A single matrix is a stack of one and gives a float.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .localops import DensityMatrix, PartyGrouping, reduced_density, trace_to_pairs
from .states import StateVector, w_state

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])

# two-qubit flip operator; real antidiagonal with signs
FLIP_2Q = np.kron(SIGMA_Y, SIGMA_Y).real.copy()
FLIP_2Q.flags.writeable = False


def _require_two_qubits(state: StateVector) -> None:
    if state.structure.dims != (2, 2):
        raise ValueError(
            f"expected a two-qubit state, got dims {state.structure.dims}"
        )


def spin_flip(state: StateVector) -> StateVector:
    """Conjugate the amplitudes and flip both qubits.

    Applying the flip twice returns the original state exactly; the flip of
    a product state is orthogonal to the original.
    """
    _require_two_qubits(state)
    return StateVector(state.structure, FLIP_2Q @ np.conj(state.amplitudes))


def concurrence_pure_2qubit(state: StateVector) -> float:
    """Overlap magnitude of a two-qubit pure state with its spin flip.

    Equals 2|a00*a11 - a01*a10| and lies in [0, 1]: 0 for product states,
    1 for maximally entangled ones.
    """
    _require_two_qubits(state)
    a = state.amplitudes
    return float(abs(np.conj(a) @ (FLIP_2Q @ np.conj(a))))


def concurrence_purity(state: StateVector, bipartition: PartyGrouping) -> float:
    """Generalized concurrence sqrt(2(1 - Tr rho_A^2)) across a bipartition.

    ``bipartition`` must split the parties into exactly two blocks; the
    reduced operator of the first block is used (either gives the same
    purity for a pure state).
    """
    if len(bipartition.groups) != 2:
        raise ValueError(
            f"bipartition needs exactly two blocks, got {len(bipartition.groups)}"
        )
    bipartition.validate_for(state.structure)
    rho = reduced_density(state, bipartition.groups[0])
    purity = float(np.trace(rho @ rho).real)
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


def _flip_singular_values(rho: DensityMatrix) -> np.ndarray:
    """The decreasing l's of every matrix of ``rho``, one row of four each.

    They are the square roots of the eigenvalues of rho * flip(rho),
    evaluated as the singular values of sqrt(rho) F conj(sqrt(rho)), which
    has the same spectrum but stays accurate on rank-deficient inputs where
    a general eigensolver loses half its digits.  Round-off negatives in
    rho's own spectrum are clamped to zero before the square root.
    """
    stack = rho.entries.reshape(-1, 4, 4)
    eigenvalues, eigenvectors = np.linalg.eigh(stack)
    root = (eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))[:, None, :]) \
        @ eigenvectors.conj().transpose(0, 2, 1)
    bridge = root @ FLIP_2Q @ np.conj(root)
    return np.linalg.svd(bridge, compute_uv=False)


def _per_matrix(rho: DensityMatrix, values: np.ndarray) -> float | np.ndarray:
    """A float for a single matrix, the array of P values for a stack."""
    return float(values[0]) if rho.entries.ndim == 2 else values


def concurrence_mixed_2qubit(rho: DensityMatrix) -> float | np.ndarray:
    """Mixed-state two-qubit concurrence from the flip-product eigenvalues.

    max(0, l1 - l2 - l3 - l4), with the l's of :func:`_flip_singular_values`.
    A single matrix gives a float; a ``(P, 4, 4)`` stack gives P values
    from one stacked ``eigh`` and one stacked ``svd``.
    """
    lams = _flip_singular_values(rho)
    excess = lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3]
    # as max(0.0, x): np.maximum(0.0, -0.0) would keep the sign of -0.0
    return _per_matrix(rho, np.where(excess > 0.0, excess, 0.0))


def concurrence_of_assistance(rho: DensityMatrix) -> float | np.ndarray:
    """Concurrence of assistance l1 + l2 + l3 + l4 of a two-qubit state.

    The largest mean concurrence over the pure-state ensembles of rho
    (Laustsen, Verstraete & van Enk 2003), with the same l's as
    :func:`concurrence_mixed_2qubit`, which it bounds from above.  Every
    qubit pair component of a pure state whose pair reduces to rho is at
    most its square root.  A single matrix gives a float; a stack gives P
    values.
    """
    return _per_matrix(rho, _flip_singular_values(rho).sum(axis=1))


def mean_traced_concurrence_squared(state: StateVector) -> float:
    """Mean squared mixed-state concurrence over every qubit pair of ``state``.

    Each pair is traced out of the others and scored with
    :func:`concurrence_mixed_2qubit`.  All C(M, 2) pairs are traced into
    one ``(P, 4, 4)`` stack, validated and scored together.
    """
    pairs = list(itertools.combinations(range(state.num_parties), 2))
    values = concurrence_mixed_2qubit(trace_to_pairs(state, pairs))
    return float(np.mean(values**2))


def dur_average(num_parties: int) -> float:
    """Mean squared pairwise concurrence of the single-excitation W state.

    :func:`mean_traced_concurrence_squared` of W_M; the closed form of the
    average is 4/M^2.  This is the discard scenario: the other M-2 parties
    are lost, not measured, which is why it sits below the pair components
    of the intact state.
    """
    m = int(num_parties)
    if not 3 <= m <= 10:
        raise ValueError(f"party count must be between 3 and 10, got {m}")
    return mean_traced_concurrence_squared(w_state(m))
