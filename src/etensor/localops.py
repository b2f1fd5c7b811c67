"""Local unitaries, computational-basis measurement, regrouping, partial trace.

Everything here acts on one party (or a partition of parties) of an
immutable :class:`~etensor.states.StateVector` and returns a new value.
Measurement is restricted to the computational basis; measuring in another
basis is done by applying a local unitary first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import PartyStructure, StateVector, projection_probability

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
MEASURE_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A unitary matrix acting on a single party."""

    party: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be a square matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("unitary matrix must be finite (got NaN or inf)")
        defect = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if defect > UNITARY_TOL:
            raise ValueError(
                f"matrix is not unitary: max |U^H U - I| = {defect:.3g}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "party", int(self.party))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> LocalUnitary:
        return LocalUnitary(self.party, self.matrix.conj().T)


def hadamard(party: int) -> LocalUnitary:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    return LocalUnitary(party, h)


def phase_gate(party: int, phases: Sequence[float]) -> LocalUnitary:
    """Diagonal gate exp(i*phase_k) per basis value; leaves components unchanged."""
    angles = np.asarray(phases, dtype=float)
    if not np.isfinite(angles).all():
        raise ValueError("phase angles must be finite (got NaN or inf)")
    return LocalUnitary(party, np.diag(np.exp(1j * angles)))


def identity_gate(party: int, dim: int) -> LocalUnitary:
    return LocalUnitary(party, np.eye(dim))


def apply_local(state: StateVector, unitary: LocalUnitary) -> StateVector:
    """Transform the amplitudes on one party's index; the norm is preserved."""
    party = state.structure.check_party(unitary.party)
    if unitary.dim != state.structure.dims[party]:
        raise ValueError(
            f"unitary of dimension {unitary.dim} does not match party {party} "
            f"of dimension {state.structure.dims[party]}"
        )
    out = _apply_matrix(unitary.matrix, state.tensor, party)
    return StateVector(state.structure, out.reshape(-1))


def _apply_matrix(matrix: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """``(..., n, n)`` matrices on one axis of a tensor: ``(..., *tensor.shape)``."""
    dims = tensor.shape
    out = np.matmul(matrix[..., None, :, :],
                    tensor.reshape(math.prod(dims[:axis]), dims[axis], -1))
    return out.reshape(matrix.shape[:-2] + dims)


def measure_party(
    state: StateVector, party: int, outcome: int
) -> tuple[float, StateVector | None]:
    """Project one party onto a basis value and condition the rest.

    Returns the outcome probability and the renormalized state of the
    remaining parties (their original labels are kept).  An outcome with
    probability below ``MEASURE_EPS`` yields ``(0.0, None)``.
    """
    structure = state.structure
    party = structure.check_party(party)
    if structure.num_parties < 2:
        raise ValueError("measuring the only party would leave no state")
    outcome = int(outcome)
    if not 0 <= outcome < structure.dims[party]:
        raise ValueError(
            f"outcome {outcome} out of range for party {party} of dimension "
            f"{structure.dims[party]}"
        )
    prob = projection_probability(state, {party: outcome}).probability
    if prob < MEASURE_EPS:
        return 0.0, None
    conditioned = state.tensor.take(outcome, axis=party) / math.sqrt(prob)
    remaining = PartyStructure(
        dims=tuple(n for i, n in enumerate(structure.dims) if i != party),
        labels=tuple(s for i, s in enumerate(structure.labels) if i != party),
    )
    return prob, StateVector(remaining, conditioned.reshape(-1))


@dataclass(frozen=True)
class PartyGrouping:
    """Ordered partition of party indices into blocks to be merged."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        groups = tuple(tuple(int(p) for p in g) for g in self.groups)
        if not groups or any(not g for g in groups):
            raise ValueError("grouping needs at least one non-empty block")
        flat = [p for g in groups for p in g]
        if len(set(flat)) != len(flat):
            raise ValueError(f"grouping blocks must be disjoint, got {groups}")
        object.__setattr__(self, "groups", groups)

    def validate_for(self, structure: PartyStructure) -> None:
        flat = sorted(p for g in self.groups for p in g)
        if flat != list(range(structure.num_parties)):
            raise ValueError(
                f"grouping {self.groups} must cover all "
                f"{structure.num_parties} parties exactly once"
            )


def regroup(state: StateVector, grouping: PartyGrouping) -> StateVector:
    """Merge each block of parties into a single party of product dimension.

    Pure data movement: amplitudes are permuted and re-indexed, never
    recomputed, so :func:`ungroup` restores the original bit for bit.
    """
    grouping.validate_for(state.structure)
    dims = state.structure.dims
    labels = state.structure.labels
    axis_order = [p for g in grouping.groups for p in g]
    merged_dims = tuple(math.prod(dims[p] for p in g) for g in grouping.groups)
    merged_labels = tuple("+".join(labels[p] for p in g) for g in grouping.groups)
    data = state.tensor.transpose(axis_order).reshape(-1)
    return StateVector(PartyStructure(merged_dims, merged_labels), data)


def ungroup(
    state: StateVector, grouping: PartyGrouping, original: PartyStructure
) -> StateVector:
    """Inverse of :func:`regroup` for the same grouping and original layout."""
    grouping.validate_for(original)
    axis_order = [p for g in grouping.groups for p in g]
    merged_dims = tuple(
        math.prod(original.dims[p] for p in g) for g in grouping.groups
    )
    if state.structure.dims != merged_dims:
        raise ValueError(
            f"state dims {state.structure.dims} do not match the grouping's "
            f"merged dims {merged_dims}"
        )
    split_shape = tuple(original.dims[p] for p in axis_order)
    inverse = np.argsort(axis_order)
    data = state.amplitudes.reshape(split_shape).transpose(inverse).reshape(-1)
    return StateVector(original, data)


def _kept_block(state: StateVector, keep: list[int]) -> np.ndarray:
    """The amplitudes as a (kept dim, rest dim) matrix, kept parties first."""
    structure = state.structure
    rest = [i for i in range(structure.num_parties) if i not in keep]
    kept_dim = math.prod(structure.dims[p] for p in keep)
    return state.tensor.transpose(keep + rest).reshape(kept_dim, -1)


def reduced_density(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of the kept parties (in the order given)."""
    keep = [state.structure.check_party(p) for p in keep]
    if len(set(keep)) != len(keep):
        raise ValueError(f"kept parties must be distinct, got {keep}")
    block = _kept_block(state, keep)
    return block @ block.conj().T


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Two-qubit density operator, or a stack of them, validated on entry.

    ``entries`` is one ``(4, 4)`` matrix or a ``(P, 4, 4)`` stack; a single
    matrix is checked as a stack of one.  Every matrix must be finite,
    Hermitian and of unit trace, with no eigenvalue below
    ``EIGENVALUE_FLOOR``.  Each check runs once over the whole stack, in
    that order, and a matrix that fails one raises the message it would
    raise alone.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=np.complex128)
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
        stack = mat.reshape(-1, 4, 4)
        if not np.isfinite(stack).all():
            raise ValueError("density matrix must be finite (got NaN or inf)")
        if (np.abs(stack - stack.conj().transpose(0, 2, 1)) > HERMITIAN_TOL).any():
            raise ValueError("density matrix must be Hermitian")
        bad = np.abs(stack.trace(axis1=1, axis2=2).real - 1.0) > TRACE_TOL
        if bad.any():
            trace = np.trace(stack[bad.argmax()]).real
            raise ValueError(f"density matrix trace is {trace:.12g}, not 1")
        if (np.linalg.eigvalsh(stack) < EIGENVALUE_FLOOR).any():
            raise ValueError("density matrix has a significantly negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)


def _pair_densities(state: StateVector, pairs: Sequence[Sequence[int]]) -> np.ndarray:
    """The unvalidated ``(P, 4, 4)`` reduced densities of qubit pairs.

    The kept blocks of every pair are stacked ``(P, 4, K)`` and multiplied
    by their adjoints in one matmul.
    """
    structure = state.structure
    if not pairs:
        raise ValueError("at least one pair of parties must be kept")
    blocks = np.empty((len(pairs), 4, structure.total_dim // 4), np.complex128)
    for block, keep in zip(blocks, pairs):
        keep = list(keep)
        if len(keep) != 2:
            raise ValueError(f"exactly two parties must be kept, got {keep}")
        keep = [structure.check_party(p) for p in keep]
        for p in keep:
            if structure.dims[p] != 2:
                raise ValueError(
                    f"kept party {p} has dimension {structure.dims[p]}, "
                    "but the two-qubit reduction requires qubits"
                )
        if keep[0] == keep[1]:
            raise ValueError(f"kept parties must be distinct, got {keep}")
        block[...] = _kept_block(state, keep)
    return blocks @ blocks.conj().transpose(0, 2, 1)


def trace_to_pairs(
    state: StateVector, pairs: Sequence[Sequence[int]]
) -> DensityMatrix:
    """Partial traces down to each of several pairs of kept qubit parties.

    Returns one validated ``(P, 4, 4)`` stack, in the order of ``pairs``.
    """
    return DensityMatrix(_pair_densities(state, pairs))


def trace_to_pair(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace down to two kept qubit parties: a stack of one pair."""
    return DensityMatrix(_pair_densities(state, [keep])[0])
