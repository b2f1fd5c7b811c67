"""Party structures, pure-state amplitude vectors, and projection probabilities.

A multipartite pure state is stored as a dense complex vector over the
mixed-radix index space defined by the per-party dimensions.  Index order is
row-major with party 0 outermost, so for qubits the flat index is just the
binary reading of the index tuple.  All values here are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-9        # allowed deviation of the squared norm at construction
MAX_TOTAL_DIM = 1 << 24  # most amplitudes a parsed input may ask to allocate


class NormalizationError(ValueError):
    """Amplitudes do not form a unit vector and no rescaling was requested."""


@dataclass(frozen=True)
class PartyStructure:
    """Subsystem layout: one dimension per party plus optional display labels.

    Every party must have dimension at least 2; a trivial one-dimensional
    factor carries no entanglement and is rejected outright.  Default labels
    are "1".."M" so reports match the usual 1-based party naming.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        if len(dims) < 1:
            raise ValueError("a party structure needs at least one party")
        if any(n < 2 for n in dims):
            raise ValueError(f"every party dimension must be >= 2, got {dims}")
        labels = tuple(str(s) for s in self.labels)
        if not labels:
            labels = tuple(str(i + 1) for i in range(len(dims)))
        if len(labels) != len(dims):
            raise ValueError("labels and dims must have the same length")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    @property
    def num_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def check_party(self, party: int) -> int:
        if not 0 <= party < self.num_parties:
            raise ValueError(
                f"party index {party} out of range for {self.num_parties} parties"
            )
        return int(party)


def flat_index(structure: PartyStructure, index_tuple: Sequence[int]) -> int:
    """Row-major flat index of a mixed-radix index tuple (party 0 outermost)."""
    dims = structure.dims
    if len(index_tuple) != len(dims):
        raise ValueError(
            f"index tuple {tuple(index_tuple)} has wrong arity for dims {dims}"
        )
    flat = 0
    for k, n in zip(index_tuple, dims):
        k = int(k)
        if not 0 <= k < n:
            raise ValueError(f"index component {k} out of range for dimension {n}")
        flat = flat * n + k
    return flat


def tuple_of(structure: PartyStructure, flat: int) -> tuple[int, ...]:
    """Inverse of :func:`flat_index`."""
    flat = int(flat)
    if not 0 <= flat < structure.total_dim:
        raise ValueError(
            f"flat index {flat} out of range for total dimension {structure.total_dim}"
        )
    out = []
    for n in reversed(structure.dims):
        flat, k = divmod(flat, n)
        out.append(k)
    return tuple(reversed(out))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over a :class:`PartyStructure`.

    The amplitude array is flat, complex128, and read-only.  The constructor
    rejects NaN and infinite amplitudes.  By default it also rejects input
    whose squared norm deviates from 1 by more than ``NORM_TOL``; pass
    ``normalize=True`` to rescale explicitly.  Silent renormalization is
    deliberately not done, so mistyped inputs fail loudly.
    """

    structure: PartyStructure
    amplitudes: np.ndarray
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize: bool) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.structure.total_dim:
            raise ValueError(
                f"amplitude array has length {amps.size}, expected "
                f"{self.structure.total_dim} for dims {self.structure.dims}"
            )
        if not np.isfinite(amps).all():
            raise NormalizationError("amplitudes must be finite (got NaN or inf)")
        norm_sq = float(np.vdot(amps, amps).real)
        if normalize:
            if norm_sq <= 0.0:
                raise NormalizationError("cannot normalize the zero vector")
            amps = amps / math.sqrt(norm_sq)
        elif abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"squared norm is {norm_sq:.12g}, not 1 within {NORM_TOL:g} "
                "(pass normalize=True to rescale)"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (read-only view)."""
        return self.amplitudes.reshape(self.structure.dims)

    @property
    def num_parties(self) -> int:
        return self.structure.num_parties

    def amplitude(self, index_tuple: Sequence[int]) -> complex:
        return complex(self.amplitudes[flat_index(self.structure, index_tuple)])

    def __repr__(self) -> str:
        nonzero = int(np.count_nonzero(self.amplitudes))
        return (
            f"StateVector(dims={self.structure.dims}, "
            f"nonzero_amplitudes={nonzero})"
        )


@dataclass(frozen=True)
class BasisProjection:
    """Outcome of projecting a subset of parties onto computational basis values.

    ``fixed`` maps party index to the projected basis value; ``probability``
    is the total weight of all amplitudes consistent with those values.
    """

    fixed: Mapping[int, int]
    probability: float


def projection_probability(
    state: StateVector, fixed: Mapping[int, int]
) -> BasisProjection:
    """Probability of observing ``fixed`` (party -> basis value) jointly.

    The empty projection, like the sum over any one party's basis values,
    gives the state's squared norm, which is 1 only within ``NORM_TOL``.
    """
    dims = state.structure.dims
    index: list[slice | int] = [slice(None)] * len(dims)
    clean: dict[int, int] = {}
    for party, value in fixed.items():
        party = state.structure.check_party(party)
        value = int(value)
        if not 0 <= value < dims[party]:
            raise ValueError(
                f"basis value {value} out of range for party {party} "
                f"of dimension {dims[party]}"
            )
        index[party] = value
        clean[party] = value
    block = state.tensor[tuple(index)]
    prob = float(np.sum(block.real**2 + block.imag**2))
    return BasisProjection(fixed=clean, probability=prob)


# ---------------------------------------------------------------------------
# Common state builders


def basis_state(structure: PartyStructure, index_tuple: Sequence[int]) -> StateVector:
    amps = np.zeros(structure.total_dim, dtype=np.complex128)
    amps[flat_index(structure, index_tuple)] = 1.0
    return StateVector(structure, amps)


def ghz_state(num_parties: int = 3, dim: int = 2) -> StateVector:
    """Equal superposition of the all-zeros and all-(dim-1) basis states."""
    structure = PartyStructure((dim,) * num_parties)
    amps = np.zeros(structure.total_dim, dtype=np.complex128)
    amps[flat_index(structure, (0,) * num_parties)] = 1.0 / math.sqrt(2)
    amps[flat_index(structure, (dim - 1,) * num_parties)] = 1.0 / math.sqrt(2)
    return StateVector(structure, amps)


def epr_state() -> StateVector:
    """Two-qubit (|00> + |11>)/sqrt(2)."""
    return ghz_state(2)


def w_state(num_parties: int) -> StateVector:
    """Equal superposition of all single-excitation qubit basis states."""
    if num_parties < 2:
        raise ValueError("a W state needs at least 2 parties")
    structure = PartyStructure((2,) * num_parties)
    amps = np.zeros(structure.total_dim, dtype=np.complex128)
    coeff = 1.0 / math.sqrt(num_parties)
    for i in range(num_parties):
        tup = tuple(1 if k == i else 0 for k in range(num_parties))
        amps[flat_index(structure, tup)] = coeff
    return StateVector(structure, amps)


def product_state(local_states: Iterable[Sequence[complex]]) -> StateVector:
    """Tensor product of per-party pure states (each normalized on entry)."""
    vecs = []
    dims = []
    for v in local_states:
        arr = np.asarray(v, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(arr))
        if norm <= 0.0:
            raise ValueError("local state must be nonzero")
        vecs.append(arr / norm)
        dims.append(arr.size)
    structure = PartyStructure(tuple(dims))
    amps = vecs[0]
    for v in vecs[1:]:
        amps = np.kron(amps, v)
    return StateVector(structure, amps)


def random_state(structure: PartyStructure, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state over the full Hilbert space."""
    n = structure.total_dim
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(structure, z / np.linalg.norm(z))


def random_product_state(
    structure: PartyStructure, rng: np.random.Generator
) -> StateVector:
    """Tensor product of independent Haar-random local pure states."""
    draws = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in structure.dims]
    return StateVector(structure, product_state(draws).amplitudes)
