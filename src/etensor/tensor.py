"""Entanglement tensor components of pure multipartite states.

For a chosen subset of D parties, the component measures how far the state
is from factoring across that subset.  It is built from pairwise
permutation differences of amplitude products:

* Fix an outcome for every *unselected* party.  Each such sector is
  weighted by the reciprocal of its probability; a zero-probability sector
  contributes exactly 0 (all of its amplitudes vanish, so 0/0 is resolved
  to 0).
* For each selected party pick a pair of basis values (k < l).  The lowest
  selected party is the anchor and is never permuted.  Starting from the
  highest selected party, form the amplitude-product difference under a
  k/l swap and reduce it by squared magnitude; each remaining party, in
  descending order, contributes the plain absolute difference between the
  inner value and the inner value with that party's k/l swap applied.
* The component is the square root of the normalization constant times the
  weighted sum over all sectors and pair choices.

With the default constant 4 the single component of a two-qubit state is
the familiar concurrence, and a maximally entangled pair scores exactly 1.
For three or more parties the values depend on the local basis; see
:mod:`etensor.supremum` for the basis search.

Evaluation runs in numpy, with no Python loop over pair choices.  The
amplitudes are transposed so that the selected parties lead, in nesting
order, and the unselected parties are flattened into S sectors.
:func:`full_tensor` stacks the subsets of one size that share their
selected dims into one ``(B, *selected_dims, S)`` array; an evaluator from
:func:`component_evaluator` uses a stack of one.  Each selected axis of
dimension d > 2 is gathered with ``np.take`` and its ``(C(d, 2), 2)`` array
of pairs, which turns it into a pair-choice axis and a k/l axis; a qubit
axis already is its own k/l axis.  The nested reduction above then runs
once, with the subset and pair-choice axes leading, and the weighted sums
are added up per subset.  One pass holds at most ``GATHER_BUDGET_BYTES``
of stacked, gathered and multiplied amplitudes, and the index that
gathers them: :func:`full_tensor` puts as many subsets into a pass as fit,
and a subset that does not fit alone is split into windows of pair choices.

What :func:`full_tensor` does for one subset size depends only on the
dims, so it is built once as a plan and kept in an LRU cache of
``PLAN_CACHE_SIZE`` entries keyed on ``(dims, size, GATHER_BUDGET_BYTES)``,
with the budget read at call time.  A plan holds the size's selectors in
lexicographic order and groups them by transposed shape (selected dims,
then the others in ascending party order); each pass gathers its stack
with one ``take`` off the flat amplitudes.  Plans hold no amplitudes and
no per-subset index tables: per subset one place, one selector and one
stride per party, and per transposed shape two digit tables of about
``M * sqrt(total_dim)`` entries.  The index of a pass is rebuilt from
them on each call, so a warm call makes a few numpy calls per pass and
no Python loop over subsets.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .states import PartyStructure, StateVector

DEFAULT_NORM_CONSTANT = 4.0
ZERO_COMPONENT_THRESHOLD = 1e-10
# Bytes one pass of the evaluation kernel may hold (see the module notes).
GATHER_BUDGET_BYTES = 1 << 20
# Kernel work one call may ask for, counted as in _kernel_work.  All sizes
# of 15 qubits stay under it; a warm 12-qubit full_tensor is 1/64 of it.
MAX_KERNEL_WORK = 1 << 30

BASIS_NOTE = (
    "component values for subsets of 3 or more parties depend on the local "
    "basis; this report uses the basis of the input amplitudes"
)


class WorkLimitError(ValueError):
    """The requested components need more than ``MAX_KERNEL_WORK``."""


@dataclass(frozen=True)
class SubsetSelector:
    """Strictly increasing tuple of party indices, at least two of them."""

    parties: tuple[int, ...]

    def __post_init__(self) -> None:
        parties = tuple(map(int, self.parties))
        if len(parties) < 2:
            raise ValueError("a subset needs at least two parties")
        if list(parties) != sorted(set(parties)):
            raise ValueError(
                f"subset parties must be strictly increasing, got {parties}"
            )
        if parties[0] < 0:
            raise ValueError(f"party indices must be non-negative, got {parties}")
        object.__setattr__(self, "parties", parties)

    @property
    def size(self) -> int:
        return len(self.parties)

    def validate_for(self, structure: PartyStructure) -> None:
        if self.parties[-1] >= structure.num_parties:
            raise ValueError(
                f"subset {self.parties} out of range for "
                f"{structure.num_parties} parties"
            )


def subsets_of_size(structure: PartyStructure, size: int) -> list[SubsetSelector]:
    """All party subsets of the given size, in lexicographic order."""
    if not 2 <= size <= structure.num_parties:
        raise ValueError(
            f"subset size {size} out of range 2..{structure.num_parties}"
        )
    return [
        SubsetSelector(c)
        for c in itertools.combinations(range(structure.num_parties), size)
    ]


@dataclass(frozen=True)
class NormalizationScheme:
    """Per-subset-size positive constants; sizes not listed default to 4.

    The default pins the two-party value of a maximally entangled qubit
    pair, and of the D-qubit generalization, to 1.
    """

    constants: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {int(d): float(v) for d, v in self.constants.items()}
        if any(v <= 0.0 for v in clean.values()):
            raise ValueError("normalization constants must be strictly positive")
        object.__setattr__(self, "constants", clean)

    def constant(self, size: int) -> float:
        return self.constants.get(size, DEFAULT_NORM_CONSTANT)


DEFAULT_SCHEME = NormalizationScheme()


@dataclass(frozen=True)
class TensorReport:
    """Component values per subset, with the scheme that produced them."""

    structure: PartyStructure
    scheme: NormalizationScheme
    components: Mapping[SubsetSelector, float]
    basis_note: str = BASIS_NOTE


def permutation_difference(
    state: StateVector,
    k_tuple: Sequence[int],
    l_tuple: Sequence[int],
    party: int,
) -> complex:
    """Innermost permutation difference for one party.

    Returns ``a(k) a(l) - a(k') a(l')`` where k'/l' are k/l with the given
    party's components exchanged.  This is the quantity whose nested
    reductions make up :func:`component`; on its own (with both tuples
    ranging over a two-party state) it is the concurrence bracket.
    """
    party = state.structure.check_party(party)
    # amplitude() checks the arity and range of both tuples
    direct = state.amplitude(k_tuple) * state.amplitude(l_tuple)
    ks = [int(x) for x in k_tuple]
    ls = [int(x) for x in l_tuple]
    ks[party], ls[party] = ls[party], ks[party]
    return complex(direct - state.amplitude(ks) * state.amplitude(ls))


def component_evaluator(
    structure: PartyStructure,
    subset: SubsetSelector,
    scheme: NormalizationScheme = DEFAULT_SCHEME,
) -> Callable[[np.ndarray], float]:
    """Precompiled component evaluator for repeated calls on one subset.

    The returned callable maps an amplitude tensor shaped like
    ``structure.dims`` to the component value.  The axis order that puts
    the subset's parties first, the pair index arrays of its non-qubit
    parties and their split into windows are set up once, which matters
    inside optimization loops.  Each call is one transpose and one pass of
    the batched kernel on a stack of one subset, the same kernel that
    :func:`full_tensor` runs, so the two agree to rounding.  A subset too
    large for ``GATHER_BUDGET_BYTES`` is evaluated over several windows of
    pair choices in that call.
    """
    subset.validate_for(structure)
    return _make_evaluator(structure.dims, subset.parties,
                           scheme.constant(subset.size))


def _axis_order(num_parties: int, selected: tuple[int, ...]) -> tuple[int, ...]:
    """The selected parties in nesting order, then the others ascending."""
    return selected + tuple(i for i in range(num_parties) if i not in selected)


def _sector_shape(
    dims: tuple[int, ...], selected_dims: tuple[int, ...]
) -> tuple[int, ...]:
    """``(*selected_dims, S)``: the other parties flattened into S sectors."""
    return selected_dims + (math.prod(dims) // math.prod(selected_dims),)


def _pair_index(selected_dims: Iterable[int]) -> tuple[np.ndarray | None, ...]:
    """Per selected axis, its ``(C(d, 2), 2)`` basis pairs (k < l).

    A qubit axis has the one pair (0, 1), which is the axis itself, so it
    gets None and is never gathered.
    """
    return tuple(
        None if d == 2 else np.array(list(itertools.combinations(range(d), 2)))
        for d in selected_dims
    )


def _pass_bytes(shape: tuple[int, ...], choices: int) -> int:
    """Bytes one kernel pass holds per subset for some of its pair choices.

    That is the subset's stacked sectors (``shape`` is ``(*selected_dims,
    S)``), the int64 index that gathers them off the amplitudes (8 bytes
    per stacked amplitude; its two factors are smaller), one temporary of
    the sectors' size for the sector probabilities, and per pair choice its
    gathered swap lattice of ``2^D x S`` values plus the products formed
    from it, which with the smaller reductions after them take at most as
    much again.
    """
    lattice = 2 ** (len(shape) - 1) * shape[-1]
    return (16 * 2 + 8) * math.prod(shape) + 16 * 2 * choices * lattice


def _pair_windows(
    pairs: tuple[np.ndarray | None, ...],
    shape: tuple[int, ...],
    batch: int,
    budget: int,
) -> tuple[tuple[int, ...], list]:
    """Split the pair choices into windows whose pass fits the budget.

    Returns ``(choices, windows)``.  ``choices`` has one length per gathered
    party; each window is ``(index, chunk)``, where ``index`` selects the
    window's entries of a ``(B, *choices)`` array and ``chunk`` holds its
    pairs per selected axis.  Windows take whole axes from the innermost
    party outwards, so a single window is the usual case.
    """
    gathered = [p for p in pairs if p is not None]
    room = budget // batch - _pass_bytes(shape, 0)
    per_choice = _pass_bytes(shape, 1) - _pass_bytes(shape, 0)
    steps = []
    for p in reversed(gathered):
        steps.append(max(1, min(len(p), room // per_choice)))
        per_choice *= steps[-1]
    steps.reverse()
    windows = []
    for starts in itertools.product(
        *(range(0, len(p), step) for p, step in zip(gathered, steps))
    ):
        window = tuple(slice(a, a + step) for a, step in zip(starts, steps))
        taken = iter(window)
        chunk = tuple(p if p is None else p[next(taken)] for p in pairs)
        windows.append(((slice(None),) + window, chunk))
    return tuple(len(p) for p in gathered), windows


def _check_work(work: int, what: str, *args: object) -> None:
    """Refuse ``work`` over the limit; ``what.format(*args)`` names the request."""
    if work > MAX_KERNEL_WORK:
        raise WorkLimitError(
            f"{what.format(*args)} needs {work:,} units of kernel work (pair "
            f"choices x 2^D x sectors, summed over subsets), over the limit "
            f"of {MAX_KERNEL_WORK:,}"
        )


def _make_evaluator(
    dims: tuple[int, ...],
    selected: tuple[int, ...],
    constant: float,
) -> Callable[[np.ndarray], float]:
    perm = _axis_order(len(dims), selected)
    shape = _sector_shape(dims, tuple(dims[i] for i in selected))
    _check_work(
        math.prod(math.comb(d, 2) for d in shape[:-1])
        * 2 ** len(selected) * shape[-1],
        "subset {} of dims {}", selected, dims,
    )
    windows = _pair_windows(_pair_index(shape[:-1]), shape, 1,
                            GATHER_BUDGET_BYTES)
    shape = (1,) + shape

    def evaluate(tensor: np.ndarray) -> float:
        sectors = tensor.transpose(perm).reshape(shape)
        return float(_evaluate_batch(sectors, windows, constant)[0])

    return evaluate


def _evaluate_batch(
    sectors: np.ndarray,
    windows: tuple[tuple[int, ...], list],
    constant: float,
) -> np.ndarray:
    """Components of a stack of subsets that share one selected shape.

    ``sectors`` is shaped ``(B, *selected_dims, S)``: per subset, the
    amplitudes with the selected parties in nesting order (anchor first)
    and the unselected parties flattened into S sectors.  ``windows`` comes
    from :func:`_pair_windows` for at least this batch size.  Every window
    writes its per-choice sums into one array that is summed once, so the
    split into windows does not change the result.
    """
    batch, num_sectors = sectors.shape[0], sectors.shape[-1]
    flat = sectors.reshape(batch, -1, num_sectors)
    squares = flat.conj()
    squares *= flat
    prob = np.add.reduce(squares.real, axis=1)
    del squares
    # a zero-probability sector has only zero amplitudes, so all of its
    # reduced values are exactly 0 and any finite weight resolves 0/0 to 0
    weight = 1.0 / np.maximum(prob, sys.float_info.min)
    choices, parts = windows
    sums = np.empty((batch,) + choices)
    for index, chunk in parts:
        sums[index] = _pair_sums(sectors, chunk, weight)
    return np.sqrt(constant * np.add.reduce(sums.reshape(batch, -1), axis=1))


def _pair_sums(
    sectors: np.ndarray,
    pairs: tuple[np.ndarray | None, ...],
    weight: np.ndarray,
) -> np.ndarray:
    """Sector-weighted nested reduction, one value per subset and pair choice.

    Returns ``(B, *choices)`` with one axis per gathered (non-qubit) party.
    """
    depth = len(pairs)
    block = sectors
    # gather the last axis first, so the earlier axis numbers stay valid;
    # each gathered axis d becomes (pair choice, k/l)
    for axis in reversed(range(depth)):
        if pairs[axis] is not None:
            block = np.take(block, pairs[axis], axis=axis + 1)
    if block is not sectors:
        choice_axes, lattice_axes, pos = [], [], 1
        for p in pairs:
            if p is not None:
                choice_axes.append(pos)
                pos += 1
            lattice_axes.append(pos)
            pos += 1
        block = block.transpose([0, *choice_axes, *lattice_axes, pos])
    # leading (subset, pair choice...) axes, then the 2^depth swap lattice
    # and the sectors; the anchor is consumed by its k and l sides, and the
    # non-anchor parties of the l side are flipped to their swapped values
    head = (slice(None),) * (block.ndim - depth - 1)
    flip = (slice(None, None, -1),) * (depth - 1)
    products = block[head + (0,)] * block[head + (1,) + flip]
    del block
    reduced = np.abs(products[..., 0, :] - products[..., 1, :]) ** 2
    for _ in range(depth - 2):
        reduced = np.abs(reduced[..., 0, :] - reduced[..., 1, :])
    weight = weight.reshape((len(weight),) + (1,) * (len(head) - 1) + (-1,))
    return np.add.reduce(reduced * weight, axis=-1)


# Plans kept by _plan; the CLI alone can touch dozens of (dims, size) keys.
PLAN_CACHE_SIZE = 128


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _kernel_work(dims: tuple[int, ...], size: int) -> int:
    """Kernel work of every subset of one size, before any plan is built.

    One subset's work is its pair choices times its swap lattice times its
    sectors, prod C(d, 2) * 2^D * S, which is what its passes gather and
    multiply.  Summed over the subsets of size D it is the coefficient of
    x^D in prod_i (d_i + 2 C(d_i, 2) x), so no subset is enumerated.
    """
    poly = [1]
    for d in dims:
        lifted = [c * d for c in poly] + [0]
        for k, c in enumerate(poly):
            lifted[k + 1] += c * 2 * math.comb(d, 2)
        poly = lifted
    return poly[size]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _digits(shape: tuple[int, ...]) -> np.ndarray:
    """Every position of ``shape`` in row-major order, one row per axis."""
    table = np.indices(shape).reshape(len(shape), -1)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _stacking(
    dims: tuple[int, ...], selected_dims: tuple[int, ...], budget: int
) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], list]]:
    """Sector shape, subsets per pass and pair windows of one selected shape."""
    shape = _sector_shape(dims, selected_dims)
    choices = math.prod(math.comb(d, 2) for d in selected_dims)
    batch = max(1, budget // _pass_bytes(shape, choices))
    return shape, batch, _pair_windows(_pair_index(selected_dims), shape,
                                       batch, budget)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(dims: tuple[int, ...], size: int, budget: int) -> tuple:
    """How :func:`full_tensor` evaluates every subset of one size.

    Returns the size's selectors in lexicographic order and a tuple of
    groups, one per transposed shape ``T``: the selected dims, then the
    other parties' dims in ascending party order.  A group is ``(positions,
    outer, inner, outer_digits, inner_digits, shape, batch, windows)``.
    ``positions`` are its subsets' places in lexicographic order.  ``T`` is
    cut into leading and trailing axes, so the flat amplitude index of
    every stacked entry is ``outer @ outer_digits`` (one row per subset,
    one column per leading position) plus ``inner @ inner_digits``
    broadcast over the trailing positions.  ``outer`` and ``inner`` hold
    the parties' flat strides in transposed order; the digit tables list
    every position of their half of ``T``.  Each pass stacks ``batch`` of
    the subsets as ``(B, *shape)`` and evaluates them over ``windows``.

    Built once per key, with no Python loop per subset beyond creating the
    selectors.  A plan holds no amplitudes: per subset it keeps its place,
    its selector and one stride per party, and per transposed shape two
    digit tables of about ``M * sqrt(total_dim)`` entries.  The gather
    index itself is rebuilt in each pass and counted by :func:`_pass_bytes`.
    """
    num = len(dims)
    combos = list(itertools.combinations(range(num), size))
    selected = np.array(combos, dtype=np.intp)
    unselected = np.ones((len(combos), num), dtype=bool)
    unselected[np.arange(len(combos))[:, None], selected] = False
    rest = np.nonzero(unselected)[1].reshape(len(combos), num - size)
    order = np.concatenate([selected, rest], axis=1)
    strides = np.array([math.prod(dims[p + 1:]) for p in range(num)])
    shapes = np.array(dims)[order]
    # stable sort by transposed shape, so each group keeps subset order
    by_shape = np.lexsort(shapes.T[::-1])
    shapes = shapes[by_shape]
    stacked = strides[order[by_shape]]
    by_shape.flags.writeable = stacked.flags.writeable = False
    ends = np.flatnonzero((shapes[1:] != shapes[:-1]).any(axis=1)) + 1
    groups = []
    for first, end in zip([0, *ends.tolist()], [*ends.tolist(), len(combos)]):
        transposed = tuple(shapes[first].tolist())
        # cut T where the two digit tables are smallest together
        cut = min(
            range(1, num),
            key=lambda c: c * math.prod(transposed[:c])
            + (num - c) * math.prod(transposed[c:]),
        )
        groups.append((
            by_shape[first:end],
            stacked[first:end, :cut],
            stacked[first:end, cut:],
            _digits(transposed[:cut]),
            _digits(transposed[cut:]),
            *_stacking(dims, transposed[:size], budget),
        ))
    return tuple(map(SubsetSelector, combos)), tuple(groups)


def component(
    state: StateVector,
    subset: SubsetSelector,
    scheme: NormalizationScheme = DEFAULT_SCHEME,
) -> float:
    """Entanglement tensor component for one party subset."""
    return component_evaluator(state.structure, subset, scheme)(state.tensor)


def component_with_nesting_order(
    state: StateVector,
    parties_in_order: Sequence[int],
    scheme: NormalizationScheme = DEFAULT_SCHEME,
) -> float:
    """Component evaluated with an explicit permutation nesting order.

    ``parties_in_order[0]`` is the anchor (never permuted) and the last
    entry carries the innermost squared-magnitude reduction.  The canonical
    :func:`component` uses ascending order.  Exposed to probe how much the
    value depends on this convention for subsets of 3 or more parties.
    """
    order = tuple(int(p) for p in parties_in_order)
    if len(set(order)) != len(order) or len(order) < 2:
        raise ValueError(f"nesting order must list distinct parties, got {order}")
    subset = SubsetSelector(tuple(sorted(order)))
    subset.validate_for(state.structure)
    evaluator = _make_evaluator(
        state.structure.dims, order, scheme.constant(len(order))
    )
    return evaluator(state.tensor)


def full_tensor(
    state: StateVector,
    scheme: NormalizationScheme = DEFAULT_SCHEME,
    sizes: Iterable[int] | None = None,
) -> TensorReport:
    """Every component of every requested size (default: all sizes 2..M).

    Each size runs the passes of its plan, cached under ``(dims, size,
    GATHER_BUDGET_BYTES)`` with the budget read at call time; the last
    ``PLAN_CACHE_SIZE`` plans are kept.  A pass gathers a stack of subsets
    that share their transposed shape straight off ``state.amplitudes``
    and evaluates it with the batched kernel, so a call on dims seen
    before does no Python work per subset.  The first call on new dims
    builds the plan, with numpy work per group of subsets rather than per
    subset.  A plan holds no amplitudes: per subset, its selector and
    ``M + 1`` integers, and per transposed shape two small digit tables.
    Components come out by size, then in lexicographic order within a
    size.
    """
    structure = state.structure
    if sizes is None:
        size_list = list(range(2, structure.num_parties + 1))
    else:
        size_list = sorted({int(s) for s in sizes})
        for s in size_list:
            if not 2 <= s <= structure.num_parties:
                raise ValueError(
                    f"size {s} out of range 2..{structure.num_parties}"
                )
    _check_work(
        sum(_kernel_work(structure.dims, size) for size in size_list),
        "subset sizes {} of dims {}", size_list, structure.dims,
    )
    components: dict[SubsetSelector, float] = {}
    for size in size_list:
        subsets, groups = _plan(structure.dims, size, GATHER_BUDGET_BYTES)
        values = np.empty(len(subsets))
        constant = scheme.constant(size)
        for (positions, outer, inner, outer_digits, inner_digits,
             shape, batch, windows) in groups:
            for start in range(0, len(positions), batch):
                rows = slice(start, start + batch)
                index = np.add(
                    (outer[rows] @ outer_digits)[:, :, None],
                    (inner[rows] @ inner_digits)[:, None, :],
                )
                sectors = state.amplitudes.take(index).reshape((-1,) + shape)
                values[positions[rows]] = _evaluate_batch(
                    sectors, windows, constant
                )
        components.update(zip(subsets, values.tolist()))
    return TensorReport(structure=structure, scheme=scheme, components=components)


def separability_scan(state: StateVector) -> list[bool]:
    """Per-party verdict: True when the party factors out of the state.

    Party i factors out exactly when its unfolding, the amplitudes as a
    ``d_i x (N / d_i)`` matrix, has rank 1.  With its singular values
    s_1 >= s_2 >= ..., ``2 sqrt(sum_{k>=2} s_k^2)`` is to first order the
    concurrence of party i against the rest, and the party is detached when
    that is at most ``ZERO_COMPONENT_THRESHOLD``.  Local unitaries leave
    the singular values as they are, so the verdict is basis-free, and
    every component that holds a detached party vanishes in every basis.
    One SVD per party; no component is evaluated.
    """
    verdicts = []
    for party, dim in enumerate(state.structure.dims):
        unfolding = np.moveaxis(state.tensor, party, 0).reshape(dim, -1)
        rest = np.linalg.norm(np.linalg.svd(unfolding, compute_uv=False)[1:])
        verdicts.append(bool(2.0 * rest <= ZERO_COMPONENT_THRESHOLD))
    return verdicts


def tensor_norm(report: TensorReport) -> float:
    """Square root of the unweighted sum of squared components.

    A crude single-number aggregate: it mixes subset sizes with equal
    weight, so a highly entangled state and one with shallow entanglement
    spread over many subsets can score alike.  The full report is the
    informative object.
    """
    return math.sqrt(sum(v * v for v in report.components.values()))


def report_to_dict(report: TensorReport) -> dict:
    """JSON-ready form of a report; subsets are 1-based in the output."""
    sizes = sorted({s.size for s in report.components})
    return {
        "dims": list(report.structure.dims),
        "norm_constants": {str(d): report.scheme.constant(d) for d in sizes},
        "components": [
            {"subset": [p + 1 for p in subset.parties], "value": value}
            for subset, value in sorted(
                report.components.items(), key=lambda kv: (kv[0].size, kv[0].parties)
            )
        ],
        "tensor_norm": tensor_norm(report),
        "basis_note": report.basis_note,
    }
