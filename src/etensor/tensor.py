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

Evaluation runs in :mod:`etensor.kernel`, in numpy, with no Python loop
over pair choices or subsets; its module notes describe the layout of a
pass, the workspace of ``GATHER_BUDGET_BYTES`` per thread, and why the
values do not depend on how subsets are cut into passes.
:func:`full_tensor` groups the subsets of each requested size that share
their selected dims, and packs every group that fits one pass, of any
size, into as few passes as fit the budget: a warm 8-qubit call makes two
passes for its 247 subsets.  Any other group takes passes of one group
each: a group too large for one pass takes several, and a subset that
does not fit a pass alone is split into windows of pair choices.  An
evaluator from :func:`component_evaluator` runs the same kernel on one
subset, over one tensor or a stack of probe tensors that it cuts into
passes the same way.

What :func:`full_tensor` does depends only on the dims and the sizes, so
it is built once as a plan and kept in an LRU cache of ``PLAN_CACHE_SIZE``
entries keyed on ``(dims, sizes, GATHER_BUDGET_BYTES)``, with the budget
read at call time.  A plan holds the selectors by size, each size in
lexicographic order, grouped by transposed shape (selected dims, then the
others in ascending party order), each group with the kernel's layout,
which maps each kernel-order entry to the selected position it reads.
Plans hold no amplitudes.  A packed pass keeps the row-major and
kernel-order indexes of its groups, and a warm call hands those same
arrays to the kernel.  Any other group keeps, per subset, one stride per
party, and per transposed shape two digit tables, of its selected
positions and of its sectors (``D * L + (M - D) * S`` entries); each of
its passes writes its index from them into the workspace, with two
matmuls and one add.  So a warm call makes a few numpy calls per pass and
per group, and no Python loop over subsets.

A call's components are a read-only Mapping in plan order that holds the
plan's selectors beside the call's values.  It finds a key's place by
arithmetic from the requested sizes and the counts C(M, D), so no
selector is hashed, neither by the call nor by a consumer that iterates;
the plan keeps no table from selector to place.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernel
from .kernel import PLAN_CACHE_SIZE
from .ketparse import JsonText, float_texts
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


@dataclass(frozen=True, slots=True)
class SubsetSelector:
    """Strictly increasing tuple of party indices, at least two of them.

    Hashes as its tuple of parties.
    """

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

    def __hash__(self) -> int:
        return hash(self.parties)

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
    """Per-subset-size finite positive constants; sizes not listed default to 4.

    The default pins the two-party value of a maximally entangled qubit
    pair, and of the D-qubit generalization, to 1.
    """

    constants: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {int(d): float(v) for d, v in self.constants.items()}
        if not all(math.isfinite(v) and v > 0.0 for v in clean.values()):
            raise ValueError(
                "normalization constants must be finite and strictly positive")
        object.__setattr__(self, "constants", clean)

    def constant(self, size: int) -> float:
        return self.constants.get(size, DEFAULT_NORM_CONSTANT)


DEFAULT_SCHEME = NormalizationScheme()


@dataclass(frozen=True)
class TensorReport:
    """Component values per subset, with the scheme that produced them.

    A :func:`full_tensor` report's ``components`` is a read-only Mapping
    in plan order: by size, then lexicographically within a size.  It
    iterates, looks up and compares as the equal dict would, and a lookup
    hashes no selector.
    """

    structure: PartyStructure
    scheme: NormalizationScheme
    components: Mapping[SubsetSelector, float]
    basis_note: str = BASIS_NOTE


class _Components(Mapping):
    """The components of one :func:`full_tensor` call, read-only.

    It holds the plan's ``subsets`` tuple and the call's list of values,
    place for place.  Iteration, ``values()`` and ``items()`` walk the two
    sequences.  A lookup finds its place by arithmetic: the C(M, d)
    subsets of each smaller requested size d, then the key's lexicographic
    rank within its size, ``C(M, D) - 1 - sum_i C(M - 1 - p_i, D - i)``
    over its parties p_0 < ... < p_{D-1}.  Any other key, a plain tuple, a
    size not requested or a party past M - 1, is a ``KeyError``, as it is
    for the dict with the same items.
    """

    __slots__ = ("_subsets", "_values", "_num_parties", "_sizes")

    def __init__(self, subsets: tuple[SubsetSelector, ...], values: list[float],
                 num_parties: int, sizes: tuple[int, ...]):
        self._subsets, self._values = subsets, values
        self._num_parties, self._sizes = num_parties, sizes

    def __len__(self) -> int:
        return len(self._subsets)

    def __iter__(self) -> Iterator[SubsetSelector]:
        return iter(self._subsets)

    def __getitem__(self, key: SubsetSelector) -> float:
        if (isinstance(key, SubsetSelector) and key.size in self._sizes
                and key.parties[-1] < self._num_parties):
            num, size = self._num_parties, key.size
            start = sum(math.comb(num, d) for d in self._sizes if d < size)
            return self._values[start + math.comb(num, size) - 1 - sum(
                math.comb(num - 1 - p, size - i) for i, p in enumerate(key.parties))]
        raise KeyError(key)

    def values(self) -> ValuesView:
        return _ComponentValues(self)

    def items(self) -> ItemsView:
        return _ComponentItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _ComponentValues(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping._values)


class _ComponentItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[SubsetSelector, float]]:
        return zip(self._mapping._subsets, self._mapping._values)


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
) -> Callable[[np.ndarray], float | np.ndarray]:
    """Precompiled component evaluator for repeated calls on one subset.

    The returned callable maps an amplitude tensor with ``total_dim``
    amplitudes (shaped like ``structure.dims``, or flat) to the component
    value as a float, and a ``(P, *structure.dims)`` stack of tensors to
    an array of their P values; any other number of amplitudes raises
    ``ValueError``.  It runs the batched kernel that :func:`full_tensor`
    runs, with the tensors of a stack in place of subsets, so the two
    agree bit for bit, and each tensor of a stack gets the value it gets on
    its own.  A stack is cut into passes of ``batch`` tensors, an attribute
    of the callable: as many as fit ``GATHER_BUDGET_BYTES``, read when the
    evaluator is compiled.  A subset too large for one pass is evaluated
    over several windows of pair choices.  Compiling builds the gather
    index of one tensor's amplitudes (its parties first, then the others),
    the one array the evaluator keeps; a pass of P probes writes it, offset
    by each probe's place in the stack, into the kernel's workspace.
    """
    subset.validate_for(structure)
    return _make_evaluator(structure.dims, subset.parties,
                           scheme.constant(subset.size))


def _check_work(work: int, what: str, *args: object) -> None:
    """Refuse ``work`` over the limit; ``what.format(*args)`` names the request."""
    if work > MAX_KERNEL_WORK:
        raise WorkLimitError(
            f"{what.format(*args)} needs {work:,} units of kernel work (pair "
            f"choices x 2^D x sectors, summed over subsets), over the limit "
            f"of {MAX_KERNEL_WORK:,}"
        )


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


def _make_evaluator(
    dims: tuple[int, ...],
    order: tuple[int, ...],
    constant: float,
) -> Callable[[np.ndarray], float | np.ndarray]:
    total = math.prod(dims)
    selected = tuple(dims[p] for p in order)
    _check_work(_kernel_work(selected, len(order)) * (total // math.prod(selected)),
                "subset {} of dims {}", order, dims)
    others = tuple(p for p in range(len(dims)) if p not in order)
    layout = kernel._layout(selected, total // math.prod(selected),
                            GATHER_BUDGET_BYTES)
    # one tensor's gather index: the parties of order first, then the others
    index = np.ascontiguousarray(np.arange(total).reshape(dims).transpose(
        order + others).reshape(layout.positions, 1, -1))

    def kept(out: np.ndarray) -> np.ndarray:
        return index

    def evaluate(tensor: np.ndarray) -> float | np.ndarray:
        stack = np.ascontiguousarray(tensor, dtype=np.complex128)
        single = stack.shape[1:] != dims
        # the gathers wrap around, so a wrong size would read wrong amplitudes
        if single and stack.size != total:
            raise ValueError(
                f"an input tensor of {stack.size} amplitudes, but dims {dims} "
                f"have {total}")
        if not len(stack):
            return np.empty(0)
        stack = stack.reshape(1 if single else len(stack), total)
        values = []
        for start in range(0, len(stack), layout.batch):
            part = stack[start:start + layout.batch]
            probes, part = len(part), part.reshape(-1)
            # probe p of a pass reads its amplitudes p * total further on
            fill = kept if probes == 1 else functools.partial(
                np.add, index, np.arange(0, probes * total, total)[:, None])
            values.append(np.sqrt(constant * kernel._evaluate_group(
                layout, probes, fill, part, kernel._squares(part))))
        return float(values[0][0]) if single else np.concatenate(values)

    evaluate.batch = layout.batch
    return evaluate


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(dims: tuple[int, ...], sizes: tuple[int, ...], budget: int) -> tuple:
    """How :func:`full_tensor` evaluates every subset of the given sizes.

    Returns ``(subsets, passes, groups)``.  ``subsets`` are the selectors
    by size, then in lexicographic order, the order in which a call's
    read-only components Mapping holds them.  The plan keeps no table from
    selector to place.

    The subsets of one size are grouped by transposed shape ``T``: the
    selected dims, then the other parties' dims in ascending party order,
    each group with the kernel's :func:`etensor.kernel._layout`.

    A group whose subsets fit one pass and one window of pair choices,
    with a gather index of at most half the budget, is packed with the
    others like it, across all sizes, into as few passes as fit the
    budget (:func:`etensor.kernel._packed`), which keep their indexes.
    ``passes`` holds per packed pass ``(places, shape, index, windows)``
    for :func:`etensor.kernel._evaluate_pass`, where ``places`` are the
    places of its entries among ``subsets``.  Any other group is in
    ``groups`` as ``(places, tables, layout)``, and each of its passes
    writes its rows of the index from ``tables`` into the workspace.
    ``tables`` is ``(selected, others, positions, sectors)``: ``selected``
    and ``others`` hold, one row per subset, the flat strides of its
    selected and of its other parties in transposed order; ``positions``
    ``(L, D)`` lists every selected position of ``T`` and ``sectors``
    ``(M - D, S)`` every sector.  So the flat amplitude index of selected
    position l and sector s of subset b is ``(positions @ selected.T)[l,
    b] + (others @ sectors)[b, s]``, which is the gather index of
    :func:`_gather_index`.

    Built once per key, with no Python loop per subset beyond creating
    the selectors.  A plan holds no amplitudes, and its arrays are never
    handed out.
    """
    num = len(dims)
    strides = np.array([math.prod(dims[p + 1:]) for p in range(num)])
    subsets, packable, groups = [], [], []
    for size in sizes:
        combos = list(itertools.combinations(range(num), size))
        selected = np.array(combos, dtype=np.intp)
        unselected = np.ones((len(combos), num), dtype=bool)
        unselected[np.arange(len(combos))[:, None], selected] = False
        rest = np.nonzero(unselected)[1].reshape(len(combos), num - size)
        order = np.concatenate([selected, rest], axis=1)
        shapes = np.array(dims)[order]
        # stable sort by transposed shape, so each group keeps subset order
        by_shape = np.lexsort(shapes.T[::-1])
        shapes = shapes[by_shape]
        stacked = strides[order[by_shape]]
        by_shape += len(subsets)
        ends = np.flatnonzero((shapes[1:] != shapes[:-1]).any(axis=1)) + 1
        for first, end in zip([0, *ends.tolist()], [*ends.tolist(), len(combos)]):
            transposed = tuple(shapes[first].tolist())
            layout = kernel._layout(transposed[:size],
                                    math.prod(transposed[size:]), budget)
            places = by_shape[first:end]
            tables = (stacked[first:end, :size], stacked[first:end, size:],
                      kernel._digits(transposed[:size]).T,
                      kernel._digits(transposed[size:]))
            # one pass whose index, half of its probability phase, fits the budget
            kept = len(places) * math.prod(dims) * np.dtype(np.intp).itemsize
            if (len(places) <= layout.batch and 2 * kept <= budget
                    and layout.window == layout.choices):
                packable.append((places, layout,
                                 functools.partial(_gather_index, *tables)))
            else:
                groups.append((places, tables, layout))
        subsets += map(SubsetSelector, combos)
    return tuple(subsets), tuple(kernel._packed(packable, budget)), tuple(groups)


def _gather_index(
    selected: np.ndarray,
    others: np.ndarray,
    positions: np.ndarray,
    sectors: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The ``(L, B, S)`` gather index of a stack of B subsets of one group.

    The arguments are a plan group's tables (see :func:`_plan`), with
    ``selected`` and ``others`` cut to the stack's rows.
    """
    return np.add((positions @ selected.T)[:, :, None],
                  (others @ sectors)[None], out=out)


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

    The call runs the passes of its plan, cached under ``(dims, sizes,
    GATHER_BUDGET_BYTES)`` with the budget read at call time; the last
    ``PLAN_CACHE_SIZE`` plans are kept.  A pass evaluates, with the batched
    kernel off ``state.amplitudes``, either several groups of subsets
    packed together through the indexes the plan keeps, or a stack of
    subsets of one group through an index built in the workspace.  So a
    call on dims and sizes seen before does no Python work per subset.  The
    first call builds the plan, with numpy work per group of subsets rather
    than per subset.  A plan holds no amplitudes; see :func:`_plan` for
    what it holds.
    The report's components are a read-only Mapping in plan order: by
    size, then in lexicographic order within a size.  It holds the plan's
    selectors and the call's values, and finds a key's place by
    arithmetic, so neither the call nor a lookup hashes a selector.
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
    size_key = tuple(size_list)
    subsets, passes, groups = _plan(structure.dims, size_key, GATHER_BUDGET_BYTES)
    amplitudes = state.amplitudes
    squares = kernel._squares(amplitudes)
    totals = np.empty(len(subsets))
    for places, shape, index, windows in passes:
        totals[places] = kernel._evaluate_pass(shape, index, amplitudes, squares,
                                               windows)
    for places, (selected, others, positions, sectors), layout in groups:
        for start in range(0, len(places), layout.batch):
            rows = slice(start, start + layout.batch)
            totals[places[rows]] = kernel._evaluate_group(
                layout, len(places[rows]), functools.partial(
                    _gather_index, selected[rows], others[rows], positions, sectors),
                amplitudes, squares)
    constants = np.repeat([scheme.constant(size) for size in size_list],
                          [math.comb(structure.num_parties, size) for size in size_list])
    np.multiply(constants, totals, out=totals)
    components = _Components(subsets, np.sqrt(totals, out=totals).tolist(),
                             structure.num_parties, size_key)
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
    """JSON-ready form of a report; subsets are 1-based in the output.

    Components come by size, then in lexicographic order within a size.
    To write the document as text, pass :func:`report_document` to
    :func:`~etensor.ketparse.write_json`: it writes the same text without
    building a dict per component.
    """
    doc = report_document(report)
    components = doc["components"]
    doc["components"] = [
        {"subset": [p + 1 for p in subset.parties], "value": value}
        for subset, value in zip(components.subsets, components.values)
    ]
    return doc


def report_document(report: TensorReport) -> dict:
    """The document of :func:`report_to_dict`, for ``write_json`` only.

    Its ``"components"`` value is a :class:`ReportComponents`, which
    ``write_json`` writes as the list :func:`report_to_dict` would build.
    """
    subsets = list(report.components)
    parties = list(map(attrgetter("parties"), subsets))
    keys = list(zip(map(len, parties), parties))
    # sorted through C-level keys, with no Python call per component; a
    # full_tensor report is in this order already, one run for timsort
    order = sorted(range(len(keys)), key=keys.__getitem__)
    values = list(report.components.values())
    return {
        "dims": list(report.structure.dims),
        "norm_constants": {str(d): report.scheme.constant(d)
                           for d in sorted(set(map(len, parties)))},
        "components": ReportComponents(tuple(map(subsets.__getitem__, order)),
                                       tuple(map(values.__getitem__, order))),
        "tensor_norm": tensor_norm(report),
        "basis_note": report.basis_note,
    }


class ReportComponents(JsonText):
    """A report's subsets and values, by size and then lexicographically.

    ``write_json`` writes it as :func:`report_to_dict`'s component list,
    the entries of one size from one ``%`` template, and :meth:`labels`
    gives the row labels of ``compute --table``.
    """

    __slots__ = ("subsets", "values")

    def __init__(self, subsets: tuple[SubsetSelector, ...], values: tuple[float, ...]):
        self.subsets, self.values = subsets, values

    def _by_size(self) -> Iterator[tuple[int, slice, list[list[int]]]]:
        """Per subset size: its entries, and their 1-based parties as columns."""
        parties = [subset.parties for subset in self.subsets]
        sizes = list(map(len, parties))
        for size in sorted(set(sizes)):
            start = sizes.index(size)
            rows = slice(start, start + sizes.count(size))
            yield size, rows, (np.array(parties[rows]) + 1).T.tolist()

    def labels(self) -> list[str]:
        """Each subset as its comma-joined 1-based parties, like ``1,3``."""
        labels: list[str] = []
        for size, _, columns in self._by_size():
            labels += map(",".join(["%d"] * size).__mod__, zip(*columns))
        return labels

    def text(self, newline: str, round_floats: bool) -> str:
        texts = float_texts(self.values, round_floats)
        rows: list[str] = []
        for size, entries, columns in self._by_size():
            template = self.entry_template(newline, {"subset": size, "value": "%s"})
            rows += map(template.__mod__, zip(*columns, texts[entries]))
        return self.list_text(rows, newline)
