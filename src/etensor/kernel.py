"""The batched component kernel: layouts, one workspace per thread, passes.

One pass evaluates the components of a batch of B subsets of one state,
or of one subset over a stack of B probe tensors, that share their
selected dims: D selected parties in nesting order (anchor first), L
selected positions, and S sectors of the other parties per entry.

* Probabilities.  ``conj(a) * a`` is formed once per state or probe stack
  and gathered in row-major order, ``(B, L, S)``, the layout the stacked
  sectors always had, so each sector probability adds up the same numbers
  in the same order.
* Layout.  The amplitudes are gathered straight into kernel order,
  ``(2^D * C, B, S)``: the anchor's k/l side, then one bit per other
  selected party (innermost party first), then the C pair choices, then
  the entries, then the sectors.  The l side's other parties already read
  their swapped values, and each party's basis pair k < l is read through
  the layout's table, so there is no flip and no per-axis gather.  The
  products are the two contiguous halves of the leading axis multiplied,
  each nested reduction is the difference of the two halves of what is
  left, and the sector sum runs on the contiguous last axis.
* Workspace.  Both gather indexes, both gathers, the products and the
  reductions of a pass are written with ``out=`` into one workspace per
  thread, which the thread keeps between calls.  It holds the budget the
  layout was made for; a pass over it gets a buffer of its own, dropped
  with the pass.  Results are new arrays.  An evaluator keeps the
  row-major index of its one subset over up to one pass of probe tensors,
  which never changes.

The bits do not change: every product, difference, absolute value and
square takes the same operands in the same order as the stacked kernel
did (element-wise operations do not depend on the layout), and every sum
runs over the same numbers in the same order along an axis with the same
memory layout as before.  Each entry of a batch is reduced on its own, so
how subsets or probes are cut into passes does not change their values.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from typing import NamedTuple

import numpy as np

# Plans, layouts and digit tables kept; the CLI alone can touch dozens of keys.
PLAN_CACHE_SIZE = 128


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _digits(shape: tuple[int, ...]) -> np.ndarray:
    """Every position of ``shape`` in row-major order, one row per axis."""
    table = np.indices(shape).reshape(len(shape), -1)
    table.flags.writeable = False
    return table


def _regions(
    batch: int, lattice: int, choices: int, window: int, positions: int,
    sectors: int,
) -> tuple[list, list, list]:
    """``(shape, dtype)`` of every temporary of one pass, in workspace order.

    Three lists: the arrays kept through the pass (sector weights, the
    per-choice sums and, for a stack of subsets, their sector offsets and
    the offsets of their selected positions); the probability phase
    (row-major index and gathered squares); and one window of pair choices
    (kernel-order offsets of the selected positions, index and gathered
    amplitudes).  The two phases take turns in the bytes after the kept
    arrays.  The products are written over the kernel-order index, which
    has the same size, and the reductions over the gathered amplitudes.
    """
    rows = lattice * window
    return ([((batch, sectors), np.float64), ((batch, choices), np.float64),
             ((batch, sectors), np.intp), ((batch, positions), np.intp)],
            [((batch, positions, sectors), np.intp),
             ((batch, positions, sectors), np.float64)],
            [((batch, rows), np.intp), ((rows, batch, sectors), np.intp),
             ((rows, batch, sectors), np.complex128)])


def _pass_bytes(*regions: list) -> int:
    """Workspace bytes of one pass, from the three lists of :func:`_regions`."""
    kept, probability, window = (
        sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in part)
        for part in regions)
    return kept + max(probability, window)


class _Layout(NamedTuple):
    """How the kernel runs one selected shape; see :func:`_layout`."""

    windows: tuple[np.ndarray, ...]
    batch: int
    window: int
    lattice: int
    choices: int
    positions: int
    budget: int


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _layout(selected_dims: tuple[int, ...], sectors: int, budget: int) -> _Layout:
    """How the kernel runs one selected shape with ``sectors`` sectors.

    The swap lattice has ``lattice`` = 2^D entries in kernel order, and the
    pair choices run row-major over each party's ``C(d, 2)`` basis pairs
    k < l.  Per window of ``window`` pair choices, ``windows`` holds, for
    each of its ``2^D * w`` kernel-order entries (lattice-major), the
    row-major place among the ``positions`` selected positions that the
    entry reads.  The k side reads the anchor's k and, per other party,
    its k or l as the bit says; the l side reads the anchor's l and every
    other party's value swapped, so the flip of the nested formula is in
    the table.  ``batch`` entries with all their pair choices fit one pass
    in ``budget`` bytes; when one entry alone does not fit, ``batch`` is 1
    and a pass takes its pair choices ``window`` at a time.
    """
    depth = len(selected_dims)
    pairs = [np.array(list(itertools.combinations(range(d), 2)))
             for d in selected_dims]
    choice = _digits(tuple(len(p) for p in pairs))
    bits = np.indices((2,) * depth).reshape(depth, -1)
    side = bits[0][:, None]
    places = np.zeros((2**depth, choice.shape[1]), dtype=np.intp)
    for party, (d, pair) in enumerate(zip(selected_dims, pairs)):
        bit = bits[depth - party][:, None] ^ side if party else side
        places *= d
        places += pair[choice[party], bit]
    lattice, choices = places.shape
    positions = math.prod(selected_dims)
    whole = _regions(1, lattice, choices, choices, positions, sectors)
    batch, window = budget // _pass_bytes(*whole), choices
    if not batch:
        kept, _, one = _regions(1, lattice, choices, 1, positions, sectors)
        batch = 1
        window = max(1, min(choices, (budget - _pass_bytes(kept, [], []))
                            // _pass_bytes([], [], one)))
    windows = []
    for start in range(0, choices, window):
        windows.append(places[:, start:start + window].reshape(-1))
        windows[-1].flags.writeable = False
    return _Layout(tuple(windows), batch, window, lattice, choices, positions,
                   budget)


def _probe_term(
    dims: tuple[int, ...], order: tuple[int, ...], probes: int, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Layout]:
    """Kernel inputs of one subset over a stack of up to ``probes`` tensors.

    The stack is ``(P, *dims)``, read flat, and ``layout`` is the
    :func:`_layout` of the parties ``order``; the inputs cover at most
    ``layout.batch`` tensors, one pass.  Returns ``(positions, index,
    offsets, layout)`` for :func:`_evaluate_pass`.  Per probe, ``index`` is
    the row-major index of its amplitudes with the parties of ``order``
    first (in nesting order) and the others after them in ascending
    order, ``offsets`` its first position, the offsets of the sectors, and
    ``positions`` its first sector less that offset, the offsets of the
    selected positions.  They never change, so they are built once.
    """
    others = tuple(p for p in range(len(dims)) if p not in order)
    selected = tuple(dims[p] for p in order)
    layout = _layout(selected, math.prod(dims) // math.prod(selected), budget)
    probes = min(probes, layout.batch)
    index = np.arange(probes * math.prod(dims)).reshape((probes,) + dims).transpose(
        (0, *(1 + p for p in order + others))).reshape(probes, layout.positions, -1)
    positions = index[:, :, 0] - index[:, :1, 0]
    index.flags.writeable = positions.flags.writeable = False
    return positions, index, index[:, 0, :], layout


def _squares(amplitudes: np.ndarray) -> np.ndarray:
    """``conj(a) * a`` of every amplitude, as contiguous reals."""
    squares = np.conj(amplitudes)
    np.multiply(squares, amplitudes, out=squares)
    return squares.real.copy()


def _carve(buffer: np.ndarray, offset: int, regions: list) -> list[np.ndarray]:
    """Views of ``regions`` laid end to end in ``buffer`` from ``offset``."""
    views = []
    for shape, dtype in regions:
        views.append(np.ndarray(shape, dtype, buffer, offset))
        offset += views[-1].nbytes
    return views


def _window_views(buffer: np.ndarray, at: int, regions: list, window: int) -> tuple:
    """One window's temporaries at ``at`` in ``buffer``, with their halves.

    Returns ``(shifts, column, index, gathered, products, halves, first,
    levels, reduced)``: the window's regions of :func:`_regions`, ``column``
    being ``shifts`` transposed with a trailing sector axis.  ``halves``
    holds the lower and upper halves of ``gathered`` (the k and l sides)
    and of ``products``.  The first reduction writes the products into
    ``first``, ``levels`` holds the ``(lower, upper)`` halves of each later
    one, innermost party first, and ``reduced`` ``(window, B, S)`` is what
    they leave.
    """
    shifts, index, gathered = _carve(buffer, at, regions)
    rows = len(index)
    products = np.ndarray((rows // 2,) + index.shape[1:], np.complex128, index)
    first = np.ndarray((rows // 4,) + index.shape[1:], np.float64, gathered)
    levels, size = [], rows // 4
    while size > window:
        size //= 2
        levels.append((first[:size], first[size:2 * size]))
    halves = (gathered[:rows // 2], gathered[rows // 2:],
              products[:rows // 4], products[rows // 4:])
    return (shifts, shifts.T[:, :, None], index, gathered, products, halves,
            first, levels, first[:window])


_thread = threading.local()


def _pass_views(layout: _Layout, batch: int, sectors: int) -> tuple:
    """One pass's temporaries, carved from this thread's workspace.

    Returns ``(kept, probability, windows)``: the views of the first two
    lists of :func:`_regions`, and per window of pair choices its
    :func:`_window_views` with the columns of the per-choice sums it
    fills, transposed.  Each thread keeps one workspace of the layout's
    budget between calls, with the views of every pass shape carved from
    it; both are replaced when the budget changes.  A pass larger than the
    budget is carved from a buffer of its own, dropped with the pass.
    """
    workspace = getattr(_thread, "workspace", None)
    if workspace is None or len(workspace[0]) != layout.budget:
        workspace = _thread.workspace = (np.empty(layout.budget, np.uint8), {})
    buffer, carved = workspace
    key = (batch, layout.lattice, layout.choices, layout.window,
           layout.positions, sectors)
    if key in carved:
        return carved[key]
    regions = _regions(*key)
    if _pass_bytes(*regions) > len(buffer):
        buffer = np.empty(_pass_bytes(*regions), np.uint8)
    kept = _carve(buffer, 0, regions[0])
    at = _pass_bytes(regions[0], [], [])
    windows = []
    for start in range(0, layout.choices, layout.window):
        stop = min(start + layout.window, layout.choices)
        if not windows or stop - start < layout.window:
            temps = _window_views(
                buffer, at, _regions(*key[:3], stop - start, *key[4:])[2],
                stop - start)
        windows.append((temps, kept[1][:, start:stop].T))
    views = (kept, _carve(buffer, at, regions[1]), windows)
    if buffer is workspace[0]:
        if len(carved) == PLAN_CACHE_SIZE:
            carved.clear()
        carved[key] = views
    return views


def _evaluate_pass(
    positions: np.ndarray,
    index: np.ndarray,
    offsets: np.ndarray,
    amplitudes: np.ndarray,
    squares: np.ndarray,
    layout: _Layout,
    constant: float,
    views: tuple | None = None,
) -> np.ndarray:
    """Components of a batch of subsets, or probes, that share one layout.

    Per entry of the batch, ``index`` ``(B, L, S)`` holds the flat place of
    each of its amplitudes, selected positions in row-major order and then
    sectors.  ``offsets`` ``(B, S)`` is its first selected position, the
    offsets of the sectors, and ``positions`` ``(B, L)`` its first sector
    less those, the offsets of the selected positions.  ``amplitudes`` is
    flat and ``squares`` is :func:`_squares` of it.  ``layout`` comes from
    :func:`_layout` for a batch of at least B, and ``views`` from
    :func:`_pass_views` when the caller carved them already.  Every window
    of pair choices writes its sums into one ``(B, C)`` array that is
    summed once, so the split into windows does not change the result.
    """
    batch, sectors = offsets.shape
    if views is None:
        views = _pass_views(layout, batch, sectors)
    (weight, sums, _, _), (_, gathered), windows = views
    squares.take(index, out=gathered, mode="wrap")
    # the sector probabilities add up the selected positions in row-major order
    np.add.reduce(gathered, axis=1, out=weight)
    # a zero-probability sector has only zero amplitudes, so all of its
    # reduced values are exactly 0 and any finite weight resolves 0/0 to 0
    np.maximum(weight, sys.float_info.min, out=weight)
    np.divide(1.0, weight, out=weight)
    for places, (temps, out) in zip(layout.windows, windows):
        _window_sums(places, positions, offsets, weight, amplitudes, temps, out)
    return np.sqrt(constant * np.add.reduce(sums, axis=1))


def _window_sums(
    places: np.ndarray,
    positions: np.ndarray,
    offsets: np.ndarray,
    weight: np.ndarray,
    amplitudes: np.ndarray,
    temps: tuple,
    out: np.ndarray,
) -> None:
    """Weighted sector sums of one window of pair choices into ``out`` ``(w, B)``.

    ``places`` is the window's table from :func:`_layout` and ``temps``
    comes from :func:`_window_views`.
    """
    shifts, column, index, gathered, products, halves, first, levels, reduced = (
        temps)
    k_side, l_side, lower, upper = halves
    positions.take(places, axis=1, out=shifts, mode="wrap")
    np.add(column, offsets, out=index)
    amplitudes.take(index, out=gathered, mode="wrap")
    np.multiply(k_side, l_side, out=products)
    np.subtract(lower, upper, out=lower)
    np.abs(lower, out=first)
    np.square(first, out=first)
    for lower, upper in levels:
        np.subtract(lower, upper, out=lower)
        np.abs(lower, out=lower)
    np.multiply(reduced, weight, out=reduced)
    np.add.reduce(reduced, axis=-1, out=out)
