"""The batched component kernel: layouts, one workspace per thread, passes.

One pass evaluates the components of a batch of B subsets of one state,
or of one subset over a stack of B probe tensors, that share their
selected dims: D selected parties in nesting order (anchor first), L
selected positions, and S sectors of the other parties per entry.

* Probabilities.  ``conj(a) * a`` is formed once per state or probe stack
  and gathered through the row-major index of the pass, laid out
  ``(L, B, S)``: selected positions, then entries, then sectors.  The sum
  over axis 0 adds whole contiguous ``(B, S)`` rows one after another, so
  each sector probability adds up the selected positions in row-major
  order, as the ``(B, L, S)`` layout the stacked sectors always had did,
  with numpy's inner loop over all of ``B * S`` instead of over S.  With
  one sector (S = 1, a subset of every party) the squares are gathered
  ``(B, L)`` through the transposed index instead: numpy sums each
  contiguous ``(L,)`` row pairwise, and a sum over axis 0 would add in
  order, which for B > 1 moves bits.
* Layout.  The amplitudes are gathered straight into kernel order,
  ``(2^D * C, B, S)``: the anchor's k/l side, then one bit per other
  selected party (innermost party first), then the C pair choices, then
  the entries, then the sectors.  The kernel-order index of a window is
  rows of the ``(L, B, S)`` index, taken with one ``take`` along axis 0
  through the layout's table: row r reads the selected position that
  entry r of the window reads.  The l side's other parties already read
  their swapped values, and each party's basis pair k < l is read through
  that table, so there is no flip and no per-axis gather.  The products
  are the two contiguous halves of the leading axis multiplied, each
  nested reduction is the difference of the two halves of what is left,
  and the sector sum runs on the contiguous last axis.
* Workspace.  Both gathers, the kernel-order index, the products and the
  reductions of a pass are written with ``out=`` into one workspace per
  thread, which the thread keeps between calls, and so is the row-major
  index when the caller builds one per pass.  The windows reuse the bytes
  of the dead probability gather, and a pass of one window also those of
  the row-major index once it has taken its rows.  It holds the budget
  the layout was made for; a pass over it gets a buffer of its own,
  dropped with the pass.  Results are new arrays.  The row-major index
  depends only on the dims, so it is kept where it never changes: a
  ``full_tensor`` plan keeps it, read-only, for each group of subsets
  that runs in one pass, and an evaluator for its one subset over up to
  one pass of probe tensors; a shorter stack copies the leading probes of
  it into the workspace.

The bits do not change: every gather reads the same places as in the
stacked kernel (entry r of a window reads selected position ``places[r]``
plus each sector's offset), every product, difference, absolute value and
square takes the same operands in the same order (element-wise operations
do not depend on the layout), and every sum runs over the same numbers in
the same order.  The sector sums run along an axis with the memory layout
they always had.  The probabilities run along axis 0 of ``(L, B, S)``,
which adds row after row as a sum over the middle axis of ``(B, L, S)``
does, or along the rows of ``(B, L)`` when S = 1.  Each entry of a batch
is reduced on its own, so how subsets or probes are cut into passes does
not change their values.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from typing import NamedTuple

import numpy as np

# Plans and layouts kept; the CLI alone can touch dozens of keys.
PLAN_CACHE_SIZE = 128


def _digits(shape: tuple[int, ...]) -> np.ndarray:
    """Every position of ``shape`` in row-major order, one row per axis.

    Not cached: its callers are, and a plan group that keeps its gather
    index drops the tables it was built from.
    """
    table = np.indices(shape).reshape(len(shape), math.prod(shape))
    table.flags.writeable = False
    return table


def _regions(
    batch: int, lattice: int, choices: int, window: int, positions: int,
    sectors: int,
) -> tuple[list, list, list]:
    """``(shape, dtype)`` of every temporary of one pass, in workspace order.

    Three lists: the arrays kept through the pass (sector weights and the
    per-choice sums); the probability phase (the row-major gather index
    ``(L, B, S)`` and the gathered squares); and one window of pair choices
    (gathered amplitudes and kernel-order index).  The two phases take
    turns in the bytes after the kept arrays.  A pass of several windows
    keeps the gather index, so its windows start after it.  One window of
    every pair choice takes its rows first and then gathers the amplitudes
    over it: they are ``2^D * C >= L`` rows of complex values, at least
    twice the index's bytes, so the kernel-order index after them never
    overlaps it.
    The products are written over the kernel-order index, which has the
    same size, and the reductions over the gathered amplitudes.
    """
    rows = lattice * window
    index = ((positions, batch, sectors), np.intp)
    return ([((batch, sectors), np.float64), ((batch, choices), np.float64)],
            [index, ((positions, batch, sectors), np.float64)],
            [index] * (window < choices) + [
                ((rows, batch, sectors), np.complex128),
                ((rows, batch, sectors), np.intp)])


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
        kept, (index, _), _ = _regions(1, lattice, choices, 1, positions, sectors)
        one = _regions(1, lattice, 1, 1, positions, sectors)[2]
        batch = 1
        window = max(1, min(choices, (budget - _pass_bytes(kept, [index], []))
                            // _pass_bytes([], [], one)))
    windows = []
    for start in range(0, choices, window):
        windows.append(places[:, start:start + window].reshape(-1))
        windows[-1].flags.writeable = False
    return _Layout(tuple(windows), batch, window, lattice, choices, positions,
                   budget)


def _probe_term(
    dims: tuple[int, ...], order: tuple[int, ...], probes: int, budget: int
) -> tuple[np.ndarray, _Layout]:
    """Kernel inputs of one subset over a stack of up to ``probes`` tensors.

    The stack is ``(P, *dims)``, read flat, and ``layout`` is the
    :func:`_layout` of the parties ``order``; the inputs cover at most
    ``layout.batch`` tensors, one pass.  Returns ``(index, layout)`` for
    :func:`_evaluate_pass`: ``index`` ``(L, P, S)`` is the row-major gather
    index of the stack, per probe its amplitudes with the parties of
    ``order`` first (in nesting order) and the others after them in
    ascending order.  It never changes, so it is built once; the leading
    probes of it, ``index[:, :p]``, serve a shorter stack.
    """
    others = tuple(p for p in range(len(dims)) if p not in order)
    selected = tuple(dims[p] for p in order)
    layout = _layout(selected, math.prod(dims) // math.prod(selected), budget)
    probes = min(probes, layout.batch)
    index = np.arange(probes * math.prod(dims)).reshape((probes,) + dims).transpose(
        (*(1 + p for p in order), 0, *(1 + p for p in others))).reshape(
        layout.positions, probes, -1)
    index.flags.writeable = False
    return index, layout


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

    Returns ``(index, gathered, products, halves, first, levels,
    reduced)``: the kernel-order index and gathered amplitudes of the
    window's regions of :func:`_regions`, then the products over
    ``index``.  ``halves`` holds the lower and upper halves of
    ``gathered`` (the k and l sides) and of ``products``.  The first
    reduction writes the products into ``first``, ``levels`` holds the
    ``(lower, upper)`` halves of each later one, innermost party first, and
    ``reduced`` ``(window, B, S)`` is what they leave.
    """
    gathered, index = _carve(buffer, at, regions)[-2:]
    rows = len(index)
    products = np.ndarray((rows // 2,) + index.shape[1:], np.complex128, index)
    first = np.ndarray((rows // 4,) + index.shape[1:], np.float64, gathered)
    levels, size = [], rows // 4
    while size > window:
        size //= 2
        levels.append((first[:size], first[size:2 * size]))
    halves = (gathered[:rows // 2], gathered[rows // 2:],
              products[:rows // 4], products[rows // 4:])
    return index, gathered, products, halves, first, levels, first[:window]


_thread = threading.local()


def _pass_views(layout: _Layout, batch: int, sectors: int) -> tuple:
    """One pass's temporaries, carved from this thread's workspace.

    Returns ``(kept, probability, windows)``: the views of the first two
    lists of :func:`_regions`, the gathered squares being ``(B, L)`` when
    there is one sector (see :func:`_evaluate_pass`), and per window of
    pair choices its
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
    index, squares = _carve(buffer, at, regions[1])
    if sectors == 1:
        squares = squares.reshape(batch, layout.positions)
    windows = []
    for start in range(0, layout.choices, layout.window):
        stop = min(start + layout.window, layout.choices)
        if not windows or stop - start < layout.window:
            temps = _window_views(
                buffer, at, _regions(*key[:3], stop - start, *key[4:])[2],
                stop - start)
        windows.append((temps, kept[1][:, start:stop].T))
    views = (kept, (index, squares), windows)
    if buffer is workspace[0]:
        if len(carved) == PLAN_CACHE_SIZE:
            carved.clear()
        carved[key] = views
    return views


def _evaluate_pass(
    index: np.ndarray,
    amplitudes: np.ndarray,
    squares: np.ndarray,
    layout: _Layout,
    constant: float,
    views: tuple | None = None,
) -> np.ndarray:
    """Components of a batch of subsets, or probes, that share one layout.

    ``index`` ``(L, B, S)`` holds the flat place of each amplitude of each
    entry of the batch: selected positions in row-major order, then the
    entries, then the sectors.  ``amplitudes`` is flat and ``squares`` is
    :func:`_squares` of it.  ``layout`` comes from :func:`_layout` for a
    batch of at least B, and ``views`` from :func:`_pass_views` when the
    caller carved them already.  An ``index`` that is not C-contiguous (the
    leading probes of a larger stack's index) is first copied into the
    workspace.
    Every window of pair choices writes its sums into one ``(B, C)`` array
    that is summed once, so the split into windows does not change the
    result.
    """
    _, batch, sectors = index.shape
    if views is None:
        views = _pass_views(layout, batch, sectors)
    (weight, sums), (kept, gathered), windows = views
    if not index.flags.c_contiguous:
        np.copyto(kept, index)
        index = kept
    if sectors == 1:
        # one sector per entry: numpy sums each contiguous (L,) row of the
        # (B, L) squares pairwise, and an (L, B) sum over axis 0 would add
        # in order instead, so these keep the (B, L) order
        squares.take(index.reshape(-1, batch).T, out=gathered, mode="wrap")
        np.add.reduce(gathered, axis=1, out=weight, keepdims=True)
    else:
        squares.take(index, out=gathered, mode="wrap")
        np.add.reduce(gathered, axis=0, out=weight)
    # a zero-probability sector has only zero amplitudes, so all of its
    # reduced values are exactly 0 and any finite weight resolves 0/0 to 0
    np.maximum(weight, sys.float_info.min, out=weight)
    np.divide(1.0, weight, out=weight)
    for places, (temps, out) in zip(layout.windows, windows):
        _window_sums(places, index, weight, amplitudes, temps, out)
    return np.sqrt(constant * np.add.reduce(sums, axis=1))


def _window_sums(
    places: np.ndarray,
    index: np.ndarray,
    weight: np.ndarray,
    amplitudes: np.ndarray,
    temps: tuple,
    out: np.ndarray,
) -> None:
    """Weighted sector sums of one window of pair choices into ``out`` ``(w, B)``.

    ``places`` is the window's table from :func:`_layout`, ``index`` the
    pass's ``(L, B, S)`` gather index, and ``temps`` comes from
    :func:`_window_views`.  Row r of the kernel-order index is row
    ``places[r]`` of ``index``.
    """
    order, gathered, products, halves, first, levels, reduced = temps
    k_side, l_side, lower, upper = halves
    index.take(places, axis=0, out=order, mode="wrap")
    amplitudes.take(order, out=gathered, mode="wrap")
    np.multiply(k_side, l_side, out=products)
    np.subtract(lower, upper, out=lower)
    np.abs(lower, out=first)
    np.square(first, out=first)
    for lower, upper in levels:
        np.subtract(lower, upper, out=lower)
        np.abs(lower, out=lower)
    np.multiply(reduced, weight, out=reduced)
    np.add.reduce(reduced, axis=-1, out=out)
