"""The batched component kernel: layouts, passes, one workspace per thread.

A pass evaluates the components of one or more *groups*.  The B entries
of a group are subsets of one state, or one subset over a stack of B probe
tensors, that share their selected dims: D selected parties in nesting
order (anchor first), L selected positions, C pair choices and S sectors
of the other parties per entry.  A ``full_tensor`` plan packs every group
that fits one pass into as few passes as the budget allows, whatever
their D, C, B and S; a group that needs several passes, and an evaluator,
runs as a pass of one group.

* Probabilities.  ``conj(a) * a`` is formed once per state or probe stack
  and gathered through the row-major index of the pass, one ``take`` for
  all its groups.  A group's index is laid out ``(L, B, S)``: selected
  positions, then entries, then sectors.  Groups with equal L and S sit in
  one ``(L, B1 + B2 + ..., S)`` block, and each block is summed over its
  axis 0, which adds whole contiguous rows one after another: each sector
  probability adds up the selected positions in row-major order, with
  numpy's inner loop over the whole block.  With one sector (S = 1, a
  subset of every party) the block is ``(B, L)`` instead: numpy sums each
  contiguous ``(L,)`` row pairwise, and a sum over axis 0 would add in
  order, which for B > 1 moves bits.
* Layout.  The amplitudes are gathered through the kernel-order index, one
  ``take`` for all the groups of a pass.  For one group that is
  ``(2^D * C, B, S)``: the anchor's k/l side, then one bit per other
  selected party (innermost party first), then the C pair choices, the
  entries and the sectors.  Its rows are rows of the ``(L, B, S)`` index,
  taken along axis 0 through the layout's table: row r reads the selected
  position that entry r reads.  The l side's other parties already read
  their swapped values, and each party's basis pair k < l is read through
  that table, so there is no flip and no per-axis gather.  Each level of
  the nested reduction combines the lower half of what is left of a group
  with its upper half: the products first, then the squared magnitude of
  their difference, then one absolute difference per other party.  A
  packed pass lays its groups out level by level, so that every level is
  one call per step for all of them: at level t the groups already reduced
  (those of depth at most t) sit in front, the lower halves of the others
  in the next block and their upper halves in the block after it, each in
  the layout it has at level t + 1.  The groups run by depth, and the
  groups of one depth by L, so a group's reduced values end up
  ``(C, B, S)`` in place.  For one group this is the plain kernel order
  above.  The weighted sector sums, on the contiguous last axis, and the
  sums over pair choices run per group; groups with one pair choice are
  weighted in one call.
* Indexes.  An index lives in one of two places.  A ``full_tensor`` plan
  keeps each packed pass's row-major and kernel-order indexes, which never
  change.  Every other pass is a pass of one group, run by
  :func:`_evaluate_group`: its caller writes the ``(L, B, S)`` index into
  the pass's place for it in the workspace, and the pass takes its
  kernel-order index per window from that.  The one exception is a single
  tensor of an evaluator, whose ``(L, 1, S)`` index the evaluator keeps
  and hands over as it is.  Kept arrays stay writeable and private:
  ``take`` copies an index that is not writeable before it reads it, so a
  read-only one would be copied on every call.
* Workspace.  Both gathers, the reductions and the indexes of a pass of
  one group are written with ``out=`` into one workspace per thread, which
  the thread keeps between calls.  The products are written over the k
  side and the squared magnitudes over the l side, and the amplitude
  gather reuses the bytes of the dead probability gather.  A pass of one
  group over several windows of pair choices keeps its row-major index
  through them.  The workspace holds the budget the pass was made for; a
  pass over it gets a buffer of its own, dropped with the pass.  Results
  are new arrays.

The bits do not change: every gather reads the same places as in the
stacked kernel (entry r of a window reads selected position ``places[r]``
plus each sector's offset), every product, difference, absolute value and
square takes the same operands in the same order (element-wise operations
do not depend on the layout), and every sum runs over the same numbers in
the same order.  The sector sums run along an axis with the memory layout
they always had.  The probabilities run along axis 0 of ``(L, B, S)``,
which adds row after row as a sum over the middle axis of ``(B, L, S)``
does, or along the rows of ``(B, L)`` when S = 1.  Each entry of a batch
is reduced on its own, so how subsets, groups or probes are cut into
passes does not change their values.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from typing import Callable, NamedTuple

import numpy as np

# Plans and layouts kept; the CLI alone can touch dozens of keys.
PLAN_CACHE_SIZE = 128


def _digits(shape: tuple[int, ...]) -> np.ndarray:
    """Every position of ``shape`` in row-major order, one row per axis.

    Not cached: its callers are, and a plan group that keeps its gather
    index drops the tables it was built from.
    """
    return np.indices(shape).reshape(len(shape), math.prod(shape))


class _Group(NamedTuple):
    """The shape the B entries of one group of a pass share."""

    lattice: int
    choices: int
    batch: int
    positions: int
    sectors: int


class _Shape(NamedTuple):
    """What one pass evaluates; it keys the views carved for the pass.

    ``groups`` run by lattice, then by positions.  ``window`` is the number
    of pair choices per window.  A ``packed`` pass is handed its row-major
    and kernel-order indexes, flat and in its own layout, and has one
    window of every group's pair choices; any other pass has one group,
    whose ``(L, B, S)`` index is written into the workspace and whose
    kernel-order index it takes per window.
    """

    groups: tuple[_Group, ...]
    window: int
    packed: bool
    budget: int


def _regions(shape: _Shape) -> tuple[list, list, list]:
    """``(count, dtype)`` of every flat temporary of one pass, in order.

    Three lists: the arrays kept through the pass (sector weights and the
    per-choice sums); the probability phase (the row-major index, unless
    the pass is packed, and the gathered squares); and one window of pair
    choices (the row-major index again when it outlives several windows,
    the gathered amplitudes, and the kernel-order index unless the pass
    is packed).  The two phases take turns in the bytes after the kept
    arrays.  One window of every pair choice of one group takes its rows
    first and then gathers the amplitudes over them: they are
    ``2^D * C >= L`` rows of complex values, at least twice the index's
    bytes, so the kernel-order index after them never overlaps it.
    """
    groups, window, packed, _ = shape
    gathers = sum(g.positions * g.batch * g.sectors for g in groups)
    rows = sum(g.lattice * min(window, g.choices) * g.batch * g.sectors
               for g in groups)
    index = [] if packed else [(gathers, np.intp)]
    return ([(sum(g.batch * g.sectors for g in groups), np.float64),
             (sum(g.batch * g.choices for g in groups), np.float64)],
            index + [(gathers, np.float64)],
            index * (window < max(g.choices for g in groups))
            + [(rows, np.complex128)] + [(rows, np.intp)] * (not packed))


def _pass_bytes(*regions: list) -> int:
    """Workspace bytes of one pass, from the three lists of :func:`_regions`."""
    kept, probability, window = (
        sum(count * np.dtype(dtype).itemsize for count, dtype in part)
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
    sectors: int
    budget: int
    shapes: dict


def _single(layout: _Layout, batch: int) -> _Shape:
    """The shape of a pass of ``batch`` entries of one group of ``layout``.

    Kept in the layout per batch, so a warm evaluator call builds none.
    """
    shape = layout.shapes.get(batch)
    if shape is None:
        shape = layout.shapes.setdefault(batch, _Shape(
            (_Group(layout.lattice, layout.choices, batch, layout.positions,
                    layout.sectors),), layout.window, False, layout.budget))
    return shape


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
    the table.  ``batch`` entries with all their pair choices fit a pass of
    one group in ``budget`` bytes; when one entry alone does not fit,
    ``batch`` is 1 and a pass takes its pair choices ``window`` at a time.
    ``shapes`` keeps :func:`_single`'s pass shapes, per batch.
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
    def one(choices: int, window: int) -> _Shape:
        group = _Group(lattice, choices, 1, positions, sectors)
        return _Shape((group,), window, False, budget)

    batch, window = budget // _pass_bytes(*_regions(one(choices, choices))), choices
    if not batch:
        batch = 1
        kept, (index, _), _ = _regions(one(choices, 1))
        window = max(1, min(choices, (budget - _pass_bytes(kept, [index], []))
                            // _pass_bytes([], [], _regions(one(1, 1))[2])))
    windows = tuple(places[:, start:start + window].reshape(-1)
                    for start in range(0, choices, window))
    return _Layout(windows, batch, window, lattice, choices, positions, sectors,
                   budget, {})


def _packed(members: list, budget: int) -> list[tuple]:
    """Pack groups of one pass and one window each into passes of ``budget``.

    ``members`` are ``(places, layout, index)``: per group the places of
    its entries, its :func:`_layout`, whose one window holds every pair
    choice, and a callable that builds its ``(L, B, S)`` index.  They are
    taken in order, each into the current pass while its bytes fit.
    Returns per pass ``(places, shape, rows, (order,))`` for
    :func:`_evaluate_pass`: the places in the pass's group order, its
    shape, and its row-major and kernel-order indexes in the layouts of
    the module notes.
    """
    # the regions of a packed pass are those of its groups laid end to end
    passes, current, used = [], [], ([], [], [])
    for places, layout, index in members:
        group = _Group(layout.lattice, layout.choices, len(places),
                       layout.positions, layout.sectors)
        regions = _regions(_Shape((group,), group.choices, True, budget))
        total = [a + b for a, b in zip(used, regions)]
        if current and _pass_bytes(*total) > budget:
            passes.append(_pack(current, budget))
            current, total = [], regions
        current.append((group, places, layout, index))
        used = total
    if current:
        passes.append(_pack(current, budget))
    return passes


def _pack(members: list, budget: int) -> tuple:
    """One packed pass of ``members``, ``(group, places, layout, index)``.

    Each group's index is built in turn and written into the pass's two
    indexes, so no more than one of them is held at a time.
    """
    members = sorted(members, key=lambda m: (m[0].lattice, m[0].positions))
    groups = tuple(m[0] for m in members)
    counts = [g.choices * g.batch * g.sectors for g in groups]
    starts = _starts(counts)
    halves = _halves(groups, counts)
    gathers = _starts([g.positions * g.batch * g.sectors for g in groups])
    rows = np.empty(gathers[-1], np.intp)
    order = np.zeros(sum(g.lattice * m for g, m in zip(groups, counts)), np.intp)
    for (positions, sectors), i, j in _runs([(g.positions, g.sectors)
                                              for g in groups]):
        block = rows[gathers[i]:gathers[j]]
        # (L, B, S) views of the block, whose S = 1 blocks are (B, L)
        block = (block.reshape(-1, positions).T[:, :, None] if sectors == 1
                 else block.reshape(positions, -1, sectors))
        column = 0
        for k in range(i, j):
            group, _, layout, index = members[k]
            index = index()
            block[:, column:column + group.batch] = index
            column += group.batch
            # the level layout puts lattice bit t of each entry halves[t]
            # further on; bit 0 is the most significant
            lattice = np.zeros(1, np.intp)
            for half in reversed(halves[:group.lattice.bit_length() - 1]):
                lattice = np.concatenate([lattice, lattice + half])
            order[starts[k] + lattice[:, None] + np.arange(counts[k])] = index.take(
                layout.windows[0], axis=0).reshape(group.lattice, counts[k])
    shape = _Shape(groups, max(g.choices for g in groups), True, budget)
    return np.concatenate([m[1] for m in members]), shape, rows, (order,)


def _halves(groups: tuple[_Group, ...], counts: list[int]) -> list[int]:
    """Per reduction level t, the length of the lower half of a packed pass.

    ``counts`` are each group's reduced values; a group of depth D holds
    ``2^(D - t) * count`` values at level t, half of them in the lower half
    while t < D.
    """
    depth = max(g.lattice for g in groups).bit_length() - 1
    return [sum((g.lattice >> (t + 1)) * m for g, m in zip(groups, counts))
            for t in range(depth)]


def _squares(amplitudes: np.ndarray) -> np.ndarray:
    """``conj(a) * a`` of every amplitude, as contiguous reals.

    The complex product stays because numpy forms its real part as a fused
    multiply-add, which no real-valued expression rounds alike:
    ``np.square(a.real) + np.square(a.imag)`` differs in the last bit on
    about one Haar amplitude in six.
    """
    squares = np.conj(amplitudes)
    np.multiply(squares, amplitudes, out=squares)
    return squares.real.copy()


def _carve(buffer: np.ndarray, offset: int, regions: list) -> list[np.ndarray]:
    """Flat views of ``regions`` laid end to end in ``buffer`` from ``offset``."""
    views = []
    for count, dtype in regions:
        views.append(np.ndarray(count, dtype, buffer, offset))
        offset += views[-1].nbytes
    return views


def _starts(counts: list[int]) -> list[int]:
    """Where each of ``counts`` starts when they are laid end to end, and the end."""
    return [0, *itertools.accumulate(counts)]


def _runs(keys: list) -> list[tuple]:
    """``(key, i, j)`` for each run ``i:j`` of equal adjacent ``keys``."""
    runs = []
    for key, run in itertools.groupby(range(len(keys)), key=keys.__getitem__):
        run = list(run)
        runs.append((key, run[0], run[-1] + 1))
    return runs


class _Views(NamedTuple):
    """One pass's temporaries, carved from a workspace; see :func:`_pass_views`."""

    weight: np.ndarray
    index: np.ndarray | None
    squares: np.ndarray
    transposed: bool
    blocks: tuple
    windows: tuple
    choice_sums: tuple


def _window_views(buffer: np.ndarray, at: int, shape: _Shape, start: int,
                  stop: int, weight: np.ndarray) -> tuple[tuple, list]:
    """One window's temporaries at ``at`` in ``buffer``.

    The window holds pair choices ``start:stop`` of a pass of one group, or
    every pair choice of a packed pass.  Returns ``(order, gathered, k, l,
    lower, upper, first, levels, weighted)`` and the ``(w, B, S)`` values
    each group reduces to: the kernel-order index, None when the pass is
    packed, and the gathered amplitudes, shaped alike; the k and l sides,
    whose products are written over k; the lower and upper halves of the
    products, and ``first`` over the l side for the squared magnitude of
    their difference; the ``(lower, upper)`` halves of ``first`` at each
    later level; and the ``(reduced, weight)`` pairs of the weighting.
    """
    groups = shape.groups
    widths = [min(stop, g.choices) - start for g in groups]
    counts = [w * g.batch * g.sectors for g, w in zip(groups, widths)]
    rows = sum(g.lattice * m for g, m in zip(groups, counts))
    gathered = np.ndarray(rows, np.complex128, buffer, at)
    order = None
    if not shape.packed:
        (group,) = groups
        block = (rows // group.batch // group.sectors, group.batch, group.sectors)
        order = np.ndarray(block, np.intp, buffer, at + gathered.nbytes)
        gathered = gathered.reshape(block)
    flat = gathered.reshape(-1)
    half = rows // 2
    first = flat[half:].view(np.float64)[:half // 2]
    halves = _halves(groups, counts)
    levels = []
    for t in range(2, len(halves)):
        done = sum(m for g, m in zip(groups, counts) if g.lattice <= 1 << t)
        levels.append((first[done:done + halves[t]],
                       first[done + halves[t]:done + 2 * halves[t]]))
    starts = _starts(counts)
    reduced = [first[a:b].reshape(w, g.batch, g.sectors)
               for g, w, a, b in zip(groups, widths, starts, starts[1:])]
    # groups of one pair choice line up with their weights, so each run
    # of them is weighted in one call
    entries = _starts([g.batch * g.sectors for g in groups])
    weighted = tuple(
        (first[starts[i]:starts[j]], weight[entries[i]:entries[j]]) if alone is None
        else (reduced[i], weight[entries[i]:entries[j]].reshape(reduced[i].shape[1:]))
        for alone, i, j in _runs([None if w == 1 else k for k, w in enumerate(widths)]))
    return (order, gathered, flat[:half], flat[half:], flat[:half // 2],
            flat[half // 2:half], first, tuple(levels), weighted), reduced


_thread = threading.local()


def _pass_views(shape: _Shape) -> _Views:
    """One pass's temporaries, carved from this thread's workspace.

    Each thread keeps one workspace of the shape's budget between calls,
    with the views of the last ``PLAN_CACHE_SIZE`` pass shapes carved from
    it, the oldest dropped first; both are replaced when the budget
    changes.  A pass larger than the budget is carved from
    a buffer of its own, dropped with the pass.
    """
    workspace = getattr(_thread, "workspace", None)
    if workspace is None or len(workspace[0]) != shape.budget:
        workspace = _thread.workspace = (np.empty(shape.budget, np.uint8), {})
    buffer, carved = workspace
    if shape in carved:
        return carved[shape]
    regions = _regions(shape)
    if _pass_bytes(*regions) > len(buffer):
        buffer = np.empty(_pass_bytes(*regions), np.uint8)
    groups = shape.groups
    weight, sums = _carve(buffer, 0, regions[0])
    at = _pass_bytes(regions[0], [], [])
    *index, squares = _carve(buffer, at, regions[1])
    entries = _starts([g.batch * g.sectors for g in groups])
    choices = _starts([g.batch * g.choices for g in groups])
    per_choice = [sums[a:b].reshape(g.batch, g.choices)
                  for g, a, b in zip(groups, choices, choices[1:])]
    gathers = _starts([g.positions * g.batch * g.sectors for g in groups])
    blocks = []
    for (positions, sectors), i, j in _runs([(g.positions, g.sectors)
                                              for g in groups]):
        block, out = squares[gathers[i]:gathers[j]], weight[entries[i]:entries[j]]
        if sectors == 1:
            blocks.append((block.reshape(-1, positions), 1, out))
        else:
            blocks.append((block.reshape(positions, -1, sectors), 0,
                           out.reshape(-1, sectors)))
    transposed = False
    if not shape.packed:
        (group,) = groups
        index = index[0].reshape(group.positions, group.batch, group.sectors)
        transposed = group.sectors == 1
        squares = blocks[0][0] if transposed else squares.reshape(index.shape)
    else:
        index = None
    most = max(g.choices for g in groups)
    if index is not None and shape.window < most:
        at += index.nbytes
    windows = []
    for start in range(0, most, shape.window):
        # full windows share their temporaries; each writes its own sums
        if not windows or start + shape.window > most:
            temps, reduced = _window_views(buffer, at, shape, start,
                                           start + shape.window, weight)
        windows.append((*temps, tuple((r, s[:, start:start + len(r)].T)
                                      for r, s in zip(reduced, per_choice))))
    choice_sums = tuple(sums[choices[i]:choices[j]].reshape(-1, c)
                        for c, i, j in _runs([g.choices for g in groups]))
    views = _Views(weight, index, squares, transposed, tuple(blocks),
                   tuple(windows), choice_sums)
    if buffer is workspace[0]:
        if len(carved) == PLAN_CACHE_SIZE:
            del carved[next(iter(carved))]
        carved[shape] = views
    return views


def _evaluate_pass(
    shape: _Shape,
    index: np.ndarray,
    amplitudes: np.ndarray,
    squares: np.ndarray,
    windows: tuple[np.ndarray, ...],
    views: _Views | None = None,
) -> np.ndarray:
    """Per entry of a pass, its weighted sum over sectors and pair choices.

    The component is ``sqrt(constant * sum)``.  ``amplitudes`` is flat and
    ``squares`` is :func:`_squares` of it.  A packed pass is handed its
    kept row-major index and ``windows`` holds its kernel-order index, both
    from :func:`_packed`; the entries come in the pass's group order.  A
    pass of one group runs through :func:`_evaluate_group`, which hands it
    its C-contiguous ``(L, B, S)`` index, the windows of its
    :func:`_layout` and the ``views`` it carved.  Each group writes the
    sums of all of its windows into one ``(B, C)`` array that is summed
    once, so the split into windows does not change the result.
    """
    if views is None:
        views = _pass_views(shape)
    weight, _, gathered, transposed, blocks, temps, choice_sums = views
    # one sector per entry: the squares are gathered (B, L), see the notes
    rows = index.reshape(gathered.shape[::-1]).T if transposed else index
    squares.take(rows, out=gathered, mode="wrap")
    for block, axis, out in blocks:
        np.add.reduce(block, axis=axis, out=out)
    # a zero-probability sector has only zero amplitudes, so all of its
    # reduced values are exactly 0 and any finite weight resolves 0/0 to 0
    np.maximum(weight, sys.float_info.min, out=weight)
    np.divide(1.0, weight, out=weight)
    for places, window in zip(windows, temps):
        _window_sums(places, index, amplitudes, window)
    if len(choice_sums) == 1:
        return np.add.reduce(choice_sums[0], axis=1)
    return np.concatenate([np.add.reduce(sums, axis=1) for sums in choice_sums])


def _evaluate_group(
    layout: _Layout,
    batch: int,
    fill: Callable[[np.ndarray], np.ndarray],
    amplitudes: np.ndarray,
    squares: np.ndarray,
) -> np.ndarray:
    """:func:`_evaluate_pass` of ``batch`` entries of one group of ``layout``.

    ``fill(out)`` returns the pass's row-major index: it writes it into
    ``out``, the ``(L, B, S)`` place of the index in the workspace, or
    returns a C-contiguous one that its caller keeps.
    """
    shape = _single(layout, batch)
    views = _pass_views(shape)
    return _evaluate_pass(shape, fill(views.index), amplitudes, squares,
                          layout.windows, views)


def _window_sums(
    places: np.ndarray,
    index: np.ndarray,
    amplitudes: np.ndarray,
    temps: tuple,
) -> None:
    """Weighted sector sums of one window of pair choices into the pass's sums.

    ``temps`` comes from :func:`_window_views`.  In a pass of one group,
    ``places`` is the window's table from :func:`_layout` and row r of the
    kernel-order index is row ``places[r]`` of the ``(L, B, S)`` ``index``;
    a packed pass hands its kernel-order index as ``places``.
    """
    (order, gathered, k_side, l_side, lower, upper, first, levels, weighted,
     sector_sums) = temps
    if order is not None:
        index.take(places, axis=0, out=order, mode="wrap")
        places = order
    amplitudes.take(places, out=gathered, mode="wrap")
    np.multiply(k_side, l_side, out=k_side)
    np.subtract(lower, upper, out=lower)
    np.abs(lower, out=first)
    np.square(first, out=first)
    for lower, upper in levels:
        np.subtract(lower, upper, out=lower)
        np.abs(lower, out=lower)
    for reduced, weight in weighted:
        np.multiply(reduced, weight, out=reduced)
    for reduced, out in sector_sums:
        np.add.reduce(reduced, axis=-1, out=out)
