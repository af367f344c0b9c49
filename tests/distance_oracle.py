"""Slow references the systole engine in `css.distance_search` is checked
against.

The brute force enumerates every support of weight <= w_max in (weight,
combination) order, so each side's witness is its smallest (weight, sorted
support) logical.  Sum_{w <= w_max} C(n, w) supports: for small instances
only.

The all-roots engine runs the systole search's BFS from every row over
all rows, where the engine roots each cycle at its lowest row only, so it
offers each short cycle once per row near it.  It reaches the instances
the brute force cannot.

The min-row engine roots each cycle at its lowest row, as the engine does,
but searches every root to w_max, where the engine bounds each root by its
incumbent witness.

Both read their graph from `columns` and `adjacency`: the columns read
entry by entry (`gf2_oracle.columns`), one at a time, where the engine
reads every column at once from bit planes of the rows (`css._columns`).
"""
from __future__ import annotations

import itertools
from typing import Optional

import gf2_oracle
from paleylift.css import CssCode, DistanceReport
from paleylift.gf2 import BinaryMatrix, RowSpace


def columns(h: BinaryMatrix, name: str) -> tuple[
        tuple[int, ...], list[int], list[tuple[int, int]]]:
    """The graph whose vertices are the rows of h and whose edges are its
    columns: the columns as row masks, the loops (columns of weight 0), and
    the parallel edges, (i, j) for each column j equal to an earlier one, i
    the lowest column equal to it."""
    masks = gf2_oracle.columns(h)
    loops, parallel = [], []
    first: dict[int, int] = {}   # column value -> its lowest column index
    for j, column in enumerate(masks):
        weight = column.bit_count()
        if weight == 2:
            i = first.setdefault(column, j)
            if i != j:
                parallel.append((i, j))
        elif not weight:
            loops.append(j)
        else:
            raise ValueError(f"{name} column {j} has weight {weight}; the distance "
                             f"engine needs a surface code (column weights 0 or 2)")
    return masks, loops, parallel


def adjacency(rows: int, masks: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Adjacency lists of (neighbour, column) of the graph of `columns`: a
    column of weight 2 joins its lowest and highest set rows."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for j, column in enumerate(masks):
        if column:
            u, v = (column & -column).bit_length() - 1, column.bit_length() - 1
            out[u].append((v, j))
            out[v].append((u, j))
    return out


def search_side(
    kernel_of: BinaryMatrix,
    modulo: BinaryMatrix,
    w_max: int,
) -> Optional[tuple[int, ...]]:
    """Minimum-weight vector in ker(kernel_of) outside rowspace(modulo),
    weight <= w_max, in (weight, combination) order."""
    n = kernel_of.cols
    syndromes = gf2_oracle.columns(kernel_of)
    quotient = RowSpace(modulo)
    for w in range(1, w_max + 1):
        for comb in itertools.combinations(range(n), w):
            s = 0
            for j in comb:
                s ^= syndromes[j]
            if s:
                continue
            v = 0
            for j in comb:
                v |= 1 << j
            if not quotient.contains(v):
                return comb
    return None


def all_roots_side(
    kernel_of: BinaryMatrix,
    modulo: BinaryMatrix,
    w_max: int,
    name: str,
) -> Optional[tuple[int, ...]]:
    """`css._systole_side` with a BFS ball from every root over all rows."""
    masks, loops, _ = columns(kernel_of, name)
    lists = adjacency(kernel_of.rows, masks)
    quotient = RowSpace(modulo)
    best_weight, best = w_max, 0

    def offer(v: int) -> None:
        nonlocal best_weight, best
        weight = v.bit_count()
        if weight > best_weight:
            return
        if weight == best_weight and best:
            differ = v ^ best
            if not v & differ & -differ:
                return
        if not quotient.contains(v):
            best_weight, best = weight, v

    for j in loops:
        offer(1 << j)
    for root in range(len(lists)):
        path = {root: 0}
        tree = set()
        frontier = [root]
        for _ in range(w_max // 2):
            reached = []
            for x in frontier:
                for y, j in lists[x]:
                    if y not in path:
                        path[y] = path[x] | (1 << j)
                        tree.add(j)
                        reached.append(y)
            frontier = reached
        rim = set() if w_max % 2 else set(frontier)
        for x, to_x in list(path.items())[:len(path) - len(rim)]:
            for y, j in lists[x]:
                if (x < y or y in rim) and j not in tree and y in path:
                    offer(to_x ^ path[y] ^ (1 << j))
    return tuple(j for j in range(kernel_of.cols) if best >> j & 1) if best else None


def min_row_side(
    kernel_of: BinaryMatrix,
    modulo: BinaryMatrix,
    w_max: int,
    name: str,
) -> Optional[tuple[int, ...]]:
    """`css._systole_side` with every root searched to w_max."""
    masks, loops, _ = columns(kernel_of, name)
    lists = adjacency(kernel_of.rows, masks)
    quotient = RowSpace(modulo)
    best_weight, best = w_max, 0   # best == 0 until a witness is found

    def offer(v: int) -> None:
        nonlocal best_weight, best
        weight = v.bit_count()
        if weight > best_weight:
            return
        if weight == best_weight and best:
            # Of two supports of equal size, the sorted one that comes first
            # holds the lowest column in which they differ.
            differ = v ^ best
            if not v & differ & -differ:
                return
        if not quotient.contains(v):
            best_weight, best = weight, v

    for j in loops:
        offer(1 << j)
    for root in range(len(lists)):
        path = {root: 0}   # vertex -> columns of its tree path to the root
        tree = set()
        frontier = [root]
        for _ in range(w_max // 2):
            reached = []
            for x in frontier:
                for y, j in lists[x]:
                    if y > root and y not in path:
                        path[y] = path[x] | (1 << j)
                        tree.add(j)
                        reached.append(y)
            frontier = reached
        # For even w_max, the rim (depth w_max / 2, reached last) is not
        # scanned: its edges among themselves are too long, and each of its
        # edges to an inner vertex is met from the inner end.
        rim = set() if w_max % 2 else set(frontier)
        for x, to_x in list(path.items())[:len(path) - len(rim)]:
            for y, j in lists[x]:
                if (x < y or y in rim) and j not in tree and y in path:
                    offer(to_x ^ path[y] ^ (1 << j))
    return tuple(j for j in range(kernel_of.cols) if best >> j & 1) if best else None


def _report(dz, dx, w_max: int) -> DistanceReport:
    weights = [len(w) for w in (dz, dx) if w is not None]
    if weights:
        d = min(weights)
        return DistanceReport(
            dz_witness=dz, dx_witness=dx, searched_weight=w_max,
            d_found=d, d_lower=d, conclusion=f"d = {d}",
        )
    return DistanceReport(
        dz_witness=None, dx_witness=None, searched_weight=w_max,
        d_found=None, d_lower=w_max + 1, conclusion=f"d > {w_max}",
    )


def brute_force_distance(code: CssCode, w_max: int) -> DistanceReport:
    """The report `css.distance_search` must give, found by enumeration."""
    return _report(search_side(code.hx, code.hz, w_max),
                   search_side(code.hz, code.hx, w_max), w_max)


def all_roots_distance(code: CssCode, w_max: int) -> DistanceReport:
    """The report `css.distance_search` must give, from every root."""
    return _report(all_roots_side(code.hx, code.hz, w_max, "H_X"),
                   all_roots_side(code.hz, code.hx, w_max, "H_Z"), w_max)


def min_row_distance(code: CssCode, w_max: int) -> DistanceReport:
    """The report `css.distance_search` must give, from every root to
    w_max."""
    return _report(min_row_side(code.hx, code.hz, w_max, "H_X"),
                   min_row_side(code.hz, code.hx, w_max, "H_Z"), w_max)
