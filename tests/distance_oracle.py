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
"""
from __future__ import annotations

import itertools
from typing import Optional

from paleylift.css import CssCode, DistanceReport, _adjacency, _columns
from paleylift.gf2 import BinaryMatrix, RowSpace


def search_side(
    kernel_of: BinaryMatrix,
    modulo: BinaryMatrix,
    w_max: int,
) -> Optional[tuple[int, ...]]:
    """Minimum-weight vector in ker(kernel_of) outside rowspace(modulo),
    weight <= w_max, in (weight, combination) order."""
    n = kernel_of.cols
    syndromes = [kernel_of.column_mask(j) for j in range(n)]
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
    columns, loops, _ = _columns(kernel_of, name)
    adjacency = _adjacency(kernel_of.rows, columns)
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
    for root in range(len(adjacency)):
        path = {root: 0}
        tree = set()
        frontier = [root]
        for _ in range(w_max // 2):
            reached = []
            for x in frontier:
                for y, j in adjacency[x]:
                    if y not in path:
                        path[y] = path[x] | (1 << j)
                        tree.add(j)
                        reached.append(y)
            frontier = reached
        rim = set() if w_max % 2 else set(frontier)
        for x, to_x in list(path.items())[:len(path) - len(rim)]:
            for y, j in adjacency[x]:
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
    columns, loops, _ = _columns(kernel_of, name)
    adjacency = _adjacency(kernel_of.rows, columns)
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
    for root in range(len(adjacency)):
        path = {root: 0}   # vertex -> columns of its tree path to the root
        tree = set()
        frontier = [root]
        for _ in range(w_max // 2):
            reached = []
            for x in frontier:
                for y, j in adjacency[x]:
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
            for y, j in adjacency[x]:
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
