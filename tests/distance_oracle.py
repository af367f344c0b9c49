"""Brute-force minimum-distance search: the reference the systole engine in
`css.distance_search` is checked against.

It enumerates every support of weight <= w_max in (weight, combination)
order, so each side's witness is its smallest (weight, sorted support)
logical.  Sum_{w <= w_max} C(n, w) supports: for small instances only.
"""
from __future__ import annotations

import itertools
from typing import Optional

from paleylift.css import CssCode, DistanceReport
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


def brute_force_distance(code: CssCode, w_max: int) -> DistanceReport:
    """The report `css.distance_search` must give, found by enumeration."""
    dz = search_side(code.hx, code.hz, w_max)
    dx = search_side(code.hz, code.hx, w_max)
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
