"""Test-only isomorphism search: backtracking with degree pruning that tries
every unused target vertex of matching degree in index order and checks it
against each mapped vertex one adjacency lookup at a time.  It is the
reference for the candidate masks of `graphs.find_isomorphism`, which must
visit the same search tree: same first mapping, same node count."""
from __future__ import annotations

from typing import Optional

from paleylift.graphs import Graph


def find_isomorphism(ga: Graph, gb: Graph) -> tuple[Optional[tuple[int, ...]], int]:
    """(first mapping in index order or None, nodes charged).  A node is
    charged for every unused degree-matching candidate considered."""
    n = ga.vertex_count
    if n != gb.vertex_count or ga.edge_count != gb.edge_count:
        return None, 0
    if ga.degree_sequence() != gb.degree_sequence():
        return None, 0

    deg_a = [ga.degree(v) for v in range(n)]
    deg_b = [gb.degree(v) for v in range(n)]
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def extend(v: int) -> bool:
        nonlocal nodes
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_a[v] != deg_b[w]:
                continue
            nodes += 1
            ok = True
            for u in range(v):
                if ga.has_edge(u, v) != gb.has_edge(mapping[u], w):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    return (tuple(mapping) if extend(0) else None), nodes
