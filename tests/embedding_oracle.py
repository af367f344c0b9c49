"""Test-only self-dual embedding search: every rotation system in the
product of `embedding._vertex_candidates`, in the order the depth-first
search in `embedding.search_self_dual_embedding` visits its leaves, checked
whole.  It is the reference for that search's pruning, which must return
the same first witness and the same absences.  prod_v (deg(v) - 1)!
systems: for small graphs only.

`face_walks` and `dual_graph` are the face walk and the dual that
`embedding` used before it labelled each dart with its face during the
walk: a visited list, a dict from dart to face, a `Counter` of face pairs
and the checked `Graph(...)` constructor.  They are the reference for
`embedding.trace_faces` and `embedding.dual_graph`.

`index_order_rotation` and `dual_edge_count` are the tests' conveniences.
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

from paleylift.embedding import (
    DualGraphResult,
    RotationSystem,
    _vertex_candidates,
    incident_darts,
    trace_faces,
)
from paleylift.graphs import Graph, find_isomorphism


def face_walks(rs: RotationSystem) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The faces, each walked from its lowest dart, and the Euler genus."""
    g = rs.graph
    num_darts = 2 * g.edge_count
    succ = [0] * num_darts
    for rot in rs.rotations:
        for d, nxt in zip(rot, rot[1:] + rot[:1]):
            succ[d] = nxt
    visited = [False] * num_darts
    faces = []
    for d0 in range(num_darts):
        if visited[d0]:
            continue
        walk = []
        d = d0
        while not visited[d]:
            visited[d] = True
            walk.append(d)
            d = succ[d ^ 1]
        faces.append(tuple(walk))
    genus = (2 - g.vertex_count + g.edge_count - len(faces)) // 2
    return tuple(faces), genus


def dual_graph(rs: RotationSystem) -> DualGraphResult:
    """One dual vertex per face; one dual adjacency per primal edge."""
    faces = trace_faces(rs)
    face_of = {}
    for fi, walk in enumerate(faces.faces):
        for d in walk:
            face_of[d] = fi
    loops = []
    mult: Counter = Counter()
    for e in range(rs.graph.edge_count):
        a, b = face_of[2 * e], face_of[2 * e + 1]
        if a == b:
            loops.append((a, e))
        else:
            mult[(min(a, b), max(a, b))] += 1
    simple = Graph(len(faces.faces), list(mult.keys()))
    return DualGraphResult(
        graph=simple,
        loops=tuple(loops),
        multiplicities=tuple(sorted(mult.items())),
    )


def index_order_rotation(graph: Graph) -> RotationSystem:
    """The rotation listing each vertex's darts in ascending order."""
    return RotationSystem(graph, tuple(map(tuple, incident_darts(graph))))


def dual_edge_count(dual: DualGraphResult) -> int:
    """The dual's edges with their multiplicity, its loops included: one
    per edge of the primal graph."""
    return len(dual.loops) + sum(c for _, c in dual.multiplicities)


def first_self_dual_embedding(graph: Graph, target_genus: int) -> Optional[RotationSystem]:
    """The first system of the target genus whose dual is a simple graph
    isomorphic to graph, or None."""
    inc = incident_darts(graph)
    candidates = [_vertex_candidates(darts, halve=(v == 0))
                  for v, darts in enumerate(inc)]
    for rotations in itertools.product(*candidates):
        rotation = RotationSystem(graph, rotations)
        faces = trace_faces(rotation)
        if faces.genus != target_genus:
            continue
        dual = dual_graph(rotation)
        if dual.is_simple and find_isomorphism(dual.graph, graph) is not None:
            return rotation
    return None
