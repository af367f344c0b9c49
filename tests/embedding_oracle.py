"""Test-only self-dual embedding search: every rotation system in the
product of `embedding._vertex_candidates`, in the order the depth-first
search in `embedding.search_self_dual_embedding` visits its leaves, checked
whole.  It is the reference for that search's pruning, which must return
the same first witness and the same absences.  prod_v (deg(v) - 1)!
systems: for small graphs only.

`index_order_rotation` and `dual_edge_count` are the tests' conveniences.
"""
from __future__ import annotations

import itertools
from typing import Optional

from paleylift.embedding import (
    DualGraphResult,
    RotationSystem,
    _vertex_candidates,
    dual_graph,
    incident_darts,
    trace_faces,
)
from paleylift.graphs import Graph, find_isomorphism


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
