"""Simple undirected graphs with canonical vertex and edge orderings.

The sorted edge list is the single source of truth for matrix column
indices everywhere in the package.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .gf2 import BinaryMatrix

DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of nodes; the question is undecided."""


class Graph:
    """Simple undirected graph; edges are stored sorted as (u, v) with u < v."""

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{vertex_count - 1}")
            key = (u, v) if u < v else (v, u)
            if key in normalized:
                raise ValueError(f"duplicate edge {key}")
            normalized.add(key)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(normalized))
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(s) for s in self.adjacency))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            w = stack.pop()
            for x in self.adjacency[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        return len(seen) == self.vertex_count

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class IsomorphismCertificate:
    """Vertex permutation mapping a source graph onto a target graph."""

    mapping: tuple[int, ...]
    verified: bool


def verify_isomorphism(source: Graph, target: Graph, mapping: tuple[int, ...]) -> bool:
    """Exhaustive check that mapping sends E(source) exactly onto E(target)."""
    if source.vertex_count != target.vertex_count:
        return False
    if sorted(mapping) != list(range(source.vertex_count)):
        return False
    image = set()
    for u, v in source.edges:
        a, b = mapping[u], mapping[v]
        image.add((a, b) if a < b else (b, a))
    return image == set(target.edges)


def complement(graph: Graph) -> Graph:
    edges = []
    present = set(graph.edges)
    for u in range(graph.vertex_count):
        for v in range(u + 1, graph.vertex_count):
            if (u, v) not in present:
                edges.append((u, v))
    return Graph(graph.vertex_count, edges)


def find_isomorphism(
    ga: Graph,
    gb: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[IsomorphismCertificate]:
    """Backtracking isomorphism search with degree pruning.

    Returns a verified certificate, or None when the graphs are definitely
    not isomorphic.  Raises SearchBudgetExceeded when the node budget runs
    out before the search is decided.  The candidates for v are the unused
    vertices of gb of v's degree that agree in adjacency with every mapped
    u < v; they are tried in index order, so the result is deterministic.
    """
    n = ga.vertex_count
    if n != gb.vertex_count or ga.edge_count != gb.edge_count:
        return None
    if ga.degree_sequence() != gb.degree_sequence():
        return None

    # Adjacency as bitmasks: below_a[v] holds v's neighbours u < v in ga,
    # nb_b[w] all of w's neighbours in gb, pool_b[d] gb's vertices of degree d.
    below_a = [sum(1 << u for u in ga.adjacency[v] if u < v) for v in range(n)]
    nb_b = [sum(1 << x for x in gb.adjacency[w]) for w in range(n)]
    pool_b: dict[int, int] = {}
    for w in range(n):
        d = gb.degree(w)
        pool_b[d] = pool_b.get(d, 0) | 1 << w
    deg_a = [ga.degree(v) for v in range(n)]
    mapping = [-1] * n
    nodes = 0

    def charge(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"isomorphism search exceeded {node_budget} nodes; undecided"
            )

    def extend(v: int, used: int) -> bool:
        """Map v, v+1, ... onto the vertices outside used.  Every unused
        vertex of matching degree is one node, whether or not it is
        consistent with the vertices mapped so far."""
        if v == n:
            return True
        pending = pool_b[deg_a[v]] & ~used
        candidates = pending
        for u in range(v):
            if below_a[v] >> u & 1:
                candidates &= nb_b[mapping[u]]
            else:
                candidates &= ~nb_b[mapping[u]]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            # charge the candidates up to and including this one
            tried = pending & ((low << 1) - 1)
            pending ^= tried
            charge(tried.bit_count())
            mapping[v] = low.bit_length() - 1
            if extend(v + 1, used | low):
                return True
        charge(pending.bit_count())
        return False

    if not extend(0, 0):
        return None
    result = tuple(mapping)
    assert verify_isomorphism(ga, gb, result)
    return IsomorphismCertificate(mapping=result, verified=True)


def is_self_complementary(
    graph: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[IsomorphismCertificate]:
    """Certificate that the graph is isomorphic to its complement, if it is.

    Rejects without search when the vertex count is not 0 or 1 mod 4 or the
    edge count is not m(m-1)/4.
    """
    m = graph.vertex_count
    if m % 4 not in (0, 1):
        return None
    if 4 * graph.edge_count != m * (m - 1):
        return None
    return find_isomorphism(graph, complement(graph), node_budget=node_budget)


def incidence_matrix(graph: Graph) -> BinaryMatrix:
    """Vertex-edge incidence matrix; column order is the canonical edge order."""
    rows = [0] * graph.vertex_count
    for j, (u, v) in enumerate(graph.edges):
        rows[u] |= 1 << j
        rows[v] |= 1 << j
    return BinaryMatrix(graph.vertex_count, graph.edge_count, tuple(rows))


def adjacency_matrix(graph: Graph) -> BinaryMatrix:
    rows = [0] * graph.vertex_count
    for u, v in graph.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return BinaryMatrix(graph.vertex_count, graph.vertex_count, tuple(rows))


# -- JSON persistence --------------------------------------------------------

def is_int_pair(value: object) -> bool:
    """True for a JSON list of exactly two integers (booleans excluded)."""
    return (isinstance(value, list) and len(value) == 2
            and all(type(x) is int for x in value))


def graph_to_json(graph: Graph) -> str:
    payload = {"vertex_count": graph.vertex_count,
               "edges": [list(e) for e in graph.edges]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def graph_from_json(text: str) -> Graph:
    """Parse graph JSON; any malformed content raises ValueError."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or type(payload.get("vertex_count")) is not int:
        raise ValueError("expected an object with an integer vertex_count")
    edges = payload.get("edges")
    if not isinstance(edges, list) or not all(is_int_pair(e) for e in edges):
        raise ValueError("edges must be a list of [u, v] integer pairs")
    return Graph(payload["vertex_count"], [tuple(e) for e in edges])


def write_graph(graph: Graph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(graph))


def read_graph(path: str | Path) -> Graph:
    return graph_from_json(Path(path).read_text())
