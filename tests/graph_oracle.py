"""Test-only graph oracles.

Set-based: the edge set, adjacency, connectivity, complement and
isomorphism check of a graph given as (vertex_count, edges), computed from
sorted edge tuples and Python sets.  They are slow but independent of the
neighbour bitmasks of `graphs.Graph`, and raise ValueError on the inputs it
must reject.

Per-edge: the mask constructor, edge reader, isomorphism check and JSON
writer that `graphs` used before its whole-row kernels, one Python step
(or one big-int `|=`) per edge.
"""
from __future__ import annotations

import json
from typing import Iterable

Edges = tuple[tuple[int, int], ...]


def pair(edge: object) -> tuple[int, int]:
    """edge as (u, v) if it is a list or tuple of exactly two ints, bools
    excluded; ValueError otherwise."""
    if (not isinstance(edge, (list, tuple)) or len(edge) != 2
            or not all(type(end) is int for end in edge)):
        raise ValueError("edges must be a list of [u, v] integer pairs")
    return edge[0], edge[1]


def normalize(vertex_count: int, edges: Iterable[object]) -> Edges:
    """The edges as sorted (u, v) with u < v; ValueError for a negative
    vertex count, or at the first edge that is not a pair of ints, is a
    loop, has an end out of range or repeats an edge."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    normalized = set()
    for u, v in map(pair, edges):
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) outside vertex range 0..{vertex_count - 1}")
        key = (u, v) if u < v else (v, u)
        if key in normalized:
            raise ValueError(f"duplicate edge {key}")
        normalized.add(key)
    return tuple(sorted(normalized))


def adjacency(vertex_count: int, edges: Edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected(vertex_count: int, edges: Edges) -> bool:
    if vertex_count == 0:
        return True
    adj = adjacency(vertex_count, edges)
    seen = {0}
    stack = [0]
    while stack:
        for x in adj[stack.pop()]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return len(seen) == vertex_count


def complement(vertex_count: int, edges: Edges) -> Edges:
    present = set(edges)
    return tuple((u, v) for u in range(vertex_count) for v in range(u + 1, vertex_count)
                 if (u, v) not in present)


def verify_isomorphism(vertex_count: int, source: Edges, target: Edges,
                       mapping: tuple[int, ...]) -> bool:
    """True iff mapping is a permutation sending the source edges exactly
    onto the target edges."""
    if any(type(x) is not int for x in mapping) or sorted(mapping) != list(range(vertex_count)):
        return False
    image = set()
    for u, v in source:
        a, b = mapping[u], mapping[v]
        image.add((a, b) if a < b else (b, a))
    return image == set(target)


def masks(vertex_count: int, edges: Iterable[object]) -> tuple[int, ...]:
    """The neighbour masks, set one `|=` per edge end, with the checks and
    messages of `normalize`."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    out = [0] * vertex_count
    for u, v in map(pair, edges):
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) outside vertex range 0..{vertex_count - 1}")
        bit = 1 << v
        if out[u] & bit:
            raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
        out[u] |= bit
        out[v] |= 1 << u
    return tuple(out)


def mask_edges(neighbours: tuple[int, ...]) -> Edges:
    """The sorted edges read off the masks, one comparison per vertex pair."""
    n = len(neighbours)
    out = []
    for u, m in enumerate(neighbours):
        bits = bin(m | 1 << n)[:2:-1]
        out.extend([(u, v) for v in range(u + 1, n) if bits[v] == "1"])
    return tuple(out)


def mask_verify_isomorphism(source: tuple[int, ...], target: tuple[int, ...],
                            mapping: tuple[int, ...]) -> bool:
    """Every source edge maps to a target edge, between graphs with equally
    many edges; the mapping must be a permutation of plain ints."""
    n = len(source)
    if n != len(target):
        return False
    if any(type(x) is not int for x in mapping) or sorted(mapping) != list(range(n)):
        return False
    if sum(m.bit_count() for m in source) != sum(m.bit_count() for m in target):
        return False
    return all(target[mapping[u]] >> mapping[v] & 1 for u, v in mask_edges(source))


def to_json(vertex_count: int, edges: Edges) -> str:
    """The graph.json text as json.dumps writes it."""
    payload = {"vertex_count": vertex_count, "edges": edges}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
