"""Orientable cellular embeddings: rotation systems, face tracing, duals,
and a bounded search for self-dual embeddings.

Darts: edge e contributes dart 2e at its smaller endpoint and dart 2e+1 at
its larger endpoint; reversal is xor with 1.  A face walk steps from a dart
to the rotation successor of its reversal, the standard convention for
orientable embeddings.  On a connected graph with an edge every rotation
system is a cellular embedding in a closed orientable surface (Gross &
Tucker, Topological Graph Theory, 3.2), so trace_faces reads the genus off
V - E + F = 2 - 2g without a check.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .gf2 import BinaryMatrix
from .graphs import Graph, SearchBudgetExceeded, find_isomorphism, parse_json

DEFAULT_SEARCH_BUDGET = 50_000_000

_NOT_ROTATIONS = "rotations must be a list of [[edge, end], ...] lists with end 0 or 1"


def incident_darts(graph: Graph) -> list[list[int]]:
    """Darts at each vertex, ascending.  The edges are sorted, so a vertex's
    darts come in ascending order, and with them their far ends."""
    inc: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for e, (u, v) in enumerate(graph.edges):
        inc[u].append(2 * e)
        inc[v].append(2 * e + 1)
    return inc


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic dart order at every vertex; defines an orientable embedding."""

    graph: Graph
    rotations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rotations) != self.graph.vertex_count:
            raise ValueError(f"{len(self.rotations)} rotations for {self.graph.vertex_count}"
                             " vertices; one rotation per vertex required")
        expected = incident_darts(self.graph)
        for v, rot in enumerate(self.rotations):
            if sorted(rot) != expected[v]:
                raise ValueError(
                    f"rotation at vertex {v} is not a permutation of its darts: "
                    f"{sorted(rot)} != {expected[v]}"
                )


@dataclass(frozen=True)
class FaceSet:
    """Faces traced from a rotation system, with the Euler-derived genus."""

    graph: Graph
    faces: tuple[tuple[int, ...], ...]
    genus: int


def trace_faces(rs: RotationSystem) -> FaceSet:
    """Trace all faces; requires a connected graph with an edge."""
    g = rs.graph
    if not (g.edge_count and g.is_connected()):
        raise ValueError("face tracing requires a connected graph with an edge")
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
    return FaceSet(graph=g, faces=tuple(faces), genus=genus)


def face_edge_matrix(faces: FaceSet) -> BinaryMatrix:
    """|F| x |E| incidence mod 2: entry 1 iff the edge occurs an odd number
    of times on the face walk."""
    rows = []
    for walk in faces.faces:
        bits = 0
        for d in walk:
            bits ^= 1 << (d >> 1)
        rows.append(bits)
    return BinaryMatrix(len(rows), faces.graph.edge_count, tuple(rows))


@dataclass(frozen=True)
class DualGraphResult:
    """Dual of an embedded graph, reduced to a simple graph plus reports of
    the loops and multi-edges that the reduction removed."""

    graph: Graph
    loops: tuple[tuple[int, int], ...]          # (face, edge) pairs
    multiplicities: tuple[tuple[tuple[int, int], int], ...]  # ((f1,f2), count)

    @property
    def is_simple(self) -> bool:
        return not self.loops and all(c == 1 for _, c in self.multiplicities)


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


# -- self-dual embedding search ----------------------------------------------

def _vertex_candidates(inc: list[int], halve: bool) -> list[tuple[int, ...]]:
    """Cyclic orders at one vertex, each normalized to start at the smallest
    dart.  With halve=True, drop one of each reflection pair (valid at a
    single vertex because reversing every rotation preserves genus and dual)."""
    base, rest = inc[0], inc[1:]
    out = []
    for perm in itertools.permutations(rest):
        seq = (base,) + perm
        if halve and len(seq) >= 3 and seq[1] > seq[-1]:
            continue
        out.append(seq)
    return out


def search_self_dual_embedding(
    graph: Graph,
    target_genus: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[RotationSystem]:
    """Depth-first search for a rotation system of the target genus whose
    dual is a simple graph isomorphic to the input.

    Vertices are assigned in index order and candidate rotations tried in
    lexicographic order, so the first witness in enumeration order is
    returned.  Pruning: a partial assignment dies when a closed face has a
    length unavailable in the degree multiset of the graph (the dual must
    reproduce that multiset), or when an open face segment is already
    longer than the largest degree.  Each open segment is walked whole,
    from its dart at an unassigned vertex, so the last prune sees its full
    length.  The prunes only cut branches with no witness, so they change
    the node count and not the result.  A complete assignment's face
    lengths come from the degree multiset and sum to the dart count, as the
    whole multiset does, so it has a face per vertex and the target genus;
    it is accepted if its dual is a simple graph isomorphic to the input.

    Returns None when the space is exhausted (definitive absence).  Raises
    SearchBudgetExceeded when the node budget runs out first - that outcome
    is undecided, not absence.
    """
    if not graph.is_connected():
        raise ValueError("embedding search requires a connected graph")
    if not graph.edge_count:
        raise ValueError("embedding search requires at least one edge")
    m = graph.vertex_count
    n_e = graph.edge_count
    faces_needed = 2 - 2 * target_genus - m + n_e
    if faces_needed != m:
        # The dual has one vertex per face, so |F| != |V| rules out dual
        # isomorphism outright.
        return None

    inc = incident_darts(graph)
    deg_multiset = Counter(len(d) for d in inc)
    max_face_len = max(deg_multiset)
    num_darts = 2 * n_e
    candidates = [
        _vertex_candidates(inc[v], halve=(v == 0)) for v in range(m)
    ]

    succ = [-1] * num_darts
    nodes = 0

    def partial_ok() -> bool:
        visited = [False] * num_darts
        allowed = dict(deg_multiset)
        # A face step ends at a dart whose tail is assigned, so the darts at
        # unassigned vertices start the open segments: walking from them
        # first measures each segment whole.  The darts left over lie on
        # closed faces.
        starts = [d for d in range(num_darts) if succ[d] < 0]
        for d0 in itertools.chain(starts, range(num_darts)):
            if visited[d0]:
                continue
            length = 0
            d = d0
            is_closed = False
            while True:
                visited[d] = True
                length += 1
                if length > max_face_len:
                    return False
                nxt = succ[d ^ 1]
                if nxt < 0:
                    break
                d = nxt
                if d == d0:
                    is_closed = True
                    break
            if is_closed:
                remaining = allowed.get(length, 0)
                if remaining == 0:
                    return False
                allowed[length] = remaining - 1
        return True

    def dfs(chosen: tuple[tuple[int, ...], ...]) -> Optional[RotationSystem]:
        """Extend the candidates chosen at vertices 0 .. len(chosen) - 1."""
        nonlocal nodes
        if len(chosen) == m:
            rotation = RotationSystem(graph, chosen)
            dual = dual_graph(rotation)
            if not dual.is_simple or find_isomorphism(dual.graph, graph) is None:
                return None
            return rotation
        for seq in candidates[len(chosen)]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"embedding search exceeded {budget} nodes; not found within budget"
                )
            k = len(seq)
            for i in range(k):
                succ[seq[i]] = seq[(i + 1) % k]
            if partial_ok():
                result = dfs(chosen + (seq,))
                if result is not None:
                    return result
            for d in seq:
                succ[d] = -1
        return None

    return dfs(())


# -- rotation-system persistence ----------------------------------------------

def rotation_to_json(rs: RotationSystem) -> str:
    payload = {
        "rotations": [[[d >> 1, d & 1] for d in rot] for rot in rs.rotations]
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def rotation_from_json(text: str, graph: Graph) -> RotationSystem:
    """Parse rotation JSON for graph; any malformed content raises
    ValueError.  Each dart [edge, end] is checked as it is read, and
    RotationSystem then checks that each rotation permutes its darts."""
    payload = parse_json(text)
    rots = payload.get("rotations") if isinstance(payload, dict) else None
    if not isinstance(rots, list):
        raise ValueError(_NOT_ROTATIONS)
    rotations = []
    for rot in rots:
        if not isinstance(rot, list):
            raise ValueError(_NOT_ROTATIONS)
        darts = []
        for dart in rot:
            try:
                e, end = dart
            except (TypeError, ValueError):
                raise ValueError(_NOT_ROTATIONS) from None
            if type(e) is not int or type(end) is not int or end not in (0, 1):
                raise ValueError(_NOT_ROTATIONS)
            darts.append(2 * e + end)
        rotations.append(tuple(darts))
    return RotationSystem(graph=graph, rotations=tuple(rotations))


def write_rotation(rs: RotationSystem, path: str | Path) -> None:
    Path(path).write_text(rotation_to_json(rs))


def read_rotation(path: str | Path, graph: Graph) -> RotationSystem:
    return rotation_from_json(Path(path).read_text(), graph)
