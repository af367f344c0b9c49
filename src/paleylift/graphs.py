"""Simple undirected graphs stored as one neighbour bitmask per vertex,
with canonical vertex and edge orderings.

The sorted edge list is the single source of truth for matrix column
indices everywhere in the package.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .gf2 import BinaryMatrix, bit_flags

DEFAULT_NODE_BUDGET = 10**8

# The largest graph the builders construct: the lift at t = 9 and every
# Paley graph up to q = 1009.  Its neighbour masks take n^2 bits, and both
# families have about n^2 / 4 edges, the columns of their codes.
MAX_VERTICES = 1 << 10

_NOT_PAIRS = "edges must be a list of [u, v] integer pairs"


def require_vertex_count(base: int, exponent: int) -> None:
    """Raise ValueError if a graph on base^exponent vertices exceeds
    MAX_VERTICES, without computing a large power."""
    if base > 1 and (exponent >= MAX_VERTICES.bit_length()
                     or base ** exponent > MAX_VERTICES):
        raise ValueError(f"{base}^{exponent} vertices exceeds the limit of "
                         f"{MAX_VERTICES}")


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of nodes; the question is undecided."""


class Graph:
    """Simple undirected graph: bit v of neighbours[u] is set iff uv is an
    edge.  The edges, sorted as (u, v) with u < v, are read off the masks."""

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        """Check and store the edges in one pass.  Each edge must be a pair
        of ints (bools and floats excluded), no loop, in range and new; the
        first that fails names the error.  Each is set as two bytes of the
        "0"/"1" rows below, so an edge costs O(1) whatever vertex_count is;
        each row, reversed, is then read as one binary numeral."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        rows = [bytearray(b"0" * vertex_count) for _ in range(vertex_count)]
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(_NOT_PAIRS) from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(_NOT_PAIRS)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{vertex_count - 1}")
            row = rows[u]
            if row[v] == 49:   # ord("1"): the edge is in both rows once added
                raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
            row[v] = rows[v][u] = 49
        self.vertex_count = vertex_count
        self.neighbours: tuple[int, ...] = tuple(int(row[::-1], 2) for row in rows)

    @classmethod
    def of_masks(cls, masks: tuple[int, ...]) -> "Graph":
        """The graph whose vertex u has neighbour mask masks[u], unchecked:
        the masks must be symmetric, free of loop bits and below
        1 << len(masks).  The builders' constructions make them so, and so
        does embedding.dual_graph: it sets bit b of face a's mask and bit a
        of face b's together, only for two faces a != b in range.  Edges
        from outside go through Graph(vertex_count, edges)."""
        graph = cls.__new__(cls)
        graph.vertex_count = len(masks)
        graph.neighbours = masks
        return graph

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        n = self.vertex_count
        out = []
        for u, m in enumerate(self.neighbours):
            out.extend(zip(repeat(u), compress(range(u + 1, n), bit_flags(m >> u + 1, n - u - 1))))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.neighbours) // 2

    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        seen = frontier = 1
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= self.neighbours[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & ~seen
            seen |= frontier
        return seen == (1 << self.vertex_count) - 1

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.vertex_count == other.vertex_count
                and self.neighbours == other.neighbours)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.neighbours))

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class IsomorphismCertificate:
    """Vertex permutation mapping a source graph onto a target graph."""

    mapping: tuple[int, ...]


def verify_isomorphism(source: Graph, target: Graph, mapping: tuple[int, ...]) -> bool:
    """True iff mapping is a permutation of the vertices, given as plain
    ints, that sends E(source) exactly onto E(target).  Checked row by row:
    target row mapping[u], pulled back through mapping, must equal source
    row u, i.e. uw is an edge iff mapping[u]mapping[w] is one.  Each pull-
    back is one itemgetter over the row's bit string."""
    n = source.vertex_count
    if n != target.vertex_count:
        return False
    if any(type(x) is not int for x in mapping) or sorted(mapping) != list(range(n)):
        return False
    if n == 0:
        return True   # itemgetter needs at least one key
    sentinel = 1 << n
    pull_back = itemgetter(*mapping)
    image = target.neighbours
    # bin(m | sentinel)[:2:-1] has n digits, digit v being bit v of m; for
    # n == 1 pull_back returns one character, which join also takes whole
    return all("".join(pull_back(bin(image[w] | sentinel)[:2:-1]))
               == bin(m | sentinel)[:2:-1]
               for m, w in zip(source.neighbours, mapping))


def complement(graph: Graph) -> Graph:
    """The complement; its masks are symmetric and loop-free because the
    graph's are, so they are not checked again."""
    full = (1 << graph.vertex_count) - 1
    return Graph.of_masks(tuple(full & ~m & ~(1 << u)
                                for u, m in enumerate(graph.neighbours)))


@dataclass
class _Cells:
    """A partition of two graphs' vertices into aligned cells: the pairs of
    masks of two or more vertices, and the pairs of single vertices,
    fixed_a[k] paired with fixed_b[k]."""

    open: list[tuple[int, int]]
    fixed_a: list[int]
    fixed_b: list[int]


def find_isomorphism(
    ga: Graph,
    gb: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[IsomorphismCertificate]:
    """Individualization-refinement isomorphism search (McKay & Piperno,
    "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).

    Returns a verified certificate, or None when the graphs are definitely
    not isomorphic.  Raises SearchBudgetExceeded when the node budget runs
    out before the search is decided.

    The vertices of ga and gb are split into aligned cells, each cell of ga
    paired with one of gb.  Refinement splits every cell pair by the
    number of neighbours in a splitter cell until no splitter splits any
    pair: the stable colour refinement (1-WL) colouring of the disjoint
    union, which is unique.  A neighbour count held by different numbers
    of vertices in the two graphs fails the node.  The search then takes
    the smallest cell of two or more vertices, ties going to the one that
    holds the lowest ga vertex, and maps that cell's lowest ga vertex v to
    each vertex of the paired gb cell in ascending order, refining after
    each.  When every cell is a single vertex the pairing is an
    isomorphism, since paired vertices agree in their adjacency to every
    other pair.  The choices depend only on the cells as vertex sets, so
    the result does not depend on the order in which they were split.

    A node is one gb vertex tried for v, followed by one refinement.  The
    refinement of the whole vertex sets comes first and costs no node:
    graphs that colour refinement tells apart, by degrees among others,
    are rejected with none.  node_budget, DEFAULT_NODE_BUDGET unless given,
    bounds the nodes of the whole search over all its branches.  Within it
    the search is exhaustive, so None is a definite answer.
    """
    n = ga.vertex_count
    if n != gb.vertex_count:
        return None
    nb_a, nb_b = ga.neighbours, gb.neighbours
    vertices = range(n)
    sentinel = 1 << n
    nodes = 0

    def counts(neighbours: tuple[int, ...], splitter: int) -> list[int]:
        """Every vertex's number of neighbours in splitter, bit-sliced: bit
        k of x's count is bit x of plane k."""
        planes: list[int] = []
        for x in compress(vertices, bit_flags(splitter, n)):
            carry = neighbours[x]
            for k, plane in enumerate(planes):
                planes[k], carry = plane ^ carry, plane & carry
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        return planes

    def split(cell: int, planes: list[int]) -> dict[int, int]:
        """The cell's vertices by their count, as masks."""
        pieces = {0: cell}
        for k, plane in enumerate(planes):
            if cell & plane:
                for count, piece in list(pieces.items()):
                    high = piece & plane
                    if high:
                        pieces[count | 1 << k] = high
                        if high == piece:
                            del pieces[count]
                        else:
                            pieces[count] = piece ^ high
        return pieces

    def place(cells: _Cells, piece_a: int, piece_b: int) -> None:
        """Add an aligned pair of cells, as a fixed pair if single."""
        if piece_a & piece_a - 1:
            cells.open.append((piece_a, piece_b))
        else:
            cells.fixed_a.append(piece_a.bit_length() - 1)
            cells.fixed_b.append(piece_b.bit_length() - 1)

    def refine(cells: _Cells, splitters: list[tuple[int, int]]) -> bool:
        """Split the aligned cells in place by their counts into each
        splitter, and into each piece split off after it, until none is
        left; False if a count class differs in size between the graphs.
        Every piece but the largest is pushed: with the counts into the
        whole cell and into the other pieces fixed, its counts are too."""
        while splitters:
            splitter_a, splitter_b = splitters.pop()
            planes_a, planes_b = counts(nb_a, splitter_a), counts(nb_b, splitter_b)
            if len(planes_a) != len(planes_b):
                return False
            if cells.fixed_a:
                # the fixed pairs agree iff each plane, read as a bit string
                # at fixed_a and at fixed_b, gives the same digits
                pick_a, pick_b = itemgetter(*cells.fixed_a), itemgetter(*cells.fixed_b)
                for plane_a, plane_b in zip(planes_a, planes_b):
                    if (pick_a(bin(plane_a | sentinel)[:2:-1])
                            != pick_b(bin(plane_b | sentinel)[:2:-1])):
                        return False
            touched_a = touched_b = 0
            for plane_a, plane_b in zip(planes_a, planes_b):
                touched_a |= plane_a
                touched_b |= plane_b
            pairs, cells.open = cells.open, []
            for cell_a, cell_b in pairs:
                if not (cell_a & touched_a or cell_b & touched_b):
                    cells.open.append((cell_a, cell_b))
                    continue
                pieces_a, pieces_b = split(cell_a, planes_a), split(cell_b, planes_b)
                if pieces_a.keys() != pieces_b.keys() or any(
                        piece.bit_count() != pieces_b[c].bit_count()
                        for c, piece in pieces_a.items()):
                    return False
                largest = max(pieces_a, key=lambda c: pieces_a[c].bit_count())
                for c, piece_a in pieces_a.items():
                    if c != largest:
                        splitters.append((piece_a, pieces_b[c]))
                    place(cells, piece_a, pieces_b[c])
        return True

    def children(cells: _Cells) -> Iterator[_Cells]:
        """The refined partitions below cells, one per node, in order."""
        nonlocal nodes
        _, v, i = min((a.bit_count(), a & -a, i) for i, (a, _) in enumerate(cells.open))
        cell_a, cell_b = cells.open[i]
        for w in compress(vertices, bit_flags(cell_b, n)):
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded {node_budget} nodes; undecided"
                )
            w = 1 << w
            child = _Cells(cells.open[:i] + cells.open[i + 1:],
                          list(cells.fixed_a), list(cells.fixed_b))
            place(child, v, w)
            place(child, cell_a ^ v, cell_b ^ w)
            # the cell was a splitter already, so the rest of it is implied
            # by {v}, {w} alone (see refine)
            if refine(child, [(v, w)]):
                yield child

    def search(cells: _Cells) -> Optional[tuple[int, ...]]:
        """The first isomorphism below this equitable partition, or None:
        depth first, each level's children drawn from a generator on an
        explicit stack, so that the depth is not bounded by the recursion
        limit."""
        leaf = None if cells.open else cells
        stack = [children(cells)] if cells.open else []
        while stack and leaf is None:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif child.open:
                stack.append(children(child))
            else:
                leaf = child
        if leaf is None:
            return None
        return tuple(y for _, y in sorted(zip(leaf.fixed_a, leaf.fixed_b)))

    cells = _Cells([], [], [])
    if n:
        place(cells, sentinel - 1, sentinel - 1)
    found = search(cells) if refine(cells, [(sentinel - 1, sentinel - 1)]) else None
    if found is None:
        return None
    assert verify_isomorphism(ga, gb, found)
    return IsomorphismCertificate(mapping=found)


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
    return BinaryMatrix(graph.vertex_count, graph.vertex_count, graph.neighbours)


# -- JSON persistence --------------------------------------------------------

def parse_json(text: str) -> object:
    """json.loads, with nesting too deep for the decoder's recursion
    raised as ValueError like any other malformed input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def graph_to_json(graph: Graph) -> str:
    """The canonical JSON text of the graph, as json.dumps writes
    {"vertex_count": n, "edges": graph.edges} with sorted keys and no
    spaces, built row by row from the neighbour masks."""
    n = graph.vertex_count
    names = [str(v) for v in range(n)]
    rows = []
    for u, m in enumerate(graph.neighbours):
        above = m >> u + 1
        if above:
            head = "[" + names[u] + ","
            flags = bit_flags(above, n - u - 1)
            rows.append(head + ("]," + head).join(compress(names[u + 1:], flags)) + "]")
    return '{"edges":[' + ",".join(rows) + '],"vertex_count":' + str(n) + "}\n"


def graph_from_json(text: str) -> Graph:
    """Parse graph JSON; any malformed content raises ValueError.  A
    vertex_count above MAX_VERTICES is refused before any row is
    allocated; the edges are checked by Graph as it sets them."""
    payload = parse_json(text)
    if not isinstance(payload, dict) or type(payload.get("vertex_count")) is not int:
        raise ValueError("expected an object with an integer vertex_count")
    if payload["vertex_count"] > MAX_VERTICES:
        raise ValueError(f"vertex_count {payload['vertex_count']} exceeds the limit "
                         f"of {MAX_VERTICES}")
    edges = payload.get("edges")
    if not isinstance(edges, list):
        raise ValueError(_NOT_PAIRS)
    return Graph(payload["vertex_count"], edges)


def write_graph(graph: Graph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(graph))


def read_graph(path: str | Path) -> Graph:
    return graph_from_json(Path(path).read_text())
