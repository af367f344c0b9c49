"""Test-only isomorphism searches, each the reference for one property of
`graphs.find_isomorphism`.

`individualization_refinement` runs the same search tree naively: colour
refinement (1-WL) on the disjoint union of the two graphs, recolouring every
vertex by its whole signature in each round, with the same rule for choosing
a cell and the same candidate order.  `find_isomorphism` must give its first
mapping and its node count.

`backtracking` decides isomorphism independently of colour refinement: it
tries every unused target vertex of matching degree in index order and
checks it against each mapped vertex one neighbour-mask bit at a time.  It is
the reference for whether two graphs are isomorphic at all."""
from __future__ import annotations

from collections import Counter
from typing import Optional

from paleylift.graphs import Graph


def individualization_refinement(
        ga: Graph, gb: Graph) -> tuple[Optional[tuple[int, ...]], int]:
    """(first mapping or None, nodes charged).  In the disjoint union, ga's
    vertex v is v and gb's vertex w is n + w.  A node is one gb vertex w
    tried for the chosen ga vertex v: both get a colour of their own, and
    the colouring is refined until stable.  A colour held by different
    numbers of vertices in the two graphs fails the node.  The chosen v is
    the lowest vertex of the smallest colour class held by more than one
    ga vertex, ties going to the class with the lowest such vertex."""
    n = ga.vertex_count
    if n != gb.vertex_count:
        return None, 0
    adjacency = ([[u for u in range(n) if ga.neighbours[v] >> u & 1] for v in range(n)]
                 + [[n + u for u in range(n) if gb.neighbours[w] >> u & 1]
                    for w in range(n)])
    nodes = 0

    def stable(colours: list[int]) -> list[int]:
        """Recolour each vertex by its colour and the multiset of its
        neighbours' colours until the number of colours stops growing."""
        while True:
            signatures = [(colours[x], tuple(sorted(colours[y] for y in adjacency[x])))
                          for x in range(2 * n)]
            names = {s: i for i, s in enumerate(sorted(set(signatures)))}
            refined = [names[s] for s in signatures]
            if len(names) == len(set(colours)):
                return refined
            colours = refined

    def search(colours: list[int]) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        colours = stable(colours)
        if Counter(colours[:n]) != Counter(colours[n:]):
            return None
        classes: dict[int, list[int]] = {}
        for v in range(n):
            classes.setdefault(colours[v], []).append(v)
        open_classes = [(len(vs), vs[0], c) for c, vs in classes.items() if len(vs) > 1]
        if not open_classes:
            return tuple(colours.index(colours[v], n) - n for v in range(n))
        _, v, colour = min(open_classes)
        for w in range(n):
            if colours[n + w] != colour:
                continue
            nodes += 1
            child = list(colours)
            child[v] = child[n + w] = max(colours) + 1
            found = search(child)
            if found is not None:
                return found
        return None

    return search([0] * (2 * n)), nodes


def backtracking(ga: Graph, gb: Graph) -> Optional[tuple[int, ...]]:
    """The first mapping in index order, or None if there is none."""
    n = ga.vertex_count
    if n != gb.vertex_count or ga.edge_count != gb.edge_count:
        return None
    deg_a = [m.bit_count() for m in ga.neighbours]
    deg_b = [m.bit_count() for m in gb.neighbours]
    if sorted(deg_a) != sorted(deg_b):
        return None

    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_a[v] != deg_b[w]:
                continue
            ok = True
            for u in range(v):
                if ga.neighbours[u] >> v & 1 != gb.neighbours[mapping[u]] >> w & 1:
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

    return tuple(mapping) if extend(0) else None
