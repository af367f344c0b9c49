import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import gf2_oracle
import graph_oracle
import isomorphism_oracle
from test_distance import multiplier_cayley_map
from paleylift import embedding, fields, gf2, paley, voltage
from paleylift.graphs import (
    MAX_VERTICES,
    Graph,
    SearchBudgetExceeded,
    adjacency_matrix,
    complement,
    find_isomorphism,
    graph_from_json,
    graph_to_json,
    incidence_matrix,
    is_self_complementary,
    verify_isomorphism,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph(2, [(0, 2)])


FAULTS = ["loop", "range", "duplicate", "reversed",
          "bool", "float", "string", "short", "long", "bare"]


@st.composite
def faulty_edge(draw, n, edges):
    """One edge that Graph must reject: a loop, an end out of range, a
    repeat of an edge in either orientation, an end that is a bool, float
    or string, a pair with 1 or 3 entries, or a bare int."""
    fault = draw(st.sampled_from(
        [f for f in FAULTS if edges or f not in ("duplicate", "reversed")]))
    w = draw(st.integers(0, max(n - 1, 0)))
    if fault == "loop":
        return (w, w)
    if fault == "range":
        bad = (draw(st.sampled_from([-1, n, n + 1])), w)
        return bad[::-1] if draw(st.booleans()) else bad
    if fault in ("duplicate", "reversed"):
        u, v = draw(st.sampled_from(edges))
        return (u, v) if fault == "duplicate" else (v, u)
    if fault == "bare":
        return w
    u, v = draw(st.sampled_from(edges)) if edges else (w, w + 1)
    if fault == "short":
        return [u]
    if fault == "long":
        return [u, v, w]
    odd = {"bool": bool, "float": float, "string": str}[fault](v)
    return [odd, u] if draw(st.booleans()) else [u, odd]


@st.composite
def edge_lists(draw):
    """(vertex_count, edges) on at most 12 vertices: a simple graph with each
    edge in a random orientation and order, and with probability 1/2 one
    or two faulty edges (`faulty_edge`) inserted anywhere."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    if draw(st.booleans()):
        faults = [draw(faulty_edge(n, edges)) for _ in range(draw(st.integers(1, 2)))]
        for bad in faults:
            edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@settings(max_examples=400, deadline=None)
@given(case=edge_lists(), data=st.data())
def test_graph_matches_set_oracle(case, data):
    """Graph and both oracles agree on the edges, or on the error of the
    first failing edge."""
    n, edge_list = case
    try:
        want = graph_oracle.normalize(n, edge_list)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            Graph(n, edge_list)
        assert str(info.value) == str(exc)
        with pytest.raises(ValueError) as info:
            graph_oracle.masks(n, edge_list)
        assert str(info.value) == str(exc)
        return
    g = Graph(n, edge_list)
    assert g.neighbours == graph_oracle.masks(n, edge_list)
    assert g.edges == want == graph_oracle.mask_edges(g.neighbours)
    assert g.edge_count == len(want)
    adj = graph_oracle.adjacency(n, want)
    # dart 2e + end of edge e = want[e] sits at its end-th end, and the darts
    # at a vertex ascend with their far ends
    darts = embedding.incident_darts(g)
    assert [want[d >> 1][d & 1] for ds in darts for d in ds] == [
        v for v in range(n) for _ in adj[v]]
    assert [[want[d >> 1][1 - (d & 1)] for d in ds] for ds in darts] == [
        sorted(a) for a in adj]
    assert all(ds == sorted(ds) for ds in darts)
    assert [g.neighbours[v].bit_count() for v in range(n)] == [len(a) for a in adj]
    assert g.is_connected() == graph_oracle.is_connected(n, want)
    comp = complement(g)
    assert comp.edges == graph_oracle.complement(n, want)
    assert comp.neighbours == graph_oracle.masks(n, comp.edges)
    assert complement(comp) == g

    # a target isomorphic to g, or g's complement, and a mapping that is the
    # relabelling, another permutation, not a permutation at all, or the
    # relabelling with float or bool entries
    perm = tuple(data.draw(st.permutations(range(n))))
    target = data.draw(st.sampled_from([
        Graph(n, [(perm[u], perm[v]) for u, v in want]), comp]))
    mapping = data.draw(st.one_of(
        st.just(perm),
        st.permutations(range(n)).map(tuple),
        st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n).map(tuple),
        st.lists(st.integers(0, n), max_size=n + 1).map(tuple),
        st.just(tuple(map(float, perm))),
        st.lists(st.booleans(), min_size=n, max_size=n).map(tuple)))
    verdict = verify_isomorphism(g, target, mapping)
    assert verdict == graph_oracle.verify_isomorphism(n, want, target.edges, mapping)
    assert verdict == graph_oracle.mask_verify_isomorphism(
        g.neighbours, target.neighbours, mapping)


def test_verify_isomorphism_rejects_non_int_mappings():
    k2 = complete_graph(2)
    assert verify_isomorphism(k2, k2, (1, 0))
    assert not verify_isomorphism(k2, k2, (1.0, 0.0))
    assert not verify_isomorphism(k2, k2, (True, False))


def test_verify_isomorphism_rejects_a_repeated_vertex():
    """A mapping of the right length that sends two vertices to one is no
    isomorphism, even where every row pulls back to its source row: both
    isolated vertices onto vertex 2 keeps the edge 01 and adds none."""
    g = Graph(4, [(0, 1)])
    assert verify_isomorphism(g, g, (0, 1, 3, 2))
    assert not verify_isomorphism(g, g, (0, 1, 2, 2))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_verify_isomorphism_on_tiny_graphs(n):
    g = Graph(n, [(0, 1)] if n == 2 else [])
    assert verify_isomorphism(g, g, tuple(range(n)))
    assert verify_isomorphism(g, g, tuple(reversed(range(n))))
    assert not verify_isomorphism(g, g, tuple(range(n + 1)))


def test_edges_sorted_canonically():
    g = Graph(4, [(3, 2), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))


def test_complement_empty_is_complete():
    assert complement(Graph(4, [])) == complete_graph(4)


def test_complement_involution(paley9):
    for g in (path_graph(5), complete_graph(4), paley9.graph):
        assert complement(complement(g)) == g
        assert g.edge_count + complement(g).edge_count == \
            g.vertex_count * (g.vertex_count - 1) // 2


def test_paley9_complement_isomorphic(paley9):
    comp = complement(paley9.graph)
    cert = find_isomorphism(paley9.graph, comp)
    assert cert is not None and verify_isomorphism(paley9.graph, comp, cert.mapping)


def test_isomorphism_to_self_is_identity():
    g = path_graph(4)
    cert = find_isomorphism(g, g)
    assert cert.mapping == (0, 1, 2, 3)


def test_isomorphism_degree_rejection():
    # the refinement of the whole vertex sets rejects these before any node;
    # K2's degree 1 is a count that no vertex of the edgeless graph reaches
    for ga, gb in ((complete_graph(3), path_graph(3)), (complete_graph(2), Graph(2, []))):
        assert find_isomorphism(ga, gb, node_budget=0) is None
        assert find_isomorphism(gb, ga, node_budget=0) is None


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_isomorphism_budget():
    # colour refinement cannot split a cycle: fixing 0 -> 0 leaves the
    # vertex pairs {i, 8 - i}, and fixing 1 -> 1 then settles every vertex
    c8 = cycle_graph(8)
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(c8, c8, node_budget=1)
    assert find_isomorphism(c8, c8, node_budget=2).mapping == tuple(range(8))


@pytest.mark.parametrize("n", [1000, MAX_VERTICES])
def test_isomorphism_search_depth_is_not_bounded_by_recursion(n):
    # refinement splits no cell of an edgeless or a complete graph, so the
    # search fixes one vertex per level: n - 1 levels and n - 1 nodes
    for g in (Graph(n, []), complement(Graph(n, []))):
        assert find_isomorphism(g, g, node_budget=n - 1).mapping == tuple(range(n))
        with pytest.raises(SearchBudgetExceeded):
            find_isomorphism(g, g, node_budget=n - 2)


def assert_matches_oracle(ga, gb):
    """find_isomorphism gives the refinement oracle's first mapping, and
    exhausts a budget exactly one node short of the oracle's node count,
    which is returned."""
    want, count = isomorphism_oracle.individualization_refinement(ga, gb)
    cert = find_isomorphism(ga, gb, node_budget=count)
    assert (cert.mapping if cert else None) == want
    if count:
        with pytest.raises(SearchBudgetExceeded):
            find_isomorphism(ga, gb, node_budget=count - 1)
    return count


def shrikhande_graph():
    """Z4 x Z4 with (a, b) ~ (c, d) iff the difference is +-(0, 1), +-(1, 0)
    or +-(1, 1): strongly regular (16, 6, 2, 2), like the rook's graph."""
    steps = {(0, 1), (1, 0), (1, 1), (0, 3), (3, 0), (3, 3)}
    return Graph(16, [(4 * a + b, 4 * c + d)
                      for a, b, c, d in itertools.product(range(4), repeat=4)
                      if 4 * a + b < 4 * c + d and ((c - a) % 4, (d - b) % 4) in steps])


def rook_graph():
    """The 4 x 4 rook's graph: (a, b) ~ (c, d) iff a == c or b == d."""
    return Graph(16, [(4 * a + b, 4 * c + d)
                      for a, b, c, d in itertools.product(range(4), repeat=4)
                      if 4 * a + b < 4 * c + d and (a == c or b == d)])


@pytest.mark.parametrize("ga, gb", [
    (shrikhande_graph(), rook_graph()),
    (cycle_graph(6), Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    # two cubic graphs, the first triangle-free, found by random search: the
    # search fixes vertex pairs whose adjacency to each other differs, which
    # only the comparison of the fixed pairs' counts sees
    (Graph(8, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 5), (1, 7), (2, 4), (3, 6),
               (3, 7), (4, 6), (4, 7), (5, 6)]),
     Graph(8, [(0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (1, 7), (2, 5), (2, 6),
               (3, 6), (3, 7), (4, 5), (6, 7)])),
], ids=["shrikhande-rook", "c6-2k3", "cubic-8"])
def test_non_isomorphic_pairs_colour_refinement_cannot_split(ga, gb):
    # regular of one degree, so the search must branch before it says no
    assert isomorphism_oracle.backtracking(ga, gb) is None
    assert assert_matches_oracle(ga, gb) > 0
    assert find_isomorphism(ga, gb) is None


# q: (p, r, nodes of find_isomorphism(dual, graph)) with the default modulus
PALEY_LADDER = {9: (3, 2, 3), 17: (17, 1, 2), 25: (5, 2, 3), 41: (41, 1, 2),
                49: (7, 2, 3), 73: (73, 1, 2), 81: (3, 4, 4), 89: (89, 1, 2),
                97: (97, 1, 2)}


@pytest.mark.parametrize("q", sorted(PALEY_LADDER))
def test_paley_dual_isomorphism_matches_oracle(q):
    p, r, nodes = PALEY_LADDER[q]
    built = paley.build_paley(fields.make_field(p, r))
    dual = embedding.dual_graph(multiplier_cayley_map(built))
    assert dual.is_simple
    assert assert_matches_oracle(dual.graph, built.graph) == nodes


@pytest.mark.parametrize("p, r, nodes", [(3, 2, 3), (5, 2, 3), (7, 2, 3), (3, 4, 4)])
def test_paley_dual_isomorphism_for_every_modulus(p, r, nodes):
    # the benchmark draws each prime power's modulus from all of these
    moduli = [m for m in fields._monic_polys(r, p) if fields._find_factor(m, p) is None]
    assert len(moduli) == {9: 3, 25: 10, 49: 21, 81: 18}[p ** r]
    for modulus in moduli:
        built = paley.build_paley(fields.make_field(p, r, modulus))
        dual = embedding.dual_graph(multiplier_cayley_map(built))
        assert dual.is_simple
        assert assert_matches_oracle(dual.graph, built.graph) == nodes
        cert = find_isomorphism(dual.graph, built.graph)
        assert verify_isomorphism(dual.graph, built.graph, cert.mapping)


# t: nodes of find_isomorphism(dual, lift), and of (lift, complement)
LIFT_NODES = {3: 8, 4: 24, 5: 56}


@pytest.mark.parametrize("t", sorted(LIFT_NODES))
def test_lift_dual_and_complement_isomorphisms_match_oracle(t):
    nodes = LIFT_NODES[t]
    rotation = voltage.derived_embedding(voltage.build_voltage_graph(t))
    dual = embedding.dual_graph(rotation)
    assert dual.is_simple
    assert assert_matches_oracle(dual.graph, rotation.graph) == nodes
    assert assert_matches_oracle(rotation.graph, complement(rotation.graph)) == nodes


@st.composite
def graph_pairs(draw):
    """A random graph on at most 8 vertices and a relabelled copy, after at
    most two degree-preserving edge swaps: isomorphic or not, the degree
    sequences agree, so the search runs."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    perm = draw(st.permutations(range(n)))
    image = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
    for _ in range(draw(st.integers(0, 2))):
        if len(image) < 2:
            break
        (a, b), (c, d) = draw(st.lists(st.sampled_from(sorted(image)), min_size=2,
                                       max_size=2, unique=True))
        swapped = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not swapped & image:
            image = (image - {(a, b), (c, d)}) | swapped
    return Graph(n, edges), Graph(n, image)


@settings(max_examples=300, deadline=None)
@given(pair=graph_pairs())
def test_random_isomorphisms_match_oracle(pair):
    assert_matches_oracle(*pair)
    assert ((find_isomorphism(*pair) is None)
            == (isomorphism_oracle.backtracking(*pair) is None))


def test_p4_self_complementary_with_brute_force_oracle():
    p4 = path_graph(4)
    cert = is_self_complementary(p4)
    assert cert is not None
    # oracle: exhaustive check over all 24 vertex permutations
    comp = complement(p4)
    brute = [
        perm for perm in itertools.permutations(range(4))
        if verify_isomorphism(p4, comp, perm)
    ]
    assert cert.mapping in brute


def test_k4_not_self_complementary_edge_filter():
    assert is_self_complementary(complete_graph(4)) is None


def test_vertex_count_mod4_filter():
    # m = 2, 3 mod 4 can never be self-complementary
    for g in (path_graph(3), path_graph(6), complete_graph(7)):
        assert is_self_complementary(g) is None


def test_lift3_self_complementary(lift3):
    cert = is_self_complementary(lift3)
    assert cert is not None and verify_isomorphism(lift3, complement(lift3), cert.mapping)
    assert lift3.edge_count == 16 * 15 // 4


def test_incidence_single_edge():
    m = incidence_matrix(Graph(2, [(0, 1)]))
    assert gf2_oracle.to_lists(m) == [[1], [1]]


def test_incidence_triangle():
    m = incidence_matrix(complete_graph(3))
    assert (m.rows, m.cols) == (3, 3)
    assert [r.bit_count() for r in m.row_bits] == [2] * 3
    assert [c.bit_count() for c in gf2_oracle.columns(m)] == [2] * 3


def test_incidence_paley9(paley9):
    m = incidence_matrix(paley9.graph)
    assert (m.rows, m.cols) == (9, 18)
    assert gf2.rank(m) == 8
    assert [r.bit_count() for r in m.row_bits] == [4] * 9
    assert [c.bit_count() for c in gf2_oracle.columns(m)] == [2] * 18


def test_incidence_rank_counts_components():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    m = incidence_matrix(two_triangles)
    assert gf2.rank(m) == 6 - 2


def test_adjacency_matrix_symmetric(paley9):
    a = adjacency_matrix(paley9.graph)
    assert a == a.transpose()
    assert all(gf2_oracle.entry(a, i, i) == 0 for i in range(a.rows))


def test_json_round_trip(paley9, lift3):
    for graph in (paley9.graph, lift3):
        text = graph_to_json(graph)
        assert text == graph_oracle.to_json(graph.vertex_count, graph.edges)
        assert graph_from_json(text) == graph


@st.composite
def dense_graphs(draw):
    """A graph on 0 to 40 vertices: edgeless, complete, or each pair an
    edge with a drawn probability."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "random":
        density = draw(st.floats(0, 1))
        rng = draw(st.randoms(use_true_random=False))
        pairs = [e for e in pairs if rng.random() < density]
    return Graph(n, [] if kind == "edgeless" else pairs)


@settings(max_examples=200, deadline=None)
@given(graph=dense_graphs())
@example(graph=Graph(0, []))
@example(graph=Graph(1, []))
@example(graph=Graph(40, []))
@example(graph=complete_graph(40))
def test_writer_matches_json_dumps_oracle(graph):
    text = graph_to_json(graph)
    assert text == graph_oracle.to_json(graph.vertex_count,
                                        graph_oracle.mask_edges(graph.neighbours))
    assert graph_from_json(text) == graph


def test_json_reader_sorts_and_validates():
    g = graph_from_json('{"vertex_count": 3, "edges": [[2, 1], [1, 0]]}')
    assert g.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        graph_from_json('{"vertex_count": 2, "edges": [[0, 0]]}')


@pytest.mark.parametrize("text, match", [
    ('{"vertex_count":3,"edges":[[true,1]]}', "integer pairs"),
    ('{"vertex_count":3,"edges":[[0.0,1]]}', "integer pairs"),
    ('{"vertex_count":3,"edges":[[0,1,2]]}', "integer pairs"),
    ('{"vertex_count":3,"edges":[[[0,1]]]}', "integer pairs"),
    ('{"vertex_count":3,"edges":[[0,1],"12"]}', "integer pairs"),
    ('{"vertex_count":3,"edges":[[0,1],null]}', "integer pairs"),
    ('{"vertex_count":3,"edges":{"0":1}}', "integer pairs"),
    # the first failing edge names the error
    ('{"vertex_count":3,"edges":[[0,0],[true,1]]}', "self-loop at vertex 0"),
    ('{"vertex_count":3,"edges":[[true,1],[0,0]]}', "integer pairs"),
    ('{"vertex_count":3,"edges":[[0,1],[1,0],[0,1,2]]}', r"duplicate edge \(0, 1\)"),
    pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="nested"),
    pytest.param('{"vertex_count":3,"edges":' + "[" * 100_000 + "]" * 100_000 + "}",
                 "nested too deeply", id="nested-edges"),
    ('{"vertex_count":-1,"edges":[]}', "non-negative"),
    ('{"vertex_count":3,"edges":[[1,0],[0,1]]}', r"duplicate edge \(0, 1\)"),
    # checked before any row is allocated: 200000 would ask for 40 GB
    ('{"vertex_count":1025,"edges":[]}', "vertex_count 1025 exceeds the limit of 1024"),
    ('{"vertex_count":200000,"edges":[]}', "vertex_count 200000 exceeds the limit of 1024"),
])
def test_json_reader_rejects_malformed_graphs(text, match):
    with pytest.raises(ValueError, match=match):
        graph_from_json(text)


def test_json_reader_takes_the_largest_graph():
    assert graph_from_json(f'{{"vertex_count":{MAX_VERTICES},"edges":[[0,1023]]}}').edges == (
        (0, MAX_VERTICES - 1),)
