import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import embedding_oracle
import gf2_oracle
from embedding_oracle import dual_edge_count, first_self_dual_embedding, index_order_rotation
from test_distance import multiplier_cayley_map
from paleylift import css, fields, gf2, graphs, paley, voltage
from paleylift.css import homology_ranks
from paleylift.embedding import (
    RotationSystem,
    dual_graph,
    face_edge_matrix,
    incident_darts,
    read_rotation,
    rotation_from_json,
    rotation_to_json,
    search_self_dual_embedding,
    trace_faces,
    write_rotation,
)
from paleylift.graphs import Graph, SearchBudgetExceeded


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cube_graph():
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            if v < v ^ b:
                edges.append((v, v ^ b))
    return Graph(8, edges)


def octahedron():
    # K_{2,2,2}: complete graph minus a perfect matching
    missing = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                     if (i, j) not in missing])


def all_rotation_systems(graph):
    inc = incident_darts(graph)
    per_vertex = []
    for darts in inc:
        base, rest = darts[0], darts[1:]
        per_vertex.append([(base,) + p for p in itertools.permutations(rest)])
    for combo in itertools.product(*per_vertex):
        yield RotationSystem(graph, tuple(combo))


def test_rotation_validation():
    g = cycle_graph(3)
    with pytest.raises(ValueError, match="permutation"):
        RotationSystem(g, ((0, 0), (1, 2), (3, 5)))


def test_k4_index_order_euler():
    g = complete_graph(4)
    faces = trace_faces(index_order_rotation(g))
    chi = 4 - 6 + len(faces.faces)
    assert chi % 2 == 0 and chi <= 2
    assert faces.genus == (2 - chi) // 2


def test_c4_two_faces_genus_zero():
    faces = trace_faces(index_order_rotation(cycle_graph(4)))
    assert len(faces.faces) == 2
    assert faces.genus == 0


def test_trace_requires_connected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        trace_faces(index_order_rotation(g))


def test_face_tracing_dart_coverage_all_k4_systems():
    g = complete_graph(4)
    count = 0
    for rs in all_rotation_systems(g):
        faces = trace_faces(rs)
        darts = [d for walk in faces.faces for d in walk]
        assert sorted(darts) == list(range(2 * g.edge_count))
        chi = g.vertex_count - g.edge_count + len(faces.faces)
        assert chi % 2 == 0
        assert faces.genus >= 0
        count += 1
    assert count == 2 ** 4  # (3-1)! = 2 rotations per degree-3 vertex


def test_face_edge_matrix_c4():
    faces = trace_faces(index_order_rotation(cycle_graph(4)))
    m = face_edge_matrix(faces)
    assert m.rows == 2
    assert m.row_bits[0] == m.row_bits[1]  # both faces bound the whole cycle
    acc = 0
    for r in m.row_bits:
        acc ^= r
    assert acc == 0


def test_face_edge_matrix_rows_sum_zero_k4():
    g = complete_graph(4)
    for rs in all_rotation_systems(g):
        m = face_edge_matrix(trace_faces(rs))
        acc = 0
        for r in m.row_bits:
            acc ^= r
        assert acc == 0


def test_face_edge_matrix_paley9(paley9, paley9_rotation):
    faces = trace_faces(paley9_rotation)
    assert len(faces.faces) == 9
    assert faces.genus == 1
    m = face_edge_matrix(faces)
    assert (m.rows, m.cols) == (9, 18)
    assert gf2.rank(m) == 8  # |F| - 1 on a closed surface


def test_incidence_orthogonal_to_faces(paley9, paley9_rotation):
    hx = graphs.incidence_matrix(paley9.graph)
    hz = face_edge_matrix(trace_faces(paley9_rotation))
    assert not any(gf2.multiply(hx, hz.transpose()).row_bits)


def test_dual_of_planar_cube_is_octahedron():
    g = cube_graph()
    # exhaustive over the 2^8 rotation systems: pick the first planar one
    planar = next(rs for rs in all_rotation_systems(g)
                  if trace_faces(rs).genus == 0)
    dual = dual_graph(planar)
    assert dual.is_simple
    assert graphs.find_isomorphism(dual.graph, octahedron()) is not None


def test_dual_c4_parallel_edges():
    dual = dual_graph(index_order_rotation(cycle_graph(4)))
    assert dual.graph.vertex_count == 2
    assert dual.multiplicities == (((0, 1), 4),)
    assert not dual.is_simple
    assert dual_edge_count(dual) == 4


def test_dual_edge_bijection_all_k4_systems():
    # the dual always has exactly one adjacency per primal edge
    g = complete_graph(4)
    for rs in all_rotation_systems(g):
        dual = dual_graph(rs)
        assert dual_edge_count(dual) == g.edge_count


def test_faces_and_dual_match_oracle_on_all_k4_systems():
    # 14 of the 16 systems have duals with both loops and repeated face pairs
    duals = [assert_faces_and_dual_match_oracle(rs)[1]
             for rs in all_rotation_systems(complete_graph(4))]
    assert sum(bool(d.loops) for d in duals) == 14
    assert sum(any(c > 1 for _, c in d.multiplicities) for d in duals) == 14


def test_dual_paley9_self(paley9, paley9_rotation):
    dual = dual_graph(paley9_rotation)
    assert dual.is_simple
    assert dual_edge_count(dual) == 18
    assert graphs.find_isomorphism(dual.graph, paley9.graph) is not None


def test_homology_toric_2x2():
    # 2x2 toric layout: 4 vertices, 8 edges, 4 plaquettes (a multigraph
    # tiling, so the matrices are written down directly)
    hx = gf2_oracle.from_rows([
        [1, 1, 0, 0, 1, 0, 1, 0],
        [1, 1, 0, 0, 0, 1, 0, 1],
        [0, 0, 1, 1, 1, 0, 1, 0],
        [0, 0, 1, 1, 0, 1, 0, 1],
    ])
    hz = gf2_oracle.from_rows([
        [1, 0, 1, 0, 1, 1, 0, 0],
        [0, 1, 0, 1, 1, 1, 0, 0],
        [1, 0, 1, 0, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 0, 1, 1],
    ])
    assert homology_ranks(hx, hz) == 8 - 3 - 3 == 2 * 1
    assert hx.rows - gf2.rank(hx) == 1   # beta0: one component


def test_homology_sphere():
    g = cycle_graph(4)
    hx = graphs.incidence_matrix(g)
    hz = face_edge_matrix(trace_faces(index_order_rotation(g)))
    assert homology_ranks(hx, hz) == 2 * 0


def test_homology_paley9(paley9, paley9_rotation):
    hx = graphs.incidence_matrix(paley9.graph)
    hz = face_edge_matrix(trace_faces(paley9_rotation))
    assert homology_ranks(hx, hz) == 2 * 1


def test_homology_rejects_non_orthogonal():
    hx = gf2_oracle.from_rows([[1, 1, 0]])
    hz = gf2_oracle.from_rows([[1, 0, 0]])
    with pytest.raises(ValueError, match="row 0 of hx and row 0 of hz"):
        homology_ranks(hx, hz)


def test_homology_matches_euler_genus_for_k4_embeddings():
    g = complete_graph(4)
    hx = graphs.incidence_matrix(g)
    for rs in all_rotation_systems(g):
        faces = trace_faces(rs)
        hz = face_edge_matrix(faces)
        assert homology_ranks(hx, hz) == 2 * faces.genus


def test_search_c4_absence():
    assert search_self_dual_embedding(cycle_graph(4), target_genus=0) is None


def test_search_k4_finds_tetrahedron():
    # the planar K_4 is the tetrahedron, which is classically self-dual
    rs = search_self_dual_embedding(complete_graph(4), target_genus=0)
    assert rs is not None
    faces = trace_faces(rs)
    assert faces.genus == 0
    dual = dual_graph(rs)
    assert dual.is_simple
    assert graphs.find_isomorphism(dual.graph, complete_graph(4)) is not None


def test_search_k4_genus_one_absence():
    # a genus-1 embedding of K_4 would need |F| = 2 != |V|
    assert search_self_dual_embedding(complete_graph(4), target_genus=1) is None


def test_search_paley9(paley9, paley9_rotation):
    faces = trace_faces(paley9_rotation)
    assert faces.genus == 1
    assert len(faces.faces) == 9
    assert sorted(len(w) for w in faces.faces) == [4] * 9
    dual = dual_graph(paley9_rotation)
    assert graphs.find_isomorphism(dual.graph, paley9.graph) is not None


def test_search_budget_exhaustion(paley9):
    with pytest.raises(SearchBudgetExceeded):
        search_self_dual_embedding(paley9.graph, target_genus=1, budget=10)


def test_search_node_count_on_paley9():
    # Paley-9 with the default modulus x^2 + 1: the open face segment prune
    # leaves 1844 nodes up to the first witness in enumeration order
    graph = paley.build_paley(fields.make_field(3, 2)).graph
    found = search_self_dual_embedding(graph, target_genus=1, budget=1844)
    assert found.rotations == (
        (0, 4, 2, 6), (1, 12, 8, 10), (3, 14, 9, 16), (5, 18, 22, 20),
        (11, 24, 26, 19), (15, 21, 28, 25), (7, 32, 23, 30), (13, 31, 27, 34),
        (17, 35, 29, 33))
    with pytest.raises(SearchBudgetExceeded):
        search_self_dual_embedding(graph, target_genus=1, budget=1843)


def test_search_node_count_on_paley9_with_the_readme_modulus():
    # the README's modulus x^2 + x + 2: 1724 nodes up to the first witness
    graph = paley.build_paley(fields.make_field(3, 2, (2, 1, 1))).graph
    found = search_self_dual_embedding(graph, target_genus=1, budget=1724)
    assert found.rotations == (
        (0, 4, 2, 6), (1, 12, 8, 10), (3, 14, 9, 16), (11, 18, 22, 20),
        (15, 24, 26, 19), (5, 21, 28, 25), (17, 32, 27, 30), (7, 31, 29, 34),
        (13, 35, 23, 33))
    with pytest.raises(SearchBudgetExceeded):
        search_self_dual_embedding(graph, target_genus=1, budget=1723)


def assert_faces_and_dual_match_oracle(rotation):
    """trace_faces gives the oracle's faces and genus, labels each dart
    with the index of its face, and dual_graph gives the oracle's dual."""
    faces = trace_faces(rotation)
    assert (faces.faces, faces.genus) == embedding_oracle.face_walks(rotation)
    assert faces.face_of == tuple(fi for _, fi in sorted(
        (d, fi) for fi, walk in enumerate(faces.faces) for d in walk))
    dual = dual_graph(rotation)
    assert dual == embedding_oracle.dual_graph(rotation)
    return faces, dual


# the certify-small benchmark's instances: the Paley graphs with their
# multiplier Cayley maps (default moduli), and the lifts with their derived
# embeddings
CERTIFY_SMALL = [("paley", q, p, r) for q, p, r in (
    (9, 3, 2), (17, 17, 1), (25, 5, 2), (41, 41, 1), (49, 7, 2), (73, 73, 1),
    (81, 3, 4), (89, 89, 1), (97, 97, 1))] + [("lift", t, None, None) for t in (3, 4, 5)]


@pytest.mark.parametrize("family, order, p, r", CERTIFY_SMALL,
                         ids=[f"{f}{o}" for f, o, _, _ in CERTIFY_SMALL])
def test_faces_and_dual_match_oracle_on_certify_small(family, order, p, r):
    if family == "paley":
        rotation = multiplier_cayley_map(paley.build_paley(fields.make_field(p, r)))
        genus = css.family_parameters("paley", (order - 9) // 8).genus
    else:
        rotation = voltage.derived_embedding(voltage.build_voltage_graph(order))
        genus = css.family_parameters("voltage", 2 ** (order - 2) - 1).genus
    faces, dual = assert_faces_and_dual_match_oracle(rotation)
    assert faces.genus == genus
    assert len(faces.faces) == rotation.graph.vertex_count
    assert dual.is_simple


@st.composite
def small_connected_graphs(draw, max_vertices=5):
    """A connected simple graph on 2 to max_vertices vertices (by default
    of maximum degree at most 4): a random spanning tree plus random
    further edges."""
    n = draw(st.integers(2, max_vertices))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Graph(n, tree | set(extra))


@settings(max_examples=300, deadline=None)
@given(graph=small_connected_graphs(), genus=st.integers(0, 2), matched=st.booleans())
def test_search_matches_exhaustive_oracle(graph, genus, matched):
    # |F| = |V| fixes the only genus the search explores; aim at it half the time
    excess = graph.edge_count - 2 * graph.vertex_count + 2
    if matched and excess in (0, 2, 4):
        genus = excess // 2
    assert (search_self_dual_embedding(graph, target_genus=genus)
            == first_self_dual_embedding(graph, genus))


@settings(max_examples=300, deadline=None)
@given(graph=small_connected_graphs(max_vertices=8), data=st.data())
def test_every_rotation_system_is_cellular(graph, data):
    """A rotation system of a connected graph with an edge embeds it
    cellularly in a closed orientable surface, so V - E + F = 2 - 2g with an
    integer g >= 0, and its surface code has H_X H_Z^T = 0 and k = 2g;
    trace_faces and `code` rely on this and do not check it.  The distance
    engine reads the dual graph off the columns of H_Z: its loops and
    parallel edges are dual_graph's.  These duals have loops and repeated
    face pairs, so the faces and dual are also checked against the oracle
    here."""
    rotation = RotationSystem(graph, tuple(tuple(data.draw(st.permutations(darts)))
                                           for darts in incident_darts(graph)))
    faces, dual = assert_faces_and_dual_match_oracle(rotation)
    assert sorted(d for walk in faces.faces for d in walk) == list(range(2 * graph.edge_count))
    chi = graph.vertex_count - graph.edge_count + len(faces.faces)
    assert chi == 2 - 2 * faces.genus and faces.genus >= 0
    hz = face_edge_matrix(faces)
    assert homology_ranks(graphs.incidence_matrix(graph), hz) == 2 * faces.genus
    loops, ends = css._columns(hz, "H_Z", ends=True)
    assert loops == [e for _, e in dual.loops]
    # each column's (lowest, highest) row: the faces on the two sides of its edge
    width = (hz.rows - 1).bit_length()
    pairs = [(end & (1 << width) - 1, end >> width) if end else None for end in ends]
    assert [j for j, pair in enumerate(pairs) if pair is None] == loops
    assert Counter(filter(None, pairs)) == dict(dual.multiplicities)
    # each repeat of a face pair, with the lowest column that has it
    assert css._parallel(ends) == [(pairs.index(pair), j) for j, pair in enumerate(pairs)
                                   if pair and pairs.index(pair) != j]


def test_search_deterministic(paley9, paley9_rotation):
    again = search_self_dual_embedding(paley9.graph, target_genus=1)
    assert again.rotations == paley9_rotation.rotations


def test_rotation_json_round_trip(paley9, paley9_rotation, tmp_path):
    text = rotation_to_json(paley9_rotation)
    back = rotation_from_json(text, paley9.graph)
    assert back.rotations == paley9_rotation.rotations
    path = tmp_path / "rot.json"
    write_rotation(paley9_rotation, path)
    assert read_rotation(path, paley9.graph).rotations == paley9_rotation.rotations


TRIANGLE_ROTATIONS = '[[[0,0],[1,0]],[[0,1],[2,0]],[[1,1],[2,1]]]'


def test_rotation_json_reads_darts_as_edge_and_end():
    rs = rotation_from_json('{"rotations":%s}' % TRIANGLE_ROTATIONS, cycle_graph(3))
    assert rs.rotations == ((0, 2), (1, 4), (3, 5))


@pytest.mark.parametrize("text", [
    '{"rotations":5}',
    '{"rotations":[5,[[0,1],[2,0]],[[1,1],[2,1]]]}',
] + ['{"rotations":[[%s,[1,0]],[[0,1],[2,0]],[[1,1],[2,1]]]}' % dart for dart in [
    "[0,2]", "[0,true]", "[true,0]", "[1.0,0]", "[0]", "[0,1,2]", '"01"', "null"]])
def test_rotation_json_rejects_malformed_darts(text):
    with pytest.raises(ValueError, match="rotations must be a list of"):
        rotation_from_json(text, cycle_graph(3))


def test_rotation_json_rejects_deep_nesting():
    with pytest.raises(ValueError, match="nested too deeply"):
        rotation_from_json("[" * 100_000 + "]" * 100_000, cycle_graph(3))
