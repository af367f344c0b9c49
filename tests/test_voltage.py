import pytest

import gf2_oracle
import graph_oracle
from paleylift import css, embedding, graphs
from paleylift.voltage import (
    VoltageGraph,
    block_adjacency,
    build_voltage_graph,
    class_members,
    derived_embedding,
    lift,
)


def test_classify_t3_matches_table():
    assert class_members(3, 0, True) == [0b000, 0b011]
    assert class_members(3, 0, False) == [0b001, 0b010]
    assert class_members(3, 1, True) == [0b100, 0b111]
    assert class_members(3, 1, False) == [0b101, 0b110]


def test_classify_t2_singletons():
    for leading in (0, 1):
        for even in (True, False):
            assert len(class_members(2, leading, even)) == 1


def test_classify_t4_even_class():
    assert class_members(4, 0, True) == [0b0000, 0b0011, 0b0101, 0b0110]


def test_classify_class_sizes_and_order():
    for t in (2, 3, 4, 5):
        classes = [class_members(t, leading, even)
                   for leading in (0, 1) for even in (True, False)]
        assert sorted(a for members in classes for a in members) == list(range(1 << t))
        for members in classes:
            assert len(members) == 1 << (t - 2)
            assert members == sorted(members)


def test_build_t3_voltages():
    vg = build_voltage_graph(3)
    assert vg.links == (0b001, 0b010, 0b100, 0b111)
    assert vg.half_edges_v == (0b001, 0b010, 0b101, 0b110)
    assert vg.half_edges_u == (0b011, 0b100, 0b111)


def test_build_counts():
    vg3 = build_voltage_graph(3)
    assert (len(vg3.links), len(vg3.half_edges_u), len(vg3.half_edges_v)) == (4, 3, 4)
    vg4 = build_voltage_graph(4)
    assert (len(vg4.links), len(vg4.half_edges_u), len(vg4.half_edges_v)) == (8, 7, 8)


def test_build_rejects_t2():
    with pytest.raises(ValueError, match="t >= 3"):
        build_voltage_graph(2)


def test_links_all_odd_weight():
    for t in (3, 4, 5):
        vg = build_voltage_graph(t)
        assert all(bin(a).count("1") % 2 == 1 for a in vg.links)
        assert len(vg.links) == 1 << (t - 1)


@pytest.mark.parametrize("t", range(3, 10))
def test_voltages_are_distinct_in_range_and_nonzero_on_half_edges(t):
    """What lift needs of its voltage graph, which VoltageGraph does not
    check: each kind's voltages distinct (no parallel edges, whose bits would
    carry into other vertices' masks), below 2^t, and none 0 on a half edge
    (no self-loops)."""
    vg = build_voltage_graph(t)
    for voltages in (vg.links, vg.half_edges_u, vg.half_edges_v):
        assert len(set(voltages)) == len(voltages)
        assert all(0 <= a < 1 << t for a in voltages)
    assert 0 not in vg.half_edges_u + vg.half_edges_v


def test_lift_h3_size(lift3):
    assert lift3.vertex_count == 16
    assert lift3.edge_count == 60


def test_lift_h3_degrees(lift3):
    u_degrees = {lift3.neighbours[v].bit_count() for v in range(8)}
    v_degrees = {lift3.neighbours[v].bit_count() for v in range(8, 16)}
    assert u_degrees == {7}
    assert v_degrees == {8}
    assert sum(lift3.neighbours[v].bit_count() for v in range(16)) == 2 * 60


def test_lift_edge_count_formula():
    for t in (3, 4, 5):
        g = lift(build_voltage_graph(t))
        m = 1 << (t + 1)
        assert g.vertex_count == m
        assert g.edge_count == m * (m - 1) // 4


def definition_edges(vg):
    """The lift's edges as the voltage definition lists them: {u_g, v_(g^a)}
    for each link a, and {w_g, w_(g^a)} once per pair for each half edge a
    at w."""
    size = 1 << vg.t
    edges = [(g, size + (g ^ a)) for a in vg.links for g in range(size)]
    for offset, half_edges in ((0, vg.half_edges_u), (size, vg.half_edges_v)):
        edges += [(offset + g, offset + (g ^ a))
                  for a in half_edges for g in range(size) if g < g ^ a]
    return edges


def test_block_adjacency_matches_lift():
    for t in range(3, 8):
        vg = build_voltage_graph(t)
        g = lift(vg)
        assert g.neighbours == graph_oracle.masks(2 << t, definition_edges(vg))
        assert block_adjacency(t) == graphs.adjacency_matrix(g)


def test_block_adjacency_t3_tensor_terms():
    # the four t=3 blocks expand into sums of 8x8 tensor-product swap terms:
    # B = IXX+XII+XXX, C = XII+IXI+IIX+XXX, D = IIX+IXI+XIX+XXI
    import numpy as np

    ident = np.eye(2, dtype=int)
    swap = np.array([[0, 1], [1, 0]])

    def term(spec):
        out = np.array([[1]])
        for ch in spec:
            out = np.kron(out, ident if ch == "I" else swap)
        return out

    b = term("IXX") + term("XII") + term("XXX")
    c = term("XII") + term("IXI") + term("IIX") + term("XXX")
    d = term("IIX") + term("IXI") + term("XIX") + term("XXI")
    a = block_adjacency(3)
    got = np.array(gf2_oracle.to_lists(a))
    assert (got[:8, :8] == b).all()
    assert (got[:8, 8:] == c).all()
    assert (got[8:, :8] == c).all()
    assert (got[8:, 8:] == d).all()


def test_block_adjacency_structure():
    a = block_adjacency(3)
    size = 16
    assert a == a.transpose()
    entry = gf2_oracle.entry
    assert all(entry(a, i, i) == 0 for i in range(size))
    total = sum(r.bit_count() for r in a.row_bits)
    assert total == 2 * 60
    # B and D blocks are symmetric
    half = size // 2
    for i in range(half):
        for j in range(half):
            assert entry(a, i, j) == entry(a, j, i)
            assert entry(a, half + i, half + j) == entry(a, half + j, half + i)


def test_lift_single_link_identity_voltage():
    # a link with voltage 0 over the 1-bit group lifts to parallel copies:
    # two disjoint edges
    vg = VoltageGraph(t=1, links=(0,), half_edges_u=(), half_edges_v=())
    g = lift(vg)
    assert g.vertex_count == 4
    assert g.edges == ((0, 2), (1, 3))


def test_lift_h4_self_complementary():
    g = lift(build_voltage_graph(4))
    cert = graphs.is_self_complementary(g, node_budget=5_000_000)
    assert cert is not None and graphs.verify_isomorphism(g, graphs.complement(g),
                                                          cert.mapping)


def test_lift_h3_fiber_structure(lift3):
    # links contribute a cross edge u_g - v_(g^a) for each odd-weight a
    vg = build_voltage_graph(3)
    nb = lift3.neighbours
    for a in vg.links:
        for g in range(8):
            assert nb[g] >> (8 + (g ^ a)) & 1
    for a in vg.half_edges_u:
        for g in range(8):
            assert nb[g] >> (g ^ a) & 1
    for a in vg.half_edges_v:
        for g in range(8):
            assert nb[8 + g] >> (8 + (g ^ a)) & 1


@pytest.mark.parametrize("t", [3, 4, 5])
def test_derived_embedding_is_self_dual(t):
    vg = build_voltage_graph(t)
    rotation = derived_embedding(vg)
    assert rotation.graph == lift(vg)
    code = css.build_code_embedding(rotation)
    expected = css.family_parameters("voltage", 2 ** (t - 2) - 1)
    assert (code.n, code.k, code.genus) == (expected.n, expected.k, expected.genus)
    faces = embedding.trace_faces(rotation)
    assert len(faces.faces) == 2 ** (t + 1)
    assert {len(f) for f in faces.faces} == {2 ** t - 1, 2 ** t}
    dual = embedding.dual_graph(rotation)
    assert dual.is_simple
    if t <= 4:
        cert = graphs.find_isomorphism(dual.graph, rotation.graph)
        assert cert is not None and graphs.verify_isomorphism(dual.graph, rotation.graph,
                                                              cert.mapping)
