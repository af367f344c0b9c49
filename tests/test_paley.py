import pytest

import field_oracle
import gf2_oracle
from paleylift import fields, graphs
from paleylift.paley import (
    build_paley,
    smallest_nonresidue,
    verify_self_complementary_via_multiplier,
)

REFERENCE_ADJACENCY = [
    [0, 1, 1, 0, 0, 1, 0, 1, 0],
    [1, 0, 1, 1, 0, 0, 0, 0, 1],
    [1, 1, 0, 0, 1, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 1, 0, 0, 1],
    [0, 0, 1, 1, 0, 1, 1, 0, 0],
    [1, 0, 0, 1, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 1, 0, 0, 1, 1],
    [1, 0, 0, 0, 0, 1, 1, 0, 1],
    [0, 1, 0, 1, 0, 0, 1, 1, 0],
]


def test_paley9_matches_reference_adjacency(paley9):
    assert gf2_oracle.to_lists(graphs.adjacency_matrix(paley9.graph)) == REFERENCE_ADJACENCY


def test_fixture_file_matches_transcribed_matrix():
    # ties the byte-for-byte CLI fixture to the hand-transcribed rows
    from pathlib import Path

    fixture = Path(__file__).parent / "data" / "paley9_adjacency.txt"
    expected = gf2_oracle.from_rows(REFERENCE_ADJACENCY).to_text()
    assert fixture.read_text() == expected


def test_paley9_edge_count(paley9):
    assert paley9.graph.edge_count == 9 * 8 // 4  # m(m-1)/4


def test_paley17():
    p = build_paley(fields.make_field(17, 1))
    assert p.graph.vertex_count == 17
    assert p.graph.edge_count == 68
    assert all(p.graph.neighbours[v].bit_count() == 8 for v in range(17))
    assert p.connection_set == {1, 2, 4, 8, 9, 13, 15, 16}


def test_congruence_gate():
    with pytest.raises(ValueError, match=r"1 \(mod 8\)"):
        build_paley(fields.make_field(5, 1))
    with pytest.raises(ValueError, match=r"1 \(mod 8\)"):
        build_paley(fields.make_field(13, 1))


def test_regularity_and_symmetry(paley9):
    a = graphs.adjacency_matrix(paley9.graph)
    assert a == a.transpose()
    assert all(gf2_oracle.entry(a, i, i) == 0 for i in range(9))
    assert [r.bit_count() for r in a.row_bits] == [4] * 9


def test_connection_set_negation_closed(paley9):
    f = paley9.field
    assert {f.neg_index(e) for e in paley9.connection_set} == paley9.connection_set


# the ROADMAP ladder of Paley orders, and 289, 521 and 529 past it
LADDER = [(3, 2), (17, 1), (5, 2), (41, 1), (7, 2), (73, 1), (3, 4), (89, 1), (97, 1),
          (193, 1), (257, 1), (17, 2), (521, 1), (23, 2)]


@pytest.mark.parametrize("p,r", LADDER)
def test_squares_are_negation_closed_and_the_graph_is_regular(p, r):
    """The theorems build_paley rests on without checking them: -1 is a
    square when p^r = 1 (mod 4), so S = -S and the neighbour masks are
    symmetric; each mask is a translate of S, so every degree is (q-1)/2."""
    f = fields.make_field(p, r)
    built = build_paley(f)
    assert {field_oracle.neg(f, s) for s in built.connection_set} == built.connection_set
    assert len(built.connection_set) == (f.order - 1) // 2
    assert all(m.bit_count() == (f.order - 1) // 2 for m in built.graph.neighbours)
    # Graph checks each edge as it sets it in both rows: the masks are symmetric
    assert graphs.Graph(f.order, built.graph.edges) == built.graph


def test_multiplier_certificate_paley9(paley9):
    assert smallest_nonresidue(paley9.field) == 3  # x itself: odd power of the generator
    cert = verify_self_complementary_via_multiplier(paley9)
    assert graphs.verify_isomorphism(
        paley9.graph, graphs.complement(paley9.graph), cert.mapping
    )


def test_multiplier_certificate_paley17():
    p = build_paley(fields.make_field(17, 1))
    assert smallest_nonresidue(p.field) == 3
    cert = verify_self_complementary_via_multiplier(p)
    assert graphs.verify_isomorphism(p.graph, graphs.complement(p.graph), cert.mapping)


def test_multiplier_cross_checked_by_generic_search(paley9):
    comp = graphs.complement(paley9.graph)
    generic = graphs.find_isomorphism(paley9.graph, comp)
    assert generic is not None and graphs.verify_isomorphism(paley9.graph, comp,
                                                             generic.mapping)


def test_translation_automorphisms(paley9):
    # vertex-transitivity spot check: g -> g + a preserves the edge set
    f = paley9.field
    for a in (1, 4, 8):
        mapping = tuple(f.add_index(i, a) for i in range(9))
        assert graphs.verify_isomorphism(paley9.graph, paley9.graph, mapping)


@pytest.mark.parametrize("p,r", [(3, 2), (17, 1), (5, 2), (41, 1), (7, 2), (3, 4)])
def test_cayley_build_matches_all_pairs_definition(p, r):
    f = fields.make_field(p, r)
    squares = {field_oracle.mul(f, x, x) for x in range(1, f.order)}
    expected = [(i, j) for i in range(f.order) for j in range(i + 1, f.order)
                if field_oracle.add(f, j, field_oracle.neg(f, i)) in squares]
    assert list(build_paley(f).graph.edges) == expected
