"""The systole engine in `css.distance_search` against the brute-force,
all-roots and min-row oracles in distance_oracle.py."""
import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import distance_oracle
import embedding_oracle
import gf2_oracle
from distance_oracle import all_roots_distance, brute_force_distance, min_row_distance
from paleylift import css, fields, paley, voltage
from paleylift.cli import main
from paleylift.css import (
    SearchCounters,
    build_code_embedding,
    distance_search,
    family_parameters,
    verify_witness,
)
from paleylift.embedding import RotationSystem, incident_darts
from paleylift.gf2 import BinaryMatrix
from paleylift.graphs import Graph


def multiplier_cayley_map(built: paley.PaleyGraph) -> RotationSystem:
    """At x the neighbours x+1, x+l, x+l^2, ... with l = g^2 for the
    canonical primitive element g: a self-dual embedding of the Paley graph."""
    field, graph = built.field, built.graph
    g = fields.primitive_element(field)
    step = field.mul_index(g, g)
    connection = [1]
    while len(connection) < (field.order - 1) // 2:
        connection.append(field.mul_index(connection[-1], step))
    edge_index = {e: i for i, e in enumerate(graph.edges)}
    rotations = []
    for x in range(field.order):
        darts = []
        for s in connection:
            y = field.add_index(x, s)
            darts.append(2 * edge_index[(min(x, y), max(x, y))] + (x > y))
        rotations.append(tuple(darts))
    return RotationSystem(graph, tuple(rotations))


def _paley_code(p, r):
    built = paley.build_paley(fields.make_field(p, r))
    kprime = (p ** r - 9) // 8
    code = build_code_embedding(multiplier_cayley_map(built),
                                family="paley", kprime=kprime)
    expected = family_parameters("paley", kprime)
    assert (code.n, code.k, code.genus) == (expected.n, expected.k, expected.genus)
    return code


def _lift_code(t):
    rotation = voltage.derived_embedding(voltage.build_voltage_graph(t))
    return build_code_embedding(rotation, family="voltage")


def _toric_code(size):
    """The size x size toric code: the square grid on the torus, each
    vertex's neighbours in the order right, up, left, down."""
    def vertex(i, j):
        return (i % size) * size + j % size
    g = Graph(size * size, [(min(vertex(i, j), w), max(vertex(i, j), w))
                            for i in range(size) for j in range(size)
                            for w in (vertex(i, j + 1), vertex(i + 1, j))])
    edge_index = {e: i for i, e in enumerate(g.edges)}
    rotations = []
    for i in range(size):
        for j in range(size):
            v = vertex(i, j)
            rotations.append(tuple(
                2 * edge_index[(min(v, w), max(v, w))] + (v > w)
                for w in (vertex(i, j + 1), vertex(i + 1, j),
                          vertex(i, j - 1), vertex(i - 1, j))))
    return build_code_embedding(RotationSystem(g, tuple(rotations)))


def _triangle_code():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return build_code_embedding(embedding_oracle.index_order_rotation(g))


BUILDERS = {
    "paley9": lambda: _paley_code(3, 2),
    "paley17": lambda: _paley_code(17, 1),
    "paley25": lambda: _paley_code(5, 2),
    "paley41": lambda: _paley_code(41, 1),
    "lift3": lambda: _lift_code(3),
    "lift4": lambda: _lift_code(4),
    "triangle": _triangle_code,
}


@pytest.fixture(scope="module")
def codes(toric2x2_code):
    built = {name: build() for name, build in BUILDERS.items()}
    built["toric2x2"] = toric2x2_code
    return built


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("name", [*BUILDERS, "toric2x2"])
def test_engine_matches_brute_force(codes, name, w):
    code = codes[name]
    engine = distance_search(code, w)
    # every code here has d <= 3 or no logicals, so the witnesses must agree too
    assert engine == brute_force_distance(code, w)
    for side, witness in (("Z", engine.dz_witness), ("X", engine.dx_witness)):
        if witness is not None:
            assert verify_witness(code, side, witness)


def test_engine_finds_weight_four_logicals_of_the_toric_code():
    # d = 4 with even w_max: the weight-4 cycles need the edges from the BFS
    # ball's inner rows to its rim, whichever end has the smaller index
    code = _toric_code(4)
    assert (code.n, code.k) == (32, 2)
    engine = distance_search(code, 4)
    oracle = brute_force_distance(code, 4)
    assert (engine.d_found, engine.d_lower) == (oracle.d_found, oracle.d_lower) == (4, 4)
    for side, got, want in (("Z", engine.dz_witness, oracle.dz_witness),
                            ("X", engine.dx_witness, oracle.dx_witness)):
        assert got is not None and len(got) == len(want) == 4
        assert verify_witness(code, side, got)


def test_zero_columns_are_weight_one_logicals():
    # K4 under each of its 16 rotation systems.  In 14 a face meets itself
    # across an edge; that edge is a loop of the dual, a zero column of H_Z
    # and so an X logical of weight 1.  The columns settle w <= 2: no BFS
    # root is searched.
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    darts = incident_darts(g)
    weight_one = 0
    for tails in itertools.product(*(itertools.permutations(d[1:]) for d in darts)):
        rotation = RotationSystem(g, tuple((d[0],) + t for d, t in zip(darts, tails)))
        code = build_code_embedding(rotation)
        for w in (1, 2):
            report = distance_search(code, w)
            assert report == brute_force_distance(code, w)
            assert report.dz_counters.roots == report.dx_counters.roots == 0
        weight_one += report.d_found == 1
    assert weight_one == 14


@pytest.fixture(scope="module")
def large_codes():
    built = {f"paley{q}": _paley_code(p, r)
             for q, (p, r) in {49: (7, 2), 73: (73, 1), 81: (3, 4), 89: (89, 1),
                               97: (97, 1)}.items()}
    built["lift5"] = _lift_code(5)
    return built


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("name", ["paley49", "paley73", "paley81", "paley89",
                                  "paley97", "lift5"])
def test_engine_matches_all_roots_oracle(large_codes, name, w):
    # beyond the brute force's reach: each cycle rooted at its lowest row
    # gives the report of the BFS from every row, witnesses included
    code = large_codes[name]
    assert distance_search(code, w) == all_roots_distance(code, w)


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("name", ["paley49", "paley73", "paley81", "paley89",
                                  "paley97", "lift5"])
def test_engine_matches_min_row_oracle(large_codes, name, w):
    # the incumbent bound drops no candidate that the search to w_max from
    # every root would keep
    code = large_codes[name]
    assert distance_search(code, w) == min_row_distance(code, w)


def test_paley97_work_counters(large_codes):
    # exact, as the search is deterministic.  At w = 2 the column test
    # decides: the simple graph and dual have no zero or equal columns, so
    # nothing is offered and no root is searched.  At w = 3 root 0 finds the
    # witness, holding column 0; root 1 would be narrowed to w = 2, which the
    # columns have settled, so the search stops there.  The code is
    # self-dual, so both sides count alike.
    code = large_codes["paley97"]
    w2, w3 = distance_search(code, 2), distance_search(code, 3)
    counters = SearchCounters(roots=0, narrowed=0, levels=0, offers=0, membership=0)
    assert (w2.dz_counters, w2.dx_counters) == (counters, counters)
    counters = SearchCounters(roots=1, narrowed=0, levels=1, offers=552, membership=1)
    assert (w3.dz_counters, w3.dx_counters) == (counters, counters)
    assert 0 in w3.dz_witness and 0 in w3.dx_witness


@pytest.mark.parametrize("name, w, builds", [
    ("paley9", 1, 0), ("paley9", 2, 0), ("paley9", 3, 2), ("lift3", 2, 0), ("lift3", 3, 2),
    ("toric2x2", 2, 0), ("toric2x2", 3, 0),
])
def test_adjacency_built_only_when_a_root_is_searched(codes, monkeypatch, name, w, builds):
    # the columns settle w <= 2, and a witness among them (the toric code's
    # equal columns, d = 2) settles every w: only a side that searches a BFS
    # root needs its rows' adjacency lists
    calls = []
    adjacency = css._adjacency
    monkeypatch.setattr(css, "_adjacency",
                        lambda rows, ends: calls.append(rows) or adjacency(rows, ends))
    report = distance_search(codes[name], w)
    assert len(calls) == builds
    assert sum(c.roots > 0 for c in (report.dz_counters, report.dx_counters)) == builds
    assert report == brute_force_distance(codes[name], w)


@pytest.mark.parametrize("name, w, reads", [
    ("paley9", 1, 0), ("paley9", 2, 2), ("paley9", 3, 2), ("toric2x2", 1, 0),
    ("toric2x2", 2, 2), ("triangle", 1, 0),
])
def test_column_ends_read_only_from_weight_two(codes, monkeypatch, name, w, reads):
    # at w = 1 the loops are the whole answer, and they come from the
    # weight masks alone: no plane is decoded into column ends
    calls = []
    numbers = css._column_numbers
    monkeypatch.setattr(css, "_column_numbers",
                        lambda planes, cols: calls.append(cols) or numbers(planes, cols))
    report = distance_search(codes[name], w)
    assert len(calls) == reads
    assert report == brute_force_distance(codes[name], w)


def test_weight_one_offers_no_parallel_pair(codes):
    # the 2x2 toric code's graph and dual each have four parallel edges,
    # candidates of weight 2: offered at w = 2, not at w = 1
    w1, w2 = distance_search(codes["toric2x2"], 1), distance_search(codes["toric2x2"], 2)
    for counters in (w1.dz_counters, w1.dx_counters):
        assert counters == SearchCounters()
    for counters in (w2.dz_counters, w2.dx_counters):
        assert counters == SearchCounters(offers=4, membership=1)


def test_loops_are_offered_up_to_the_first_logical(tmp_path, capsys):
    # every column of a zero matrix is a loop.  The lowest loop outside the
    # other matrix's row space is the witness, and every later candidate
    # follows it, so no later loop is offered: one offer, not 4096
    zeros = gf2_oracle.zeros(1, 4096)
    code = css.CssCode(hx=zeros, hz=zeros, n=4096, k=4096, d_lower=1, d_found=None,
                       family="custom")
    report = distance_search(code, 1)
    assert report.dz_witness == report.dx_witness == (0,)
    assert report.dz_counters == report.dx_counters == SearchCounters(offers=1, membership=1)
    # loop 0 is in the row space of e_0, so loop 1 is offered too
    witness, counters = css._systole_side(zeros, BinaryMatrix(1, 4096, (1,)), 1, "H_X")
    assert witness == (1,)
    assert counters == SearchCounters(offers=2, membership=2)
    # through the CLI, the largest matrices with no rows: 2^20 loops
    for name in ("hx.txt", "hz.txt"):
        (tmp_path / name).write_text("0 1048576\n")
    (tmp_path / "code.json").write_text(
        '{"n":1048576,"k":0,"d_found":null,"d_lower":1,"family":"custom",'
        '"kprime":null,"genus":null}\n')
    capsys.readouterr()
    assert main(["distance", str(tmp_path), "--max-weight", "1"]) == 0
    assert capsys.readouterr().out == "distance: d = 1 (searched weight <= 1)\n"


def test_distance_search_transposes_no_matrix(codes, monkeypatch):
    # the engine reads each column's rows from bit planes of the rows
    want = {(name, w): distance_search(codes[name], w)
            for name in ("paley9", "lift3", "toric2x2", "triangle") for w in (1, 2, 3)}

    def transpose(self):
        raise AssertionError("distance_search transposed a matrix")

    monkeypatch.setattr(BinaryMatrix, "transpose", transpose)
    for (name, w), report in want.items():
        assert distance_search(codes[name], w) == report


# Row counts around the powers of two where the planes' width, and the
# field size of the column numbers, change.
ROW_COUNTS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 255, 256, 257]


def _from_columns(rows, masks):
    """The rows x len(masks) matrix whose column j is masks[j], built one
    entry at a time."""
    bits = [0] * rows
    for j, mask in enumerate(masks):
        for i in range(rows):
            bits[i] |= (mask >> i & 1) << j
    return BinaryMatrix(rows, len(masks), tuple(bits))


@st.composite
def two_row_columns(draw):
    """A matrix whose columns have weight 0 or 2, with repeated columns;
    in half of them one column is replaced by one of weight 1 or >= 3."""
    rows = draw(st.sampled_from(ROW_COUNTS))
    masks = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["loop", "pair", "pair", "copy"])) if rows >= 2 else "loop"
        if kind == "copy" and masks:
            masks.append(draw(st.sampled_from(masks)))
        elif kind == "loop":
            masks.append(0)
        else:
            u, v = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
            masks.append(1 << u | 1 << v)
    if rows and masks and draw(st.booleans()):
        weight = draw(st.sampled_from([1, *range(3, min(rows, 6) + 1)]))
        support = draw(st.lists(st.integers(0, rows - 1), min_size=weight, max_size=weight,
                                unique=True))
        masks[draw(st.integers(0, len(masks) - 1))] = sum(1 << i for i in support)
    return _from_columns(rows, masks)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


# 65537 rows: 17-bit rows, so each column's two rows take 8-byte fields
@settings(max_examples=300, deadline=None)
@given(h=two_row_columns())
@example(h=_from_columns(65537, [1 << 65536 | 1, 0, 1 << 65536 | 1 << 3, 1 << 65536 | 1]))
@example(h=_from_columns(3, []))
def test_column_kernel_matches_transpose_reference(h):
    # the loops, the parallel pairs, each column's two rows and the
    # adjacency lists, or the same error for a column of weight 1 or >= 3
    want = _outcome(distance_oracle.columns, h, "H_X")
    if isinstance(want, str):
        for ends in (False, True):
            assert _outcome(css._columns, h, "H_X", ends) == want
        return
    masks, loops, parallel = want
    assert css._columns(h, "H_X", False) == (loops, [])
    got, ends = css._columns(h, "H_X", True)
    assert got == loops
    width = (h.rows - 1).bit_length()
    assert [(end & (1 << width) - 1, end >> width) for end in ends] == [
        ((m & -m).bit_length() - 1, m.bit_length() - 1) if m else (0, 0) for m in masks]
    assert css._parallel(ends) == parallel
    assert css._adjacency(h.rows, ends) == distance_oracle.adjacency(h.rows, masks)


def test_bfs_stops_at_an_empty_frontier(codes):
    # a w_max far above the graph's depth costs no more BFS levels than
    # there are rows, from every root
    code = codes["paley9"]
    report = distance_search(code, 10**6)
    assert report.d_found == 3
    for counters, h in ((report.dz_counters, code.hx), (report.dx_counters, code.hz)):
        assert 0 < counters.roots <= h.rows
        assert counters.levels <= counters.roots * h.rows


def _permuted(code, columns, hx_rows, hz_rows):
    """code with column j moved to columns[j] in both matrices, and the rows
    of each matrix reordered."""
    def permute(h, rows):
        order = sorted(range(h.cols), key=columns.__getitem__)
        return gf2_oracle.from_rows(
            [[gf2_oracle.entry(h, i, j) for j in order] for i in rows])
    return dataclasses.replace(code, hx=permute(code.hx, hx_rows),
                               hz=permute(code.hz, hz_rows))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(["paley9", "paley17", "paley25", "lift3", "lift4"]),
       w=st.sampled_from([3, 4]))
def test_engine_matches_min_row_oracle_on_permuted_codes(codes, data, name, w):
    # relabelling columns moves the incumbent's lowest column against
    # lowest[root], so the tie between candidates of equal weight is met
    # at every position
    code = codes[name]
    code = _permuted(code, data.draw(st.permutations(range(code.n))),
                     data.draw(st.permutations(range(code.hx.rows))),
                     data.draw(st.permutations(range(code.hz.rows))))
    engine, oracle = distance_search(code, w), min_row_distance(code, w)
    assert (engine.d_found, engine.d_lower) == (oracle.d_found, oracle.d_lower)
    for side, got, want in (("Z", engine.dz_witness, oracle.dz_witness),
                            ("X", engine.dx_witness, oracle.dx_witness)):
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)
            assert got == want or len(got) > 3
            assert verify_witness(code, side, got)


@st.composite
def embedded_graphs(draw):
    """A connected simple graph on at most 8 vertices and 16 edges with a
    random rotation system; its dual may have loops and multi-edges.  Half
    the graphs are bipartite, so that their shortest cycles have length 4."""
    n = draw(st.sampled_from(range(3, 9)))
    bipartite = draw(st.booleans())
    allowed = [(u, v) for u in range(n) for v in range(u + 1, n)
               if not bipartite or (u + v) % 2]
    tree = {(draw(st.sampled_from([u for u in range(v) if (u, v) in allowed])), v)
            for v in range(1, n)}
    others = [e for e in allowed if e not in tree]
    extra = draw(st.permutations(others))[:draw(st.sampled_from(range(17 - len(tree))))]
    graph = Graph(n, tree | set(extra))
    return RotationSystem(graph, tuple(tuple(draw(st.permutations(darts)))
                                       for darts in incident_darts(graph)))


@settings(max_examples=150, deadline=None)
@given(rotation=embedded_graphs(), w=st.integers(1, 4))
def test_engine_agrees_with_brute_force_on_random_embeddings(rotation, w):
    code = build_code_embedding(rotation)
    engine = distance_search(code, w)
    oracle = brute_force_distance(code, w)
    assert (engine.d_found, engine.d_lower) == (oracle.d_found, oracle.d_lower)
    for got, want in ((engine.dz_witness, oracle.dz_witness),
                      (engine.dx_witness, oracle.dx_witness)):
        assert (got is None) == (want is None)
        assert got is None or len(got) == len(want)
        if got is not None and len(got) <= 3:
            assert got == want
    for side, witness in (("Z", engine.dz_witness), ("X", engine.dx_witness)):
        if witness is not None:
            assert verify_witness(code, side, witness)


def test_column_of_wrong_weight_is_rejected(lift3_code):
    rows = lift3_code.hz.row_bits
    hz = BinaryMatrix(lift3_code.hz.rows, lift3_code.hz.cols, (rows[0] ^ 1,) + rows[1:])
    with pytest.raises(ValueError, match="H_Z column 0 has weight"):
        distance_search(dataclasses.replace(lift3_code, hz=hz), 3)
