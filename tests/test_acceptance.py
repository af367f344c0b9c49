"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every stated time bound is asserted.
"""
import itertools
import time
from contextlib import contextmanager
from pathlib import Path

import embedding_oracle
import field_oracle
import gf2_oracle
from paleylift import css, embedding, fields, gf2, graphs, paley, voltage
from paleylift.cli import main as cli_main

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_paley_reproduction(tmp_path):
    with criterion(1, "Paley reproduction, byte-for-byte"):
        t0 = time.perf_counter()
        out = tmp_path / "paley9"
        assert cli_main(["paley", "3", "2", "--modulus", "2,1,1",
                         "--out", str(out)]) == 0
        emitted = (out / "adjacency.txt").read_bytes()
        elapsed = time.perf_counter() - t0
        assert emitted == (DATA / "paley9_adjacency.txt").read_bytes()
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_gf9_power_table(gf9):
    with criterion(2, "GF(9) generator powers"):
        t0 = time.perf_counter()
        assert fields.primitive_element(gf9) == 3
        # g^e = g^(e-1) * g, one equation per power, from g^0 = 1
        assert gf9.mul_index(1, 3) == 3
        assert gf9.mul_index(3, 3) == 7
        assert gf9.mul_index(7, 3) == 8
        assert gf9.mul_index(8, 3) == 2
        assert gf9.mul_index(2, 3) == 6
        assert gf9.mul_index(6, 3) == 5
        assert gf9.mul_index(5, 3) == 4
        assert gf9.mul_index(4, 3) == 1
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_18_2_3_end_to_end(paley9, tmp_path):
    with criterion(3, "[[18,2,3]] end-to-end with cached rerun"):
        t0 = time.perf_counter()
        rotation = embedding.search_self_dual_embedding(paley9.graph,
                                                        target_genus=1)
        search_time = time.perf_counter() - t0
        assert rotation is not None
        assert search_time < 600, f"search took {search_time:.1f}s"

        faces = embedding.trace_faces(rotation)
        assert faces.genus == 1
        dual = embedding.dual_graph(rotation)
        assert dual.is_simple
        assert graphs.find_isomorphism(dual.graph, paley9.graph) is not None

        cache = tmp_path / "paley9_rotation.json"
        embedding.write_rotation(rotation, cache)

        t0 = time.perf_counter()
        cached = embedding.read_rotation(cache, paley9.graph)
        code = css.build_code_embedding(cached, family="paley", kprime=0)
        assert (code.n, code.k) == (18, 2)
        report = css.distance_search(code, 3)
        rerun_time = time.perf_counter() - t0
        assert report.d_found == 3
        assert css.verify_witness(code, "Z", report.dz_witness)
        assert css.verify_witness(code, "X", report.dx_witness)
        assert rerun_time < 5, f"cached rerun took {rerun_time:.1f}s"
        print(f"  [search {search_time:.2f}s, cached rerun {rerun_time:.2f}s]")


def test_criterion_4_60_30_end_to_end(lift3):
    with criterion(4, "[[60,30,3]] end-to-end"):
        t0 = time.perf_counter()
        assert lift3.vertex_count == 16
        assert lift3.edge_count == 60
        assert voltage.block_adjacency(3) == graphs.adjacency_matrix(lift3)

        rotation = voltage.derived_embedding(voltage.build_voltage_graph(3))
        assert rotation.graph == lift3
        code = css.build_code_embedding(rotation, family="voltage", kprime=1)
        assert (code.n, code.k, code.genus) == (60, 30, 15)
        assert not any(gf2.multiply(code.hx, code.hz.transpose()).row_bits)

        bound = css.distance_search(code, 2)
        assert bound.d_found is None, "a weight-<=2 logical exists"
        assert bound.d_lower == 3

        achieved = css.distance_search(code, 3)
        elapsed = time.perf_counter() - t0
        assert achieved.d_found == 3
        assert css.verify_witness(code, "Z", achieved.dz_witness)
        assert css.verify_witness(code, "X", achieved.dx_witness)
        print(f"  [{achieved.conclusion}; total {elapsed:.1f}s]")
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_5_block_formula_equivalence():
    with criterion(5, "block formula equals lift adjacency, t in {3,4}"):
        t0 = time.perf_counter()
        for t in (3, 4):
            lifted = voltage.lift(voltage.build_voltage_graph(t))
            assert voltage.block_adjacency(t) == graphs.adjacency_matrix(lifted)
        assert time.perf_counter() - t0 < 10


def test_criterion_6_self_complementarity(paley9, lift3):
    with criterion(6, "self-complementarity certificates"):
        t0 = time.perf_counter()
        for paley_graph in (paley9, paley.build_paley(fields.make_field(17, 1))):
            cert = paley.verify_self_complementary_via_multiplier(paley_graph)
            comp = graphs.complement(paley_graph.graph)
            assert graphs.verify_isomorphism(paley_graph.graph, comp,
                                             cert.mapping)
            m = paley_graph.graph.vertex_count
            assert paley_graph.graph.edge_count == m * (m - 1) // 4
        cert = graphs.is_self_complementary(lift3)
        assert cert is not None
        assert graphs.verify_isomorphism(lift3, graphs.complement(lift3),
                                         cert.mapping)
        assert lift3.edge_count == 16 * 15 // 4
        assert time.perf_counter() - t0 < 120


def test_criterion_7_family_table():
    with criterion(7, "closed-form family table"):
        t0 = time.perf_counter()
        # voltage family is defined for kprime >= 1 (m = 16 is the smallest
        # lift), so the closed forms are checked on [1, 100]
        for kp in range(1, 101):
            fp = css.family_parameters("voltage", kp)
            assert fp.n == (2 * kp + 2) * (8 * kp + 7)
            assert fp.k == 2 * (8 * kp * kp + 7 * kp)
            assert fp.n == fp.m * (fp.m - 1) // 4
            assert fp.k == 2 * fp.genus
        for kp in range(0, 101):
            fp = css.family_parameters("paley", kp)
            assert fp.n == (2 * kp + 2) * (8 * kp + 9)
            assert fp.k == 2 * (8 * kp * kp + 9 * kp + 1)
            assert fp.n == fp.m * (fp.m - 1) // 4
            assert fp.k == 2 * fp.genus
        assert css.family_parameters("voltage", 1).rate == 0.5
        assert css.family_parameters("voltage", 12).rate > 0.9
        rates = [css.family_parameters("voltage", kp).rate
                 for kp in range(1, 101)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_8_homology_cross_check(paley9, paley9_rotation):
    with criterion(8, "homology agrees with Euler genus"):
        t0 = time.perf_counter()
        # C_4 on the sphere
        c4 = graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        faces = embedding.trace_faces(embedding_oracle.index_order_rotation(c4))
        beta1 = css.homology_ranks(
            graphs.incidence_matrix(c4),
            embedding.face_edge_matrix(faces),
        )
        assert beta1 == 2 * faces.genus == 0
        # 2x2 toric layout (multigraph tiling, matrices written directly)
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
        assert css.homology_ranks(hx, hz) == 2 * 1
        # Paley-9 on the torus
        faces9 = embedding.trace_faces(paley9_rotation)
        beta1 = css.homology_ranks(
            graphs.incidence_matrix(paley9.graph),
            embedding.face_edge_matrix(faces9),
        )
        assert beta1 == 2 * faces9.genus == 2
        assert time.perf_counter() - t0 < 1.0


def test_criterion_9_property_suites(gf9):
    with criterion(9, "exhaustive property suites"):
        t0 = time.perf_counter()
        # rank identities on all 3x3 binary matrices: rank(M) = rank(M^T),
        # and rank-nullity, the kernel counted over all 8 vectors
        for bits in range(512):
            rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)]
                    for i in range(3)]
            m = gf2_oracle.from_rows(rows)
            r = gf2.rank(m)
            assert r == gf2.rank(m.transpose())
            assert len(gf2_oracle.kernel(m)) == 2 ** (3 - r)
        # field axioms on GF(9) and GF(25), exhaustively
        for f in (gf9, fields.make_field(5, 2)):
            add, neg, mul = f.add_index, f.neg_index, f.mul_index
            elems = range(f.order)
            for a, b, c in itertools.product(elems, repeat=3):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            for a in elems:
                assert add(a, neg(a)) == 0
                if a:
                    assert mul(a, field_oracle.power(f, a, f.order - 2)) == 1
        # dart coverage on every rotation system of K_4
        k4 = graphs.Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        inc = embedding.incident_darts(k4)
        per_vertex = []
        for darts in inc:
            base, rest = darts[0], darts[1:]
            per_vertex.append([(base,) + p
                               for p in itertools.permutations(rest)])
        count = 0
        for combo in itertools.product(*per_vertex):
            rs = embedding.RotationSystem(k4, tuple(combo))
            faces = embedding.trace_faces(rs)
            darts = sorted(d for walk in faces.faces for d in walk)
            assert darts == list(range(12))
            count += 1
        assert count == 16
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, f"took {elapsed:.1f}s"
