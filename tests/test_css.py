import pytest

import embedding_oracle
from paleylift import gf2
from paleylift.css import (
    CssCode,
    apply_distance_report,
    build_code_embedding,
    distance_search,
    family_parameters,
    read_bundle,
    verify_witness,
    write_bundle,
)
from paleylift.graphs import Graph


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def assert_valid(code):
    """The code invariants that `verify` checks on a bundle."""
    assert code.hx.cols == code.n and code.hz.cols == code.n
    assert not any(gf2.multiply(code.hx, code.hz.transpose()).row_bits)
    k = code.n - gf2.rank(code.hx) - gf2.rank(code.hz)
    assert code.k == k and k >= 0
    if code.d_found is not None:
        assert code.d_lower <= code.d_found


# -- embedding mode ------------------------------------------------------------

def test_embedding_code_paley9(paley9, paley9_rotation):
    code = build_code_embedding(paley9_rotation, family="paley", kprime=0)
    assert (code.n, code.k) == (18, 2)
    assert code.genus == 1
    assert_valid(code)


def test_embedding_code_c4_trivial():
    g = cycle_graph(4)
    code = build_code_embedding(embedding_oracle.index_order_rotation(g))
    assert (code.n, code.k) == (4, 0)
    assert code.genus == 0
    assert_valid(code)


# -- distance ---------------------------------------------------------------------

def test_distance_paley9_embedding(paley9, paley9_rotation):
    code = build_code_embedding(paley9_rotation)
    report = distance_search(code, 3)
    assert report.d_found == 3
    assert report.conclusion == "d = 3"
    assert verify_witness(code, "Z", report.dz_witness)
    assert verify_witness(code, "X", report.dx_witness)
    assert len(report.dz_witness) == 3
    assert len(report.dx_witness) == 3


def test_distance_lift3_lower_bound(lift3_code):
    report = distance_search(lift3_code, 2)
    assert report.d_found is None
    assert report.d_lower == 3
    assert report.conclusion == "d > 2"


def test_distance_toric_bound_then_witness(toric2x2_code):
    # 2x2 toric code has weight-2 logicals; w_max=1 must report only a bound
    code = toric2x2_code
    hx, hz = code.hx, code.hz
    bound = distance_search(code, 1)
    assert bound.d_found is None and bound.conclusion == "d > 1"
    exact = distance_search(code, 2)
    assert exact.d_found == 2
    # oracle: every weight-2 support checked independently
    found = []
    for i in range(8):
        for j in range(i + 1, 8):
            v = (1 << i) | (1 << j)
            in_ker = all(bin(r & v).count("1") % 2 == 0 for r in hx.row_bits)
            if in_ker and not gf2.RowSpace(hz).contains(v):
                found.append((i, j))
    assert found  # the m=2 torus really has weight-2 logicals
    assert min(len(w) for w in (exact.dz_witness, exact.dx_witness)
               if w is not None) == 2


def test_distance_budget_rejected(lift3_code):
    with pytest.raises(ValueError, match="budget"):
        distance_search(lift3_code, 4, enumeration_budget=1000)


def test_distance_k0_code_has_no_logicals():
    g = triangle()
    code = build_code_embedding(embedding_oracle.index_order_rotation(g))
    assert (code.n, code.k, code.genus) == (3, 0, 0)
    report = distance_search(code, 3)
    assert report.d_found is None
    assert report.d_lower == 4


def test_apply_distance_report(paley9, paley9_rotation):
    code = build_code_embedding(paley9_rotation)
    report = distance_search(code, 3)
    apply_distance_report(code, report)
    assert code.d_found == 3
    assert code.d_lower == 3
    assert_valid(code)


def test_shallower_rerun_does_not_erase_knowledge(paley9, paley9_rotation):
    code = build_code_embedding(paley9_rotation)
    apply_distance_report(code, distance_search(code, 3))
    apply_distance_report(code, distance_search(code, 1))
    assert code.d_found == 3
    assert code.d_lower == 3
    assert_valid(code)


def test_witness_verification_rejects_junk(paley9, paley9_rotation):
    code = build_code_embedding(paley9_rotation)
    report = distance_search(code, 3)
    assert not verify_witness(code, "Z", (0,))
    assert not verify_witness(code, "Z", report.dz_witness + (99,))
    assert not verify_witness(code, "Z", report.dz_witness * 2)


# -- families ----------------------------------------------------------------------

def test_family_voltage_k1():
    fp = family_parameters("voltage", 1)
    assert (fp.n, fp.k, fp.m, fp.genus) == (60, 30, 16, 15)
    assert fp.rate == 0.5


def test_family_paley_k0():
    fp = family_parameters("paley", 0)
    assert (fp.n, fp.k, fp.m, fp.genus) == (18, 2, 9, 1)


def test_family_paley_k1():
    fp = family_parameters("paley", 1)
    assert (fp.n, fp.k, fp.m, fp.genus) == (68, 36, 17, 18)


def test_family_closed_forms_and_identities():
    for kp in range(1, 101):
        fp = family_parameters("voltage", kp)
        assert fp.n == (2 * kp + 2) * (8 * kp + 7)
        assert fp.k == 2 * (8 * kp * kp + 7 * kp)
        assert fp.n == fp.m * (fp.m - 1) // 4
        assert fp.k == 2 * fp.genus
    for kp in range(0, 101):
        fp = family_parameters("paley", kp)
        assert fp.n == (2 * kp + 2) * (8 * kp + 9)
        assert fp.k == 2 * (8 * kp * kp + 9 * kp + 1)
        assert fp.n == fp.m * (fp.m - 1) // 4
        assert fp.k == 2 * fp.genus


def test_family_rate_monotone_and_thresholds():
    rates = [family_parameters("voltage", kp).rate for kp in range(1, 60)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert family_parameters("voltage", 12).rate > 0.9


def test_family_domain_errors():
    with pytest.raises(ValueError):
        family_parameters("voltage", 0)
    with pytest.raises(ValueError):
        family_parameters("paley", -1)
    with pytest.raises(ValueError):
        family_parameters("toric", 1)


# -- bundles -----------------------------------------------------------------------

def test_bundle_round_trip(paley9, paley9_rotation, tmp_path):
    code = build_code_embedding(paley9_rotation, family="paley", kprime=0)
    apply_distance_report(code, distance_search(code, 3))
    write_bundle(code, tmp_path / "bundle")
    back = read_bundle(tmp_path / "bundle")
    assert back.hx == code.hx
    assert back.hz == code.hz
    assert (back.n, back.k, back.d_found, back.d_lower) == (18, 2, 3, 3)
    assert back.family == "paley"
    assert back.genus == 1
    assert_valid(back)
