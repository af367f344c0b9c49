import itertools

import pytest

import field_oracle
from paleylift.fields import (
    FieldConstructionError,
    make_field,
    power_table,
    primitive_element,
    quadratic_residues,
)


def test_gf9_reference_modulus_accepted(gf9):
    assert gf9.order == 9
    assert gf9.modulus == (2, 1, 1)  # x^2 + x + 2


def test_reducible_modulus_rejected_naming_factor():
    # x^2 + 2 = (x+1)(x+2) over Z_3
    with pytest.raises(FieldConstructionError, match=r"divisible by x \+ 1"):
        make_field(3, 2, (2, 0, 1))


def test_non_prime_rejected():
    with pytest.raises(FieldConstructionError, match="not prime"):
        make_field(6, 1)


def test_prime_field_default_modulus():
    f = make_field(3, 1)
    assert f.modulus == (0, 1)  # x
    assert f.order == 3


def test_default_modulus_is_lex_smallest():
    # over Z_3 the smallest monic irreducible quadratic is x^2 + 1
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)


def test_gf9_element_indexing(gf9):
    # g_i = a*x + b with i = 3a + b
    assert gf9.element(3).coeffs == (0, 1)     # x
    assert gf9.element(7).coeffs == (1, 2)     # 2x + 1
    assert gf9.element(0).coeffs == ()


def test_gf9_square_of_generator(gf9):
    g3 = gf9.element(3)
    assert (g3 * g3).index == 7  # x^2 = 2x + 1 under x^2 + x + 2


def test_primitive_element_gf9(gf9):
    assert primitive_element(gf9).index == 3


def test_primitive_element_small_fields():
    assert primitive_element(make_field(3, 1)).index == 2
    assert primitive_element(make_field(2, 1)).index == 1


def test_power_table_gf9(gf9):
    g3 = gf9.element(3)
    assert [e.index for e in power_table(gf9, g3)] == [3, 7, 8, 2, 6, 5, 4, 1]


def test_power_table_gf2_gf3():
    f2 = make_field(2, 1)
    assert [e.index for e in power_table(f2, f2.element(1))] == [1]
    f3 = make_field(3, 1)
    assert [e.index for e in power_table(f3, f3.element(2))] == [2, 1]


def test_power_table_rejects_non_generator(gf9):
    with pytest.raises(ValueError, match="not a generator"):
        power_table(gf9, gf9.element(2))  # 2 has order 2


def test_power_table_enumerates_all_nonzero(gf9):
    table = power_table(gf9, primitive_element(gf9))
    indices = [e.index for e in table]
    assert sorted(indices) == list(range(1, 9))
    assert indices[-1] == 1  # multiplicative identity closes the cycle


def test_quadratic_residues_gf9(gf9):
    assert {e.index for e in quadratic_residues(gf9)} == {1, 2, 5, 7}


def test_quadratic_residues_small_fields():
    assert {e.index for e in quadratic_residues(make_field(3, 1))} == {1}
    assert {e.index for e in quadratic_residues(make_field(5, 1))} == {1, 4}


def test_quadratic_residues_characteristic_2_rejected():
    with pytest.raises(ValueError, match="characteristic 2"):
        quadratic_residues(make_field(2, 3))


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (3, 2), (7, 1), (5, 2), (7, 2)])
def test_residue_set_properties(p, r):
    f = make_field(p, r)
    qr = quadratic_residues(f)
    assert len(qr) == (f.order - 1) // 2
    indices = {e.index for e in qr}
    assert 1 in indices  # identity is a square
    for a in qr:
        for b in qr:
            assert (a * b).index in indices  # closure
    # -1 is a square exactly when the order is 1 mod 4
    minus_one = f.neg(f.one)
    assert (minus_one.index in indices) == (f.order % 4 == 1)


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_field_axioms_exhaustive(p, r):
    f = make_field(p, r)
    elems = f.elements()
    for a in elems:
        assert (a + f.zero).index == a.index
        assert (a * f.one).index == a.index
        assert (a + (-a)).index == 0
        if a.index != 0:
            # inverse exists: a^(q-2) * a = 1
            inv = f.pow(a, f.order - 2)
            assert (a * inv).index == 1
    for a, b in itertools.product(elems, repeat=2):
        assert (a + b).index == (b + a).index
        assert (a * b).index == (b * a).index
    for a, b, c in itertools.product(elems, repeat=3):
        assert ((a + b) + c).index == (a + (b + c)).index
        assert ((a * b) * c).index == (a * (b * c)).index
        assert (a * (b + c)).index == ((a * b) + (a * c)).index


def test_field_size_cap():
    with pytest.raises(FieldConstructionError, match="exceeds"):
        make_field(2, 21)


def test_discrete_log_table(gf9):
    dlog = gf9.discrete_log
    g = primitive_element(gf9)
    for e in range(1, 9):
        assert dlog[gf9.pow(g, e).index] == e


@pytest.mark.parametrize("p,r,modulus", [
    (2, 2, None), (2, 3, None), (2, 4, None),
    (3, 2, (2, 1, 1)), (3, 2, (1, 0, 1)),
    (5, 2, None), (3, 3, None), (7, 2, None),
    (17, 1, (3, 1)),
])
def test_table_arithmetic_matches_polynomial_oracle(p, r, modulus):
    f = make_field(p, r, modulus)
    q = f.order
    for a in f.elements():
        assert (-a).index == field_oracle.neg(f, a.index)
        for b in f.elements():
            assert (a + b).index == field_oracle.add(f, a.index, b.index)
            assert (a * b).index == field_oracle.mul(f, a.index, b.index)
        power = 1
        for e in range(2 * q):  # exponents past q - 1 wrap around
            assert f.pow(a, e).index == power
            power = field_oracle.mul(f, power, a.index)
        if a.index:
            assert f.multiplicative_order(a) == field_oracle.orbit_length(f, a.index)
    generators = [i for i in range(1, q) if field_oracle.orbit_length(f, i) == q - 1]
    assert primitive_element(f).index == generators[0]
