import itertools
import math

import pytest

import field_oracle
from paleylift.fields import (
    make_field,
    primitive_element,
    quadratic_residues,
)


def test_gf9_reference_modulus_accepted(gf9):
    assert gf9.order == 9
    assert gf9.modulus == (2, 1, 1)  # x^2 + x + 2


def test_reducible_modulus_rejected_naming_factor():
    # x^2 + 2 = (x+1)(x+2) over Z_3
    with pytest.raises(ValueError, match=r"divisible by x \+ 1"):
        make_field(3, 2, (2, 0, 1))


def test_non_prime_rejected():
    with pytest.raises(ValueError, match="not prime"):
        make_field(6, 1)


def test_prime_field_default_modulus():
    f = make_field(3, 1)
    assert f.modulus == (0, 1)  # x
    assert f.order == 3


def test_default_modulus_is_lex_smallest():
    # over Z_3 the smallest monic irreducible quadratic is x^2 + 1
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)


def generator_powers(field):
    """[g^1, g^2, ..., g^(q-1)] for g = primitive_element(field), a
    mul_index chain."""
    g = primitive_element(field)
    powers = [g]
    while len(powers) < field.order - 1:
        powers.append(field.mul_index(powers[-1], g))
    return powers


def test_gf9_element_indexing(gf9):
    # g_i = a*x + b with i = 3a + b
    assert field_oracle.coeffs(gf9, 3) == [0, 1]     # x
    assert field_oracle.coeffs(gf9, 7) == [1, 2]     # 2x + 1
    assert [field_oracle.index(gf9, field_oracle.coeffs(gf9, i)) for i in range(9)] == list(range(9))
    # the field's digit loops read indices the same way: x + 1 = g_4,
    # -(2x + 1) = x + 2 = g_5, and (2x + 1) + (x + 2) = 0
    assert (gf9.add_index(3, 1), gf9.neg_index(7), gf9.add_index(7, 5)) == (4, 5, 0)


def test_gf9_square_of_generator(gf9):
    assert gf9.mul_index(3, 3) == 7  # x^2 = 2x + 1 under x^2 + x + 2


def test_primitive_element_gf9(gf9):
    assert primitive_element(gf9) == 3


def test_primitive_element_small_fields():
    assert primitive_element(make_field(3, 1)) == 2
    assert primitive_element(make_field(2, 1)) == 1


def test_power_table_gf9(gf9):
    assert generator_powers(gf9) == [3, 7, 8, 2, 6, 5, 4, 1]


def test_power_table_gf2_gf3():
    assert generator_powers(make_field(2, 1)) == [1]
    assert generator_powers(make_field(3, 1)) == [2, 1]


def test_power_table_enumerates_all_nonzero(gf9):
    powers = generator_powers(gf9)
    assert sorted(powers) == list(range(1, 9))
    assert powers[-1] == 1  # multiplicative identity closes the cycle


def test_quadratic_residues_gf9(gf9):
    assert quadratic_residues(gf9) == {1, 2, 5, 7}


def test_quadratic_residues_small_fields():
    assert quadratic_residues(make_field(3, 1)) == {1}
    assert quadratic_residues(make_field(5, 1)) == {1, 4}


def test_quadratic_residues_characteristic_2_rejected():
    with pytest.raises(ValueError, match="characteristic 2"):
        quadratic_residues(make_field(2, 3))


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (3, 2), (7, 1), (5, 2), (7, 2)])
def test_residue_set_properties(p, r):
    f = make_field(p, r)
    qr = quadratic_residues(f)
    assert len(qr) == (f.order - 1) // 2
    assert 1 in qr  # identity is a square
    for a in qr:
        for b in qr:
            assert f.mul_index(a, b) in qr  # closure
    # -1 is a square exactly when the order is 1 mod 4
    assert (f.neg_index(1) in qr) == (f.order % 4 == 1)


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_field_axioms_exhaustive(p, r):
    f = make_field(p, r)
    add, neg, mul = f.add_index, f.neg_index, f.mul_index
    elems = range(f.order)
    for a in elems:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, neg(a)) == 0
        if a != 0:
            # inverse exists: a^(q-2) * a = 1
            assert mul(a, field_oracle.power(f, a, f.order - 2)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_field_size_cap():
    with pytest.raises(ValueError, match="exceeds"):
        make_field(2, 21)


def test_discrete_log_table(gf9):
    # g^e for e = 1..8, the last being 1 = g^0: the log table holds e mod 8,
    # and the exp table inverts it
    exp, log = gf9.exp_log
    assert len(exp) == 8 and len(log) == 9
    for e, x in enumerate(generator_powers(gf9), start=1):
        assert log[x] == e % 8
        assert exp[e % 8] == x


@pytest.mark.parametrize("p,r,modulus", [
    (2, 2, None), (2, 3, None), (2, 4, None),
    (3, 2, (2, 1, 1)), (3, 2, (1, 0, 1)),
    (5, 2, None), (3, 3, None), (7, 2, None),
    (17, 1, (3, 1)),
])
def test_table_arithmetic_matches_polynomial_oracle(p, r, modulus):
    f = make_field(p, r, modulus)
    q = f.order
    g = primitive_element(f)
    for a in range(q):
        assert f.neg_index(a) == field_oracle.neg(f, a)
        for b in range(q):
            assert f.add_index(a, b) == field_oracle.add(f, a, b)
            assert f.mul_index(a, b) == field_oracle.mul(f, a, b)
        if a:
            e = f.exp_log[1][a]
            assert 0 <= e < q - 1 and f.exp_log[0][e] == a
            assert field_oracle.power(f, g, e) == a
            assert field_oracle.orbit_length(f, a) == (q - 1) // math.gcd(e, q - 1)
    generators = [i for i in range(1, q) if field_oracle.orbit_length(f, i) == q - 1]
    assert g == generators[0]
