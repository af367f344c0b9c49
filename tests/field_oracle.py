"""Test-only GF(p^r) arithmetic straight from the definition: element i is
the polynomial whose coefficients, constant term first, are the base-p
digits of i; sums are taken coefficient by coefficient and products are
reduced by the field's modulus.  Every operation redoes the polynomial
arithmetic, so it is slow but independent of the field's tables."""
from paleylift.fields import PrimePowerField, _poly_divmod, _poly_mul


def add(field: PrimePowerField, i: int, j: int) -> int:
    a, b = field.index_to_coeffs(i), field.index_to_coeffs(j)
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return field.coeffs_to_index(tuple((x + y) % field.p for x, y in zip(a, b)))


def neg(field: PrimePowerField, i: int) -> int:
    return field.coeffs_to_index(tuple(-c % field.p for c in field.index_to_coeffs(i)))


def mul(field: PrimePowerField, i: int, j: int) -> int:
    prod = _poly_mul(field.index_to_coeffs(i), field.index_to_coeffs(j), field.p)
    return field.coeffs_to_index(_poly_divmod(prod, field.modulus, field.p)[1])


def orbit_length(field: PrimePowerField, i: int) -> int:
    """Number of powers of the nonzero element i before they return to 1."""
    length, acc = 1, i
    while acc != 1:
        acc = mul(field, acc, i)
        length += 1
    return length


def power(field: PrimePowerField, i: int, e: int) -> int:
    """g_i to the power e >= 0, as e products."""
    acc = 1
    for _ in range(e):
        acc = mul(field, acc, i)
    return acc
