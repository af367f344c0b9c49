"""Test-only GF(p^r) arithmetic straight from the definition: element i is
the polynomial whose coefficients, constant term first, are the base-p
digits of i; sums are taken coefficient by coefficient and products are
reduced by the field's modulus.  Every operation redoes the polynomial
arithmetic with its own helpers, so it is slow but independent of the
field's tables and of the kernels that build them."""
from paleylift.fields import PrimePowerField


def coeffs(field: PrimePowerField, i: int) -> list[int]:
    """The r coefficients of element i, constant term first."""
    return [i // field.p ** k % field.p for k in range(field.r)]


def index(field: PrimePowerField, cs: list[int]) -> int:
    return sum(c % field.p * field.p ** k for k, c in enumerate(cs))


def add(field: PrimePowerField, i: int, j: int) -> int:
    return index(field, [a + b for a, b in zip(coeffs(field, i), coeffs(field, j))])


def neg(field: PrimePowerField, i: int) -> int:
    return index(field, [-c for c in coeffs(field, i)])


def mul(field: PrimePowerField, i: int, j: int) -> int:
    """Schoolbook product, then long division by the monic modulus: each
    term of degree r or more is replaced by its value mod the modulus."""
    r, modulus = field.r, field.modulus
    prod = [0] * (2 * r)
    for k, a in enumerate(coeffs(field, i)):
        for m, b in enumerate(coeffs(field, j)):
            prod[k + m] += a * b
    for top in range(2 * r - 1, r - 1, -1):
        c = prod[top]
        prod[top] = 0
        for m in range(r):
            prod[top - r + m] -= c * modulus[m]
    return index(field, prod[:r])


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
