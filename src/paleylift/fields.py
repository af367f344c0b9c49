"""Arithmetic in GF(p^r) with polynomial representatives.

Elements are indexed 0..p^r-1; index i encodes the polynomial whose
coefficient vector (constant term first) is the base-p digit expansion
of i.  For GF(9) this makes g_i = a*x + b with i = 3a + b.

Every operation takes and returns indices.  Addition works on them digit
by digit.  Every multiplicative operation reads one pair of exp/log tables
for the canonical primitive element, built from the polynomial arithmetic
on first use.
"""
from __future__ import annotations

from functools import cached_property

from .graphs import require_vertex_count


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _digits(i: int, p: int, count: int) -> list[int]:
    """The lowest count base-p digits of i, lowest first: the coefficients,
    constant term first, of the polynomial that index i encodes."""
    out = []
    for _ in range(count):
        i, d = divmod(i, p)
        out.append(d)
    return out


def _remainder(a: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """The deg(modulus) low coefficients of a mod the monic modulus over
    Z_p; a is reduced in place."""
    deg = len(modulus) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i] % p
        if c:
            for j in range(deg):   # the top term cancels
                a[i - deg + j] -= c * modulus[j]
    return [c % p for c in a[:deg]]


def _poly_str(coeffs: tuple[int, ...]) -> str:
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return " + ".join(terms)


def _monic_polys(degree: int, p: int):
    """All monic polynomials of the given degree over Z_p, ascending by
    coefficient tuple read from the constant term upward."""
    for low in range(p ** degree):
        yield tuple(_digits(low, p, degree)) + (1,)


def _find_factor(modulus: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """Trial division by monic polynomials of degree 1..deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(d, p):
            if not any(_remainder(list(modulus), cand, p)):
                return cand
    return None


class PrimePowerField:
    """GF(p^r) as Z_p[x] modulo a monic irreducible of degree r.

    Immutable after construction; safe to share.  Use make_field() rather
    than constructing directly.
    """

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p = p
        self.r = r
        self.order = p ** r
        self.modulus = modulus

    # -- arithmetic ----------------------------------------------------------

    def add_index(self, i: int, j: int) -> int:
        """Index of g_i + g_j: base-p digits added without carry."""
        p, out, place = self.p, 0, 1
        while i or j:
            i, a = divmod(i, p)
            j, b = divmod(j, p)
            out += (a + b) % p * place
            place *= p
        return out

    def neg_index(self, i: int) -> int:
        """Index of -g_i: each base-p digit negated."""
        p, out, place = self.p, 0, 1
        while i:
            i, a = divmod(i, p)
            out += (-a) % p * place
            place *= p
        return out

    def mul_index(self, i: int, j: int) -> int:
        """Index of g_i * g_j, read from the exp/log tables."""
        if i == 0 or j == 0:
            return 0
        exp, log = self.exp_log
        return exp[(log[i] + log[j]) % len(exp)]

    @cached_property
    def exp_log(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """exp[e] is the index of g^e for e < q-1, and log[exp[e]] = e.

        g is the canonical primitive element: the smallest index whose
        powers, computed as polynomials reduced by the modulus, first
        return to 1 after q-1 steps.  Its orbit is the exp table.
        """
        p, r, modulus, n = self.p, self.r, self.modulus, self.order - 1
        for c in range(1, self.order):
            base = digits = _digits(c, p, r)
            exp, acc = [1], c
            while acc != 1 and len(exp) <= n:  # bounded if the modulus is reducible
                exp.append(acc)
                prod = [0] * (2 * r - 1)
                for i, a in enumerate(digits):
                    if a:
                        for j, b in enumerate(base):
                            prod[i + j] += a * b
                digits = _remainder(prod, modulus, p)
                acc = 0
                for d in reversed(digits):
                    acc = acc * p + d
            if len(exp) == n and acc == 1:
                log = [0] * self.order
                for e, i in enumerate(exp):
                    log[i] = e
                return tuple(exp), tuple(log)
        raise AssertionError("no generator found")  # unreachable for a field

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.r}, modulus={_poly_str(self.modulus)})"


def make_field(p: int, r: int, modulus: tuple[int, ...] | None = None) -> PrimePowerField:
    """Construct GF(p^r), verifying irreducibility of the modulus.

    When modulus is omitted the lexicographically smallest monic irreducible
    of degree r is used (coefficients compared from the constant term up).
    """
    try:
        require_vertex_count(p, r)   # the field's elements are a Paley graph's vertices
    except ValueError as exc:
        raise ValueError(f"GF({p}^{r}): {exc}") from None
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError(f"exponent must be positive, got {r}")
    if modulus is not None:
        coeffs = [c % p for c in modulus]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        modulus = tuple(coeffs)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ValueError(
                f"modulus must be monic of degree {r}, got {_poly_str(modulus)}"
            )
        factor = _find_factor(modulus, p)
        if factor is not None:
            raise ValueError(
                f"modulus {_poly_str(modulus)} is reducible over Z_{p}: "
                f"divisible by {_poly_str(factor)}"
            )
        return PrimePowerField(p, r, modulus)
    for cand in _monic_polys(r, p):
        if r == 1 or _find_factor(cand, p) is None:
            return PrimePowerField(p, r, cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def primitive_element(field: PrimePowerField) -> int:
    """Index of the canonical primitive element: the smallest index that
    generates the multiplicative group."""
    exp, _ = field.exp_log
    return exp[1 % len(exp)]


def quadratic_residues(field: PrimePowerField) -> frozenset[int]:
    """Indices of the nonzero squares {1, g^2, g^4, ...}; defined for odd
    characteristic."""
    if field.p == 2:
        raise ValueError("quadratic residues are not meaningful in characteristic 2 "
                         "(every element is a square)")
    g = primitive_element(field)
    step = field.mul_index(g, g)
    residues = [1]
    for _ in range((field.order - 3) // 2):
        residues.append(field.mul_index(residues[-1], step))
    return frozenset(residues)
