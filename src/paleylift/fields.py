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


class FieldConstructionError(ValueError):
    """Invalid parameters for a prime-power field."""


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


def _poly_trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by b over Z_p; b must be monic."""
    assert b and b[-1] == 1
    rem = list(a)
    deg_b = len(b) - 1
    quot = [0] * max(len(a) - deg_b, 0)
    for i in range(len(rem) - 1, deg_b - 1, -1):
        c = rem[i] % p
        if c:
            quot[i - deg_b] = c
            for j in range(deg_b + 1):
                rem[i - deg_b + j] = (rem[i - deg_b + j] - c * b[j]) % p
    return _poly_trim(tuple(quot)), _poly_trim(tuple(rem))


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
    total = p ** degree
    for low in range(total):
        coeffs = []
        v = low
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        yield tuple(coeffs) + (1,)


def _find_factor(modulus: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """Trial division by monic polynomials of degree 1..deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(d, p):
            _, rem = _poly_divmod(modulus, cand, p)
            if not rem:
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

    # -- canonical indexing --------------------------------------------------

    def index_to_coeffs(self, index: int) -> tuple[int, ...]:
        coeffs = []
        v = index
        for _ in range(self.r):
            coeffs.append(v % self.p)
            v //= self.p
        return _poly_trim(tuple(coeffs))

    def coeffs_to_index(self, coeffs: tuple[int, ...]) -> int:
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + (c % self.p)
        return idx

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
        n = self.order - 1
        for c in range(1, self.order):
            base = self.index_to_coeffs(c)
            exp, acc = [1], base
            while acc != (1,) and len(exp) <= n:  # bounded if the modulus is reducible
                exp.append(self.coeffs_to_index(acc))
                _, acc = _poly_divmod(_poly_mul(acc, base, self.p), self.modulus, self.p)
            if len(exp) == n and acc == (1,):
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
        raise FieldConstructionError(f"GF({p}^{r}): {exc}") from None
    if not _is_prime(p):
        raise FieldConstructionError(f"{p} is not prime")
    if r < 1:
        raise FieldConstructionError(f"exponent must be positive, got {r}")
    if modulus is not None:
        modulus = _poly_trim(tuple(c % p for c in modulus))
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise FieldConstructionError(
                f"modulus must be monic of degree {r}, got {_poly_str(modulus)}"
            )
        factor = _find_factor(modulus, p)
        if factor is not None:
            raise FieldConstructionError(
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
