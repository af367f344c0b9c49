"""Benchmark inputs, generated without the program under test.

The rotation systems passed to `paleylift code --rotation` are built here
from first principles, so a change to the program's field or graph code
cannot change what the benchmark feeds it:

- Paley graphs get the multiplier Cayley map: at vertex x the neighbours
  are listed as x+1, x+lam, x+lam^2, ... with lam = g^2 for the canonical
  primitive element g (smallest index of multiplicative order q-1).
- Lifts of the two-vertex voltage graph get the index-order derived
  embedding: at u_g the links (ascending voltage) and then the half edges
  at u; at v_g the links and then the half edges at v.

Field elements use the program's documented labelling: index i is the
polynomial whose coefficients, constant term first, are the base-p digits
of i.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


# -- GF(p^r) by index ---------------------------------------------------------

def _digits(i: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        out.append(i % p)
        i //= p
    return out


def _index(digits: list[int], p: int) -> int:
    i = 0
    for c in reversed(digits):
        i = i * p + c
    return i


def _poly_rem(a: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a by a monic modulus over Z_p."""
    a = list(a)
    deg = len(modulus) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i] % p
        if c:
            for j in range(deg + 1):
                a[i - deg + j] = (a[i - deg + j] - c * modulus[j]) % p
    return [c % p for c in a[:deg]] + [0] * max(0, deg - len(a))


def _has_factor(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p ** d):
            divisor = tuple(_digits(low, p, d)) + (1,)
            if not any(_poly_rem(list(poly), divisor, p)):
                return True
    return False


def irreducible_moduli(p: int, r: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree r over Z_p, constant term first."""
    if r == 1:
        return [(0, 1)]
    out = []
    for low in range(p ** r):
        poly = tuple(_digits(low, p, r)) + (1,)
        if poly[0] and not _has_factor(poly, p):
            out.append(poly)
    return out


class Field:
    """GF(p^r) with index-level add and multiply."""

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p, self.r, self.modulus = p, r, modulus
        self.q = p ** r

    def add(self, a: int, b: int) -> int:
        p, r = self.p, self.r
        return _index([(x + y) % p for x, y in
                       zip(_digits(a, p, r), _digits(b, p, r))], p)

    def mul(self, a: int, b: int) -> int:
        p, r = self.p, self.r
        da, db = _digits(a, p, r), _digits(b, p, r)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        if r == 1:
            return prod[0] % p
        return _index(_poly_rem(prod, self.modulus, p), p)

    def order(self, a: int) -> int:
        k, acc = 1, a
        while acc != 1:
            acc = self.mul(acc, a)
            k += 1
        return k

    def primitive_element(self) -> int:
        return next(i for i in range(1, self.q) if self.order(i) == self.q - 1)


# -- rotation systems ---------------------------------------------------------

def _rotation_json(vertex_count: int, neighbours: list[list[int]]) -> tuple[int, str]:
    """Rotation JSON in the program's format from per-vertex neighbour
    orders; returns (edge count, text)."""
    edges = sorted({(min(u, v), max(u, v))
                    for u in range(vertex_count) for v in neighbours[u]})
    index = {e: i for i, e in enumerate(edges)}
    rotations = [[[index[(min(u, v), max(u, v))], 0 if u < v else 1]
                  for v in neighbours[u]] for u in range(vertex_count)]
    text = json.dumps({"rotations": rotations}, separators=(",", ":"),
                      sort_keys=True) + "\n"
    return len(edges), text


def paley_rotation(field: Field) -> tuple[int, str]:
    """Multiplier Cayley map of the Paley graph over the field."""
    g = field.primitive_element()
    lam = field.mul(g, g)
    connection = [1]
    while len(connection) < (field.q - 1) // 2:
        connection.append(field.mul(connection[-1], lam))
    neighbours = [[field.add(x, s) for s in connection] for x in range(field.q)]
    return _rotation_json(field.q, neighbours)


def _weight(x: int) -> int:
    return bin(x).count("1")


def lift_rotation(t: int) -> tuple[int, str]:
    """Index-order derived embedding of the lift over Z_2^t: u_g = g and
    v_g = 2^t + g."""
    size, tail = 1 << t, (1 << (t - 1)) - 1
    links = [a for a in range(size) if _weight(a) % 2]
    half_u = [a for a in range(1, size) if _weight(a & tail) % 2 == 0]
    half_v = [a for a in range(size) if _weight(a & tail) % 2]
    neighbours = (
        [[size + (g ^ a) for a in links] + [g ^ a for a in half_u]
         for g in range(size)]
        + [[g ^ a for a in links] + [size + (g ^ a) for a in half_v]
           for g in range(size)]
    )
    return _rotation_json(2 * size, neighbours)


# -- instances ----------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """One graph of a workload with the flags the benchmark passes."""

    family: str                      # "paley" | "voltage"
    order: int                       # q for Paley, t for lifts
    p: int = 0
    r: int = 0
    modulus: tuple[int, ...] = ()    # chosen by the seed for r > 1

    @property
    def name(self) -> str:
        return f"paley{self.order}" if self.family == "paley" else f"lift{self.order}"

    @property
    def kprime(self) -> int:
        if self.family == "paley":
            return (self.order - 9) // 8
        return (1 << (self.order - 2)) - 1

    @property
    def vertices(self) -> int:
        return self.order if self.family == "paley" else 1 << (self.order + 1)

    def graph_argv(self, out: Path) -> list[str]:
        if self.family == "voltage":
            return ["lift", str(self.order), "--out", str(out)]
        argv = ["paley", str(self.p), str(self.r), "--out", str(out)]
        if self.r > 1:
            argv += ["--modulus", ",".join(map(str, self.modulus))]
        return argv


PRIME_POWERS = {9: (3, 2), 17: (17, 1), 25: (5, 2), 41: (41, 1), 49: (7, 2),
                73: (73, 1), 81: (3, 4), 89: (89, 1), 97: (97, 1),
                193: (193, 1), 257: (257, 1), 289: (17, 2), 521: (521, 1),
                529: (23, 2)}


def make_instances(paley_orders: list[int], lift_ts: list[int],
                   seed: int) -> list[Instance]:
    """The seed picks each prime-power modulus and the instance order."""
    rng = random.Random(seed)
    out = []
    for q in paley_orders:
        p, r = PRIME_POWERS[q]
        modulus = rng.choice(irreducible_moduli(p, r)) if r > 1 else (0, 1)
        out.append(Instance("paley", q, p, r, modulus))
    out += [Instance("voltage", t) for t in lift_ts]
    rng.shuffle(out)
    return out


def rotation_text(inst: Instance) -> tuple[int, str]:
    if inst.family == "voltage":
        return lift_rotation(inst.order)
    return paley_rotation(Field(inst.p, inst.r, inst.modulus))
