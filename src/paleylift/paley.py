"""Paley graphs: Cayley graphs on the additive group of GF(p^r) whose
connection set is the nonzero squares; defined here for p^r = 1 mod 8."""
from __future__ import annotations

from dataclasses import dataclass

from .fields import PrimePowerField, quadratic_residues
from .graphs import Graph, IsomorphismCertificate, complement, verify_isomorphism


@dataclass(frozen=True)
class PaleyGraph:
    field: PrimePowerField
    graph: Graph
    connection_set: frozenset[int]   # indices of the nonzero squares


def build_paley(field: PrimePowerField) -> PaleyGraph:
    """Vertices are the field elements in canonical index order; g and h are
    adjacent iff h - g is a nonzero square.  Built as the Cayley graph: the
    neighbour mask of x is the mask of the squares translated by x."""
    m = field.order
    if m % 8 != 1:
        raise ValueError(
            f"Paley construction requires p^r = 1 (mod 8); got {m} = {m % 8} (mod 8)"
        )
    squares = quadratic_residues(field)
    # The index of x is a*p^k + y with a nonzero and y < p^k, so the mask of
    # x is the mask of x - p^k with 1 added to digit k: the indices whose
    # digit k is below p - 1 (the mask `up`) move up by p^k, and the others
    # wrap down by (p - 1) p^k.
    p = field.p
    masks = [sum(1 << s for s in squares)]
    for k in range(field.r):
        place = p**k
        up = sum(1 << i for i in range(m) if i // place % p < p - 1)
        for x in range(place, place * p):
            prev = masks[x - place]
            masks.append((prev & up) << place | (prev & ~up) >> (p - 1) * place)
    # -1 is a square as m = 1 (mod 4), so S = -S: the masks, translates of S,
    # are symmetric with (m-1)/2 bits each; 0 not in S leaves no loop bit, and
    # the digit shifts keep every bit below m: of_masks's precondition
    return PaleyGraph(field, Graph.of_masks(tuple(masks)), squares)


def smallest_nonresidue(field: PrimePowerField) -> int:
    """Index of the nonzero non-square of smallest canonical index: in odd
    characteristic, the first index with an odd discrete logarithm."""
    if field.p == 2:
        raise ValueError("every element of a field of characteristic 2 is a square")
    _, log = field.exp_log
    return next(i for i in range(1, field.order) if log[i] % 2)


def verify_self_complementary_via_multiplier(paley: PaleyGraph) -> IsomorphismCertificate:
    """Certificate from the multiplier map g -> s*g for the smallest
    non-square s, which exchanges squares and non-squares and therefore maps
    edges onto complement edges."""
    field = paley.field
    s = smallest_nonresidue(field)
    mapping = tuple(field.mul_index(s, i) for i in range(field.order))
    comp = complement(paley.graph)
    if not verify_isomorphism(paley.graph, comp, mapping):
        raise AssertionError(
            "multiplier map failed to carry edges onto the complement; "
            "field arithmetic bug"
        )
    return IsomorphismCertificate(mapping=mapping)
