"""Two-vertex voltage graphs over (Z_2^t, xor) and their lifts.

Voltage vectors are integers read MSB-first as length-t bit vectors, so
value 6 at t=3 is the vector 110.  The four vector classes are keyed by
the leading bit and the weight parity of the remaining t-1 bits.
"""
from __future__ import annotations

from dataclasses import dataclass

from .embedding import RotationSystem, incident_darts
from .gf2 import BinaryMatrix
from .graphs import Graph, require_vertex_count


def class_members(t: int, leading_bit: int, tail_even: bool) -> list[int]:
    """The vectors of Z_2^t, ascending, with the given leading bit and whose
    other t-1 bits have even weight iff tail_even; t >= 2 gives four classes
    of size 2^(t-2)."""
    tail_mask = (1 << (t - 1)) - 1
    return [a for a in range(1 << t)
            if a >> (t - 1) == leading_bit
            and ((a & tail_mask).bit_count() % 2 == 0) == tail_even]


@dataclass(frozen=True)
class VoltageGraph:
    """Two vertices u, v; links u-v plus half edges at each vertex, all
    labeled by elements of Z_2^t.  Unchecked: lift needs the voltages of
    each kind distinct and below 2^t, and none 0 on a half edge, as
    build_voltage_graph makes them."""

    t: int
    links: tuple[int, ...]
    half_edges_u: tuple[int, ...]
    half_edges_v: tuple[int, ...]


def build_voltage_graph(t: int) -> VoltageGraph:
    """The two-vertex voltage graph H_t: links carry every odd-weight vector;
    half edges at v carry the odd-tail vectors; half edges at u carry the
    even-tail vectors except zero."""
    if t < 3:
        raise ValueError(f"the construction requires t >= 3, got {t}")
    require_vertex_count(2, t + 1)
    links = tuple(sorted(class_members(t, 0, False) + class_members(t, 1, True)))
    half_v = tuple(sorted(class_members(t, 0, False) + class_members(t, 1, False)))
    half_u = tuple(sorted([a for a in class_members(t, 0, True) if a != 0]
                          + class_members(t, 1, True)))
    return VoltageGraph(t=t, links=links, half_edges_u=half_u, half_edges_v=half_v)


def lift(vg: VoltageGraph) -> Graph:
    """Derived graph of the voltage assignment over Z_2^t.

    Vertices: u_g -> g and v_g -> 2^t + g.  A link with voltage a yields
    edges {u_g, v_(g^a)} for every g; a half edge at a vertex with voltage
    a yields the perfect matching {w_g, w_(g^a)} inside that fiber.  So u_g's
    mask holds v_(g^a) per link a and u_(g^a) per half edge a at u, and v_g's
    likewise; they are symmetric as every voltage is an involution, and
    loop-free as no half edge's voltage is 0.
    """
    size = 1 << vg.t
    u_masks, v_masks = [], []
    for g in range(size):
        links = sum(1 << (g ^ a) for a in vg.links)
        u_masks.append(links << size | sum(1 << (g ^ a) for a in vg.half_edges_u))
        v_masks.append(links | sum(1 << (g ^ a) for a in vg.half_edges_v) << size)
    return Graph.of_masks(tuple(u_masks + v_masks))


def derived_embedding(vg: VoltageGraph) -> RotationSystem:
    """Derived embedding of the lift (Gross & Tucker, Topological Graph
    Theory, 1987, ch. 4) from the index-order base rotation.

    Every u_g lists its links, then its half edges, each in the order vg
    holds them (ascending voltage from build_voltage_graph); every v_g does
    the same with the half edges at v.  All vertices of a fibre share one
    rotation, so every face is a lift of a base face.
    """
    graph = lift(vg)
    size = 1 << vg.t
    masks, darts = graph.neighbours, incident_darts(graph)

    def dart(x: int, y: int) -> int:
        # the darts at x ascend with their far ends: y's is x's count of
        # neighbours below y
        return darts[x][(masks[x] & ((1 << y) - 1)).bit_count()]

    u_rotations = tuple(
        tuple(dart(g, size + (g ^ a)) for a in vg.links)
        + tuple(dart(g, g ^ a) for a in vg.half_edges_u)
        for g in range(size)
    )
    v_rotations = tuple(
        tuple(dart(size + g, g ^ a) for a in vg.links)
        + tuple(dart(size + g, size + (g ^ a)) for a in vg.half_edges_v)
        for g in range(size)
    )
    return RotationSystem(graph, u_rotations + v_rotations)


def block_adjacency(t: int) -> BinaryMatrix:
    """Adjacency matrix of the lift from the closed-form tensor blocks.

    The 2^(t+1) x 2^(t+1) matrix [[B, C], [C, D]] where, with I the 2x2
    identity and X the 2x2 swap,
        B = (I+X)/2 (x) [(I+X)^(x(t-1)) + (I-X)^(x(t-1))] - I^(xt)
        C = [(I+X)^(xt) - (I-X)^(xt)] / 2
        D = (I+X)/2 (x) [(I+X)^(x(t-1)) - (I-X)^(x(t-1))]
    evaluated exactly over the integers: (I+X)^(xk) is the all-ones matrix
    and (I-X)^(xk) has entries +-1, so the halvings are exact and every
    entry is 0 or 1.  For t >= 3 within the vertex limit, which
    build_voltage_graph checks first.
    """
    import numpy as np   # only here: importing it is most of the CLI's start-up

    ident = np.eye(2, dtype=np.int64)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    plus = ident + swap
    minus = ident - swap

    def kron_power(m: np.ndarray, k: int) -> np.ndarray:
        out = np.array([[1]], dtype=np.int64)
        for _ in range(k):
            out = np.kron(out, m)
        return out

    b = np.kron(plus, kron_power(plus, t - 1) + kron_power(minus, t - 1)) // 2
    b = b - kron_power(ident, t)
    c = (kron_power(plus, t) - kron_power(minus, t)) // 2
    d = np.kron(plus, kron_power(plus, t - 1) - kron_power(minus, t - 1)) // 2

    full = np.block([[b, c], [c, d]])
    packed = np.packbits(full.astype(np.uint8), axis=1, bitorder="little")
    return BinaryMatrix(len(full), len(full), tuple(
        int.from_bytes(row.tobytes(), "little") for row in packed))
