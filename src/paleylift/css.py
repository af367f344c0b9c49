"""CSS surface codes of embedded graphs.

H_X is the vertex-edge incidence matrix and H_Z the face-edge incidence
matrix of a rotation system, which carries its graph.  A rotation system
of a connected graph with an edge is a cellular embedding, so H_X H_Z^T = 0
and k = 2 * genus are theorems: `code` writes them, and `verify` computes
the product and both ranks from the bundle files.  This module writes,
reads and checks every file of a code bundle.
"""
from __future__ import annotations

import json
import os
import sys
from array import array
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Optional

from .gf2 import BinaryMatrix, bit_flags, multiply, rank
from .graphs import incidence_matrix, parse_json
from .embedding import RotationSystem, face_edge_matrix, trace_faces

DEFAULT_ENUMERATION_BUDGET = 10**9


@dataclass
class CssCode:
    """A CSS code with its family labels."""

    hx: BinaryMatrix
    hz: BinaryMatrix
    n: int
    k: int
    d_lower: int
    d_found: Optional[int]
    family: str               # "voltage" | "paley" | "custom"
    kprime: Optional[int] = None
    genus: Optional[int] = None


def build_code_embedding(
    rotation: RotationSystem,
    family: str = "custom",
    kprime: Optional[int] = None,
) -> CssCode:
    """Surface code of an embedded graph: H_X from vertices, H_Z from faces,
    and k = 2 * genus from the traced face count, which the embedding being
    cellular makes exact; `verify` re-derives k from the ranks.  A family
    label that disagrees with the code raises ValueError."""
    graph = rotation.graph
    faces = trace_faces(rotation)
    code = CssCode(hx=incidence_matrix(graph), hz=face_edge_matrix(faces),
                   n=graph.edge_count, k=2 * faces.genus, d_lower=1,
                   d_found=None, family=family, kprime=kprime, genus=faces.genus)
    why = family_mismatch(code)
    if why:
        raise ValueError(why)
    return code


# -- distance ------------------------------------------------------------------

@dataclass(frozen=True)
class SearchCounters:
    """Work of one side's systole search: BFS roots searched, those of them
    searched one below the incumbent's weight, BFS levels expanded,
    candidates offered, and the row-space membership tests they needed."""

    roots: int = 0
    narrowed: int = 0
    levels: int = 0
    offers: int = 0
    membership: int = 0


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of a bounded minimum-weight logical search.  The work
    counters are a run log: reports compare equal without them."""

    dz_witness: Optional[tuple[int, ...]]
    dx_witness: Optional[tuple[int, ...]]
    searched_weight: int
    d_found: Optional[int]
    d_lower: int
    conclusion: str
    dz_counters: SearchCounters = field(default_factory=SearchCounters, compare=False)
    dx_counters: SearchCounters = field(default_factory=SearchCounters, compare=False)


_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}   # array typecodes by item size


def _columns(h: BinaryMatrix, name: str, ends: bool) -> tuple[list[int], list[int]]:
    """The graph whose vertices are the rows of h and whose edges are its
    columns, read in one pass over the rows without transposing h.  ker(h)
    is the graph's cycle space.  Returns the loops (the columns of weight
    0) and, if ends, each column's ends: high << width | low for its lowest
    and highest set rows, width = (rows - 1).bit_length(), 0 for a loop
    ([] without ends).  A column of weight other than 0 or 2 raises
    ValueError.

    seen, twice and more hold the columns of weight >= 1, >= 2 and >= 3
    in the rows so far.  Plane k of low and high holds bit k of each
    column's lowest and highest set row: row i is or-ed into the planes of
    the set bits of i, as the columns it holds first and again.  That is
    O(rows x width) whole-row operations, against O(nonzeros) steps to
    transpose h."""
    width = (h.rows - 1).bit_length() if ends else 0
    low, high = [0] * width, [0] * width
    seen = twice = more = 0
    for i, r in enumerate(h.row_bits):
        again = seen & r
        more |= twice & again
        twice |= again
        seen |= r
        if width:
            first = r ^ again
            for k in range(i.bit_length()):
                if i >> k & 1:
                    low[k] |= first
                    high[k] |= again
    bad = seen ^ twice | more
    if bad:
        j = (bad & -bad).bit_length() - 1
        weight = sum(r >> j & 1 for r in h.row_bits)
        raise ValueError(f"{name} column {j} has weight {weight}; the distance "
                         f"engine needs a surface code (column weights 0 or 2)")
    unseen = ((1 << h.cols) - 1) ^ seen
    loops = list(compress(range(h.cols), bit_flags(unseen, h.cols))) if unseen else []
    return loops, _column_numbers(low + high, h.cols) if ends else []


def _column_numbers(planes: list[int], cols: int) -> list[int]:
    """For each column j, the number whose bit k is bit j of planes[k].
    Each plane is spread one bit to a field of `size` bytes, the spread
    planes are shifted into one another as little-endian integers, and the
    fields are read back as one array of unsigned integers."""
    size = next(s for s in (1, 2, 4, 8) if len(planes) <= 8 * s)
    packed = 0
    for k, plane in enumerate(planes):
        spread = bit_flags(plane, cols)
        if size > 1:
            spread, fields = bytearray(size * cols), spread
            spread[::size] = fields
        packed |= int.from_bytes(spread, "little") << k
    numbers = array(_UNSIGNED[size], packed.to_bytes(size * cols, "little"))
    if sys.byteorder == "big":
        numbers.byteswap()
    return numbers.tolist()


def _parallel(ends: list[int]) -> list[tuple[int, int]]:
    """The parallel edges of the graph of _columns: (i, j) for each column j
    equal to an earlier one, i the lowest column equal to it.  Equal
    columns have equal ends, and the loops' ends are 0; one set of the
    ends shows whether any two columns of weight 2 are equal, before they
    are listed."""
    distinct = set(ends)
    distinct.discard(0)
    if len(distinct) == len(ends) - ends.count(0):
        return []
    first: dict[int, int] = {}   # ends -> the lowest column with them
    parallel = []
    for j, end in enumerate(ends):
        if end:
            i = first.setdefault(end, j)
            if i != j:
                parallel.append((i, j))
    return parallel


def _adjacency(rows: int, ends: list[int]) -> list[list[tuple[int, int]]]:
    """Adjacency lists of (neighbour, column) of the graph of _columns, in
    ascending column order: a column of weight 2 joins its lowest and
    highest set rows."""
    width = (rows - 1).bit_length()
    mask = (1 << width) - 1
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for j, end in enumerate(ends):
        if end:
            u, v = end & mask, end >> width
            adjacency[u].append((v, j))
            adjacency[v].append((u, j))
    return adjacency


def _systole_side(
    kernel_of: BinaryMatrix,
    modulo: BinaryMatrix,
    w_max: int,
    name: str,
) -> tuple[Optional[tuple[int, ...]], SearchCounters]:
    """A minimum-weight vector of ker(kernel_of) outside rowspace(modulo)
    if its weight is <= w_max, else None: the smallest (weight, sorted
    support) candidate below; and the search's work counters.

    Every column of kernel_of has weight 0 or 2, so the kernel is the cycle
    space of the graph of _columns(kernel_of).  Its vectors of weight <= 2 are
    decided from the columns: with kernel_of z = 0 and |z| <= 2, z is one
    zero column (a loop) or two equal columns (parallel edges).  The loops
    are offered in order up to the first one outside rowspace(modulo),
    which precedes every later candidate, and, if w_max >= 2, each parallel
    edge j with the lowest column i equal to it, as i + j; at w_max = 1 the
    column ends are not read.  That covers every pair: if a + b (i < a < b)
    is outside rowspace(modulo), so is i + a or i + b, whose sum it is, and
    both come before a + b in sorted-support order.  Only weights >= 3 need
    the BFS below.  The cycles outside a subspace satisfy
    Thomassen's 3-path condition (Thomassen, JCTB 48, 1990): a shortest one,
    C, is the sum of the fundamental cycles of its non-tree edges in a BFS
    tree rooted on C, so one of those is outside the subspace too, and each
    is no longer than C because its edge xy has depth(x) + depth(y) + 1 <=
    len(C).  The argument holds in any subgraph that contains C, so each
    cycle is sought from its lowest row only: the BFS from root enters rows
    above root alone.  The candidates are therefore the loops and, from
    every root, path(x) ^ path(y) ^ e for every non-tree edge e = xy of the
    BFS ball of radius w // 2 in the rows >= root with depth(x) + depth(y)
    + 1 <= w.  Row-space membership is still tested in the whole of
    rowspace(modulo), eliminated at the first test.  The BFS stops early
    when its frontier runs empty.

    The bound w of each root is set by the incumbent witness, the best
    vector held when the root's search starts.  A candidate from root uses
    only columns that join two rows >= root, all of them at or above
    lowest[root].  Without an incumbent w = w_max.  With one, w is its
    weight, less one when lowest[root] exceeds the incumbent's lowest
    column: every candidate of equal weight from root then lacks that
    column and holds none below it, so it comes later in sorted-support
    order and cannot replace the incumbent.  w never rises from one root to
    the next, since the incumbent's weight only falls, a new incumbent of
    equal weight has a lowest column no higher than the old one's, and
    lowest[] is nondecreasing; so the search ends at the first root with w
    < 3, as every candidate of weight <= 2 came from the columns.  With
    w_max <= 2, or a witness among the columns, no root is searched and the
    adjacency lists are not built.  The bound loses no shortest logical C
    of weight >= 3: at its lowest row, w >= len(C) unless the incumbent
    already weighs len(C).

    At weight <= 3 the result is also the smallest (weight, sorted support)
    of all such vectors.  At weight <= 2 every candidate that could precede
    the witness is offered, and at weight 3 a smaller one would swap in the
    lowest of a set of parallel edges, and BFS from its lowest row takes
    that one into the tree.  That row is searched to at least its weight,
    as the smallest vector cannot come after the incumbent.  Above weight 3
    the result is a minimum-weight one.
    """
    loops, ends = _columns(kernel_of, name, ends=w_max >= 2)
    best_weight, best = w_max, 0   # best == 0 until a witness is found
    roots = narrowed = levels = offers = membership = 0

    def offer(v: int) -> None:
        nonlocal best_weight, best, offers, membership
        offers += 1
        weight = v.bit_count()
        if weight > best_weight:
            return
        if weight == best_weight and best:
            # Of two supports of equal size, the sorted one that comes first
            # holds the lowest column in which they differ.
            differ = v ^ best
            if not v & differ & -differ:
                return
        membership += 1
        if not modulo.row_space.contains(v):
            best_weight, best = weight, v

    for j in loops:
        offer(1 << j)
        if best:   # a loop: no later candidate precedes it
            break
    for i, j in _parallel(ends):
        offer(1 << i | 1 << j)
    # Root 0 is searched, to w_max, iff w_max >= 3 and the columns gave no
    # witness; otherwise no root is.
    adjacency = _adjacency(kernel_of.rows, ends) if best_weight >= 3 else []
    # lowest[r]: the lowest column joining two rows >= r (cols if none)
    lowest = [kernel_of.cols] * (len(adjacency) + 1)
    for u in range(len(adjacency) - 1, -1, -1):
        lowest[u] = min([lowest[u + 1]] + [j for v, j in adjacency[u] if v > u])
    for root in range(len(adjacency)):
        narrow = best != 0 and lowest[root] > (best & -best).bit_length() - 1
        w = best_weight - narrow
        if w < 3:
            break
        roots += 1
        narrowed += narrow
        path = {root: 0}   # vertex -> columns of its tree path to the root
        tree = set()
        frontier = [root]
        for _ in range(w // 2):
            if not frontier:
                break
            levels += 1
            reached = []
            for x in frontier:
                for y, j in adjacency[x]:
                    if y > root and y not in path:
                        path[y] = path[x] | (1 << j)
                        tree.add(j)
                        reached.append(y)
            frontier = reached
        # For even w, the rim (depth w / 2, reached last) is not scanned: its
        # edges among themselves are too long, and each of its edges to an
        # inner vertex is met from the inner end.
        rim = set() if w % 2 else set(frontier)
        for x, to_x in list(path.items())[:len(path) - len(rim)]:
            for y, j in adjacency[x]:
                if (x < y or y in rim) and j not in tree and y in path:
                    offer(to_x ^ path[y] ^ (1 << j))
    witness = (tuple(j for j in range(kernel_of.cols) if best >> j & 1)
               if best else None)
    return witness, SearchCounters(roots=roots, narrowed=narrowed, levels=levels,
                                   offers=offers, membership=membership)


def distance_search(
    code: CssCode,
    w_max: int,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> DistanceReport:
    """Exact minimum-weight logical search up to weight w_max.

    Z side looks in ker(hx) minus rowspace(hz); X side in ker(hz) minus
    rowspace(hx).  Each side's witness is a minimum-weight logical of weight
    <= w_max (see _systole_side).  The reported distance is the minimum over
    both sides; with no witness the result is the verified bound d > w_max.
    The budget bounds the up-front work estimate, the sum over both sides of
    rows x cols.  A column of weight other than 0 or 2 raises ValueError.
    """
    if w_max < 1:
        raise ValueError("w_max must be at least 1")
    work = code.hx.rows * code.hx.cols + code.hz.rows * code.hz.cols
    if work > enumeration_budget:
        raise ValueError(
            f"distance work estimate {work} exceeds the budget {enumeration_budget}"
        )
    dz, dz_counters = _systole_side(code.hx, code.hz, w_max, "H_X")
    dx, dx_counters = _systole_side(code.hz, code.hx, w_max, "H_Z")
    weights = [len(w) for w in (dz, dx) if w is not None]
    d = min(weights, default=None)
    return DistanceReport(
        dz_witness=dz, dx_witness=dx, searched_weight=w_max,
        d_found=d, d_lower=w_max + 1 if d is None else d,
        conclusion=f"d > {w_max}" if d is None else f"d = {d}",
        dz_counters=dz_counters, dx_counters=dx_counters,
    )


def verify_witness(code: CssCode, side: str, support: tuple[int, ...]) -> bool:
    """Re-check a logical witness: distinct columns of the code, kernel
    membership and row-space non-membership."""
    if len(set(support)) != len(support) or not all(0 <= j < code.n for j in support):
        return False
    v = sum(1 << j for j in support)
    kernel_of, modulo = (code.hx, code.hz) if side == "Z" else (code.hz, code.hx)
    if any((row & v).bit_count() % 2 for row in kernel_of.row_bits):
        return False
    return not modulo.row_space.contains(v)


def apply_distance_report(code: CssCode, report: DistanceReport) -> None:
    """Fold a search outcome into the code record, never weakening it: a
    shallower rerun cannot erase a previously found distance or lower the
    verified bound."""
    if report.d_found is not None:
        code.d_found = (report.d_found if code.d_found is None
                        else min(code.d_found, report.d_found))
    code.d_lower = max(code.d_lower, report.d_lower)
    if code.d_found is not None:
        code.d_lower = min(code.d_lower, code.d_found)


# -- closed-form family parameters ----------------------------------------------

@dataclass(frozen=True)
class FamilyParameters:
    family: str
    kprime: int
    m: int
    genus: int
    n: int
    k: int

    @property
    def rate(self) -> float:
        return self.k / self.n


# family -> (its first k', m - 8k'): the smallest lift has m = 16 vertices,
# the smallest Paley graph m = 9
FAMILIES = {"voltage": (1, 8), "paley": (0, 9)}


def family_parameters(family: str, kprime: int) -> FamilyParameters:
    """Closed-form (n, k, m, g) for the two code families, from the graph's
    m = 8k' + FAMILIES[family][1] vertices.  A self-complementary graph
    holds half of the m(m-1)/2 vertex pairs, so n = m(m-1)/4.  A self-dual
    embedding has as many faces as vertices, so V - E + F = 2 - 2g gives
    g = (n - 2m + 2)/2, and k = 2g.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    first, offset = FAMILIES[family]
    if kprime < first:
        raise ValueError(f"{family} family needs kprime >= {first}")
    m = 8 * kprime + offset
    n = m * (m - 1) // 4
    genus = (n - 2 * m + 2) // 2
    return FamilyParameters(family=family, kprime=kprime, m=m, genus=genus,
                            n=n, k=2 * genus)


def family_mismatch(code: CssCode) -> str:
    """Why the code's family label disagrees with its (n, k, genus), or ""
    if it agrees.  A custom family or a null kprime makes no claim; an
    unknown family or a kprime outside its family's range is a mismatch."""
    if code.family == "custom" or code.kprime is None:
        return ""
    try:
        claim = family_parameters(code.family, code.kprime)
    except ValueError as exc:
        return str(exc)
    if (claim.n, claim.k, claim.genus) == (code.n, code.k, code.genus):
        return ""
    return (f"family {code.family} with kprime {code.kprime} has n, k, genus = "
            f"{claim.n}, {claim.k}, {claim.genus}; the code has "
            f"{code.n}, {code.k}, {code.genus}")


# -- code bundles ----------------------------------------------------------------

_CODE_JSON = "code.json"
_MATRIX_FILES = (("hx.txt", "hx.alist"), ("hz.txt", "hz.alist"))   # text, alist export
_WITNESS_FILES = {"Z": "dz_witness.json", "X": "dx_witness.json"}
_RECORD = ("n", "k", "d_found", "d_lower", "family", "kprime", "genus")   # code.json
_NULLABLE = ("d_found", "kprime", "genus")


class NotABundle(ValueError):
    """A directory without code.json."""


def write_bundle(code: CssCode, directory: str | Path, alist: bool = False) -> list[Path]:
    """Write a new code's matrices, their alist exports if alist, and
    code.json, after removing an earlier code's exports and witnesses;
    returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stale = {export for _, export in _MATRIX_FILES} | set(_WITNESS_FILES.values())
    for name in stale.intersection(os.listdir(directory)):
        (directory / name).unlink()
    paths = []
    for matrix, (text, export) in zip((code.hx, code.hz), _MATRIX_FILES):
        paths.append(directory / text)
        paths[-1].write_text(matrix.to_text())
        if alist:
            paths.append(directory / export)
            paths[-1].write_text(matrix.to_alist())
    return paths + [_write_record(code, directory)]


def write_distance(code: CssCode, report: DistanceReport, directory: str | Path) -> list[Path]:
    """Rewrite code.json and write the report's witnesses, leaving the
    matrices alone; returns the paths written."""
    paths = [_write_record(code, directory)]
    for side, witness in (("Z", report.dz_witness), ("X", report.dx_witness)):
        if witness is not None:
            paths.append(Path(directory) / _WITNESS_FILES[side])
            paths[-1].write_text(json.dumps(
                {"side": side, "weight": len(witness), "support": list(witness)},
                indent=2, sort_keys=True) + "\n")
    return paths


def _write_record(code: CssCode, directory: str | Path) -> Path:
    path = Path(directory) / _CODE_JSON
    path.write_text(json.dumps({key: getattr(code, key) for key in _RECORD},
                               indent=2, sort_keys=True) + "\n")
    return path


def _json_int(payload: dict, key: str, optional: bool = False,
              listed: bool = False) -> Optional[int | list[int]]:
    """payload[key], which must be an integer (a list of them if listed),
    or null if optional; ValueError otherwise."""
    value = payload.get(key)
    if (type(value) is list and all(type(v) is int for v in value) if listed
            else type(value) is int or (optional and value is None)):
        return value
    raise ValueError(f"{key} must be {'a list of integers' if listed else 'an integer'}"
                     f"{' or null' if optional else ''}, got {value!r}")


def read_bundle(directory: str | Path) -> CssCode:
    """Load a bundle; a directory without code.json raises NotABundle,
    malformed content, matrices among them whose column count is not n,
    ValueError, and a missing file OSError."""
    directory = Path(directory)
    if not (record_path := directory / _CODE_JSON).exists():
        raise NotABundle(f"{directory} is not a code bundle ({_CODE_JSON} missing)")
    hx, hz = (BinaryMatrix.from_text((directory / text).read_text())
              for text, _ in _MATRIX_FILES)
    payload = parse_json(record_path.read_text())
    if not isinstance(payload, dict) or not isinstance(payload.get("family"), str):
        raise ValueError(f"{_CODE_JSON} must be an object with a string family")
    record = {key: _json_int(payload, key, optional=key in _NULLABLE)
              for key in _RECORD if key != "family"}
    if not hx.cols == hz.cols == record["n"]:
        raise ValueError(f"hx and hz have {hx.cols} and {hz.cols} columns; "
                         f"{_CODE_JSON} has n = {record['n']}")
    return CssCode(hx=hx, hz=hz, family=payload["family"], **record)


def check_files(directory: str | Path, code: CssCode) -> list[tuple[str, bool]]:
    """The checks of the bundle's optional files, (name, whether it holds)
    each.  An alist export must be to_alist() of its matrix, and a witness
    a logical of its side and of its stated weight.  A witness bounds d
    from above, so d_found must be the lightest and d_lower at most each."""
    directory = Path(directory)
    present = set(os.listdir(directory))
    checks, weights = [], []
    for matrix, (text, export) in zip((code.hx, code.hz), _MATRIX_FILES):
        if export in present:
            try:
                ok = (directory / export).read_bytes() == matrix.to_alist().encode()
            except OSError:
                ok = False
            checks.append((f"{export} matches {text}", ok))
    for side, name in _WITNESS_FILES.items():
        if name in present:
            try:
                payload = parse_json((directory / name).read_text())
                if not isinstance(payload, dict) or payload.get("side") != side:
                    raise ValueError(f"witness needs side {side}")
                weight = _json_int(payload, "weight")
                support = tuple(_json_int(payload, "support", listed=True))
                weights.append(len(support))
                ok = len(support) == weight and verify_witness(code, side, support)
            except (OSError, ValueError):
                ok = False
            checks.append((f"d{side.lower()} witness re-verifies", ok))
    if code.d_found is not None:
        checks.append(("d_found = lightest witness weight",
                       code.d_found == min(weights, default=None)))
    if weights:
        checks.append(("d_lower <= every witness weight", code.d_lower <= min(weights)))
    return checks


def homology_ranks(hx: BinaryMatrix, hz: BinaryMatrix) -> int:
    """The first mod-2 Betti number of the chain complex defined by (hx, hz),
    beta1 = cols - rank(hx) - rank(hz): a surface code's k.  `verify` checks
    a bundle's k with it; `code` writes k = 2 * genus without it.

    Requires hx hz^T = 0; the first violating row pair is named otherwise.
    """
    for i, r in enumerate(multiply(hx, hz.transpose()).row_bits):
        if r:
            raise ValueError(f"hx hz^T != 0: row {i} of hx and row "
                             f"{(r & -r).bit_length() - 1} of hz overlap oddly")
    return hx.cols - rank(hx) - rank(hz)
