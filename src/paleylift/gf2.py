"""Exact linear algebra over GF(2) on bit-packed matrices.

Rows are stored as Python integers (bit j = column j), so row elimination
is a single word-level XOR regardless of width.  All functions are pure;
matrices are immutable after construction, and each keeps its row space
once one is asked for.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Sequence

# A header count as to_text writes it: no sign, no "_", no leading zero.
_DECIMAL = re.compile("0|[1-9][0-9]*")

# The largest count a matrix text with no entries (no rows, or no columns)
# may give for its other side, which no data line then shows.  It is above
# the 523,776 edges of the complete graph on graphs.MAX_VERTICES vertices,
# the most columns a code built from a graph can have.
MAX_EMPTY_SIDE = 1 << 20


_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(bits: int, width: int) -> bytes:
    """One byte per bit j < width of bits, lowest first: 1 where the bit is
    set and 0 where it is clear; a selector for itertools.compress.  bits
    must be below 1 << width."""
    return bin(bits | 1 << width)[:2:-1].encode().translate(_FLAG_BYTES)


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense matrix over GF(2) with bit-packed rows."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative shape {self.rows}x{self.cols}")
        if len(self.row_bits) != self.rows:
            raise ValueError(
                f"row storage holds {len(self.row_bits)} rows, expected {self.rows}"
            )
        cols = self.cols
        for i, r in enumerate(self.row_bits):
            if r < 0 or r >> cols:
                raise ValueError(f"row {i} has bits outside column range 0..{self.cols - 1}")

    # -- transpose and row space -------------------------------------------

    def transpose(self) -> "BinaryMatrix":
        """Walks the set bits of each row: O(rows + nonzeros) word operations."""
        columns = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            bit = 1 << i
            while r:
                low = r & -r
                columns[low.bit_length() - 1] |= bit
                r ^= low
        return BinaryMatrix(self.cols, self.rows, tuple(columns))

    @cached_property
    def row_space(self) -> "RowSpace":
        """The row space, eliminated at its first use and then kept with the
        matrix, so each matrix is reduced at most once."""
        return RowSpace(self)

    # -- text and alist formats --------------------------------------------

    def to_text(self) -> str:
        """Serialize: first line "rows cols", then one line per row of its
        bits, column 0 first, separated by single spaces."""
        # The sentinel bit `top` gives every bin() exactly cols digits after
        # "0b1", also for cols = 0; reversed, they run column 0 first and
        # fill the even bytes of a row whose odd bytes stay spaces.
        top = 1 << self.cols
        row = bytearray(b" " * (2 * self.cols - 1))
        lines = [f"{self.rows} {self.cols}"]
        for r in self.row_bits:
            row[::2] = bin(r | top)[:2:-1].encode()
            lines.append(row.decode())
        return "\n".join(lines) + "\n"

    def to_alist(self) -> str:
        """MacKay alist export (unpadded): columns first, 1-based indices.
        The columns' lists are filled from the rows' in O(nonzeros)."""
        positions = range(1, self.cols + 1)
        rows = [list(compress(positions, bit_flags(r, self.cols))) for r in self.row_bits]
        cols: list[list[int]] = [[] for _ in positions]
        for i, row in enumerate(rows, 1):
            for j in row:
                cols[j - 1].append(i)
        lines = [f"{self.cols} {self.rows}",
                 f"{max(map(len, cols), default=0)} {max(map(len, rows), default=0)}",
                 " ".join(str(len(c)) for c in cols), " ".join(str(len(r)) for r in rows)]
        return "\n".join(lines + [" ".join(map(str, c)) for c in cols + rows]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse to_text's format.  Blank lines are skipped; the header counts
        must be plain decimals and every entry the token 0 or 1.  Nothing is
        sized by a header count before the text shows that many entries:
        a matrix with no rows or no columns may declare at most
        MAX_EMPTY_SIDE of the other."""
        lines = [ln for ln in text.splitlines() if ln and not ln.isspace()]
        if not lines:
            raise ValueError("empty matrix text")
        header = lines[0].split()
        if len(header) != 2 or not all(_DECIMAL.fullmatch(tok) for tok in header):
            raise ValueError(f"bad header line {lines[0]!r}, expected 'rows cols'")
        rows, cols = int(header[0]), int(header[1])
        if not (rows and cols) and max(rows, cols) > MAX_EMPTY_SIDE:
            raise ValueError(f"a {rows}x{cols} matrix has no entries to show its "
                             f"size; at most {MAX_EMPTY_SIDE} rows or columns")
        data = lines[1:]
        if cols == 0 and not data:
            # rows of zero columns are written as empty lines, skipped above
            return cls(rows, 0, (0,) * rows)
        if len(data) != rows:
            raise ValueError(f"expected {rows} data lines, found {len(data)}")
        packed = []
        # gap is compared only with lines of the full width, none of which
        # is longer than the text
        width, gap = 2 * cols - 1, " " * min(cols - 1, len(text))
        for i, ln in enumerate(data):
            # to_text's own layout: digits at the even offsets, single spaces
            # between them; read column 0 last by stepping back from the end
            if (len(ln) == width and ln[1::2] == gap
                    and ln.count("0") + ln.count("1") == cols):
                packed.append(int(ln[::-2], 2))
                continue
            tokens = ln.split()
            bits = "".join(tokens)
            if len(tokens) != cols or len(bits) != cols or bits.strip("01"):
                raise ValueError(f"row {i} is not {cols} tokens each 0 or 1: {ln[:60]!r}")
            packed.append(int(bits[::-1], 2))
        return cls(rows, cols, tuple(packed))


def _eliminate(row_bits: Sequence[int]) -> tuple[list[int], list[int]]:
    """Gauss-Jordan over GF(2) to the reduced row echelon form, the pivot
    of a row being its lowest set bit.  Returns (reduced rows, pivot column
    list): the nonzero rows in ascending pivot order, then one zero row per
    dependent input row; each pivot column is clear in every other row.

    Each row is XOR-ed with the pivot row of its lowest set bit, looked up
    in a dict, until it is zero or its lowest bit is a new pivot.  Then, in
    descending pivot order, each pivot row is cleared at the pivots above
    its own, whose rows are final by then.  The form is unique, so the
    result does not depend on the order of the rows.
    """
    by_pivot: dict[int, int] = {}
    for r in row_bits:
        while r:
            p = (r & -r).bit_length() - 1
            pivot_row = by_pivot.get(p)
            if pivot_row is None:
                by_pivot[p] = r
                break
            r ^= pivot_row
    pivots = sorted(by_pivot)
    above = 0   # the pivots above p, whose rows are reduced
    for p in reversed(pivots):
        r = by_pivot[p]
        hits = r & above
        while hits:
            low = hits & -hits
            r ^= by_pivot[low.bit_length() - 1]
            hits ^= low
        by_pivot[p] = r
        above |= 1 << p
    return [by_pivot[p] for p in pivots] + [0] * (len(row_bits) - len(pivots)), pivots


def rank(m: BinaryMatrix) -> int:
    """Dimension of the row space over GF(2)."""
    return m.row_space.rank


def multiply(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}: {a.cols} != {b.rows}"
        )
    out = []
    for r in a.row_bits:
        acc = 0
        rr = r
        while rr:
            j = (rr & -rr).bit_length() - 1
            acc ^= b.row_bits[j]
            rr &= rr - 1
        out.append(acc)
    return BinaryMatrix(a.rows, b.cols, tuple(out))


class RowSpace:
    """Reduced row basis supporting fast membership tests.  A matrix's own
    is BinaryMatrix.row_space, built once per matrix."""

    def __init__(self, m: BinaryMatrix):
        reduced, pivots = _eliminate(m.row_bits)
        self.pivots = pivots
        self._rows_by_pivot = {p: reduced[i] for i, p in enumerate(pivots)}
        self._pivot_mask = sum(1 << p for p in pivots)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: int) -> int:
        """Reduce a bitmask vector against the basis; 0 iff v is in the span.

        The basis is in reduced row echelon form, so each row carries exactly
        one pivot and XOR-ing it changes no other pivot bit of v: the rows to
        XOR are those at the pivots set in v, O(min(weight, rank)) of them.
        """
        hits = v & self._pivot_mask
        while hits:
            low = hits & -hits
            v ^= self._rows_by_pivot[low.bit_length() - 1]
            hits ^= low
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0
