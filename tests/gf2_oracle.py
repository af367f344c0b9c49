"""Test-only per-bit `BinaryMatrix` text writer, transpose and alist writer:
each entry is read one at a time from `row_bits` with shifts and masks, so
they are slow but independent of the word-level string and set-bit kernels
in `gf2` and `cli`.  The text reader splits every row into tokens, the path
`BinaryMatrix.from_text` keeps for rows outside `to_text`'s exact layout.
`eliminate` is the column-scanning Gauss-Jordan that `gf2` used before its
pivot-lookup kernel, and `kernel` tries every vector.
The small constructors and readers at the top are the tests' conveniences."""
import re
from typing import Sequence

from paleylift.gf2 import BinaryMatrix

_DECIMAL = re.compile("0|[1-9][0-9]*")


def matrix(masks, cols: int) -> BinaryMatrix:
    """The matrix whose row i is masks[i]."""
    masks = tuple(masks)
    return BinaryMatrix(len(masks), cols, masks)


def from_rows(rows) -> BinaryMatrix:
    """The matrix of a non-empty list of equally long 0/1 lists."""
    width = len(rows[0])
    if any(len(row) != width or set(row) - {0, 1} for row in rows):
        raise ValueError("rows must be equally long lists of 0 and 1")
    return matrix((sum(v << j for j, v in enumerate(row)) for row in rows), width)


def zeros(rows: int, cols: int) -> BinaryMatrix:
    return BinaryMatrix(rows, cols, (0,) * rows)


def identity(n: int) -> BinaryMatrix:
    return matrix((1 << i for i in range(n)), n)


def entry(m: BinaryMatrix, i: int, j: int) -> int:
    return m.row_bits[i] >> j & 1


def to_lists(m: BinaryMatrix) -> list[list[int]]:
    return [[entry(m, i, j) for j in range(m.cols)] for i in range(m.rows)]


def columns(m: BinaryMatrix) -> tuple[int, ...]:
    """Each column as a mask of rows (bit i = row i), read entry by entry."""
    return tuple(sum(entry(m, i, j) << i for i in range(m.rows)) for j in range(m.cols))


def to_text(m: BinaryMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for row in to_lists(m):
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> BinaryMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2 or not all(_DECIMAL.fullmatch(tok) for tok in header):
        raise ValueError(f"bad header line {lines[0]!r}, expected 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    data = lines[1:]
    if cols == 0 and not data:
        # rows of zero columns are written as empty lines, skipped above
        return matrix((0,) * rows, 0)
    if len(data) != rows:
        raise ValueError(f"expected {rows} data lines, found {len(data)}")
    packed = []
    for i, ln in enumerate(data):
        tokens = ln.split()
        bits = "".join(tokens)
        if len(tokens) != cols or len(bits) != cols or bits.strip("01"):
            raise ValueError(f"row {i} is not {cols} tokens each 0 or 1: {ln[:60]!r}")
        packed.append(int(bits[::-1], 2))
    return BinaryMatrix(rows, cols, tuple(packed))


def transpose(m: BinaryMatrix) -> BinaryMatrix:
    return matrix(columns(m), m.rows)


def kernel(m: BinaryMatrix) -> list[int]:
    """Every vector v with M v^T = 0, ascending, found among all 2^cols of
    them in Gray-code order: step i flips the lowest set bit of i in v, and
    so adds one column to the syndrome."""
    column_masks = columns(m)
    found, syndrome = [0], 0
    for i in range(1, 1 << m.cols):
        syndrome ^= column_masks[(i & -i).bit_length() - 1]
        if not syndrome:
            found.append(i ^ i >> 1)   # v after step i
    return sorted(found)


def to_alist(m: BinaryMatrix) -> str:
    """MacKay alist (unpadded): columns first, 1-based indices."""
    cols = [[i + 1 for i in range(m.rows) if entry(m, i, j)] for j in range(m.cols)]
    rows = [[j + 1 for j in range(m.cols) if entry(m, i, j)] for i in range(m.rows)]
    lines = [
        f"{m.cols} {m.rows}",
        f"{max((len(c) for c in cols), default=0)} {max((len(r) for r in rows), default=0)}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rows),
    ]
    lines += [" ".join(map(str, c)) for c in cols]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def eliminate(row_bits: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan over GF(2).

    Pivot rule: leftmost available column, topmost available row.  Returns
    (reduced rows, pivot column list); reduced rows above and below each
    pivot are cleared.
    """
    work = list(row_bits)
    nrows = len(work)
    pivots: list[int] = []
    pivot_row = 0
    for col in range(cols):
        bit = 1 << col
        sel = -1
        for r in range(pivot_row, nrows):
            if work[r] & bit:
                sel = r
                break
        if sel < 0:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        for r in range(nrows):
            if r != pivot_row and work[r] & bit:
                work[r] ^= work[pivot_row]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == nrows:
            break
    return work, pivots
