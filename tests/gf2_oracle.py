"""Test-only per-bit `BinaryMatrix` text writer, transpose and alist writer:
each entry is read one at a time with shifts and masks, so they are slow but
independent of the word-level string and set-bit kernels in `gf2` and
`cli`."""
from paleylift.gf2 import BinaryMatrix


def to_text(m: BinaryMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(b) for b in m.row(i)))
    return "\n".join(lines) + "\n"


def transpose(m: BinaryMatrix) -> BinaryMatrix:
    return BinaryMatrix(m.cols, m.rows, tuple(m.column_mask(j) for j in range(m.cols)))


def to_alist(m: BinaryMatrix) -> str:
    """MacKay alist (unpadded): columns first, 1-based indices."""
    cols = [[i + 1 for i in range(m.rows) if m.entry(i, j)] for j in range(m.cols)]
    rows = [[j + 1 for j in range(m.cols) if m.entry(i, j)] for i in range(m.rows)]
    lines = [
        f"{m.cols} {m.rows}",
        f"{max((len(c) for c in cols), default=0)} {max((len(r) for r in rows), default=0)}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rows),
    ]
    lines += [" ".join(map(str, c)) for c in cols]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"
