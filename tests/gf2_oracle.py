"""Test-only per-bit `BinaryMatrix` text writer and transpose: each entry is
read one at a time with shifts and masks, so they are slow but independent
of the word-level string and set-bit kernels in `gf2`."""
from paleylift.gf2 import BinaryMatrix


def to_text(m: BinaryMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(b) for b in m.row(i)))
    return "\n".join(lines) + "\n"


def transpose(m: BinaryMatrix) -> BinaryMatrix:
    return BinaryMatrix(m.cols, m.rows, tuple(m.column_mask(j) for j in range(m.cols)))
