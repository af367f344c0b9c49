import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import gf2_oracle
from paleylift import gf2, graphs
from paleylift.gf2 import (
    BinaryMatrix,
    RowSpace,
    multiply,
    rank,
    _eliminate,
)


def naive_rank(rows):
    """Independent elimination oracle on plain lists."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    cols = len(work[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [(a + b) % 2 for a, b in zip(work[i], work[r])]
        r += 1
    return r


def test_rank_identity():
    assert rank(gf2_oracle.identity(2)) == 2


def test_rank_all_zeros():
    assert rank(gf2_oracle.zeros(3, 5)) == 0


def test_rank_paley9_incidence(paley9):
    # connected graph on 9 vertices: incidence rank is 8
    m = graphs.incidence_matrix(paley9.graph)
    assert (m.rows, m.cols) == (9, 18)
    assert rank(m) == 8
    assert naive_rank(gf2_oracle.to_lists(m)) == 8


# The kernel tests count the kernel over every vector and check its size
# against rank by rank-nullity: |ker M| = 2^(cols - rank M).

def test_kernel_identity_empty():
    m = gf2_oracle.identity(4)
    assert len(gf2_oracle.kernel(m)) == 1 == 2 ** (4 - rank(m))


def test_kernel_single_parity():
    m = gf2_oracle.from_rows([[1, 1]])
    assert gf2_oracle.kernel(m) == [0b00, 0b11]
    assert rank(m) == 1


def test_kernel_paley9_cycles(paley9):
    m = graphs.incidence_matrix(paley9.graph)
    # the cycle space: |E| - |V| + 1 dimensions for a connected graph
    assert len(gf2_oracle.kernel(m)) == 2 ** (18 - 8) == 2 ** (m.cols - rank(m))


def test_multiply_identity():
    m = gf2_oracle.from_rows([[1, 0, 1], [0, 1, 1]])
    assert multiply(gf2_oracle.identity(2), m) == m


def test_multiply_mod2_cancellation():
    a = gf2_oracle.from_rows([[1, 1]])
    b = gf2_oracle.from_rows([[1], [1]])
    assert gf2_oracle.to_lists(multiply(a, b)) == [[0]]


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError, match="3x2 by 3x2"):
        multiply(gf2_oracle.zeros(3, 2), gf2_oracle.zeros(3, 2))


def test_multiply_matches_naive_reference():
    # deterministic pseudo-random 20x20 instances from a fixed LCG
    state = 0x2545F4914F6CDD1D

    def next_bit():
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (state >> 33) & 1

    for _ in range(3):
        a_rows = [[next_bit() for _ in range(20)] for _ in range(20)]
        b_rows = [[next_bit() for _ in range(20)] for _ in range(20)]
        a = gf2_oracle.from_rows(a_rows)
        b = gf2_oracle.from_rows(b_rows)
        expected = [
            [sum(a_rows[i][k] * b_rows[k][j] for k in range(20)) % 2 for j in range(20)]
            for i in range(20)
        ]
        assert gf2_oracle.to_lists(multiply(a, b)) == expected


def test_rank_transpose_and_kernel_dimension_exhaustive_3x3():
    # every 3x3 binary matrix: rank(M) = rank(M^T) and
    # rank(M) + dim ker(M) = cols, the kernel counted over all 8 vectors
    for bits in range(512):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        m = gf2_oracle.from_rows(rows)
        r = rank(m)
        assert r == rank(m.transpose())
        assert len(gf2_oracle.kernel(m)) == 2 ** (3 - r)


def test_text_round_trip():
    m = gf2_oracle.from_rows([[1, 0, 1], [0, 1, 1]])
    assert BinaryMatrix.from_text(m.to_text()) == m
    assert m.to_text().splitlines()[0] == "2 3"


def test_text_rejects_bad_header():
    with pytest.raises(ValueError):
        BinaryMatrix.from_text("2\n1 0\n0 1\n")


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 80))
    return gf2_oracle.matrix(
        draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)),
        cols)


@settings(max_examples=300, deadline=None)
@given(m=matrices())
@example(m=gf2_oracle.zeros(3, 0))
@example(m=gf2_oracle.zeros(0, 5))
@example(m=gf2_oracle.identity(40))   # density 1/40: the set-bit walk
@example(m=gf2_oracle.matrix([(1 << 80) - 1] * 8, 80))   # the zip of strings
def test_text_and_transpose_match_per_bit_oracles(m):
    text = m.to_text()
    assert text == gf2_oracle.to_text(m)
    assert BinaryMatrix.from_text(text) == m
    assert m.transpose() == gf2_oracle.transpose(m)
    assert m.transpose().transpose() == m


@settings(max_examples=300, deadline=None)
@given(m=matrices())
@example(m=gf2_oracle.zeros(3, 0))
@example(m=gf2_oracle.zeros(0, 5))
def test_alist_matches_per_entry_oracle(m):
    assert m.to_alist() == gf2_oracle.to_alist(m)


@pytest.mark.parametrize("row", [
    "01 0 1", "00 0 1", "+1 0 1", "2 0 1", "-1 0 1", "1_0 0 1",
    "10 1",         # three characters, but two tokens
    "1 0",          # short
    "1 0 1 1",      # long
    "+1 0_3", "01 3", "1 -3", "1_0 3",   # also rejected as headers, below
])
def test_text_rejects_non_bit_rows(row):
    with pytest.raises(ValueError, match="row 0 is not 3 tokens each 0 or 1"):
        BinaryMatrix.from_text(f"2 3\n{row}\n0 1 1\n")


@pytest.mark.parametrize("text, match", [
    ("1 100000000\n0\n", "row 0 is not 100000000 tokens"),
    ("2 100000000\n0 1\n1 0\n", "row 0 is not 100000000 tokens"),
    ("0 1048577\n", "a 0x1048577 matrix has no entries"),
    ("0 100000000\n", "a 0x100000000 matrix has no entries"),
    ("1048577 0\n", "a 1048577x0 matrix has no entries"),
])
def test_text_header_sizes_nothing_the_text_does_not_show(text, match):
    # each header would size a string, a mask or a tuple of 128 kB to 100 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            BinaryMatrix.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_text_takes_empty_matrices_up_to_the_bound():
    assert gf2.MAX_EMPTY_SIDE == 1 << 20
    assert BinaryMatrix.from_text("0 1048576\n") == gf2_oracle.zeros(0, 1 << 20)
    assert BinaryMatrix.from_text("1048576 0\n") == gf2_oracle.zeros(1 << 20, 0)


@pytest.mark.parametrize("header", ["+1 0_3", "01 3", "1 -3", "1_0 3", "1 +3", "1 03"])
def test_text_rejects_non_decimal_header(header):
    # int() would read each of these as 1 x 3, which the row below fits
    with pytest.raises(ValueError, match="bad header line"):
        BinaryMatrix.from_text(f"{header}\n1 0 1\n")


GAPS = ["  ", "\t", "\u2003", "\x0c", "_", ""]      # in place of one " "
ENTRIES = ["01", "+1", "2", "1_0_1", "0 1", ""]      # in place of one digit
BLANKS = ["", " ", "\t", "\u2003"]


@st.composite
def perturbed_texts(draw):
    """to_text of a small matrix with a few rows, blank lines and line ends
    changed: some still parse, by the token rule, and some do not."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    m = gf2_oracle.matrix(
        draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)),
        cols)
    lines = m.to_text().splitlines()
    for i in draw(st.lists(st.integers(1, max(rows, 1)), max_size=3)):
        if i >= len(lines):
            continue
        ln = lines[i]
        gaps = [p for p, ch in enumerate(ln) if ch == " "]
        digits = [p for p, ch in enumerate(ln) if ch in "01"]
        kind = draw(st.sampled_from(["gap", "edge", "entry", "underscores", "width"]))
        if kind == "gap" and gaps:
            p = draw(st.sampled_from(gaps))
            ln = ln[:p] + draw(st.sampled_from(GAPS)) + ln[p + 1:]
        elif kind == "edge":
            blank = draw(st.sampled_from(BLANKS[1:]))
            ln = blank + ln if draw(st.booleans()) else ln + blank
        elif kind == "entry" and digits:
            p = draw(st.sampled_from(digits))
            ln = ln[:p] + draw(st.sampled_from(ENTRIES)) + ln[p + 1:]
        elif kind == "underscores":
            ln = ln.replace(" ", "_")
        elif kind == "width":
            ln = ln[:-2] if draw(st.booleans()) else ln + " 1"
        lines[i] = ln
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANKS)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(text=perturbed_texts())
@example(text="2 3\n1_0_1\n0 1 1\n")
@example(text="1 1\n1\n")
@example(text="2 0\n\n\n")
@example(text="1 0\n1\n")
def test_from_text_matches_token_oracle(text):
    assert _parsed(BinaryMatrix.from_text, text) == _parsed(gf2_oracle.from_text, text)


def test_row_space_membership():
    m = gf2_oracle.from_rows([[1, 1, 0], [0, 1, 1]])
    space = RowSpace(m)
    assert space.contains(0b011)  # row 0
    assert space.contains(0b101)  # row 0 + row 1
    assert not space.contains(0b001)


def test_row_space_sparse_reduce_matches_dense_reduction():
    # reference: XOR the basis row of every pivot, in pivot order, where v has it set
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 12), rng.randint(1, 40)
        m = gf2_oracle.matrix(
            (rng.getrandbits(cols) & rng.getrandbits(cols) for _ in range(rows)), cols)
        space = RowSpace(m)
        reduced, pivots = _eliminate(m.row_bits)
        for _ in range(20):
            v = rng.getrandbits(cols)
            dense = v
            for i, p in enumerate(pivots):
                if (dense >> p) & 1:
                    dense ^= reduced[i]
            assert space.reduce(v) == dense
            assert space.contains(v) == (dense == 0)
            assert space.contains(v) == (rank(gf2_oracle.matrix(
                m.row_bits + (v,), cols)) == space.rank)


@st.composite
def eliminable(draw):
    """Up to 40 rows of up to 300 columns, at one density from a few set bits
    per row to all of them, with some rows zeroed or copied."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 300))
    word = st.integers(0, (1 << cols) - 1)
    density = draw(st.sampled_from(["sparse", "quarter", "half", "three quarters",
                                    "full"]))
    out = []
    for _ in range(rows):
        if density == "sparse":
            r = sum({1 << j for j in draw(st.lists(st.integers(0, max(cols - 1, 0)),
                                                   max_size=3))}) if cols else 0
        elif density == "quarter":
            r = draw(word) & draw(word)
        elif density == "half":
            r = draw(word)
        elif density == "three quarters":
            r = draw(word) | draw(word)
        else:
            r = (1 << cols) - 1
        out.append(r)
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=4)):
        if rows:
            out[i] = draw(st.sampled_from([0, out[draw(st.integers(0, rows - 1))]]))
    return gf2_oracle.matrix(out, cols)


def _wide_sparse():
    rng = random.Random(11)
    rows = [sum(1 << rng.randrange(2400) for _ in range(3)) for _ in range(36)]
    return gf2_oracle.matrix(rows + [rows[0], 0, rows[5] ^ rows[9]], 2400)


@settings(max_examples=300, deadline=None)
@given(m=eliminable(), data=st.data())
@example(m=gf2_oracle.zeros(0, 0), data=None)
@example(m=gf2_oracle.zeros(6, 0), data=None)
@example(m=gf2_oracle.identity(40), data=None)
@example(m=gf2_oracle.zeros(40, 300), data=None)
@example(m=_wide_sparse(), data=None)
def test_eliminate_matches_column_scan_oracle(m, data):
    assert _eliminate(m.row_bits) == gf2_oracle.eliminate(m.row_bits, m.cols)
    vectors = ([data.draw(st.integers(0, (1 << m.cols) - 1)) for _ in range(4)]
               if data else []) + list(m.row_bits[:2]) + [(1 << m.cols) - 1]
    fresh = BinaryMatrix(m.rows, m.cols, m.row_bits)   # no row space kept yet
    with mock.patch.object(gf2, "_eliminate",
                           lambda rows: gf2_oracle.eliminate(rows, m.cols)):
        want = (rank(fresh), [fresh.row_space.reduce(v) for v in vectors])
    got = (rank(m), [RowSpace(m).reduce(v) for v in vectors])
    assert got == want
