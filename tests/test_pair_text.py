"""Pairwise text against repr, byte for byte.

``reference_pair_lines`` below is the per-pair formatter that the numpy
lines of ``rstats.write_pairwise_text`` replaced, with its own pair
selection: every line of the writer, and every pair that
``pairwise_row_correlations`` hands its sink, must equal its bytes,
whatever the names, the values and the rows per run (``_CELL_BYTES``).
Both take their pairs from one walk, so this oracle is the sink's too.
The kernel test checks the number text alone against ``repr`` on a
million and more doubles.
"""

import io
import math
from itertools import compress

import numpy as np
import pytest

from rankmerge import rstats
from rankmerge.matrix import DataMatrix
from rankmerge.rstats import pairwise_row_correlations, pearson, write_pairwise_text

NA = math.nan


# ---------------------------------------------------------------------------
# reference: one repr call per pair
# ---------------------------------------------------------------------------

def reference_pair_lines(names, r, keep):
    pairs, lines = 0, []
    for k, a in enumerate(names[:len(r)]):
        ok = keep[k, k + 1:]
        partners, rs = compress(names[k + 1:], ok.tolist()), r[k, k + 1:][ok].tolist()
        lines.append("".join([f"{a}\t{b}\t{v!r}\n" for b, v in zip(partners, rs)]))
        pairs += len(rs)
    return pairs, "".join(lines)


def reference_text(m, method="pearson"):
    """The old writer: the reference lines of each block, in order."""
    return "".join(reference_pair_lines(m.row_names[s:], r, keep)[1]
                   for s, r, keep in rstats._correlation_blocks(m, method))


def number_text(values):
    return rstats._repr_cells(np.asarray(values, dtype=float)).tobytes() \
        .translate(None, rstats._PAD).decode()


def repr_text(values):
    return "".join(repr(v) + "\n" for v in np.asarray(values, dtype=float).tolist())


def assert_repr_bytes(values):
    """number_text(values) == repr_text(values), naming the first values
    that differ rather than diffing the whole text."""
    got, want = number_text(values), repr_text(values)
    if got != want:
        lines = zip(np.asarray(values, dtype=float).tolist(), got.split("\n"),
                    want.split("\n"))
        assert [(v, g, w) for v, g, w in lines if g != w][:5] == []
        assert got == want


# ---------------------------------------------------------------------------
# the number kernel
# ---------------------------------------------------------------------------

def _fast_domain(rng, n):
    """n doubles with 1e-4 <= |v| < 1, uniform over their bit patterns."""
    lo, hi = (int(np.float64(x).view(np.uint64)) for x in (1e-4, 1.0))
    v = rng.integers(lo, hi, n, dtype=np.uint64).view(np.float64)
    return np.where(rng.random(n) < 0.5, -v, v)


def _around(x, ulps=200):
    bits = int(np.float64(x).view(np.uint64))
    return np.arange(bits - ulps, bits + ulps + 1, dtype=np.uint64).view(np.float64)


SHORT = [0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.75, 0.123, 0.001, 0.01, 0.0001,
         0.00015, 0.1 + 0.2, 1 / 3, 2 / 3, 0.999, 1 - 2 ** -53, 0.12345678901234,
         0.123456789012345, 0.1234567890123456]
SPECIAL = [0.0, -0.0, 1.0, -1.0, NA, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, 9.9999e-5, 1e-5,
           -3e-5, 1.5, 12.25, 1e16, 1e17, 123456789.0]


class TestReprCells:
    def test_a_million_doubles_of_the_fast_domain(self, monkeypatch):
        # ``repr`` is counted where the kernel falls back to it, so the
        # numpy digits, not repr, must carry nearly all of them
        rng = np.random.default_rng(20160)
        values = _fast_domain(rng, 1_000_000)
        calls = []
        monkeypatch.setattr(rstats, "repr", lambda x: calls.append(x) or repr(x),
                            raising=False)
        for i in range(0, len(values), 2 ** 16):
            assert_repr_bytes(values[i:i + 2 ** 16])
        assert len(calls) < 0.02 * len(values)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_around_each_power_of_ten(self, j):
        # the digit count and the leading zeros change at 10^-j
        values = np.concatenate([_around(10.0 ** -j), -_around(10.0 ** -j)])
        assert_repr_bytes(values)

    def test_just_below_one(self):
        values = _around(1.0)
        assert_repr_bytes(values)

    def test_short_decimals_and_their_neighbours(self):
        values = np.concatenate([_around(x, 3) for x in SHORT])
        values = np.concatenate([values, -values])
        assert_repr_bytes(values)

    def test_powers_of_two_and_their_neighbours(self):
        values = np.concatenate([_around(2.0 ** e, 2) for e in range(-70, 3)])
        values = np.concatenate([values, -values])
        assert_repr_bytes(values)

    def test_dyadic_values_with_few_bits(self):
        # t / 2^b for odd t: their exact decimals are short enough to end
        # halfway between two candidates, where repr rounds to even
        rng = np.random.default_rng(11)
        values = []
        for b in range(1, 27):
            low, high = math.ceil(1e-4 * 2 ** (b - 1)), 2 ** (b - 1)
            t = (np.arange(low, high) if high - low < 2 ** 16
                 else rng.integers(low, high, 2 ** 15))
            values.append(np.ldexp(2.0 * t + 1, -b))
        values = np.concatenate(values)
        values = values[values < 1]
        assert_repr_bytes(values)

    def test_any_bit_pattern(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64),
            SPECIAL])
        assert_repr_bytes(values)

    def test_empty(self):
        assert number_text([]) == ""


# ---------------------------------------------------------------------------
# whole lines, through write_pairwise_text
# ---------------------------------------------------------------------------

def dm(names, rows):
    rows = np.array(rows, dtype=float)
    return DataMatrix(tuple(names), tuple(f"c{j}" for j in range(rows.shape[1])), rows)


# row pairs whose correlation is exactly the value named, found by a
# search over small integers: without and with missing values
EXACT_DENSE = {
    "1.0": ([2, 3, -1, -2, 0], [2, 3, -1, -2, 0]),
    "-1.0": ([2, 2, -1, 0, -1], [-3, -3, 3, 1, 3]),
    "0.0": ([2, 1, 0, -2, -1], [1, 3, 0, 1, 3]),
    "0.5": ([1, 1, 3, 1, -1], [3, 1, 3, -2, 0]),
    "-0.5": ([3, 1, 3, -2, 0], [1, 1, -1, 1, 3]),
    "0.25": ([3, 3, 1, 3, 3], [-2, -2, -2, 3, -2]),
    "-0.25": ([1, 3, 0, 1, 3], [-2, -2, -2, 3, -2]),
    "4.4115789590239215e-17": ([2, 1, 0, -2, -1], [3, 0, -3, 2, 2]),
}
EXACT_MASKED = {
    "1.0": ([2, 0, 0, 3, NA], [3, 2, 2, NA, 1]),
    "-1.0": ([2, 0, 0, 3, NA], [NA, 1, 1, 0, 2]),
    "0.0": ([3, 0, 1, 1, 3], [2, 2, NA, -3, -1]),
    "0.5": ([2, 0, 0, 3, NA], [NA, 1, -2, 1, -3]),
    "-0.5": ([2, 0, 0, 3, NA], [NA, 0, -3, -3, 1]),
    "-4.965068306494546e-17": ([3, 0, 1, 1, 3], [1, NA, 0, -1, -2]),
}


def _exact_case(pairs):
    def case():
        names = [f"{value} {side}" for value in pairs for side in "uv"]
        return dm(names, [row for value in pairs for row in pairs[value]]), "pearson"
    return case


def _names_case():
    rng = np.random.default_rng(16)
    names = ["Gène-α", "基因", "😀", "a\x00b", "nul\x00", "\x00", "x", "y" * 40,
             "name with spaces", "ǅ"]
    return dm(names, rng.normal(size=(len(names), 6))), "pearson"


def _spearman_case():
    rng = np.random.default_rng(17)
    vals = np.round(rng.normal(size=(40, 9)), 0)
    vals[rng.random(vals.shape) < 0.15] = NA
    return dm([f"r{i}" for i in range(40)], vals), "spearman"


def _masked_case():
    # the masked engine centres each row over all its present cells, so
    # the cell outside the pair dominates
    return dm(["a", "b"], [[1e8, 1, 2, 4], [NA, 1, 2, 3]]), "pearson"


CASES = {"names": _names_case, "spearman_missing": _spearman_case,
         "masked_cancellation": _masked_case,
         "exact_dense": _exact_case(EXACT_DENSE),
         "exact_masked": _exact_case(EXACT_MASKED)}


# bytes per run of rows: every run one row; runs of a few rows in each
# case below; each block one run
RUN_BYTES = [1, 4000, rstats._CELL_BYTES]


class Counted(io.StringIO):
    """A text buffer that counts its writes, one per run of rows."""
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def written(m, monkeypatch, cell_bytes, method="pearson"):
    """(result, text, writes) of ``write_pairwise_text`` at ``cell_bytes``."""
    monkeypatch.setattr(rstats, "_CELL_BYTES", cell_bytes)
    buf = Counted()
    res = write_pairwise_text(m, buf, method)
    return res, buf.getvalue(), buf.writes


def sink_text(m, method="pearson"):
    """(result, text) of ``pairwise_row_correlations``, a line per sink call."""
    lines = []
    res = pairwise_row_correlations(
        m, lambda a, b, r: lines.append(f"{a}\t{b}\t{r!r}\n"), method)
    return res, "".join(lines)


def one_block(monkeypatch, r, keep):
    """Substitute (0, r, keep) for the engine's blocks."""
    monkeypatch.setattr(rstats, "_correlation_blocks",
                        lambda m, method: iter([(0, r, keep)]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_text_equals_reference(case, monkeypatch):
    m, method = CASES[case]()
    want = reference_text(m, method)
    writes = []
    for cell_bytes in RUN_BYTES:
        res, text, n = written(m, monkeypatch, cell_bytes, method)
        assert text == want
        assert res.emitted == want.count("\n")
        assert sink_text(m, method) == (res, want)
        writes.append(n)
    # a run of one row each, even of two rows; then runs of several
    assert writes[0] == m.n_rows > writes[1] >= writes[2]


@pytest.mark.parametrize("pairs", [EXACT_DENSE, EXACT_MASKED], ids=["dense", "masked"])
def test_exact_values_occur(pairs):
    m, method = _exact_case(pairs)()
    text = reference_text(m, method)
    for value in pairs:
        assert f"{value} u\t{value} v\t{value}\n" in text


def test_masked_outliers_print_pearsons_bytes():
    # an outlier outside the pair dominates each row's one-pass sums, so
    # the engine hands the pair to pearson, whose bytes it prints
    for outlier in (1e7, 1e8, 1e9):
        rows = [[outlier, 1, 2, 4], [NA, 1, 2, 3]]
        buf = io.StringIO()
        write_pairwise_text(dm(["a", "b"], rows), buf)
        assert pearson(*rows) == 0.9819805060619657
        assert buf.getvalue() == "a\tb\t0.9819805060619657\n"


def test_names_keep_every_byte():
    m, method = _names_case()
    buf = io.StringIO()
    write_pairwise_text(m, buf, method)
    lines = buf.getvalue().split("\n")[:-1]
    assert lines[0].startswith("Gène-α\t基因\t")
    assert any(line.startswith("a\x00b\tnul\x00\t") for line in lines)
    assert any(line.startswith("\x00\tx\t") for line in lines)


# values the engine cannot be led to give (-0.0 above all), in one block
# shaped as the engine yields it: rows 0:n against rows 0:n
BLOCK_VALUES = [1.0, -1.0, 0.0, -0.0, 0.5, -0.25, 2 ** -10, 1e-4, 9.99e-5,
                -3e-5, 1e-300, 0.1, -0.3, 1 / 3, -2 / 3, 1 - 2 ** -53, 0.0001,
                1.5, NA]


def test_chosen_values_through_the_writer(monkeypatch):
    n = 8
    upper = np.triu_indices(n, 1)
    r = np.full((n, n), 0.75)
    r[upper] = np.resize(BLOCK_VALUES, len(upper[0]))
    keep = np.ones((n, n), bool)
    keep[upper[0][-3:], upper[1][-3:]] = False
    names = ["α", "b\x00", "\x00", "dd", "e" * 30, "f", "基", "h"]
    m = dm(names, np.random.default_rng(5).normal(size=(n, 3)))
    one_block(monkeypatch, r, keep)
    want = reference_pair_lines(names, r, keep)
    for cell_bytes in RUN_BYTES:
        res, text, _ = written(m, monkeypatch, cell_bytes)
        assert (res.emitted, text) == want
        res, text = sink_text(m)
        assert (res.emitted, text) == want
    assert all(f"\t{v!r}\n" in want[1] for v in BLOCK_VALUES)


@pytest.mark.parametrize("cell_bytes", [1, 2000, rstats._CELL_BYTES])
def test_pair_lines_in_pieces(cell_bytes, monkeypatch):
    # the runs of a block join at any size: of one row, of two, or all five
    rng = np.random.default_rng(9)
    r = rng.normal(scale=0.2, size=(5, 12))
    keep = rng.random((5, 12)) < 0.7
    names = [f"n{'é' * i}" for i in range(12)]
    one_block(monkeypatch, r, keep)
    res, text, _ = written(dm(names, rng.normal(size=(12, 3))), monkeypatch,
                           cell_bytes)
    assert (res.emitted, text) == reference_pair_lines(names, r, keep)


def test_pair_lines_without_kept_pairs(monkeypatch):
    one_block(monkeypatch, np.ones((2, 4)), np.zeros((2, 4), bool))
    res, text, _ = written(dm("abcd", np.ones((4, 3))), monkeypatch,
                           rstats._CELL_BYTES)
    assert (res.emitted, res.skipped, text) == (0, 6, "")
