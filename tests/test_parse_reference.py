"""The series-matrix and annotation readers against their per-line form.

The reference readers below are the line-at-a-time code that the bulk
readers replaced, kept verbatim: every document, mapping and error of
``ingest.parse_series_matrix`` and ``ingest.parse_annotation`` must
equal theirs, with values compared bit for bit and errors by type,
message and line.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankmerge import ingest
from rankmerge.errors import ParseError
from rankmerge.ingest import (
    MULTI_SYMBOL_SEPARATOR,
    TABLE_BEGIN,
    TABLE_END,
    SeriesMatrixDocument,
    open_text,
    parse_annotation,
    parse_series_matrix,
)

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# reference: the per-line readers
# ---------------------------------------------------------------------------

def _unquote(cell: str) -> str:
    if len(cell) >= 2 and cell.startswith('"') and cell.endswith('"'):
        return cell[1:-1]
    return cell


def _is_missing(cell: str) -> bool:
    return cell == "" or cell.lower() == "null"


def _lines(source):
    if isinstance(source, (str, Path)):
        with open_text(source) as fh:
            yield from fh
        return
    yield from source


def ref_parse_series_matrix(source) -> SeriesMatrixDocument:
    metadata: list[tuple[str, tuple[str, ...]]] = []
    probe_ids: list[str] = []
    seen_probes: set[str] = set()
    rows: list[list[float]] = []
    samples: tuple[str, ...] | None = None

    in_table = False
    saw_begin = False
    saw_end = False
    lineno = 0

    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.rstrip("\r\n")
        if not in_table:
            if not line.strip():
                continue
            if line == TABLE_BEGIN:
                if saw_begin:
                    raise ParseError("second table begin sentinel", lineno)
                saw_begin = True
                in_table = True
                continue
            if line.startswith("!"):
                cells = line.split("\t")
                key = cells[0][1:]
                if not key:
                    raise ParseError("metadata line with empty key", lineno)
                metadata.append((key, tuple(_unquote(c) for c in cells[1:])))
                continue
            raise ParseError(f"unexpected line outside table: {line[:40]!r}", lineno)

        # inside the probe table
        if line == TABLE_END:
            in_table = False
            saw_end = True
            continue
        cells = line.split("\t")
        if samples is None:
            if _unquote(cells[0]) != "ID_REF":
                raise ParseError(
                    f"table header must start with ID_REF, got {cells[0]!r}", lineno)
            accessions = tuple(_unquote(c) for c in cells[1:])
            if not accessions:
                raise ParseError("table header has no sample accessions", lineno)
            seen: set[str] = set()
            for acc in accessions:
                if not acc:
                    raise ParseError("empty sample accession in header", lineno)
                if acc in seen:
                    raise ParseError(f"duplicate sample accession {acc!r}", lineno)
                seen.add(acc)
            samples = accessions
            continue
        if len(cells) != 1 + len(samples):
            raise ParseError(
                f"expected {1 + len(samples)} cells, got {len(cells)}", lineno)
        probe = _unquote(cells[0])
        if probe in seen_probes:
            raise ParseError(f"duplicate probe id {probe!r}", lineno)
        seen_probes.add(probe)
        probe_ids.append(probe)
        row: list[float] = []
        for c in cells[1:]:
            c = _unquote(c)
            if _is_missing(c):
                row.append(math.nan)
                continue
            try:
                row.append(float(c))
            except ValueError:
                raise ParseError(f"non-numeric value cell {c!r}", lineno) from None
        rows.append(row)

    if not saw_begin:
        raise ParseError("missing table begin sentinel", lineno or 1)
    if in_table or not saw_end:
        raise ParseError("missing table end sentinel", lineno or 1)
    if samples is None:
        raise ParseError("table has no header row", lineno or 1)
    if not probe_ids:
        raise ParseError("table has no probe rows", lineno or 1)

    values = np.array(rows, dtype=float).reshape(len(probe_ids), len(samples))
    return SeriesMatrixDocument(tuple(metadata), tuple(probe_ids), samples, values)


def ref_parse_annotation(source) -> dict[str, tuple[str, ...]]:
    mapping: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise ParseError(f"expected 2 columns, got {len(cells)}", lineno)
        probe, symbol_cell = cells[0].strip(), cells[1].strip()
        if lineno == 1 and probe == "ID" and symbol_cell == "Symbol":
            continue
        if not probe:
            raise ParseError("empty probe id", lineno)
        if probe in mapping:
            raise ParseError(f"duplicate probe id {probe!r}", lineno)
        symbols = tuple(s for s in
                        (t.strip() for t in symbol_cell.split(MULTI_SYMBOL_SEPARATOR))
                        if s)
        mapping[probe] = symbols
    if not mapping:
        raise ParseError("annotation file has no rows")
    return mapping


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def outcome(parse, source):
    """What ``parse`` makes of ``source`` (called first if it is a
    function, so that each reader gets a fresh iterator): a comparable
    value or error."""
    try:
        got = parse(source() if callable(source) else source)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    if isinstance(got, SeriesMatrixDocument):
        return ("doc", got.metadata, got.probe_ids, got.samples,
                got.values.shape, got.values.tobytes())
    return ("mapping", list(got.items()))


def assert_same(parse, ref, source):
    new, old = outcome(parse, source), outcome(ref, source)
    assert new == old
    return new


def assert_same_everywhere(parse, ref, text: str, path: Path):
    """Same outcome for the text as a file and as lines; returns it."""
    path.write_bytes(text.encode("utf-8"))
    got = assert_same(parse, ref, path)
    assert_same(parse, ref, text.splitlines(keepends=True))
    assert_same(parse, ref, lambda: iter(text.split("\n")))
    return got


def assert_only_parse_errors(result):
    if result[0] == "error":
        assert result[1] is ParseError, result


# ---------------------------------------------------------------------------
# generated series matrices and annotation files
# ---------------------------------------------------------------------------

# cells both readers take: numbers, missing-value and float() spellings
GOOD = ["", "null", "NULL", "Null", "nULl", '""', '"null"', '"1.5"', "1_0",
        "inf", "-inf", "+inf", "Infinity", "-INFINITY", "nan", "-nan", "+NaN",
        "-0", "-0.0", "0.0", "1e500", "-1e-400", "4.9e-324", " 2", "2 ",
        "\u0661", "\uff11", "1\xa0", "1.", ".5", "+3"]
# cells float() rejects, some of which numpy would read
ODD = ['"', "1__0", "_1", "NA", "na", " ", "\x1c1", "1\x1f", "\x1d", "1\x1e2",
       "1,5", "0x10", "#1", "1#", "--1", "1\r", "\r", "nulll", "\x85"]

good_cells = st.one_of(st.sampled_from(GOOD), st.floats().map(repr))
odd_cells = st.one_of(
    st.sampled_from(ODD),
    st.text('0123456789.eE+-_ "nulNULaifAIF\x1c\x1f\t\r', max_size=6))


@st.composite
def series_texts(draw):
    """A series matrix that is usually well formed and sometimes not."""
    n = draw(st.integers(1, 4))
    samples = [f"GSM{j}" for j in range(n)]
    lines = [f'!Series_title\t"{draw(st.text("ab x", max_size=3))}"',
             "\t".join(["!Sample_geo_accession"] + [f'"{s}"' for s in samples])]
    lines += draw(st.lists(st.sampled_from(
        ["", "  ", "!\tx", "junk", "!k\t\x1cv "]), max_size=1))
    lines.append(TABLE_BEGIN)
    header = ['"ID_REF"'] + [f'"{s}"' for s in samples]
    if draw(st.integers(0, 15)) == 0:
        header = draw(st.sampled_from(
            [header[:1], header + [header[1]], ["ID"] + header[1:],
             header[:1] + ['""'] + header[2:]]))
    lines.append("\t".join(header))
    probes = draw(st.lists(st.sampled_from(
        ["p1", "p2", '"p3"', "p3", '"p4"', "", '"', "p\x1c5"]), max_size=6))
    rows = [draw(st.lists(good_cells, min_size=n, max_size=n)) for _ in probes]
    # none, one or two cells that float() may reject
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, n - 1))] = draw(odd_cells)
    for probe, row in zip(probes, rows):
        if draw(st.integers(0, 15)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append("\t".join([probe] + row))
    if draw(st.integers(0, 10)):
        lines.append(TABLE_END)
    lines += draw(st.lists(st.sampled_from(["", "!after\t1", "tail", TABLE_BEGIN]),
                           max_size=1))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@st.composite
def annotation_texts(draw):
    head = draw(st.sampled_from([[], ["ID\tSymbol"], [" ID \t Symbol "]]))
    row = st.tuples(
        st.sampled_from(["p1", "p2", " p3 ", "", "ID", "p\x1c4", "p 5"]),
        st.sampled_from(["A", "", " B ", "A /// B", " /// ", "A ///  /// C",
                         "A///B", "X\x85Y", " ", "Symbol", "A\tB"]))
    rows = ["\t".join(r) for r in draw(st.lists(row, max_size=6))]
    rows += draw(st.lists(st.sampled_from(["", "   ", "solo", "\x1c"]), max_size=1))
    lines = head + draw(st.permutations(rows))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(series_texts())
def test_series_matrix_matches_per_line_reader(tmp_path, text):
    got = assert_same_everywhere(parse_series_matrix, ref_parse_series_matrix,
                                 text, tmp_path / "series.txt")
    assert_only_parse_errors(got)


@FUZZ
@given(annotation_texts())
def test_annotation_matches_per_line_reader(tmp_path, text):
    got = assert_same_everywhere(parse_annotation, ref_parse_annotation,
                                 text, tmp_path / "annotation.tsv")
    assert_only_parse_errors(got)


@FUZZ
@given(st.binary(max_size=200), st.sampled_from([b"", b"\n", b"\r\n"]))
def test_any_bytes_raise_only_parse_error(tmp_path, body, end):
    """Arbitrary bytes after a valid start: a document or a ParseError."""
    path = tmp_path / "blob.txt"
    prefix = f"{TABLE_BEGIN}\n\"ID_REF\"\t\"GSM1\"\np1\t1\n".encode()
    for data in (prefix + body + end, body + end):
        path.write_bytes(data)
        assert_only_parse_errors(
            assert_same(parse_series_matrix, ref_parse_series_matrix, path))
        assert_only_parse_errors(
            assert_same(parse_annotation, ref_parse_annotation, path))


# ---------------------------------------------------------------------------
# explicit cases
# ---------------------------------------------------------------------------

def table(*rows, end=True):
    lines = [TABLE_BEGIN, '"ID_REF"\t"GSM1"\t"GSM2"', *rows]
    return "\n".join(lines + ([TABLE_END] if end else [])) + "\n"


@pytest.mark.parametrize("text,line,fragment", [
    # a bad cell, then a second fault: the bad cell is reported
    (table("p1\t1\t2", "p2\tx\t3", "p3\t1\t2", "p1\t4\t5"), 4, "non-numeric"),
    (table("p1\t1\t2", "p2\t3\tx", "p3\t1"), 4, "non-numeric"),
    (table("p1\t1\t2", "p2\t3\t1_x", end=False), 4, "non-numeric"),
    (table("p1\t1\tx", TABLE_END, "stray"), 3, "non-numeric"),
    # the second fault first: it is reported
    (table("p1\t1\t2", "p1\t4\t5", "p2\tx\t3"), 4, "duplicate probe"),
    (table("p1\t1\t2", "p3\t1", "p2\t3\tx"), 4, "expected 3 cells"),
    (table("p1\t1\t2", "p2\t3\t4", end=False), 4, "end sentinel"),
    (table("p1\t1\t2", TABLE_END, "stray", "p2\tx\t1"), 5, "outside table"),
    # a cell numpy cannot read and a later fault
    (table("p1\t1_0\t2", "p2\t3", "p3\tx\t1"), 4, "expected 3 cells"),
    (table('p1\t"1"\t2', "p2\tnull\t4", "p1\t1\t2"), 5, "duplicate probe"),
])
def test_first_fault_in_file_order_is_raised(tmp_path, text, line, fragment):
    got = assert_same_everywhere(parse_series_matrix, ref_parse_series_matrix,
                                 text, tmp_path / "two_faults.txt")
    assert got[1] is ParseError and fragment in got[2] and got[3] == line


@pytest.mark.parametrize("cell", GOOD + ODD)
def test_each_cell_reads_as_float_reads_it(tmp_path, cell):
    text = table("p1\t1\t2", f"p2\t{cell}\t3", f"p3\t4\t{cell}")
    assert_same_everywhere(parse_series_matrix, ref_parse_series_matrix,
                           text, tmp_path / "cell.txt")


def test_fault_before_undecodable_chunk_is_raised_first(tmp_path):
    """A line reader meets a bad byte only when it reads the chunk that
    holds it, so a fault on an earlier line is raised first."""
    rows = [f"p{i}\t{i}\t{i + 1}" for i in range(2000)]
    rows[3] = "p0\t1\t2"
    path = tmp_path / "late_bad_byte.txt"
    path.write_bytes(table(*rows).encode() + b"\xff\n")
    got = assert_same(parse_series_matrix, ref_parse_series_matrix, path)
    assert "duplicate probe" in got[2] and got[3] == 6
    path.write_bytes(b"p1\tA\n" * 3000 + b"\xff\n")
    got = assert_same(parse_annotation, ref_parse_annotation, path)
    assert "duplicate probe" in got[2] and got[3] == 2
    path.write_bytes(table("p1\t1\tx").encode() + b"\xff\n")
    got = assert_same(parse_series_matrix, ref_parse_series_matrix, path)
    assert "not UTF-8" in got[2]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.txt")))
def test_series_fixtures_match(name):
    assert_same(parse_series_matrix, ref_parse_series_matrix, FIXTURES / name)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.tsv")))
def test_annotation_fixtures_match(name):
    assert_same(parse_annotation, ref_parse_annotation, FIXTURES / name)


def test_values_are_bitwise_those_of_float(tmp_path):
    cells = ["-0.0", "null", "", "NULL", "nan", "-nan", "inf", "-inf", "1e-320",
             "0.1", "1e500", "-0", "5e-324", "2.2250738585072014e-308"]
    rows = [f"p{i}\t{a}\t{b}" for i, (a, b) in enumerate(zip(cells, cells[1:]))]
    got = assert_same_everywhere(parse_series_matrix, ref_parse_series_matrix,
                                 table(*rows), tmp_path / "bits.txt")
    values = np.frombuffer(got[5]).reshape(got[4])
    assert math.copysign(1.0, values[0, 0]) == -1.0
    assert np.isnan(values[0, 1]) and np.isnan(values[1, 1])


def test_lines_split_on_newline_only(tmp_path):
    text = table("p 1\t1\t2", "p\x1c2\t\x852\t3", "p\x0c3\t4\t5")
    got = assert_same_everywhere(parse_series_matrix, ref_parse_series_matrix,
                                 text, tmp_path / "separators.txt")
    assert got[2] == ("p 1", "p\x1c2", "p\x0c3")
    text = "ID\tSymbol\np 1\tA B\np\x1c2\tC\x1dD /// E\n"
    got = assert_same_everywhere(parse_annotation, ref_parse_annotation,
                                 text, tmp_path / "separators.tsv")
    assert got[1] == [("p 1", ("A B",)), ("p\x1c2", ("C\x1dD", "E"))]


@pytest.mark.parametrize("texts, missing", [
    (["1\t\tnull", "NULL\t2.5\t", "\t-0.0\tNull", "3\t4\t5"], ingest._SERIES_MISSING),
    (["1\t\t2", "\t3\t4", "5\t6\t", "7\t8\t9"], ingest._SERIES_MISSING),
    (["NA\t1\t2", "2\tNA\tNA", "-0.0\t4\t5"], ingest._V1_MISSING),
])
def test_usual_missing_cells_stay_on_the_bulk_path(texts, missing):
    """Missing cells are rewritten for numpy, not sent cell by cell."""
    got = ingest._bulk_values(texts, 3, missing)
    assert got is not None
    want = [[math.nan if c in missing else float(c) for c in t.split("\t")]
            for t in texts]
    assert got.tobytes() == np.array(want).tobytes()
