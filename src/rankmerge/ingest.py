"""Series-matrix parsing, probe annotation and dataset persistence.

The series-matrix text format: '!'-prefixed tab-separated metadata
lines (values optionally double-quoted, no embedded tabs), then a
numeric probe table bracketed by the two sentinel lines

    !series_matrix_table_begin
    !series_matrix_table_end

whose header row starts with the cell ID_REF followed by unique sample
accessions.  Empty and "null" table cells are missing values.  CRLF
line endings are tolerated everywhere.

A dataset directory (format version 2) holds four files:
``manifest.json`` (name, format version, score state, source, seed),
``info.tsv`` (metadata fields x samples; its header names the samples),
``features.txt`` (one feature name per line) and ``data.npy`` (the
values as a float64 features x samples array, NaN for missing).  No
value passes through text, so a save and a load cost no float
formatting or parsing.  Version 1 directories, whose values are text
in ``data.tsv`` ("NA" for missing), are still read but no longer
written.
"""

from __future__ import annotations

import json
import math
import tokenize
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .errors import AnnotationError, ManifestError, ParseError
from .matrix import SCORE_KINDS, DataMatrix, Dataset, InfoMatrix

FORMAT_VERSION = 2  # written; version 1 is still read

TABLE_BEGIN = "!series_matrix_table_begin"
TABLE_END = "!series_matrix_table_end"

MULTI_SYMBOL_SEPARATOR = " /// "

MULTI_POLICIES = ("first", "drop")


@dataclass(frozen=True)
class SeriesMatrixDocument:
    """Parsed series-matrix file: ordered metadata plus the probe table."""

    metadata: tuple[tuple[str, tuple[str, ...]], ...]
    probe_ids: tuple[str, ...]
    samples: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals = np.array(vals, copy=True)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrixDocument):
            return NotImplemented
        return (self.metadata == other.metadata
                and self.probe_ids == other.probe_ids
                and self.samples == other.samples
                and np.array_equal(self.values, other.values, equal_nan=True))


def _unquote(cell: str) -> str:
    if len(cell) >= 2 and cell.startswith('"') and cell.endswith('"'):
        return cell[1:-1]
    return cell


# value cells read as missing: empty or "null" in any case
_SERIES_MISSING = frozenset(["", *("".join(c) for c in product(*zip("null", "NULL")))])


@contextmanager
def open_text(path: str | Path):
    """Open a UTF-8 text file for reading.  A file that cannot be opened,
    or a byte sequence that does not decode wherever the reader meets it,
    is a ParseError naming the file."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot open: {exc.strerror or exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def text_lines(source):
    r"""The lines of a path or of a line iterable, without line ends.

    A file is streamed as it decodes and split on "\n" only: universal
    newlines have turned "\r" and "\r\n" into "\n", and U+2028, "\x1c"
    and the other breaks of ``str.splitlines`` stay inside a line.
    Undecodable bytes are the ParseError of :func:`open_text`, raised
    when the reader meets them, after any fault on an earlier line.
    """
    if not isinstance(source, (str, Path)):
        yield from (raw.rstrip("\r\n") for raw in source)
        return
    with open_text(source) as fh:
        yield from (raw.rstrip("\n") for raw in fh)


def read_tab_table(source, prefix: str = ""):
    """The header cells of a tab-separated table, and an iterator over
    ``(lineno, line)`` for each non-empty line after the header.  A row
    whose cell count is not the header's is a ParseError naming its line,
    its message led by ``prefix``.  Rows are read on demand, so a caller
    that checks the header first reports its fault before any row's.
    """
    lines = enumerate(text_lines(source), start=1)
    header = next(lines, (1, ""))[1].split("\t")

    def rows():
        for lineno, line in lines:
            if not line:
                continue
            n_cells = line.count("\t") + 1
            if n_cells != len(header):
                raise ParseError(f"{prefix}expected {len(header)} cells, "
                                 f"got {n_cells}", lineno)
            yield lineno, line

    return header, rows()


def parse_series_matrix(source) -> SeriesMatrixDocument:
    """Parse a series-matrix file, path or line iterable.

    Raises :class:`ParseError` with a 1-based line number for missing
    sentinels, a bad header, ragged rows, duplicate sample accessions,
    duplicate probe ids and non-numeric value cells.  The value cells are
    read after the pass over the lines, all rows in one numpy parse where
    it can; the first fault in file order is still the one raised.
    """
    texts: list[str] = []  # the value cells of each probe row
    linenos: list[int] = []
    try:
        metadata, probe_ids, samples = _scan_series_matrix(source, texts, linenos)
    except Exception:
        # whatever ended the scan (a ParseError, the line source's own
        # error), a bad value cell on an earlier line is reported first
        _series_values(texts, linenos)
        raise
    return SeriesMatrixDocument(tuple(metadata), tuple(probe_ids), samples,
                                _series_values(texts, linenos))


def _scan_series_matrix(source, texts: list[str], linenos: list[int]):
    """Metadata, probe ids and samples; each probe row's value text and
    line number are appended to ``texts`` and ``linenos`` as it is read."""
    metadata: list[tuple[str, tuple[str, ...]]] = []
    probe_ids: list[str] = []
    seen_probes: set[str] = set()
    samples: tuple[str, ...] | None = None

    in_table = False
    saw_begin = False
    saw_end = False
    lineno = 0

    for lineno, line in enumerate(text_lines(source), start=1):
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
        if samples is None:
            cells = line.split("\t")
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
        n_cells = line.count("\t") + 1
        if n_cells != 1 + len(samples):
            raise ParseError(
                f"expected {1 + len(samples)} cells, got {n_cells}", lineno)
        probe, _, text = line.partition("\t")
        probe = _unquote(probe)
        if probe in seen_probes:
            raise ParseError(f"duplicate probe id {probe!r}", lineno)
        seen_probes.add(probe)
        probe_ids.append(probe)
        texts.append(text)
        linenos.append(lineno)

    if not saw_begin:
        raise ParseError("missing table begin sentinel", lineno or 1)
    if in_table or not saw_end:
        raise ParseError("missing table end sentinel", lineno or 1)
    if samples is None:
        raise ParseError("table has no header row", lineno or 1)
    if not probe_ids:
        raise ParseError("table has no probe rows", lineno or 1)
    return metadata, probe_ids, samples


def _series_values(texts: list[str], linenos: list[int]) -> np.ndarray:
    n_cols = texts[0].count("\t") + 1 if texts else 0
    return _parse_values(texts, linenos, n_cols, _SERIES_MISSING,
                         "non-numeric value cell", unquote=True)


def _fmt_value(v: float) -> str:
    return "null" if math.isnan(v) else repr(float(v))


def serialize_series_matrix(doc: SeriesMatrixDocument) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t).

    Metadata values, the header cell and accessions are always quoted;
    numbers use the shortest exact float representation.
    """
    out: list[str] = []
    for key, vals in doc.metadata:
        out.append("\t".join([f"!{key}"] + [f'"{v}"' for v in vals]))
    out.append(TABLE_BEGIN)
    out.append("\t".join(['"ID_REF"'] + [f'"{s}"' for s in doc.samples]))
    for pid, row in zip(doc.probe_ids, doc.values):
        out.append("\t".join([pid] + [_fmt_value(v) for v in row]))
    out.append(TABLE_END)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# probe annotation
# ---------------------------------------------------------------------------

def parse_annotation(source) -> dict[str, tuple[str, ...]]:
    """Parse a two-column probe-to-symbol TSV.

    An optional header line "ID<tab>Symbol" is skipped.  Multiple
    symbols are separated by " /// "; an empty symbol cell maps the
    probe to no symbol.  Duplicate probe ids are an error.
    """
    mapping: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(text_lines(source), start=1):
        if not line.strip():
            continue
        n_cells = line.count("\t") + 1
        if n_cells != 2:
            raise ParseError(f"expected 2 columns, got {n_cells}", lineno)
        probe, _, symbol_cell = line.partition("\t")
        probe, symbol_cell = probe.strip(), symbol_cell.strip()
        if lineno == 1 and probe == "ID" and symbol_cell == "Symbol":
            continue
        if not probe:
            raise ParseError("empty probe id", lineno)
        if probe in mapping:
            raise ParseError(f"duplicate probe id {probe!r}", lineno)
        if MULTI_SYMBOL_SEPARATOR not in symbol_cell:
            mapping[probe] = (symbol_cell,) if symbol_cell else ()
            continue
        mapping[probe] = tuple(s for s in (t.strip() for t in
                                           symbol_cell.split(MULTI_SYMBOL_SEPARATOR))
                               if s)
    if not mapping:
        raise ParseError("annotation file has no rows")
    return mapping


@dataclass(frozen=True)
class AnnotationResult:
    """Raw annotated matrix (row names may repeat) plus drop counts."""

    data: DataMatrix
    info: InfoMatrix
    n_unmapped: int
    n_multi_dropped: int


def _info_from_metadata(doc: SeriesMatrixDocument) -> InfoMatrix:
    """Metadata entries with one value per sample become info fields.

    Repeated keys (common for characteristics lines) are disambiguated
    with .1, .2, ... suffixes to keep field names unique.
    """
    n = len(doc.samples)
    fields: list[str] = []
    cells: list[tuple[str, ...]] = []
    counts: dict[str, int] = {}
    for key, vals in doc.metadata:
        if len(vals) != n:
            continue
        counts[key] = counts.get(key, 0) + 1
        name = key if counts[key] == 1 else f"{key}.{counts[key] - 1}"
        fields.append(name)
        cells.append(vals)
    return InfoMatrix(tuple(fields), doc.samples, tuple(cells))


def annotate(doc: SeriesMatrixDocument,
             mapping: dict[str, tuple[str, ...]],
             multi_policy: str = "first") -> AnnotationResult:
    """Relabel probe rows with gene symbols.

    Probes without a symbol are dropped and counted.  Probes with
    several symbols follow ``multi_policy``: "first" keeps the first
    listed symbol, "drop" discards the row.  Values are never altered,
    only relabeled, and row counts reconcile:
    kept + unmapped + multi_dropped == probes.
    """
    if multi_policy not in MULTI_POLICIES:
        raise ValueError(f"multi_policy must be one of {MULTI_POLICIES}")
    keep_rows: list[int] = []
    row_names: list[str] = []
    n_unmapped = 0
    n_multi_dropped = 0
    for i, probe in enumerate(doc.probe_ids):
        symbols = mapping.get(probe, ())
        if not symbols:
            n_unmapped += 1
            continue
        if len(symbols) > 1 and multi_policy == "drop":
            n_multi_dropped += 1
            continue
        keep_rows.append(i)
        row_names.append(symbols[0])
    if not keep_rows:
        raise AnnotationError("no probe maps to a gene symbol")
    data = DataMatrix(tuple(row_names), doc.samples, doc.values[keep_rows])
    return AnnotationResult(data, _info_from_metadata(doc),
                            n_unmapped, n_multi_dropped)


# ---------------------------------------------------------------------------
# dataset persistence
# ---------------------------------------------------------------------------

INFO_FILE = "info.tsv"
MANIFEST_FILE = "manifest.json"
FEATURES_FILE = "features.txt"
DATA_FILE = "data.npy"
V1_DATA_FILE = "data.tsv"

# the files each readable format version keeps beside its manifest
_VERSION_FILES = {1: (V1_DATA_FILE, INFO_FILE),
                  2: (FEATURES_FILE, DATA_FILE, INFO_FILE)}

_V1_MISSING = frozenset(["NA"])
# numpy's parser skips these as whitespace around a number, float() does not
_NON_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"
_BREAKS = "\t\r\n"


def _check_text(what: str, texts) -> None:
    if any(c in "".join(texts) for c in _BREAKS):
        bad = next(t for t in texts if any(c in t for c in _BREAKS))
        raise ValueError(f"{what} {bad!r} contains a tab or line break")


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a format-2 dataset directory under ``path``.

    ``data.npy`` holds the values as C-order float64 (NaN for missing),
    so they read back bit for bit.  A feature name, sample name, info
    field name or info cell holding a tab, CR or LF is a ValueError:
    the text files could not be read back.
    """
    _check_text("feature name", ds.data.row_names)
    _check_text("sample name", ds.data.col_names)
    _check_text("info field name", ds.info.field_names)
    for name, cells in zip(ds.info.field_names, ds.info.cells):
        _check_text(f"info cell of field {name!r}", cells)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / INFO_FILE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(["field", *ds.info.col_names]) + "\n")
        for name, cells in zip(ds.info.field_names, ds.info.cells):
            fh.write("\t".join([name, *cells]) + "\n")
    with open(root / FEATURES_FILE, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{name}\n" for name in ds.data.row_names)
    with open(root / DATA_FILE, "wb") as fh:
        np.save(fh, np.ascontiguousarray(ds.data.values, dtype=np.float64),
                allow_pickle=False)
    manifest = {"name": ds.name, "version": FORMAT_VERSION, "score": ds.score,
                "source": ds.source, "seed": ds.seed}
    with open(root / MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_tsv(path: Path) -> tuple[list[str], list[str], list[str], list[int]]:
    """Header cells after the corner, then per row: name, the text after
    the name and the 1-based line number.  Blank lines are skipped."""
    header, rows = read_tab_table(path, f"{path.name}: ")
    if header == [""]:
        raise ParseError(f"{path.name}: empty file", 1)
    row_names: list[str] = []
    texts: list[str] = []
    linenos: list[int] = []
    for lineno, line in rows:
        name, _, text = line.partition("\t")
        row_names.append(name)
        texts.append(text)
        linenos.append(lineno)
    return header[1:], row_names, texts, linenos


def _bulk_values(texts: list[str], n_cols: int, missing) -> np.ndarray | None:
    """The tab-separated value texts in one numpy parse, a cell spelled
    as in ``missing`` read as NaN; None where numpy rejects a cell (a
    quote, "1_0" or a bad cell) or could read one otherwise than float()."""
    body = "\t" + "\t\n\t".join(texts) + "\t"  # each cell between tabs
    if any(c in body for c in _NON_FLOAT_SPACE):
        return None
    # numpy has no missing cell: each text that may hold one, as its
    # first character or as an empty cell, gets "nan" in its place
    firsts = {s[:1] for s in missing}  # "" stands for an empty cell
    lines = list(texts)
    if any(c in body if c else "\t\t" in body for c in firsts):
        padded = [f"\t{t}\t" for t in texts]
        heads = {"\t" + (c or "\t") for c in firsts}
        for i in {i for h in heads for i, t in enumerate(padded) if h in t}:
            lines[i] = "\t".join(["nan" if c in missing else c
                                  for c in texts[i].split("\t")])
    try:
        values = np.loadtxt(lines, delimiter="\t", comments=None, quotechar=None,
                            ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(texts), n_cols) else None


def _parse_values(texts: list[str], linenos: list[int], n_cols: int, missing,
                  bad: str, unquote: bool = False) -> np.ndarray:
    """The tab-separated value texts as rows; a cell in ``missing``
    (after ``_unquote`` if ``unquote``) is NaN.

    One bulk parse reads the usual input.  Input it rejects goes to the
    per-cell ``float()`` parser, which accepts a few more spellings (such
    as "1_0") and raises ``bad`` with the first bad cell and its line.
    """
    if texts and n_cols:
        values = _bulk_values(texts, n_cols, missing)
        if values is not None:
            return values
    values = np.empty((len(texts), n_cols))
    for i, (text, lineno) in enumerate(zip(texts, linenos)):
        for j, cell in enumerate(text.split("\t") if n_cols else ()):
            if unquote:
                cell = _unquote(cell)
            if cell in missing:
                values[i, j] = math.nan
                continue
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParseError(f"{bad} {cell!r}", lineno) from None
    return values


def _read_v1_data(root: Path) -> DataMatrix:
    cols, features, texts, linenos = _read_tsv(root / V1_DATA_FILE)
    return DataMatrix(tuple(features), tuple(cols),
                      _parse_values(texts, linenos, len(cols), _V1_MISSING,
                                    f"{V1_DATA_FILE}: non-numeric cell"))


def _read_v2_data(root: Path, cols: tuple[str, ...]) -> DataMatrix:
    """features.txt and data.npy; the samples are the info.tsv columns."""
    features = list(text_lines(root / FEATURES_FILE))
    try:
        # read_array, unlike np.load, never opens a zip archive
        with open(root / DATA_FILE, "rb") as fh:
            values = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError, OSError, SyntaxError, TypeError,
            tokenize.TokenError) as exc:  # numpy's header parse raises each
        raise ParseError(f"{DATA_FILE}: cannot read: {exc}") from None
    if values.dtype.kind != "f" or values.dtype.itemsize != 8:
        raise ParseError(f"{DATA_FILE}: dtype {values.dtype} is not float64")
    if values.shape != (len(features), len(cols)):
        raise ParseError(
            f"{DATA_FILE}: shape {values.shape} does not match "
            f"{len(features)} features x {len(cols)} samples")
    # DataMatrix converts a big-endian array to native float64
    return DataMatrix(tuple(features), cols, values)


def _read_manifest(root: Path) -> dict:
    manifest_path = root / MANIFEST_FILE
    if not manifest_path.exists():
        raise ManifestError(f"{root}: no {MANIFEST_FILE}")
    with open_text(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
            raise ManifestError(f"{root}: malformed manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ManifestError(f"{root}: manifest is not a JSON object")
    version = manifest.get("version")
    if type(version) is not int or version not in _VERSION_FILES:
        raise ManifestError(
            f"{root}: format version {version!r} unsupported "
            f"(expected one of {', '.join(map(str, _VERSION_FILES))})")
    if manifest.get("name") in (None, ""):
        raise ManifestError(f"{root}: manifest has no dataset name")
    score = manifest.get("score", "none")
    if score not in SCORE_KINDS:
        raise ManifestError(f"{root}: unknown score state {score!r} "
                            f"(expected one of {', '.join(SCORE_KINDS)})")
    for name in _VERSION_FILES[version]:
        if not (root / name).is_file():
            raise ManifestError(f"{root}: no {name}")
    return manifest


def load_dataset(path: str | Path) -> Dataset:
    """Load a directory written by :func:`save_dataset` (lossless).

    Format 1 directories (values as text in ``data.tsv``) still load.
    Undecodable text and empty or repeated names are a ParseError.
    """
    root = Path(path)
    manifest = _read_manifest(root)
    v1, name = manifest["version"] == 1, INFO_FILE
    try:
        info_cols, fields, texts, _ = _read_tsv(root / INFO_FILE)
        info = InfoMatrix(tuple(fields), tuple(info_cols),
                          tuple(tuple(t.split("\t")) if info_cols else ()
                                for t in texts))
        name = V1_DATA_FILE if v1 else FEATURES_FILE
        data = _read_v1_data(root) if v1 else _read_v2_data(root, info.col_names)
        return Dataset(data, info, name=str(manifest["name"]),
                       score=manifest.get("score", "none"),
                       source=str(manifest.get("source", "")),
                       seed=manifest.get("seed"))
    except ParseError:
        raise
    except ValueError as exc:  # empty or repeated names
        raise ParseError(f"{name}: {exc}") from None
