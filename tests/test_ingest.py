import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rankmerge.cli import main
from rankmerge.errors import AnnotationError, ManifestError, ParseError
from rankmerge.ingest import (
    AnnotationResult,
    SeriesMatrixDocument,
    annotate,
    load_dataset,
    parse_annotation,
    parse_series_matrix,
    save_dataset,
    serialize_series_matrix,
)
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from test_cli import fabricated_results

FIXTURES = Path(__file__).parent / "fixtures"
NA = math.nan


def small_doc():
    return parse_series_matrix(FIXTURES / "series_small.txt")


# ---------------------------------------------------------------------------
# series-matrix parsing
# ---------------------------------------------------------------------------

class TestParseSeriesMatrix:
    def test_shape_and_names(self):
        doc = small_doc()
        assert doc.probe_ids == ("p1", "p2", "p3")
        assert doc.samples == ("GSM1", "GSM2")
        assert doc.values.shape == (3, 2)

    def test_plain_values(self):
        doc = small_doc()
        assert doc.values[0].tolist() == [1.5, 2.5]

    def test_null_and_empty_become_missing(self):
        doc = small_doc()
        assert math.isnan(doc.values[1, 0]) and doc.values[1, 1] == 4.0
        assert doc.values[2, 0] == 5.25 and math.isnan(doc.values[2, 1])

    def test_metadata_order_preserved(self):
        doc = small_doc()
        keys = [k for k, _ in doc.metadata]
        assert keys == ["Series_title", "Series_geo_accession",
                        "Sample_geo_accession", "Sample_characteristics_ch1"]
        assert dict(doc.metadata)["Series_title"] == ("Small test series",)

    def test_per_sample_metadata(self):
        meta = dict(small_doc().metadata)
        assert meta["Sample_characteristics_ch1"] \
            == ("tissue: breast", "tissue: ovary")

    def test_crlf_and_quoting_variants_parse_identically(self):
        assert parse_series_matrix(FIXTURES / "series_small_crlf.txt") \
            == small_doc()

    def test_accepts_iterable_of_lines(self):
        text = (FIXTURES / "series_small.txt").read_text()
        assert parse_series_matrix(text.splitlines()) == small_doc()


class TestParseErrors:
    @pytest.mark.parametrize("name,line,fragment", [
        ("bad_ragged.txt", 5, "expected 3 cells"),
        ("bad_dup_accession.txt", 3, "duplicate sample accession"),
        ("bad_missing_begin.txt", 2, "outside table"),
        ("bad_no_table.txt", 2, "begin sentinel"),
        ("bad_missing_end.txt", 3, "end sentinel"),
        ("bad_nonnumeric.txt", 3, "non-numeric"),
    ])
    def test_malformed_files(self, name, line, fragment):
        with pytest.raises(ParseError, match=fragment) as exc:
            parse_series_matrix(FIXTURES / name)
        assert exc.value.line == line

    def test_empty_header_cell(self):
        lines = ["!series_matrix_table_begin",
                 '"ID_REF"\t"GSM1"\t""',
                 "p1\t1.0\t2.0",
                 "!series_matrix_table_end"]
        with pytest.raises(ParseError) as exc:
            parse_series_matrix(lines)
        assert exc.value.line == 2

    def test_duplicate_probe_id(self):
        lines = ["!series_matrix_table_begin",
                 '"ID_REF"\t"GSM1"',
                 "p1\t1.0",
                 "p1\t2.0",
                 "!series_matrix_table_end"]
        with pytest.raises(ParseError, match="duplicate probe") as exc:
            parse_series_matrix(lines)
        assert exc.value.line == 4

    def test_table_without_rows(self):
        lines = ["!series_matrix_table_begin",
                 '"ID_REF"\t"GSM1"',
                 "!series_matrix_table_end"]
        with pytest.raises(ParseError, match="no probe rows"):
            parse_series_matrix(lines)


class TestSerialize:
    def test_parse_serialize_fixed_point(self):
        doc = small_doc()
        text = serialize_series_matrix(doc)
        again = parse_series_matrix(text.splitlines())
        assert again == doc
        assert serialize_series_matrix(again) == text

    def test_crlf_variant_normalizes_to_same_text(self):
        a = serialize_series_matrix(small_doc())
        b = serialize_series_matrix(
            parse_series_matrix(FIXTURES / "series_small_crlf.txt"))
        assert a == b

    def test_missing_serialized_as_null(self):
        text = serialize_series_matrix(small_doc())
        assert "\tnull" in text


# ---------------------------------------------------------------------------
# annotation
# ---------------------------------------------------------------------------

class TestParseAnnotation:
    def test_basic_mapping_with_header(self):
        mapping = parse_annotation(FIXTURES / "annotation_small.tsv")
        assert mapping == {"p1": ("GATA3",), "p2": ("GATA3",),
                           "p3": ("MYC",)}

    def test_multi_symbol_and_empty(self):
        mapping = parse_annotation(FIXTURES / "annotation_multi.tsv")
        assert mapping["p2"] == ("TP53", "EGFR")
        assert mapping["p3"] == ()

    def test_header_skipped_only_on_first_line(self):
        mapping = parse_annotation(["p0\tX", "ID\tSymbol"])
        assert mapping == {"p0": ("X",), "ID": ("Symbol",)}

    def test_duplicate_probe_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_annotation(["p1\tA", "p1\tB"])

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match="no rows"):
            parse_annotation([])

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as exc:
            parse_annotation(["p1\tA\textra"])
        assert exc.value.line == 1


class TestAnnotate:
    def test_first_policy_keeps_first_symbol(self):
        doc = small_doc()
        mapping = parse_annotation(FIXTURES / "annotation_multi.tsv")
        res = annotate(doc, mapping, multi_policy="first")
        assert res.data.row_names == ("GATA3", "TP53")
        assert res.n_unmapped == 1 and res.n_multi_dropped == 0

    def test_drop_policy_discards_multi(self):
        doc = small_doc()
        mapping = parse_annotation(FIXTURES / "annotation_multi.tsv")
        res = annotate(doc, mapping, multi_policy="drop")
        assert res.data.row_names == ("GATA3",)
        assert res.n_unmapped == 1 and res.n_multi_dropped == 1

    def test_counts_reconcile(self):
        doc = small_doc()
        for policy in ("first", "drop"):
            res = annotate(doc, parse_annotation(
                FIXTURES / "annotation_multi.tsv"), policy)
            assert (len(res.data.row_names) + res.n_unmapped
                    + res.n_multi_dropped) == len(doc.probe_ids)

    def test_values_relabeled_not_altered(self):
        doc = small_doc()
        res = annotate(doc, parse_annotation(FIXTURES / "annotation_small.tsv"))
        assert np.array_equal(res.data.values, doc.values, equal_nan=True)

    def test_duplicate_symbols_allowed_at_this_stage(self):
        doc = small_doc()
        res = annotate(doc, parse_annotation(FIXTURES / "annotation_small.tsv"))
        assert res.data.row_names == ("GATA3", "GATA3", "MYC")

    def test_nothing_mappable_rejected(self):
        with pytest.raises(AnnotationError):
            annotate(small_doc(), {"p9": ("X",)})

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="multi_policy"):
            annotate(small_doc(), {"p1": ("A",)}, multi_policy="merge")

    def test_info_fields_from_per_sample_metadata(self):
        res = annotate(small_doc(),
                       parse_annotation(FIXTURES / "annotation_small.tsv"))
        assert res.info.field_names == ("Sample_geo_accession",
                                        "Sample_characteristics_ch1")
        assert res.info.field("Sample_characteristics_ch1") \
            == ("tissue: breast", "tissue: ovary")

    def test_repeated_metadata_key_suffixed(self):
        doc = SeriesMatrixDocument(
            metadata=(("Sample_characteristics_ch1", ("a", "b")),
                      ("Sample_characteristics_ch1", ("c", "d"))),
            probe_ids=("p1",), samples=("s1", "s2"),
            values=np.array([[1.0, 2.0]]))
        res = annotate(doc, {"p1": ("G",)})
        assert res.info.field_names == ("Sample_characteristics_ch1",
                                        "Sample_characteristics_ch1.1")


# ---------------------------------------------------------------------------
# dataset persistence
# ---------------------------------------------------------------------------

def toy_dataset():
    data = DataMatrix(("GATA3", "MYC"), ("s1", "s2"),
                      np.array([[1.5, NA], [2.0, -3.25]]))
    info = InfoMatrix(("disease",), ("s1", "s2"), (("aml", "control"),))
    return Dataset(data, info, name="toy", score="vdw", source="toy.txt",
                   seed=7)


def write_v1(ds, root):
    """A format-1 directory, written the way bench/gen.py writes one:
    values as float repr text in data.tsv, "NA" for missing."""
    root.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(["feature", *ds.data.col_names])]
    for name, row in zip(ds.data.row_names, ds.data.values.tolist()):
        lines.append("\t".join(
            [name] + ["NA" if math.isnan(v) else repr(v) for v in row]))
    (root / "data.tsv").write_text("\n".join(lines) + "\n")
    info = ["\t".join(["field", *ds.info.col_names])]
    info += ["\t".join([f, *cells])
             for f, cells in zip(ds.info.field_names, ds.info.cells)]
    (root / "info.tsv").write_text("\n".join(info) + "\n")
    manifest = {"name": ds.name, "version": 1, "score": ds.score,
                "source": ds.source, "seed": ds.seed}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = toy_dataset()
        out = tmp_path / "toy"
        save_dataset(ds, out)
        back = load_dataset(out)
        assert back.data.row_names == ds.data.row_names
        assert back.data.col_names == ds.data.col_names
        assert np.array_equal(back.data.values, ds.data.values,
                              equal_nan=True)
        assert back.info.field("disease") == ("aml", "control")
        assert back.name == "toy" and back.score == "vdw"
        assert back.source == "toy.txt" and back.seed == 7

    def test_files_written(self, tmp_path):
        out = tmp_path / "toy"
        save_dataset(toy_dataset(), out)
        assert {(p.name) for p in out.iterdir()} \
            == {"data.npy", "features.txt", "info.tsv", "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == 2 and manifest["name"] == "toy"
        assert (out / "features.txt").read_bytes() == b"GATA3\nMYC\n"
        assert (out / "info.tsv").read_bytes() \
            == b"field\ts1\ts2\ndisease\taml\tcontrol\n"
        values = np.load(out / "data.npy", allow_pickle=False)
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.tobytes() == toy_dataset().data.values.tobytes()
        # version 1 directories are still read
        v1 = write_v1(toy_dataset(), tmp_path / "v1")
        assert load_dataset(v1) == toy_dataset()

    def test_missing_values_written_as_na(self, tmp_path):
        out = tmp_path / "toy"
        save_dataset(toy_dataset(), out)
        assert np.isnan(np.load(out / "data.npy")[0, 1])
        v1 = write_v1(toy_dataset(), tmp_path / "v1")
        assert "\tNA" in (v1 / "data.tsv").read_text()
        assert np.isnan(load_dataset(v1).data.values[0, 1])

    def test_missing_manifest(self, tmp_path):
        out = tmp_path / "toy"
        save_dataset(toy_dataset(), out)
        (out / "manifest.json").unlink()
        with pytest.raises(ManifestError):
            load_dataset(out)

    def test_version_mismatch(self, tmp_path):
        out = tmp_path / "toy"
        save_dataset(toy_dataset(), out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["version"] = 99
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="version"):
            load_dataset(out)

    def test_malformed_manifest(self, tmp_path):
        out = tmp_path / "toy"
        save_dataset(toy_dataset(), out)
        (out / "manifest.json").write_text("{not json")
        with pytest.raises(ManifestError):
            load_dataset(out)

    def test_corrupt_data_cell(self, tmp_path):
        out = write_v1(toy_dataset(), tmp_path / "toy")
        data = (out / "data.tsv").read_text().replace("-3.25", "wat")
        (out / "data.tsv").write_text(data)
        with pytest.raises(ParseError, match="wat"):
            load_dataset(out)
        out = tmp_path / "v2"
        save_dataset(toy_dataset(), out)
        (out / "data.npy").write_bytes(
            (out / "data.npy").read_bytes().replace(b"<f8", b"<i8"))
        with pytest.raises(ParseError, match="data.npy"):
            load_dataset(out)

    def test_tab_in_cell_rejected_at_save(self, tmp_path):
        info = InfoMatrix(("disease",), ("s1",), (("a\tb",),))
        data = DataMatrix(("G",), ("s1",), np.array([[1.0]]))
        ds = Dataset(data, info, name="bad")
        with pytest.raises(ValueError, match="tab"):
            save_dataset(ds, tmp_path / "bad")

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    @pytest.mark.parametrize("kind", ["feature", "sample", "field", "cell"])
    def test_name_with_separator_rejected_at_save(self, tmp_path, kind, char):
        bad = f"a{char}b"
        feature, sample, field, cell = (
            bad if kind == k else k for k in ("feature", "sample", "field", "cell"))
        ds = Dataset(DataMatrix((feature,), (sample,), np.array([[1.0]])),
                     InfoMatrix((field,), (sample,), ((cell,),)), name="bad")
        with pytest.raises(ValueError, match="tab or line break"):
            save_dataset(ds, tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_annotation_result_is_plain_container(self):
        res = AnnotationResult(
            DataMatrix(("G",), ("s1",), np.array([[1.0]])),
            InfoMatrix((), ("s1",), ()), 0, 0)
        assert res.n_unmapped == 0


# ---------------------------------------------------------------------------
# the data.npy codec (format 2) and the data.tsv reader (format 1)
# ---------------------------------------------------------------------------

def dataset_of(values, rows=None):
    values = np.asarray(values, dtype=float)
    rows = rows or tuple(f"g{i}" for i in range(values.shape[0]))
    cols = tuple(f"s{j}" for j in range(values.shape[1]))
    return Dataset(DataMatrix(rows, cols, values), InfoMatrix((), cols, ()),
                   name="codec")


def write_data(tmp_path, text):
    """A format-1 dataset directory whose data.tsv is ``text``."""
    out = tmp_path / "ds"
    out.mkdir()
    (out / "data.tsv").write_bytes(text.encode())
    header = text.splitlines()[0].split("\t")
    (out / "info.tsv").write_text("\t".join(["field", *header[1:]]) + "\n")
    (out / "manifest.json").write_text(json.dumps({"name": "codec", "version": 1}))
    return out


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


SPECIAL = np.array([[NA, -0.0, np.inf, -np.inf, 5e-324, 0.1,
                     -1.7976931348623157e308, 1e-05, 1e16],
                    [0.0, -NA, 2.2250738585072014e-308, -5e-324, -1.5,
                     np.float64.fromhex("0x0.fffffffffffffp-1022"), 3.0,
                     -np.inf, 1.0]])


class TestDataCodec:
    def test_special_values_round_trip_bitwise(self, tmp_path):
        ds = dataset_of(SPECIAL)
        save_dataset(ds, tmp_path / "v2")
        back = load_dataset(tmp_path / "v2")
        assert back == ds and back.data.row_names == ("g0", "g1")
        assert back.data.values.tobytes() == SPECIAL.tobytes()
        out = write_data(tmp_path, "feature\t" + "\t".join(ds.data.col_names)
                         + "\ng0\tNA\t-0.0\tinf\t-inf\t5e-324\t0.1"
                         "\t-1.7976931348623157e+308\t1e-05\t1e+16\n")
        back = load_dataset(out).data.values
        assert back.tobytes() == SPECIAL[:1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n),
        min_size=0, max_size=4)))
    def test_any_bit_pattern_round_trips(self, tmp_path_factory, rows):
        n_cols = len(rows[0]) if rows else 0
        values = np.array(rows, dtype=np.uint64).reshape(len(rows), n_cols)
        values = values.view(np.float64)
        out = tmp_path_factory.mktemp("bits") / "ds"
        save_dataset(dataset_of(values), out)
        assert load_dataset(out).data.values.tobytes() == values.tobytes()

    def test_names_with_other_line_separators_round_trip(self, tmp_path):
        ds = Dataset(DataMatrix(("a\u2028b", "c\x85d", "e\x1cf", " g "),
                                ("s\u00e9", "t\x0bu"), np.ones((4, 2))),
                     InfoMatrix(("f\x0c",), ("s\u00e9", "t\x0bu"),
                                (("\u2029", "x\x1d"),)), name="odd")
        save_dataset(ds, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds") == ds

    def test_save_is_deterministic(self, tmp_path):
        ds = dataset_of(SPECIAL)
        fortran = dataset_of(np.asfortranarray(SPECIAL))
        save_dataset(ds, tmp_path / "a")
        save_dataset(fortran, tmp_path / "b")
        save_dataset(ds, tmp_path / "a")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_big_endian_values_load_native(self, tmp_path):
        save_dataset(dataset_of(SPECIAL), tmp_path / "ds")
        np.save(tmp_path / "ds" / "data.npy", SPECIAL.astype(">f8"))
        back = load_dataset(tmp_path / "ds").data.values
        assert back.dtype == np.float64 and back.dtype.isnative
        assert back.tobytes() == SPECIAL.tobytes()

    def test_v1_directory_loads_as_saved(self, tmp_path):
        ds = dataset_of(SPECIAL)
        save_dataset(ds, tmp_path / "v2")
        v1 = write_v1(ds, tmp_path / "v1")
        assert load_dataset(v1) == load_dataset(tmp_path / "v2") == ds
        # the text of format 1 keeps no sign of NaN
        want = np.where(np.isnan(SPECIAL), NA, SPECIAL)
        assert load_dataset(v1).data.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0, 3), (1, 4), (5, 1), (3, 0)])
    def test_degenerate_shapes_round_trip(self, tmp_path, shape):
        ds = dataset_of(np.arange(float(shape[0] * shape[1])).reshape(shape))
        save_dataset(ds, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds") == ds
        assert load_dataset(write_v1(ds, tmp_path / "v1")) == ds

    def test_crlf_line_endings(self, tmp_path):
        out = write_data(tmp_path, "feature\ts1\ts2\r\nA\t1.5\tNA\r\n"
                                   "B\t-2\t3e2\r\n")
        back = load_dataset(out).data
        assert back.row_names == ("A", "B") and back.col_names == ("s1", "s2")
        assert np.array_equal(back.values, [[1.5, NA], [-2.0, 300.0]],
                              equal_nan=True)

    @pytest.mark.parametrize("cell", ["NAB", "1,5", "", " ", "0x10", "na"])
    def test_bad_cell_names_its_line(self, tmp_path, cell):
        out = write_data(tmp_path, f"feature\ts1\ts2\nA\t1\t2\n\n"
                                   f"B\t3\t{cell}\n")
        with pytest.raises(ParseError, match="line 4") as exc:
            load_dataset(out)
        assert exc.value.line == 4 and repr(cell) in str(exc.value)

    def test_empty_cell_of_one_column_names_its_line(self, tmp_path):
        # numpy's parser skips an empty line, so the row count tells
        out = write_data(tmp_path, "feature\ts1\nA\t1\nB\t\nC\t2\n")
        with pytest.raises(ParseError, match="line 3.*non-numeric cell ''"):
            load_dataset(out)

    def test_ragged_row_names_its_line(self, tmp_path):
        out = write_data(tmp_path, "feature\ts1\ts2\nA\t1\t2\nB\t3\n")
        with pytest.raises(ParseError, match="line 3.*expected 3 cells, got 2"):
            load_dataset(out)

    def test_cells_only_float_accepts_still_load(self, tmp_path):
        out = write_data(tmp_path, "feature\ts1\ts2\nA\t1_0\t\u0661\n")
        assert load_dataset(out).data.values.tolist() == [[10.0, 1.0]]

    def test_separator_characters_are_not_whitespace(self, tmp_path):
        out = write_data(tmp_path, "feature\ts1\nA\t\x1c1\n")
        with pytest.raises(ParseError):
            load_dataset(out)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.sampled_from(["NA", "nan", "-inf", "Infinity", "1e500", "-0", "1.",
                         ".5", "+3", "1_0", "NA ", " 2", "N A", "#1", "'1'"]),
        st.floats(allow_nan=False).map(repr),
        st.text("0123456789.eE+-naifNAIF_ ,", max_size=5)),
        min_size=2, max_size=2), min_size=1, max_size=4))
    def test_bulk_parse_agrees_with_float(self, tmp_path_factory, rows):
        """Whatever the cells, the result is what float() makes of them."""
        want, bad_line = [], None
        for lineno, cells in enumerate(rows, start=2):
            try:
                want.append([NA if c == "NA" else float(c) for c in cells])
            except ValueError:
                bad_line = bad_line or lineno
        body = "".join(f"r{i}\t" + "\t".join(cells) + "\n"
                       for i, cells in enumerate(rows))
        out = write_data(tmp_path_factory.mktemp("fz"), "feature\ts1\ts2\n" + body)
        if bad_line is not None:
            with pytest.raises(ParseError) as exc:
                load_dataset(out)
            assert exc.value.line == bad_line
            return
        got = load_dataset(out).data.values
        assert got.tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# manifest validation
# ---------------------------------------------------------------------------

def _manifest_list(root):
    (root / "manifest.json").write_text("[1, 2]")


def _manifest_edit(**changes):
    def edit(root):
        manifest = json.loads((root / "manifest.json").read_text())
        for key, value in changes.items():
            if value is None:
                manifest.pop(key)
            else:
                manifest[key] = value
        (root / "manifest.json").write_text(json.dumps(manifest))
    return edit


def _remove(name):
    return lambda root: (root / name).unlink()


BAD_MANIFESTS = {
    "json_list": (_manifest_list, "JSON object"),
    "unknown_score": (_manifest_edit(score="bogus"), "score"),
    "missing_name": (_manifest_edit(name=None), "name"),
    "empty_name": (_manifest_edit(name=""), "name"),
    "missing_info": (_remove("info.tsv"), "info.tsv"),
    "missing_data": (_remove("data.tsv"), "data.tsv"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_bad_dataset_directory_is_manifest_error(tmp_path, case):
    spoil, fragment = BAD_MANIFESTS[case]
    out = tmp_path / "toy"
    if case == "missing_data":
        write_v1(toy_dataset(), out)
    else:
        save_dataset(toy_dataset(), out)
    spoil(out)
    with pytest.raises(ManifestError, match=fragment):
        load_dataset(out)


# ---------------------------------------------------------------------------
# malformed format-2 directories
# ---------------------------------------------------------------------------

def _save_npy(array, **kw):
    return lambda root: np.save(root / "data.npy", array, **kw)


def _truncate(n_bytes):
    def cut(root):
        body = (root / "data.npy").read_bytes()
        (root / "data.npy").write_bytes(body[:n_bytes])
    return cut


def _replace_byte(offset, byte):
    def patch(root):
        body = (root / "data.npy").read_bytes()
        (root / "data.npy").write_bytes(body[:offset] + bytes([byte]) + body[offset + 1:])
    return patch


def _append(name, text):
    def add(root):
        with open(root / name, "a", encoding="utf-8") as fh:
            fh.write(text)
    return add


def _extra_sample(root):
    (root / "info.tsv").write_text(
        "field\ts1\ts2\ts3\ndisease\taml\tcontrol\taml\n")


def _write_bytes(name, body):
    return lambda root: (root / name).write_bytes(body)


def _npz(root):
    with open(root / "data.npy", "wb") as fh:
        np.savez(fh, data=toy_dataset().data.values)


BAD_V2 = {
    "truncated_body": (_truncate(-8), ParseError, "data.npy"),
    "truncated_header": (_truncate(20), ParseError, "data.npy"),
    "empty_values": (_truncate(0), ParseError, "data.npy"),
    "zip_archive": (_npz, ParseError, "data.npy"),
    # numpy's header parse raises tokenize.TokenError, SyntaxError or TypeError
    "header_token_error": (_replace_byte(8, 1), ParseError, "data.npy"),
    "header_syntax_error": (_replace_byte(21, 44), ParseError, "data.npy"),
    "header_type_error": (_replace_byte(26, 66), ParseError, "data.npy"),
    "object_dtype": (_save_npy(np.array([[1.5, None], [2.0, "x"]], dtype=object),
                               allow_pickle=True), ParseError, "data.npy"),
    "int_dtype": (_save_npy(np.array([[1, 2], [3, 4]])), ParseError, "dtype int64"),
    "one_dim": (_save_npy(np.array([1.5, NA, 2.0, -3.25])), ParseError,
                r"shape \(4,\)"),
    "extra_feature": (_append("features.txt", "TP53\n"), ParseError,
                      "3 features x 2 samples"),
    "extra_sample": (_extra_sample, ParseError, "2 features x 3 samples"),
    "missing_values": (_remove("data.npy"), ManifestError, "data.npy"),
    "missing_features": (_remove("features.txt"), ManifestError, "features.txt"),
    "version_3": (_manifest_edit(version=3), ManifestError, "version 3"),
    "empty_feature_line": (_write_bytes("features.txt", b"\nMYC\n"), ParseError,
                           "features.txt: row names must be non-empty"),
    "features_not_utf8": (_write_bytes("features.txt", b"GATA3\nMY\xffC\n"),
                          ParseError, "features.txt: not UTF-8 text"),
    "info_not_utf8": (_write_bytes("info.tsv", b"field\ts1\ts2\n"
                                   b"disease\taml\tcontr\xffol\n"),
                      ParseError, "info.tsv: not UTF-8 text"),
    "info_repeats_sample": (_write_bytes("info.tsv", b"field\ts1\ts1\n"
                                         b"disease\taml\tcontrol\n"),
                            ParseError, "info.tsv: duplicate column name"),
}


def _spoiled(tmp_path, case):
    out = tmp_path / "toy"
    save_dataset(toy_dataset(), out)
    BAD_V2[case][0](out)
    return out


@pytest.mark.parametrize("case", sorted(BAD_V2))
def test_bad_v2_directory_raises_documented_error(tmp_path, case):
    _, error, fragment = BAD_V2[case]
    with pytest.raises(error, match=fragment):
        load_dataset(_spoiled(tmp_path, case))


# every command that loads a dataset, with ``{ds}`` for the spoiled one
LOADING_COMMANDS = {
    "score": ["score", "{ds}", "--kind", "vdw", "--out", "{out}"],
    "merge": ["merge", "{ds}", "{ds}", "--out", "{out}"],
    "select": ["select", "{ds}", "--field", "disease", "--keyword", "aml",
               "--out", "{out}"],
    "partition": ["partition", "{ds}", "--sizes", "1,1", "--out", "{out}"],
    "median-cor": ["median-cor", "{ds}", "--out", "{out}"],
    "pairwise": ["pairwise", "{ds}", "--out", "{out}"],
    "test": ["test", "{ds}", "--test", "kw", "--field", "disease",
             "--out", "{out}"],
    "pca": ["pca", "{ds}", "--features", "GATA3,MYC", "--out-svg", "{out}"],
    "factor-plot": ["factor-plot", "{ds}", "{ds}", "{ds}", "--out-svg", "{out}"],
    "split-het": ["split-het", "{ds}", "--feature", "GATA3"],
}


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_V2))
def test_bad_v2_directory_exit_2_in_every_command(tmp_path, capsys, case,
                                                  command):
    ds = _spoiled(tmp_path, case)
    argv = [a.format(ds=ds, out=tmp_path / "out")
            for a in LOADING_COMMANDS[command]]
    assert main(argv) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# a repeated feature name, in either format
# ---------------------------------------------------------------------------

def _repeated_feature(root, version):
    """The toy dataset with features GATA3, MYC, GATA3: (directory, the
    file that names the features).  A Dataset refuses the repeat, so the
    third row is saved as DUP and renamed in the file."""
    toy = toy_dataset()
    values = toy.data.values
    ds = replace(toy, data=DataMatrix(("GATA3", "MYC", "DUP"), toy.data.col_names,
                                      np.vstack([values, values[:1]])))
    if version == 1:
        write_v1(ds, root)
        file = "data.tsv"
    else:
        save_dataset(ds, root)
        file = "features.txt"
    path = root / file
    path.write_text(path.read_text().replace("DUP", "GATA3"))
    return root, file


@pytest.mark.parametrize("version", [1, 2])
def test_repeated_feature_name_is_a_parse_error(tmp_path, version):
    root, file = _repeated_feature(tmp_path / "rep", version)
    with pytest.raises(ParseError, match=f"^{file}: duplicate feature name: 'GATA3'$"):
        load_dataset(root)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
def test_repeated_feature_name_exit_2_in_every_command(tmp_path, capsys, command,
                                                       version):
    root, file = _repeated_feature(tmp_path / "rep", version)
    argv = [a.format(ds=root, out=tmp_path / "out") for a in LOADING_COMMANDS[command]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {file}: duplicate feature name: 'GATA3'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep"]


# feature names a dataset file can hold: no tab, line break or byte-order mark
FEATURE_NAMES = st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\t\r\n\ufeff"),
                        min_size=1, max_size=6)


@st.composite
def repeated_feature_datasets(draw):
    """(names with one repeat, values, format version): any names, and
    values with NaN, ties, huge and subnormal numbers."""
    names = draw(st.lists(FEATURE_NAMES, min_size=1, max_size=5, unique=True))
    at = draw(st.integers(0, len(names)))
    names.insert(at, draw(st.sampled_from(names)))
    cells = st.sampled_from([NA, 0.0, 1.0, -2.5, 1e300, 5e-324]) | st.floats(
        allow_infinity=False)
    values = draw(st.lists(st.lists(cells, min_size=3, max_size=3),
                           min_size=len(names), max_size=len(names)))
    return names, np.array(values), draw(st.sampled_from([1, 2]))


@settings(max_examples=25, deadline=None)
@given(repeated_feature_datasets())
def test_repeated_feature_name_fuzz_exit_2_in_every_command(tmp_path_factory, case):
    names, values, version = case
    root = tmp_path_factory.mktemp("rep")
    # saved under placeholder names, which the feature file then replaces
    cols = ("s1", "s2", "s3")
    ds = Dataset(DataMatrix(tuple(f"row{i}" for i in range(len(names))), cols, values),
                 InfoMatrix(("disease",), cols, (("aml", "aml", "control"),)),
                 name="rep")
    if version == 1:
        write_v1(ds, root / "ds")
        file = "data.tsv"
        lines = (root / "ds" / file).read_text().split("\n")
        text = "\n".join(lines[:1] + [name + line[line.index("\t"):]
                                      for name, line in zip(names, lines[1:])])
        (root / "ds" / file).write_text(text + "\n")
    else:
        save_dataset(ds, root / "ds")
        file = "features.txt"
        (root / "ds" / file).write_text("".join(f"{name}\n" for name in names),
                                        encoding="utf-8")
    repeated = next(n for i, n in enumerate(names) if n in names[:i])
    for command, argv in LOADING_COMMANDS.items():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([a.format(ds=root / "ds", out=root / "out") for a in argv])
        assert (code, err.getvalue()) == (
            2, f"error: {file}: duplicate feature name: {repeated!r}\n"), command
        assert [p.name for p in root.iterdir()] == ["ds"]


# ---------------------------------------------------------------------------
# a missing input
# ---------------------------------------------------------------------------

# every input a command reads other than a dataset, with ``{missing}`` for
# the absent path
FILE_READING_COMMANDS = {
    "ingest series": ["ingest", "{missing}", "{fixtures}/annotation_small.tsv",
                      "--out", "{out}"],
    "ingest annotation": ["ingest", "{fixtures}/series_small.txt", "{missing}",
                          "--out", "{out}"],
    "enrich results": ["enrich", "{missing}", "{fixtures}/sets_small.gmt",
                       "--out", "{out}"],
    "enrich gmt": ["enrich", "{results}", "{missing}", "--out", "{out}"],
    "enrich universe": ["enrich", "{results}", "{fixtures}/sets_small.gmt",
                        "--universe", "{missing}", "--out", "{out}"],
    "pca results": ["pca", "{ds}", "--results", "{missing}", "--top", "2",
                    "--out-svg", "{out}"],
    "config": ["--config", "{missing}", "split-het", "{ds}", "--feature", "GATA3"],
}


@pytest.mark.parametrize("command",
                         sorted(FILE_READING_COMMANDS) + sorted(LOADING_COMMANDS))
def test_missing_input_exit_2_in_every_command(tmp_path, capsys, command):
    ds, results, missing = tmp_path / "toy", tmp_path / "r.tsv", tmp_path / "absent"
    save_dataset(toy_dataset(), ds)
    fabricated_results(results)
    argv = FILE_READING_COMMANDS.get(command) or [
        a.replace("{ds}", "{missing}") for a in LOADING_COMMANDS[command]]
    assert main([a.format(ds=ds, results=results, missing=missing, fixtures=FIXTURES,
                          out=tmp_path / "out") for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {missing}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.tsv", "toy"]
