import json
import math
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

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
            == {"data.tsv", "info.tsv", "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == 1 and manifest["name"] == "toy"

    def test_missing_values_written_as_na(self, tmp_path):
        out = tmp_path / "toy"
        save_dataset(toy_dataset(), out)
        assert "\tNA" in (out / "data.tsv").read_text()

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
        out = tmp_path / "toy"
        save_dataset(toy_dataset(), out)
        data = (out / "data.tsv").read_text().replace("-3.25", "wat")
        (out / "data.tsv").write_text(data)
        with pytest.raises(ParseError, match="wat"):
            load_dataset(out)

    def test_tab_in_cell_rejected_at_save(self, tmp_path):
        info = InfoMatrix(("disease",), ("s1",), (("a\tb",),))
        data = DataMatrix(("G",), ("s1",), np.array([[1.0]]))
        ds = Dataset(data, info, name="bad")
        with pytest.raises(ValueError, match="tab"):
            save_dataset(ds, tmp_path / "bad")

    def test_annotation_result_is_plain_container(self):
        res = AnnotationResult(
            DataMatrix(("G",), ("s1",), np.array([[1.0]])),
            InfoMatrix((), ("s1",), ()), 0, 0)
        assert res.n_unmapped == 0


# ---------------------------------------------------------------------------
# the data.tsv codec
# ---------------------------------------------------------------------------

def dataset_of(values):
    values = np.asarray(values, dtype=float)
    rows = tuple(f"g{i}" for i in range(values.shape[0]))
    cols = tuple(f"s{j}" for j in range(values.shape[1]))
    return Dataset(DataMatrix(rows, cols, values), InfoMatrix((), cols, ()),
                   name="codec")


def write_data(tmp_path, text):
    """A dataset directory whose data.tsv is ``text``."""
    out = tmp_path / "ds"
    save_dataset(dataset_of([[1.0]]), out)
    (out / "data.tsv").write_bytes(text.encode())
    header = text.splitlines()[0].split("\t")
    (out / "info.tsv").write_text("\t".join(["field", *header[1:]]) + "\n")
    return out


class TestDataCodec:
    def test_special_values_round_trip_bitwise(self, tmp_path):
        vals = np.array([[NA, -0.0, np.inf, -np.inf, 5e-324, 0.1,
                          -1.7976931348623157e308, 1e-05, 1e16]])
        save_dataset(dataset_of(vals), tmp_path / "ds")
        text = (tmp_path / "ds" / "data.tsv").read_text()
        assert text.splitlines()[1] == (
            "g0\tNA\t-0.0\tinf\t-inf\t5e-324\t0.1"
            "\t-1.7976931348623157e+308\t1e-05\t1e+16")
        back = load_dataset(tmp_path / "ds").data.values
        assert back.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("shape", [(0, 3), (1, 4), (5, 1), (3, 0)])
    def test_degenerate_shapes_round_trip(self, tmp_path, shape):
        ds = dataset_of(np.arange(float(shape[0] * shape[1])).reshape(shape))
        save_dataset(ds, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds") == ds

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
    save_dataset(toy_dataset(), out)
    spoil(out)
    with pytest.raises(ManifestError, match=fragment):
        load_dataset(out)
