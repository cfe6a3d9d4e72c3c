import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankmerge import cli, rstats
from rankmerge.cli import _partial_file, main
from rankmerge.ingest import load_dataset, save_dataset
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.numerics import LogP
from rankmerge.rstats import TestResult as Result
from rankmerge.rstats import read_results_tsv, write_results_tsv

FIXTURES = Path(__file__).parent / "fixtures"
NA = math.nan


def make_ds(root, name, rows, cols, values, fields=(), cells=(),
            score="none"):
    data = DataMatrix(tuple(rows), tuple(cols),
                      np.array(values, dtype=float))
    info = InfoMatrix(tuple(fields), tuple(cols),
                      tuple(tuple(c) for c in cells))
    path = root / name
    save_dataset(Dataset(data, info, name=name, score=score), path)
    return str(path)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# ingest / score
# ---------------------------------------------------------------------------

class TestIngestCommand:
    def test_small_series(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code, stdout, _ = run(capsys, "ingest",
                              FIXTURES / "series_small.txt",
                              FIXTURES / "annotation_small.tsv",
                              "--out", out)
        assert code == 0
        assert "probes=3 features=2" in stdout
        ds = load_dataset(out)
        assert set(ds.data.row_names) == {"GATA3", "MYC"}
        assert ds.name == "series_small"
        assert not (tmp_path / "ds.partial").exists()

    def test_malformed_series_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "ingest",
                              FIXTURES / "bad_missing_end.txt",
                              FIXTURES / "annotation_small.tsv",
                              "--out", tmp_path / "ds")
        assert code == 2
        assert "line 3" in stderr
        assert not (tmp_path / "ds").exists()

    def test_multi_policy_changes_row_count(self, tmp_path, capsys):
        code, first_out, _ = run(capsys, "ingest",
                                 FIXTURES / "series_small.txt",
                                 FIXTURES / "annotation_multi.tsv",
                                 "--out", tmp_path / "first",
                                 "--multi-policy", "first")
        assert code == 0 and "features=2" in first_out
        code, drop_out, _ = run(capsys, "ingest",
                                FIXTURES / "series_small.txt",
                                FIXTURES / "annotation_multi.tsv",
                                "--out", tmp_path / "drop",
                                "--multi-policy", "drop")
        assert code == 0 and "features=1" in drop_out
        assert "multi_dropped=1" in drop_out

    def test_existing_output_dir_refused(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "ds").mkdir()
        monkeypatch.setattr(cli, "parse_series_matrix", _not_called)
        code, _, stderr = run(capsys, "ingest",
                              FIXTURES / "series_small.txt",
                              FIXTURES / "annotation_small.tsv",
                              "--out", tmp_path / "ds")
        assert code == 1 and "already exists" in stderr


def _not_called(*args, **kwargs):
    raise AssertionError("an input was read")


@pytest.mark.parametrize("argv", [
    ["score", "{ds}", "--kind", "vdw"],
    ["merge", "{ds}", "{ds}"],
    ["select", "{ds}", "--field", "grp", "--keyword", "a"],
    ["partition", "{ds}", "--sizes", "2,1"],
])
def test_existing_output_refused_before_loading(tmp_path, capsys, monkeypatch,
                                                argv):
    """An existing --out (for partition, an existing partN) is refused
    before any dataset is read, and nothing is written."""
    ds = line_dataset(tmp_path)
    out = tmp_path / "out"
    (out / "part2" if argv[0] == "partition" else out).mkdir(parents=True)
    monkeypatch.setattr(cli, "load_dataset", _not_called)
    code, _, stderr = run(capsys, *[a.format(ds=ds) for a in argv], "--out", out)
    assert code == 1 and "already exists" in stderr
    assert sorted(p.name for p in out.iterdir()) == (
        ["part2"] if argv[0] == "partition" else [])


class TestScoreCommand:
    def ingested(self, tmp_path, capsys):
        out = tmp_path / "raw"
        code, _, _ = run(capsys, "ingest", FIXTURES / "series_three.txt",
                         FIXTURES / "annotation_three.tsv", "--out", out)
        assert code == 0
        return out

    def test_vdw_scores_middle_rank_zero(self, tmp_path, capsys):
        raw = self.ingested(tmp_path, capsys)
        code, stdout, _ = run(capsys, "score", raw, "--kind", "vdw",
                              "--out", tmp_path / "scored")
        assert code == 0 and "kind=vdw" in stdout
        ds = load_dataset(tmp_path / "scored")
        assert ds.score == "vdw"
        # columns are scored independently; each sample has 3 features,
        # so the middle rank maps to the exact median score 0
        assert np.all(np.sum(ds.data.values == 0.0, axis=0) == 1)
        assert np.all(ds.data.values[list(ds.data.row_names).index("AAA")]
                      == 0.0)

    def test_double_scoring_exit_4(self, tmp_path, capsys):
        raw = self.ingested(tmp_path, capsys)
        run(capsys, "score", raw, "--kind", "ecdf",
            "--out", tmp_path / "once")
        code, _, stderr = run(capsys, "score", tmp_path / "once",
                              "--kind", "vdw", "--out", tmp_path / "twice")
        assert code == 4 and "already carries" in stderr


# ---------------------------------------------------------------------------
# merge / select / partition
# ---------------------------------------------------------------------------

class TestMergeCommand:
    def test_disjoint_features_exit_5(self, tmp_path, capsys):
        a = make_ds(tmp_path, "a", ["X"], ["a1"], [[1.0]])
        b = make_ds(tmp_path, "b", ["Y"], ["b1"], [[2.0]])
        code, _, stderr = run(capsys, "merge", a, b,
                              "--out", tmp_path / "m")
        assert code == 5 and "common" in stderr

    def test_single_dataset_rejected(self, tmp_path, capsys):
        a = make_ds(tmp_path, "a", ["X"], ["a1"], [[1.0]])
        code, _, _ = run(capsys, "merge", a, "--out", tmp_path / "m")
        assert code == 1

    def test_two_datasets_merge(self, tmp_path, capsys):
        a = make_ds(tmp_path, "a", ["X", "Y"], ["a1", "a2"],
                    [[1, 2], [3, 4]])
        b = make_ds(tmp_path, "b", ["Y", "X"], ["b1"], [[5], [6]])
        code, stdout, _ = run(capsys, "merge", a, b, "--out", tmp_path / "m")
        assert code == 0 and "features=2 samples=3" in stdout
        merged = load_dataset(tmp_path / "m")
        assert merged.data.col_names == ("a:a1", "a:a2", "b:b1")


class TestSelectCommand:
    def base(self, tmp_path):
        return make_ds(tmp_path, "base", ["X"], ["s1", "s2", "s3"],
                       [[1.0, 2.0, 3.0]], fields=["disease"],
                       cells=[("AML", "control", "aml relapse")])

    def test_substring_case_insensitive(self, tmp_path, capsys):
        ds = self.base(tmp_path)
        code, stdout, _ = run(capsys, "select", ds, "--field", "disease",
                              "--keyword", "aml", "--out", tmp_path / "sel")
        assert code == 0 and "samples=2 of 3" in stdout
        assert load_dataset(tmp_path / "sel").data.col_names == ("s1", "s3")

    def test_invert_drops_matches(self, tmp_path, capsys):
        ds = self.base(tmp_path)
        code, _, _ = run(capsys, "select", ds, "--field", "disease",
                         "--keyword", "aml", "--invert",
                         "--out", tmp_path / "rest")
        assert code == 0
        assert load_dataset(tmp_path / "rest").data.col_names == ("s2",)

    def test_unknown_field_usage_error(self, tmp_path, capsys):
        ds = self.base(tmp_path)
        code, _, stderr = run(capsys, "select", ds, "--field", "tissue",
                              "--keyword", "aml", "--out", tmp_path / "sel")
        assert code == 1 and "disease" in stderr

    def test_no_match_reports_values(self, tmp_path, capsys):
        ds = self.base(tmp_path)
        code, _, stderr = run(capsys, "select", ds, "--field", "disease",
                              "--keyword", "melanoma",
                              "--out", tmp_path / "sel")
        assert code == 1 and "control" in stderr


class TestPartitionCommand:
    def base(self, tmp_path, name="base"):
        rng = np.random.default_rng(0)
        return make_ds(tmp_path, name, ["X", "Y"],
                       [f"s{i}" for i in range(6)],
                       rng.normal(size=(2, 6)))

    def test_sizes_must_sum(self, tmp_path, capsys):
        ds = self.base(tmp_path)
        code, _, stderr = run(capsys, "partition", ds, "--sizes", "2,2",
                              "--out", tmp_path / "parts")
        assert code == 1 and "6" in stderr

    def test_partition_and_determinism(self, tmp_path, capsys):
        ds = self.base(tmp_path)
        code, stdout, _ = run(capsys, "partition", ds, "--sizes", "4,2",
                              "--seed", "3", "--out", tmp_path / "p1")
        assert code == 0 and "parts=2" in stdout
        run(capsys, "--seed", "3", "partition", ds, "--sizes", "4,2",
            "--out", tmp_path / "p2")
        first = load_dataset(tmp_path / "p1" / "part1")
        again = load_dataset(tmp_path / "p2" / "part1")
        assert first.data.col_names == again.data.col_names
        assert first.seed == 3
        assert load_dataset(tmp_path / "p1" / "part2").n_samples == 2

    def test_bad_sizes_string(self, tmp_path, capsys):
        ds = self.base(tmp_path)
        code, _, stderr = run(capsys, "partition", ds, "--sizes", "2,x",
                              "--out", tmp_path / "p")
        assert code == 1 and "comma-separated" in stderr


# ---------------------------------------------------------------------------
# median-cor / pairwise
# ---------------------------------------------------------------------------

class TestMedianCorCommand:
    def test_single_dataset_unit_matrix(self, tmp_path, capsys):
        ds = make_ds(tmp_path, "solo", ["X", "Y", "Z"], ["s1", "s2"],
                     [[1, 2], [3, 4], [5, 6]])
        out = tmp_path / "cor.tsv"
        code, _, _ = run(capsys, "median-cor", ds, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dataset\tsolo"
        assert lines[1] == "solo\t1.000000"
        assert "threshold=NA" in lines[2]

    def test_flipped_pair_negative_one(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(12, 3))
        rows = [f"g{i}" for i in range(12)]
        a = make_ds(tmp_path, "a", rows, ["a1", "a2", "a3"], vals)
        b = make_ds(tmp_path, "b", rows, ["b1", "b2", "b3"], -vals)
        out = tmp_path / "cor.tsv"
        code, stdout, _ = run(capsys, "median-cor", a, b, "--out", out)
        assert code == 0 and "common_rows=12" in stdout
        lines = out.read_text().splitlines()
        assert lines[1] == "a\t1.000000\t-1.000000"
        assert lines[2] == "b\t-1.000000\t1.000000"
        # 12 common rows: threshold line is present and %.4f formatted
        assert "one_sided_threshold=0." in lines[3]

    def test_no_common_rows_exit_5(self, tmp_path, capsys):
        a = make_ds(tmp_path, "a", ["X"], ["a1"], [[1.0]])
        b = make_ds(tmp_path, "b", ["Y"], ["b1"], [[2.0]])
        code, _, _ = run(capsys, "median-cor", a, b,
                         "--out", tmp_path / "cor.tsv")
        assert code == 5


class TestPairwiseCommand:
    def test_three_rows_three_lines(self, tmp_path, capsys):
        ds = make_ds(tmp_path, "d", ["a", "b", "c"], ["s1", "s2", "s3"],
                     [[1, 2, 3], [1, 2, 3], [3, 1, 2]])
        out = tmp_path / "pairs.tsv"
        code, stdout, _ = run(capsys, "pairwise", ds, "--out", out)
        assert code == 0 and "pairs=3 skipped=0" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        first = lines[0].split("\t")
        assert first[:2] == ["a", "b"]
        assert float(first[2]) == pytest.approx(1.0)

    def test_thread_count_is_invisible_in_output(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(rstats, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(23, 7))
        gappy = vals.copy()
        gappy[rng.random(vals.shape) < 0.2] = NA
        for name, values in (("d", vals), ("gappy", gappy)):
            ds = make_ds(tmp_path, name, [f"g{i}" for i in range(23)],
                         [f"s{j}" for j in range(7)], values)
            for threads in ("1", "4"):
                code, _, _ = run(capsys, "pairwise", ds, "--threads", threads,
                                 "--out", tmp_path / f"{name}{threads}.tsv")
                assert code == 0
            assert (tmp_path / f"{name}1.tsv").read_bytes() \
                == (tmp_path / f"{name}4.tsv").read_bytes()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_block_size_is_no_option(self, tmp_path, capsys, how):
        ds = make_ds(tmp_path, "d", ["a", "b"], ["s1", "s2", "s3"],
                     [[1, 2, 3], [3, 1, 2]])
        out = tmp_path / "p.txt"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairwise": {"chunk": 4}}))
        extra = ["--chunk", "4"] if how == "flag" else ["--config", cfg]
        code, stdout, stderr = run(capsys, "pairwise", ds, *extra, "--out", out)
        assert code == 1 and stdout == "" and "chunk" in stderr
        assert not out.exists()

    def test_threads_below_one_exit_1(self, tmp_path, capsys):
        ds = make_ds(tmp_path, "d", ["a", "b"], ["s1", "s2", "s3"],
                     [[1, 2, 3], [3, 1, 2]])
        out = tmp_path / "p.txt"
        code, _, stderr = run(capsys, "pairwise", ds, "--threads", "0",
                              "--out", out)
        assert code == 1 and "threads" in stderr
        assert not out.exists()

    def test_failure_leaves_no_partial_file(self, tmp_path, capsys):
        ds = make_ds(tmp_path, "d", ["a", "b"], ["s1", "s2"], [[1, 2], [3, 4]])
        out = tmp_path / "pp.txt"
        code, _, stderr = run(capsys, "pairwise", ds, "--out", out)
        assert code == 1 and "at least 3 columns" in stderr
        assert not out.exists()
        assert not (tmp_path / "pp.txt.partial").exists()


# ---------------------------------------------------------------------------
# test command
# ---------------------------------------------------------------------------

def two_group_dataset(root, planted="g4", n_feat=20, per_group=6, seed=8):
    rng = np.random.default_rng(seed)
    rows = [f"g{i}" for i in range(n_feat)]
    vals = rng.normal(size=(n_feat, 2 * per_group))
    if planted is not None:
        vals[int(planted[1:]), :per_group] += 5.0
    cells = [tuple(["sel"] * per_group + ["rest"] * per_group)]
    return make_ds(root, "grouped", rows,
                   [f"s{j}" for j in range(2 * per_group)], vals,
                   fields=["grp"], cells=cells)


class TestTestCommand:
    def test_single_dataset_needs_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", None)  # none may be read
        code, _, stderr = run(capsys, "test", tmp_path / "missing", "--test",
                              "kw", "--out", tmp_path / "r.tsv")
        assert code == 1 and "--field" in stderr

    @pytest.mark.parametrize("command", ["test", "select"])
    def test_unknown_config_mode_exit_1(self, tmp_path, capsys, command):
        ds = two_group_dataset(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "regex"}))
        extra = ["--test", "kw"] if command == "test" else []
        code, _, stderr = run(capsys, command, ds, *extra, "--field", "grp",
                              "--keyword", "sel", "--config", cfg,
                              "--out", tmp_path / "o")
        assert code == 1 and "'regex'" in stderr

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path)
        out = tmp_path / "kw.tsv"
        code, _, stderr = run(capsys, "test", ds, "--test", "kw",
                              "--field", "grp", "--fdr", "1.5", "--out", out)
        assert code == 1 and "threshold must be in (0, 1)" in stderr
        assert not out.exists()
        assert not (tmp_path / "kw.tsv.partial").exists()

    def test_single_valued_field_degenerate(self, tmp_path, capsys):
        ds = make_ds(tmp_path, "flat", ["X"], ["s1", "s2"], [[1.0, 2.0]],
                     fields=["grp"], cells=[("same", "same")])
        code, _, _ = run(capsys, "test", ds, "--test", "kw",
                         "--field", "grp", "--out", tmp_path / "r.tsv")
        assert code == 6

    def test_planted_feature_ranks_first(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path)
        out = tmp_path / "r.tsv"
        code, stdout, _ = run(capsys, "test", ds, "--test", "kw",
                              "--field", "grp", "--out", out)
        assert code == 0
        ranked = read_results_tsv(out)
        assert ranked[0].feature == "g4"
        assert "significant=" in stdout

    def test_null_data_nothing_significant(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path, planted=None, n_feat=50, seed=9)
        code, stdout, _ = run(capsys, "test", ds, "--test", "kw",
                              "--field", "grp", "--out", tmp_path / "r.tsv")
        assert code == 0 and "significant=0" in stdout

    def test_wilcoxon_keyword_group(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path)
        out = tmp_path / "w.tsv"
        code, _, _ = run(capsys, "test", ds, "--test", "wilcoxon",
                         "--field", "grp", "--keyword", "sel",
                         "--out", out)
        assert code == 0
        ranked = read_results_tsv(out)
        assert ranked[0].feature == "g4" and ranked[0].direction == "over"

    def test_wilcoxon_needs_keyword_for_single_dataset(self, tmp_path,
                                                       capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", None)  # none may be read
        code, _, stderr = run(capsys, "test", tmp_path / "missing", "--test",
                              "wilcoxon", "--field", "grp",
                              "--out", tmp_path / "r.tsv")
        assert code == 1 and "--keyword" in stderr

    def test_keyword_matching_everything_degenerate(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path)
        code, _, _ = run(capsys, "test", ds, "--test", "wilcoxon",
                         "--field", "grp", "--keyword", "s",
                         "--out", tmp_path / "r.tsv")
        assert code == 6

    def test_two_dataset_groups(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        rows = [f"g{i}" for i in range(10)]
        a_vals = rng.normal(size=(10, 8))
        b_vals = rng.normal(size=(10, 8))
        a_vals[3] += 6.0
        a = make_ds(tmp_path, "a", rows, [f"a{j}" for j in range(8)], a_vals)
        b = make_ds(tmp_path, "b", rows, [f"b{j}" for j in range(8)], b_vals)
        out = tmp_path / "r.tsv"
        code, _, _ = run(capsys, "test", a, b, "--test", "wilcoxon",
                         "--out", out)
        assert code == 0
        assert read_results_tsv(out)[0].feature == "g3"

    @pytest.mark.parametrize("flags, config", [
        (["--field", "x"], {}),
        (["--keyword", "kw"], {}),
        (["--field", "x", "--keyword", "kw"], {}),
        ([], {"field": "x"}),
        ([], {"test": {"keyword": "kw"}}),
    ])
    def test_several_datasets_refuse_field_and_keyword(self, tmp_path, capsys,
                                                       monkeypatch, flags,
                                                       config):
        # the datasets are the groups: a field or keyword would be ignored
        rows, cols = ["X"], ["s1", "s2"]
        a, b = (make_ds(tmp_path, n, rows, cols, [[1.0, 2.0]]) for n in "ab")
        monkeypatch.setattr(cli, "load_dataset", None)  # none may be read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "r.tsv"
        code, stdout, stderr = run(capsys, "test", a, b, "--test", "kw", *flags,
                                   "--config", cfg, "--out", out)
        assert code == 1 and stdout == ""
        assert stderr == ("error: --field and --keyword split one dataset; "
                          "several datasets are the groups themselves\n")
        assert not out.exists()

    def test_wilcoxon_rejects_three_groups(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", None)  # none may be read
        dirs = [tmp_path / n for n in ("a", "b", "c")]
        code, _, stderr = run(capsys, "test", *dirs, "--test", "wilcoxon",
                              "--out", tmp_path / "r.tsv")
        assert code == 1 and "two dataset groups" in stderr

    def test_empty_group_dataset_degenerate(self, tmp_path, capsys):
        a = make_ds(tmp_path, "a", ["X"], ["s1", "s2"], [[1.0, 2.0]])
        empty = make_ds(tmp_path, "empty", ["X"], [], np.zeros((1, 0)))
        code, _, stderr = run(capsys, "test", a, empty, "--test", "kw",
                              "--out", tmp_path / "r.tsv")
        assert code == 6 and "empty group dataset 'empty'" in stderr

    @pytest.mark.parametrize("test", [
        ["wilcoxon"], ["kw", "--keyword", "sel"]])
    @pytest.mark.parametrize("rows", [sorted, list])
    def test_keyword_split_equals_its_select_halves(self, tmp_path, capsys,
                                                    test, rows):
        # one dataset split by --keyword, and the same two groups passed
        # as datasets, give the same table byte for byte
        rng = np.random.default_rng(12)
        vals = rng.integers(0, 4, size=(30, 14)).astype(float)
        vals[rng.random(vals.shape) < 0.1] = NA
        ds = make_ds(tmp_path, "d", rows(f"g{i}" for i in range(30)),
                     [f"s{j}" for j in range(14)], vals, fields=["grp"],
                     cells=[rng.choice(["sel", "rest"], size=14)])
        for flag, half in (([], "a"), (["--invert"], "b")):
            run(capsys, "select", ds, "--field", "grp", "--keyword", "sel",
                *flag, "--out", tmp_path / half)
        one, two = tmp_path / "one.tsv", tmp_path / "two.tsv"
        assert run(capsys, "test", ds, "--test", *test, "--field", "grp",
                   "--keyword", "sel", "--out", one)[0] == 0
        assert run(capsys, "test", tmp_path / "a", tmp_path / "b", "--test",
                   test[0], "--out", two)[0] == 0
        assert one.read_bytes() == two.read_bytes()

    def test_bad_alternative_value(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path)
        code, _, _ = run(capsys, "test", ds, "--test", "wilcoxon",
                         "--field", "grp", "--keyword", "sel",
                         "--alternative", "both", "--out", tmp_path / "r.tsv")
        assert code == 1


def test_cli_calls_each_test_driver_once():
    # one group-forming path feeds one call per test
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called.count("kw_per_feature") == 1
    assert called.count("wilcoxon_per_feature") == 1
    assert called.count("wilcoxon_group_vs_rest") == 0


# ---------------------------------------------------------------------------
# pca / factor-plot
# ---------------------------------------------------------------------------

def line_dataset(root):
    # samples on a line: all variance on the first component
    return make_ds(root, "line", ["X", "Y"], ["s1", "s2", "s3"],
                   [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]],
                   fields=["grp"], cells=[("a", "a", "b")])


class TestPcaCommand:
    def test_line_data_pc2_empty(self, tmp_path, capsys):
        ds = line_dataset(tmp_path)
        svg, tsv = tmp_path / "p.svg", tmp_path / "p.tsv"
        code, stdout, _ = run(capsys, "pca", ds, "--features", "X,Y",
                              "--label-field", "grp",
                              "--out-svg", svg, "--out-tsv", tsv)
        assert code == 0 and "pc1_share=1.000" in stdout
        rows = [line.split("\t")
                for line in tsv.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["s1", "s2", "s3"]
        assert all(abs(float(r[2])) < 1e-8 for r in rows)
        assert svg.read_text().startswith('<?xml version="1.0"')

    def test_unknown_feature_exit_7_with_suggestion(self, tmp_path, capsys):
        ds = make_ds(tmp_path, "d", ["GATA3", "MYC"], ["s1", "s2", "s3"],
                     [[1, 2, 3], [3, 1, 2]])
        code, _, stderr = run(capsys, "pca", ds, "--features", "GATA",
                              "--out-svg", tmp_path / "p.svg")
        assert code == 7 and "GATA3" in stderr

    def test_top_takes_ranked_features(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path)
        results = tmp_path / "r.tsv"
        run(capsys, "test", ds, "--test", "kw", "--field", "grp",
            "--out", results)
        svg, tsv = tmp_path / "p.svg", tmp_path / "p.tsv"
        code, stdout, _ = run(capsys, "pca", ds, "--top", "3",
                              "--results", results, "--label-field", "grp",
                              "--out-svg", svg, "--out-tsv", tsv)
        assert code == 0 and "variables=3" in stdout
        # the planted feature separates the groups along the plane
        pts = [line.split("\t")
               for line in tsv.read_text().splitlines()[1:]]
        sel = [float(p[1]) for p in pts if p[3] == "sel"]
        rest = [float(p[1]) for p in pts if p[3] == "rest"]
        assert abs(np.mean(sel) - np.mean(rest)) > 1.0

    def test_features_and_top_together_rejected(self, tmp_path, capsys):
        ds = line_dataset(tmp_path)
        code, _, stderr = run(capsys, "pca", ds, "--features", "X",
                              "--top", "2", "--results", "whatever",
                              "--out-svg", tmp_path / "p.svg")
        assert code == 1 and "exactly one" in stderr

    @pytest.mark.parametrize("flags, message", [
        ([], "exactly one of --features and --top is required"),
        (["--features", "X", "--top", "2"],
         "exactly one of --features and --top is required"),
        (["--features", ",,"], "--features lists no symbols"),
        (["--top", "0", "--results", "r.tsv"], "--top must be positive"),
        (["--top", "2"], "--top needs --results (a ranked results table)"),
    ])
    def test_option_misuse_refused_before_any_read(self, tmp_path, capsys,
                                                   monkeypatch, flags,
                                                   message):
        monkeypatch.setattr(cli, "load_dataset", None)  # none may be read
        monkeypatch.setattr(cli, "read_results_tsv", None)
        code, stdout, stderr = run(capsys, "pca", tmp_path / "missing", *flags,
                                   "--out-svg", tmp_path / "p.svg")
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n")

    def test_top_checked_before_the_results_are_read(self, tmp_path, capsys):
        ds = line_dataset(tmp_path)
        code, _, stderr = run(capsys, "pca", ds, "--top", "0",
                              "--results", tmp_path / "missing.tsv",
                              "--out-svg", tmp_path / "p.svg")
        assert code == 1 and "--top must be positive" in stderr
        assert "Errno" not in stderr

    def test_multi_dataset_labels_are_names(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        rows = ["X", "Y", "Z"]
        a = make_ds(tmp_path, "a", rows, ["a1", "a2"],
                    rng.normal(size=(3, 2)))
        b = make_ds(tmp_path, "b", rows, ["b1", "b2"],
                    rng.normal(size=(3, 2)))
        tsv = tmp_path / "p.tsv"
        code, _, _ = run(capsys, "pca", a, b, "--features", "X,Y,Z",
                         "--out-svg", tmp_path / "p.svg", "--out-tsv", tsv)
        assert code == 0
        labels = [line.split("\t")[3]
                  for line in tsv.read_text().splitlines()[1:]]
        assert labels == ["a", "a", "b", "b"]

    def test_multi_dataset_label_field(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        rows = ["X", "Y", "Z"]
        a = make_ds(tmp_path, "a", rows, ["a1", "a2"], rng.normal(size=(3, 2)),
                    fields=["grp"], cells=[("u", "v")])
        b = make_ds(tmp_path, "b", rows, ["b1", "b2"], rng.normal(size=(3, 2)))
        tsv = tmp_path / "p.tsv"
        code, _, _ = run(capsys, "pca", a, b, "--features", "X,Y,Z",
                         "--label-field", "grp",
                         "--out-svg", tmp_path / "p.svg", "--out-tsv", tsv)
        assert code == 0
        labels = [line.split("\t")[3]
                  for line in tsv.read_text().splitlines()[1:]]
        # a dataset without the field labels its samples ""
        assert labels == ["u", "v", "", ""]


class TestFactorPlotCommand:
    def three_datasets(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = [f"g{i}" for i in range(30)]
        base = rng.normal(size=(30, 4))
        dirs = []
        for i, name in enumerate(("one", "two", "three")):
            vals = base + rng.normal(scale=0.1, size=base.shape)
            dirs.append(make_ds(tmp_path, name, rows,
                                [f"{name}{j}" for j in range(4)], vals))
        return dirs

    def test_svg_byte_stable(self, tmp_path, capsys):
        dirs = self.three_datasets(tmp_path)
        run(capsys, "factor-plot", *dirs, "--out-svg", tmp_path / "f1.svg",
            "--out-tsv", tmp_path / "f1.tsv")
        run(capsys, "factor-plot", *dirs, "--out-svg", tmp_path / "f2.svg")
        assert (tmp_path / "f1.svg").read_bytes() \
            == (tmp_path / "f2.svg").read_bytes()
        header = (tmp_path / "f1.tsv").read_text().splitlines()[0]
        assert header == "dataset\tc1\tc2"

    def test_needs_three_datasets(self, tmp_path, capsys):
        dirs = self.three_datasets(tmp_path)[:2]
        code, _, stderr = run(capsys, "factor-plot", *dirs,
                              "--out-svg", tmp_path / "f.svg")
        assert code == 1 and "three" in stderr


# ---------------------------------------------------------------------------
# enrich / split-het
# ---------------------------------------------------------------------------

def fabricated_results(path, n_sig=5, n_total=10):
    rows = []
    for i in range(n_total):
        p = 0.001 if i < n_sig else 0.9
        rows.append(Result(f"G{i}", 1.0, LogP.from_p(p), LogP.from_p(p),
                           "over"))
    with open(path, "w", encoding="utf-8") as fh:
        write_results_tsv(rows, fh)


class TestEnrichCommand:
    def test_toy_enrichment_value(self, tmp_path, capsys):
        results = tmp_path / "r.tsv"
        fabricated_results(results)
        out = tmp_path / "e.tsv"
        code, stdout, _ = run(capsys, "enrich", results,
                              FIXTURES / "sets_small.gmt", "--out", out)
        assert code == 0 and "selected=5 universe=10" in stdout
        lines = out.read_text().splitlines()
        by_name = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        # setX: 4 of its genes in the universe, 3 overlap the 5 selected
        assert by_name["setX"][1:3] == ["4", "3"]
        assert float(by_name["setX"][5]) == pytest.approx(55 / 210, abs=1e-6)
        assert float(by_name["setDisjoint"][5]) == pytest.approx(1.0)

    def test_explicit_universe_file(self, tmp_path, capsys):
        results = tmp_path / "r.tsv"
        fabricated_results(results)
        universe = tmp_path / "u.txt"
        universe.write_text("".join(f"G{i}\n" for i in range(8)))
        out = tmp_path / "e.tsv"
        code, stdout, _ = run(capsys, "enrich", results,
                              FIXTURES / "sets_small.gmt",
                              "--universe", universe, "--out", out)
        assert code == 0 and "universe=8" in stdout

    def test_empty_universe_exit_8(self, tmp_path, capsys):
        results = tmp_path / "r.tsv"
        fabricated_results(results)
        universe = tmp_path / "u.txt"
        universe.write_text("\n   \n")
        code, _, stderr = run(capsys, "enrich", results,
                              FIXTURES / "sets_small.gmt",
                              "--universe", universe,
                              "--out", tmp_path / "e.tsv")
        assert code == 8 and "universe" in stderr

    def test_malformed_gmt_exit_2(self, tmp_path, capsys):
        results = tmp_path / "r.tsv"
        fabricated_results(results)
        bad = tmp_path / "bad.gmt"
        bad.write_text("only_name\n")
        code, _, _ = run(capsys, "enrich", results, bad,
                         "--out", tmp_path / "e.tsv")
        assert code == 2


class TestSplitHetCommand:
    def test_antagonistic_halves(self, tmp_path, capsys):
        # second half of the samples mirrors the first, so the median
        # profiles of the two sign groups are exact negations
        rng = np.random.default_rng(13)
        rows = [f"g{i}" for i in range(200)] + ["PIVOT"]
        half = rng.normal(size=(200, 5))
        pivot = np.array([[1.0] * 5 + [-1.0] * 5])
        base = np.vstack([np.hstack([half, -half]), pivot])
        ds = make_ds(tmp_path, "het", rows, [f"s{j}" for j in range(10)],
                     base)
        code, stdout, _ = run(capsys, "split-het", ds,
                              "--feature", "PIVOT")
        assert code == 0
        assert "feature=PIVOT" in stdout
        assert "n_pos=5 n_neg=5" in stdout
        r = float(stdout.split("r=")[1].split()[0])
        assert r < -0.9

    def test_unknown_feature_exit_7(self, tmp_path, capsys):
        ds = make_ds(tmp_path, "d", ["ALPHA", "BETA"], ["s1", "s2"],
                     [[1.0, -1.0], [2.0, 3.0]])
        code, _, stderr = run(capsys, "split-het", ds,
                              "--feature", "ALPH")
        assert code == 7 and "ALPHA" in stderr


# ---------------------------------------------------------------------------
# config file, flag placement, atomicity
# ---------------------------------------------------------------------------

class TestConfigAndPlumbing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_supplies_defaults(self, tmp_path, capsys):
        ds = TestPartitionCommand().base(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        run(capsys, "--config", cfg, "partition", ds, "--sizes", "3,3",
            "--out", tmp_path / "p")
        assert load_dataset(tmp_path / "p" / "part1").seed == 5

    def test_flag_beats_config(self, tmp_path, capsys):
        ds = TestPartitionCommand().base(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        run(capsys, "--config", cfg, "partition", ds, "--sizes", "3,3",
            "--seed", "9", "--out", tmp_path / "p")
        assert load_dataset(tmp_path / "p" / "part1").seed == 9

    def test_per_command_section_beats_top_level(self, tmp_path, capsys):
        ds = TestPartitionCommand().base(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "partition": {"seed": 11}}))
        run(capsys, "--config", cfg, "partition", ds, "--sizes", "3,3",
            "--out", tmp_path / "p")
        assert load_dataset(tmp_path / "p" / "part1").seed == 11

    def test_config_section_for_other_command_ignored(self, tmp_path,
                                                      capsys):
        ds = TestPartitionCommand().base(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"select": {"seed": 11}}))
        run(capsys, "--config", cfg, "partition", ds, "--sizes", "3,3",
            "--out", tmp_path / "p")
        assert load_dataset(tmp_path / "p" / "part1").seed == 0

    def test_bad_config_json_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        code, _, _ = run(capsys, "--config", cfg, "split-het", "nowhere",
                         "--feature", "X")
        assert code == 2

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, stderr = run(capsys, "--config", cfg, "split-het",
                              "nowhere", "--feature", "X")
        assert code == 2 and "object" in stderr

    def test_deeply_nested_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100000)
        code, _, stderr = run(capsys, "--config", cfg, "split-het",
                              "nowhere", "--feature", "X")
        assert code == 2 and "cfg.json" in stderr
        assert stderr.startswith("error: ") and "Traceback" not in stderr

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "--config", tmp_path / "absent.json",
                              "split-het", "nowhere", "--feature", "X")
        assert code == 2 and "absent.json: cannot open" in stderr

    @pytest.mark.parametrize("key,value,command", [
        ("seed", [1], "partition"),
        ("seed", 1.7, "partition"),
        ("seed", True, "partition"),
        ("seed", "5", "partition"),
        ("scale", "false", "pca"),
        ("scale", 1, "pca"),
        ("fdr", True, "test"),
        ("method", ["pearson"], "median-cor"),
        ("mode", ["exact"], "test"),
    ])
    def test_config_value_of_wrong_type_exit_1(self, tmp_path, capsys,
                                               key, value, command):
        ds = two_group_dataset(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = {
            "partition": ["--sizes", "6,6", "--out", tmp_path / "p"],
            "pca": ["--features", "g1,g2", "--out-svg", tmp_path / "p.svg"],
            "test": ["--test", "kw", "--field", "grp", "--out", tmp_path / "t"],
            "median-cor": [ds, "--out", tmp_path / "m.tsv"],
        }[command]
        code, stdout, stderr = run(capsys, "--config", cfg, command, ds, *argv)
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: config key {key!r} must be ")
        assert "Traceback" not in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                              "grouped"]

    def test_integral_float_seed_accepted(self, tmp_path, capsys):
        ds = TestPartitionCommand().base(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5.0}))
        code, stdout, _ = run(capsys, "--config", cfg, "partition", ds,
                              "--sizes", "3,3", "--out", tmp_path / "p")
        assert code == 0 and "seed=5\n" in stdout
        assert load_dataset(tmp_path / "p" / "part1").seed == 5

    def test_config_scale_is_a_boolean(self, tmp_path, capsys):
        ds = two_group_dataset(tmp_path)

        def pca_tsv(name, *extra):
            tsv = tmp_path / f"{name}.tsv"
            code, _, _ = run(capsys, "pca", ds, "--features", "g1,g2,g4",
                             "--out-svg", tmp_path / f"{name}.svg",
                             "--out-tsv", tsv, *extra)
            assert code == 0
            return tsv.read_text()

        for value in (False, True):
            cfg = tmp_path / f"{value}.json"
            cfg.write_text(json.dumps({"pca": {"scale": value}}))
            flag = pca_tsv(f"flag{value}", *(["--scale"] if value else []))
            assert pca_tsv(f"cfg{value}", "--config", cfg) == flag
        assert pca_tsv("x", "--scale") != pca_tsv("y")

    def test_partial_file_removed_on_failure(self, tmp_path):
        target = tmp_path / "out.tsv"
        with pytest.raises(RuntimeError):
            with _partial_file(target) as fh:
                fh.write("half a line")
                raise RuntimeError("simulated crash")
        assert not target.exists()
        assert not (tmp_path / "out.tsv.partial").exists()

    def test_partial_file_renamed_on_success(self, tmp_path):
        target = tmp_path / "out.tsv"
        with _partial_file(target) as fh:
            fh.write("done\n")
        assert target.read_text() == "done\n"
        assert not (tmp_path / "out.tsv.partial").exists()

    def test_missing_dataset_dir_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "split-het", tmp_path / "nowhere",
                         "--feature", "X")
        assert code == 2


def _edit_manifest(root, **changes):
    manifest = json.loads((root / "manifest.json").read_text())
    manifest.update(changes)
    manifest = {k: v for k, v in manifest.items() if v is not None}
    (root / "manifest.json").write_text(json.dumps(manifest))


def _to_v1(root):
    """Rewrite a saved directory in format 1: values as text in data.tsv."""
    ds = load_dataset(root)
    lines = ["\t".join(["feature", *ds.data.col_names])]
    lines += ["\t".join([name, *("NA" if math.isnan(v) else repr(v) for v in row)])
              for name, row in zip(ds.data.row_names, ds.data.values.tolist())]
    (root / "data.tsv").write_text("\n".join(lines) + "\n")
    (root / "data.npy").unlink()
    (root / "features.txt").unlink()
    _edit_manifest(root, version=1)


@pytest.mark.parametrize("spoil", [
    pytest.param(lambda root: (root / "manifest.json").write_text("[1, 2]"),
                 id="json_list"),
    pytest.param(lambda root: (root / "manifest.json").write_text("[" * 100000),
                 id="json_nested_too_deeply"),
    pytest.param(lambda root: _edit_manifest(root, score="bogus"),
                 id="unknown_score"),
    pytest.param(lambda root: _edit_manifest(root, name=None),
                 id="missing_name"),
    pytest.param(lambda root: _edit_manifest(root, name=""), id="empty_name"),
    pytest.param(lambda root: (root / "info.tsv").unlink(), id="missing_info"),
    pytest.param(lambda root: (_to_v1(root), (root / "data.tsv").unlink()),
                 id="missing_data"),
])
def test_bad_dataset_directory_exit_2(tmp_path, capsys, spoil):
    ds = make_ds(tmp_path, "d", ["A", "B"], ["s1", "s2"], [[1, 2], [3, 4]])
    spoil(Path(ds))
    code, _, stderr = run(capsys, "score", ds, "--kind", "vdw",
                          "--out", tmp_path / "out")
    assert code == 2 and ds in stderr
    assert stderr.startswith("error: ") and "Traceback" not in stderr


def test_cli_import_leaves_out_url_modules():
    """Every run imports the CLI, so it must not pull in modules no
    command needs: saxutils would bring urllib.request and http.client,
    and the pairwise engine starts no thread pool."""
    import rankmerge
    src = Path(rankmerge.__file__).resolve().parent.parent
    code = ("import sys, rankmerge.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', "
            "'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _spoiled(path, target, data: bytes):
    """Write ``data`` with byte 0xff in the middle to ``target``."""
    cut = len(data) // 2
    target.write_bytes(data[:cut] + b"\xff" + data[cut:])
    return target


def _non_utf8_case(tmp_path, which):
    """The argv of a command reading one file that holds byte 0xff, and
    that file."""
    series = (FIXTURES / "series_small.txt").read_bytes()
    annotation = (FIXTURES / "annotation_small.tsv").read_bytes()
    results = tmp_path / "r.tsv"
    fabricated_results(results)
    gmt = (FIXTURES / "sets_small.gmt").read_bytes()
    out = tmp_path / "out"
    if which == "series":
        bad = _spoiled(tmp_path, tmp_path / "bad_series.txt", series)
        return ["ingest", bad, FIXTURES / "annotation_small.tsv", "--out", out], bad
    if which == "annotation":
        bad = _spoiled(tmp_path, tmp_path / "bad_annotation.tsv", annotation)
        return ["ingest", FIXTURES / "series_small.txt", bad, "--out", out], bad
    if which == "results":
        bad = _spoiled(tmp_path, tmp_path / "bad_results.tsv", results.read_bytes())
        return ["enrich", bad, FIXTURES / "sets_small.gmt", "--out", out], bad
    if which == "gmt":
        bad = _spoiled(tmp_path, tmp_path / "bad_sets.gmt", gmt)
        return ["enrich", results, bad, "--out", out], bad
    if which == "universe":
        bad = _spoiled(tmp_path, tmp_path / "bad_universe.txt", b"G0\nG1\nG2\nG3\n")
        return ["enrich", results, FIXTURES / "sets_small.gmt", "--universe", bad,
                "--out", out], bad
    if which == "config":
        bad = _spoiled(tmp_path, tmp_path / "bad_config.json", b'{"seed": 1}')
        return ["--config", bad, "split-het", tmp_path / "nowhere",
                "--feature", "X"], bad
    ds = Path(make_ds(tmp_path, "d", ["A", "B"], ["s1", "s2"], [[1, 2], [3, 4]]))
    if which == "data.tsv":
        _to_v1(ds)
    bad = ds / ("manifest.json" if which == "manifest" else which)
    _spoiled(tmp_path, bad, bad.read_bytes())
    return ["score", ds, "--kind", "vdw", "--out", out], bad


@pytest.mark.parametrize("which", ["series", "annotation", "results", "gmt",
                                   "universe", "config", "manifest",
                                   "info.tsv", "features.txt", "data.tsv"])
def test_non_utf8_input_exit_2_naming_the_file(tmp_path, capsys, which):
    argv, bad = _non_utf8_case(tmp_path, which)
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert bad.name in stderr and "UTF-8" in stderr
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["select", "--field", "nope", "--keyword", "a", "--out", "OUT"],
    ["test", "--test", "kw", "--field", "nope", "--out", "OUT"],
    ["test", "--test", "kw", "--field", "nope", "--keyword", "a", "--out", "OUT"],
    ["test", "--test", "wilcoxon", "--field", "nope", "--keyword", "a",
     "--out", "OUT"],
    ["pca", "--label-field", "nope", "--features", "X", "--out-svg", "OUT"],
])
def test_unknown_field_named_with_both_quotes(tmp_path, capsys, argv):
    ds = line_dataset(tmp_path)
    argv = [argv[0], ds, *(tmp_path / "out" if a == "OUT" else a for a in argv[1:])]
    code, _, stderr = run(capsys, *argv)
    assert code == 1
    assert "field" in stderr and "'nope'" in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column, cell", [
    (1, "abc"),       # statistic not a number
    (3, "x"),         # log10 p not a number
    (5, "0.5"),       # positive log10 p
    (6, "sideways"),  # unknown direction
])
@pytest.mark.parametrize("command", ["enrich", "pca"])
def test_malformed_results_table_exit_2(tmp_path, capsys, command, column, cell):
    results = tmp_path / "r.tsv"
    fabricated_results(results)
    lines = results.read_text().split("\n")
    cells = lines[2].split("\t")
    cells[column] = cell
    lines[2] = "\t".join(cells)
    results.write_text("\n".join(lines))
    out = tmp_path / "out"
    if command == "enrich":
        argv = ["enrich", results, FIXTURES / "sets_small.gmt", "--out", out]
    else:
        argv = ["pca", line_dataset(tmp_path), "--top", "2", "--results", results,
                "--out-svg", out]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith("error: line 3: ")
    assert "Traceback" not in stderr
    assert not out.exists()
