"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

import pytest

import gen
import run
from spans import Recorder


def _recorder(intervals):
    """Spans from (name, parent, start, end) tuples."""
    rec = Recorder("test")
    for name, parent, start, end in intervals:
        with rec.span(name) as s:
            pass
        s.parent, s.start, s.end = parent, start, end
    return rec


def test_self_time_subtracts_children_once():
    rec = _recorder([("cli.test_kw", None, 0.0, 10.0),
                     ("ingest.load_dataset", 0, 1.0, 4.0),
                     ("rstats.kw_per_feature", 0, 5.0, 9.0),
                     ("matrix.common_rows", 2, 5.5, 6.0)])
    st = rec.self_times()
    assert st == pytest.approx({0: 3.0, 1: 3.0, 2: 3.5, 3: 0.5})
    assert run.span_errors(rec) == []


def test_span_check_flags_children_outside_their_command():
    rec = _recorder([("cli.merge", None, 0.0, 1.0),
                     ("matrix.merge_datasets", 0, 0.5, 3.0)])
    assert rec.self_times()[0] == pytest.approx(0.5)
    assert run.span_errors(rec)


def test_patch_records_spans_and_restores():
    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    rec = Recorder("test")
    original = Mod.f
    rec.patch(Mod, "f", "rstats.f", after=lambda a, r: rec.count("calls"))
    assert Mod.f(1) == 2
    rec.unpatch()
    assert Mod.f is original
    assert [s.name for s in rec.spans] == ["rstats.f"]
    assert rec.counters["calls"] == 1


def test_generator_is_seeded(tmp_path):
    for w in gen.WORKLOADS:
        gen.generate(w, 3, tmp_path / "a" / w, "smoke")
        gen.generate(w, 3, tmp_path / "b" / w, "smoke")
        gen.generate(w, 4, tmp_path / "c" / w, "smoke")
        assert run.digest(tmp_path / "a" / w) == run.digest(tmp_path / "b" / w)
        assert run.digest(tmp_path / "a" / w) != run.digest(tmp_path / "c" / w)


def test_untraced_run_checks_pass(tmp_path):
    res = run.measure("coexpr-pairwise", 0, 0, "smoke", tmp_path, 2)
    assert res["failed"] == 0, res["errors"]
    assert res["attempted"] == 2 * 2 + 1
    assert set(run.declared("end_to_end")) <= set(res["metrics"])


def test_wrong_expectation_counts_as_failure(tmp_path, monkeypatch):
    real = gen.generate

    def off_by_one(*args):
        truth = real(*args)
        truth["constant"] += 1
        return truth

    monkeypatch.setattr(gen, "generate", off_by_one)
    res = run.measure("coexpr-pairwise", 0, 0, "smoke", tmp_path, 1)
    assert res["failed"] > 0
    assert res["metrics"]["failed_ratio"] > 0


def test_smoke_mode(capsys):
    assert run.main(["--smoke"]) == 0
