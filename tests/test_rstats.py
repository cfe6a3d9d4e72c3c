import io
import math
import multiprocessing
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from rankmerge import rstats
from rankmerge.errors import DegenerateDataError, ParseError
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.numerics import LogP
from rankmerge.rstats import TestResult as Result
from rankmerge.rstats import (
    GeneSet,
    apply_fdr,
    benjamini_yekutieli,
    correlation_threshold,
    enrich_genesets,
    fisher_enrichment,
    kruskal_wallis,
    kw_per_feature,
    median_correlation,
    pair_count,
    pairwise_row_correlations,
    parse_gmt,
    pearson,
    rank_features,
    read_results_tsv,
    sample_groups,
    significant_features,
    spearman,
    wilcoxon_group_vs_rest,
    wilcoxon_one_sided,
    write_pairwise_text,
    write_results_tsv,
)

NA = math.nan


def dm(rows, cols, values):
    return DataMatrix(tuple(rows), tuple(cols), np.array(values, dtype=float))


def make_dataset(rows, cols, values, fields=(), cells=(), name="ds"):
    info = InfoMatrix(tuple(fields), tuple(cols), tuple(tuple(c) for c in cells))
    return Dataset(dm(rows, cols, values), info, name=name)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_hand_example(self):
        # cov*n = 4, var_x*n = var_y*n = 5 -> r = 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_pairwise_complete(self):
        r_full = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        r_nan = pearson([1, 2, 3, 4, 9], [1, 3, 2, 4, NA])
        assert r_nan == pytest.approx(r_full)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            pearson([1, 2, NA], [1, NA, 2])

    def test_constant_input(self):
        # the mean of three 0.1s is not 0.1 in float64
        for constant in ([5, 5, 5], [0.1, 0.1, 0.1]):
            with pytest.raises(ValueError, match="zero variance"):
                pearson(constant, [1, 2, 3])

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(2, 50))
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    @staticmethod
    def exact_r(x, y) -> float:
        """r from exact rational sums: r squared exactly, then the sign."""
        x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        mx, my = sum(x) / len(x), sum(y) / len(y)
        sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
        sxx = sum((a - mx) ** 2 for a in x)
        syy = sum((b - my) ** 2 for b in y)
        return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)

    @pytest.mark.parametrize("x", [
        pytest.param([1e-200, 0, 0], id="spread_underflows"),
        pytest.param([1e160, -1e160, 0], id="products_overflow"),
    ])
    def test_extreme_magnitudes_match_exact_oracle(self, x):
        y = [1, 2, 3]
        assert self.exact_r(x, y) != 0
        assert pearson(x, y) == pytest.approx(self.exact_r(x, y), rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_any_magnitude_matches_exact_oracle(self, scale):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 20))
        x *= scale
        assert pearson(x, y) == pytest.approx(self.exact_r(x, y), rel=1e-14)


class TestSpearman:
    def test_monotone_invariance_exact(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 30))
        assert spearman(x, y) == spearman(np.exp(x), y ** 3)

    def test_reversed_order(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_example(self):
        # values are already ranks here, so spearman == pearson
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_ranks_before_dropping_incomplete_pairs(self):
        # x ranks to 2 1 3 4 over its own values; the complete pairs hold
        # x ranks 1 3 4 against y ranks 1 3 2, so r = 2 / sqrt(42/9 * 2)
        # (ranking after the drop would give 0.5)
        assert spearman([2, 1, 3, 4], [NA, 1, 3, 2]) \
            == pytest.approx(3 / math.sqrt(21), abs=1e-12)


class TestCorrelationThreshold:
    def test_genome_scale_value(self):
        thr = correlation_threshold(15562, 0.05, "one")
        assert 0.0131 <= thr <= 0.0133

    def test_round_number(self):
        # z_{0.95} / sqrt(10000)
        assert correlation_threshold(10001, 0.05, "one") \
            == pytest.approx(1.6448536269514722 / 100, abs=1e-9)

    def test_two_sided_wider(self):
        assert correlation_threshold(100, 0.05, "two") \
            > correlation_threshold(100, 0.05, "one")

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            correlation_threshold(100, 1.5, "one")

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            correlation_threshold(5, 0.05, "one")


class TestMedianCorrelation:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0, 2.5])
        assert median_correlation(v, v, "pearson") == pytest.approx(1.0)

    def test_sign_flip(self):
        v = np.array([1.0, 2.0, 3.0, 2.5])
        assert median_correlation(v, -v, "pearson") == pytest.approx(-1.0)

    def test_null_coverage_monte_carlo(self):
        # two independent scored profiles stay inside the one-sided
        # threshold about 90% of the time (5% per tail)
        n = 15562
        thr = correlation_threshold(n, 0.05, "one")
        rng = np.random.default_rng(123)
        inside = 0
        draws = 200
        for _ in range(draws):
            x, y = rng.normal(size=(2, n))
            if abs(median_correlation(x, y, "pearson")) < thr:
                inside += 1
        assert 0.84 <= inside / draws <= 0.96


# ---------------------------------------------------------------------------
# pairwise streaming
# ---------------------------------------------------------------------------

def collect_pairs(m, **kw):
    got = []
    res = pairwise_row_correlations(m, lambda a, b, r: got.append((a, b, r)), **kw)
    return got, res


def _memory_case(missing):
    """3,000 rows, one in ten not constant."""
    rng = np.random.default_rng(14)
    vals = np.ones((3000, 40))
    vals[::10] = rng.normal(size=(300, 40))
    if missing:
        vals[::7, 5] = NA
    return dm([f"r{i}" for i in range(3000)], [f"c{j}" for j in range(40)], vals)


class TestPairwise:
    def test_pair_count_formula(self):
        assert pair_count(3) == 3
        assert pair_count(15562) == math.comb(15562, 2) == 121_080_141
        assert pair_count(15562) > 121_000_000

    def test_three_rows_three_pairs_in_order(self):
        m = dm(["a", "b", "c"], ["c1", "c2", "c3"],
               [[1, 2, 3], [3, 1, 2], [2, 3, 1]])
        got, res = collect_pairs(m)
        assert [(a, b) for a, b, _ in got] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert res.emitted == 3 and res.skipped == 0

    def test_identical_rows_correlate_at_one(self):
        m = dm(["a", "b"], ["c1", "c2", "c3"], [[1, 2, 3], [1, 2, 3]])
        got, _ = collect_pairs(m)
        assert got[0][2] == pytest.approx(1.0)

    def test_constant_row_skipped(self):
        m = dm(["a", "b", "c"], ["c1", "c2", "c3"],
               [[1, 1, 1], [1, 2, 3], [3, 2, 1]])
        got, res = collect_pairs(m)
        assert res.skipped == 2 and res.emitted == 1
        assert got[0][:2] == ("b", "c")

    def test_incomplete_pair_skipped(self):
        m = dm(["a", "b"], ["c1", "c2", "c3", "c4"],
               [[1, NA, NA, 4], [NA, 2, 3, 1]])
        got, res = collect_pairs(m)
        assert res.emitted == 0 and res.skipped == 1

    def test_values_match_oracle(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(6, 10))
        m = dm([f"r{i}" for i in range(6)], [f"c{j}" for j in range(10)], vals)
        got, _ = collect_pairs(m)
        for a, b, r in got:
            i, j = int(a[1:]), int(b[1:])
            assert r == pytest.approx(np.corrcoef(vals[i], vals[j])[0, 1],
                                      abs=1e-12)

    def test_spearman_matches_rank_oracle(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(4, 12))
        m = dm([f"r{i}" for i in range(4)], [f"c{j}" for j in range(12)], vals)
        got, _ = collect_pairs(m, method="spearman")

        def ranks(x):
            order = np.argsort(x)
            r = np.empty(len(x))
            r[order] = np.arange(1, len(x) + 1)
            return r

        for a, b, r in got:
            x, y = vals[int(a[1:])], vals[int(b[1:])]
            oracle = np.corrcoef(ranks(x), ranks(y))[0, 1]
            assert r == pytest.approx(oracle, abs=1e-12)

    def test_threads_do_not_change_emission(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(37, 8))
        m = dm([f"r{i}" for i in range(37)], [f"c{j}" for j in range(8)], vals)
        seq, _ = collect_pairs(m, threads=1, chunk=5)
        par, _ = collect_pairs(m, threads=4, chunk=5)
        assert seq == par

    def test_chunk_size_does_not_change_emission(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(11, 6))
        m = dm([f"r{i}" for i in range(11)], [f"c{j}" for j in range(6)], vals)
        small, _ = collect_pairs(m, chunk=2)
        large, _ = collect_pairs(m, chunk=512)
        assert small == large

    def test_nan_path_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(5, 20))
        vals[rng.random(vals.shape) < 0.15] = NA
        m = dm([f"r{i}" for i in range(5)], [f"c{j}" for j in range(20)], vals)
        got, _ = collect_pairs(m)
        for a, b, r in got:
            x, y = vals[int(a[1:])], vals[int(b[1:])]
            keep = ~(np.isnan(x) | np.isnan(y))
            assert r == pytest.approx(np.corrcoef(x[keep], y[keep])[0, 1],
                                      abs=1e-12)

    def test_duplicate_row_names_rejected(self):
        m = dm(["a", "a"], ["c1", "c2", "c3"], [[1, 2, 3], [3, 2, 1]])
        with pytest.raises(ValueError, match="unique"):
            collect_pairs(m)

    @pytest.mark.parametrize("method, scalar",
                             [("pearson", pearson), ("spearman", spearman)])
    def test_agrees_with_scalar_function_on_missing_and_ties(self, method,
                                                             scalar):
        rng = np.random.default_rng(13)
        vals = np.round(rng.normal(scale=0.1, size=(30, 7)), 1)
        vals[rng.random(vals.shape) < 0.3] = NA
        m = dm([f"r{i}" for i in range(30)], [f"c{j}" for j in range(7)], vals)
        got, res = collect_pairs(m, method=method, chunk=4)
        want, reasons = [], set()
        for i, j in combinations(range(30), 2):
            try:
                want.append((f"r{i}", f"r{j}", scalar(vals[i], vals[j])))
            except ValueError as exc:
                reasons.add(str(exc).split(",")[0])
        # both kinds of skip occur: too few complete pairs, and a row
        # constant over its complete pairs
        assert reasons == {"need >= 3 complete pairs", "zero variance input"}
        assert [p[:2] for p in got] == [p[:2] for p in want]
        assert max(abs(g[2] - w[2]) for g, w in zip(got, want)) <= 1e-12
        assert (res.emitted, res.skipped) == (len(want), pair_count(30) - len(want))

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_constant_over_complete_pairs_found_exactly(self, method):
        # the means of three 0.1s and of three 0.3s are not 0.1 and 0.3
        # in float64, so a rounded variance would not read zero
        rows = [[0.1, 0.1, 0.1, 5], [0.3, 0.3, 0.3, -7], [2, 2, 2, 9],
                [1, 2, 3, NA]]
        m = dm(["a", "b", "c", "d"], ["c1", "c2", "c3", "c4"], rows)
        got, res = collect_pairs(m, method=method)
        assert [p[:2] for p in got] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert res.skipped == 3
        for row in rows[:3]:
            with pytest.raises(ValueError, match="zero variance"):
                pearson(row, rows[3])

    def test_too_many_columns_with_missing_values_rejected(self):
        vals = np.arange(3 * 9066, dtype=float).reshape(3, 9066)
        vals[0, 0] = NA
        m = dm(["a", "b", "c"], [f"c{j}" for j in range(9066)], vals)
        with pytest.raises(ValueError, match="9,065"):
            collect_pairs(m)

    @pytest.mark.parametrize("missing", [False, True])
    def test_memory_holds_one_block(self, missing):
        # at 3,000 rows the upper triangle of r is 36 MB, and a block of
        # 64 rows against every partner 1.5 MB.  Most rows are constant,
        # so few pairs reach the sink, but every block product is formed.
        m = _memory_case(missing)
        tracemalloc.start()
        try:
            res = pairwise_row_correlations(m, lambda a, b, r: None, chunk=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.emitted == math.comb(300, 2)
        assert peak < 12 * 64 * 3000 * 8


# ---------------------------------------------------------------------------
# pairwise text
# ---------------------------------------------------------------------------

def _pairwise_case(kind):
    """(matrix, method, chunk) of one byte-identity case."""
    rng = np.random.default_rng(15)
    vals = rng.normal(size=(29, 8))
    method, chunk = "pearson", 5
    if kind == "missing":
        vals[rng.random(vals.shape) < 0.2] = NA
    elif kind == "spearman_ties":
        vals = np.round(vals, 0)
        vals[rng.random(vals.shape) < 0.1] = NA
        method = "spearman"
    elif kind == "chunk_not_dividing":
        chunk = 7
    elif kind == "no_kept_partners":
        # rows 20 and up are constant, so row 19 keeps no partner
        vals[20:] = 1.0
    elif kind == "one_task":
        vals, chunk = vals[:6], 256
    names = [f"r{i}" for i in range(len(vals))]
    return dm(names, [f"c{j}" for j in range(vals.shape[1])], vals), method, chunk


def _reference_text(m, **kw):
    got, res = collect_pairs(m, **kw)
    return "".join(f"{a}\t{b}\t{r!r}\n" for a, b, r in got), res


def _die_on_second_task(names, r, keep):
    # with 40 pairs per task and chunk 5, the second task starts at row r1
    if names[0] == "r1":
        os._exit(1)
    return rstats._pair_lines(names, r, keep)


class _Discard:
    def write(self, text):
        pass


class _InlinePool:
    """Stands in for a process pool: records its size, runs tasks inline."""

    def __init__(self, sizes, workers):
        sizes.append(workers)

    def submit(self, func, *args):
        result = func(*args)
        return type("Done", (), {"result": lambda self: result})()

    def shutdown(self, cancel_futures=False):
        pass


class TestWritePairwiseText:
    KINDS = ["dense", "missing", "spearman_ties", "chunk_not_dividing",
             "no_kept_partners", "one_task"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("task_pairs", [rstats._TASK_PAIRS, 40])
    def test_bytes_match_sink_reference(self, kind, task_pairs, monkeypatch):
        # 40 pairs per task splits each block into tasks of one row
        monkeypatch.setattr(rstats, "_TASK_PAIRS", task_pairs)
        m, method, chunk = _pairwise_case(kind)
        want, want_res = _reference_text(m, method=method, chunk=chunk)
        assert want
        for threads in (1, 2, 3):
            buf = io.StringIO()
            res = write_pairwise_text(m, buf, method, chunk, threads)
            assert buf.getvalue() == want
            assert res == want_res

    def test_no_kept_partners_case_has_such_a_row(self):
        m, method, chunk = _pairwise_case("no_kept_partners")
        got, _ = collect_pairs(m, method=method, chunk=chunk)
        assert "r18" in {a for a, _, _ in got}
        assert "r19" not in {a for a, _, _ in got}

    def test_spawned_workers_write_the_same_bytes(self, monkeypatch):
        # every task carries its own names and rows, so workers need no
        # state inherited by fork
        monkeypatch.setattr(rstats, "_pool", lambda workers: ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")))
        monkeypatch.setattr(rstats.os, "cpu_count", lambda: 2)
        m, method, chunk = _pairwise_case("missing")
        buf = io.StringIO()
        write_pairwise_text(m, buf, method, chunk, threads=2)
        assert buf.getvalue() == _reference_text(m, method=method, chunk=chunk)[0]

    @pytest.mark.parametrize("kind, cpus, workers",
                             [("dense", 7, 6), ("dense", 4, 4), ("one_task", 7, 1)])
    def test_workers_clamped_to_cpus_and_tasks(self, kind, cpus, workers,
                                               monkeypatch):
        # dense: 29 rows in blocks of 5 are 6 tasks; one_task: 1 task
        sizes = []
        monkeypatch.setattr(rstats, "_pool", lambda w: _InlinePool(sizes, w))
        monkeypatch.setattr(rstats.os, "cpu_count", lambda: cpus)
        m, method, chunk = _pairwise_case(kind)
        buf = io.StringIO()
        write_pairwise_text(m, buf, method, chunk, threads=10 ** 9)
        assert sizes == ([workers] if workers > 1 else [])
        assert buf.getvalue() == _reference_text(m, method=method, chunk=chunk)[0]

    def test_dead_worker_raises(self, monkeypatch):
        monkeypatch.setattr(rstats, "_TASK_PAIRS", 40)
        monkeypatch.setattr(rstats, "_pair_lines", _die_on_second_task)
        monkeypatch.setattr(rstats.os, "cpu_count", lambda: 2)
        m, method, chunk = _pairwise_case("dense")
        with pytest.raises(ChildProcessError, match="pairwise text formatter") as exc:
            write_pairwise_text(m, io.StringIO(), method, chunk, threads=2)
        assert isinstance(exc.value.__cause__, BrokenProcessPool)
        assert not multiprocessing.active_children()

    def test_one_thread_starts_no_pool(self, monkeypatch):
        def no_pool(workers):
            raise AssertionError("a pool was started")
        monkeypatch.setattr(rstats, "_pool", no_pool)
        m, method, chunk = _pairwise_case("dense")
        write_pairwise_text(m, io.StringIO(), method, chunk, threads=1)

    @pytest.mark.parametrize("missing", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_holds_one_block(self, missing, threads):
        # as TestPairwise.test_memory_holds_one_block, through the text
        # writer; the lines in flight stay within the same bound
        m = _memory_case(missing)
        tracemalloc.start()
        try:
            res = write_pairwise_text(m, _Discard(), chunk=64, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.emitted == math.comb(300, 2)
        assert peak < 12 * 64 * 3000 * 8


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------

class TestKruskalWallis:
    def test_toy_example(self):
        r = kruskal_wallis([1, 2, 3, 4, 5, 6], list("aaabbb"))
        assert r.statistic == pytest.approx(27 / 7, abs=1e-10)
        assert r.p_raw.p == pytest.approx(0.0495, abs=1e-3)
        # independent tail oracle: P(chi2_1 >= H) = erfc(sqrt(H/2))
        assert r.p_raw.p == pytest.approx(math.erfc(math.sqrt(27 / 14)),
                                          abs=1e-12)

    def test_identical_groups(self):
        r = kruskal_wallis([1, 2, 1, 2], list("aabb"))
        assert r.statistic == pytest.approx(0.0, abs=1e-12)
        assert r.p_raw.p > 0.5

    def test_h_equals_z_squared_without_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_a = int(rng.integers(2, 9))
            n_b = int(rng.integers(2, 9))
            pool = rng.permutation(np.arange(1.0, n_a + n_b + 1))
            a, b = pool[:n_a], pool[n_a:]
            h = kruskal_wallis(np.concatenate([a, b]),
                               ["a"] * n_a + ["b"] * n_b).statistic
            z = wilcoxon_one_sided(a, b, "A_greater", exact=False).statistic
            assert h == pytest.approx(z * z, abs=1e-10)

    def test_empty_group_degenerate(self):
        with pytest.raises((DegenerateDataError, ValueError)):
            kruskal_wallis([1, 2, 3], ["a", "a", "a"])

    def test_all_tied_degenerate(self):
        with pytest.raises(DegenerateDataError):
            kruskal_wallis([7, 7, 7, 7], list("aabb"))

    def test_three_groups_against_direct_formula(self):
        vals = [2.0, 7.5, 3.0, 1.0, 9.0, 4.0, 8.0, 5.0, 6.0]
        labels = list("aaabbbccc")
        r = kruskal_wallis(vals, labels)
        # direct H on ranks (values distinct, no tie factor)
        ranks = {v: i + 1 for i, v in enumerate(sorted(vals))}
        sums = {}
        for v, g in zip(vals, labels):
            sums[g] = sums.get(g, 0) + ranks[v]
        n = len(vals)
        h = 12 / (n * (n + 1)) * sum(s * s / 3 for s in sums.values()) - 3 * (n + 1)
        assert r.statistic == pytest.approx(h, abs=1e-12)


class TestKwPerFeature:
    def test_single_common_row(self):
        a = dm(["X", "Y"], ["a1", "a2", "a3"], [[1, 2, 3], [0, 0, 1]])
        b = dm(["X", "Z"], ["b1", "b2", "b3"], [[4, 5, 6], [1, 1, 0]])
        out = kw_per_feature([a, b])
        assert len(out) == 1 and out[0].feature == "X"

    def test_planted_shift_ranks_first(self):
        rng = np.random.default_rng(3)
        rows = [f"g{i}" for i in range(30)]
        a_vals = rng.normal(size=(30, 10))
        b_vals = rng.normal(size=(30, 10))
        b_vals[7] += 4.0  # the planted feature
        a = dm(rows, [f"a{j}" for j in range(10)], a_vals)
        b = dm(rows, [f"b{j}" for j in range(10)], b_vals)
        ranked = rank_features(apply_fdr(kw_per_feature([a, b])))
        assert ranked[0].feature == "g7"

    def test_degenerate_feature_reported_not_fatal(self):
        a = dm(["X", "Y"], ["a1", "a2"], [[1, 1], [1, 2]])
        b = dm(["X", "Y"], ["b1", "b2"], [[1, 1], [3, 4]])
        out = kw_per_feature([a, b])
        by_name = {r.feature: r for r in out}
        assert by_name["X"].p_raw is None
        assert by_name["X"].direction == "none"
        assert by_name["Y"].p_raw is not None

    def test_type_one_control_on_permuted_columns(self):
        rng = np.random.default_rng(17)
        rows = [f"g{i}" for i in range(200)]
        vals = rng.normal(size=(200, 12))
        perm = rng.permutation(12)
        a = dm(rows, [f"a{j}" for j in range(6)], vals[:, perm[:6]])
        b = dm(rows, [f"b{j}" for j in range(6)], vals[:, perm[6:]])
        out = apply_fdr(kw_per_feature([a, b]))
        assert len(significant_features(out, 0.05)) == 0


# ---------------------------------------------------------------------------
# Wilcoxon
# ---------------------------------------------------------------------------

def exact_wilcoxon_oracle(n_a, n_b, rank_sum_a):
    """P(R_A >= rank_sum_a) by exact counting, as a Fraction."""
    n = n_a + n_b
    hits = 0
    total = 0
    for ranks in combinations(range(1, n + 1), n_a):
        total += 1
        if sum(ranks) >= rank_sum_a:
            hits += 1
    return Fraction(hits, total)


class TestWilcoxon:
    def test_exact_small_case(self):
        r = wilcoxon_one_sided([3, 4], [1, 2], "A_greater")
        assert r.p_raw.p == pytest.approx(1 / 6, abs=1e-12)
        assert r.direction == "over"

    def test_exact_path_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n_a = int(rng.integers(1, 6))
            n_b = int(rng.integers(max(1, 4 - n_a), 13 - n_a))
            pool = rng.permutation(np.arange(1.0, n_a + n_b + 1))
            a, b = pool[:n_a], pool[n_a:]
            r = wilcoxon_one_sided(a, b, "A_greater", exact=True)
            ra = sum(sorted(pool).index(v) + 1 for v in a)
            oracle = float(exact_wilcoxon_oracle(n_a, n_b, ra))
            assert r.p_raw.p == pytest.approx(oracle, abs=1e-12)

    def test_identical_multisets_near_half(self):
        r = wilcoxon_one_sided([1, 2, 3], [1, 2, 3], "A_greater")
        assert 0.3 < r.p_raw.p < 0.7

    def test_strong_separation_deep_tail(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=50)
        a = b + 10.0
        r = wilcoxon_one_sided(a, b, "A_greater")
        assert r.p_raw.ln_p < math.log(1e-10)

    def test_alternative_symmetry(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 10))
        p_g = wilcoxon_one_sided(a, b, "A_greater").p_raw.ln_p
        p_l = wilcoxon_one_sided(b, a, "A_less").p_raw.ln_p
        assert p_g == pytest.approx(p_l, abs=1e-12)

    def test_less_direction_under(self):
        r = wilcoxon_one_sided([1, 2], [3, 4], "A_less")
        assert r.direction == "under"
        assert r.p_raw.p == pytest.approx(1 / 6, abs=1e-12)

    def test_exact_requested_with_ties_rejected(self):
        with pytest.raises(ValueError, match="tie"):
            wilcoxon_one_sided([1, 1, 2], [2, 3, 4], "A_greater", exact=True)

    def test_all_tied_degenerate(self):
        with pytest.raises(DegenerateDataError):
            wilcoxon_one_sided([5, 5], [5, 5], "A_greater")

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_one_sided([1], [2, 3], "A_greater")

    def test_tie_correction_shrinks_variance(self):
        # with ties the tie-corrected sd is smaller, so |z| grows
        z_free = abs(wilcoxon_one_sided([1, 2, 5, 6], [3, 4, 7, 8],
                                        "A_greater", exact=False).statistic)
        z_tied = abs(wilcoxon_one_sided([1, 2, 5, 6], [3, 3, 7, 8],
                                        "A_greater", exact=False).statistic)
        assert z_tied != z_free  # distinct variance paths exercised


class TestWilcoxonGroupVsRest:
    def planted(self):
        rng = np.random.default_rng(8)
        rows = [f"g{i}" for i in range(20)]
        vals = rng.normal(size=(20, 12))
        vals[4, :6] += 5.0  # overexpressed in the selected group
        return make_dataset(
            rows, [f"s{j}" for j in range(12)], vals,
            fields=["grp"], cells=[tuple(["sel"] * 6 + ["rest"] * 6)])

    def test_planted_feature_first(self):
        out = wilcoxon_group_vs_rest(self.planted(), "grp", "sel", "A_greater")
        ranked = rank_features(apply_fdr(out), by="statistic")
        assert ranked[0].feature == "g4"

    def test_keyword_matching_everything_rejected(self):
        ds = self.planted()
        with pytest.raises(ValueError):
            wilcoxon_group_vs_rest(ds, "grp", "s", "A_greater",
                                   mode="substring")

    def test_single_feature_two_on_two(self):
        ds = make_dataset(["only"], ["a", "b", "c", "d"], [[4, 3, 1, 2]],
                          fields=["g"], cells=[("x", "x", "y", "y")])
        out = wilcoxon_group_vs_rest(ds, "g", "x", "A_greater", mode="exact")
        assert len(out) == 1
        assert out[0].p_raw.p == pytest.approx(1 / 6, abs=1e-12)


class TestSampleGroups:
    def dataset(self):
        return make_dataset(["g"], [f"s{j}" for j in range(5)], [[0, 1, 2, 3, 4]],
                            fields=["grp", "one"],
                            cells=[("b", "a", "b", "c", "a"), ("x",) * 5])

    def test_one_group_per_value_in_first_seen_order(self):
        groups = sample_groups(self.dataset(), "grp")
        assert [g.col_names for g in groups] == [
            ("s0", "s2"), ("s1", "s4"), ("s3",)]
        assert [g.values.tolist() for g in groups] == [
            [[0, 2]], [[1, 4]], [[3]]]

    def test_keyword_gives_matching_then_rest(self):
        match, rest = sample_groups(self.dataset(), "grp", "B")
        assert match.col_names == ("s0", "s2")
        assert rest.col_names == ("s1", "s3", "s4")
        match, rest = sample_groups(self.dataset(), "grp", "a", mode="exact")
        assert match.col_names == ("s1", "s4")

    def test_single_value_field_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="single value"):
            sample_groups(self.dataset(), "one")

    @pytest.mark.parametrize("keyword", [None, "a"])
    def test_unknown_field(self, keyword):
        with pytest.raises(KeyError, match="nope"):
            sample_groups(self.dataset(), "nope", keyword)


# ---------------------------------------------------------------------------
# FDR and ranking
# ---------------------------------------------------------------------------

def by_oracle_linear(ps):
    """Direct-formula BY in plain float arithmetic (for moderate p)."""
    m = len(ps)
    c = sum(1.0 / h for h in range(1, m + 1))
    order = sorted(range(m), key=lambda i: ps[i])
    adj = [min(1.0, ps[order[i]] * m * c / (i + 1)) for i in range(m)]
    for i in range(m - 2, -1, -1):
        adj[i] = min(adj[i], adj[i + 1])
    out = [0.0] * m
    for i, o in enumerate(order):
        out[o] = adj[i]
    return out


class TestBenjaminiYekutieli:
    def test_three_value_example(self):
        adj = benjamini_yekutieli([LogP.from_p(p) for p in (0.01, 0.02, 0.03)])
        for a in adj:
            assert a.p == pytest.approx(0.055, abs=1e-12)

    def test_single_value(self):
        (a,) = benjamini_yekutieli([LogP.from_p(1.0)])
        assert a.p == 1.0

    def test_matches_linear_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ps = rng.uniform(1e-6, 1.0, size=rng.integers(1, 40)).tolist()
            adj = benjamini_yekutieli([LogP.from_p(p) for p in ps])
            oracle = by_oracle_linear(ps)
            for a, o in zip(adj, oracle):
                assert a.p == pytest.approx(o, rel=1e-12)

    def test_adjusted_at_least_raw(self):
        rng = np.random.default_rng(10)
        ps = [LogP.from_p(p) for p in rng.uniform(0, 1, size=25)]
        for raw, adj in zip(ps, benjamini_yekutieli(ps)):
            assert adj.ln_p >= raw.ln_p - 1e-12

    def test_deep_log_domain_survives(self):
        deep = [LogP(math.log(1e-300)), LogP(-900.0), LogP.from_p(0.5)]
        adj = benjamini_yekutieli(deep)
        assert adj[1].ln_p < adj[0].ln_p < adj[2].ln_p
        assert all(math.isfinite(a.ln_p) for a in adj)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        ps = [LogP.from_p(p) for p in rng.uniform(0, 1, size=12)]
        perm = rng.permutation(12)
        direct = benjamini_yekutieli(ps)
        permuted = benjamini_yekutieli([ps[i] for i in perm])
        for k, i in enumerate(perm):
            assert permuted[k].ln_p == pytest.approx(direct[i].ln_p, abs=1e-12)


class TestApplyFdrAndSelection:
    def results(self):
        return [Result("a", 3.0, LogP.from_p(0.001), None, "over"),
                Result("b", 1.0, LogP.from_p(0.5), None, "over"),
                Result("dg", float("nan"), None, None, "none")]

    def test_degenerates_not_counted_in_m(self):
        adj = apply_fdr(self.results())
        # m == 2, c(2) = 1.5
        assert adj[0].p_adjusted.p == pytest.approx(0.001 * 2 * 1.5, rel=1e-12)
        assert adj[2].p_adjusted is None

    def test_adjusting_keeps_every_other_field(self):
        before = self.results()
        after = apply_fdr(before)
        for b, a in zip(before, after):
            assert (a.feature, a.statistic, a.p_raw, a.direction) \
                == (b.feature, b.statistic, b.p_raw, b.direction)
        assert after[1].p_adjusted.p == pytest.approx(0.5 * 1.5, rel=1e-12)
        assert after[2] is before[2]

    def test_significant_strict_threshold(self):
        rs = [Result("x", 1.0, LogP.from_p(0.04), LogP.from_p(0.04), "over"),
              Result("y", 1.0, LogP.from_p(0.05), LogP.from_p(0.05), "over")]
        out = significant_features(rs, 0.05)
        assert [r.feature for r in out] == ["x"]

    def test_boundary_excluded(self):
        rs = [Result("x", 1.0, LogP.from_p(0.05), LogP.from_p(0.05), "over")]
        assert significant_features(rs, 0.05) == []

    def test_missing_fdr_rejected(self):
        rs = [Result("x", 1.0, LogP.from_p(0.01), None, "over")]
        with pytest.raises(ValueError, match="FDR"):
            significant_features(rs, 0.05)

    def test_empty_input_empty_output(self):
        assert significant_features([], 0.05) == []


class TestRankFeatures:
    def test_by_p(self):
        rs = [Result("a", 1.0, LogP.from_p(0.5), None, "over"),
              Result("b", 9.0, LogP.from_p(0.001), None, "over")]
        assert [r.feature for r in rank_features(rs)] == ["b", "a"]

    def test_equal_p_lexicographic(self):
        rs = [Result("zz", 1.0, LogP.from_p(0.5), None, "over"),
              Result("aa", 1.0, LogP.from_p(0.5), None, "over")]
        assert [r.feature for r in rank_features(rs)] == ["aa", "zz"]

    def test_statistic_respects_direction(self):
        rs = [Result("up", 2.0, LogP.from_p(0.1), None, "over"),
              Result("dn", -3.0, LogP.from_p(0.05), None, "under")]
        out = rank_features(rs, by="statistic")
        assert out[0].feature == "dn"

    def test_degenerate_last(self):
        rs = [Result("dg", float("nan"), None, None, "none"),
              Result("ok", 1.0, LogP.from_p(0.9), None, "over")]
        assert [r.feature for r in rank_features(rs)] == ["ok", "dg"]

    def test_agreement_when_statistic_monotone_in_p(self):
        rng = np.random.default_rng(12)
        zs = sorted(rng.uniform(0.5, 4.0, size=8), reverse=True)
        rs = [Result(f"f{i}", z,
                         LogP(-0.5 * z * z),  # any strictly decreasing map
                         None, "over")
              for i, z in enumerate(zs)]
        assert rank_features(rs, by="p")[0].feature \
            == rank_features(rs, by="statistic")[0].feature


# ---------------------------------------------------------------------------
# gene sets and enrichment
# ---------------------------------------------------------------------------

class TestParseGmt:
    def test_basic(self):
        sets = parse_gmt(io.StringIO("s1\tdesc\tA\tB\ns2\tother\tC\n"))
        assert sets[0] == GeneSet("s1", "desc", frozenset({"A", "B"}))
        assert sets[1].symbols == frozenset({"C"})

    def test_too_few_cells(self):
        with pytest.raises(ParseError):
            parse_gmt(io.StringIO("name\tdesc\n"))

    def test_duplicate_name(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_gmt(io.StringIO("s\td\tA\ns\td\tB\n"))

    def test_empty_name(self):
        with pytest.raises(ParseError, match="line 2: gene set line has an empty name"):
            parse_gmt(io.StringIO("s\td\tA\n\td\tB\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_gmt(io.StringIO(""))


def fisher_oracle(n, a, b, k):
    """P(X >= k), X ~ Hypergeom(n, a, b), exact rational arithmetic."""
    total = math.comb(n, b)
    hits = sum(math.comb(a, i) * math.comb(n - a, b - i)
               for i in range(k, min(a, b) + 1))
    return Fraction(hits, total)


class TestFisherEnrichment:
    def test_toy_case(self):
        p = fisher_enrichment(10, 5, 4, 3)
        assert p.p == pytest.approx(55 / 210, abs=1e-12)

    def test_zero_overlap_is_one(self):
        assert fisher_enrichment(10, 5, 4, 0).p == 1.0

    def test_forced_containment_is_one(self):
        assert fisher_enrichment(10, 10, 4, 4).p == 1.0

    def test_matches_exact_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            a = int(rng.integers(0, n + 1))
            b = int(rng.integers(0, n + 1))
            lo = max(0, a + b - n)
            k = int(rng.integers(lo, min(a, b) + 1)) if min(a, b) >= lo else 0
            p = fisher_enrichment(n, a, b, k)
            assert p.p == pytest.approx(float(fisher_oracle(n, a, b, k)),
                                        abs=1e-12)

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            fisher_enrichment(10, 5, 4, 5)


class TestEnrichGenesets:
    def test_symbols_outside_universe_ignored(self):
        universe = {"A", "B", "C", "D"}
        gs = GeneSet("s", "", frozenset({"A", "B", "Z"}))
        ((_, size, overlap, p),) = enrich_genesets({"A"}, universe, [gs])
        assert size == 2 and overlap == 1
        assert p.p == pytest.approx(float(fisher_oracle(4, 1, 2, 1)), abs=1e-12)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            enrich_genesets({"A"}, set(), [GeneSet("s", "", frozenset({"A"}))])


# ---------------------------------------------------------------------------
# result table round trip
# ---------------------------------------------------------------------------

class TestResultsTsv:
    def rows(self):
        return [Result("deep", 40.0, LogP(-900.0), LogP(-890.0), "over"),
                Result("mid", -2.5, LogP.from_p(0.01),
                           LogP.from_p(0.04), "under"),
                Result("dg", float("nan"), None, None, "none")]

    def test_underflow_marker(self):
        buf = io.StringIO()
        write_results_tsv(self.rows(), buf)
        text = buf.getvalue()
        assert "<1e-308" in text
        assert "\t-390.865034\t" in text  # -900 / ln(10), exact in log10 column

    def test_round_trip(self):
        buf = io.StringIO()
        write_results_tsv(self.rows(), buf)
        back = read_results_tsv(io.StringIO(buf.getvalue()))
        for orig, got in zip(self.rows(), back):
            assert got.feature == orig.feature
            assert got.direction == orig.direction
            if orig.p_raw is None:
                assert got.p_raw is None
            else:
                # log10 is printed with 6 decimals
                assert got.p_raw.ln_p == pytest.approx(orig.p_raw.ln_p,
                                                       abs=2e-6)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            read_results_tsv(io.StringIO("nope\tcolumns\n"))

    @pytest.mark.parametrize("column, cell, message", [
        (1, "abc", "could not convert string to float: 'abc'"),
        (3, "x", "could not convert string to float: 'x'"),
        (5, "0.5", "log probability must be <= 0"),
        (6, "sideways", "direction must be one of"),
    ])
    def test_bad_cell_names_its_line(self, column, cell, message):
        buf = io.StringIO()
        write_results_tsv(self.rows(), buf)
        lines = buf.getvalue().split("\n")
        cells = lines[2].split("\t")
        cells[column] = cell
        lines[2] = "\t".join(cells)
        with pytest.raises(ParseError, match=f"^line 3: {message}"):
            read_results_tsv(io.StringIO("\n".join(lines)))
