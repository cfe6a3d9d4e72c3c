import io
import math
import multiprocessing
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmerge import rstats
from rankmerge.errors import DegenerateDataError, ParseError
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.numerics import LogP
from rankmerge.rstats import TestResult as Result
from rankmerge.rstats import (
    GeneSet,
    ResultTable,
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
    wilcoxon_per_feature,
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

def exact_r(x, y) -> float:
    """r over the complete pairs from exact rational sums: r squared
    exactly, then the sign."""
    pairs = [(Fraction(a), Fraction(b)) for a, b in zip(x, y)
             if not (math.isnan(a) or math.isnan(b))]
    x, y = [a for a, _ in pairs], [b for _, b in pairs]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    # the sign from the Fraction: near 1e308 sxy overflows a float
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), -1 if sxy < 0 else 1)


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

    @pytest.mark.parametrize("x", [
        pytest.param([1e-200, 0, 0], id="spread_underflows"),
        pytest.param([1e160, -1e160, 0], id="products_overflow"),
    ])
    def test_extreme_magnitudes_match_exact_oracle(self, x):
        y = [1, 2, 3]
        assert exact_r(x, y) != 0
        assert pearson(x, y) == pytest.approx(exact_r(x, y), rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_any_magnitude_matches_exact_oracle(self, scale):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 20))
        x *= scale
        assert pearson(x, y) == pytest.approx(exact_r(x, y), rel=1e-14)

    @pytest.mark.parametrize("x, y, want", [
        pytest.param([0, 0, 1], [0, 0, 5e-324], 1.0, id="subnormal"),
        pytest.param([1.5e308, 1.7e308, 1e308], [1, 2, 3], -0.6933752452815365,
                     id="sum_overflows"),
    ])
    def test_scaled_by_a_power_of_two_before_centring(self, x, y, want):
        # centred first, the subnormal mean rounds to 0 and the sum of
        # the large values overflows
        assert exact_r(x, y) == pytest.approx(want, abs=1e-15)
        assert abs(pearson(x, y) - want) <= 1e-15

    def test_clamped_to_one(self):
        # unclamped, the rounded norms leave 1.0000000000000002 here and
        # for 544 of these 2,000 vectors against themselves
        assert pearson([0, 0, 1], [0, 0, 1]) == 1.0
        assert pearson([0, 0, 1], [0, 0, -1]) == -1.0
        v = np.random.default_rng(0).normal(size=(2000, 5))
        assert max(pearson(x, x) for x in v) == 1.0

    def test_nan_stays_nan(self):
        with np.errstate(invalid="ignore"):
            assert math.isnan(pearson([math.inf, 1, 2, 4], [1, 2, 3, 4]))


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
    def test_every_declared_method_has_a_function(self):
        # matrix declares the names so that the CLI parser needs no rstats
        assert tuple(rstats._CORR_FUNCS) == rstats.CORRELATION_METHODS

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

    def test_threads_do_not_change_emission(self, monkeypatch):
        monkeypatch.setattr(rstats, "_BLOCK_ROWS", 5)
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(37, 8))
        m = dm([f"r{i}" for i in range(37)], [f"c{j}" for j in range(8)], vals)
        seq, _ = collect_pairs(m, threads=1)
        par, _ = collect_pairs(m, threads=4)
        assert seq == par
        with pytest.raises(ValueError, match="threads must be >= 1"):
            collect_pairs(m, threads=0)

    def test_chunk_size_does_not_change_emission(self, monkeypatch):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(11, 6))
        m = dm([f"r{i}" for i in range(11)], [f"c{j}" for j in range(6)], vals)
        monkeypatch.setattr(rstats, "_BLOCK_ROWS", 2)
        small, _ = collect_pairs(m)
        monkeypatch.setattr(rstats, "_BLOCK_ROWS", 512)
        large, _ = collect_pairs(m)
        assert small == large

    @pytest.mark.parametrize("missing", [False, True], ids=["dense", "missing"])
    @pytest.mark.parametrize("block_rows", [7, None])
    def test_every_block_holds_at_most_block_rows(self, missing, block_rows,
                                                  monkeypatch):
        # the documented memory bound, O(_BLOCK_ROWS x rows): each block
        # is at most _BLOCK_ROWS rows against their later rows, and the
        # blocks tile the rows in order
        if block_rows is not None:
            monkeypatch.setattr(rstats, "_BLOCK_ROWS", block_rows)
        m = _memory_case(missing)
        n, starts = m.n_rows, []
        for s, r, keep in rstats._correlation_blocks(m, "pearson"):
            assert r.shape == keep.shape == (min(rstats._BLOCK_ROWS, n - s), n - s)
            starts.append(s)
        assert starts == list(range(0, n, rstats._BLOCK_ROWS))
        assert rstats._BLOCK_ROWS == (block_rows or 256)

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
                                                             scalar, monkeypatch):
        rng = np.random.default_rng(13)
        vals = np.round(rng.normal(scale=0.1, size=(30, 7)), 1)
        vals[rng.random(vals.shape) < 0.3] = NA
        m = dm([f"r{i}" for i in range(30)], [f"c{j}" for j in range(7)], vals)
        monkeypatch.setattr(rstats, "_BLOCK_ROWS", 4)
        got, res = collect_pairs(m, method=method)
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

    def test_wide_matrix_with_missing_values_agrees_with_pearson(self):
        # past 9,065 columns, sums of squared doubled midranks pass 2^53
        rng = np.random.default_rng(23)
        vals = rng.normal(size=(3, 9066))
        vals[rng.random(vals.shape) < 0.05] = NA
        m = dm(["a", "b", "c"], [f"c{j}" for j in range(9066)], vals)
        got, _ = collect_pairs(m)
        assert [p[:2] for p in got] == [("a", "b"), ("a", "c"), ("b", "c")]
        for (_, _, r), (i, j) in zip(got, combinations(range(3), 2)):
            assert abs(r - pearson(vals[i], vals[j])) <= 1e-12

    @pytest.mark.parametrize("missing", [False, True], ids=["dense", "missing"])
    @pytest.mark.parametrize("x", [
        pytest.param([1e160, -1e160, 0], id="products_overflow"),
        pytest.param([1e-170, -1e-170, 0], id="products_underflow"),
    ])
    def test_extreme_magnitudes_match_exact_oracle(self, x, missing):
        rows = [x + [NA], [1, 2, 3, 4]] if missing else [x, [1, 2, 3]]
        m = dm(["a", "b"], [f"c{j}" for j in range(len(rows[0]))], rows)
        want = exact_r(*rows)
        got, _ = collect_pairs(m)
        buf = io.StringIO()
        write_pairwise_text(m, buf)
        assert got[0][2] == pytest.approx(want, rel=1e-15)
        assert buf.getvalue() == f"a\tb\t{got[0][2]!r}\n"

    @pytest.mark.parametrize("method, scalar",
                             [("pearson", pearson), ("spearman", spearman)])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_engine_agrees_with_scalar_function_at_any_magnitude(self, method,
                                                                 scalar, data):
        # each row: integers (ties likely) times one power of two
        n_cols = data.draw(st.integers(3, 12))
        ints = st.lists(st.one_of(st.integers(-1000, 1000), st.integers(-2, 2)),
                        min_size=n_cols, max_size=n_cols)
        vals = np.array([np.ldexp(np.array(data.draw(ints), dtype=float),
                                  data.draw(st.integers(-1000, 1000)))
                         for _ in range(data.draw(st.integers(2, 5)))])
        names = [f"r{i}" for i in range(len(vals))]
        got, _ = collect_pairs(dm(names, [f"c{j}" for j in range(n_cols)], vals),
                               method=method)
        want = []
        for i, j in combinations(range(len(vals)), 2):
            try:
                want.append((names[i], names[j], scalar(vals[i], vals[j])))
            except ValueError:
                pass
        assert [p[:2] for p in got] == [p[:2] for p in want]
        for g, w in zip(got, want):
            assert abs(g[2] - w[2]) <= 1e-12

    @pytest.mark.parametrize("missing", [False, True])
    def test_memory_holds_one_block(self, missing, monkeypatch):
        # at 3,000 rows the upper triangle of r is 36 MB, and a block of
        # 64 rows against every partner 1.5 MB.  Most rows are constant,
        # so few pairs reach the sink, but every block product is formed.
        monkeypatch.setattr(rstats, "_BLOCK_ROWS", 64)
        m = _memory_case(missing)
        tracemalloc.start()
        try:
            res = pairwise_row_correlations(m, lambda a, b, r: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.emitted == math.comb(300, 2)
        assert peak < 12 * 64 * 3000 * 8


# ---------------------------------------------------------------------------
# pairwise text
# ---------------------------------------------------------------------------

def _pairwise_case(kind, monkeypatch):
    """(matrix, method) of one byte-identity case, with its block size
    set in ``_BLOCK_ROWS``."""
    rng = np.random.default_rng(15)
    vals = rng.normal(size=(29, 8))
    method, block_rows = "pearson", 5
    if kind == "missing":
        vals[rng.random(vals.shape) < 0.2] = NA
    elif kind == "spearman_ties":
        vals = np.round(vals, 0)
        vals[rng.random(vals.shape) < 0.1] = NA
        method = "spearman"
    elif kind == "chunk_not_dividing":
        block_rows = 7
    elif kind == "no_kept_partners":
        # rows 20 and up are constant, so row 19 keeps no partner
        vals[20:] = 1.0
    elif kind == "one_task":  # one block
        vals, block_rows = vals[:6], 256
    monkeypatch.setattr(rstats, "_BLOCK_ROWS", block_rows)
    names = [f"r{i}" for i in range(len(vals))]
    return dm(names, [f"c{j}" for j in range(vals.shape[1])], vals), method


def _reference_text(m, **kw):
    got, res = collect_pairs(m, **kw)
    return "".join(f"{a}\t{b}\t{r!r}\n" for a, b, r in got), res


class _Discard:
    def write(self, text):
        pass


class TestWritePairwiseText:
    KINDS = ["dense", "missing", "spearman_ties", "chunk_not_dividing",
             "no_kept_partners", "one_task"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cell_bytes", [65536, 40])
    def test_bytes_match_sink_reference(self, kind, cell_bytes, monkeypatch):
        # 40 bytes cut each block into runs of one row; 65,536 write each
        # block of these cases in one run
        monkeypatch.setattr(rstats, "_CELL_BYTES", cell_bytes)
        m, method = _pairwise_case(kind, monkeypatch)
        want, want_res = _reference_text(m, method=method)
        assert want
        buf = io.StringIO()
        res = write_pairwise_text(m, buf, method)
        assert buf.getvalue() == want
        assert res == want_res

    def test_no_kept_partners_case_has_such_a_row(self, monkeypatch):
        m, method = _pairwise_case("no_kept_partners", monkeypatch)
        got, _ = collect_pairs(m, method=method)
        assert "r18" in {a for a, _, _ in got}
        assert "r19" not in {a for a, _, _ in got}

    @pytest.mark.parametrize("call", [
        lambda m: write_pairwise_text(m, io.StringIO(), "pearson", 256),
        lambda m: write_pairwise_text(m, io.StringIO(), chunk=256),
        lambda m: pairwise_row_correlations(m, print, "pearson", 256),
        lambda m: pairwise_row_correlations(m, print, chunk=256),
    ])
    def test_block_size_is_no_argument(self, call, monkeypatch):
        # a block size passed where it used to go is never read as a
        # thread count
        m, _ = _pairwise_case("dense", monkeypatch)
        with pytest.raises(TypeError):
            call(m)

    def test_threads_start_no_process(self, monkeypatch):
        # children alive while any text is written, or while the sink is
        # called at any thread count
        seen = []

        class Watched(io.StringIO):
            def write(self, text):
                seen.extend(multiprocessing.active_children())
                return super().write(text)

        m, method = _pairwise_case("dense", monkeypatch)
        buf = Watched()
        results = [write_pairwise_text(m, buf, method)]
        for threads in (1, 4):
            results.append(pairwise_row_correlations(
                m, lambda *pair: seen.extend(multiprocessing.active_children()),
                method, threads=threads))
        assert seen == [] and not multiprocessing.active_children()
        assert buf.getvalue() == _reference_text(m, method=method)[0]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("missing", [False, True], ids=["dense", "masked"])
    def test_every_r_within_one(self, missing):
        # the first 200 of test_clamped_to_one's vectors, each twice:
        # unclamped, 47 lines read |r| > 1, and 24 with every third row
        # missing column 0
        v = np.repeat(np.random.default_rng(0).normal(size=(2000, 5))[:200], 2, axis=0)
        if missing:
            v[::3, 0] = NA
        buf = io.StringIO()
        res = write_pairwise_text(dm([f"r{i}" for i in range(400)], list("abcde"), v), buf)
        rs = np.array([line.rsplit("\t", 1)[1] for line in buf.getvalue().splitlines()],
                      dtype=float)
        assert res.emitted == len(rs) == pair_count(400)
        assert np.abs(rs).max() == 1.0

    @pytest.mark.parametrize("missing", [False, True], ids=["dense", "masked"])
    def test_nan_r_stays_nan(self, missing):
        vals = [[math.inf, 1, 2, 4], [1, 2, 3, 4], [4, 1, 3, 2]]
        if missing:
            vals[2][0] = NA
        buf = io.StringIO()
        with np.errstate(invalid="ignore"):
            write_pairwise_text(dm("abc", ["c1", "c2", "c3", "c4"], vals), buf)
        assert [line.split("\t")[2] for line in buf.getvalue().splitlines()][:2] \
            == ["nan", "nan"]

    @pytest.mark.parametrize("missing", [False, True])
    def test_memory_holds_one_block(self, missing, monkeypatch):
        # as TestPairwise.test_memory_holds_one_block, through the text
        # writer; the lines in flight stay within the same bound
        monkeypatch.setattr(rstats, "_BLOCK_ROWS", 64)
        m = _memory_case(missing)
        tracemalloc.start()
        try:
            res = write_pairwise_text(m, _Discard())
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


@pytest.mark.parametrize("test", [lambda a, b: kw_per_feature([a, b]),
                                  wilcoxon_per_feature], ids=["kw", "wilcoxon"])
def test_per_feature_tests_hold_one_block_of_ranks(test):
    # two aligned groups of 20,000 x 50 values, 2 % missing (15.3 MiB):
    # the groups are pooled and ranked a block of rows at a time, so no
    # pooled copy of them, nor its ranks, is ever whole
    rng = np.random.default_rng(23)
    rows = [f"g{i:05d}" for i in range(20_000)]
    groups = []
    for side in "ab":
        vals = rng.normal(size=(20_000, 50))
        vals[rng.random(vals.shape) < 0.02] = NA
        groups.append(dm(rows, [f"{side}{j}" for j in range(50)], vals))
    tracemalloc.start()
    try:
        out = test(*groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 20_000 and out.tested.all()
    assert peak < sum(g.values.nbytes for g in groups)


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
        adj = benjamini_yekutieli(np.log([0.01, 0.02, 0.03]))
        np.testing.assert_allclose(np.exp(adj), 0.055, rtol=0, atol=1e-12)

    def test_single_value(self):
        assert benjamini_yekutieli(np.array([0.0])).tolist() == [0.0]

    def test_matches_linear_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ps = rng.uniform(1e-6, 1.0, size=rng.integers(1, 40)).tolist()
            adj = benjamini_yekutieli(np.log(ps))
            np.testing.assert_allclose(np.exp(adj), by_oracle_linear(ps),
                                       rtol=1e-12, atol=0)

    def test_adjusted_at_least_raw(self):
        rng = np.random.default_rng(10)
        ln_p = np.log(rng.uniform(0, 1, size=25))
        assert (benjamini_yekutieli(ln_p) >= ln_p - 1e-12).all()

    def test_deep_log_domain_survives(self):
        adj = benjamini_yekutieli(np.array([math.log(1e-300), -900.0, math.log(0.5)]))
        assert adj[1] < adj[0] < adj[2]
        assert np.isfinite(adj).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        ln_p = np.log(rng.uniform(0, 1, size=12))
        perm = rng.permutation(12)
        np.testing.assert_allclose(benjamini_yekutieli(ln_p[perm]),
                                   benjamini_yekutieli(ln_p)[perm], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ln_p", [[], [[-1.0, -2.0]], [-1.0, math.nan],
                                      [-math.inf], [0.5]])
    def test_refuses_what_logp_refuses(self, ln_p):
        with pytest.raises(ValueError):
            benjamini_yekutieli(np.array(ln_p))


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
        # any sequence in, a table out: a list of rows or a table
        before = ResultTable.of(self.results())
        for given in (self.results(), before):
            after = apply_fdr(given)
            assert isinstance(after, ResultTable)
            assert after.features == before.features
            for column in ("statistic", "ln_p", "direction"):
                assert getattr(after, column).tobytes() \
                    == getattr(before, column).tobytes()
            assert after[1].p_adjusted.p == pytest.approx(0.5 * 1.5, rel=1e-12)
            assert after[2].p_raw is None and after[2].p_adjusted is None

    def test_significant_strict_threshold(self):
        rs = [Result("x", 1.0, LogP.from_p(0.04), LogP.from_p(0.04), "over"),
              Result("y", 1.0, LogP.from_p(0.05), LogP.from_p(0.05), "over")]
        out = significant_features(rs, 0.05)
        assert [r.feature for r in out] == ["x"]

    def test_boundary_excluded(self):
        rs = [Result("x", 1.0, LogP.from_p(0.05), LogP.from_p(0.05), "over")]
        out = significant_features(rs, 0.05)
        assert isinstance(out, ResultTable) and len(out) == 0

    def test_missing_fdr_rejected(self):
        rs = [Result("x", 1.0, LogP.from_p(0.01), None, "over")]
        with pytest.raises(ValueError, match="FDR"):
            significant_features(rs, 0.05)

    def test_empty_input_empty_output(self):
        out = significant_features([], 0.05)
        assert isinstance(out, ResultTable) and len(out) == 0


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
