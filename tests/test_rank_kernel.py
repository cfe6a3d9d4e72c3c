"""The row-wise midrank kernel and the rank tests built on it.

The per-value loop code below is the arithmetic the vectorized kernel
replaced, kept as the reference: every statistic and log p-value of
the vectorized tests must equal it bit for bit.  scipy, where
installed, is an independent oracle.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmerge import transform
from rankmerge.errors import DegenerateDataError
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.numerics import inv_norm_cdf
from rankmerge.rstats import (
    kruskal_wallis,
    kw_per_feature,
    pairwise_row_correlations,
    wilcoxon_group_vs_rest,
    wilcoxon_one_sided,
    wilcoxon_per_feature,
)
from rankmerge.transform import rank_rows, score_matrix
from test_tail_reference import ref_chi_sq_upper_tail_ln, ref_norm_upper_tail_ln

NA = math.nan


# ---------------------------------------------------------------------------
# reference: the per-value loop arithmetic
# ---------------------------------------------------------------------------

def ref_midranks(v):
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return (starts + (counts + 1) / 2.0)[inverse]


def ref_tie_factor(pooled):
    n = pooled.size
    _, counts = np.unique(pooled, return_counts=True)
    correction = float(((counts.astype(float) ** 3) - counts).sum())
    return 1.0 - correction / (float(n) ** 3 - n)


def ref_kw(groups):
    """(H, ln p) of present-value groups, or None when untestable."""
    k = len(groups)
    sizes = [g.size for g in groups]
    pooled = np.concatenate(groups)
    n = pooled.size
    if any(s == 0 for s in sizes) or n < k + 1:
        return None
    tie = ref_tie_factor(pooled)
    if tie == 0.0:
        return None
    ranks = ref_midranks(pooled)
    h = 0.0
    start = 0
    for s in sizes:
        rsum = float(ranks[start:start + s].sum())
        h += rsum * rsum / s
        start += s
    h = 12.0 / (n * (n + 1.0)) * h - 3.0 * (n + 1.0)
    h = max(h / tie, 0.0)
    return h, ref_chi_sq_upper_tail_ln(h, k - 1).ln_p


def ref_wilcoxon(av, bv, alternative):
    """(statistic, ln p) by the normal approximation, or None."""
    n_a, n_b = av.size, bv.size
    n = n_a + n_b
    if n_a < 1 or n_b < 1 or n < 4:
        return None
    pooled = np.concatenate([av, bv])
    tie = ref_tie_factor(pooled)
    if tie == 0.0:
        return None
    rank_sum_a = float(ref_midranks(pooled)[:n_a].sum())
    u = rank_sum_a - n_a * (n_a + 1) / 2.0
    mean_u = n_a * n_b / 2.0
    sd_u = math.sqrt(tie * n_a * n_b * (n + 1) / 12.0)
    if alternative == "A_greater":
        z = (u - mean_u - 0.5) / sd_u
    else:
        z = (mean_u - u - 0.5) / sd_u
    return (u - mean_u) / sd_u, ref_norm_upper_tail_ln(z).ln_p


def ref_exact_ln_p(n_a, n_b, rank_sum_a):
    n = n_a + n_b
    count = sum(1 for c in combinations(range(1, n + 1), n_a)
                if sum(c) >= rank_sum_a)
    return math.log(count) - math.log(math.comb(n, n_a))


def present(row):
    return row[~np.isnan(row)]


def same(a, b):
    """Bitwise equality of two floats, NaN equal to NaN."""
    return np.array(a).tobytes() == np.array(b).tobytes()


# ---------------------------------------------------------------------------
# inputs: coarse grids give ties; NaN, all-tied rows and rows with an
# empty group are drawn on purpose
# ---------------------------------------------------------------------------

@st.composite
def tie_matrices(draw, min_cols=1, max_cols=10):
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(min_cols, max_cols))
    cell = st.one_of(st.integers(-3, 3).map(float), st.just(NA),
                     st.floats(-1e3, 1e3, allow_nan=False))
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    x = np.array(rows, dtype=float)
    if draw(st.booleans()):
        x[draw(st.integers(0, n_rows - 1))] = draw(st.integers(-3, 3))
    return x


@st.composite
def split_matrices(draw):
    """A matrix and a column split point with both sides non-empty."""
    x = draw(tie_matrices(min_cols=2, max_cols=12))
    cut = draw(st.integers(1, x.shape[1] - 1))
    if draw(st.booleans()):
        x[draw(st.integers(0, x.shape[0] - 1)), :cut] = NA  # empty group A
    return x, cut


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

class TestRankRows:
    def test_small_example(self):
        ranks, tie_sum, n = rank_rows([[2, 1, 2, NA], [NA, NA, NA, NA]])
        assert np.array_equal(ranks, [[2.5, 1.0, 2.5, NA], [NA] * 4],
                              equal_nan=True)
        assert tie_sum.tolist() == [6.0, 0.0]
        assert n.tolist() == [3, 0]

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            rank_rows([1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(tie_matrices())
    def test_matches_reference_loop(self, x):
        ranks, tie_sum, n = rank_rows(x)
        for i, row in enumerate(x):
            keep = ~np.isnan(row)
            assert n[i] == keep.sum()
            assert np.isnan(ranks[i, ~keep]).all()
            if keep.any():
                assert same(ranks[i, keep], ref_midranks(row[keep]))
                _, counts = np.unique(row[keep], return_counts=True)
                assert tie_sum[i] == float((counts.astype(float) ** 3
                                            - counts).sum())

    @settings(max_examples=100, deadline=None)
    @given(tie_matrices())
    def test_matches_scipy_rankdata(self, x):
        stats = pytest.importorskip("scipy.stats")
        ranks, _, _ = rank_rows(x)
        for i, row in enumerate(x):
            keep = ~np.isnan(row)
            if keep.any():
                assert np.array_equal(ranks[i, keep],
                                      stats.rankdata(row[keep]))

    def test_blocks_do_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = np.round(rng.normal(size=(37, 9)), 1)
        x[rng.random(x.shape) < 0.1] = NA
        whole = rank_rows(x)
        monkeypatch.setattr(transform, "RANK_BLOCK_CELLS", 20)
        blocked = rank_rows(x)
        for a, b in zip(whole, blocked):
            assert a.tobytes() == b.tobytes()

    def test_signed_zero_and_infinities_tie_like_equals(self):
        ranks, tie_sum, _ = rank_rows([[0.0, -0.0, np.inf, -np.inf, np.inf]])
        assert ranks.tolist() == [[2.5, 2.5, 4.5, 1.0, 4.5]]
        assert tie_sum.tolist() == [12.0]


class TestScoring:
    @settings(max_examples=60, deadline=None)
    @given(tie_matrices(max_cols=6))
    def test_score_matrix_equals_per_column_reference(self, x):
        m = DataMatrix(tuple(f"g{i}" for i in range(x.shape[0])),
                       tuple(f"s{j}" for j in range(x.shape[1])), x)
        if np.isnan(x).all(axis=0).any():
            with pytest.raises(ValueError):
                score_matrix(m, "vdw")
            return
        for kind in ("ecdf", "vdw"):
            got = score_matrix(m, kind).values
            for j in range(x.shape[1]):
                col = x[:, j]
                keep = ~np.isnan(col)
                r = ref_midranks(col[keep])
                n = int(keep.sum())
                want = r / n if kind == "ecdf" else inv_norm_cdf(r / (n + 1))
                assert same(got[keep, j], want)
                assert np.isnan(got[~keep, j]).all()


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------

def split_dm(x, cuts):
    """Group matrices of x's columns split at ``cuts``."""
    rows = tuple(f"g{i}" for i in range(x.shape[0]))
    bounds = [0, *cuts, x.shape[1]]
    return [DataMatrix(rows, tuple(f"c{j}" for j in range(lo, hi)), x[:, lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


class TestKruskalWallisKernel:
    @settings(max_examples=100, deadline=None)
    @given(split_matrices(), st.data())
    def test_per_feature_equals_reference_and_scalar(self, xc, data):
        x, cut = xc
        cuts = [cut]
        if x.shape[1] - cut >= 2 and data.draw(st.booleans()):
            cuts.append(data.draw(st.integers(cut + 1, x.shape[1] - 1)))
        groups = split_dm(x, cuts)
        results = kw_per_feature(groups)
        labels = np.repeat(np.arange(len(groups)),
                           [g.n_cols for g in groups])
        for i, r in enumerate(results):
            assert r.feature == f"g{i}"
            ref = ref_kw([present(g.values[i]) for g in groups])
            if ref is None:
                assert math.isnan(r.statistic) and r.p_raw is None
                assert r.direction == "none"
            else:
                assert same(r.statistic, ref[0])
                assert same(r.p_raw.ln_p, ref[1])
            keep = ~np.isnan(x[i])
            if len(set(labels[keep])) < len(groups):
                continue  # the scalar test would drop the empty group
            if ref is None:
                with pytest.raises((DegenerateDataError, ValueError)):
                    kruskal_wallis(x[i], labels)
            else:
                scalar = kruskal_wallis(x[i], labels)
                assert same(scalar.statistic, r.statistic)
                assert same(scalar.p_raw.ln_p, r.p_raw.ln_p)

    @settings(max_examples=80, deadline=None)
    @given(split_matrices())
    def test_h_matches_scipy_kruskal(self, xc):
        stats = pytest.importorskip("scipy.stats")
        x, cut = xc
        for r, row in zip(kw_per_feature(split_dm(x, [cut])), x):
            if r.p_raw is None:
                continue
            a, b = present(row[:cut]), present(row[cut:])
            want = stats.kruskal(a, b)
            assert r.statistic == pytest.approx(want.statistic, rel=1e-9,
                                                abs=1e-12)
            assert r.p_raw.p == pytest.approx(want.pvalue, rel=1e-9,
                                              abs=1e-15)

    def test_reasons_raise_like_before(self):
        with pytest.raises(DegenerateDataError, match="tied"):
            kruskal_wallis([7, 7, 7, 7], list("aabb"))
        with pytest.raises(ValueError, match="more than 2 values"):
            kruskal_wallis([1, 2], list("ab"))


# ---------------------------------------------------------------------------
# one-sided Wilcoxon
# ---------------------------------------------------------------------------

class TestWilcoxonKernel:
    @settings(max_examples=100, deadline=None)
    @given(split_matrices(), st.sampled_from(["A_greater", "A_less"]))
    def test_approximation_equals_reference_and_scalar(self, xc, alternative):
        x, cut = xc
        a, b = split_dm(x, [cut])
        results = wilcoxon_per_feature(a, b, alternative, exact=False)
        for i, r in enumerate(results):
            ref = ref_wilcoxon(present(x[i, :cut]), present(x[i, cut:]),
                               alternative)
            if ref is None:
                assert math.isnan(r.statistic) and r.p_raw is None
                with pytest.raises((DegenerateDataError, ValueError)):
                    wilcoxon_one_sided(x[i, :cut], x[i, cut:], alternative,
                                       exact=False)
                continue
            assert same(r.statistic, ref[0]) and same(r.p_raw.ln_p, ref[1])
            scalar = wilcoxon_one_sided(x[i, :cut], x[i, cut:], alternative,
                                        exact=False)
            assert same(scalar.statistic, r.statistic)
            assert same(scalar.p_raw.ln_p, r.p_raw.ln_p)

    @settings(max_examples=60, deadline=None)
    @given(split_matrices())
    def test_group_vs_rest_equals_scalar_in_row_order(self, xc):
        x, cut = xc
        rows = tuple(f"r{i}" for i in reversed(range(x.shape[0])))
        cols = tuple(f"s{j}" for j in range(x.shape[1]))
        groups = tuple("case" if j < cut else "ctrl" for j in range(x.shape[1]))
        ds = Dataset(DataMatrix(rows, cols, x),
                     InfoMatrix(("grp",), cols, (groups,)), name="d")
        out = wilcoxon_group_vs_rest(ds, "grp", "case", "A_greater",
                                     mode="exact")
        assert [r.feature for r in out] == list(rows)
        for i, r in enumerate(out):
            try:
                want = wilcoxon_one_sided(x[i, :cut], x[i, cut:], "A_greater")
            except (DegenerateDataError, ValueError):
                assert r.p_raw is None
                continue
            assert same(r.statistic, want.statistic)
            assert same(r.p_raw.ln_p, want.p_raw.ln_p)

    def test_exact_tail_equals_enumeration_bitwise(self):
        for n in range(4, 11):
            for n_a in range(1, n):
                for comb in combinations(range(1, n + 1), n_a):
                    a = [float(v) for v in comb]
                    b = [float(v) for v in range(1, n + 1) if v not in comb]
                    got = wilcoxon_one_sided(a, b, "A_greater", exact=True)
                    want = ref_exact_ln_p(n_a, n - n_a, sum(comb))
                    assert same(got.p_raw.ln_p, want)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.randoms(use_true_random=False),
           st.sampled_from(["A_greater", "A_less"]))
    def test_exact_tail_matches_scipy(self, n_a, n_b, rnd, alternative):
        stats = pytest.importorskip("scipy.stats")
        if n_a + n_b < 4:
            return
        pool = list(range(1, n_a + n_b + 1))
        rnd.shuffle(pool)
        a, b = pool[:n_a], pool[n_a:]
        got = wilcoxon_one_sided(a, b, alternative, exact=True).p_raw.p
        side = "greater" if alternative == "A_greater" else "less"
        want = stats.mannwhitneyu(a, b, alternative=side,
                                  method="exact").pvalue
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_exact_on_with_ties_is_degenerate_per_feature(self):
        a = DataMatrix(("x", "y"), ("a1", "a2"), np.array([[1.0, 1.0], [1.0, 5.0]]))
        b = DataMatrix(("x", "y"), ("b1", "b2"), np.array([[2.0, 3.0], [2.0, 3.0]]))
        out = {r.feature: r for r in wilcoxon_per_feature(a, b, exact=True)}
        assert out["x"].p_raw is None
        # ranks of y: A holds 1 and 4, and 4 of the 6 splits reach 5
        assert out["y"].p_raw.p == pytest.approx(4 / 6, abs=1e-15)

    def test_bad_alternative_rejected(self):
        a = DataMatrix(("x",), ("a1", "a2"), np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="alternative"):
            wilcoxon_per_feature(a, a, "two_sided")


def test_spearman_pairwise_ranks_rows_like_reference():
    rng = np.random.default_rng(11)
    x = np.round(rng.normal(size=(6, 8)), 1)
    got, want = [], []
    pairwise_row_correlations(
        DataMatrix(tuple(f"g{i}" for i in range(6)),
                   tuple(f"s{j}" for j in range(8)), x),
        lambda a, b, r: got.append(r), method="spearman")
    ranked = np.array([ref_midranks(row) for row in x])
    centered = ranked - ranked.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    for i in range(6):
        for j in range(i + 1, 6):
            want.append(float(centered[i] @ centered[j]) / (norms[i] * norms[j]))
    assert got == pytest.approx(want, abs=1e-12)
