import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmerge.errors import AlreadyScoredError
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.numerics import inv_norm_cdf
from rankmerge.transform import (
    ecdf_score,
    midrank,
    rank_rows,
    score_dataset,
    score_matrix,
    vdw_score,
)

NA = math.nan


def midrank_oracle(values):
    # independent route: per value, mean of the 1-based positions its
    # ties would occupy in the sorted order
    present = [v for v in values if not math.isnan(v)]
    out = []
    for v in values:
        if math.isnan(v):
            out.append(NA)
            continue
        below = sum(1 for w in present if w < v)
        tied = sum(1 for w in present if w == v)
        out.append(below + (tied + 1) / 2)
    return out


def inv_phi_bisect(p, lo=-10.0, hi=10.0):
    # bisection on an erf-free normal CDF series
    def phi(z):
        # Maclaurin series of the standard normal CDF
        term = z
        total = z
        for k in range(1, 200):
            term *= -z * z / (2 * k)
            total += term / (2 * k + 1)
        return 0.5 + total / math.sqrt(2 * math.pi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestMidrank:
    def test_distinct(self):
        assert midrank([3, 1, 2]).ranks.tolist() == [3, 1, 2]

    def test_tied_pair(self):
        assert midrank([2, 1, 2]).ranks.tolist() == [2.5, 1, 2.5]

    def test_full_tie(self):
        assert midrank([5, 5, 5]).ranks.tolist() == [2, 2, 2]

    def test_missing_stays_missing(self):
        rv = midrank([4, NA, 6])
        assert math.isnan(rv.ranks[1])
        assert rv.ranks[0] == 1 and rv.ranks[2] == 2
        assert rv.n == 2

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError):
            midrank([NA, NA])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.none()),
                    min_size=1, max_size=30))
    def test_rank_sum_and_bounds(self, raw):
        vals = [NA if v is None else v for v in raw]
        if all(math.isnan(v) for v in vals):
            return
        rv = midrank(vals)
        present = rv.ranks[~np.isnan(rv.ranks)]
        assert rv.n == len(present)
        assert math.isclose(present.sum(), rv.n * (rv.n + 1) / 2,
                            rel_tol=0, abs_tol=1e-9)
        assert present.min() >= 1 and present.max() <= rv.n
        assert np.allclose(rv.ranks, midrank_oracle(vals), equal_nan=True)


class TestEcdfScore:
    def test_distinct(self):
        assert ecdf_score([3, 1, 2]).tolist() == [1.0, 1 / 3, 2 / 3]

    def test_singleton(self):
        assert ecdf_score([7]).tolist() == [1.0]

    def test_tied_uses_midrank(self):
        # midrank 2.5 of 3 -> 5/6, checked against the rank oracle
        expected = [r / 3 for r in midrank_oracle([2, 1, 2])]
        assert ecdf_score([2, 1, 2]).tolist() == pytest.approx(expected)
        assert ecdf_score([2, 1, 2]).tolist() == pytest.approx([5 / 6, 1 / 3, 5 / 6])

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        s = ecdf_score(rng.normal(size=40))
        assert np.all(s > 0) and np.all(s <= 1)

    def test_missing_preserved(self):
        s = ecdf_score([1, NA, 2])
        assert math.isnan(s[1])
        assert s[0] == 0.5 and s[2] == 1.0


class TestVdwScore:
    def test_three_distinct_against_bisection_oracle(self):
        got = vdw_score([3, 1, 2])
        assert abs(got[0] - inv_phi_bisect(0.75)) < 1e-8
        assert abs(got[1] - inv_phi_bisect(0.25)) < 1e-8
        assert got[2] == 0.0
        assert got[0] == pytest.approx(0.67449, abs=1e-5)

    def test_middle_of_odd_column_exactly_zero(self):
        got = vdw_score([10.0, -3.0, 4.0, 99.0, 7.0])
        assert got[np.argsort(got)[2]] == 0.0

    def test_antisymmetry(self):
        got = vdw_score(np.arange(8.0))
        assert np.allclose(got, -got[::-1], atol=1e-12)

    def test_column_sum_near_zero(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=1001)
        assert abs(vdw_score(col).sum()) < 1e-9 * col.size

    def test_missing_preserved(self):
        got = vdw_score([5, NA, 1])
        assert math.isnan(got[1])
        assert got[0] == pytest.approx(-got[2], abs=1e-12)


class TestMonotoneInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-2000, 2000), min_size=2, max_size=40))
    def test_exp_transform_leaves_scores_unchanged(self, grid):
        # a coarse grid keeps exp injective in float arithmetic; repeats
        # deliberately exercise the tie path
        a = np.array(grid, dtype=float) / 100.0
        for fn in (ecdf_score, vdw_score):
            assert np.array_equal(fn(a), fn(np.exp(a)), equal_nan=True)

    def test_affine_transform_exact(self):
        rng = np.random.default_rng(9)
        col = rng.normal(size=25)
        assert np.array_equal(vdw_score(col), vdw_score(3.0 * col + 11.0))


def toy_dataset():
    data = DataMatrix(("AAA", "BBB", "CCC"), ("s1",),
                      np.array([[3.0], [1.0], [2.0]]))
    info = InfoMatrix((), ("s1",), ())
    return Dataset(data, info, name="toy")


class TestScoreMatrix:
    def test_vdw_single_column_dataset(self):
        out = score_matrix(toy_dataset().data, "vdw")
        col = out.values[:, 0]
        assert col[0] == pytest.approx(0.67449, abs=1e-5)
        assert col[1] == pytest.approx(-0.67449, abs=1e-5)
        assert col[2] == 0.0

    def test_ecdf_columns_on_grid(self):
        rng = np.random.default_rng(2)
        m = DataMatrix(tuple(f"g{i}" for i in range(12)),
                       tuple(f"s{j}" for j in range(4)),
                       rng.normal(size=(12, 4)))
        out = score_matrix(m, "ecdf")
        grid = {k / 12 for k in range(1, 13)}
        for j in range(4):
            assert set(out.values[:, j]) <= grid

    def test_columns_independent(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(6, 3))
        m = DataMatrix(tuple(f"g{i}" for i in range(6)),
                       ("a", "b", "c"), vals)
        full = score_matrix(m, "vdw")
        sub = score_matrix(m.take_cols([1]), "vdw")
        assert np.array_equal(full.values[:, 1], sub.values[:, 0])

    @pytest.mark.parametrize("shape", [(40, 5), (1, 3), (7, 1)])
    def test_vdw_bitwise_equal_to_one_quantile_call(self, shape):
        # the quantiles of all columns in one inv_norm_cdf call, as the
        # scoring did before it went one column at a time
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 6, size=shape).astype(float)
        vals[rng.random(shape) < 0.2] = NA
        vals[0] = 1.0  # every column keeps a value
        ranks, _, n = rank_rows(vals.T)
        p = ranks / (n + 1)[:, None]
        present = ~np.isnan(p)
        p[present] = inv_norm_cdf(p[present])
        m = DataMatrix(tuple(f"g{i}" for i in range(shape[0])),
                       tuple(f"s{j}" for j in range(shape[1])), vals)
        got = score_matrix(m, "vdw").values
        assert np.isnan(got).any() or shape == (1, 3)
        assert got.tobytes() == np.ascontiguousarray(p.T).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            score_matrix(toy_dataset().data, "zscore")

    def test_names_unchanged(self):
        out = score_matrix(toy_dataset().data, "ecdf")
        assert out.row_names == toy_dataset().data.row_names
        assert out.col_names == toy_dataset().data.col_names


class TestScoreDataset:
    def test_score_state_updated(self):
        out = score_dataset(toy_dataset(), "vdw")
        assert out.score == "vdw"
        assert out.name == "toy"

    def test_double_scoring_rejected(self):
        once = score_dataset(toy_dataset(), "ecdf")
        with pytest.raises(AlreadyScoredError):
            score_dataset(once, "vdw")

    def test_missing_entries_stay_missing(self):
        data = DataMatrix(("a", "b", "c"), ("s1", "s2"),
                          np.array([[1.0, NA], [2.0, 5.0], [3.0, 4.0]]))
        ds = Dataset(data, InfoMatrix((), ("s1", "s2"), ()), name="m")
        out = score_dataset(ds, "vdw")
        assert math.isnan(out.data.values[0, 1])
        assert not np.isnan(out.data.values[:, 0]).any()
