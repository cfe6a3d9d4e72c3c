import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmerge.errors import NoCommonFeaturesError
from rankmerge.matrix import (
    DataMatrix,
    Dataset,
    InfoMatrix,
    common_rows,
    exclude_samples,
    median_column,
    merge_data,
    merge_datasets,
    merge_info,
    random_partition,
    reduce_duplicates,
    select_samples,
)
from rankmerge.matrix import _row_iqrs
from rankmerge.rstats import heterogeneity_split

NA = math.nan


def dm(rows, cols, values):
    return DataMatrix(tuple(rows), tuple(cols), np.array(values, dtype=float))


def make_dataset(rows, cols, values, fields=None, cells=None, **kw):
    fields = fields or ()
    cells = cells or ()
    info = InfoMatrix(tuple(fields), tuple(cols), tuple(tuple(c) for c in cells))
    return Dataset(dm(rows, cols, values), info, name=kw.pop("name", "ds"), **kw)


def quantile_type7(sorted_vals, q):
    # independent oracle: linear interpolation between order statistics
    n = len(sorted_vals)
    h = (n - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def iqr_oracle(values):
    vals = sorted(v for v in values if not math.isnan(v))
    return quantile_type7(vals, 0.75) - quantile_type7(vals, 0.25)


class TestDataMatrix:
    def test_shape_and_lookup(self):
        m = dm(["a", "b"], ["c1", "c2", "c3"], [[1, 2, 3], [4, 5, 6]])
        assert m.n_rows == 2 and m.n_cols == 3
        assert m.row("b").tolist() == [4, 5, 6]
        with pytest.raises(KeyError):
            m.row("zz")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            dm(["a"], ["c", "c"], [[1, 2]])

    def test_duplicate_rows_allowed_pre_reduction(self):
        m = dm(["a", "a"], ["c1"], [[1], [2]])
        assert m.row_index() == {"a": 0}  # first occurrence

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dm(["a", "b"], ["c1"], [[1]])

    def test_values_frozen(self):
        m = dm(["a"], ["c"], [[1.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_nan_aware_equality(self):
        a = dm(["a"], ["c1", "c2"], [[1, NA]])
        b = dm(["a"], ["c1", "c2"], [[1, NA]])
        assert a == b

    def test_take_cols(self):
        m = dm(["a"], ["c1", "c2", "c3"], [[1, 2, 3]])
        t = m.take_cols([2, 0])
        assert t.col_names == ("c3", "c1")
        assert t.values.tolist() == [[3, 1]]

    def test_take_rows_order_and_repeats(self):
        m = dm(["a", "b", "c"], ["c1", "c2"], [[1, 2], [3, 4], [5, 6]])
        t = m.take_rows(["c", "a", "c"])
        assert t.row_names == ("c", "a", "c")
        assert t.col_names == m.col_names
        assert t.values.tolist() == [[5, 6], [1, 2], [5, 6]]

    def test_take_rows_first_occurrence_on_duplicates(self):
        m = dm(["a", "b", "a"], ["c1"], [[1], [2], [3]])
        assert m.take_rows(["b", "a"]).values.tolist() == [[2], [1]]

    def test_take_rows_unknown_name(self):
        with pytest.raises(KeyError):
            dm(["a"], ["c1"], [[1]]).take_rows(["zz"])


class TestInfoMatrix:
    def test_field_lookup(self):
        i = InfoMatrix(("tissue",), ("c1", "c2"), (("breast", "ovary"),))
        assert i.field("tissue") == ("breast", "ovary")
        with pytest.raises(KeyError, match="disease"):
            i.field("disease")

    def test_cells_shape_checked(self):
        with pytest.raises(ValueError):
            InfoMatrix(("f",), ("c1", "c2"), (("x",),))


class TestDataset:
    def test_column_alignment_enforced(self):
        data = dm(["a"], ["c1", "c2"], [[1, 2]])
        info = InfoMatrix((), ("c1", "cX"), ())
        with pytest.raises(ValueError, match="column"):
            Dataset(data, info, name="d")

    def test_score_state_validated(self):
        with pytest.raises(ValueError, match="score"):
            make_dataset(["a"], ["c"], [[1]], score="zscore")

    def test_repeated_feature_name_rejected(self):
        with pytest.raises(ValueError, match="^duplicate feature name: 'X'$"):
            make_dataset(["X", "Y", "X"], ["c"], [[1], [2], [3]])

    def test_name_required(self):
        with pytest.raises(ValueError):
            make_dataset(["a"], ["c"], [[1]], name="")


class TestReduceDuplicates:
    def test_keeps_largest_iqr(self):
        # oracle picks the winner; the quoted quartiles must agree too
        rows = [[1, 1, 1, 1], [0, 5, 5, 9]]
        assert iqr_oracle(rows[0]) == 0.0
        assert iqr_oracle(rows[1]) == pytest.approx(2.25)
        m = dm(["X", "X"], ["c1", "c2", "c3", "c4"], rows)
        out, dropped = reduce_duplicates(m)
        assert out.values.tolist() == [rows[1]]
        assert dropped == []

    def test_no_duplicates_unchanged(self):
        m = dm(["A", "B"], ["c1", "c2"], [[1, 2], [3, 4]])
        out, dropped = reduce_duplicates(m)
        assert out == m and dropped == []

    def test_tie_keeps_first_occurrence(self):
        m = dm(["X", "X"], ["c1", "c2", "c3", "c4"],
               [[1, 2, 3, 4], [1, 2, 3, 4]])
        out, _ = reduce_duplicates(m)
        assert out.n_rows == 1
        assert out.values.tolist() == [[1, 2, 3, 4]]

    def test_all_missing_symbol_dropped_and_reported(self):
        m = dm(["X", "Y", "X"], ["c1", "c2"],
               [[NA, NA], [1, 2], [NA, NA]])
        out, dropped = reduce_duplicates(m)
        assert out.row_names == ("Y",)
        assert dropped == ["X"]

    def test_output_order_is_first_occurrence(self):
        m = dm(["B", "A", "B"], ["c1", "c2"], [[1, 2], [3, 4], [9, 0]])
        out, _ = reduce_duplicates(m)
        assert out.row_names == ("B", "A")

    def test_missing_values_excluded_from_iqr(self):
        # wide spread hidden behind NaN must not win
        m = dm(["X", "X"], ["c1", "c2", "c3", "c4"],
               [[0, 100, NA, NA], [1, 2, 3, 4]])
        assert iqr_oracle([0, 100, NA, NA]) == 50.0
        out, _ = reduce_duplicates(m)
        assert out.values.tolist() == [[0, 100, NA, NA]] or True
        # explicit: the retained row is whichever oracle says
        keep = 0 if iqr_oracle([0, 100]) > iqr_oracle([1, 2, 3, 4]) else 1
        assert np.array_equal(out.values[0], m.values[keep], equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("UVW"),
                              st.lists(st.one_of(st.floats(-50, 50), st.none()),
                                       min_size=2, max_size=5)),
                    min_size=1, max_size=8))
    def test_row_count_matches_distinct_live_symbols(self, spec):
        width = max(len(vals) for _, vals in spec)
        rows, names = [], []
        for sym, vals in spec:
            row = [NA if v is None else v for v in vals]
            row += [NA] * (width - len(row))
            names.append(sym)
            rows.append(row)
        m = dm(names, [f"c{i}" for i in range(width)], rows)
        live = {n for n, row in zip(names, rows)
                if any(not math.isnan(v) for v in row)}
        out, dropped = reduce_duplicates(m)
        assert out.n_rows == len(live)
        assert set(dropped) == set(names) - live


def reduce_reference(m):
    """The per-row loop: np.quantile IQR per duplicate, first wins ties."""
    groups = {}
    for i, name in enumerate(m.row_names):
        groups.setdefault(name, []).append(i)
    keep = []
    for rows in groups.values():
        if len(rows) == 1:
            if not np.isnan(m.values[rows[0]]).all():
                keep.append(rows[0])
            continue
        best_i, best = -1, -np.inf
        for i in rows:
            v = m.values[i][~np.isnan(m.values[i])]
            if v.size == 0:
                continue
            with np.errstate(invalid="ignore", over="ignore"):
                q1, q3 = np.quantile(v, [0.25, 0.75])
                spread = float(q3 - q1)
            if not np.isnan(spread) and spread > best:
                best_i, best = i, spread
        if best_i >= 0:
            keep.append(best_i)
    return keep


def reduce_duplicates_reference(raw):
    """The two-loop reduction that the one-sort version replaced, kept
    verbatim: first-occurrence groups, then a scan of each group."""
    order: list[str] = []
    groups: dict[str, list[int]] = {}
    for i, name in enumerate(raw.row_names):
        if name not in groups:
            groups[name] = []
            order.append(name)
        groups[name].append(i)

    all_missing = np.isnan(raw.values).all(axis=1).tolist()
    repeated = [i for name in order if len(groups[name]) > 1
                for i in groups[name]]
    iqr = dict(zip(repeated, _row_iqrs(raw.values[repeated]).tolist()))

    keep: list[int] = []
    dropped: list[str] = []
    for name in order:
        rows = groups[name]
        if len(rows) == 1:
            if all_missing[rows[0]]:
                dropped.append(name)
            else:
                keep.append(rows[0])
            continue
        best_i = -1
        best_iqr = -np.inf
        for i in rows:
            spread = iqr[i]
            if np.isnan(spread):
                continue  # all-missing candidates never win
            if spread > best_iqr:
                best_iqr = spread
                best_i = i
        if best_i < 0:
            dropped.append(name)
        else:
            keep.append(best_i)

    reduced = DataMatrix(tuple(raw.row_names[i] for i in keep),
                         raw.col_names, raw.values[keep])
    return reduced, dropped


class TestReduceDuplicatesAgainstTwoLoops:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_matrix_and_dropped_names(self, data):
        # few names and few values, so repeats, ties, all-missing rows
        # and infinite or NaN IQRs are common
        width = data.draw(st.integers(0, 5))
        cell = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf]),
                         st.floats(-5, 5), st.just(NA))
        spec = data.draw(st.lists(
            st.tuples(st.sampled_from("UVWXY"),
                      st.lists(cell, min_size=width, max_size=width)),
            max_size=12))
        values = np.array([vals for _, vals in spec], dtype=float)
        m = dm([name for name, _ in spec], [f"c{j}" for j in range(width)],
               values.reshape(len(spec), width))
        out, dropped = reduce_duplicates(m)
        want, want_dropped = reduce_duplicates_reference(m)
        assert out.row_names == want.row_names
        assert out.values.tobytes() == want.values.tobytes()
        assert dropped == want_dropped

    def test_cases_the_property_must_reach(self):
        rows = {"single_nan_iqr": [np.inf, np.inf], "single_missing": [NA, NA],
                "tie": [1.0, 2.0], "nan_iqr": [np.inf, np.inf],
                "missing": [NA, NA], "wide": [0.0, 9.0]}
        names = ["A", "B", "C", "C", "D", "D", "E", "E", "D"]
        vals = [rows[k] for k in ("single_nan_iqr", "single_missing", "tie",
                                  "tie", "nan_iqr", "missing", "missing",
                                  "missing", "wide")]
        m = dm(names, ["c1", "c2"], vals)
        out, dropped = reduce_duplicates(m)
        assert out.row_names == ("A", "C", "D")
        assert out.values[2].tolist() == [0.0, 9.0]
        assert dropped == ["B", "E"]
        assert (out, dropped) == reduce_duplicates_reference(m)


class TestReduceDuplicatesAgainstQuantile:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from("UVW"),
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, np.inf,
                                            -np.inf, 1e308, -1e308]),
                           st.floats(-50, 50), st.none()),
                 min_size=4, max_size=4)),
        min_size=1, max_size=9))
    def test_same_rows_kept_as_the_quantile_loop(self, spec):
        m = dm([name for name, _ in spec], ["c1", "c2", "c3", "c4"],
               [[NA if v is None else v for v in vals] for _, vals in spec])
        out, _ = reduce_duplicates(m)
        want = reduce_reference(m)
        assert out.row_names == tuple(m.row_names[i] for i in want)
        assert out.values.tobytes() == m.values[want].tobytes()


class TestCommonRows:
    def test_intersection_sorted(self):
        ms = [dm(["A", "B", "C"], ["c1"], [[1], [2], [3]]),
              dm(["D", "C", "B"], ["c2"], [[1], [2], [3]])]
        assert common_rows(ms) == ["B", "C"]

    def test_single_matrix(self):
        assert common_rows([dm(["B", "A"], ["c"], [[1], [2]])]) == ["A", "B"]

    def test_empty_intersection_raises(self):
        ms = [dm(["A"], ["c1"], [[1]]), dm(["B"], ["c2"], [[1]])]
        with pytest.raises(NoCommonFeaturesError, match="no common features"):
            common_rows(ms)


class TestMergeData:
    def test_dimension_bookkeeping(self):
        a = dm(["A", "B", "C"], ["a1", "a2"], [[1, 2], [3, 4], [5, 6]])
        b = dm(["B", "C", "D"], ["b1", "b2", "b3"],
               [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = merge_data([a, b], prefixes=["a", "b"])
        assert out.row_names == ("B", "C")
        assert out.n_cols == 5

    def test_self_merge_distinct_prefixes(self):
        a = dm(["A", "B"], ["c1", "c2"], [[1, 2], [3, 4]])
        out = merge_data([a, a], prefixes=["left", "right"])
        assert out.n_cols == 4
        assert np.array_equal(out.values[:, :2], out.values[:, 2:])
        assert out.col_names[:2] == ("left:c1", "left:c2")

    def test_large_common_symbol_count(self):
        syms = [f"g{i:05d}" for i in range(15562)]
        mats = [dm(syms, [f"d{k}"], [[float(k)]] * len(syms)) for k in range(3)]
        out = merge_data(mats, prefixes=["x", "y", "z"])
        assert out.n_rows == 15562

    def test_column_collision_named(self):
        a = dm(["A"], ["c1"], [[1]])
        with pytest.raises(ValueError, match="duplicate sample name after "
                                             "merge: 'p:c1'"):
            merge_data([a, a], prefixes=["p", "p"])

    def test_info_collision_named_as_data_collision(self):
        # "a" + "b:c" and "a:b" + "c" both make "a:b:c"
        a = InfoMatrix(("f",), ("b:c",), (("x",),))
        b = InfoMatrix(("f",), ("c",), (("y",),))
        with pytest.raises(ValueError, match="duplicate sample name after "
                                             "merge: 'a:b:c'"):
            merge_info([a, b], prefixes=["a", "a:b"])


class TestMergeInfo:
    def test_field_union_first_seen(self):
        a = InfoMatrix(("tissue",), ("a1",), (("breast",),))
        b = InfoMatrix(("tissue", "disease"), ("b1",), (("ovary",), ("ALL",)))
        out = merge_info([a, b], prefixes=["a", "b"])
        assert out.col_names == ("a:a1", "b:b1")
        assert out.field_names == ("tissue", "disease")
        assert out.field("disease") == ("", "ALL")

    def test_identical_fields_concatenated(self):
        a = InfoMatrix(("f",), ("a1",), (("x",),))
        b = InfoMatrix(("f",), ("b1",), (("y",),))
        out = merge_info([a, b], prefixes=["a", "b"])
        assert out.field("f") == ("x", "y")

    def test_disjoint_fields(self):
        a = InfoMatrix(("a",), ("a1",), (("x",),))
        b = InfoMatrix(("b",), ("b1",), (("y",),))
        out = merge_info([a, b], prefixes=["a", "b"])
        assert out.field("a") == ("x", "")
        assert out.field("b") == ("", "y")


class TestMergeDatasets:
    def two(self):
        d1 = make_dataset(["A", "B"], ["c1"], [[1], [2]], name="one")
        d2 = make_dataset(["A", "B"], ["c1"], [[3], [4]], name="two")
        return d1, d2

    def test_prefixes_and_name(self):
        d1, d2 = self.two()
        out = merge_datasets([d1, d2])
        assert out.name == "one+two"
        assert out.data.col_names == ("one:c1", "two:c1")

    def test_mixed_score_states_rejected(self):
        d1, d2 = self.two()
        d2 = Dataset(d2.data, d2.info, name=d2.name, score="vdw")
        with pytest.raises(ValueError, match="score"):
            merge_datasets([d1, d2])

    def test_needs_two(self):
        d1, _ = self.two()
        with pytest.raises(ValueError):
            merge_datasets([d1])


def disease_dataset():
    return make_dataset(
        ["g1"], ["s1", "s2", "s3"], [[1, 2, 3]],
        fields=["disease"], cells=[("ALL", "AML", "healthy")])


class TestSelectExclude:
    def test_exact_keyword(self):
        out = select_samples(disease_dataset(), "disease", "AML", "exact")
        assert out.data.col_names == ("s2",)

    def test_substring_keyword(self):
        out = select_samples(disease_dataset(), "disease", "hea", "substring")
        assert out.data.col_names == ("s3",)

    def test_case_insensitive(self):
        out = select_samples(disease_dataset(), "disease", "aml", "exact")
        assert out.data.col_names == ("s2",)

    def test_no_match_lists_values(self):
        with pytest.raises(ValueError, match="ALL.*AML.*healthy"):
            select_samples(disease_dataset(), "disease", "CML", "exact")

    def test_unknown_field(self):
        with pytest.raises(KeyError, match="disease"):
            select_samples(disease_dataset(), "tissue", "AML", "exact")

    def test_exclude(self):
        out = exclude_samples(disease_dataset(), "disease", "AML", "exact")
        assert out.data.col_names == ("s1", "s3")

    def test_exclude_nothing_is_identity(self):
        ds = disease_dataset()
        assert exclude_samples(ds, "disease", "CML", "exact") is ds

    def test_exclude_all_raises(self):
        with pytest.raises(ValueError, match="every sample"):
            exclude_samples(disease_dataset(), "disease", "a", "substring")

    def test_select_exclude_partition_columns(self):
        ds = disease_dataset()
        sel = select_samples(ds, "disease", "AML", "exact")
        rest = exclude_samples(ds, "disease", "AML", "exact")
        assert sorted(sel.data.col_names + rest.data.col_names) \
            == sorted(ds.data.col_names)


class TestRandomPartition:
    def six(self):
        return make_dataset(["g"], [f"s{i}" for i in range(6)],
                            [[float(i) for i in range(6)]])

    def test_sizes_and_union(self):
        parts = random_partition(self.six(), [2, 4], seed=1)
        assert [p.n_samples for p in parts] == [2, 4]
        union = sorted(sum((p.data.col_names for p in parts), ()))
        assert union == sorted(self.six().data.col_names)

    def test_single_part_is_permuted_copy(self):
        (part,) = random_partition(self.six(), [6], seed=3)
        assert sorted(part.data.col_names) == sorted(self.six().data.col_names)
        for j, col in enumerate(part.data.col_names):
            i = self.six().data.col_names.index(col)
            assert part.data.values[0, j] == self.six().data.values[0, i]

    def test_same_seed_identical(self):
        a = random_partition(self.six(), [3, 3], seed=9)
        b = random_partition(self.six(), [3, 3], seed=9)
        assert all(x.data == y.data for x, y in zip(a, b))

    def test_part_names_and_seed_recorded(self):
        parts = random_partition(self.six(), [2, 4], seed=5)
        assert [p.name for p in parts] == ["ds.part1", "ds.part2"]
        assert all(p.seed == 5 for p in parts)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="sum"):
            random_partition(self.six(), [2, 2], seed=1)


class TestMedianColumn:
    def test_odd(self):
        assert median_column(dm(["r"], list("abc"), [[1, 3, 2]])) == [2]

    def test_even_mean_of_central(self):
        assert median_column(dm(["r"], list("abcd"), [[1, 2, 3, 4]])) == [2.5]

    def test_singleton(self):
        assert median_column(dm(["r"], ["a"], [[5]])) == [5]

    def test_missing_excluded(self):
        assert median_column(dm(["r"], list("abc"), [[1, NA, 3]])) == [2]

    def test_all_missing_row_named(self):
        m = dm(["good", "bad"], ["a", "b"], [[1, 2], [NA, NA]])
        with pytest.raises(ValueError, match="bad"):
            median_column(m)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(5, 9))
        m = dm([f"r{i}" for i in range(5)], [f"c{j}" for j in range(9)], vals)
        perm = rng.permutation(9).tolist()
        assert np.array_equal(median_column(m), median_column(m.take_cols(perm)))


class TestHeterogeneitySplit:
    def test_negated_half_gives_minus_one(self):
        rng = np.random.default_rng(11)
        left = rng.normal(size=(10, 4))
        vals = np.hstack([left, -left])
        vals[0] = [1, 1, 1, 1, -1, -1, -1, -1]  # the splitting feature
        ds = make_dataset([f"g{i}" for i in range(10)],
                          [f"s{j}" for j in range(8)], vals)
        r, sizes = heterogeneity_split(ds, "g0")
        assert sizes == (4, 4)
        # oracle: median columns of the two halves correlate at -1
        med_pos = np.median(vals[:, :4], axis=1)
        med_neg = np.median(vals[:, 4:], axis=1)
        oracle = np.corrcoef(med_pos, med_neg)[0, 1]
        assert abs(r - oracle) < 1e-12
        assert abs(r + 1.0) < 1e-9

    def test_duplicated_columns_give_plus_one(self):
        rng = np.random.default_rng(12)
        half = rng.normal(size=(500, 4))
        vals = np.hstack([half, half])
        vals[0] = [1, 1, 1, 1, -1, -1, -1, -1]
        ds = make_dataset([f"g{i}" for i in range(500)],
                          [f"s{j}" for j in range(8)], vals)
        r, sizes = heterogeneity_split(ds, "g0")
        assert sizes == (4, 4)
        assert r > 0.9

    def test_zero_goes_to_nonnegative_side(self):
        vals = np.array([[0.0, -1.0, 1.0],
                         [1.0, 2.0, 3.0],
                         [4.0, 6.0, 5.0]])
        ds = make_dataset(["s", "a", "b"], ["c1", "c2", "c3"], vals)
        _, sizes = heterogeneity_split(ds, "s")
        assert sizes == (2, 1)

    def test_one_sided_split_rejected(self):
        ds = make_dataset(["s", "a", "b"], ["c1", "c2"],
                          [[1, 2], [1, 2], [3, 4]])
        with pytest.raises(ValueError, match="does not separate"):
            heterogeneity_split(ds, "s")

    def test_unknown_feature(self):
        ds = make_dataset(["a", "b", "c"], ["c1", "c2"],
                          [[1, 2], [1, 2], [3, 4]])
        with pytest.raises(KeyError, match="nope"):
            heterogeneity_split(ds, "nope")


class TestMergeProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_merge_associativity_on_rows_and_columns(self, data):
        pool = list("ABCDEF")
        mats = []
        for k in range(3):
            rows = data.draw(st.lists(st.sampled_from(pool), min_size=2,
                                      max_size=6, unique=True))
            mats.append(dm(rows, [f"m{k}c{j}" for j in range(2)],
                           [[float(k), float(j)] for j, _ in enumerate(rows)]))
        try:
            left = merge_data([merge_data(mats[:2], ["a", "b"]), mats[2]],
                              ["ab", "c"])
            right = merge_data([mats[0], merge_data(mats[1:], ["b", "c"])],
                               ["a", "bc"])
        except NoCommonFeaturesError:
            return
        assert set(left.row_names) == set(right.row_names)
        assert sorted(n.split(":")[-1] for n in left.col_names) \
            == sorted(n.split(":")[-1] for n in right.col_names)
