"""The columnar result path against the row-object path it replaced.

The reference functions below are the earlier row-at-a-time
implementations of FDR, ranking, the TSV writer and reader, and gene-set
enrichment, kept verbatim in behaviour.  The table path must write the
same bytes and read back the same bits.
"""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from rankmerge.cli import main
from rankmerge.matrix import DataMatrix
from rankmerge.numerics import LogP, P_ONE, checked_ln_p, log_choose
from rankmerge.rstats import (
    GeneSet,
    ResultTable,
    apply_fdr,
    benjamini_yekutieli,
    enrich_genesets,
    kw_per_feature,
    parse_gmt,
    rank_features,
    read_results_tsv,
    significant_features,
    wilcoxon_per_feature,
    write_results_tsv,
)
from rankmerge.rstats import TestResult as Row
from rankmerge.rstats import _results

# ---------------------------------------------------------------------------
# reference: one TestResult per feature, one LogP per value
# ---------------------------------------------------------------------------

RESULT_COLUMNS = ("feature", "statistic", "p_raw", "log10_p_raw",
                  "p_adj", "log10_p_adj", "direction")
LN10 = math.log(10.0)


def ref_apply_fdr(results):
    tested = [i for i, r in enumerate(results) if r.p_raw is not None]
    if not tested:
        return list(results)
    adjusted = map(LogP, benjamini_yekutieli(
        np.array([results[i].p_raw.ln_p for i in tested])).tolist())
    out = list(results)
    for i, adj in zip(tested, adjusted):
        r = results[i]
        out[i] = Row(r.feature, r.statistic, r.p_raw, adj, r.direction)
    return out


def ref_rank_features(results, by="p"):
    def key(r):
        if r.p_raw is None or math.isnan(r.statistic):
            return (1, 0.0, r.feature)
        if by == "p":
            return (0, r.p_raw.ln_p, r.feature)
        if r.direction == "over":
            return (0, -r.statistic, r.feature)
        if r.direction == "under":
            return (0, r.statistic, r.feature)
        return (0, -abs(r.statistic), r.feature)
    return sorted(results, key=key)


def ref_fmt_linear(lp):
    if lp is None:
        return "NA"
    if lp.is_underflow:
        return "<1e-308"
    return f"{lp.p:.6g}"


def ref_fmt_log10(lp):
    return "NA" if lp is None else f"{lp.log10:.6f}"


def ref_write(results) -> str:
    out = ["\t".join(RESULT_COLUMNS) + "\n"]
    for r in results:
        stat = "NA" if math.isnan(r.statistic) else f"{r.statistic:.10g}"
        out.append("\t".join([r.feature, stat,
                              ref_fmt_linear(r.p_raw), ref_fmt_log10(r.p_raw),
                              ref_fmt_linear(r.p_adjusted), ref_fmt_log10(r.p_adjusted),
                              r.direction]) + "\n")
    return "".join(out)


def ref_read(text: str):
    source = io.StringIO(text)
    source.readline()
    out = []
    for line in source:
        line = line.rstrip("\r\n")
        if not line:
            continue
        feature, stat_s, _, lg_raw, _, lg_adj, direction = line.split("\t")
        stat = float("nan") if stat_s == "NA" else float(stat_s)
        p_raw = None if lg_raw == "NA" else LogP(float(lg_raw) * LN10)
        p_adj = None if lg_adj == "NA" else LogP(float(lg_adj) * LN10)
        out.append(Row(feature, stat, p_raw, p_adj, direction))
    return out


def ref_fisher(n_, a, b, k):
    if k <= max(0, a + b - n_):
        return P_ONE
    ln_total = log_choose(n_, b)
    terms = [log_choose(a, i) + log_choose(n_ - a, b - i) - ln_total
             for i in range(k, min(a, b) + 1)]
    peak = max(terms)
    return LogP(min(peak + math.log(sum(math.exp(t - peak) for t in terms)), 0.0))


def ref_enrich(selected, universe, gene_sets):
    sel = selected & universe
    return [(gs, len(gs.symbols & universe), len(sel & gs.symbols & universe),
             ref_fisher(len(universe), len(sel), len(gs.symbols & universe),
                        len(sel & gs.symbols & universe)))
            for gs in gene_sets]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.feature, g.direction) == (w.feature, w.direction)
        assert bits(g.statistic) == bits(w.statistic)
        for gp, wp in ((g.p_raw, w.p_raw), (g.p_adjusted, w.p_adjusted)):
            assert (gp is None) == (wp is None)
            if gp is not None:
                assert bits(gp.ln_p) == bits(wp.ln_p)


def hand_rows():
    """Every special cell: p = 1 both as +0.0 and as -0.0, a tail below
    1e-308, degenerate rows, and ln p ties with names out of order."""
    return [
        Row("zeta", 1.5, LogP(-2.0), None, "over"),
        Row("alpha", 1.5, LogP(-2.0), None, "over"),
        Row("mid", 0.5, LogP(-2.0), None, "over"),
        Row("one_pos", -40.0, LogP(0.0), None, "over"),
        Row("one_neg", -41.0, LogP(-0.0), None, "over"),
        Row("deep", 45.0, LogP(-1012.5), None, "over"),
        Row("dg1", math.nan, None, None, "none"),
        Row("dg0", math.nan, None, None, "none"),
        Row("tiny", 3.0, LogP(-1e-320), None, "over"),
    ]


def matrices(seed, with_nan=True):
    rng = np.random.default_rng(seed)
    names = [f"g{i:03d}" for i in range(120)]
    rng.shuffle(names)
    a, b = rng.normal(size=(120, 7)), rng.normal(size=(120, 6))
    b[:10] += 3.0                 # significant
    a[10:20] = np.round(a[10:20])  # ties
    b[10:20] = np.round(b[10:20])
    a[20] = b[20, 0]               # one all-tied row
    b[20] = b[20, 0]
    if with_nan:
        a[rng.random(a.shape) < 0.05] = math.nan
        a[21] = math.nan           # an empty group
    return (DataMatrix(tuple(names), tuple(f"a{j}" for j in range(7)), a),
            DataMatrix(tuple(names), tuple(f"b{j}" for j in range(6)), b))


def tables():
    a, b = matrices(1)
    rng = np.random.default_rng(2)
    names = tuple(f"e{i:02d}" for i in range(40))
    small_a = DataMatrix(names, tuple("abcde"), rng.normal(size=(40, 5)) + 1.0)
    small_b = DataMatrix(names, tuple("vwxyz"), rng.normal(size=(40, 5)))
    return {
        "hand": ResultTable.of(hand_rows()),
        "kw": kw_per_feature([a, b]),
        "wilcoxon_greater": wilcoxon_per_feature(a, b, "A_greater"),
        "wilcoxon_less": wilcoxon_per_feature(a, b, "A_less"),
        "exact": wilcoxon_per_feature(small_a, small_b, "A_greater", exact=None),
    }


CASES = [(name, by) for name in ("hand", "kw", "wilcoxon_greater", "wilcoxon_less",
                                 "exact") for by in ("p", "statistic")]


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,by", CASES)
def test_table_path_writes_reference_bytes(name, by):
    table = tables()[name]
    want = ref_write(ref_rank_features(ref_apply_fdr(list(table)), by))
    for start in (table, list(table)):  # a table, and a plain list of rows
        buf = io.StringIO()
        write_results_tsv(rank_features(apply_fdr(start), by), buf)
        assert buf.getvalue() == want


def test_exact_case_uses_the_exact_tail():
    table = tables()["exact"]
    assert table.tested.all() and len(table) == 40
    # 10 values: exact counts give p = count / C(10, 5), a multiple of 1/252
    counts = np.exp(table.ln_p) * math.comb(10, 5)
    assert np.allclose(counts, np.round(counts), atol=1e-9)


def test_special_cells_print_as_before():
    text = ref_write(ref_rank_features(ref_apply_fdr(hand_rows())))
    buf = io.StringIO()
    write_results_tsv(rank_features(apply_fdr(ResultTable.of(hand_rows()))), buf)
    assert buf.getvalue() == text
    lines = {line.split("\t")[0]: line.split("\t") for line in text.splitlines()}
    assert lines["one_neg"][2:4] == ["1", "-0.000000"]
    assert lines["one_pos"][2:4] == ["1", "0.000000"]
    assert lines["deep"][2] == "<1e-308"
    assert lines["dg0"][1:] == ["NA"] * 5 + ["none"]
    order = [line.split("\t")[0] for line in text.splitlines()[1:]]
    assert order.index("alpha") < order.index("mid") < order.index("zeta")
    assert order[-2:] == ["dg0", "dg1"]


@pytest.mark.parametrize("name,by", CASES)
def test_reader_returns_reference_bits(name, by):
    text = ref_write(ref_rank_features(ref_apply_fdr(list(tables()[name])), by))
    got = read_results_tsv(io.StringIO(text))
    assert isinstance(got, ResultTable)
    rows_equal(list(got), ref_read(text))


def test_reader_keeps_signed_zeros_and_crlf():
    text = ref_write(ref_apply_fdr(hand_rows()))
    got = read_results_tsv(io.StringIO(text.replace("\n", "\r\n") + "\n\n"))
    rows_equal(list(got), ref_read(text))
    by_name = {r.feature: r for r in got}
    assert math.copysign(1.0, by_name["one_neg"].p_raw.ln_p) == -1.0
    assert math.copysign(1.0, by_name["one_pos"].p_raw.ln_p) == 1.0


def test_enrichment_equals_reference_bits():
    rng = np.random.default_rng(4)
    universe = {f"G{i}" for i in range(3000)}
    pool = sorted(universe) + ["OUTSIDE1", "OUTSIDE2"]
    selected = set(rng.choice(pool, 240, replace=False))
    sets = [GeneSet(f"s{j}", "", frozenset(rng.choice(pool, int(rng.integers(1, 400)),
                                                      replace=False)))
            for j in range(60)]
    sets.append(GeneSet("all_selected", "", frozenset(selected)))
    got = enrich_genesets(selected, universe, sets)
    want = ref_enrich(selected, universe, sets)
    for (gs, size, k, p), (wgs, wsize, wk, wp) in zip(got, want):
        assert (gs, size, k) == (wgs, wsize, wk)
        assert bits(p.ln_p) == bits(wp.ln_p)


def test_enrichment_computes_each_log_choose_once(monkeypatch):
    from rankmerge import rstats
    calls = []

    def counted(n, k):
        calls.append((n, k))
        return log_choose(n, k)

    monkeypatch.setattr(rstats, "log_choose", counted)
    universe = {f"G{i}" for i in range(500)}
    selected = {f"G{i}" for i in range(0, 500, 7)}
    sets = [GeneSet(f"s{j}", "", frozenset(f"G{i}" for i in range(j, 500, 3 + j % 5)))
            for j in range(40)]
    enrich_genesets(selected, universe, sets)
    assert calls and len(calls) == len(set(calls))


def test_enrich_command_writes_reference_bytes(tmp_path, capsys):
    table = apply_fdr(tables()["kw"])
    results = tmp_path / "r.tsv"
    with open(results, "w", encoding="utf-8", newline="\n") as fh:
        write_results_tsv(table, fh)
    rng = np.random.default_rng(8)
    gmt = tmp_path / "s.gmt"
    gmt.write_text("".join(
        f"set{j}\tdesc\t" + "\t".join(rng.choice(table.features, 15, replace=False)) + "\n"
        for j in range(30)))
    out = tmp_path / "e.tsv"
    assert main(["enrich", str(results), str(gmt), "--out", str(out)]) == 0
    capsys.readouterr()

    rows = ref_read(results.read_text())
    selected = {r.feature for r in rows if r.p_adjusted is not None
                and r.p_adjusted.ln_p < math.log(0.05)}
    universe = {r.feature for r in rows}
    enriched = ref_enrich(selected, universe, parse_gmt(gmt))
    adjusted = map(LogP, benjamini_yekutieli(
        np.array([p.ln_p for *_, p in enriched])).tolist())
    want = ["set\tset_size\toverlap\tselected\tuniverse\t"
            "p_raw\tlog10_p_raw\tp_adj\tlog10_p_adj\n"]
    for (gs, size, k, p), adj in zip(enriched, adjusted):
        want.append("\t".join([gs.name, str(size), str(k), str(len(selected)),
                               str(len(universe)), ref_fmt_linear(p), ref_fmt_log10(p),
                               ref_fmt_linear(adj), ref_fmt_log10(adj)]) + "\n")
    assert out.read_text() == "".join(want)


# ---------------------------------------------------------------------------
# the table as a Sequence[TestResult]
# ---------------------------------------------------------------------------

def test_table_is_a_sequence_of_row_views():
    rows = hand_rows()
    table = ResultTable.of(rows)
    assert len(table) == len(rows)
    rows_equal(list(table), rows)
    rows_equal([table[-1]], [rows[-1]])
    assert isinstance(table[2:5], ResultTable)
    rows_equal(list(table[2:5]), rows[2:5])
    assert table.features[0] == "zeta"
    assert table[3] in table
    with pytest.raises(IndexError):
        table[len(rows)]


def test_any_sequence_in_gives_table_out():
    rows = hand_rows()
    for given in (rows, tuple(rows), ResultTable.of(rows)):
        adjusted = apply_fdr(given)
        for out in (adjusted, rank_features(given),
                    significant_features(adjusted, 0.5)):
            assert isinstance(out, ResultTable)
        rows_equal(list(adjusted), ref_apply_fdr(rows))
        rows_equal(list(rank_features(given)), ref_rank_features(rows))


def test_significant_features_needs_fdr_on_the_table():
    with pytest.raises(ValueError, match="FDR"):
        significant_features(ResultTable.of(hand_rows()), 0.05)


def test_empty_table_round_trip():
    empty = ResultTable.of([])
    buf = io.StringIO()
    write_results_tsv(empty, buf)
    assert buf.getvalue() == "\t".join(RESULT_COLUMNS) + "\n"
    assert len(read_results_tsv(io.StringIO(buf.getvalue()))) == 0


# ---------------------------------------------------------------------------
# LogP's clamp and errors on the array path
# ---------------------------------------------------------------------------

def test_checked_ln_p_clamps_like_logp():
    vals = [1e-9, 5e-10, 5e-324, 0.0, -0.0, -3.0]
    got = checked_ln_p(np.array(vals))
    assert bits(got) == bits([LogP(v).ln_p for v in vals])
    assert math.copysign(1.0, got[4]) == -1.0


@pytest.mark.parametrize("bad", [1.0000001e-9, 0.5, math.nan, -math.inf])
def test_checked_ln_p_raises_like_logp(bad):
    with pytest.raises(ValueError) as scalar:
        LogP(bad)
    with pytest.raises(ValueError) as array:
        checked_ln_p(np.array([-1.0, bad]))
    assert str(array.value) == str(scalar.value)


def test_reader_clamps_and_rejects_like_logp():
    header = "\t".join(RESULT_COLUMNS) + "\n"
    ok = read_results_tsv(io.StringIO(header + "f\t1\t1\t0.0000000001\tNA\tNA\tover\n"))
    assert ok[0].p_raw.ln_p == 0.0
    with pytest.raises(ValueError, match="<= 0"):
        read_results_tsv(io.StringIO(header + "f\t1\t1\t0.000001\tNA\tNA\tover\n"))
    with pytest.raises(ValueError, match="finite"):
        read_results_tsv(io.StringIO(header + "f\t1\t1\tnan\tNA\tNA\tover\n"))
    with pytest.raises(ValueError, match="direction"):
        read_results_tsv(io.StringIO(header + "f\t1\t1\t-1\tNA\tNA\tsideways\n"))


def test_results_builder_clamps_and_rejects_like_logp():
    def run(ln_p):
        return _results(["f", "dg"], np.array([1.0, 2.0]), np.array(["", "tied"]),
                        "over", lambda tested: np.array([ln_p])[:tested.sum()])

    table = run(5e-10)
    assert table[0].p_raw == LogP(0.0) and table[1].p_raw is None
    assert math.isnan(table.statistic[1])
    with pytest.raises(ValueError, match="<= 0"):
        run(2e-9)
