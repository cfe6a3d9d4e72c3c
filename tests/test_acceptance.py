"""Acceptance checks: twelve criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report
lines; the assertions hold regardless of capture mode.  Every expected
value is either pinned arithmetic or an independent oracle computed in
this file (exact rational enumeration, erfc-based tails, direct-formula
re-computation); no expected value is copied from the implementation.
"""

import io
import math
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from rankmerge import rstats
from rankmerge.cli import main
from rankmerge.errors import ParseError
from rankmerge.ingest import (
    load_dataset,
    parse_series_matrix,
    save_dataset,
    serialize_series_matrix,
)
from rankmerge.matrix import (
    DataMatrix,
    Dataset,
    InfoMatrix,
    exclude_samples,
    merge_datasets,
    select_samples,
)
from rankmerge.multivar import pca
from rankmerge.numerics import (
    chi_sq_upper_tail_ln,
    inv_norm_cdf,
    norm_upper_tail_ln,
)
from rankmerge.rstats import (
    apply_fdr,
    benjamini_yekutieli,
    correlation_threshold,
    fisher_enrichment,
    kruskal_wallis,
    kw_per_feature,
    pair_count,
    pairwise_row_correlations,
    rank_features,
    significant_features,
    wilcoxon_one_sided,
)
from rankmerge.transform import score_dataset, score_matrix

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label}"
    if detail:
        line += f" -- {detail}"
    print(line)


def _quiet_main(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# 1. median-correlation significance threshold at the published scale
# ---------------------------------------------------------------------------

def test_criterion_01_correlation_threshold():
    thr = correlation_threshold(15562, 0.05, "one")
    ok = 0.0131 <= thr <= 0.0133
    report(1, "one-sided threshold at 15,562 common features", ok,
           f"threshold={thr:.6f}")
    assert ok


# ---------------------------------------------------------------------------
# 2. pair count arithmetic plus a streaming benchmark
# ---------------------------------------------------------------------------

def test_criterion_02_pair_count_and_benchmark():
    count = pair_count(15562)
    ok_count = count == math.comb(15562, 2) and count > 121_000_000

    rng = np.random.default_rng(2024)
    m = DataMatrix(tuple(f"r{i:04d}" for i in range(2000)),
                   tuple(f"c{j:03d}" for j in range(500)),
                   rng.normal(size=(2000, 500)))
    emitted = [0]

    def sink(a, b, r):
        emitted[0] += 1

    start = time.perf_counter()
    result = pairwise_row_correlations(m, sink)
    elapsed = time.perf_counter() - start
    ok_bench = (result.emitted == emitted[0] == 1_999_000
                and result.skipped == 0 and elapsed < 60.0)

    ok = ok_count and ok_bench
    report(2, "pair count at 15,562 rows; 2,000-row streaming benchmark",
           ok, f"count={count:,}; benchmark {elapsed:.1f}s for "
               f"{result.emitted:,} pairs")
    assert ok_count
    assert ok_bench


# ---------------------------------------------------------------------------
# 3. one-sided rank-sum test: exact path against enumeration, and the
#    normal approximation against the exact path
# ---------------------------------------------------------------------------

def _rank_sum_tail(n_a: int, n_b: int) -> dict[int, Fraction]:
    """P(rank sum of group A >= s) for every achievable s, by counting."""
    n = n_a + n_b
    counts = Counter(sum(c) for c in combinations(range(1, n + 1), n_a))
    total = math.comb(n, n_a)
    lo = n_a * (n_a + 1) // 2
    hi = lo + n_a * n_b
    tail: dict[int, Fraction] = {}
    acc = 0
    for s in range(hi, lo - 1, -1):
        acc += counts.get(s, 0)
        tail[s] = Fraction(acc, total)
    return tail


def _scan_rank_sum_cases(min_group: int):
    """(worst exact error, worst approx gap, argmax sizes) over all
    tie-free splits with nA+nB <= 12 and min(nA, nB) >= min_group."""
    exact_err = 0.0
    gap = 0.0
    gap_at = None
    for n in range(4, 13):
        for n_a in range(min_group, n - min_group + 1):
            n_b = n - n_a
            tail = _rank_sum_tail(n_a, n_b)
            for comb in combinations(range(1, n + 1), n_a):
                chosen = set(comb)
                a = [float(v) for v in comb]
                b = [float(v) for v in range(1, n + 1) if v not in chosen]
                p_exact = wilcoxon_one_sided(a, b, "A_greater",
                                             exact=True).p_raw.p
                p_approx = wilcoxon_one_sided(a, b, "A_greater",
                                              exact=False).p_raw.p
                exact_err = max(exact_err,
                                abs(p_exact - float(tail[sum(comb)])))
                d = abs(p_approx - p_exact)
                if d > gap:
                    gap, gap_at = d, (n_a, n_b)
    return exact_err, gap, gap_at


def test_criterion_03_rank_sum_exact_and_approximation():
    exact_err, gap, gap_at = _scan_rank_sum_cases(min_group=1)
    ok_exact = exact_err <= 1e-12
    ok_bound = gap <= 0.02
    report(3, "rank-sum exact path 1e-12; approximation gap <= 0.02",
           ok_exact and ok_bound,
           f"exact err {exact_err:.2e}; max gap {gap:.4f} at "
           f"group sizes {gap_at}")
    assert ok_exact
    # The approximation bound cannot hold for the tiniest groups: with
    # sizes (1,3) the exact distribution has only four support points,
    # and the continuity-corrected normal tail misses one of them by
    # about 0.065.  The companion test below shows the bound does hold
    # once both groups have at least three members.
    assert ok_bound


def test_rank_sum_approximation_bound_for_groups_of_three_or_more():
    exact_err, gap, gap_at = _scan_rank_sum_cases(min_group=3)
    assert exact_err <= 1e-12
    assert gap <= 0.02, f"gap {gap:.4f} at {gap_at}"


# ---------------------------------------------------------------------------
# 4. Kruskal-Wallis identities
# ---------------------------------------------------------------------------

def test_criterion_04_kruskal_wallis_identities():
    toy = kruskal_wallis([1, 2, 3, 4, 5, 6], list("aaabbb"))
    ok_toy = (abs(toy.statistic - 27 / 7) <= 1e-10
              and abs(toy.p_raw.p - 0.0495) <= 1e-3)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n_a = int(rng.integers(2, 9))
        n_b = int(rng.integers(2, 9))
        pool = rng.permutation(np.arange(1.0, n_a + n_b + 1))
        a, b = pool[:n_a], pool[n_a:]
        h = kruskal_wallis(np.concatenate([a, b]),
                           ["a"] * n_a + ["b"] * n_b).statistic
        z = wilcoxon_one_sided(a, b, "A_greater", exact=False).statistic
        worst = max(worst, abs(h - z * z))
    ok_identity = worst <= 1e-10

    ok = ok_toy and ok_identity
    report(4, "two-group toy statistic 27/7; H == z^2 on 200 seeded draws",
           ok, f"H={toy.statistic:.10f} p={toy.p_raw.p:.4f}; "
               f"max |H - z^2| = {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 5. FDR adjustment against the direct formula
# ---------------------------------------------------------------------------

def _fdr_oracle_ln(ln_ps: list[float]) -> list[float]:
    m = len(ln_ps)
    c_m = sum(1.0 / h for h in range(1, m + 1))
    order = sorted(range(m), key=lambda i: ln_ps[i])
    bump = math.log(m) + math.log(c_m)
    adj = [min(0.0, ln_ps[order[i]] + bump - math.log(i + 1))
           for i in range(m)]
    for i in range(m - 2, -1, -1):
        adj[i] = min(adj[i], adj[i + 1])
    out = [0.0] * m
    for i, o in enumerate(order):
        out[o] = adj[i]
    return out


def test_criterion_05_fdr_direct_formula():
    rng = np.random.default_rng(5)
    worst = 0.0
    deep_floor = math.log(1e-300)
    for _ in range(1000):
        size = int(rng.integers(1, 40))
        ln_ps = np.log(rng.uniform(1e-12, 1.0, size=size))
        deep = rng.random(size) < 0.2
        ln_ps[deep] = rng.uniform(deep_floor, 0.0, size=int(deep.sum()))
        ln_list = [float(v) for v in ln_ps]
        adjusted = benjamini_yekutieli(ln_ps).tolist()
        oracle = _fdr_oracle_ln(ln_list)
        for got, want in zip(adjusted, oracle):
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report(5, "adjusted p-values match the direct formula on 1,000 vectors",
           ok, f"max |delta ln| = {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 6. hypergeometric upper tail against exact subset enumeration
# ---------------------------------------------------------------------------

def test_criterion_06_hypergeometric_enumeration():
    worst = 0.0
    for n in range(1, 13):
        for b in range(0, n + 1):
            overlaps_by_a: list[Counter] = [Counter() for _ in range(n + 1)]
            for chosen in combinations(range(n), b):
                for a in range(n + 1):
                    overlap = sum(1 for x in chosen if x < a)
                    overlaps_by_a[a][overlap] += 1
            total = math.comb(n, b)
            for a in range(n + 1):
                tally = overlaps_by_a[a]
                for k in range(max(0, a + b - n), min(a, b) + 1):
                    hits = sum(cnt for ov, cnt in tally.items() if ov >= k)
                    oracle = Fraction(hits, total)
                    got = fisher_enrichment(n, a, b, k).p
                    worst = max(worst, abs(got - float(oracle)))
    toy = fisher_enrichment(10, 5, 4, 3).p
    ok_toy = abs(toy - 55 / 210) <= 1e-12 and f"{toy:.6f}" == "0.261905"
    ok = worst <= 1e-12 and ok_toy
    report(6, "upper tail equals subset enumeration for all sizes <= 12",
           ok, f"max err {worst:.2e}; toy case p={toy:.6f}")
    assert ok


# ---------------------------------------------------------------------------
# 7. score-transform invariants on seeded random matrices
# ---------------------------------------------------------------------------

def test_criterion_07_score_invariants():
    n, k = 1000, 20
    grid = np.arange(1, n + 1) / n
    rows = tuple(f"g{i}" for i in range(n))
    cols = tuple(f"s{j}" for j in range(k))
    ok_grid = ok_sums = ok_monotone = True
    for seed in range(100):
        vals = np.random.default_rng(seed).normal(size=(n, k))
        m = DataMatrix(rows, cols, vals)
        e = score_matrix(m, "ecdf")
        for j in range(k):
            if not np.array_equal(np.sort(e.values[:, j]), grid):
                ok_grid = False
        v = score_matrix(m, "vdw")
        if not np.all(np.abs(v.values.sum(axis=0)) < 1e-9 * n):
            ok_sums = False
        v_exp = score_matrix(DataMatrix(rows, cols, np.exp(vals)), "vdw")
        if not np.array_equal(v_exp.values, v.values):
            ok_monotone = False
    ok = ok_grid and ok_sums and ok_monotone
    report(7, "empirical-quantile grid, centered normal scores, "
              "monotone invariance (100 seeds)", ok,
           f"grid={ok_grid} sums={ok_sums} exp-invariance={ok_monotone}")
    assert ok


# ---------------------------------------------------------------------------
# 8. tail-function tolerances
# ---------------------------------------------------------------------------

def test_criterion_08_tail_function_tolerances():
    half = np.logspace(-8, math.log10(0.5), 120)
    grid = np.concatenate([half, 1.0 - half])
    worst_rt = 0.0
    for p in grid:
        z = inv_norm_cdf(float(p))
        cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        worst_rt = max(worst_rt, abs(cdf - p))
    ok_rt = worst_rt <= 1e-10

    worst_id = 0.0
    for z in np.linspace(-35.0, 35.0, 141):
        if z == 0.0:
            continue
        lhs = chi_sq_upper_tail_ln(float(z * z), 1).ln_p
        rhs = math.log(2.0) + norm_upper_tail_ln(abs(float(z))).ln_p
        worst_id = max(worst_id, abs(lhs - rhs))
    ok_id = worst_id <= 1e-8

    deep = norm_upper_tail_ln(40.0).ln_p
    ok_deep = math.isfinite(deep) and deep < -700.0

    ok = ok_rt and ok_id and ok_deep
    report(8, "quantile round trip 1e-10; tail identity 1e-8; finite at z=40",
           ok, f"round-trip {worst_rt:.1e}; identity {worst_id:.1e}; "
               f"ln tail(40) = {deep:.1f}")
    assert ok


# ---------------------------------------------------------------------------
# 9. principal-component checks
# ---------------------------------------------------------------------------

def test_criterion_09_pca_checks():
    line = pca([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    expected = np.array([-math.sqrt(5.0), 0.0, math.sqrt(5.0)])
    got = line.scores[:, 0]
    ok_line = (np.max(np.abs(got - expected)) <= 1e-8
               or np.max(np.abs(got + expected)) <= 1e-8)

    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 2)) @ rng.normal(size=(2, 5))
    r = pca(x)
    x_hat = r.scores[:, :2] @ r.loadings[:, :2].T + r.centers
    ok_recon = np.max(np.abs(x_hat - x)) <= 1e-8
    gram = r.loadings.T @ r.loadings
    ok_ortho = np.max(np.abs(gram - np.eye(5))) <= 1e-8

    ok = ok_line and ok_recon and ok_ortho
    report(9, "line scores, rank-2 reconstruction, orthonormal loadings",
           ok, f"line={ok_line} reconstruction={ok_recon} "
               f"orthonormal={ok_ortho}")
    assert ok


# ---------------------------------------------------------------------------
# 10. end-to-end planted-signal pipeline
# ---------------------------------------------------------------------------

N_FEATURES = 2000
N_PLANTED = 30
PER_GROUP = 20


def _study(rng, name: str, planted: bool) -> Dataset:
    rows = tuple(f"g{i:04d}" for i in range(N_FEATURES))
    cols = tuple(f"{name}{j:02d}" for j in range(2 * PER_GROUP))
    vals = rng.normal(size=(N_FEATURES, 2 * PER_GROUP))
    if planted:
        vals[:N_PLANTED, :PER_GROUP] += 2.5
    info = InfoMatrix(("group",), cols,
                      ((("case",) * PER_GROUP
                        + ("control",) * PER_GROUP),))
    return Dataset(DataMatrix(rows, cols, vals), info, name=name)


def _pipeline(seed: int, planted: bool):
    rng = np.random.default_rng(seed)
    studies = [score_dataset(_study(rng, nm, planted), "vdw")
               for nm in ("a", "b")]
    merged = merge_datasets(studies)
    case = select_samples(merged, "group", "case", "exact")
    control = exclude_samples(merged, "group", "case", "exact")
    return apply_fdr(kw_per_feature([case.data, control.data]))


def test_criterion_10_planted_signal_pipeline():
    planted_names = {f"g{i:04d}" for i in range(N_PLANTED)}
    adjusted = _pipeline(1000, planted=True)
    top = [r.feature for r in rank_features(adjusted)[:60]]
    hits = len(planted_names & set(top))
    ok_power = hits >= 28

    clean = 0
    for seed in range(40):
        null_adjusted = _pipeline(seed, planted=False)
        if not significant_features(null_adjusted, 0.05):
            clean += 1
    ok_null = clean >= 38

    ok = ok_power and ok_null
    report(10, "planted features recovered; null replicates stay clean",
           ok, f"{hits}/30 planted in top 60; {clean}/40 null runs with "
               f"0 significant")
    assert ok_power
    assert ok_null


# ---------------------------------------------------------------------------
# 11. parser round trip and designated failures
# ---------------------------------------------------------------------------

def test_criterion_11_parser_round_trip(tmp_path):
    ok_fixed_point = True
    for name in ("series_small.txt", "series_small_crlf.txt",
                 "series_three.txt"):
        doc = parse_series_matrix(FIXTURES / name)
        text = serialize_series_matrix(doc)
        again = parse_series_matrix(text.splitlines())
        if again != doc or serialize_series_matrix(again) != text:
            ok_fixed_point = False

    expected_failures = [
        ("bad_ragged.txt", 5),
        ("bad_dup_accession.txt", 3),
        ("bad_missing_begin.txt", 2),
        ("bad_no_table.txt", 2),
        ("bad_missing_end.txt", 3),
        ("bad_nonnumeric.txt", 3),
    ]
    ok_errors = True
    for name, line in expected_failures:
        try:
            parse_series_matrix(FIXTURES / name)
            ok_errors = False
        except ParseError as exc:
            if exc.line != line:
                ok_errors = False

    code = _quiet_main(["ingest", FIXTURES / "bad_missing_end.txt",
                        FIXTURES / "annotation_small.tsv",
                        "--out", tmp_path / "ds"])
    ok_exit = code == 2

    ok = ok_fixed_point and ok_errors and ok_exit
    report(11, "serialization fixed point; malformed inputs fail by line",
           ok, f"fixed_point={ok_fixed_point} errors={ok_errors} "
               f"cli_exit_2={ok_exit}")
    assert ok


# ---------------------------------------------------------------------------
# 12. determinism of streamed and rendered outputs
# ---------------------------------------------------------------------------

def test_criterion_12_deterministic_outputs(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    rows = [f"g{i}" for i in range(60)]
    cols = [f"s{j}" for j in range(10)]
    data = DataMatrix(tuple(rows), tuple(cols), rng.normal(size=(60, 10)))
    info = InfoMatrix(("grp",), tuple(cols),
                      ((("x",) * 5 + ("y",) * 5),))
    save_dataset(Dataset(data, info, name="det"), tmp_path / "det")

    monkeypatch.setattr(rstats, "_BLOCK_ROWS", 7)  # blocks not dividing 60 rows
    for threads, out in ((1, "t1.tsv"), (8, "t8.tsv")):
        assert _quiet_main(["pairwise", tmp_path / "det",
                            "--threads", threads,
                            "--out", tmp_path / out]) == 0
    ok_pairwise = ((tmp_path / "t1.tsv").read_bytes()
                   == (tmp_path / "t8.tsv").read_bytes())

    for out in ("p1.svg", "p2.svg"):
        assert _quiet_main(["pca", tmp_path / "det",
                            "--features", ",".join(rows[:10]),
                            "--label-field", "grp",
                            "--out-svg", tmp_path / out]) == 0
    ok_pca = ((tmp_path / "p1.svg").read_bytes()
              == (tmp_path / "p2.svg").read_bytes())

    thirds = []
    for name in ("da", "db", "dc"):
        shifted = rng.normal(scale=0.05, size=(60, 10))
        save_dataset(Dataset(DataMatrix(tuple(rows), tuple(cols),
                                        data.values + shifted),
                             info, name=name), tmp_path / name)
        thirds.append(tmp_path / name)
    for out in ("f1.svg", "f2.svg"):
        assert _quiet_main(["factor-plot", *thirds,
                            "--out-svg", tmp_path / out]) == 0
    ok_factor = ((tmp_path / "f1.svg").read_bytes()
                 == (tmp_path / "f2.svg").read_bytes())

    ok = ok_pairwise and ok_pca and ok_factor
    report(12, "byte-identical pair stream across thread counts; "
               "byte-identical plots across runs", ok,
           f"pairwise={ok_pairwise} pca={ok_pca} factor={ok_factor}")
    assert ok
