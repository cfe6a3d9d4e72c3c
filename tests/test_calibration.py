"""The paper's premise as an executable oracle: null calibration and FDR.

Rank scores make studies comparable, so a null input must give null
p-values through scoring and testing.  The rank tests' normal
and chi-square approximations are conservative, not uniform, so each
check is of super-uniformity: at alpha in {0.05, 0.01, 0.001} the count
of p <= alpha over m features stays below alpha m plus four binomial
standard deviations.  Benjamini-Yekutieli at q must keep the mean false
discovery proportion at or below q.  The bounds come from this theory,
not from runs, and every seed is fixed.

Ties and NaN reach the rank tests unscored.  Scoring tie-heavy values
per sample gives every feature of a sample the same tie-group shifts,
so the features' tests share them: the count of small p over one run
is then far wider than binomial (about eight times the binomial SD at
0.05 with values rounded to the integers).  The BY check runs on
unscored values too: per-sample scores of a study where many features
shift in one group move the other features as well.
"""

import math

import numpy as np
import pytest

from rankmerge.cli import main
from rankmerge.ingest import save_dataset
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.rstats import (apply_fdr, kw_per_feature, read_results_tsv,
                              significant_features, wilcoxon_per_feature)

ALPHAS = (0.05, 0.01, 0.001)
M = 3000  # features per null study
Q = 0.05


def assert_super_uniform(p):
    p = np.asarray(p)
    for alpha in ALPHAS:
        bound = alpha * len(p) + 4 * math.sqrt(len(p) * alpha * (1 - alpha))
        assert (p <= alpha).sum() <= bound, alpha


def null_values(rng, samples, ties_and_nan):
    """M features x ``samples`` standard normal values; with ties and NaN,
    rounded to the integers (about seven distinct values) and 5 % missing."""
    x = rng.normal(size=(M, samples))
    if ties_and_nan:
        x = np.round(x)
        x[rng.random(x.shape) < 0.05] = np.nan
    return x


def save(root, name, values, groups=None):
    """A dataset directory of ``values``, with field grp when given."""
    cols = tuple(f"{name}_s{j}" for j in range(values.shape[1]))
    info = (InfoMatrix(("grp",), cols, (tuple(groups),)) if groups is not None
            else InfoMatrix((), cols, ()))
    data = DataMatrix(tuple(f"g{i}" for i in range(len(values))), cols, values)
    path = root / name
    save_dataset(Dataset(data, info, name=name), path)
    return path


def scored(root, path):
    out = root / f"{path.name}_vdw"
    assert main(["score", str(path), "--kind", "vdw", "--out", str(out)]) == 0
    return out


def run_test(root, *argv):
    """Raw p of every tested feature of one ``rankmerge test`` run, and
    the count it calls significant."""
    out = root / "results.tsv"
    assert main(["test", *map(str, argv), "--out", str(out)]) == 0
    table = read_results_tsv(out)
    out.unlink()
    sig = int((table.ln_p_adj[table.tested] < math.log(Q)).sum())
    return np.exp(table.ln_p[table.tested]), sig


# (test, form, group sizes): both drivers, one dataset split by a field
# and studies as groups
SHAPES = {
    "kw-field": ("kw", "field", (10, 12, 14)),
    "kw-studies": ("kw", "studies", (10, 12, 14)),
    "wilcoxon-field": ("wilcoxon", "field", (18, 18)),
    "wilcoxon-studies": ("wilcoxon", "studies", (18, 18)),
}


@pytest.mark.parametrize("ties_and_nan", [False, True], ids=["continuous", "ties_nan"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_null_studies_give_super_uniform_p(tmp_path, capsys, shape, ties_and_nan):
    test, form, sizes = SHAPES[shape]
    rng = np.random.default_rng([2014, len(sizes), sizes[0], int(ties_and_nan)])
    prepared = (lambda path: path) if ties_and_nan else (lambda path: scored(tmp_path, path))
    if form == "field":
        labels = [g for g, n in zip("abc", sizes) for _ in range(n)]
        ds = prepared(save(tmp_path, "one", null_values(rng, sum(sizes), ties_and_nan),
                           labels))
        argv = [ds, "--field", "grp"] + (["--keyword", "a"] if test == "wilcoxon" else [])
    else:
        argv = [prepared(save(tmp_path, f"study{i}", null_values(rng, n, ties_and_nan)))
                for i, n in enumerate(sizes)]
    p, sig = run_test(tmp_path, *argv, "--test", test)
    capsys.readouterr()
    assert len(p) > 0.99 * M
    assert_super_uniform(p)
    assert sig == 0


# strictly increasing per-study transforms: the same null, on three scales
TRANSFORMS = (lambda x: x, lambda x: np.exp(x / 4), lambda x: 10 * x + 5)


def test_studies_on_different_scales_are_comparable_only_once_scored(tmp_path, capsys):
    # log2-like expression: feature means spread over 4..12, unit noise
    rng = np.random.default_rng(20140)
    means = rng.uniform(4, 12, size=(M, 1))
    raw = [save(tmp_path, f"study{i}", f(means + rng.normal(size=(M, n))))
           for i, (f, n) in enumerate(zip(TRANSFORMS, (10, 12, 14)))]
    p_raw, sig_raw = run_test(tmp_path, *raw, "--test", "kw")
    p_vdw, sig_vdw = run_test(tmp_path, *[scored(tmp_path, d) for d in raw], "--test", "kw")
    capsys.readouterr()
    assert len(p_raw) == len(p_vdw) == M
    assert sig_raw == M
    assert sig_vdw == 0
    assert_super_uniform(p_vdw)


@pytest.mark.parametrize("ties_and_nan", [False, True], ids=["continuous", "ties_nan"])
def test_by_keeps_the_mean_false_discovery_proportion_below_q(ties_and_nan):
    # 300 of M features shifted by 1.5 SD in group A, 18 against 18
    rng = np.random.default_rng([1995, int(ties_and_nan)])
    planted = np.zeros(M, bool)
    planted[:300] = True
    rows, cols = tuple(f"g{i}" for i in range(M)), [f"s{j}" for j in range(36)]
    fdp, found_total = [], 0
    for _ in range(8):
        x = null_values(rng, 36, False)
        x[planted, :18] += 1.5
        if ties_and_nan:
            x = np.round(x)
            x[rng.random(x.shape) < 0.05] = np.nan
        a = DataMatrix(rows, tuple(cols[:18]), x[:, :18])
        b = DataMatrix(rows, tuple(cols[18:]), x[:, 18:])
        for results in (wilcoxon_per_feature(a, b), kw_per_feature([a, b])):
            found = significant_features(apply_fdr(results), Q).features
            hits = planted[[int(f[1:]) for f in found]]
            fdp.append((~hits).sum() / max(len(found), 1))
            found_total += len(found)
    assert found_total > 8 * 2 * 30  # power: a tenth of the planted on average
    assert np.mean(fdp) <= Q
