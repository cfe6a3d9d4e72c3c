"""Hypothesis over the correlation commands through ``cli.main``.

Small version 2 datasets with missing values, ties and magnitudes from
the smallest subnormal to 1e300 go through ``pairwise`` (both methods),
``median-cor`` and ``split-het``.  Every run ends in a documented exit
code with at most one ``error:`` line.  ``pairwise`` emits exactly the
pairs that the scalar function does not refuse, each Pearson r within
1e-12 of the exact rational oracle and each Spearman r within 1e-12 of
``spearman``.
"""

import contextlib
import io
import math
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmerge.cli import main
from rankmerge.ingest import save_dataset
from rankmerge.matrix import DataMatrix, Dataset, InfoMatrix
from rankmerge.rstats import pearson, spearman
from test_rstats import exact_r

NA = math.nan
DOCUMENTED_EXITS = range(9)

CELLS = st.one_of(st.just(NA), st.sampled_from([0.0, 1.0, -1.0, 2.0]),
                  st.sampled_from([5e-324, -5e-324, 1e-300, 1e300, -1e300]),
                  st.floats(-1e300, 1e300, allow_nan=False))


@st.composite
def matrices(draw, n_rows=st.integers(2, 5)):
    rows, cols = draw(n_rows), draw(st.integers(3, 7))
    return np.array(draw(st.lists(st.lists(CELLS, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows)))


def saved(root, name, values):
    rows = tuple(f"f{i}" for i in range(len(values)))
    cols = tuple(f"{name}{j}" for j in range(values.shape[1]))
    save_dataset(Dataset(DataMatrix(rows, cols, values), InfoMatrix((), cols, ()),
                         name=name), root / name)
    return str(root / name)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in DOCUMENTED_EXITS
    lines = err.getvalue().splitlines()
    assert lines == [] if code == 0 else len(lines) == 1 and lines[0].startswith("error: ")
    return code, out.getvalue()


def wanted_pairs(values, scalar):
    want = {}
    for i, j in combinations(range(len(values)), 2):
        try:
            want[f"f{i}", f"f{j}"] = scalar(values[i], values[j])
        except ValueError:
            pass
    return want


@settings(max_examples=60, deadline=None)
@given(matrices(), st.sampled_from(["pearson", "spearman"]))
def test_pairwise_emits_what_the_scalar_function_keeps(tmp_path_factory, values, method):
    root = tmp_path_factory.mktemp("pw")
    code, stdout = run("pairwise", saved(root, "a", values), "--method", method,
                       "--out", root / "out.tsv")
    assert code == 0
    lines = [line.split("\t") for line in (root / "out.tsv").read_text().splitlines()]
    want = wanted_pairs(values, pearson if method == "pearson" else spearman)
    assert [(a, b) for a, b, _ in lines] == list(want)
    assert stdout == f"pairs={len(want)} skipped={math.comb(len(values), 2) - len(want)}\n"
    for a, b, r in lines:
        oracle = (exact_r(values[int(a[1:])], values[int(b[1:])]) if method == "pearson"
                  else want[a, b])
        assert abs(float(r) - oracle) <= 1e-12, (a, b)


@settings(max_examples=40, deadline=None)
@given(matrices(st.just(4)), matrices(st.just(4)), st.sampled_from(["pearson", "spearman"]))
def test_median_cor_ends_in_a_documented_exit(tmp_path_factory, a, b, method):
    root = tmp_path_factory.mktemp("mc")
    code, _ = run("median-cor", saved(root, "a", a), saved(root, "b", b),
                  "--method", method, "--out", root / "out.tsv")
    if code == 0:
        cells = (root / "out.tsv").read_text().splitlines()[1].split("\t")
        x, y = np.nanmedian(a, axis=1), np.nanmedian(b, axis=1)
        want = exact_r(x, y) if method == "pearson" else spearman(x, y)
        assert abs(float(cells[2]) - want) <= 5e-7 + 1e-12


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_split_het_ends_in_a_documented_exit(tmp_path_factory, values):
    root = tmp_path_factory.mktemp("sh")
    code, stdout = run("split-het", saved(root, "a", values), "--feature", "f0")
    assert code in (0, 6)
    if code == 0:
        lead = values[0]
        halves = [np.nanmedian(values[:, side], axis=1)
                  for side in (lead >= 0, lead < 0)]
        r = float(stdout.split(" r=")[1].split()[0])
        assert abs(r - exact_r(*halves)) <= 5e-5 + 1e-12
