"""Column-wise rank transforms that make studies comparable.

Raw intensities from different platforms live on incompatible scales,
so each sample (column) is replaced by a distribution-free score of its
within-column ranks: either the empirical CDF value ``R_i / n`` or the
normal score ``Phi^-1(R_i / (n + 1))``.  Scoring is strictly
column-local and missing entries stay missing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AlreadyScoredError
from .matrix import RANK_SCORES, DataMatrix, Dataset
from .numerics import inv_norm_cdf

# cells per kernel block: its temporaries stay small, and so does peak RSS
RANK_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class RankVector:
    """Midranks of one column: NaN where the value was missing.

    ``n`` is the number of non-missing entries; the non-missing ranks
    always sum to n(n+1)/2.
    """

    ranks: np.ndarray
    n: int


def _rank_block(x: np.ndarray):
    rows, cols = x.shape
    # NaN must sort last, but numpy's vectorized sort slows severalfold
    # on NaN, so it sorts as +inf; only rows also holding +inf sort as is
    nan = np.isnan(x)
    order = np.argsort(np.where(nan, np.inf, x), axis=1)
    mixed = nan.any(axis=1) & (x == np.inf).any(axis=1)
    order[mixed] = np.argsort(x[mixed], axis=1)
    flat = (order + (np.arange(rows) * cols)[:, None]).ravel()
    srt = x.ravel()[flat]
    # tie runs of the sorted rows; NaN != NaN, so each NaN is a run
    start = np.ones(srt.size, dtype=bool)
    start[1:] = srt[1:] != srt[:-1]
    start[::cols] = True
    heads = np.flatnonzero(start)
    size = np.diff(np.append(heads, srt.size))
    sorted_ranks = (heads % cols + (size + 1) / 2.0)[np.cumsum(start) - 1]
    sorted_ranks[np.isnan(srt)] = np.nan
    ranks = np.empty(x.shape)
    ranks.ravel()[flat] = sorted_ranks
    t = size.astype(float)
    tie_sum = np.bincount(heads // cols, weights=t * t * t - t, minlength=rows)
    return ranks, tie_sum, cols - nan.sum(axis=1)


def rank_rows(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midranks of every row over its non-missing entries.

    Returns ``(ranks, tie_sum, n_present)``: the midranks in the input
    layout (NaN stays NaN), each row's tie sum sum(t^3 - t) over its
    tie-run sizes t, and each row's count of non-missing entries.
    """
    x = np.ascontiguousarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError("rank_rows expects a 2-d array")
    if x.size == 0:
        return np.empty(x.shape), np.zeros(len(x)), np.zeros(len(x), dtype=int)
    step = max(1, RANK_BLOCK_CELLS // x.shape[1])
    blocks = [_rank_block(x[s:s + step]) for s in range(0, len(x), step)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _as_column(column) -> np.ndarray:
    col = np.asarray(column, dtype=float)
    if col.ndim != 1:
        raise ValueError("midrank expects a 1-d column")
    return col


def midrank(column) -> RankVector:
    """Midranks over the non-missing entries of one column.

    Tied values share the mean of the ranks they span, e.g.
    [2, 1, 2] -> [2.5, 1.0, 2.5].
    """
    ranks, _, n = rank_rows(_as_column(column)[None, :])
    if n[0] == 0:
        raise ValueError("column has no non-missing values")
    return RankVector(ranks[0], int(n[0]))


def _row_scores(x: np.ndarray, kind: str) -> np.ndarray:
    """Rank scores of every row of ``x``; each row needs a value."""
    ranks, _, n = rank_rows(x)
    if (n == 0).any():
        raise ValueError("column has no non-missing values")
    if kind == "ecdf":
        return ranks / n[:, None]
    p = ranks / (n + 1)[:, None]
    for row in p:  # one row at a time, its temporaries stay in cache
        present = ~np.isnan(row)
        row[present] = inv_norm_cdf(row[present])
    return p


def ecdf_score(column) -> np.ndarray:
    """Empirical CDF score R_i / n per non-missing entry."""
    return _row_scores(_as_column(column)[None, :], "ecdf")[0]


def vdw_score(column) -> np.ndarray:
    """Van der Waerden normal score Phi^-1(R_i / (n + 1))."""
    return _row_scores(_as_column(column)[None, :], "vdw")[0]


def score_matrix(m: DataMatrix, kind: str) -> DataMatrix:
    """Apply a rank score to every column independently."""
    if kind not in RANK_SCORES:
        raise ValueError(f"unknown score kind {kind!r}; expected 'ecdf' or 'vdw'")
    return DataMatrix(m.row_names, m.col_names, _row_scores(m.values.T, kind).T)


def score_dataset(ds: Dataset, kind: str) -> Dataset:
    """Scored copy of a dataset; scoring twice is refused.

    Rank-transforming already transformed values silently degrades the
    scores, so a dataset whose score state is not "none" is rejected.
    """
    if ds.score != "none":
        raise AlreadyScoredError(
            f"dataset {ds.name!r} already carries {ds.score!r} scores")
    return replace(ds, data=score_matrix(ds.data, kind), score=kind)
