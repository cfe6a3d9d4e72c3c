"""Core matrix types and dataset-level operations.

A study is a pair of aligned matrices: a numeric ``DataMatrix``
(features x samples, missing entries as NaN) and a string
``InfoMatrix`` (metadata fields x samples).  ``Dataset`` bundles the
two with identifying metadata.  All three are frozen after
construction; operations return new objects.

Row names may repeat only in the raw, pre-reduction form produced by
probe annotation; :func:`reduce_duplicates` collapses them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import NoCommonFeaturesError, UnknownFeatureError

RANK_SCORES = ("ecdf", "vdw")
SCORE_KINDS = ("none", *RANK_SCORES)
MATCH_MODES = ("exact", "substring")
CORRELATION_METHODS = ("pearson", "spearman")
RANK_KEYS = ("p", "statistic")  # the orders of rstats.rank_features


def _as_name_tuple(names: Iterable[str], what: str) -> tuple[str, ...]:
    out = tuple(map(str, names))
    if "" in out:
        raise ValueError(f"{what} must be non-empty strings")
    return out


def _check_unique(names: Sequence[str], what: str) -> None:
    if len(set(names)) != len(names):
        seen: set[str] = set()
        for n in names:
            if n in seen:
                raise ValueError(f"duplicate {what}: {n!r}")
            seen.add(n)


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Dense numeric matrix with named rows (features) and columns (samples).

    Column names are always unique; row names may repeat before
    duplicate reduction (a :class:`Dataset`'s may not).  Values are
    float64 with NaN for missing.
    """

    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        rows = _as_name_tuple(self.row_names, "row names")
        cols = _as_name_tuple(self.col_names, "column names")
        _check_unique(cols, "column name")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(rows), len(cols)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(rows)} rows x {len(cols)} columns")
        vals = np.array(vals, dtype=float, copy=True)
        vals.flags.writeable = False
        object.__setattr__(self, "row_names", rows)
        object.__setattr__(self, "col_names", cols)
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def n_cols(self) -> int:
        return len(self.col_names)

    def row_index(self) -> dict[str, int]:
        """Name -> row position; first occurrence wins on duplicates."""
        idx: dict[str, int] = {}
        for i, name in enumerate(self.row_names):
            idx.setdefault(name, i)
        return idx

    def row(self, name: str) -> np.ndarray:
        return self.take_rows([name]).values[0]

    def take_rows(self, names: Sequence[str]) -> "DataMatrix":
        """The rows called ``names``, in that order; first occurrence
        wins on duplicates, as in :meth:`row_index`.  The first name that
        is no row raises :class:`UnknownFeatureError`."""
        idx = self.row_index()
        try:
            rows = [idx[n] for n in names]
        except KeyError as exc:
            raise UnknownFeatureError(exc.args[0], self.row_names) from None
        return DataMatrix(tuple(names), self.col_names, self.values[rows])

    def take_cols(self, indices: Sequence[int]) -> "DataMatrix":
        return DataMatrix(self.row_names,
                          tuple(self.col_names[i] for i in indices),
                          self.values[:, list(indices)])

    def __eq__(self, other):
        if not isinstance(other, DataMatrix):
            return NotImplemented
        return (self.row_names == other.row_names
                and self.col_names == other.col_names
                and np.array_equal(self.values, other.values, equal_nan=True))

    def __repr__(self):
        return f"DataMatrix({self.n_rows} rows x {self.n_cols} cols)"


@dataclass(frozen=True, eq=False)
class InfoMatrix:
    """String-valued metadata: fields x samples, empty string = absent."""

    field_names: tuple[str, ...]
    col_names: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        fields = _as_name_tuple(self.field_names, "field names")
        cols = _as_name_tuple(self.col_names, "column names")
        _check_unique(fields, "field name")
        _check_unique(cols, "column name")
        rows = tuple(tuple(str(c) for c in row) for row in self.cells)
        if len(rows) != len(fields) or any(len(r) != len(cols) for r in rows):
            raise ValueError("cells shape does not match fields x columns")
        object.__setattr__(self, "field_names", fields)
        object.__setattr__(self, "col_names", cols)
        object.__setattr__(self, "cells", rows)

    @property
    def n_fields(self) -> int:
        return len(self.field_names)

    @property
    def n_cols(self) -> int:
        return len(self.col_names)

    def field(self, name: str) -> tuple[str, ...]:
        try:
            return self.cells[self.field_names.index(name)]
        except ValueError:
            raise KeyError(f"no metadata field named {name!r}") from None

    def take_cols(self, indices: Sequence[int]) -> "InfoMatrix":
        return InfoMatrix(self.field_names,
                          tuple(self.col_names[i] for i in indices),
                          tuple(tuple(row[i] for i in indices) for row in self.cells))

    def __eq__(self, other):
        if not isinstance(other, InfoMatrix):
            return NotImplemented
        return (self.field_names == other.field_names
                and self.col_names == other.col_names
                and self.cells == other.cells)

    def __repr__(self):
        return f"InfoMatrix({self.n_fields} fields x {self.n_cols} cols)"


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named study: data plus sample metadata on the same columns.

    Feature names (the data's row names) are unique.

    ``score`` records which (if any) rank transform has been applied;
    ``source`` and ``seed`` carry provenance so that persisting and
    reloading a dataset is lossless.
    """

    data: DataMatrix
    info: InfoMatrix
    name: str
    score: str = "none"
    source: str = ""
    seed: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        _check_unique(self.data.row_names, "feature name")
        if self.data.col_names != self.info.col_names:
            raise ValueError(
                f"dataset {self.name!r}: data and info column names differ")
        if self.score not in SCORE_KINDS:
            raise ValueError(f"unknown score state {self.score!r}")

    @property
    def n_samples(self) -> int:
        return self.data.n_cols

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.name == other.name and self.score == other.score
                and self.source == other.source and self.seed == other.seed
                and self.data == other.data and self.info == other.info)

    def __repr__(self):
        return (f"Dataset({self.name!r}, {self.data.n_rows} features x "
                f"{self.n_samples} samples, score={self.score})")


# ---------------------------------------------------------------------------
# duplicate reduction
# ---------------------------------------------------------------------------

def _row_iqrs(values: np.ndarray) -> np.ndarray:
    """Interquartile range of each row over its non-missing entries.

    Type-7 quartiles, computed for all rows at once the way
    ``np.quantile`` computes them for one row (index (n - 1) * q, then
    numpy's two-sided linear interpolation), so every value equals
    it; only the sign of a zero may differ, as the two sorts may order
    -0.0 and 0.0 differently.  NaN for a row without values.
    """
    srt = np.sort(values, axis=1)  # NaN sorts last
    n = (~np.isnan(values)).sum(axis=1)
    out = np.full(len(n), np.nan)
    ok = n > 0
    srt, n = srt[ok], n[ok]
    rows = np.arange(len(n))

    def quantile(q: float) -> np.ndarray:
        v = (n - 1) * q
        lo = np.floor(v)
        # at the last index numpy takes the last value on both sides
        # and measures the weight from index -1
        top = v >= n - 1
        a = srt[rows, np.where(top, n - 1, lo.astype(np.intp))]
        b = srt[rows, np.where(top, n - 1, lo.astype(np.intp) + 1)]
        t = v - np.where(top, -1.0, lo)
        diff = b - a
        return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)

    with np.errstate(invalid="ignore", over="ignore"):
        out[ok] = quantile(0.75) - quantile(0.25)
    return out


def reduce_duplicates(raw: DataMatrix) -> tuple[DataMatrix, list[str]]:
    """Collapse repeated row names, keeping the row with the largest IQR.

    Ties keep the first occurrence; output rows follow first-occurrence
    order of each name.  A name's only row is kept unless it is entirely
    missing, whatever its IQR.  Returns the reduced matrix and the list
    of names dropped because every candidate row was entirely missing.
    """
    first: dict[str, int] = {}
    group = np.array([first.setdefault(name, i)
                      for i, name in enumerate(raw.row_names)], dtype=np.intp)
    # each row's claim: its IQR where its name repeats, else 0; -inf for
    # a row that never wins (entirely missing, or a NaN IQR)
    repeated = np.bincount(group, minlength=raw.n_rows)[group] > 1
    claim = np.zeros(raw.n_rows)
    claim[repeated] = _row_iqrs(raw.values[repeated])
    claim[np.isnan(claim) | np.isnan(raw.values).all(axis=1)] = -np.inf
    # groups in first-occurrence order, each led by its largest claim;
    # the sort is stable, so equal claims keep row order
    order = np.lexsort((-claim, group))
    lead = order[np.diff(group[order], prepend=-1) != 0]
    live = claim[lead] > -np.inf
    keep = lead[live].tolist()
    reduced = DataMatrix(tuple(raw.row_names[i] for i in keep),
                         raw.col_names, raw.values[keep])
    return reduced, [raw.row_names[i] for i in lead[~live].tolist()]


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def common_rows(matrices: Sequence[DataMatrix]) -> list[str]:
    """Lexicographically sorted intersection of row names."""
    if not matrices:
        raise ValueError("need at least one matrix")
    shared = set(matrices[0].row_names)
    for m in matrices[1:]:
        shared &= set(m.row_names)
    if not shared:
        raise NoCommonFeaturesError("no common features across inputs")
    return sorted(shared)


def _merged_names(names: Sequence[Sequence[str]],
                  prefixes: Sequence[str]) -> tuple[str, ...]:
    """Each input's sample names prefixed ``"<prefix>:"``, in input
    order; a name that repeats is an error naming the sample."""
    if len(prefixes) != len(names):
        raise ValueError("one prefix per input required")
    out = tuple(f"{p}:{c}" for p, cols in zip(prefixes, names) for c in cols)
    _check_unique(out, "sample name after merge")
    return out


def merge_data(matrices: Sequence[DataMatrix],
               prefixes: Sequence[str]) -> DataMatrix:
    """Stack matrices column-wise on their common rows.

    Rows are the sorted common names; columns are concatenated in input
    order, each prefixed ``"<prefix>:"``.  A resulting column-name
    collision is an error naming the sample.  Each input's row names are
    expected unique, as a :class:`Dataset`'s are; a repeated one gives
    its first row, as in :meth:`DataMatrix.take_rows`.
    """
    rows = common_rows(matrices)
    return DataMatrix(tuple(rows),
                      _merged_names([m.col_names for m in matrices], prefixes),
                      np.hstack([m.take_rows(rows).values for m in matrices]))


def merge_info(infos: Sequence[InfoMatrix],
               prefixes: Sequence[str]) -> InfoMatrix:
    """Concatenate metadata columns, prefixed as :func:`merge_data`
    prefixes them; fields are united in first-seen order.

    A sample whose source lacks some field gets ``""`` there.
    """
    fields: list[str] = []
    for info in infos:
        for f in info.field_names:
            if f not in fields:
                fields.append(f)

    cells: list[tuple[str, ...]] = []
    for f in fields:
        row: list[str] = []
        for info in infos:
            if f in info.field_names:
                row.extend(info.field(f))
            else:
                row.extend([""] * info.n_cols)
        cells.append(tuple(row))
    return InfoMatrix(tuple(fields),
                      _merged_names([i.col_names for i in infos], prefixes),
                      tuple(cells))


def merge_datasets(datasets: Sequence[Dataset], name: str | None = None) -> Dataset:
    """Merge datasets into one, prefixing sample names with dataset names."""
    if len(datasets) < 2:
        raise ValueError("need at least two datasets to merge")
    states = {ds.score for ds in datasets}
    if len(states) > 1:
        raise ValueError(f"cannot merge datasets with mixed score states {sorted(states)}")
    names = [ds.name for ds in datasets]
    _check_unique(names, "dataset name")
    data = merge_data([ds.data for ds in datasets], prefixes=names)
    info = merge_info([ds.info for ds in datasets], prefixes=names)
    return Dataset(data, info, name or "+".join(names),
                   score=datasets[0].score)


# ---------------------------------------------------------------------------
# sample selection
# ---------------------------------------------------------------------------

def _match_mask(ds: Dataset, field_name: str, keyword: str, mode: str) -> list[bool]:
    if mode not in MATCH_MODES:
        raise ValueError(f"mode must be 'exact' or 'substring', got {mode!r}")
    if field_name not in ds.info.field_names:
        raise KeyError(
            f"no metadata field {field_name!r}; available: "
            + ", ".join(ds.info.field_names))
    kw = keyword.lower()
    cells = ds.info.field(field_name)
    if mode == "exact":
        return [c.lower() == kw for c in cells]
    return [kw in c.lower() for c in cells]


def select_samples(ds: Dataset, field_name: str, keyword: str,
                   mode: str = "substring") -> Dataset:
    """Keep samples whose ``field_name`` value matches ``keyword``.

    Matching is case-insensitive; a keyword matching nothing is an
    error that lists the distinct values actually present.
    """
    mask = _match_mask(ds, field_name, keyword, mode)
    if not any(mask):
        values = sorted(set(ds.info.field(field_name)))
        raise ValueError(
            f"keyword {keyword!r} matches no sample in field {field_name!r}; "
            f"values present: {values}")
    idx = [i for i, m in enumerate(mask) if m]
    return replace(ds, data=ds.data.take_cols(idx), info=ds.info.take_cols(idx))


def exclude_samples(ds: Dataset, field_name: str, keyword: str,
                    mode: str = "substring") -> Dataset:
    """Drop matching samples; dropping everything is an error."""
    mask = _match_mask(ds, field_name, keyword, mode)
    idx = [i for i, m in enumerate(mask) if not m]
    if not idx:
        raise ValueError(
            f"keyword {keyword!r} on field {field_name!r} excludes every sample")
    if len(idx) == ds.n_samples:
        return ds
    return replace(ds, data=ds.data.take_cols(idx), info=ds.info.take_cols(idx))


def random_partition(ds: Dataset, sizes: Sequence[int], seed: int) -> list[Dataset]:
    """Split samples into disjoint parts of the given sizes.

    A seeded permutation is drawn, then consumed left to right, so the
    same (dataset, sizes, seed) triple always yields the same parts.
    """
    sizes = [int(s) for s in sizes]
    if any(s <= 0 for s in sizes):
        raise ValueError("part sizes must be positive")
    if sum(sizes) != ds.n_samples:
        raise ValueError(
            f"part sizes sum to {sum(sizes)}, dataset has {ds.n_samples} samples")
    perm = np.random.default_rng(seed).permutation(ds.n_samples)
    parts: list[Dataset] = []
    start = 0
    for pi, s in enumerate(sizes):
        idx = [int(i) for i in perm[start:start + s]]
        start += s
        parts.append(replace(ds,
                             data=ds.data.take_cols(idx),
                             info=ds.info.take_cols(idx),
                             name=f"{ds.name}.part{pi + 1}",
                             seed=seed))
    return parts


# ---------------------------------------------------------------------------
# medians
# ---------------------------------------------------------------------------

def median_column(m: DataMatrix) -> np.ndarray:
    """Per-row median over non-missing entries (mean of central two when even).

    Each row is sorted, which puts NaN last, and its two middle present
    cells are averaged as ``np.nanmedian`` does, without importing
    ``numpy.ma`` as ``np.nanmedian`` does for short rows."""
    present = m.n_cols - np.count_nonzero(np.isnan(m.values), axis=1)
    if np.any(present == 0):
        bad = m.row_names[int(np.argmin(present))]
        raise ValueError(f"row {bad!r} has no non-missing values")
    ordered = np.sort(m.values, axis=1)
    rows = np.arange(m.n_rows)
    return (ordered[rows, (present - 1) // 2] + ordered[rows, present // 2]) / 2
