"""Distribution-free statistics over scored expression matrices.

Everything here works on ranks: Pearson/Spearman correlation with a
significance threshold for long vectors, streaming all-pairs row
correlations, Kruskal-Wallis and one-sided Wilcoxon (Mann-Whitney)
tests per feature, Benjamini-Yekutieli FDR control computed in the log
domain, feature ranking, and hypergeometric gene-set enrichment.

P-values are natural logarithms throughout (:class:`~rankmerge.numerics.LogP`
for one value, a float array in a :class:`ResultTable`) so that
features hundreds of orders of magnitude beyond float underflow keep
distinct, comparable significance.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat
from typing import Callable, TextIO

import numpy as np

from .errors import DegenerateDataError, EmptyUniverseError, ParseError
from .ingest import read_tab_table, text_lines
from .matrix import (CORRELATION_METHODS, RANK_KEYS, DataMatrix, Dataset,
                     common_rows, exclude_samples, median_column,
                     select_samples)
from .numerics import (
    _LN_P_FLOOR,
    LogP,
    P_ONE,
    checked_ln_p,
    chi_sq_upper_tail_ln_array,
    inv_norm_cdf,
    log_choose,
    norm_upper_tail_ln_array,
)
from .transform import RANK_BLOCK_CELLS, rank_rows

DIRECTIONS = ("over", "under", "none")
_OVER, _UNDER, _NONE = range(len(DIRECTIONS))


@dataclass(frozen=True)
class TestResult:
    """Outcome of one per-feature test.

    ``statistic`` is H for Kruskal-Wallis and the standardized rank-sum
    statistic for Wilcoxon (continuity correction enters only the
    p-value, so the statistic squares to the k=2 Kruskal-Wallis H).
    Degenerate features (all values tied, or an empty side) carry
    ``p_raw=None`` and direction "none".
    """

    feature: str
    statistic: float
    p_raw: LogP | None
    p_adjusted: LogP | None = None
    direction: str = "none"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")


def _ln_column(values) -> np.ndarray:
    """ln p of each LogP, NaN for None."""
    return np.array([math.nan if v is None else v.ln_p for v in values], dtype=float)


@dataclass(frozen=True, eq=False)
class ResultTable(Sequence):
    """Per-feature test results as columns, one row per feature.

    ``statistic`` is NaN and ``ln_p`` NaN for an untested feature;
    ``ln_p_adj`` is NaN until :func:`apply_fdr` fills it for the tested
    ones.  ``direction`` holds indexes into :data:`DIRECTIONS`.  As a
    ``Sequence[TestResult]``, ``len``, indexing and iteration build row
    views on demand; a slice is a table.
    """

    features: tuple[str, ...]
    statistic: np.ndarray
    ln_p: np.ndarray
    ln_p_adj: np.ndarray
    direction: np.ndarray

    @classmethod
    def of(cls, results: Sequence[TestResult]) -> "ResultTable":
        """``results`` as a table; a table is returned as it is."""
        if isinstance(results, ResultTable):
            return results
        return cls(tuple(r.feature for r in results),
                   np.array([r.statistic for r in results], dtype=float),
                   _ln_column(r.p_raw for r in results),
                   _ln_column(r.p_adjusted for r in results),
                   np.array([DIRECTIONS.index(r.direction) for r in results],
                            dtype=np.int8))

    @property
    def tested(self) -> np.ndarray:
        """True where the feature has a raw p."""
        return ~np.isnan(self.ln_p)

    def take(self, index) -> "ResultTable":
        """The rows at an integer index array or a boolean mask, in order."""
        rows = np.arange(len(self))[index]
        return ResultTable(tuple(self.features[i] for i in rows.tolist()),
                           self.statistic[rows], self.ln_p[rows],
                           self.ln_p_adj[rows], self.direction[rows])

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        i = range(len(self))[i]
        lp, la = self.ln_p[i].item(), self.ln_p_adj[i].item()
        return TestResult(self.features[i], self.statistic[i].item(),
                          None if math.isnan(lp) else LogP(lp),
                          None if math.isnan(la) else LogP(la),
                          DIRECTIONS[self.direction[i]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


# ---------------------------------------------------------------------------
# plain correlations
# ---------------------------------------------------------------------------

def _vector_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("correlation expects two 1-d vectors of equal length")
    return x, y


def pearson(x, y) -> float:
    """Pearson correlation after pairwise-complete missing removal.  Each
    vector is scaled by a power of two (exact), centred, then scaled to
    max |value| 1, so no sum or product overflows or underflows.  The
    sums of products are ``math.fsum``'s, so their bits depend on no BLAS
    build or thread count.  r is clamped to [-1, 1]: the rounded norms
    can leave it an ulp beyond; NaN stays NaN."""
    x, y = _vector_pair(x, y)
    keep = ~(np.isnan(x) | np.isnan(y))
    xc, yc = x[keep], y[keep]
    if xc.size < 3:
        raise ValueError(f"need >= 3 complete pairs, have {xc.size}")
    if xc.min() == xc.max() or yc.min() == yc.max():
        raise ValueError("zero variance input")
    xm, ym = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (xc, yc))
    for v in (xm, ym):
        v -= v.mean()
        v /= np.abs(v).max()
    sx, sy = (math.sqrt(math.fsum(v * v)) for v in (xm, ym))
    return float(np.clip(math.fsum(xm * ym) / (sx * sy), -1.0, 1.0))


def spearman(x, y) -> float:
    """Pearson correlation of midranks, each vector ranked over its own
    present values before incomplete pairs are dropped, as R's
    ``cor(x, y, use="pairwise.complete.obs", method="spearman")`` and
    :func:`pairwise_row_correlations` do."""
    return pearson(*rank_rows(np.vstack(_vector_pair(x, y)))[0])


def correlation_threshold(n: int, alpha: float = 0.05, sided: str = "one") -> float:
    """Null-correlation significance cutoff z_(1-alpha[/2]) / sqrt(n - 1).

    For long vectors a null correlation is approximately normal with
    standard deviation 1/sqrt(n - 1); values beyond the cutoff are
    significant at level ``alpha``.
    """
    if not isinstance(n, (int, np.integer)) or n < 10:
        raise ValueError(f"n must be an integer >= 10, got {n!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided!r}")
    q = 1.0 - alpha if sided == "one" else 1.0 - alpha / 2.0
    return inv_norm_cdf(q) / math.sqrt(n - 1)


_CORR_FUNCS: dict[str, Callable] = {"pearson": pearson, "spearman": spearman}


def median_correlation(x, y, method: str = "pearson") -> float:
    """Correlation between two median columns."""
    try:
        f = _CORR_FUNCS[method]
    except KeyError:
        raise ValueError(f"unknown correlation method {method!r}")
    return f(x, y)


def heterogeneity_split(ds: Dataset, feature: str) -> tuple[float, tuple[int, int]]:
    """Split samples by the sign of one (scored) feature and compare halves.

    Samples with a non-negative value on ``feature`` form one group,
    negative values the other (missing values sit in neither).  Returns
    the correlation between the two groups' median columns and the
    group sizes ``(n_nonnegative, n_negative)``.  A split that leaves
    either side empty is rejected, and an unknown ``feature`` raises
    :class:`~rankmerge.errors.UnknownFeatureError`.
    """
    row = ds.data.row(feature)
    pos, neg = np.flatnonzero(row >= 0.0).tolist(), np.flatnonzero(row < 0.0).tolist()
    if not pos or not neg:
        raise ValueError(f"feature {feature!r} does not separate samples")
    medians = [median_column(ds.data.take_cols(idx)) for idx in (pos, neg)]
    return pearson(*medians), (len(pos), len(neg))


# ---------------------------------------------------------------------------
# streaming all-pairs row correlations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairwiseResult:
    emitted: int
    skipped: int


def pair_count(n_rows: int) -> int:
    """Number of unordered row pairs, C(n, 2)."""
    if n_rows < 0:
        raise ValueError("row count must be >= 0")
    return n_rows * (n_rows - 1) // 2


# rows per block product: memory stays at O(_BLOCK_ROWS x rows), and the
# block boundaries, which group the matrix products, never move
_BLOCK_ROWS = 256
# a masked pair goes to pearson when a row's spread is at most this share
# of cnt x sum(z^2): one-pass rounding is about 3(p + 1) eps of it at most
_SPREAD_SHARE = 0.01


def pairwise_row_correlations(m: DataMatrix,
                              sink: Callable[[str, str, float], None],
                              method: str = "pearson", *,
                              threads: int = 1) -> PairwiseResult:
    """Stream the correlation of every unordered row pair to ``sink``.

    One serial loop correlates a block of :data:`_BLOCK_ROWS` (256) rows
    at a time with every later row by block products and emits their
    pairs in row order (i < j), so memory stays at O(256 x rows).  No
    argument moves the block boundaries, so none moves an output bit.
    ``sink`` is called in this process; ``threads`` (>= 1) is checked and
    otherwise unused.  Spearman ranks each row as :func:`spearman` does.
    A pair with fewer than 3 complete observations, or a row constant
    over them, is skipped and counted (see :func:`_block_correlations`).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    names, emitted = np.array(m.row_names, dtype=object), 0
    for i, j, r in _kept_pairs(m, method, _INDEX_PAIR_BYTES):
        for a, b, v in zip(names[i].tolist(), names[j].tolist(), r.tolist()):
            sink(a, b, v)
        emitted += len(r)
    return PairwiseResult(emitted, pair_count(m.n_rows) - emitted)


def write_pairwise_text(m: DataMatrix, dest: TextIO,
                        method: str = "pearson") -> PairwiseResult:
    """Write one line "a<TAB>b<TAB>repr(r)" per pair that
    :func:`pairwise_row_correlations` emits, in the same order.

    The pairs come a run of whole rows at a time (:func:`_kept_pairs`),
    as many rows as keep a run's lines within about :data:`_CELL_BYTES`.
    A run's kept pairs (i, j), in row order, are one byte matrix, a row
    per line, padded with a byte that UTF-8 never uses; dropping that
    byte leaves each line whole, whatever a name holds (NUL included).
    So the text in flight stays within the O(256 x rows) bound.  No
    argument moves an output byte.
    Each r is printed with repr's bytes: for 1e-4 <= |r| < 1 numpy works
    out the same digits exactly, and other values go through repr().
    """
    cells = _name_cells(m.row_names)
    emitted = 0
    for i, j, r in _kept_pairs(m, method, 2 * cells.shape[1] + _REPR_WIDTH):
        lines = np.concatenate([cells[i], cells[j], _repr_cells(r)], axis=1)
        dest.write(lines.tobytes().translate(None, _PAD)
                   .decode("utf-8", "surrogatepass"))
        emitted += len(r)
    return PairwiseResult(emitted, pair_count(m.n_rows) - emitted)


# bytes in flight per run of rows: a long name or a wide block shortens
# the run, and at about 40 bytes a line its per-pair temporaries come
# from the heap, not fresh pages
_CELL_BYTES = 2 ** 19
_INDEX_PAIR_BYTES = 24  # the sink path's i, j and r: 8 bytes each per pair
_PAD = b"\xff"  # never a byte of UTF-8


def _name_cells(names: Sequence[str]) -> np.ndarray:
    """One row per name: its UTF-8 bytes and a tab, then padding."""
    raw = [name.encode("utf-8", "surrogatepass") + b"\t" for name in names]
    lengths = np.fromiter(map(len, raw), np.intp, len(raw))
    cells = np.full((len(raw), lengths.max(initial=0)), _PAD[0], np.uint8)
    cells[np.arange(cells.shape[1]) < lengths[:, None]] = np.frombuffer(
        b"".join(raw), np.uint8)
    return cells


_U64 = np.uint64
_LOW32 = _U64(2 ** 32 - 1)
_POW5 = np.array([5 ** q for q in range(17, 21)], dtype=_U64)
_POW10 = np.array([1, 10, 100], dtype=_U64)
_BYTE = {c: np.uint8(ord(c)) for c in "-0.\n"} | {"pad": np.uint8(_PAD[0])}
_REPR_WIDTH = 25  # the longest repr of a float, "-2.2250738585072014e-308", and "\n"


def _repr_cells(v: np.ndarray) -> np.ndarray:
    """A (len(v), 25) byte array whose row i is repr(v[i]) and a newline,
    then padding.

    For 1e-4 <= |v| < 1 repr prints "0.", z = 0..3 zeros and the
    shortest n digits that read back as v: the n-digit decimal nearest
    to v when it lies within half an ulp of v (Steele & White 1990;
    Adams, "Ryu", 2018).  With |v| = m / 2^e for the 53-bit significand
    m, and q = 17 + z, the product m 5^q is exactly d 2^s + rem (s = e -
    q in 36..46), formed from 32-bit limbs in uint64: d holds the 17
    leading digits of |v| 10^q and rem / 2^s the fraction after them.
    In units of 2^-(s+1) 10^-q the half ulp is exactly 5^q, so every
    test below is an integer comparison.  None is ever an equality: a
    midpoint between two doubles here has 54 or more decimal places, a
    candidate at most 20.  17 digits always read back; 16 or 15 are
    taken when they do.  All other values go through repr() itself: 0,
    |v| < 1e-4, |v| >= 1, NaN, infinities, values of 14 digits or fewer
    (every power of two of the domain among them: its interval below is
    narrower) and a value halfway between its two nearest decimals.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1.0)
    bits = np.where(fast, a, 0.5).view(_U64)  # off the domain: any value in it
    zeros = (a < 0.1).astype(np.intp) + (a < 0.01) + (a < 0.001)
    m = bits & _U64(2 ** 52 - 1) | _U64(2 ** 52)
    s = _U64(1058) - (bits >> _U64(52)) - zeros.astype(_U64)
    p = _POW5.take(zeros)
    m0, m1, p0, p1 = m & _LOW32, m >> _U64(32), p & _LOW32, p >> _U64(32)
    low = m0 * p0
    mid = m1 * p0 + m0 * p1 + (low >> _U64(32))
    d = (m1 * p1 << _U64(64) - s) + (mid >> s - _U64(32))
    rem = (mid & (_U64(1) << s - _U64(32)) - _U64(1)) << _U64(32) | low & _LOW32
    s1, rem2 = s + _U64(1), rem << _U64(1)

    def below(cut):
        """|v| 10^q - (d - cut), in units of 2^-(s+1)."""
        return (cut << s1) + rem2

    def rounded(k: int):
        """d mod 10^k, and whether d rounded to 10^k reads back."""
        cut = d - d // _U64(10 ** k) * _U64(10 ** k)
        gap = below(cut)
        return cut, (gap < p) | ((_U64(10 ** k) << s1) - gap < p)

    (cut1, ok1), (cut2, ok2), (_, ok3) = (rounded(k) for k in (1, 2, 3))
    fast &= ~ok3
    k = ok1.astype(np.intp) + ok2  # 17 - k digits
    cut = np.where(ok2, cut2, np.where(ok1, cut1, _U64(0)))
    unit = _POW10.take(k)
    twice, span = below(cut) << _U64(1), unit << s1
    fast &= twice != span
    digits = d - cut + unit * (twice > span)

    cells = np.empty((_REPR_WIDTH, len(v)), np.uint8)
    cells[0] = np.where(v < 0, _BYTE["-"], _BYTE["pad"])
    cells[1], cells[2] = _BYTE["0"], _BYTE["."]
    for i in range(3):
        cells[3 + i] = np.where(zeros > i, _BYTE["0"], _BYTE["pad"])
    high = digits // _U64(10 ** 8)
    for x, rows in ((digits - high * _U64(10 ** 8), range(22, 14, -1)),
                    (high, range(14, 5, -1))):
        x = x.astype(np.uint32)
        for i in rows:
            q = x // np.uint32(10)
            cells[i] = x - q * np.uint32(10)
            x = q
    cells[6:23] += _BYTE["0"]
    # rows 21 and 22 hold digits 16 and 17: padding past 17 - k
    cells[21, k > 1] = cells[22, k > 0] = _BYTE["pad"]
    cells[23], cells[24] = _BYTE["\n"], _BYTE["pad"]
    slow = np.flatnonzero(~fast)
    text = b"".join([(repr(x) + "\n").encode().ljust(_REPR_WIDTH, _PAD)
                     for x in v[slow].tolist()])
    cells[:, slow] = np.frombuffer(text, np.uint8).reshape(-1, _REPR_WIDTH).T
    return cells.T


def _kept_pairs(m: DataMatrix, method: str, pair_bytes: int):
    """Yield (i, j, r) per run of whole rows of each block of
    :func:`_correlation_blocks`: the row indexes i < j of the run's kept
    pairs, in row order, and their correlations.  A run holds as many
    rows as keep its pairs within about :data:`_CELL_BYTES` at
    ``pair_bytes`` each, and at least one."""
    for s, r, keep in _correlation_blocks(m, method):
        run = max(1, _CELL_BYTES // (pair_bytes * r.shape[1]))
        for a in range(0, len(r), run):
            i, j = np.nonzero(np.triu(keep[a:a + run, a:], 1))
            yield s + a + i, s + a + j, r[a:a + run, a:][i, j]


def _correlation_blocks(m: DataMatrix, method: str):
    """Check the arguments now; then yield (s, r, keep) per block of
    :data:`_BLOCK_ROWS` rows s:e, with r and keep of rows s:e against
    rows s:."""
    if method not in CORRELATION_METHODS:
        raise ValueError(f"unknown correlation method {method!r}")
    if m.n_cols < 3:
        raise ValueError("need at least 3 columns")
    if len(set(m.row_names)) != m.n_rows:
        raise ValueError("row names must be unique for pairwise correlations")

    vals = np.array(m.values, dtype=float)
    block = _block_correlations(rank_rows(vals)[0] if method == "spearman" else vals)
    return ((s, *block(s, min(s + _BLOCK_ROWS, m.n_rows)))
            for s in range(0, m.n_rows, _BLOCK_ROWS))


def _block_correlations(vals: np.ndarray):
    """(s, e) -> r and the pairs to keep, rows s:e against rows s:.

    Without missing values r = (g / |x|) / |y| for g = z z^T over the
    row-centred values z.  With them, masked products give each pair its
    count and sums over its complete cells (NaN enters z as 0) for r in
    one pass, unless a row's spread is at most :data:`_SPREAD_SHARE` of
    cnt x sum(z^2): then :func:`pearson` decides the pair.  Each row is
    first scaled by a power of two (exact): no product over- or underflows.
    r is clamped to [-1, 1], as :func:`pearson` clamps it; NaN stays NaN.
    """
    missing = np.isnan(vals)
    present = (~missing).astype(float)
    z = np.where(missing, 0.0, vals)
    z = np.ldexp(z, -np.frexp(np.abs(z).max(axis=1, keepdims=True))[1])
    z = np.where(missing, 0.0, z - z.sum(axis=1, keepdims=True)
                 / np.maximum(present.sum(axis=1, keepdims=True), 1.0))
    constant = np.fmin.reduce(vals, axis=1) == np.fmax.reduce(vals, axis=1)
    if not missing.any():
        inv_norms = 1.0 / np.where(constant, np.inf, np.sqrt((z * z).sum(axis=1)))

        def dense(s: int, e: int):
            r = (z[s:e] @ z[s:].T) * inv_norms[s:e, None] * inv_norms[s:]
            return np.clip(r, -1.0, 1.0, out=r), ~(constant[s:e, None] | constant[s:])
        return dense
    zz = z * z

    @np.errstate(divide="ignore", invalid="ignore")
    def block(s: int, e: int):
        def sums(a, b):  # block rows of a against rows of b, over complete cells
            return a[s:e] @ b[s:].T

        def spread(t, v):  # (sum z, sum z^2) -> sum z, cnt^2 x the variance, small?
            v *= cnt
            v -= t * t
            return t, v, v <= _SPREAD_SHARE * (v + t * t)

        cnt = sums(present, present)
        keep = (cnt >= 3) & ~(constant[s:e, None] | constant[s:])
        (tx, vx, low_x), (ty, vy, low_y) = (spread(sums(z, present), sums(zz, present)),
                                            spread(sums(present, z), sums(present, zz)))
        r = np.multiply(cnt, z[s:e] @ z[s:].T, out=cnt)
        r -= np.multiply(tx, ty, out=tx)
        r /= np.sqrt(np.multiply(vx, vy, out=vx), out=vx)
        np.clip(r, -1.0, 1.0, out=r)
        for i, j in np.argwhere(np.triu(keep & (low_x | low_y), 1)).tolist():
            try:
                r[i, j] = pearson(vals[s + i], vals[s + j])
            except ValueError:
                keep[i, j] = False
        return r, keep
    return block


# ---------------------------------------------------------------------------
# Kruskal-Wallis and one-sided Wilcoxon
# ---------------------------------------------------------------------------

def _pooled_ranks(groups: Sequence[np.ndarray]):
    """Aligned group matrices ranked together by row: a row per group of
    rank sums (exact half-integers) and of sizes; per row the pooled size
    N, the tie sum and the tie factor 1 - sum(t^3 - t) / (N^3 - N).  The
    rows are pooled and ranked :data:`RANK_BLOCK_CELLS` cells at a time,
    so no pooled copy of the groups is ever whole."""
    edges = np.cumsum([0] + [g.shape[1] for g in groups])
    k, rows = len(groups), len(groups[0])
    sums, sizes = np.empty((k, rows)), np.empty((k, rows), int)
    n, tie_sum = np.empty(rows, int), np.empty(rows)
    step = max(1, RANK_BLOCK_CELLS // max(edges[-1], 1))
    for s in range(0, rows, step):
        ranks, tie_sum[s:s + step], n[s:s + step] = rank_rows(
            np.hstack([g[s:s + step] for g in groups]))
        for i, part in enumerate(np.split(ranks, edges[1:-1], axis=1)):
            sums[i, s:s + step] = np.nansum(part, axis=1)
            sizes[i, s:s + step] = (~np.isnan(part)).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tie = 1.0 - tie_sum / (n.astype(float) ** 3 - n)
    return sums, sizes, n, tie_sum, tie


def _aligned(groups: Sequence[DataMatrix]) -> tuple[list[str], list[np.ndarray]]:
    """The features common to ``groups`` and each group's values on them,
    uncopied where a group's rows already are those features."""
    features = common_rows(groups)
    return features, [g.values if g.row_names == tuple(features)
                      else g.take_rows(features).values for g in groups]


def _results(features: Sequence[str], statistic: np.ndarray, why: np.ndarray,
             direction: str, ln_p: Callable[[np.ndarray], np.ndarray]) -> ResultTable:
    """The per-feature table: a reason in ``why`` means no p-value;
    ``ln_p(tested)`` gives ln p of the rows a boolean mask selects."""
    tested = why == ""
    column = np.full(len(why), math.nan)
    column[tested] = checked_ln_p(ln_p(tested))
    return ResultTable(tuple(features), np.where(tested, statistic, math.nan),
                       column, np.full(len(why), math.nan),
                       np.where(tested, DIRECTIONS.index(direction), _NONE)
                       .astype(np.int8))


def _single(results: ResultTable, why: np.ndarray) -> TestResult:
    """The one result of a scalar test; an untestable one raises."""
    if why[0]:
        raise DegenerateDataError(str(why[0]))
    return results[0]


def _kw_results(features: Sequence[str], groups: Sequence[np.ndarray]):
    """Tie-corrected Kruskal-Wallis H per row of k aligned group
    matrices, in the same scalar operation order for every row."""
    k = len(groups)
    sums, sizes, n, _, tie = _pooled_ranks(groups)
    h = np.zeros(len(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rsum, s in zip(sums, sizes):
            h += rsum * rsum / s
        h = np.maximum((12.0 / (n * (n + 1.0)) * h - 3.0 * (n + 1.0)) / tie, 0.0)
    why = np.select([np.min(sizes, axis=0) == 0, n < k + 1, tie == 0.0],
                    ["empty group", f"need more than {k} values overall",
                     "all values tied"], "")
    return _results(features, h, why, "none",
                    lambda tested: chi_sq_upper_tail_ln_array(h[tested], k - 1)), why


def kruskal_wallis(values, labels, feature: str = "") -> TestResult:
    """Kruskal-Wallis test of k groups defined by a label per value.

    Missing values are dropped together with their labels.  H uses the
    tie-corrected form; the p-value is the chi-square upper tail with
    k - 1 degrees of freedom.
    """
    vals = np.asarray(values, dtype=float)
    labs = np.asarray(labels)
    if vals.shape != labs.shape or vals.ndim != 1:
        raise ValueError("values and labels must be 1-d and aligned")
    keep = ~np.isnan(vals)
    vals, labs = vals[keep], labs[keep]
    _, first = np.unique(labs, return_index=True)
    if len(first) < 2:
        raise ValueError("need at least two distinct labels")
    rows = [vals[labs == g][None, :] for g in labs[np.sort(first)]]
    return _single(*_kw_results([feature], rows))


def kw_per_feature(group_matrices: Sequence[DataMatrix]) -> ResultTable:
    """Kruskal-Wallis per common feature, one group per input matrix.

    Features where a group is entirely missing, pooled values are all
    tied, or too few values remain are reported as degenerate
    (statistic NaN, no p-value) rather than aborting the scan.
    """
    if len(group_matrices) < 2:
        raise ValueError("need at least two group matrices")
    return _kw_results(*_aligned(group_matrices))[0]


ALTERNATIVES = ("A_greater", "A_less")

EXACT_SIZE_LIMIT = 12


@lru_cache(maxsize=256)
def _rank_sum_counts(n_a: int, n_b: int) -> tuple[int, ...]:
    """How many n_a-subsets of the ranks 1..n_a+n_b sum to n_a(n_a+1)/2 + s,
    for each s, by the subset-sum recurrence over the ranks."""
    top = n_a * (2 * n_b + n_a + 1) // 2
    ways = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(n_a)]
    for r in range(1, n_a + n_b + 1):
        for j in range(min(r, n_a), 0, -1):
            for s in range(top, r - 1, -1):
                ways[j][s] += ways[j - 1][s - r]
    return tuple(ways[n_a][n_a * (n_a + 1) // 2:])


def _wilcoxon_exact_tail_ln(n_a: int, n_b: int, rank_sum_a: int,
                            alternative: str) -> float:
    """ln p from the exact null distribution of group A's rank sum."""
    counts = _rank_sum_counts(n_a, n_b)
    k = rank_sum_a - n_a * (n_a + 1) // 2
    count = sum(counts[k:]) if alternative == "A_greater" else sum(counts[:k + 1])
    return math.log(count) - math.log(math.comb(n_a + n_b, n_a))


def _wilcoxon_results(features: Sequence[str], a: np.ndarray, b: np.ndarray,
                      alternative: str, exact: bool | None):
    """One-sided rank-sum test per row of two aligned group matrices,
    in the same scalar operation order for every row."""
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")
    (sum_a, _), (n_a, n_b), n, tie_sum, tie = _pooled_ranks([a, b])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = sum_a - n_a * (n_a + 1) / 2.0
        mean_u = n_a * n_b / 2.0
        sd_u = np.sqrt(tie * n_a * n_b * (n + 1) / 12.0)
        statistic = (u - mean_u) / sd_u
        z = ((u - mean_u - 0.5) if alternative == "A_greater"
             else (mean_u - u - 0.5)) / sd_u
    use_exact = (n <= EXACT_SIZE_LIMIT) & (tie_sum == 0.0) if exact is None \
        else np.full(len(n), exact)
    why = np.select([(n_a < 1) | (n_b < 1), n < 4, tie == 0.0,
                     use_exact & (tie_sum > 0.0)],
                    ["empty group", "need at least 4 values overall",
                     "all values tied", "exact enumeration requires tie-free data"], "")

    def ln_p(tested: np.ndarray) -> np.ndarray:
        exact_rows = use_exact[tested]
        out = np.empty(len(exact_rows))
        out[~exact_rows] = norm_upper_tail_ln_array(z[tested & ~use_exact])
        out[exact_rows] = [
            _wilcoxon_exact_tail_ln(int(n_a[i]), int(n_b[i]),
                                    round(float(sum_a[i])), alternative)
            for i in np.flatnonzero(tested & use_exact).tolist()]
        return out

    direction = "over" if alternative == "A_greater" else "under"
    return _results(features, statistic, why, direction, ln_p), why


def wilcoxon_one_sided(a, b, alternative: str = "A_greater",
                       feature: str = "", exact: bool | None = None) -> TestResult:
    """One-sided rank-sum test of group A against group B.

    The normal approximation uses midranks, the tie-corrected variance
    and a 0.5 continuity correction.  For small tie-free problems
    (nA + nB <= 12) the exact enumeration tail is returned instead;
    pass ``exact=False`` to force the approximation or ``exact=True``
    to require enumeration.
    """
    rows = [np.asarray(v, dtype=float).reshape(1, -1) for v in (a, b)]
    return _single(*_wilcoxon_results([feature], *rows, alternative, exact))


def wilcoxon_per_feature(group_a: DataMatrix, group_b: DataMatrix,
                         alternative: str = "A_greater",
                         exact: bool | None = None) -> ResultTable:
    """Per-feature one-sided Wilcoxon of two groups on their common
    features; degenerate features get no p-value."""
    features, (a, b) = _aligned([group_a, group_b])
    return _wilcoxon_results(features, a, b, alternative, exact)[0]


def sample_groups(ds: Dataset, field_name: str, keyword: str | None = None,
                  mode: str = "substring") -> list[DataMatrix]:
    """The data of ``ds`` in sample groups by a metadata field: with
    ``keyword``, ``[matching, rest]`` as :func:`select_samples` and
    :func:`exclude_samples` build them; without, one group per distinct
    value in first-seen order (one value is a DegenerateDataError).  An
    unknown field raises ``KeyError``."""
    if keyword is not None:
        return [op(ds, field_name, keyword, mode).data
                for op in (select_samples, exclude_samples)]
    values = ds.info.field(field_name)
    if len(set(values)) < 2:
        raise DegenerateDataError(
            f"field {field_name!r} has a single value; nothing to compare")
    return [ds.data.take_cols([i for i, x in enumerate(values) if x == v])
            for v in dict.fromkeys(values)]


def wilcoxon_group_vs_rest(ds: Dataset, field_name: str, keyword: str,
                           alternative: str = "A_greater",
                           mode: str = "substring",
                           exact: bool | None = None) -> ResultTable:
    """Per-feature one-sided Wilcoxon of matching samples vs the rest.

    Group A is the keyword selection, group B its complement; either
    side empty is an error.  Per-feature degeneracies (all tied, or a
    side entirely missing) become results with no p-value.
    """
    a, b = sample_groups(ds, field_name, keyword, mode)
    return _wilcoxon_results(ds.data.row_names, a.values, b.values,
                             alternative, exact)[0]


# ---------------------------------------------------------------------------
# Benjamini-Yekutieli FDR
# ---------------------------------------------------------------------------

def benjamini_yekutieli(ln_p) -> np.ndarray:
    """The adjusted ln p of a non-empty 1-d array of ln p, under
    arbitrary dependence, computed in log space.

    adjusted_(i) = min over j >= i of min(1, p_(j) * m * c(m) / j) with
    c(m) the harmonic sum 1 + 1/2 + ... + 1/m.  Each ln p is checked as
    :class:`LogP` checks it.
    """
    ln_p = checked_ln_p(ln_p)
    if ln_p.ndim != 1 or len(ln_p) == 0:
        raise ValueError("need a non-empty 1-d array of ln p")
    m = len(ln_p)
    c_m = float((1.0 / np.arange(1, m + 1)).sum())
    order = np.argsort(ln_p, kind="stable")
    ln_sorted = ln_p[order]
    ln_adj = ln_sorted + math.log(m) + math.log(c_m) - np.log(np.arange(1, m + 1))
    ln_adj = np.minimum(ln_adj, 0.0)
    ln_adj = np.minimum.accumulate(ln_adj[::-1])[::-1]
    out = np.empty(m)
    out[order] = ln_adj
    return out


def apply_fdr(results: Sequence[TestResult]) -> ResultTable:
    """Attach Benjamini-Yekutieli adjusted p-values.

    Degenerate entries (no raw p) pass through unadjusted and do not
    count toward m.
    """
    table = ResultTable.of(results)
    tested = table.tested
    ln_adj = table.ln_p_adj.copy()
    if tested.any():
        ln_adj[tested] = benjamini_yekutieli(table.ln_p[tested])
    return replace(table, ln_p_adj=ln_adj)


def significant_features(results: Sequence[TestResult],
                         threshold: float = 0.05) -> ResultTable:
    """Entries with adjusted p strictly below ``threshold``.

    Results that carry a raw p but no adjusted p mean the FDR step was
    skipped; that is an error rather than a silent fallback to raw p.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold!r}")
    table = ResultTable.of(results)
    if (table.tested & np.isnan(table.ln_p_adj)).any():
        raise ValueError("results carry no adjusted p-values; apply FDR first")
    return table.take(table.ln_p_adj < math.log(threshold))


def rank_features(results: Sequence[TestResult], by: str = "p") -> ResultTable:
    """Order results by significance.

    ``by="p"``: ascending raw p (ties broken by feature name).
    ``by="statistic"``: descending statistic magnitude; for one-sided
    tests the sign is respected, so an "under" test ranks its most
    negative statistics first.  Degenerate entries always sort last.
    """
    if by not in RANK_KEYS:
        raise ValueError(f"by must be 'p' or 'statistic', got {by!r}")
    if not results:
        raise ValueError("no results to rank")
    t = ResultTable.of(results)
    last = ~t.tested | np.isnan(t.statistic)
    key = t.ln_p if by == "p" else np.select(
        [t.direction == _OVER, t.direction == _UNDER],
        [-t.statistic, t.statistic], -np.abs(t.statistic))
    by_name = np.empty(len(t), dtype=np.intp)
    by_name[sorted(range(len(t)), key=t.features.__getitem__)] = np.arange(len(t))
    order = np.lexsort((by_name, np.where(last, 0.0, key), last))
    return t.take(order)


# ---------------------------------------------------------------------------
# gene-set enrichment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneSet:
    name: str
    description: str
    symbols: frozenset[str]

    def __post_init__(self):
        if not self.name:
            raise ValueError("gene set name must be non-empty")
        if not self.symbols:
            raise ValueError(f"gene set {self.name!r} has no symbols")


def parse_gmt(source) -> list[GeneSet]:
    """Parse GMT lines: name <tab> description <tab> symbol...

    Duplicate set names and symbol-less lines are rejected.
    """
    sets: list[GeneSet] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text_lines(source), start=1):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) < 3:
            raise ParseError("gene set line needs name, description and "
                             "at least one symbol", lineno)
        name, description = cells[0], cells[1]
        if not name:
            raise ParseError("gene set line has an empty name", lineno)
        symbols = frozenset(s for s in cells[2:] if s)
        if not symbols:
            raise ParseError(f"gene set {name!r} has no symbols", lineno)
        if name in seen:
            raise ParseError(f"duplicate gene set name {name!r}", lineno)
        seen.add(name)
        sets.append(GeneSet(name, description, symbols))
    if not sets:
        raise ParseError("no gene sets found")
    return sets


def fisher_enrichment(universe: int, selected: int, reference: int,
                      overlap: int) -> LogP:
    """Upper hypergeometric tail P(X >= overlap).

    X counts the intersection of a ``selected``-sized and a
    ``reference``-sized subset drawn from a universe of ``universe``
    symbols.  Summation runs in the log domain via log-sum-exp.
    """
    n_, a, b, k = int(universe), int(selected), int(reference), int(overlap)
    if n_ < 1 or not (0 <= a <= n_) or not (0 <= b <= n_):
        raise ValueError("need 0 <= selected, reference <= universe")
    if k < 0 or k > min(a, b):
        raise ValueError(f"overlap {k} inconsistent with set sizes")
    return _hypergeom_upper_tail(n_, a, b, k, log_choose)


def _hypergeom_upper_tail(n_: int, a: int, b: int, k: int,
                          ln_choose: Callable[[int, int], float]) -> LogP:
    """:func:`fisher_enrichment` of valid counts, with ``ln_choose`` for
    :func:`log_choose` (the same function, or a memo of it)."""
    if k <= max(0, a + b - n_):
        return P_ONE
    ln_total = ln_choose(n_, b)
    terms = [ln_choose(a, i) + ln_choose(n_ - a, b - i) - ln_total
             for i in range(k, min(a, b) + 1)]
    peak = max(terms)
    ln_p = peak + math.log(sum(math.exp(t - peak) for t in terms))
    return LogP(min(ln_p, 0.0))


def enrich_genesets(selected: set[str], universe: set[str],
                    gene_sets: Sequence[GeneSet]) -> list[tuple[GeneSet, int, int, LogP]]:
    """Hypergeometric enrichment of each gene set against a selection.

    Symbols outside the universe are ignored on both sides.  Returns
    (gene_set, set_size_in_universe, overlap, p) per set, in input order.
    Every set shares the selection and the universe, so each
    ``log_choose(n, k)`` is computed once per call.
    """
    if not universe:
        raise EmptyUniverseError("empty universe")
    sel = selected & universe
    ln_choose = lru_cache(maxsize=None)(log_choose)
    out = []
    for gs in gene_sets:
        ref = gs.symbols & universe
        k = len(sel & ref)
        out.append((gs, len(ref), k, _hypergeom_upper_tail(
            len(universe), len(sel), len(ref), k, ln_choose)))
    return out


# ---------------------------------------------------------------------------
# result table input/output
# ---------------------------------------------------------------------------

RESULT_COLUMNS = ("feature", "statistic", "p_raw", "log10_p_raw",
                  "p_adj", "log10_p_adj", "direction")

_LN10 = math.log(10.0)


def _cells(values, spec: str, marks: dict[str, np.ndarray]) -> list[str]:
    """Each value formatted by ``spec``, then each mark written over the
    cells its mask selects."""
    cells = list(map(format, values, repeat(spec)))
    for mark, mask in marks.items():
        for i in np.flatnonzero(mask).tolist():
            cells[i] = mark
    return cells


def p_cells(ln_p: np.ndarray) -> tuple[list[str], list[str]]:
    """The linear and the log10 cells of a ln p column, "NA" for NaN.

    Linear p clamps below 1e-308 to the marker "<1e-308"; log10 always
    carries the exact value (a zero keeps its sign: "-0.000000").
    """
    na = np.isnan(ln_p)
    return (_cells(map(math.exp, ln_p.tolist()), ".6g",
                   {"<1e-308": ln_p < _LN_P_FLOOR, "NA": na}),
            _cells((ln_p / _LN10).tolist(), ".6f", {"NA": na}))


def write_results_tsv(results: Sequence[TestResult], dest: TextIO) -> None:
    """Write a result table to the text stream ``dest``; see
    RESULT_COLUMNS for the layout.

    Linear p columns clamp below 1e-308 to the marker "<1e-308"; the
    log10 columns always carry the exact value.
    """
    t = ResultTable.of(results)
    columns = [t.features,
               _cells(t.statistic.tolist(), ".10g", {"NA": np.isnan(t.statistic)}),
               *p_cells(t.ln_p), *p_cells(t.ln_p_adj),
               [DIRECTIONS[d] for d in t.direction.tolist()]]
    dest.write("\t".join(RESULT_COLUMNS) + "\n")
    dest.write("".join(line + "\n" for line in map("\t".join, zip(*columns))))


def _ln_p_cells(cells: list[str]) -> np.ndarray:
    """ln p from log10 cells, NaN for "NA"; checked as LogP checks."""
    na = np.array([c == "NA" for c in cells], dtype=bool)
    ln_p = np.array([0.0 if c == "NA" else float(c) for c in cells]) * _LN10
    ln_p[~na] = checked_ln_p(ln_p[~na])
    ln_p[na] = math.nan
    return ln_p


def _table(cells: list[str]) -> ResultTable:
    """The table of result rows' cells, concatenated; as every row has
    one cell per column, the columns are strided slices."""
    width = len(RESULT_COLUMNS)
    feature, stat, _, lg_raw, _, lg_adj, direction = (cells[j::width] for j in range(width))
    try:
        codes = np.array([DIRECTIONS.index(d) for d in direction], dtype=np.int8)
    except ValueError:
        raise ValueError(f"direction must be one of {DIRECTIONS}") from None
    return ResultTable(tuple(feature),
                       np.array([math.nan if c == "NA" else float(c) for c in stat]),
                       _ln_p_cells(lg_raw), _ln_p_cells(lg_adj), codes)


def read_results_tsv(source) -> ResultTable:
    """Read back a table written by :func:`write_results_tsv`.

    Log p values are reconstructed from the log10 columns, which do not
    clamp, so round-tripping preserves deep tails.
    """
    header, lines = read_tab_table(source)
    if tuple(header) != RESULT_COLUMNS:
        raise ParseError(f"unexpected result columns {header}", 1)
    rows = list(lines)
    try:
        return _table("\t".join(line for _, line in rows).split("\t") if rows else [])
    except ValueError:  # find the first bad row
        for lineno, line in rows:
            try:
                _table(line.split("\t"))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        raise
