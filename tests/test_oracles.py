"""Tail functions and BY against scipy, and the array tails against the
per-value reference tails of ``test_tail_reference`` bit for bit.

scipy is a test-only oracle: every test that needs it skips without it.
The bounds below were set from measurements over these strategies and
over 20,000+ seeded draws per function; each states its measured worst.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmerge.numerics import (
    chi_sq_upper_tail_ln,
    chi_sq_upper_tail_ln_array,
    norm_upper_tail_ln,
    norm_upper_tail_ln_array,
)
from rankmerge.rstats import ResultTable, apply_fdr, benjamini_yekutieli, fisher_enrichment
from test_tail_reference import ref_chi_sq_upper_tail_ln, ref_norm_upper_tail_ln

stats = pytest.importorskip("scipy.stats")

finite = dict(allow_nan=False, allow_infinity=False)


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


# ---------------------------------------------------------------------------
# scipy oracles
# ---------------------------------------------------------------------------

# chi-square: measured worst 1.6e-14 relative against scipy over df 1-10,
# x <= 3,000.  scipy's logsf underflows to -inf from x ~ 1,450 on; there
# mpmath's regularized upper gamma at 40 digits is the oracle (measured
# worst 2.2e-16 relative over 3,000 draws with x in [1,400, 3,000]).
CHI2_REL = 1e-13


def chi2_logsf(x: float, df: int) -> float:
    want = stats.chi2.logsf(x, df)
    if math.isfinite(want):
        return want
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                                mpmath.inf, regularized=True)))


@settings(max_examples=400, deadline=None)
@given(df=st.integers(1, 10),
       x=st.one_of(st.floats(0.0, 3000.0, **finite),
                   st.floats(0.0, 30.0, **finite),
                   st.floats(1400.0, 3000.0, **finite)))
@example(df=1, x=0.0)
@example(df=1, x=5e-324)
@example(df=1, x=3000.0)
@example(df=10, x=3000.0)
@example(df=4, x=5.0)
def test_chi_square_tail_matches_scipy(df, x):
    assert rel_err(chi_sq_upper_tail_ln(x, df).ln_p, chi2_logsf(x, df)) <= CHI2_REL


# normal: z >= 0 measured worst 6.5e-16 relative out to z = 40; z < 0
# (ln p near -1e-290 at z = -36) measured 3.0e-13, inside the documented
# 1e-12 of the Mills series that the complement takes from
NORM_REL_UPPER = 1e-14
NORM_REL_LOWER = 1e-12


@settings(max_examples=400, deadline=None)
@given(z=st.floats(-40.0, 40.0, **finite))
@example(z=0.0)
@example(z=8.0)
@example(z=-8.0)
@example(z=40.0)
@example(z=-40.0)
def test_normal_tail_matches_scipy(z):
    bound = NORM_REL_UPPER if z >= 0.0 else NORM_REL_LOWER
    assert rel_err(norm_upper_tail_ln(z).ln_p, stats.norm.logsf(z)) <= bound


# hypergeometric: measured worst 1.5e-10 absolute in ln p (at ln p = -81,
# N = 17,591, overlap 2,317) over 20,000 seeded draws with N <= 20,000.
# Overlaps above 100 take lgamma differences of values up to ~1.8e5,
# whose ulp is ~3e-11.
HYPERGEOM_ABS = 1e-9


@st.composite
def hypergeom_cases(draw):
    n = draw(st.integers(1, 20_000))
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n))
    lo, hi = max(0, a + b - n), min(a, b)
    mean = a * b / n
    # most draws near or beyond the mean, where the tail is informative
    k = draw(st.one_of(st.integers(lo, hi),
                       st.integers(min(hi, max(lo, int(mean))), hi)))
    return n, a, b, k


@settings(max_examples=400, deadline=None)
@given(hypergeom_cases())
@example((20_000, 500, 400, 60))
@example((17_591, 17_026, 2_317, 2_317))
@example((10, 5, 4, 3))
def test_hypergeometric_tail_matches_scipy(case):
    n, a, b, k = case
    want = stats.hypergeom.logsf(k - 1, n, b, a)
    got = fisher_enrichment(n, a, b, k).ln_p
    assert abs(got - min(want, 0.0)) <= HYPERGEOM_ABS


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-800.0, 0.0, **finite), min_size=1, max_size=300))
def test_by_matches_scipy(ln_ps):
    ln_p = np.array(ln_ps)
    ours = benjamini_yekutieli(ln_p)
    p = np.exp(ln_p)
    shown = p > 1e-300  # scipy works on linear p
    want = stats.false_discovery_control(np.where(shown, p, 1e-300), method="by")
    np.testing.assert_allclose(np.exp(ours)[shown], want[shown], rtol=1e-12, atol=0)


def test_by_exact_on_a_thousand_p_values():
    p = np.random.default_rng(5).uniform(1e-6, 1.0, 1000)
    ours = np.exp(benjamini_yekutieli(np.log(p)))
    np.testing.assert_allclose(ours, stats.false_discovery_control(p, method="by"),
                               rtol=1e-13, atol=0)


def test_apply_fdr_table_matches_scipy():
    rng = np.random.default_rng(6)
    p = rng.uniform(1e-8, 1.0, 500)
    table = ResultTable(tuple(f"g{i}" for i in range(500)), rng.normal(size=500),
                        np.log(p), np.full(500, math.nan), np.zeros(500, np.int8))
    adj = apply_fdr(table).ln_p_adj
    np.testing.assert_allclose(np.exp(adj), stats.false_discovery_control(p, method="by"),
                               rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# array tails == reference tails, bit for bit
# ---------------------------------------------------------------------------

def chi_edges():
    """x = 0, both sides of the series / continued-fraction split at
    df + 1, and deep tails."""
    out = []
    for df in range(1, 11):
        split = df + 1.0
        out += [0.0, -0.0, split, np.nextafter(split, 0.0), np.nextafter(split, 99.0),
                1e-300, 5e-324, 0.5 * split, 2.0 * split, 700.0, 1500.0, 3000.0]
    return out


@pytest.mark.parametrize("df", range(1, 11))
def test_chi_square_array_edges_bitwise(df):
    x = np.array(chi_edges())
    want = [ref_chi_sq_upper_tail_ln(v, df).ln_p for v in x.tolist()]
    assert np.array_equal(bits(chi_sq_upper_tail_ln_array(x, df)), bits(want))


@settings(max_examples=200, deadline=None)
@given(df=st.integers(1, 10),
       xs=st.lists(st.one_of(st.floats(0.0, 3000.0, **finite),
                             st.floats(0.0, 12.0, **finite)), max_size=60))
def test_chi_square_array_bitwise(df, xs):
    want = [ref_chi_sq_upper_tail_ln(v, df).ln_p for v in xs]
    assert np.array_equal(bits(chi_sq_upper_tail_ln_array(np.array(xs, dtype=float), df)),
                          bits(want))


NORM_EDGES = [0.0, -0.0, 8.0, -8.0, float(np.nextafter(8.0, 9.0)),
              float(np.nextafter(-8.0, -9.0)), float(np.nextafter(8.0, 0.0)),
              7.999, 8.001, -7.999, -8.001, 40.0, -40.0, 39.5, 1e-300, -1e-300,
              -38.5, -39.0, 100.0, -100.0]


def test_normal_array_edges_bitwise():
    want = [ref_norm_upper_tail_ln(v).ln_p for v in NORM_EDGES]
    assert np.array_equal(bits(norm_upper_tail_ln_array(np.array(NORM_EDGES))), bits(want))


@settings(max_examples=200, deadline=None)
@given(zs=st.lists(st.one_of(st.floats(-40.0, 40.0, **finite),
                             st.floats(-9.0, 9.0, **finite),
                             st.floats(7.5, 8.5, **finite)), max_size=60))
def test_normal_array_bitwise(zs):
    want = [ref_norm_upper_tail_ln(v).ln_p for v in zs]
    assert np.array_equal(bits(norm_upper_tail_ln_array(np.array(zs, dtype=float))),
                          bits(want))


def test_array_tails_reject_what_the_scalars_reject():
    with pytest.raises(ValueError, match="NaN"):
        norm_upper_tail_ln_array(np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match=">= 0"):
        chi_sq_upper_tail_ln_array(np.array([1.0, -1.0]), 2)
    with pytest.raises(ValueError, match="df"):
        chi_sq_upper_tail_ln_array(np.array([1.0]), 0)
    assert chi_sq_upper_tail_ln_array(np.array([]), 3).shape == (0,)
    assert norm_upper_tail_ln_array(np.array([])).shape == (0,)
