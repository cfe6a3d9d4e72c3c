"""Oracle checks for the log-domain special functions.

The references here are deliberately independent of the implementation:
a Maclaurin erf series plus bisection for the normal quantile, closed
forms for even-df chi-square tails, the exact df=3 tail formula, and
integer binomials for log_choose.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankmerge.numerics import (
    _LN_ONE_SLACK,
    LINEAR_P_FLOOR,
    LogP,
    P_ONE,
    checked_ln_p,
    chi_sq_upper_tail_ln,
    inv_norm_cdf,
    log_choose,
    norm_upper_tail_ln,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def erf_series(x: float) -> float:
    """Maclaurin erf; good to ~1e-14 absolute for |x| <= 2.5."""
    u = x
    total = x
    n = 0
    while True:
        n += 1
        u *= -x * x / n
        inc = u / (2 * n + 1)
        total += inc
        if abs(inc) < 1e-18:
            return total * 2.0 / math.sqrt(math.pi)


def phi_oracle(z: float) -> float:
    return 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))


def inv_phi_bisect(p: float, lo: float = -9.0, hi: float = 9.0) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def phi_upper_erfc(z: float) -> float:
    """Independent linear-domain upper tail via the C library erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_tail_even_df_ln(x: float, df: int) -> float:
    """Closed form for even df: Q = exp(-x/2) * sum_{j<df/2} (x/2)^j / j!."""
    assert df % 2 == 0
    xg = 0.5 * x
    # log-sum-exp over the partial Poisson sum so large x stays finite
    terms = []
    lt = 0.0
    for j in range(df // 2):
        if j > 0:
            lt += math.log(xg / j)
        terms.append(lt)
    m = max(terms)
    return -xg + m + math.log(sum(math.exp(t - m) for t in terms))


def chi2_tail_df3(x: float) -> float:
    """Exact linear tail for df=3: 2*(1-Phi(sqrt x)) + sqrt(2x/pi)*exp(-x/2)."""
    return 2.0 * phi_upper_erfc(math.sqrt(x)) + math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)


# ---------------------------------------------------------------------------
# LogP
# ---------------------------------------------------------------------------

class TestLogP:
    def test_basic_ordering_and_conversion(self):
        a = LogP.from_p(0.01)
        b = LogP.from_p(0.5)
        assert a < b
        assert a.p == pytest.approx(0.01, rel=1e-15)
        assert b.log10 == pytest.approx(math.log10(0.5), rel=1e-15)
        assert P_ONE.ln_p == 0.0
        assert P_ONE.p == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LogP(0.5)
        with pytest.raises(ValueError):
            LogP(float("nan"))
        with pytest.raises(ValueError):
            LogP(float("-inf"))
        with pytest.raises(ValueError):
            LogP.from_p(0.0)

    def test_rounding_slack_clamps_to_one(self):
        assert LogP(1e-12).ln_p == 0.0

    @given(st.floats() | st.sampled_from([
        _LN_ONE_SLACK, math.nextafter(_LN_ONE_SLACK, math.inf),
        math.nextafter(_LN_ONE_SLACK, 0.0), 5e-324, 0.0, -0.0,
        math.nan, math.inf, -math.inf]))
    def test_accepts_rejects_and_returns_as_checked_ln_p(self, x):
        try:
            want = checked_ln_p(x).item()
        except ValueError as exc:
            with pytest.raises(ValueError) as scalar:
                LogP(x)
            assert str(scalar.value) == str(exc)
        else:
            assert struct.pack("<d", LogP(x).ln_p) == struct.pack("<d", want)

    def test_underflow_flag(self):
        assert LogP(math.log(LINEAR_P_FLOOR) - 1.0).is_underflow
        assert not LogP(math.log(1e-300)).is_underflow
        # far below exp underflow the log form is still finite and usable
        deep = LogP(-5000.0)
        assert deep.p == 0.0
        assert deep.log10 == pytest.approx(-5000.0 / math.log(10.0))


# ---------------------------------------------------------------------------
# inv_norm_cdf
# ---------------------------------------------------------------------------

class TestInvNormCdf:
    def test_known_quantile(self):
        # frozen from the bisection oracle below
        assert inv_norm_cdf(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_against_bisection_oracle(self):
        for p in np.linspace(0.001, 0.999, 97):
            assert inv_norm_cdf(float(p)) == pytest.approx(
                inv_phi_bisect(float(p)), abs=1e-9)

    def test_round_trip_wide_grid(self):
        grid = np.concatenate([np.logspace(-12, -0.32, 160),
                               1.0 - np.logspace(-12, -0.32, 160)])
        for p in grid:
            z = inv_norm_cdf(float(p))
            assert abs((1.0 - phi_upper_erfc(z)) - p) < 1e-12

    def test_median_and_symmetry(self):
        assert inv_norm_cdf(0.5) == 0.0
        for p in (0.01, 0.1, 0.3, 1e-6):
            assert inv_norm_cdf(p) == pytest.approx(-inv_norm_cdf(1.0 - p), abs=1e-11)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-9, 1.0 - 1e-9, 500)
        vals = inv_norm_cdf(grid)
        assert np.all(np.diff(vals) > 0.0)

    def test_vectorized_matches_scalar(self):
        grid = np.array([0.01, 0.25, 0.5, 0.9, 0.999])
        vec = inv_norm_cdf(grid)
        for p, v in zip(grid, vec):
            assert v == inv_norm_cdf(float(p))

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                inv_norm_cdf(bad)
        with pytest.raises(ValueError):
            inv_norm_cdf(np.array([0.5, 1.0]))


# ---------------------------------------------------------------------------
# norm_upper_tail_ln
# ---------------------------------------------------------------------------

class TestNormUpperTail:
    def test_known_points(self):
        assert norm_upper_tail_ln(0.0).ln_p == pytest.approx(math.log(0.5), abs=1e-12)
        assert norm_upper_tail_ln(1.644854).ln_p == pytest.approx(math.log(0.05), abs=1e-6)

    def test_far_tail_finite_and_matches_asymptotic_oracle(self):
        got = norm_upper_tail_ln(40.0).ln_p
        assert math.isfinite(got)
        z = 40.0
        oracle = (-0.5 * z * z - math.log(z) - 0.5 * math.log(2 * math.pi)
                  + math.log1p(-1.0 / z**2 + 3.0 / z**4 - 15.0 / z**6))
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got == pytest.approx(-804.608, abs=1e-3)

    def test_linear_domain_agreement(self):
        for z in np.linspace(-8.0, 8.0, 161):
            assert math.exp(norm_upper_tail_ln(float(z)).ln_p) == pytest.approx(
                phi_upper_erfc(float(z)), rel=1e-12)

    def test_seam_continuity_and_monotone(self):
        zs = np.concatenate([np.linspace(-12, 7.9, 80),
                             np.linspace(7.99, 8.01, 21),
                             np.linspace(8.1, 40, 80)])
        vals = [norm_upper_tail_ln(float(z)).ln_p for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_complement_identity(self):
        for z in (0.3, 1.0, 2.5, 5.0):
            up = math.exp(norm_upper_tail_ln(z).ln_p)
            lo = math.exp(norm_upper_tail_ln(-z).ln_p)
            assert up + lo == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# chi_sq_upper_tail_ln
# ---------------------------------------------------------------------------

class TestChiSqUpperTail:
    def test_known_points(self):
        assert chi_sq_upper_tail_ln(3.841459, 1).ln_p == pytest.approx(
            math.log(0.05), abs=1e-6)
        # df=2 closed form: ln p = -x/2 on the nose
        assert chi_sq_upper_tail_ln(4.60517, 2).ln_p == pytest.approx(
            -2.302585, abs=1e-9)

    def test_even_df_closed_form(self):
        for df in (2, 4, 6, 10):
            for x in (0.3, 1.0, float(df), df + 5.0, 80.0, 700.0, 3000.0):
                got = chi_sq_upper_tail_ln(x, df).ln_p
                want = chi2_tail_even_df_ln(x, df)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_df1_against_normal_route(self):
        for z in np.linspace(0.05, 35.0, 120):
            lhs = chi_sq_upper_tail_ln(float(z * z), 1).ln_p
            rhs = math.log(2.0) + norm_upper_tail_ln(float(z)).ln_p
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_df3_exact_formula(self):
        for x in (0.2, 1.0, 4.0, 12.0, 30.0):
            got = math.exp(chi_sq_upper_tail_ln(x, 3).ln_p)
            assert got == pytest.approx(chi2_tail_df3(x), rel=1e-11)

    def test_deep_tail_finite(self):
        lp = chi_sq_upper_tail_ln(3000.0, 1)
        assert math.isfinite(lp.ln_p)
        assert lp.ln_p < math.log(1e-300)
        assert lp.is_underflow

    def test_zero_statistic_is_one(self):
        assert chi_sq_upper_tail_ln(0.0, 5).ln_p == 0.0

    def test_monotone_in_x(self):
        for df in (1, 2, 7):
            vals = [chi_sq_upper_tail_ln(float(x), df).ln_p
                    for x in np.linspace(0.01, 200.0, 300)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_sq_upper_tail_ln(1.0, 0)
        with pytest.raises(ValueError):
            chi_sq_upper_tail_ln(1.0, 2.5)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            chi_sq_upper_tail_ln(-1.0, 2)


# ---------------------------------------------------------------------------
# log_choose
# ---------------------------------------------------------------------------

class TestLogChoose:
    def test_small_integer_oracle(self):
        assert log_choose(10, 4) == pytest.approx(math.log(210), abs=1e-10)
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert log_choose(n, k) == pytest.approx(
                    math.log(math.comb(n, k)), rel=1e-13, abs=1e-12)

    def test_large_n_integer_oracle(self):
        for n, k in ((10**7, 1), (10**7, 7), (10**7, 20), (10**6, 13)):
            want = math.log(math.comb(n, k))
            assert log_choose(n, k) == pytest.approx(want, rel=1e-10)

    def test_symmetry_exact(self):
        for n, k in ((17, 5), (100, 3), (10**7, 31)):
            assert log_choose(n, k) == log_choose(n, n - k)

    def test_edges(self):
        assert log_choose(5, 0) == 0.0
        assert log_choose(5, 5) == 0.0
        with pytest.raises(ValueError):
            log_choose(4, 5)
        with pytest.raises(ValueError):
            log_choose(-1, 0)
