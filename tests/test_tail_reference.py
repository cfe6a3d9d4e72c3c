"""The chi-square and normal tails against their per-value form.

The reference tails below are the scalar code that the array kernels of
``rankmerge.numerics`` replaced, kept verbatim: the array tails must
return their bits for every element (``tests/test_oracles.py``), the
rank tests' p-values must equal what they give for each feature
(``tests/test_rank_kernel.py``), and the public one-value tails,
one-element calls of the array kernels, must return their bits and
raise their messages.
"""

import math

import numpy as np
import pytest

from rankmerge.numerics import (
    _ASYMPTOTIC_Z,
    P_ONE,
    LogP,
    _mills_series_ln,
    chi_sq_upper_tail_ln,
    norm_upper_tail_ln,
)


# ---------------------------------------------------------------------------
# reference: the per-value tails
# ---------------------------------------------------------------------------

def ref_norm_upper_tail_ln(z: float) -> LogP:
    z = float(z)
    if math.isnan(z):
        raise ValueError("z must not be NaN")
    if z < 0.0:
        # P(Z >= z) = 1 - P(Z >= -z); the complement is <= 0.5 so the
        # subtraction costs at most one bit.
        return LogP(math.log1p(-math.exp(ref_norm_upper_tail_ln(-z).ln_p)))
    if z <= _ASYMPTOTIC_Z:
        return LogP(math.log(0.5 * math.erfc(z / math.sqrt(2.0))))
    return LogP(_mills_series_ln(z))


def _reg_gamma_lower_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    n = 0
    while True:
        n += 1
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        if n > 10000:
            raise ArithmeticError("lower gamma series failed to converge")


def _reg_gamma_upper_cf_ln(a: float, x: float) -> float:
    """ln Q(a, x) via the modified Lentz continued fraction.

    Q(a, x) = exp(-x + a ln x - lgamma(a)) * CF; the fraction itself is
    O(1/x) so only the prefactor lives in the log domain.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return -x + a * math.log(x) - math.lgamma(a) + math.log(h)
    raise ArithmeticError("upper gamma continued fraction failed to converge")


def ref_chi_sq_upper_tail_ln(x: float, df: int) -> LogP:
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    a = 0.5 * df
    xg = 0.5 * x
    if xg == 0.0:  # x = 0, or so small that x / 2 underflows
        return P_ONE
    if x < df + 1.0:
        return LogP(math.log1p(-_reg_gamma_lower_series(a, xg)))
    return LogP(min(_reg_gamma_upper_cf_ln(a, xg), 0.0))


# ---------------------------------------------------------------------------
# the one-value tails against the reference
# ---------------------------------------------------------------------------

def bits(v: float) -> int:
    return int(np.float64(v).view(np.int64))


CHI_POINTS = [0.0, -0.0, 5e-324, 1e-300, 0.5, 2.0, 3.0, 7.0, 11.0, 700.0, 3000.0]
NORM_POINTS = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 8.0, -8.0, 8.001, -8.001,
               40.0, -40.0, 100.0, -100.0]


@pytest.mark.parametrize("df", [1, 2, 5, 10])
@pytest.mark.parametrize("x", CHI_POINTS)
def test_chi_square_scalar_bitwise(x, df):
    assert bits(chi_sq_upper_tail_ln(x, df).ln_p) == bits(ref_chi_sq_upper_tail_ln(x, df).ln_p)


@pytest.mark.parametrize("z", NORM_POINTS)
def test_normal_scalar_bitwise(z):
    assert bits(norm_upper_tail_ln(z).ln_p) == bits(ref_norm_upper_tail_ln(z).ln_p)


TAILS = {"norm": (ref_norm_upper_tail_ln, norm_upper_tail_ln),
         "chi": (ref_chi_sq_upper_tail_ln, chi_sq_upper_tail_ln)}


@pytest.mark.parametrize("tail, args", [
    ("norm", (math.nan,)), ("chi", (math.nan, 2)), ("chi", (-1.0, 2)),
    ("chi", (-5e-324, 3)), ("chi", (1.0, 0)), ("chi", (1.0, -1)), ("chi", (1.0, 2.5)),
])
def test_scalar_tails_raise_the_reference_messages(tail, args):
    ref, public = TAILS[tail]
    with pytest.raises(ValueError) as want:
        ref(*args)
    with pytest.raises(ValueError) as got:
        public(*args)
    assert str(got.value) == str(want.value)
