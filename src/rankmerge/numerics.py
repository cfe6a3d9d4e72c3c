"""Log-domain tail probabilities and related special functions.

Rank tests over tens of thousands of features routinely produce p-values
far below the smallest positive double (~1e-308).  Every probability in
this package is therefore carried as a natural logarithm wrapped in
:class:`LogP`; conversion to a linear value happens only at display time.

The four functions here are self-contained (only ``math``/``numpy``),
with accuracy documented per function:

* :func:`inv_norm_cdf` -- Wichura's AS241 rational approximation
  (the "PPND16" variant), relative accuracy about 1e-15 in the result,
  i.e. ``|Phi(result) - p|`` well below 1e-12.
* :func:`norm_upper_tail_ln` -- ``log(erfc)`` in the body, asymptotic
  Mills-ratio series in the far tail; relative error of the returned
  log is below 1e-12 over z in [-8, 40].
* :func:`chi_sq_upper_tail_ln` -- regularized upper incomplete gamma,
  lower series for small x and a Lentz continued fraction otherwise,
  evaluated in the log domain so the result stays finite for arguments
  whose linear tail underflows.
* :func:`log_choose` -- log binomial coefficient via ``lgamma``.

Each tail has one implementation, an array form:
:func:`norm_upper_tail_ln_array` and :func:`chi_sq_upper_tail_ln_array`.
The chi-square form runs the gamma series and the continued fraction on
every element in lockstep; the normal form maps the Mills-ratio series
over its few elements beyond |z| = 8.  The scalar forms are the one-value
API, a one-element call of the array form.  The per-value code that the
array forms replaced is kept in ``tests/test_tail_reference.py``, and
the array forms must return its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Smallest positive normal double used as the display clamp: linear
# p-values below this are printed as "<1e-308".
LINEAR_P_FLOOR = 1e-308
_LN_P_FLOOR = math.log(LINEAR_P_FLOOR)

# Slack for rounding noise when a log probability is computed as a sum
# of terms that should be exactly zero.
_LN_ONE_SLACK = 1e-9


@dataclass(frozen=True, order=True)
class LogP:
    """A probability stored as its natural logarithm (``ln_p <= 0``).

    Exact zero probabilities are rejected: anything this package
    computes is a finite tail mass, and keeping the log finite is the
    whole point of the representation.
    """

    ln_p: float

    def __post_init__(self):
        object.__setattr__(self, "ln_p", checked_ln_p(float(self.ln_p)).item())

    @classmethod
    def from_p(cls, p: float) -> "LogP":
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p!r}")
        return cls(math.log(p))

    @property
    def p(self) -> float:
        """Linear probability; underflows to 0.0 below about exp(-745)."""
        return math.exp(self.ln_p)

    @property
    def log10(self) -> float:
        return self.ln_p / math.log(10.0)

    @property
    def is_underflow(self) -> bool:
        """True when the linear value would print below the 1e-308 floor."""
        return self.ln_p < _LN_P_FLOOR


def checked_ln_p(ln_p) -> np.ndarray:
    """An array of log probabilities, checked: NaN, -inf and values
    above the rounding slack raise; values in (0, slack] become 0.0.
    :class:`LogP` holds one value under the same rules."""
    lp = np.asarray(ln_p, dtype=float)
    bad = np.isnan(lp) | (lp == -math.inf)
    if bad.any():
        raise ValueError(f"log probability must be finite, got {lp[bad][0].item()!r}")
    if (lp > _LN_ONE_SLACK).any():
        raise ValueError(f"log probability must be <= 0, "
                         f"got {lp[lp > _LN_ONE_SLACK][0].item()!r}")
    return np.where(lp > 0.0, 0.0, lp)


P_ONE = LogP(0.0)


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` applied to every element, with the rounding
    of the per-value reference (numpy's own transcendentals may differ
    by an ulp)."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


# ---------------------------------------------------------------------------
# Inverse standard normal CDF (AS241, PPND16)
# ---------------------------------------------------------------------------

# Coefficients from Wichura (1988), algorithm AS241, double precision
# variant.  Split points 0.425 / 5.0 on |q| and sqrt(-log(min(p, 1-p))).
_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
      1.9715909503065514427e3, 1.3731693765509461125e4,
      4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4,
      3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
      5.76949722146069140550e0, 3.64784832476320460504e0,
      1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
      1.78482653991729133580e0, 2.96560571828504891230e-1,
      2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coefs, r: np.ndarray) -> np.ndarray:
    acc = np.full_like(r, coefs[-1], dtype=float)
    for c in coefs[-2::-1]:
        acc = acc * r + c
    return acc


def inv_norm_cdf(p):
    """Quantile of the standard normal distribution.

    Accepts a float or an ndarray; every element must lie strictly in
    (0, 1).  Vectorized so rank-score transforms can convert whole
    columns at once.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise ValueError("p must lie strictly in (0, 1)")

    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _poly(_A, r) / _poly(_B, r)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, arr[tail], 1.0 - arr[tail])
        r = np.sqrt(-np.log(r))
        val = np.empty_like(r)
        near = r <= 5.0
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = _poly(_C, rn) / _poly(_D, rn)
        far = ~near
        if np.any(far):
            rf = r[far] - 5.0
            val[far] = _poly(_E, rf) / _poly(_F, rf)
        out[tail] = np.where(qt < 0.0, -val, val)

    if np.ndim(p) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Gaussian upper tail, log domain
# ---------------------------------------------------------------------------

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ASYMPTOTIC_Z = 8.0


def _mills_series_ln(z: float) -> float:
    """ln P(Z >= z) for large z via the asymptotic Mills-ratio series.

    P(Z >= z) = phi(z)/z * (1 - 1/z^2 + 3/z^4 - 15/z^6 + ...).
    Terms shrink until k ~ z^2/2, so for z >= 8 the truncation error is
    below ~2e-14 relative.  Summation stops at the smallest term.
    """
    inv_zz = 1.0 / (z * z)
    total = 1.0
    term = 1.0
    for k in range(1, 64):
        nxt = -term * (2 * k - 1) * inv_zz
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return -0.5 * z * z - math.log(z) - _LN_SQRT_2PI + math.log(total)


def norm_upper_tail_ln(z: float) -> LogP:
    """ln P(Z >= z) for a standard normal Z, finite for any float z.

    Body (|z| <= 8) uses ``log(0.5 * erfc(z / sqrt 2))``; beyond that
    the asymptotic series takes over, keeping the log exact to ~1e-12
    relative out past z = 40 (where the linear tail is ~1e-350).
    """
    return LogP(norm_upper_tail_ln_array([float(z)])[0].item())


def norm_upper_tail_ln_array(z) -> np.ndarray:
    """:func:`norm_upper_tail_ln` of every element of a 1-d array.  A
    negative z takes the complement of the tail at -z, which is <= 0.5,
    so the subtraction costs at most one bit."""
    z = np.asarray(z, dtype=float)
    if np.isnan(z).any():
        raise ValueError("z must not be NaN")
    neg = z < 0.0
    w = np.where(neg, -z, z)
    out = np.empty_like(w)
    body = w <= _ASYMPTOTIC_Z
    out[body] = _each(math.log, 0.5 * _each(math.erfc, w[body] / math.sqrt(2.0)))
    out[~body] = _each(_mills_series_ln, w[~body])
    out = checked_ln_p(out)  # the tail at |z| as a LogP
    out[neg] = _each(math.log1p, -_each(math.exp, out[neg]))
    return checked_ln_p(out)


# ---------------------------------------------------------------------------
# Chi-square upper tail, log domain
# ---------------------------------------------------------------------------

def chi_sq_upper_tail_ln(x: float, df: int) -> LogP:
    """ln P(X >= x) for X chi-square with ``df`` degrees of freedom.

    The series/continued-fraction split sits at x = df + 1, keeping the
    subtraction in the series branch away from cancellation.  Stays
    accurate (relative error of the log below ~1e-12) for x up to a few
    thousand, where the linear tail is around 1e-650.
    """
    return LogP(chi_sq_upper_tail_ln_array([float(x)], df)[0].item())


def _reg_gamma_lower_series_array(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) of every element by its
    power series, run in lockstep: each element leaves it at its own
    stopping term."""
    out = np.empty_like(x)
    idx = np.arange(x.size)
    xs = x
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    n = 0
    while idx.size:
        n += 1
        term = term * (xs / (a + n))
        total = total + term
        done = np.abs(term) < np.abs(total) * 1e-17
        out[idx[done]] = total[done]
        idx, xs, term, total = (v[~done] for v in (idx, xs, term, total))
        if n > 10000 and idx.size:
            raise ArithmeticError("lower gamma series failed to converge")
    return out * _each(math.exp, -x + a * _each(math.log, x) - math.lgamma(a))


def _reg_gamma_upper_cf_ln_array(a: float, x: np.ndarray) -> np.ndarray:
    """ln Q(a, x) of every element via the modified Lentz continued
    fraction, its steps run in lockstep until each element's own delta
    converges.

    Q(a, x) = exp(-x + a ln x - lgamma(a)) * CF; the fraction itself is
    O(1/x) so only the prefactor lives in the log domain.
    """
    tiny = 1e-300
    out = np.empty_like(x)
    idx = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        if not idx.size:
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        out[idx[done]] = h[done]
        idx, b, c, d, h = (v[~done] for v in (idx, b, c, d, h))
    if idx.size:
        raise ArithmeticError("upper gamma continued fraction failed to converge")
    return -x + a * _each(math.log, x) - math.lgamma(a) + _each(math.log, out)


def chi_sq_upper_tail_ln_array(x, df: int) -> np.ndarray:
    """:func:`chi_sq_upper_tail_ln` of every element of a 1-d array.  An
    x whose half underflows to 0 has ln p = 0."""
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    x = np.asarray(x, dtype=float)
    bad = np.isnan(x) | (x < 0.0)
    if bad.any():
        raise ValueError(f"x must be >= 0, got {x[bad][0].item()!r}")
    a = 0.5 * df
    xg = 0.5 * x
    out = np.zeros_like(x)
    lower = (xg != 0.0) & (x < df + 1.0)
    upper = x >= df + 1.0
    out[lower] = _each(math.log1p, -_reg_gamma_lower_series_array(a, xg[lower]))
    cf = _reg_gamma_upper_cf_ln_array(a, xg[upper])
    out[upper] = np.where(cf > 0.0, 0.0, cf)  # min(cf, 0.0), keeping a NaN
    return checked_ln_p(out)


# ---------------------------------------------------------------------------
# Log binomial coefficient
# ---------------------------------------------------------------------------

def log_choose(n: int, k: int) -> float:
    """ln C(n, k); symmetric in k <-> n - k by construction.

    For small min(k, n-k) the falling-factorial sum is used instead of
    lgamma differences: with n around 1e7 the two lgamma values are
    ~1.5e8, so their difference keeps only ~1e-8 absolute accuracy,
    which is too coarse relative to a small result like ln(n).
    """
    if not isinstance(n, (int, np.integer)) or not isinstance(k, (int, np.integer)):
        raise ValueError("n and k must be integers")
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    k = min(int(k), int(n) - int(k))
    if k == 0:
        return 0.0
    if k <= 100:
        return math.fsum(math.log(n - i) for i in range(k)) - math.lgamma(k + 1)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
