"""The first-order Marcum Q function for non-coherent detection
statistics.

* ``Q1(a, b)`` and its first and second partial derivatives in ``a``,
* log-domain evaluations of ``Q1`` and ``1 - Q1`` that stay finite far out
  in either tail, as one pair for a scalar or an array of ``a``,
* Taylor coefficients of ``I1(y)^2`` about ``y = 0``.

Q1(a, b) is the upper tail at b^2 of a noncentral chi-square variable
with 2 degrees of freedom and noncentrality a^2.  For a weak signal,
lambda = a^2/2 <= 0.25 at a threshold with b^2/2 <= 32, where most
sensors of a Poisson field sit, its linear value is the Poisson mixture
e^-lambda sum_k lambda^k/k! Q(k+1, b^2/2) as one polynomial in lambda,
whose coefficients are cached per threshold.  Elsewhere it comes from
scipy's compiled noncentral chi-square tail ``_ncx2_sf``, the ufunc
behind ``stats.ncx2.sf``.  Both serve scalars and arrays alike, down to
1e-150; smaller values, which the ufunc loses, come from the log tail.
The Bessel functions in the derivatives come from ``scipy.special`` too.

The log-domain tails are computed here, because scipy loses them
(``ncx2.logcdf`` returns -inf at (a, b) = (23, 3), where
log(1 - Q1) = -204.94).  They sum the Neumann series

    Q1(a, b)     = exp(-(a-b)^2/2) * sum_{k>=0} (a/b)^k ive(k, ab),  a < b,
    1 - Q1(a, b) = exp(-(a-b)^2/2) * sum_{k>=1} (b/a)^k ive(k, ab),  a >= b,

over scipy's exponentially scaled Bessel function ``ive``.  The Gaussian
factor stays in log space and the sum has positive terms, so the smaller
side keeps full relative accuracy down to values like exp(-1500), where
ordinary doubles have long given up; the larger side is its complement.
Where the linear value still carries full relative accuracy on a side,
that side is its logarithm instead.  Scalars and arrays share this one
policy, so an array entry gets the scalar values to the bit, bar the
last bit of a linear log (np.log against math.log).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special
from scipy.special._ufuncs import _ncx2_sf

__all__ = [
    "marcum_q",
    "marcum_q_array",
    "log_marcum_q",
    "log1m_marcum_q",
    "log_marcum_q_pair",
    "log_marcum_q_pair_array",
    "marcum_q_da",
    "log_marcum_q_da",
    "marcum_q_daa",
    "i1_squared_taylor_coeff",
]

# Noncentrality a^2/2 above which the log tails no longer take the
# logarithm of the linear value.  Beyond it the ufunc's 1 - Q keeps only
# its absolute accuracy (1.5e-8 relative error at (a, b) = (100, 95)),
# while the Neumann series stays exact.
_SERIES_LAMBDA_MAX = 256.0

# The linear value gives log Q and log(1 - Q) directly only while 1 - Q
# keeps at least this much of its own; closer to 1 the complement has
# lost its relative accuracy and the Neumann series takes over.
_SERIES_COMPLEMENT_MIN = 1e-9

# Smallest ufunc value that marcum_q takes as it is, and whose logarithm
# log_marcum_q takes; below it Q comes from exp(log Q).  Once b^2/2
# passes ~700 the ufunc loses its value from Q ~ 1e-162 down (1.5e-3
# relative error at (30, 60.22), where Q = 1e-200; 0.0 at (30, 62),
# where Q = 7.84e-225).
_UFUNC_MIN = 1e-150

# Half-argument (a^2/2 or b^2/2) beyond which the log tails switch to
# Gaussian tail asymptotics: near a = b the Neumann series runs longest,
# to about 11,000 terms at the cap.  Far outside the accuracy-contracted
# domain -- these values exist so that optimizers probing absurd
# parameters see finite, monotone surfaces.
_ASYMPTOTIC_HALF_ARG = 1e6

# Weak-signal region of the linear value: Q1 comes from its Poisson
# mixture, a polynomial in lambda = a^2/2, where lambda <= _WEAK_LAMBDA_MAX
# and s = b^2/2 <= _WEAK_S_MAX.  Most sensors of a Poisson field sit there,
# near the false-alarm floor.  The polynomial takes 14 terms at s = 1.6 and
# 18 at the cap.  The remainder bound grows with s (45 terms at s = 288,
# where a scalar evaluation costs as much as the ufunc); the cap keeps the
# series short.
_WEAK_LAMBDA_MAX = 0.25
_WEAK_S_MAX = 32.0

# Orders of the Neumann series evaluated per ive call.  One call covers
# the ~25 terms a likelihood edge sensor needs; ive costs ~1.2 us a term,
# and each further pass over the sum costs about as much as a call.
_NEUMANN_BLOCK = 32


def _check_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _check_nonneg_or_inf(name: str, value: float) -> float:
    # Marcum arguments admit +inf as a meaningful limit (certain detection
    # at zero range, certain miss at an infinite threshold); NaN and
    # negatives stay rejected.
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _check_array(a, b: float) -> tuple[np.ndarray, float]:
    a = np.asarray(a, dtype=float)
    if not np.all(a >= 0.0):
        raise ValueError("every entry of a must be >= 0")
    return a, _check_nonneg_or_inf("b", b)


# ----------------------------------------------------------------------
# Marcum Q and derivatives
# ----------------------------------------------------------------------

def marcum_q(a: float, b: float) -> float:
    """First-order Marcum Q function Q1(a, b), the upper tail at b^2 of a
    noncentral chi-square variable with 2 degrees of freedom and
    noncentrality a^2 (all in amplitude convention).

    Bounds: 0 < Q1 <= 1 for b < inf; Q1(a, 0) = 1; Q1(0, b) = exp(-b^2/2).
    """
    a = _check_nonneg_or_inf("a", a)
    return float(marcum_q_array(np.array([a]), b)[0])


def marcum_q_array(a, b: float) -> np.ndarray:
    """Q1(a_i, b) for an array a and a scalar b: the linear value where it
    is at least _UFUNC_MIN, exp(log Q1) below."""
    a, b = _check_array(a, b)
    if b == 0.0:
        return np.ones_like(a)
    q = np.asarray(_marcum_q_linear(a, b), dtype=float)
    low = ~(q >= _UFUNC_MIN)
    if low.any():
        q[low] = np.exp(_log_pair(a[low], b, q[low])[0])
    return q


def _marcum_q_linear(a, b: float):
    """The linear value Q1(a, b) for a scalar b > 0 and a float or an
    array a: the weak-signal polynomial where lambda = a^2/2 <=
    _WEAK_LAMBDA_MAX and s = b^2/2 <= _WEAK_S_MAX, the ufunc elsewhere.

    The polynomial is evaluated with multiplies and adds only (no exp),
    in the same order for a float and for an array entry, so both get the
    same bits.  NaN where the ufunc has no answer (see _marcum_q_ufunc).
    """
    if 0.5 * b * b > _WEAK_S_MAX:
        return _marcum_q_ufunc(a, b)
    coeffs = _weak_signal_coeffs(b)
    lam = 0.5 * a * a
    if isinstance(a, float):
        if lam <= _WEAK_LAMBDA_MAX:
            return _horner(coeffs, lam)
        return _marcum_q_ufunc(a, b)
    weak = lam <= _WEAK_LAMBDA_MAX
    q = _horner(coeffs, np.where(weak, lam, 0.0))
    strong = ~weak
    if strong.any():
        q[strong] = _marcum_q_ufunc(a[strong], b)
    return q


def _horner(coeffs: tuple[float, ...], lam):
    # in place for an array, rebound for a float: the same operations
    q = coeffs[-1] * lam
    q += coeffs[-2]
    for c in coeffs[-3::-1]:
        q *= lam
        q += c
    return q


@functools.lru_cache(maxsize=256)
def _weak_signal_coeffs(b: float) -> tuple[float, ...]:
    """Coefficients d_n of Q1(a, b) = sum_n d_n lambda^n, lambda = a^2/2,
    for 0 < s = b^2/2 <= _WEAK_S_MAX.

    Q1 is the Poisson mixture e^-lambda sum_k lambda^k/k! Q(k+1, s) of
    regularized upper gamma tails; with e^-lambda folded in,

        d_0 = e^-s,   d_n = (-1)^(n-1) s e^-s L_{n-1}^(1)(s) / (n n!),

    with the Laguerre polynomials L_m^(1) from their three-term
    recurrence.  Szego's bound |L_m^(1)(s)| <= (m+1) e^(s/2) gives
    |d_n| <= s e^(-s/2) / n!, so the terms from n = N on, at lambda <=
    _WEAK_LAMBDA_MAX = l, sum to at most s e^(-s/2) l^N/N! / (1 - l/(N+1)).
    The series stops at the first N where that is below 2^-60 e^-s, and
    Q1 >= e^-s, so the truncation error is below 2^-60 relative.
    """
    s = 0.5 * b * b
    lam = _WEAK_LAMBDA_MAX
    # the remainder bound relative to e^-s, at N = 1
    bound = s * math.exp(0.5 * s) * lam / (1.0 - 0.5 * lam)
    scale = math.exp(-s)
    coeffs = [scale]
    scale *= s          # s e^-s / (n n!) at n = 1
    lag_prev, lag = 0.0, 1.0
    n = 1
    while True:     # keep d_0 and d_1 at least, as _horner needs
        coeffs.append(scale * lag if n % 2 else -scale * lag)
        bound *= lam / (n + 1) * (1.0 - lam / (n + 1)) / (1.0 - lam / (n + 2))
        if bound <= 2.0 ** -60:
            return tuple(coeffs)
        lag_prev, lag = lag, ((2 * n - s) * lag - n * lag_prev) / n
        scale *= (n / (n + 1)) / (n + 1)
        n += 1


def _marcum_q_ufunc(a, b: float):
    """Q1(a, b) from scipy's compiled noncentral chi-square tail, for a
    scalar b and a scalar or array a.

    NaN where the ufunc has no answer: a = inf, a^2 beyond ~9.2e18, every
    a once b^2/2 passes _ASYMPTOTIC_HALF_ARG (with both arguments that
    large it returns 0.43 for Q1(1e6, 1e6) = 0.50), and a^2 > 256 once
    b^2 < 2^-24.  Below b^2 = 2^-25 Boost sums its series in time linear
    in a^2 (35 s at a^2 = 1e9) and from a^2 ~ 339 on its tgamma overflows
    and raises for the whole call; there Q1 rounds to 1 and the log tails
    give its complement.  Values below _UFUNC_MIN are not to be trusted
    either.
    """
    if 0.5 * b * b > _ASYMPTOTIC_HALF_ARG:
        b = math.nan
    nc = a * a
    if b * b < 2.0 ** -24:
        nc = np.where(nc > 256.0, math.nan, nc)
    return _ncx2_sf(b * b, 2.0, nc)


def _log_gauss_tail(z: float) -> float:
    """log of the standard normal upper tail, robust for any finite z."""
    if z < 30.0:
        return math.log(0.5 * math.erfc(z / math.sqrt(2.0)))
    # asymptotic expansion; erfc itself underflows near z ~ 38
    u = 1.0 / (z * z)
    return (-0.5 * z * z - math.log(z) - 0.5 * math.log(2.0 * math.pi)
            + math.log1p(-u + 3.0 * u * u))


def _log_marcum_q_asymptotic(a: float, b: float) -> tuple[float, float]:
    """(log Q1, log(1 - Q1)) from the leading Gaussian/Laplace term, for
    arguments so large that the Neumann series is impractical.

    Around the transition b ~ a the noncentral chi-square is effectively
    Gaussian in the amplitude, giving Q1(a, b) ~ Phi_c(b - a) sqrt(b/a);
    the sqrt factor extends the same expression into both far tails, where
    it reproduces the saddle value exp(-(b - a)^2 / 2) with the correct
    algebraic prefactor.  Absolute error in the log is O(1/(a b)) plus an
    O(1) slack deep in the tails -- negligible against |log| >= 1e6 and
    used only far outside the accuracy-contracted domain.
    """
    if math.isinf(a) and math.isinf(b):
        raise ValueError("Q1(inf, inf) is indeterminate")
    if math.isinf(a):
        return 0.0, -math.inf
    if math.isinf(b):
        return -math.inf, 0.0
    z = b - a
    if z >= 0.0:
        lq = min(_log_gauss_tail(z) + 0.5 * math.log(b / max(a, 5e-324)), 0.0)
        return lq, float(_log_complement(lq))
    l1 = min(_log_gauss_tail(-z) + 0.5 * math.log(a / b), 0.0)
    return float(_log_complement(l1)), l1


def log_marcum_q(a: float, b: float) -> float:
    """log Q1(a, b), accurate even when Q1 underflows linear doubles."""
    return log_marcum_q_pair(a, b)[0]


def log1m_marcum_q(a: float, b: float) -> float:
    """log(1 - Q1(a, b)), accurate deep into the left tail."""
    return log_marcum_q_pair(a, b)[1]


def log_marcum_q_pair(a: float, b: float) -> tuple[float, float]:
    """(log Q1(a, b), log(1 - Q1(a, b))), each side accurate even where
    its linear value underflows."""
    a = _check_nonneg_or_inf("a", a)
    b = _check_nonneg_or_inf("b", b)
    if b == 0.0:
        return 0.0, -math.inf
    q = float(_marcum_q_linear(a, b))
    if _linear_logs(a, b, q)[0]:
        # both sides from the linear value, without the array round trip
        return math.log(q), math.log1p(-q)
    log_q, log_1mq = _log_pair(np.array([a]), b, np.array([q]))
    return log_q.item(), log_1mq.item()


def log_marcum_q_pair_array(a, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(log Q1(a_i, b), log(1 - Q1(a_i, b))) for an array a and a scalar
    b.  An entry that log_marcum_q_pair takes from the log tails or the
    asymptotic form gets the same two values here, to the bit."""
    a, b = _check_array(a, b)
    if b == 0.0:
        return np.zeros_like(a), np.full_like(a, -math.inf)
    return _log_pair(a, b, np.asarray(_marcum_q_linear(a, b), dtype=float))


def _linear_logs(a, b: float, q):
    """Masks (bools, for a float a) of where log Q1 and log(1 - Q1) are
    the logarithms of the linear value q = Q1(a, b)."""
    both = ((0.5 * a * a <= _SERIES_LAMBDA_MAX) & (0.5 * b * b <= 700.0)
            & (q <= 1.0 - _SERIES_COMPLEMENT_MIN))
    return both & (q >= _UFUNC_MIN), both


def _log_pair(a: np.ndarray, b: float, q: np.ndarray):
    """(log Q1(a, b), log(1 - Q1(a, b))) for an array a >= 0, a scalar
    b > 0 and q = _marcum_q_linear(a, b).  Each side is the log of q where
    _linear_logs allows it; every other entry takes both sides from one
    _log_tails call, or from the asymptotic form past the half-argument
    cap (a = inf among them), but keeps a log1p(-q) that is allowed."""
    on_q, on_1mq = _linear_logs(a, b, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
        log_1mq = np.log1p(-q)
    rest = ~on_q
    if rest.any():
        with np.errstate(over="ignore"):
            capped = rest & (0.5 * np.maximum(a, b) ** 2 > _ASYMPTOTIC_HALF_ARG)
        series = rest & ~capped
        if series.any():
            lq, l1 = _log_tails(a[series], b)
            log_q[series] = lq
            log_1mq[series] = np.where(on_1mq[series], log_1mq[series], l1)
        for i in np.flatnonzero(capped):
            log_q.flat[i], log_1mq.flat[i] = _log_marcum_q_asymptotic(
                float(a.flat[i]), b)
    return log_q, log_1mq


def _log_tails(a, b: float):
    """(log Q1(a, b), log(1 - Q1(a, b))) for an array a >= 0 and a
    scalar b > 0, both half-arguments within _ASYMPTOTIC_HALF_ARG.

    The smaller side comes from the Neumann series over scipy's scaled
    Bessel function ive,

        Q1(a, b)     = exp(-(a-b)^2/2) sum_{k>=0} (a/b)^k ive(k, ab),  a < b,
        1 - Q1(a, b) = exp(-(a-b)^2/2) sum_{k>=1} (b/a)^k ive(k, ab),  a >= b,

    and the larger side is its complement.  The terms are positive and
    fall monotonically in k, so each entry's sum stops at its first term
    below 1e-17 of the sum.  Terms are evaluated _NEUMANN_BLOCK orders at
    a time and added in order; an entry gets the same value in any array.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    below = a < b
    z = a * b
    r = np.minimum(a, b) / np.maximum(a, b)
    total = np.where(below, special.ive(0, z), 0.0)
    # rounding errors of the additions, each exact since no term exceeds
    # a nonzero sum before it; near a = b the sum runs to ~10^4 terms
    carry = np.zeros_like(total)
    live = np.arange(a.size)
    k = np.arange(1, _NEUMANN_BLOCK + 1)[:, None]
    while live.size:
        terms = r[live] ** k * special.ive(k, z[live])
        sums = np.cumsum(np.vstack([total[live], terms]), axis=0)
        ends = ~(terms > 1e-17 * sums[1:])
        done = ends.any(axis=0)
        last = np.where(done, ends.argmax(axis=0), _NEUMANN_BLOCK - 1)
        cols = np.arange(live.size)
        total[live] = sums[last + 1, cols]
        carry[live] += np.cumsum((sums[:-1] - sums[1:]) + terms, axis=0)[last, cols]
        live = live[~done]
        k = k + _NEUMANN_BLOCK
    with np.errstate(divide="ignore"):
        small = np.minimum(np.log(total + carry) - 0.5 * (a - b) ** 2, 0.0)
    big = _log_complement(small)
    return np.where(below, small, big), np.where(below, big, small)


def _log_complement(lx):
    """log(1 - exp(lx)) element-wise, for lx <= 0."""
    lx = np.asarray(lx, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(lx > -math.log(2.0), np.log(-np.expm1(lx)),
                        np.log1p(-np.exp(lx)))


def log_marcum_q_da(a: float, b: float) -> float:
    """log dQ1/da = log(b * i1e(a b)) - (a - b)^2 / 2, finite for any
    argument size; -inf where the slope vanishes (a = 0 or b = 0)."""
    a = _check_nonneg("a", a)
    b = _check_nonneg("b", b)
    g = b * special.i1e(a * b)
    if g <= 0.0:
        return -math.inf
    return math.log(g) - 0.5 * (a - b) ** 2


def marcum_q_da(a: float, b: float) -> float:
    """dQ1/da = b * I1(a b) * exp(-(a^2 + b^2)/2)."""
    return math.exp(log_marcum_q_da(a, b))


def _marcum_q_daa_scaled(a: float, b: float) -> float:
    """d^2 Q1/da^2 * exp((a - b)^2 / 2) = b^2/2 (i0e + i2e)(ab) - ab i1e(ab):
    O(1) numbers, with the Gaussian factor left to the caller."""
    z = a * b
    return float(0.5 * b * b * (special.i0e(z) + special.ive(2, z))
                 - z * special.i1e(z))


def marcum_q_daa(a: float, b: float) -> float:
    """d^2 Q1/da^2 = [b^2/2 (I0 + I2)(ab) - a b I1(ab)] exp(-(a^2+b^2)/2)."""
    a = _check_nonneg("a", a)
    b = _check_nonneg("b", b)
    if b == 0.0:
        return 0.0
    return _marcum_q_daa_scaled(a, b) * math.exp(-0.5 * (a - b) ** 2)


# ----------------------------------------------------------------------
# I1(y)^2 Taylor coefficients
# ----------------------------------------------------------------------

_I1SQ_COEFF_K_MAX = 64


def i1_squared_taylor_coeff(k: int) -> float:
    """Coefficient of y^(2k+2) in the Maclaurin series of I1(y)^2:

        I1(y)^2 = sum_{k>=0} C(2k+2, k) * [y/2]^(2k+2) / ((k+1)!)^2 ... i.e.

        coeff_k = binom(2k+2, k) / (2^(k+1) * (k+1)!)^2.

    Exact integer arithmetic, converted to float at the end.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    if k > _I1SQ_COEFF_K_MAX:
        raise OverflowError(
            f"coefficient index {k} exceeds supported range (<= {_I1SQ_COEFF_K_MAX})"
        )
    num = math.comb(2 * k + 2, k)
    den = (2 ** (k + 1) * math.factorial(k + 1)) ** 2
    return num / den
