"""The first-order Marcum Q function for non-coherent detection
statistics.

* ``Q1(a, b)`` and its first and second partial derivatives in ``a``,
* log-domain evaluations of ``Q1`` and ``1 - Q1`` that stay finite far out
  in either tail, as one pair for a scalar or an array of ``a``, or as
  one side per entry (``_log_sides``, the likelihood's terms).

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
that side is its logarithm instead.  Where the series would run past
about 12,500 terms, which takes a b beyond 2e6 and a/b within 0.32% of 1,
or where a b is beyond 1e9, both sides come from a Gaussian tail
asymptote over scipy's ``log_ndtr``.
Scalars and arrays share this one policy, so an array entry gets the
scalar values to the bit, bar the last bit of a linear log (np.log
against math.log).  This module alone decides which branch answers an
entry, the one-sided likelihood terms included.
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
    "log_marcum_q_pair",
    "log_marcum_q_pair_array",
    "marcum_q_da",
    "log_marcum_q_da",
    "marcum_q_daa",
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
# log_marcum_q_pair takes; below it Q comes from exp(log Q).  Once b^2/2
# passes ~700 the ufunc loses its value from Q ~ 1e-162 down (1.5e-3
# relative error at (30, 60.22), where Q = 1e-200; 0.0 at (30, 62),
# where Q = 7.84e-225).
_UFUNC_MIN = 1e-150

# Half-argument beyond which scipy's ufunc is not asked for Q1 (see
# _marcum_q_ufunc), and the half-argument a b / 2 at which the log tails
# switch to Gaussian tail asymptotics on a = b.  Far outside the
# accuracy-contracted domain, they keep optimizers' surfaces finite; on
# a < b the switch steps against the grain (4.0e-4 relative at b = 1415).
_ASYMPTOTIC_HALF_ARG = 1e6

# The Neumann series' k-th term falls as (min/max)^k e^(-k^2 / (2 a b))
# relative to its first, so it runs to about the n where that reaches
# 1e-17.  Where that estimate exceeds its value on a = b at the cap above
# (12,513; the sums stop near 11,000 there) the log tails take the
# asymptotic form: only for a b large and a/b near 1.  So do entries
# whose a b is beyond _IVE_Z_MAX, where scipy's ive returns NaN (from
# 2^30 on).
_NEUMANN_LOG_TOL = math.log(1e17)
_NEUMANN_MAX_TERMS = math.sqrt(4.0 * _NEUMANN_LOG_TOL * _ASYMPTOTIC_HALF_ARG)
_IVE_Z_MAX = 1e9

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
    # a float stays off numpy's per-call costs: on a 2-core box, sending it
    # through a one-entry array slowed scalar log_marcum_q_pair from 2.2 to
    # 8.2 us (1.5 to 30.8 us for a weak a) and the crb sweep 0.051 to 0.057 s
    if isinstance(a, float):
        lam = 0.5 * a * a
        if lam <= _WEAK_LAMBDA_MAX:
            return _horner(coeffs, lam)
        return _marcum_q_ufunc(a, b)
    weak = _below_half_square(a, _WEAK_LAMBDA_MAX)
    n_weak = np.count_nonzero(weak)
    if n_weak == weak.size:     # the masked path's bits, without the mask
        return _horner(coeffs, 0.5 * a * a)
    if not n_weak:
        return _marcum_q_ufunc(a, b)
    a_weak = np.where(weak, a, 0.0)
    q = _horner(coeffs, 0.5 * a_weak * a_weak)
    strong = ~weak
    q[strong] = _marcum_q_ufunc(a[strong], b)
    return q


def _below_half_square(a, lam_max: float):
    """a^2/2 <= lam_max, decided for every double a as the product would
    decide it (for lam_max = 0.25 and 256), without overflowing it."""
    return a < math.sqrt(2.0 * lam_max)


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
    # an array's a^2 would overflow, with a warning, beyond ~1.3e154
    nc = a * a if isinstance(a, float) else np.minimum(a, 1e154) ** 2
    if b * b < 2.0 ** -24:
        nc = np.where(nc > 256.0, math.nan, nc)
    return _ncx2_sf(b * b, 2.0, nc)


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
    on_1mq = _linear_log_complement(a, b, q)
    return on_1mq & (q >= _UFUNC_MIN), on_1mq


def _linear_log_complement(a, b: float, q):
    """The second of _linear_logs' masks: where log(1 - Q1) is
    log1p(-q)."""
    return (_below_half_square(a, _SERIES_LAMBDA_MAX) & (0.5 * b * b <= 700.0)
            & (q <= 1.0 - _SERIES_COMPLEMENT_MIN))


def _log_pair(a: np.ndarray, b: float, q: np.ndarray):
    """(log Q1(a, b), log(1 - Q1(a, b))) for an array a >= 0, a scalar
    b > 0 and q = _marcum_q_linear(a, b).  Each side is the log of q where
    _linear_logs allows it; every other entry takes both sides from one
    _log_tails call, or from the asymptotic form where the Neumann series
    would be long or an argument is inf, but keeps a log1p(-q) that is
    allowed."""
    on_q, on_1mq = _linear_logs(a, b, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
        log_1mq = np.log1p(-q)
    rest = np.flatnonzero(~on_q)
    if rest.size:
        capped = _takes_asymptotic(a[rest], b)
        series, capped = rest[~capped], rest[capped]
        if series.size:
            lq, l1 = _log_tails(a[series], b)
            log_q[series] = lq
            log_1mq[series] = np.where(on_1mq[series], log_1mq[series], l1)
        if capped.size:
            log_q[capped], log_1mq[capped] = _log_asymptotic(a[capped], b)
    return log_q, log_1mq


def _takes_asymptotic(a: np.ndarray, b: float) -> np.ndarray:
    """Where the log tails at (a_i, b) come from _log_asymptotic: where
    a b is not at most _IVE_Z_MAX (a = inf and b = inf among them), or
    where the Neumann series would run past _NEUMANN_MAX_TERMS terms,
    its estimated length being the n with n ln(max/min) + n^2 / (2 a b)
    = ln(1e17)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = a * b
        spread = np.abs(np.log(a) - math.log(b))
        length = 2.0 * _NEUMANN_LOG_TOL / (
            spread + np.sqrt(spread * spread + 2.0 * _NEUMANN_LOG_TOL / z))
    return ~(z <= _IVE_Z_MAX) | (length > _NEUMANN_MAX_TERMS)


def _log_sides(a: np.ndarray, b: float, upper: np.ndarray,
               ceiling: float = -math.inf) -> np.ndarray:
    """log Q1(a, b) where upper, log(1 - Q1(a, b)) elsewhere, for an array
    a >= 0, a scalar b and a bool array upper of a's shape; nothing is
    validated.

    Each entry computes only its own side.  An upper entry takes the log
    of the linear value wherever that is at least _UFUNC_MIN: where
    1 - Q1 < 1e-9, log Q1 lies in (-1e-9, 0] and log q is within about
    1e-16 of it, far below the last place of a likelihood sum.  A lower
    entry takes log1p(-q) wherever _linear_logs allows it.  Every other
    entry comes from _log_pair.  Given a ceiling above -inf, those entries
    first take an upper bound on their side instead: 0 for an upper
    entry, and the Rayleigh bound 1 - Q1(a, b) = Pr[|a + n| <= b] <=
    Pr[|n| >= a - b] = e^(-(a-b)^2/2) for a lower one with a > b (0 with
    a <= b).  Where the array's sum is then below the ceiling the bounds
    are returned: rounding is monotone, so that sum is at least the exact
    array's, summed in the same order.  Else the bounded entries are
    completed from _log_pair, to the bits of a pass without a ceiling.
    A ceiling of inf never sums a log tail.
    """
    if b == 0.0:
        return np.where(upper, 0.0, -math.inf)
    q = np.asarray(_marcum_q_linear(a, b), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        sides = np.where(upper, np.log(q), np.log1p(-q))
    rest = ~np.where(upper, q >= _UFUNC_MIN, _linear_log_complement(a, b, q))
    if rest.any():
        a_rest, up_rest = a[rest], upper[rest]
        if ceiling > -math.inf:
            # a - b overflows its square only for a near inf
            with np.errstate(over="ignore"):
                sides[rest] = np.where(
                    up_rest, 0.0, -0.5 * np.maximum(a_rest - b, 0.0) ** 2)
            if sides.sum() < ceiling:
                return sides
        log_q, log_1mq = _log_pair(a_rest, b, q[rest])
        sides[rest] = np.where(up_rest, log_q, log_1mq)
    return sides


def _log_asymptotic(a: np.ndarray, b: float):
    """(log Q1(a, b), log(1 - Q1(a, b))) from the leading Gaussian/Laplace
    term, for an array a >= 0 and a scalar b > 0 where the Neumann series
    is impractical (_takes_asymptotic).

    Around the transition b ~ a the noncentral chi-square is effectively
    Gaussian in the amplitude, giving Q1(a, b) ~ Phi_c(b - a) sqrt(b/a)
    and 1 - Q1(a, b) ~ Phi_c(a - b) sqrt(b/a).  Where a b is so large that
    every ive(k, ab) the sum needs is 1/sqrt(2 pi a b), the Neumann series
    sums to the same leading term on either side.  The smaller side (Q1
    for a <= b, 1 - Q1 above) is log Phi_c(|b - a|) + log sqrt(b/a), with
    the Gaussian tail from scipy's log_ndtr, capped at the bound
    -(a-b)^2/2 that either smaller side obeys (log_ndtr can round an ulp
    above it); the larger side is its complement.  Where b/a overflows
    (b = inf among them) Q1 is exp(-b^2/2) to the last bit, not the sqrt
    factor's 1.  Against a 40-digit quadrature of the Rice density the log
    is within 3e-4 near a = b on the switch from the series (a = 1415,
    b = a +- 0.003), and within 1.4e-4 at (2000, 2001), (2001, 2000),
    (3000, 3006) and (3006, 3000).
    """
    if math.isinf(b) and np.isinf(a).any():
        raise ValueError("Q1(inf, inf) is indeterminate")
    certain = np.isinf(a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        small = np.minimum(special.log_ndtr(-np.abs(b - a))
                           + 0.5 * np.log(b / a), -0.5 * (a - b) ** 2)
        small = np.where(b / a == math.inf, -0.5 * b * b,
                         np.where(certain, -math.inf, small))
    big = np.where(certain, 0.0, _log_complement(small))
    below = a <= b
    return np.where(below, small, big), np.where(below, big, small)


def _log_tails(a, b: float):
    """(log Q1(a, b), log(1 - Q1(a, b))) for an array a >= 0 and a
    scalar b > 0 with a b at most _IVE_Z_MAX.

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
    with np.errstate(divide="ignore", over="ignore"):
        log_sum = np.log(total + carry)
        # a 1 - Q1 sum below the normal doubles is its first term to the
        # last bit, (b/a) ive(1, ab); its log is taken from the logs of
        # the factors, and ive(1, ab) = ab/2 where ab < 1e-300
        lost = ~below & (total < np.finfo(float).tiny)
        if lost.any():
            log_sum[lost] = math.log(b) + np.where(
                z[lost] < 1e-300, math.log(b) - math.log(2.0),
                np.log(special.ive(1, z[lost])) - np.log(a[lost]))
        small = np.minimum(log_sum - 0.5 * (a - b) ** 2, 0.0)
    big = _log_complement(small)
    return np.where(below, small, big), np.where(below, big, small)


def _log_complement(lx):
    """log(1 - exp(lx)) element-wise, for lx <= 0."""
    lx = np.asarray(lx, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(lx > -math.log(2.0), np.log(-np.expm1(lx)),
                        np.log1p(-np.exp(lx)))


def log_marcum_q_da(a: float, b: float) -> float:
    """log dQ1/da = log(b * i1e(a b)) - (a - b)^2 / 2 at any argument size;
    -inf where the slope is 0 (a = 0 or b = 0) or its log below the doubles."""
    return float(_log_marcum_q_da(_check_nonneg("a", a),
                                  _check_nonneg("b", b)))


def _log_marcum_q_da(a, b):
    """log_marcum_q_da for floats or arrays a, b >= 0, unchecked; the
    closed form's Taylor model and the quadrature's kernel both read it."""
    # d * d: for a float, d ** 2 is libm's pow, which can differ from an
    # array's square (d * d) in the last bit
    d = a - b
    with np.errstate(divide="ignore"):
        return np.log(b * special.i1e(a * b)) - 0.5 * (d * d)


def marcum_q_da(a: float, b: float) -> float:
    """dQ1/da = b * I1(a b) * exp(-(a^2 + b^2)/2)."""
    return math.exp(log_marcum_q_da(a, b))


def _marcum_q_daa_scaled(a: float, b: float) -> float:
    """d^2 Q1/da^2 * exp((a - b)^2 / 2) = b^2/2 (i0e + i2e)(ab) - ab i1e(ab):
    O(1) numbers, with the Gaussian factor left to the caller."""
    z = a * b
    i0, i1, i2 = special.i0e(z), special.i1e(z), special.ive(2, z)
    if math.isnan(i2):      # scipy's ive(2, z) is NaN from z = 2^30 on
        i2 = i0 - 2.0 * i1 / z
    return float(0.5 * b * b * (i0 + i2) - z * i1)


def marcum_q_daa(a: float, b: float) -> float:
    """d^2 Q1/da^2 = [b^2/2 (I0 + I2)(ab) - a b I1(ab)] exp(-(a^2+b^2)/2).

    Near a = b the bracket's terms, each about sqrt(z / 2 pi) at z = ab,
    cancel to about 1/(2 sqrt(2 pi z)), so the relative error grows as z:
    against 50-digit mpmath it is 5.5e-13 at a = b = 50, 6.6e-11 at
    a = b = 500, 1.15e-7 at a = b = 32767.9 and 1.7e-7 at a = b = 1e5."""
    a = _check_nonneg("a", a)
    b = _check_nonneg("b", b)
    if b == 0.0:
        return 0.0
    d = a - b
    return _marcum_q_daa_scaled(a, b) * math.exp(-0.5 * (d * d))
