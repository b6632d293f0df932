"""The first-order Marcum Q function for non-coherent detection
statistics.

* ``Q1(a, b)`` and its first and second partial derivatives in ``a``,
* log-domain evaluations of ``Q1`` and ``1 - Q1`` that stay finite far out
  in either tail,
* Taylor coefficients of ``I1(y)^2`` about ``y = 0``.

The Bessel functions in the derivatives come from ``scipy.special``.  Q1
itself is computed here because scipy's noncentral chi-square loses the
log-domain tails (``ncx2.logcdf`` returns -inf at (a, b) = (23, 3), where
log(1 - Q1) = -204.94).

Q1 is evaluated by the canonical Poisson-mixture series

    Q1(a, b) = exp(-a^2/2) * sum_k (a^2/2)^k / k!
                          * [exp(-b^2/2) * sum_{j<=k} (b^2/2)^j / j!]

i.e. a Poisson(a^2/2) mixture of upper gamma tails, truncated when the
remaining Poisson mass can no longer move the sum.  For very noncentral
arguments (a^2/2 beyond ``_SERIES_LAMBDA_MAX``) the same mixture is summed
in log space over a windowed range of k, which keeps both tails accurate
down to values like exp(-1500) where ordinary doubles have long given up.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "marcum_q",
    "log_marcum_q",
    "log1m_marcum_q",
    "marcum_q_da",
    "log_marcum_q_da",
    "marcum_q_daa",
    "i1_squared_taylor_coeff",
]

# Noncentrality a^2/2 above which the linear-space mixture series is
# abandoned in favour of the windowed log-space sum.  At 256 the series
# needs ~450 terms to push the unaccounted Poisson mass below 1e-16, which
# still fits the term budget.
_SERIES_LAMBDA_MAX = 256.0

# Truncation of the linear-space series: stop once both the unaccounted
# Poisson mass and the last term fall below this floor, after at least
# this many terms.
_SERIES_FLOOR = 1e-16
_SERIES_MIN_BUDGET = 500

# The linear series gives log Q (log(1 - Q)) directly only while 1 - Q
# (Q) keeps at least this much of its own; closer to 1 the complement has
# lost its relative accuracy and the log-space sums take over.
_SERIES_COMPLEMENT_MIN = 1e-9

# Floor used when converting a log-domain result back to linear space.
_LOG_TINY = -745.0

# Half-argument (a^2/2 or b^2/2) beyond which the windowed mixture sums
# would need ~sqrt(argument) terms; switch to Gaussian tail asymptotics.
# Far outside the accuracy-contracted domain -- these values exist so that
# optimizers probing absurd parameters see finite, monotone surfaces.
_ASYMPTOTIC_HALF_ARG = 1e6


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
    b = _check_nonneg_or_inf("b", b)
    if b == 0.0:
        return 1.0
    if math.isinf(a) or math.isinf(b):
        return math.exp(_log_marcum_q_asymptotic(a, b)[0])
    lam = 0.5 * a * a
    if lam > _SERIES_LAMBDA_MAX:
        # deep noncentral regime: assemble from the log-domain tails
        if 0.5 * b * b <= lam + 1.0:
            return -math.expm1(log1m_marcum_q(a, b))
        return math.exp(log_marcum_q(a, b))
    return _marcum_series(lam, 0.5 * b * b)


def _marcum_series(lam: float, y: float) -> float:
    # Poisson(lam) mixture of regularized upper gamma tails Q(k+1, y),
    # with Q(k+1, y) = exp(-y) sum_{j<=k} y^j / j! built incrementally.
    floor = _SERIES_FLOOR
    if lam == 0.0:
        return math.exp(-y)
    pois = math.exp(-lam)          # Poisson pmf at k
    cum = pois                     # Poisson cdf through k
    gterm = math.exp(-y)           # exp(-y) y^k / k!
    gupper = gterm                 # Q(k+1, y)
    q = pois * gupper
    # terms can grow until k ~ max(lam, sqrt(lam*y)); never stop before
    k_min = int(max(lam, math.sqrt(lam * y))) + 2
    budget = max(_SERIES_MIN_BUDGET, k_min + 64)
    for k in range(1, budget + 1):
        pois *= lam / k
        cum += pois
        gterm *= y / k
        gupper += gterm
        term = pois * gupper
        q += term
        if k >= k_min and (1.0 - cum) <= floor and term <= floor * max(q, 1e-300):
            break
    return min(q, 1.0)


def _log_add(x: float, y: float) -> float:
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    hi, lo = (x, y) if x >= y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def _log_pg_small(k: float, y: float) -> float:
    """log of the regularized lower gamma P(k+1, y) via its ascending
    series, efficient when y is comfortably below k."""
    # P(k+1, y) = y^(k+1) e^(-y) / Gamma(k+2) * sum_{n>=0} prod_j y/(k+1+j)
    s = 1.0
    term = 1.0
    n = 1
    while n < 4000:
        term *= y / (k + 1.0 + n)
        s += term
        if term <= 1e-17 * s:
            break
        n += 1
    return (k + 1.0) * math.log(y) - y - math.lgamma(k + 2.0) + math.log(s)


def _log_qg_partial_sum(k_max: int, y: float):
    """Yield log Q(k+1, y) = -y + log sum_{j<=k} y^j/j! for k = 0..k_max."""
    log_y = math.log(y) if y > 0.0 else -math.inf
    log_sum = 0.0  # j = 0 term: log(1)
    log_term = 0.0
    for k in range(0, k_max + 1):
        if k > 0:
            log_term += log_y - math.log(k)
            log_sum = _log_add(log_sum, log_term)
        yield -y + log_sum


def _poisson_window(lam: float) -> tuple[int, int]:
    if lam == 0.0:
        return 0, 0
    half = 10.0 * math.sqrt(lam) + 50.0
    lo = max(0, int(lam - half))
    hi = int(lam + half) + 1
    return lo, hi


def _log_gauss_tail(z: float) -> float:
    """log of the standard normal upper tail, robust for any finite z."""
    if z < 30.0:
        return math.log(0.5 * math.erfc(z / math.sqrt(2.0)))
    # asymptotic expansion; erfc itself underflows near z ~ 38
    return (-0.5 * z * z - math.log(z) - 0.5 * math.log(2.0 * math.pi)
            + math.log1p(-1.0 / (z * z) + 3.0 / (z ** 4)))


def _log_complement(lx: float) -> float:
    """log(1 - exp(lx)) for lx <= 0."""
    if lx == -math.inf:
        return 0.0
    if lx >= 0.0:
        return -math.inf
    if lx > -math.log(2.0):
        return math.log(-math.expm1(lx))
    return math.log1p(-math.exp(lx))


def _log_marcum_q_asymptotic(a: float, b: float) -> tuple[float, float]:
    """(log Q1, log(1 - Q1)) from the leading Gaussian/Laplace term, for
    arguments so large that the mixture sums are impractical.

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
        return lq, _log_complement(lq)
    l1 = min(_log_gauss_tail(-z) + 0.5 * math.log(a / b), 0.0)
    return _log_complement(l1), l1


def log_marcum_q(a: float, b: float) -> float:
    """log Q1(a, b), accurate even when Q1 underflows linear doubles."""
    a = _check_nonneg_or_inf("a", a)
    b = _check_nonneg_or_inf("b", b)
    if b == 0.0:
        return 0.0
    lam = 0.5 * a * a
    y = 0.5 * b * b
    if lam > _ASYMPTOTIC_HALF_ARG or y > _ASYMPTOTIC_HALF_ARG:
        return _log_marcum_q_asymptotic(a, b)[0]
    if lam <= _SERIES_LAMBDA_MAX and y <= 700.0:
        # cheap path: the linear-space series keeps full relative accuracy
        # (all terms positive) whenever its value is representable; once q
        # has (nearly) rounded to 1, log Q ~ -(1 - Q) needs the complement
        q = _marcum_series(lam, y)
        if 1e-280 <= q <= 1.0 - _SERIES_COMPLEMENT_MIN:
            return math.log(q)
    if y >= lam + 1.0:
        # Q is the small side; sum the mixture directly in log space.  The
        # summand Pois(k; lam) * Q(k+1, y) peaks near k ~ sqrt(lam*y) (the
        # gamma tail is dominated by its last term while k < y), so the
        # window must reach past that saddle, not just the Poisson bulk.
        lo, _ = _poisson_window(lam)
        k_peak = max(lam, math.sqrt(lam * y))
        hi = int(k_peak + 10.0 * math.sqrt(k_peak + 1.0)) + 60
        log_lam = math.log(lam) if lam > 0.0 else -math.inf
        total = -math.inf
        for k, log_qg in zip(range(0, hi + 1), _log_qg_partial_sum(hi, y)):
            if k < lo:
                continue
            log_pois = -lam if k == 0 else (-lam + k * log_lam - math.lgamma(k + 1.0))
            total = _log_add(total, log_pois + log_qg)
        return min(total, 0.0)
    # Q is the big side
    lm = log1m_marcum_q(a, b)
    if lm > _LOG_TINY:
        return math.log1p(-math.exp(lm))
    return -math.exp(lm) if lm > -math.inf else 0.0


def log1m_marcum_q(a: float, b: float) -> float:
    """log(1 - Q1(a, b)), accurate deep into the left tail."""
    a = _check_nonneg_or_inf("a", a)
    b = _check_nonneg_or_inf("b", b)
    if b == 0.0:
        return -math.inf
    lam = 0.5 * a * a
    y = 0.5 * b * b
    if lam > _ASYMPTOTIC_HALF_ARG or y > _ASYMPTOTIC_HALF_ARG:
        return _log_marcum_q_asymptotic(a, b)[1]
    if lam <= _SERIES_LAMBDA_MAX and y <= 700.0:
        # cheap path: complement of the linear series, safe while 1 - Q
        # retains enough bits of its own (relative error <= ~1e-7 here;
        # the windowed sum below keeps full accuracy beyond)
        q = _marcum_series(lam, y)
        if q <= 1.0 - _SERIES_COMPLEMENT_MIN:
            return math.log1p(-q)
    if y >= lam + 1.0:
        # 1 - Q is the big side; complement the small one
        lq = log_marcum_q(a, b)
        if lq > _LOG_TINY:
            return math.log1p(-math.exp(lq))
        return -math.exp(lq) if lq > -math.inf else 0.0
    # 1 - Q = sum_k Pois(k; lam) P(k+1, y), windowed log-space sum.  Once
    # y < k the gamma factor is dominated by its first term y^(k+1)/(k+1)!,
    # so the summand peaks at k* = sqrt(lam*y); the window spans that
    # saddle and the Poisson bulk (they coincide when y ~ lam).
    k_star = math.sqrt(lam * y)
    half = 12.0 * math.sqrt(max(k_star, lam)) + 60.0
    lo = max(0, int(min(k_star, lam) - half))
    hi = int(max(k_star, lam) + half) + 1
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    log_y = math.log(y)
    total = -math.inf
    best = -math.inf
    # running partial sum exp(-y) sum_{j<=k} y^j/j!, kept in linear space
    # (terms with j << y underflow harmlessly; Q(k+1, y) ~ 0 there anyway)
    log_gterm = -y
    qg = math.exp(-y)
    for k in range(0, hi + 1):
        if k > 0:
            log_gterm += log_y - math.log(k)
            qg += math.exp(log_gterm)
        if k < lo:
            continue
        if y <= k + 1.0:
            log_pg = _log_pg_small(float(k), y)
        else:
            # order below y: the lower tail is O(1); complement the sum
            log_pg = math.log1p(-min(qg, 1.0)) if qg < 1.0 else -math.inf
        log_pois = -lam if k == 0 else (-lam + k * log_lam - math.lgamma(k + 1.0))
        term = log_pois + log_pg
        total = _log_add(total, term)
        best = max(best, term)
        # the summand is unimodal with its peak at k*; once well past it
        # and far below the peak, the remaining tail cannot matter
        if k > k_star + 10.0 and term < best - 120.0:
            break
    return min(total, 0.0)


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
