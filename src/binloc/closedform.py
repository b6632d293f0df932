"""Closed-form approximations to the expected Fisher information.

Both entries are F_jj = c_jj * int_0^xb x^p Q'(x)^2 / (Q (1 - Q)) dx,
Q' = t I1(x t) e^(-(x^2 + t^2)/2), with the pairs (c11, p = 1 - 4/alpha)
and (c22, p = 1) that fisher._prefactors states for the quadrature route
as well.  Two approximations turn the integral into a finite sum of
incomplete gamma functions:

1. the log-weight f(x) = ln[1 / (Q(1-Q))] is replaced by its second-order
   Taylor polynomial at the endpoint xb, written f0 + f1 x + f2 x^2 (the
   weight is flattest there and the integrand is concentrated near xb for
   the configurations of interest);
2. I1(y)^2 is replaced by its first m+1 Maclaurin terms,
   sum_k c_k y^(2k+2), c_k = binom(2k+2, k) / (2^(k+1) (k+1)!)^2
   (_I1SQ_COEFFS, for k <= M_MAX).

Completing the square, with y = x t,

    e^(f0 + f1 x + f2 x^2 - x^2 - t^2) = C e^(-(A y + B)^2),
    A = sqrt(1 - f2)/t,  B = -f1 / (2 sqrt(1 - f2)),
    C = e^(f1^2 / (4 (1 - f2)) + f0 - t^2),

and substituting s = A y + B maps the integral onto [B, sb],
sb = A xb t + B, so that

    int_0^xb x^p Q'^2 / (Q(1-Q)) dx
        ~ t^(1-p) C sum_{k<=m} c_k A^-(p+2k+3) M_{p+2k+2},

where every term is a shifted Gaussian moment

    M_n = int_B^sb (s - B)^n e^(-s^2) ds
        = sum_l binom(n, l) (-B)^l int_B^sb s^(n-l) e^(-s^2) ds,

reducible to incomplete gamma functions of half-integer order.  When
B < 0 the power moments are split at s = 0: s -> s^2 is not monotone
there, and the unsplit difference of upper gammas would flip the sign of
the even powers on [B, 0].  Every M_n of both entries draws on the power
moments j = 0..2m+3 of one interval, F11's being a prefix of F22's, so a
tau point makes that table once, with one array call per special
function, and shares it among the terms of both entries.

The curvature condition f2 < 1 is required for the Gaussian substitution
(the completed square must decay); otherwise ModelInvalid is raised.

The moments need an integer n = p + 2k + 2 >= 0.  F22 (p = 1) has one
for every alpha >= 1; F11 has one for alpha in {2, 4} (p = -1, 0) only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import specfun
from .detection import DetectorConfig, _positive
from .fisher import (FieldConfig, FisherResult, QuadratureError, x_breve,
                     expected_fim_quadrature, _prefactors)
from .fisher import _log_kernel  # noqa: F401  (perfbench hooks it here)

__all__ = [
    "TaylorModel",
    "ModelInvalid",
    "UnsupportedAlpha",
    "build_taylor_model",
    "f11_closed_form",
    "f22_closed_form",
    "closed_form_fisher",
    "approximation_quality",
    "default_series_order",
    "M_MAX",
]

# hard cap on the I1^2 series order
M_MAX = 10

# the c_k of the module docstring for k <= M_MAX, each rounded once
_I1SQ_COEFFS = tuple(
    math.comb(2 * k + 2, k) / (2 ** (k + 1) * math.factorial(k + 1)) ** 2
    for k in range(M_MAX + 1))

# path-loss exponents whose F11 kernel power 1 - 4/alpha is an integer
_F11_ALPHAS = (2.0, 4.0)

# quality flag: largest relative distance from the exact bound read "ok"
_QUALITY_RTOL = 0.25


class ModelInvalid(Exception):
    """The quadratic surrogate cannot represent this configuration
    (curvature f2 >= 1, or coefficients overflow)."""


class UnsupportedAlpha(ValueError):
    """F11 closed form exists only for path-loss exponents 2 and 4."""


@dataclass(frozen=True)
class TaylorModel:
    """Endpoint Taylor data of f(x) = ln[1/(Q(1-Q))] and the induced
    Gaussian-substitution constants.  Independent of the series order m."""

    f0: float
    f1: float
    f2: float
    A: float
    B: float
    C: float
    x_breve: float
    t: float
    s_breve: float

    @property
    def y_breve(self) -> float:
        return self.x_breve * self.t


def _check_f11_alpha(alpha: float) -> None:
    """Raise UnsupportedAlpha unless alpha is in _F11_ALPHAS."""
    if float(alpha) not in _F11_ALPHAS:
        raise UnsupportedAlpha(f"closed-form F11 requires alpha in {{2, 4}}, "
                               f"got {float(alpha):.17g}")


def default_series_order(alpha: float) -> int:
    """Series order used when m is not given: 3 for alpha = 2 (the Bessel
    argument reaches further), 1 otherwise."""
    return 3 if float(alpha) == 2.0 else 1


def _resolve_m(m: int | None, alpha: float) -> int:
    if m is None:
        return default_series_order(alpha)
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    if m > M_MAX:
        raise ValueError(f"m = {m} exceeds the supported cap {M_MAX}")
    return m


def build_taylor_model(cfg: DetectorConfig, P: float,
                       field: FieldConfig) -> TaylorModel:
    """Taylor-expand f(x) = -ln Q - ln(1-Q) at x = x_breve and complete
    the square.  All ratios are assembled from log-domain pieces so the
    model survives endpoints deep in either tail of Q."""
    P = _positive("P", P)
    t = cfg.threshold_coordinate
    xb = x_breve(cfg, P, field)

    # f needs each tail on its own: f' and f'' divide Q' and Q'' by both
    lq, l1 = specfun.log_marcum_q_pair(xb, t)
    f_val = -(lq + l1)

    lqp = specfun.log_marcum_q_da(xb, t)     # log Q'
    if lqp == -math.inf:
        raise ModelInvalid("Q'(x_breve, t) vanishes; surrogate undefined")

    # Q'' = bracket * e^{-(xb-t)^2/2} with an O(1) bracket; the
    # exponential is carried separately
    bracket = specfun._marcum_q_daa_scaled(xb, t)
    try:
        rq = math.exp(lqp - lq)          # Q'/Q
        r1 = math.exp(lqp - l1)          # Q'/(1-Q)
        if bracket == 0.0:
            qq = q1 = 0.0
        else:
            labs = math.log(abs(bracket)) - 0.5 * (xb - t) ** 2
            sign = 1.0 if bracket > 0.0 else -1.0
            qq = sign * math.exp(labs - lq)   # Q''/Q
            q1 = sign * math.exp(labs - l1)   # Q''/(1-Q)
        fp = r1 - rq
        fpp = rq * rq - qq + r1 * r1 + q1
    except OverflowError as exc:
        raise ModelInvalid(f"Taylor coefficients overflow at x_breve={xb:g}, "
                           f"t={t:g}") from exc

    f2 = 0.5 * fpp
    f1 = fp - xb * fpp
    f0 = f_val - xb * fp + 0.5 * xb * xb * fpp
    if not (f2 < 1.0):
        raise ModelInvalid(f"curvature f2 = {f2:.6g} >= 1: the completed "
                           "square does not decay")
    root = math.sqrt(1.0 - f2)
    a_ = root / t
    b_ = -f1 / (2.0 * root)
    try:
        c_ = math.exp(f1 * f1 / (4.0 * (1.0 - f2)) + f0 - t * t)
    except OverflowError as exc:
        raise ModelInvalid("surrogate amplitude C overflows; endpoint too "
                           "deep in the tail") from exc
    return TaylorModel(f0=f0, f1=f1, f2=f2, A=a_, B=b_, C=c_,
                       x_breve=xb, t=t, s_breve=a_ * xb * t + b_)


# ----------------------------------------------------------------------
# shifted Gaussian moments
# ----------------------------------------------------------------------

def _power_moments(n: int, lo: float, hi: float) -> list[float]:
    """[int_lo^hi s^j e^{-s^2} ds for j = 0..n], lo <= hi: one array call
    per special function serves every j, entry by entry the same bits as
    a scalar call at that j."""
    s = 0.5 * np.arange(1, n + 2)
    half_gamma = 0.5 * special.gamma(s)
    ends = np.array([[lo * lo], [hi * hi]])
    if lo >= 0.0:
        # difference-of-upper-gammas form; exact only for lo >= 0
        upper = special.gammaincc(s, ends)
        return (half_gamma * (upper[0] - upper[1])).tolist()
    # int_0^z s^j e^{-s^2} ds = gamma((j+1)/2, z^2) / 2 for z = |lo|, |hi|;
    # left of zero an odd power changes the sign
    left, right = half_gamma * special.gammainc(s, ends)
    sign = np.resize([1.0, -1.0], n + 1)
    if hi <= 0.0:
        return (sign * (left - right)).tolist()
    # straddles zero
    return (sign * left + right).tolist()


def _shifted_moment(n: int, b_lo: float, moments: list[float]) -> float:
    """M_n = int_{b_lo}^{s_hi} (s - b_lo)^n e^{-s^2} ds via the binomial
    expansion in power moments.  moments is _power_moments(N, b_lo, s_hi)
    for some N >= n."""
    total = 0.0
    for l in range(n + 1):
        coef = math.comb(n, l) * (-b_lo) ** l
        total += coef * moments[n - l]
    return total


# ----------------------------------------------------------------------
# closed-form information entries
# ----------------------------------------------------------------------

def _series_guard(model: TaylorModel, m: int) -> bool:
    # the truncated I1^2 series is only trustworthy while its argument
    # stays within roughly twice the retained order
    return model.y_breve > 2.0 * (m + 2)


def _entry(model: TaylorModel, m: int, c: float, p: float, name: str,
           moments: list[float]) -> float:
    """Closed-form entry name (F11 or F22) with constant c and integer
    kernel power p >= -1 (a pair of fisher._prefactors): c times the
    surrogate of int_0^xb x^p Q'^2 / (Q(1-Q)) dx,

        t^(1-p) C sum_{k<=m} c_k A^-(p+2k+3) M_{p+2k+2},

    whose power moments come from moments, a _power_moments(N, B, sb)
    table with N >= p + 2m + 2."""
    try:
        total = 0.0
        for k in range(m + 1):
            n = int(p) + 2 * k + 2
            total += (_I1SQ_COEFFS[k] * model.A ** (-(n + 1))
                      * _shifted_moment(n, model.B, moments))
        value = c * (model.t ** (1.0 - p) * model.C * total)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ModelInvalid(f"closed-form {name} overflowed")
    return value


def _public_entry(cfg: DetectorConfig, P: float, field: FieldConfig,
                   m: int | None, model: TaylorModel | None, j: int) -> float:
    # the public entries: resolve m and the model, warn past the series
    # radius on behalf of their caller, and build the table of entry j
    m = _resolve_m(m, cfg.alpha)
    if model is None:
        model = build_taylor_model(cfg, P, field)
    if _series_guard(model, m):
        warnings.warn(
            f"I1^2 series order m={m} is short for y_breve="
            f"{model.y_breve:.3g}; closed form may be unreliable",
            RuntimeWarning, stacklevel=3)
    c, p = _prefactors(cfg, float(P), field)[j]
    moments = _power_moments(int(p) + 2 * m + 2, model.B, model.s_breve)
    return _entry(model, m, c, p, ("F11", "F22")[j], moments)


def f22_closed_form(cfg: DetectorConfig, P: float, field: FieldConfig,
                    m: int | None = None, model: TaylorModel | None = None
                    ) -> float:
    """Closed-form F22 (= F33), valid for any alpha >= 1: kernel power
    p = 1 in the series of the module docstring,

        F22 = c22 C sum_k c_k A^(-2k-4) M_{2k+3},

    with c22 from fisher._prefactors.
    """
    return _public_entry(cfg, P, field, m, model, 1)


def f11_closed_form(cfg: DetectorConfig, P: float, field: FieldConfig,
                    m: int | None = None, model: TaylorModel | None = None
                    ) -> float:
    """Closed-form F11 for alpha in {2, 4}, where the kernel power
    p = 1 - 4/alpha of the module docstring's series is an integer:

        alpha = 2 (p = -1):  F11 = c11 t^2 C sum_k c_k A^(-2k-2) M_{2k+1}
        alpha = 4 (p = 0):   F11 = c11 t C sum_k c_k A^(-2k-3) M_{2k+2}

    with c11 from fisher._prefactors.
    """
    _check_f11_alpha(cfg.alpha)
    return _public_entry(cfg, P, field, m, model, 0)


# ----------------------------------------------------------------------
# quality assessment and bundled result
# ----------------------------------------------------------------------

def approximation_quality(m: int, model: TaylorModel,
                          entries: tuple[float, float | None],
                          exact: FisherResult | None) -> str:
    """Comma-joined flags for the closed form at this configuration:
    "ok", else any of "series-radius", "negative", "quadrature-mismatch"
    (an entry off the exact bound by more than _QUALITY_RTOL) and
    "quadrature-failed" (exact is None: expected_fim_quadrature did not
    converge).  entries is the (F22, F11) pair computed from model at
    series order m (F11 None for alpha outside {2, 4})."""
    flags = []
    if _series_guard(model, m):
        flags.append("series-radius")
    f22, f11 = entries
    if f22 <= 0.0 or (f11 is not None and f11 <= 0.0):
        flags.append("negative")
    if exact is None:
        flags.append("quadrature-failed")
    elif any(ref > 0.0 and abs(f - ref) > _QUALITY_RTOL * ref
             for f, ref in ((f11, exact.F11), (f22, exact.F22))
             if f is not None):
        flags.append("quadrature-mismatch")
    return ",".join(flags) if flags else "ok"


def closed_form_fisher(cfg: DetectorConfig, P: float, field: FieldConfig,
                       m: int | None = None,
                       exact: FisherResult | None = None) -> FisherResult:
    """Closed-form FisherResult (F11 only for alpha in {2, 4}), flagged by
    approximation_quality against exact, computed here when not given."""
    m_res = _resolve_m(m, float(cfg.alpha))
    model = build_taylor_model(cfg, P, field)
    (c11, p11), (c22, p22) = _prefactors(cfg, float(P), field)
    # one table serves both entries: F22's power 1 needs the most moments
    moments = _power_moments(2 * m_res + 3, model.B, model.s_breve)
    f22 = _entry(model, m_res, c22, p22, "F22", moments)
    f11 = (_entry(model, m_res, c11, p11, "F11", moments)
           if float(cfg.alpha) in _F11_ALPHAS else None)
    try:
        exact = exact or expected_fim_quadrature(cfg, P, field)
    except QuadratureError:   # flagged "quadrature-failed"
        pass
    quality = approximation_quality(m_res, model, (f22, f11), exact)
    return FisherResult(F11=math.nan if f11 is None else f11, F22=f22,
                        method="closed-form", m=m_res, quality=quality)
