"""Closed-form approximations to the expected Fisher information.

The exact entries are integrals of the form

    int_0^xb x^p I1(x t)^2 e^(-x^2 - t^2) / (Q(x,t) (1 - Q(x,t))) dx.

Two approximations turn them into finite sums of incomplete gamma
functions:

1. the log-weight f(x) = ln[1 / (Q(1-Q))] is replaced by its second-order
   Taylor polynomial at the endpoint xb, written f0 + f1 x + f2 x^2 (the
   weight is flattest there and the integrand is concentrated near xb for
   the configurations of interest);
2. I1(y)^2 is replaced by its first m+1 Maclaurin terms,
   sum_k c_k y^(2k+2), c_k = binom(2k+2, k) / (2^(k+1) (k+1)!)^2.

Completing the square, with y = x t,

    e^(f0 + f1 x + f2 x^2 - x^2 - t^2) = C e^(-(A y + B)^2),
    A = sqrt(1 - f2)/t,  B = -f1 / (2 sqrt(1 - f2)),
    C = e^(f1^2 / (4 (1 - f2)) + f0 - t^2),

and substituting s = A y + B maps the integral onto [B, sb],
sb = A xb t + B, where every term is a shifted Gaussian moment

    M_n = int_B^sb (s - B)^n e^(-s^2) ds
        = sum_l binom(n, l) (-B)^l int_B^sb s^(n-l) e^(-s^2) ds,

reducible to incomplete gamma functions of half-integer order.  When
B < 0 the power moments are split at s = 0: s -> s^2 is not monotone
there, and the unsplit difference of upper gammas would flip the sign of
the even powers on [B, 0].

The curvature condition f2 < 1 is required for the Gaussian substitution
(the completed square must decay); otherwise ModelInvalid is raised.

F22 keeps this structure for every alpha >= 1; F11 needs the kernel power
1 - 4/alpha to be a nonnegative integer after the y-substitution and is
provided for alpha in {2, 4} only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import specfun
from .detection import DetectorConfig
from .fisher import (FieldConfig, FisherResult, x_breve, _log_kernel_array,
                     _prefactors)
from .fisher import _log_kernel  # noqa: F401 (hooked by perfbench/spans.py)

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

# quality probe: 16-node Gauss-Legendre estimate of the exact integral
_QUALITY_U, _QUALITY_W = np.polynomial.legendre.leggauss(16)
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
    P = float(P)
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError(f"P must be finite and > 0, got {P!r}")
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

def _half_moment(j: int, z: float) -> float:
    # int_0^z s^j e^{-s^2} ds = gamma((j+1)/2, z^2) / 2 for z >= 0
    s = 0.5 * (j + 1)
    return float(0.5 * special.gamma(s) * special.gammainc(s, z * z))


def _power_moment(j: int, lo: float, hi: float) -> float:
    """int_lo^hi s^j e^{-s^2} ds, lo <= hi."""
    if lo >= 0.0:
        # difference-of-upper-gammas form; exact only for lo >= 0
        s = 0.5 * (j + 1)
        return float(0.5 * special.gamma(s) * (special.gammaincc(s, lo * lo)
                                               - special.gammaincc(s, hi * hi)))
    if hi <= 0.0:
        sign = 1.0 if j % 2 == 0 else -1.0
        return sign * (_half_moment(j, -lo) - _half_moment(j, -hi))
    # straddles zero
    sign = 1.0 if j % 2 == 0 else -1.0
    return sign * _half_moment(j, -lo) + _half_moment(j, hi)


def _shifted_moment(n: int, b_lo: float, s_hi: float) -> float:
    """M_n = int_{b_lo}^{s_hi} (s - b_lo)^n e^{-s^2} ds via the binomial
    expansion in power moments."""
    total = 0.0
    for l in range(n + 1):
        coef = math.comb(n, l) * (-b_lo) ** l
        total += coef * _power_moment(n - l, b_lo, s_hi)
    return total


# ----------------------------------------------------------------------
# closed-form information entries
# ----------------------------------------------------------------------

def _series_guard(model: TaylorModel, m: int) -> bool:
    # the truncated I1^2 series is only trustworthy while its argument
    # stays within roughly twice the retained order
    return model.y_breve > 2.0 * (m + 2)


def f22_closed_form(cfg: DetectorConfig, P: float, field: FieldConfig,
                    m: int | None = None, model: TaylorModel | None = None
                    ) -> float:
    """Closed-form F22 (= F33), valid for any alpha >= 1:

        F22 = pi^2 rho alpha C sum_k c_k A^(-2k-4) M_{2k+3}.
    """
    m = _resolve_m(m, cfg.alpha)
    if model is None:
        model = build_taylor_model(cfg, P, field)
    if _series_guard(model, m):
        warnings.warn(
            f"I1^2 series order m={m} is short for y_breve="
            f"{model.y_breve:.3g}; closed form may be unreliable",
            RuntimeWarning, stacklevel=2)
    total = 0.0
    for k in range(m + 1):
        ck = specfun.i1_squared_taylor_coeff(k)
        mom = _shifted_moment(2 * k + 3, model.B, model.s_breve)
        total += ck * model.A ** (-(2 * k + 4)) * mom
    value = math.pi ** 2 * field.rho * cfg.alpha * model.C * total
    if not math.isfinite(value):
        raise ModelInvalid("closed-form F22 overflowed")
    return value


def f11_closed_form(cfg: DetectorConfig, P: float, field: FieldConfig,
                    m: int | None = None, model: TaylorModel | None = None
                    ) -> float:
    """Closed-form F11 for alpha in {2, 4}:

        alpha = 2:  (pi^2 t^2 rho T / (P sigma2)) C
                        sum_k c_k A^(-2k-2) M_{2k+1}
        alpha = 4:  (pi^2 t rho sqrt(T) / (2 P^(3/2) sqrt(sigma2))) C
                        sum_k c_k A^(-2k-3) M_{2k+2}
    """
    alpha = float(cfg.alpha)
    if alpha not in (2.0, 4.0):
        raise UnsupportedAlpha(
            f"closed-form F11 requires alpha in {{2, 4}}, got {alpha:g}")
    m = _resolve_m(m, alpha)
    if model is None:
        model = build_taylor_model(cfg, P, field)
    if _series_guard(model, m):
        warnings.warn(
            f"I1^2 series order m={m} is short for y_breve="
            f"{model.y_breve:.3g}; closed form may be unreliable",
            RuntimeWarning, stacklevel=2)
    t = model.t
    total = 0.0
    for k in range(m + 1):
        ck = specfun.i1_squared_taylor_coeff(k)
        if alpha == 2.0:
            mom = _shifted_moment(2 * k + 1, model.B, model.s_breve)
            total += ck * model.A ** (-(2 * k + 2)) * mom
        else:
            mom = _shifted_moment(2 * k + 2, model.B, model.s_breve)
            total += ck * model.A ** (-(2 * k + 3)) * mom
    P = float(P)
    if alpha == 2.0:
        pref = math.pi ** 2 * t * t * field.rho * cfg.T / (P * cfg.sigma2)
    else:
        pref = (math.pi ** 2 * t * field.rho * math.sqrt(cfg.T)
                / (2.0 * P ** 1.5 * math.sqrt(cfg.sigma2)))
    value = pref * model.C * total
    if not math.isfinite(value):
        raise ModelInvalid("closed-form F11 overflowed")
    return value


# ----------------------------------------------------------------------
# quality assessment and bundled result
# ----------------------------------------------------------------------

def _gl_reference(cfg: DetectorConfig, P: float, field: FieldConfig,
                  power: float) -> float:
    """Fixed-order Gauss-Legendre estimate of the exact integral with
    kernel x^power, used only to sanity-check the closed form."""
    xb = x_breve(cfg, P, field)
    lg = _log_kernel_array(0.5 * xb * (_QUALITY_U + 1.0),
                           cfg.threshold_coordinate, power)
    ws = 0.5 * xb * _QUALITY_W
    return float(np.sum(np.where(lg > -700.0, ws * np.exp(lg), 0.0)))


def _entries(cfg: DetectorConfig, P: float, field: FieldConfig, m: int,
             model: TaylorModel) -> tuple[float, float | None]:
    """(F22, F11) in closed form; F11 is None for alpha outside {2, 4}."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        f22 = f22_closed_form(cfg, P, field, m, model)
        f11 = None
        if float(cfg.alpha) in (2.0, 4.0):
            f11 = f11_closed_form(cfg, P, field, m, model)
    return f22, f11


def approximation_quality(cfg: DetectorConfig, P: float, field: FieldConfig,
                          m: int | None = None,
                          model: TaylorModel | None = None, *,
                          entries: tuple[float, float | None] | None = None
                          ) -> str:
    """Comma-joined flags for the closed form at this configuration:
    "ok", else any of "series-radius", "negative", "quadrature-mismatch".

    entries is the (F22, F11) pair already computed from the same model
    (F11 None for alpha outside {2, 4}); it is computed here if omitted."""
    alpha = float(cfg.alpha)
    m_res = _resolve_m(m, alpha)
    if model is None:
        model = build_taylor_model(cfg, P, field)
    flags = []
    if _series_guard(model, m_res):
        flags.append("series-radius")
    if entries is None:
        entries = _entries(cfg, P, field, m_res, model)
    f22, f11 = entries
    if f22 <= 0.0 or (f11 is not None and f11 <= 0.0):
        flags.append("negative")
    # cheap exact-integral probes
    c11, c22 = _prefactors(cfg, float(P), field)
    ref22 = c22 * _gl_reference(cfg, P, field, 1.0)
    bad = ref22 > 0.0 and abs(f22 - ref22) > _QUALITY_RTOL * ref22
    if f11 is not None and not bad:
        ref11 = c11 * _gl_reference(cfg, P, field, 1.0 - 4.0 / alpha)
        bad = ref11 > 0.0 and abs(f11 - ref11) > _QUALITY_RTOL * ref11
    if bad:
        flags.append("quadrature-mismatch")
    return ",".join(flags) if flags else "ok"


def closed_form_fisher(cfg: DetectorConfig, P: float, field: FieldConfig,
                       m: int | None = None) -> FisherResult:
    """Closed-form FisherResult (F11 only for alpha in {2, 4}); quality
    carries the approximation_quality flags."""
    m_res = _resolve_m(m, float(cfg.alpha))
    model = build_taylor_model(cfg, P, field)
    f22, f11 = _entries(cfg, P, field, m_res, model)
    quality = approximation_quality(cfg, P, field, m_res, model,
                                    entries=(f22, f11))
    return FisherResult(F11=math.nan if f11 is None else f11, F22=f22,
                        F33=f22, offdiag_max_abs=0.0, method="closed-form",
                        m=m_res, quality=quality)
