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
   sum_k c_k y^(2k+2), c_k = binom(2k+2, k) / (2^(k+1) (k+1)!)^2.

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
the even powers on [B, 0].

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
from .fisher import (FieldConfig, FisherResult, x_breve, _LOG_TINY,
                     _log_kernel_array, _prefactors)
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

# path-loss exponents whose F11 kernel power 1 - 4/alpha is an integer
_F11_ALPHAS = (2.0, 4.0)

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


def _surrogate_integral(model: TaylorModel, m: int, p: float) -> float:
    """The surrogate of int_0^xb x^p Q'^2 / (Q(1-Q)) dx,

        t^(1-p) C sum_{k<=m} c_k A^-(p+2k+3) M_{p+2k+2},

    for an integer kernel power p >= -1."""
    total = 0.0
    for k in range(m + 1):
        n = int(p) + 2 * k + 2
        total += (specfun.i1_squared_taylor_coeff(k) * model.A ** (-(n + 1))
                  * _shifted_moment(n, model.B, model.s_breve))
    return model.t ** (1.0 - p) * model.C * total


def _entry(cfg: DetectorConfig, P: float, field: FieldConfig, m: int,
           model: TaylorModel, j: int) -> float | None:
    """Closed-form F11 (j = 0; None for alpha outside _F11_ALPHAS) or F22
    (j = 1): the constant of fisher._prefactors' pair j times the
    surrogate integral at its power."""
    if j == 0 and float(cfg.alpha) not in _F11_ALPHAS:
        return None
    c, p = _prefactors(cfg, float(P), field)[j]
    try:
        value = c * _surrogate_integral(model, m, p)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ModelInvalid(f"closed-form {('F11', 'F22')[j]} overflowed")
    return value


def _public_entry(cfg: DetectorConfig, P: float, field: FieldConfig,
                   m: int | None, model: TaylorModel | None, j: int) -> float:
    # the public entries: resolve m and the model, and warn past the
    # series radius on behalf of their caller
    m = _resolve_m(m, cfg.alpha)
    if model is None:
        model = build_taylor_model(cfg, P, field)
    if _series_guard(model, m):
        warnings.warn(
            f"I1^2 series order m={m} is short for y_breve="
            f"{model.y_breve:.3g}; closed form may be unreliable",
            RuntimeWarning, stacklevel=3)
    return _entry(cfg, P, field, m, model, j)


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
    alpha = float(cfg.alpha)
    if alpha not in _F11_ALPHAS:
        raise UnsupportedAlpha(
            f"closed-form F11 requires alpha in {{2, 4}}, got {alpha:g}")
    return _public_entry(cfg, P, field, m, model, 0)


# ----------------------------------------------------------------------
# quality assessment and bundled result
# ----------------------------------------------------------------------

def _gl_reference(cfg: DetectorConfig, P: float, field: FieldConfig,
                  powers: tuple[float, ...]) -> np.ndarray:
    """Fixed-order Gauss-Legendre estimates of the exact integral with
    kernel x^p for each p in powers, from one kernel evaluation; used
    only to sanity-check the closed form."""
    xb = x_breve(cfg, P, field)
    x = 0.5 * xb * (_QUALITY_U + 1.0)
    lg = (_log_kernel_array(x, cfg.threshold_coordinate, 0.0)
          + np.multiply.outer(powers, np.log(x)))
    ws = 0.5 * xb * _QUALITY_W
    return np.sum(np.where(lg > _LOG_TINY, ws * np.exp(lg), 0.0), axis=1)


def approximation_quality(cfg: DetectorConfig, P: float, field: FieldConfig,
                          m: int | None = None,
                          model: TaylorModel | None = None, *,
                          entries: tuple[float, float | None] | None = None
                          ) -> str:
    """Comma-joined flags for the closed form at this configuration:
    "ok", else any of "series-radius", "negative", "quadrature-mismatch".

    entries is the (F22, F11) pair already computed from the same model
    (F11 None for alpha outside {2, 4}); it is computed here if omitted."""
    m_res = _resolve_m(m, float(cfg.alpha))
    if model is None:
        model = build_taylor_model(cfg, P, field)
    flags = []
    if _series_guard(model, m_res):
        flags.append("series-radius")
    if entries is None:
        entries = (_entry(cfg, P, field, m_res, model, 1),
                   _entry(cfg, P, field, m_res, model, 0))
    f22, f11 = entries
    if f22 <= 0.0 or (f11 is not None and f11 <= 0.0):
        flags.append("negative")
    # cheap exact-integral probes
    (c11, p11), (c22, p22) = _prefactors(cfg, float(P), field)
    ref11, ref22 = (c11, c22) * _gl_reference(cfg, P, field, (p11, p22))
    if any(ref > 0.0 and abs(f - ref) > _QUALITY_RTOL * ref
           for f, ref in ((f11, ref11), (f22, ref22)) if f is not None):
        flags.append("quadrature-mismatch")
    return ",".join(flags) if flags else "ok"


def closed_form_fisher(cfg: DetectorConfig, P: float, field: FieldConfig,
                       m: int | None = None) -> FisherResult:
    """Closed-form FisherResult (F11 only for alpha in {2, 4}); quality
    carries the approximation_quality flags."""
    m_res = _resolve_m(m, float(cfg.alpha))
    model = build_taylor_model(cfg, P, field)
    f22 = _entry(cfg, P, field, m_res, model, 1)
    f11 = _entry(cfg, P, field, m_res, model, 0)
    quality = approximation_quality(cfg, P, field, m_res, model,
                                    entries=(f22, f11))
    return FisherResult(F11=math.nan if f11 is None else f11, F22=f22,
                        F33=f22, method="closed-form", m=m_res,
                        quality=quality)
