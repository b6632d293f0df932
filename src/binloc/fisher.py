"""Fisher information and Cramer-Rao bounds for a Poisson field of
binary detectors.

Sensors form a homogeneous planar Poisson process of density rho around
the emitter; each reports only its one-bit decision.  The parameter
vector is theta = (P, x_T, y_T).  A single sensor at range r and bearing
psi contributes the rank-one information matrix

    F_i = v v^T / (P_D (1 - P_D)),
    v = (dP_D/dP, -cos(psi) dP_D/dr, -sin(psi) dP_D/dr),

the bearing entering through dr/dx_T = -cos(psi), dr/dy_T = -sin(psi).
Averaging over the field (and over the bearing, which kills every
off-diagonal term) gives a diagonal expected information whose entries
reduce to one-dimensional integrals over the signal coordinate
x = sqrt(T P / (sigma2 r^alpha)):

    F11 = c11 * int_0^xb x^(1-4/alpha) Q'(x)^2 / (Q(1-Q)) dx
    F22 = F33
        = c22 * int_0^xb x          Q'(x)^2 / (Q(1-Q)) dx

with c11 = 2 pi^2 rho T^(2/alpha) P^(2/alpha - 2) / (alpha sigma2^(2/alpha)),
c22 = pi^2 rho alpha, Q = Q1(x, t), Q' = dQ1(x, t)/dx
= t I1(xt) e^(-(x^2+t^2)/2), and xb the signal coordinate at
the expected nearest-sensor distance rb = 1/sqrt(4 rho) (the integration
is truncated there: closer sensors are present in less than half the
fields, and including them would claim information a typical realization
does not carry).  The integrand is assembled in log space so that the
1/(1-Q) factor stays usable far past the point where 1 - Q underflows.

The bounds are CRB_P = 1/F11 and CRB_x = CRB_y = 1/F22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from . import specfun
from .detection import (DetectorConfig, TargetParams,
                        detection_probability_derivatives, signal_coordinate)

__all__ = [
    "FieldConfig",
    "FisherResult",
    "QuadratureError",
    "rmin_expected",
    "x_breve",
    "per_sensor_fim",
    "expected_fim_quadrature",
    "expected_f22_r_domain",
    "offdiag_quadrature_estimate",
]

# exp() underflow threshold for assembling integrands from log values
_LOG_TINY = -745.0

# error control of the adaptive quadratures (scipy.integrate.quad)
_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-13
_QUAD_LIMIT = 200

# tensor-product Gauss-Legendre grid of the off-diagonal cross-check:
# radial and angular node counts, and the outer radius in units of r_breve
_OFFDIAG_N_R = 192
_OFFDIAG_N_PSI = 64
_OFFDIAG_R_OUTER = 200.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed its own error target; the best estimate
    is carried in the ``estimate`` attribute."""

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class FieldConfig:
    """Sensor field: Poisson density rho (sensors per unit area).

    r_breve_override substitutes the inner truncation radius of the
    expected-information integrals for sensitivity studies; by default
    the expected nearest-sensor distance 1/sqrt(4 rho) is used.
    """

    rho: float
    r_breve_override: float | None = None

    def __post_init__(self) -> None:
        rho = float(self.rho)
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValueError(f"rho must be finite and > 0, got {rho!r}")
        if self.r_breve_override is not None:
            rb = float(self.r_breve_override)
            if not (math.isfinite(rb) and rb > 0.0):
                raise ValueError(
                    f"r_breve_override must be finite and > 0, got {rb!r}")

    @property
    def r_breve(self) -> float:
        if self.r_breve_override is not None:
            return float(self.r_breve_override)
        return rmin_expected(self)


def rmin_expected(field: FieldConfig) -> float:
    """Mean distance from any fixed point to the nearest sensor of the
    Poisson field: the nearest-distance law is Rayleigh with CDF
    1 - exp(-rho pi r^2), whose mean is 1/sqrt(4 rho)."""
    return 1.0 / math.sqrt(4.0 * float(field.rho))


@dataclass(frozen=True)
class FisherResult:
    """Expected Fisher information and the implied Cramer-Rao bounds.

    F22 == F33 by the circular symmetry of the field; off-diagonals are
    exact zeros (the bearing integrals vanish), so offdiag_max_abs is 0
    unless filled in by an explicit 2-D cross-check.  method records how
    the numbers were produced ("quadrature" or "closed-form"); m is the
    series order for the closed form; quality flags suspect closed-form
    output ("ok" otherwise).
    """

    F11: float
    F22: float
    F33: float
    offdiag_max_abs: float
    method: str
    m: int | None = None
    quality: str = "ok"

    @property
    def crb_P(self) -> float:
        return 1.0 / self.F11 if self.F11 > 0.0 else math.inf

    @property
    def crb_x(self) -> float:
        return 1.0 / self.F22 if self.F22 > 0.0 else math.inf

    @property
    def crb_y(self) -> float:
        return 1.0 / self.F33 if self.F33 > 0.0 else math.inf


def x_breve(cfg: DetectorConfig, P: float, field: FieldConfig) -> float:
    """Signal coordinate at the inner truncation radius r_breve."""
    return signal_coordinate(cfg, P, field.r_breve)


# ----------------------------------------------------------------------
# single-sensor information
# ----------------------------------------------------------------------

def per_sensor_fim(cfg: DetectorConfig, theta: TargetParams,
                   sensor_x: float, sensor_y: float) -> np.ndarray:
    """3x3 information matrix contributed by one sensor (rank one, PSD).

    Ordering (P, x_T, y_T).  Raises if the sensor sits exactly at the
    hypothesized emitter position.
    """
    dx = float(sensor_x) - theta.x
    dy = float(sensor_y) - theta.y
    r = math.hypot(dx, dy)
    if r == 0.0:
        raise ValueError("sensor coincides with the emitter position")
    d_dr, d_dP = detection_probability_derivatives(cfg, theta.P, r)
    # the weight alone can overflow for very close sensors even though the
    # full product w * v v^T decays there, so fold the scale of v into the
    # exponent
    log_w = _log_weight(signal_coordinate(cfg, theta.P, r),
                        cfg.threshold_coordinate)
    cos_psi = dx / r
    sin_psi = dy / r
    v = np.array([d_dP, -cos_psi * d_dr, -sin_psi * d_dr])
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return np.zeros((3, 3))
    unit = v / scale
    return math.exp(log_w + 2.0 * math.log(scale)) * np.outer(unit, unit)


# ----------------------------------------------------------------------
# expected information over the field
# ----------------------------------------------------------------------

def _log_weight(x: float, t: float) -> float:
    """log of the Bernoulli information weight 1 / (Q (1-Q)), Q = Q1(x, t),
    assembled from the log tails so that it stays finite where 1 - Q
    underflows."""
    log_q, log_1mq = specfun.log_marcum_q_pair(x, t)
    return -(log_q + log_1mq)


def _log_kernel(x: float, t: float, power: float) -> float:
    """log of x^power * Q'(x)^2 / (Q (1-Q)) at signal coordinate x, with
    Q' = dQ1(x, t)/dx."""
    if x <= 0.0:
        return -math.inf
    return (power * math.log(x) + 2.0 * specfun.log_marcum_q_da(x, t)
            + _log_weight(x, t))


def _prefactors(cfg: DetectorConfig, P: float,
                field: FieldConfig) -> tuple[float, float]:
    """(c11, c22): F11 and F22 are these times the integrals of
    _log_kernel over (0, x_breve] with power 1 - 4/alpha and 1."""
    alpha = cfg.alpha
    c11 = (2.0 * math.pi ** 2 * field.rho
           * cfg.T ** (2.0 / alpha) * P ** (2.0 / alpha - 2.0)
           / (alpha * cfg.sigma2 ** (2.0 / alpha)))
    c22 = math.pi ** 2 * field.rho * alpha
    return c11, c22


def _integrate_log(log_f: Callable[[float], float], lo: float, hi: float,
                   breakpoints: Sequence[float] = ()) -> float:
    def f(u: float) -> float:
        lg = log_f(u)
        return math.exp(lg) if lg > _LOG_TINY else 0.0

    pts = sorted(p for p in breakpoints if lo < p < hi)
    value, err = integrate.quad(f, lo, hi,
                                epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
                                limit=_QUAD_LIMIT, points=pts or None)
    if not math.isfinite(value) or err > 1e3 * max(_QUAD_ABS_TOL,
                                                   _QUAD_REL_TOL * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} too large for value "
            f"{value:.6e} on [{lo:g}, {hi:g}]", estimate=value)
    return value


def _x_breakpoints(t: float, xb: float) -> list[float]:
    # integrand peaks where Q(1-Q) is largest (x near t) and dies off a
    # few units past it; guide the subdivision on wide intervals
    return [t, t + 8.0, t + 20.0, 0.5 * xb]


def expected_fim_quadrature(cfg: DetectorConfig, P: float,
                            field: FieldConfig) -> FisherResult:
    """Expected Fisher information by adaptive quadrature over the signal
    coordinate on (0, x_breve]."""
    P = float(P)
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError(f"P must be finite and > 0, got {P!r}")
    t = cfg.threshold_coordinate
    xb = x_breve(cfg, P, field)
    alpha = cfg.alpha
    pts = _x_breakpoints(t, xb)

    i11 = _integrate_log(lambda x: _log_kernel(x, t, 1.0 - 4.0 / alpha),
                         0.0, xb, pts)
    i22 = _integrate_log(lambda x: _log_kernel(x, t, 1.0), 0.0, xb, pts)

    c11, c22 = _prefactors(cfg, P, field)
    f11 = c11 * i11
    f22 = c22 * i22
    return FisherResult(F11=f11, F22=f22, F33=f22, offdiag_max_abs=0.0,
                        method="quadrature")


def expected_f22_r_domain(cfg: DetectorConfig, P: float,
                          field: FieldConfig) -> float:
    """F22 evaluated directly in the range domain,

        F22 = 2 pi^2 rho int_rb^inf (dP_D/dr)^2 r / (Q(1-Q)) dr,

    as an independent cross-check of the x-domain route."""
    P = float(P)
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError(f"P must be finite and > 0, got {P!r}")
    t = cfg.threshold_coordinate
    rb = field.r_breve
    alpha = cfg.alpha
    scale = cfg.T * P / cfg.sigma2

    log_half_alpha = math.log(0.5 * alpha)

    def log_f(r: float) -> float:
        if r <= 0.0:
            return -math.inf
        # dP_D/dr = -(alpha x / 2r) Q'(x), so the integrand is
        # (alpha / 2)^2 x^2 Q'^2 / (Q(1-Q)) / r
        x = math.sqrt(scale / r ** alpha)
        return _log_kernel(x, t, 2.0) + 2.0 * log_half_alpha - math.log(r)

    # the kernel peaks near the range where x(r) = t; split there, and
    # push the outer limit far enough that the power-law tail is dust
    r_peak = (scale / (t * t)) ** (1.0 / alpha)
    r_hi = max(1e4 * rb, 1e3 * r_peak)
    pts = [r_peak, 4.0 * r_peak, 20.0 * r_peak]
    value = _integrate_log(log_f, rb, r_hi, pts)
    # analytic bound on the discarded tail: for x << 1 the kernel is
    # ~ alpha^2 t^4 x^4 / (16 r) / floor(1-floor); x^4 = scale^2 r^(-2 alpha)
    floor = cfg.false_alarm_probability
    tail = (2.0 * math.pi ** 2 * field.rho * alpha * t ** 4 * scale ** 2
            / (16.0 * floor * (1.0 - floor) * 2.0 * alpha * r_hi ** (2.0 * alpha)))
    if tail > 1e-6 * abs(value):
        raise QuadratureError(
            f"outer truncation too aggressive: tail bound {tail:.3e} vs "
            f"value {value:.6e}", estimate=value)
    return 2.0 * math.pi ** 2 * field.rho * value


def offdiag_quadrature_estimate(cfg: DetectorConfig, P: float,
                                field: FieldConfig) -> float:
    """Largest |entry| among 2-D tensor-product Gauss-Legendre estimates
    of the three off-diagonal expected-information integrals

        F12 = -2 pi rho int int (dP_D/dP)(dP_D/dr) cos(psi) / (Q(1-Q)) r dr dpsi
        F13 = (same with sin), F23 = 2 pi rho int int (dP_D/dr)^2 sin cos ... ,

    which all vanish analytically, over r_breve <= r <= 200 r_breve.
    Returned for use as a numerical cross-check against F22."""
    P = float(P)
    rb = field.r_breve
    r_outer = _OFFDIAG_R_OUTER * rb
    # radial factors, evaluated once per node
    nodes_r, weights_r = np.polynomial.legendre.leggauss(_OFFDIAG_N_R)
    r = 0.5 * (r_outer - rb) * (nodes_r + 1.0) + rb
    wr = 0.5 * (r_outer - rb) * weights_r
    a = np.empty_like(r)   # dP_D/dr
    b = np.empty_like(r)   # dP_D/dP
    w = np.empty_like(r)   # 1 / (Q (1 - Q))
    t = cfg.threshold_coordinate
    for i, ri in enumerate(r):
        a[i], b[i] = detection_probability_derivatives(cfg, P, float(ri))
        w[i] = math.exp(_log_weight(signal_coordinate(cfg, P, float(ri)), t))
    nodes_p, weights_p = np.polynomial.legendre.leggauss(_OFFDIAG_N_PSI)
    psi = math.pi * (nodes_p + 1.0)
    wp = math.pi * weights_p

    rho = field.rho
    # tensor-product sums; the angular factor integrates to ~0
    f12 = 2.0 * math.pi * rho * np.sum(
        (wr * r * a * b * w)[:, None] * (wp * (-np.cos(psi)))[None, :])
    f13 = 2.0 * math.pi * rho * np.sum(
        (wr * r * a * b * w)[:, None] * (wp * (-np.sin(psi)))[None, :])
    f23 = 2.0 * math.pi * rho * np.sum(
        (wr * r * a * a * w)[:, None] * (wp * np.sin(psi) * np.cos(psi))[None, :])
    return float(max(abs(f12), abs(f13), abs(f23)))
