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
_prefactors states (c11, 1 - 4/alpha) and (c22, 1) once; the adaptive
quadrature here and the closed form of binloc.closedform both read them,
so the two routes share c11 and c22 and differ only in the integral.

The bounds are CRB_P = 1/F11 and CRB_x = CRB_y = 1/F22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special

from . import specfun
from .detection import (DetectorConfig, TargetParams, _positive,
                        _signal_coordinate_vec, signal_coordinate)

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
        _positive("rho", self.rho)
        if self.r_breve_override is not None:
            _positive("r_breve_override", self.r_breve_override)

    @property
    def r_breve(self) -> float:
        if self.r_breve_override is not None:
            return float(self.r_breve_override)
        return rmin_expected(self)


def rmin_expected(field: FieldConfig) -> float:
    """Mean distance from any fixed point to the nearest sensor of the
    Poisson field: the nearest-distance law is Rayleigh with CDF
    1 - exp(-rho pi r^2), whose mean is 1/sqrt(4 rho)."""
    # 0.5/sqrt(rho) is 1/sqrt(4 rho) to the bit, and 4 rho may overflow
    return 0.5 / math.sqrt(float(field.rho))


@dataclass(frozen=True)
class FisherResult:
    """Expected Fisher information and the implied Cramer-Rao bounds.

    F22 == F33 by the circular symmetry of the field; the off-diagonals
    are exact zeros (the bearing integrals vanish).  method records how
    the numbers were produced ("quadrature" or "closed-form"); m is the
    series order for the closed form; quality flags suspect closed-form
    output ("ok" otherwise).  A bound is inf for an entry <= 0 and NaN
    for a NaN entry (the closed-form F11 outside alpha in {2, 4}).
    """

    F11: float
    F22: float
    F33: float
    method: str
    m: int | None = None
    quality: str = "ok"

    @property
    def crb_P(self) -> float:
        return _inverse(self.F11)

    @property
    def crb_x(self) -> float:
        return _inverse(self.F22)

    @property
    def crb_y(self) -> float:
        return _inverse(self.F33)


def _inverse(value: float) -> float:
    # NaN fails the comparison and passes through 1/value
    return math.inf if value <= 0.0 else 1.0 / value


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
    if sensor_x == theta.x and sensor_y == theta.y:
        raise ValueError("sensor coincides with the emitter position")
    log_w, u = _sensor_information(cfg, theta.P, theta.x, theta.y,
                                   np.array([sensor_x], float),
                                   np.array([sensor_y], float))
    return math.exp(log_w[0]) * np.outer(u[:, 0], u[:, 0])


def _sensor_information(cfg: DetectorConfig, P: float, x0: float, y0: float,
                        sx: np.ndarray, sy: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(log w, u) for sensors at (sx, sy) under the emitter hypothesis
    (P, x0, y0): sensor i contributes exp(log w_i) u_i u_i^T, u being 3 x n.

    With core = (x/2) Q'(x) the slope vector of P_D is core * u,
    u = (1/P, alpha dx/r^2, alpha dy/r^2), so w = core^2 / (Q(1-Q)) is
    the kernel with power 2 over 4.  Unlike 1/(Q(1-Q)) alone, w decays
    rather than overflows for very close sensors.
    """
    dx, dy = sx - x0, sy - y0
    r = np.hypot(dx, dy)
    x = _signal_coordinate_vec(cfg, P, r)
    log_w = _log_kernel_array(x, cfg.threshold_coordinate, 2.0) - math.log(4.0)
    # r * r overflows beyond r ~ 1e154 (a lattice at rho < 1e-304), where
    # the slopes round to 0
    with np.errstate(over="ignore"):
        u = np.stack([np.full_like(r, 1.0 / P), cfg.alpha * dx / (r * r),
                      cfg.alpha * dy / (r * r)])
    return log_w, u


# ----------------------------------------------------------------------
# expected information over the field
# ----------------------------------------------------------------------

def _log_kernel(x: float, t: float, power: float) -> float:
    """log of x^power * Q'(x)^2 / (Q (1-Q)) at signal coordinate x, with
    Q' = dQ1(x, t)/dx.  The weight 1/(Q(1-Q)) comes from the log tails,
    so that it stays finite where 1 - Q underflows."""
    if x <= 0.0:
        return -math.inf
    log_q, log_1mq = specfun.log_marcum_q_pair(x, t)
    return (power * math.log(x) + 2.0 * specfun.log_marcum_q_da(x, t)
            - (log_q + log_1mq))


def _log_kernel_array(x: np.ndarray, t: float, power: float) -> np.ndarray:
    """_log_kernel(x_i, t, power) for an array x, from one
    log_marcum_q_pair_array call: equal entry by entry bar the last bits
    of a linear log (np.log against math.log)."""
    log_q, log_1mq = specfun.log_marcum_q_pair_array(x, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_da = np.log(t * special.i1e(x * t)) - 0.5 * (x - t) ** 2
        value = power * np.log(x) + 2.0 * log_da - (log_q + log_1mq)
    return np.where(x > 0.0, value, -math.inf)


def _prefactors(cfg: DetectorConfig, P: float, field: FieldConfig
                ) -> tuple[tuple[float, float], tuple[float, float]]:
    """((c11, 1 - 4/alpha), (c22, 1)): F11 and F22 are each constant
    times the integral of _log_kernel over (0, x_breve] with that power.
    The quadrature route and the closed form both read these pairs."""
    alpha = cfg.alpha
    c11 = (2.0 * math.pi ** 2 * field.rho
           * cfg.T ** (2.0 / alpha) * P ** (2.0 / alpha - 2.0)
           / (alpha * cfg.sigma2 ** (2.0 / alpha)))
    c22 = math.pi ** 2 * field.rho * alpha
    return (c11, 1.0 - 4.0 / alpha), (c22, 1.0)


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
    P = _positive("P", P)
    t = cfg.threshold_coordinate
    xb = x_breve(cfg, P, field)
    pts = _x_breakpoints(t, xb)
    f11, f22 = (c * _integrate_log(lambda x: _log_kernel(x, t, p),
                                   0.0, xb, pts)
                for c, p in _prefactors(cfg, P, field))
    return FisherResult(F11=f11, F22=f22, F33=f22, method="quadrature")


def expected_f22_r_domain(cfg: DetectorConfig, P: float,
                          field: FieldConfig) -> float:
    """F22 evaluated directly in the range domain,

        F22 = 2 pi^2 rho int_rb^inf (dP_D/dr)^2 r / (Q(1-Q)) dr,

    as an independent cross-check of the x-domain route."""
    P = _positive("P", P)
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


def _lattice_information(cfg: DetectorConfig, P: float,
                         field: FieldConfig) -> np.ndarray:
    """3x3 expected information summed over a polar lattice of sensors
    around an emitter at the origin: 192 Gauss-Legendre radii on
    [r_breve, 200 r_breve] by 64 bearings on [0, 2 pi).  The sensor at
    (r, psi) is weighted 2 pi rho w_r r w_psi, as in c11 and c22, so the
    diagonal matches the quadrature route up to the cut at 200 r_breve."""
    rb = field.r_breve
    half = 0.5 * (200.0 * rb - rb)
    nodes_r, weights_r = np.polynomial.legendre.leggauss(192)
    r = (half * (nodes_r + 1.0) + rb)[:, None]
    wr = (half * weights_r)[:, None]
    nodes_p, weights_p = np.polynomial.legendre.leggauss(64)
    psi, wp = math.pi * (nodes_p + 1.0), math.pi * weights_p
    log_w, u = _sensor_information(cfg, float(P), 0.0, 0.0,
                                   (r * np.cos(psi)).ravel(),
                                   (r * np.sin(psi)).ravel())
    weight = (2.0 * math.pi * field.rho * wr * r * wp).ravel()
    return (u * (weight * np.exp(log_w))) @ u.T


def offdiag_quadrature_estimate(cfg: DetectorConfig, P: float,
                                field: FieldConfig) -> float:
    """Largest |off-diagonal entry| of the lattice sum of per-sensor
    matrices w u u^T (_lattice_information), a numerical cross-check
    against F22: the entries carry the bearing through u and cancel only
    in the sum over bearings, as they vanish analytically.  The weight
    2 pi rho w_r r w_psi keeps the package's 2 pi rho convention, which
    ROADMAP.md questions: a Poisson field of density rho has rho r dr dpsi."""
    J = _lattice_information(cfg, P, field)
    return float(max(abs(J[0, 1]), abs(J[0, 2]), abs(J[1, 2])))
