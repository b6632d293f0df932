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
The closed form of binloc.closedform and the adaptive quadrature here,
QUADPACK's dqagp in arrays, read c11, c22 and the powers from
_prefactors, so the two routes differ only in the integral.

The bounds are CRB_P = 1/F11 and CRB_x = CRB_y = 1/F22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .detection import (DetectorConfig, _positive, _signal_coordinate_vec,
                        signal_coordinate)

__all__ = [
    "FieldConfig",
    "FisherResult",
    "QuadratureError",
    "rmin_expected",
    "x_breve",
    "expected_fim_quadrature",
    "offdiag_quadrature_estimate",
]

# exp() underflow threshold for assembling integrands from log values
_LOG_TINY = -745.0

# error control of the adaptive quadrature (dqagpe's stop test, panel cap)
_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-13
_QUAD_LIMIT = 200

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1]: rows (x_j,
# Kronrod weight, Gauss weight) in the order in which dqk21 adds them, the
# centre, the Gauss nodes, the rest; a panel's nodes are c, c -+ h x_j
_GK21 = np.array([
    (0.0, 0.1494455540029169, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.2943928627014602, 0.14277593857706009, 0.0)])
_GK21_X = np.concatenate([[0.0], np.outer(_GK21[1:, 0], (-1.0, 1.0)).ravel()])
_GK21_WK = np.concatenate([_GK21[:1, 1], np.repeat(_GK21[1:, 1], 2)])


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed its own error target; the best estimate
    is carried in the ``estimate`` attribute."""

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class FieldConfig:
    """Sensor field: Poisson density rho (sensors per unit area).  The
    expected-information integrals are truncated at rmin_expected."""

    rho: float

    def __post_init__(self) -> None:
        _positive("rho", self.rho)


def rmin_expected(field: FieldConfig) -> float:
    """Mean distance from any fixed point to the nearest sensor of the
    Poisson field: the nearest-distance law is Rayleigh with CDF
    1 - exp(-rho pi r^2), whose mean is 1/sqrt(4 rho)."""
    # 0.5/sqrt(rho) is 1/sqrt(4 rho) to the bit, and 4 rho may overflow
    return 0.5 / math.sqrt(float(field.rho))


@dataclass(frozen=True)
class FisherResult:
    """Expected Fisher information and the implied Cramer-Rao bounds.

    F22 serves both position axes: F33 = F22 by the circular symmetry
    of the field, and the off-diagonals are exact zeros (the bearing
    integrals vanish).  method records how the numbers were produced
    ("quadrature" or "closed-form"); m is the series order for the closed
    form; quality flags suspect closed-form output ("ok" otherwise).  A
    bound is inf for an entry <= 0 and NaN for a NaN entry (the
    closed-form F11 outside alpha in {2, 4}).
    """

    F11: float
    F22: float
    method: str
    m: int | None = None
    quality: str = "ok"

    @property
    def crb_P(self) -> float:
        return _inverse(self.F11)

    @property
    def crb_x(self) -> float:
        return _inverse(self.F22)


def _inverse(value: float) -> float:
    # NaN fails the comparison and passes through 1/value
    return math.inf if value <= 0.0 else 1.0 / value


def x_breve(cfg: DetectorConfig, P: float, field: FieldConfig) -> float:
    """Signal coordinate at the inner truncation radius
    r_breve = rmin_expected(field)."""
    return signal_coordinate(cfg, P, rmin_expected(field))


# ----------------------------------------------------------------------
# single-sensor information
# ----------------------------------------------------------------------

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
    log_w = _log_kernel(x, cfg.threshold_coordinate, 2.0) - math.log(4.0)
    # r * r overflows beyond r ~ 1e154 (a lattice at rho < 1e-304), where
    # the slopes round to 0
    with np.errstate(over="ignore"):
        u = np.stack([np.full_like(r, 1.0 / P), cfg.alpha * dx / (r * r),
                      cfg.alpha * dy / (r * r)])
    return log_w, u


# ----------------------------------------------------------------------
# expected information over the field
# ----------------------------------------------------------------------

def _log_kernel(x: np.ndarray, t: float, power) -> np.ndarray:
    """log of x^power * Q'(x)^2 / (Q (1-Q)), Q' = dQ1(x, t)/dx, at signal
    coordinates x (-inf where x <= 0), from one log_marcum_q_pair_array
    call, whose log tails keep 1/(Q(1-Q)) finite where 1 - Q underflows;
    a power column (m, 1) gives one row per power."""
    log_q, log_1mq = specfun.log_marcum_q_pair_array(x, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (power * np.log(x) + 2.0 * specfun._log_marcum_q_da(x, t)
                 - (log_q + log_1mq))
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


def _x_breakpoints(t: float, xb: float) -> list[float]:
    # integrand peaks where Q(1-Q) is largest (x near t) and dies off a
    # few units past it; guide the subdivision on wide intervals (in order)
    return sorted(p for p in (t, t + 8.0, t + 20.0, 0.5 * xb) if p < xb)


def _gk21_panels(f: np.ndarray, half: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """dqk21's (integral, error estimate) per panel of half-width half
    (n,) from f >= 0 (..., n, 21) at its nodes c + half * _GK21_X; the
    integral sums in dqk21's order, and is its resabs too as f >= 0."""
    pairs = np.concatenate([f[..., :1], f[..., 1::2] + f[..., 2::2]], -1)
    resk = np.cumsum(pairs * _GK21[:, 1], axis=-1)[..., -1]
    resasc = np.abs(f - 0.5 * resk[..., None]) @ _GK21_WK * half
    err = np.abs((resk - pairs @ _GK21[:, 2]) * half)
    ratio = 200.0 * err / np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    result = resk * half
    return result, np.maximum(err, 50.0 * np.finfo(float).eps * result)


def expected_fim_quadrature(cfg: DetectorConfig, P: float,
                            field: FieldConfig) -> FisherResult:
    """Expected Fisher information by adaptive quadrature over the signal
    coordinate on (0, x_breve]: QUADPACK's dqagp in arrays, on the panels
    of _x_breakpoints.  Each round takes its new panels' kernel values
    from one _log_kernel call for both powers, then bisects the panels
    whose error exceeds their share of dqagpe's target.  Where F11's
    kernel, x^(3 - 4/alpha) at 0, is not smooth, the first panel [0, b]
    is mapped by x = b (u/b)^3."""
    P = _positive("P", P)
    t, xb = cfg.threshold_coordinate, x_breve(cfg, P, field)
    (c11, p11), (c22, p22) = _prefactors(cfg, P, field)
    edges = np.array([0.0, *_x_breakpoints(t, xb), xb])
    lo, hi, b = edges[:-1], edges[1:], edges[1]
    k = 1.0 if 3.0 - 4.0 / cfg.alpha in (0.0, 1.0, 2.0) else 3.0
    res = err = np.empty((2, 0))
    while True:
        a, c = lo[res.shape[1]:], hi[res.shape[1]:]   # this round's panels
        half = 0.5 * (c - a)
        u = (0.5 * (a + c))[:, None] + half[:, None] * _GK21_X
        x, jac = u, 1.0
        if k != 1.0:
            s = np.minimum(u / b, 1.0) ** (k - 1.0)
            x, jac = u * s, np.where(u < b, k * s, 1.0)
        lg = _log_kernel(x.ravel(), t, np.array([[p11], [p22]]))
        f = np.where(lg > _LOG_TINY, np.exp(lg), 0.0).reshape(2, *u.shape)
        r, e = _gk21_panels(f * jac, half)
        res, err = np.hstack([res, r]), np.hstack([err, e])
        value, total, n = res.sum(axis=1), err.sum(axis=1), res.shape[1]
        bound = np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(value))
        if (total <= bound).all():
            return FisherResult(F11=float(c11 * value[0]),
                                F22=float(c22 * value[1]), method="quadrature")
        split = np.any(err > bound[:, None] / n, axis=0)
        if n + split.sum() > _QUAD_LIMIT or not np.isfinite(total).all():
            j = int(np.argmax(~(total <= bound)))
            raise QuadratureError(
                f"quadrature error estimate {total[j]:.3e} too large for "
                f"value {value[j]:.6e} on [0, {xb:g}] after {n} panels",
                float(value[j]))
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        res, err = res[:, ~split], err[:, ~split]


def _lattice_information(cfg: DetectorConfig, P: float,
                         field: FieldConfig) -> np.ndarray:
    """3x3 expected information summed over a polar lattice of sensors
    around an emitter at the origin: 192 Gauss-Legendre radii on
    [r_breve, 200 r_breve] by 64 bearings on [0, 2 pi).  The sensor at
    (r, psi) is weighted 2 pi rho w_r r w_psi, as in c11 and c22, so the
    diagonal matches the quadrature route up to the cut at 200 r_breve."""
    rb = rmin_expected(field)
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
