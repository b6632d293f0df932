"""Reference routes that the tests check the library against.

Neither serves a library caller, so they live beside the tests that use
them as independent oracles:

* expected_f22_r_domain, F22 written as an integral over range instead of
  the signal coordinate, for fisher.expected_fim_quadrature;
* detection_probability_derivatives, the slopes of P_D in range and
  power, for the per-sensor information and the detection model.
"""

from __future__ import annotations

import math

from binloc import specfun
from binloc.detection import DetectorConfig, _positive, signal_coordinate
from binloc.fisher import (FieldConfig, QuadratureError, _integrate_log,
                           _log_kernel, rmin_expected)


def detection_probability_derivatives(cfg: DetectorConfig, P: float,
                                      r: float) -> tuple[float, float]:
    """(dP_D/dr, dP_D/dP) at range r.

    Shares the single Marcum slope: with core = (x / 2) dQ1(x, t)/dx, the
    radial slope is -alpha/r * core and the power slope is core / P.
    """
    P = _positive("P", P)
    x = signal_coordinate(cfg, P, r)
    core = 0.5 * x * specfun.marcum_q_da(x, cfg.threshold_coordinate)
    return (-cfg.alpha / r * core, core / P)


def expected_f22_r_domain(cfg: DetectorConfig, P: float,
                          field: FieldConfig) -> float:
    """F22 evaluated directly in the range domain,

        F22 = 2 pi^2 rho int_rb^inf (dP_D/dr)^2 r / (Q(1-Q)) dr,

    as an independent cross-check of the x-domain route."""
    P = _positive("P", P)
    t = cfg.threshold_coordinate
    rb = rmin_expected(field)
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
