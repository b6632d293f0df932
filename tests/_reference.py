"""Reference routes that the tests check the library against.

None serves a library caller, so they live beside the tests that use
them as independent oracles:

* log_kernel_scalar and expected_fim_quadpack, the expected information
  by scipy's QUADPACK over a scalar kernel, one call per node, for
  fisher.expected_fim_quadrature;
* expected_fim_mpmath, the same two integrals at 20 digits, with Q1 and
  1 - Q1 summed as Poisson mixtures and mpmath's tanh-sinh quadrature;
* expected_f22_r_domain, F22 written as an integral over range instead of
  the signal coordinate, for the same;
* detection_probability_derivatives, the slopes of P_D in range and
  power, for the per-sensor information and the detection model;
* nll_derivatives_stacked, the nll's gradient and Hessian with the
  gradient of u = ln x stacked from three new rows, for
  detection._nll_derivatives, which fills them in place.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

import mpmath
import numpy as np
from scipy import integrate, special

from binloc import specfun
from binloc.detection import (DetectorConfig, _log_likelihood_arrays,
                              _positive, signal_coordinate)
from binloc.fisher import (_LOG_TINY, _QUAD_ABS_TOL, _QUAD_LIMIT,
                           _QUAD_REL_TOL, FieldConfig, QuadratureError,
                           _prefactors, _x_breakpoints, rmin_expected,
                           x_breve)


def log_kernel_scalar(x: float, t: float, power: float) -> float:
    """log of x^power * Q'(x)^2 / (Q (1-Q)) at one signal coordinate x,
    from the scalar Marcum routines: fisher._log_kernel for one node."""
    if x <= 0.0:
        return -math.inf
    log_q, log_1mq = specfun.log_marcum_q_pair(x, t)
    return (power * math.log(x) + 2.0 * specfun.log_marcum_q_da(x, t)
            - (log_q + log_1mq))


def integrate_log(log_f: Callable[[float], float], lo: float, hi: float,
                  breakpoints: Sequence[float] = ()) -> float:
    """QUADPACK's dqagp (scipy.integrate.quad with points) of exp(log_f)
    over [lo, hi] at fisher's tolerances; QuadratureError where the
    error estimate exceeds 1e3 times the target or the value is not
    finite."""
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


def expected_fim_quadpack(cfg: DetectorConfig, P: float,
                          field: FieldConfig) -> tuple[float, float]:
    """(F11, F22) by QUADPACK over the scalar kernel on the panels of
    fisher._x_breakpoints, one quadrature per entry."""
    t = cfg.threshold_coordinate
    xb = x_breve(cfg, P, field)
    pts = _x_breakpoints(t, xb)
    f11, f22 = (c * integrate_log(lambda x: log_kernel_scalar(x, t, p),
                                  0.0, xb, pts)
                for c, p in _prefactors(cfg, P, field))
    return f11, f22


def expected_fim_mpmath(cfg: DetectorConfig, P: float,
                        field: FieldConfig) -> tuple[float, float]:
    """(F11, F22) at 20 digits.  With lambda = x^2/2 and s = t^2/2,

        Q1(x, t)     = sum_k e^-lambda lambda^k / k! * sum_{j<=k} e^-s s^j / j!,
        1 - Q1(x, t) = sum_k e^-lambda lambda^k / k! * sum_{j>k}  e^-s s^j / j!,

    both sums of positive terms, so neither side is the complement of a
    number near 1.  Q' = t I1(x t) e^(-(x^2 + t^2)/2) from mpmath's
    Bessel function.  mpmath's tanh-sinh rule integrates each entry over
    the panels of fisher._x_breakpoints; it needs no smoothness at 0."""
    t, xb = cfg.threshold_coordinate, x_breve(cfg, P, field)
    with mpmath.workdps(20):
        mt, s = mpmath.mpf(t), mpmath.mpf(t) ** 2 / 2
        tiny = mpmath.mpf(10) ** -30
        # the Poisson(s) terms up to past the largest lambda's bulk
        n = int(xb * xb / 2 + 20.0 * math.sqrt(xb * xb / 2 + t * t / 2 + 1.0)
                + t * t / 2 + 60.0)
        terms = [mpmath.exp(-s)]
        for j in range(1, n + 1):
            terms.append(terms[-1] * s / j)
        upto = list(accumulate(terms))
        past = list(accumulate(reversed(terms[1:]), initial=0))[::-1]
        weights: dict = {}

        def weight(x):
            # Q'^2 / (Q (1 - Q)), kept per node for the second entry
            if x not in weights:
                lam = x * x / 2
                pois, q, q1, k = mpmath.exp(-lam), 0, 0, 0
                while k <= lam or pois > tiny * min(q, q1):
                    q, q1 = q + pois * upto[k], q1 + pois * past[k]
                    k += 1
                    pois = pois * lam / k
                da = mt * mpmath.besseli(1, x * mt) * mpmath.exp(
                    -(x * x + mt * mt) / 2)
                weights[x] = da * da / (q * q1)
            return weights[x]

        edges = [0.0] + _x_breakpoints(t, xb) + [xb]
        f11, f22 = (c * float(mpmath.quad(lambda x: x ** p * weight(x),
                                          [mpmath.mpf(e) for e in edges]))
                    for c, p in _prefactors(cfg, P, field))
    return f11, f22


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
        return log_kernel_scalar(x, t, 2.0) + 2.0 * log_half_alpha - math.log(r)

    # the kernel peaks near the range where x(r) = t; split there, and
    # push the outer limit far enough that the power-law tail is dust
    r_peak = (scale / (t * t)) ** (1.0 / alpha)
    r_hi = max(1e4 * rb, 1e3 * r_peak)
    pts = [r_peak, 4.0 * r_peak, 20.0 * r_peak]
    value = integrate_log(log_f, rb, r_hi, pts)
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


def nll_derivatives_stacked(cfg: DetectorConfig, P: float, x0: float,
                            y0: float, sx: np.ndarray, sy: np.ndarray,
                            detected: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the nll in (ln P, x0, y0) from a fresh
    likelihood pass, as detection._nll_derivatives documents them, with
    the sign array and the (3, n) gradient of u = ln x built per call by
    np.where and np.stack."""
    pieces: list = []
    _log_likelihood_arrays(cfg, P, x0, y0, sx, sy, detected, pieces)
    dx, dy, r, x, log_terms = pieces
    t = cfg.threshold_coordinate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = x * t
        i1 = special.i1e(z)
        w = np.where(detected, 1.0, -1.0) * np.exp(
            -0.5 * (x - t) ** 2 - log_terms)
        l_u = z * i1 * w
        l_uu = (l_u - l_u * l_u
                + x * x * (t * t * (special.i0e(z) - i1 / z) - z * i1) * w)
        k = 0.5 * cfg.alpha / (r * r)
        grad_u = np.stack([np.full_like(x, 0.5), k * dx, k * dy])
        c = l_u * k / (r * r)
        h_xx = c @ (dx * dx - dy * dy)
        h_xy = c @ (2.0 * dx * dy)
        grad = -(grad_u @ l_u)
        hess = -((grad_u * l_uu) @ grad_u.T)
        hess[1, 1] -= h_xx
        hess[2, 2] += h_xx
        hess[1, 2] -= h_xy
        hess[2, 1] -= h_xy
    return grad, hess
