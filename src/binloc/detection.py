"""Non-coherent binary detection of an RF emitter.

Each sensor integrates received energy over T seconds and compares it with
a threshold tau.  With free-space-like path loss r^(-alpha), noise power
sigma2 per complex dimension and emitter power P at unit distance, the
detection probability at range r is

    P_D(r) = Q1(x, t),   x = sqrt(T P / (sigma2 r^alpha)),
                         t = sqrt(2 tau / sigma2),

where Q1 is the first-order Marcum Q function.  As r -> inf this decays to
the false-alarm floor exp(-tau/sigma2) = exp(-t^2/2); x is the effective
signal coordinate and t the threshold coordinate used throughout.

The partial derivatives follow from dQ1/dx = t I1(x t) exp(-(x^2+t^2)/2):

    dP_D/dr = -(alpha t x / 2 r) exp(-(t^2+x^2)/2) I1(t x)
    dP_D/dP = +(t x / 2 P)       exp(-(t^2+x^2)/2) I1(t x)

so r dP_D/dr = -alpha P dP_D/dP identically.

The array P_D and the log-likelihood evaluate all sensors in one call of
specfun's array routines.  Each sensor's log-likelihood term takes only
the side of Q1 its decision uses: log P_D for a detecting sensor, which
the linear value keeps down to specfun._UFUNC_MIN, and log(1 - P_D) for
a silent one, from the log tails where the linear value has lost it.
The ML fit's Newton steps take the gradient and Hessian of the summed
terms from one more array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import specfun

__all__ = [
    "DetectorConfig",
    "TargetParams",
    "Decisions",
    "signal_coordinate",
    "detection_probability",
    "detection_probability_array",
    "detection_probability_derivatives",
    "log_likelihood",
]

def _positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class DetectorConfig:
    """Sensor-side constants: threshold tau, noise power sigma2,
    integration time T and path-loss exponent alpha (>= 1)."""

    tau: float
    sigma2: float
    T: float = 1.0
    alpha: float = 2.0

    def __post_init__(self) -> None:
        _positive("tau", self.tau)
        _positive("sigma2", self.sigma2)
        _positive("T", self.T)
        alpha = float(self.alpha)
        if not (math.isfinite(alpha) and alpha >= 1.0):
            raise ValueError(f"alpha must be finite and >= 1, got {alpha!r}")

    @property
    def threshold_coordinate(self) -> float:
        """t = sqrt(2 tau / sigma2)."""
        return math.sqrt(2.0 * self.tau / self.sigma2)

    @property
    def false_alarm_probability(self) -> float:
        """Large-range detection floor exp(-tau/sigma2)."""
        return math.exp(-self.tau / self.sigma2)


@dataclass(frozen=True)
class TargetParams:
    """Emitter parameters: power P at unit distance and plane position."""

    P: float
    x: float
    y: float

    def __post_init__(self) -> None:
        _positive("P", self.P)
        _finite("x", self.x)
        _finite("y", self.y)


@dataclass(frozen=True, eq=False)
class Decisions:
    """One trial's binary decisions: sensor i sits at (sx[i], sy[i]) and
    reported detected[i].  Stored as contiguous 1-D arrays of equal
    length (float, float, bool)."""

    sx: np.ndarray
    sy: np.ndarray
    detected: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("sx", float), ("sy", float), ("detected", bool)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
            object.__setattr__(self, name, np.ascontiguousarray(arr))
        if not len(self.sx) == len(self.sy) == len(self.detected):
            raise ValueError(
                f"sx, sy and detected must have equal lengths, got "
                f"{len(self.sx)}, {len(self.sy)} and {len(self.detected)}")

    def __len__(self) -> int:
        return len(self.sx)


def signal_coordinate(cfg: DetectorConfig, P: float, r: float) -> float:
    """x = sqrt(T P / (sigma2 r^alpha)) for r > 0; 0 or inf where the
    quotient leaves the doubles."""
    P = _positive("P", P)
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be finite and > 0, got {r!r}")
    return float(_signal_coordinate_vec(cfg, P, np.float64(r)))


def detection_probability(cfg: DetectorConfig, P: float, r: float) -> float:
    """P_D at range r; strictly within (0, 1] for finite arguments."""
    x = signal_coordinate(cfg, P, r)
    return specfun.marcum_q(x, cfg.threshold_coordinate)


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


# ----------------------------------------------------------------------
# vectorized evaluation (hot path for simulation and field-level checks)
# ----------------------------------------------------------------------

def detection_probability_array(cfg: DetectorConfig, P: float,
                                r: np.ndarray) -> np.ndarray:
    """Vectorized P_D over an array of ranges (all > 0)."""
    P = _positive("P", P)
    r = np.asarray(r, dtype=float)
    if r.size and (not np.all(np.isfinite(r)) or np.any(r <= 0.0)):
        raise ValueError("all ranges must be finite and > 0")
    x = _signal_coordinate_vec(cfg, P, r)
    return specfun.marcum_q_array(x, cfg.threshold_coordinate)


def _signal_coordinate_vec(cfg: DetectorConfig, P: float,
                           r: np.ndarray) -> np.ndarray:
    # inf (certain detection) where r = 0 or T P / r^alpha overflows, 0
    # where r^alpha overflows, NaN where T P and sigma2 r^alpha both do
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.sqrt(cfg.T * P / (cfg.sigma2 * r ** cfg.alpha))


def _log_likelihood_arrays(cfg: DetectorConfig, P: float, x0: float, y0: float,
                           sx: np.ndarray, sy: np.ndarray,
                           detected: np.ndarray) -> float:
    """Log-likelihood of binary decisions at sensor positions (sx, sy)
    for emitter hypothesis (P, x0, y0).  Total in the hypothesis: a
    sensor coinciding with it sees an infinite signal coordinate, hence
    certain detection (contribution 0 if it detected, -inf otherwise)."""
    r = np.hypot(sx - x0, sy - y0)
    x = _signal_coordinate_vec(cfg, P, r)
    return float(_decision_log_terms(x, cfg.threshold_coordinate,
                                     detected).sum())


def _decision_log_terms(x: np.ndarray, t: float, detected: np.ndarray,
                        tails: bool = True) -> np.ndarray:
    """Each sensor's log-likelihood term at signal coordinates x >= 0:
    log Q1(x, t) where it detected, log(1 - Q1(x, t)) where it did not.

    Each sensor gets only the side of Q1 it uses.  A detecting sensor
    takes the log of the linear value wherever that is at least
    specfun._UFUNC_MIN: where 1 - Q1 < 1e-9, log Q1 lies in (-1e-9, 0]
    and log q is within about 1e-16 of it, far below the last place of a
    likelihood sum.  A silent sensor takes log1p(-q) wherever
    specfun._linear_logs allows it.  Every other entry comes from the log
    tails, or, with tails=False, takes an upper bound on its term
    instead: 0 for a detecting sensor, and the Rayleigh bound
    1 - Q1(x, t) = Pr[|x + n| <= t] <= Pr[|n| >= x - t] = e^(-(x-t)^2/2)
    for a silent one with x > t (0 with x <= t).
    """
    if t == 0.0:
        return np.where(detected, 0.0, -math.inf)
    q = np.asarray(specfun._marcum_q_linear(x, t), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(detected, np.log(q), np.log1p(-q))
    rest = ~np.where(detected, q >= specfun._UFUNC_MIN,
                     specfun._linear_logs(x, t, q)[1])
    if rest.any():
        x_rest, det_rest = x[rest], detected[rest]
        if tails:
            log_q, log_1mq = specfun._log_pair(x_rest, t, q[rest])
            terms[rest] = np.where(det_rest, log_q, log_1mq)
        else:
            # x - t overflows its square only next to a hypothesis
            with np.errstate(over="ignore"):
                terms[rest] = np.where(
                    det_rest, 0.0, -0.5 * np.maximum(x_rest - t, 0.0) ** 2)
    return terms


def _nll_derivatives(cfg: DetectorConfig, P: float, x0: float, y0: float,
                     sx: np.ndarray, sy: np.ndarray,
                     detected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of -_log_likelihood_arrays in (ln P, x0, y0),
    from one pass over the sensors.

    A sensor's term L = log Q1(x, t) or log(1 - Q1(x, t)) depends on the
    hypothesis only through u = ln x, with gradient
    grad u = (1/2, alpha dx/(2 r^2), alpha dy/(2 r^2)), (dx, dy) the
    sensor's offset from (x0, y0).  With sign = +1 where it detected and
    -1 where not, z = x t and dQ1/dx = t i1e(z) e^(-(x-t)^2/2),

        L_u  = sign z i1e(z) e^(-(x-t)^2/2 - L),
        L_uu = L_u - L_u^2
               + sign x^2 (t^2 (i0e(z) - i1e(z)/z) - z i1e(z)) e^(-(x-t)^2/2 - L),

    and the nll's gradient and Hessian are -sum L_u grad u and
    -sum (L_uu grad u grad u^T + L_u hess u).  Non-finite entries (a
    sensor on the hypothesis) are left for the caller to reject.
    """
    dx, dy = sx - x0, sy - y0
    r = np.hypot(dx, dy)
    x = _signal_coordinate_vec(cfg, P, r)
    t = cfg.threshold_coordinate
    log_terms = _decision_log_terms(x, t, detected)
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
        # hess u is nonzero in the position block only:
        # (k / r^2) [[dx^2 - dy^2, 2 dx dy], [2 dx dy, dy^2 - dx^2]]
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


# Signal half-power lambda = x^2/2 above which a sensor's term in
# _nll_lower_bound is its exact nll term.  At or below it the closed
# forms fall short of it by at most 0.24 for a detecting sensor and 0.04
# for a silent one at criterion 8's threshold (s = 1.6), and far less at
# the false-alarm floor, where nearly all sensors of a field sit.
_BOUND_EXACT_LAMBDA = 0.5


def _nll_lower_bound(cfg: DetectorConfig, P, x0, y0, sx: np.ndarray,
                     sy: np.ndarray, detected: np.ndarray) -> np.ndarray:
    """Lower bounds on -_log_likelihood_arrays at the hypotheses
    (P[k], x0[k], y0[k]) (arrays or scalars, broadcast together), one
    per hypothesis, from one pass over all of them.

    A sensor with lambda = x^2/2 > _BOUND_EXACT_LAMBDA contributes its
    exact term (up to the last bits of x, taken from the squared range
    rather than hypot where that does not underflow), except where that
    term needs the log tails: there it takes the bound of
    _decision_log_terms(..., tails=False), 0 for a detecting sensor and
    the Rayleigh bound (x - t)^2/2 for a silent one with x > t, so the
    screen never sums a Neumann series.  Any other takes a
    closed form from the Poisson mixture
    Q1 e^s = sum_j s^j/j! Pr[Poisson(lambda) >= j], s = t^2/2,
    whose tail probabilities lie between 1 - e^-lambda (j = 1, and 0 for
    j >= 2) and lambda^j/j!.  With p_fa = e^-s, a detecting sensor has
    Q1 <= p_fa e^(lambda s), so -log Q1 >= max(0, s (1 - lambda)), and a
    silent one has Q1 >= p_fa (1 + s (1 - e^-lambda)), which bounds
    -log(1 - Q1) from below.
    """
    P, x0, y0 = (np.asarray(v, dtype=float)[..., None] for v in (P, x0, y0))
    dx, dy = sx - x0, sy - y0
    r2 = dx * dx + dy * dy
    r_alpha = r2 ** (0.5 * cfg.alpha)
    # r2 underflows within ~1e-154 of a hypothesis; only those ranges come
    # from hypot, as the nll's do, since hypot costs 3.5x the squares
    tiny = r2 < np.finfo(float).tiny
    if tiny.any():
        r = np.hypot(np.broadcast_to(dx, r2.shape)[tiny],
                     np.broadcast_to(dy, r2.shape)[tiny])
        r_alpha[tiny] = r ** cfg.alpha
    s = cfg.tau / cfg.sigma2
    p_fa = cfg.false_alarm_probability
    # lam overflows next to a hypothesis, and at a tiny threshold the silent
    # form reaches log1p(-1); both only for near sensors, whose terms are exact
    with np.errstate(divide="ignore", over="ignore"):
        lam = 0.5 * cfg.T * P / (cfg.sigma2 * r_alpha)
        terms = np.where(detected, np.maximum(0.0, s * (1.0 - lam)),
                         -np.log1p(-p_fa * (1.0 - s * np.expm1(-lam))))
        near = lam > _BOUND_EXACT_LAMBDA
        x_near = np.sqrt(2.0 * lam[near])
    if near.any():
        terms[near] = -_decision_log_terms(
            x_near, cfg.threshold_coordinate,
            np.broadcast_to(detected, lam.shape)[near], tails=False)
    return terms.sum(axis=-1)


def log_likelihood(cfg: DetectorConfig, theta: TargetParams,
                   decisions: Decisions) -> float:
    """Sum of log P_D over detecting sensors plus log(1 - P_D) over the
    rest, under emitter hypothesis theta.  Always <= 0 (0 for no sensors)."""
    return _log_likelihood_arrays(cfg, theta.P, theta.x, theta.y,
                                  decisions.sx, decisions.sy,
                                  decisions.detected)
