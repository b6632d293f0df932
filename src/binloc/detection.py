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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# Detection probabilities this close to 0 or 1 get their logarithms from
# the dedicated tail routines instead of log(q) / log1p(-q).
_EDGE_LO = 1e-250
_EDGE_HI = 1e-11


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
    """x = sqrt(T P / (sigma2 r^alpha)) for r > 0."""
    P = _positive("P", P)
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be finite and > 0, got {r!r}")
    return math.sqrt(cfg.T * P / (cfg.sigma2 * r ** cfg.alpha))


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

def _capped(x: np.ndarray, t: float) -> np.ndarray:
    """Entries past the log tails' half-argument cap (x = inf among
    them), which take the scalar asymptotic routines."""
    return 0.5 * np.maximum(x, t) ** 2 > specfun._ASYMPTOTIC_HALF_ARG


def _marcum_q_and_deep_logs(x: np.ndarray, t: float):
    """(q, deep, log_q_deep): Q1(x_i, t) for an array of signal
    coordinates, equal to specfun.marcum_q(x_i, t) entry by entry.

    One ufunc call answers every entry it can.  The entries below its
    floor and inside the cap (deep marks them) take log Q from one call
    of the Neumann-series tails, returned as log_q_deep, and q = exp of
    it; only the capped ones (x = inf for a sensor on the hypothesis,
    x^2 beyond ~9.2e18) are taken one by one.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(specfun._marcum_q_ufunc(x, t), dtype=float)
    deep = ~(q >= specfun._UFUNC_MIN)
    log_q_deep = np.empty(0)
    if deep.any():
        capped = deep & _capped(x, t)
        q[capped] = [specfun.marcum_q(float(v), t) for v in x[capped]]
        deep &= ~capped
        if deep.any():
            log_q_deep = specfun._log_tails(x[deep], t)[0]
            # math.exp, as marcum_q takes it: np.exp may differ in the
            # last bit
            q[deep] = [math.exp(v) for v in log_q_deep]
    return q, deep, log_q_deep


def _marcum_q_vec(x: np.ndarray, t: float) -> np.ndarray:
    """Q1(x_i, t) for an array of signal coordinates, equal to
    specfun.marcum_q(x_i, t) entry by entry."""
    return _marcum_q_and_deep_logs(x, t)[0]


def _log_q_pair_vec(x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(log P_D, log(1 - P_D)) element-wise, safe at both edges: on an
    edge entry the small side equals specfun.log_marcum_q(x_i, t) or
    specfun.log1m_marcum_q(x_i, t).  Entries below the ufunc's floor
    keep the log Q their linear value came from; the high-edge entries
    take log(1 - Q) from one call of the Neumann-series tails; only
    those past the half-argument cap (x = inf among them) are taken one
    by one."""
    q, deep, log_q_deep = _marcum_q_and_deep_logs(x, t)
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
        log_1mq = np.log1p(-q)
    log_q[deep] = log_q_deep
    capped = _capped(x, t)
    hi = (1.0 - q) < _EDGE_HI
    series = hi & ~capped
    if series.any():
        log_1mq[series] = specfun._log_tails(x[series], t)[1]
    for idx in np.flatnonzero((q < _EDGE_LO) & capped):
        log_q.flat[idx] = specfun.log_marcum_q(float(x.flat[idx]), t)
    for idx in np.flatnonzero(hi & capped):
        log_1mq.flat[idx] = specfun.log1m_marcum_q(float(x.flat[idx]), t)
    return log_q, log_1mq


def detection_probability_array(cfg: DetectorConfig, P: float,
                                r: np.ndarray) -> np.ndarray:
    """Vectorized P_D over an array of ranges (all > 0)."""
    P = _positive("P", P)
    r = np.asarray(r, dtype=float)
    if r.size and (not np.all(np.isfinite(r)) or np.any(r <= 0.0)):
        raise ValueError("all ranges must be finite and > 0")
    x = _signal_coordinate_vec(cfg, P, r)
    return _marcum_q_vec(x, cfg.threshold_coordinate)


def _signal_coordinate_vec(cfg: DetectorConfig, P: float,
                           r: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
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
    log_q, log_1mq = _log_q_pair_vec(x, cfg.threshold_coordinate)
    return float(np.where(detected, log_q, log_1mq).sum())


def log_likelihood(cfg: DetectorConfig, theta: TargetParams,
                   decisions: Decisions) -> float:
    """Sum of log P_D over detecting sensors plus log(1 - P_D) over the
    rest, under emitter hypothesis theta.  Always <= 0 (0 for no sensors)."""
    return _log_likelihood_arrays(cfg, theta.P, theta.x, theta.y,
                                  decisions.sx, decisions.sy,
                                  decisions.detected)
