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
the side of Q1 its decision uses, log P_D for a detecting sensor and
log(1 - P_D) for a silent one; specfun._log_sides decides how each side
is computed.
The ML fit's Newton steps take the gradient and Hessian of the summed
terms from the per-sensor arrays of the value pass at the same iterate.
"""

from __future__ import annotations

import functools
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


def _signal_coordinate_vec(cfg: DetectorConfig, P: float, r: np.ndarray,
                           r_alpha: np.ndarray | None = None) -> np.ndarray:
    # inf (certain detection) where r = 0 or T P / r^alpha overflows, 0
    # where r^alpha overflows, NaN where T P and sigma2 r^alpha both do;
    # r_alpha, where given, is r ** alpha, powered once for many P
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_alpha = r ** cfg.alpha if r_alpha is None else r_alpha
        return np.sqrt(cfg.T * P / (cfg.sigma2 * r_alpha))


def _log_likelihood_arrays(cfg: DetectorConfig, P: float, x0: float, y0: float,
                           sx: np.ndarray, sy: np.ndarray,
                           detected: np.ndarray, pieces=None,
                           ceiling: float = -math.inf) -> float:
    """Log-likelihood of binary decisions at sensor positions (sx, sy)
    for emitter hypothesis (P, x0, y0).  Total in the hypothesis: a
    sensor coinciding with it sees an infinite signal coordinate, hence
    certain detection (contribution 0 if it detected, -inf otherwise).

    Given a ceiling, a pass with terms that need the log tails first
    sums its terms with tail-free upper bounds in their place
    (specfun._log_sides); where that sum is below the ceiling it is
    returned: at least the exact log-likelihood, and below the ceiling
    as the exact one is.  Any other pass returns the bits of a pass
    without a ceiling.  A list given as pieces receives
    (dx, dy, r, x, log terms) per sensor, unless the sum is below the
    ceiling."""
    dx, dy = sx - x0, sy - y0
    r = np.hypot(dx, dy)
    x = _signal_coordinate_vec(cfg, P, r)
    log_terms = specfun._log_sides(x, cfg.threshold_coordinate, detected,
                                   ceiling)
    total = float(log_terms.sum())
    if pieces is not None and not total < ceiling:
        pieces[:] = dx, dy, r, x, log_terms
    return total


def _nll_derivatives(cfg: DetectorConfig, P: float, x0: float, y0: float,
                     sx: np.ndarray, sy: np.ndarray, detected: np.ndarray,
                     sign: np.ndarray,
                     pieces=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of -_log_likelihood_arrays in (ln P, x0, y0),
    from one pass over the sensors or from the pieces of such a pass here.
    sign is np.where(detected, 1.0, -1.0), made once for many passes over
    one field.

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
    if not pieces:
        pieces = []
        _log_likelihood_arrays(cfg, P, x0, y0, sx, sy, detected, pieces)
    dx, dy, r, x, log_terms = pieces
    t = cfg.threshold_coordinate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = x * t
        i1 = special.i1e(z)
        w = sign * np.exp(-0.5 * (x - t) ** 2 - log_terms)
        l_u = z * i1 * w
        l_uu = (l_u - l_u * l_u
                + x * x * (t * t * (special.i0e(z) - i1 / z) - z * i1) * w)
        k = 0.5 * cfg.alpha / (r * r)
        grad_u = np.empty((3, x.size))
        grad_u[0] = 0.5
        np.multiply(k, dx, out=grad_u[1])
        np.multiply(k, dy, out=grad_u[2])
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


# _nll_term_table's nodes lambda_j = exp(MIN + j STEP), from 1e-6 to 1e2
_TABLE_LOG_MIN, _TABLE_LOG_STEP = math.log(1e-6), 1e-3
_TABLE_NODES = round(math.log(1e8) / _TABLE_LOG_STEP) + 1


@functools.lru_cache(maxsize=8)
def _nll_term_table(t: float) -> np.ndarray:
    """-specfun._log_sides(x, t, upper, ceiling=inf), tail-free and at
    most the exact nll terms, at lambda = x^2/2 = 0, lambda_0 ..
    lambda_(N-1) for a silent sensor (entries 0 .. N, N = _TABLE_NODES),
    then lambda_0 .. lambda_(N-1) and inf for a detecting one.

    Past specfun's switch from log1p(-q) to the log tails (1 - Q1 = 1e-9)
    a silent term can lie below the log1p(-q) of a node just before it,
    where 1 - q keeps only ~1e-7 of its accuracy, so a silent node whose
    slot reaches past the switch takes its Rayleigh bound (x - t)^2/2
    where that is lower."""
    lam = np.exp(_TABLE_LOG_MIN + _TABLE_LOG_STEP * np.arange(_TABLE_NODES))
    lam = np.concatenate([[0.0], lam, lam, [math.inf]])
    upper = np.arange(lam.size) > _TABLE_NODES
    a = np.sqrt(2.0 * lam)
    table = -specfun._log_sides(a, t, upper, math.inf)
    a = a[:_TABLE_NODES + 1]
    tails = ~specfun._linear_log_complement(a, t,
                                            specfun._marcum_q_linear(a, t))
    ends = np.flatnonzero(np.append(tails[1:], True) & ~tails)
    table[ends] = np.minimum(table[ends],
                             0.5 * np.maximum(a[ends] - t, 0.0) ** 2)
    table.flags.writeable = False   # one array serves every caller
    return table


def _table_offsets(detected: np.ndarray) -> np.ndarray:
    """Where each sensor's entries start in _nll_term_table: the silent
    block at 0, the detecting one at _TABLE_NODES + 1."""
    return np.where(detected, _TABLE_NODES + 1, 0)


def _nll_lower_bound(cfg: DetectorConfig, P, x0, y0, sx: np.ndarray,
                     sy: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Lower bounds on -_log_likelihood_arrays, one per hypothesis
    (P[k], x0[k], y0[k]) (arrays or scalars, broadcast together), for
    sensors at (sx, sy) whose decisions give offsets =
    _table_offsets(detected), made once for many calls on one field.

    A sensor's term depends on the hypothesis only through lambda = x^2/2
    = T P / (2 sigma2 r^alpha), monotonely: -log Q1(x, t) falls as lambda
    grows and -log(1 - Q1(x, t)) rises.  Its slot k, lambda_(k-1) <=
    lambda < lambda_k (lambda_-1 = 0, lambda_N = inf), is floored from
    ln lambda = ln(T P / (2 sigma2)) - (alpha/2) ln r^2, and it takes the
    _nll_term_table entry at the slot's end where its term is lowest:
    lambda_k if it detected, lambda_(k-1) if not; an entry is at most the
    exact term at its node, so at most the term at lambda.  Rounding moves
    ln lambda and the nodes by ulps; a sensor that close to a node may
    take the next slot, which moves its term far less than the screen's
    1e-9 relative margin (_SCREEN_MARGIN).
    """
    P, x0, y0 = (np.asarray(v, dtype=float)[..., None] for v in (P, x0, y0))
    dx, dy = sx - x0, sy - y0
    # ln lambda is -inf at P = 0 or where r2 overflows, inf on a hypothesis;
    # ln r2 from hypot, as the nll's r, where the squares underflow
    with np.errstate(divide="ignore", over="ignore"):
        r2 = dx * dx + dy * dy
        log_r2 = np.log(r2)
        tiny = r2 < np.finfo(float).tiny
        if tiny.any():
            dx, dy = np.broadcast_arrays(dx, dy)
            log_r2[tiny] = 2.0 * np.log(np.hypot(dx[tiny], dy[tiny]))
        log_c = math.log(cfg.T) - math.log(2.0 * cfg.sigma2) - _TABLE_LOG_MIN
        slots = ((np.log(P) + log_c) / _TABLE_LOG_STEP + 1.0    # k + 1
                 - (0.5 * cfg.alpha / _TABLE_LOG_STEP) * log_r2)
    index = np.clip(slots, 0.0, _TABLE_NODES, out=slots).astype(np.intp)
    index += offsets
    return _nll_term_table(cfg.threshold_coordinate).take(index).sum(axis=-1)


def log_likelihood(cfg: DetectorConfig, theta: TargetParams,
                   decisions: Decisions) -> float:
    """Sum of log P_D over detecting sensors plus log(1 - P_D) over the
    rest, under emitter hypothesis theta.  Always <= 0 (0 for no sensors)."""
    return _log_likelihood_arrays(cfg, theta.P, theta.x, theta.y,
                                  decisions.sx, decisions.sy,
                                  decisions.detected)
