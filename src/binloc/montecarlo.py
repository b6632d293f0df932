"""Monte-Carlo validation harness.

Samples spatial Poisson sensor fields around a target, draws the binary
detector decisions, runs maximum-likelihood fusion estimation of
(P, x_T, y_T), and aggregates empirical MSE against the analytic bounds.

The infinite sensor plane is truncated to a disk of radius region_radius
around the true target: beyond the default radius the detection
probability is within 1e-6 of the false-alarm floor e^(-tau/sigma2), so
the discarded sensors carry essentially no information about the target.
The default radius can be very large for small thresholds; campaign
configurations may override it explicitly (the information loss is
measured by the far-field excess diagnostic, not silently assumed).

Randomness uses counter-based Philox streams keyed by
(master_seed, trial_index, purpose), so every trial is an independent,
individually reproducible substream and results do not depend on
execution order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import specfun
from .detection import (
    Decisions,
    DetectorConfig,
    TargetParams,
    _positive,
    detection_probability,
    detection_probability_array,
    _log_likelihood_arrays,
    _nll_derivatives,
    _nll_lower_bound,
    _signal_coordinate_vec,
)
from .fisher import FieldConfig

__all__ = [
    "SimConfig",
    "TrialResult",
    "MseReport",
    "NoDetections",
    "AllTrialsFailed",
    "default_region_radius",
    "far_field_excess",
    "sample_field",
    "sample_decisions",
    "nearest_distance_samples",
    "initial_guess",
    "ml_estimate",
    "run_campaign",
    "mse_report",
]

# far-field truncation target for the default region radius
_FAR_FIELD_DELTA = 1e-6

# RNG substream purposes (low 3 bits of the Philox counter key)
_PURPOSE_FIELD = 1
_PURPOSE_DECISIONS = 2
_PURPOSE_RMIN = 3

# optimizer knobs
_GRID_POINTS = 9
_GRID_POWER_FACTORS = (0.25, 1.0, 4.0)
# a damped Newton step below this in every coordinate ends the fit: the
# nll no longer resolves such moves
_NEWTON_STEP_TOL = 1e-9
# damped Newton steps (accepted, rejected or unfactorable) after which the
# fit stops with converged=False; criterion 8's 500 fits take 26 in the
# median and at most 115
_FIT_MAX_STEPS = 500
_POWER_BRACKET = (1e-3, 1e3)
# the initializer's root find in log-power: scipy.optimize.brentq's
# rtol (4 eps) and step limit, at xtol 1e-10
_BRENT_XTOL = 1e-10
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100
# relative slack of the grid guard's screen: a candidate is skipped only
# when its nll lower bound beats the running best by more than this, far
# above the ~1e-12 rounding of a sum of some 600 sensor terms
_SCREEN_MARGIN = 1e-9
# Largest expected sensor count per trial.  A trial peaks at about 0.55 KB
# a sensor (137 MB at 1e5 expected sensors, 301 MB at 4e5), so one at the
# cap stays near 0.6 GB; far denser fields exhaust memory or rng.poisson.
_MAX_EXPECTED_SENSORS = 1e6
# log-power beyond which the objective returns +inf (|ln P| > 30 means
# P outside [1e-13, 1e13]; no physical fit lives there)
_LOG_POWER_WALL = 30.0


class NoDetections(RuntimeError):
    """No sensor detected the target; the location is unidentifiable."""


class AllTrialsFailed(RuntimeError):
    """No trial in the campaign produced a converged estimate."""


@dataclass(frozen=True)
class SimConfig:
    """A full simulation campaign description; every output of the
    harness is a pure function of this object."""

    field: FieldConfig
    detector: DetectorConfig
    truth: TargetParams
    trials: int
    region_radius: float | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.region_radius is not None and not (self.region_radius > 0.0):
            raise ValueError(
                f"region_radius must be > 0, got {self.region_radius!r}")
        if not (0 <= int(self.master_seed) < 2 ** 64):
            raise ValueError("master_seed must fit in 64 bits")
        n = self.expected_sensors
        if not n <= _MAX_EXPECTED_SENSORS:
            raise ValueError(
                f"rho and region_radius give {n:.6g} expected sensors per "
                f"trial; at most {_MAX_EXPECTED_SENSORS:,.0f} are supported")

    @property
    def radius(self) -> float:
        """Effective truncation radius (explicit, or the far-field
        default for this detector/power)."""
        if self.region_radius is not None:
            return float(self.region_radius)
        return default_region_radius(self.detector, self.truth.P)

    @property
    def expected_sensors(self) -> float:
        radius = self.radius
        return self.field.rho * math.pi * radius * radius


@dataclass(frozen=True)
class TrialResult:
    theta_hat: TargetParams
    n_sensors: int
    n_detections: int
    converged: bool
    neg_log_lik: float

    def __post_init__(self) -> None:
        if self.n_detections > self.n_sensors:
            raise ValueError("n_detections cannot exceed n_sensors")


@dataclass(frozen=True)
class MseReport:
    mse_P: float
    mse_x: float
    mse_y: float
    bias_P: float
    bias_x: float
    bias_y: float
    n_trials: int
    n_converged: int
    n_failed: int


def default_region_radius(cfg: DetectorConfig, P: float) -> float:
    """Radius where the detection probability exceeds the false-alarm
    floor by only delta = _FAR_FIELD_DELTA.  From the small-x expansion
    P_D - e^(-t^2/2) ~ (x^2 t^2 / 4) e^(-t^2/2), the excess hits delta at
    x_delta^2 = 4 delta e^(t^2/2) / t^2, then r = (T P / (sigma2 x^2))^(1/alpha).
    """
    P = _positive("P", P)
    t = cfg.threshold_coordinate
    try:
        growth = math.exp(0.5 * t * t)
    except OverflowError:
        raise ValueError(
            f"tau and sigma2 give tau/sigma2 = {0.5 * t * t:.6g}, too large "
            f"for the default region_radius (e^(tau/sigma2) overflows); "
            f"set region_radius") from None
    x_delta_sq = 4.0 * _FAR_FIELD_DELTA * growth / (t * t)
    return (cfg.T * P / (cfg.sigma2 * x_delta_sq)) ** (1.0 / cfg.alpha)


def far_field_excess(cfg: DetectorConfig, P: float, radius: float) -> float:
    """P_D(radius) - e^(-tau/sigma2): how far above the false-alarm floor
    the detection probability still is at the truncation boundary."""
    return (detection_probability(cfg, P, radius)
            - cfg.false_alarm_probability)


def _substream(master_seed: int, trial_index: int,
               purpose: int) -> np.random.Generator:
    key0 = np.uint64(int(master_seed) & 0xFFFFFFFFFFFFFFFF)
    key1 = np.uint64((int(trial_index) << 3) | purpose)
    return np.random.Generator(np.random.Philox(key=[key0, key1]))


def sample_field(cfg: SimConfig, trial_index: int) -> np.ndarray:
    """Sensor positions for one trial: count ~ Poisson(rho pi R^2),
    positions i.i.d. uniform on the disk of radius R centered at the true
    target.  Returns an (n, 2) array.  Sensors falling exactly on the
    target (possible in floating point) are redrawn."""
    rng = _substream(cfg.master_seed, trial_index, _PURPOSE_FIELD)
    radius = cfg.radius
    n = int(rng.poisson(cfg.expected_sensors))
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    while True:
        bad = r == 0.0
        if not bad.any():
            break
        r[bad] = radius * np.sqrt(rng.random(int(bad.sum())))
        theta[bad] = 2.0 * math.pi * rng.random(int(bad.sum()))
    out = np.empty((n, 2))
    out[:, 0] = cfg.truth.x + r * np.cos(theta)
    out[:, 1] = cfg.truth.y + r * np.sin(theta)
    return out


def sample_decisions(cfg: SimConfig, sensors: np.ndarray,
                     trial_index: int) -> Decisions:
    """Independent Bernoulli(P_D(r_i)) decisions for each sensor of an
    (n, 2) position array (an empty field gives empty arrays)."""
    sensors = np.asarray(sensors, dtype=float)
    if sensors.size == 0:
        sensors = sensors.reshape(0, 2)
    rng = _substream(cfg.master_seed, trial_index, _PURPOSE_DECISIONS)
    r = np.hypot(sensors[:, 0] - cfg.truth.x, sensors[:, 1] - cfg.truth.y)
    pd = detection_probability_array(cfg.detector, cfg.truth.P, r)
    detected = rng.random(len(r)) < pd
    return Decisions(sx=sensors[:, 0], sy=sensors[:, 1], detected=detected)


def nearest_distance_samples(field: FieldConfig, n_trials: int,
                             master_seed: int = 0,
                             region_radius: float = 50.0) -> np.ndarray:
    """Distances from the target to its nearest sensor over n_trials
    independent fields, sampled in bulk.

    Only radial coordinates matter for this statistic (the disk is
    centered on the target), so the sampler draws Poisson counts and
    uniform-disk radii without angles.  Fields with zero sensors (already
    negligible at the default radius) are excluded from the output.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if not (math.isfinite(region_radius) and region_radius > 0.0):
        raise ValueError(
            f"region_radius must be finite and > 0, got {region_radius!r}")
    rng = _substream(master_seed, 0, _PURPOSE_RMIN)
    lam = field.rho * math.pi * region_radius ** 2
    counts = rng.poisson(lam, size=n_trials)
    total = int(counts.sum())
    radii = region_radius * np.sqrt(rng.random(total))
    nonzero = counts > 0
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    mins = np.minimum.reduceat(radii, offsets[nonzero])
    return mins


def initial_guess(cfg: DetectorConfig, decisions: Decisions) -> TargetParams:
    """Detection-centroid position with power chosen so the expected
    number of detections over this very field matches the observed count
    (monotone in P; Brent's root find in log-power)."""
    sx, sy, detected = decisions.sx, decisions.sy, decisions.detected
    if not detected.any():
        raise NoDetections("cannot build an initial guess with no detections")
    cx = float(sx[detected].mean())
    cy = float(sy[detected].mean())
    r = np.maximum(np.hypot(sx - cx, sy - cy), 1e-12)
    with np.errstate(over="ignore"):
        r_alpha = r ** cfg.alpha
    t = cfg.threshold_coordinate
    n_det = int(detected.sum())

    def excess(log_p: float) -> float:
        x = _signal_coordinate_vec(cfg, math.exp(log_p), r, r_alpha)
        return float(specfun.marcum_q_array(x, t).sum()) - n_det

    lo, hi = math.log(_POWER_BRACKET[0]), math.log(_POWER_BRACKET[1])
    f_lo = excess(lo)
    if f_lo >= 0.0:
        p0 = _POWER_BRACKET[0]
    elif (f_hi := excess(hi)) <= 0.0:
        p0 = _POWER_BRACKET[1]
    else:
        p0 = math.exp(_brentq(excess, lo, hi, f_lo, f_hi))
    return TargetParams(P=p0, x=cx, y=cy)


def _brentq(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in [a, b] by the steps of scipy's brentq.c, at
    `scipy.optimize.brentq`'s tolerances with xtol = 1e-10, given
    fa = f(a) and fb = f(b), nonzero and of opposite signs: f is
    evaluated only at the points brentq visits after its two ends, so
    the root is the same float.  Raises ValueError on a NaN value and
    RuntimeError after _BRENT_MAXITER steps, as brentq does."""
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ValueError(f"f(a) = {fa!r} and f(b) = {fb!r} must be nonzero "
                         "and of opposite signs")
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # an underflowed divisor: C's quotient is inf or NaN,
                # which fails the test below and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"f({xcur!r}) is NaN; the root find cannot "
                             "continue")
    raise RuntimeError(f"root find failed to converge after "
                       f"{_BRENT_MAXITER} steps, value is {xcur!r}")


def ml_estimate(cfg: DetectorConfig, decisions: Decisions,
                init: TargetParams) -> TrialResult:
    """Maximize the decision-sequence likelihood over (P, x_T, y_T), in
    (ln P, x, y) so that positivity of P is structural.  Reports the exact
    nll at the returned point, never worse than the initializer's.

    1. Grid guard: 9 x 9 positions around the detection centroid at 0.25,
       1 and 4 times the initializer's power.  Lower bounds on their nlls
       take one range pass per column of 27 candidates (one x offset,
       nine y offsets, three powers) and a table per threshold.  Best
       first, in ascending bound order, they are evaluated until a bound
       shows that none of the rest can win; among equal nlls the lowest
       index wins: the start of an exhaustive loop in index order.
    2. Marquardt-damped Newton steps from the best candidate
       (_damped_newton).  A fit out of steps reports converged=False.
    In both stages a candidate's nll pass is given the nll it must not
    exceed (the running best, the current iterate's) as a ceiling, and
    stops where the tail-free bound of _log_likelihood_arrays already
    exceeds it: the candidate's exact nll would have lost too.
    3. The collapsed supremum: a likelihood with no interior maximum peaks
       as P -> 0 with the emitter on a detecting sensor, which the
       log-power wall (P = e^-30) attains to double precision, with
       converged=True.  With one detection it is the nll's global lower
       bound, returned at once.  A fit that starts at or above the power
       floor (1e-3) and steps below it stops; it returns the supremum on
       the detecting sensor nearest its iterate unless that is worse than
       the iterate, and else reruns stage 2 without the stop.
    4. Where every sensor detected, the likelihood rises with P at every
       position, so the fit returns it at the other wall (P = e^30) at
       the initializer's position, converged.
    """
    sx, sy, detected = decisions.sx, decisions.sy, decisions.detected
    n_det = int(detected.sum())
    if n_det == 0:
        raise NoDetections("maximum-likelihood fit requires >= 1 detection")

    # the latest nll pass's iterate and pieces, reused at accepted iterates
    last = [None, None]

    def nll(theta_log: np.ndarray, ceiling: float = math.inf) -> float:
        # a pass that shows the nll above the ceiling may stop there and
        # return a bound above it (_log_likelihood_arrays)
        log_p, x0, y0 = theta_log
        if not (abs(log_p) <= _LOG_POWER_WALL and math.isfinite(x0)
                and math.isfinite(y0)):
            # powers this extreme are never plausible fits; walling them
            # off (and any non-finite iterate) keeps the steps away from
            # degenerate likelihoods
            return math.inf
        last[:] = theta_log, []
        # 0.0 - ll, not -ll: a certain outcome (ll = 0) has nll 0, not -0
        val = 0.0 - _log_likelihood_arrays(cfg, math.exp(log_p), x0, y0,
                                           sx, sy, detected, pieces=last[1],
                                           ceiling=-ceiling)
        return val if math.isfinite(val) else math.inf

    def derivatives(theta_log: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pieces = last[1] if last[0] is theta_log else None
        return _nll_derivatives(cfg, math.exp(theta_log[0]), theta_log[1],
                                theta_log[2], sx, sy, detected, pieces=pieces)

    det_x, det_y = sx[detected], sy[detected]

    def wall(log_p: float, x0: float, y0: float) -> tuple[np.ndarray, float]:
        cand = np.array([log_p, x0, y0])
        return cand, nll(cand)

    def collapsed(x0: float, y0: float) -> tuple[np.ndarray, float]:
        # the supremum at the low log-power wall, on the detecting sensor
        # nearest (x0, y0)
        j = int(np.argmin(np.hypot(det_x - x0, det_y - y0)))
        return wall(-_LOG_POWER_WALL, det_x[j], det_y[j])

    converged = True
    if n_det == 1:
        # the supremum attains the global lower bound from every start
        best, best_val = collapsed(det_x[0], det_y[0])
    elif n_det == len(decisions):
        best, best_val = wall(_LOG_POWER_WALL, init.x, init.y)
    else:
        best = np.array([math.log(init.P), init.x, init.y])
        best_val = nll(best)

        # the grid is anchored at the detection centroid (the only part
        # of the plane the likelihood favors) and spans the centroid's
        # own sampling uncertainty (per-coordinate standard error ~
        # std(detecting coords)/sqrt(n)); a wider net would hunt the whole
        # region and lock onto chance clusters of false alarms far from
        # any plausible position
        cen_x, cen_y = float(det_x.mean()), float(det_y.mean())
        span = (3.0 * max(float(det_x.std()), float(det_y.std()))
                / math.sqrt(n_det)) or 2.0
        offs = np.linspace(-span, span, _GRID_POINTS)
        log_powers = [math.log(init.P * fac) for fac in _GRID_POWER_FACTORS]
        powers = np.array([math.exp(lp) for lp in log_powers])
        # one bound pass per column (one x offset, every y offset and
        # power) shares its ranges between the powers; bounds[i, j, k] is
        # that of power i, x offset j and y offset k, and index order is
        # the order of its flat index
        bounds = np.stack([
            _nll_lower_bound(cfg, powers[:, None], cen_x + dx, cen_y + offs,
                             sx, sy, detected) for dx in offs], axis=1).ravel()
        # best first: once a bound is above the running best, every later
        # one is too, and none of them can win or tie.  Among equal nlls
        # the lowest index wins, as index order's strict test picks it;
        # the start (index -1) wins every tie
        best_i = -1
        for i in np.argsort(bounds, kind="stable"):
            if bounds[i] > best_val + _SCREEN_MARGIN * (1.0 + abs(best_val)):
                break
            j, k = divmod(int(i), _GRID_POINTS)
            p, j = divmod(j, _GRID_POINTS)
            cand = np.array([log_powers[p], cen_x + offs[j], cen_y + offs[k]])
            val = nll(cand, best_val)
            if val < best_val or (val == best_val and i < best_i):
                best, best_val, best_i = cand, val, i

        # a fit that starts below the floor has not collapsed through it
        log_p_floor = math.log(_POWER_BRACKET[0])
        stop = log_p_floor if best[0] >= log_p_floor else -math.inf
        start, start_val = best, best_val
        best, best_val, converged = _damped_newton(nll, derivatives, start,
                                                   start_val, stop)
        if best[0] < stop:
            sup, sup_val = collapsed(best[1], best[2])
            if sup_val <= best_val:
                best, best_val, converged = sup, sup_val, True
            else:
                best, best_val, converged = _damped_newton(
                    nll, derivatives, start, start_val, -math.inf)
    theta = TargetParams(P=math.exp(best[0]), x=float(best[1]),
                         y=float(best[2]))
    return TrialResult(theta_hat=theta, n_sensors=len(decisions),
                       n_detections=n_det, converged=converged,
                       neg_log_lik=best_val)


def _damped_newton(nll, derivatives, theta: np.ndarray, val: float,
                   log_p_stop: float) -> tuple[np.ndarray, float, bool]:
    """Marquardt-damped Newton steps on the nll from theta (nll val).
    Each step solves (H + mu I) s = -g by LAPACK's Cholesky (potrf and
    potrs).  mu starts at 0; it grows fourfold, to at least 1e-6
    max|diag H|, where the factorisation fails, the step is not finite or
    it raises the nll, and shrinks eightfold where a step is accepted, so
    no accepted step raises the nll.  Returns the last accepted iterate,
    its nll and whether the fit converged: it does at a step below
    _NEWTON_STEP_TOL in every coordinate, at an iterate of nll 0 (the
    nll's global lower bound) and at the first iterate below log_p_stop;
    it does not after _FIT_MAX_STEPS steps."""
    eye = np.eye(len(theta))
    mu = 0.0
    grad = hess = None
    for _ in range(_FIT_MAX_STEPS):
        if val == 0.0 or theta[0] < log_p_stop:
            return theta, val, True
        if grad is None:
            grad, hess = derivatives(theta)
        factor, info = linalg.lapack.dpotrf(hess + mu * eye, clean=False)
        step = -linalg.lapack.dpotrs(factor, grad)[0] if info == 0 else None
        if step is not None and np.isfinite(step).all():
            cand = theta + step
            cand_val = nll(cand, val)
            if cand_val <= val:
                theta, val, mu, grad = cand, cand_val, mu / 8.0, None
            if np.max(np.abs(step)) < _NEWTON_STEP_TOL:
                return theta, val, True
            if grad is None:
                continue
        mu = max(4.0 * mu, 1e-6 * float(np.max(np.abs(np.diag(hess)))))
    return theta, val, False


def run_campaign(cfg: SimConfig) -> list[TrialResult]:
    """Run all trials.  Trials with zero detections are recorded as
    unconverged results (anchored at the all-sensor centroid with a
    floor-level power), never silently dropped."""
    results = []
    for trial in range(cfg.trials):
        sensors = sample_field(cfg, trial)
        decisions = sample_decisions(cfg, sensors, trial)
        if not decisions.detected.any():
            if len(decisions):
                cx = float(decisions.sx.mean())
                cy = float(decisions.sy.mean())
            else:
                cx = cy = 0.0
            placeholder = TargetParams(P=_POWER_BRACKET[0], x=cx, y=cy)
            results.append(TrialResult(
                theta_hat=placeholder, n_sensors=len(decisions),
                n_detections=0, converged=False,
                neg_log_lik=math.inf))
            continue
        init = initial_guess(cfg.detector, decisions)
        results.append(ml_estimate(cfg.detector, decisions, init))
    return results


def mse_report(results: list[TrialResult], truth: TargetParams) -> MseReport:
    """Sample MSE and bias of the converged estimates; failed trials are
    counted, not dropped."""
    if not results:
        raise AllTrialsFailed("empty result list")
    conv = [res for res in results if res.converged]
    if not conv:
        raise AllTrialsFailed(
            f"none of the {len(results)} trials converged")
    dp = np.array([res.theta_hat.P - truth.P for res in conv])
    dx = np.array([res.theta_hat.x - truth.x for res in conv])
    dy = np.array([res.theta_hat.y - truth.y for res in conv])
    # an estimate past ~1e154 squares to inf, the honest double
    with np.errstate(over="ignore"):
        return MseReport(
            mse_P=float(np.mean(dp ** 2)),
            mse_x=float(np.mean(dx ** 2)),
            mse_y=float(np.mean(dy ** 2)),
            bias_P=float(dp.mean()),
            bias_x=float(dx.mean()),
            bias_y=float(dy.mean()),
            n_trials=len(results),
            n_converged=len(conv),
            n_failed=len(results) - len(conv),
        )


def __getattr__(name: str):
    # perfbench's hook table still reads `montecarlo.optimize`; importing
    # scipy.optimize only on that read keeps it out of every other process
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
