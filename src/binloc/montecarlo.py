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
from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize

from .detection import (
    Decisions,
    DetectorConfig,
    TargetParams,
    detection_probability,
    detection_probability_array,
    _log_likelihood_arrays,
    _nll_derivatives,
    _nll_lower_bound,
)
from .fisher import FieldConfig

__all__ = [
    "SimConfig",
    "TrialResult",
    "MseReport",
    "NoDetections",
    "OptimizerDiverged",
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
_NM_MAX_ITER = 2000
_NM_XATOL = 1e-6
_NM_FATOL = 1e-9
# the simplex hands over to Newton steps once it is this small; its
# iterates up to then are a prefix of a full-tolerance run's.  A looser
# hand-off may leave the simplex in another basin than the full run's;
# recheck the finished nll against the full simplex before loosening
_NM_HANDOFF_XATOL = 1e-2
_NM_HANDOFF_FATOL = 1e-5
# from the hand-off a finish takes three or four steps
_NEWTON_MAX_ITER = 20
# a Newton step below this in every coordinate ends the finish: the nll
# no longer resolves such moves
_NEWTON_STEP_TOL = 1e-9
_POWER_BRACKET = (1e-3, 1e3)
# relative slack of the grid guard's screen: a candidate is skipped only
# when its nll lower bound beats the running best by more than this, far
# above the ~1e-12 rounding of a sum of some 600 sensor terms
_SCREEN_MARGIN = 1e-9
# log-power beyond which the objective returns +inf (|ln P| > 30 means
# P outside [1e-13, 1e13]; no physical fit lives there)
_LOG_POWER_WALL = 30.0


class NoDetections(RuntimeError):
    """No sensor detected the target; the location is unidentifiable."""


class OptimizerDiverged(RuntimeError):
    """The optimizer state became non-finite."""


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

    @property
    def radius(self) -> float:
        """Effective truncation radius (explicit, or the far-field
        default for this detector/power)."""
        if self.region_radius is not None:
            return float(self.region_radius)
        return default_region_radius(self.detector, self.truth.P)

    @property
    def expected_sensors(self) -> float:
        return self.field.rho * math.pi * self.radius ** 2


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


def default_region_radius(cfg: DetectorConfig, P: float,
                          delta: float = _FAR_FIELD_DELTA) -> float:
    """Radius where the detection probability exceeds the false-alarm
    floor by only delta.  From the small-x expansion
    P_D - e^(-t^2/2) ~ (x^2 t^2 / 4) e^(-t^2/2), the excess hits delta at
    x_delta^2 = 4 delta e^(t^2/2) / t^2, then r = (T P / (sigma2 x^2))^(1/alpha).
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be > 0, got {delta!r}")
    t = cfg.threshold_coordinate
    x_delta_sq = 4.0 * delta * math.exp(0.5 * t * t) / (t * t)
    return (cfg.T * float(P) / (cfg.sigma2 * x_delta_sq)) ** (1.0 / cfg.alpha)


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
    n = int(rng.poisson(cfg.field.rho * math.pi * radius * radius))
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
    (monotone in P; bisected in log-power)."""
    sx, sy, detected = decisions.sx, decisions.sy, decisions.detected
    if not detected.any():
        raise NoDetections("cannot build an initial guess with no detections")
    cx = float(sx[detected].mean())
    cy = float(sy[detected].mean())
    r = np.hypot(sx - cx, sy - cy)
    r = np.maximum(r, 1e-12)
    n_det = int(detected.sum())

    def excess(log_p: float) -> float:
        pd = detection_probability_array(cfg, math.exp(log_p), r)
        return float(pd.sum()) - n_det

    lo, hi = math.log(_POWER_BRACKET[0]), math.log(_POWER_BRACKET[1])
    if excess(lo) >= 0.0:
        p0 = _POWER_BRACKET[0]
    elif excess(hi) <= 0.0:
        p0 = _POWER_BRACKET[1]
    else:
        p0 = math.exp(optimize.brentq(excess, lo, hi, xtol=1e-10))
    return TargetParams(P=p0, x=cx, y=cy)


def ml_estimate(cfg: DetectorConfig, decisions: Decisions,
                init: TargetParams) -> TrialResult:
    """Maximize the decision-sequence likelihood over (P, x_T, y_T), in
    (ln P, x, y) so that positivity of P is structural.  Reports the exact
    nll at the returned point, never worse than the initializer's.

    1. Grid guard: 9 x 9 positions around the detection centroid at 0.25,
       1 and 4 times the initializer's power; a candidate whose nll lower
       bound shows that it cannot win skips its full evaluation.
    2. Nelder-Mead from the best candidate to the hand-off tolerances.
    3. The Newton finish; any failed finish resumes the simplex at the
       full tolerances (_refine).  A simplex out of iterations reports
       converged=False.
    4. The collapsed supremum: a likelihood with no interior maximum peaks
       as P -> 0 with the emitter on a detecting sensor, which the
       log-power wall (P = e^-30) attains to double precision, with
       converged=True.  With one detection it is the nll's global lower
       bound, returned at once.  A simplex that starts at or above the
       power floor (1e-3) and takes its best vertex below it stops; the
       fit returns the supremum on the detecting sensor nearest it unless
       that is worse than the simplex's best, and else reruns stages 2
       and 3 without the stop.
    """
    sx, sy, detected = decisions.sx, decisions.sy, decisions.detected
    n_det = int(detected.sum())
    if n_det == 0:
        raise NoDetections("maximum-likelihood fit requires >= 1 detection")

    def nll(theta_log: np.ndarray) -> float:
        log_p, x0, y0 = theta_log
        if not np.all(np.isfinite(theta_log)):
            raise OptimizerDiverged("optimizer state is not finite")
        if abs(log_p) > _LOG_POWER_WALL:
            # powers this extreme are never plausible fits; walling them
            # off keeps the simplex away from degenerate likelihoods
            return math.inf
        # 0.0 - ll, not -ll: a certain outcome (ll = 0) has nll 0, not -0
        val = 0.0 - _log_likelihood_arrays(cfg, math.exp(log_p), x0, y0,
                                           sx, sy, detected)
        return val if math.isfinite(val) else math.inf

    def derivatives(theta_log: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _nll_derivatives(cfg, math.exp(theta_log[0]), theta_log[1],
                                theta_log[2], sx, sy, detected)

    det_x, det_y = sx[detected], sy[detected]

    def collapsed(x0: float, y0: float) -> optimize.OptimizeResult:
        # the supremum at the log-power wall, on the detecting sensor
        # nearest (x0, y0)
        j = int(np.argmin(np.hypot(det_x - x0, det_y - y0)))
        cand = np.array([-_LOG_POWER_WALL, det_x[j], det_y[j]])
        return optimize.OptimizeResult(x=cand, fun=nll(cand), success=True)

    if n_det == 1:
        # the supremum attains the global lower bound from every start
        res = collapsed(det_x[0], det_y[0])
        best, best_val = res.x, res.fun
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
        for fac in _GRID_POWER_FACTORS:
            lp = math.log(init.P * fac)
            for dx in offs:
                cx = cen_x + dx
                bounds = _nll_lower_bound(cfg, math.exp(lp), cx, cen_y + offs,
                                          sx, sy, detected)
                for dy, bound in zip(offs, bounds):
                    # a bound above the running best cannot pass the
                    # strict test below
                    if bound > best_val + _SCREEN_MARGIN * (1.0 + abs(best_val)):
                        continue
                    cand = np.array([lp, cx, cen_y + dy])
                    val = nll(cand)
                    if val < best_val:
                        best, best_val = cand, val

        # a simplex that starts below the floor has not collapsed through it
        log_p_floor = math.log(_POWER_BRACKET[0])
        res = _refine(nll, derivatives, best,
                      log_p_floor if best[0] >= log_p_floor else None)
        if res.status == 99:
            sup = collapsed(res.x[1], res.x[2])
            res = (sup if sup.fun <= res.fun
                   else _refine(nll, derivatives, best, None))
        if res.fun <= best_val:
            best, best_val = res.x, float(res.fun)
    theta = TargetParams(P=math.exp(best[0]), x=float(best[1]),
                         y=float(best[2]))
    return TrialResult(theta_hat=theta, n_sensors=len(decisions),
                       n_detections=n_det, converged=bool(res.success),
                       neg_log_lik=best_val)


def _refine(nll, derivatives, start: np.ndarray,
            log_p_floor: float | None) -> optimize.OptimizeResult:
    """Nelder-Mead from start to the hand-off tolerances, then the Newton
    finish; where the finish fails, for whatever reason, the simplex
    resumes from its final vertices, its only state, at the full
    tolerances, and so returns what one uninterrupted run would.  With
    log_p_floor set, the simplex stops (status 99) once its best vertex
    falls below it."""

    def stop_on_collapse(xk: np.ndarray) -> None:
        if xk[0] < log_p_floor:
            raise StopIteration

    callback = None if log_p_floor is None else stop_on_collapse
    res = optimize.minimize(
        nll, start, method="Nelder-Mead", callback=callback,
        options={"maxiter": _NM_MAX_ITER, "xatol": _NM_HANDOFF_XATOL,
                 "fatol": _NM_HANDOFF_FATOL})
    if res.status != 0:
        # stopped on collapse, or out of iterations as the full run would be
        return res
    finish = _newton_finish(nll, derivatives, res.x, float(res.fun),
                            log_p_floor)
    if finish is not None:
        return optimize.OptimizeResult(x=finish[0], fun=finish[1],
                                       success=True, status=0)
    return optimize.minimize(
        nll, res.x, method="Nelder-Mead", callback=callback,
        options={"maxiter": _NM_MAX_ITER - res.nit + 1, "xatol": _NM_XATOL,
                 "fatol": _NM_FATOL,
                 "initial_simplex": res.final_simplex[0]})


def _newton_finish(nll, derivatives, theta: np.ndarray, val: float,
                   log_p_floor: float | None
                   ) -> tuple[np.ndarray, float] | None:
    """Full Newton steps on the nll from theta (nll val), with no line
    search, until a step falls below _NEWTON_STEP_TOL in every coordinate.
    Returns the last iterate and its nll, or None where the finish fails:
    a Hessian that is not positive definite (or not finite), a step above
    the tolerance that raises the nll, an iterate below log_p_floor, or
    _NEWTON_MAX_ITER steps."""
    for _ in range(_NEWTON_MAX_ITER):
        grad, hess = derivatives(theta)
        try:
            step = -linalg.cho_solve(linalg.cho_factor(hess), grad)
        except (linalg.LinAlgError, ValueError):
            return None
        if not np.isfinite(step).all():
            return None
        cand = theta + step
        cand_val = nll(cand)
        last = np.max(np.abs(step)) < _NEWTON_STEP_TOL
        if cand_val <= val:
            if log_p_floor is not None and cand[0] < log_p_floor:
                return None
            theta, val = cand, cand_val
        elif not last:
            return None
        if last:
            return theta, val
    return None


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
