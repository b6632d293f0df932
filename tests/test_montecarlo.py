"""Tests for the Monte-Carlo harness: Poisson field sampling, decision
sampling, the maximum-likelihood fusion estimator, and the MSE report.

Everything downstream of SimConfig is required to be deterministic in
(master_seed, trial_index), so several checks freeze sampled statistics
outright; the statistical assertions use 3-standard-error bands around
their analytic targets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from binloc.detection import (
    Decisions,
    DetectorConfig,
    TargetParams,
    detection_probability,
    log_likelihood,
)
from binloc.detection import _log_likelihood_arrays, _nll_derivatives
from binloc import montecarlo
from binloc.fisher import FieldConfig
from binloc.montecarlo import (
    AllTrialsFailed,
    MseReport,
    NoDetections,
    SimConfig,
    TrialResult,
    default_region_radius,
    far_field_excess,
    initial_guess,
    ml_estimate,
    mse_report,
    nearest_distance_samples,
    run_campaign,
    sample_decisions,
    sample_field,
)

_DET = DetectorConfig(tau=0.5, sigma2=0.25)
_TRUTH = TargetParams(P=2.0, x=0.0, y=0.0)
_FIELD = FieldConfig(rho=0.05)

# Frozen far-field geometry at P = 2, T = 1, sigma2 = 0.25.
_DEFAULT_RADIUS_TAU05 = 1040.5201900457778
_DEFAULT_RADIUS_TAU04 = 1136.7223562355914
_EXCESS_TAU04_R60 = 0.00035888724951269046
_EXCESS_TAU05_R60 = 0.0003007450532376277


def _sim(trials: int, radius: float | None = None, seed: int = 0) -> SimConfig:
    return SimConfig(field=_FIELD, detector=_DET, truth=_TRUTH,
                     trials=trials, region_radius=radius, master_seed=seed)


# ----------------------------------------------------------------------
# configuration and far-field truncation
# ----------------------------------------------------------------------

def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(field=_FIELD, detector=_DET, truth=_TRUTH, trials=0)
    with pytest.raises(ValueError):
        SimConfig(field=_FIELD, detector=_DET, truth=_TRUTH, trials=5,
                  region_radius=0.0)
    with pytest.raises(ValueError):
        SimConfig(field=_FIELD, detector=_DET, truth=_TRUTH, trials=5,
                  master_seed=-1)
    with pytest.raises(ValueError):
        SimConfig(field=_FIELD, detector=_DET, truth=_TRUTH, trials=5,
                  master_seed=2**64)


def test_effective_radius_and_expected_sensors():
    explicit = SimConfig(field=_FIELD, detector=_DET, truth=_TRUTH,
                         trials=1, region_radius=60.0)
    assert explicit.radius == 60.0
    assert explicit.expected_sensors == pytest.approx(
        0.05 * math.pi * 3600.0, rel=1e-12
    )
    auto = SimConfig(field=_FIELD, detector=_DET, truth=_TRUTH, trials=1)
    assert auto.radius == pytest.approx(_DEFAULT_RADIUS_TAU05, rel=1e-12)


def test_default_region_radius_frozen_values():
    assert default_region_radius(_DET, 2.0) == pytest.approx(
        _DEFAULT_RADIUS_TAU05, rel=1e-12
    )
    assert default_region_radius(
        DetectorConfig(tau=0.4, sigma2=0.25), 2.0
    ) == pytest.approx(_DEFAULT_RADIUS_TAU04, rel=1e-12)
    with pytest.raises(ValueError):
        default_region_radius(_DET, 2.0, delta=0.0)


def test_default_radius_meets_far_field_target():
    # at the default radius the detection probability must exceed the
    # false-alarm floor by (almost exactly) the 1e-6 design target
    for tau, p in ((0.5, 2.0), (0.4, 2.0), (0.5, 0.5), (1.5, 4.0)):
        cfg = DetectorConfig(tau=tau, sigma2=0.25)
        radius = default_region_radius(cfg, p)
        excess = far_field_excess(cfg, p, radius)
        assert 0.0 < excess <= 1.05e-6


def test_far_field_excess_frozen_values():
    assert far_field_excess(
        DetectorConfig(tau=0.4, sigma2=0.25), 2.0, 60.0
    ) == pytest.approx(_EXCESS_TAU04_R60, rel=1e-12)
    assert far_field_excess(_DET, 2.0, 60.0) == pytest.approx(
        _EXCESS_TAU05_R60, rel=1e-12
    )


# ----------------------------------------------------------------------
# field sampling
# ----------------------------------------------------------------------

def test_sample_field_deterministic_per_trial():
    cfg = _sim(trials=4, radius=30.0, seed=123)
    a = sample_field(cfg, 2)
    b = sample_field(cfg, 2)
    np.testing.assert_array_equal(a, b)
    c = sample_field(cfg, 3)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_sample_field_trials_differ_across_seeds():
    a = sample_field(_sim(trials=1, radius=30.0, seed=1), 0)
    b = sample_field(_sim(trials=1, radius=30.0, seed=2), 0)
    assert a.shape != b.shape or not np.array_equal(a, b)


def test_sample_field_geometry():
    cfg = _sim(trials=1, radius=25.0, seed=7)
    pts = sample_field(cfg, 0)
    assert pts.ndim == 2 and pts.shape[1] == 2
    r = np.hypot(pts[:, 0] - _TRUTH.x, pts[:, 1] - _TRUTH.y)
    assert np.all(r > 0.0)
    assert np.all(r <= 25.0)


def test_sample_field_mean_count():
    # Poisson(rho pi R^2) with rho = 0.05, R = 50: lambda = 392.699...
    cfg = _sim(trials=10_000, radius=50.0, seed=20260814)
    counts = np.array([len(sample_field(cfg, k)) for k in range(10_000)])
    lam = 0.05 * math.pi * 2500.0
    se = math.sqrt(lam / 10_000.0)
    assert abs(counts.mean() - lam) <= 3.0 * se


def test_sample_field_centered_on_truth():
    shifted = SimConfig(field=_FIELD, detector=_DET,
                        truth=TargetParams(P=2.0, x=100.0, y=-40.0),
                        trials=1, region_radius=10.0, master_seed=5)
    pts = sample_field(shifted, 0)
    r = np.hypot(pts[:, 0] - 100.0, pts[:, 1] + 40.0)
    assert np.all(r <= 10.0)


# ----------------------------------------------------------------------
# decision sampling
# ----------------------------------------------------------------------

def test_sample_decisions_deterministic():
    cfg = _sim(trials=1, radius=20.0, seed=99)
    sensors = sample_field(cfg, 0)
    a = sample_decisions(cfg, sensors, 0)
    b = sample_decisions(cfg, sensors, 0)
    for name in ("sx", "sy", "detected"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.sx, sensors[:, 0])
    assert np.array_equal(a.sy, sensors[:, 1])


def test_sample_decisions_empty_field():
    cfg = _sim(trials=1, radius=20.0, seed=0)
    dec = sample_decisions(cfg, np.empty((0, 2)), 0)
    assert len(dec) == 0
    assert dec.sx.shape == dec.sy.shape == dec.detected.shape == (0,)


def test_sample_decisions_threshold_limits():
    sensors = np.array([[1.0, 0.0], [0.0, 3.0], [-5.0, 2.0], [8.0, -8.0]])
    # tau -> 0: false-alarm floor -> 1, every sensor fires
    low = SimConfig(field=_FIELD, detector=DetectorConfig(tau=1e-9, sigma2=0.25),
                    truth=_TRUTH, trials=1, region_radius=20.0, master_seed=3)
    assert sample_decisions(low, sensors, 0).detected.all()
    # tau huge: detection probability ~ 0 at any practical range
    high = SimConfig(field=_FIELD, detector=DetectorConfig(tau=1e4, sigma2=0.25),
                     truth=_TRUTH, trials=1, region_radius=20.0, master_seed=3)
    assert not sample_decisions(high, sensors, 0).detected.any()


def test_sample_decisions_calibrated_at_fixed_range():
    # empirical detection frequency at r = 2 over 1e5 draws vs P_D(2)
    n = 100_000
    sensors = np.column_stack([np.full(n, 2.0), np.zeros(n)])
    cfg = _sim(trials=1, radius=20.0, seed=20260814)
    freq = sample_decisions(cfg, sensors, 0).detected.sum() / n
    pd = detection_probability(_DET, _TRUTH.P, 2.0)
    se = math.sqrt(pd * (1.0 - pd) / n)
    assert abs(freq - pd) <= 3.0 * se


# ----------------------------------------------------------------------
# nearest-sensor distance
# ----------------------------------------------------------------------

def test_nearest_distance_deterministic():
    a = nearest_distance_samples(_FIELD, 500, master_seed=42)
    b = nearest_distance_samples(_FIELD, 500, master_seed=42)
    np.testing.assert_array_equal(a, b)
    assert np.all(a > 0.0)
    assert len(a) <= 500


def test_nearest_distance_mean():
    # E[r_min] = 1/sqrt(4 rho); Rayleigh variance (4 - pi)/(4 pi rho)
    samples = nearest_distance_samples(_FIELD, 20_000, master_seed=20260814)
    mean_ref = 1.0 / math.sqrt(4.0 * 0.05)
    se = math.sqrt((4.0 - math.pi) / (4.0 * math.pi * 0.05) / len(samples))
    assert abs(samples.mean() - mean_ref) <= 3.0 * se


def test_nearest_distance_validation():
    with pytest.raises(ValueError):
        nearest_distance_samples(_FIELD, 0)


# ----------------------------------------------------------------------
# initializer
# ----------------------------------------------------------------------

def test_initial_guess_centroid_and_power():
    cfg = _sim(trials=1, radius=25.0, seed=6)
    sensors = sample_field(cfg, 0)
    decisions = sample_decisions(cfg, sensors, 0)
    init = initial_guess(_DET, decisions)
    det = decisions.detected
    assert init.x == pytest.approx(decisions.sx[det].mean(), rel=1e-12)
    assert init.y == pytest.approx(decisions.sy[det].mean(), rel=1e-12)
    assert 1e-3 <= init.P <= 1e3


def test_initial_guess_requires_detections():
    decisions = Decisions(sx=[1.0], sy=[2.0], detected=[False])
    with pytest.raises(NoDetections):
        initial_guess(_DET, decisions)


# ----------------------------------------------------------------------
# maximum-likelihood estimation
# ----------------------------------------------------------------------

def test_ml_estimate_requires_detections():
    decisions = Decisions(sx=[1.0], sy=[2.0], detected=[False])
    with pytest.raises(NoDetections):
        ml_estimate(_DET, decisions, _TRUTH)


def test_ml_estimate_never_worse_than_initializer():
    cfg = _sim(trials=1, radius=20.0, seed=17)
    sensors = sample_field(cfg, 0)
    decisions = sample_decisions(cfg, sensors, 0)
    init = initial_guess(_DET, decisions)
    res = ml_estimate(_DET, decisions, init)
    assert res.neg_log_lik <= -log_likelihood(_DET, init, decisions) + 1e-12
    assert res.n_sensors == len(decisions) == len(sensors)
    assert res.n_detections == decisions.detected.sum()


def test_ml_estimate_reports_nll_at_its_estimate():
    # the reported objective is the negative log-likelihood at the
    # returned estimate, not at some other simplex vertex
    cfg = _sim(trials=1, radius=20.0, seed=17)
    decisions = sample_decisions(cfg, sample_field(cfg, 0), 0)
    res = ml_estimate(_DET, decisions, initial_guess(_DET, decisions))
    assert res.neg_log_lik == pytest.approx(
        -log_likelihood(_DET, res.theta_hat, decisions), rel=1e-12)


def test_ml_estimate_pulls_toward_detections_from_far_init():
    # one detecting sensor among non-detectors: the likelihood drags the
    # estimate toward the detection even when the initializer is far off
    decisions = Decisions(sx=[0.5, 4.0, 0.0, -4.0, 0.0, 3.0],
                          sy=[0.0, 0.0, 4.0, 0.0, -4.0, 3.0],
                          detected=[True] + [False] * 5)
    init_far = TargetParams(P=2.0, x=8.0, y=8.0)
    res = ml_estimate(_DET, decisions, init_far)
    d_hat = math.hypot(res.theta_hat.x - 0.5, res.theta_hat.y - 0.0)
    d_init = math.hypot(init_far.x - 0.5, init_far.y - 0.0)
    assert d_hat < d_init
    assert res.neg_log_lik <= -log_likelihood(_DET, init_far, decisions)


def _noiseless_disk() -> Decisions:
    # a 13 x 13 lattice whose sensors detect exactly inside a disk of
    # radius 3 around (1, -1.5)
    xs = np.arange(-9.0, 9.01, 1.5)
    sx, sy = (g.ravel() for g in np.meshgrid(xs, xs, indexing="ij"))
    return Decisions(sx=sx, sy=sy, detected=np.hypot(sx - 1.0, sy + 1.5) < 3.0)


def test_ml_estimate_matches_dense_grid_on_noiseless_disk():
    # zero-noise limit: decisions are 1 exactly inside a disk; the
    # location estimate must sit within one grid step of the detection
    # centroid, which a dense 41 x 41 x 20 grid search confirms is the
    # likelihood's own preference
    decisions = _noiseless_disk()
    sx, sy, detected = decisions.sx, decisions.sy, decisions.detected
    cen_x, cen_y = sx[detected].mean(), sy[detected].mean()

    init = initial_guess(_DET, decisions)
    res = ml_estimate(_DET, decisions, init)

    grid_x = np.linspace(cen_x - 3.0, cen_x + 3.0, 41)
    grid_y = np.linspace(cen_y - 3.0, cen_y + 3.0, 41)
    powers = np.logspace(-1.0, 1.0, 20)
    best_val, best_pt = math.inf, None
    for p in powers:
        for x0 in grid_x:
            for y0 in grid_y:
                val = -_log_likelihood_arrays(
                    _DET, float(p), float(x0), float(y0), sx, sy, detected
                )
                if val < best_val:
                    best_val, best_pt = val, (float(x0), float(y0))
    step = float(grid_x[1] - grid_x[0])
    # the grid's own argmin lies at the centroid ...
    assert math.hypot(best_pt[0] - cen_x, best_pt[1] - cen_y) <= step
    # ... and the optimizer lands within one grid step of it
    assert math.hypot(res.theta_hat.x - cen_x, res.theta_hat.y - cen_y) <= step
    # refining past the grid can only improve the likelihood
    assert res.neg_log_lik <= best_val


def _count_minimize_calls(monkeypatch) -> list:
    calls = []
    minimize = montecarlo.optimize.minimize

    def counted(*args, **kwargs):
        calls.append(kwargs.get("callback"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(montecarlo.optimize, "minimize", counted)
    return calls


def test_ml_estimate_collapsed_trial_returns_the_supremum(monkeypatch):
    # campaign-ref's second trial (criterion 8's point) has no interior
    # maximum: the likelihood's supremum is P -> 0 with the emitter on a
    # detecting sensor, which detects with certainty while every other
    # sensor sits at the false-alarm floor.  The fit stops the simplex
    # once it falls below the power floor and returns that limit at the
    # log-power wall.
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    cfg = SimConfig(field=_FIELD, detector=det, truth=_TRUTH, trials=1,
                    region_radius=60.0, master_seed=8210255658006863255)
    decisions = sample_decisions(cfg, sample_field(cfg, 0), 0)
    n, n_det = len(decisions), int(decisions.detected.sum())
    assert (n, n_det) == (586, 118)
    calls = _count_minimize_calls(monkeypatch)
    res = ml_estimate(det, decisions, initial_guess(det, decisions))
    assert len(calls) == 1
    assert res.converged
    assert res.theta_hat.P == math.exp(-30.0)
    on = ((decisions.sx == res.theta_hat.x)
          & (decisions.sy == res.theta_hat.y))
    assert on.sum() == 1 and decisions.detected[on].all()
    p_fa = det.false_alarm_probability
    closed = -((n_det - 1) * math.log(p_fa) + (n - n_det) * math.log1p(-p_fa))
    assert res.neg_log_lik == pytest.approx(closed, rel=0.0, abs=1e-9)
    assert res.neg_log_lik == -log_likelihood(det, res.theta_hat, decisions)


def test_ml_estimate_rejected_collapse_reruns_the_plain_simplex(monkeypatch):
    # with the power floor raised to 3, just above the disk's interior
    # maximum (P = 2.46), the simplex walking down from P = 100 crosses
    # it near that maximum (nll 37.82); the candidate on a sensor at the
    # wall (nll 44.83) is worse, so the fit reruns the simplex without
    # the stop and returns what a fit that never stops returns
    decisions = _noiseless_disk()
    init = TargetParams(P=100.0, x=5.0, y=5.0)
    monkeypatch.setattr(montecarlo, "_POWER_BRACKET", (1e-300, 1e3))
    plain = ml_estimate(_DET, decisions, init)
    monkeypatch.setattr(montecarlo, "_POWER_BRACKET", (3.0, 1e3))
    calls = _count_minimize_calls(monkeypatch)
    res = ml_estimate(_DET, decisions, init)
    assert [cb is None for cb in calls] == [False, True]
    assert res == plain
    assert res.converged and 1.0 < res.theta_hat.P < 10.0


def test_ml_estimate_start_below_the_power_floor_is_not_stopped(monkeypatch):
    # a simplex that starts below the floor has not collapsed through
    # it; stopping it would return the collapsed candidate (nll 44.83)
    # instead of the disk's interior maximum (nll 37.50)
    decisions = _noiseless_disk()
    calls = _count_minimize_calls(monkeypatch)
    res = ml_estimate(_DET, decisions, TargetParams(P=1e-5, x=5.0, y=5.0))
    assert calls == [None]
    assert res.converged and 1.0 < res.theta_hat.P < 10.0
    assert res.neg_log_lik == pytest.approx(37.4971880233, abs=1e-9)


def _reference_trial(tau: float, seed: int) -> Decisions:
    # one trial of a one-trial campaign at criterion 8's point (P = 2,
    # sigma2 = 0.25, rho = 0.05, R = 60) with threshold tau
    cfg = SimConfig(field=_FIELD, detector=DetectorConfig(tau=tau, sigma2=0.25),
                    truth=_TRUTH, trials=1, region_radius=60.0,
                    master_seed=seed)
    return sample_decisions(cfg, sample_field(cfg, 0), 0)


def test_ml_estimate_single_detection_returns_the_global_supremum(monkeypatch):
    # with one detection the nll's global lower bound, -(n - 1) log(1 -
    # p_fa), is the limit P -> 0 on the detecting sensor; the wall point
    # attains it from any start, so neither the grid nor the simplex
    # runs.  A simplex started below the power floor used to crawl here
    # for 553 evaluations to P = 9.8e-14 (nll 4.834322045545065).
    det = DetectorConfig(tau=1.2, sigma2=0.25)
    decisions = _reference_trial(1.2, 1466814125164838466)
    n, n_det = len(decisions), int(decisions.detected.sum())
    assert (n, n_det) == (586, 1)
    calls = _count_minimize_calls(monkeypatch)
    res = ml_estimate(det, decisions, initial_guess(det, decisions))
    assert calls == []
    assert res.converged and res.theta_hat.P == math.exp(-30.0)
    j = int(np.flatnonzero(decisions.detected)[0])
    assert (res.theta_hat.x, res.theta_hat.y) == (decisions.sx[j],
                                                  decisions.sy[j])
    closed = -(n - 1) * math.log1p(-det.false_alarm_probability)
    assert abs(res.neg_log_lik - closed) <= 1e-12
    assert res.neg_log_lik <= 4.834322045545065
    assert res.neg_log_lik == -log_likelihood(det, res.theta_hat, decisions)


def _unscreened(monkeypatch) -> None:
    # a screen whose bounds are all -inf lets every grid candidate
    # through to its full evaluation: the exhaustive grid guard
    monkeypatch.setattr(montecarlo, "_nll_lower_bound",
                        lambda cfg, P, x0, y0, *arrays:
                        np.full(np.shape(y0), -math.inf))


@pytest.mark.parametrize("seed", [
    8210255658006863255,    # collapses to zero power (campaign-ref call 1)
    20260814,               # interior maximum (campaign-ref call 0)
    8931513741054456221,    # interior maximum (campaign-ref call 4)
])
def test_ml_estimate_screened_grid_matches_the_exhaustive_one(monkeypatch,
                                                              seed):
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, seed)
    init = initial_guess(det, decisions)
    screened = ml_estimate(det, decisions, init)
    _unscreened(monkeypatch)
    plain = ml_estimate(det, decisions, init)
    assert screened == plain


def test_ml_estimate_screen_skips_most_grid_evaluations(monkeypatch):
    # on the collapsed campaign-ref trial the exhaustive guard makes 245
    # nll evaluations outside the simplex: the start, 243 candidates and
    # the collapse candidate
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 8210255658006863255)
    init = initial_guess(det, decisions)
    in_minimize, outside = [False], []
    nll_arrays, minimize = (montecarlo._log_likelihood_arrays,
                            montecarlo.optimize.minimize)

    def counted_nll(*args):
        if not in_minimize[0]:
            outside.append(args[1:4])
        return nll_arrays(*args)

    def flagged_minimize(*args, **kwargs):
        in_minimize[0] = True
        try:
            return minimize(*args, **kwargs)
        finally:
            in_minimize[0] = False

    monkeypatch.setattr(montecarlo, "_log_likelihood_arrays", counted_nll)
    monkeypatch.setattr(montecarlo.optimize, "minimize", flagged_minimize)
    ml_estimate(det, decisions, init)
    assert len(outside) <= 40
    _unscreened(monkeypatch)
    outside.clear()
    ml_estimate(det, decisions, init)
    assert len(outside) == 245


# ----------------------------------------------------------------------
# campaign and report
def test_nll_derivatives_match_central_differences():
    # campaign-ref's first trial (seed 20260814), off its fit so that the
    # gradient is not zero: the gradient against central differences of
    # the nll, the Hessian against central differences of the gradient
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    d = _reference_trial(0.4, 20260814)
    theta = np.array([math.log(10.0), -1.8, -0.3])

    def nll(v):
        return -_log_likelihood_arrays(det, math.exp(v[0]), v[1], v[2],
                                       d.sx, d.sy, d.detected)

    def grad(v):
        return _nll_derivatives(det, math.exp(v[0]), v[1], v[2],
                                d.sx, d.sy, d.detected)[0]

    g, hess = _nll_derivatives(det, 10.0, -1.8, -0.3, d.sx, d.sy, d.detected)
    assert np.all(np.abs(g) > 1e-3)
    steps = 1e-4 * np.eye(3)
    fd_g = [(nll(theta + e) - nll(theta - e)) / 2e-4 for e in steps]
    np.testing.assert_allclose(g, fd_g, rtol=0.0, atol=5e-8)
    steps = 1e-5 * np.eye(3)
    fd_hess = [(grad(theta + e) - grad(theta - e)) / 2e-5 for e in steps]
    np.testing.assert_allclose(hess, fd_hess, rtol=0.0, atol=5e-10)


def _full_simplex(nll, derivatives, start, log_p_floor):
    # the refinement with no Newton finish: one Nelder-Mead run at the
    # full tolerances, stopped on collapse below log_p_floor
    def stop_on_collapse(xk):
        if xk[0] < log_p_floor:
            raise StopIteration

    return montecarlo.optimize.minimize(
        nll, start, method="Nelder-Mead",
        callback=None if log_p_floor is None else stop_on_collapse,
        options={"maxiter": montecarlo._NM_MAX_ITER,
                 "xatol": montecarlo._NM_XATOL, "fatol": montecarlo._NM_FATOL})


@pytest.mark.parametrize("seed, finishes", [
    (20260814, 1),               # interior maximum (campaign-ref call 0)
    (8931513741054456221, 1),    # interior maximum (campaign-ref call 4)
    (8210255658006863255, 0),    # collapses before the hand-off (call 1)
])
def test_ml_estimate_failed_newton_finish_is_the_full_simplex_fit(
        monkeypatch, seed, finishes):
    # where the Newton finish fails, the simplex resumes from its own
    # final state, so the fit is one full-tolerance simplex run to the bit
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, seed)
    init = initial_guess(det, decisions)
    finished = ml_estimate(det, decisions, init)
    monkeypatch.setattr(montecarlo, "_refine", _full_simplex)
    full = ml_estimate(det, decisions, init)
    monkeypatch.undo()
    attempts = []
    monkeypatch.setattr(montecarlo, "_newton_finish",
                        lambda *args: attempts.append(args[2]))
    assert ml_estimate(det, decisions, init) == full
    assert len(attempts) == finishes
    # the finish itself ends no higher than the full simplex
    assert finished.neg_log_lik <= full.neg_log_lik


def test_ml_estimate_newton_step_that_raises_the_nll_fails_the_finish(
        monkeypatch):
    # a first Newton step three times too long overshoots the minimum and
    # raises the nll; the finish fails on it, with no line search, and the
    # simplex resumes, so the fit is one full-tolerance simplex run
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 20260814)
    init = initial_guess(det, decisions)
    monkeypatch.setattr(montecarlo, "_refine", _full_simplex)
    full = ml_estimate(det, decisions, init)
    monkeypatch.undo()
    derivatives, finish = montecarlo._nll_derivatives, montecarlo._newton_finish
    passes, finishes = [], []

    def overshooting(*args):
        grad, hess = derivatives(*args)
        passes.append(args)
        return (3.0 * grad if len(passes) == 1 else grad), hess

    def recorded(*args):
        finishes.append(finish(*args))
        return finishes[-1]

    monkeypatch.setattr(montecarlo, "_nll_derivatives", overshooting)
    monkeypatch.setattr(montecarlo, "_newton_finish", recorded)
    res = ml_estimate(det, decisions, init)
    assert finishes == [None] and len(passes) == 1
    assert res == full


# ----------------------------------------------------------------------

def test_run_campaign_deterministic():
    cfg = _sim(trials=3, radius=20.0, seed=11)
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    assert a == b
    assert len(a) == 3
    assert all(isinstance(res, TrialResult) for res in a)


def test_run_campaign_zero_detection_trials_kept():
    # an impossible threshold yields zero detections in every trial;
    # those trials appear as unconverged placeholders, never dropped
    cfg = SimConfig(field=_FIELD, detector=DetectorConfig(tau=10.0, sigma2=0.25),
                    truth=_TRUTH, trials=4, region_radius=10.0, master_seed=2)
    results = run_campaign(cfg)
    assert len(results) == 4
    assert all(res.n_detections == 0 for res in results)
    assert all(not res.converged for res in results)
    assert all(math.isinf(res.neg_log_lik) for res in results)
    with pytest.raises(AllTrialsFailed):
        mse_report(results, _TRUTH)


def test_trial_result_validation():
    with pytest.raises(ValueError):
        TrialResult(theta_hat=_TRUTH, n_sensors=2, n_detections=3,
                    converged=True, neg_log_lik=1.0)


def test_mse_report_exact_cases():
    perfect = [
        TrialResult(theta_hat=_TRUTH, n_sensors=10, n_detections=4,
                    converged=True, neg_log_lik=5.0)
        for _ in range(3)
    ]
    rep = mse_report(perfect, _TRUTH)
    assert rep.mse_P == rep.mse_x == rep.mse_y == 0.0
    assert rep.bias_P == rep.bias_x == rep.bias_y == 0.0
    assert rep.n_trials == 3 and rep.n_converged == 3 and rep.n_failed == 0

    off = TargetParams(P=_TRUTH.P, x=_TRUTH.x + 1.0, y=_TRUTH.y)
    single = [TrialResult(theta_hat=off, n_sensors=5, n_detections=2,
                          converged=True, neg_log_lik=3.0)]
    rep1 = mse_report(single, _TRUTH)
    assert rep1.mse_x == 1.0
    assert rep1.bias_x == 1.0
    assert rep1.mse_P == 0.0


def test_mse_report_counts_failures():
    good = TrialResult(theta_hat=_TRUTH, n_sensors=5, n_detections=2,
                       converged=True, neg_log_lik=3.0)
    bad = TrialResult(theta_hat=_TRUTH, n_sensors=5, n_detections=0,
                      converged=False, neg_log_lik=math.inf)
    rep = mse_report([good, bad, bad], _TRUTH)
    assert rep.n_trials == 3
    assert rep.n_converged == 1
    assert rep.n_failed == 2


def test_mse_report_requires_a_converged_trial():
    with pytest.raises(AllTrialsFailed):
        mse_report([], _TRUTH)
    bad = TrialResult(theta_hat=_TRUTH, n_sensors=5, n_detections=0,
                      converged=False, neg_log_lik=math.inf)
    with pytest.raises(AllTrialsFailed):
        mse_report([bad], _TRUTH)
