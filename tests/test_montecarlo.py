"""Tests for the Monte-Carlo harness: Poisson field sampling, decision
sampling, the maximum-likelihood fusion estimator, and the MSE report.

Everything downstream of SimConfig is required to be deterministic in
(master_seed, trial_index), so several checks freeze sampled statistics
outright; the statistical assertions use 3-standard-error bands around
their analytic targets.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg, optimize

from binloc.detection import (
    Decisions,
    DetectorConfig,
    TargetParams,
    detection_probability,
    log_likelihood,
)
from binloc.detection import _log_likelihood_arrays, _nll_derivatives
from binloc import montecarlo, specfun
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


@pytest.mark.parametrize("P", [-2.0, 0.0, math.nan, math.inf])
def test_default_region_radius_rejects_a_power_out_of_range(P):
    # these used to give a complex radius, 0, NaN and inf
    with pytest.raises(ValueError, match="P must be finite and > 0"):
        default_region_radius(_DET, P)


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
    # a negative radius would give negative distances, 0 an empty array
    for bad in (-5.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="region_radius"):
            nearest_distance_samples(_FIELD, 5, region_radius=bad)


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


def _recording(f, points: list):
    def recorded(x):
        points.append(x)
        return f(x)
    return recorded


def _scipy_brentq(f, a: float, b: float) -> tuple[float, list]:
    points = []
    root = optimize.brentq(_recording(f, points), a, b, xtol=1e-10)
    return root, points


def _assert_brentq_matches_scipy(f, a: float, b: float) -> None:
    # the same root to the bit, from the same points after scipy's two
    # end evaluations, which the port takes as arguments
    root, points = _scipy_brentq(f, a, b)
    assert points[:2] == [a, b]
    mine = []
    got = montecarlo._brentq(_recording(f, mine), a, b, f(a), f(b))
    assert got.hex() == root.hex()
    assert mine == points[2:]


def _monotone_brackets(n: int, log10_scale=(-6.0, 6.0)):
    # seeded monotone functions with a root inside (lo, hi): steep
    # exponentials and tanh walls, cubics flat at the root and
    # near-linear functions, rising and falling
    rng = np.random.default_rng(20260814)
    for k in range(n):
        r = rng.uniform(-5.0, 5.0)
        lo, hi = r - rng.uniform(1e-3, 10.0), r + rng.uniform(1e-3, 10.0)
        s = float(rng.choice([-1.0, 1.0]))
        s *= 10.0 ** rng.uniform(*log10_scale)
        c = 10.0 ** rng.uniform(-3.0, 1.0)
        kind = k % 5
        if kind == 0:
            f = lambda x, r=r, s=s, c=c: s * math.expm1(c * (x - r))
        elif kind == 1:
            f = lambda x, r=r, s=s, c=c: s * math.tanh(c * (x - r))
        elif kind == 2:
            f = lambda x, r=r, s=s, c=c: s * ((x - r) ** 3 + c * (x - r))
        elif kind == 3:
            f = lambda x, r=r, s=s, c=c: s * ((x - r) + 1e-3 * c
                                              * math.atan(x - r))
        else:
            f = lambda x, r=r, s=s: s * (math.exp(x) - math.exp(r))
        yield f, lo, hi


def test_brentq_port_matches_scipy_on_monotone_brackets():
    for f, lo, hi in _monotone_brackets(250):
        _assert_brentq_matches_scipy(f, lo, hi)


def test_brentq_port_bisects_where_a_divisor_underflows():
    # at values near 1e-250 the extrapolation's divisor underflows to
    # 0.0: C divides to inf and bisects, where Python would raise
    for f, lo, hi in _monotone_brackets(50, log10_scale=(-300.0, -200.0)):
        _assert_brentq_matches_scipy(f, lo, hi)


def _capture_brentq(monkeypatch) -> list:
    # (f, a, b) of every root find the initializer starts
    brentq, calls = montecarlo._brentq, []

    def captured(f, a, b, fa, fb):
        calls.append((f, a, b))
        return brentq(f, a, b, fa, fb)

    monkeypatch.setattr(montecarlo, "_brentq", captured)
    return calls


def test_brentq_port_matches_scipy_on_the_campaign_excess(monkeypatch):
    # criterion 8's first trials: the initializer's own excess count.
    # 8 of 12 reach the root find; the others start at the power floor,
    # as about 113 of their ~118 detections are expected false alarms
    calls = _capture_brentq(monkeypatch)
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    cfg = SimConfig(field=_FIELD, detector=det, truth=_TRUTH, trials=12,
                    region_radius=60.0, master_seed=20260814)
    for k in range(cfg.trials):
        initial_guess(det, sample_decisions(cfg, sample_field(cfg, k), k))
    assert len(calls) == 8
    monkeypatch.undo()
    for f, a, b in calls:
        _assert_brentq_matches_scipy(f, a, b)


def test_brentq_port_raises_on_nan():
    def holed(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    with pytest.raises(ValueError):
        optimize.brentq(holed, -1.0, 2.0, xtol=1e-10)
    with pytest.raises(ValueError, match="NaN"):
        montecarlo._brentq(holed, -1.0, 2.0, -1.5, 1.5)
    with pytest.raises(ValueError, match="opposite signs"):
        montecarlo._brentq(holed, -1.0, 2.0, math.nan, 1.5)


def test_brentq_port_raises_when_it_cannot_converge():
    # a step function defeats interpolation, and 100 bisections do not
    # narrow a bracket of 2e300 to 1e-10 around 0.3
    def step(x):
        return math.copysign(1.0, x - 0.3)

    points, mine = [], []
    with pytest.raises(RuntimeError):
        optimize.brentq(_recording(step, points), -1e300, 1e300, xtol=1e-10)
    with pytest.raises(RuntimeError, match="100 steps"):
        montecarlo._brentq(_recording(step, mine), -1e300, 1e300, -1.0, 1.0)
    assert len(mine) == 100 and mine == points[2:]


def _count_guess_work(monkeypatch, det, decisions):
    # initial_guess's TargetParams, its marcum_q_array calls and the
    # powers it evaluated the excess count at
    marcum_q_array = specfun.marcum_q_array
    signal = montecarlo._signal_coordinate_vec
    calls, powers = [], []

    def counted(x, t):
        calls.append(len(x))
        return marcum_q_array(x, t)

    def recorded(cfg, P, *args):
        powers.append(P)
        return signal(cfg, P, *args)

    monkeypatch.setattr(specfun, "marcum_q_array", counted)
    monkeypatch.setattr(montecarlo, "_signal_coordinate_vec", recorded)
    init = initial_guess(det, decisions)
    monkeypatch.undo()
    return init, len(calls), powers


def test_initial_guess_evaluates_each_bracket_end_once(monkeypatch):
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 20260814)
    found = _capture_brentq(monkeypatch)
    init, n_calls, powers = _count_guess_work(monkeypatch, det, decisions)
    ends = [math.exp(math.log(p)) for p in montecarlo._POWER_BRACKET]
    assert powers[:2] == ends and n_calls == len(powers)
    assert len(set(powers)) == len(powers)

    # scipy's brentq evaluates both ends again: on top of the two the
    # initializer has made, as many calls as the whole guess now makes,
    # for the same root
    [(excess, lo, hi)] = found
    root, points = _scipy_brentq(excess, lo, hi)
    assert len(points) == n_calls
    assert init.P == math.exp(root)


def test_initial_guess_at_either_bracket_end_is_unchanged(monkeypatch):
    # one detection among 586 sensors at tau = 1.2 is below the false
    # alarms expected at the lowest power; a field where every sensor
    # detects is above the count expected at the highest.  Either way
    # the guess is the bracket end, from the ends' evaluations alone
    low, high = montecarlo._POWER_BRACKET
    det = DetectorConfig(tau=1.2, sigma2=0.25)
    decisions = _reference_trial(1.2, 1466814125164838466)
    init, n_calls, _ = _count_guess_work(monkeypatch, det, decisions)
    j = int(np.flatnonzero(decisions.detected)[0])
    assert n_calls == 1
    assert init == TargetParams(P=low, x=float(decisions.sx[j]),
                                y=float(decisions.sy[j]))

    everyone = Decisions(sx=decisions.sx, sy=decisions.sy,
                         detected=np.ones(len(decisions), dtype=bool))
    init, n_calls, _ = _count_guess_work(monkeypatch, det, everyone)
    assert n_calls == 2
    assert init == TargetParams(P=high, x=float(decisions.sx.mean()),
                                y=float(decisions.sy.mean()))


def test_cli_import_leaves_scipy_optimize_out():
    # the initializer's root find is a port, so a CLI process does not
    # pay scipy.optimize's import; montecarlo.optimize still resolves
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    code = ("import sys, binloc.cli\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "from binloc import montecarlo\n"
            "assert montecarlo.optimize is sys.modules['scipy.optimize']\n"
            "try:\n"
            "    montecarlo.no_such_name\n"
            "except AttributeError as e:\n"
            "    assert 'no_such_name' in str(e)\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


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
    # returned estimate, not at some other candidate
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


def _record_fits(monkeypatch) -> list:
    # the power stop of each damped Newton run of a fit, in order
    stops = []
    fit = montecarlo._damped_newton

    def recorded(nll, derivatives, theta, val, log_p_stop):
        stops.append(log_p_stop)
        return fit(nll, derivatives, theta, val, log_p_stop)

    monkeypatch.setattr(montecarlo, "_damped_newton", recorded)
    return stops


def test_ml_estimate_collapsed_trial_returns_the_supremum(monkeypatch):
    # campaign-ref's second trial (criterion 8's point) has no interior
    # maximum: the likelihood's supremum is P -> 0 with the emitter on a
    # detecting sensor, which detects with certainty while every other
    # sensor sits at the false-alarm floor.  The fit stops once its
    # iterate falls below the power floor and returns that limit at the
    # log-power wall.
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    cfg = SimConfig(field=_FIELD, detector=det, truth=_TRUTH, trials=1,
                    region_radius=60.0, master_seed=8210255658006863255)
    decisions = sample_decisions(cfg, sample_field(cfg, 0), 0)
    n, n_det = len(decisions), int(decisions.detected.sum())
    assert (n, n_det) == (586, 118)
    stops = _record_fits(monkeypatch)
    res = ml_estimate(det, decisions, initial_guess(det, decisions))
    assert stops == [math.log(1e-3)]
    assert res.converged
    assert res.theta_hat.P == math.exp(-30.0)
    on = ((decisions.sx == res.theta_hat.x)
          & (decisions.sy == res.theta_hat.y))
    assert on.sum() == 1 and decisions.detected[on].all()
    p_fa = det.false_alarm_probability
    closed = -((n_det - 1) * math.log(p_fa) + (n - n_det) * math.log1p(-p_fa))
    assert res.neg_log_lik == pytest.approx(closed, rel=0.0, abs=1e-9)
    assert res.neg_log_lik == -log_likelihood(det, res.theta_hat, decisions)


def test_ml_estimate_rejected_collapse_reruns_the_unstopped_fit(monkeypatch):
    # with the power floor raised to 3, just above the disk's interior
    # maximum (P = 2.46), the fit walking down from P = 100 crosses it
    # near that maximum (nll 37.51); the candidate on a sensor at the
    # wall (nll 44.83) is worse, so the fit reruns without the stop and
    # returns what a fit that never stops returns
    decisions = _noiseless_disk()
    init = TargetParams(P=100.0, x=5.0, y=5.0)
    monkeypatch.setattr(montecarlo, "_POWER_BRACKET", (1e-300, 1e3))
    plain = ml_estimate(_DET, decisions, init)
    monkeypatch.setattr(montecarlo, "_POWER_BRACKET", (3.0, 1e3))
    stops = _record_fits(monkeypatch)
    res = ml_estimate(_DET, decisions, init)
    assert stops == [math.log(3.0), -math.inf]
    assert res == plain
    assert res.converged and 1.0 < res.theta_hat.P < 10.0


def test_ml_estimate_start_below_the_power_floor_is_not_stopped(monkeypatch):
    # a fit that starts below the floor has not collapsed through it;
    # stopping it would return the collapsed candidate (nll 44.83)
    # instead of the disk's interior maximum (nll 37.50)
    decisions = _noiseless_disk()
    stops = _record_fits(monkeypatch)
    res = ml_estimate(_DET, decisions, TargetParams(P=1e-5, x=5.0, y=5.0))
    assert stops == [-math.inf]
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
    # attains it from any start, so neither the grid nor the Newton
    # steps run.  A simplex started below the power floor used to crawl
    # here for 553 evaluations to P = 9.8e-14 (nll 4.834322045545065).
    det = DetectorConfig(tau=1.2, sigma2=0.25)
    decisions = _reference_trial(1.2, 1466814125164838466)
    n, n_det = len(decisions), int(decisions.detected.sum())
    assert (n, n_det) == (586, 1)
    stops = _record_fits(monkeypatch)
    res = ml_estimate(det, decisions, initial_guess(det, decisions))
    assert stops == []
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
    # through to its full evaluation: the exhaustive grid guard; one bound
    # per broadcast hypothesis, as the real screen returns
    monkeypatch.setattr(montecarlo, "_nll_lower_bound",
                        lambda cfg, P, x0, y0, *arrays: np.full(
                            np.broadcast_shapes(*map(np.shape, (P, x0, y0))),
                            -math.inf))


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


def test_grid_guard_column_bounds_equal_the_per_power_bounds(monkeypatch):
    # campaign-ref's first trial (criterion 8's seed): each of the guard's
    # nine columns is one bound call of three powers against nine
    # positions, and it gives every hypothesis the bits of one call per
    # power
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    d = _reference_trial(0.4, 20260814)
    calls = []
    bound = montecarlo._nll_lower_bound

    def recorded(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(montecarlo, "_nll_lower_bound", recorded)
    ml_estimate(det, d, initial_guess(det, d))
    assert len(calls) == 9
    for cfg, P, x0, y0, *arrays in calls:
        assert (np.shape(P), np.shape(x0), np.shape(y0)) == ((3, 1), (), (9,))
        column = bound(cfg, P, x0, y0, *arrays)
        per_power = [bound(cfg, float(p), x0, y0, *arrays) for p in P[:, 0]]
        assert column.tolist() == np.array(per_power).tolist()


def _count_grid_evaluations(monkeypatch) -> list:
    # the hypotheses of the nll evaluations made before the fit's first
    # derivative pass: the start and the grid candidates
    grid, derivative_passes = [], []
    nll_arrays, derivatives = (montecarlo._log_likelihood_arrays,
                               montecarlo._nll_derivatives)

    def counted_nll(*args, **kwargs):
        if not derivative_passes:
            grid.append(args[1:4])
        return nll_arrays(*args, **kwargs)

    def flagged_derivatives(*args, **kwargs):
        derivative_passes.append(args[1:4])
        return derivatives(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_log_likelihood_arrays", counted_nll)
    monkeypatch.setattr(montecarlo, "_nll_derivatives", flagged_derivatives)
    return grid, derivative_passes


def test_ml_estimate_screen_skips_most_grid_evaluations(monkeypatch):
    # on the collapsed campaign-ref trial the exhaustive guard makes 244
    # nll evaluations before the fit's first step: the start and 243
    # candidates
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 8210255658006863255)
    init = initial_guess(det, decisions)
    grid, derivative_passes = _count_grid_evaluations(monkeypatch)
    ml_estimate(det, decisions, init)
    assert len(grid) <= 40
    _unscreened(monkeypatch)
    grid.clear()
    derivative_passes.clear()
    ml_estimate(det, decisions, init)
    assert len(grid) == 244


_REFERENCE_SEEDS = (
    20260814,               # interior maximum (campaign-ref call 0)
    8931513741054456221,    # interior maximum (campaign-ref call 4)
    8210255658006863255,    # collapses to zero power (campaign-ref call 1)
)


def test_ml_estimate_is_unchanged_by_the_likelihood_ceiling(monkeypatch):
    # a pass that stops at its tail-free bound only ever rejects a
    # hypothesis that its exact nll rejects too, so the fit is the same
    # as one whose every pass runs to the end; on these trials the
    # ceiling stops passes that would have summed the log tails
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    nll_arrays = montecarlo._log_likelihood_arrays
    stopped = []

    def checked(*args, ceiling=-math.inf, **kwargs):
        val = nll_arrays(*args, ceiling=ceiling, **kwargs)
        exact = nll_arrays(*args)
        if val != exact:
            assert exact <= val < ceiling
            stopped.append(args[1:4])
        return val

    def unbounded(*args, ceiling=None, **kwargs):
        return nll_arrays(*args, **kwargs)

    for seed in _REFERENCE_SEEDS:
        decisions = _reference_trial(0.4, seed)
        init = initial_guess(det, decisions)
        monkeypatch.setattr(montecarlo, "_log_likelihood_arrays", checked)
        bounded = ml_estimate(det, decisions, init)
        monkeypatch.setattr(montecarlo, "_log_likelihood_arrays", unbounded)
        assert bounded == ml_estimate(det, decisions, init)
    assert stopped


def _index_order_evaluations(det, decisions, start, columns) -> int:
    # the grid guard's evaluations in index order, the order of the
    # exhaustive loop: a candidate is evaluated unless its bound is above
    # the running best; columns are the recorded bound calls and their
    # bounds, one call per x offset, bounds[i, k] at power i, y offset k
    def nll(P, x0, y0):
        return -_log_likelihood_arrays(det, P, x0, y0, decisions.sx,
                                       decisions.sy, decisions.detected)

    best, count = nll(*start), 0
    for i in range(3):
        for (cfg, P, x0, y0, *arrays), bounds in columns:
            for k, bound in enumerate(bounds[i]):
                margin = montecarlo._SCREEN_MARGIN * (1.0 + abs(best))
                if bound > best + margin:
                    continue
                count += 1
                best = min(best, nll(P[i, 0], x0, y0[k]))
    return count


def test_best_first_grid_evaluates_no_more_than_index_order(monkeypatch):
    # best first stops at the first bound above the running best, so on
    # the reference trials it evaluates no more candidates than index
    # order does, and fewer over the three
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    bound = montecarlo._nll_lower_bound
    columns = []

    def recorded(*args):
        out = bound(*args)
        columns.append((args, out))
        return out

    monkeypatch.setattr(montecarlo, "_nll_lower_bound", recorded)
    grid, derivative_passes = _count_grid_evaluations(monkeypatch)
    best_first = index_order = 0
    for seed in _REFERENCE_SEEDS:
        decisions = _reference_trial(0.4, seed)
        for record in (columns, grid, derivative_passes):
            record.clear()
        ml_estimate(det, decisions, initial_guess(det, decisions))
        assert len(columns) == 9
        n = _index_order_evaluations(det, decisions, grid[0], columns)
        assert len(grid) - 1 <= n
        best_first += len(grid) - 1
        index_order += n
    assert best_first < index_order


def test_grid_guard_ties_go_to_the_lowest_index(monkeypatch):
    # every candidate's nll is equal and below the start's, and the
    # bounds fall with the index, so best first evaluates the candidates
    # from the last index down; the first index must still win, as in
    # the index-order loop, whose strict test keeps the first of equals
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 20260814)
    init = initial_guess(det, decisions)
    columns, evaluated, starts = [], [], []

    def falling(cfg, P, x0, y0, *arrays):
        j = len(columns)
        columns.append((x0, y0))
        return -1e6 - (81 * np.arange(3)[:, None] + 9 * j + np.arange(9))

    def constant(cfg, P, x0, y0, *arrays, **kwargs):
        evaluated.append((P, x0, y0))
        return -2.0 if len(evaluated) == 1 else -1.0

    def start_only(nll, derivatives, theta, val, log_p_stop):
        starts.append((theta, val))
        return theta, val, True

    monkeypatch.setattr(montecarlo, "_nll_lower_bound", falling)
    monkeypatch.setattr(montecarlo, "_log_likelihood_arrays", constant)
    monkeypatch.setattr(montecarlo, "_damped_newton", start_only)
    ml_estimate(det, decisions, init)
    (theta, val), = starts
    assert len(evaluated) == 244 and val == 1.0
    assert evaluated[1][1:] == (columns[8][0], columns[8][1][8])
    assert theta.tolist() == [math.log(init.P * 0.25), columns[0][0],
                              columns[0][1][0]]


def test_grid_guard_bounds_are_tight_near_the_best_candidate(monkeypatch):
    # criterion 8's point, trials 0-19 at the default and the held-out
    # seed: every grid candidate whose nll is within 5 nats of the grid's
    # best has a bound within 0.05 nats of that nll (0.024 at worst), so
    # the screen prunes all but the contenders.  The Poisson-mixture
    # closed forms it replaced fell short by up to 4.1 nats here
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    bound = montecarlo._nll_lower_bound
    columns = []

    def recorded(*args):
        out = bound(*args)
        columns.append((args, out))
        return out

    monkeypatch.setattr(montecarlo, "_nll_lower_bound", recorded)
    contenders = 0
    for seed in (20260814, 4721):
        cfg = SimConfig(field=_FIELD, detector=det, truth=_TRUTH, trials=20,
                        region_radius=60.0, master_seed=seed)
        for k in range(20):
            d = sample_decisions(cfg, sample_field(cfg, k), k)
            columns.clear()
            ml_estimate(det, d, initial_guess(det, d))
            pairs = np.array([
                (-_log_likelihood_arrays(det, P[i, 0], x0, y, d.sx, d.sy,
                                         d.detected), b)
                for (_, P, x0, y0, *_), bounds in columns
                for i in range(len(P)) for y, b in zip(y0, bounds[i])])
            if not len(pairs):
                continue
            nll, low = pairs.T
            near = nll <= nll.min() + 5.0
            assert np.all(low <= nll + 1e-12 * (1.0 + np.abs(nll)))
            assert np.all(nll[near] - low[near] <= 0.05)
            contenders += int(near.sum())
    assert contenders > 1000


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

    sign = np.where(d.detected, 1.0, -1.0)

    def grad(v):
        return _nll_derivatives(det, math.exp(v[0]), v[1], v[2],
                                d.sx, d.sy, d.detected, sign)[0]

    g, hess = _nll_derivatives(det, 10.0, -1.8, -0.3, d.sx, d.sy, d.detected,
                               sign)
    assert np.all(np.abs(g) > 1e-3)
    steps = 1e-4 * np.eye(3)
    fd_g = [(nll(theta + e) - nll(theta - e)) / 2e-4 for e in steps]
    np.testing.assert_allclose(g, fd_g, rtol=0.0, atol=5e-8)
    steps = 1e-5 * np.eye(3)
    fd_hess = [(grad(theta + e) - grad(theta - e)) / 2e-5 for e in steps]
    np.testing.assert_allclose(hess, fd_hess, rtol=0.0, atol=5e-10)


def _same_bits(a: tuple, b: tuple) -> bool:
    return all(u.tobytes() == v.tobytes() for u, v in zip(a, b, strict=True))


def test_nll_derivatives_from_reused_pieces_match_a_fresh_pass(monkeypatch):
    # campaign-ref's first trial (seed 20260814): a derivative pass from
    # the pieces of the value pass at the same hypothesis equals a fresh
    # pass to the bit, off the fit and at every accepted iterate of the
    # fit, which reuses them at each derivative pass after its first
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    d = _reference_trial(0.4, 20260814)
    args = (det, 10.0, -1.8, -0.3, d.sx, d.sy, d.detected)
    sign = np.where(d.detected, 1.0, -1.0)
    pieces = []
    _log_likelihood_arrays(*args, pieces=pieces)
    assert _same_bits(_nll_derivatives(*args, sign, pieces=pieces),
                      _nll_derivatives(*args, sign))
    derivatives = montecarlo._nll_derivatives
    passes, reused = [], []

    def checked(*args, pieces=None):
        passes.append(args[1:4])
        out = derivatives(*args, pieces=pieces)
        if pieces is not None:
            reused.append(_same_bits(out, derivatives(*args)))
        return out

    monkeypatch.setattr(montecarlo, "_nll_derivatives", checked)
    res = ml_estimate(det, d, initial_guess(det, d))
    assert res.converged and len(passes) >= 5
    assert len(reused) >= len(passes) - 1 and all(reused)


@pytest.mark.parametrize("seed", [
    20260814,               # interior maximum (campaign-ref call 0)
    8931513741054456221,    # interior maximum (campaign-ref call 4)
    8210255658006863255,    # collapses to zero power (campaign-ref call 1)
])
def test_ml_estimate_ends_no_higher_than_the_full_simplex(monkeypatch, seed):
    # a full-tolerance Nelder-Mead run from the grid guard's winner, on
    # the fit's own objective, is an independent local search: the damped
    # fit ends no higher than it
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, seed)
    starts = []
    fit = montecarlo._damped_newton

    def recorded(nll, derivatives, theta, val, log_p_stop):
        starts.append((nll, theta))
        return fit(nll, derivatives, theta, val, log_p_stop)

    monkeypatch.setattr(montecarlo, "_damped_newton", recorded)
    res = ml_estimate(det, decisions, initial_guess(det, decisions))
    nll, start = starts[0]
    simplex = optimize.minimize(nll, start, method="Nelder-Mead",
                                options={"maxiter": 2000, "xatol": 1e-6,
                                         "fatol": 1e-9})
    assert res.converged
    assert res.neg_log_lik <= simplex.fun


def test_ml_estimate_step_that_raises_the_nll_is_never_accepted(monkeypatch):
    # a first step three times too long overshoots the minimum and raises
    # the nll; the fit rejects it, damps, and ends where the undisturbed
    # fit ends.  Every derivative pass after the first is at an accepted
    # iterate, so their nlls never rise.
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 20260814)
    init = initial_guess(det, decisions)
    plain = ml_estimate(det, decisions, init)
    derivatives = montecarlo._nll_derivatives
    passes, evals = [], []

    def overshooting(*args, **kwargs):
        grad, hess = derivatives(*args, **kwargs)
        passes.append(args[1:4])
        return (3.0 * grad if len(passes) == 1 else grad), hess

    def nll_arrays(*args, **kwargs):
        val = -_log_likelihood_arrays(*args, **kwargs)
        if passes:
            evals.append((args[1:4], val))
        return -val

    monkeypatch.setattr(montecarlo, "_nll_derivatives", overshooting)
    monkeypatch.setattr(montecarlo, "_log_likelihood_arrays", nll_arrays)
    res = ml_estimate(det, decisions, init)
    p0, x0, y0 = passes[0]
    start = -_log_likelihood_arrays(det, p0, x0, y0, decisions.sx,
                                    decisions.sy, decisions.detected)
    assert evals[0][1] > start and evals[0][0] not in passes
    accepted = [start] + [val for point, val in evals if point in passes[1:]]
    assert len(accepted) == len(passes)
    assert all(b <= a for a, b in zip(accepted, accepted[1:]))
    assert res.converged and res.neg_log_lik <= accepted[-1]
    assert res.neg_log_lik == pytest.approx(plain.neg_log_lik, rel=1e-12)
    np.testing.assert_allclose(
        [math.log(res.theta_hat.P), res.theta_hat.x, res.theta_hat.y],
        [math.log(plain.theta_hat.P), plain.theta_hat.x, plain.theta_hat.y],
        rtol=0.0, atol=1e-6)


def test_ml_estimate_unfactorable_hessian_is_damped(monkeypatch):
    # the first Hessian negated: H + mu I is not positive definite until
    # mu passes the largest eigenvalue of H, so LAPACK's potrf reports
    # info > 0 and mu grows instead of the fit raising; it ends where the
    # undisturbed fit ends
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 20260814)
    init = initial_guess(det, decisions)
    plain = ml_estimate(det, decisions, init)
    derivatives, potrf = montecarlo._nll_derivatives, linalg.lapack.dpotrf
    passes, infos = [], []

    def negated(*args, **kwargs):
        grad, hess = derivatives(*args, **kwargs)
        passes.append(args[1:4])
        return grad, (-hess if len(passes) == 1 else hess)

    def recorded(*args, **kwargs):
        factor, info = potrf(*args, **kwargs)
        infos.append(info)
        return factor, info

    monkeypatch.setattr(montecarlo, "_nll_derivatives", negated)
    monkeypatch.setattr(linalg.lapack, "dpotrf", recorded)
    res = ml_estimate(det, decisions, init)
    assert infos[0] > 0 and 0 in infos
    assert res.converged
    assert res.neg_log_lik == pytest.approx(plain.neg_log_lik, rel=1e-12)
    np.testing.assert_allclose(
        [math.log(res.theta_hat.P), res.theta_hat.x, res.theta_hat.y],
        [math.log(plain.theta_hat.P), plain.theta_hat.x, plain.theta_hat.y],
        rtol=0.0, atol=1e-6)


def test_ml_estimate_converged_is_false_only_at_the_step_cap(monkeypatch):
    # with the cap below the steps campaign-ref's first trial takes, the
    # fit reports converged=False, still at its own nll and no worse than
    # its start; from the first cap that suffices it is the uncapped fit
    det = DetectorConfig(tau=0.4, sigma2=0.25)
    decisions = _reference_trial(0.4, 20260814)
    init = initial_guess(det, decisions)
    full = ml_estimate(det, decisions, init)
    assert full.converged
    fits = []
    for cap in range(1, 41):
        monkeypatch.setattr(montecarlo, "_FIT_MAX_STEPS", cap)
        fits.append(ml_estimate(det, decisions, init))
    flags = [res.converged for res in fits]
    first = flags.index(True)
    assert first >= 2 and not any(flags[:first]) and all(flags[first:])
    assert all(res == full for res in fits[first:])
    grid_best = fits[0].neg_log_lik
    for res in fits[:first]:
        assert full.neg_log_lik <= res.neg_log_lik <= grid_best
        assert res.neg_log_lik == -log_likelihood(det, res.theta_hat,
                                                  decisions)


def test_ml_estimate_nll_zero_ends_the_fit_converged(monkeypatch):
    # at tau / sigma2 = 800 the false-alarm floor underflows to 0, so
    # silent sensors far from the emitter cost nothing, and detecting
    # ones near it cost nothing once P is large: the grid's winner
    # already has nll 0, the nll's lower bound, and the fit ends there
    # without a derivative pass instead of stepping on a flat likelihood
    # until its step cap
    det = DetectorConfig(tau=200.0, sigma2=0.25)
    ring = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    decisions = Decisions(
        sx=np.concatenate([[0.5, -0.5, 0.0], 30.0 * np.cos(ring)]),
        sy=np.concatenate([[0.0, 0.0, 0.5], 30.0 * np.sin(ring)]),
        detected=np.arange(15) < 3)
    _, derivative_passes = _count_grid_evaluations(monkeypatch)
    res = ml_estimate(det, decisions, initial_guess(det, decisions))
    assert derivative_passes == []
    assert res.converged and res.neg_log_lik == 0.0
    assert res.neg_log_lik == -log_likelihood(det, res.theta_hat, decisions)


def test_ml_estimate_every_sensor_detecting_returns_the_high_wall(monkeypatch):
    # the likelihood rises with P at every position, to 1: the fit
    # returns the wall point P = e^30 at the initializer's position, at
    # nll 0, without a grid or a derivative pass
    decisions = Decisions(sx=[1.0, -2.0, 0.5, 3.0], sy=[0.0, 1.0, -1.5, 2.5],
                          detected=[True] * 4)
    grid, derivative_passes = _count_grid_evaluations(monkeypatch)
    res = ml_estimate(_DET, decisions, TargetParams(P=2.0, x=0.5, y=0.25))
    assert len(grid) == 1 and derivative_passes == []
    assert res.converged and res.theta_hat.P == math.exp(30.0)
    assert (res.theta_hat.x, res.theta_hat.y) == (0.5, 0.25)
    assert res.neg_log_lik == 0.0 and math.copysign(1.0, res.neg_log_lik) == 1


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

    # an estimate past ~1e154 squares to inf, without a warning
    huge = [TrialResult(theta_hat=TargetParams(P=1e200, x=_TRUTH.x, y=_TRUTH.y),
                        n_sensors=5, n_detections=2, converged=True,
                        neg_log_lik=3.0)]
    rep2 = mse_report(huge, _TRUTH)
    assert rep2.mse_P == math.inf
    assert rep2.bias_P == 1e200


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
