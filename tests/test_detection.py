"""Tests for the binary detection model: detection probability versus
range, its derivatives, the vectorized evaluation used in simulation, and
the decision log-likelihood."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binloc import specfun
from binloc.detection import (
    Decisions,
    DetectorConfig,
    TargetParams,
    detection_probability,
    detection_probability_array,
    detection_probability_derivatives,
    log_likelihood,
    signal_coordinate,
)
from binloc.detection import _log_likelihood_arrays, _nll_lower_bound

# Reference operating point used throughout: tau = 0.5, sigma2 = 0.25,
# T = 1, alpha = 2, P = 2.
_CFG = DetectorConfig(tau=0.5, sigma2=0.25)
_P = 2.0

# Frozen value of P_D(r = 1) at the reference point (40-digit evaluation
# of Q1(sqrt(8), 2)).
_PD_AT_UNIT_RANGE = 0.8519363569424107

_FD_STEP = 1e-6


def test_threshold_coordinate_and_floor():
    assert _CFG.threshold_coordinate == pytest.approx(2.0, rel=1e-15)
    assert _CFG.false_alarm_probability == pytest.approx(math.exp(-2.0), rel=1e-15)
    other = DetectorConfig(tau=1.2, sigma2=0.3)
    assert other.threshold_coordinate == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert other.false_alarm_probability == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_config_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            DetectorConfig(tau=bad, sigma2=0.25)
        with pytest.raises(ValueError):
            DetectorConfig(tau=0.5, sigma2=bad)
        with pytest.raises(ValueError):
            DetectorConfig(tau=0.5, sigma2=0.25, T=bad)
    with pytest.raises(ValueError):
        DetectorConfig(tau=0.5, sigma2=0.25, alpha=0.8)
    with pytest.raises(ValueError):
        DetectorConfig(tau=0.5, sigma2=0.25, alpha=math.inf)
    # alpha = 1 is the allowed lower edge
    DetectorConfig(tau=0.5, sigma2=0.25, alpha=1.0)


def test_target_params_validation():
    TargetParams(P=2.0, x=0.0, y=-3.5)
    with pytest.raises(ValueError):
        TargetParams(P=0.0, x=0.0, y=0.0)
    with pytest.raises(ValueError):
        TargetParams(P=2.0, x=math.inf, y=0.0)
    with pytest.raises(ValueError):
        TargetParams(P=2.0, x=0.0, y=math.nan)


def test_signal_coordinate_values():
    # x = sqrt(T P / (sigma2 r^alpha))
    assert signal_coordinate(_CFG, _P, 1.0) == pytest.approx(
        math.sqrt(8.0), rel=1e-15
    )
    assert signal_coordinate(_CFG, _P, 2.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    quartic = DetectorConfig(tau=0.5, sigma2=0.25, alpha=4.0)
    assert signal_coordinate(quartic, _P, 2.0) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )
    with pytest.raises(ValueError):
        signal_coordinate(_CFG, _P, 0.0)
    with pytest.raises(ValueError):
        signal_coordinate(_CFG, _P, -1.0)
    with pytest.raises(ValueError):
        signal_coordinate(_CFG, 0.0, 1.0)


def test_detection_probability_reference_value():
    assert detection_probability(_CFG, _P, 1.0) == pytest.approx(
        _PD_AT_UNIT_RANGE, rel=1e-12
    )


def test_detection_probability_limits():
    # short range -> certain detection; long range -> false-alarm floor
    assert detection_probability(_CFG, _P, 1e-12) == pytest.approx(1.0, abs=1e-12)
    floor = _CFG.false_alarm_probability
    assert detection_probability(_CFG, _P, 1e9) == pytest.approx(floor, rel=1e-9)
    # the floor is approached from above
    assert detection_probability(_CFG, _P, 500.0) > floor


def test_detection_probability_monotone_in_range_and_power():
    rs = np.linspace(0.2, 30.0, 40)
    pd = [detection_probability(_CFG, _P, float(r)) for r in rs]
    assert all(a > b for a, b in zip(pd, pd[1:]))
    powers = np.linspace(0.5, 8.0, 20)
    pp = [detection_probability(_CFG, float(p), 2.0) for p in powers]
    assert all(a < b for a, b in zip(pp, pp[1:]))


def test_detection_probability_array_matches_scalar():
    rs = np.array([0.05, 0.31, 1.0, 2.7, 10.0, 400.0])
    vec = detection_probability_array(_CFG, _P, rs)
    ref = np.array([detection_probability(_CFG, _P, float(r)) for r in rs])
    np.testing.assert_allclose(vec, ref, rtol=1e-11)
    assert detection_probability_array(_CFG, _P, np.array([])).shape == (0,)


def test_detection_probability_array_handles_very_close_sensors():
    # entries beyond the vectorized noncentrality cap defer to the scalar
    # log-domain path and must still agree with it
    rs = np.array([1e-4, 5e-4, 1.0])
    vec = detection_probability_array(_CFG, _P, rs)
    ref = np.array([detection_probability(_CFG, _P, float(r)) for r in rs])
    np.testing.assert_allclose(vec, ref, rtol=1e-11)
    assert vec[0] == 1.0


def test_detection_probability_array_rejects_bad_ranges():
    for bad in ([0.0], [-1.0], [math.inf], [math.nan]):
        with pytest.raises(ValueError):
            detection_probability_array(_CFG, _P, np.array(bad))


@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 8.0])
def test_derivatives_match_finite_differences(alpha, r):
    cfg = DetectorConfig(tau=0.5, sigma2=0.25, alpha=alpha)
    dr, dp = detection_probability_derivatives(cfg, _P, r)
    if 1.0 - detection_probability(cfg, _P, r) < 1e-9:
        # detection is saturated: P_D is 1 to double precision, a finite
        # difference reads only rounding noise; the true slopes are tiny
        assert abs(dr) < 1e-9 and abs(dp) < 1e-9
        return
    h = _FD_STEP
    fd_r = (
        detection_probability(cfg, _P, r + h)
        - detection_probability(cfg, _P, r - h)
    ) / (2.0 * h)
    fd_p = (
        detection_probability(cfg, _P + h, r)
        - detection_probability(cfg, _P - h, r)
    ) / (2.0 * h)
    assert dr == pytest.approx(fd_r, rel=1e-6, abs=1e-10)
    assert dp == pytest.approx(fd_p, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_radial_and_power_slopes_locked_by_scaling(alpha):
    # r dP_D/dr = -alpha P dP_D/dP exactly, for any alpha
    cfg = DetectorConfig(tau=0.7, sigma2=0.3, alpha=alpha)
    for r in (0.4, 1.3, 6.0):
        dr, dp = detection_probability_derivatives(cfg, _P, r)
        assert r * dr == pytest.approx(-alpha * _P * dp, rel=1e-13)
        assert dr < 0.0 < dp


def test_power_slope_consistent_with_marcum_derivative():
    # dP_D/dP = dQ1/da (x, t) * x / (2 P)
    x = signal_coordinate(_CFG, _P, 1.7)
    t = _CFG.threshold_coordinate
    _, dp = detection_probability_derivatives(_CFG, _P, 1.7)
    assert dp == pytest.approx(
        specfun.marcum_q_da(x, t) * x / (2.0 * _P), rel=1e-12
    )


# ----------------------------------------------------------------------
# decision log-likelihood
# ----------------------------------------------------------------------

def _manual_log_likelihood(cfg, theta, decisions):
    total = 0.0
    for x, y, detected in zip(decisions.sx, decisions.sy, decisions.detected):
        r = math.hypot(x - theta.x, y - theta.y)
        q = detection_probability(cfg, theta.P, r)
        total += math.log(q) if detected else math.log1p(-q)
    return total


def test_decisions_validation():
    dec = Decisions(sx=[1.0, -2.0], sy=[0.0, 3.0], detected=[1, 0])
    assert len(dec) == 2
    assert dec.sx.dtype == float and dec.detected.dtype == bool
    with pytest.raises(ValueError, match="equal lengths"):
        Decisions(sx=[1.0, 2.0], sy=[0.0], detected=[True, False])
    with pytest.raises(ValueError, match="equal lengths"):
        Decisions(sx=[1.0], sy=[0.0], detected=[True, False])
    with pytest.raises(ValueError, match="1-D"):
        Decisions(sx=np.zeros((2, 2)), sy=np.zeros((2, 2)),
                  detected=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="1-D"):
        Decisions(sx=1.0, sy=0.0, detected=True)


def test_log_likelihood_matches_scalar_sum():
    theta = TargetParams(P=2.0, x=0.5, y=-1.0)
    decisions = Decisions(sx=[1.0, -2.0, 4.0, 0.0], sy=[0.0, 3.0, 4.0, -1.5],
                          detected=[True, False, False, True])
    got = log_likelihood(_CFG, theta, decisions)
    assert got == pytest.approx(_manual_log_likelihood(_CFG, theta, decisions), rel=1e-10)
    assert got <= 0.0


def test_log_likelihood_empty_is_zero():
    empty = Decisions(sx=[], sy=[], detected=[])
    assert log_likelihood(_CFG, TargetParams(P=2.0, x=0.0, y=0.0), empty) == 0.0


def test_log_likelihood_far_miss_stays_finite():
    # a non-detection right next to the hypothesized emitter is extremely
    # unlikely but must stay finite (P_D < 1 at any positive range)
    theta = TargetParams(P=2.0, x=0.0, y=0.0)
    rec = Decisions(sx=[1e-3], sy=[0.0], detected=[False])
    val = log_likelihood(_CFG, theta, rec)
    assert math.isfinite(val)
    assert val < -1e4


def test_log_likelihood_sensor_at_hypothesis_point():
    # a sensor exactly at the hypothesized position sees an infinite
    # signal coordinate: certain detection
    theta = TargetParams(P=2.0, x=1.0, y=-2.0)
    hit = Decisions(sx=[1.0], sy=[-2.0], detected=[True])
    miss = Decisions(sx=[1.0], sy=[-2.0], detected=[False])
    assert log_likelihood(_CFG, theta, hit) == 0.0
    assert log_likelihood(_CFG, theta, miss) == -math.inf


def test_log_likelihood_peaks_near_truth():
    # decisions generated noiselessly from the truth should prefer the
    # truth over a displaced hypothesis
    truth = TargetParams(P=2.0, x=0.0, y=0.0)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-6.0, 6.0, size=(40, 2))
    detected = [detection_probability(_CFG, truth.P, math.hypot(px, py)) > 0.5
                for px, py in pts]
    decisions = Decisions(sx=pts[:, 0], sy=pts[:, 1], detected=detected)
    ll_truth = log_likelihood(_CFG, truth, decisions)
    ll_off = log_likelihood(_CFG, TargetParams(P=2.0, x=3.0, y=3.0), decisions)
    assert ll_truth > ll_off


_COORD = st.floats(-30.0, 30.0)


@st.composite
def _bound_case(draw):
    # a detector anywhere in alpha in [1, 6] and tau/sigma2 in [0.1, 10],
    # a field of 1-60 sensors with random decisions, and 1-4 hypotheses
    # of any power, the first of them exactly on a sensor
    sigma2 = draw(st.floats(0.05, 4.0))
    cfg = DetectorConfig(tau=draw(st.floats(0.1, 10.0)) * sigma2,
                         sigma2=sigma2, alpha=draw(st.floats(1.0, 6.0)))
    n = draw(st.integers(1, 60))
    sx, sy = (np.array(draw(st.lists(_COORD, min_size=n, max_size=n)))
              for _ in range(2))
    detected = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    m = draw(st.integers(1, 4))
    P = 10.0 ** np.array(draw(st.lists(st.floats(-13.0, 13.0),
                                       min_size=m, max_size=m)))
    x0, y0 = (np.array(draw(st.lists(_COORD, min_size=m, max_size=m)))
              for _ in range(2))
    j = draw(st.integers(0, n - 1))
    x0[0], y0[0] = sx[j], sy[j]
    return cfg, P, x0, y0, Decisions(sx=sx, sy=sy, detected=detected)


@settings(deadline=None)
@given(case=_bound_case())
def test_nll_lower_bound_never_exceeds_the_nll(case):
    # the grid guard's screen may only skip a hypothesis whose nll is at
    # least its bound; with a sensor on the hypothesis the nll is 0 or
    # +inf in that sensor's term
    cfg, P, x0, y0, d = case
    bounds = _nll_lower_bound(cfg, P, x0, y0, d.sx, d.sy, d.detected)
    assert bounds.shape == P.shape
    for k, bound in enumerate(bounds):
        nll = -_log_likelihood_arrays(cfg, P[k], x0[k], y0[k],
                                      d.sx, d.sy, d.detected)
        assert bound <= nll + 1e-12 * (1.0 + abs(nll))


def test_nll_lower_bound_tiny_threshold_is_silent():
    # at tau = 1e-9 the silent closed form rounds to log1p(-1) for near
    # sensors; they take their exact terms, and numpy must not warn
    cfg = DetectorConfig(tau=1e-9, sigma2=0.25)
    sx = np.array([0.2, 0.5, 40.0])
    sy = np.array([0.0, -2.0, 3.0])
    detected = np.array([False, True, True])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = _nll_lower_bound(cfg, 2.0, 0.0, 0.0, sx, sy, detected)
    nll = -_log_likelihood_arrays(cfg, 2.0, 0.0, 0.0, sx, sy, detected)
    assert math.isfinite(bound)
    assert bound <= nll + 1e-12 * (1.0 + abs(nll))
