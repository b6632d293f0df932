"""Tests for the binary detection model: detection probability versus
range, its derivatives, the vectorized evaluation used in simulation, and
the decision log-likelihood."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binloc import detection, specfun
from binloc.detection import (
    Decisions,
    DetectorConfig,
    TargetParams,
    detection_probability,
    detection_probability_array,
    log_likelihood,
    signal_coordinate,
)
from binloc.detection import (_log_likelihood_arrays, _nll_derivatives,
                              _nll_lower_bound, _table_offsets)

from _reference import (detection_probability_derivatives,
                        nll_derivatives_stacked)

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


def test_log_likelihood_at_a_zero_threshold_coordinate():
    # 2 tau / sigma2 underflows to t = 0: every sensor detects with
    # certainty, so one silent sensor makes the decisions impossible
    cfg = DetectorConfig(tau=5e-324, sigma2=20.0, alpha=2.0)
    assert cfg.threshold_coordinate == 0.0
    theta = TargetParams(P=2.0, x=0.0, y=0.0)
    sx, sy = [1.0, -30.0, 1e3], [0.0, 4.0, -2.0]
    assert log_likelihood(cfg, theta, Decisions(sx, sy, [True] * 3)) == 0.0
    assert log_likelihood(cfg, theta,
                          Decisions(sx, sy, [True, False, True])) == -math.inf


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
def _bound_case(draw, column=False):
    # a detector anywhere in alpha in [1, 6] and tau/sigma2 in [0.1, 10],
    # a field of 1-60 sensors with random decisions, and 1-4 hypotheses
    # of any power, the first of them exactly on a sensor; with column,
    # a column of 1-4 powers against a row of 1-9 positions, the first
    # of them exactly on a sensor
    sigma2 = draw(st.floats(0.05, 4.0))
    cfg = DetectorConfig(tau=draw(st.floats(0.1, 10.0)) * sigma2,
                         sigma2=sigma2, alpha=draw(st.floats(1.0, 6.0)))
    n = draw(st.integers(1, 60))
    sx, sy = (np.array(draw(st.lists(_COORD, min_size=n, max_size=n)))
              for _ in range(2))
    detected = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 9)) if column else m
    P = 10.0 ** np.array(draw(st.lists(st.floats(-13.0, 13.0),
                                       min_size=m, max_size=m)))
    x0, y0 = (np.array(draw(st.lists(_COORD, min_size=k, max_size=k)))
              for _ in range(2))
    j = draw(st.integers(0, n - 1))
    x0[0], y0[0] = sx[j], sy[j]
    return (cfg, P[:, None] if column else P, x0, y0,
            Decisions(sx=sx, sy=sy, detected=detected))


@settings(deadline=None)
@given(case=_bound_case())
def test_nll_lower_bound_never_exceeds_the_nll(case):
    # the grid guard's screen may only skip a hypothesis whose nll is at
    # least its bound; with a sensor on the hypothesis the nll is 0 or
    # +inf in that sensor's term
    cfg, P, x0, y0, d = case
    bounds = _nll_lower_bound(cfg, P, x0, y0, d.sx, d.sy,
                              _table_offsets(d.detected))
    assert bounds.shape == P.shape
    for k, bound in enumerate(bounds):
        nll = -_log_likelihood_arrays(cfg, P[k], x0[k], y0[k],
                                      d.sx, d.sy, d.detected)
        assert bound <= nll + 1e-12 * (1.0 + abs(nll))


def _silent_case(tau, n, x0, y0):
    # tau = sigma2, alpha = 1, n silent sensors at the origin and one
    # hypothesis of power 1 at (x0, y0)
    cfg = DetectorConfig(tau=tau, sigma2=tau, alpha=1.0)
    return (cfg, np.array([1.0]), np.array([x0]), np.array([y0]),
            Decisions(sx=np.zeros(n), sy=np.zeros(n),
                      detected=np.zeros(n, dtype=bool)))


@settings(deadline=None)
@given(case=_bound_case())
# a hypothesis 9e-125 from twelve sensors: inf - inf in the Hessian's
# position block, which must stay silent
@example(case=_silent_case(1.0, 12, 9.29050918e-125, 0.0))
def test_nll_derivatives_keep_the_bits_of_the_stacked_formula(case):
    # the in-place gradient rows and a sign array made once per fit give
    # the bits of rows stacked and a sign made per pass, from a fresh
    # pass or from its pieces; a sensor on the first hypothesis makes
    # some entries NaN or inf, whose bits must match too
    cfg, P, x0, y0, d = case
    sign = np.where(d.detected, 1.0, -1.0)
    for k in range(len(P)):
        args = (cfg, P[k], x0[k], y0[k], d.sx, d.sy, d.detected)
        pieces = []
        _log_likelihood_arrays(*args, pieces=pieces)
        want = nll_derivatives_stacked(*args)
        for got in (_nll_derivatives(*args, sign),
                    _nll_derivatives(*args, sign, pieces=pieces)):
            assert all(u.tobytes() == v.tobytes() and u.flags.c_contiguous
                       for u, v in zip(got, want, strict=True))


@settings(deadline=None)
@given(case=_bound_case(column=True))
def test_nll_lower_bound_broadcasts_a_power_column_against_positions(case):
    # the grid guard's column form: bounds[i, k] at (P[i], x0[k], y0[k]),
    # each at most its nll, and numpy silent throughout
    cfg, P, x0, y0, d = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = _nll_lower_bound(cfg, P, x0, y0, d.sx, d.sy,
                                  _table_offsets(d.detected))
    assert bounds.shape == (len(P), len(x0))
    for (i, k), bound in np.ndenumerate(bounds):
        nll = -_log_likelihood_arrays(cfg, P[i, 0], x0[k], y0[k],
                                      d.sx, d.sy, d.detected)
        assert bound <= nll + 1e-12 * (1.0 + abs(nll))


def test_nll_lower_bound_survives_an_underflowing_squared_range():
    # a silent sensor 3.7e-242 from the hypothesis: its squared range
    # underflows to 0, but the nll takes the range from hypot and stays
    # finite, so the bound must too
    cfg = DetectorConfig(tau=1.0, sigma2=1.0, alpha=1.0)
    sx = np.array([3.7e-242, 5.0])
    sy = np.array([0.0, 1.0])
    detected = np.array([False, True])
    bound = _nll_lower_bound(cfg, 1.0, 0.0, 0.0, sx, sy,
                             _table_offsets(detected))
    nll = -_log_likelihood_arrays(cfg, 1.0, 0.0, 0.0, sx, sy, detected)
    assert math.isfinite(nll)
    assert bound <= nll + 1e-12 * (1.0 + abs(nll))


def test_nll_lower_bound_tiny_threshold_is_silent():
    # at tau = 1e-9 (t = 8.9e-5) the silent near sensor's term
    # -log(1 - Q1) is large; the bound reads it from the term table built
    # at this threshold, stays finite and below the nll, and numpy must
    # not warn
    cfg = DetectorConfig(tau=1e-9, sigma2=0.25)
    sx = np.array([0.2, 0.5, 40.0])
    sy = np.array([0.0, -2.0, 3.0])
    detected = np.array([False, True, True])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = _nll_lower_bound(cfg, 2.0, 0.0, 0.0, sx, sy,
                                 _table_offsets(detected))
    nll = -_log_likelihood_arrays(cfg, 2.0, 0.0, 0.0, sx, sy, detected)
    assert math.isfinite(bound)
    assert bound <= nll + 1e-12 * (1.0 + abs(nll))


def test_nll_lower_bound_bounds_a_silent_band_sensor_without_log_tails(
        monkeypatch):
    # a silent sensor at 1 - Q = 1e-10 next to the hypothesis (criterion
    # 8's threshold) needs the log tails for its exact term; the screen
    # takes the Rayleigh bound (x - t)^2/2 = 19.5 instead of 23.0
    calls = []
    log_tails = specfun._log_tails

    def counted(a, b):
        calls.append(np.size(a))
        return log_tails(a, b)

    cfg = DetectorConfig(tau=0.40, sigma2=0.25)
    sx = np.array([math.sqrt(8.0) / 8.028282, 30.0])
    sy = np.array([0.0, 0.0])
    detected = np.array([False, True])
    monkeypatch.setattr(specfun, "_log_tails", counted)
    bound = _nll_lower_bound(cfg, 2.0, 0.0, 0.0, sx, sy,
                             _table_offsets(detected))
    assert calls == []
    monkeypatch.undo()
    nll = -_log_likelihood_arrays(cfg, 2.0, 0.0, 0.0, sx, sy, detected)
    assert math.isfinite(bound)
    assert 19.0 < bound <= nll


@pytest.mark.parametrize("alpha", [1.0, 2.0, 4.5])
def test_nll_lower_bound_holds_at_the_table_edges(alpha):
    # one sensor at a time, either decision, with lambda = x^2/2 exactly
    # on a table node or one ulp either side of it (at range 1, where
    # lambda = 2 P; within rounding of that at range 2), at 0 (P = 0, or
    # a range whose square overflows), subnormal, below the first node,
    # past the last, and inf (on the hypothesis): the floored slot must
    # never take the entry on the term's far side
    cfg = DetectorConfig(tau=0.40, sigma2=0.25, alpha=alpha)
    nodes = np.exp(detection._TABLE_LOG_MIN + detection._TABLE_LOG_STEP
                   * np.arange(detection._TABLE_NODES))
    lams = [0.0, 1e-310, 0.5 * nodes[0], 2.0 * nodes[-1], math.inf]
    for j in (0, 1, 2302, 12429, 13816, len(nodes) - 2, len(nodes) - 1):
        node = float(nodes[j])
        lams += [math.nextafter(node, 0.0), node,
                 math.nextafter(node, math.inf)]
    cases = [(lam * r ** alpha / 2.0, r) for lam in lams if lam < math.inf
             for r in (1.0, 2.0)]
    cases += [(2.0, 0.0), (2.0, 1e200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (P, r), det in itertools.product(cases, (False, True)):
            sx, sy, detected = np.array([r]), np.array([0.0]), np.array([det])
            bound = _nll_lower_bound(cfg, P, 0.0, 0.0, sx, sy,
                                     _table_offsets(detected))
            nll = -_log_likelihood_arrays(cfg, P, 0.0, 0.0, sx, sy, detected)
            assert bound <= nll + 1e-12 * (1.0 + abs(nll)), (P, r, det)


def _log_tail_switch(cfg: DetectorConfig) -> float:
    # ln lambda in [0, ln 100] where a silent term leaves log1p(-q) for
    # the log tails (1 - Q1 = 1e-9), bisected to adjacent doubles
    t = cfg.threshold_coordinate
    lo, hi = 0.0, math.log(100.0)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        a = np.array([math.sqrt(2.0 * math.exp(mid))])
        q = specfun._marcum_q_linear(a, t)
        if specfun._linear_log_complement(a, t, q)[0]:
            lo = mid
        else:
            hi = mid
    return hi


def test_nll_lower_bound_holds_just_past_the_log_tail_switch():
    # t is bisected until specfun's switch lies 1e-9 in ln lambda above
    # table node 17195, whose log1p(-q) keeps only ~1e-7 of its accuracy;
    # a silent sensor just past the switch takes the log tails, up to
    # 7.6e-8 below that node's value, and still floors into its slot
    node = detection._TABLE_LOG_MIN + detection._TABLE_LOG_STEP * 17195
    lo, hi = 1.7, 1.9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cfg = DetectorConfig(tau=mid * mid * 0.25 / 2.0, sigma2=0.25)
        if _log_tail_switch(cfg) < node + 1e-9:
            lo = mid
        else:
            hi = mid
    cfg = DetectorConfig(tau=hi * hi * 0.25 / 2.0, sigma2=0.25)
    switch = _log_tail_switch(cfg)
    assert switch - node == pytest.approx(1e-9, rel=1e-3)
    lam = math.exp(switch) * (1.0 + 1e-11)      # 2 P / r^2 at P = 2
    sx, sy = np.array([2.0 / math.sqrt(lam)]), np.array([0.0])
    detected = np.array([False])
    bound = _nll_lower_bound(cfg, 2.0, 0.0, 0.0, sx, sy,
                             _table_offsets(detected))
    nll = -_log_likelihood_arrays(cfg, 2.0, 0.0, 0.0, sx, sy, detected)
    assert bound <= nll + 1e-12 * (1.0 + abs(nll))


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@settings(deadline=None)
@given(case=_bound_case(), offset=st.floats(-1e3, 1e3))
# four sensors 1e-150 from the hypothesis: their log tails come from the
# asymptotic form, whose log_ndtr rounds an ulp above the Rayleigh bound
@example(case=_silent_case(2.0905521839109533, 4, 0.0, 1e-150), offset=0.0)
def test_bounded_likelihood_pass_keeps_its_bits_or_stops_below_the_ceiling(
        case, offset):
    # at any ceiling a pass either returns the bits of the pass without
    # one, with its pieces, or stops with a value at least the exact
    # log-likelihood and below the ceiling, without pieces.  The ceilings
    # include the tail-free bound's sum and its neighbours, which decide
    # whether a hypothesis with log-tail terms (a high power next to a
    # silent sensor) stops
    cfg, P, x0, y0, d = case
    for k in range(len(P)):
        args = (cfg, P[k], x0[k], y0[k], d.sx, d.sy, d.detected)
        exact_pieces = []
        exact = _log_likelihood_arrays(*args, pieces=exact_pieces)
        bound = _log_likelihood_arrays(*args, ceiling=math.inf)
        assert bound >= exact
        for ceiling in (-math.inf, exact, exact + offset, bound,
                        np.nextafter(bound, math.inf),
                        np.nextafter(bound, -math.inf),
                        0.5 * (exact + bound), math.inf):
            pieces = []
            val = _log_likelihood_arrays(*args, pieces=pieces,
                                         ceiling=ceiling)
            if _bits(val) == _bits(exact) and not val < ceiling:
                assert all(u.tobytes() == v.tobytes()
                           for u, v in zip(pieces, exact_pieces, strict=True))
            else:
                assert exact <= val < ceiling and pieces == []


def test_bounded_pass_skips_the_log_tails_of_a_losing_hypothesis(
        monkeypatch):
    # a high power next to silent sensors at criterion 8's threshold:
    # their terms need the log tails.  A ceiling above the tail-free
    # bound stops the pass before them; one at the exact value lets it
    # finish, to the bits of a plain pass
    cfg = DetectorConfig(tau=0.40, sigma2=0.25)
    sx = np.array([1.0, 2.0, 3.5, 30.0, -12.0])
    sy = np.array([0.0, 1.0, -2.0, 4.0, 5.0])
    detected = np.array([False, False, False, True, False])
    args = (cfg, 2000.0, 0.0, 0.0, sx, sy, detected)
    calls = []
    log_tails = specfun._log_tails

    def counted(a, b):
        calls.append(np.size(a))
        return log_tails(a, b)

    monkeypatch.setattr(specfun, "_log_tails", counted)
    exact = _log_likelihood_arrays(*args)
    assert calls
    calls.clear()
    bound = _log_likelihood_arrays(*args, ceiling=math.inf)
    assert calls == [] and exact < bound
    assert _log_likelihood_arrays(*args, ceiling=bound + 1.0) == bound
    assert calls == []
    assert _bits(_log_likelihood_arrays(*args, ceiling=exact)) == _bits(exact)
    assert calls
