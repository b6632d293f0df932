"""Tests for the special-function layer: Marcum Q, its log tails and
amplitude derivatives, the Maclaurin coefficients of I1(y)^2, the
incomplete gamma functions that the closed-form moments evaluate, and the
scaled Bessel functions that the Marcum derivatives and log tails take
from scipy.

The log tails sum the Neumann series of scaled Bessel functions
exp(-(a-b)^2/2) sum_k (a/b)^(+-k) ive(k, ab); their oracles use other
formulas.  Oracle sources, in order of preference:
 * closed-form identities (exact), among them Q1(a, a) = (1 + i0e(a^2))/2,
 * a 50-digit mpmath Poisson mixture of regularized gamma tails for Q1
   and both log tails (the linear Q1 is scipy's noncentral chi-square
   ufunc itself, so scipy cannot be its oracle); its window of k spans
   both the Poisson bulk at lambda = a^2/2 and the summand's saddle at
   sqrt(lambda b^2/2),
 * other 50-digit mpmath references (incomplete gamma, scaled Bessel)
   and frozen high-precision deep-tail values.
The array entry points are checked against the scalar log pair by a
derandomized property test.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from binloc import detection, specfun
from binloc.closedform import _half_moment, _power_moment
from binloc.specfun import (
    _SERIES_LAMBDA_MAX,
    i1_squared_taylor_coeff,
    log1m_marcum_q,
    log_marcum_q,
    log_marcum_q_pair,
    log_marcum_q_pair_array,
    marcum_q,
    marcum_q_array,
    marcum_q_da,
    marcum_q_daa,
)
from binloc.specfun import _log_gauss_tail, _log_marcum_q_asymptotic

# Tolerance for the linear Q1 against the mpmath oracle (measured
# headroom is ~1e-14).
_SCIPY_RTOL = 5e-13
# Central finite-difference step and tolerances for the derivative checks.
_FD_STEP = 1e-4
_DA_TOL = 1e-6
_DAA_TOL = 1e-4

# Frozen deep-tail values of (log Q1, log(1 - Q1)), computed with an
# arbitrary-precision Poisson-mixture sum (and the reflection identity
# Q1(a,b) + Q1(b,a) = 1 + exp(-(a^2+b^2)/2) I0(ab) for the complements),
# 40 significant digits.  None marks the side that is ~0 and is checked
# through its tiny complement instead.
_DEEP_TAIL_TABLE = [
    # (a, b, log Q1, log(1 - Q1))
    (10.0, 40.0, -453.62736865722948, None),
    (40.0, 10.0, None, -455.01574434667212),
    (89.44, 2.0, None, -3830.1691984434817),
    (2.0, 89.44, -3826.3658471334766, None),
    (700.0, 720.0, -203.90303513566043, None),
    (720.0, 700.0, None, -203.93127610134447),
]

# Beyond the half-argument cap the implementation switches to a Gaussian
# tail approximation whose log error is small near the transition but
# grows to O(1) relative-in-probability deep in the mirrored tail (it
# neglects the exp(-(a-b)^2/2) I0(ab) reflection term).  The frozen
# references are exact; the tolerances encode that known quality.
_ASYMPTOTIC_TABLE = [
    # (a, b, exact log, which side, abs tolerance)
    (1500.0, 1550.0, -1254.8149597278461, "lq", 1e-4),
    (1550.0, 1500.0, -1254.8477626584777, "l1", 5e-2),
]


# ----------------------------------------------------------------------
# Marcum Q: exact identities and the mpmath oracle
# ----------------------------------------------------------------------

def _mp_tails(a: float, b: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(Q1, 1 - Q1) at 50 digits: Poisson(a^2/2) mixtures of the
    regularized upper and lower gamma tails at b^2/2, each summed on its
    own so that neither is taken as the complement of a number near 1.
    Q(k+1, y) is built upward and P(k+1, y) downward from one mpmath
    gammainc each, both as sums of positive terms e^(-y) y^k / k!.
    Where the gamma factor is far from 1 the summand peaks at
    k* = sqrt(lambda y), not in the Poisson bulk at lambda, so the window
    of k spans both."""
    if b == 0.0:
        return mpmath.mpf(1), mpmath.mpf(0)
    with mpmath.workdps(50):
        lam = mpmath.mpf(a) ** 2 / 2
        y = mpmath.mpf(b) ** 2 / 2
        k_lo, k_hi = sorted((float(lam), math.sqrt(float(lam * y))))
        half = 20.0 * math.sqrt(k_hi + 1.0) + 60.0
        ks = range(max(0, int(k_lo - half)), int(k_hi + half) + 1)
        k0 = ks[0]
        pois = [mpmath.exp(-lam + k0 * mpmath.log(lam) - mpmath.loggamma(k0 + 1))]
        gterm = [mpmath.exp(-y + k0 * mpmath.log(y) - mpmath.loggamma(k0 + 1))]
        for k in ks[1:]:
            pois.append(pois[-1] * lam / k)
            gterm.append(gterm[-1] * y / k)
        upper = [mpmath.gammainc(k0 + 1, y, mpmath.inf, regularized=True)]
        for g in gterm[1:]:
            upper.append(upper[-1] + g)
        lower = [mpmath.gammainc(ks[-1] + 1, 0, y, regularized=True)]
        for g in reversed(gterm[1:]):
            lower.append(lower[-1] + g)
        lower.reverse()
        return (mpmath.fsum(p * u for p, u in zip(pois, upper)),
                mpmath.fsum(p * l for p, l in zip(pois, lower)))


def _mp_marcum_q(a: float, b: float) -> float:
    return float(_mp_tails(a, b)[0])


def _mp_log_tails(a: float, b: float) -> tuple[float, float]:
    """(log Q1, log(1 - Q1)) from the 50-digit oracle."""
    q, p = _mp_tails(a, b)
    with mpmath.workdps(50):
        lq = mpmath.log(q) if q < 0.5 else mpmath.log1p(-p)
        l1 = mpmath.log(p) if p < 0.5 else mpmath.log1p(-q)
        return float(lq), float(l1)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0, 30.0, 100.0, 400.0,
                               math.sqrt(1.8e6)])
def test_marcum_equal_argument_identity(a):
    # Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2; from a = 30 on the log
    # tails sum up to ~10^4 Neumann terms
    i0e = float(special.i0e(a * a))
    assert marcum_q(a, a) == pytest.approx(0.5 * (1.0 + i0e), rel=1e-13, abs=1e-13)
    log_half = math.log(0.5)
    assert log_marcum_q(a, a) == pytest.approx(log_half + math.log1p(i0e), rel=1e-14, abs=0.0)
    assert log1m_marcum_q(a, a) == pytest.approx(log_half + math.log1p(-i0e), rel=1e-14, abs=0.0)


def test_marcum_limits():
    assert marcum_q(0.7, 0.0) == 1.0
    assert marcum_q(0.0, 0.0) == 1.0
    for b in (0.3, 1.0, 3.0):
        assert marcum_q(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-13)
    assert log_marcum_q(5.0, 0.0) == 0.0
    assert log1m_marcum_q(5.0, 0.0) == -math.inf


def test_marcum_matches_noncentral_chi_square_tail():
    # Q1(a, b) is the sf at b^2 of a noncentral chi-square with 2 degrees
    # of freedom and noncentrality a^2.
    for a in np.linspace(0.25, 20.0, 10):
        for b in np.linspace(0.0, 20.0, 9):
            ref = _mp_marcum_q(float(a), float(b))
            if ref < 1e-280:
                continue
            assert marcum_q(float(a), float(b)) == pytest.approx(ref, rel=_SCIPY_RTOL, abs=0.0)


def test_marcum_beyond_series_cap_matches_scipy():
    # lambda = a^2/2 > 256, where the log tails leave the linear value
    # for the Neumann series; marcum_q keeps the ufunc value there.
    for a in (22.64, 30.0, 45.0):
        for b in (15.0, 22.6, 30.0, 44.0):
            assert marcum_q(a, b) == pytest.approx(_mp_marcum_q(a, b), rel=1e-11, abs=0.0)


def test_marcum_ufunc_path_and_its_fallbacks():
    # just above the ufunc floor its value is taken as it is
    a, b = 30.0, 56.12
    q = marcum_q(a, b)
    assert q == float(specfun._marcum_q_ufunc(a, b))
    assert specfun._UFUNC_MIN < q < 1e3 * specfun._UFUNC_MIN
    assert q == pytest.approx(_mp_marcum_q(a, b), rel=1e-12, abs=0.0)
    # below it the ufunc loses its value (0.0 at (30, 62), 1.5e-3 off at
    # (30, 60.22)); the log tail answers
    for a, b in ((30.0, 62.0), (30.0, 60.22), (5.0, 40.25)):
        assert float(specfun._marcum_q_ufunc(a, b)) < specfun._UFUNC_MIN
        assert marcum_q(a, b) == pytest.approx(_mp_marcum_q(a, b), rel=1e-10, abs=0.0)
    assert marcum_q(30.0, 62.0) == pytest.approx(7.840357e-225, rel=1e-6, abs=0.0)
    assert marcum_q_array(np.array([30.0]), 62.0)[0] == marcum_q(30.0, 62.0)
    # with both half-arguments past the asymptotic cap the ufunc returns
    # 0.43 for Q1(1e6, 1e6) = 1/2 + 2e-7; the asymptotic branch answers
    assert marcum_q(1e6, 1e6) == pytest.approx(0.5, abs=1e-6)
    assert marcum_q_array(np.array([1e6]), 1e6)[0] == marcum_q(1e6, 1e6)
    # the array path: e^(-t^2/2) at x = 0, the oracle inside, certain
    # detection at x = inf (a sensor on the hypothesis), beyond the
    # ufunc's range (x^2 = 1e300) and far out in the linear range
    t = 1.2
    x = np.array([0.0, 1.0, math.inf, 1e150, 50.0])
    q = marcum_q_array(x, t)
    assert q[0] == pytest.approx(math.exp(-0.5 * t * t), rel=1e-15)
    assert q[1] == pytest.approx(_mp_marcum_q(1.0, t), rel=1e-14)
    assert list(q[2:]) == [1.0, 1.0, 1.0]
    assert list(q) == [marcum_q(float(v), t) for v in x]
    log_q, log_1mq = log_marcum_q_pair_array(x, t)
    assert log_q[0] == pytest.approx(-0.5 * t * t, rel=1e-15)
    assert log_1mq[0] == pytest.approx(math.log1p(-math.exp(-0.5 * t * t)), rel=1e-15)
    lq_ref, l1_ref = _mp_log_tails(1.0, t)
    assert log_q[1] == pytest.approx(lq_ref, rel=1e-14)
    assert log_1mq[1] == pytest.approx(l1_ref, rel=1e-14)
    assert list(log_q[2:]) == [0.0, 0.0, 0.0]
    assert log_1mq[2] == -math.inf
    # the edge entries take their complements from the log tail
    assert log_1mq[3] == log1m_marcum_q(1e150, t)
    assert log_1mq[3] == pytest.approx(-0.5e300, rel=1e-12)
    assert log_1mq[4] == log1m_marcum_q(50.0, t)
    assert -1300.0 < log_1mq[4] < -1100.0


def test_marcum_monotone_in_arguments():
    bs = np.linspace(0.1, 6.0, 25)
    qs = [marcum_q(2.0, float(b)) for b in bs]
    assert all(x > y for x, y in zip(qs, qs[1:]))
    a_grid = np.linspace(0.0, 6.0, 25)
    qa = [marcum_q(float(a), 2.0) for a in a_grid]
    assert all(x < y for x, y in zip(qa, qa[1:]))


def test_marcum_log_forms_consistent():
    for a in (0.0, 0.5, 2.0, 8.0, 23.0):
        for b in (0.2, 1.0, 4.0, 9.0, 24.0):
            lq = log_marcum_q(a, b)
            l1 = log1m_marcum_q(a, b)
            assert lq <= 0.0 and l1 <= 0.0
            assert math.exp(lq) + math.exp(l1) == pytest.approx(1.0, abs=1e-12)
            assert math.exp(lq) == pytest.approx(marcum_q(a, b), rel=1e-11, abs=1e-300)


@pytest.mark.parametrize("a,b,lq_ref,l1_ref", _DEEP_TAIL_TABLE)
def test_marcum_deep_tails_match_frozen_references(a, b, lq_ref, l1_ref):
    if lq_ref is not None:
        lq = log_marcum_q(a, b)
        assert lq == pytest.approx(lq_ref, rel=1e-10)
        # the complement is 1 - exp(lq); its log is -exp(lq) to double precision
        assert log1m_marcum_q(a, b) == pytest.approx(-math.exp(lq), rel=1e-6, abs=0.0)
    if l1_ref is not None:
        l1 = log1m_marcum_q(a, b)
        assert l1 == pytest.approx(l1_ref, rel=1e-10)
        assert log_marcum_q(a, b) == pytest.approx(-math.exp(l1), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("a,b,ref,side,tol", _ASYMPTOTIC_TABLE)
def test_marcum_asymptotic_branch_accuracy(a, b, ref, side, tol):
    got = log_marcum_q(a, b) if side == "lq" else log1m_marcum_q(a, b)
    assert got == pytest.approx(ref, abs=tol)


def test_asymptotic_branch_finite_beyond_z4_overflow():
    # z**4 overflows a double from z ~ 1.16e77; the Gaussian tail must not
    # raise on either side, and at z = 1e200 its log is -inf (z*z = inf)
    for z in (1.1e77, 1.3e77):
        assert _log_gauss_tail(z) == pytest.approx(-0.5 * z * z, rel=1e-15)
    assert _log_gauss_tail(1e200) == -math.inf
    assert marcum_q(1e80, 1.2) == 1.0
    lqs = [log_marcum_q(1.0, b) for b in (1e76, 1.1e77, 1.3e77, 1e78, 1e200)]
    assert all(x > y for x, y in zip(lqs, lqs[1:4]))
    assert lqs[3] == pytest.approx(-0.5e156, rel=1e-12) and lqs[4] == -math.inf
    log_q, log_1mq = log_marcum_q_pair_array(np.array([1e80, 2.0]), 1.2)
    assert log_q[0] == 0.0 and log_1mq[0] == pytest.approx(-0.5e160, rel=1e-12)
    assert math.isfinite(log_q[1]) and math.isfinite(log_1mq[1])


def test_asymptotic_branch_continuous_with_neumann_series():
    # Just below the half-argument cap both routes are computable: the
    # Neumann series runs to 840 (b = 1400), 1,100 (b = 1300) and 10,700
    # (b = a) terms there.  The handover must be smooth at the scale of the
    # asymptotic form's approximation error.
    a = math.sqrt(2.0 * 9.0e5)
    for b in (1300.0, a, 1400.0):
        lq_w, l1_w = log_marcum_q(a, b), log1m_marcum_q(a, b)
        lq_a, l1_a = _log_marcum_q_asymptotic(a, b)
        assert abs(lq_w - lq_a) <= max(2e-3, 1e-4 * abs(lq_w))
        assert abs(l1_w - l1_a) <= max(2e-3, 1e-4 * abs(l1_w))


_A_BELOW_CAP = math.sqrt(2.0 * (_SERIES_LAMBDA_MAX - 0.2))
_A_ABOVE_CAP = math.sqrt(2.0 * (_SERIES_LAMBDA_MAX + 0.06))


@pytest.mark.parametrize("a,b", [
    # Q rounds to 1 in the linear series; log Q ~ -(1 - Q) must survive
    (20.0, 10.0), (22.46, 3.37),
    # either side of the series cap lambda = a^2/2 = 256, both tails
    (_A_BELOW_CAP, 5.0), (_A_ABOVE_CAP, 5.0), (_A_BELOW_CAP, 30.0), (_A_ABOVE_CAP, 30.0),
    # 1 - Q = 1e-8 and 1e-10: either side of the switch from the linear
    # value to the Neumann series, at small and large noncentrality
    (8.0, 2.494823), (8.0, 1.761585), (22.0, 16.414229), (22.0, 15.665477),
    # either side of b^2/2 = 700, past which log Q leaves the linear value
    # (Q ~ 1e-100 here)
    (16.0, math.sqrt(1399.9)), (16.0, math.sqrt(1400.1)),
    # Q = 3.5e-150 and 3.3e-151: either side of the ufunc floor 1e-150
    (5.0, 31.1), (5.0, 31.2),
])
def test_log_tails_match_mpmath_oracle(a, b):
    # the scalar routines and the array entry points, on one entry
    lq_ref, l1_ref = _mp_log_tails(a, b)
    assert log_marcum_q(a, b) == pytest.approx(lq_ref, rel=1e-6, abs=0.0)
    assert log1m_marcum_q(a, b) == pytest.approx(l1_ref, rel=1e-6, abs=0.0)
    log_q, log_1mq = log_marcum_q_pair_array(np.array([a]), b)
    assert log_q[0] == pytest.approx(lq_ref, rel=1e-6, abs=0.0)
    assert log_1mq[0] == pytest.approx(l1_ref, rel=1e-6, abs=0.0)
    assert marcum_q_array(np.array([a]), b)[0] == pytest.approx(
        math.exp(lq_ref), rel=1e-6, abs=0.0)


# Thresholds for the array-path property test: the campaign's t, y = t^2/2
# either side of 700 (there Q reaches below 1e-250, and below y = 700
# log Q takes log(ufunc) down to its floor), and t either side of the
# half-argument cap.
_Y700 = math.sqrt(1400.0)
_PROPERTY_T = (1.79, math.sqrt(1399.9), math.sqrt(1400.1), 1414.0, 1500.0)
_X_CAP = math.sqrt(2.0 * specfun._ASYMPTOTIC_HALF_ARG)


@st.composite
def _edge_case(draw):
    """(x, t): an array of signal coordinates with 0, inf, a = b, lambda
    = 256, the cap, values near t and values reaching past both edges."""
    t = draw(st.sampled_from(_PROPERTY_T))
    lam256 = math.sqrt(2.0 * _SERIES_LAMBDA_MAX)
    entry = st.one_of(
        st.sampled_from([0.0, math.inf, t, lam256, _X_CAP]),
        st.floats(-10.0, 10.0).map(lambda d: max(t + d, 0.0)),
        st.floats(0.0, 2.0 * t + 16.0),
        st.floats(lam256 - 0.01, lam256 + 0.01),
        st.floats(_X_CAP - 0.5, _X_CAP + 0.5),
    )
    return np.array(draw(st.lists(entry, min_size=1, max_size=12))), t


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(case=_edge_case())
@example(case=(np.array([0.0, 1.9, 2.2, 2.75, 3.5, 3.7, _Y700, 44.0, 44.2, math.inf]),
               math.sqrt(1399.9)))
@example(case=(np.array([8.3, 8.5, _X_CAP * (1 - 1e-12), _X_CAP * (1 + 1e-12)]), 1.79))
@example(case=(np.array([1380.0, 1414.0, 1420.6, 1420.8]), 1414.0))
def test_log_pair_array_matches_scalar_tails(case):
    # every entry the array path takes from the log tails or the
    # asymptotic form (the band 1 - Q < 1e-9 among them) equals the scalar
    # pair to the bit, and the linear ones differ at most in the last
    # bits (np.log against math.log); the linear value equals marcum_q to
    # the bit; every entry's two logs sum to 1 in probability
    x, t = case
    log_q, log_1mq = log_marcum_q_pair_array(x, t)
    scalar = [log_marcum_q_pair(float(v), t) for v in x]
    on_q, _ = specfun._linear_logs(x, t, specfun._marcum_q_ufunc(x, t))
    for i in np.flatnonzero(~on_q):
        assert (log_q[i], log_1mq[i]) == scalar[i]
    np.testing.assert_allclose(np.column_stack([log_q, log_1mq]), scalar,
                               rtol=1e-15, atol=0.0)
    assert list(marcum_q_array(x, t)) == [marcum_q(float(v), t) for v in x]
    assert np.all(np.abs(np.logaddexp(log_q, log_1mq)) <= 1e-12)


@pytest.mark.parametrize("x", [8.028282, 8.349294])
def test_log_likelihood_band_sensor_matches_oracle(x):
    # one missing sensor at 1 - Q = 1e-10 and 1.2e-11 from the emitter, at
    # criterion 8's threshold t = 1.789: its log-likelihood is the log
    # tail's log(1 - Q), not log1p of a rounded linear value (1.0e-6 and
    # 1.1e-5 off)
    cfg = detection.DetectorConfig(tau=0.40, sigma2=0.25)
    r = math.sqrt(8.0) / x
    decisions = detection.Decisions(np.array([r]), np.array([0.0]),
                                    np.array([False]))
    ll = detection.log_likelihood(cfg, detection.TargetParams(2.0, 0.0, 0.0),
                                  decisions)
    x_r = detection.signal_coordinate(cfg, 2.0, r)
    assert ll == pytest.approx(_mp_log_tails(x_r, cfg.threshold_coordinate)[1],
                               rel=0.0, abs=1e-12)


def test_vector_entries_below_the_ufunc_floor_take_one_tail_call(monkeypatch):
    # at y = t^2/2 = 700 every Q1(x, t) with x <= 3 is below the ufunc's
    # floor (1e-304 to 3e-259): one Neumann-series call gives their log
    # pair, and one their linear value; each entry still equals the scalar
    # routines to the bit (np.exp of the log would miss marcum_q's
    # math.exp in the last bit on 2 of these 50 entries)
    x, t = np.linspace(0.0, 3.0, 50), _Y700
    sizes = []
    log_tails = specfun._log_tails

    def counted(a, b):
        sizes.append(np.size(a))
        return log_tails(a, b)

    monkeypatch.setattr(specfun, "_log_tails", counted)
    log_q, log_1mq = log_marcum_q_pair_array(x, t)
    assert sizes == [50]
    q = marcum_q_array(x, t)
    monkeypatch.undo()
    assert np.all(q < specfun._UFUNC_MIN)
    assert list(q) == [marcum_q(float(v), t) for v in x]
    assert list(log_q) == [log_marcum_q(float(v), t) for v in x]
    assert np.all(np.abs(np.logaddexp(log_q, log_1mq)) <= 1e-12)


def test_marcum_infinite_arguments():
    assert marcum_q(math.inf, 3.0) == 1.0
    assert marcum_q(3.0, math.inf) == 0.0
    assert log_marcum_q(math.inf, 3.0) == 0.0
    assert log1m_marcum_q(math.inf, 3.0) == -math.inf
    assert log_marcum_q(3.0, math.inf) == -math.inf
    assert log1m_marcum_q(3.0, math.inf) == 0.0
    assert marcum_q(math.inf, 0.0) == 1.0
    for fn in (marcum_q, log_marcum_q, log1m_marcum_q):
        with pytest.raises(ValueError):
            fn(math.inf, math.inf)


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_marcum_rejects_bad_arguments(bad):
    for fn in (marcum_q, log_marcum_q, log1m_marcum_q):
        with pytest.raises(ValueError):
            fn(bad, 1.0)
        with pytest.raises(ValueError):
            fn(1.0, bad)
    for fn in (marcum_q_array, log_marcum_q_pair_array):
        with pytest.raises(ValueError):
            fn(np.array([1.0, bad]), 1.0)
        with pytest.raises(ValueError):
            fn(np.array([1.0]), bad)


# ----------------------------------------------------------------------
# Marcum Q derivatives in the noncentrality amplitude
# ----------------------------------------------------------------------

def _fd_da(a: float, b: float, h: float) -> float:
    # Q1 is even in a, so reflecting at the origin keeps the stencil valid
    # down to a = 0.
    return (marcum_q(a + h, b) - marcum_q(abs(a - h), b)) / (2.0 * h)


def _fd_daa(a: float, b: float, h: float) -> float:
    return (
        marcum_q(a + h, b) - 2.0 * marcum_q(a, b) + marcum_q(abs(a - h), b)
    ) / (h * h)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("b", [0.5, 1.5, 3.0, 5.0])
def test_marcum_first_derivative_matches_finite_difference(a, b):
    assert marcum_q_da(a, b) == pytest.approx(_fd_da(a, b, _FD_STEP), abs=_DA_TOL)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("b", [0.5, 1.5, 3.0, 5.0])
def test_marcum_second_derivative_matches_finite_difference(a, b):
    assert marcum_q_daa(a, b) == pytest.approx(_fd_daa(a, b, 1e-3), abs=_DAA_TOL)


def test_marcum_derivative_edge_values():
    assert marcum_q_da(0.0, 2.0) == 0.0
    assert marcum_q_da(2.0, 0.0) == 0.0
    assert marcum_q_daa(2.0, 0.0) == 0.0
    # stays finite far outside the linear-space range
    assert marcum_q_da(500.0, 480.0) > 0.0
    assert math.isfinite(marcum_q_daa(500.0, 480.0))
    with pytest.raises(ValueError):
        marcum_q_da(-1.0, 1.0)
    with pytest.raises(ValueError):
        marcum_q_daa(1.0, -1.0)


# ----------------------------------------------------------------------
# scaled modified Bessel functions used by the Marcum derivatives
# ----------------------------------------------------------------------

def _mp_bessel_i_scaled(order: int, z: float) -> float:
    with mpmath.workdps(50):
        return float(mpmath.besseli(order, z) * mpmath.exp(-z))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("z", [0.5, 100.0, 600.0, 601.0, 800.0, 5000.0, 1e8])
def test_bessel_i_scaled_matches_scipy(order, z):
    # log_marcum_q_da and marcum_q_daa evaluate e^{-z} I_order(z) at z = ab
    # with scipy's i0e / i1e / ive; pin their accuracy against 50 digits
    # over the arguments those derivatives reach.
    got = {0: special.i0e, 1: special.i1e, 2: lambda v: special.ive(2, v)}[order](z)
    assert float(got) == pytest.approx(_mp_bessel_i_scaled(order, z), rel=_SCIPY_RTOL)


# ----------------------------------------------------------------------
# incomplete gamma functions through the closed-form moments
# ----------------------------------------------------------------------

def _moment_order(s: float) -> int:
    j = 2.0 * s - 1.0
    assert j == int(j) and j >= 0.0
    return int(j)


def upper_gamma(s: float, x: float) -> float:
    # Gamma(s, x) = 2 int_{sqrt x}^inf u^(2s-1) e^{-u^2} du
    return 2.0 * _power_moment(_moment_order(s), math.sqrt(x), math.inf)


def lower_gamma(s: float, x: float) -> float:
    # gamma(s, x) = 2 int_0^{sqrt x} u^(2s-1) e^{-u^2} du
    return 2.0 * _half_moment(_moment_order(s), math.sqrt(x))


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5, 4.0, 7.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 80.0])
def test_upper_gamma_matches_scipy(s, x):
    # the moment built on scipy's gamma * gammaincc, against 50 digits
    with mpmath.workdps(50):
        ref = float(mpmath.gammainc(s, x))
    assert upper_gamma(s, x) == pytest.approx(ref, rel=_SCIPY_RTOL)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5, 4.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
def test_upper_gamma_recurrence(s, x):
    # Gamma(s + 1, x) = s Gamma(s, x) + x^s e^{-x}
    lhs = upper_gamma(s + 1.0, x)
    rhs = s * upper_gamma(s, x) + x**s * math.exp(-x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_upper_gamma_half_integer_closed_form():
    # Gamma(3/2, x) = (sqrt(pi)/2) erfc(sqrt(x)) + sqrt(x) e^{-x}
    for x in (0.25, 1.0, 4.0):
        ref = 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x)) + math.sqrt(
            x
        ) * math.exp(-x)
        assert upper_gamma(1.5, x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("s", [0.5, 2.0, 3.5])
@pytest.mark.parametrize("x", [0.3, 2.0, 9.0])
def test_lower_plus_upper_is_complete(s, x):
    total = lower_gamma(s, x) + upper_gamma(s, x)
    assert total == pytest.approx(math.gamma(s), rel=1e-13)


# ----------------------------------------------------------------------
# Maclaurin coefficients of I1(y)^2
# ----------------------------------------------------------------------

def test_i1_squared_leading_coefficients():
    assert i1_squared_taylor_coeff(0) == 0.25
    assert i1_squared_taylor_coeff(1) == 0.0625
    assert i1_squared_taylor_coeff(2) == pytest.approx(
        0.006510416666666667, rel=1e-15
    )


def test_i1_squared_coefficients_by_series_convolution():
    # c_k = 4^{-(k+1)} sum_m 1 / (m! (m+1)! (k-m)! (k-m+1)!)
    for k in range(0, 12):
        conv = sum(
            1.0
            / (
                math.factorial(m)
                * math.factorial(m + 1)
                * math.factorial(k - m)
                * math.factorial(k - m + 1)
            )
            for m in range(0, k + 1)
        )
        ref = conv / 4.0 ** (k + 1)
        assert i1_squared_taylor_coeff(k) == pytest.approx(ref, rel=1e-13)


def test_i1_squared_partial_series_reproduces_bessel():
    z = 0.8
    approx = sum(i1_squared_taylor_coeff(k) * z ** (2 * k + 2) for k in range(12))
    assert approx == pytest.approx(special.i1(z) ** 2, rel=1e-13)


def test_i1_squared_coefficient_validation():
    with pytest.raises(ValueError):
        i1_squared_taylor_coeff(-1)
    with pytest.raises(ValueError):
        i1_squared_taylor_coeff(1.5)  # type: ignore[arg-type]
    with pytest.raises(OverflowError):
        i1_squared_taylor_coeff(65)
