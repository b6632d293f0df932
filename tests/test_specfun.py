"""Tests for the special-function layer: Marcum Q, its log tails and
amplitude derivatives, the incomplete gamma functions that the
closed-form moments evaluate, and the scaled Bessel functions that the
Marcum derivatives and log tails take from scipy.

The log tails sum the Neumann series of scaled Bessel functions
exp(-(a-b)^2/2) sum_k (a/b)^(+-k) ive(k, ab); their oracles use other
formulas.  Oracle sources, in order of preference:
 * closed-form identities (exact), among them Q1(a, a) = (1 + i0e(a^2))/2,
 * a 50-digit mpmath Neumann sum over mpmath's own Bessel functions,
   where an argument is tiny or huge and the mixture below does not
   converge,
 * a 50-digit mpmath Poisson mixture of regularized gamma tails for Q1
   and both log tails (the linear Q1 is a weak-signal polynomial of that
   mixture or scipy's noncentral chi-square ufunc itself, so scipy
   cannot be its oracle); its window of k spans
   both the Poisson bulk at lambda = a^2/2 and the summand's saddle at
   sqrt(lambda b^2/2),
 * a 40-digit mpmath quadrature of the Rice density on both sides of
   the asymptotic cap, where the Poisson mixture's window no longer
   converges,
 * other 50-digit mpmath references (incomplete gamma, scaled Bessel)
   and frozen high-precision deep-tail values.
The array entry points are checked against the scalar log pair by a
derandomized property test.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from binloc import detection, specfun
from binloc.closedform import _power_moments
from binloc.specfun import (
    _SERIES_LAMBDA_MAX,
    log_marcum_q_da,
    log_marcum_q_pair,
    log_marcum_q_pair_array,
    marcum_q,
    marcum_q_array,
    marcum_q_da,
    marcum_q_daa,
)

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

# Beyond the half-argument cap, away from a = b, the Neumann series is
# short (3,300 terms here) and answers these to the last bits.  The
# Gaussian tail approximation, which answered them while the switch went
# by max(a, b) alone, is within 6.6e-6 of both; the tolerances are its
# earlier errors rounded up (3.3e-2 on the side a > b, where it used
# sqrt(a/b) for sqrt(b/a)).  The frozen references are exact.
_ASYMPTOTIC_TABLE = [
    # (a, b, exact log, which side, abs tolerance)
    (1500.0, 1550.0, -1254.8149597278461, "lq", 1e-4),
    (1550.0, 1500.0, -1254.8477626584777, "l1", 5e-2),
]

# a = b past which the log tails take the asymptotic form
_X_CAP = math.sqrt(2.0 * specfun._ASYMPTOTIC_HALF_ARG)


def _takes_asymptotic(a: float, b: float) -> bool:
    return bool(specfun._takes_asymptotic(np.array([a]), b)[0])

# Rice-density oracle cases either side of the switch to the asymptotic
# form: the Neumann series serves a = b up to _X_CAP = 1414.2136 and,
# beyond it, every pair whose series is shorter than on a = b at the cap
# (_takes_asymptotic).  The series matched the oracle to 3e-14 relative.
# The first four points with a tolerance take the series now; their
# tolerances are the asymptotic form's larger error in (log Q1,
# log(1 - Q1)) rounded up to the next 1, 2, 5 step when it answered them
# (5.8e-4, 2.3e-4, 6.4e-5 and 3.5e-3; the last from sqrt(a/b) in place
# of sqrt(b/a)), and the form is now within (1.0e-4, 2.3e-4),
# (2.3e-4, 1.0e-4), (6.4e-5, 1.8e-11) and (1.8e-11, 6.5e-5) there.  The
# last four take the asymptotic form, within (2.8e-4, 2.8e-4) twice,
# (2.6e-5, 2.6e-14) and (2.6e-14, 2.6e-5); their tolerances are rounded
# up the same way.
_RICE_CASES = [
    # (a, b, absolute tolerance of the asymptotic form in both logs;
    # None: not checked; the series: 1e-10 relative)
    (1413.71, 1413.21, None), (1413.21, 1413.71, None),
    (1400.0, 1410.0, None), (1410.0, 1400.0, None),
    (1415.21, 1414.71, 1e-3), (1414.71, 1415.21, 5e-4),
    (1444.21, 1449.21, 1e-4), (1449.21, 1444.21, 5e-3),
    (1415.0, 1415.003, 5e-4), (1415.003, 1415.0, 5e-4),
    (3000.0, 3006.0, 5e-5), (3006.0, 3000.0, 5e-5),
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
    assert log_marcum_q_pair(a, a)[0] == pytest.approx(log_half + math.log1p(i0e), rel=1e-14, abs=0.0)
    assert log_marcum_q_pair(a, a)[1] == pytest.approx(log_half + math.log1p(-i0e), rel=1e-14, abs=0.0)


def test_marcum_limits():
    assert marcum_q(0.7, 0.0) == 1.0
    assert marcum_q(0.0, 0.0) == 1.0
    for b in (0.3, 1.0, 3.0):
        assert marcum_q(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-13)
    assert log_marcum_q_pair(5.0, 0.0)[0] == 0.0
    assert log_marcum_q_pair(5.0, 0.0)[1] == -math.inf
    log_q, log_1mq = log_marcum_q_pair_array(np.array([0.0, 5.0, 40.0]), 0.0)
    assert log_q.tolist() == [0.0, 0.0, 0.0]
    assert log_1mq.tolist() == [-math.inf] * 3


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
    assert log_1mq[3] == log_marcum_q_pair(1e150, t)[1]
    assert log_1mq[3] == pytest.approx(-0.5e300, rel=1e-12)
    assert log_1mq[4] == log_marcum_q_pair(50.0, t)[1]
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
            lq, l1 = log_marcum_q_pair(a, b)
            assert lq <= 0.0 and l1 <= 0.0
            assert math.exp(lq) + math.exp(l1) == pytest.approx(1.0, abs=1e-12)
            assert math.exp(lq) == pytest.approx(marcum_q(a, b), rel=1e-11, abs=1e-300)


@pytest.mark.parametrize("a,b,lq_ref,l1_ref", _DEEP_TAIL_TABLE)
def test_marcum_deep_tails_match_frozen_references(a, b, lq_ref, l1_ref):
    if lq_ref is not None:
        lq = log_marcum_q_pair(a, b)[0]
        assert lq == pytest.approx(lq_ref, rel=1e-10)
        # the complement is 1 - exp(lq); its log is -exp(lq) to double precision
        assert log_marcum_q_pair(a, b)[1] == pytest.approx(-math.exp(lq), rel=1e-6, abs=0.0)
    if l1_ref is not None:
        l1 = log_marcum_q_pair(a, b)[1]
        assert l1 == pytest.approx(l1_ref, rel=1e-10)
        assert log_marcum_q_pair(a, b)[0] == pytest.approx(-math.exp(l1), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("a,b,ref,side,tol", _ASYMPTOTIC_TABLE)
def test_marcum_asymptotic_branch_accuracy(a, b, ref, side, tol):
    assert not _takes_asymptotic(a, b)
    got = log_marcum_q_pair(a, b)[0 if side == "lq" else 1]
    assert got == pytest.approx(ref, rel=1e-13)
    (lq,), (l1,) = specfun._log_asymptotic(np.array([a]), b)
    assert (lq if side == "lq" else l1) == pytest.approx(ref, abs=tol)


def test_asymptotic_branch_finite_beyond_z4_overflow():
    # z**4 overflows a double from z ~ 1.16e77; the Gaussian tail must not
    # raise on either side, and at z = 1e200 its log is -inf (z*z = inf)
    for z in (1.1e77, 1.3e77):
        assert special.log_ndtr(-z) == pytest.approx(-0.5 * z * z, rel=1e-15)
    assert special.log_ndtr(-1e200) == -math.inf
    assert marcum_q(1e80, 1.2) == 1.0
    lqs = [log_marcum_q_pair(1.0, b)[0] for b in (1e76, 1.1e77, 1.3e77, 1e78, 1e200)]
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
        lq_w, l1_w = log_marcum_q_pair(a, b)
        (lq_a,), (l1_a,) = specfun._log_asymptotic(np.array([a]), b)
        assert abs(lq_w - lq_a) <= max(2e-3, 1e-4 * abs(lq_w))
        assert abs(l1_w - l1_a) <= max(2e-3, 1e-4 * abs(l1_w))


def _mp_rice_log_tails(a: float, b: float) -> tuple[float, float]:
    """(log Q1, log(1 - Q1)) at 40 digits from the Rice density
    x e^(-(x-a)^2/2 - a x) I0(a x): Q1 is its integral over [b, inf) and
    1 - Q1 over [0, b], with breakpoints near its peak at x ~ a, and the
    larger side is log1p of minus the smaller.  It converges at
    half-arguments near 1e6, where _mp_tails raises NoConvergence.
    Its breakpoints resolve the density only for |a - b| <= 10; it is
    off at (1550, 1500) and (1500, sqrt(3.2)), so it refuses points
    farther apart, which _mp_neumann_log_tails takes."""
    if not abs(a - b) <= 10.0:
        raise ValueError(f"|a - b| = {abs(a - b):.6g} > 10: use "
                         f"_mp_neumann_log_tails")
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)

        def density(x):
            return (x * mpmath.exp(-(x - a_) ** 2 / 2)
                    * mpmath.besseli(0, a_ * x) * mpmath.exp(-a_ * x))

        near = [a_ + d for d in (-40, -10, -3, 0, 3, 10, 40)]
        q = mpmath.quad(density,
                        [b_] + [x for x in near if x > b_] + [mpmath.inf])
        p = mpmath.quad(density,
                        [0] + [x for x in near if 0 < x < b_] + [b_])
        lq = mpmath.log(q) if q < 0.5 else mpmath.log1p(-p)
        l1 = mpmath.log(p) if p < 0.5 else mpmath.log1p(-q)
        return float(lq), float(l1)


@pytest.mark.parametrize("a,b,tol", _RICE_CASES)
def test_log_tails_match_rice_oracle_either_side_of_the_asymptotic_cap(
        a, b, tol):
    # the scalar pair and an array entry, from the Neumann series or from
    # the asymptotic form, and the asymptotic form itself
    asymptotic = _takes_asymptotic(a, b)
    assert (max(a, b) < _X_CAP) == (tol is None)
    ref = _mp_rice_log_tails(a, b)
    if tol is not None:
        (lq,), (l1,) = specfun._log_asymptotic(np.array([a]), b)
        assert (lq, l1) == pytest.approx(ref, rel=0.0, abs=tol)
    if asymptotic:
        close = pytest.approx(ref, rel=0.0, abs=tol)
    else:
        close = pytest.approx(ref, rel=1e-10, abs=0.0)
    assert log_marcum_q_pair(a, b) == close
    log_q, log_1mq = log_marcum_q_pair_array(np.array([a]), b)
    assert (log_q[0], log_1mq[0]) == close


@pytest.mark.parametrize("a,b", [(1550.0, 1500.0), (1500.0, math.sqrt(3.2))])
def test_rice_oracle_refuses_points_far_from_a_equals_b(a, b):
    with pytest.raises(ValueError, match="_mp_neumann_log_tails"):
        _mp_rice_log_tails(a, b)


@pytest.mark.parametrize("b", [1414.0, _X_CAP * (1.0 - 1e-12),
                               _X_CAP * (1.0 + 1e-12), 1415.0, 1500.0])
def test_marcum_zero_signal_either_side_of_the_asymptotic_cap(b):
    # Q1(a, b) = exp(-b^2/2) to the last bit at a = 0 and where b/a
    # overflows, whose Neumann series is one term on either side of
    # b^2/2 = 1e6, for scalars and arrays alike
    ref = (-0.5 * b * b, 0.0)
    for a in (0.0, 5e-324, 1e-310):
        assert marcum_q(a, b) == 0.0
        assert log_marcum_q_pair(a, b) == pytest.approx(ref, rel=1e-15, abs=0.0)
    a = np.array([0.0, 5e-324, 1.0])
    assert marcum_q_array(a, b).tolist() == [0.0, 0.0, 0.0]
    log_q, log_1mq = log_marcum_q_pair_array(a, b)
    for i in (0, 1):
        assert (log_q[i], log_1mq[i]) == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert -0.5 * b * b < log_q[2] < 0.0


def test_log_tails_take_the_asymptotic_form_only_where_the_series_is_long():
    # on a = b the switch stays at the cap; off it the Neumann series runs
    # wherever it is short, however large max(a, b), until a b leaves the
    # range of scipy's ive (NaN from 2^30 on); a = inf and b = inf take
    # the asymptotic form's exact limits
    for a, b in ((_X_CAP * (1.0 - 1e-9), _X_CAP * (1.0 - 1e-9)),
                 (1415.21, 1414.71), (1444.21, 1449.21), (1550.0, 1500.0),
                 (1500.0, math.sqrt(3.2)), (1e-300, 1500.0),
                 (2000.0, 1e-300), (36000.0, 27000.0), (0.0, 1e300)):
        assert not _takes_asymptotic(a, b)
    for a, b in ((_X_CAP * (1.0 + 1e-9), _X_CAP * (1.0 + 1e-9)),
                 (1415.0, 1415.003), (3006.0, 3000.0), (40000.0, 30000.0),
                 (1e300, 1e-10), (math.inf, 3.0), (3.0, math.inf),
                 (0.0, math.inf)):
        assert _takes_asymptotic(a, b)


def _mp_neumann_log_tails(a: float, b: float) -> tuple[float, float]:
    """(log Q1, log(1 - Q1)) from the Neumann series summed at 50 digits
    over mpmath's Bessel functions, for a and b > 0 whose series is short:
    the smaller side's sum stops at its first term below 1e-50 of it, and
    the larger side is log1p of minus the smaller."""
    with mpmath.workdps(50):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        z = a_ * b_
        below = a_ < b_
        ratio = a_ / b_ if below else b_ / a_
        k = 0 if below else 1
        total = mpmath.mpf(0)
        while True:
            term = ratio ** k * mpmath.besseli(k, z) * mpmath.exp(-z)
            total += term
            if term < mpmath.mpf(10) ** -50 * total:
                break
            k += 1
        small = mpmath.log(total) - (a_ - b_) ** 2 / 2
        big = mpmath.log1p(-mpmath.exp(small))
        return (float(small), float(big)) if below else (float(big), float(small))


@pytest.mark.parametrize("a,b", [
    # far from a = b past the old cap on max(a, b), which sent these to the
    # asymptotic form: Q1 at a tiny a (-1124659.19 there), 1 - Q1 at a
    # tiny b (-1999659.33), a campaign's silent sensor at criterion 8's
    # threshold (-1122323.18), and an a whose square overflows (an
    # overflow warning)
    (1e-300, 1500.0), (2000.0, 1e-300), (1500.0, math.sqrt(3.2)),
    (1e300, 1e-10),
    # either side of the end of ive's range, a b = 1e9
    (36000.0, 27000.0), (27000.0, 36000.0), (40000.0, 30000.0),
    (30000.0, 40000.0),
])
def test_log_tails_away_from_a_equals_b_match_an_mpmath_neumann_sum(a, b):
    # (2000, 1e-300)'s one-term sum underflows the doubles: its log comes
    # from the logs of its factors
    ref = _mp_neumann_log_tails(a, b)
    close = pytest.approx(ref, rel=1e-13, abs=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_marcum_q_pair(a, b) == close
        log_q, log_1mq = log_marcum_q_pair_array(np.array([a, 1.0]), b)
        assert (log_q[0], log_1mq[0]) == close
        assert marcum_q(a, b) == marcum_q_array(np.array([a]), b)[0]


def test_half_square_thresholds_decide_as_the_square_does():
    # a < sqrt(2 lam) is a^2/2 <= lam for every double a at the two
    # thresholds that use it, and does not overflow for huge a
    for lam in (specfun._WEAK_LAMBDA_MAX, _SERIES_LAMBDA_MAX):
        edge = math.sqrt(2.0 * lam)
        near = [edge]
        for direction in (-math.inf, math.inf):
            x = edge
            for _ in range(3):
                x = math.nextafter(x, direction)
                near.append(x)
        for x in near:
            assert specfun._below_half_square(x, lam) == (0.5 * x * x <= lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not specfun._below_half_square(np.array([1e300]), lam)[0]


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
    assert log_marcum_q_pair(a, b)[0] == pytest.approx(lq_ref, rel=1e-6, abs=0.0)
    assert log_marcum_q_pair(a, b)[1] == pytest.approx(l1_ref, rel=1e-6, abs=0.0)
    log_q, log_1mq = log_marcum_q_pair_array(np.array([a]), b)
    assert log_q[0] == pytest.approx(lq_ref, rel=1e-6, abs=0.0)
    assert log_1mq[0] == pytest.approx(l1_ref, rel=1e-6, abs=0.0)
    assert marcum_q_array(np.array([a]), b)[0] == pytest.approx(
        math.exp(lq_ref), rel=1e-6, abs=0.0)


# The weak-signal polynomial's switches: lambda = a^2/2 = _WEAK_LAMBDA_MAX
# and s = b^2/2 = _WEAK_S_MAX.
_A_WEAK_SWITCH = math.sqrt(2.0 * specfun._WEAK_LAMBDA_MAX)
_B_WEAK_CAP = math.sqrt(2.0 * specfun._WEAK_S_MAX)


@pytest.mark.parametrize("b", [
    0.3, 1.0, math.sqrt(3.2), math.sqrt(9.6), 5.0,
    _B_WEAK_CAP * (1.0 - 1e-9), _B_WEAK_CAP * (1.0 + 1e-9)])
@pytest.mark.parametrize("lam", [
    1e-6, 0.1, specfun._WEAK_LAMBDA_MAX * (1.0 - 1e-9),
    specfun._WEAK_LAMBDA_MAX * (1.0 + 1e-9), 0.3])
def test_weak_signal_polynomial_matches_mpmath_oracle(b, lam):
    # on both sides of each switch (criterion 8's t = sqrt(3.2) and
    # campaign-hightau's sqrt(9.6) among the thresholds) Q1 is within
    # 2e-15 of the oracle, and an array entry equals the scalar to the bit
    a = math.sqrt(2.0 * lam)
    weak = (0.5 * a * a <= specfun._WEAK_LAMBDA_MAX
            and 0.5 * b * b <= specfun._WEAK_S_MAX)
    assert weak == (lam < specfun._WEAK_LAMBDA_MAX and b < _B_WEAK_CAP)
    q = marcum_q(a, b)
    assert q == pytest.approx(_mp_marcum_q(a, b), rel=2e-15, abs=0.0)
    assert marcum_q_array(np.array([a, 0.0, a]), b).tolist()[::2] == [q, q]
    lq_ref, l1_ref = _mp_log_tails(a, b)
    assert log_marcum_q_pair(a, b) == pytest.approx((lq_ref, l1_ref), rel=1e-14, abs=0.0)


def _switch(branch, lo: float, hi: float) -> float:
    """The first a past lo at which the bool branch(a) differs from
    branch(lo), by bisection to adjacent doubles in [lo, hi]."""
    first = branch(lo)
    assert branch(hi) != first
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if branch(mid) == first else (lo, mid)
    return hi


def _linear_complement(b: float):
    return lambda a: bool(specfun._linear_logs(
        a, b, float(specfun._marcum_q_linear(a, b)))[1])


def _ufunc_floor(b: float):
    return lambda a: float(specfun._marcum_q_linear(a, b)) >= specfun._UFUNC_MIN


def _asymptotic(b: float):
    return lambda a: _takes_asymptotic(a, b)


def _below(lam: float):
    return lambda a: specfun._below_half_square(a, lam)


_WEAK_BS = (math.sqrt(3.2), _B_WEAK_CAP * (1.0 - 1e-9),
            _B_WEAK_CAP * (1.0 + 1e-9))
# (branch switch, b, the switch's bool in a and a range holding it once,
# the relative slack of monotonicity there, the points of the grid
# within 1e-3 relative of the switch and the doubles either side of it)
_SWITCHES = [
    *(("weak polynomial", b, _below(specfun._WEAK_LAMBDA_MAX), 0.5, 1.0,
       1e-13, 2001, 64) for b in _WEAK_BS),
    # below the switch log(1 - Q1) is log1p(-q), and 1 - q keeps only
    # about 1e-7 of its own there: from it to the series log(1 - Q1)
    # rises by 2.6e-7 at criterion 8's b and 5.0e-7 (2.4e-8 relative) at
    # b = 8
    *(("1e-9 complement", b, _linear_complement(b), b, b + 20.0, 5e-8,
       2001, 64) for b in _WEAK_BS),
    *(("lambda 256", b, _below(_SERIES_LAMBDA_MAX), 20.0, 25.0, 1e-13,
       2001, 64) for b in (math.sqrt(3.2), 30.0)),
    ("ufunc floor", 31.15, _ufunc_floor(31.15), 0.0, 31.15, 1e-13, 2001, 64),
    ("ufunc floor", 40.0, _ufunc_floor(40.0), 0.0, 40.0, 1e-13, 2001, 64),
    # a b > 2e6 near a = b, where each entry's Neumann series runs to some
    # 12,500 terms.  On the side a < b the switch moves both logs against
    # the grain by up to 4.1e-4 relative, the asymptotic form's own error
    # there (_RICE_CASES); the grid guard's table has a <= sqrt(200)
    ("asymptotic", 1415.0, _asymptotic(1415.0), 1414.5, 1415.0, 5e-4, 9, 8),
    ("asymptotic", 1415.0, _asymptotic(1415.0), 1415.0, 1415.5, 1e-13, 9, 8),
]


@pytest.mark.parametrize("name,b,branch,lo,hi,slack,points,ulps", _SWITCHES,
                         ids=[f"{c[0]}-{c[1]:.9g}-{c[3]:g}" for c in _SWITCHES])
def test_log_sides_are_monotone_in_a_across_each_branch_switch(
        name, b, branch, lo, hi, slack, points, ulps):
    # the premise of the grid guard's table: a detecting sensor's log Q1
    # never falls as a grows and a silent one's log(1 - Q1) never rises,
    # on a grid around the switch that takes in its neighbouring doubles;
    # and each side matches the oracle just below and above the switch
    a_switch = _switch(branch, lo, hi)
    near = [a_switch]
    for direction in (-math.inf, math.inf):
        a = a_switch
        for _ in range(ulps):
            a = math.nextafter(a, direction)
            near.append(a)
    a = np.unique(np.concatenate([
        np.linspace(a_switch * (1.0 - 1e-3), a_switch * (1.0 + 1e-3), points),
        near]))
    log_q = specfun._log_sides(a, b, np.ones(a.shape, bool))
    log_1mq = specfun._log_sides(a, b, np.zeros(a.shape, bool))
    assert np.all(np.diff(log_q) >= -slack * np.abs(log_q[1:]))
    assert np.all(np.diff(log_1mq) <= slack * np.abs(log_1mq[1:]))
    for a in (a_switch * (1.0 - 1e-9), a_switch * (1.0 + 1e-9)):
        if name == "asymptotic":
            close = pytest.approx(_mp_rice_log_tails(a, b), rel=0.0, abs=5e-4)
        else:
            # log Q1 in (-1e-9, 0] is the log of a q within a rounding of 1
            close = pytest.approx(_mp_log_tails(a, b), rel=1e-6, abs=1e-15)
        sides = [specfun._log_sides(np.array([a]), b, np.array([upper]))[0]
                 for upper in (True, False)]
        assert sides == close


def test_weak_signal_polynomial_length():
    # the remainder bound stops the series at 14 terms at criterion 8's
    # threshold and 18 at the cap; at s -> 0 it keeps d_0 and d_1
    assert len(specfun._weak_signal_coeffs(math.sqrt(3.2))) == 14
    assert len(specfun._weak_signal_coeffs(_B_WEAK_CAP)) == 18
    assert specfun._weak_signal_coeffs(1e-10) == (1.0, 0.5 * 1e-10 * 1e-10)
    assert marcum_q_array(np.array([0.5, 5.0]), 1e-10).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("b", [math.sqrt(3.2), math.sqrt(9.6), 9.0])
def test_strong_signal_array_skips_the_polynomial(monkeypatch, b):
    # an array whose every lambda is past the weak-signal switch takes the
    # ufunc for all of it: each entry has the bits it has inside an array
    # with weak entries and, for Q1, on the scalar route (at b = 9, s =
    # 40.5 > _WEAK_S_MAX, only the ufunc ever answers)
    strong = np.array([_A_WEAK_SWITCH * (1.0 + 1e-9), 0.8, 1.79, 3.0,
                       8.028282, 40.0, 1e3])
    mixed = np.insert(strong, [0, 2, 5], [0.0, 0.3, _A_WEAK_SWITCH])
    at = np.flatnonzero(np.isin(mixed, strong))
    q_mixed = marcum_q_array(mixed, b)
    pair_mixed = log_marcum_q_pair_array(mixed, b)
    horner = []
    monkeypatch.setattr(specfun, "_horner",
                        lambda *args: horner.append(args) or math.nan)
    q = marcum_q_array(strong, b)
    log_q, log_1mq = log_marcum_q_pair_array(strong, b)
    assert horner == []
    monkeypatch.undo()
    assert q.tolist() == q_mixed[at].tolist()
    assert q.tolist() == [marcum_q(float(a), b) for a in strong]
    assert log_q.tolist() == pair_mixed[0][at].tolist()
    assert log_1mq.tolist() == pair_mixed[1][at].tolist()
    np.testing.assert_allclose(
        np.column_stack([log_q, log_1mq]),
        [log_marcum_q_pair(float(a), b) for a in strong], rtol=1e-15, atol=0.0)


# entries on either side of the weak-signal switch: 0, subnormals, the
# smallest normal, and the largest a with lambda below 0.25; a = sqrt(0.5)
# has lambda = 0.25 + 1 ulp, past the switch
_WEAK_EDGES = (0.0, 5e-324, 2.2e-308, np.finfo(float).tiny,
               math.nextafter(_A_WEAK_SWITCH, 0.0))
_STRONG_EDGES = (_A_WEAK_SWITCH, math.nextafter(_A_WEAK_SWITCH, 1.0), 0.8,
                 3.0, 1e3, math.inf)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weak=st.lists(st.one_of(
           st.sampled_from(_WEAK_EDGES),
           st.floats(0.0, _A_WEAK_SWITCH, exclude_max=True)), max_size=12),
       strong=st.sampled_from(_STRONG_EDGES),
       at=st.integers(0, 12),
       b=st.one_of(st.sampled_from([1e-10, math.sqrt(3.2), _B_WEAK_CAP]),
                   st.floats(1e-3, _B_WEAK_CAP)))
def test_all_weak_array_skips_the_mask_with_the_masked_bits(weak, strong, at,
                                                            b):
    # an array of weak entries alone goes straight to the polynomial, with
    # the bits each entry gets on the masked path, inside an array with a
    # strong entry, and on the scalar route; the strong entry (inf among
    # them) still takes the masked path and the ufunc
    a = np.array(weak, dtype=float)
    mixed = np.insert(a, min(at, a.size), strong)
    ufunc_calls = []
    ufunc = specfun._marcum_q_ufunc

    def spy(x, b):
        ufunc_calls.append(np.asarray(x).tolist())
        return ufunc(x, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "_marcum_q_ufunc", spy)
        q = specfun._marcum_q_linear(a, b)
        assert ufunc_calls == []
        q_mixed = specfun._marcum_q_linear(mixed, b)
        assert ufunc_calls == [[strong]]
    keep = np.arange(mixed.size) != min(at, a.size)
    assert q.dtype == np.float64 and q.shape == a.shape
    assert q.tobytes() == q_mixed[keep].tobytes()
    assert q.tobytes() == np.array(
        [specfun._marcum_q_linear(float(v), b) for v in weak]).tobytes()


def test_marcum_tiny_threshold_strong_signal():
    # below b^2 = 2^-25 scipy's noncentral chi-square tail overflows (its
    # tgamma) for a^2 above ~339 and raises for the whole call, after
    # time linear in a^2; those entries take the log tails
    a, b = 31.6, 6e-5
    lq_ref, l1_ref = _mp_log_tails(a, b)
    assert marcum_q(a, b) == 1.0
    assert log_marcum_q_pair(a, b) == pytest.approx((lq_ref, l1_ref), rel=1e-13, abs=0.0)
    x = np.array([31.6, 0.1, 16.5, 20.0, 1e3])
    assert marcum_q_array(x, b).tolist() == [marcum_q(float(v), b) for v in x]
    log_q, log_1mq = log_marcum_q_pair_array(x, b)
    scalar = [log_marcum_q_pair(float(v), b) for v in x]
    for i in (0, 2, 3, 4):      # past the ufunc, from the log tails
        assert (log_q[i], log_1mq[i]) == scalar[i]
    np.testing.assert_allclose(np.column_stack([log_q, log_1mq]), scalar,
                               rtol=1e-15, atol=0.0)
    for i in (0, 2, 3):
        assert (log_q[i], log_1mq[i]) == pytest.approx(
            _mp_log_tails(float(x[i]), b), rel=1e-13, abs=0.0)
    # x = 0.1 is a weak-signal entry whose 1 - Q = 1.8e-9 still comes from
    # the linear value, as the log-pair policy allows down to 1e-9
    assert (log_q[1], log_1mq[1]) == pytest.approx(
        _mp_log_tails(0.1, b), rel=1e-6, abs=0.0)
    assert log_1mq[4] == pytest.approx(-0.5e6, rel=1e-4)


# Thresholds for the array-path property test: the campaign's t and
# campaign-hightau's, the weak-signal cap s = t^2/2 = _WEAK_S_MAX, y = t^2/2
# either side of 700 (there Q reaches below 1e-250, and below y = 700
# log Q takes log(ufunc) down to its floor), and t either side of the
# half-argument cap.
_Y700 = math.sqrt(1400.0)
_PROPERTY_T = (1.79, math.sqrt(9.6), _B_WEAK_CAP, math.sqrt(1399.9),
               math.sqrt(1400.1), 1414.0, 1500.0)


@st.composite
def _edge_case(draw):
    """(x, t): an array of signal coordinates with 0, inf, a = b, lambda
    = 256, the cap, values near t, values either side of the weak-signal
    switch lambda = _WEAK_LAMBDA_MAX and values reaching past both
    edges."""
    t = draw(st.sampled_from(_PROPERTY_T))
    lam256 = math.sqrt(2.0 * _SERIES_LAMBDA_MAX)
    entry = st.one_of(
        st.sampled_from([0.0, math.inf, t, lam256, _X_CAP, _A_WEAK_SWITCH]),
        st.floats(-10.0, 10.0).map(lambda d: max(t + d, 0.0)),
        st.floats(0.0, 2.0 * t + 16.0),
        st.floats(lam256 - 0.01, lam256 + 0.01),
        st.floats(_X_CAP - 0.5, _X_CAP + 0.5),
        st.floats(_A_WEAK_SWITCH - 1e-6, _A_WEAK_SWITCH + 1e-6),
        st.floats(0.0, _A_WEAK_SWITCH),
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
    on_q, _ = specfun._linear_logs(x, t, specfun._marcum_q_linear(x, t))
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


@pytest.mark.parametrize("x", [8.028282, 8.349294])
def test_log_likelihood_detecting_band_sensor_matches_oracle(x):
    # the same sensors detecting: log Q lies in (-1e-9, 0], and the log of
    # the linear value is within a rounding of 1 of it
    cfg = detection.DetectorConfig(tau=0.40, sigma2=0.25)
    r = math.sqrt(8.0) / x
    decisions = detection.Decisions(np.array([r]), np.array([0.0]),
                                    np.array([True]))
    ll = detection.log_likelihood(cfg, detection.TargetParams(2.0, 0.0, 0.0),
                                  decisions)
    x_r = detection.signal_coordinate(cfg, 2.0, r)
    assert ll == pytest.approx(_mp_log_tails(x_r, cfg.threshold_coordinate)[0],
                               rel=0.0, abs=1e-15)


def test_log_likelihood_of_detecting_band_sensors_takes_no_log_tails(
        monkeypatch):
    # detecting sensors at 1 - Q = 1e-10 and 1.2e-11 use only the Q side,
    # which their linear value keeps; silent far sensors use log1p(-q)
    calls = []
    log_tails = specfun._log_tails

    def counted(a, b):
        calls.append(np.size(a))
        return log_tails(a, b)

    monkeypatch.setattr(specfun, "_log_tails", counted)
    cfg = detection.DetectorConfig(tau=0.40, sigma2=0.25)
    sx = np.array([math.sqrt(8.0) / 8.028282, math.sqrt(8.0) / 8.349294,
                   5.0, 20.0])
    decisions = detection.Decisions(sx, np.zeros(4),
                                    np.array([True, True, False, False]))
    ll = detection.log_likelihood(cfg, detection.TargetParams(2.0, 0.0, 0.0),
                                  decisions)
    assert calls == []
    assert -1e-8 > ll > -1.0


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
    assert list(log_q) == [log_marcum_q_pair(float(v), t)[0] for v in x]
    assert np.all(np.abs(np.logaddexp(log_q, log_1mq)) <= 1e-12)


def test_marcum_infinite_arguments():
    assert marcum_q(math.inf, 3.0) == 1.0
    assert marcum_q(3.0, math.inf) == 0.0
    assert log_marcum_q_pair(math.inf, 3.0)[0] == 0.0
    assert log_marcum_q_pair(math.inf, 3.0)[1] == -math.inf
    assert log_marcum_q_pair(3.0, math.inf)[0] == -math.inf
    assert log_marcum_q_pair(3.0, math.inf)[1] == 0.0
    assert marcum_q(math.inf, 0.0) == 1.0
    for fn in (marcum_q, log_marcum_q_pair):
        with pytest.raises(ValueError):
            fn(math.inf, math.inf)


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_marcum_rejects_bad_arguments(bad):
    for fn in (marcum_q, log_marcum_q_pair):
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
    # (a - b)^2 beyond the doubles: -inf and 0, not a float's OverflowError
    assert log_marcum_q_da(1e200, 1.0) == -math.inf
    assert marcum_q_da(1e200, 1.0) == 0.0
    assert marcum_q_daa(1e200, 1.0) == 0.0
    with pytest.raises(ValueError):
        marcum_q_da(-1.0, 1.0)
    with pytest.raises(ValueError):
        marcum_q_daa(1.0, -1.0)


def _mp_marcum_q_daa(a: float, b: float) -> float:
    with mpmath.workdps(50):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        z = a_ * b_
        return float((b_ * b_ / 2 * (mpmath.besseli(0, z) + mpmath.besseli(2, z))
                      - z * mpmath.besseli(1, z)) * mpmath.exp(-(a_ * a_ + b_ * b_) / 2))


@pytest.mark.parametrize("a, b", [(1e5, 1e5), (1e5, 1e5 + 1.0),
                                  (1e5 + 3.0, 1e5), (32768.5, 32768.5)])
def test_marcum_second_derivative_where_scipy_ive_is_nan(a, b):
    # a b >= 2^30, where scipy's ive(2, ab) is NaN; the bracket's terms,
    # of order sqrt(ab), cancel to its value, so the error is a few last
    # places of those terms, as it is below 2^30
    assert a * b >= 2.0 ** 30
    assert marcum_q_daa(a, b) == pytest.approx(_mp_marcum_q_daa(a, b),
                                               abs=1e-16 * math.sqrt(a * b))


@pytest.mark.parametrize("a", [50.0, 500.0, 32767.9, 1e5])
def test_marcum_second_derivative_loses_accuracy_as_ab_near_a_equals_b(a):
    # at a = b the bracket's two terms, b^2/2 (i0e + i2e) and z i1e at
    # z = ab, are each about sqrt(z / 2 pi) and each within 4 ulps (the
    # Bessel values, the products and the sum); they cancel to about
    # 1/(2 sqrt(2 pi z)), so their magnitudes add up to 4z times the
    # value and the relative error is at most 16 z ulps: 4.4e-12 at
    # a = b = 50, 1.8e-5 at a = b = 1e5
    z = a * a
    want = _mp_marcum_q_daa(a, a)
    assert marcum_q_daa(a, a) == pytest.approx(
        want, rel=16.0 * z * 2.0 ** -53)


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
    j = _moment_order(s)
    return 2.0 * _power_moments(j, math.sqrt(x), math.inf)[j]


def lower_gamma(s: float, x: float) -> float:
    # gamma(s, x) = 2 int_0^{sqrt x} u^(2s-1) e^{-u^2} du
    #             = 2 (-1)^(2s-1) int_{-sqrt x}^0 u^(2s-1) e^{-u^2} du
    j = _moment_order(s)
    return 2.0 * (-1.0) ** j * _power_moments(j, -math.sqrt(x), 0.0)[j]


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
