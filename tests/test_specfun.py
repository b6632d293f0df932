"""Tests for the special-function layer: Marcum Q, its log tails and
amplitude derivatives, the Maclaurin coefficients of I1(y)^2, the
incomplete gamma functions that the closed-form moments evaluate, and the
scaled Bessel functions that the Marcum derivatives take from scipy.

Oracle sources, in order of preference:
 * closed-form identities (exact),
 * scipy.stats / scipy.special evaluated where they are trustworthy,
 * high-precision reference values (mpmath) for the deep tails where
   double-precision libraries cannot follow.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from binloc.closedform import _half_moment, _power_moment
from binloc.specfun import (
    _SERIES_LAMBDA_MAX,
    i1_squared_taylor_coeff,
    log1m_marcum_q,
    log_marcum_q,
    marcum_q,
    marcum_q_da,
    marcum_q_daa,
)
from binloc.specfun import _log_marcum_q_asymptotic

# Tolerance for the scipy cross-checks (measured headroom is ~1e-14).
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
# Marcum Q: exact identities and scipy oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_marcum_equal_argument_identity(a):
    # Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2
    ref = 0.5 * (1.0 + special.i0e(a * a))
    assert marcum_q(a, a) == pytest.approx(ref, rel=1e-13, abs=1e-13)


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
            ref = float(stats.ncx2.sf(b * b, 2, a * a))
            if ref < 1e-280:
                continue
            assert marcum_q(float(a), float(b)) == pytest.approx(ref, rel=_SCIPY_RTOL)


def test_marcum_beyond_series_cap_matches_scipy():
    # lambda = a^2/2 > 256 leaves the linear-space series; the log-domain
    # assembly must agree where scipy is still accurate.
    for a in (22.64, 30.0, 45.0):
        for b in (15.0, 22.6, 30.0, 44.0):
            ref = float(stats.ncx2.sf(b * b, 2, a * a))
            assert marcum_q(a, b) == pytest.approx(ref, rel=1e-11)


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
        assert log1m_marcum_q(a, b) == pytest.approx(-math.exp(lq), rel=1e-6)
    if l1_ref is not None:
        l1 = log1m_marcum_q(a, b)
        assert l1 == pytest.approx(l1_ref, rel=1e-10)
        assert log_marcum_q(a, b) == pytest.approx(-math.exp(l1), rel=1e-6)


@pytest.mark.parametrize("a,b,ref,side,tol", _ASYMPTOTIC_TABLE)
def test_marcum_asymptotic_branch_accuracy(a, b, ref, side, tol):
    got = log_marcum_q(a, b) if side == "lq" else log1m_marcum_q(a, b)
    assert got == pytest.approx(ref, abs=tol)


def test_asymptotic_branch_continuous_with_windowed_sums():
    # Just below the half-argument cap both routes are computable; the
    # handover must be smooth at the scale of the approximation error.
    a = math.sqrt(2.0 * 9.0e5)
    for b in (1300.0, a, 1400.0):
        lq_w, l1_w = log_marcum_q(a, b), log1m_marcum_q(a, b)
        lq_a, l1_a = _log_marcum_q_asymptotic(a, b)
        assert abs(lq_w - lq_a) <= max(2e-3, 1e-4 * abs(lq_w))
        assert abs(l1_w - l1_a) <= max(2e-3, 1e-4 * abs(l1_w))


def _mp_log_tails(a: float, b: float) -> tuple[float, float]:
    """(log Q1, log(1 - Q1)) from a 50-digit Poisson(a^2/2) mixture of
    regularized gamma tails, each side summed on its own so that neither
    is taken as the complement of a number near 1."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(a) ** 2 / 2
        y = mpmath.mpf(b) ** 2 / 2
        half = 20.0 * math.sqrt(float(lam) + 1.0) + 60.0
        q = p = mpmath.mpf(0)
        for k in range(max(0, int(lam - half)), int(lam + half) + 1):
            pois = mpmath.exp(-lam + k * mpmath.log(lam) - mpmath.loggamma(k + 1))
            q += pois * mpmath.gammainc(k + 1, y, mpmath.inf, regularized=True)
            p += pois * mpmath.gammainc(k + 1, 0, y, regularized=True)
        lq = mpmath.log(q) if q < 0.5 else mpmath.log1p(-p)
        l1 = mpmath.log(p) if p < 0.5 else mpmath.log1p(-q)
        return float(lq), float(l1)


_A_BELOW_CAP = math.sqrt(2.0 * (_SERIES_LAMBDA_MAX - 0.2))
_A_ABOVE_CAP = math.sqrt(2.0 * (_SERIES_LAMBDA_MAX + 0.06))


@pytest.mark.parametrize("a,b", [
    # Q rounds to 1 in the linear series; log Q ~ -(1 - Q) must survive
    (20.0, 10.0), (22.46, 3.37),
    # either side of the series cap lambda = a^2/2 = 256, both tails
    (_A_BELOW_CAP, 5.0), (_A_ABOVE_CAP, 5.0), (_A_BELOW_CAP, 30.0), (_A_ABOVE_CAP, 30.0),
    # 1 - Q = 1e-8 and 1e-10: either side of the switch from the linear
    # series to the log-space sums, at small and large noncentrality
    (8.0, 2.494823), (8.0, 1.761585), (22.0, 16.414229), (22.0, 15.665477),
])
def test_log_tails_match_mpmath_oracle(a, b):
    lq_ref, l1_ref = _mp_log_tails(a, b)
    assert log_marcum_q(a, b) == pytest.approx(lq_ref, rel=1e-6, abs=0.0)
    assert log1m_marcum_q(a, b) == pytest.approx(l1_ref, rel=1e-6, abs=0.0)


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
