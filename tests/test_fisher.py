"""Tests for the expected Fisher information of the detector field and
the per-sensor information matrices.

The quadrature results are pinned against frozen high-precision values
and cross-checked through an independent range-domain formulation of the
same integral.  A polar lattice of per-sensor matrices checks the
analytic zero of the off-diagonal entries, and its diagonal reproduces
the quadrature; the array per-sensor information is checked against the
scalar routes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from binloc import specfun
from binloc.detection import (DetectorConfig, TargetParams,
                              detection_probability_derivatives,
                              signal_coordinate)
from binloc.fisher import (
    FieldConfig,
    FisherResult,
    QuadratureError,
    expected_f22_r_domain,
    expected_fim_quadrature,
    offdiag_quadrature_estimate,
    per_sensor_fim,
    rmin_expected,
    x_breve,
)
from binloc.fisher import (_lattice_information, _log_kernel,
                           _log_kernel_array, _sensor_information)
from binloc.montecarlo import SimConfig, sample_field

_FIELD = FieldConfig(rho=0.05)
_P = 2.0

# Frozen quadrature values at tau = 0.5, sigma2 = 0.25, T = 1, P = 2,
# rho = 0.05 (verified against 50-digit quadrature of the same integrals).
_F11_ALPHA2 = 0.3169630138204049
_F22_ALPHA2 = 0.21919322556884036
_F11_ALPHA4 = 0.005706516791583909
_F22_ALPHA4 = 0.026962294592176417


def _cfg(alpha: float) -> DetectorConfig:
    return DetectorConfig(tau=0.5, sigma2=0.25, alpha=alpha)


# ----------------------------------------------------------------------
# field geometry
# ----------------------------------------------------------------------

def test_expected_nearest_distance():
    # mean of the Rayleigh nearest-distance law: 1 / sqrt(4 rho)
    assert rmin_expected(_FIELD) == pytest.approx(2.23606797749979, rel=1e-15)
    assert rmin_expected(FieldConfig(rho=5.0)) == pytest.approx(
        1.0 / math.sqrt(20.0), rel=1e-15
    )


def test_field_config_truncation_radius():
    assert _FIELD.r_breve == pytest.approx(2.23606797749979, rel=1e-15)
    override = FieldConfig(rho=0.05, r_breve_override=1.25)
    assert override.r_breve == 1.25


def test_field_config_validation():
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            FieldConfig(rho=bad)
    with pytest.raises(ValueError):
        FieldConfig(rho=0.05, r_breve_override=0.0)
    with pytest.raises(ValueError):
        FieldConfig(rho=0.05, r_breve_override=math.inf)


def test_x_breve_values():
    assert x_breve(_cfg(2.0), _P, _FIELD) == pytest.approx(
        1.2649110640673515, rel=1e-14
    )
    assert x_breve(_cfg(4.0), _P, _FIELD) == pytest.approx(
        0.565685424949238, rel=1e-14
    )
    # with an override the truncation radius is taken literally
    unit = FieldConfig(rho=0.05, r_breve_override=1.0)
    assert x_breve(_cfg(2.0), _P, unit) == pytest.approx(math.sqrt(8.0), rel=1e-14)


def test_quadrature_error_carries_estimate():
    err = QuadratureError("failed", estimate=1.5)
    assert err.estimate == 1.5
    assert math.isnan(QuadratureError("failed").estimate)


# ----------------------------------------------------------------------
# expected information via quadrature
# ----------------------------------------------------------------------

def test_expected_fim_frozen_values_alpha2():
    res = expected_fim_quadrature(_cfg(2.0), _P, _FIELD)
    assert res.F11 == pytest.approx(_F11_ALPHA2, rel=1e-10)
    assert res.F22 == pytest.approx(_F22_ALPHA2, rel=1e-10)
    assert res.F33 == res.F22
    assert res.offdiag_max_abs == 0.0
    assert res.method == "quadrature"
    assert res.quality == "ok"


def test_expected_fim_frozen_values_alpha4():
    res = expected_fim_quadrature(_cfg(4.0), _P, _FIELD)
    assert res.F11 == pytest.approx(_F11_ALPHA4, rel=1e-10)
    assert res.F22 == pytest.approx(_F22_ALPHA4, rel=1e-10)


def test_crb_properties():
    res = expected_fim_quadrature(_cfg(2.0), _P, _FIELD)
    assert res.crb_P == pytest.approx(1.0 / res.F11, rel=1e-15)
    assert res.crb_x == pytest.approx(1.0 / res.F22, rel=1e-15)
    assert res.crb_y == res.crb_x
    degenerate = FisherResult(
        F11=0.0, F22=-1.0, F33=0.0, offdiag_max_abs=0.0, method="quadrature"
    )
    assert degenerate.crb_P == math.inf
    assert degenerate.crb_x == math.inf


def test_expected_fim_rejects_bad_power():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            expected_fim_quadrature(_cfg(2.0), bad, _FIELD)


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_range_domain_crosscheck(alpha):
    # the same F22 written as an integral over range instead of signal
    # coordinate; agreement is limited only by quadrature error
    res = expected_fim_quadrature(_cfg(alpha), _P, _FIELD)
    alt = expected_f22_r_domain(_cfg(alpha), _P, _FIELD)
    assert alt == pytest.approx(res.F22, rel=1e-12)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("tau", [0.3, 0.7, 1.5])
def test_lattice_diagonal_matches_quadrature(alpha, tau):
    # the polar lattice of per-sensor matrices and the 1-D quadrature
    # share the 2 pi rho convention; they differ by the lattice's cut at
    # 200 r_breve, whose tail scales as R^(2 - 2 alpha) for F11 and
    # R^(-2 alpha) for F22 (3.9e-5 for F11 at alpha = 2, 1.2e-9 for F22)
    cfg = DetectorConfig(tau=tau, sigma2=0.25, alpha=alpha)
    res = expected_fim_quadrature(cfg, _P, _FIELD)
    J = _lattice_information(cfg, _P, _FIELD)
    assert J[0, 0] == pytest.approx(res.F11, rel=1e-4 if alpha == 2.0 else 1e-8)
    assert J[1, 1] == pytest.approx(res.F22, rel=1e-8)
    assert J[2, 2] == pytest.approx(res.F33, rel=1e-8)


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_offdiagonal_entries_vanish(alpha):
    res = expected_fim_quadrature(_cfg(alpha), _P, _FIELD)
    od = offdiag_quadrature_estimate(_cfg(alpha), _P, _FIELD)
    assert od <= 1e-10 * res.F22


def test_information_scales_linearly_in_density():
    # with the truncation radius pinned, the field integrals are linear
    # in the sensor density
    fixed = FieldConfig(rho=0.05, r_breve_override=2.0)
    doubled = FieldConfig(rho=0.10, r_breve_override=2.0)
    a = expected_fim_quadrature(_cfg(2.0), _P, fixed)
    b = expected_fim_quadrature(_cfg(2.0), _P, doubled)
    assert b.F11 == pytest.approx(2.0 * a.F11, rel=1e-12)
    assert b.F22 == pytest.approx(2.0 * a.F22, rel=1e-12)


def test_information_decreases_with_threshold_far_from_optimum():
    # raising the threshold far beyond the detection sweet spot destroys
    # information
    mid = expected_fim_quadrature(DetectorConfig(tau=0.5, sigma2=0.25), _P, _FIELD)
    high = expected_fim_quadrature(DetectorConfig(tau=3.0, sigma2=0.25), _P, _FIELD)
    assert high.F11 < mid.F11
    assert high.F22 < mid.F22


# ----------------------------------------------------------------------
# per-sensor information
# ----------------------------------------------------------------------

def test_per_sensor_fim_structure():
    cfg = _cfg(2.0)
    theta = TargetParams(P=_P, x=0.5, y=-0.25)
    F = per_sensor_fim(cfg, theta, 2.5, 1.0)
    assert F.shape == (3, 3)
    np.testing.assert_allclose(F, F.T, rtol=0.0, atol=0.0)
    eig = np.linalg.eigvalsh(F)
    assert eig[-1] > 0.0
    # rank one: the two smaller eigenvalues vanish at machine precision
    assert abs(eig[0]) <= 1e-12 * eig[-1]
    assert abs(eig[1]) <= 1e-12 * eig[-1]


def test_per_sensor_fim_matches_direct_assembly():
    from binloc.detection import (
        detection_probability,
        detection_probability_derivatives,
    )

    cfg = _cfg(2.0)
    theta = TargetParams(P=_P, x=0.0, y=0.0)
    sx, sy = 1.8, -0.6
    r = math.hypot(sx, sy)
    d_dr, d_dP = detection_probability_derivatives(cfg, theta.P, r)
    q = detection_probability(cfg, theta.P, r)
    v = np.array([d_dP, -(sx / r) * d_dr, -(sy / r) * d_dr])
    ref = np.outer(v, v) / (q * (1.0 - q))
    np.testing.assert_allclose(per_sensor_fim(cfg, theta, sx, sy), ref, rtol=1e-9)


def test_per_sensor_fim_rotation_invariance():
    # rotating the sensor about the emitter permutes the position block
    # but leaves the eigenvalues and the power entry unchanged
    cfg = _cfg(2.0)
    theta = TargetParams(P=_P, x=0.0, y=0.0)
    F0 = per_sensor_fim(cfg, theta, 2.0, 0.0)
    F1 = per_sensor_fim(cfg, theta, 0.0, 2.0)
    assert F1[0, 0] == pytest.approx(F0[0, 0], rel=1e-12)
    assert F1[2, 2] == pytest.approx(F0[1, 1], rel=1e-12)
    assert F1[1, 1] == pytest.approx(F0[2, 2], rel=1e-12, abs=1e-300)
    assert np.trace(F1) == pytest.approx(np.trace(F0), rel=1e-12)


def test_per_sensor_fim_close_sensor_decay():
    # a sensor almost on top of the emitter detects with certainty and
    # carries no usable information; the limit must not overflow
    cfg = _cfg(2.0)
    theta = TargetParams(P=_P, x=0.0, y=0.0)
    assert per_sensor_fim(cfg, theta, 2.0, 0.0)[1, 1] == pytest.approx(
        0.23810058398643594, rel=1e-10
    )
    assert per_sensor_fim(cfg, theta, 0.5, 0.0)[1, 1] == pytest.approx(
        0.14546570709884024, rel=1e-10
    )
    tiny = per_sensor_fim(cfg, theta, 0.1, 0.0)
    assert np.all(np.isfinite(tiny))
    assert np.abs(tiny).max() < 1e-100
    np.testing.assert_array_equal(per_sensor_fim(cfg, theta, 0.04, 0.0),
                                  np.zeros((3, 3)))


def test_log_kernel_array_matches_scalar():
    # every branch of the log pair: the weak-signal polynomial, the ufunc,
    # the Neumann tails and the asymptotic form past x^2/2 = 1e6
    xs = np.concatenate([np.logspace(-4.0, 0.0, 60), np.linspace(1.0, 80.0, 160),
                         [300.0, 1500.0]])
    for t in (0.2, math.sqrt(3.2), 3.0, 8.0, 40.0):
        for power in (-1.0, 0.0, 1.0, 2.0):
            arr = _log_kernel_array(xs, t, power)
            ref = np.array([_log_kernel(float(x), t, power) for x in xs])
            finite = np.isfinite(ref)
            np.testing.assert_array_equal(np.isfinite(arr), finite)
            err = np.abs(arr - ref)[finite]
            assert np.all(err <= 4e-15 * np.maximum(1.0, np.abs(ref[finite])))


def test_sensor_information_matches_scalar_assembly_over_a_field():
    # criterion 8's point: one sampled field, ~580 sensors, summed
    cfg = DetectorConfig(tau=0.40, sigma2=0.25)
    truth = TargetParams(P=_P, x=0.0, y=0.0)
    sim = SimConfig(field=_FIELD, detector=cfg, truth=truth, trials=1,
                    region_radius=60.0, master_seed=20260814)
    sensors = sample_field(sim, 0)
    log_w, u = _sensor_information(cfg, _P, truth.x, truth.y,
                                   sensors[:, 0], sensors[:, 1])
    J = (u * np.exp(log_w)) @ u.T
    ref = np.zeros((3, 3))
    t = cfg.threshold_coordinate
    for sx, sy in sensors:
        r = math.hypot(sx, sy)
        d_dr, d_dP = detection_probability_derivatives(cfg, _P, r)
        log_q, log_1mq = specfun.log_marcum_q_pair(
            signal_coordinate(cfg, _P, r), t)
        v = np.array([d_dP, -(sx / r) * d_dr, -(sy / r) * d_dr])
        ref += np.outer(v, v) * math.exp(-(log_q + log_1mq))
    assert len(sensors) > 500
    np.testing.assert_allclose(J, ref, rtol=1e-12)


def test_per_sensor_fim_rejects_coincident_sensor():
    cfg = _cfg(2.0)
    theta = TargetParams(P=_P, x=1.0, y=1.0)
    with pytest.raises(ValueError):
        per_sensor_fim(cfg, theta, 1.0, 1.0)
