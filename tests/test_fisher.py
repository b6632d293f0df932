"""Tests for the expected Fisher information of the detector field and
the per-sensor information matrices.

The quadrature results are pinned against frozen high-precision values,
against scipy's QUADPACK over the scalar kernel on the default sweeps,
against a 20-digit mpmath oracle where QUADPACK misses, and through an
independent range-domain formulation of the same integral.  A polar
lattice of per-sensor matrices checks the analytic zero of the
off-diagonal entries, and its diagonal reproduces the quadrature; the
array per-sensor information is checked against the scalar routes, and
against the covariance of the nll's gradient over decision draws.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from binloc import fisher, specfun
from binloc.detection import (DetectorConfig, TargetParams, _nll_derivatives,
                              detection_probability_array, signal_coordinate)
from binloc.fisher import (
    FieldConfig,
    FisherResult,
    QuadratureError,
    expected_fim_quadrature,
    offdiag_quadrature_estimate,
    rmin_expected,
    x_breve,
)
from binloc.cli import Settings, sweep_points
from binloc.fisher import _lattice_information, _log_kernel, _sensor_information
from binloc.montecarlo import SimConfig, sample_field

from _reference import (detection_probability_derivatives, expected_f22_r_domain,
                        expected_fim_mpmath, expected_fim_quadpack,
                        log_kernel_scalar)

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
    # the integrals stop at the expected nearest-sensor distance
    assert x_breve(_cfg(2.0), _P, _FIELD) == signal_coordinate(
        _cfg(2.0), _P, rmin_expected(_FIELD))


def test_field_config_validation():
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            FieldConfig(rho=bad)


def test_x_breve_values():
    assert x_breve(_cfg(2.0), _P, _FIELD) == pytest.approx(
        1.2649110640673515, rel=1e-14
    )
    assert x_breve(_cfg(4.0), _P, _FIELD) == pytest.approx(
        0.565685424949238, rel=1e-14
    )
    # rho = 1/4 puts the truncation radius at 1
    unit = FieldConfig(rho=0.25)
    assert x_breve(_cfg(2.0), _P, unit) == pytest.approx(math.sqrt(8.0), rel=1e-14)


# ----------------------------------------------------------------------
# expected information via quadrature
# ----------------------------------------------------------------------

def test_expected_fim_frozen_values_alpha2():
    res = expected_fim_quadrature(_cfg(2.0), _P, _FIELD)
    assert res.F11 == pytest.approx(_F11_ALPHA2, rel=1e-10)
    assert res.F22 == pytest.approx(_F22_ALPHA2, rel=1e-10)
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
    degenerate = FisherResult(F11=0.0, F22=-1.0, method="quadrature")
    assert degenerate.crb_P == math.inf
    assert degenerate.crb_x == math.inf


def test_expected_fim_rejects_bad_power():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            expected_fim_quadrature(_cfg(2.0), bad, _FIELD)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("tau", [0.10, 0.40, 1.36, 2.00])
def test_shared_node_values_keep_every_bit(tau, alpha, monkeypatch):
    # F11 and F22 take their kernel rows from one Marcum call per round;
    # the entries equal, to the bit, one kernel call per power
    cfg = DetectorConfig(tau=tau, sigma2=0.25, alpha=alpha)
    sizes = []
    pair = specfun.log_marcum_q_pair_array

    def counted(x, t):
        sizes.append(x.size)
        return pair(x, t)

    monkeypatch.setattr(specfun, "log_marcum_q_pair_array", counted)
    shared = expected_fim_quadrature(cfg, _P, _FIELD)
    rounds, nodes = len(sizes), sum(sizes)
    kernel = fisher._log_kernel
    monkeypatch.setattr(fisher, "_log_kernel", lambda x, t, powers: np.stack(
        [kernel(x, t, float(p)) for p in powers[:, 0]]))
    alone = expected_fim_quadrature(cfg, _P, _FIELD)
    assert (shared.F11, shared.F22) == (alone.F11, alone.F22)
    assert len(sizes) == 3 * rounds
    # 21 Gauss-Kronrod nodes a panel: 42 at the default grid's typical
    # point, 63 at tau = 0.10, alpha = 2, where no panel is split
    if alpha == 2.0:
        assert (rounds, nodes) == (1, 63 if tau == 0.10 else 42)


# the default crb sweep (acceptance criterion 4's grid)
_SWEEP = sweep_points(Settings())


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_default_sweep_matches_the_quadpack_route(alpha):
    # every entry of the default 96-point sweep against scipy's QUADPACK
    # over the scalar kernel.  At alpha 2 and 4 neither route splits a
    # panel, so both sum the same Gauss-Kronrod panels and differ by the
    # rounding of numpy's exp and log1p against libm's
    rel = 1e-15 if alpha in (2.0, 4.0) else 1e-12
    for tau in _SWEEP:
        cfg = DetectorConfig(tau=tau, sigma2=0.25, alpha=alpha)
        res = expected_fim_quadrature(cfg, _P, _FIELD)
        ref11, ref22 = expected_fim_quadpack(cfg, _P, _FIELD)
        assert res.F22 == pytest.approx(ref22, rel=rel, abs=0.0)
        # QUADPACK itself misses F11 by 7.8e-12 at alpha = 1.2,
        # tau = 0.2; the mpmath oracle test checks that point instead
        if (alpha, tau) != (1.2, 0.2):
            assert res.F11 == pytest.approx(ref11, rel=rel, abs=0.0)


# (rho, P, alpha, tau) where the singular F11 kernel x^(1 - 4/alpha) or a
# peak far from 0 tests the route: QUADPACK misses F11 by 2.1e-4 at the
# first, by 2.6e-9 at the second and by 7.8e-12 at the last, while its
# error estimate passes
_HARD_POINTS = [(0.05, 0.01, 1.2, 8.0), (1e-4, 0.01, 2.5, 0.1),
                (10.0, 2.0, 2.0, 8.0), (0.05, 2.0, 1.2, 0.2)]


def _meets_oracle(point, route) -> bool:
    rho, P, alpha, tau = point
    cfg = DetectorConfig(tau=tau, sigma2=0.25, alpha=alpha)
    field = FieldConfig(rho=rho)
    got, ref = route(cfg, P, field), expected_fim_mpmath(cfg, P, field)
    return all(abs(g - r) <= 1e-10 * r for g, r in zip(got, ref))


@pytest.mark.parametrize("point", _HARD_POINTS)
def test_hard_points_meet_the_mpmath_oracle(point):
    def route(cfg, P, field):
        res = expected_fim_quadrature(cfg, P, field)
        return res.F11, res.F22

    assert _meets_oracle(point, route)


def test_quadpack_route_misses_the_mpmath_oracle():
    # the same check has teeth: QUADPACK's F11 fails it
    assert not _meets_oracle(_HARD_POINTS[0], expected_fim_quadpack)


def test_singular_f11_kernel_costs_at_most_twice_the_smooth_one(monkeypatch):
    # the first panel's map x = b (u/b)^3 smooths F11's kernel at 0: the
    # default sweeps at alpha 1.5 and 3 take at most twice the Marcum
    # nodes of alpha 2's (21 times as many without the map at 1.5)
    sizes = []
    pair = specfun.log_marcum_q_pair_array

    def counted(x, t):
        sizes.append(x.size)
        return pair(x, t)

    monkeypatch.setattr(specfun, "log_marcum_q_pair_array", counted)
    nodes = {}
    for alpha in (1.5, 2.0, 3.0):
        sizes.clear()
        for tau in _SWEEP:
            expected_fim_quadrature(
                DetectorConfig(tau=tau, sigma2=0.25, alpha=alpha), _P, _FIELD)
        nodes[alpha] = sum(sizes)
    assert nodes[1.5] <= 2 * nodes[2.0] and nodes[3.0] <= 2 * nodes[2.0]


def test_cli_import_leaves_scipy_integrate_out():
    # the quadrature needs no QUADPACK, so a CLI process does not pay
    # scipy.integrate's import
    src = os.path.dirname(os.path.dirname(fisher.__file__))
    code = ("import sys, binloc.cli; "
            "assert 'scipy.integrate' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_divergent_f11_raises_quadrature_error():
    # at alpha = 1 the F11 integrand goes as 1/x at x -> 0: the panel at 0
    # is split until the panel limit
    with pytest.raises(QuadratureError, match="after 200 panels"):
        expected_fim_quadrature(_cfg(1.0), _P, _FIELD)


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
    assert J[2, 2] == pytest.approx(res.F22, rel=1e-8)


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_offdiagonal_entries_vanish(alpha):
    res = expected_fim_quadrature(_cfg(alpha), _P, _FIELD)
    od = offdiag_quadrature_estimate(_cfg(alpha), _P, _FIELD)
    assert od <= 1e-10 * res.F22


def test_information_scales_linearly_in_density():
    # the constants in front of the field integrals are linear in the
    # sensor density; the kernel powers do not depend on it
    for alpha in (2.0, 4.0):
        single = fisher._prefactors(_cfg(alpha), _P, FieldConfig(rho=0.05))
        doubled = fisher._prefactors(_cfg(alpha), _P, FieldConfig(rho=0.10))
        for (c, power), (c2, power2) in zip(single, doubled):
            assert c2 == pytest.approx(2.0 * c, rel=1e-12)
            assert power2 == power


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

def per_sensor_fim(cfg, theta, sensor_x, sensor_y):
    # one sensor's rank-one matrix exp(log w) u u^T, ordering (P, x_T, y_T)
    log_w, u = _sensor_information(cfg, theta.P, theta.x, theta.y,
                                   np.array([sensor_x]), np.array([sensor_y]))
    return math.exp(log_w[0]) * np.outer(u[:, 0], u[:, 0])


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
    from binloc.detection import detection_probability

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
            arr = _log_kernel(xs, t, power)
            ref = np.array([log_kernel_scalar(float(x), t, power) for x in xs])
            finite = np.isfinite(ref)
            np.testing.assert_array_equal(np.isfinite(arr), finite)
            err = np.abs(arr - ref)[finite]
            assert np.all(err <= 4e-15 * np.maximum(1.0, np.abs(ref[finite])))


def test_log_slope_is_one_expression_for_scalars_and_arrays():
    # scalar log_marcum_q_da and the quadrature's kernel both read
    # specfun._log_marcum_q_da: the same bits entry by entry, from a = 0
    # (-inf) over the quadrature's x range to a b = 1e6; at x = 12.5193...
    # and t = 3, a float's (x - t) ** 2 (pow) differs from (x - t) * (x - t)
    xs = np.concatenate([[0.0], np.logspace(-4.0, 0.0, 30),
                         np.linspace(1.0, 80.0, 80), [300.0, 1500.0, 2.5e4],
                         [12.519351378178598]])
    for t in (0.2, math.sqrt(3.2), 3.0, 8.0, 40.0):
        slope = specfun._log_marcum_q_da(xs, t)
        np.testing.assert_array_equal(
            slope, [specfun.log_marcum_q_da(float(x), t) for x in xs])
        assert slope[0] == -math.inf
        log_q, log_1mq = specfun.log_marcum_q_pair_array(xs, t)
        np.testing.assert_array_equal(_log_kernel(xs, t, 0.0),
                                      2.0 * slope - (log_q + log_1mq))


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


# the score identity's draw count and its band in standard errors, both
# set before the run; the SE of a second moment of a Gaussian score,
# sqrt((J_jj J_kk + J_jk^2) / n), is the larger one here: on this field,
# 20,000 draws measured a relative SE of 0.79% on the diagonal, against
# the Gaussian sqrt(2 / 20,000) = 1.0%
_SCORE_DRAWS = 3000
_SCORE_BAND_SE = 4.0


def test_score_covariance_is_the_summed_sensor_information():
    # the fit's gradient and the bound's information are separate code:
    # over decision draws on one field, the covariance of the nll's
    # gradient at the truth is the summed per-sensor information, both in
    # (ln P, x, y), and the gradient's mean is 0
    cfg = DetectorConfig(tau=0.40, sigma2=0.25)
    truth = TargetParams(P=_P, x=0.0, y=0.0)
    sim = SimConfig(field=_FIELD, detector=cfg, truth=truth, trials=1,
                    region_radius=60.0, master_seed=20260814)
    sx, sy = sample_field(sim, 0).T
    assert len(sx) == 581
    log_w, u = _sensor_information(cfg, _P, truth.x, truth.y, sx, sy)
    u[0] *= _P      # d/d(ln P) = P d/dP
    J = (u * np.exp(log_w)) @ u.T
    pd = detection_probability_array(cfg, _P, np.hypot(sx, sy))
    draws = np.random.default_rng(20260814).random((_SCORE_DRAWS, len(sx))) < pd
    scores = np.array([
        _nll_derivatives(cfg, _P, truth.x, truth.y, sx, sy, detected,
                         np.where(detected, 1.0, -1.0))[0]
        for detected in draws])
    n = _SCORE_DRAWS
    cov = scores.T @ scores / n
    diag = np.diag(J)
    se = np.sqrt((np.outer(diag, diag) + J * J) / n)
    assert np.all(np.abs(cov - J) <= _SCORE_BAND_SE * se), (cov - J) / se
    mean_se = np.sqrt(diag / n)
    assert np.all(np.abs(scores.mean(axis=0)) <= _SCORE_BAND_SE * mean_se)
