"""Tests for the closed-form Fisher information approximation: the
endpoint Taylor surrogate, the Maclaurin coefficients of I1(y)^2, the
shifted Gaussian moments, the finite gamma-function sums, and the quality
flags.

The moment identities are checked against adaptive quadrature of their
defining integrals; the full closed form is checked to be *exact* on a
synthetic surrogate model (where no Taylor or series truncation error
exists) and pinned against frozen values at the reference operating
point.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from binloc import closedform, specfun
from binloc.closedform import (
    M_MAX,
    ModelInvalid,
    TaylorModel,
    UnsupportedAlpha,
    approximation_quality,
    build_taylor_model,
    closed_form_fisher,
    default_series_order,
    f11_closed_form,
    f22_closed_form,
)
from binloc.closedform import _I1SQ_COEFFS, _power_moments, _shifted_moment
from binloc.detection import DetectorConfig
from binloc.fisher import (FieldConfig, FisherResult, QuadratureError,
                           expected_fim_quadrature)

_FIELD = FieldConfig(rho=0.05)
_P = 2.0
_CFG2 = DetectorConfig(tau=0.5, sigma2=0.25, alpha=2.0)
_CFG4 = DetectorConfig(tau=0.5, sigma2=0.25, alpha=4.0)

# Frozen Taylor-surrogate data at tau = 0.5, sigma2 = 0.25, T = 1, P = 2,
# rho = 0.05, alpha = 2.
_MODEL2 = dict(
    f0=2.6887547591293783,
    f1=-1.471366361211905,
    f2=0.41183990142588944,
    A=0.38345798289190386,
    B=0.9592748272675031,
    C=0.6763550988902594,
    s_breve=1.92935531759734,
    y_breve=2.529822128134703,
)

# Frozen closed-form outputs at the same point (default orders).
_F11_CF_ALPHA2 = 0.3365967491932977   # m = 3
_F22_CF_ALPHA2 = 0.22068857122920246  # m = 3
_F11_CF_ALPHA4 = 0.005651752152560508  # m = 1
_F22_CF_ALPHA4 = 0.026577227230503316  # m = 1

# A dense field pushes the endpoint signal coordinate far beyond the
# truncated Bessel series' reach.
_DENSE_FIELD = FieldConfig(rho=5.0)


def _synthetic_model(B: float) -> TaylorModel:
    # coherent surrogate constants assembled backwards from (A, B, t, xb):
    # exactness of the gamma-sum formulas can then be tested with zero
    # Taylor/series truncation error
    t, A, xb = 2.0, 0.5, 1.2
    f2 = 1.0 - (A * t) ** 2
    f1 = -2.0 * B * math.sqrt(1.0 - f2)
    f0 = 3.0
    C = math.exp(f1 * f1 / (4.0 * (1.0 - f2)) + f0 - t * t)
    return TaylorModel(
        f0=f0, f1=f1, f2=f2, A=A, B=B, C=C,
        x_breve=xb, t=t, s_breve=A * xb * t + B,
    )


def _surrogate_f22_by_quadrature(model: TaylorModel, rho: float,
                                 alpha: float, m: int) -> float:
    # pi^2 rho alpha C int_0^yb [sum_k c_k y^(2k+3)] e^{-(A y + B)^2} dy
    coeffs = _I1SQ_COEFFS[:m + 1]

    def g(y: float) -> float:
        s = model.A * y + model.B
        poly = sum(c * y ** (2 * k + 3) for k, c in enumerate(coeffs))
        return poly * math.exp(-s * s)

    val, err = integrate.quad(g, 0.0, model.y_breve, epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-10
    return math.pi ** 2 * rho * alpha * model.C * val


# ----------------------------------------------------------------------
# Taylor surrogate
# ----------------------------------------------------------------------

def test_taylor_model_frozen_values():
    model = build_taylor_model(_CFG2, _P, _FIELD)
    for name, ref in _MODEL2.items():
        assert getattr(model, name) == pytest.approx(ref, rel=1e-12), name
    assert model.t == pytest.approx(2.0, rel=1e-15)
    assert model.x_breve == pytest.approx(1.2649110640673515, rel=1e-13)


def test_taylor_model_matches_log_weight_at_endpoint():
    # f(xb) = -ln Q - ln(1 - Q) evaluated directly
    model = build_taylor_model(_CFG2, _P, _FIELD)
    xb, t = model.x_breve, model.t
    f_direct = -sum(specfun.log_marcum_q_pair(xb, t))
    f_poly = model.f0 + model.f1 * xb + model.f2 * xb * xb
    assert f_poly == pytest.approx(f_direct, rel=1e-12)


def test_taylor_model_matches_log_weight_slope():
    model = build_taylor_model(_CFG2, _P, _FIELD)
    xb, t = model.x_breve, model.t
    h = 1e-5

    def f(x: float) -> float:
        return -sum(specfun.log_marcum_q_pair(x, t))

    fd_slope = (f(xb + h) - f(xb - h)) / (2.0 * h)
    assert model.f1 + 2.0 * model.f2 * xb == pytest.approx(fd_slope, rel=1e-6)
    fd_curv = (f(xb + h) - 2.0 * f(xb) + f(xb - h)) / (h * h)
    assert 2.0 * model.f2 == pytest.approx(fd_curv, rel=1e-4)


def test_taylor_model_substitution_identity():
    # C e^{-(A y + B)^2} must equal e^{f0 + f1 x + f2 x^2 - x^2 - t^2}
    # identically (exact completing-the-square algebra)
    model = build_taylor_model(_CFG2, _P, _FIELD)
    t = model.t
    for x in np.linspace(0.05, model.x_breve, 7):
        s = model.A * x * t + model.B
        lhs = model.C * math.exp(-s * s)
        rhs = math.exp(
            model.f0 + model.f1 * x + model.f2 * x * x - x * x - t * t
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_taylor_model_rejects_bad_power():
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            build_taylor_model(_CFG2, bad, _FIELD)


def test_taylor_model_invalid_when_amplitude_overflows():
    # an extreme threshold with nearly no noise puts the endpoint so deep
    # in the non-detection tail that the surrogate amplitude overflows
    cfg = DetectorConfig(tau=5.0, sigma2=0.01, alpha=2.0)
    with pytest.raises(ModelInvalid):
        build_taylor_model(cfg, 0.5, FieldConfig(rho=5.0))


def test_taylor_model_invalid_at_a_zero_threshold_coordinate():
    # 2 tau / sigma2 underflows to t = 0, where Q'(x, t) =
    # t I1(x t) e^(-(x^2 + t^2)/2) is 0 and the surrogate is undefined
    cfg = DetectorConfig(tau=5e-324, sigma2=20.0, alpha=2.0)
    assert cfg.threshold_coordinate == 0.0
    with pytest.raises(ModelInvalid, match=r"Q'\(x_breve, t\) vanishes"):
        build_taylor_model(cfg, _P, _FIELD)


# ----------------------------------------------------------------------
# Maclaurin coefficients of I1(y)^2
# ----------------------------------------------------------------------

def test_i1_squared_leading_coefficients():
    assert _I1SQ_COEFFS[0] == 0.25
    assert _I1SQ_COEFFS[1] == 0.0625
    assert _I1SQ_COEFFS[2] == pytest.approx(0.006510416666666667, rel=1e-15)


def test_i1_squared_coefficients_by_series_convolution():
    # c_k = 4^{-(k+1)} sum_m 1 / (m! (m+1)! (k-m)! (k-m+1)!)
    assert len(_I1SQ_COEFFS) == M_MAX + 1
    for k in range(M_MAX + 1):
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
        assert _I1SQ_COEFFS[k] == pytest.approx(ref, rel=1e-13)


def test_i1_squared_partial_series_reproduces_bessel():
    z = 0.8
    approx = sum(c * z ** (2 * k + 2) for k, c in enumerate(_I1SQ_COEFFS))
    assert approx == pytest.approx(special.i1(z) ** 2, rel=1e-13)


# ----------------------------------------------------------------------
# Gaussian moments
# ----------------------------------------------------------------------

@pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("interval", [(0.3, 1.7), (-1.2, 0.7), (-2.0, -0.5)])
def test_power_moment_matches_quadrature(j, interval):
    lo, hi = interval
    ref, err = integrate.quad(
        lambda s: s**j * math.exp(-s * s), lo, hi, epsabs=1e-14
    )
    assert err < 1e-10
    got = _power_moments(j, lo, hi)[j]
    assert got == pytest.approx(ref, rel=1e-11, abs=1e-13)


def _unsplit_power_moment(j, lo, hi):
    # difference of upper gammas, with no split at s = 0
    s = 0.5 * (j + 1)
    return 0.5 * special.gamma(s) * (special.gammaincc(s, lo * lo)
                                     - special.gammaincc(s, hi * hi))


def test_power_moment_unsplit_exact_only_on_positive_intervals():
    # the difference-of-gammas shortcut is what _power_moments uses for
    # lo >= 0 ...
    for j in (0, 1, 2, 3):
        assert (_power_moments(j, 0.4, 1.3)[j]
                == _unsplit_power_moment(j, 0.4, 1.3))
    # ... but it drops the sign of even powers left of zero, which the
    # split form keeps
    ref, _ = integrate.quad(lambda s: math.exp(-s * s), -1.0, 0.5, epsabs=1e-14)
    assert abs(_unsplit_power_moment(0, -1.0, 0.5) - ref) > 1e-3
    assert _power_moments(0, -1.0, 0.5)[0] == pytest.approx(ref, rel=1e-11)


def _scalar_power_moment(j, lo, hi):
    # one j at a time: the gamma difference for lo >= 0, else half moments
    # int_0^z s^j e^{-s^2} ds = gamma((j+1)/2, z^2) / 2 on each side of 0
    if lo >= 0.0:
        return float(_unsplit_power_moment(j, lo, hi))
    s = 0.5 * (j + 1)

    def half(z):
        return float(0.5 * special.gamma(s) * special.gammainc(s, z * z))

    sign = 1.0 if j % 2 == 0 else -1.0
    if hi <= 0.0:
        return sign * (half(-lo) - half(-hi))
    return sign * half(-lo) + half(hi)


@pytest.mark.parametrize("interval", [(0.3, 1.7), (0.0, 2.5), (1.2, math.inf),
                                      (-2.0, -0.5), (-1.5, 0.0), (-1.2, 0.7),
                                      (-0.4, 1.1)])
def test_power_moment_table_matches_scalar_bits(interval):
    # one array call per special function gives every j the bits of the
    # scalar call at that j
    lo, hi = interval
    table = _power_moments(9, lo, hi)
    assert len(table) == 10
    for j in range(10):
        assert table[j] == _scalar_power_moment(j, lo, hi), j
        assert _power_moments(j, lo, hi)[j] == table[j]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7])
@pytest.mark.parametrize("b_lo", [0.9592748272675031, -0.4])
def test_shifted_moment_keeps_scalar_bits(n, b_lo):
    # the binomial sum over a shared table, whatever its length, equals
    # the sum over scalar power moments term by term
    s_hi = b_lo + 1.5
    ref = 0.0
    for l in range(n + 1):
        ref += (math.comb(n, l) * (-b_lo) ** l
                * _scalar_power_moment(n - l, b_lo, s_hi))
    assert _shifted_moment(n, b_lo, _power_moments(n, b_lo, s_hi)) == ref
    assert _shifted_moment(n, b_lo, _power_moments(9, b_lo, s_hi)) == ref


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7])
@pytest.mark.parametrize("b_lo", [0.9592748272675031, -0.4])
def test_shifted_moment_matches_quadrature(n, b_lo):
    s_hi = b_lo + 1.5
    ref, err = integrate.quad(
        lambda s: (s - b_lo) ** n * math.exp(-s * s), b_lo, s_hi, epsabs=1e-14
    )
    assert err < 1e-12
    got = _shifted_moment(n, b_lo, _power_moments(n, b_lo, s_hi))
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-13)


# ----------------------------------------------------------------------
# closed-form information entries
# ----------------------------------------------------------------------

def test_default_series_orders():
    assert default_series_order(2.0) == 3
    assert default_series_order(4.0) == 1
    assert default_series_order(3.0) == 1


def test_series_order_validation():
    for bad in (-1, 11, 2.5):
        with pytest.raises(ValueError):
            f22_closed_form(_CFG2, _P, _FIELD, m=bad)  # type: ignore[arg-type]
    assert M_MAX == 10
    # the cap itself is allowed
    val = f22_closed_form(_CFG2, _P, _FIELD, m=M_MAX)
    assert math.isfinite(val)


def test_closed_form_frozen_values_alpha2():
    assert f11_closed_form(_CFG2, _P, _FIELD) == pytest.approx(
        _F11_CF_ALPHA2, rel=1e-12
    )
    assert f22_closed_form(_CFG2, _P, _FIELD) == pytest.approx(
        _F22_CF_ALPHA2, rel=1e-12
    )


def test_closed_form_frozen_values_alpha4():
    assert f11_closed_form(_CFG4, _P, _FIELD) == pytest.approx(
        _F11_CF_ALPHA4, rel=1e-12
    )
    assert f22_closed_form(_CFG4, _P, _FIELD) == pytest.approx(
        _F22_CF_ALPHA4, rel=1e-12
    )


@pytest.mark.parametrize(
    "cfg,f11_ref,f22_ref",
    [(_CFG2, 0.3169630138204049, 0.21919322556884036),
     (_CFG4, 0.005706516791583909, 0.026962294592176417)],
)
def test_closed_form_near_quadrature_at_reference_point(cfg, f11_ref, f22_ref):
    # approximation error at the reference operating point is ~6% for F11
    # at alpha = 2 and below 2% elsewhere
    assert f11_closed_form(cfg, _P, _FIELD) == pytest.approx(f11_ref, rel=0.08)
    assert f22_closed_form(cfg, _P, _FIELD) == pytest.approx(f22_ref, rel=0.08)


def test_closed_form_error_shrinks_with_series_order():
    cfg = DetectorConfig(tau=0.4, sigma2=0.25, alpha=2.0)
    exact = expected_fim_quadrature(cfg, _P, _FIELD).F22
    errs = [
        abs(f22_closed_form(cfg, _P, _FIELD, m=m) - exact) / exact
        for m in range(4)
    ]
    # frozen course of the F22 relative error: 0.4919, 0.1415, 0.0174, 0.0101
    assert errs[0] == pytest.approx(0.4919, abs=2e-3)
    assert errs[3] == pytest.approx(0.0101, abs=2e-3)
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_closed_form_exact_on_synthetic_surrogate():
    # with the surrogate constants given directly there is no truncation
    # error left: the gamma-function sums must reproduce the integral to
    # quadrature accuracy, including a negative shift B
    for B in (0.6, -0.4):
        model = _synthetic_model(B)
        for m in (0, 2):
            ref = _surrogate_f22_by_quadrature(model, _FIELD.rho, 2.0, m)
            got = f22_closed_form(_CFG2, _P, _FIELD, m=m, model=model)
            assert got == pytest.approx(ref, rel=1e-11), (B, m)


def test_negative_shift_requires_split_moments():
    # a moment interval that starts left of zero needs the split moments
    model = _synthetic_model(-0.4)
    ref = _surrogate_f22_by_quadrature(model, _FIELD.rho, 2.0, 1)
    split = f22_closed_form(_CFG2, _P, _FIELD, m=1, model=model)
    assert split == pytest.approx(ref, rel=1e-11)


def test_f11_unsupported_alpha():
    cfg = DetectorConfig(tau=0.5, sigma2=0.25, alpha=3.0)
    with pytest.raises(UnsupportedAlpha,
                       match=r"^closed-form F11 requires alpha in \{2, 4\}, "
                             r"got 3$"):
        f11_closed_form(cfg, _P, _FIELD)
    # alpha is printed to the digits that round-trip it
    with pytest.raises(UnsupportedAlpha, match=r"got 2.0000000000000004$"):
        f11_closed_form(DetectorConfig(tau=0.5, sigma2=0.25,
                                       alpha=2.0000000000000004), _P, _FIELD)
    # F22 keeps working for any alpha >= 1
    assert f22_closed_form(cfg, _P, _FIELD) > 0.0


def test_series_guard_warns_on_dense_field():
    # rho = 5 pushes y_breve to ~25.3, far beyond the m = 3 series radius
    with pytest.warns(RuntimeWarning, match="series"):
        f22_closed_form(_CFG2, _P, _DENSE_FIELD)
    with pytest.warns(RuntimeWarning, match="series"):
        f11_closed_form(_CFG2, _P, _DENSE_FIELD)


# ----------------------------------------------------------------------
# quality flags and bundled result
# ----------------------------------------------------------------------

def test_quality_ok_at_reference_point():
    assert closed_form_fisher(_CFG2, _P, _FIELD).quality == "ok"
    assert closed_form_fisher(_CFG4, _P, _FIELD).quality == "ok"


def test_quality_flags_dense_field():
    flags = closed_form_fisher(_CFG2, _P, _DENSE_FIELD).quality
    assert "series-radius" in flags
    assert "quadrature-mismatch" in flags


def test_closed_form_fisher_bundles_everything():
    res = closed_form_fisher(_CFG2, _P, _FIELD)
    assert res.method == "closed-form"
    assert res.m == 3
    assert res.quality == "ok"
    assert res.F11 == pytest.approx(_F11_CF_ALPHA2, rel=1e-12)
    assert res.F22 == pytest.approx(_F22_CF_ALPHA2, rel=1e-12)
    assert res.crb_x == pytest.approx(1.0 / _F22_CF_ALPHA2, rel=1e-12)


def test_closed_form_fisher_unsupported_alpha_yields_nan_f11():
    cfg = DetectorConfig(tau=0.5, sigma2=0.25, alpha=3.0)
    res = closed_form_fisher(cfg, _P, _FIELD)
    assert math.isnan(res.F11)
    assert math.isnan(res.crb_P)
    assert res.F22 > 0.0
    assert res.m == 1
    assert res.crb_x == pytest.approx(1.0 / res.F22, rel=1e-15)


def test_closed_form_fisher_quality_matches_standalone():
    # the flags of the entries the public functions compute from one
    # model, checked against the exact bound, with or without it given
    exact = expected_fim_quadrature(_CFG2, _P, _DENSE_FIELD)
    res = closed_form_fisher(_CFG2, _P, _DENSE_FIELD)
    model = build_taylor_model(_CFG2, _P, _DENSE_FIELD)
    with pytest.warns(RuntimeWarning, match="series"):
        entries = (f22_closed_form(_CFG2, _P, _DENSE_FIELD, 3, model),
                   f11_closed_form(_CFG2, _P, _DENSE_FIELD, 3, model))
    quality = approximation_quality(3, model, entries, exact)
    assert res.quality == quality == "series-radius,quadrature-mismatch"
    assert closed_form_fisher(_CFG2, _P, _DENSE_FIELD, None, exact) == res


def test_quality_reads_the_given_exact_bound():
    # the flag compares the entries with exact as given, at 25%
    res = closed_form_fisher(_CFG2, _P, _FIELD)
    for scale, quality in ((1.0 / 1.24, "ok"), (1.0 / 1.26,
                                                "quadrature-mismatch")):
        exact = FisherResult(F11=res.F11 * scale, F22=res.F22,
                             method="quadrature")
        assert closed_form_fisher(_CFG2, _P, _FIELD, None,
                                  exact).quality == quality


@pytest.mark.parametrize("alpha,rho,tau,cf_f22,ratio", [
    # a 16-node probe of the exact integral missed both of these
    (3.0, 50.0, 1.12, 11220.230819833576, 1.5483196640592352),
    (6.0, 50.0, 0.02, 0.0, 0.0),
])
def test_quality_flags_an_entry_far_off_the_exact_bound(alpha, rho, tau,
                                                        cf_f22, ratio):
    cfg = DetectorConfig(tau=tau, sigma2=0.25, alpha=alpha)
    field = FieldConfig(rho=rho)
    res = closed_form_fisher(cfg, _P, field)
    exact = expected_fim_quadrature(cfg, _P, field)
    assert res.F22 == cf_f22
    assert res.F22 / exact.F22 == pytest.approx(ratio, rel=1e-9)
    assert "quadrature-mismatch" in res.quality.split(",")
    if alpha == 6.0:
        assert exact.F22 == pytest.approx(464.58647314387395, rel=1e-9)


def test_quality_flags_an_exact_bound_that_does_not_converge():
    # at alpha = 1 the exact F11 integrand goes as 1/x at 0: the closed
    # form still comes out, with its check marked as not run
    cfg = DetectorConfig(tau=0.5, sigma2=0.25, alpha=1.0)
    with pytest.raises(QuadratureError):
        expected_fim_quadrature(cfg, _P, _FIELD)
    res = closed_form_fisher(cfg, _P, _FIELD)
    assert res.F22 == 0.19372658428042144
    assert res.quality.split(",")[-1] == "quadrature-failed"
    model = build_taylor_model(cfg, _P, _FIELD)
    assert approximation_quality(1, model, (res.F22, None),
                                 None) == res.quality


@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("m", [0, None, 10])
def test_closed_form_fisher_keeps_the_bits_of_the_public_entries(alpha, m):
    # closed_form_fisher's one moment table serves both entries: each
    # equals its public function, which builds its own shorter table, to
    # the bit, at every point of a tau sweep where those do not warn
    compared = 0
    for k in range(1, 21):
        cfg = DetectorConfig(tau=0.1 * k, sigma2=0.25, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = (f11_closed_form(cfg, _P, _FIELD, m),
                        f22_closed_form(cfg, _P, _FIELD, m))
            except RuntimeWarning:
                continue
        res = closed_form_fisher(cfg, _P, _FIELD, m)
        assert (res.F11, res.F22) == want
        compared += 1
    assert compared >= 10


def test_closed_form_fisher_builds_one_moment_table(monkeypatch):
    sizes = []

    def counted(n, lo, hi):
        sizes.append(n)
        return _power_moments(n, lo, hi)

    monkeypatch.setattr(closedform, "_power_moments", counted)
    closed_form_fisher(_CFG2, _P, _FIELD)
    assert sizes == [2 * 3 + 3]
