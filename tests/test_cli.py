"""Tests for the command-line front end: configuration resolution
(defaults, config file, --set overrides), sweep-point expansion,
CSV output schemas for the crb/simulate/check subcommands, exit codes,
and byte-exact determinism of repeated runs.

All invocations go through ``main(argv)`` in-process; stdout/stderr are
captured with pytest's capsys fixture and files with tmp_path.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binloc import cli, montecarlo
from binloc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_FALLBACK,
    EXIT_OK,
    ConfigError,
    Settings,
    apply_assignment,
    build_parser,
    main,
    parse_config_text,
    resolve_settings,
    sweep_points,
)
from binloc.closedform import closed_form_fisher
from binloc.detection import DetectorConfig
from binloc.fisher import FieldConfig, expected_fim_quadrature

_CRB_HEADER = "# columns: tau,alpha,method,m,F11,F22,crb_P,crb_x,quality_flag"
_TRIAL_HEADER = ("# columns: trial,n_sensors,n_detections,P_hat,x_hat,y_hat,"
                 "converged,nll")
_SUMMARY_HEADER = ("# summary columns: n_trials,n_converged,n_failed,"
                   "mse_P,mse_x,mse_y,bias_P,bias_x,bias_y,"
                   "crb_P,crb_x,ratio_P,ratio_x,ratio_y")


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _data_rows(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if line and not line.startswith("#")]


def _split_crb(row: str) -> list[str]:
    # the trailing quality_flag may itself contain commas; keep it intact
    fields = row.split(",", 8)
    assert len(fields) == 9
    return fields


# ----------------------------------------------------------------------
# settings resolution
# ----------------------------------------------------------------------

def test_default_settings_match_reference_point() -> None:
    s = Settings()
    assert (s.tau, s.sigma2, s.T, s.alpha, s.P) == (0.5, 0.25, 1.0, 2.0, 2.0)
    assert (s.xT, s.yT, s.rho) == (0.0, 0.0, 0.05)
    assert (s.trials, s.seed, s.region_radius) == (500, 0, 60.0)
    assert s.m is None
    assert s.methods == ("quadrature", "closed-form")
    assert (s.sweep_start, s.sweep_stop, s.sweep_step) == (0.1, 2.0, 0.02)


def test_each_setting_has_one_key_and_parser_in_field_order(capsys) -> None:
    keys = ["tau", "sigma2", "T", "alpha", "P", "xT", "yT", "rho", "trials",
            "seed", "region_radius", "m", "methods",
            "sweep.start", "sweep.stop", "sweep.step"]
    assert list(cli._KEY_TABLE) == keys
    assert [attr for attr, _ in cli._KEY_TABLE.values()] == [
        f.name for f in fields(Settings)]
    # the header echoes every key in that order, and each echoed value
    # parses back to the setting it shows
    code, out, _ = _run(capsys, "crb", "--set", "methods=quadrature",
                        "--set", "sweep.stop=0.1")
    assert code == EXIT_OK
    echoed = out.splitlines()[1:len(keys) + 1]
    assert [line[2:].partition("=")[0] for line in echoed] == keys
    settings = Settings(methods=("quadrature",), sweep_stop=0.1)
    for line in echoed:
        key, _, raw = line[2:].partition("=")
        assert apply_assignment(settings, key, raw) == settings


def test_default_sweep_expands_to_96_points() -> None:
    points = sweep_points(Settings())
    assert len(points) == 96
    assert points[0] == 0.1
    assert points[-1] == 2.0
    assert np.allclose(np.diff(points), 0.02, rtol=0.0, atol=1e-12)


def test_single_point_sweep_is_allowed() -> None:
    s = replace(Settings(), sweep_start=0.5, sweep_stop=0.5)
    assert sweep_points(s) == [0.5]


def test_single_point_sweep_far_above_its_step() -> None:
    # at 1e17 start + k * step rounds back to start for hundreds of k
    s = replace(Settings(), sweep_start=1e17, sweep_stop=1e17)
    assert sweep_points(s) == [1e17]


@pytest.mark.parametrize("start,stop,step", [
    (0.1, 2.0, 0.0),
    (0.1, 2.0, -0.02),
    (1.0, 0.5, 0.02),
    (float("nan"), 2.0, 0.02),
    (0.1, float("inf"), 0.02),
    (0.1, 2.0, 1e-12),
])
def test_bad_sweep_rejected(start: float, stop: float, step: float) -> None:
    s = replace(Settings(), sweep_start=start, sweep_stop=stop,
                sweep_step=step)
    with pytest.raises(ConfigError):
        sweep_points(s)


def test_config_text_comments_and_spacing() -> None:
    text = "# a comment\n\n  tau = 0.9  \nmethods=quadrature\n"
    s = parse_config_text(Settings(), text)
    assert s.tau == 0.9
    assert s.methods == ("quadrature",)


def test_config_text_without_equals_reports_location() -> None:
    with pytest.raises(ConfigError, match=r"run\.cfg:2"):
        parse_config_text(Settings(), "tau = 0.9\nbroken line\n",
                          source="run.cfg")


def test_unknown_key_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown configuration key"):
        apply_assignment(Settings(), "volume", "11")


def test_methods_parsing_dedupes_and_validates() -> None:
    s = apply_assignment(Settings(), "methods", "quadrature, quadrature")
    assert s.methods == ("quadrature",)
    with pytest.raises(ConfigError, match="at least one"):
        apply_assignment(Settings(), "methods", " , ")
    with pytest.raises(ConfigError, match="unknown method"):
        apply_assignment(Settings(), "methods", "simpson")


def test_m_and_radius_accept_auto() -> None:
    assert apply_assignment(Settings(), "m", "auto").m is None
    assert apply_assignment(Settings(), "m", "4").m == 4
    assert apply_assignment(Settings(), "region_radius", "AUTO"
                            ).region_radius is None
    with pytest.raises(ConfigError):
        apply_assignment(Settings(), "m", "11")
    with pytest.raises(ConfigError):
        apply_assignment(Settings(), "m", "-1")
    with pytest.raises(ConfigError):
        apply_assignment(Settings(), "region_radius", "0")


def test_override_precedence(tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# local tweaks\ntau = 0.9\nrho = 0.1\n",
                   encoding="utf-8")
    args = build_parser().parse_args(
        ["check", "--config", str(cfg), "--set", "tau=0.7"])
    s = resolve_settings(args)
    assert s.tau == 0.7          # --set wins over the config file
    assert s.rho == 0.1          # the config file wins over the defaults


# ----------------------------------------------------------------------
# configuration errors surface as exit code 2 before any output
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("crb", "--set", "methods="),
    ("crb", "--set", "volume=3"),
    ("crb", "--set", "m=11"),
    ("crb", "--set", "tau"),
    ("crb", "--set", "sweep.step=0"),
    ("crb", "--set", "sweep.start=1", "--set", "sweep.stop=0.5"),
    ("crb", "--config", "/nonexistent/binloc.cfg"),
    ("check", "--set", "sigma2=0"),
    ("simulate", "--set", "trials=0"),
    ("simulate", "--set", "region_radius=-5"),
    ("crb", "--set", "P=-1"),
    ("check", "--set", "P=nan"),
])
def test_config_errors_exit_2(capsys, argv: tuple[str, ...]) -> None:
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("binloc: config error: ")
    assert out == ""


@pytest.mark.parametrize("command", ["crb", "simulate", "check"])
@pytest.mark.parametrize("assignments, keys", [
    # r_breve^alpha overflows: the signal coordinate at r_breve is 0
    (("alpha=1000",), ("alpha", "rho")),
    # r_breve^alpha underflows: the signal coordinate is inf
    (("alpha=400", "rho=25"), ("alpha", "rho")),
    # T P / (sigma2 r_breve^alpha) overflows: the signal coordinate is inf
    (("sigma2=1e-300", "rho=1e9"), ("sigma2", "rho")),
    # 2 tau / sigma2 overflows: the threshold coordinate is inf
    (("sigma2=5e-324",), ("tau", "sigma2")),
])
def test_settings_beyond_the_doubles_are_config_errors(
        capsys, command, assignments, keys) -> None:
    # one trial in a small region, so that a simulate that misses the
    # check fails fast
    argv = [command, "--set", "trials=1", "--set", "region_radius=5"]
    for assignment in assignments:
        argv += ["--set", assignment]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("binloc: config error: ")
    assert all(key in err for key in keys)


@pytest.mark.parametrize("assignments", [
    # 1.8e8 expected sensors: a trial's arrays no longer fit in memory
    ("rho=2.32e6", "tau=3.4e44", "T=1.55e-44"),
    # 7.9e21 expected sensors: beyond the range of rng.poisson
    ("rho=1e20",),
])
def test_dense_fields_are_config_errors(capsys, monkeypatch,
                                        assignments) -> None:
    # rejected before any output, and before a field is sampled
    def no_field(*args):
        raise AssertionError("a field was sampled")

    monkeypatch.setattr(montecarlo, "sample_field", no_field)
    argv = ["simulate", "--set", "trials=1", "--set", "region_radius=5"]
    for assignment in assignments:
        argv += ["--set", assignment]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("binloc: config error: ")
    assert "rho" in err and "region_radius" in err


def test_default_radius_beyond_the_doubles_is_a_config_error(capsys) -> None:
    # at tau / sigma2 = 800 the far-field radius needs e^800, past the
    # largest double
    code, out, err = _run(capsys, "simulate", "--set", "tau=200",
                          "--set", "region_radius=auto", "--set", "trials=1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("binloc: config error: ")
    assert "tau" in err and "sigma2" in err and "region_radius" in err


@pytest.mark.parametrize("command", ["crb", "check", "simulate"])
def test_divergent_expected_information_is_a_config_error(capsys, monkeypatch,
                                                          command) -> None:
    # at alpha = 1 the F11 integrand goes as 1/x at x -> 0, so no
    # quadrature converges; simulate finds that out before its first
    # trial, and no command writes anything
    def no_field(*args):
        raise AssertionError("a field was sampled")

    monkeypatch.setattr(montecarlo, "sample_field", no_field)
    extra = (("--set", "trials=1", "--set", "region_radius=5")
             if command == "simulate" else ())
    code, out, err = _run(capsys, command, "--set", "alpha=1",
                          "--set", "sweep.start=0.5", "--set", "sweep.stop=0.5",
                          *extra)
    assert code == EXIT_CONFIG
    assert err.startswith("binloc: config error: the expected information "
                          "does not converge")
    assert out == ""


@pytest.mark.parametrize("assignment", [
    "xT=1e300", "yT=-1.7976931348623157e308", "xT=3.3e7"])
def test_coordinates_the_fit_cannot_resolve_are_config_errors(
        capsys, monkeypatch, assignment) -> None:
    # past 2^24 - 60 the doubles lie further apart than twice the fit's
    # step tolerance, so no fit could end: rejected before any field
    def no_field(*args):
        raise AssertionError("a field was sampled")

    monkeypatch.setattr(montecarlo, "sample_field", no_field)
    code, out, err = _run(capsys, "simulate", "--set", "trials=1",
                          "--set", assignment)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("binloc: config error: ")
    assert "coordinate" in err and "region radius" in err


def test_simulate_far_from_the_origin_still_fits(capsys) -> None:
    # just inside the coordinate limit the fit converges, to the bits of
    # the run before the limit was introduced
    code, out, err = _run(capsys, "simulate", "--set", "trials=1",
                          "--set", "xT=1.6e7", "--set", "yT=-40")
    assert (code, err) == (EXIT_OK, "")
    assert _data_rows(out)[0] == (
        "0,589,82,23.810900641723808,15999997.149321627,-45.18703326810094,"
        "1,232.32171274565795")


@pytest.mark.parametrize("argv", [
    ("crb", "--set", "tau=1", "--set", "sigma2=1e-3", "--set", "sweep.stop=6"),
    ("simulate", "--set", "tau=5e-324", "--set", "trials=1",
     "--set", "region_radius=20"),
])
def test_infinite_bounds_leave_stderr_empty(capsys, argv) -> None:
    # an information that rounds to 0 or a subnormal inverts to a bound
    # of inf without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert ",inf," in out


_FUZZ_KEYS = ("tau", "sigma2", "T", "alpha", "P", "rho")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(st.one_of(
    st.text(),
    st.builds("{} = {}".format, st.sampled_from(sorted(cli._KEY_TABLE)),
              st.text()))))
def test_parse_config_text_returns_settings_or_config_error(lines) -> None:
    try:
        parsed = parse_config_text(Settings(), "\n".join(lines))
    except ConfigError:
        return
    assert isinstance(parsed, Settings)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          report_multiple_bugs=False)
@given(command=st.sampled_from(["crb", "check"]),
       values=st.dictionaries(
           st.sampled_from(_FUZZ_KEYS),
           st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           min_size=1))
def test_extreme_settings_end_in_an_exit_code(command, values) -> None:
    # every positive double for the model keys: crb at one tau point (the
    # step as large as tau, so that the sweep has one point) and check
    argv = [command]
    for key, value in values.items():
        argv += ["--set", f"{key}={value!r}"]
    if command == "crb":
        tau = repr(values.get("tau", Settings.tau))
        argv += ["--set", f"sweep.start={tau}", "--set", f"sweep.stop={tau}",
                 "--set", f"sweep.step={tau}"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_FALLBACK)


# ----------------------------------------------------------------------
# crb subcommand
# ----------------------------------------------------------------------

def test_crb_sweep_rows(capsys) -> None:
    code, out, err = _run(capsys, "crb",
                          "--set", "sweep.start=0.3",
                          "--set", "sweep.stop=0.5",
                          "--set", "sweep.step=0.1")
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# binloc crb"
    assert _CRB_HEADER in lines
    assert "# tau=0.5" in lines
    assert "# methods=quadrature,closed-form" in lines
    rows = [_split_crb(row) for row in _data_rows(out)]
    assert len(rows) == 6        # 3 tau points x 2 methods
    taus = [float(r[0]) for r in rows]
    assert taus == [0.3, 0.3, 0.4, 0.4, 0.5, 0.5]
    # methods appear alphabetically within each tau point
    assert [r[2] for r in rows] == ["closed-form", "quadrature"] * 3
    for r in rows:
        assert r[1] == "2"
        if r[2] == "closed-form":
            assert r[3] == "3"   # default series order for alpha=2
        else:
            assert r[3] == ""    # quadrature has no series order
        f11, f22 = float(r[4]), float(r[5])
        assert f11 > 0.0 and f22 > 0.0
        assert float(r[6]) == 1.0 / f11
        assert float(r[7]) == 1.0 / f22
        assert r[8] == "ok"


def test_crb_floats_round_trip_and_match_library(capsys) -> None:
    code, out, _ = _run(capsys, "crb",
                        "--set", "sweep.start=0.5", "--set", "sweep.stop=0.5")
    assert code == EXIT_OK
    rows = [_split_crb(row) for row in _data_rows(out)]
    assert len(rows) == 2
    by_method = {r[2]: r for r in rows}
    det = DetectorConfig(tau=0.5, sigma2=0.25, T=1.0, alpha=2.0)
    field = FieldConfig(rho=0.05)
    cf = closed_form_fisher(det, 2.0, field, None)
    quad = expected_fim_quadrature(det, 2.0, field)
    assert float(by_method["closed-form"][4]) == cf.F11
    assert float(by_method["closed-form"][5]) == cf.F22
    assert float(by_method["quadrature"][4]) == quad.F11
    assert float(by_method["quadrature"][5]) == quad.F22
    # 17 significant digits reproduce the exact binary value
    raw = by_method["quadrature"][4]
    assert format(float(raw), ".17g") == raw


@pytest.mark.parametrize("alpha,rows", [
    ("2", [
        "0.40000000000000002,2,closed-form,3,0.34542563030334505,"
        "0.22703512654906144,2.8949791569369721,4.4046047640293393,ok",
        "0.40000000000000002,2,quadrature,,0.32693374143147313,"
        "0.22477002454712247,3.0587237512454943,4.4489918173691017,ok",
        "1.3600000000000001,2,closed-form,3,0.078825030830240755,"
        "0.053726409301199853,12.686325517000064,18.612820268591211,ok",
        "1.3600000000000001,2,quadrature,,0.08001819793287733,"
        "0.06147493772322745,12.497157219646994,16.266791590781292,ok",
    ]),
    ("4", [
        "0.40000000000000002,4,closed-form,1,0.0058972359074858701,"
        "0.027779437854599746,169.57096776993671,35.997848669008221,ok",
        "0.40000000000000002,4,quadrature,,0.0059313561368963324,"
        "0.028035336359958203,168.59550782652286,35.669270636191179,ok",
        "1.3600000000000001,4,closed-form,1,0.0011102346131933929,"
        "0.0051585882558147613,900.71052380872675,193.85148618380231,ok",
        "1.3600000000000001,4,quadrature,,0.0011929880536744051,"
        "0.0056572225349579772,838.23136109368272,176.76518712506828,ok",
    ]),
])
def test_crb_rows_are_frozen(capsys, alpha, rows) -> None:
    # criterion 8's threshold and the default sweep's tau = 1.36, both
    # methods, byte for byte; a change to the information's constants or
    # to either route shows here column by column
    code, out, _ = _run(capsys, "crb", "--set", f"alpha={alpha}",
                        "--set", "sweep.start=0.4", "--set", "sweep.stop=1.36",
                        "--set", "sweep.step=0.96")
    assert code == EXIT_OK
    assert _data_rows(out) == rows


def test_crb_quadrature_only(capsys) -> None:
    code, out, _ = _run(capsys, "crb", "--set", "methods=quadrature",
                        "--set", "sweep.start=0.5", "--set", "sweep.stop=0.5")
    assert code == EXIT_OK
    rows = [_split_crb(row) for row in _data_rows(out)]
    assert len(rows) == 1
    assert rows[0][2] == "quadrature"


def test_crb_m_override_is_echoed_and_used(capsys) -> None:
    code, out, _ = _run(capsys, "crb", "--set", "m=2",
                        "--set", "methods=closed-form",
                        "--set", "sweep.start=0.5", "--set", "sweep.stop=0.5")
    assert code == EXIT_OK
    assert "# m=2" in out.splitlines()
    rows = [_split_crb(row) for row in _data_rows(out)]
    assert len(rows) == 1
    assert rows[0][2] == "closed-form"
    assert rows[0][3] == "2"


def test_crb_closed_form_fallback(capsys) -> None:
    # this operating point drives the Taylor surrogate out of validity
    # (curvature >= 1), so the closed-form slot must fall back
    code, out, _ = _run(capsys, "crb",
                        "--set", "sweep.start=5", "--set", "sweep.stop=5",
                        "--set", "sigma2=0.01", "--set", "rho=5",
                        "--set", "P=0.5")
    assert code == EXIT_FALLBACK
    rows = [_split_crb(row) for row in _data_rows(out)]
    assert len(rows) == 2
    assert [r[2] for r in rows] == ["quadrature", "quadrature"]
    flagged, plain = rows
    assert flagged[8] == "closed-form-invalid,quadrature-fallback"
    assert flagged[3] == ""
    assert plain[8] == "ok"
    # the fallback row carries the same quadrature numbers
    assert flagged[4] == plain[4]
    assert flagged[5] == plain[5]


def test_crb_fallback_reuses_the_quadrature_row(capsys, monkeypatch) -> None:
    # one quadrature per tau point serves both the fallback and the
    # quadrature row, and the rows keep their bytes
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return expected_fim_quadrature(*args, **kwargs)

    monkeypatch.setattr(cli, "expected_fim_quadrature", counted)
    code, out, _ = _run(capsys, "crb",
                        "--set", "sweep.start=5", "--set", "sweep.stop=5",
                        "--set", "sigma2=0.01", "--set", "rho=5",
                        "--set", "P=0.5")
    assert code == EXIT_FALLBACK
    assert len(calls) == 1
    numbers = ("5,2,quadrature,,293.39003168034475,2769.0249117464255,"
               "0.0034084320938671947,0.00036113795717688195,")
    assert _data_rows(out) == [
        numbers + "closed-form-invalid,quadrature-fallback", numbers + "ok"]


def test_crb_header_reflects_config_file(tmp_path, capsys) -> None:
    cfg = tmp_path / "point.cfg"
    cfg.write_text("tau = 0.7\nmethods = quadrature\n"
                   "sweep.start = 0.7\nsweep.stop = 0.7\n",
                   encoding="utf-8")
    code, out, _ = _run(capsys, "crb", "--config", str(cfg),
                        "--set", "alpha=4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "# tau=0.69999999999999996" in lines
    assert "# alpha=4" in lines
    rows = [_split_crb(row) for row in _data_rows(out)]
    assert len(rows) == 1
    assert rows[0][0] == "0.69999999999999996"
    assert rows[0][1] == "4"


# ----------------------------------------------------------------------
# simulate subcommand
# ----------------------------------------------------------------------

def test_simulate_output_shape_and_determinism(capsys) -> None:
    argv = ("simulate", "--set", "trials=2", "--set", "region_radius=15",
            "--set", "seed=123")
    code, first, err = _run(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""
    code2, second, _ = _run(capsys, *argv)
    assert code2 == EXIT_OK
    assert second == first       # byte-identical rerun

    lines = first.splitlines()
    assert lines[0] == "# binloc simulate"
    assert "# effective_region_radius=15" in lines
    assert _TRIAL_HEADER in lines
    assert _SUMMARY_HEADER in lines

    rows = _data_rows(first)
    assert len(rows) == 3        # two trial rows plus the summary row
    t0, t1 = rows[0].split(","), rows[1].split(",")
    assert t0[0] == "0" and t1[0] == "1"
    assert int(t0[1]) > 0 and int(t1[1]) > 0
    assert t0[6] in ("0", "1") and t1[6] in ("0", "1")

    summary = rows[2].split(",")
    assert len(summary) == 14
    assert summary[0] == "2"
    n_conv, n_failed = int(summary[1]), int(summary[2])
    assert n_conv + n_failed == 2
    assert n_conv >= 1           # the reference point detects reliably
    # crb columns come from the quadrature bound at the configured point
    fim = expected_fim_quadrature(DetectorConfig(tau=0.5, sigma2=0.25),
                                  2.0, FieldConfig(rho=0.05))
    assert float(summary[9]) == fim.crb_P
    assert float(summary[10]) == fim.crb_x
    assert float(summary[12]) == float(summary[4]) / fim.crb_x


def test_simulate_rows_are_frozen(capsys) -> None:
    # five trials at the reference point, seed 20260814; every trial row
    # (the fit's estimate and nll) and the summary row (mse and bias from
    # mse_report, crb from the quadrature) are pinned to the bit
    code, out, _ = _run(capsys, "simulate", "--set", "trials=5",
                        "--set", "seed=20260814")
    assert code == EXIT_OK
    assert _data_rows(out) == [
        "0,581,81,6.9333033585536281,-1.0017375461118005,"
        "0.029550487407491229,1,231.79265677550532",
        "1,574,80,3.5990095427041444,-2.8799711517528586,"
        "11.093411759116032,1,229.31742247299189",
        "2,553,86,1.7590607372037017,10.75241257451005,"
        "-12.168173813350508,1,237.60735875095776",
        "3,536,80,9.2361693578141359,7.4897928465741836,"
        "-5.3351418708092249,1,223.71129919326088",
        "4,579,84,2.4642183404251985,-0.20621335605082919,"
        "0.09278416354310888,1,235.91129292123264",
        "5,5,0,15.906002183217524,36.210321790301641,59.920291864635011,"
        "2.7983522673401615,2.830856673433749,-1.2575138548186202,"
        "3.1549422374138962,4.5621847910894378,5.0416143898265666,"
        "7.9370572321018829,13.134122050835693",
    ]


def test_simulate_no_detection_regime(capsys) -> None:
    code, out, err = _run(capsys, "simulate", "--set", "trials=3",
                          "--set", "region_radius=10",
                          "--set", "tau=10000", "--set", "seed=7")
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    rows = _data_rows(out)
    assert len(rows) == 4
    for row in rows[:3]:
        fields = row.split(",")
        assert fields[2] == "0"      # no detections
        assert fields[6] == "0"      # recorded as not converged
        assert fields[7] == "inf"    # no likelihood was ever evaluated
    summary = rows[3].split(",")
    assert summary[:3] == ["3", "0", "3"]
    assert set(summary[3:]) == {"nan"}
    assert ("# note: no trial produced a detection; "
            "mse/crb summary unavailable") in lines


def test_simulate_fields_with_no_or_one_sensor(capsys) -> None:
    # a 0.5-radius region holds 0.04 sensors on average: at seed 7 trial 2
    # has one sensor, which detects, and every other field is empty
    code, out, err = _run(capsys, "simulate", "--set", "region_radius=0.5",
                          "--set", "trials=8", "--set", "seed=7")
    assert code == EXIT_OK
    assert err == ""
    rows = [row.split(",") for row in _data_rows(out)]
    assert len(rows) == 9
    for k, row in enumerate(rows[:8]):
        if k == 2:
            continue
        assert row == [str(k), "0", "0", "0.001", "0", "0", "0", "inf"]
    # the lone detecting sensor is explained with certainty: nll 0, not -0
    assert rows[2][:3] == ["2", "1", "1"]
    assert rows[2][6:] == ["1", "0"]
    assert rows[8][:3] == ["8", "1", "7"]


def test_simulate_every_sensor_detecting(capsys) -> None:
    # far below the noise floor every sensor detects: trial 1 has 588 of
    # 588, and its likelihood of 1 prints as nll 0, not -0
    code, out, err = _run(capsys, "simulate", "--set", "tau=1e-4",
                          "--set", "trials=2")
    assert code == EXIT_OK
    assert err == ""
    rows = [row.split(",") for row in _data_rows(out)]
    assert rows[1][:3] == ["1", "588", "588"]
    assert rows[1][6:] == ["1", "0"]
    assert rows[0][:3] == ["0", "589", "588"]
    assert rows[2][:3] == ["2", "2", "0"]


def test_simulate_tiny_threshold_runs(capsys) -> None:
    # at tau = 1e-9 the threshold coordinate is 8.9e-5, where scipy's
    # noncentral chi-square tail overflows (and takes time linear in x^2)
    # for strong sensors; the Marcum layer routes them to its log tails
    code, out, _ = _run(capsys, "simulate", "--set", "tau=1e-9",
                        "--set", "trials=1")
    assert code == EXIT_OK
    rows = [row.split(",") for row in _data_rows(out)]
    assert rows[0][:3] == ["0", "589", "589"]
    assert rows[0][6:] == ["1", "0"]


# ----------------------------------------------------------------------
# check subcommand
# ----------------------------------------------------------------------

def test_check_passes_at_defaults(capsys) -> None:
    code, out, err = _run(capsys, "check")
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# binloc check"
    names = [line.split(":")[0].split(" ", 1)[1]
             for line in lines if line.startswith("PASS")]
    assert names == ["marcum-identity", "marcum-derivatives",
                     "fim-diagonality", "taylor-quality",
                     "nearest-sensor-distance"]
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "# 5/5 checks passed"
    assert any(line.startswith("# far_field_excess(region_radius)=")
               for line in lines)


def test_check_flags_unsupported_alpha(capsys) -> None:
    code, out, _ = _run(capsys, "check", "--set", "alpha=3")
    assert code == EXIT_CHECK_FAILED
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL closed-form-f11: UnsupportedAlpha")
    assert "got 3" in fails[0]
    assert lines[-1] == "# 4/5 checks passed"


def test_check_nearest_sensor_distance_compares_with_a_sampled_mean(
        capsys, monkeypatch) -> None:
    # an expected nearest-sensor distance 10% high is 12 standard errors
    # off the mean of 4,000 sampled fields
    true_rmin = cli.rmin_expected
    monkeypatch.setattr(cli, "rmin_expected",
                        lambda field: 1.1 * true_rmin(field))
    code, out, _ = _run(capsys, "check")
    assert code == EXIT_CHECK_FAILED
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL nearest-sensor-distance: r_breve = 2.459674775249769, sampled "
        "mean / r_breve = 0.9115 (-11.90 standard errors, tol 4)"]


def test_check_quadrature_only_skips_closed_form(capsys) -> None:
    code, out, _ = _run(capsys, "check", "--set", "alpha=3",
                        "--set", "methods=quadrature",
                        "--set", "region_radius=auto")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "# 4/4 checks passed"
    assert not any("closed-form-f11" in line for line in lines)
    assert not any("far_field_excess" in line for line in lines)
    assert "# region_radius=auto" in lines


# ----------------------------------------------------------------------
# one parser per process
# ----------------------------------------------------------------------

def test_one_parser_serves_many_calls(tmp_path, capsys, monkeypatch) -> None:
    # main builds its parser once; every call through it gives the output
    # and exit code of a freshly built parser, and no --set carries over
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.6\nsweep.start = 0.5\nsweep.stop = 0.54\n",
                   encoding="utf-8")
    argvs = [
        ("crb", "--set", "alpha=4", "--set", "sweep.start=0.5",
         "--set", "sweep.stop=0.54"),
        ("simulate", "--set", "trials=2", "--set", "region_radius=10"),
        ("check", "--set", "tau=0.7"),
        ("crb", "--config", str(cfg)),
        ("crb", "--set", "volume=3"),
        ("crb", "--bogus"),
    ]
    argvs.append(argvs[0])

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:       # argparse's own errors
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert build_parser() is build_parser()
    shared = [run(argv) for argv in argvs]
    assert build_parser().parse_args(["crb"]).set is None
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    fresh = [run(argv) for argv in argvs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [
        EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_CONFIG, ("SystemExit", 2),
        EXIT_OK]
    headers = [out.splitlines() for _, out, _ in shared]
    assert "# alpha=4" in headers[0]
    for lines in headers[1:4]:
        assert "# alpha=2" in lines
    assert "# tau=0.69999999999999996" in headers[2]
    assert "# tau=0.59999999999999998" in headers[3]
    assert "# sweep.stop=2" in headers[1]


# ----------------------------------------------------------------------
# scipy submodules a process loads
# ----------------------------------------------------------------------

def test_scipy_submodules_load_only_where_a_command_needs_them() -> None:
    # crb and check never fit, so only simulate's first Newton step loads
    # scipy.linalg for its LAPACK Cholesky; no command loads
    # scipy.integrate or scipy.optimize
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = """
import contextlib, io, sys
from binloc import cli
loaded = lambda: {m for m in ("scipy.linalg", "scipy.optimize",
                              "scipy.integrate") if m in sys.modules}
assert loaded() == set(), loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["crb", "--set", "sweep.stop=0.2"]) == cli.EXIT_OK
    assert cli.main(["check"]) == cli.EXIT_OK
assert "scipy.linalg" not in sys.modules, loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--set", "trials=1"]) == cli.EXIT_OK
assert loaded() == {"scipy.linalg"}, loaded()
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


# ----------------------------------------------------------------------
# --out redirection
# ----------------------------------------------------------------------

def test_out_writes_file_instead_of_stdout(tmp_path, capsys) -> None:
    dest = tmp_path / "crb.csv"
    code, out, err = _run(capsys, "crb", "--set", "methods=quadrature",
                          "--set", "sweep.start=0.5",
                          "--set", "sweep.stop=0.5",
                          "--out", str(dest))
    assert code == EXIT_OK
    assert out == ""
    assert err == ""
    data = dest.read_bytes()
    assert b"\r" not in data     # plain newlines on every platform
    text = data.decode("utf-8")
    assert text.startswith("# binloc crb\n")
    assert len(_data_rows(text)) == 1


@pytest.mark.parametrize("command", ["crb", "simulate", "check"])
@pytest.mark.parametrize("assignment", ["rho=-1", "alpha=1"])
def test_config_error_leaves_out_file_untouched(tmp_path, capsys, command,
                                                assignment) -> None:
    # rho = -1 fails validation; alpha = 1 fails only once the first
    # bound is computed
    dest = tmp_path / "keep.csv"
    dest.write_bytes(b"old,data\n")
    code, out, err = _run(capsys, command, "--set", assignment,
                          "--set", "trials=1", "--set", "region_radius=5",
                          "--set", "sweep.start=0.5",
                          "--set", "sweep.stop=0.5", "--out", str(dest))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("binloc: config error: ")
    assert dest.read_bytes() == b"old,data\n"


def test_config_error_at_a_late_sweep_point_writes_nothing(tmp_path,
                                                          capsys) -> None:
    # the sweep's first points are computed; at tau = 2.3e307 the
    # threshold coordinate sqrt(2 tau / sigma2) overflows to inf
    dest = tmp_path / "keep.csv"
    dest.write_bytes(b"old,data\n")
    for extra in ((), ("--out", str(dest))):
        code, out, err = _run(capsys, "crb", "--set", "sweep.stop=1e308",
                              "--set", "sweep.step=1e306", *extra)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("binloc: config error: tau and sigma2 give the "
                              "threshold coordinate")
        assert "= inf at tau = 2.2999999999999998e+307;" in err
    assert dest.read_bytes() == b"old,data\n"


def test_unwritable_out_is_a_config_error(tmp_path, capsys) -> None:
    # the command runs and succeeds, then --out cannot be opened
    dest = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, "crb", "--set", "sweep.stop=0.2",
                          "--out", str(dest))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("binloc: config error: cannot write --out: ")
    assert "Traceback" not in err
    assert not dest.parent.exists()
