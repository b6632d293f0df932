"""Tests for the command-line front end: configuration resolution
(defaults, preset, config file, --set overrides), sweep-point expansion,
CSV output schemas for the crb/simulate/check subcommands, exit codes,
and byte-exact determinism of repeated runs.

All invocations go through ``main(argv)`` in-process; stdout/stderr are
captured with pytest's capsys fixture and files with tmp_path.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binloc import cli
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
        ["check", "--preset", "paper-sec5", "--config", str(cfg),
         "--set", "tau=0.7"])
    s = resolve_settings(args)
    assert s.tau == 0.7          # --set wins over the config file
    assert s.rho == 0.1          # config file wins over the preset
    assert s.P == 2.0            # preset fills everything untouched
    assert s.sigma2 == 0.25


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
    ("crb", "--preset", "nope"),
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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("command", ["crb", "check"])
def test_divergent_expected_information_is_a_config_error(capsys,
                                                          command) -> None:
    # at alpha = 1 the F11 integrand goes as 1/x at x -> 0, so no
    # quadrature converges
    code, out, err = _run(capsys, command, "--set", "alpha=1",
                          "--set", "sweep.start=0.5", "--set", "sweep.stop=0.5")
    assert code == EXIT_CONFIG
    assert err.startswith("binloc: config error: the expected information "
                          "does not converge")
    assert _data_rows(out) == []


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


def test_simulate_summary_row_is_frozen(capsys) -> None:
    # five trials at the reference point, seed 20260814; the summary row
    # (mse and bias from mse_report, crb from the quadrature) is pinned
    # to the bit
    code, out, _ = _run(capsys, "simulate", "--set", "trials=5",
                        "--set", "seed=20260814")
    assert code == EXIT_OK
    assert _data_rows(out)[-1] == (
        "5,5,0,15.906002183232928,36.210321790338085,59.920291864636546,"
        "2.7983522673449821,2.830856673427423,-1.2575138548185512,"
        "3.1549422374138962,4.5621847910894378,5.0416143898314498,"
        "7.9370572321098711,13.134122050836028")


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
