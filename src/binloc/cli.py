"""Command-line front end: threshold sweeps, simulation campaigns, and
self-diagnostics for the binary-detector localization bounds.

Subcommands
-----------
crb       sweep the detection threshold tau and emit Fisher information
          and Cramer-Rao bound columns as CSV
simulate  run a Monte-Carlo estimation campaign and emit per-trial rows
          plus a summary row as CSV
check     run the invariant suite at the configured parameters and print
          one PASS/FAIL line per check

Configuration is a flat ``key = value`` text file (``#`` starts a
comment line).  ``--set key=value`` overrides (repeatable) always win
over file values; ``--preset paper-sec5`` loads the reference operating
point.  Every output starts with comment lines echoing the effective
configuration.  Floats are emitted with 17 significant digits so the CSV
round-trips to the exact binary values; output is UTF-8 and entirely
deterministic for a fixed configuration.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 sweep
completed but at least one closed-form point fell back to quadrature,
4 simulation produced failures beyond the expected no-detection regime.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, IO, Sequence

from scipy import special

from . import specfun
from .closedform import (M_MAX, ModelInvalid, build_taylor_model,
                         approximation_quality, closed_form_fisher,
                         _F11_ALPHAS)
from .detection import DetectorConfig, TargetParams
from .fisher import (FieldConfig, QuadratureError,
                     expected_fim_quadrature, offdiag_quadrature_estimate,
                     rmin_expected, x_breve, _prefactors)
from .montecarlo import (SimConfig, far_field_excess, mse_report,
                         nearest_distance_samples, run_campaign)

__all__ = ["main", "ConfigError", "Settings"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_FALLBACK = 3
EXIT_SIM_FAILED = 4

_METHODS = ("closed-form", "quadrature")

# tolerances for the `check` subcommand
_CHECK_IDENTITY_TOL = 1e-10
_CHECK_DA_TOL = 1e-6
_CHECK_DAA_TOL = 1e-4
_CHECK_OFFDIAG_REL = 1e-10
_FD_STEP = 1e-4
_CHECK_RMIN_FIELDS = 4000
_CHECK_RMIN_SIGMAS = 4.0

# Largest tau sweep accepted (the default sweep has 96 points).
_SWEEP_MAX_POINTS = 1_000_000


class ConfigError(ValueError):
    """A configuration key, value, or combination is unusable."""


# ----------------------------------------------------------------------
# settings: defaults, config-file parsing, overrides
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Settings:
    """Effective configuration; defaults match the reference operating
    point (P=2, T=1, sigma2=0.25, rho=0.05) with a campaign radius whose
    far-field detection excess is below 4e-4."""

    tau: float = 0.5
    sigma2: float = 0.25
    T: float = 1.0
    alpha: float = 2.0
    P: float = 2.0
    xT: float = 0.0
    yT: float = 0.0
    rho: float = 0.05
    trials: int = 500
    seed: int = 0
    region_radius: float | None = 60.0
    m: int | None = None
    methods: tuple[str, ...] = ("quadrature", "closed-form")
    sweep_start: float = 0.1
    sweep_stop: float = 2.0
    sweep_step: float = 0.02


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _parse_radius(key: str, raw: str) -> float | None:
    if raw.strip().lower() == "auto":
        return None
    value = _parse_float(key, raw)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} must be > 0 or 'auto', got {raw!r}")
    return value


def _parse_m(key: str, raw: str) -> int | None:
    if raw.strip().lower() == "auto":
        return None
    value = _parse_int(key, raw)
    if not (0 <= value <= M_MAX):
        raise ConfigError(f"{key} must be in [0, {M_MAX}] or 'auto'")
    return value


def _parse_methods(key: str, raw: str) -> tuple[str, ...]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError("methods must name at least one of: "
                          + ", ".join(_METHODS))
    out: list[str] = []
    for item in items:
        if item not in _METHODS:
            raise ConfigError(f"unknown method {item!r}; choose from: "
                              + ", ".join(_METHODS))
        if item not in out:
            out.append(item)
    return tuple(out)


# key -> (Settings attribute, parser)
_KEY_TABLE: dict[str, tuple[str, Callable[[str, str], object]]] = {
    "tau": ("tau", _parse_float),
    "sigma2": ("sigma2", _parse_float),
    "T": ("T", _parse_float),
    "alpha": ("alpha", _parse_float),
    "P": ("P", _parse_float),
    "xT": ("xT", _parse_float),
    "yT": ("yT", _parse_float),
    "rho": ("rho", _parse_float),
    "trials": ("trials", _parse_int),
    "seed": ("seed", _parse_int),
    "region_radius": ("region_radius", _parse_radius),
    "m": ("m", _parse_m),
    "methods": ("methods", _parse_methods),
    "sweep.start": ("sweep_start", _parse_float),
    "sweep.stop": ("sweep_stop", _parse_float),
    "sweep.step": ("sweep_step", _parse_float),
}

_PRESETS: dict[str, dict[str, str]] = {
    # reference operating point: P=2, T=1, sigma=0.5, density 0.05
    "paper-sec5": {"P": "2", "T": "1", "sigma2": "0.25", "rho": "0.05"},
}


def apply_assignment(settings: Settings, key: str, raw: str) -> Settings:
    key = key.strip()
    if key not in _KEY_TABLE:
        raise ConfigError(f"unknown configuration key {key!r}")
    attr, parser = _KEY_TABLE[key]
    return replace(settings, **{attr: parser(key, raw.strip())})


def parse_config_text(settings: Settings, text: str,
                      source: str = "<config>") -> Settings:
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        settings = apply_assignment(settings, key, raw)
    return settings


def resolve_settings(args: argparse.Namespace) -> Settings:
    settings = Settings()
    if args.preset is not None:
        if args.preset not in _PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: "
                              + ", ".join(sorted(_PRESETS)))
        for key, raw in _PRESETS[args.preset].items():
            settings = apply_assignment(settings, key, raw)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        settings = parse_config_text(settings, text, source=args.config)
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ConfigError(
                f"--set expects key=value, got {assignment!r}")
        key, _, raw = assignment.partition("=")
        settings = apply_assignment(settings, key, raw)
    return settings


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    return str(value)


def _emit(out: IO[str], line: str) -> None:
    out.write(line + "\n")


def _header(out: IO[str], command: str, settings: Settings) -> None:
    """The command's name and its effective configuration as comments."""
    _emit(out, f"# binloc {command}")
    for key, (attr, _) in _KEY_TABLE.items():
        _emit(out, f"# {key}={_fmt(getattr(settings, attr))}")


# ----------------------------------------------------------------------
# shared model construction
# ----------------------------------------------------------------------

def _config(make: Callable[..., object], **kwargs) -> object:
    """make(**kwargs), reporting a ValueError as a ConfigError."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _detector(settings: Settings, tau: float | None = None) -> DetectorConfig:
    return _config(DetectorConfig, tau=settings.tau if tau is None else tau,
                   sigma2=settings.sigma2, T=settings.T, alpha=settings.alpha)


def _truth(settings: Settings) -> TargetParams:
    return _config(TargetParams, P=settings.P, x=settings.xT, y=settings.yT)


def _check_scales(det: DetectorConfig, P: float, field: FieldConfig) -> None:
    """Reject settings whose threshold coordinate, signal coordinate at
    r_breve or information prefactors are not finite and > 0."""
    try:
        (c11, _), (c22, _) = _prefactors(det, P, field)
    except (OverflowError, ZeroDivisionError):
        c11 = c22 = math.inf
    for keys, name, value in (
            ("tau and sigma2", "threshold coordinate sqrt(2 tau / sigma2)",
             det.threshold_coordinate),
            ("T, P, sigma2, alpha and rho", "signal coordinate at r_breve = "
             "1/sqrt(4 rho), sqrt(T P / (sigma2 r_breve^alpha))",
             x_breve(det, P, field)),
            ("T, P, sigma2, alpha and rho", "information prefactor c11", c11),
            ("alpha and rho", "information prefactor c22", c22)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{keys} give the {name} = {_fmt(value)} at "
                              f"tau = {_fmt(det.tau)}; it must be finite "
                              f"and > 0")


def sweep_points(settings: Settings) -> list[float]:
    start, stop, step = (settings.sweep_start, settings.sweep_stop,
                         settings.sweep_step)
    for name, value in (("sweep.start", start), ("sweep.stop", stop),
                        ("sweep.step", step)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite")
    if step <= 0.0:
        raise ConfigError("sweep.step must be > 0")
    if start > stop:
        raise ConfigError("sweep.start must be <= sweep.stop")
    # at most floor((stop - start) / step + 1e-9) + 1 points: start + k step
    # rounds to start while k step is below half the last place of start
    if (stop - start) / step + 1e-9 >= _SWEEP_MAX_POINTS:
        raise ConfigError(f"the sweep has more than {_SWEEP_MAX_POINTS:,} "
                          f"points; raise sweep.step")
    points: list[float] = []
    for k in range(math.floor((stop - start) / step + 1e-9) + 1):
        value = start + k * step
        if value > stop + 1e-9 * step:
            break
        points.append(round(value, 12))
    return points


# ----------------------------------------------------------------------
# crb subcommand
# ----------------------------------------------------------------------

_CRB_COLUMNS = ("tau", "alpha", "method", "m", "F11", "F22",
                "crb_P", "crb_x", "quality_flag")


def cmd_crb(settings: Settings, out: IO[str]) -> int:
    field = _config(FieldConfig, rho=settings.rho)
    P = _truth(settings).P
    points = sweep_points(settings)
    dets = [_detector(settings, tau) for tau in points]
    for det in dets:
        _check_scales(det, P, field)
    _header(out, "crb", settings)
    _emit(out, "# columns: " + ",".join(_CRB_COLUMNS))
    exit_code = EXIT_OK
    for tau, det in zip(points, dets):
        rows = []
        for method in sorted(settings.methods):
            if method == "quadrature":
                rows.append(expected_fim_quadrature(det, P, field))
            else:
                try:
                    rows.append(closed_form_fisher(det, P, field, settings.m))
                except ModelInvalid:
                    rows.append(replace(
                        expected_fim_quadrature(det, P, field),
                        quality="closed-form-invalid,quadrature-fallback"))
                    exit_code = EXIT_FALLBACK
        for res in rows:
            _emit(out, ",".join([
                _fmt(tau), _fmt(settings.alpha), res.method,
                "" if res.m is None else _fmt(res.m),
                _fmt(res.F11), _fmt(res.F22), _fmt(res.crb_P), _fmt(res.crb_x),
                res.quality,
            ]))
    return exit_code


# ----------------------------------------------------------------------
# simulate subcommand
# ----------------------------------------------------------------------

_TRIAL_COLUMNS = ("trial", "n_sensors", "n_detections", "P_hat", "x_hat",
                  "y_hat", "converged", "nll")
_SUMMARY_COLUMNS = ("n_trials", "n_converged", "n_failed",
                    "mse_P", "mse_x", "mse_y", "bias_P", "bias_x", "bias_y",
                    "crb_P", "crb_x", "ratio_P", "ratio_x", "ratio_y")


def cmd_simulate(settings: Settings, out: IO[str]) -> int:
    det = _detector(settings)
    field = _config(FieldConfig, rho=settings.rho)
    truth = _truth(settings)
    sim = _config(SimConfig, field=field, detector=det, truth=truth,
                  trials=settings.trials,
                  region_radius=settings.region_radius,
                  master_seed=settings.seed)
    _check_scales(det, truth.P, field)
    _header(out, "simulate", settings)
    _emit(out, f"# effective_region_radius={_fmt(sim.radius)}")
    _emit(out, "# columns: " + ",".join(_TRIAL_COLUMNS))
    results = run_campaign(sim)
    for idx, res in enumerate(results):
        _emit(out, ",".join([
            str(idx), str(res.n_sensors), str(res.n_detections),
            _fmt(res.theta_hat.P), _fmt(res.theta_hat.x),
            _fmt(res.theta_hat.y), _fmt(res.converged),
            _fmt(res.neg_log_lik),
        ]))

    _emit(out, "# summary columns: " + ",".join(_SUMMARY_COLUMNS))
    if not any(res.converged for res in results):
        _emit(out, ",".join(
            [str(len(results)), "0", str(len(results))] + ["nan"] * 11))
        if all(res.n_detections == 0 for res in results):
            # expected degenerate regime (threshold far beyond the signal):
            # every trial cleanly reported no detections
            _emit(out, "# note: no trial produced a detection; "
                       "mse/crb summary unavailable")
            return EXIT_OK
        return EXIT_SIM_FAILED
    rep = mse_report(results, truth)
    fim = expected_fim_quadrature(det, truth.P, field)
    crb_p, crb_x = fim.crb_P, fim.crb_x
    _emit(out, ",".join(_fmt(v) for v in (
        rep.n_trials, rep.n_converged, rep.n_failed,
        rep.mse_P, rep.mse_x, rep.mse_y,
        rep.bias_P, rep.bias_x, rep.bias_y,
        crb_p, crb_x,
        rep.mse_P / crb_p, rep.mse_x / crb_x, rep.mse_y / crb_x,
    )))
    return EXIT_OK


# ----------------------------------------------------------------------
# check subcommand
# ----------------------------------------------------------------------

def _check_marcum_identity() -> tuple[bool, str]:
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 4.0):
        lhs = specfun.marcum_q(a, a)
        rhs = 0.5 * (1.0 + special.i0e(a * a))
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= _CHECK_IDENTITY_TOL
    return ok, f"max |Q1(a,a) - identity| = {worst:.3e} (tol {_CHECK_IDENTITY_TOL:g})"


def _check_marcum_derivatives() -> tuple[bool, str]:
    pts = [(0.5, 0.5), (1.0, 2.0), (2.5, 1.5), (4.0, 4.5), (3.0, 0.5)]
    h = _FD_STEP
    worst_da = worst_daa = 0.0
    for a, b in pts:
        fd_da = (specfun.marcum_q(a + h, b) - specfun.marcum_q(a - h, b)) / (2 * h)
        worst_da = max(worst_da, abs(specfun.marcum_q_da(a, b) - fd_da))
        fd_daa = (specfun.marcum_q(a + h, b) - 2 * specfun.marcum_q(a, b)
                  + specfun.marcum_q(a - h, b)) / (h * h)
        worst_daa = max(worst_daa, abs(specfun.marcum_q_daa(a, b) - fd_daa))
    ok = worst_da <= _CHECK_DA_TOL and worst_daa <= _CHECK_DAA_TOL
    return ok, (f"max |dQ/da - fd| = {worst_da:.3e} (tol {_CHECK_DA_TOL:g}), "
                f"max |d2Q/da2 - fd| = {worst_daa:.3e} (tol {_CHECK_DAA_TOL:g})")


def _check_diagonality(det: DetectorConfig, P: float,
                       field: FieldConfig) -> tuple[bool, str]:
    fim = expected_fim_quadrature(det, P, field)
    off = offdiag_quadrature_estimate(det, P, field)
    rel = off / fim.F22 if fim.F22 > 0.0 else math.inf
    ok = rel <= _CHECK_OFFDIAG_REL
    return ok, (f"max |off-diagonal| / F22 = {rel:.3e} "
                f"(tol {_CHECK_OFFDIAG_REL:g})")


def _check_taylor_quality(det: DetectorConfig, P: float, field: FieldConfig,
                          m: int | None) -> tuple[bool, str]:
    try:
        model = build_taylor_model(det, P, field)
        quality = approximation_quality(det, P, field, m, model)
    except ModelInvalid as exc:
        return False, f"ModelInvalid: {exc}"
    ok = quality == "ok"
    return ok, (f"quality flags: {quality} (f2 = {model.f2:.6g}, "
                f"y_breve = {model.y_breve:.6g})")


def cmd_check(settings: Settings, out: IO[str]) -> int:
    det = _detector(settings)
    field = _config(FieldConfig, rho=settings.rho)
    P = _truth(settings).P
    _check_scales(det, P, field)
    _header(out, "check", settings)

    checks: list[tuple[str, bool, str]] = []
    ok, detail = _check_marcum_identity()
    checks.append(("marcum-identity", ok, detail))
    ok, detail = _check_marcum_derivatives()
    checks.append(("marcum-derivatives", ok, detail))
    ok, detail = _check_diagonality(det, P, field)
    checks.append(("fim-diagonality", ok, detail))

    if "closed-form" in settings.methods:
        if float(settings.alpha) not in _F11_ALPHAS:
            alphas = ", ".join(map(_fmt, _F11_ALPHAS))
            checks.append(("closed-form-f11", False,
                           f"UnsupportedAlpha: closed-form F11 requires "
                           f"alpha in {{{alphas}}}, got {_fmt(settings.alpha)}"))
        else:
            ok, detail = _check_taylor_quality(det, P, field, settings.m)
            checks.append(("taylor-quality", ok, detail))

    # nearest distances scale as 1/sqrt(rho), so one seeded draw at unit
    # density, on a disk of 4 r_breve = 2, serves every rho
    rb = rmin_expected(field)
    d = nearest_distance_samples(FieldConfig(rho=1.0), _CHECK_RMIN_FIELDS,
                                 region_radius=2.0)
    scaled = rb * math.sqrt(field.rho)
    z = (d.mean() - scaled) / (d.std() / math.sqrt(len(d)))
    checks.append(("nearest-sensor-distance", abs(z) <= _CHECK_RMIN_SIGMAS,
                   f"r_breve = {_fmt(rb)}, sampled mean / r_breve = "
                   f"{d.mean() / scaled:.4f} ({z:+.2f} standard errors, "
                   f"tol {_CHECK_RMIN_SIGMAS:g})"))

    if settings.region_radius is not None:
        excess = far_field_excess(det, P, settings.region_radius)
        _emit(out, f"# far_field_excess(region_radius)={_fmt(excess)}")

    failed = 0
    for name, ok, detail in checks:
        _emit(out, f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1
    _emit(out, f"# {len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binloc",
        description="Cramer-Rao bounds and Monte-Carlo validation for "
                    "localizing an RF emitter with binary energy detectors.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("crb", "sweep tau and emit Fisher/CRB columns as CSV"),
            ("simulate", "run a Monte-Carlo campaign and emit CSV"),
            ("check", "run the invariant suite and print PASS/FAIL lines")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH",
                        help="flat key=value configuration file")
        sp.add_argument("--set", metavar="KEY=VALUE", action="append",
                        help="override one configuration key (repeatable; "
                             "wins over --config)")
        sp.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
        sp.add_argument("--preset", metavar="NAME",
                        help="named parameter preset (paper-sec5)")
    return parser


_COMMANDS: dict[str, Callable[[Settings, IO[str]], int]] = {
    "crb": cmd_crb,
    "simulate": cmd_simulate,
    "check": cmd_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args)
        command = _COMMANDS[args.command]
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                return command(settings, fh)
        return command(settings, sys.stdout)
    except ConfigError as exc:
        print(f"binloc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:   # as for F11 at alpha = 1
        print(f"binloc: config error: the expected information does not "
              f"converge at these settings: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
