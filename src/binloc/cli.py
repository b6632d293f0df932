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
over file values.  Every output starts with comment lines echoing the
effective configuration.  Floats are emitted with 17 significant digits
so the CSV round-trips to the exact binary values; output is UTF-8 and
entirely deterministic for a fixed configuration.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 sweep
completed but at least one closed-form point fell back to quadrature,
4 simulation produced failures beyond the expected no-detection regime.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from dataclasses import dataclass, field as _field, fields, replace
from typing import Callable, IO, Sequence

from scipy import special

from . import specfun
from .closedform import (M_MAX, ModelInvalid, build_taylor_model,
                         closed_form_fisher, _F11_ALPHAS)
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


@dataclass(frozen=True)
class Settings:
    """Effective configuration; defaults match the reference operating
    point (P=2, T=1, sigma2=0.25, rho=0.05) with a campaign radius whose
    far-field detection excess is below 4e-4.  Each field's metadata holds
    its parser and, where it is not the field's name, its config key."""

    tau: float = _field(default=0.5, metadata={"parse": _parse_float})
    sigma2: float = _field(default=0.25, metadata={"parse": _parse_float})
    T: float = _field(default=1.0, metadata={"parse": _parse_float})
    alpha: float = _field(default=2.0, metadata={"parse": _parse_float})
    P: float = _field(default=2.0, metadata={"parse": _parse_float})
    xT: float = _field(default=0.0, metadata={"parse": _parse_float})
    yT: float = _field(default=0.0, metadata={"parse": _parse_float})
    rho: float = _field(default=0.05, metadata={"parse": _parse_float})
    trials: int = _field(default=500, metadata={"parse": _parse_int})
    seed: int = _field(default=0, metadata={"parse": _parse_int})
    region_radius: float | None = _field(
        default=60.0, metadata={"parse": _parse_radius})
    m: int | None = _field(default=None, metadata={"parse": _parse_m})
    methods: tuple[str, ...] = _field(default=("quadrature", "closed-form"),
                                      metadata={"parse": _parse_methods})
    sweep_start: float = _field(
        default=0.1, metadata={"key": "sweep.start", "parse": _parse_float})
    sweep_stop: float = _field(
        default=2.0, metadata={"key": "sweep.stop", "parse": _parse_float})
    sweep_step: float = _field(
        default=0.02, metadata={"key": "sweep.step", "parse": _parse_float})


# config key -> (Settings attribute, parser), in field order
_KEY_TABLE: dict[str, tuple[str, Callable[[str, str], object]]] = {
    f.metadata.get("key", f.name): (f.name, f.metadata["parse"])
    for f in fields(Settings)}


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


def _header(out: IO[str], command: str, settings: Settings) -> None:
    """The command's name and its effective configuration as comments."""
    print(f"# binloc {command}", file=out)
    for key, (attr, _) in _KEY_TABLE.items():
        print(f"# {key}={_fmt(getattr(settings, attr))}", file=out)


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
    _header(out, "crb", settings)
    print("# columns: " + ",".join(_CRB_COLUMNS), file=out)
    exit_code = EXIT_OK
    for tau in sweep_points(settings):
        det = _detector(settings, tau)
        _check_scales(det, P, field)
        # the quadrature row and a closed-form fallback share one result
        rows, quad = [], None
        for method in sorted(settings.methods):
            if method == "closed-form":
                try:
                    rows.append(closed_form_fisher(det, P, field, settings.m))
                    continue
                except ModelInvalid:
                    exit_code = EXIT_FALLBACK
            if quad is None:
                quad = expected_fim_quadrature(det, P, field)
            rows.append(quad if method == "quadrature" else replace(
                quad, quality="closed-form-invalid,quadrature-fallback"))
        for res in rows:
            print(",".join([
                _fmt(tau), _fmt(settings.alpha), res.method,
                "" if res.m is None else _fmt(res.m),
                _fmt(res.F11), _fmt(res.F22), _fmt(res.crb_P), _fmt(res.crb_x),
                res.quality,
            ]), file=out)
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
    _check_scales(det, truth.P, field)
    sim = _config(SimConfig, field=field, detector=det, truth=truth,
                  trials=settings.trials,
                  region_radius=settings.region_radius,
                  master_seed=settings.seed)
    # the bound first, so that one that does not converge fails the
    # command before any trial runs; main holds back the output
    fim = expected_fim_quadrature(det, truth.P, field)
    _header(out, "simulate", settings)
    print(f"# effective_region_radius={_fmt(sim.radius)}", file=out)
    print("# columns: " + ",".join(_TRIAL_COLUMNS), file=out)
    results = run_campaign(sim)
    for idx, res in enumerate(results):
        print(",".join([
            str(idx), str(res.n_sensors), str(res.n_detections),
            _fmt(res.theta_hat.P), _fmt(res.theta_hat.x),
            _fmt(res.theta_hat.y), _fmt(res.converged),
            _fmt(res.neg_log_lik),
        ]), file=out)

    print("# summary columns: " + ",".join(_SUMMARY_COLUMNS), file=out)
    if not any(res.converged for res in results):
        print(",".join([str(len(results)), "0", str(len(results))]
                       + ["nan"] * 11), file=out)
        if all(res.n_detections == 0 for res in results):
            # expected degenerate regime (threshold far beyond the signal):
            # every trial cleanly reported no detections
            print("# note: no trial produced a detection; "
                  "mse/crb summary unavailable", file=out)
            return EXIT_OK
        return EXIT_SIM_FAILED
    rep = mse_report(results, truth)
    crb_p, crb_x = fim.crb_P, fim.crb_x
    print(",".join(_fmt(v) for v in (
        rep.n_trials, rep.n_converged, rep.n_failed,
        rep.mse_P, rep.mse_x, rep.mse_y,
        rep.bias_P, rep.bias_x, rep.bias_y,
        crb_p, crb_x,
        rep.mse_P / crb_p, rep.mse_x / crb_x, rep.mse_y / crb_x,
    )), file=out)
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
        quality = closed_form_fisher(det, P, field, m).quality
        model = build_taylor_model(det, P, field)
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
        print(f"# far_field_excess(region_radius)={_fmt(excess)}", file=out)

    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
        if not ok:
            failed += 1
    print(f"# {len(checks) - failed}/{len(checks)} checks passed", file=out)
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.
    parse_args keeps no state between calls, and --set appends to a new
    list each parse, so one parser serves every main call."""
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
    return parser


_COMMANDS: dict[str, Callable[[Settings, IO[str]], int]] = {
    "crb": cmd_crb,
    "simulate": cmd_simulate,
    "check": cmd_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command.  Its output is held until it returns, so a config
    error writes nothing to stdout and leaves an existing --out file as
    it was."""
    args = build_parser().parse_args(argv)
    buf = io.StringIO()
    try:
        code = _COMMANDS[args.command](resolve_settings(args), buf)
    except ConfigError as exc:
        print(f"binloc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:   # as for F11 at alpha = 1
        print(f"binloc: config error: the expected information does not "
              f"converge at these settings: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out is None:
        sys.stdout.write(buf.getvalue())
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        print(f"binloc: config error: cannot write --out: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
