"""Tracing from outside the package: wrappers around the names through
which one `binloc` module calls another, spans kept in memory, and the
per-layer metrics derived from them.

Nothing in `binloc` is edited.  Each hook replaces one attribute of a
module object (`montecarlo.sample_field`, `specfun.log_marcum_q`, ...), so
only calls that look the name up through that module are seen.  A hook
whose name no longer exists is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "montecarlo", "detection", "fisher", "closedform", "specfun")


@dataclass(frozen=True)
class Hook:
    module: str          # binloc module whose attribute is replaced
    path: str            # attribute, or "attr.attr" for one level deeper
    layer: str           # layer the wrapped callee belongs to
    size: Callable | None = None   # (args, kwargs) -> work size of a call

    @property
    def name(self) -> str:
        return f"{self.module}.{self.path}"


def _sensor_count(args, kwargs) -> int:
    sx = args[4] if len(args) > 4 else kwargs["sx"]
    return len(sx)


# the calls one module makes into another, as seen from the caller; the
# montecarlo nll hook, the optimizer and closedform's kernel have no public
# twin and are wrapped where the calling module looks them up
HOOKS: tuple[Hook, ...] = (
    Hook("cli", "main", "cli"),
    Hook("cli", "expected_fim_quadrature", "fisher"),
    Hook("cli", "closed_form_fisher", "closedform"),
    Hook("cli", "run_campaign", "montecarlo"),
    Hook("montecarlo", "sample_field", "montecarlo"),
    Hook("montecarlo", "sample_decisions", "montecarlo"),
    Hook("montecarlo", "initial_guess", "montecarlo"),
    Hook("montecarlo", "ml_estimate", "montecarlo"),
    Hook("montecarlo", "_log_likelihood_arrays", "detection", _sensor_count),
    Hook("montecarlo", "detection_probability_array", "detection"),
    Hook("montecarlo", "optimize.minimize", "montecarlo"),
    Hook("closedform", "build_taylor_model", "closedform"),
    Hook("closedform", "approximation_quality", "closedform"),
    Hook("closedform", "_log_kernel", "fisher"),
)


def specfun_hooks() -> tuple[Hook, ...]:
    """Every public function of `binloc.specfun` at this commit."""
    mod = importlib.import_module("binloc.specfun")
    names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
    return tuple(Hook("specfun", n, "specfun") for n in names
                 if inspect.isfunction(getattr(mod, n, None)))


class _ModuleView(types.ModuleType):
    """A stand-in for a module that overrides some attributes and
    forwards the rest, so a hook changes what one caller sees without
    touching the shared module (e.g. `scipy.optimize`)."""

    def __init__(self, base: types.ModuleType, **overrides):
        super().__init__(base.__name__)
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Spans as tuples (name, start, end, parent index, size), in start
    order; parent -1 marks a root.  Calls into `specfun` made from inside
    `specfun` are not recorded: they are part of the outer call."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._layers: list[str] = []

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        spans, stack, layers = self.spans, self._stack, self._layers
        clock, name, layer, size = time.perf_counter, hook.name, hook.layer, hook.size
        nested_skip = layer == "specfun"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_skip and layers and layers[-1] == "specfun":
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            layers.append(layer)
            n = size(args, kwargs) if size is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[idx] = (name, start, end, parent, n)

        return traced

    def install(self, hooks: tuple[Hook, ...]):
        """Wrap every hook that resolves.  Returns (found, missing,
        restore); restore() puts the original attributes back."""
        found, missing, undo = [], [], []
        for hook in hooks:
            try:
                mod = importlib.import_module(f"binloc.{hook.module}")
            except ImportError:
                missing.append(hook.name)
                continue
            head, _, leaf = hook.path.rpartition(".")
            owner = getattr(mod, head, None) if head else mod
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                missing.append(hook.name)
                continue
            wrapped = self.wrap(hook, fn)
            if head:
                undo.append((mod, head, owner))
                setattr(mod, head, _ModuleView(owner, **{leaf: wrapped}))
            else:
                undo.append((mod, leaf, fn))
                setattr(mod, leaf, wrapped)
            found.append(hook.name)

        def restore() -> None:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)

        return found, missing, restore


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

_LOG_TAILS = ("specfun.log_marcum_q", "specfun.log1m_marcum_q")
_GAMMAS = ("specfun.upper_gamma", "specfun.lower_gamma")
_NLL = "montecarlo._log_likelihood_arrays"
_QUAD = "cli.expected_fim_quadrature"
_CLOSED = "cli.closed_form_fisher"


class _Index:
    """Durations, self times and ancestry of a finished span list."""

    def __init__(self, spans: list, layer_of: dict[str, str]):
        self.spans = spans
        self.layer_of = layer_of
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[3] >= 0:
                child[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def where(self, names) -> list[int]:
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def inside(self, idx: list[int], names) -> list[int]:
        """The spans of idx that have an ancestor named in names."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for i in idx:
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p >= 0:
                out.append(i)
        return out

    def total(self, idx: list[int]) -> float:
        return sum(self.dur[i] for i in idx)


def layer_metrics(spans: list, hooks: tuple[Hook, ...], trials: int
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced operation.  hooks are the hooks
    that resolved; trials is the number of campaign trials the traced
    batch ran (0 for a sweep).  Returns the metrics and, for each one that
    could not be measured, the reason; those are reported as 0."""
    ix = _Index(spans, {h.name: h.layer for h in hooks})
    out: dict[str, float] = {}
    absent: dict[str, str] = {}

    def ratio(name: str, num: float, den: float, needs: tuple[str, ...],
              what: str) -> None:
        lost = [n for n in needs if n not in ix.layer_of]
        if lost:
            absent[name] = "hook missing: " + ", ".join(lost)
            out[name] = 0.0
        elif den <= 0:
            absent[name] = f"no {what} in this workload"
            out[name] = 0.0
        else:
            out[name] = num / den

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, ix.self_time)
            if ix.layer_of.get(s[0]) == layer)

    # montecarlo: per-trial stage times and nll evaluation counts
    fits = ix.where("montecarlo.ml_estimate")
    nll = ix.where(_NLL)
    nll_fit = ix.inside(nll, "montecarlo.ml_estimate")
    nll_opt = ix.inside(nll, "montecarlo.optimize.minimize")
    mc = "montecarlo."
    ratio(mc + "sample_ms_per_trial",
          1e3 * ix.total(ix.where((mc + "sample_field", mc + "sample_decisions"))),
          trials, (mc + "sample_field", mc + "sample_decisions"), "trials")
    ratio(mc + "init_ms_per_trial", 1e3 * ix.total(ix.where(mc + "initial_guess")),
          trials, (mc + "initial_guess",), "trials")
    ratio(mc + "fit_ms_per_trial", 1e3 * ix.total(fits), trials,
          (mc + "ml_estimate",), "trials")
    ratio(mc + "opt_ms_per_trial",
          1e3 * ix.total(ix.where(mc + "optimize.minimize")), trials,
          (mc + "optimize.minimize",), "trials")
    ratio(mc + "nll_evals_per_trial", len(nll_fit), trials,
          (_NLL, mc + "ml_estimate"), "trials")
    ratio(mc + "nll_evals_grid_per_trial", len(nll_fit) - len(nll_opt), trials,
          (_NLL, mc + "ml_estimate", mc + "optimize.minimize"), "trials")
    ratio(mc + "nll_evals_opt_per_trial", len(nll_opt), trials,
          (_NLL, mc + "optimize.minimize"), "trials")

    # detection: the nll kernel and the scalar edge calls inside it
    nll_time = ix.total(nll)
    sensors = sum(spans[i][4] for i in nll)
    edge = ix.inside([i for i, s in enumerate(spans)
                      if ix.layer_of.get(s[0]) == "specfun"], _NLL)
    ratio("detection.nll_us", 1e6 * nll_time, len(nll), (_NLL,), "nll evaluations")
    ratio("detection.sensors_per_nll", sensors, len(nll), (_NLL,), "nll evaluations")
    ratio("detection.ns_per_sensor_eval", 1e9 * nll_time, sensors, (_NLL,),
          "nll evaluations")
    ratio("detection.edge_calls_per_nll", len(edge), len(nll), (_NLL,),
          "nll evaluations")
    ratio("detection.edge_share", ix.total(edge), nll_time, (_NLL,),
          "nll evaluations")

    # specfun: log-tail cost and call counts per operation
    tails = ix.where(_LOG_TAILS)
    ratio("specfun.log_tail_us", 1e6 * ix.total(tails), len(tails), _LOG_TAILS,
          "log-tail calls")
    for fn in ("log_marcum_q", "log1m_marcum_q", "marcum_q", "bessel_i_scaled"):
        name = f"specfun.{fn}"
        ratio(f"specfun.calls.{fn}", len(ix.where(name)), 1, (name,), "")
    ratio("specfun.calls.gamma", len(ix.where(_GAMMAS)), 1, _GAMMAS, "")

    # fisher: exact-route points and kernel evaluations
    quad = ix.where(_QUAD)
    kernel = ix.inside(ix.where("specfun.log_marcum_q"), _QUAD)
    ratio("fisher.quad_ms_per_point", 1e3 * ix.total(quad), len(quad), (_QUAD,),
          "quadrature points")
    ratio("fisher.kernel_evals_per_point", len(kernel), len(quad),
          (_QUAD, "specfun.log_marcum_q"), "quadrature points")

    # closedform: cost per point and the share its quality probe takes
    closed = ix.where(_CLOSED)
    closed_time = ix.total(closed)
    ratio("closedform.point_ms", 1e3 * closed_time, len(closed), (_CLOSED,),
          "closed-form points")
    ratio("closedform.quality_share",
          ix.total(ix.where("closedform.approximation_quality")), closed_time,
          (_CLOSED, "closedform.approximation_quality"), "closed-form points")
    ratio("closedform.gamma_calls_per_point",
          len(ix.inside(ix.where(_GAMMAS), _CLOSED)), len(closed),
          (_CLOSED,) + _GAMMAS, "closed-form points")

    for layer in LAYERS:
        if layer not in ix.layer_of.values():
            absent[f"{layer}.self_s"] = "no hook of this layer resolved"
    return out, absent
