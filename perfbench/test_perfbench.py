"""Self-tests of the benchmark.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import worker
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _names(kind: str) -> set[str]:
    return {m["name"] for m in BENCH[kind]}


def _small(name: str):
    """The workload cut down to a few tau points or two trials."""
    wl = WORKLOADS[name]
    if wl.is_campaign:
        return dataclasses.replace(wl, trials=2)
    return dataclasses.replace(wl, calls=tuple(
        call + ("sweep.start=1.9", "sweep.stop=1.94") for call in wl.calls))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted(name, tmp_path, monkeypatch):
    wl = _small(name)
    monkeypatch.setitem(WORKLOADS, name, wl)
    traced = worker._trace(wl, DEFAULT_SEED, 60.0, str(tmp_path / "spans.json"))
    metrics, absent = run.per_layer_metrics(name, traced)
    assert set(metrics) == _names("per_layer")
    assert set(absent) <= set(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
    assert 0.9 <= metrics["trace.self_sum_share"] <= 1.1

    timed = worker._time(wl, DEFAULT_SEED, 0.0)
    e2e = run.end_to_end_metrics([worker._setup()] * 3, timed)
    assert set(e2e) == _names("end_to_end")
    assert all(v > 0 for v in e2e.values())


def test_every_hook_resolves():
    hooks = spans.HOOKS + spans.specfun_hooks()
    originals = {h.name: h for h in hooks}
    tracer = spans.Tracer()
    found, missing, restore = tracer.install(hooks)
    try:
        assert missing == []
        assert set(found) == set(originals)
    finally:
        restore()
    from binloc import montecarlo
    from scipy import optimize
    assert montecarlo.optimize is optimize
    assert not hasattr(montecarlo.sample_field, "__wrapped__")


def test_missing_hook_is_reported_not_fatal():
    hooks = (spans.Hook("montecarlo", "no_such_name", "montecarlo"),)
    found, missing, restore = spans.Tracer().install(hooks)
    restore()
    assert (found, missing) == ([], ["montecarlo.no_such_name"])
    metrics, absent = spans.layer_metrics([], (), trials=3)
    assert metrics["detection.nll_us"] == 0.0
    assert absent["detection.nll_us"].startswith("hook missing")


def _reference_trial(seed: int = DEFAULT_SEED, k: int = 0):
    """The reference row of campaign-ref call k, that trial as an
    output, and its rebuilt campaign."""
    wl = WORKLOADS["campaign-ref"]
    [path] = checks.reference_paths(wl, seed)
    ref = checks.read_reference(path)
    row = next(dict(r) for r in ref.rows if r["op"] == str(k))
    header = dict(ref.header, seed=row["master_seed"])
    out = checks.Output(header, ref.columns[2:], [dict(row)])
    return [row], out, checks.rebuild_campaign(header, 1)


def _seeds(seed: int) -> list[str]:
    return [next(a for a in argv if a.startswith("seed="))
            for argv in WORKLOADS["campaign-ref"].argvs(seed)]


def test_campaign_trials_have_their_own_seeds():
    seeds = _seeds(DEFAULT_SEED)
    assert seeds[0] == f"seed={DEFAULT_SEED}"
    assert len(set(seeds)) == len(seeds) == 56
    assert not set(seeds) & set(_seeds(DEFAULT_SEED + 1))


def test_reference_trial_passes_and_moved_estimate_fails():
    from binloc import TargetParams, log_likelihood
    ref, out, camp = _reference_trial()
    assert checks.check_campaign(out, 1, camp, ref).failed == 0

    # move the estimate 5 units and report the nll it really has there
    row = out.rows[0]
    moved = TargetParams(float(row["P_hat"]), float(row["x_hat"]) + 5.0,
                         float(row["y_hat"]))
    row["x_hat"] = repr(moved.x)
    row["nll"] = repr(-log_likelihood(camp.det, moved, camp.records[0]))
    v = checks.check_campaign(out, 1, camp, None)
    assert v.failed == 1 and "not a local minimum" in v.reasons[0]
    # without the rebuilt campaign the reference still catches it
    v = checks.check_campaign(out, 1, None, ref)
    assert v.failed == 1 and "above the reference" in v.reasons[0]
    assert v.stats["est_max_dev"] == pytest.approx(5.0)


def test_misreported_nll_fails():
    ref, out, camp = _reference_trial()
    out.rows[0]["nll"] = repr(float(out.rows[0]["nll"]) - 1.0)
    v = checks.check_campaign(out, 1, camp, ref)
    assert v.failed == 1 and "not the nll at its estimate" in v.reasons[0]


def test_fit_above_the_truth_is_counted_not_failed():
    # held-out seed, call 1: the fit ends above the nll at the true
    # parameters
    ref, out, camp = _reference_trial(HELD_OUT_SEED, 1)
    v = checks.check_campaign(out, 1, camp, ref)
    assert (v.failed, v.above_truth) == (0, 1)


def test_unconverged_or_missing_trials_fail_and_lower_nll_does_not():
    ref, out, _ = _reference_trial()
    v = checks.check_campaign(out, 2, None, ref)
    assert (v.attempted, v.failed) == (2, 1)          # trial 1 missing
    out.rows[0]["nll"] = repr(float(out.rows[0]["nll"]) - 1.0)
    assert checks.check_campaign(out, 1, None, ref).failed == 0
    out.rows[0]["converged"] = "0"
    assert checks.check_campaign(out, 1, None, ref).failed == 1


def test_crb_check_flags_drift_fallback_and_nonfinite():
    wl = WORKLOADS["crb-sweep"]
    refs = [checks.read_reference(p) for p in checks.reference_paths(wl, 0)]
    outs = [checks.Output(r.header, r.columns, [dict(x) for x in r.rows])
            for r in refs]
    expected = [len(r.rows) for r in refs]
    v = checks.check_crb(outs, expected, refs)
    assert (v.attempted, v.failed) == (384, 0)
    assert 0.0 < v.stats["cf_max_rel_err"] < 1.0

    quad = outs[0].rows[1]
    assert quad["method"] == "quadrature"
    quad["F22"] = repr(float(quad["F22"]) * (1 + 1e-6))
    outs[1].rows[2]["quality_flag"] = "closed-form-invalid,quadrature-fallback"
    outs[1].rows[-1]["crb_x"] = "inf"
    outs[1].rows.pop(0)
    v = checks.check_crb(outs, expected, refs)
    assert (v.attempted, v.failed) == (384, 4)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "crb-sweep", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
