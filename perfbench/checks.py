"""Correctness checks on `binloc` output, run after timing.

An operation is one emitted row for crb-sweep and one trial for a
campaign; the checks count how many were attempted and how many failed.

crb-sweep: a row fails if a value is not finite, if it is a
quadrature-fallback row, or if it is a quadrature row whose F11 or F22
is more than QUAD_RTOL relative away from the committed reference.
Closed-form rows are judged only through cf_max_rel_err.

campaign: each trial's decisions are rebuilt with the public sampling
functions, so these checks work for any seed.  A trial fails if it did
not converge, if its reported nll is not -log_likelihood at its own
estimate, if a step of LOCAL_STEP in ln P, x or y from its estimate
lowers the nll by more than LOCAL_ATOL (it is not the local maximum of
the likelihood the fit promises), or, where a reference exists for the
seed, if its nll exceeds the reference trial's by more than NLL_ATOL.
A lower nll is never a failure.

A trial whose nll is above the nll at the true parameters is counted
(`above_truth`), not failed: the fit is a local search on a nearly flat
likelihood (about 5 target detections among about 113 false alarms at
the reference point), and at the commit that added the benchmark it
ends there on about one trial in 50.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

QUAD_RTOL = 1e-8       # the quadrature itself runs at rel_tol 1e-10
NLL_ATOL = 1e-6
NLL_RTOL = 1e-9        # reported nll against the nll recomputed at the estimate
LOCAL_STEP = 1e-3
LOCAL_ATOL = 1e-7      # the fit's own tolerance is fatol 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


@dataclass
class Output:
    """One `binloc` call's output: the '# key=value' header lines and
    the data rows of the first table."""

    header: dict[str, str]
    columns: list[str]
    rows: list[dict[str, str]]


def parse_output(text: str) -> Output:
    header: dict[str, str] = {}
    columns: list[str] = []
    rows: list[dict[str, str]] = []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif line.startswith("# summary columns: "):
            break
        elif line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if sep:
                header[key] = value
        elif columns and line:
            # the last column may hold commas (crb quality flags)
            parts = line.split(",", len(columns) - 1)
            rows.append(dict(zip(columns, parts)))
    return Output(header, columns, rows)


def reference_paths(wl, seed: int) -> list[str]:
    """The committed reference outputs of a workload: one per call of the
    crb sweep; one per seed for a campaign, a row per one-trial call
    (column `op`)."""
    if wl.is_campaign:
        return [os.path.join(REFERENCE_DIR, f"{wl.name}-seed{seed}.csv")]
    return [os.path.join(REFERENCE_DIR, f"{wl.name}-{i}.csv")
            for i in range(len(wl.calls))]


def read_reference(path: str) -> Output | None:
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return parse_output(fh.read())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else (0.0 if a == 0.0 else math.inf)


@dataclass
class Verdict:
    """Counts of one check, its first failure reasons, and the largest
    deviations from the references (stats)."""

    attempted: int = 0
    failed: int = 0
    converged: int = 0
    above_truth: int = 0
    reasons: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.converged += other.converged
        self.above_truth += other.above_truth
        self.reasons.extend(other.reasons[:20 - len(self.reasons)])
        for key, value in other.stats.items():
            self.stats[key] = max(self.stats.get(key, value), value)


# ----------------------------------------------------------------------
# crb sweep
# ----------------------------------------------------------------------

_CRB_VALUES = ("F11", "F22", "crb_P", "crb_x")


def check_crb(outputs: list[Output], expected_rows: list[int],
              references: list[Output | None]) -> Verdict:
    """outputs, expected row counts and references, one per call."""
    v = Verdict()
    quad_dev = 0.0
    for out, expected, ref in zip(outputs, expected_rows, references):
        v.attempted += max(expected, len(out.rows))
        for _ in range(expected - len(out.rows)):
            v.fail("row missing")
        ref_rows = {}
        if ref is not None:
            ref_rows = {(r["alpha"], r["tau"]): r for r in ref.rows
                        if r["method"] == "quadrature"}
        for row in out.rows:
            key = (row["alpha"], row["tau"])
            values = [float(row[c]) for c in _CRB_VALUES]
            if not all(math.isfinite(x) for x in values):
                v.fail(f"non-finite values at {key}")
                continue
            if "quadrature-fallback" in row["quality_flag"]:
                v.fail(f"quadrature-fallback row at {key}")
                continue
            if row["method"] != "quadrature":
                continue
            ref_row = ref_rows.get(key)
            if ref_row is None:
                v.fail(f"no reference quadrature row at {key}")
                continue
            dev = max(_rel(float(row[c]), float(ref_row[c])) for c in ("F11", "F22"))
            quad_dev = max(quad_dev, dev)
            if dev > QUAD_RTOL:
                v.fail(f"quadrature {key} off the reference by {dev:.3e}")
    v.stats = {"cf_max_rel_err": cf_max_rel_err(outputs),
               "quad_max_rel_dev": quad_dev}
    return v


def cf_max_rel_err(outputs: list[Output]) -> float:
    """Worst relative error of the closed-form F11 and F22 against the
    quadrature row at the same (alpha, tau)."""
    points: dict[tuple, dict[str, dict]] = {}
    for out in outputs:
        for row in out.rows:
            points.setdefault((row["alpha"], row["tau"]), {})[row["method"]] = row
    err = 0.0
    for methods in points.values():
        if "quadrature" in methods and "closed-form" in methods:
            q, c = methods["quadrature"], methods["closed-form"]
            err = max(err, *(_rel(float(c[k]), float(q[k])) for k in ("F11", "F22")))
    return err


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------

@dataclass
class Campaign:
    """The detector, the true target and each trial's decisions of the
    campaign an output header describes, rebuilt with the public API."""

    det: object
    truth: object
    records: list

    def nll(self, trial: int, P: float, x: float, y: float) -> float:
        from binloc import TargetParams, log_likelihood
        return -log_likelihood(self.det, TargetParams(P=P, x=x, y=y),
                               self.records[trial])


def rebuild_campaign(header: dict[str, str], trials: int) -> Campaign:
    """Trials 0..trials-1 of the campaign the header describes."""
    from binloc import (DetectorConfig, FieldConfig, SimConfig, TargetParams,
                        sample_decisions, sample_field)
    det = DetectorConfig(tau=float(header["tau"]), sigma2=float(header["sigma2"]),
                         T=float(header["T"]), alpha=float(header["alpha"]))
    truth = TargetParams(P=float(header["P"]), x=float(header["xT"]),
                         y=float(header["yT"]))
    sim = SimConfig(field=FieldConfig(rho=float(header["rho"])), detector=det,
                    truth=truth, trials=trials,
                    region_radius=float(header["effective_region_radius"]),
                    master_seed=int(header["seed"]))
    return Campaign(det, truth, [sample_decisions(sim, sample_field(sim, i), i)
                                 for i in range(trials)])


def _local_descent(camp: Campaign, trial: int, nll: float,
                   theta: list[float]) -> float:
    """The most a step of LOCAL_STEP in ln P, x or y lowers the nll."""
    worst = 0.0
    for d in range(3):
        for sign in (-1.0, 1.0):
            q = list(theta)
            q[d] += sign * LOCAL_STEP
            worst = max(worst, nll - camp.nll(trial, math.exp(q[0]), q[1], q[2]))
    return worst


def check_campaign(out: Output, trials: int, camp: Campaign | None,
                   ref: list[dict[str, str]] | None) -> Verdict:
    """ref: the reference rows of trials 0, 1, ... of this output, where
    they exist."""
    v = Verdict(attempted=max(trials, len(out.rows)))
    for _ in range(trials - len(out.rows)):
        v.fail("trial missing")
    ref_rows = {str(i): r for i, r in enumerate(ref)} if ref else {}
    seed = out.header.get("seed")
    dev = 0.0
    for row in out.rows:
        i = int(row["trial"])
        where = f"seed {seed} trial {i}"
        nll = float(row["nll"])
        if row["converged"] != "1":
            v.fail(f"{where} did not converge")
            continue
        v.converged += 1
        if camp is not None and i < len(camp.records):
            theta = [math.log(float(row["P_hat"])), float(row["x_hat"]),
                     float(row["y_hat"])]
            at_estimate = camp.nll(i, float(row["P_hat"]), theta[1], theta[2])
            if not _rel(nll, at_estimate) <= NLL_RTOL:
                v.fail(f"{where}: nll {nll!r} is not the nll at its estimate, "
                       f"{at_estimate!r}")
                continue
            descent = _local_descent(camp, i, nll, theta)
            if descent > LOCAL_ATOL:
                v.fail(f"{where}: not a local minimum, a step of {LOCAL_STEP} "
                       f"lowers the nll by {descent:.3e}")
                continue
            if nll > camp.nll(i, camp.truth.P, camp.truth.x, camp.truth.y):
                v.above_truth += 1
        ref_row = ref_rows.get(row["trial"])
        if ref_row is not None:
            if nll > float(ref_row["nll"]) + NLL_ATOL:
                v.fail(f"{where}: nll {nll!r} above the reference "
                       f"{ref_row['nll']}")
            dev = max(dev,
                      abs(math.log(float(row["P_hat"]) / float(ref_row["P_hat"]))),
                      abs(float(row["x_hat"]) - float(ref_row["x_hat"])),
                      abs(float(row["y_hat"]) - float(ref_row["y_hat"])))
    if ref_rows:
        v.stats["est_max_dev"] = dev
    return v
