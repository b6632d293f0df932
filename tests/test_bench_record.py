"""Tests for tools/bench_record.py's summary of paired benchmark runs."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import math
import os

import pytest

from binloc import cli

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_PATH = os.path.join(_ROOT, "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(wall: float, failed: int = 0, above: int = 0) -> tuple[dict, dict]:
    record = {"above_truth": above}
    result = {"failed": failed, "attempted": 56,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    return record, result


def test_pairs_are_summarized_per_side_and_per_pair():
    pairs = [{"first": first, "parent": _run(p, above=1), "change": _run(c)}
             for first, p, c in (("parent", 4.0, 2.0), ("change", 5.0, 2.5),
                                 ("parent", 4.5, 4.6), ("change", 4.2, 2.2))]
    entry = bench_record.summarize_entry("campaign-ref", 4721, pairs)
    assert entry["pairs"] == 4
    assert entry["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert entry["attempted"] == {"parent": [56] * 4, "change": [56] * 4}
    assert entry["above_truth"] == {"parent": [1] * 4, "change": [0] * 4}
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [4.0, 5.0, 4.5, 4.2]
    # inclusive quartiles of 4.0, 4.2, 4.5, 5.0
    assert wall["parent"]["q1"] == pytest.approx(4.15)
    assert wall["parent"]["median"] == pytest.approx(4.35)
    assert wall["parent"]["q3"] == pytest.approx(4.625)
    assert wall["parent_iqr"] == pytest.approx(0.475)
    assert (wall["change_lower_in"], wall["change_higher_in"]) == (3, 1)
    assert wall["median_rel_change"] == pytest.approx(2.35 / 4.35 - 1.0)


def test_equal_runs_count_for_neither_side():
    wall = bench_record.compare([0.0566] * 3, [0.0566] * 3)
    assert (wall["change_lower_in"], wall["change_higher_in"]) == (0, 0)
    assert wall["median_rel_change"] == 0.0 and wall["parent_iqr"] == 0.0
    assert bench_record.compare([0.0], [0.0])["median_rel_change"] is None


def test_plan_entries_parse():
    assert bench_record.parse_plan(["campaign-ref:20260814:5",
                                    "crb-sweep:1:3"]) == [
        ("campaign-ref", 20260814, 5), ("crb-sweep", 1, 3)]


def test_traced_run_is_the_first_campaign_entry():
    plan = bench_record.parse_plan(["crb-sweep:20260814:3",
                                    "campaign-ref:4721:5",
                                    "campaign-ref:20260814:5"])
    assert bench_record.traced_entry(plan) == ("campaign-ref", 4721, 5)
    assert bench_record.traced_entry(plan[:1]) == ("crb-sweep", 20260814, 3)


def test_traced_run_follows_the_claimed_workload():
    plan = bench_record.parse_plan(["crb-sweep:20260814:10",
                                    "campaign-ref:20260814:5",
                                    "campaign-ref:4721:5"])
    assert bench_record.traced_entry(plan, "crb-sweep") == (
        "crb-sweep", 20260814, 10)
    assert bench_record.traced_entry(plan[::-1], "campaign-ref") == (
        "campaign-ref", 4721, 5)
    # a claim outside the plan falls back to the first campaign entry
    assert bench_record.traced_entry(plan, "campaign-hightau") == (
        "campaign-ref", 20260814, 5)


def test_traced_pairs_alternate_and_record_medians():
    assert bench_record.TRACED_PAIRS >= 3
    for key in ("fisher.quad_ms_per_point", "closedform.point_ms",
                "fisher.self_s", "closedform.self_s", "specfun.self_s"):
        assert key in bench_record.TRACED_KEYS
    runs = [("parent", 0.60, 0.33), ("change", 0.70, 0.30),
            ("parent", 0.58, 0.36)]
    pairs = [{"first": first,
              "parent": {"fisher.quad_ms_per_point": p, "not.recorded": 1.0},
              "change": {"fisher.quad_ms_per_point": c}}
             for first, p, c in runs]
    traced = bench_record.summarize_traced(pairs)
    assert traced["pairs"] == 3
    assert traced["first_in_pair"] == ["parent", "change", "parent"]
    assert traced["parent"] == {"fisher.quad_ms_per_point": 0.60}
    assert traced["change"] == {"fisher.quad_ms_per_point": 0.33}


def test_traced_metrics_listed_as_absent_are_left_out():
    # a crb-sweep run reports the campaign's metrics as 0 and lists them
    # under absent: they are not recorded as measured zeros
    record = {"metrics": {"fisher.quad_ms_per_point": 0.35,
                          "detection.nll_us": 0.0},
              "absent": {"detection.nll_us": "no nll calls"}}
    pairs = [{"first": first, "parent": bench_record.traced_metrics(record),
              "change": bench_record.traced_metrics(record)}
             for first in ("parent", "change", "parent")]
    traced = bench_record.summarize_traced(pairs)
    for side in ("parent", "change"):
        assert traced[side] == {"fisher.quad_ms_per_point": 0.35}


def test_output_digest_is_the_sha256_of_one_operations_output():
    # crb-sweep's operation, its two `binloc crb` calls, in a fresh
    # interpreter of this checkout against the same calls made here
    digest = hashlib.sha256()
    for argv in bench_record.WORKLOADS["crb-sweep"].argvs(20260814):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        digest.update(buf.getvalue().encode())
    text = bench_record.output_text(_ROOT, "crb-sweep", 20260814)
    assert hashlib.sha256(text.encode()).hexdigest() == digest.hexdigest()
    with pytest.raises(RuntimeError, match="no-such-workload"):
        bench_record.output_text(_ROOT, "no-such-workload", 1)


def test_output_deviation_names_each_differing_column():
    parent = ("# binloc crb\n# rho=0.05\n# columns: tau,method,F11,F22,quality\n"
              "0.5,quadrature,0.25,2.0,ok\n0.5,closed-form,0.5,4.0,ok\n"
              "0.7,quadrature,0.125,1.0,ok\n"
              "# summary columns: n_trials,crb_P\n5,0\n")
    change = parent.replace("0.25,2.0,ok", "0.2500001,2.0,negative").replace(
        "0.125,1.0", "0.1249999,1.5").replace("5,0", "5,1e-300")
    dev = bench_record.output_deviation(parent, change)
    assert (dev["rows"], dev["rows_differ"]) == (4, 3)
    cols = dev["columns"]
    assert set(cols) == {"F11", "F22", "quality", "crb_P"}
    assert cols["F11"]["rows_differ"] == 2
    assert cols["F11"]["max_rel_dev"] == pytest.approx(8e-7)
    assert cols["F22"] == {"rows_differ": 1, "max_rel_dev": 0.5}
    # a field that is not a number on both sides has no relative deviation
    assert cols["quality"] == {"rows_differ": 1, "max_rel_dev": None}
    assert cols["crb_P"] == {"rows_differ": 1, "max_rel_dev": math.inf}
    assert bench_record.output_deviation(parent, parent) == {
        "rows": 4, "rows_differ": 0, "columns": {}}
