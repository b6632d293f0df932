"""Record alternating parent/change benchmark runs as a BENCH_<n>.json.

    python3 tools/bench_record.py --parent <rev> --change <rev> --out BENCH_9.json \
        --plan campaign-ref:20260814:5 --plan campaign-ref:4721:5 \
        --plan crb-sweep:20260814:3 --claim wall_s:campaign-ref

Each side is exported with `git archive` into its own directory under
--workdir, and `perfbench/run.py` runs there, in a fresh process, as
BENCHMARK.json declares it (its own run_seconds, --trace 0).  A plan
entry WORKLOAD:SEED:PAIRS runs PAIRS pairs, each one parent run and one
change run, back to back; pair i runs the parent first when i + j is
even, j the position of SEED among the seeds planned for WORKLOAD, so
that neither side always runs first.  Last, TRACED_PAIRS alternating
pairs of traced runs (parent first in even pairs) add the per-layer
metrics of TRACED_KEYS that the runs measured, as each side's median.
They trace the first entry of the claimed workload, else the first
campaign entry of the plan, else the first entry.  Before its pairs,
each plan entry records per side the sha256 of one operation's `binloc`
output, its calls' standard output concatenated (output_sha256), and
whether the two sides' digests are equal; where they are not, it also
records how the data rows differ (output_deviation): per CSV column, the
largest relative deviation and the number of rows that differ.

--change takes any tree-ish: a commit, or for a staged change the tree
that `git write-tree` prints.  Run from the root of the repository.
The record is rewritten after every pair, so an interrupted recording
keeps what it has measured.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

# the per-layer metrics a traced run contributes to the record: the
# campaign's, then the crb sweep's (a run lists the others as absent).
# The fit's grid/optimizer split is left out: perfbench's optimizer hook
# names code the fit no longer calls, so the optimizer's count and time
# read 0 and the grid's count repeats the total.  So is the tracing
# overhead, which records have read below 0
TRACED_KEYS = (
    "montecarlo.nll_evals_per_trial",
    "montecarlo.fit_ms_per_trial",
    "montecarlo.self_s",
    "detection.self_s",
    "detection.nll_us",
    "montecarlo.converged_frac",
    "montecarlo.above_truth_frac",
    "montecarlo.est_max_dev",
    "detection.sensors_per_nll",
    "detection.ns_per_sensor_eval",
    "fisher.quad_ms_per_point",
    "closedform.point_ms",
    "fisher.self_s",
    "closedform.self_s",
    "specfun.self_s",
)

# alternating pairs of traced runs, so that drift in machine speed does
# not read as a change between the sides
TRACED_PAIRS = 3

SIDES = ("parent", "change")

# one operation's `binloc` calls in one interpreter, their standard
# output written in call order; run in a checkout with argv workload, seed
_OUTPUT_SCRIPT = """
import contextlib, io, sys
from binloc import cli
from workloads import WORKLOADS
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    for argv in WORKLOADS[sys.argv[1]].argvs(int(sys.argv[2])):
        cli.main(argv)
sys.stdout.write(buf.getvalue())
"""

# the comment line that names the CSV columns of the data rows below it
_COLUMNS = re.compile(r"# (?:\w+ )?columns: (.*)")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: str) -> None:
    """Write the files of tree-ish rev into the new directory dest."""
    data = _git("archive", "--format=tar", rev)
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One perfbench run in checkout: its '# run' record and its result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("# run "):]) for line in lines
                  if line.startswith("# run "))
    return record, json.loads(lines[-1])


def output_text(checkout: str, workload: str, seed: int) -> str:
    """One operation's concatenated `binloc` output, run in checkout with
    its own package and workloads, single-threaded as perfbench runs it."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.join(os.path.abspath(checkout), d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", _OUTPUT_SCRIPT, workload, str(seed)],
        cwd=checkout, env=env, capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"output of {workload} seed {seed} in "
                           f"{checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr.decode()[-4000:]}")
    return proc.stdout.decode()


def _rel_dev(p: str, c: str) -> float | None:
    try:
        p_val, c_val = float(p), float(c)
    except ValueError:
        return None
    return abs(c_val - p_val) / abs(p_val) if p_val else math.inf


def output_deviation(parent: str, change: str) -> dict:
    """How two outputs' data rows differ, paired line by line: the rows
    compared, the rows that differ, and for each CSV column with a
    differing field its count of such rows and its largest relative
    deviation |c - p| / |p| (None where a differing field is not a
    number on both sides)."""
    names: list[str] = []
    rows = differ = 0
    columns: dict[str, dict] = {}
    for p_line, c_line in zip(parent.splitlines(), change.splitlines()):
        if p_line.startswith("#"):
            match = _COLUMNS.fullmatch(p_line)
            names = match.group(1).split(",") if match else names
            continue
        rows += 1
        pairs = [(name, p, c) for name, p, c in zip(
            names, p_line.split(","), c_line.split(",")) if p != c]
        differ += p_line != c_line
        for name, p, c in pairs:
            col = columns.setdefault(name, {"rows_differ": 0,
                                            "max_rel_dev": 0.0})
            col["rows_differ"] += 1
            dev = _rel_dev(p, c)
            if col["max_rel_dev"] is not None:
                col["max_rel_dev"] = None if dev is None else max(
                    col["max_rel_dev"], dev)
    return {"rows": rows, "rows_differ": differ, "columns": columns}


def spread(runs: list[float]) -> dict:
    """Runs, quartiles (inclusive method) and median."""
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"runs": runs, "q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float]) -> dict:
    """One metric's runs on both sides, paired in order."""
    out = {"parent": spread(parent), "change": spread(change)}
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out["change_lower_in"] = sum(c < p for p, c in zip(parent, change))
    out["change_higher_in"] = sum(c > p for p, c in zip(parent, change))
    out["median_rel_change"] = (cm - pm) / pm if pm else None
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def summarize_entry(workload: str, seed: int, pairs: list[dict]) -> dict:
    """The record of one plan entry from its completed pairs, each a
    {"first": side, "parent": (record, result), "change": (...)}."""
    entry = {"workload": workload, "seed": seed, "pairs": len(pairs),
             "first_in_pair": [p["first"] for p in pairs]}
    for key, get in (("failed", lambda rec, res: res["failed"]),
                     ("attempted", lambda rec, res: res["attempted"]),
                     ("above_truth", lambda rec, res: rec["above_truth"])):
        entry[key] = {side: [get(*p[side]) for p in pairs] for side in SIDES}
    names = list(pairs[0]["parent"][1]["metrics"]) if pairs else []
    entry["metrics"] = {
        name: compare(*([p[side][1]["metrics"][name]["value"] for p in pairs]
                        for side in SIDES))
        for name in names}
    return entry


def parse_plan(items: list[str]) -> list[tuple[str, int, int]]:
    plan = []
    for item in items:
        workload, seed, pairs = item.split(":")
        plan.append((workload, int(seed), int(pairs)))
    return plan


def traced_entry(plan: list[tuple[str, int, int]],
                 claimed: str | None = None) -> tuple[str, int, int]:
    """The plan entry whose traced runs the record keeps: the first entry
    of the claimed workload, else the first campaign entry, else the
    first entry."""
    return next((entry for entry in plan if entry[0] == claimed),
                next((entry for entry in plan
                      if WORKLOADS[entry[0]].is_campaign), plan[0]))


def traced_metrics(record: dict) -> dict:
    """The metrics a traced run's record measured: those it lists under
    absent are reported as 0 and left out."""
    return {name: value for name, value in record["metrics"].items()
            if name not in record["absent"]}


def summarize_traced(pairs: list[dict]) -> dict:
    """Each side's median of every TRACED_KEYS metric its runs report,
    from traced pairs {"first": side, "parent": metrics, "change": ...},
    metrics mapping a name to its value."""
    out: dict = {"pairs": len(pairs),
                 "first_in_pair": [p["first"] for p in pairs]}
    for side in SIDES:
        out[side] = {key: statistics.median(p[side][key] for p in pairs)
                     for key in TRACED_KEYS
                     if all(key in p[side] for p in pairs)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="alternating parent/change perfbench runs as BENCH_<n>.json")
    parser.add_argument("--parent", required=True, help="tree-ish of the parent")
    parser.add_argument("--change", default="HEAD", help="tree-ish of the change")
    parser.add_argument("--out", required=True, help="record to write")
    parser.add_argument("--plan", action="append", required=True,
                        help="WORKLOAD:SEED:PAIRS (repeatable)")
    parser.add_argument("--claim", help="METRIC:WORKLOAD the change claims")
    parser.add_argument("--workdir", help="where the checkouts go "
                        "(default: a new temporary directory)")
    args = parser.parse_args(argv)
    plan = parse_plan(args.plan)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = float(json.load(fh)["run_seconds"])

    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_record-")
    checkouts = {side: os.path.join(workdir, side) for side in SIDES}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        export(rev, checkouts[side])

    command = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
               f"--seconds {seconds:g} --trace 0")
    out = {
        "description": (
            "Alternating parent/change runs of perfbench/run.py, each in its "
            "own checkout; every figure is the run's own end-to-end metric "
            "(seconds at the probe reference speed). Medians and quartiles "
            "(inclusive method) over the runs of each side; change_lower_in "
            "counts the pairs where the change read lower."),
        "command": command,
        "parent_commit": _git("rev-parse", args.parent).decode().strip(),
        "src_sha256": {side: [] for side in SIDES},
        "machine": None,
        "versions": None,
        "order": ("pair i runs the parent first when i + j is even, j the "
                  "position of the seed among the seeds run for its workload"),
    }
    if args.claim:
        metric, workload = args.claim.split(":")
        seeds = [s for w, s, _ in plan if w == workload]
        out["claim"] = {"metric": metric, "workload": workload, "seeds": seeds}
        if HELD_OUT_SEED in seeds:
            out["claim"]["held_out_seed"] = HELD_OUT_SEED
    out["workloads"] = []

    def note(side: str, record: dict) -> None:
        sha = record["source"]["src_sha256"]
        if sha not in out["src_sha256"][side]:
            out["src_sha256"][side].append(sha)
        out["machine"] = out["machine"] or record["machine"]
        out["versions"] = out["versions"] or record["versions"]

    def write() -> None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")

    for workload, seed, n_pairs in plan:
        j = [s for w, s, _ in plan if w == workload].index(seed)
        pairs: list[dict] = []
        texts = {side: output_text(checkouts[side], workload, seed)
                 for side in SIDES}
        digests = {side: hashlib.sha256(texts[side].encode()).hexdigest()
                   for side in SIDES}
        outputs = {"output_sha256": digests,
                   "outputs_equal": digests["parent"] == digests["change"]}
        if not outputs["outputs_equal"]:
            outputs["output_deviation"] = output_deviation(
                texts["parent"], texts["change"])
        out["workloads"].append({"workload": workload, "seed": seed,
                                 **outputs})
        write()
        for i in range(n_pairs):
            first = "parent" if (i + j) % 2 == 0 else "change"
            pair = {"first": first}
            for side in (first, "change" if first == "parent" else "parent"):
                pair[side] = run_once(checkouts[side], workload, seed,
                                      seconds, trace=0)
                note(side, pair[side][0])
                print(f"{workload} seed {seed} pair {i} {side}: wall_s "
                      f"{pair[side][1]['metrics']['wall_s']['value']:.3f}",
                      file=sys.stderr)
            pairs.append(pair)
            out["workloads"][-1] = {**summarize_entry(workload, seed, pairs),
                                    **outputs}
            write()

    workload, seed, _ = traced_entry(plan, out.get("claim", {}).get("workload"))
    command = (f"python3 perfbench/run.py --workload {workload} "
               f"--seed {seed} --seconds {seconds:g} --trace 1")
    traced: list[dict] = []
    for i in range(TRACED_PAIRS):
        first = "parent" if i % 2 == 0 else "change"
        pair = {"first": first}
        for side in (first, "change" if first == "parent" else "parent"):
            record, _ = run_once(checkouts[side], workload, seed, seconds,
                                 trace=1)
            note(side, record)
            pair[side] = traced_metrics(record)
        traced.append(pair)
        out["traced"] = {"command": command, "runs": "median per side",
                         **summarize_traced(traced)}
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
