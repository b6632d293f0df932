"""binloc benchmark: one workload, one run.

    python3 perfbench/run.py --workload crb-sweep --seed 20260814 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json from
untraced runs, with --trace 1 the per-layer metrics from a traced run.
Every workload process is a fresh single-threaded interpreter.  A run
record (machine, versions, seed, hooks, failures) is printed as a
'# run ' line and written to perfbench/out/; the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from probe import at_reference_speed
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0       # the whole run, setup and checks included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, BENCH_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(args))
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=_worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: " + " ".join(args)) from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "threads": {var: "1" for var in THREAD_VARS}}


def _source_identity() -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join("src", "binloc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end_metrics(setups: list[dict], timed: dict) -> dict[str, float]:
    """The end-to-end metrics from the results of worker.py's setup and
    time modes.  Times are at the probe's reference speed: each import
    against the probe run in the same interpreter, each `binloc` call
    against the mean of the probes just before and after its window; an
    operation's time is the sum of its calls'."""
    probes = timed["probes"]
    walls = [sum(at_reference_speed(w, (probes[j] + probes[j + 1]) / 2)
                 for w, j in zip(call_walls, call_windows))
             for call_walls, call_windows in zip(timed["walls"], timed["windows"])]
    return {
        "setup_s": statistics.median(
            at_reference_speed(s["import_s"], s["probe_s"]) for s in setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": timed["peak_rss_mb"],
        "cf_max_rel_err": timed["stats"]["cf_max_rel_err"],
    }


def per_layer_metrics(wl: str, traced: dict) -> tuple[dict[str, float], dict[str, str]]:
    """The per-layer metrics from the result of worker.py's trace mode,
    and the reason for each one that could not be measured (reported
    as 0)."""
    metrics = dict(traced["metrics"])
    absent = dict(traced["absent"])
    metrics["trace.overhead_s"] = traced["wall_s"] - statistics.mean(traced["untraced_walls"])
    metrics["trace.self_sum_share"] = sum(
        metrics[k] for k in metrics if k.endswith(".self_s")) / traced["wall_s"]
    stats = traced["stats"]
    for name, key in (("montecarlo.est_max_dev", "est_max_dev"),
                      ("fisher.quad_max_rel_dev", "quad_max_rel_dev")):
        metrics[name] = stats.get(key, 0.0)
        if key not in stats:
            absent[name] = "no reference output for this workload and seed"
    for name, key in (("montecarlo.converged_frac", "converged"),
                      ("montecarlo.above_truth_frac", "above_truth")):
        if WORKLOADS[wl].is_campaign:
            metrics[name] = traced[key] / traced["attempted"]
        else:
            metrics[name] = 0.0
            absent[name] = "no trials in this workload"
    return metrics, absent


def _end_to_end(wl: str, seed: int, seconds: float, deadline: float):
    setups = [_worker(["setup"], deadline) for _ in range(SETUP_REPEATS)]
    timed = _worker(["time", "--workload", wl, "--seed", str(seed),
                     "--seconds", repr(seconds)], deadline)
    record = {"setup_samples": setups, "raw_walls": timed["walls"],
              "windows": timed["windows"], "probes": timed["probes"]}
    return end_to_end_metrics(setups, timed), {}, timed, record


def _per_layer(wl: str, seed: int, seconds: float, deadline: float):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{wl}-seed{seed}.json")
    traced = _worker(["trace", "--workload", wl, "--seed", str(seed),
                      "--seconds", repr(seconds), "--spans", spans_path], deadline)
    metrics, absent = per_layer_metrics(wl, traced)
    record = {"untraced_walls": traced["untraced_walls"],
              "traced_wall_s": traced["wall_s"],
              "hooks_found": traced["hooks_found"],
              "hooks_missing": traced["hooks_missing"],
              "n_spans": traced["n_spans"], "spans_file": os.path.relpath(spans_path)}
    return metrics, absent, traced, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="binloc benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a non-negative 64-bit integer")
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if not os.path.isfile(os.path.join("src", "binloc", "cli.py")):
            raise BenchError("no src/binloc/cli.py here: run from the root of a checkout")
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            metrics, absent, result, record = _per_layer(
                args.workload, args.seed, args.seconds, deadline)
        else:
            metrics, absent, result, record = _end_to_end(
                args.workload, args.seed, args.seconds, deadline)
        undeclared = sorted(set(metrics) - {m["name"] for m in declared})
        if undeclared:
            raise BenchError("metrics missing from BENCHMARK.json: "
                             + ", ".join(undeclared))
        emitted = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in declared}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    exit_codes = [c for op in result["exit_codes"] for c in op]
    correct = failed == 0 and attempted > 0 and not any(exit_codes)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "versions": result["versions"], "source": _source_identity(),
        "exit_codes": exit_codes, "failures": result["reasons"],
        "above_truth": result["above_truth"],
        "absent": absent, "metrics": metrics,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# run " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
