"""Run the benchmark over several seeds and summarize each metric as a
median, quartiles and spread ((Q3 - Q1) / median).

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/out/sweep.json

Runs are sequential, each a separate `run.py` process, from the root of
a checkout.  Quartiles are `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(wl, seed, json.dumps(runs[-1]), flush=True)
        names = runs[0]["metrics"]
        summary["workloads"][wl] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {n: dict(summarize([r["metrics"][n]["value"] for r in runs]),
                                unit=names[n]["unit"]) for n in names},
        }
        for n, s in summary["workloads"][wl]["metrics"].items():
            print(f"  {wl:17s} {n:36s} median {s['median']:.6g} spread {s['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
