"""Write the reference outputs the benchmark's correctness checks compare
against: the crb-sweep rows, and each campaign's trials at the default
and the held-out seed.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Regenerate only when a change is meant to move these numbers, and state
the largest deviation it causes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from binloc import cli

from checks import REFERENCE_DIR, parse_output, reference_paths
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, trial_seed


def _call(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"binloc {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _campaign_reference(wl, seed: int) -> str:
    """One row per one-trial call: its index, its master seed and its
    trial."""
    lines = []
    for k, argv in enumerate(wl.argvs(seed)):
        out = parse_output(_call(argv))
        if k == 0:
            lines += [f"# {key}={value}" for key, value in out.header.items()
                      if key not in ("seed", "trials")]
            lines.append("# columns: " + ",".join(["op", "master_seed"] + out.columns))
        [row] = out.rows
        lines.append(",".join([str(k), str(trial_seed(seed, k))]
                              + [row[c] for c in out.columns]))
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(path, file=sys.stderr)


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for wl in WORKLOADS.values():
        if wl.is_campaign:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                [path] = reference_paths(wl, seed)
                _write(path, _campaign_reference(wl, seed))
        else:
            for argv, path in zip(wl.argvs(DEFAULT_SEED),
                                  reference_paths(wl, DEFAULT_SEED)):
                _write(path, _call(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
