"""One benchmark process: runs a workload through `binloc.cli.main`.

Modes (run.py starts each in a fresh interpreter):

  setup  time `import binloc.cli`, then the probe of probe.py;
  time   run the workload's operations untraced, back to back with the
         probe after each `binloc` call, for --seconds (at least one
         operation), then check the outputs;
  trace  run the operation untraced, with the hooks of spans.py
         installed, and, within --seconds, untraced again; write the
         spans to --spans and derive the per-layer metrics.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

PROBE_EVERY_S = 2.0     # binloc time between probes in time mode


def _setup() -> dict:
    start = time.perf_counter()
    import binloc.cli  # noqa: F401
    import_s = time.perf_counter() - start
    from probe import probe_s, probe_window
    probe_s()                   # the first run pays one-time costs
    return {"import_s": import_s, "probe_s": probe_window(0.3)}


def _run_call(cli, argv: list[str]) -> tuple[float, str, int]:
    """One `binloc` call: its wall time, output and exit code."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return time.perf_counter() - start, buf.getvalue(), code


def _run_op(cli, argvs: list[list[str]]) -> tuple[float, list[str], list[int]]:
    """One operation: its wall time, each call's output and exit code."""
    texts, codes = [], []
    start = time.perf_counter()
    for argv in argvs:
        _, text, code = _run_call(cli, argv)
        texts.append(text)
        codes.append(code)
    return time.perf_counter() - start, texts, codes


def _check(wl, seed: int, ops: list[list[str]], cli) -> dict:
    """Correctness of every operation's output (not timed)."""
    import checks

    verdict = checks.Verdict()
    refs = [checks.read_reference(p) for p in checks.reference_paths(wl, seed)]
    if wl.is_campaign:
        ref_by_op = {int(r["op"]): r for r in refs[0].rows} if refs[0] else {}
        camps: dict[int, checks.Campaign] = {}
        for texts in ops:
            for k, text in enumerate(texts):
                out = checks.parse_output(text)
                if k not in camps:
                    camps[k] = checks.rebuild_campaign(out.header, 1)
                ref = [ref_by_op[k]] if k in ref_by_op else None
                verdict.merge(checks.check_campaign(out, 1, camps[k], ref))
        # closed form against quadrature at the campaign's own point
        sets = list(wl.calls[0])
        tau = next(s.split("=", 1)[1] for s in sets if s.startswith("tau="))
        argv = ["crb"]
        for item in sets + [f"sweep.start={tau}", f"sweep.stop={tau}"]:
            argv += ["--set", item]
        _, text, _ = _run_call(cli, argv)
        verdict.stats["cf_max_rel_err"] = checks.cf_max_rel_err(
            [checks.parse_output(text)])
    else:
        expected = [len(r.rows) if r is not None else 0 for r in refs]
        for texts in ops:
            verdict.merge(checks.check_crb(
                [checks.parse_output(t) for t in texts], expected, refs))
    return {"attempted": verdict.attempted, "failed": verdict.failed,
            "converged": verdict.converged, "above_truth": verdict.above_truth,
            "reasons": verdict.reasons, "stats": verdict.stats}


def _time(wl, seed: int, seconds: float) -> dict:
    """Operations back to back.  The probe runs before the first call
    and whenever the calls since the last probe add up to PROBE_EVERY_S,
    for a tenth of their time (at least one probe), so that the probes
    sample the machine speed of each call's window; windows[k][i] is
    the index of the probe before call i of operation k."""
    from binloc import cli
    from probe import probe_s, probe_window
    argvs = wl.argvs(seed)
    walls, windows, ops, codes = [], [], [], []
    probe_s()                   # the first run pays one-time costs
    probes = [probe_window(1.0)]
    pending = 0.0
    begin = time.perf_counter()
    while True:
        call_walls, call_windows, texts, rc = [], [], [], []
        for argv in argvs:
            wall, text, code = _run_call(cli, argv)
            call_walls.append(wall)
            call_windows.append(len(probes) - 1)
            texts.append(text)
            rc.append(code)
            pending += wall
            if pending >= PROBE_EVERY_S:
                probes.append(probe_window(pending / 10.0))
                pending = 0.0
        walls.append(call_walls)
        windows.append(call_windows)
        ops.append(texts)
        codes.append(rc)
        # start another operation only if it is likely to end in time
        if time.perf_counter() - begin + sum(call_walls) > seconds:
            break
    if pending:
        probes.append(probe_window(pending / 10.0))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"walls": walls, "windows": windows, "probes": probes,
              "exit_codes": codes, "peak_rss_mb": rss_mb}
    result.update(_check(wl, seed, ops, cli))
    return result


def _trace(wl, seed: int, seconds: float, spans_path: str) -> dict:
    """The operation untraced, then traced, then untraced again if the
    first two took less than `seconds`; the traced wall time minus the
    mean of the untraced ones is the tracing overhead."""
    import spans
    from binloc import cli

    argvs = wl.argvs(seed)
    plain_walls, ops, codes = [], [], []

    def plain() -> None:
        wall, texts, rc = _run_op(cli, argvs)
        plain_walls.append(wall)
        ops.append(texts)
        codes.append(rc)

    begin = time.perf_counter()
    plain()
    hooks = spans.HOOKS + spans.specfun_hooks()
    tracer = spans.Tracer()
    found, missing, restore = tracer.install(hooks)
    try:
        wall, texts, rc = _run_op(cli, argvs)
    finally:
        restore()
    ops.append(texts)
    codes.append(rc)
    if time.perf_counter() - begin < seconds:
        plain()
    found_hooks = tuple(h for h in hooks if h.name in found)
    trials = wl.trials if wl.is_campaign else 0
    metrics, absent = spans.layer_metrics(tracer.spans, found_hooks, trials)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "wall_s": wall,
                   "hooks": {h.name: h.layer for h in found_hooks},
                   "columns": ["name", "start", "end", "parent", "size"],
                   "spans": tracer.spans}, fh)
    result = {"untraced_walls": plain_walls, "wall_s": wall,
              "exit_codes": codes, "metrics": metrics,
              "absent": absent, "hooks_found": found, "hooks_missing": missing,
              "n_spans": len(tracer.spans)}
    result.update(_check(wl, seed, ops, cli))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "time", "trace"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="where trace mode writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = _setup()
    else:
        from workloads import WORKLOADS
        wl = WORKLOADS[args.workload]
        if args.mode == "time":
            result = _time(wl, args.seed, args.seconds)
        else:
            result = _trace(wl, args.seed, args.seconds, args.spans)
    result["versions"] = {"python": sys.version.split()[0]}
    for lib in ("numpy", "scipy"):
        result["versions"][lib] = getattr(sys.modules.get(lib), "__version__", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
