"""A fixed reference task timed next to the workload, so that reported
times are at a constant machine speed.

The benchmark machine is shared and its speed moves in phases that last
minutes: the same crb-sweep operation took a median 1.6 s in one run
and 2.8 s in another ten minutes later, with CPU time tracking wall time
and no steal or run-queue delay.  The probe does the two kinds of work
binloc does, scalar Python series under `scipy.integrate.quad` callbacks
and loops over 600-element numpy arrays, and never imports binloc, so no
change to the package moves it.  A time t measured next to a probe that
took p seconds is reported as t * PROBE_REF_S / p: seconds at the speed
where the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

PROBE_REF_S = 0.08   # about the probe's time on this machine in a fast phase


def _series(u: float) -> float:
    total, term = 0.0, 1.0
    for k in range(1, 30):
        term *= u / k
        total += term * math.exp(-u) / (1.0 + k)
    return math.log1p(total) * math.exp(-0.1 * u)


def probe_s() -> float:
    """Wall time of one run of the reference task."""
    start = time.perf_counter()
    for j in range(60):
        integrate.quad(_series, 0.0, 40.0 + j % 8, epsrel=1e-10, limit=200)
    x = np.linspace(0.05, 8.0, 600)
    for _ in range(30):
        pois = np.exp(-x)
        cum = pois.copy()
        q = pois.copy()
        for k in range(1, 200):
            pois *= x / k
            cum += pois
            q += pois * cum
    return time.perf_counter() - start


def probe_window(seconds: float) -> float:
    """Mean probe time over back-to-back probes lasting at least
    `seconds` (at least one probe)."""
    times = [probe_s()]
    while sum(times) < seconds:
        times.append(probe_s())
    return sum(times) / len(times)


def at_reference_speed(seconds: float, probe: float) -> float:
    return seconds * PROBE_REF_S / probe
