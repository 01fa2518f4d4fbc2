"""Host-speed probe: fixed reference work, timed between iterations.

On a shared host the same work runs at speeds that differ by up to
2.5x.  The speed switches between a fast and a slow level every few
tens of milliseconds, and the share of slow time drifts over minutes.
CPU time tracks wall time through it, so it is contention for the
host's hardware, not waiting.  A 40 s run's own figures then move with
the slow share it caught, by 25-45% between runs of the same code.

The probe times a fixed piece of work that does not touch tagflow, made
of the three kinds of work the workloads do: interpreted Python, numpy
calls on short arrays (per-step overhead, as in ``roundabout``) and
numpy calls on long arrays (as in ``diamond-chain``).  The runner calls
it before the first iteration and after every iteration, so each
iteration lies between two probes.  Over a whole run, the probes'
summed time divided by their summed reference time estimates how much
slower the host ran than the reference, and ``run.py`` divides the
timings by it.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near what one probe() takes on the host this benchmark
# was built on (2-vCPU Sapphire Rapids KVM guest, Python 3.11, numpy
# 2.4), where runs read mean host-speed factors of 0.7-1.2.  A
# normalised timing reads in seconds at this reference speed.
REFERENCE_S = 0.5

_SHORT = np.linspace(0.0, 1.0, 400)
_LONG = np.linspace(0.0, 1.0, 50_000)


def _python_work() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(540_000):
        acc += (i * i) % 7 * 0.5
        table[i & 1023] = acc
    return acc + len(table)


def _numpy_work(x: np.ndarray, steps: int) -> float:
    x = x.copy()
    for _ in range(steps):
        flux = np.minimum(x * (1.0 - x), 0.25)
        x += 0.001 * (np.roll(flux, 1) - flux)
    return float(x.sum())


def probe() -> float:
    """Wall time of the fixed reference work, in seconds."""
    start = time.perf_counter()
    _python_work()
    _numpy_work(_SHORT, 9_000)
    _numpy_work(_LONG, 540)
    return time.perf_counter() - start
