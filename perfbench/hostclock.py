"""Host time scaled to a fixed host speed.

The benchmark runs on a shared host whose speed changes by up to 1.6x
in spells of seconds to minutes, with no steal time: the CPU itself runs
slower while other tenants load it, so process CPU time slows with wall
time and a longer run does not average the spells away. Between its
timed sections, a run therefore times a short burst of a fixed
calibration kernel (interpreter work and small numpy operations, like
the simulator's). The run's times are multiplied by ``CAL_REF_S`` over
the mean of the kernel's times in that run: the time they would have
taken on a host where the kernel takes ``CAL_REF_S``. The kernel never
touches ``repro`` and runs outside every timed section, so a change to
the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np

#: The kernel's time on the reference host, a 2-vCPU x86-64 VM at its
#: fastest. It only sets the scale.
CAL_REF_S = 0.0016
#: Kernel runs per calibration. Their mean time counts: the fastest
#: would pick the moments the host is least loaded, which the timed
#: work does not.
CAL_RUNS = 3

_ARRAY = np.linspace(0.0, 1.0, 4096)


def kernel() -> float:
    """Fixed work: a dictionary-heavy Python loop and array updates."""
    acc = 0.0
    table = {}
    for i in range(6000):
        x = (i * 2654435761) % 1000003
        table[x & 63] = x * 0.5
        acc += table.get(i & 63, 1.0) ** 0.5
    v = _ARRAY
    for _ in range(80):
        v = np.minimum(v * 1.0001 + 0.001, 2.0)
    return acc + float(v.sum())


def calibrate() -> float:
    """The kernel's time now: the mean of ``CAL_RUNS`` runs."""
    t0 = perf_counter()
    for _ in range(CAL_RUNS):
        kernel()
    return (perf_counter() - t0) / CAL_RUNS


class HostClock:
    """Samples the host's speed between the timed sections of a run.

    The run's timings are scaled by one factor, from the mean of every
    sample: calibrations are spread through the run as evenly as its
    timed work, so their mean tracks the run's average speed while the
    noise of a single millisecond-long calibration averages out.
    """

    def __init__(self) -> None:
        self.cals: List[float] = []

    def sample(self) -> None:
        self.cals.append(calibrate())

    def scale(self) -> float:
        """Reference-host seconds per second of this run."""
        return CAL_REF_S / statistics.fmean(self.cals)
