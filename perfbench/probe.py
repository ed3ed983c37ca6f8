"""Machine-speed probe: a fixed piece of work that does not touch hypodecay.

On a shared host the speed of the same computation drifts by tens of percent
over minutes. Timing this probe next to the workload's operations measures
that drift, so a run can report pass times rescaled to a machine on which the
probe takes PROBE_NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe time that rescaled pass times refer to: about its median on the
#: 2-core machine of the README's reference figures
PROBE_NOMINAL_S = 0.045


class Probe:
    """Small LAPACK calls, vectorized ufuncs and interpreted arithmetic, the
    three kinds of work hypodecay's layers do."""

    def __init__(self):
        a = np.random.default_rng(0).normal(size=(400, 8, 8))
        self._mats = a @ a.transpose(0, 2, 1)
        self._grid = np.linspace(0.0, 50.0, 50_000)
        self()

    def __call__(self) -> float:
        """Run the fixed work once; returns its wall time (s)."""
        start = time.perf_counter()
        for m in self._mats:
            np.linalg.eigvalsh(m)
        for k in range(24):
            np.max(np.exp(-0.1 * self._grid) * np.cos(k * self._grid))
        acc = 0
        for i in range(200_000):
            acc += i % 7
        return time.perf_counter() - start


def slowdown(samples) -> float:
    """How much slower than nominal the machine ran while these were taken."""
    return statistics.median(samples) / PROBE_NOMINAL_S
