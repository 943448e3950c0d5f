"""Machine-speed probe: converts measured durations to reference seconds.

On a shared virtual machine the speed drifts by 10-25% over minutes and by
up to 2x at times, which swamps run-to-run differences in pclopt.
Between ops the benchmark times a fixed task that does not use pclopt: a
small HiGHS LP, logaddexp over 100k floats, dense mat-vecs, a JSON round
trip and an interpreter loop, the same kinds of work the workloads do.
Each op's duration is multiplied by (REFERENCE_S / p) ** ELASTICITY, where
p is the median probe time of the samples around it.  The result reads as
the seconds the op would take on a machine where the probe takes
REFERENCE_S.  The probe's code is part
of the benchmark, so a change to pclopt cannot move it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from scipy.optimize import linprog

# probe time on this benchmark's reference machine speed
REFERENCE_S = 0.012
# the packages pclopt imports at start-up, and the seconds their import
# takes on the reference machine
DEPENDENCIES = "numpy, scipy.optimize, scipy.sparse"
REFERENCE_IMPORT_S = 0.5
# an op is scaled by the probe samples from WINDOW before it to WINDOW after it
WINDOW = 3
# the probe slows down more than the ops do: across runs on the reference
# machine, the slope of log op time on log probe time was 0.35-0.66
ELASTICITY = 0.5


class SpeedProbe:
    """A fixed task whose duration samples the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vector = rng.random(100_000)
        self._matrix = rng.random((400, 400))
        self._x = rng.random(400)
        self._cost = -rng.random(30)
        self._rows = rng.random((20, 30))
        self._document = rng.random(5000).tolist()

    def _once(self) -> float:
        t0 = time.perf_counter()
        counts = {}
        for i in range(5000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        linprog(self._cost, A_ub=self._rows, b_ub=np.full(20, 5.0), bounds=(0, 1),
                method="highs")
        np.logaddexp(self._vector, -self._vector).sum()
        for _ in range(5):
            self._matrix @ self._x
        json.loads(json.dumps(self._document))
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of two probe runs, in seconds."""
        return statistics.median([self._once(), self._once()])


def to_reference(durations: list[float], probes: list[float]) -> list[float]:
    """Scale each duration to reference seconds.

    ``probes[i]`` was sampled just before ``durations[i]``; ``probes`` may
    hold one more sample, taken after the last duration.
    """
    scaled = []
    for i, duration in enumerate(durations):
        around = probes[max(0, i - WINDOW + 1): i + WINDOW + 1]
        scaled.append(duration * (REFERENCE_S / statistics.median(around)) ** ELASTICITY)
    return scaled


def import_to_reference(pairs: list[tuple[float, float]]) -> float:
    """The pclopt import time in reference seconds.

    Each pair holds the seconds of importing pclopt and of importing
    DEPENDENCIES, each in a fresh interpreter, timed back to back.  Import
    work (reading and running module code, loading extension modules) does
    not track the probe, so the import of pclopt's own dependencies is its
    speed gauge: the median ratio is scaled by REFERENCE_IMPORT_S.
    """
    return REFERENCE_IMPORT_S * statistics.median(own / deps for own, deps in pairs)
