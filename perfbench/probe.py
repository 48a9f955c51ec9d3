"""Host speed probe.

On a shared host the speed of a core drifts by 20% and more over minutes,
with other tenants' load.  Around every timed step (an operation, or one
import for ``setup_s``) the benchmark times a fixed piece of work with the
same mix as solgeo's inner loops: interpreted arithmetic, ``math`` calls and
small numpy arrays.  It probes briefly before and after every step and,
from a timer signal, every ``INTERVAL_S`` during it.  Each step's seconds,
less the probe time spent inside it, are multiplied by ``NOMINAL_S /
median probe time`` of its own samples, which gives seconds at one fixed
probe speed.  The probe never calls solgeo, so no change to the package
can move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

# Roughly the probe time on a lightly loaded 2-core x86-64 host with
# Python 3.11 and numpy 2.4, where the scale factor is therefore near 1.
NOMINAL_S = 0.002
# Probes in the block before the first step and after every step.
EDGE_PROBES = 2
# Wall time between probes taken while a step runs.
INTERVAL_S = 0.05

_VEC = np.array([0.3, -1.2, 0.45])
_MAT = np.array([[2.0, 0.3], [0.3, 1.0]])


def probe_once() -> float:
    """Seconds taken by one fixed unit of probe work."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(64):
        x = 0.03 * k
        acc += math.exp(-x) * math.sin(x) + math.sqrt(1.0 + x * x)
        w = np.cross(_VEC, np.array([x, 1.0, -x]))
        acc += float(np.linalg.solve(_MAT, w[:2])[0])
    if not math.isfinite(acc):
        raise ArithmeticError("probe work produced a non-finite value")
    return time.perf_counter() - start


class Sampler:
    """Probes every ``INTERVAL_S`` of wall time while a step runs.

    A ``SIGALRM`` handler runs the probe on the main thread between
    bytecodes, so it samples the host speed of the step's own moments.
    ``spent`` is the probe time to subtract from the step's wall time.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(probe_once())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self) -> float:
        return sum(self.samples)


class Probes:
    """Probe samples for a sequence of timed steps.

    A short block of probes is taken before the first step and after every
    step; samples taken during a step (by a ``Sampler``) are kept with it.
    Step ``i`` is scaled by the median of its own samples and the blocks on
    both sides of it, so each step is paired with the host speed of its
    own moment.  The blocks are short so that a long step is scaled mostly
    by its own samples: the speed often changes within a second.
    """

    def __init__(self, record: Optional[Dict] = None) -> None:
        """Start a new series, or wrap the record a worker wrote."""
        if record is None:
            record = {"blocks": [self._block()], "during": []}
        self.blocks: List[List[float]] = record["blocks"]
        self.during: List[List[float]] = record["during"]

    @staticmethod
    def _block() -> List[float]:
        return [probe_once() for _ in range(EDGE_PROBES)]

    def record(self, during: List[float]) -> None:
        """Keep a finished step's own samples and probe after it."""
        self.during.append(during)
        self.blocks.append(self._block())

    def as_record(self) -> Dict:
        return {"blocks": self.blocks, "during": self.during}

    def scaled(self, times: List[float]) -> List[float]:
        """Each step's seconds at the nominal probe speed."""
        if not len(times) == len(self.during) == len(self.blocks) - 1:
            raise ValueError("probe samples do not match the steps")
        return [t * NOMINAL_S / statistics.median(
                    self.blocks[i] + self.during[i] + self.blocks[i + 1])
                for i, t in enumerate(times)]

    def count(self) -> int:
        return sum(map(len, self.blocks)) + sum(map(len, self.during))
