"""Host speed reference for normalising end-to-end times.

On a shared host the same job can take up to twice as long from one minute
to the next, because other tenants take a share of the core. Run-to-run
spread of raw wall time then hides changes of a few tens of percent. The
benchmark therefore times this fixed reference kernel between jobs and
scales each run's end-to-end times by NOMINAL_S / (mean kernel time): a
time is reported as what it would have been on a host where one kernel pass
takes NOMINAL_S. The kernel is benchmark code and never calls the
simulator, so a change to the simulator cannot move it.

The kernel has the shape of the simulator's inner loop: iteration over
(pre, post) index pairs, NumPy scalar reads, an Enum presence test against
a frozenset, dictionary stores and float arithmetic.
"""

from __future__ import annotations

import enum
import statistics
from time import perf_counter

import numpy as np

# mean time of one kernel pass on an uncontended 2.1 GHz Xeon core
NOMINAL_S = 0.040


class _Presence(enum.Enum):
    NONE = 0
    PRE = 1
    POST = 2
    BOTH = 3


class SpeedProbe:
    """Times the reference kernel and keeps every sample of one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._pairs = [(i, j) for i in range(196) for j in range(20)]
        self._pre = rng.random((25, 196)) < 0.1
        self._post = rng.random((25, 20)) < 0.05
        self._g = rng.random((196, 20))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        engaged = frozenset({_Presence.PRE, _Presence.BOTH})
        env = {"V_pre": 0.0, "G": 0.0}
        total = 0.0
        for pre, post in zip(self._pre, self._post):
            for i, j in self._pairs:
                if pre[i]:
                    presence = _Presence.BOTH if post[j] else _Presence.PRE
                else:
                    presence = _Presence.POST if post[j] else _Presence.NONE
                if presence not in engaged:
                    continue
                env["V_pre"] = 0.4
                env["G"] = float(self._g[i, j])
                total += env["G"] * env["V_pre"]
        return total

    def sample(self, passes: int = 5) -> None:
        for _ in range(passes):
            start = perf_counter()
            self._kernel()
            self.samples.append(perf_counter() - start)

    def factor(self) -> float:
        """NOMINAL_S over the mean kernel time: multiply a time by it."""
        return NOMINAL_S / statistics.mean(self.samples)
