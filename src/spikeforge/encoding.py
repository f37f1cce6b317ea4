"""Input encoding: feature vectors to per-channel spike trains.

Supported encodings are per-timestep Bernoulli (poisson approximation) and
deterministic fixed-rate. All emitted spike times sit on the simulation dt
grid; a spike is one unsigned trigger of the input layer's pre waveform.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from spikeforge.errors import SpecError
from spikeforge.waveform import grid_steps, num_steps


@dataclass(frozen=True)
class SpikeTrain:
    """Grid-aligned spike times for one input channel.

    steps are dt multiples; spikes are unsigned, each one trigger of the
    input layer's pre waveform.
    """

    steps: tuple[int, ...]
    dt: float

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("spike steps must be strictly increasing")
        # increasing, so the first step is the least
        if self.steps and self.steps[0] < 0:
            raise ValueError("spike steps must be non-negative")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Sample:
    """One dataset item: intensities in [0, 1] plus an optional class label."""

    features: tuple[float, ...]
    label: int | None = None

    def __post_init__(self):
        for x in self.features:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"feature {x} outside [0, 1]")


@dataclass(frozen=True)
class _RateMap:
    """The encoders' linear intensity-to-rate map: an intensity x in [0, 1]
    spikes at r_min + x * (r_max - r_min) Hz."""

    r_min: float = 0.0
    r_max: float = 60.0

    def __post_init__(self):
        if not np.isfinite(self.r_max):
            raise SpecError("r_max", f"r_max must be finite, got {self.r_max}")
        if not 0 <= self.r_min <= self.r_max:
            raise SpecError(
                "r_min", f"need 0 <= r_min <= r_max, got {self.r_min}, {self.r_max}")

    def _rates(self, features, T: float, dt: float) -> tuple[int, list[float]]:
        """T in steps, and each feature's rate, once dt, T and the intensities are checked."""
        n = num_steps(T, dt)
        bad = next((x for x in features if not 0.0 <= x <= 1.0), None)
        if bad is not None:
            raise ValueError(f"intensity {bad} outside [0, 1]")
        return n, [self.r_min + x * (self.r_max - self.r_min) for x in features]


@dataclass(frozen=True)
class PoissonEncoder(_RateMap):
    """Per-feature Bernoulli-timestep encoding."""

    def encode(self, features, T: float, dt: float,
               rng: np.random.Generator) -> list[SpikeTrain]:
        """One Bernoulli train per feature, with spike probability rate * dt
        per step, from one (features, steps) draw: the generator fills it row
        by row, so the trains and the generator's state afterwards are those
        of one T/dt draw per feature in turn. Warns once when the largest
        probability is above 0.1, where dt is too coarse for the rate."""
        n, rates = self._rates(features, T, dt)
        p = [rate * dt for rate in rates]
        top = max(p, default=0.0)
        if top > 0.1:
            warnings.warn(f"spike probability per step is {top:.3f} > 0.1; "
                          "dt is too coarse for this rate", stacklevel=2)
        hits = rng.random((len(p), n)) < np.array(p)[:, None]
        # row-major, so each row's steps are one run, ascending
        steps = np.nonzero(hits)[1].tolist()
        counts = hits.sum(axis=1)
        empty = SpikeTrain((), dt)  # frozen, so every silent channel can share it
        return [SpikeTrain(tuple(steps[b - c:b]), dt) if c else empty
                for c, b in zip(counts.tolist(), np.cumsum(counts).tolist())]


@dataclass(frozen=True)
class FixedRateEncoder(_RateMap):
    """Deterministic periodic encoding; the rng argument is accepted and unused."""

    def encode(self, features, T: float, dt: float,
               rng: np.random.Generator | None = None) -> list[SpikeTrain]:
        """One train per feature with period 1/rate, phase 0, each time k/rate floored to
        the grid; the first past the horizon (inf, if k/rate overflows) ends the train."""
        n, rates = self._rates(features, T, dt)
        trains = []
        for rate in rates:
            times = (grid_steps(k / rate, dt) for k in itertools.count()) if rate else ()
            # times never fall, so a step that several share is kept once, in order
            steps = dict.fromkeys(int(q) for q in itertools.takewhile(lambda q: q < n, times))
            trains.append(SpikeTrain(tuple(steps), dt))
        return trains
