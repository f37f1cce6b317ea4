"""Input encoding: feature vectors to per-channel spike trains.

Supported encodings are per-timestep Bernoulli (poisson approximation) and
deterministic fixed-rate. All emitted spike times sit on the simulation dt
grid; a spike is one unsigned trigger of the input layer's pre waveform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from spikeforge.errors import SpecError


@dataclass(frozen=True)
class SpikeTrain:
    """Grid-aligned spike times for one input channel.

    steps are dt multiples; spikes are unsigned, each one trigger of the
    input layer's pre waveform.
    """

    steps: tuple[int, ...]
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("spike steps must be strictly increasing")
        # increasing, so the first step is the least
        if self.steps and self.steps[0] < 0:
            raise ValueError("spike steps must be non-negative")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(k * self.dt for k in self.steps)

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

    r_min: float
    r_max: float

    def __post_init__(self):
        if not 0 <= self.r_min <= self.r_max:
            raise SpecError(
                "r_min", f"need 0 <= r_min <= r_max, got {self.r_min}, {self.r_max}")

    def _rates(self, features, T: float, dt: float) -> list[float]:
        """Each feature's rate, once T, dt and the intensities are checked."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if T < dt:
            raise ValueError(f"T must be at least dt, got T={T}, dt={dt}")
        bad = next((x for x in features if not 0.0 <= x <= 1.0), None)
        if bad is not None:
            raise ValueError(f"intensity {bad} outside [0, 1]")
        return [self.r_min + x * (self.r_max - self.r_min) for x in features]


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
        p = [rate * dt for rate in self._rates(features, T, dt)]
        top = max(p, default=0.0)
        if top > 0.1:
            warnings.warn(f"spike probability per step is {top:.3f} > 0.1; "
                          "dt is too coarse for this rate", stacklevel=2)
        hits = rng.random((len(p), int(round(T / dt)))) < np.array(p)[:, None]
        # row-major, so each row's steps are one run, ascending
        steps = np.nonzero(hits)[1].tolist()
        ends = np.cumsum(hits.sum(axis=1)).tolist()
        return [SpikeTrain(tuple(steps[a:b]), dt) for a, b in zip([0] + ends, ends)]


@dataclass(frozen=True)
class FixedRateEncoder(_RateMap):
    """Deterministic periodic encoding; the rng argument is accepted and unused."""

    def encode(self, features, T: float, dt: float,
               rng: np.random.Generator | None = None) -> list[SpikeTrain]:
        """One train per feature with period 1/rate, phase 0, times floored
        to the grid."""
        n = int(round(T / dt))
        trains = []
        for rate in self._rates(features, T, dt):
            steps: list[int] = []
            k = 0
            while rate and k / rate < T:
                # min() guards division rounding k/rate/dt up to exactly n despite k/rate < T
                step = min(int(k / rate / dt), n - 1)
                if not steps or step > steps[-1]:
                    steps.append(step)
                k += 1
            trains.append(SpikeTrain(tuple(steps), dt))
        return trains


def load_dataset(path) -> list[Sample]:
    """Read a CSV dataset: feature columns in [0, 1], last column integer label."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: need at least one feature and a label")
            try:
                features = tuple(float(x) for x in parts[:-1])
                label = int(parts[-1])
                samples.append(Sample(features, label))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    return samples
