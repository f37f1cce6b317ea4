"""Input encoding: feature vectors to per-channel spike trains.

Supported encodings are per-timestep Bernoulli (poisson approximation) and
deterministic fixed-rate. All emitted spike times sit on the simulation dt
grid; a spike is one unsigned trigger of the input layer's pre waveform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


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
        if any(s < 0 for s in self.steps):
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


def _check_rate_args(r_min, r_max, T, dt):
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 <= r_min <= r_max:
        raise ValueError(f"need 0 <= r_min <= r_max, got {r_min}, {r_max}")
    if T < dt:
        raise ValueError(f"T must be at least dt, got T={T}, dt={dt}")


def _rate(intensity, r_min, r_max):
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity {intensity} outside [0, 1]")
    return r_min + intensity * (r_max - r_min)


def _spike_probability(intensity, r_min, r_max, T, dt) -> float:
    """Per-step spike probability, warning when dt is too coarse for it."""
    _check_rate_args(r_min, r_max, T, dt)
    p = _rate(intensity, r_min, r_max) * dt
    if p > 0.1:
        warnings.warn(
            f"spike probability per step is {p:.3f} > 0.1; "
            "dt is too coarse for this rate", stacklevel=3)
    return p


def fixed_rate_encode(intensity: float, r_min: float, r_max: float, T: float,
                      dt: float) -> SpikeTrain:
    """Deterministic train with period 1/rate, phase 0, times floored to the grid."""
    _check_rate_args(r_min, r_max, T, dt)
    rate = _rate(intensity, r_min, r_max)
    if rate == 0.0:
        return SpikeTrain((), dt)
    n = int(round(T / dt))
    steps = []
    k = 0
    while True:
        t = k / rate
        if t >= T:
            break
        # min() guards division rounding t/dt up to exactly n despite t < T
        step = min(int(t / dt), n - 1)
        if not steps or step > steps[-1]:
            steps.append(step)
        k += 1
    return SpikeTrain(tuple(steps), dt)


@dataclass(frozen=True)
class PoissonEncoder:
    """Per-feature Bernoulli-timestep encoding at a linear intensity-to-rate map."""

    r_min: float
    r_max: float

    def encode(self, features, T: float, dt: float,
               rng: np.random.Generator) -> list[SpikeTrain]:
        """One Bernoulli train per feature at rate r_min + x*(r_max - r_min),
        from one (features, steps) draw: the generator fills it row by row,
        so the trains and the generator's state afterwards are those of one
        T/dt draw per feature in turn."""
        p = [_spike_probability(x, self.r_min, self.r_max, T, dt) for x in features]
        hits = rng.random((len(p), int(round(T / dt)))) < np.array(p)[:, None]
        return [SpikeTrain(tuple(np.flatnonzero(row).tolist()), dt) for row in hits]


@dataclass(frozen=True)
class FixedRateEncoder:
    """Deterministic periodic encoding; the rng argument is accepted and unused."""

    r_min: float
    r_max: float

    def encode(self, features, T: float, dt: float,
               rng: np.random.Generator | None = None) -> list[SpikeTrain]:
        return [fixed_rate_encode(x, self.r_min, self.r_max, T, dt)
                for x in features]


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
