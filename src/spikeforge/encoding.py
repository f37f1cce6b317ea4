"""Input encoding: feature vectors or AER event files to per-channel spike trains.

Supported encodings are per-timestep Bernoulli (poisson approximation),
deterministic fixed-rate, and address-event files from neuromorphic
sensors. All emitted spike times sit on the simulation dt grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SpikeTrain:
    """Grid-aligned spike times for one input channel.

    steps are dt multiples; signs is +1/-1 per spike (all +1 for ordinary
    trains, -1 appears only for signed AER polarity handling).
    """

    steps: tuple[int, ...]
    dt: float
    signs: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("spike steps must be strictly increasing")
        if any(s < 0 for s in self.steps):
            raise ValueError("spike steps must be non-negative")
        if not self.signs:
            object.__setattr__(self, "signs", (1,) * len(self.steps))
        elif len(self.signs) != len(self.steps):
            raise ValueError("signs must align with steps")

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
class AEREvent:
    t: float
    address: int
    polarity: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"event time must be >= 0, got {self.t}")
        if self.polarity not in (1, -1):
            raise ValueError(f"polarity must be 1 or -1, got {self.polarity}")


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


def poisson_encode(intensity: float, r_min: float, r_max: float, T: float,
                   dt: float, rng: np.random.Generator) -> SpikeTrain:
    """Bernoulli-per-timestep spike train at rate r_min + intensity*(r_max - r_min)."""
    p = _spike_probability(intensity, r_min, r_max, T, dt)
    hits = np.flatnonzero(rng.random(int(round(T / dt))) < p)
    return SpikeTrain(tuple(hits.tolist()), dt)


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


def load_aer(path, num_channels: int | None = None) -> dict[int, list[AEREvent]]:
    """Parse an AER text file into per-channel, time-sorted event lists.

    Format: one `time_seconds,address,polarity` triple per line, '#' starts
    a comment line. Malformed lines report their line number.
    """
    by_channel: dict[int, list[AEREvent]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected time,address,polarity, got {line!r}")
            try:
                t = float(parts[0])
                address = int(parts[1])
                polarity = int(parts[2])
                event = AEREvent(t, address, polarity)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            if address < 0 or (num_channels is not None and address >= num_channels):
                raise ValueError(
                    f"{path}:{lineno}: address {address} out of range "
                    f"[0, {num_channels})")
            by_channel.setdefault(address, []).append(event)
    for events in by_channel.values():
        events.sort(key=lambda e: e.t)
    return by_channel


def aer_to_trains(by_channel: dict[int, list[AEREvent]], num_channels: int,
                  T: float, dt: float, polarity_mode: str = "separate",
                  ) -> list[SpikeTrain]:
    """Snap AER events to the dt grid and lay them out as input trains.

    polarity_mode "separate" doubles the channel count (address a maps to
    train 2a for +1 and 2a+1 for -1); "signed" keeps one train per address
    with the polarity carried as the spike sign. Events at or beyond T are
    dropped; the first event wins when several snap to one grid step.
    """
    if polarity_mode not in ("separate", "signed"):
        raise ValueError(f"polarity_mode must be 'separate' or 'signed', got {polarity_mode!r}")
    n = int(round(T / dt))
    n_trains = 2 * num_channels if polarity_mode == "separate" else num_channels
    hits: list[dict[int, int]] = [dict() for _ in range(n_trains)]
    for address, events in by_channel.items():
        if address >= num_channels:
            raise ValueError(f"address {address} out of range [0, {num_channels})")
        for e in events:
            step = int(round(e.t / dt))
            if step >= n:
                continue
            if polarity_mode == "separate":
                idx = 2 * address + (0 if e.polarity > 0 else 1)
                hits[idx].setdefault(step, 1)
            else:
                hits[address].setdefault(step, e.polarity)
    trains = []
    for chan in hits:
        steps = tuple(sorted(chan))
        trains.append(SpikeTrain(steps, dt, tuple(chan[s] for s in steps)))
    return trains


@dataclass(frozen=True)
class PoissonEncoder:
    """Per-feature Bernoulli-timestep encoding at a linear intensity-to-rate map."""

    r_min: float
    r_max: float

    def encode(self, features, T: float, dt: float,
               rng: np.random.Generator) -> list[SpikeTrain]:
        """One poisson_encode per feature, from one (features, steps) draw:
        the generator fills it row by row, so the trains and the generator's
        state afterwards are those of one draw per feature in turn."""
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
