"""Piecewise-linear spike waveforms, and the step grid's rules.

A spike shape is a list of (time, voltage) breakpoints relative to its
trigger. Repeating a time encodes a vertical discontinuity; the later
voltage wins when sampling exactly at that instant, so the waveform is
right-continuous and the second point is the start of the next piece.
The grid rules are the only conversion of seconds to steps: horizons
(`num_steps`), waveforms and refractory windows (`support_steps`) and
encoded spike times (`grid_steps`) all take a ratio within 1e-9 of an
integer as that integer. However a waveform is given, it is delivered
point-sampled at the grid points i * dt alone (`grid_samples`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from spikeforge.errors import SpecError


@dataclass(frozen=True)
class Waveform:
    """Immutable voltage-vs-time spike shape.

    breakpoints: ordered (seconds, volts) pairs. Times must be
    non-decreasing, start at 0, and no time may appear more than twice.
    """

    breakpoints: tuple[tuple[float, float], ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _volts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.breakpoints)
        if not pts:
            raise SpecError("breakpoints", "waveform needs at least one breakpoint")
        if pts[0][0] != 0.0:
            raise SpecError("breakpoints", f"first breakpoint time must be 0, got {pts[0][0]}")
        times = [t for t, _ in pts]
        for a, b in zip(times, times[1:]):
            if not b >= a:
                raise SpecError("breakpoints",
                                f"breakpoint times must be non-decreasing ({a} then {b})")
        for i in range(len(times) - 2):
            if times[i] == times[i + 1] == times[i + 2]:
                raise SpecError("breakpoints", f"time {times[i]} repeated more than twice")
        for t, v in pts:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise SpecError("breakpoints", f"non-finite breakpoint ({t}, {v})")
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "_times", tuple(times))
        object.__setattr__(self, "_volts", tuple(v for _, v in pts))

    @property
    def duration(self) -> float:
        """Time of the last breakpoint."""
        return self._times[-1]

    def sample(self, tau: float) -> float:
        """Voltage at time tau after the trigger.

        Zero outside [0, duration]; at tau == duration the last voltage;
        at a duplicated time the later (right) voltage.
        """
        times = self._times
        volts = self._volts
        if tau < 0.0 or tau > times[-1]:
            return 0.0
        # index of last breakpoint with time <= tau; for a duplicated time
        # this lands on the second entry, giving the right-side value
        i = bisect_right(times, tau) - 1
        if i == len(times) - 1 or times[i] == tau:
            return volts[i]
        alpha = (tau - times[i]) / (times[i + 1] - times[i])
        return (1.0 - alpha) * volts[i] + alpha * volts[i + 1]


def waveform_from_flat(values) -> Waveform:
    """Build a waveform from a flat [t0, v0, t1, v1, ...] array (config form)."""
    vals = list(values)
    if len(vals) % 2 != 0 or not vals:
        raise SpecError("values",
                        "flat waveform array needs an even, non-zero number of values")
    pairs = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    return Waveform(pairs)


def grid_steps(t: float, dt: float) -> float:
    """t/dt in steps, snapped to the integer it lies within 1e-9 of; inf stays inf."""
    q = t / dt
    r = round(q) if math.isfinite(q) else q
    return float(r) if abs(q - r) < 1e-9 else q


def num_steps(T: float, dt: float) -> int:
    """Total timesteps N = T/dt, at least 1; T must sit on the dt grid."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n = grid_steps(T, dt)
    if not (n >= 1 and n.is_integer()):
        raise ValueError(f"T={T} is not a positive multiple of dt={dt} (T/dt={T / dt})")
    return int(n)


def support_steps(duration: float, dt: float) -> int:
    """Steps a waveform or refractory window lasts: ceil(duration/dt), half-open."""
    return math.ceil(grid_steps(duration, dt))


def grid_samples(wf: Waveform, dt: float, what: str = "waveform") -> tuple[float, ...]:
    """What the engine delivers of wf: its values at the grid points i * dt alone, one per step
    of its support. SpecError, its text starting with `what`, for a waveform the grid never
    delivers: one that lasts 0 steps, or is 0 V at every step while a breakpoint is not."""
    samples = tuple(wf.sample(i * dt) for i in range(support_steps(wf.duration, dt)))
    if not samples:
        raise SpecError(None, f"{what} lasts 0 steps at dt={dt}, so it would never be delivered")
    if not any(samples) and any(wf._volts):
        raise SpecError(None, f"{what} is 0 V at every step of dt={dt}, so its nonzero "
                        "breakpoints would never be delivered")
    return samples
