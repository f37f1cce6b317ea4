"""Piecewise-linear spike waveforms.

A spike shape is a list of (time, voltage) breakpoints relative to its
trigger. Repeating a time encodes a vertical discontinuity; the later
voltage wins when sampling exactly at that instant, so the waveform is
right-continuous and the second point is the start of the next piece.
"""

from __future__ import annotations

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
            if b < a:
                raise SpecError("breakpoints",
                                f"breakpoint times must be non-decreasing ({a} then {b})")
        for i in range(len(times) - 2):
            if times[i] == times[i + 1] == times[i + 2]:
                raise SpecError("breakpoints", f"time {times[i]} repeated more than twice")
        for t, v in pts:
            if not (abs(v) < float("inf") and v == v):
                raise SpecError("breakpoints", f"non-finite voltage {v} at t={t}")
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

    def scaled(self, factor: float) -> "Waveform":
        """New waveform with every voltage multiplied by factor."""
        return Waveform(tuple((t, factor * v) for t, v in self.breakpoints))


def waveform_from_flat(values) -> Waveform:
    """Build a waveform from a flat [t0, v0, t1, v1, ...] array (config form)."""
    vals = list(values)
    if len(vals) % 2 != 0 or not vals:
        raise SpecError("values",
                        "flat waveform array needs an even, non-zero number of values")
    pairs = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    return Waveform(pairs)
