"""Neuron dynamics and nanodevice-neuron calibration.

Neurons integrate total synaptic current with explicit Euler at the global
timestep, fire on a threshold crossing and reset. The engine then schedules
the neuron's configured spike shapes: post1 back to the incoming synapses,
post2 forward as the next layer's pre-spike (and as V_post2 to its own
incoming synapses, on every layer), and an optional inhibitory spike toward
peers.
The leak constant and threshold can be recovered from measured
firing-frequency-vs-pulse-width device data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spikeforge import expr
from spikeforge.errors import SpecError
from spikeforge.waveform import Waveform, support_steps

# the names state_eqs and power_expr may read
NEURON_VOCABULARY = frozenset({"V", "I", "dt", "tau", "thres", "r_mem"})


@dataclass(frozen=True)
class SpikeWaveforms:
    """The spike shapes one neuron type emits (and accepts, for layer 0)."""

    pre: Waveform | None = None
    post1: Waveform | None = None
    post2: Waveform | None = None
    inhib: Waveform | None = None


@dataclass(frozen=True)
class NeuronModel:
    """Leaky integrate-and-fire parameters plus device-specific hooks.

    state_eqs, when given, replaces the default leak equation with a user
    dV/dt expression over {V, I, dt, tau, thres, r_mem}; power_expr
    accumulates dynamic energy with the same vocabulary.
    """

    tau: float
    thres: float
    v_reset: float = 0.0
    t_refrac: float = 0.0
    r_mem: float = 1.0
    state_eqs: expr.Expression | None = None
    power_expr: expr.Expression | None = None
    waveforms: SpikeWaveforms = SpikeWaveforms()

    def __post_init__(self):
        if not self.tau > 0:
            raise SpecError("tau", f"tau must be positive, got {self.tau}")
        if not self.thres > self.v_reset:
            raise SpecError(
                "thres", f"thres must exceed v_reset, got {self.thres} <= {self.v_reset}")
        if not self.t_refrac >= 0:
            raise SpecError("t_refrac", f"t_refrac must be >= 0, got {self.t_refrac}")
        for key in ("v_reset", "r_mem", "t_refrac"):
            if not math.isfinite(getattr(self, key)):
                raise SpecError(key, f"{key} must be finite, got {getattr(self, key)}")
        expr.check_names("state_eqs", self.state_eqs, NEURON_VOCABULARY)
        expr.check_names("power_expr", self.power_expr, NEURON_VOCABULARY)


@dataclass
class NeuronState:
    """Per-neuron mutable state owned by the simulation engine."""

    v: float = 0.0
    refractory_until: int = 0  # the first step the membrane integrates again
    spike_times: list[float] = field(default_factory=list)
    energy: float = 0.0


def integrate(model: NeuronModel, state: NeuronState, current: float,
              step: int, dt: float) -> None:
    """One Euler step of the membrane equation at a step index.

    Inside the refractory window the membrane is pinned at v_reset. Energy
    accumulates as dt * power_expr evaluated on the start-of-step state.
    """
    if model.power_expr is not None or model.state_eqs is not None:
        # one env serves both expressions: each reads the start-of-step state
        env = {"V": state.v, "I": current, "dt": dt,
               "tau": model.tau, "thres": model.thres, "r_mem": model.r_mem}
    if model.power_expr is not None:
        state.energy += dt * expr.evaluate(model.power_expr, env)
    if step < state.refractory_until:
        state.v = model.v_reset
        return
    if model.state_eqs is None:
        dv = (model.r_mem * current - state.v) / model.tau
    else:
        dv = expr.evaluate(model.state_eqs, env)
    v = state.v + dt * dv
    if not math.isfinite(v):
        raise ValueError(f"membrane potential diverged to {v} at t={step * dt}")
    state.v = v


def fire_check(model: NeuronModel, state: NeuronState, step: int, dt: float) -> bool:
    """Threshold test after integration; fires at V >= thres.

    On a spike the membrane resets, step * dt is logged and the membrane is
    pinned before step + ceil(t_refrac/dt); the caller schedules the waveforms.
    """
    if state.v < model.thres:
        return False
    state.spike_times.append(step * dt)
    state.v = model.v_reset
    state.refractory_until = step + support_steps(model.t_refrac, dt)
    return True


def firing_frequency(width: float, tau: float, thres: float,
                     pulse_amplitude: float, pulse_rate: float) -> float:
    """Forward model: steady firing rate for pulses of a given width.

    Pulses of amplitude A (state-units per second) and width w arriving at
    pulse_rate give an average drive A*w*pulse_rate; a leaky integrator
    under that drive fires periodically once the drive can reach threshold.
    """
    drive = pulse_rate * pulse_amplitude * width
    if drive <= 0:
        return 0.0
    if math.isinf(tau):
        return drive / thres
    x = tau * drive
    if x <= thres:
        return 0.0
    return 1.0 / (tau * math.log(x / (x - thres)))


@dataclass(frozen=True)
class CalibrationResult:
    tau: float
    thres: float
    residual: float  # RMS frequency error of the returned fit


def calibrate_from_frequency(data, pulse_amplitude: float,
                             pulse_rate: float = 1.0) -> CalibrationResult:
    """Recover (tau, thres) from measured (pulse_width, frequency) pairs.

    In the linear regime the rate is pulse_rate*pulse_amplitude*w/thres;
    the leak constant comes from the sub-linear roll-off, so it is only
    fitted when at least four points are available (tau is reported as
    infinity otherwise, i.e. a pure integrate-and-fire).
    """
    pts = sorted((float(w), float(f)) for w, f in data)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 calibration points, got {len(pts)}")
    widths = np.array([w for w, _ in pts])
    freqs = np.array([f for _, f in pts])
    if np.any(widths <= 0):
        raise ValueError("pulse widths must be positive")
    if widths[0] == widths[-1]:
        raise ValueError("degenerate calibration data: all pulse widths equal")
    if np.all(freqs == 0):
        raise ValueError("device never fires: all measured frequencies are zero")
    if np.any(freqs <= 0):
        raise ValueError("measured frequencies must be positive")
    if np.any(np.diff(freqs) < 0):
        raise ValueError("frequency must not decrease with pulse width")

    scale = pulse_rate * pulse_amplitude
    slope = float(np.dot(widths, freqs) / np.dot(widths, widths))
    thres0 = scale / slope

    def rms(tau, thres):
        pred = np.array([firing_frequency(w, tau, thres, pulse_amplitude, pulse_rate)
                         for w in widths])
        return float(np.sqrt(np.mean((pred - freqs) ** 2)))

    if len(pts) < 4:
        return CalibrationResult(math.inf, thres0, rms(math.inf, thres0))

    # affine regression: f ~ (scale/thres) * w - 1/(2 tau) in the rolled-off regime
    a, b = np.polyfit(widths, freqs, 1)
    thres_init = scale / a if a > 0 else thres0
    tau_init = -1.0 / (2.0 * b) if b < 0 else 10.0 / max(freqs)

    def residuals(params):
        tau, thres = np.exp(params)
        return np.array([
            firing_frequency(w, tau, thres, pulse_amplitude, pulse_rate) - f
            for (w, f) in pts])

    # imported here: SciPy is most of the package's import time, and only
    # calibration needs it
    from scipy.optimize import least_squares

    x0 = np.log([max(tau_init, 1e-12), max(thres_init, 1e-12)])
    fit = least_squares(residuals, x0)
    tau, thres = (float(v) for v in np.exp(fit.x))
    if rms(tau, thres) <= rms(math.inf, thres0):
        return CalibrationResult(tau, thres, rms(tau, thres))
    return CalibrationResult(math.inf, thres0, rms(math.inf, thres0))
