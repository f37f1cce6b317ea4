"""Network construction and the clock-driven train/infer loops.

Every timestep walks the layers in order: the synapse kernel
(`_synapse_pass`) picks out the engaged synapses and resolves their mode and
current, each neuron takes the row-order sum of its engaged currents less
lateral inhibition, the membranes advance, and `_program` programs the
devices of plastic layers; the pairing sweep runs on the same two functions.
Spikes emitted at step k become visible at step k+1: one timestep is the
network's only feedback latency.

Spike delivery is integer-step throughout: each layer samples its waveforms
once on the dt grid (`_samples`), and a waveform triggered at step m is
active for ceil(duration/dt) steps and worth its i-th sample at step m + i.
Each spike line (`_Line`) holds only the steps still to run, summed per
neuron, which keeps presence windows exact, state bounded by the longest
waveform, and runs reproducible bit for bit.

A step's array work follows spike activity, not matrix size: a matrix whose
circuit engages no synapse without a pre spike scans only the rows of active
pre lines, the kernel returns the engaged synapses alone, and an idle line's
state is a cached read-only array. V_TB is evaluated once per matrix and step,
over the engaged synapses as one array (`expr.evaluate_array`). The loop over
them that remains, on Python floats, makes the per-element calls the
benchmark's trace hooks count: mode_from_voltage, transmit_current,
step_device and the neuron calls, looked up as module globals
(`TestTracedNames`), until the engine keeps its own run statistics.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from spikeforge import expr
from spikeforge.encoding import SpikeTrain
from spikeforge.errors import SpecError
from spikeforge.neuron import NeuronModel, NeuronState, fire_check, integrate
from spikeforge.synapse import (
    PRESENCE_BY_CODE, PROGRAMMING, TRANSMIT, CircuitModel, PulseFamilyDevice, SynapseMode,
    mode_from_voltage, saturates, step_device, transmit_current,
)
from spikeforge.waveform import Waveform

logger = logging.getLogger(__name__)

NET_FORMAT = "spikeforge-net v1"

MODE_CODES = {mode: mode.code for mode in SynapseMode}


class SimulationError(RuntimeError):
    """Runtime failure with network coordinates attached."""


class NetworkFileError(ValueError):
    """Weights file is corrupt, truncated, or from an unsupported version."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer plus the synapse matrix feeding it from the previous layer.

    conn_type/sparse_p/plastic/circuit_model/device_model describe the
    incoming matrix and are ignored for layer 0 (the input layer).
    """

    neurons: int
    neuron_model: NeuronModel
    plastic: bool = False
    label: bool = False
    conn_type: str = "all_to_all"
    sparse_p: float = 1.0
    circuit_model: CircuitModel | None = None
    device_model: PulseFamilyDevice | None = None

    def __post_init__(self):
        if self.neurons < 1:
            raise SpecError("neurons", f"layer needs at least one neuron, got {self.neurons}")
        if self.conn_type not in ("all_to_all", "one_to_one", "sparse"):
            raise SpecError("conn_type", f"unknown conn_type {self.conn_type!r}")
        if self.conn_type == "sparse" and not 0.0 < self.sparse_p <= 1.0:
            raise SpecError("sparse_p", f"sparse_p must be in (0, 1], got {self.sparse_p}")


@dataclass(frozen=True)
class WeightInit:
    """Initial conductances: uniform(lo, hi), constant(value), or from_file(path)."""

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    value: float = 0.0
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("uniform", "constant", "from_file"):
            raise SpecError("kind", f"unknown init kind {self.kind!r}")
        if self.kind == "uniform" and not self.lo < self.hi:
            raise SpecError("lo", f"uniform init needs lo < hi, got {self.lo}, {self.hi}")


def middle_band_init(g_min: float, g_max: float) -> WeightInit:
    """Default: uniform over the middle 50% of the device range."""
    span = g_max - g_min
    return WeightInit("uniform", lo=g_min + 0.25 * span, hi=g_max - 0.25 * span)


@dataclass(frozen=True)
class NetworkSpec:
    """The whole topology; every layer and matrix it names can be built."""

    layers: tuple[LayerSpec, ...]
    inh_conn: tuple[tuple[int, int], ...] = ()
    inh_g: float = 0.0
    seed: int = 0
    init_weights: WeightInit | None = None  # None: middle band of each device

    def __post_init__(self):
        if len(self.layers) < 2:
            raise SpecError(None, "a network needs an input layer and at least one more")
        labels = [k for k, layer in enumerate(self.layers) if layer.label]
        if len(labels) != 1:
            raise SpecError(None, f"exactly one layer must have label=true, got {len(labels)}")
        if labels[0] == 0:
            raise SpecError(None, "the input layer cannot be the label layer")
        if self.layers[0].neuron_model.waveforms.pre is None:
            raise SpecError(None, "layer 0 neuron model needs a pre waveform for input spikes")
        for q, (pre, post) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            if post.circuit_model is None or post.device_model is None:
                raise SpecError(None, f"layer {q} needs circuit_model and device_model")
            if post.plastic and post.neuron_model.waveforms.post1 is None:
                raise SpecError(None, f"layer {q} is plastic but has no post1 waveform")
            if post.conn_type == "one_to_one" and pre.neurons != post.neurons:
                raise SpecError(None, f"one_to_one into layer {q} needs equal sizes, "
                                f"got {pre.neurons} != {post.neurons}")
        for a, b in self.inh_conn:
            if not (0 <= a < len(self.layers) and 0 <= b < len(self.layers)):
                raise SpecError("inh_conn", f"inh_conn pair ({a}, {b}) out of range")
        if self.inh_conn and self.inh_g <= 0:
            raise SpecError("inh_g", "inh_conn configured but inh_g is not positive")
        for a, _ in self.inh_conn:
            if self.layers[a].neuron_model.waveforms.inhib is None:
                raise SpecError("inh_conn", f"layer {a} drives inhibition but its neuron "
                                "model has no inhib waveform")

    @property
    def label_layer(self) -> int:
        return next(k for k, layer in enumerate(self.layers) if layer.label)


@dataclass(frozen=True)
class SimConfig:
    T: float
    dt: float
    T_sample: float = 0.1
    reset_between_samples: bool = True
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise SpecError("dt", f"dt must be positive, got {self.dt}")
        for key in ("T", "T_sample"):
            ratio = getattr(self, key) / self.dt
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise SpecError(key, f"{key}={getattr(self, key)} must be a positive "
                                f"multiple of dt={self.dt}")


def num_steps(T: float, dt: float) -> int:
    """Total timesteps N = T/dt; T must sit on the dt grid."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ratio = T / dt
    n = round(ratio)
    if abs(ratio - n) > 1e-9:
        raise ValueError(f"T={T} is not a multiple of dt={dt} (T/dt={ratio})")
    return int(n)


def _support_steps(duration: float, dt: float) -> int:
    """Number of grid steps a waveform is active: ceil(duration/dt), treating
    near-integer ratios as exact so half-open windows stay half-open."""
    q = duration / dt
    r = round(q)
    if abs(q - r) < 1e-9:
        return int(r)
    return int(q) + 1


def _samples(wf: Waveform, dt: float) -> tuple[float, ...]:
    """A waveform's values on the grid, one per step of its support."""
    return tuple(wf.sample(i * dt) for i in range(_support_steps(wf.duration, dt)))


class _Line:
    """One spike line of a layer: for each pending step, which neurons carry
    a waveform (`active`) and the sum of what they carry (`volts`).

    A trigger adds its sign-scaled samples (sign is inh_g on inhibition
    lines, 1.0 elsewhere) into each step its waveform covers, so a step's
    sum runs in trigger order; a step leaves the line once it has run.
    """

    __slots__ = ("n", "pending")

    def __init__(self, n: int):
        self.n = n
        self.pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def trigger(self, idx, origin: int, samples: tuple[float, ...],
                sign: float = 1.0) -> None:
        """Start a waveform at step `origin` on neuron idx (an index or an
        index array)."""
        for step, value in enumerate(samples, origin):
            cell = self.pending.get(step)
            if cell is None:
                cell = self.pending[step] = (np.zeros(self.n, dtype=bool), np.zeros(self.n))
            cell[0][idx] = True
            cell[1][idx] += sign * value

    def state(self, step: int, rest: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-neuron (active, voltage) at a step; idle neurons sit at rest."""
        cell = self.pending.get(step)
        if cell is None:
            return _idle_state(self.n, rest, math.copysign(1.0, rest))
        active, volts = cell
        return active, np.where(active, volts, rest)


@functools.lru_cache(maxsize=64, typed=True)
def _idle_state(n: int, rest: float, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only state of n idle neurons at rest; sign keys -0.0 apart from 0.0."""
    active, volts = np.zeros(n, dtype=bool), np.full(n, rest)
    active.flags.writeable = volts.flags.writeable = False
    return active, volts


class _LayerRuntime:
    __slots__ = ("spec", "states", "pre_out", "post1_in", "inhib_in",
                 "pre", "post1", "post2", "inhib")

    def __init__(self, spec: LayerSpec, is_input: bool, dt: float):
        self.spec = spec
        n = spec.neurons
        self.states = [] if is_input else [
            NeuronState(v=spec.neuron_model.v_reset) for _ in range(n)]
        self.pre_out, self.post1_in, self.inhib_in = _Line(n), _Line(n), _Line(n)
        wf = spec.neuron_model.waveforms
        self.pre, self.post1, self.post2, self.inhib = (
            None if w is None else _samples(w, dt)
            for w in (wf.pre, wf.post1, wf.post2, wf.inhib))

    @property
    def lines(self) -> tuple[_Line, _Line, _Line]:
        return self.pre_out, self.post1_in, self.inhib_in


class _Matrix:
    __slots__ = ("circuit", "device", "plastic", "mask", "g", "pairs", "engaged_lut",
                 "plastic_lut", "pre_gated", "all_rows", "needs_post2", "ex_lines", "base_env")

    def __init__(self, circuit: CircuitModel, device: PulseFamilyDevice, plastic: bool,
                 mask: np.ndarray, dt: float):
        self.circuit = circuit
        self.device = device
        self.plastic = plastic
        self.mask = mask
        self.g = np.zeros(mask.shape)
        self.pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
        self.plastic_lut = np.array([p in circuit.plasticity_policy for p in PRESENCE_BY_CODE])
        self.engaged_lut = self.plastic_lut | [p in circuit.transmit_policy for p in PRESENCE_BY_CODE]
        # no synapse engages without a pre spike: codes 0 and 1 (none, post_only) are off
        self.pre_gated = not self.engaged_lut[:2].any()
        self.all_rows = np.arange(mask.shape[0])
        ex_reads = set() if circuit.ex_eqs is None else expr.free_vars(circuit.ex_eqs)
        self.needs_post2 = "V_post2" in expr.free_vars(circuit.v_app) | ex_reads
        # the line voltages the engaged loop binds for ex_eqs
        self.ex_lines = tuple(sorted(ex_reads & {"V_pre", "V_post1", "V_post2"}))
        self.base_env = circuit.base_env(dt)


@dataclass
class StepTrace:
    """Optional per-step record for oracle-level inspection."""

    modes: list[np.ndarray]
    currents: list[np.ndarray]
    v: list[np.ndarray]
    fired: list[list[int]]


class Network:
    """Built network: synapse matrices, neuron states, pending spike lines."""

    def __init__(self, spec: NetworkSpec, dt: float):
        self.spec = spec
        self.dt = dt
        self.layers = [_LayerRuntime(ls, k == 0, dt) for k, ls in enumerate(spec.layers)]
        self.matrices: list[_Matrix] = []
        self.labels: list[int | None] = [None] * spec.layers[spec.label_layer].neurons
        self.saturation_events = 0

    @property
    def label_layer(self) -> int:
        return self.spec.label_layer

    def conductances(self) -> list[np.ndarray]:
        return [m.g.copy() for m in self.matrices]

    def reset_transient(self) -> None:
        """Clear membranes, refractory windows and all pending spikes.

        Spike time logs and conductances survive; this is the between-sample
        reset, not a teardown.
        """
        for layer in self.layers:
            for state in layer.states:
                state.v = layer.spec.neuron_model.v_reset
                state.refractory_until = 0.0
            for line in layer.lines:
                line.pending.clear()


def build_network(spec: NetworkSpec, dt: float) -> Network:
    """Create matrices, masks and initial conductances from the topology spec."""
    rng = np.random.default_rng(spec.seed)
    net = Network(spec, dt)
    for q in range(1, len(spec.layers)):
        post = spec.layers[q]
        mask = _make_mask(post, spec.layers[q - 1].neurons, post.neurons, rng, q)
        matrix = _Matrix(post.circuit_model, post.device_model, post.plastic, mask, dt)
        init = spec.init_weights or middle_band_init(
            post.device_model.g_min, post.device_model.g_max)
        matrix.g[mask] = _initial_conductances(init, int(mask.sum()), rng)
        np.clip(matrix.g, post.device_model.g_min, post.device_model.g_max,
                out=matrix.g)
        matrix.g[~mask] = 0.0
        net.matrices.append(matrix)
    if spec.init_weights is not None and spec.init_weights.kind == "from_file":
        _load_conductances(net, spec.init_weights.path)
    return net


def _make_mask(post: LayerSpec, n_pre: int, n_post: int, rng, q: int) -> np.ndarray:
    if post.conn_type == "all_to_all":
        return np.ones((n_pre, n_post), dtype=bool)
    if post.conn_type == "one_to_one":
        return np.eye(n_pre, dtype=bool)
    mask = rng.random((n_pre, n_post)) < post.sparse_p
    for j in range(n_post):
        redraws = 0
        while not mask[:, j].any():
            mask[:, j] = rng.random(n_pre) < post.sparse_p
            redraws += 1
        if redraws:
            logger.info("redrew sparse column %d of layer %d %d time(s) to "
                        "guarantee an incoming connection", j, q, redraws)
    return mask


def _initial_conductances(init: WeightInit, count: int, rng) -> np.ndarray:
    if init.kind == "uniform":
        return rng.uniform(init.lo, init.hi, size=count)
    if init.kind == "constant":
        return np.full(count, init.value)
    # from_file fills later, after the topology exists
    return np.zeros(count)


def schedule_input(net: Network, trains: list[SpikeTrain], at_step: int = 0) -> None:
    """Trigger encoded input spikes on layer 0's outgoing line; every train
    must be on the network's dt grid."""
    layer0 = net.layers[0]
    if len(trains) != layer0.spec.neurons:
        raise ValueError(
            f"{len(trains)} input trains for {layer0.spec.neurons} input neurons")
    off_grid = next((c for c, train in enumerate(trains) if train.dt != net.dt), None)
    if off_grid is not None:
        raise ValueError(f"input channel {off_grid} has dt={trains[off_grid].dt}, "
                         f"but the network's dt is {net.dt}")
    for chan, train in enumerate(trains):
        for k in train.steps:
            layer0.pre_out.trigger(chan, at_step + k, layer0.pre)


def _synapse_pass(matrix: _Matrix, q: int, pre_out: _Line, post1_in: _Line,
                  post2_out: _Line, step: int, dt: float):
    """The synapse kernel: one matrix (layer q) for one timestep.

    Only the candidate rows are scanned: those with an active pre line when
    no circuit policy engages without a pre spike (`_Matrix.pre_gated`),
    else all. Over them presence is the code 2 * pre_active + post_active
    (PRESENCE_BY_CODE), and the engaged synapses, those connected with a
    presence in a circuit policy, are found by one flat nonzero. They are
    visited in row-major order, on Python floats, with V_TB evaluated over
    all of them as one array. Returns (rows, cols, modes, currents, events):
    each engaged synapse's coordinates, MODE_CODES code and current, and the
    programming pulses as (i, j, direction, |V_TB|).
    """
    circuit = matrix.circuit
    events: list[tuple[int, int, SynapseMode, float]] = []
    pre_active, v_pre = pre_out.state(step, circuit.rest_v_pre)
    post_active, v_post1 = post1_in.state(step, circuit.rest_v_post1)
    candidates = np.flatnonzero(pre_active) if matrix.pre_gated else matrix.all_rows
    code = (2 * pre_active[candidates, None].astype(np.int8) + post_active).ravel()
    flat = np.flatnonzero(matrix.engaged_lut[code] & matrix.mask[candidates].ravel())
    k, cols = np.divmod(flat, len(post_active))
    rows = candidates[k]
    out, mode_codes = [], []
    if not len(rows):
        return rows, cols, mode_codes, out, events
    g = matrix.g[rows, cols]
    columns = {"G": g, "V_pre": v_pre[rows], "V_post1": v_post1[cols]}
    if matrix.needs_post2:
        columns["V_post2"] = post2_out.state(step, circuit.rest_v_post2)[1][cols]
    env = dict(matrix.base_env)
    v_tb, failed = expr.evaluate_array(circuit.v_app, {**env, **columns})
    n = int(failed.argmax()) if failed.any() else len(rows)
    ex_volts = (zip(*(columns[name].tolist() for name in matrix.ex_lines)) if matrix.ex_lines
                else itertools.repeat(()))
    plastic = matrix.plastic_lut.tolist()
    try:
        # zip stops at the first synapse whose V_TB failed
        for i, j, c, v, gk, volts in zip(rows.tolist(), cols.tolist(), code[flat].tolist(),
                                         v_tb[:n].tolist(), g.tolist(), ex_volts):
            env["V_TB"] = v
            # for ex_eqs, as the very float transmit_current gets, so it need not copy env
            env["G"] = gk
            if volts:
                env.update(zip(matrix.ex_lines, volts))
            if plastic[c]:
                mode = mode_from_voltage(circuit, PRESENCE_BY_CODE[c], v)
                if mode in PROGRAMMING:
                    events.append((i, j, mode, abs(v)))
            else:
                # engaged but not plastic: the presence is in transmit_policy
                mode = TRANSMIT
            out.append(transmit_current(circuit, gk, env, mode))
            mode_codes.append(mode.code)
        if n < len(rows):  # the scalar evaluation raises that synapse's own text
            i, j = int(rows[n]), int(cols[n])
            expr.evaluate(circuit.v_app, {**matrix.base_env, **{
                name: column[n].item() for name, column in columns.items()}})
    except expr.ExprError as err:
        raise SimulationError(
            f"synapse (layer {q}, pre {i}, post {j}) at t={step * dt}: {err}") from err
    return rows, cols, mode_codes, out, events


def _program(matrix: _Matrix, events) -> int:
    """Apply each programming pulse to its device; return how many pulses
    found the device already saturated in that direction."""
    saturated = 0
    for i, j, mode, amplitude in events:
        g = float(matrix.g[i, j])
        if saturates(matrix.device, mode, g, amplitude):
            saturated += 1
        matrix.g[i, j] = step_device(matrix.device, mode, amplitude, g)
    return saturated


def run_timestep(net: Network, step: int, learn: bool = True,
                 record: bool = False) -> StepTrace | None:
    """Advance the whole network by one timestep (integer step index)."""
    dt = net.dt
    t = step * dt
    trace = StepTrace([], [], [], []) if record else None
    for q in range(1, len(net.layers)):
        matrix = net.matrices[q - 1]
        post_layer = net.layers[q]
        rows, cols, modes, currents, events = _synapse_pass(
            matrix, q, net.layers[q - 1].pre_out, post_layer.post1_in,
            post_layer.pre_out, step, dt)
        _, inhib = post_layer.inhib_in.state(step, 0.0)
        total = np.bincount(cols, weights=currents, minlength=len(inhib)) - inhib
        for j, (state, current) in enumerate(zip(post_layer.states, total.tolist())):
            try:
                integrate(post_layer.spec.neuron_model, state, current, t, dt)
            except (expr.ExprError, ValueError) as err:
                raise SimulationError(
                    f"neuron (layer {q}, index {j}) at t={t}: {err}") from err
        fired = []
        for j, state in enumerate(post_layer.states):
            if fire_check(post_layer.spec.neuron_model, state, t):
                fired.append(j)
                _emit(net, q, j, step)

        if learn and matrix.plastic:
            net.saturation_events += _program(matrix, events)

        if record:
            dense = np.zeros(matrix.g.shape, dtype=np.int8)
            dense[rows, cols] = modes
            trace.modes.append(dense)
            trace.currents.append(total)
            trace.v.append(np.array([s.v for s in post_layer.states]))
            trace.fired.append(fired)
    for layer in net.layers:
        for line in layer.lines:
            line.pending.pop(step, None)
    return trace


def _emit(net: Network, q: int, j: int, step: int) -> None:
    """Trigger a firing neuron's outputs, visible from the next step."""
    layer = net.layers[q]
    origin = step + 1
    if layer.post1 is not None:
        layer.post1_in.trigger(j, origin, layer.post1)
    if layer.post2 is not None and q < len(net.layers) - 1:
        layer.pre_out.trigger(j, origin, layer.post2)
    # NetworkSpec checked that every inhibiting layer has an inhib waveform
    for a, b in net.spec.inh_conn:
        if a == q:
            peers = np.arange(net.layers[b].spec.neurons)
            net.layers[b].inhib_in.trigger(peers[peers != j] if a == b else peers,
                                           origin, layer.inhib, net.spec.inh_g)


@dataclass(frozen=True)
class PairingPoint:
    """One pairing-sweep result: spike-time offset and net conductance change."""

    delta_steps: int
    delta_t: float
    delta_g: float
    final_g: float
    n_potentiate: int = 0
    n_depress: int = 0


def stdp_pairing_sweep(circuit: CircuitModel, device: PulseFamilyDevice,
                       pre_waveform: Waveform, post_waveform: Waveform,
                       delta_steps, dt: float, g0: float) -> list[PairingPoint]:
    """Single-synapse pre/post pairing protocol.

    For each offset d (in timesteps, post minus pre), trigger the pre spike
    and the post spike d steps apart, walk the grid over their joint
    support, and record the net conductance change from g0. The offsets run
    as one batch through the synapse kernel: offset m is synapse (m, m) of a
    diagonal matrix, and its pulses stop at the end of its own joint support
    (a circuit that programs with no spike present would otherwise go on).
    """
    deltas = [int(d) for d in delta_steps]
    matrix = _Matrix(circuit, device, True, np.eye(len(deltas), dtype=bool), dt)
    matrix.g[matrix.mask] = g0
    pre, post = _samples(pre_waveform, dt), _samples(post_waveform, dt)
    pre_out, post1_in, no_post2 = _Line(len(deltas)), _Line(len(deltas)), _Line(len(deltas))
    ends = []
    for m, d in enumerate(deltas):
        pre_o = max(0, -d)
        post_o = pre_o + d
        pre_out.trigger(m, pre_o, pre)
        post1_in.trigger(m, post_o, post)
        ends.append(max(pre_o + len(pre), post_o + len(post)))
    n_pot, n_dep = [0] * len(deltas), [0] * len(deltas)
    for k in range(max(ends, default=0)):
        *_, events = _synapse_pass(matrix, 1, pre_out, post1_in, no_post2, k, dt)
        events = [e for e in events if k < ends[e[0]]]
        _program(matrix, events)
        for m, _, mode, _ in events:
            (n_pot if mode is SynapseMode.POTENTIATE else n_dep)[m] += 1
    g = matrix.g.diagonal()
    return [PairingPoint(d, d * dt, float(g[m]) - g0, float(g[m]), n_pot[m], n_dep[m])
            for m, d in enumerate(deltas)]


@dataclass
class TrainResult:
    training_accuracy: float


def _label_counts(net: Network) -> list[int]:
    return [len(s.spike_times) for s in net.layers[net.label_layer].states]


def _present(net: Network, trains, steps: int, at_step: int, learn: bool) -> None:
    schedule_input(net, trains, at_step)
    for k in range(at_step, at_step + steps):
        run_timestep(net, k, learn=learn)


def _frozen_pass_counts(net: Network, sample, sim: SimConfig, encoder,
                        phase: int, index: int) -> list[int]:
    """Present one sample with plasticity off; return label-layer spike counts."""
    rng = np.random.default_rng([sim.seed, phase, index])
    trains = encoder.encode(sample.features, sim.T_sample, sim.dt, rng)
    net.reset_transient()
    before = _label_counts(net)
    _present(net, trains, num_steps(sim.T_sample, sim.dt), 0, learn=False)
    after = _label_counts(net)
    return [b - a for b, a in zip(after, before)]


def train(net: Network, dataset, sim: SimConfig, encoder) -> TrainResult:
    """STDP training loop: shuffled presentations until N total steps elapse,
    then label assignment and a frozen accuracy pass over the training set."""
    if not dataset:
        raise ValueError("dataset is empty")
    width = net.layers[0].spec.neurons
    for s in dataset:
        if len(s.features) != width:
            raise ValueError(
                f"sample has {len(s.features)} features, input layer has {width}")
    n_total = num_steps(sim.T, sim.dt)
    per_sample = num_steps(sim.T_sample, sim.dt)
    rng = np.random.default_rng([sim.seed, 0])
    k = 0
    order: list[int] = []
    while k < n_total:
        if not order:
            order = list(range(len(dataset)))
            if sim.shuffle:
                rng.shuffle(order)
        sample = dataset[order.pop(0)]
        if sim.reset_between_samples:
            net.reset_transient()
        trains = encoder.encode(sample.features, sim.T_sample, sim.dt, rng)
        steps = min(per_sample, n_total - k)
        _present(net, trains, steps, k, learn=True)
        k += steps
    assign_labels(net, dataset, sim, encoder)
    return TrainResult(infer(net, dataset, sim, encoder).accuracy)


def assign_labels(net: Network, dataset, sim: SimConfig, encoder) -> list[int | None]:
    """Give each label-layer neuron the class it spikes most for.

    Ties go to the lower class index; neurons that never spike stay
    unlabeled (None).
    """
    n_label = len(net.labels)
    classes = sorted({s.label for s in dataset if s.label is not None})
    counts = {c: np.zeros(n_label, dtype=int) for c in classes}
    for idx, sample in enumerate(dataset):
        got = _frozen_pass_counts(net, sample, sim, encoder, phase=1, index=idx)
        if sample.label is not None:
            counts[sample.label] += got
    labels: list[int | None] = []
    for n in range(n_label):
        per_class = [(counts[c][n], c) for c in classes]
        best_count = max((cnt for cnt, _ in per_class), default=0)
        if best_count == 0:
            labels.append(None)
        else:
            labels.append(min(c for cnt, c in per_class if cnt == best_count))
    net.labels = labels
    return labels


@dataclass
class InferResult:
    accuracy: float
    predictions: list[int | None]
    confusion: dict[tuple[int, int | None], int]


def infer(net: Network, dataset, sim: SimConfig, encoder) -> InferResult:
    """Frozen inference: per sample, predict the label of the most active
    label-layer neuron (ties to the lowest index; silence predicts nothing)."""
    predictions: list[int | None] = []
    confusion: dict[tuple[int, int | None], int] = {}
    correct = 0
    for idx, sample in enumerate(dataset):
        got = _frozen_pass_counts(net, sample, sim, encoder, phase=2, index=idx)
        best = max(got)
        if best == 0:
            pred = None
        else:
            winner = got.index(best)  # first occurrence = lowest neuron index
            pred = net.labels[winner]
        predictions.append(pred)
        if sample.label is not None:
            key = (sample.label, pred)
            confusion[key] = confusion.get(key, 0) + 1
            if pred == sample.label:
                correct += 1
    total = sum(1 for s in dataset if s.label is not None)
    accuracy = correct / total if total else 0.0
    return InferResult(accuracy, predictions, confusion)


def save_network(net: Network, path) -> None:
    """Versioned text dump: header, synapse conductances, neuron labels."""
    lines = [NET_FORMAT]
    for q, matrix in enumerate(net.matrices, start=1):
        for i, j in matrix.pairs:
            lines.append(f"{q},{i},{j},{float(matrix.g[i, j])!r}")
    for n, label in enumerate(net.labels):
        lines.append(f"label,{n},{'none' if label is None else label}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path, spec: NetworkSpec, dt: float) -> Network:
    """Rebuild a network from its spec and restore saved weights and labels.

    The file's synapse set must exactly match the spec's (deterministic)
    topology; anything missing or extra reads as corruption.
    """
    net = build_network(spec, dt)
    _load_conductances(net, path)
    return net


def _load_conductances(net: Network, path) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise NetworkFileError(f"{path}: empty file")
    header = lines[0]
    if header != NET_FORMAT:
        if header.startswith("spikeforge-net "):
            raise NetworkFileError(
                f"{path}: file format {header!r} not supported; this build reads "
                f"{NET_FORMAT!r}")
        raise NetworkFileError(f"{path}: not a spikeforge network file")
    synapses: dict[tuple[int, int, int], float] = {}
    labels: dict[int, int | None] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if parts[0] == "label":
                if len(parts) != 3:
                    raise ValueError("label line needs 3 fields")
                labels[int(parts[1])] = None if parts[2] == "none" else int(parts[2])
            else:
                if len(parts) != 4:
                    raise ValueError("synapse line needs 4 fields")
                synapses[(int(parts[0]), int(parts[1]), int(parts[2]))] = float(parts[3])
        except ValueError as err:
            raise NetworkFileError(f"{path}:{lineno}: corrupt line: {err}") from None
    expected = {(q, i, j)
                for q, matrix in enumerate(net.matrices, start=1)
                for i, j in matrix.pairs}
    if set(synapses) != expected:
        raise NetworkFileError(
            f"{path}: synapse set does not match the network topology "
            f"({len(synapses)} entries, expected {len(expected)}); file truncated "
            "or from a different network")
    if set(labels) != set(range(len(net.labels))):
        raise NetworkFileError(
            f"{path}: label lines do not cover the label layer "
            f"({len(labels)} entries, expected {len(net.labels)})")
    for (q, i, j), g in synapses.items():
        net.matrices[q - 1].g[i, j] = g
    net.labels = [labels[n] for n in range(len(net.labels))]
