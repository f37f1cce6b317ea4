"""The whole run as the engine makes it today, kept as the reference it must match.

This is a copy, word for word where it can be, of the engine's one-sample run: the runtime it
steps on (`NeuronState`, `_Line` and `_idle_state`, `_LayerRuntime`, `_Matrix`, `Network` and
`build_network`'s mask draws with the uniform or constant fill), the step (`schedule_input`,
`_engaged`, `_synapse_pass`, `_program`, `run_timestep`, `_emit`, `train`), the per-element
kernel it calls (`integrate`, `fire_check`, `mode_from_voltage`, `transmit_current`, `_nearest`,
`_row`, `step_device`, `saturates`) and the one-sample frozen driver (`_frozen_pass_counts`, with
`reference_assign_labels` and `reference_infer` on it), which presents each sample alone on the
network itself and resets after it.

Where the engine indexes a chunk of samples (sample b's neuron i at b * n + i), this copy is the
one-sample case of it, and `_engaged` searches all its candidate flags at once. Where the engine
forks for speed alone, this copy keeps the general path: `_synapse_pass` has one loop, binding
V_TB, G and the line voltages ex_eqs reads, for both circuit kinds (the engine's ohmic loop binds
V_TB alone, all `transmit_current` then reads), and the kernel is called by name, not through
names read once per pass. A network file init (`from_file`) is not copied.

From `spikeforge` it imports only `NetworkSpec`, `SimConfig`, `WeightInit` and `SimulationError`,
`NeuronModel`, the circuit and device classes with the mode and presence constants, `Waveform`
with its grid rules, and `expr`, so the engine's step, runtime and kernel can change without
changing what they are checked against (`tests/test_engine.py`, `TestReferenceBoundary`).
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from spikeforge import expr
from spikeforge.engine import NetworkSpec, SimConfig, SimulationError, WeightInit
from spikeforge.neuron import NeuronModel
from spikeforge.synapse import (
    DEPRESS, IDLE, POTENTIATE, PRESENCE_BY_CODE, PROGRAMMING, TRANSMIT, CircuitModel,
    PulseFamilyDevice, SpikePresence, SynapseMode,
)
from spikeforge.waveform import Waveform, num_steps, support_steps

BLOCK = 1024  # engaged synapses a step walks at once


# --- the per-element kernel -------------------------------------------------------------------

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
        raise ValueError(f"membrane potential diverged to {v}")
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


def mode_from_voltage(circuit: CircuitModel, presence: SpikePresence,
                      v_tb: float) -> SynapseMode:
    """The synapse's mode this timestep, given the device voltage V_TB.

    Plasticity wins over transmission when the presence state may program
    the device and V_TB crosses a threshold; v_tb is only compared for such
    presence states.
    """
    if presence in circuit.plasticity_policy:
        if v_tb >= circuit.v_th_pos:
            return POTENTIATE
        if v_tb <= -circuit.v_th_neg:
            return DEPRESS
    if presence in circuit.transmit_policy:
        return TRANSMIT
    return IDLE


def transmit_current(circuit: CircuitModel, g: float, env: dict[str, float],
                     mode: SynapseMode = TRANSMIT) -> float:
    """Current through the device, in amperes.

    Idle passes nothing; potentiation/depression pulses conduct unless the
    circuit disables conduction while programming. A conducting device
    carries g * V_TB, or the circuit's ex_eqs. env must bind V_TB and
    whatever ex_eqs reads; it is not changed.
    """
    if mode is not TRANSMIT and (mode is IDLE or not circuit.conduct_during_plasticity):
        return 0.0
    if circuit.ex_eqs is None:
        return g * env["V_TB"]
    if env.get("G") is not g:
        env = {**env, "G": g}
    return expr.evaluate(circuit.ex_eqs, env)


def _nearest(values, x) -> int:
    """Index of the value closest to x; ties go to the lower index.

    values is strictly monotone, so the rounded |v - x| never rises before the first value
    at or past x, index p, nor falls after it (a descending row is bisected as its reverse):
    the nearest is p or p - 1, or, when p - 2 ties with p - 1, the first of that run."""
    if values[0] <= values[-1]:
        p = bisect_left(values, x)
    else:
        p = len(values) - bisect_right(values[::-1], x)
    if p == 0:
        return 0
    d = abs(values[p - 1] - x)
    if p < len(values) and abs(values[p] - x) < d:
        return p
    if p < 2 or abs(values[p - 2] - x) > d:
        return p - 1
    return bisect_left(values, -d, 0, p, key=lambda v: -abs(v - x))


def _row(device: PulseFamilyDevice, direction: SynapseMode,
         pulse_amplitude: float) -> tuple[float, ...]:
    """The curve a pulse walks: the direction's table, the row nearest |amplitude|."""
    if direction not in PROGRAMMING:
        raise ValueError(f"direction must be POTENTIATE or DEPRESS, got {direction}")
    table = device.ltp if direction is POTENTIATE else device.ltd
    rows = table.response  # every amplitude selects the one row of an identical-pulse device
    return rows[0] if len(rows) == 1 else rows[_nearest(table.amplitudes, abs(pulse_amplitude))]


def step_device(device: PulseFamilyDevice, direction: SynapseMode,
                pulse_amplitude: float, g: float) -> float:
    """One programming pulse: on the row the pulse selects, snap to the
    conductance nearest g, advance one column, clamp at the row end."""
    row = _row(device, direction, pulse_amplitude)
    new = row[min(_nearest(row, g) + 1, len(row) - 1)]
    # a row that cannot reach g must not drag it backwards
    return max(new, g) if direction is POTENTIATE else min(new, g)


def saturates(device: PulseFamilyDevice, direction: SynapseMode, g: float,
              pulse_amplitude: float = 0.0) -> bool:
    """True when a pulse in this direction can no longer move the conductance."""
    row = _row(device, direction, pulse_amplitude)
    return _nearest(row, g) == len(row) - 1


# --- the runtime -------------------------------------------------------------------------------

def _samples(wf: Waveform, dt: float) -> tuple[float, ...]:
    """A waveform's values on the grid, one per step of its support."""
    return tuple(wf.sample(i * dt) for i in range(support_steps(wf.duration, dt)))


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

    def __init__(self, spec, is_input: bool, dt: float):
        self.spec = spec
        n = spec.neurons
        self.states = [] if is_input else [NeuronState(v=spec.neuron_model.v_reset)
                                           for _ in range(n)]
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
                 "plastic_lut", "needs_post2", "ex_lines", "base_env")

    def __init__(self, circuit: CircuitModel, device: PulseFamilyDevice, plastic: bool,
                 mask: np.ndarray, dt: float):
        self.circuit = circuit
        self.device = device
        self.plastic = plastic
        self.mask = mask
        self.g = np.zeros(mask.shape)
        self.pairs = np.argwhere(mask)  # (synapses, 2): row-major (pre, post) indices
        self.plastic_lut = [p in circuit.plasticity_policy for p in PRESENCE_BY_CODE]
        self.engaged_lut = np.logical_or(self.plastic_lut, [  # [a, b]: code 2 * a + b engages
            p in circuit.transmit_policy for p in PRESENCE_BY_CODE]).reshape(2, 2)
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
        self.inputs: dict[int, list[int]] = {}  # step: the input channels spiking then
        self.saturation_events = 0

    @property
    def label_layer(self) -> int:
        return self.spec.label_layer

    def conductances(self) -> list[np.ndarray]:
        return [m.g.copy() for m in self.matrices]

    def reset_transient(self) -> None:
        """Clear membranes, refractory windows and all pending spikes."""
        for layer in self.layers:
            for state in layer.states:
                state.v = layer.spec.neuron_model.v_reset
                state.refractory_until = 0
            for line in layer.lines:
                line.pending.clear()
        self.inputs.clear()


def build_network(spec: NetworkSpec, dt: float) -> Network:
    """The masks from the layers and the seed alone, drawn in layer order from
    default_rng(spec.seed); then that rng after the masks fills the conductances
    (uniform, by default over the middle half of each device's range), or the constant."""
    if spec.init_weights is not None and spec.init_weights.kind == "from_file":
        raise ValueError("the reference reads no network file")
    rng = np.random.default_rng(spec.seed)
    net = Network(spec, dt)
    for q, (pre, post) in enumerate(zip(spec.layers, spec.layers[1:]), start=1):
        net.matrices.append(_Matrix(post.circuit_model, post.device_model, post.plastic,
                                    _make_mask(post, pre.neurons, post.neurons, rng), dt))
    for matrix in net.matrices:
        lo, hi = matrix.device.g_min, matrix.device.g_max
        quarter = 0.25 * (hi - lo)
        init = spec.init_weights or WeightInit("uniform", lo=lo + quarter, hi=hi - quarter)
        g = rng.uniform(init.lo, init.hi, len(matrix.pairs)) if init.kind == "uniform" \
            else init.value
        matrix.g[matrix.mask] = np.clip(g, lo, hi)
    return net


def _make_mask(post, n_pre: int, n_post: int, rng) -> np.ndarray:
    if post.conn_type == "all_to_all":
        return np.ones((n_pre, n_post), dtype=bool)
    if post.conn_type == "one_to_one":
        return np.eye(n_pre, dtype=bool)
    mask = rng.random((n_pre, n_post)) < post.sparse_p
    for j in range(n_post):
        while not mask[:, j].any():
            mask[:, j] = rng.random(n_pre) < post.sparse_p
    return mask


# --- the step ----------------------------------------------------------------------------------

def schedule_input(net: Network, trains, at_step: int = 0) -> None:
    """Queue encoded input spikes for layer 0's outgoing line, where each step
    triggers its own; every train must be on the network's dt grid."""
    if len(trains) != net.layers[0].pre_out.n:
        raise ValueError(f"{len(trains)} input trains for {net.layers[0].pre_out.n} input neurons")
    off_grid = next((c for c, train in enumerate(trains) if train.dt != net.dt), None)
    if off_grid is not None:
        raise ValueError(f"input channel {off_grid} has dt={trains[off_grid].dt}, "
                         f"but the network's dt is {net.dt}")
    for chan, train in enumerate(trains):
        for k in train.steps:
            net.inputs.setdefault(at_step + k, []).append(chan)


def _engaged(matrix: _Matrix, pre_active: np.ndarray, post_active: np.ndarray):
    """The synapses a matrix engages at one step, BLOCK at a time in row-major order;
    yields each slice's pre and post indices, which index the lines and the matrix alike.

    There are two column patterns, the columns a row engages with its pre line silent
    and active. The candidate rows are those whose pre line is active, and every row when
    the silent pattern engages a column; a row takes the pattern its pre line picks,
    ANDed with its connections."""
    n_post = matrix.mask.shape[1]
    patterns = matrix.engaged_lut[:, post_active.view(np.uint8)]
    candidates = (pre_active | patterns[0].any()).nonzero()[0]
    hit = (patterns[pre_active[candidates].view(np.uint8)] & matrix.mask[candidates]).ravel()
    flat = hit.nonzero()[0]
    for lo in range(0, len(flat), BLOCK):
        k, post = np.divmod(flat[lo:lo + BLOCK], n_post)
        yield candidates[k], post


def _synapse_pass(matrix: _Matrix, q: int, pre_out: _Line, post1_in: _Line,
                  post2_out: _Line, step: int, dt: float, program: bool, record: bool):
    """The synapse kernel: one matrix (layer q) for one timestep. Each slice of engaged
    synapses (`_engaged`) gets its presence codes 2 * pre_active + post_active
    (PRESENCE_BY_CODE), conductances and V_TB (one array evaluation) from the slice alone;
    its loop runs on Python floats and binds V_TB, G and the line voltages ex_eqs reads, for
    either circuit kind. Yields, per slice, (rows, cols, modes, currents, pulses): each
    engaged synapse's pre and post line index, mode code if `record` and current, and, if
    `program`, the pulses as (i, j, direction, |V_TB|). The caller applies a slice's pulses
    before the next is made; a V_TB failure raises once the slices before it are taken and
    applied."""
    circuit, plastic = matrix.circuit, matrix.plastic_lut
    pre_active, v_pre = pre_out.state(step, circuit.rest_v_pre)
    post_active, v_post1 = post1_in.state(step, circuit.rest_v_post1)
    v_post2 = post2_out.state(step, circuit.rest_v_post2)[1] if matrix.needs_post2 else None
    for rows, cols in _engaged(matrix, pre_active, post_active):
        code = 2 * pre_active[rows] + post_active[cols]
        g = matrix.g[rows, cols]
        columns = {"G": g, "V_pre": v_pre[rows], "V_post1": v_post1[cols]}
        if matrix.needs_post2:
            columns["V_post2"] = v_post2[cols]
        env = dict(matrix.base_env)
        v_tb, failed = expr.evaluate_array(circuit.v_app, {**env, **columns})
        n = int(failed.argmax()) if np.count_nonzero(failed) else len(rows)
        out, mode_codes, pulses = [], [], []
        ex_v = (zip(*(columns[name].tolist() for name in matrix.ex_lines))
                if matrix.ex_lines else itertools.repeat(()))
        try:
            # zip stops at the first synapse whose V_TB failed; synapse len(out) is the current one
            for c, v, gk, volts in zip(code.tolist(), v_tb[:n].tolist(), g.tolist(), ex_v):
                env["V_TB"], env["G"] = v, gk
                env.update(zip(matrix.ex_lines, volts))
                if plastic[c]:
                    mode = mode_from_voltage(circuit, PRESENCE_BY_CODE[c], v)
                    if program and mode in PROGRAMMING:
                        pulses.append((int(rows[len(out)]), int(cols[len(out)]), mode, abs(v)))
                else:  # engaged but not plastic: the presence is in transmit_policy
                    mode = TRANSMIT
                out.append(transmit_current(circuit, gk, env, mode))
                if record:
                    mode_codes.append(mode.code)
            if n < len(rows):  # the scalar evaluation raises that synapse's own text
                expr.evaluate(circuit.v_app, {**matrix.base_env, **{
                    name: column[n].item() for name, column in columns.items()}})
        except expr.ExprError as err:
            raise SimulationError(f"synapse (layer {q}, pre {rows[len(out)]}, post "
                                  f"{cols[len(out)]}) at t={step * dt}: {err}") from err
        yield rows, cols, mode_codes, out, pulses


def _program(matrix: _Matrix, pulses) -> int:
    """Apply each programming pulse to its device; return how many pulses
    found the device already saturated in that direction."""
    saturated = 0
    for i, j, mode, amplitude in pulses:
        g = float(matrix.g[i, j])
        if saturates(matrix.device, mode, g, amplitude):
            saturated += 1
        matrix.g[i, j] = step_device(matrix.device, mode, amplitude, g)
    return saturated


def run_timestep(net: Network, step: int, learn: bool = True,
                 record: bool = False) -> StepTrace | None:
    """Advance the whole network by one timestep (integer step index). Per layer, a slice's
    pulses are applied once its currents are added, then one walk integrates, fire-checks
    and emits each neuron. A failure leaves the slices and neurons before it stepped."""
    dt = net.dt
    trace = StepTrace([], [], [], []) if record else None
    if step in net.inputs:
        net.layers[0].pre_out.trigger(np.array(net.inputs.pop(step)), step, net.layers[0].pre)
    for q in range(1, len(net.layers)):
        matrix = net.matrices[q - 1]
        post_layer = net.layers[q]
        _, inhib = post_layer.inhib_in.state(step, 0.0)
        total = np.zeros(len(inhib))
        dense = np.zeros(matrix.g.shape, dtype=np.int8) if record else None
        for rows, cols, modes, currents, pulses in _synapse_pass(
                matrix, q, net.layers[q - 1].pre_out, post_layer.post1_in,
                post_layer.pre_out, step, dt, learn and matrix.plastic, record):
            np.add.at(total, cols, np.fromiter(currents, float, len(currents)))  # in engaged order
            if pulses:
                net.saturation_events += _program(matrix, pulses)
            if record:
                dense[rows, cols] = modes
        total -= inhib
        fired = []
        model = post_layer.spec.neuron_model
        for j, (state, current) in enumerate(zip(post_layer.states, total.tolist())):
            try:
                integrate(model, state, current, step, dt)
            except (expr.ExprError, ValueError) as err:
                raise SimulationError(
                    f"neuron (layer {q}, index {j}) at t={step * dt}: {err}") from err
            if fire_check(model, state, step, dt):
                fired.append(j)
                _emit(net, q, j, step)
        if record:
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
    if layer.post2 is not None:
        layer.pre_out.trigger(j, origin, layer.post2)
    for a, b in net.spec.inh_conn:
        if a == q and (a != b or layer.spec.neurons > 1):  # a lone neuron has no peer
            peers = np.arange(net.layers[b].spec.neurons)
            net.layers[b].inhib_in.trigger(peers[peers != j] if a == b else peers,
                                           origin, layer.inhib, net.spec.inh_g)


def _present(net: Network, trains, steps: int, at_step: int, learn: bool) -> None:
    schedule_input(net, trains, at_step)
    for k in range(at_step, at_step + steps):
        run_timestep(net, k, learn=learn)


def _check_widths(net: Network, dataset) -> None:
    """Raise before any sample runs unless each has one feature per input neuron."""
    width = net.layers[0].spec.neurons
    for idx, sample in enumerate(dataset):
        if len(sample.features) != width:
            raise ValueError(
                f"sample {idx} has {len(sample.features)} features, input layer has {width}")


def train(net: Network, dataset, sim: SimConfig, encoder) -> float:
    """STDP training loop: shuffled presentations until N total steps elapse,
    then label assignment and a frozen pass over the training set, whose accuracy
    it returns."""
    if not dataset:
        raise ValueError("dataset is empty")
    _check_widths(net, dataset)
    n_total = num_steps(sim.T, sim.dt)
    per_sample = num_steps(sim.T_sample, sim.dt)
    rng = np.random.default_rng([sim.seed, 0])
    order: list[int] = []
    for k in range(0, n_total, per_sample):
        if not order:
            order = list(range(len(dataset)))
            if sim.shuffle:
                rng.shuffle(order)
        sample = dataset[order.pop(0)]
        if sim.reset_between_samples:
            net.reset_transient()
        trains = encoder.encode(sample.features, sim.T_sample, sim.dt, rng)
        _present(net, trains, min(per_sample, n_total - k), k, learn=True)
    reference_assign_labels(net, dataset, sim, encoder)
    return reference_infer(net, dataset, sim, encoder)[0]


# --- the one-sample frozen driver --------------------------------------------------------------

# The readout loops as they were before the frozen passes shared one samples x neurons count
# matrix; only the state a sample leaves follows the frozen-pass contract: the net is reset
# after it, and a sample that raises first takes back its spike times and energy.
def _label_counts(net: Network) -> list[int]:
    return [len(s.spike_times) for s in net.layers[net.label_layer].states]


def _frozen_pass_counts(net: Network, sample, sim: SimConfig, encoder,
                        phase: int, index: int) -> list[int]:
    """Present one sample with plasticity off on the net itself, from and back to
    reset_transient; return label-layer spike counts."""
    rng = np.random.default_rng([sim.seed, phase, index])
    trains = encoder.encode(sample.features, sim.T_sample, sim.dt, rng)
    net.reset_transient()
    before = _label_counts(net)
    states = [s for layer in net.layers for s in layer.states]
    logs = [(len(s.spike_times), s.energy) for s in states]
    try:
        _present(net, trains, num_steps(sim.T_sample, sim.dt), 0, learn=False)
    except Exception:
        for s, (spikes, energy) in zip(states, logs):
            del s.spike_times[spikes:]
            s.energy = energy
        raise
    finally:
        net.reset_transient()
    after = _label_counts(net)
    return [b - a for b, a in zip(after, before)]


def reference_assign_labels(net: Network, dataset, sim: SimConfig, encoder) -> list[int | None]:
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


def reference_infer(net: Network, dataset, sim: SimConfig, encoder):
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
    return accuracy, predictions, confusion
