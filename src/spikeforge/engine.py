"""Network construction and the clock-driven train/infer loops.

Every timestep walks the layers in order: the synapse kernel (`_synapse_pass`) resolves the
engaged synapses' modes and currents a slice at a time, a learning step programs (`_program`)
each slice's pulses before the next slice is made, as the pairing sweep does, and one walk over
the neurons adds each one's currents in row order less lateral inhibition, then advances, fires
and emits it. A failing step leaves the slices, neurons and layers before the failure stepped.
Spikes emitted at step k become visible at step k+1, the network's only feedback latency.

Spike delivery is integer-step throughout, point-sampled at the grid points i * dt: each layer
samples its waveforms once, by `grid_samples`, which rejects one the grid never delivers, and
a waveform triggered at step m lasts ceil(duration/dt) steps, worth its value at i * dt at m + i.
Refractory windows and encoders keep the same grid rules (`waveform.py`): a
neuron fired at step m is pinned at v_reset before step m + ceil(t_refrac/dt).
Input spikes wait in `Network.inputs` until their step; each spike line
(`_Line`) holds only the steps still to run, summed per neuron, which keeps
presence windows exact, state bounded by the longest waveform, and runs
reproducible bit for bit.

A step's array work follows spike activity, not matrix size: it scans the rows of active pre
lines, and all rows of a sample whose post lines let a silent-pre row engage; a row is one of its
sample's two column patterns (pre line silent or active) masked by its connections, and an idle
line's state is a cached read-only array. However many synapses a step engages, it holds BLOCK
of them at a time (`_engaged`): a slice's presence codes, conductances and V_TB (one
`expr.evaluate_array`) come from the slice alone, and its currents go into the neuron totals,
one add at a time in engaged order, and its pulses into the devices before the next slice is
made. A slice's loop, on Python floats, binds V_TB alone for an ohmic circuit (no ex_eqs), G and
the lines ex_eqs reads too for another, and makes the per-element calls the bench's trace hooks
count, read at the module (`TestTracedNames`) until the engine keeps its own run statistics:
mode_from_voltage and transmit_current once per pass, the neuron calls once per layer-step; it
makes pulses only for a step that applies them and mode codes only for a recorded one.
Set-up runs on whole arrays. The masks come from the layers and the seed alone, then one source
fills the conductances: `load_network` is a build from one network file, written and read one
block of BLOCK lines at a time in any layout, holding one block. The frozen passes of
`assign_labels` and `infer` run chunks of up to FROZEN_BATCH samples through one driver,
`_present_frozen`, on a Network built for that many `samples` (sample b's neuron j at b * n + j)
with the network's matrices; only spike times and energy reach the network, whose transient
state stays reset, and a failing chunk reruns as chunks of one."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from spikeforge import expr
from spikeforge.encoding import SpikeTrain
from spikeforge.errors import SpecError
from spikeforge.neuron import NeuronModel, NeuronState, fire_check, integrate
from spikeforge.synapse import (
    PRESENCE_BY_CODE, PROGRAMMING, TRANSMIT, CircuitModel, PulseFamilyDevice, SynapseMode,
    mode_from_voltage, saturates, step_device, transmit_current,
)
from spikeforge.waveform import Waveform, grid_samples, num_steps

NET_FORMAT = "spikeforge-net v1"

FROZEN_BATCH = 8  # samples a frozen pass steps at once
BLOCK = 1024  # engaged synapses a step walks, or network file lines made or read, at once
_NOT_SEPS = bytes(sorted(set(range(256)) - set(b",\n")))  # all but a line's field separators


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
        for key in ("lo", "hi", "value"):
            if not math.isfinite(value := getattr(self, key)):
                raise SpecError(key, f"{self.kind} init needs a finite {key}, got {value}")
        if self.kind == "uniform" and not self.lo < self.hi:
            raise SpecError("lo", f"uniform init needs lo < hi, got {self.lo}, {self.hi}")
        if self.kind == "from_file" and not self.path:
            raise SpecError("path", "from_file init needs the path of a network file")


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
            if 0 in (a, b):
                raise SpecError("inh_conn", f"inh_conn pair ({a}, {b}) names the input "
                                "layer, which neither fires nor integrates inhibition")
            if self.inh_conn.count((a, b)) > 1:  # its inhibition would run twice per spike
                raise SpecError("inh_conn", f"inh_conn pair ({a}, {b}) given twice")
        if self.inh_conn and not self.inh_g > 0:
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
        if not 0 < self.dt < math.inf:
            raise SpecError("dt", f"dt must be positive and finite, got {self.dt}")
        for key in ("T", "T_sample"):
            try:
                num_steps(getattr(self, key), self.dt)
            except ValueError:
                raise SpecError(key, f"{key}={getattr(self, key)} must be a positive "
                                f"multiple of dt={self.dt}") from None


class _Line:
    """One spike line of a layer: for each pending step, which neurons carry
    a waveform (`active`) and the sum of what they carry (`volts`).

    A trigger adds its sign-scaled samples (sign is inh_g on inhibition
    lines, 1.0 elsewhere) into each step its waveform covers, so a step's
    sum runs in trigger order; a step leaves the line once it has run. The
    engine never triggers an empty set: every pending cell holds an active neuron.
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


class _EnergyLog(list):
    """A chunk neuron's energy: integrate's `energy += term` logs the term."""

    def __iadd__(self, term):
        self.append(term)
        return self


class _LayerRuntime:
    __slots__ = ("spec", "states", "pre_out", "post1_in", "inhib_in",
                 "pre", "post1", "post2", "inhib")

    def __init__(self, spec: LayerSpec, q: int, dt: float, samples: int | None):
        self.spec = spec
        n = spec.neurons * (samples or 1)
        self.states = [] if q == 0 else [NeuronState(
            v=spec.neuron_model.v_reset, energy=0.0 if samples is None else _EnergyLog())
            for _ in range(n)]
        self.pre_out, self.post1_in, self.inhib_in = _Line(n), _Line(n), _Line(n)
        self.pre, self.post1, self.post2, self.inhib = (  # SpikeWaveforms' fields, in order
            None if w is None else grid_samples(w, dt, f"layer {q} {name} waveform")
            for name, w in vars(spec.neuron_model.waveforms).items())

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
    """Built network: synapse matrices, neuron states, pending spike lines; with
    `samples`, a frozen chunk's runtime, whose neurons log their energy terms."""

    def __init__(self, spec: NetworkSpec, dt: float, samples: int | None = None):
        self.spec = spec
        self.dt = dt
        self.layers = [_LayerRuntime(ls, q, dt, samples) for q, ls in enumerate(spec.layers)]
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
        """Clear membranes, refractory windows and all pending spikes.

        Spike time logs and conductances survive; this is the between-sample
        reset, not a teardown, and the state every frozen pass leaves.
        """
        for layer in self.layers:
            for state in layer.states:
                state.v = layer.spec.neuron_model.v_reset
                state.refractory_until = 0
            for line in layer.lines:
                line.pending.clear()
        self.inputs.clear()


def build_network(spec: NetworkSpec, dt: float) -> Network:
    """Create the matrices, masks and initial conductances from the spec. The masks come
    from the layers and the seed alone, drawn in layer order from default_rng(spec.seed);
    then one source fills the conductances: that rng after the masks (uniform, by default
    over the middle half of each device's range), the constant, or the one from_file
    network file, labels included, which net.spec.init_weights names (see load_network)."""
    rng = np.random.default_rng(spec.seed)
    net = Network(spec, dt)
    for q, (pre, post) in enumerate(zip(spec.layers, spec.layers[1:]), start=1):
        net.matrices.append(_Matrix(post.circuit_model, post.device_model, post.plastic,
                                    _make_mask(post, pre.neurons, post.neurons, rng, q), dt))
    if spec.init_weights is not None and spec.init_weights.kind == "from_file":
        _load_conductances(net, spec.init_weights.path)
        return net
    for matrix in net.matrices:
        lo, hi = matrix.device.g_min, matrix.device.g_max
        quarter = 0.25 * (hi - lo)
        init = spec.init_weights or WeightInit("uniform", lo=lo + quarter, hi=hi - quarter)
        g = rng.uniform(init.lo, init.hi, len(matrix.pairs)) if init.kind == "uniform" \
            else init.value
        matrix.g[matrix.mask] = np.clip(g, lo, hi)
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
            import logging  # imported here only: it costs every import of the engine a few ms
            logging.getLogger(__name__).info("redrew sparse column %d of layer %d %d time(s) "
                                             "to guarantee an incoming connection", j, q, redraws)
    return mask


def schedule_input(net: Network, trains: list[SpikeTrain], at_step: int = 0) -> None:
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
    """The synapses a matrix engages at one step, for the B samples of lines B times as
    wide as its layers (sample b's i at b * n + i), BLOCK at a time in sample-major,
    row-major order; yields each slice's pre and post line indices and matrix indices.

    Each sample has two column patterns, the columns a row engages with its pre line silent
    and active. The candidate (sample, pre) rows are those whose pre line is active, and
    every row of a sample whose silent pattern engages a column; a row takes the pattern its
    pre line picks, ANDed with its connections; these flags, a byte per candidate synapse,
    are searched 64 blocks at a time, so no index array outgrows that."""
    n_pre, n_post = matrix.mask.shape
    batch = len(post_active) // n_post
    patterns = matrix.engaged_lut[:, post_active.view(np.uint8).reshape(batch, n_post)]
    candidates = (pre_active | patterns[0].any(axis=1).repeat(n_pre)).nonzero()[0]
    sample, pre = np.divmod(candidates, n_pre) if batch > 1 else (0, candidates)
    hit = (patterns[pre_active[candidates].view(np.uint8), sample] & matrix.mask[pre]).ravel()
    for top in range(0, len(hit), 64 * BLOCK):
        flat = hit[top:top + 64 * BLOCK].nonzero()[0] + top
        for lo in range(0, len(flat), BLOCK):
            k, post = np.divmod(flat[lo:lo + BLOCK], n_post)
            yield candidates[k], sample[k] * n_post + post if batch > 1 else post, pre[k], post


def _synapse_pass(matrix: _Matrix, q: int, pre_out: _Line, post1_in: _Line,
                  post2_out: _Line, step: int, dt: float, program: bool, record: bool):
    """The synapse kernel: one matrix (layer q) for one timestep, on lines one or more
    samples wide. Each slice of engaged synapses (`_engaged`) gets its presence codes
    2 * pre_active + post_active (PRESENCE_BY_CODE), conductances and V_TB (one array
    evaluation) from the slice alone; its loop runs on Python floats, one per circuit kind,
    with mode_from_voltage and transmit_current read once per pass. Yields, per slice,
    (rows, cols, modes, currents, pulses): each engaged synapse's pre and post line index,
    mode code if `record` and current, and, if `program`, the pulses as (i, j, direction,
    |V_TB|). The caller applies a slice's pulses before the next is made, so BLOCK bounds a
    step's pulses; a V_TB failure raises once the slices before it are taken and applied."""
    circuit, plastic = matrix.circuit, matrix.plastic_lut
    mode_of, current_of = mode_from_voltage, transmit_current
    pre_active, v_pre = pre_out.state(step, circuit.rest_v_pre)
    post_active, v_post1 = post1_in.state(step, circuit.rest_v_post1)
    v_post2 = post2_out.state(step, circuit.rest_v_post2)[1] if matrix.needs_post2 else None
    for rows, cols, i, post in _engaged(matrix, pre_active, post_active):
        code = 2 * pre_active[rows] + post_active[cols]
        g = matrix.g[i, post]
        columns = {"G": g, "V_pre": v_pre[rows], "V_post1": v_post1[cols]}
        if matrix.needs_post2:
            columns["V_post2"] = v_post2[cols]
        env = dict(matrix.base_env)
        v_tb, failed = expr.evaluate_array(circuit.v_app, {**env, **columns})
        n = int(failed.argmax()) if np.count_nonzero(failed) else len(rows)
        out, mode_codes, pulses = [], [], []
        try:
            # zip stops at the first synapse whose V_TB failed; synapse len(out) is the current one
            if circuit.ex_eqs is None:  # ohmic: transmit_current reads V_TB alone
                for c, v, gk in zip(code.tolist(), v_tb[:n].tolist(), g.tolist()):
                    env["V_TB"] = v
                    if plastic[c]:
                        mode = mode_of(circuit, PRESENCE_BY_CODE[c], v)
                        if program and mode in PROGRAMMING:
                            pulses.append((int(i[len(out)]), int(post[len(out)]), mode, abs(v)))
                    else:  # engaged but not plastic: the presence is in transmit_policy
                        mode = TRANSMIT
                    out.append(current_of(circuit, gk, env, mode))
                    if record:
                        mode_codes.append(mode.code)
            else:  # ex_eqs reads G, bound to the very float transmit_current gets, and lines too
                ex_v = (zip(*(columns[name].tolist() for name in matrix.ex_lines))
                        if matrix.ex_lines else itertools.repeat(()))
                for c, v, gk, volts in zip(code.tolist(), v_tb[:n].tolist(), g.tolist(), ex_v):
                    env["V_TB"], env["G"] = v, gk
                    if volts:
                        env.update(zip(matrix.ex_lines, volts))
                    if plastic[c]:
                        mode = mode_of(circuit, PRESENCE_BY_CODE[c], v)
                        if program and mode in PROGRAMMING:
                            pulses.append((int(i[len(out)]), int(post[len(out)]), mode, abs(v)))
                    else:
                        mode = TRANSMIT
                    out.append(current_of(circuit, gk, env, mode))
                    if record:
                        mode_codes.append(mode.code)
            if n < len(rows):  # the scalar evaluation raises that synapse's own text
                expr.evaluate(circuit.v_app, {**matrix.base_env, **{
                    name: column[n].item() for name, column in columns.items()}})
        except expr.ExprError as err:
            raise SimulationError(f"synapse (layer {q}, pre {i[len(out)]}, post "
                                  f"{post[len(out)]}) at t={step * dt}: {err}") from err
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
    pulses are applied once its currents are added, so BLOCK bounds a step's pulses, then one
    walk integrates, fire-checks and emits each neuron: exact, as a runtime that programs is one
    sample wide and no neuron reads g. A failure leaves the slices and neurons before it stepped."""
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
        model, step_neuron, fires = post_layer.spec.neuron_model, integrate, fire_check
        for j, (state, current) in enumerate(zip(post_layer.states, total.tolist())):
            try:
                step_neuron(model, state, current, step, dt)
            except (expr.ExprError, ValueError) as err:
                raise SimulationError(
                    f"neuron (layer {q}, index {j}) at t={step * dt}: {err}") from err
            if fires(model, state, step, dt):
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
    """Trigger a firing neuron's outputs, visible from the next step, in its sample."""
    layer = net.layers[q]
    origin = step + 1
    if layer.post1 is not None:
        layer.post1_in.trigger(j, origin, layer.post1)
    if layer.post2 is not None:
        layer.pre_out.trigger(j, origin, layer.post2)
    # NetworkSpec checked that every inhibiting layer has an inhib waveform
    for a, b in net.spec.inh_conn:
        if a == q and (a != b or layer.spec.neurons > 1):  # a lone neuron has no peer
            n = net.layers[b].spec.neurons
            peers = np.arange(n) + j // layer.spec.neurons * n
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
    pre, post = (grid_samples(pre_waveform, dt, "pre_waveform"),
                 grid_samples(post_waveform, dt, "post_waveform"))
    pre_out, post1_in, no_post2 = _Line(len(deltas)), _Line(len(deltas)), _Line(len(deltas))
    ends = []
    for m, d in enumerate(deltas):
        pre_o, post_o = max(0, -d), max(0, d)
        pre_out.trigger(m, pre_o, pre)
        post1_in.trigger(m, post_o, post)
        ends.append(max(pre_o + len(pre), post_o + len(post)))
    n_pot, n_dep = [0] * len(deltas), [0] * len(deltas)
    for k in range(max(ends, default=0)):
        for *_, found in _synapse_pass(matrix, 1, pre_out, post1_in, no_post2, k, dt, True, False):
            pulses = [p for p in found if k < ends[p[0]]]
            _program(matrix, pulses)
            for m, _, mode, _ in pulses:
                (n_pot if mode is SynapseMode.POTENTIATE else n_dep)[m] += 1
    g = matrix.g.diagonal()
    return [PairingPoint(d, d * dt, float(g[m]) - g0, float(g[m]), n_pot[m], n_dep[m])
            for m, d in enumerate(deltas)]


@dataclass
class TrainResult:
    training_accuracy: float


def _present(net: Network, trains, steps: int, at_step: int, learn: bool) -> None:
    schedule_input(net, trains, at_step)
    for k in range(at_step, at_step + steps):
        run_timestep(net, k, learn=learn)


def _present_frozen(net: Network, trains: list, steps: int) -> list[int]:
    """Present samples (input trains each) frozen, each as if alone from reset_transient,
    and return their label-layer counts. They step together on a runtime built from
    net.spec, with net's matrices once per sample, and only their spike times and energy
    terms reach net's neurons, in sample, then step order; net's state stays reset."""
    net.reset_transient()
    batch = Network(net.spec, net.dt, len(trains))
    batch.matrices = net.matrices * len(trains)
    _present(batch, [train for sample in trains for train in sample], steps, 0, learn=False)
    for layer, wide in zip(net.layers, batch.layers):
        for k, done in enumerate(wide.states):
            state = layer.states[k % layer.spec.neurons]
            state.spike_times += done.spike_times
            for term in done.energy:
                state.energy += term
    return [len(s.spike_times) for s in batch.layers[net.label_layer].states]


def _check_widths(net: Network, dataset) -> None:
    """Raise before any sample runs unless each has one feature per input neuron."""
    width = net.layers[0].spec.neurons
    for idx, sample in enumerate(dataset):
        if len(sample.features) != width:
            raise ValueError(
                f"sample {idx} has {len(sample.features)} features, input layer has {width}")


def _frozen_counts(net: Network, dataset, sim: SimConfig, encoder, phase: int) -> np.ndarray:
    """The frozen pass: row i holds the label-layer spike counts of sample i,
    presented alone with plasticity off, from reset_transient, on its own
    default_rng([sim.seed, phase, i]).

    Chunks of up to FROZEN_BATCH samples run through `_present_frozen`, a failing one again
    as chunks of one: the first failing sample raises, and only those before it are logged.
    Sums run in one-sample order and energy adds per neuron in sample, then step order, so
    counts and logs end bit for bit as with chunks of one. A chunk's step
    holds BLOCK of its engaged synapses at a time, however many samples share it, and
    builds no programming pulses: plasticity is off, so none would be applied."""
    _check_widths(net, dataset)
    counts = np.zeros((len(dataset), net.spec.layers[net.label_layer].neurons), dtype=int)
    steps = num_steps(sim.T_sample, sim.dt)

    def encode(idx):
        rng = np.random.default_rng([sim.seed, phase, idx])
        return encoder.encode(dataset[idx].features, sim.T_sample, sim.dt, rng)

    for start in range(0, len(dataset), FROZEN_BATCH):
        chunk = range(start, min(start + FROZEN_BATCH, len(dataset)))
        try:
            counts[start:chunk.stop].flat = _present_frozen(net, list(map(encode, chunk)), steps)
        except Exception:
            if len(chunk) == 1:  # the failing sample's own error
                raise
            for idx in chunk:
                counts[idx] = _present_frozen(net, [encode(idx)], steps)
    return counts


def train(net: Network, dataset, sim: SimConfig, encoder) -> TrainResult:
    """STDP training loop: shuffled presentations until N total steps elapse,
    then label assignment and a frozen accuracy pass over the training set."""
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
    assign_labels(net, dataset, sim, encoder)
    return TrainResult(infer(net, dataset, sim, encoder).accuracy)


def assign_labels(net: Network, dataset, sim: SimConfig, encoder) -> list[int | None]:
    """Give each label-layer neuron the class it spikes most for: ties go to
    the lower class, and a neuron that never spikes stays unlabeled (None)."""
    counts = _frozen_counts(net, dataset, sim, encoder, phase=1)
    classes = sorted({s.label for s in dataset if s.label is not None})
    # row 0 stays zero, so a neuron whose best class count is 0 takes None
    member = np.array([[0] * len(dataset)] + [[s.label == c for s in dataset]
                                               for c in classes], dtype=int)
    choices = [None, *classes]
    net.labels = [choices[k] for k in (member @ counts).argmax(axis=0).tolist()]
    return net.labels


@dataclass
class InferResult:
    accuracy: float
    predictions: list[int | None]
    confusion: dict[tuple[int, int | None], int]


def infer(net: Network, dataset, sim: SimConfig, encoder) -> InferResult:
    """Frozen inference: per sample, predict the label of the most active
    label-layer neuron (ties to the lowest index; silence predicts nothing)."""
    counts = _frozen_counts(net, dataset, sim, encoder, phase=2)
    # a leading zero column wins only when the sample left every neuron silent
    choices = [None, *net.labels]
    winners = np.pad(counts, ((0, 0), (1, 0))).argmax(axis=1)
    predictions = [choices[k] for k in winners.tolist()]
    confusion: dict[tuple[int, int | None], int] = {}
    for key in [(s.label, pred) for s, pred in zip(dataset, predictions) if s.label is not None]:
        confusion[key] = confusion.get(key, 0) + 1
    total = sum(confusion.values())
    correct = sum(n for (label, pred), n in confusion.items() if pred == label)
    return InferResult(correct / total if total else 0.0, predictions, confusion)


def save_network(net: Network, path) -> None:
    """Write format v1: the line `spikeforge-net v1`, a `q,i,j,g` line per
    synapse (matrix q from 1, pre i, post j, in `matrix.pairs` order, g as
    repr(float)), then `label,n,c|none` per label-layer neuron n. load_network
    takes the lines in any order, and of two lines with one key the last.
    The lines are made and written one block of BLOCK at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(NET_FORMAT + "\n")
        for q, matrix in enumerate(net.matrices, start=1):
            for lo in range(0, len(matrix.pairs), BLOCK):
                rows, cols = matrix.pairs[lo:lo + BLOCK].T
                fh.write("".join([f"{q},{i},{j},{g!r}\n" for i, j, g in zip(
                    rows.tolist(), cols.tolist(), matrix.g[rows, cols].tolist())]))
        fh.writelines(f"label,{n},{'none' if label is None else label}\n"
                      for n, label in enumerate(net.labels))


def load_network(path, spec: NetworkSpec, dt: float) -> Network:
    """build_network of spec with from_file(path) as its init, so net.spec.init_weights names
    the one file read: the topology comes from the spec's layers and seed, the weights and
    labels from a save_network file (`spikeforge-net v1`, then `q,i,j,g` and `label,n,c|none`
    lines in any order, read BLOCK lines at a time, blank lines skipped, the last of two lines
    with one key winning). NetworkFileError unless the file is UTF-8, its synapses match the
    topology, its labels cover the label layer and each g lies in its device's range."""
    return build_network(replace(spec, init_weights=WeightInit("from_file", path=str(path))), dt)


def _load_conductances(net: Network, path) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            _read_conductances(net, path, fh)
    except UnicodeDecodeError as err:
        raise NetworkFileError(f"{path}: not UTF-8 text ({err.reason})") from None


def _read_conductances(net: Network, path, fh) -> None:
    header = fh.readline()
    if not header:
        raise NetworkFileError(f"{path}: empty file")
    header = header.removesuffix("\n")
    if header != NET_FORMAT:
        if header.startswith("spikeforge-net "):
            raise NetworkFileError(
                f"{path}: file format {header!r} not supported; this build reads "
                f"{NET_FORMAT!r}")
        raise NetworkFileError(f"{path}: not a spikeforge network file")
    # each index must read str(k), the one text of k that save_network writes
    N = max(len(net.layers), *(layer.spec.neurons for layer in net.layers))
    names = np.array(list(map(str, range(N))), dtype=object)
    # each synapse's code (q * N + i) * N + j, in matrix.pairs order, then a stop
    codes = np.concatenate([(q * N + matrix.pairs[:, 0]) * N + matrix.pairs[:, 1]
                            for q, matrix in enumerate(net.matrices, start=1)] + [[N ** 3]])
    n, m = len(codes) - 1, len(net.labels)
    g, seen, extra, by_neuron = np.empty(n), np.zeros(n, bool), set(), {}
    end = 1  # lines read; blocks of synapse lines end where save_network's synapse lines end
    while lines := list(itertools.islice(fh, min(BLOCK, n + 1 - end) if end <= n else BLOCK)):
        line, end, block = end, end + len(lines), "".join(lines).removesuffix("\n")
        seps = block.encode().translate(None, _NOT_SEPS) + b"\n"  # a file's last line may lack it
        fields = block.replace("\n", ",").split(",")
        # a block of synapse lines that reads exactly as save_network writes it is taken whole
        with contextlib.suppress(ValueError):  # a conductance that does not convert
            if end <= n + 1 and seps == b",,,\n" * (end - line) and all(
                    fields[c::4] == names[key].tolist()
                    for c, key in enumerate(np.unravel_index(codes[line - 1:end - 1], (N,) * 3))):
                g[line - 1:end - 1], seen[line - 1:end - 1] = list(map(float, fields[3::4])), True
                continue
        _read_lines(path, block.split("\n"), line + 1, codes, N, g, seen, extra, by_neuron)
    if extra or not seen.all():
        raise NetworkFileError(
            f"{path}: synapse set does not match the network topology "
            f"({int(seen.sum()) + len(extra)} entries, expected {n}); file truncated "
            "or from a different network")
    if set(by_neuron) != set(range(m)):
        raise NetworkFileError(f"{path}: label lines do not cover the label layer "
                               f"({len(by_neuron)} entries, expected {m})")
    for q, matrix in enumerate(net.matrices, start=1):
        part, g = g[:len(matrix.pairs)], g[len(matrix.pairs):]
        lo, hi = matrix.device.g_min, matrix.device.g_max
        outside = np.flatnonzero(~((part >= lo) & (part <= hi)))  # nan is outside
        if outside.size:
            (i, j), value = matrix.pairs[outside[0]].tolist(), part[outside[0]].item()
            raise NetworkFileError(
                f"{path}: synapse (layer {q}, pre {i}, post {j}) has conductance {value!r}, "
                f"outside its device range [{lo!r}, {hi!r}]")
        matrix.g[matrix.mask] = part
    net.labels = [by_neuron[k] for k in range(m)]


def _read_lines(path, lines: list[str], lineno: int, codes, N: int, g, seen, extra: set,
                labels: dict) -> None:
    """Read lines from lineno on, one at a time: a synapse line's g goes to its code's place in
    codes, where a later line of its key overwrites it, or its key to extra; a label to labels."""
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if parts[0] == "label":
                if len(parts) != 3:
                    raise ValueError("label line needs 3 fields")
                labels[int(parts[1])] = None if parts[2] == "none" else int(parts[2])
                continue
            if len(parts) != 4:
                raise ValueError("synapse line needs 4 fields")
            q, i, j, value = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as err:
            raise NetworkFileError(f"{path}:{lineno}: corrupt line: {err}") from None
        code = (q * N + i) * N + j if 0 <= q < N and 0 <= i < N and 0 <= j < N else -1
        pos = int(codes.searchsorted(code))  # at most len(g): codes ends with a stop
        if codes[pos] == code:
            g[pos], seen[pos] = value, True
        else:  # a key outside the topology
            extra.add((q, i, j))
