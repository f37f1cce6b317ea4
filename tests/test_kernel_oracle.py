"""Differential oracle for the engine's synapse kernel.

`full_scan_synapse_pass` is the kernel as it was before presence was
resolved for the whole matrix at once and V_TB evaluated over it as one
array: it visits every connected pair, classifies its presence one by one,
skips the pairs no circuit policy engages and evaluates V_TB per synapse,
and returns dense current and mode matrices. On seeded random networks of
up to 40 x 12 the engine's kernel, which scans only the candidate rows and
returns the engaged synapses alone, must visit the same synapses in the
same order and, densified, give bit-equal currents and equal modes, the
same programming events in the same order, the same SimulationError when
the circuit fails, and the same calls to the per-synapse functions, so
counts traced at those calls hold too. `run_timestep` must then feed each
neuron the row-order sum of its engaged currents.

The same holds for a batch: B samples share the matrix, on lines B times as
wide (sample b's neuron i at b * n + i). The kernel must then match the full
scan run on each sample's own narrow lines, in sample order.

The kernel walks the engaged synapses engine.BLOCK at a time; each oracle also
runs with the block at 1 and 3, so slices split rows, samples and the
neuron sums, and a failing synapse can lie in a later slice than the first.
"""

import functools
import itertools

import numpy as np
import pytest

from spikeforge import engine, expr
from spikeforge.engine import (
    LayerSpec, NetworkSpec, SimulationError, WeightInit, _engaged, _Line, _Matrix,
    _synapse_pass, build_network, run_timestep,
)
from spikeforge.expr import parse
from spikeforge.neuron import NeuronModel, SpikeWaveforms
from spikeforge.synapse import (
    PRESENCE_BY_CODE, CircuitModel, PulseFamilyDevice, SpikePresence, SynapseMode,
    mode_from_voltage, transmit_current,
)
from spikeforge.waveform import Waveform, grid_samples

DT = 1e-3
STEP = 10
US = 1e-6
POLICIES = [frozenset(c) for r in range(5) for c in itertools.combinations(SpikePresence, r)]
V_APPS = ("V_pre - V_post1", "V_pre - V_post1 + 0.5 * V_post2", "V_pre / V_post1",
          "2 * tanh(V_pre) - sqrt(V_post1 + 1)")
EX_EQS = (None, "G * V_TB + 1e-7 * V_post1", "G * V_TB * (1 + 0.5 * tanh(V_TB))")
DEVICE = PulseFamilyDevice.identical((1 * US, 9 * US), (9 * US, 1 * US), 1 * US, 9 * US)
BLOCKS = (1, 3, engine.BLOCK)


def classify_presence(pre_active: bool, post_active: bool) -> SpikePresence:
    return PRESENCE_BY_CODE[2 * pre_active + post_active]


def full_scan_synapse_pass(matrix, q, pre_out, post1_in, post2_out, step, dt):
    circuit = matrix.circuit
    engaged = circuit.plasticity_policy | circuit.transmit_policy
    pre_active, v_pre = pre_out.state(step, circuit.rest_v_pre)
    post_active, v_post1 = post1_in.state(step, circuit.rest_v_post1)
    if matrix.needs_post2:
        _, v_post2 = post2_out.state(step, circuit.rest_v_post2)
    else:
        v_post2 = None

    currents = np.zeros(matrix.g.shape)
    modes = np.zeros(matrix.g.shape, dtype=np.int8)
    events = []
    visited = []
    env = dict(matrix.base_env)
    for i, j in matrix.pairs:
        presence = classify_presence(bool(pre_active[i]), bool(post_active[j]))
        if presence not in engaged:
            continue
        visited.append((i, j))
        env["V_pre"] = v_pre[i]
        env["V_post1"] = v_post1[j]
        env["V_post2"] = v_post2[j] if v_post2 is not None else circuit.rest_v_post2
        env["G"] = matrix.g[i, j]
        env.pop("V_TB", None)
        try:
            v_tb = expr.evaluate(circuit.v_app, env)
            env["V_TB"] = v_tb
            if presence in circuit.plasticity_policy:
                mode = mode_from_voltage(circuit, presence, v_tb)
                if mode in (SynapseMode.POTENTIATE, SynapseMode.DEPRESS):
                    events.append((i, j, mode, abs(v_tb)))
            else:
                mode = SynapseMode.TRANSMIT
            currents[i, j] = transmit_current(circuit, matrix.g[i, j], env, mode)
        except expr.ExprError as err:
            raise SimulationError(
                f"synapse (layer {q}, pre {i}, post {j}) at t={step * dt}: {err}"
            ) from err
        modes[i, j] = mode.code
    return currents, modes, events, visited


def engine_pass(matrix, q, pre_out, post1_in, post2_out, step, dt, program=True,
                record=True):
    """The engine's kernel with its slices joined: (rows, cols, modes, currents,
    events), each over all the engaged synapses in yield order."""
    joined = [], [], [], [], []
    for part in _synapse_pass(matrix, q, pre_out, post1_in, post2_out, step, dt, program,
                              record):
        for whole, piece in zip(joined, part):
            whole += list(piece)
    rows, cols, *rest = joined
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), *rest)


def densified(matrix, rows, cols, codes, currents):
    """The engine kernel's sparse return as the full scan's dense matrices."""
    dense_currents = np.zeros(matrix.g.shape)
    dense_modes = np.zeros(matrix.g.shape, dtype=np.int8)
    dense_currents[rows, cols] = currents
    dense_modes[rows, cols] = codes
    return dense_currents, dense_modes


class ScannedRows(np.ndarray):
    """A connection mask that records the rows each integer index takes from it, one
    list per call: `_engaged` takes its candidate rows as matrix.mask[pre]."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
            self.scans.append(key.tolist())
        return np.asarray(super().__getitem__(key))


def scanned_rows(matrix):
    """Put matrix.mask in a ScannedRows view; returns the list its scans go on."""
    matrix.mask = matrix.mask.view(ScannedRows)
    matrix.mask.scans = []
    return matrix.mask.scans


def random_line(rng, n):
    """A spike line with random triggers per neuron, from origins before, at
    and after STEP: some live at STEP, some expired or not yet due."""
    line = _Line(n)
    for idx in range(n):
        for _ in range(rng.integers(0, 3)):
            steps = int(rng.integers(1, 4))
            wf = Waveform(((0.0, rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0])),
                           (steps * DT, rng.uniform(-2.0, 2.0))))
            origin = STEP - int(rng.integers(-1, steps + 2))
            line.trigger(idx, origin, grid_samples(wf, DT), float(rng.choice([1.0, -1.0])))
    return line


def random_case(rng, transmit, plasticity):
    # half the shapes small, half up to 40 x 12, past the 7 x 7 of the small ones
    high = (8, 8) if rng.integers(2) else (41, 13)
    n_pre, n_post = (int(rng.integers(1, h)) for h in high)
    conn = rng.choice(["all_to_all", "one_to_one", "sparse"])
    if conn == "all_to_all":
        mask = np.ones((n_pre, n_post), dtype=bool)
    elif conn == "one_to_one":
        n_post = n_pre
        mask = np.eye(n_pre, dtype=bool)
    else:
        mask = rng.random((n_pre, n_post)) < 0.5
    ex_eqs = EX_EQS[rng.integers(len(EX_EQS))]
    circuit = CircuitModel(
        v_app=parse(V_APPS[rng.integers(len(V_APPS))]), v_th_pos=1.0, v_th_neg=1.0,
        transmit_policy=transmit, plasticity_policy=plasticity,
        ex_eqs=None if ex_eqs is None else parse(ex_eqs),
        conduct_during_plasticity=bool(rng.integers(2)),
        rest_v_post1=float(rng.choice([0.0, 0.25])), rest_v_post2=0.1)
    matrix = _Matrix(circuit, DEVICE, True, mask, DT)
    matrix.g[mask] = rng.uniform(1 * US, 9 * US, size=int(mask.sum()))
    lines = (random_line(rng, n_pre), random_line(rng, n_post), random_line(rng, n_post))
    return matrix, lines


def outcome(kernel, matrix, lines):
    """The kernel's result (or its error text) and the calls it made, in order,
    to the per-synapse functions it looks up as module globals and to
    expr.evaluate for ex_eqs. Each env is shown as the bindings those calls
    read: V_TB, and the names ex_eqs reads."""
    calls = []
    circuit = matrix.circuit
    reads = {"V_TB"} | (set() if circuit.ex_eqs is None else expr.free_vars(circuit.ex_eqs))

    def logged(name, original):
        def call(*args):
            if args[0] is not circuit.v_app:
                calls.append((name, [{k: v for k, v in a.items() if k in reads}
                                     if isinstance(a, dict) else a for a in args]))
            return original(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        # the full scan looks them up here, the engine's kernel in its module
        for scope in (globals(), _synapse_pass.__globals__):
            for name in ("mode_from_voltage", "transmit_current"):
                patch.setitem(scope, name, logged(name, scope[name]))
        patch.setattr(expr, "evaluate", logged("evaluate", expr.evaluate))
        try:
            result = kernel(matrix, 1, *lines, STEP, DT)
        except SimulationError as err:
            result = str(err)
    return result, calls


def engaged_before_the_error(calls):
    """How many synapses a failing pass took before its failing one: one
    transmit_current call each (ex_eqs here cannot fail)."""
    return sum(name == "transmit_current" for name, _ in calls)


@pytest.mark.parametrize("plasticity", POLICIES, ids=lambda p: "+".join(
    sorted(s.value for s in p)) or "no_plasticity")
def test_engaged_only_kernel_matches_the_full_scan(plasticity, monkeypatch):
    rng = np.random.default_rng(POLICIES.index(plasticity))
    seen_modes, errors, late_errors, scanned_fewer = set(), 0, 0, 0
    for transmit in POLICIES:
        for _ in range(4):
            matrix, lines = random_case(rng, transmit, plasticity)
            scanned = scanned_rows(matrix)
            expected, expected_calls = outcome(full_scan_synapse_pass, matrix, lines)
            for block in BLOCKS:
                monkeypatch.setattr(engine, "BLOCK", block)
                got, got_calls = outcome(engine_pass, matrix, lines)
                assert got_calls == expected_calls
                if isinstance(expected, str):
                    assert got == expected
                    late_errors += engaged_before_the_error(got_calls) >= block
                    continue
                rows, cols, codes, currents, events = got
                assert list(zip(rows.tolist(), cols.tolist())) == expected[3]
                assert len(codes) == len(currents) == len(rows)
                dense_currents, dense_modes = densified(matrix, rows, cols, codes, currents)
                assert dense_currents.dtype == expected[0].dtype
                assert dense_currents.tobytes() == expected[0].tobytes()
                assert np.array_equal(dense_modes, expected[1])
                assert events == expected[2]
            # a frozen step, in slices of 3, makes the same calls, modes and currents, and
            # no events; unrecorded, as run_timestep makes it unless asked, it has no modes
            monkeypatch.setattr(engine, "BLOCK", 3)
            frozen, frozen_calls = outcome(functools.partial(engine_pass, program=False),
                                           matrix, lines)
            plain, plain_calls = outcome(functools.partial(
                engine_pass, program=False, record=False), matrix, lines)
            assert frozen_calls == plain_calls == expected_calls
            if isinstance(expected, str):
                assert frozen == plain == expected
                errors += 1
                continue
            assert frozen[4] == plain[4] == plain[2] == []
            assert [np.asarray(part).tobytes() for part in frozen[:4]] == [
                np.asarray(part).tobytes() for part in got[:4]]
            assert [np.asarray(plain[k]).tobytes() for k in (0, 1, 3)] == [
                np.asarray(got[k]).tobytes() for k in (0, 1, 3)]
            seen_modes.update(np.unique(dense_modes[matrix.mask]).tolist())
            scanned_fewer += len(scanned[-1]) < matrix.mask.shape[0]
    # the random cases reach every mode the policies allow, the error path, and
    # with small blocks a failing synapse past the first slice
    assert seen_modes == {0, 1} | ({2, 3} if plasticity else set())
    assert errors and late_errors
    if SpikePresence.NONE not in plasticity:
        # some transmit policies and post lines leave a silent pre row unscanned
        assert scanned_fewer


def widened(lines):
    """One line as wide as all of lines together: sample b's neuron i at b * n + i."""
    n = lines[0].n
    wide = _Line(len(lines) * n)
    for step in set().union(*(line.pending for line in lines)):
        cells = [line.pending.get(step, (np.zeros(n, dtype=bool), np.zeros(n)))
                 for line in lines]
        wide.pending[step] = tuple(np.concatenate(part) for part in zip(*cells))
    return wide


def batched_full_scan(matrix, samples):
    """The full scan of each sample's own lines, in sample order, as one batched
    result: the visited pairs shifted by the sample offsets, the dense currents
    and modes placed block-diagonally, the events and the calls one after the
    other; or the first failing sample's error text and the calls up to it."""
    (n_pre, n_post), batch = matrix.mask.shape, len(samples)
    currents = np.zeros((batch * n_pre, batch * n_post))
    modes = np.zeros(currents.shape, dtype=np.int8)
    events, visited, calls = [], [], []
    for b, lines in enumerate(samples):
        result, made = outcome(full_scan_synapse_pass, matrix, lines)
        calls += made
        if isinstance(result, str):
            return (result, b), calls
        block = np.s_[b * n_pre:(b + 1) * n_pre, b * n_post:(b + 1) * n_post]
        currents[block], modes[block] = result[0], result[1]
        events += result[2]
        visited += [(i + b * n_pre, j + b * n_post) for i, j in result[3]]
    return (currents, modes, events, visited), calls


@pytest.mark.parametrize("batch", [2, 3])
@pytest.mark.parametrize("plasticity", POLICIES[::3], ids=lambda p: "+".join(
    sorted(s.value for s in p)) or "no_plasticity")
def test_batched_kernel_matches_the_full_scan_per_sample(plasticity, batch, monkeypatch):
    rng = np.random.default_rng([batch, POLICIES.index(plasticity)])
    seen_modes, failed_in, scanned_fewer = set(), set(), 0
    for transmit in POLICIES:
        for _ in range(3):
            matrix, lines = random_case(rng, transmit, plasticity)
            scanned = scanned_rows(matrix)
            n_pre, n_post = matrix.mask.shape
            samples = [lines] + [(random_line(rng, n_pre), random_line(rng, n_post),
                                  random_line(rng, n_post)) for _ in range(batch - 1)]
            # samples whose own scan fails go last, so a batch can fail past its first sample
            samples.sort(key=lambda sample: isinstance(
                outcome(full_scan_synapse_pass, matrix, sample)[0], str))
            expected, expected_calls = batched_full_scan(matrix, samples)
            wide = tuple(map(widened, zip(*samples)))
            for block in BLOCKS:
                monkeypatch.setattr(engine, "BLOCK", block)
                got, got_calls = outcome(engine_pass, matrix, wide)
                assert got_calls == expected_calls
                if isinstance(expected[0], str):
                    assert got == expected[0]
                    continue
                rows, cols, codes, currents, events = got
                assert list(zip(rows.tolist(), cols.tolist())) == expected[3]
                dense_currents = np.zeros(expected[0].shape)
                dense_modes = np.zeros(expected[1].shape, dtype=np.int8)
                dense_currents[rows, cols], dense_modes[rows, cols] = currents, codes
                assert dense_currents.tobytes() == expected[0].tobytes()
                assert np.array_equal(dense_modes, expected[1])
                assert events == expected[2]
            if isinstance(expected[0], str):
                failed_in.add(expected[1])
                continue
            seen_modes.update(codes)
            scanned_fewer += len(scanned[-1]) < batch * n_pre
    # every mode the policies allow, a failure past the first sample, and scans that
    # leave a silent pre row out
    assert seen_modes | {0} == {0, 1} | ({2, 3} if plasticity else set())
    assert failed_in - {0}
    if SpikePresence.NONE not in plasticity:
        assert scanned_fewer


def test_a_silent_pre_row_is_scanned_only_in_a_sample_whose_post_lines_engage_it():
    """A 2-sample step, sample 0's post lines silent and sample 1's with one active:
    under every pair of policies the kernel scans each sample's active-pre rows, and all
    n_pre rows of a sample where a silent pre line and one of its post lines make a
    presence that a policy engages."""
    n_pre, n_post = 5, 3
    pre_active = np.array([1, 0, 1, 0, 0, 0, 1, 0, 0, 1], dtype=bool)
    post_active = np.array([0, 0, 0, 0, 1, 0], dtype=bool)
    reached = set()
    for transmit, plasticity in itertools.product(POLICIES, POLICIES):
        circuit = CircuitModel(v_app=parse("V_pre"), v_th_pos=1.0, v_th_neg=1.0,
                               transmit_policy=transmit, plasticity_policy=plasticity)
        matrix = _Matrix(circuit, DEVICE, True, np.ones((n_pre, n_post), dtype=bool), DT)
        scanned = scanned_rows(matrix)
        list(_engaged(matrix, pre_active, post_active))
        expected, full = [], []
        for b in range(2):
            posts = post_active[b * n_post:(b + 1) * n_post].tolist()
            full.append(any(classify_presence(False, p) in transmit | plasticity for p in posts))
            expected += (list(range(n_pre)) if full[-1]
                         else np.flatnonzero(pre_active[b * n_pre:(b + 1) * n_pre]).tolist())
        assert scanned == [expected], (transmit, plasticity)
        reached.add(tuple(full))
    assert reached == {(False, False), (False, True), (True, True)}


@pytest.mark.parametrize("n_pre, n_post, seed", [(12, 1, 6), (40, 1, 1), (9, 3, 2),
                                                 (30, 12, 3)])
def test_run_timestep_sums_each_neuron_input_in_row_order(n_pre, n_post, seed, monkeypatch):
    """With no inhibition, a neuron's input is 0.0 plus its engaged currents,
    added one at a time in row order, also for a one-column layer with many
    engaged inputs, where a pairwise sum would round differently, and across
    the slices of a small block."""
    for block in BLOCKS:
        monkeypatch.setattr(engine, "BLOCK", block)
        assert_row_order_sums(n_pre, n_post, seed)


def assert_row_order_sums(n_pre, n_post, seed):
    rng = np.random.default_rng(seed)
    pre = Waveform(((0.0, 0.7), (2 * DT, 0.7)))
    circuit = CircuitModel(v_app=parse("V_pre - V_post1"), v_th_pos=1.0, v_th_neg=1.0,
                           transmit_policy=frozenset({SpikePresence.PRE_ONLY}),
                           plasticity_policy=frozenset())
    spec = NetworkSpec(layers=(
        LayerSpec(neurons=n_pre, neuron_model=NeuronModel(
            tau=1.0, thres=1.0, waveforms=SpikeWaveforms(pre=pre))),
        LayerSpec(neurons=n_post, label=True, circuit_model=circuit, device_model=DEVICE,
                  neuron_model=NeuronModel(tau=1.0, thres=1.0, r_mem=1.0))),
        seed=seed, init_weights=WeightInit("uniform", lo=1 * US, hi=9 * US))
    net = build_network(spec, DT)
    layer0, layer1 = net.layers
    active = np.flatnonzero(rng.random(n_pre) < 0.8)
    for i in active:
        layer0.pre_out.trigger(int(i), 0, layer0.pre)
    matrix = net.matrices[0]
    currents, *_ = full_scan_synapse_pass(matrix, 1, layer0.pre_out, layer1.post1_in,
                                          layer1.pre_out, 0, DT)
    expected = []
    for j in range(n_post):
        total = 0.0
        for i in active.tolist():
            total += float(currents[i, j])
        expected.append(total)
    trace = run_timestep(net, 0, learn=False, record=True)
    assert trace.currents[0].tobytes() == np.array(expected).tobytes()
    assert len(active) >= 8
    if n_post == 1:
        # seeded so that the order shows: the dense column sum, pairwise
        # over a one-column matrix, rounds differently
        assert expected[0] != float(currents.sum(axis=0)[0])
