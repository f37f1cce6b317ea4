"""Differential oracle for the engine's synapse kernel.

`full_scan_synapse_pass` is the kernel as it was before presence was
resolved for the whole matrix at once: it visits every connected pair,
classifies its presence one by one and skips the pairs no circuit policy
engages. On seeded random small networks the engine's kernel must give
bit-equal currents, equal modes, the same programming events in the same
order, the same SimulationError when the circuit fails, and the same calls
to the per-synapse functions, so counts traced at those calls hold too.
"""

import itertools

import numpy as np
import pytest

from spikeforge import expr
from spikeforge.engine import (
    MODE_CODES, SimulationError, _line_state, _Matrix, _Sched, _synapse_pass,
)
from spikeforge.expr import parse
from spikeforge.synapse import (
    CircuitModel, PulseFamilyDevice, SpikePresence, SynapseMode, classify_presence,
    mode_from_voltage, transmit_current,
)
from spikeforge.waveform import Waveform

DT = 1e-3
STEP = 10
US = 1e-6
POLICIES = [frozenset(c) for r in range(5) for c in itertools.combinations(SpikePresence, r)]
V_APPS = ("V_pre - V_post1", "V_pre - V_post1 + 0.5 * V_post2", "V_pre / V_post1")
EX_EQS = (None, "G * V_TB + 1e-7 * V_post1")
DEVICE = PulseFamilyDevice.identical((1 * US, 9 * US), (9 * US, 1 * US), 1 * US, 9 * US)


def full_scan_synapse_pass(matrix, q, pre_out, post1_in, post2_out, step, dt):
    circuit = matrix.circuit
    engaged = circuit.plasticity_policy | circuit.transmit_policy
    pre_active, v_pre = _line_state(pre_out, step, dt, circuit.rest_v_pre)
    post_active, v_post1 = _line_state(post1_in, step, dt, circuit.rest_v_post1)
    if matrix.needs_post2:
        _, v_post2 = _line_state(post2_out, step, dt, circuit.rest_v_post2)
    else:
        v_post2 = None

    currents = np.zeros(matrix.g.shape)
    modes = np.zeros(matrix.g.shape, dtype=np.int8)
    events = []
    env = dict(matrix.base_env)
    for i, j in matrix.pairs:
        presence = classify_presence(bool(pre_active[i]), bool(post_active[j]))
        if presence not in engaged:
            continue
        env["V_pre"] = v_pre[i]
        env["V_post1"] = v_post1[j]
        env["V_post2"] = v_post2[j] if v_post2 is not None else circuit.rest_v_post2
        env["G"] = matrix.g[i, j]
        env.pop("V_TB", None)
        try:
            if presence in circuit.plasticity_policy:
                v_tb = expr.evaluate(circuit.v_app, env)
                mode = mode_from_voltage(circuit, presence, v_tb)
                env["V_TB"] = v_tb
                if mode in (SynapseMode.POTENTIATE, SynapseMode.DEPRESS):
                    events.append((i, j, mode, abs(v_tb)))
            else:
                mode = SynapseMode.TRANSMIT
            currents[i, j] = transmit_current(circuit, matrix.g[i, j], env, mode)
        except expr.ExprError as err:
            raise SimulationError(
                f"synapse (layer {q}, pre {i}, post {j}) at t={step * dt}: {err}"
            ) from err
        modes[i, j] = MODE_CODES[mode]
    return currents, modes, events


def random_lines(rng, n):
    """Per-neuron schedule queues: some live at STEP, some expired or not yet due."""
    queues = []
    for _ in range(n):
        queue = []
        for _ in range(rng.integers(0, 3)):
            steps = int(rng.integers(1, 4))
            wf = Waveform(((0.0, rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0])),
                           (steps * DT, rng.uniform(-2.0, 2.0))))
            origin = STEP - int(rng.integers(-1, steps + 2))
            queue.append(_Sched(wf, origin, steps, float(rng.choice([1.0, -1.0]))))
        queues.append(queue)
    return queues


def random_case(rng, transmit, plasticity):
    n_pre, n_post = (int(n) for n in rng.integers(1, 8, size=2))
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
    lines = (random_lines(rng, n_pre), random_lines(rng, n_post), random_lines(rng, n_post))
    return matrix, lines


def outcome(kernel, matrix, lines):
    """The kernel's result (or its error text) and the calls it made, in order,
    to the per-synapse functions it looks up as module globals and to
    expr.evaluate."""
    calls = []

    def logged(name, original):
        def call(*args):
            calls.append((name, [dict(a) if isinstance(a, dict) else a for a in args]))
            return original(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in ("mode_from_voltage", "transmit_current"):
            patch.setitem(kernel.__globals__, name, logged(name, kernel.__globals__[name]))
        patch.setattr(expr, "evaluate", logged("evaluate", expr.evaluate))
        # each kernel gets its own queue lists: _line_state prunes expired schedules
        try:
            result = kernel(matrix, 1, *([list(q) for q in box] for box in lines), STEP, DT)
        except SimulationError as err:
            result = str(err)
    return result, calls


@pytest.mark.parametrize("plasticity", POLICIES, ids=lambda p: "+".join(
    sorted(s.value for s in p)) or "no_plasticity")
def test_engaged_only_kernel_matches_the_full_scan(plasticity):
    rng = np.random.default_rng(POLICIES.index(plasticity))
    seen_modes, errors = set(), 0
    for transmit in POLICIES:
        for _ in range(4):
            matrix, lines = random_case(rng, transmit, plasticity)
            expected, expected_calls = outcome(full_scan_synapse_pass, matrix, lines)
            got, got_calls = outcome(_synapse_pass, matrix, lines)
            assert got_calls == expected_calls
            if isinstance(expected, str):
                assert got == expected
                errors += 1
                continue
            currents, modes, events = got
            assert currents.dtype == expected[0].dtype
            assert currents.tobytes() == expected[0].tobytes()
            assert np.array_equal(modes, expected[1])
            assert events == expected[2]
            seen_modes.update(np.unique(modes[matrix.mask]).tolist())
    # the random cases reach every mode the policies allow, and the error path
    assert seen_modes == {0, 1} | ({2, 3} if plasticity else set())
    assert errors
