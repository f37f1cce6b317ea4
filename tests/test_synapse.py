import dataclasses
import math

import numpy as np
import pytest

from spikeforge.config import load_family_table, load_identical_levels
from spikeforge.engine import stdp_pairing_sweep
from spikeforge.errors import SpecError
from spikeforge.expr import parse
from spikeforge.synapse import (
    PRESENCE_BY_CODE, CircuitModel, PulseFamilyDevice, PulseFamilyTable, SpikePresence,
    SynapseMode, mode_from_voltage, saturates, step_device, transmit_current,
)
from spikeforge.waveform import Waveform, support_steps

US = 1e-6  # microsiemens


def gate_circuit(v_th_pos=1.5, v_th_neg=1.5, **kw):
    """1T-1R-style scheme: pre spike gates the device, post1 programs it."""
    return CircuitModel(
        v_app=parse("V_post1 - V_node1"),
        v_th_pos=v_th_pos, v_th_neg=v_th_neg,
        transmit_policy=frozenset({SpikePresence.PRE_ONLY}),
        plasticity_policy=frozenset({SpikePresence.BOTH}),
        **kw)


def ladder_device(n=9, g_min=1 * US, g_max=9 * US):
    levels = tuple(np.linspace(g_min, g_max, n))
    return PulseFamilyDevice.identical(levels, tuple(reversed(levels)), g_min, g_max)


class TestPresence:
    def test_truth_table(self):
        # the engine's presence code is 2 * pre_active + post_active
        assert PRESENCE_BY_CODE[2 * False + False] is SpikePresence.NONE
        assert PRESENCE_BY_CODE[2 * True + False] is SpikePresence.PRE_ONLY
        assert PRESENCE_BY_CODE[2 * False + True] is SpikePresence.POST_ONLY
        assert PRESENCE_BY_CODE[2 * True + True] is SpikePresence.BOTH


class TestResolveMode:
    """The mode decision, mode_from_voltage, on the gate circuit's policies
    (transmit on pre_only, program on both)."""

    def test_positive_overlap_potentiates(self):
        circuit = gate_circuit()
        assert mode_from_voltage(circuit, SpikePresence.BOTH, 1.7) is SynapseMode.POTENTIATE
        # the thresholds themselves already program
        assert mode_from_voltage(circuit, SpikePresence.BOTH, 1.5) is SynapseMode.POTENTIATE

    def test_negative_overlap_depresses(self):
        circuit = gate_circuit()
        assert mode_from_voltage(circuit, SpikePresence.BOTH, -1.7) is SynapseMode.DEPRESS
        assert mode_from_voltage(circuit, SpikePresence.BOTH, -1.5) is SynapseMode.DEPRESS

    def test_pre_only_below_threshold_transmits(self):
        circuit = gate_circuit()
        assert mode_from_voltage(circuit, SpikePresence.PRE_ONLY, 0.9) is SynapseMode.TRANSMIT
        # pre_only may not program, however high the device voltage
        assert mode_from_voltage(circuit, SpikePresence.PRE_ONLY, 1.7) is SynapseMode.TRANSMIT

    def test_no_spikes_idle(self):
        circuit = gate_circuit()
        assert mode_from_voltage(circuit, SpikePresence.NONE, 0.0) is SynapseMode.IDLE
        assert mode_from_voltage(circuit, SpikePresence.POST_ONLY, 1.7) is SynapseMode.IDLE

    def test_both_below_thresholds_falls_back(self):
        # BOTH is not in transmit_policy here, so sub-threshold overlap idles
        circuit = gate_circuit()
        assert mode_from_voltage(circuit, SpikePresence.BOTH, 1.4999) is SynapseMode.IDLE
        assert mode_from_voltage(circuit, SpikePresence.BOTH, -1.4999) is SynapseMode.IDLE
        # with BOTH also allowed to transmit, it transmits instead
        both = dataclasses.replace(circuit, transmit_policy=frozenset({SpikePresence.BOTH}))
        assert mode_from_voltage(both, SpikePresence.BOTH, 0.4) is SynapseMode.TRANSMIT

    def test_pure_function(self):
        circuit = gate_circuit()
        first = mode_from_voltage(circuit, SpikePresence.BOTH, 1.7)
        for _ in range(5):
            assert mode_from_voltage(circuit, SpikePresence.BOTH, 1.7) is first

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            gate_circuit(v_th_pos=0.0)


class TestTransmitCurrent:
    def test_default_ohmic(self):
        circuit = gate_circuit()
        env = {"V_TB": 0.1}
        got = transmit_current(circuit, 2 * US, env)
        assert got == pytest.approx(0.2e-6)

    def test_idle_passes_nothing(self):
        circuit = gate_circuit()
        assert transmit_current(circuit, 2 * US, {"V_TB": 0.1}, SynapseMode.IDLE) == 0.0

    def test_custom_expression(self):
        circuit = gate_circuit()
        circuit = CircuitModel(
            v_app=circuit.v_app, v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=circuit.transmit_policy,
            plasticity_policy=circuit.plasticity_policy,
            ex_eqs=parse("G * V_TB * V_TB"))
        assert transmit_current(circuit, 1 * US, {"V_TB": 2.0}) == pytest.approx(4e-6)

    def test_plasticity_conducts_by_default(self):
        circuit = gate_circuit()
        got = transmit_current(circuit, 2 * US, {"V_TB": 1.7}, SynapseMode.POTENTIATE)
        assert got == pytest.approx(2 * US * 1.7)

    def test_plasticity_conduction_can_be_disabled(self):
        circuit = gate_circuit(conduct_during_plasticity=False)
        assert transmit_current(
            circuit, 2 * US, {"V_TB": 1.7}, SynapseMode.POTENTIATE) == 0.0


class TestStepIdentical:
    DEVICE = PulseFamilyDevice.identical(
        (1 * US, 2 * US, 3 * US), (3 * US, 2 * US, 1 * US), 1 * US, 3 * US)

    def test_one_step_advance(self):
        assert step_device(self.DEVICE, SynapseMode.POTENTIATE, 0.0, 2 * US) == 3 * US

    def test_clamp_at_maximum(self):
        assert step_device(self.DEVICE, SynapseMode.POTENTIATE, 0.0, 3 * US) == 3 * US
        assert saturates(self.DEVICE, SynapseMode.POTENTIATE, 3 * US)

    def test_snap_to_nearest_then_step(self):
        assert step_device(self.DEVICE, SynapseMode.POTENTIATE, 0.0, 2.4 * US) == 3 * US

    def test_depress_walks_down(self):
        assert step_device(self.DEVICE, SynapseMode.DEPRESS, 0.0, 2 * US) == 1 * US
        assert step_device(self.DEVICE, SynapseMode.DEPRESS, 0.0, 1 * US) == 1 * US

    def test_tie_goes_to_lower_index(self):
        # exactly representable levels so 1.5 is a true tie: snap to 1.0, step to 2.0
        device = PulseFamilyDevice.identical((1.0, 2.0, 3.0), (3.0, 2.0, 1.0), 1.0, 3.0)
        assert step_device(device, SynapseMode.POTENTIATE, 0.0, 1.5) == 2.0

    def test_random_walk_matches_index_oracle(self):
        # ltd = reversed ltp, so a pure index walk is an independent oracle
        device = ladder_device(n=17)
        levels = device.ltp.response[0]
        rng = np.random.default_rng(42)
        idx = 8
        g = levels[idx]
        for _ in range(2000):
            if rng.random() < 0.5:
                direction = SynapseMode.POTENTIATE
                idx = min(idx + 1, len(levels) - 1)
            else:
                direction = SynapseMode.DEPRESS
                idx = max(idx - 1, 0)
            g = step_device(device, direction, 0.0, g)
            assert g == levels[idx]

    def test_amplitude_never_matters(self):
        device = ladder_device()
        for amp in (0.1, 1.0, 10.0):
            assert step_device(device, SynapseMode.POTENTIATE, amp, 2 * US) \
                == step_device(device, SynapseMode.POTENTIATE, 0.0, 2 * US)


class TestStepFamily:
    TABLE_LTP = PulseFamilyTable((0.8, 1.0), ((1 * US, 2 * US, 3 * US),
                                              (1 * US, 4 * US, 9 * US)), True)
    TABLE_LTD = PulseFamilyTable((0.8, 1.0), ((9 * US, 5 * US, 1 * US),
                                              (9 * US, 3 * US, 1 * US)), False)
    DEVICE = PulseFamilyDevice(TABLE_LTP, TABLE_LTD, 1 * US, 9 * US)

    def test_row_then_column_selection(self):
        # amplitude 1.0 row is [1,4,9]; nearest to 2 is 1; advance to 4
        got = step_device(self.DEVICE, SynapseMode.POTENTIATE, 1.0, 2 * US)
        assert got == 4 * US

    def test_clamp_at_row_end(self):
        got = step_device(self.DEVICE, SynapseMode.POTENTIATE, 1.0, 9 * US)
        assert got == 9 * US
        assert saturates(self.DEVICE, SynapseMode.POTENTIATE, 9 * US, 1.0)

    def test_nearest_row_selection(self):
        # 0.89 V is nearer 0.8 than 1.0
        got = step_device(self.DEVICE, SynapseMode.POTENTIATE, 0.89, 1 * US)
        assert got == 2 * US

    def test_negative_amplitude_uses_magnitude(self):
        a = step_device(self.DEVICE, SynapseMode.DEPRESS, -1.0, 9 * US)
        b = step_device(self.DEVICE, SynapseMode.DEPRESS, 1.0, 9 * US)
        assert a == b == 3 * US

    def test_matches_argmin_oracle(self):
        rng = np.random.default_rng(7)
        amps = np.array(self.DEVICE.ltp.amplitudes)
        for _ in range(500):
            g = rng.uniform(1 * US, 9 * US)
            amp = rng.uniform(0.5, 1.3)
            row = np.array(self.DEVICE.ltp.response[int(np.argmin(np.abs(amps - amp)))])
            stepped = row[min(int(np.argmin(np.abs(row - g))) + 1, len(row) - 1)]
            expected = max(stepped, g)  # potentiation never moves down
            assert step_device(self.DEVICE, SynapseMode.POTENTIATE, amp, g) == expected


class TestEffectivePulseVoltage:
    """The programming pulse the synapse kernel derives from V_TB, seen
    through a one-step pairing: the direction comes from the thresholds and
    the amplitude that selects the family row is the full |V_TB|."""

    LTP = PulseFamilyTable((1.0, 1.2), ((1 * US, 2 * US, 3 * US),
                                        (1 * US, 5 * US, 9 * US)), True)
    LTD = PulseFamilyTable((1.0, 1.2), ((9 * US, 5 * US, 1 * US),
                                        (9 * US, 3 * US, 1 * US)), False)
    DEVICE = PulseFamilyDevice(LTP, LTD, 1 * US, 9 * US)
    GATE = Waveform(((0.0, 0.9), (1e-3, 0.9)))

    def pulse(self, v_post1, g0, delta=0, **circuit_kw):
        circuit = gate_circuit(v_th_pos=0.9, v_th_neg=0.9, **circuit_kw)
        post = Waveform(((0.0, v_post1), (1e-3, v_post1)))
        [point] = stdp_pairing_sweep(circuit, self.DEVICE, self.GATE, post,
                                     [delta], 1e-3, g0)
        return point

    def test_full_magnitude_forwarded(self):
        # |V_TB| = 1.2 selects the 1.2 row; the excess over threshold (0.3)
        # would have selected the 1.0 row and stepped to 2 uS
        p = self.pulse(1.2, 1 * US)
        assert (p.n_potentiate, p.n_depress) == (1, 0)
        assert p.final_g == 5 * US

    def test_below_threshold_is_no_event(self):
        p = self.pulse(0.5, 5 * US)
        assert (p.n_potentiate, p.n_depress) == (0, 0)
        assert p.delta_g == 0.0

    def test_negative_symmetry(self):
        p = self.pulse(-1.2, 9 * US)
        assert (p.n_potentiate, p.n_depress) == (0, 1)
        assert p.final_g == 3 * US

    def test_wrong_presence_is_no_event(self):
        # post1 rests at 1.2 V, so V_TB crosses the threshold while only the
        # pre spike is present; pre_only may not program the device
        p = self.pulse(1.2, 1 * US, delta=5, rest_v_post1=1.2)
        assert (p.n_potentiate, p.n_depress) == (0, 0)
        assert p.delta_g == 0.0


class TestBoundsAndMonotonicity:
    def test_fuzz_conductance_never_escapes(self):
        identical = ladder_device(n=12)
        family = TestStepFamily.DEVICE
        rng = np.random.default_rng(123)
        g_i = 5 * US
        g_f = 5 * US
        for _ in range(10_000):
            direction = SynapseMode.POTENTIATE if rng.random() < 0.5 else SynapseMode.DEPRESS
            amp = rng.uniform(0.0, 2.0)
            new_i = step_device(identical, direction, amp, g_i)
            new_f = step_device(family, direction, amp, g_f)
            for new, old, dev in ((new_i, g_i, identical), (new_f, g_f, family)):
                assert dev.g_min <= new <= dev.g_max
                if direction is SynapseMode.POTENTIATE:
                    assert new >= old
                else:
                    assert new <= old
            g_i, g_f = new_i, new_f


# Fig-5(a)-style pairing: a one-timestep gate pulse samples a long bipolar
# post waveform (V+ for 25 ms, V- for 25 ms).
PRE_GATE = Waveform(((0.0, 0.9), (1e-3, 0.9)))
POST_BIPOLAR = Waveform(((0.0, 1.7), (0.025, 1.7), (0.025, -1.7), (0.050, -1.7)))


def oracle_pairing(delta_steps, dt, g0, levels, v_th):
    """Brute-force grid-overlap oracle for the gate scheme.

    Samples both waveforms on the grid with its own piecewise rules, counts
    threshold crossings while both spikes are present, and replays the level
    ladder by index. Returns (delta_g, n_pot, n_dep).
    """
    pre_o = max(0, -delta_steps)
    post_o = pre_o + delta_steps
    idx = int(np.argmin(np.abs(np.array(levels) - g0)))
    n_pot = n_dep = 0
    for k in range(max(pre_o + 1, post_o + 50)):
        pre_on = k == pre_o
        post_on = post_o <= k < post_o + 50
        if not (pre_on and post_on):
            continue
        r = k - post_o
        v = 1.7 if r < 25 else -1.7
        if v >= v_th:
            idx = min(idx + 1, len(levels) - 1)
            n_pot += 1
        elif v <= -v_th:
            idx = max(idx - 1, 0)
            n_dep += 1
    return levels[idx] - g0, n_pot, n_dep


class TestPairingSweep:
    def test_sign_windows_match_oracle(self):
        device = ladder_device(n=33)
        circuit = gate_circuit(v_th_pos=1.5, v_th_neg=1.5)
        dt = 1e-3
        g0 = device.ltp.response[0][16]
        deltas = range(-60, 11)
        points = stdp_pairing_sweep(circuit, device, PRE_GATE, POST_BIPOLAR,
                                    deltas, dt, g0)
        for p in points:
            expected_dg, n_pot, n_dep = oracle_pairing(
                p.delta_steps, dt, g0, device.ltp.response[0], 1.5)
            assert (p.n_potentiate, p.n_depress) == (n_pot, n_dep), p
            assert np.sign(p.delta_g) == np.sign(expected_dg), p
            assert p.delta_g == pytest.approx(expected_dg)
            # the stated windows for this geometry
            if -24 <= p.delta_steps <= 0:
                assert p.delta_g > 0
            elif -49 <= p.delta_steps <= -25:
                assert p.delta_g < 0
            else:
                assert p.delta_g == 0

    def test_family_sweep_amplitude_selection(self):
        # overlap scheme where |V_TB| varies with timing, exercising row choice
        pre = Waveform(((0.0, 0.0), (5e-3, 1.0), (10e-3, 0.0)))
        post = Waveform(((0.0, 1.0), (10e-3, 1.0)))
        circuit = CircuitModel(
            v_app=parse("V_post1 - V_pre"), v_th_pos=0.5, v_th_neg=0.5,
            transmit_policy=frozenset({SpikePresence.PRE_ONLY}),
            plasticity_policy=frozenset({SpikePresence.BOTH}))
        ltp = PulseFamilyTable(
            (0.6, 0.9),
            (tuple(np.linspace(1 * US, 5 * US, 40)),
             tuple(np.linspace(1 * US, 9 * US, 40))), True)
        ltd = PulseFamilyTable(
            (0.6, 0.9),
            (tuple(np.linspace(5 * US, 1 * US, 40)),
             tuple(np.linspace(9 * US, 1 * US, 40))), False)
        device = PulseFamilyDevice(ltp, ltd, 1 * US, 9 * US)
        dt = 1e-3
        points = stdp_pairing_sweep(circuit, device, pre, post, range(-12, 13), dt, 2 * US)
        # independent re-computation with direct sampling and argmin selection
        for p in points:
            pre_o = max(0, -p.delta_steps)
            post_o = pre_o + p.delta_steps
            g = 2 * US
            for k in range(max(pre_o + 10, post_o + 10)):
                pre_on = pre_o <= k < pre_o + 10
                post_on = post_o <= k < post_o + 10
                if not (pre_on and post_on):
                    continue
                r = (k - pre_o) * dt
                v_pre = 1.0 * (r / 5e-3) if r <= 5e-3 else (10e-3 - r) / 5e-3
                v = 1.0 - v_pre
                if v >= 0.5:
                    amps = np.array([0.6, 0.9])
                    row = np.array(ltp.response[int(np.argmin(np.abs(amps - abs(v))))])
                    new = row[min(int(np.argmin(np.abs(row - g))) + 1, len(row) - 1)]
                    g = max(g, new)  # an out-of-reach curve must not pull g down
            assert p.final_g == pytest.approx(g, rel=1e-12), p


class TestSupportSteps:
    def test_exact_multiple(self):
        assert support_steps(0.025, 1e-3) == 25

    def test_fractional_rounds_up(self):
        assert support_steps(0.0255, 1e-3) == 26

    def test_instantaneous(self):
        assert support_steps(0.0, 1e-3) == 0


class TestDeviceValidation:
    def test_identical_rejects_disorder(self):
        with pytest.raises(ValueError):
            PulseFamilyDevice.identical((2 * US, 1 * US), (2 * US, 1 * US), 1 * US, 3 * US)
        with pytest.raises(ValueError):
            PulseFamilyDevice.identical((1 * US, 2 * US), (1 * US, 2 * US), 1 * US, 3 * US)

    def test_identical_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            PulseFamilyDevice.identical((1 * US, 5 * US), (5 * US, 1 * US), 1 * US, 3 * US)

    def test_family_row_count_mismatch(self):
        with pytest.raises(ValueError):
            PulseFamilyTable((0.8,), ((1 * US, 2 * US), (1 * US, 3 * US)), True)

    def test_family_rejects_non_monotone_row(self):
        with pytest.raises(ValueError):
            PulseFamilyTable((0.8,), ((1 * US, 1 * US),), True)

    @pytest.mark.parametrize("make, key, message", [
        (lambda: PulseFamilyTable((), (), True), "response",
         "family table must have at least one row"),
        (lambda: PulseFamilyTable((0.8, 1.0), ((1 * US, 2 * US), ()), True), "response",
         "row 1 is empty"),
        (lambda: dataclasses.replace(TestStepFamily.DEVICE, family_axis="depth"),
         "family_axis", "family_axis must be amplitude or width, got 'depth'"),
        # nan compares false with everything, so it must not pass as in order
        (lambda: PulseFamilyTable((1.0, math.nan, 0.5), ((1 * US,),) * 3, True), "amplitudes",
         "row amplitudes must be strictly ascending"),
    ], ids=["no-rows", "empty-row", "family_axis", "nan-amplitude"])
    def test_rejected_table_texts(self, make, key, message):
        with pytest.raises(SpecError) as err:
            make()
        assert (err.value.key, str(err.value)) == (key, message)

    def test_family_device_table_directions(self):
        good = TestStepFamily.DEVICE
        with pytest.raises(ValueError):
            PulseFamilyDevice(good.ltd, good.ltd, 1 * US, 9 * US)
        with pytest.raises(ValueError):
            PulseFamilyDevice(good.ltp, good.ltp, 1 * US, 9 * US)


class TestCircuitValidation:
    def test_constant_may_not_take_a_kernel_bound_name(self):
        # else v_app would read the constant, not the V_TB the kernel binds
        with pytest.raises(SpecError, match="the synapse kernel binds this name") as err:
            dataclasses.replace(gate_circuit(), v_app=parse("V_post1 - V_TB"),
                                constants=(("V_TB", 0.5),))
        assert err.value.key == "V_TB"

    def test_v_app_may_not_read_an_unknown_name(self):
        with pytest.raises(SpecError, match=r"unknown variable\(s\) \['V_gate'\]") as err:
            dataclasses.replace(gate_circuit(), v_app=parse("V_post1 - V_gate"))
        assert err.value.key == "v_app"

    def test_v_app_may_read_a_constant(self):
        circuit = dataclasses.replace(gate_circuit(), v_app=parse("V_post1 - V_gate"),
                                      constants=(("V_gate", 0.25),))
        assert circuit.base_env(1e-3)["V_gate"] == 0.25

    @pytest.mark.parametrize("name", ["V_node1", "V_node2"])
    def test_one_node_voltage_sets_both(self, name):
        circuit = dataclasses.replace(gate_circuit(), constants=((name, 0.25),))
        assert circuit.base_env(1e-3) == {"V_node1": 0.25, "V_node2": 0.25, "dt": 1e-3}


class TestTableLoaders:
    def test_identical_levels(self, tmp_path):
        p = tmp_path / "levels.csv"
        p.write_text("# ladder\n1e-6\n2e-6\n3e-6\n")
        assert load_identical_levels(p) == (1e-6, 2e-6, 3e-6)

    def test_identical_levels_bad_line(self, tmp_path):
        p = tmp_path / "levels.csv"
        p.write_text("1e-6\nnope\n")
        with pytest.raises(ValueError, match=":2:"):
            load_identical_levels(p)

    def test_family_table(self, tmp_path):
        p = tmp_path / "family.csv"
        p.write_text("0.8,1.0\n1e-6,2e-6,3e-6\n1e-6,4e-6,9e-6\n")
        table = load_family_table(p, ascending=True)
        assert table.amplitudes == (0.8, 1.0)
        assert table.response[1] == (1e-6, 4e-6, 9e-6)

    def test_family_table_too_short(self, tmp_path):
        p = tmp_path / "family.csv"
        p.write_text("0.8,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_family_table(p, ascending=True)

