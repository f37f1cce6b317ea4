import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from spikeforge.config import load_calibration_csv, load_config
from spikeforge.encoding import FixedRateEncoder
from spikeforge.engine import (
    LayerSpec, NetworkSpec, WeightInit, build_network, num_steps, run_timestep, schedule_input,
)
from spikeforge.errors import SpecError
from spikeforge.expr import ExprError, evaluate, parse
from spikeforge.neuron import (
    LEAK, CalibrationResult, NeuronModel, NeuronState, SpikeWaveforms,
    calibrate_from_frequency, fire_check, firing_frequency, integrate,
)
from spikeforge.synapse import CircuitModel, PulseFamilyDevice, SpikePresence
from spikeforge.waveform import Waveform

TUNE_CONFIG = Path(__file__).resolve().parent.parent / "bench" / "configs" / "tune-36x8-family.cfg"


def lif(tau=10e-3, thres=1.0, **kw):
    return NeuronModel(tau=tau, thres=thres, **kw)


def run_constant_drive(model, current, T, dt):
    state = NeuronState(v=model.v_reset)
    n = round(T / dt)
    for k in range(n):
        integrate(model, state, current, k, dt)
        fire_check(model, state, k, dt)
    return state


class TestIntegrate:
    def test_free_decay_tracks_exponential(self):
        tau = 10e-3
        dt = tau / 1000
        model = lif(tau=tau, thres=100.0)
        state = NeuronState(v=1.0)
        for k in range(1000):
            integrate(model, state, 0.0, k, dt)
            exact = math.exp(-(k + 1) * dt / tau)
            assert abs(state.v - exact) / exact < 0.01

    def test_subthreshold_drive_converges_to_fixed_point(self):
        model = lif(tau=1e-3, thres=10.0, r_mem=2.0)
        state = run_constant_drive(model, 3.0, T=20e-3, dt=1e-6)
        assert state.v == pytest.approx(6.0, rel=1e-3)
        assert state.spike_times == []

    def test_refractory_window_lasts_t_refrac_in_steps(self):
        # 9 * 1e-3 + 5e-3 is 0.014000000000000002 s, past 14 * 1e-3: in float
        # seconds the pin also covered step 14
        model = lif(t_refrac=5e-3, v_reset=0.25)
        state = NeuronState(v=1.0)
        assert fire_check(model, state, 9, 1e-3)
        assert state.refractory_until == 14
        for k in range(10, 14):
            integrate(model, state, 100.0, k, 1e-3)
            assert state.v == 0.25, k
        integrate(model, state, 100.0, 14, 1e-3)
        assert state.v == 0.25 + 1e-3 * (100.0 - 0.25) / model.tau

    def test_refractory_clamps_to_reset(self):
        model = lif(t_refrac=5e-3, v_reset=0.25)
        state = NeuronState(v=0.9, refractory_until=10)
        integrate(model, state, 100.0, step=1, dt=1e-3)
        assert state.v == 0.25

    def test_custom_state_equation(self):
        # pure integrator dV/dt = I
        model = lif(state_eqs=parse("I"))
        state = NeuronState(v=0.0)
        integrate(model, state, 2.0, 0, 1e-3)
        assert state.v == pytest.approx(2e-3)

    def test_divergence_detected(self):
        model = lif(state_eqs=parse("1e308"))
        state = NeuronState(v=1e308)
        # the engine's SimulationError names the time; the neuron's own text does not
        with pytest.raises(ValueError, match="^membrane potential diverged to inf$"):
            integrate(model, state, 0.0, 0, dt=1.0)

    def test_energy_accumulates_and_is_monotone(self):
        model = lif(power_expr=parse("V * V / r_mem"))
        state = NeuronState(v=1.0)
        last = 0.0
        for k in range(100):
            integrate(model, state, 0.5, k, 1e-3)
            assert state.energy >= last
            last = state.energy
        assert last > 0

    def test_trajectory_invariant_under_save_restore(self):
        model = lif(tau=5e-3, thres=0.8, t_refrac=1e-3)
        dt = 1e-4
        full = NeuronState()
        trace = []
        for k in range(200):
            integrate(model, full, 1.5, k, dt)
            fire_check(model, full, k, dt)
            trace.append(full.v)
            if k == 99:
                saved = copy.deepcopy(full)
        resumed = saved
        for k in range(100, 200):
            integrate(model, resumed, 1.5, k, dt)
            fire_check(model, resumed, k, dt)
            assert resumed.v == trace[k]


class TestCompiledMembraneEquation:
    """dV/dt is state_eqs or LEAK, compiled once per model with its constants bound."""

    def test_the_leak_gives_the_inline_euler_step_bit_for_bit(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            v, current = (rng.uniform(-1, 1, 2) * 10.0 ** rng.integers(-6, 4, 2)).tolist()
            tau, r_mem, dt = (10.0 ** rng.uniform((-4, -2, -6), (0, 3, -2))).tolist()
            model = lif(tau=tau, r_mem=r_mem)
            state = NeuronState(v=v)
            integrate(model, state, current, 0, dt)
            assert state.v.hex() == (v + dt * ((r_mem * current - v) / tau)).hex()
            assert model.state_eqs is None and model == dataclasses.replace(model)

    def test_a_finite_leak_dv_dt_whose_step_overflows_diverges(self):
        state = NeuronState(v=1e308)  # dV/dt = 7e307, and 10 s of it overflows
        with pytest.raises(ValueError, match="^membrane potential diverged to inf$"):
            integrate(lif(tau=1.0), state, 1.7e308, 0, dt=10.0)

    @pytest.mark.parametrize("current, shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (1e308, "inf")])
    def test_a_non_finite_leak_dv_dt_raises_the_expression_text(self, current, shown):
        # r_mem * 1e308 overflows, as a state_eqs would
        with pytest.raises(ExprError, match=f"^expression produced non-finite value {shown}$"):
            integrate(lif(r_mem=10.0), NeuronState(v=0.0), current, 0, 1e-3)

    def test_a_replaced_model_binds_its_own_constants(self):
        for model, key, value in ((lif(thres=0.5, state_eqs=parse("(I - V) / thres")),
                                   "thres", 0.25),
                                  (lif(tau=1e-2), "tau", 2e-2)):
            other = dataclasses.replace(model, **{key: value})
            for m in (model, other):
                state = NeuronState(v=0.1)
                integrate(m, state, 1.0, 0, 1e-3)
                rhs = m.state_eqs or LEAK
                env = {"V": 0.1, "I": 1.0, "dt": 1e-3, "tau": m.tau, "thres": m.thres,
                       "r_mem": m.r_mem}
                assert state.v == 0.1 + 1e-3 * evaluate(rhs, env)
            assert integrate_once(model) != integrate_once(other)

    def test_two_genomes_that_differ_in_thres_get_different_dv_dt(self):
        models = [load_config(TUNE_CONFIG, overrides={"neuron.out.thres": thres})
                  .network.layers[1].neuron_model for thres in (0.4, 1.2)]
        assert {m.thres for m in models} == {0.4, 1.2}
        assert models[0].state_eqs == models[1].state_eqs  # the same text reads thres
        got = [integrate_once(m) for m in models]
        for m, v in zip(models, got):
            env = {"V": 0.6, "I": 1.0, "dt": 1e-3, "tau": m.tau, "thres": m.thres,
                   "r_mem": m.r_mem}
            assert v == 0.6 + 1e-3 * evaluate(m.state_eqs, env)
        assert got[0] != got[1]

    def test_state_eqs_does_not_run_inside_the_refractory_window(self):
        # 1 / V fails at V = 0, where the window pins the membrane; power_expr still runs
        model = lif(state_eqs=parse("1 / V"), power_expr=parse("V + 2"))
        state = NeuronState(v=0.0, refractory_until=3)
        energy = 0.0
        for k in range(3):
            integrate(model, state, 1.0, k, 1e-3)
            energy += 1e-3 * 2.0
            assert state.v == 0.0 and state.energy == energy
        with pytest.raises(ExprError, match="^division by zero$"):
            integrate(model, state, 1.0, 3, 1e-3)

    def test_power_expr_runs_inside_the_refractory_window(self):
        model = lif(power_expr=parse("1 / V"))
        with pytest.raises(ExprError, match="^division by zero$"):
            integrate(model, NeuronState(v=0.0, refractory_until=3), 1.0, 0, 1e-3)


def integrate_once(model, v=0.6, current=1.0, dt=1e-3):
    state = NeuronState(v=v)
    integrate(model, state, current, 0, dt)
    return state.v


class TestFireCheck:
    def test_fires_at_exact_threshold(self):
        model = lif(thres=1.0)
        state = NeuronState(v=1.0)
        assert fire_check(model, state, step=500, dt=1e-3) is True
        assert state.spike_times == [500 * 1e-3]
        assert state.v == model.v_reset

    def test_below_threshold_no_emission(self):
        model = lif(thres=1.0)
        state = NeuronState(v=1.0 - 1e-12)
        assert fire_check(model, state, 0, 1e-3) is False
        assert state.spike_times == []

    def test_refractory_blocks_second_spike(self):
        model = lif(tau=1e-3, thres=0.5, t_refrac=20e-3, r_mem=1.0)
        state = run_constant_drive(model, 100.0, T=50e-3, dt=1e-3)
        assert len(state.spike_times) == 3  # at 0, 20, 40 ms
        for a, b in zip(state.spike_times, state.spike_times[1:]):
            assert b - a >= model.t_refrac


class TestFiringPeriodAnalytics:
    @pytest.mark.parametrize("current,tau,thres,t_refrac", [
        (2.0, 10e-3, 1.0, 0.0),
        (1.5, 5e-3, 1.0, 0.0),
        (3.0, 20e-3, 2.0, 2e-3),
    ])
    def test_period_matches_leaky_formula(self, current, tau, thres, t_refrac):
        model = lif(tau=tau, thres=thres, t_refrac=t_refrac)
        dt = tau / 1000
        expected_period = t_refrac + tau * math.log(
            current / (current - thres))
        state = run_constant_drive(model, current, T=25 * expected_period, dt=dt)
        spikes = state.spike_times
        assert len(spikes) > 10
        measured = (spikes[-1] - spikes[0]) / (len(spikes) - 1)
        assert measured == pytest.approx(expected_period, rel=0.02)


class TestNanodeviceNeuronInTheEngine:
    """The mean-field model that calibration fits, against the neurons the engine runs:
    one input drives one output through a transmit-only synapse (v_app = V_pre) of
    conductance G, by rectangular V-volt pulses of width w at RATE, a period well below
    tau. Its rates match firing_frequency with A = r_mem * G * V / tau: 4.3% and 2.4%
    off at 0.55 and 0.6 ms, near the threshold, and within 0.3% above. And
    calibrate_from_frequency on them recovers tau within 2.8% and thres within 1.0%, as does
    a config of this network whose output neuron takes them from its calib_path."""

    DT, T = 5e-5, 0.2
    G, R_MEM, TAU, THRES, V, RATE = 2e-6, 1e6, 20e-3, 0.5, 0.5, 1000.0
    WIDTHS = (0.55e-3, 0.6e-3, 0.7e-3, 0.8e-3, 0.9e-3)
    CONFIG = """\
[sim]
T = 0.2
dt = 5e-05
T_sample = 0.2

[device.pair]
kind = identical
g_min = 1e-6
g_max = 3e-6
levels_ltp = 1e-6, 3e-6
levels_ltd = 3e-6, 1e-6

[circuit.transmit]
v_app = V_pre
v_th_pos = 10
v_th_neg = 10
transmit_policy = pre_only

[neuron.input]
tau = 1.0
thres = 1.0
pre_volt = 0, 0.5, 0.0006, 0.5

[neuron.out]
r_mem = 1e6
calib_path = rates.csv
calib_pulse_amplitude = {amplitude!r}
calib_pulse_rate = 1000

[layers.0]
neurons = 1
neuron = input

[layers.1]
neurons = 1
neuron = out
label = true
device = pair
circuit = transmit

[network]
init_weights = constant(2e-6)
"""

    def engine_rate(self, width):
        """The output's steady rate, from its first to its last spike."""
        pulse = Waveform(((0.0, self.V), (width, self.V)))
        circuit = CircuitModel(v_app=parse("V_pre"), v_th_pos=10.0, v_th_neg=10.0,
                               transmit_policy=frozenset({SpikePresence.PRE_ONLY}),
                               plasticity_policy=frozenset())
        spec = NetworkSpec(layers=(
            LayerSpec(neurons=1, neuron_model=lif(tau=1.0, waveforms=SpikeWaveforms(pre=pulse))),
            LayerSpec(neurons=1, label=True, circuit_model=circuit,
                      neuron_model=lif(tau=self.TAU, thres=self.THRES, r_mem=self.R_MEM),
                      device_model=PulseFamilyDevice.identical((1e-6, 3e-6), (3e-6, 1e-6),
                                                               1e-6, 3e-6))),
            init_weights=WeightInit("constant", value=self.G))
        net = build_network(spec, self.DT)
        schedule_input(net, FixedRateEncoder(0.0, self.RATE).encode(
            (1.0,), self.T, self.DT, np.random.default_rng(0)))
        for k in range(num_steps(self.T, self.DT)):
            run_timestep(net, k, learn=False)
        spikes = net.layers[1].states[0].spike_times
        assert len(spikes) >= 4
        return (len(spikes) - 1) / (spikes[-1] - spikes[0])

    def test_rates_match_the_model_and_the_fit_recovers_tau_and_thres(self, tmp_path):
        amplitude = self.R_MEM * self.G * self.V / self.TAU
        rates = [self.engine_rate(w) for w in self.WIDTHS]
        for w, rate in zip(self.WIDTHS, rates):
            model = firing_frequency(w, self.TAU, self.THRES, amplitude, self.RATE)
            assert rate == pytest.approx(model, rel=0.06 if w < 0.65e-3 else 0.01), w
        fit = calibrate_from_frequency(list(zip(self.WIDTHS, rates)), amplitude, self.RATE)
        (tmp_path / "rates.csv").write_text(
            "".join(f"{w!r},{rate!r}\n" for w, rate in zip(self.WIDTHS, rates)))
        (tmp_path / "run.cfg").write_text(self.CONFIG.format(amplitude=amplitude))
        loaded = load_config(tmp_path / "run.cfg").network.layers[1].neuron_model
        for tau, thres in ((fit.tau, fit.thres), (loaded.tau, loaded.thres)):
            assert tau == pytest.approx(self.TAU, rel=0.04)
            assert thres == pytest.approx(self.THRES, rel=0.015)
        assert (loaded.r_mem, loaded.tau, loaded.thres) == (self.R_MEM, fit.tau, fit.thres)


class TestCalibration:
    def test_round_trip_recovers_parameters(self):
        tau_true, thres_true = 2e-3, 1.0
        amplitude, rate = 500.0, 1000.0
        widths = np.linspace(1.2e-3, 10e-3, 10)
        data = [(w, firing_frequency(w, tau_true, thres_true, amplitude, rate))
                for w in widths]
        result = calibrate_from_frequency(data, amplitude, rate)
        assert result.tau == pytest.approx(tau_true, rel=0.05)
        assert result.thres == pytest.approx(thres_true, rel=0.05)
        assert result.residual < 1.0

    def test_two_linear_points_exact_threshold(self):
        # pure integrate-and-fire law f = w / thres with thres = 2
        result = calibrate_from_frequency([(1.0, 0.5), (2.0, 1.0)], 1.0, 1.0)
        assert math.isinf(result.tau)
        assert result.thres == pytest.approx(2.0, rel=1e-12)
        assert result.residual == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_fit_no_better_than_integrate_and_fire_falls_back_to_it(self):
        # f = 1000 w exactly: the integrate-and-fire law fits with no residual,
        # so the leaky fit of five points cannot beat it; at widths of seconds
        # the leaky model's x = tau * drive dwarfs thres on the way to that fit
        for unit in (1e-3, 1.0):
            data = [(k * unit, k * (1000.0 * unit)) for k in range(1, 6)]
            assert calibrate_from_frequency(data, 1.0) == CalibrationResult(math.inf, 0.001, 0.0)

    @pytest.mark.parametrize("data, message", [
        ([(0.0, 1.0), (1e-3, 2.0)], "pulse widths must be positive"),
        ([(1e-3, 0.0), (2e-3, 2.0)], "measured frequencies must be positive")])
    def test_rejected_data_texts(self, data, message):
        with pytest.raises(ValueError) as err:
            calibrate_from_frequency(data, 1.0)
        assert str(err.value) == message

    @pytest.mark.parametrize("tau, amplitude", [
        (math.inf, 0.0), (math.inf, -1.0),  # no drive, or a negative one
        (10e-3, 1.0)])  # drive whose fixed point tau * drive stays below thres
    def test_firing_frequency_is_zero_without_drive_to_reach_threshold(self, tau, amplitude):
        assert firing_frequency(1e-3, tau, 0.2, amplitude, 1.0) == 0.0

    def test_all_zero_frequencies_rejected(self):
        with pytest.raises(ValueError, match="never fires"):
            calibrate_from_frequency([(1e-3, 0.0), (2e-3, 0.0)], 1.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="decrease"):
            calibrate_from_frequency([(1e-3, 10.0), (2e-3, 5.0)], 1.0)

    def test_equal_widths_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            calibrate_from_frequency([(1e-3, 5.0), (1e-3, 10.0)], 1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            calibrate_from_frequency([(1e-3, 5.0)], 1.0)


class TestModelValidation:
    def test_bad_tau(self):
        with pytest.raises(ValueError):
            NeuronModel(tau=0.0, thres=1.0)

    def test_thres_must_exceed_reset(self):
        with pytest.raises(ValueError):
            NeuronModel(tau=1e-3, thres=0.0, v_reset=0.0)

    def test_negative_refractory(self):
        with pytest.raises(ValueError):
            NeuronModel(tau=1e-3, thres=1.0, t_refrac=-1.0)

    def test_state_eqs_may_not_read_an_unknown_name(self):
        with pytest.raises(SpecError, match=r"unknown variable\(s\) \['W'\]") as err:
            lif(state_eqs=parse("-V / tau + W"))
        assert err.value.key == "state_eqs"


class TestCsvLoaders:
    def test_calibration_csv(self, tmp_path):
        p = tmp_path / "calib.csv"
        p.write_text("# width,freq\n1e-3,100\n2e-3,200\n")
        assert load_calibration_csv(p) == [(1e-3, 100.0), (2e-3, 200.0)]

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "calib.csv"
        p.write_text("1e-3,100\n1e-3\n")
        with pytest.raises(ValueError, match=":2:"):
            load_calibration_csv(p)


def test_calibration_result_is_plain_record():
    r = CalibrationResult(1e-3, 0.5, 0.0)
    assert (r.tau, r.thres, r.residual) == (1e-3, 0.5, 0.0)
