import ast
import dataclasses
import functools
import hashlib
import inspect
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spikeforge import engine, waveform
from spikeforge.config import load_config
from spikeforge.encoding import FixedRateEncoder, PoissonEncoder, Sample, SpikeTrain
from spikeforge.engine import (
    LayerSpec, Network, NetworkFileError, NetworkSpec, SimConfig, SimulationError,
    WeightInit, assign_labels, build_network, infer, load_network, num_steps,
    run_timestep, save_network, schedule_input, train,
)
from spikeforge.errors import SpecError
from spikeforge.expr import parse
from spikeforge.neuron import NeuronModel, SpikeWaveforms
from spikeforge.synapse import (
    CircuitModel, PulseFamilyDevice, PulseFamilyTable, SpikePresence, SynapseMode,
)
from spikeforge.waveform import Waveform, grid_samples, support_steps

import reference_engine as reference
from reference_engine import (
    _frozen_pass_counts, _label_counts, reference_assign_labels, reference_infer,
)

US = 1e-6


def rect(volts, width, step=1e-3):
    # breakpoints at every grid step so hand-traced samples hit knots exactly
    n = round(width / step)
    return Waveform(tuple((k * step, volts) for k in range(n + 1)))


def micro_spec():
    """2-input, 1-output net used for the hand-computed three-step trace."""
    pre = rect(0.5, 3e-3)
    post1 = Waveform(((0.0, 1.2), (1e-3, 1.2), (1e-3, -1.2), (2e-3, -1.2)))
    post2 = rect(0.5, 1e-3)
    input_model = NeuronModel(tau=1.0, thres=1.0, waveforms=SpikeWaveforms(pre=pre))
    out_model = NeuronModel(
        tau=0.01, thres=0.15, v_reset=0.0, t_refrac=0.0, r_mem=1e6,
        waveforms=SpikeWaveforms(pre=pre, post1=post1, post2=post2))
    circuit = CircuitModel(
        v_app=parse("V_pre + V_post1"), v_th_pos=1.5, v_th_neg=1.5,
        transmit_policy=frozenset({SpikePresence.PRE_ONLY}),
        plasticity_policy=frozenset({SpikePresence.BOTH}))
    device = PulseFamilyDevice.identical(
        (1 * US, 2 * US, 3 * US), (3 * US, 2 * US, 1 * US), 1 * US, 3 * US)
    return NetworkSpec(
        layers=(
            LayerSpec(neurons=2, neuron_model=input_model),
            LayerSpec(neurons=1, neuron_model=out_model, plastic=True, label=True,
                      circuit_model=circuit, device_model=device),
        ),
        seed=3, init_weights=WeightInit("constant", value=2 * US))


# Hand-derived expected values for the micro net, frozen before implementation:
# step 0: channel 0 pre-spike only -> transmit; I = g * (V_pre + rest)
I_STEP0 = 2e-6 * 0.5
V_STEP0 = 0.0 + 1e-3 * ((1e6 * I_STEP0 - 0.0) / 0.01)
# step 1: same drive; V crosses 0.15 and the neuron fires, resetting to 0
V_STEP1_PRE_FIRE = V_STEP0 + 1e-3 * ((1e6 * I_STEP0 - V_STEP0) / 0.01)
# step 2: post1 feedback (scheduled at step 2) overlaps the 3 ms pre spike:
# presence BOTH, V_TB = 0.5 + 1.2 crosses +1.5 -> potentiate, still conducting
I_STEP2 = 2e-6 * (0.5 + 1.2)
V_STEP2_PRE_FIRE = 0.0 + 1e-3 * ((1e6 * I_STEP2 - 0.0) / 0.01)

IDLE, TRANSMIT, POTENTIATE, DEPRESS = 0, 1, 2, 3


class TestMicroNetTrace:
    def test_three_step_hand_table(self):
        assert V_STEP1_PRE_FIRE >= 0.15 and V_STEP2_PRE_FIRE >= 0.15  # table sanity
        net = build_network(micro_spec(), dt=1e-3)
        schedule_input(net, [SpikeTrain((0,), 1e-3), SpikeTrain((), 1e-3)])

        t0 = run_timestep(net, 0, record=True)
        assert t0.modes[0][:, 0].tolist() == [TRANSMIT, IDLE]
        assert t0.currents[0][0] == I_STEP0
        assert t0.v[0][0] == V_STEP0
        assert t0.fired[0] == []

        t1 = run_timestep(net, 1, record=True)
        assert t1.modes[0][:, 0].tolist() == [TRANSMIT, IDLE]
        assert t1.currents[0][0] == I_STEP0
        assert t1.fired[0] == [0]
        assert t1.v[0][0] == 0.0  # reset after the spike

        t2 = run_timestep(net, 2, record=True)
        assert t2.modes[0][:, 0].tolist() == [POTENTIATE, IDLE]
        assert t2.currents[0][0] == I_STEP2
        assert t2.fired[0] == [0]
        assert t2.v[0][0] == 0.0

        out = net.layers[1].states[0]
        assert out.spike_times == [1e-3, 2e-3]
        assert net.matrices[0].g[:, 0].tolist() == [3 * US, 2 * US]

    def test_no_spikes_everything_idle_and_decaying(self):
        net = build_network(micro_spec(), dt=1e-3)
        state = net.layers[1].states[0]
        state.v = 0.12  # below threshold; pure decay expected
        expected = 0.12
        for k in range(5):
            trace = run_timestep(net, k, record=True)
            assert trace.modes[0].tolist() == [[IDLE], [IDLE]]
            assert trace.currents[0][0] == 0.0
            expected = expected + 1e-3 * ((1e6 * 0.0 - expected) / 0.01)
            assert trace.v[0][0] == expected

    def test_single_spike_delivers_ohmic_current_for_pulse_duration(self):
        net = build_network(micro_spec(), dt=1e-3)
        net.layers[1].spec.neuron_model  # noqa: B018 - documentation of intent
        schedule_input(net, [SpikeTrain((1,), 1e-3), SpikeTrain((), 1e-3)])
        currents = []
        for k in range(6):
            trace = run_timestep(net, k, record=True)
            currents.append(float(trace.currents[0][0]))
        # pulse active steps 1..3 (3 ms support); neuron fires during it, and
        # the feedback pulse turns step 3 into a plasticity (still conducting)
        assert currents[0] == 0.0
        assert currents[1] == I_STEP0 and currents[2] == I_STEP0
        assert currents[4] == 0.0 and currents[5] == 0.0

    def test_dt_convergence_differences_shrink(self):
        finals = []
        for dt in (1e-3, 0.5e-3, 0.25e-3):
            net = build_network(micro_spec(), dt=dt)
            schedule_input(net, [SpikeTrain((0,), dt), SpikeTrain((), dt)])
            for k in range(num_steps(6e-3, dt)):
                run_timestep(net, k)
            finals.append(float(net.matrices[0].g[0, 0]))
        d1 = abs(finals[0] - finals[1])
        d2 = abs(finals[1] - finals[2])
        assert d1 >= d2

    def test_spike_train_on_another_dt_grid_is_rejected(self):
        # a 1 ms spike on a 0.1 ms grid is step 10: 10 ms on this 1 ms net;
        # channel 0, on the grid, is not scheduled either
        net = build_network(micro_spec(), dt=1e-3)
        with pytest.raises(ValueError, match=r"input channel 1 has dt=0\.0001, but "
                                             r"the network's dt is 0\.001"):
            schedule_input(net, [SpikeTrain((0,), 1e-3), SpikeTrain((10,), 1e-4)])
        assert not net.layers[0].pre_out.pending

    def test_wrong_number_of_trains_is_rejected(self):
        net = build_network(micro_spec(), dt=1e-3)
        with pytest.raises(ValueError) as err:
            schedule_input(net, [SpikeTrain((0,), 1e-3)])
        assert str(err.value) == "1 input trains for 2 input neurons"
        assert not net.inputs


class TestOutputPost2:
    def test_output_neurons_post2_reaches_its_own_synapses(self):
        # v_app reads V_post2: once the output neuron fires, its post2 spike
        # adds to V_TB from the next step, as it does on a hidden matrix
        output = NeuronModel(tau=0.01, thres=0.15, r_mem=1e6,
                             waveforms=SpikeWaveforms(post2=rect(1.0, 1e-3)))
        spec = NetworkSpec(
            layers=(LayerSpec(neurons=2, neuron_model=NeuronModel(
                        tau=1.0, thres=1.0, waveforms=SpikeWaveforms(pre=rect(0.5, 5e-3)))),
                    LayerSpec(neurons=1, neuron_model=output, label=True,
                              circuit_model=CircuitModel(
                                  v_app=parse("V_pre + V_post2"), v_th_pos=10.0,
                                  v_th_neg=10.0),
                              device_model=micro_spec().layers[1].device_model)),
            init_weights=WeightInit("constant", value=2 * US))
        net = build_network(spec, dt=1e-3)
        schedule_input(net, [SpikeTrain((0,), 1e-3), SpikeTrain((), 1e-3)])
        traces = [run_timestep(net, k, record=True) for k in range(4)]
        # V after steps 0 and 1: 0.1, then 0.1 + (1.0 - 0.1) * 0.1 = 0.19 >= 0.15
        assert [t.fired[0] for t in traces] == [[], [0], [0], [0]]
        assert [t.currents[0][0] for t in traces] == [
            2e-6 * 0.5, 2e-6 * 0.5, 2e-6 * (0.5 + 1.0), 2e-6 * (0.5 + 1.0)]


class TestBuildNetwork:
    def test_all_to_all_synapse_count(self):
        spec = two_layer_spec(4, 2)
        net = build_network(spec, 1e-3)
        assert int(net.matrices[0].mask.sum()) == 8

    def test_one_to_one_diagonal(self):
        spec = two_layer_spec(3, 3, conn_type="one_to_one")
        net = build_network(spec, 1e-3)
        assert np.array_equal(net.matrices[0].mask, np.eye(3, dtype=bool))

    def test_one_to_one_size_mismatch(self):
        with pytest.raises(ValueError, match="one_to_one"):
            two_layer_spec(4, 3, conn_type="one_to_one")

    def test_sparse_mask_deterministic_and_covering(self):
        spec = two_layer_spec(10, 10, conn_type="sparse", sparse_p=0.3, seed=11)
        a = build_network(spec, 1e-3)
        b = build_network(spec, 1e-3)
        assert np.array_equal(a.matrices[0].mask, b.matrices[0].mask)
        assert a.matrices[0].mask.any(axis=0).all()  # every post neuron reachable

    def test_a_redrawn_sparse_column_is_logged(self, caplog):
        # two inputs at p = 0.1: most columns draw no connection at first
        with caplog.at_level(logging.INFO, logger="spikeforge.engine"):
            net = build_network(two_layer_spec(2, 6, conn_type="sparse", sparse_p=0.1,
                                               seed=3), 1e-3)
        rng = np.random.default_rng(3)
        mask, expected = rng.random((2, 6)) < 0.1, []
        for j in range(6):
            redraws = 0
            while not mask[:, j].any():
                mask[:, j], redraws = rng.random(2) < 0.1, redraws + 1
            if redraws:
                expected.append(f"redrew sparse column {j} of layer 1 {redraws} time(s) "
                                "to guarantee an incoming connection")
        assert [r.getMessage() for r in caplog.records] == expected and len(expected) > 1
        assert np.array_equal(net.matrices[0].mask, mask)

    def test_initial_conductances_within_device_range(self):
        spec = two_layer_spec(6, 3)
        net = build_network(spec, 1e-3)
        g = net.matrices[0].g[net.matrices[0].mask]
        device = spec.layers[1].device_model
        assert np.all(g >= device.g_min) and np.all(g <= device.g_max)

    def test_label_layer_validation(self):
        with pytest.raises(ValueError, match="label"):
            NetworkSpec(layers=(input_layer(2), hidden_layer(2)))  # none labeled
        with pytest.raises(ValueError, match="label"):
            NetworkSpec(layers=(input_layer(2), output_layer(2), output_layer(2)))

    def test_input_layer_cannot_be_label(self):
        bad_input = LayerSpec(neurons=2, neuron_model=input_model(), label=True)
        with pytest.raises(ValueError, match="input layer"):
            NetworkSpec(layers=(bad_input, hidden_layer(2)))

    def test_inhibition_requires_waveform_and_conductance(self):
        with pytest.raises(ValueError, match="inh_g"):
            two_layer_spec(2, 2, inh_conn=((1, 1),), inh_g=0.0)

    @pytest.mark.parametrize("make, key, message", [
        (lambda: LayerSpec(neurons=2, neuron_model=input_model(), conn_type="ring"),
         "conn_type", "unknown conn_type 'ring'"),
        (lambda: WeightInit("normal"), "kind", "unknown init kind 'normal'"),
        (lambda: WeightInit("from_file"), "path",
         "from_file init needs the path of a network file"),
        (lambda: NetworkSpec(layers=(input_layer(2),)), None,
         "a network needs an input layer and at least one more"),
        (lambda: NetworkSpec(layers=(input_layer(2), LayerSpec(
            neurons=2, neuron_model=out_model(), label=True, device_model=small_device()))),
         None, "layer 1 needs circuit_model and device_model"),
        (lambda: two_layer_spec(2, 2, inh_conn=((1, 2),), inh_g=1 * US), "inh_conn",
         "inh_conn pair (1, 2) out of range"),
        # given twice, the pair would trigger its inhibition twice per spike
        (lambda: two_layer_spec(2, 2, inh_conn=((1, 1), (1, 1)), inh_g=1 * US), "inh_conn",
         "inh_conn pair (1, 1) given twice"),
    ], ids=["conn_type", "init-kind", "init-no-path", "one-layer", "no-circuit",
            "inh_conn-range", "inh_conn-twice"])
    def test_rejected_spec_texts(self, make, key, message):
        with pytest.raises(SpecError) as err:
            make()
        assert (err.value.key, str(err.value)) == (key, message)

    # 1.5 V between the grid points of dt = 1 ms, 0 V on them; and a spike that lasts 0 steps
    BETWEEN = Waveform(((0.0, 0.0), (0.0005, 1.5), (0.001, 0.0)))
    INSTANT = Waveform(((0.0, 1.0), (0.0, 1.0)))

    def test_a_waveform_the_grid_never_delivers_names_its_layer_and_waveform(self):
        """A spec built in code meets the grid rule of a config file's waveforms."""
        quiet_input = LayerSpec(neurons=2, neuron_model=dataclasses.replace(
            input_model(), waveforms=SpikeWaveforms(pre=self.BETWEEN)))
        spec = NetworkSpec(layers=(quiet_input, output_layer(2)))
        with pytest.raises(SpecError) as err:
            build_network(spec, 1e-3)
        assert str(err.value) == ("layer 0 pre waveform is 0 V at every step of dt=0.001, so "
                                  "its nonzero breakpoints would never be delivered")
        assert build_network(spec, 5e-4).layers[0].pre == (0.0, 1.5)
        out = out_model()
        never_learns = dataclasses.replace(output_layer(2, plastic=True), neuron_model=(
            dataclasses.replace(out, waveforms=dataclasses.replace(
                out.waveforms, post1=self.INSTANT))))
        with pytest.raises(SpecError) as err:
            build_network(NetworkSpec(layers=(input_layer(2), never_learns)), 1e-3)
        assert str(err.value) == ("layer 1 post1 waveform lasts 0 steps at dt=0.001, so it "
                                  "would never be delivered")

    def test_the_pairing_sweep_names_a_waveform_the_grid_never_delivers(self):
        for pre, post, message in (
                (self.BETWEEN, rect(1.0, 2e-3), "pre_waveform is 0 V at every step of "
                 "dt=0.001, so its nonzero breakpoints would never be delivered"),
                (rect(1.0, 2e-3), self.INSTANT,
                 "post_waveform lasts 0 steps at dt=0.001, so it would never be delivered")):
            with pytest.raises(SpecError) as err:
                engine.stdp_pairing_sweep(transmit_circuit(), small_device(), pre, post,
                                          range(-2, 3), 1e-3, 5 * US)
            assert str(err.value) == message

    def test_peak_memory_of_the_largest_build_is_bounded(self):
        # 784 x 100 all-to-all, the largest net the benchmarks aim at: its
        # synapse list is one (78400, 2) index array. The peak read 3.2 MB;
        # with a Python tuple per synapse it read 8.6 MB.
        spec = two_layer_spec(784, 100)
        build_network(spec, 1e-3)  # caches filled on a first build stay out of the count
        tracemalloc.start()
        try:
            net = build_network(spec, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net.matrices[0].pairs) == 784 * 100
        assert peak < 4e6


class TestNumSteps:
    def test_eq1(self):
        assert num_steps(1.0, 1e-3) == 1000

    def test_single_step(self):
        assert num_steps(0.5, 0.5) == 1

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            num_steps(1.0, 0.3)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            num_steps(1.0, 0.0)

    @pytest.mark.parametrize("T, dt", [(0.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
                                       (-math.inf, 1e-3), (1.0, math.nan), (1.0, math.inf)])
    def test_zero_or_non_finite_step_count_rejected(self, T, dt):
        with pytest.raises(ValueError):
            num_steps(T, dt)

    def test_engine_reads_the_waveform_grid_rules(self):
        # bench/workloads.py reads engine.num_steps
        assert engine.num_steps is waveform.num_steps


def input_model(width_volts=0.5, duration=2e-3):
    return NeuronModel(tau=1.0, thres=1.0,
                       waveforms=SpikeWaveforms(pre=rect(width_volts, duration)))


def transmit_circuit():
    return CircuitModel(
        v_app=parse("V_pre"), v_th_pos=10.0, v_th_neg=10.0,
        transmit_policy=frozenset({SpikePresence.PRE_ONLY, SpikePresence.BOTH}),
        plasticity_policy=frozenset())


def small_device():
    levels = tuple(np.linspace(1 * US, 9 * US, 17))
    return PulseFamilyDevice.identical(levels, tuple(reversed(levels)), 1 * US, 9 * US)


def out_model(thres=0.2, inhib=None):
    return NeuronModel(
        tau=10e-3, thres=thres, r_mem=1e6, t_refrac=2e-3,
        waveforms=SpikeWaveforms(
            pre=rect(0.5, 2e-3),
            post1=Waveform(((0.0, 1.7), (10e-3, 1.7), (10e-3, -1.7), (20e-3, -1.7))),
            post2=rect(0.5, 2e-3),
            inhib=inhib))


def input_layer(n):
    return LayerSpec(neurons=n, neuron_model=input_model())


def hidden_layer(n, **kw):
    return LayerSpec(neurons=n, neuron_model=out_model(),
                     circuit_model=transmit_circuit(), device_model=small_device(), **kw)


def output_layer(n, **kw):
    return hidden_layer(n, label=True, **kw)


def two_layer_spec(n_in, n_out, seed=0, inh_conn=(), inh_g=0.0, **layer_kw):
    return NetworkSpec(
        layers=(input_layer(n_in), output_layer(n_out, **layer_kw)),
        seed=seed, inh_conn=inh_conn, inh_g=inh_g)


def one_hot_dataset(n):
    samples = []
    for c in range(n):
        features = tuple(1.0 if i == c else 0.0 for i in range(n))
        samples.append(Sample(features, label=c))
    return samples


class TestTrainInferLabels:
    SIM = SimConfig(T=0.4, dt=1e-3, T_sample=0.1, seed=5)
    ENC = FixedRateEncoder(0.0, 100.0)

    def make_net(self):
        # 2->2 one_to_one so each output neuron sees exactly one input channel
        spec = two_layer_spec(2, 2, conn_type="one_to_one")
        return build_network(spec, self.SIM.dt)

    def test_frozen_training_keeps_weights(self):
        net = self.make_net()
        before = [g.copy() for g in net.conductances()]
        train(net, one_hot_dataset(2), self.SIM, self.ENC)
        after = net.conductances()
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_hardwired_net_assigns_labels_and_scores_perfectly(self):
        net = self.make_net()
        dataset = one_hot_dataset(2)
        labels = assign_labels(net, dataset, self.SIM, self.ENC)
        assert labels == [0, 1]
        result = infer(net, dataset, self.SIM, self.ENC)
        assert result.accuracy == 1.0
        assert result.predictions == [0, 1]

    def test_silent_neuron_gets_no_label(self):
        net = self.make_net()
        dataset = [Sample((1.0, 0.0), label=0), Sample((1.0, 0.0), label=1)]
        # channel 1 never spikes, so output neuron 1 never fires
        labels = assign_labels(net, dataset, self.SIM, self.ENC)
        assert labels[1] is None

    def test_label_tie_goes_to_lower_class(self):
        net = self.make_net()
        dataset = [Sample((1.0, 0.0), label=1), Sample((1.0, 0.0), label=0)]
        labels = assign_labels(net, dataset, self.SIM, self.ENC)
        assert labels[0] == 0

    def test_all_silent_prediction_counts_wrong(self):
        net = self.make_net()
        dataset = one_hot_dataset(2)
        assign_labels(net, dataset, self.SIM, self.ENC)
        silent = [Sample((0.0, 0.0), label=0)]
        result = infer(net, silent, self.SIM, self.ENC)
        assert result.predictions == [None]
        assert result.accuracy == 0.0

    def test_training_accuracy_matches_reported(self):
        net = self.make_net()
        dataset = one_hot_dataset(2)
        result = train(net, dataset, self.SIM, self.ENC)
        again = infer(net, dataset, self.SIM, self.ENC)
        assert result.training_accuracy == again.accuracy == 1.0

    def test_deterministic_end_to_end(self):
        results = []
        for _ in range(2):
            net = self.make_net()
            r = train(net, one_hot_dataset(2), self.SIM, PoissonEncoder(0.0, 80.0))
            results.append((r.training_accuracy, [g.copy() for g in net.conductances()],
                            list(net.labels)))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            assert np.array_equal(a, b)
        assert results[0][2] == results[1][2]

    @pytest.mark.parametrize("run", [train, assign_labels, infer])
    def test_a_sample_of_the_wrong_width_is_rejected_before_any_runs(self, run, monkeypatch):
        # 2 + 1 + 3 features fill three samples' 6 input channels, so only a per-sample
        # check sees that samples 1 and 2 would feed shifted channels
        net = self.make_net()
        steps = []
        monkeypatch.setattr(engine, "run_timestep", lambda net, step, **kw: steps.append(step))
        dataset = [Sample((1.0, 0.0), label=0), Sample((1.0,), label=1),
                   Sample((0.0, 1.0, 0.0), label=0)]
        with pytest.raises(ValueError) as err:
            run(net, dataset, self.SIM, self.ENC)
        assert str(err.value) == "sample 1 has 1 features, input layer has 2"
        assert steps == []

    def test_empty_dataset(self):
        net = self.make_net()
        with pytest.raises(ValueError, match="empty"):
            train(net, [], self.SIM, self.ENC)

    def test_sim_dt_other_than_the_network_dt_is_rejected(self, monkeypatch):
        net = self.make_net()
        steps = []
        monkeypatch.setattr(engine, "run_timestep", lambda net, step, **kw: steps.append(step))
        sim = dataclasses.replace(self.SIM, dt=0.5e-3)
        with pytest.raises(ValueError, match=r"input channel 0 has dt=0\.0005, but "
                                             r"the network's dt is 0\.001"):
            train(net, one_hot_dataset(2), sim, self.ENC)
        assert steps == []
        assert not net.layers[0].pre_out.pending


def typed(values):
    """Each value with its type, so 1 and 1.0 or np.int64(1) tell apart."""
    return [(type(v), v) for v in values]


class TestReadoutMatchesReference:
    """assign_labels and infer, read off one samples x neurons count matrix,
    give what the reference's per-sample loops give (tests/reference_engine.py):
    the same labels, predictions, confusion and accuracy, of the same types,
    and leave the net the same."""

    SIM = SimConfig(T=0.2, dt=1e-3, T_sample=0.03, seed=4)

    def compare(self, spec, encoder, label_set, infer_set, sim=SIM):
        ref_net, net = reference.build_network(spec, sim.dt), build_network(spec, sim.dt)
        ref_labels = reference_assign_labels(ref_net, label_set, sim, encoder)
        labels = assign_labels(net, label_set, sim, encoder)
        assert typed(labels) == typed(ref_labels) and net.labels is labels
        accuracy, predictions, confusion = reference_infer(ref_net, infer_set, sim, encoder)
        got = infer(net, infer_set, sim, encoder)
        assert typed(got.predictions) == typed(predictions)
        assert [(typed(key), type(n), n) for key, n in got.confusion.items()] == [
            (typed(key), type(n), n) for key, n in confusion.items()]
        assert type(got.accuracy) is type(accuracy) and got.accuracy == accuracy
        assert _label_counts(net) == _label_counts(ref_net)
        return labels, got

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        spec = two_layer_spec(6, 4, seed=seed, conn_type="sparse", sparse_p=0.3)
        dataset = [Sample(tuple((rng.random(6) < 0.3).astype(float).tolist()),
                          label=[0, 1, 2, None][int(rng.integers(4))]) for _ in range(10)]
        labels, got = self.compare(spec, PoissonEncoder(0.0, 100.0), dataset, dataset[::-1])
        assert len(set(got.predictions)) > 1  # not one class (or silence) for all

    def one_to_one(self):
        return two_layer_spec(2, 2, conn_type="one_to_one")

    def test_tied_classes_and_a_silent_neuron(self):
        # neuron 0 spikes equally for classes 7 and 3; neuron 1 never spikes
        dataset = [Sample((1.0, 0.0), label=7), Sample((1.0, 0.0), label=3)]
        labels, _ = self.compare(self.one_to_one(), FixedRateEncoder(0.0, 100.0),
                                 dataset, dataset)
        assert labels == [3, None]

    def test_tied_neurons_and_a_silent_sample(self):
        label_set = [Sample((1.0, 0.0), label=1), Sample((0.0, 1.0), label=0)]
        infer_set = [Sample((1.0, 1.0), label=0), Sample((0.0, 0.0), label=1),
                     Sample((0.0, 1.0), label=None), Sample((1.0, 1.0), label=None)]
        labels, got = self.compare(self.one_to_one(), FixedRateEncoder(0.0, 100.0),
                                   label_set, infer_set)
        assert labels == [1, 0]
        # both neurons tie on (1, 1): the lower neuron's label wins
        assert got.predictions == [1, None, 0, 1]
        assert got.confusion == {(0, 1): 1, (1, None): 1} and got.accuracy == 0.0

    def test_unlabelled_and_empty_datasets(self):
        enc = FixedRateEncoder(0.0, 100.0)
        unlabelled = [Sample((1.0, 0.0)), Sample((0.0, 1.0))]
        labels, got = self.compare(self.one_to_one(), enc, unlabelled, unlabelled)
        assert labels == [None, None] and got.predictions == [None, None]
        labels, got = self.compare(self.one_to_one(), enc, [], [])
        assert labels == [None, None]
        assert (got.predictions, got.confusion, got.accuracy) == ([], {}, 0.0)


def snapshot(net: Network):
    """Every neuron's spike times, energy, membrane and refractory window, and
    every line's pending steps, each float as float.hex."""
    return [([(list(map(float.hex, s.spike_times)), float(s.energy).hex(), float(s.v).hex(),
               float(s.refractory_until).hex()) for s in layer.states],
             [sorted((k, active.tolist(), [x.hex() for x in volts.tolist()])
                     for k, (active, volts) in line.pending.items()) for line in layer.lines])
            for layer in net.layers]


def spike_counts(net: Network) -> list[list[int]]:
    return [[len(s.spike_times) for s in layer.states] for layer in net.layers]


def assert_at_rest(net: Network) -> None:
    """Every line and the input queue empty, every membrane at v_reset and
    every refractory window over: the state a frozen pass leaves."""
    assert not net.inputs
    for layer in net.layers:
        assert not any(line.pending for line in layer.lines)
        assert all((s.v, s.refractory_until) == (layer.spec.neuron_model.v_reset, 0)
                   for s in layer.states)


class TestBatchedFrozenPass:
    """The frozen passes step up to engine.FROZEN_BATCH samples at once. With
    a batch of 1, of 3 (chunks of 3, 3 and 1 over 7 samples) and of the whole
    dataset they must give the reference's per-sample driver's counts, labels
    and predictions, in one run_timestep per chunk and step, and leave every
    neuron's spike times and energy as the driver leaves them, bit for bit, and
    every membrane, refractory window and line reset, so a training stream
    without resets then runs as from rest. Chunks of 3 and 7 also run with
    engine.BLOCK at 1 and 3, so a step's engaged synapses come in slices."""

    SIM = SimConfig(T=0.06, dt=1e-3, T_sample=0.02, seed=4)
    ENC = PoissonEncoder(0.0, 90.0)

    @staticmethod
    def eqs_model():
        return dataclasses.replace(
            out_model(inhib=rect(1.0, 5e-3)), state_eqs=parse("(r_mem * I - V) / tau"),
            power_expr=parse("V * V + r_mem * I * I"))

    @staticmethod
    def plastic_circuit(v_app):
        # post-only synapses engage, so every row is scanned
        return CircuitModel(
            v_app=parse(v_app), v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=frozenset({SpikePresence.PRE_ONLY, SpikePresence.BOTH}),
            plasticity_policy=frozenset({SpikePresence.BOTH, SpikePresence.POST_ONLY}))

    def two_layer(self):
        return NetworkSpec(layers=(
            input_layer(6),
            LayerSpec(neurons=4, neuron_model=self.eqs_model(), plastic=True, label=True,
                      conn_type="sparse", sparse_p=0.5, device_model=small_device(),
                      circuit_model=self.plastic_circuit("V_pre - V_post1 + 0.5 * V_post2"))),
            inh_conn=((1, 1),), inh_g=1 * US, seed=2)

    def three_layer(self):
        return NetworkSpec(layers=(
            input_layer(5),
            LayerSpec(neurons=5, neuron_model=self.eqs_model(), conn_type="one_to_one",
                      circuit_model=transmit_circuit(), device_model=small_device()),
            LayerSpec(neurons=3, neuron_model=out_model(inhib=rect(1.0, 5e-3)), plastic=True,
                      label=True, conn_type="sparse", sparse_p=0.6,
                      device_model=small_device(),
                      circuit_model=self.plastic_circuit("V_pre - V_post1"))),
            inh_conn=((1, 1), (2, 2), (2, 1)), inh_g=1 * US, seed=3)

    def hidden_label(self):
        input_, hidden, output = self.three_layer().layers
        return dataclasses.replace(self.three_layer(), layers=(
            input_, dataclasses.replace(hidden, label=True),
            dataclasses.replace(output, label=False)))

    def lone_inhibitor(self):
        # inh_conn q:q on a one-neuron layer: the neuron has no peer to inhibit
        return NetworkSpec(layers=(
            input_layer(4),
            LayerSpec(neurons=1, neuron_model=self.eqs_model(), plastic=True, label=True,
                      device_model=small_device(),
                      circuit_model=self.plastic_circuit("V_pre - V_post1"))),
            inh_conn=((1, 1),), inh_g=1 * US, seed=5)

    @pytest.mark.parametrize("batch", [1, 3, 7])
    @pytest.mark.parametrize("make", ["two_layer", "three_layer", "hidden_label",
                                      "lone_inhibitor"])
    def test_matches_the_per_sample_driver(self, make, batch, monkeypatch):
        self.check_against_the_driver(make, batch, engine.BLOCK, monkeypatch)

    @pytest.mark.parametrize("batch, block", [(3, 1), (7, 3)])
    @pytest.mark.parametrize("make", ["two_layer", "three_layer", "hidden_label",
                                      "lone_inhibitor"])
    def test_matches_the_per_sample_driver_in_small_blocks(self, make, batch, block,
                                                            monkeypatch):
        self.check_against_the_driver(make, batch, block, monkeypatch)

    def check_against_the_driver(self, make, batch, block, monkeypatch):
        spec = getattr(self, make)()
        rng = np.random.default_rng(batch)
        width = spec.layers[0].neurons
        dataset = [Sample(tuple(rng.random(width).round(2).tolist()), label=int(rng.integers(3)))
                   for _ in range(7)]
        sim, enc = self.SIM, self.ENC
        ref, net = reference.build_network(spec, sim.dt), build_network(spec, sim.dt)
        monkeypatch.setattr(engine, "FROZEN_BATCH", batch)
        monkeypatch.setattr(engine, "BLOCK", block)
        steps = []
        step_once = engine.run_timestep

        def run_timestep(net, step, **kw):
            steps.append(step)
            return step_once(net, step, **kw)

        monkeypatch.setattr(engine, "run_timestep", run_timestep)
        counts = engine._frozen_counts(net, dataset, sim, enc, phase=1)
        monkeypatch.setattr(engine, "run_timestep", step_once)
        assert len(steps) == -(-7 // batch) * num_steps(sim.T_sample, sim.dt)
        assert counts.tolist() == [_frozen_pass_counts(ref, s, sim, enc, 1, i)
                                   for i, s in enumerate(dataset)]
        assert snapshot(net) == snapshot(ref)
        assert assign_labels(net, dataset, sim, enc) == reference_assign_labels(
            ref, dataset, sim, enc)
        got = infer(net, dataset[::-1], sim, enc)
        assert (got.accuracy, got.predictions, got.confusion) == reference_infer(
            ref, dataset[::-1], sim, enc)
        assert snapshot(net) == snapshot(ref)
        # the run spiked and drew energy, and left the net at rest
        states = [s for layer in net.layers for s in layer.states]
        assert counts.any() and all(s.energy for s in states[:3])
        assert_at_rest(net)
        g0 = net.conductances()
        stream = dataclasses.replace(sim, reset_between_samples=False)
        train(net, dataset, stream, enc)
        reference.train(ref, dataset, stream, enc)
        assert [g.tobytes() for g in net.conductances()] == [
            g.tobytes() for g in ref.conductances()]
        assert any((a != b).any() for a, b in zip(g0, net.conductances()))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_a_stream_after_a_frozen_pass_runs_as_from_rest(self, batch, monkeypatch):
        spec = self.two_layer()
        rng = np.random.default_rng(batch)
        dataset = [Sample(tuple(rng.random(6).round(2).tolist()), label=int(rng.integers(3)))
                   for _ in range(7)]
        sim, enc = self.SIM, self.ENC
        stream = dataclasses.replace(sim, reset_between_samples=False)
        monkeypatch.setattr(engine, "FROZEN_BATCH", batch)
        for frozen_pass in (assign_labels, infer):
            net, rest = build_network(spec, sim.dt), build_network(spec, sim.dt)
            for n in (net, rest):
                frozen_pass(n, dataset, sim, enc)
            assert_at_rest(net)
            rest.reset_transient()
            for n in (net, rest):
                train(n, dataset, stream, enc)
            assert [g.tobytes() for g in net.conductances()] == [
                g.tobytes() for g in rest.conductances()]
            assert spike_counts(net) == spike_counts(rest)

    @pytest.mark.parametrize("batch", [1, 3, 5])
    def test_a_failing_sample_raises_the_driver_error_and_adds_nothing_to_the_logs(
            self, batch, monkeypatch):
        # state_eqs takes sqrt(5e-6 - I): one input at 2 uA makes a neuron
        # fire, and it fails once three inputs drive it, in samples 2 and 4;
        # power_expr draws energy from the first step on
        model = NeuronModel(tau=10e-3, thres=0.2, r_mem=1e6, waveforms=SpikeWaveforms(),
                            state_eqs=parse("(r_mem * I - V) / tau + 0 * sqrt(5e-6 - I)"),
                            power_expr=parse("1 + V * V"))
        spec = NetworkSpec(
            layers=(input_layer(4), LayerSpec(neurons=2, neuron_model=model, label=True,
                                              circuit_model=transmit_circuit(),
                                              device_model=small_device())),
            init_weights=WeightInit("constant", value=4 * US))
        dataset = [Sample(features, label=0) for features in (
            (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0))]
        sim, enc = self.SIM, FixedRateEncoder(0.0, 100.0)
        monkeypatch.setattr(engine, "FROZEN_BATCH", batch)
        for block in (1, 3, engine.BLOCK):  # steps in slices of 1 and 3, then whole
            ref, net = reference.build_network(spec, sim.dt), build_network(spec, sim.dt)
            with pytest.raises(SimulationError) as expected:
                reference_assign_labels(ref, dataset, sim, enc)
            monkeypatch.setattr(engine, "BLOCK", block)
            with pytest.raises(SimulationError) as got:
                assign_labels(net, dataset, sim, enc)
            assert str(got.value) == str(expected.value)
            assert str(got.value).startswith("neuron (layer 1, index 0) at t=0.0: sqrt")
            assert snapshot(net) == snapshot(ref)
            # samples 0 and 1 fired at steps 0, 1, 10 and 11; sample 2 failed at
            # step 0 and logged neither spikes nor energy
            assert [s.spike_times for s in net.layers[1].states] == [
                [0.0, 0.001, 0.01, 0.011] * 2] * 2
            first_two = build_network(spec, sim.dt)
            assign_labels(first_two, dataset[:2], sim, enc)
            assert snapshot(net) == snapshot(first_two)
            assert all(s.energy for s in net.layers[1].states)

    @pytest.mark.slow
    def test_an_ungated_chunk_stays_bounded_at_784x100(self):
        """Eight samples of two steps in one chunk of the 784 x 100 net, on a
        circuit that engages every synapse whatever its spikes: each step
        engages 8 x 78400 synapses, and the pass holds BLOCK of them at a time.
        When a step held all of them, the traced peak read about 117 MB with
        FROZEN_BATCH 8 and 14 MB with 1; walked a block at a time, about 3 MB."""
        circuit = CircuitModel(
            v_app=parse("V_pre - V_post1"), v_th_pos=10.0, v_th_neg=10.0,
            transmit_policy=frozenset(SpikePresence), plasticity_policy=frozenset())
        spec = NetworkSpec(layers=(input_layer(784), LayerSpec(
            neurons=100, neuron_model=out_model(), label=True, circuit_model=circuit,
            device_model=small_device())), seed=1)
        net = build_network(spec, 1e-3)
        rng = np.random.default_rng(8)
        dataset = [Sample(tuple(rng.random(784).round(2).tolist()), label=b % 3)
                   for b in range(8)]
        sim = SimConfig(T=2e-3, dt=1e-3, T_sample=2e-3, seed=8)
        engine._frozen_counts(net, dataset[:1], sim, self.ENC, phase=1)  # fills caches
        tracemalloc.start()
        try:
            counts = engine._frozen_counts(net, dataset, sim, self.ENC, phase=1)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert net.matrices[0].engaged_lut[0].all() and engine.FROZEN_BATCH == 8
        assert peak_mb <= 10.0, peak_mb
        assert counts.any()


def random_frozen_spec(seed: int) -> NetworkSpec:
    """A small random net for the frozen-driver differential test: 2-3 layers
    up to 12 wide (one-neuron layers included), all_to_all, sparse or
    one_to_one matrices, self and cross inhibition, state_eqs and power_expr
    each set or not (a state_eqs with sqrt(c - I) fails under strong drive),
    and in three-layer nets sometimes a hidden label layer."""
    rng = np.random.default_rng([7, seed])
    depth = int(rng.integers(2, 4))
    layers = [LayerSpec(neurons=int(rng.integers(1, 13)), neuron_model=input_model())]
    label = 1 if depth == 3 and rng.random() < 0.4 else depth - 1
    for q in range(1, depth):
        conn = ["all_to_all", "sparse", "one_to_one"][int(rng.integers(3))]
        width = layers[-1].neurons if conn == "one_to_one" else int(rng.choice([1, 1, 2, 5, 12]))
        state_eqs = [None, parse("(r_mem * I - V) / tau"), parse(
            f"(r_mem * I - V) / tau + 0 * sqrt({rng.uniform(3, 9):.1f}e-6 - I)")]
        model = dataclasses.replace(
            out_model(inhib=rect(1.0, 12e-3)), state_eqs=state_eqs[int(rng.integers(3))],
            power_expr=parse("V * V + r_mem * I * I") if rng.random() < 0.5 else None)
        # None: a transmit-only circuit that scans only active pre rows
        v_app = [None, "V_pre - V_post1", "V_pre - V_post1 + 0.5 * V_post2"][
            int(rng.integers(3))]
        layers.append(LayerSpec(
            neurons=width, neuron_model=model, plastic=rng.random() < 0.5,
            label=q == label, conn_type=conn, sparse_p=0.5, device_model=small_device(),
            circuit_model=transmit_circuit() if v_app is None
            else TestBatchedFrozenPass.plastic_circuit(v_app)))
    pairs = [(a, b) for a in range(1, depth) for b in range(1, depth)]
    inh_conn = tuple(pair for pair in pairs if rng.random() < 0.5)
    return NetworkSpec(layers=tuple(layers), inh_conn=inh_conn, inh_g=1 * US,
                       seed=int(rng.integers(100)))


# a plastic run's spike shapes: post1 alone depresses through V_pre - V_post1 at
# 1.6 V and then, on a 0.5 V pre spike, potentiates at 1.7 V
PLASTIC_POST1 = Waveform(((0.0, 1.6), (1e-3, 1.6), (1e-3, -1.2), (3e-3, -1.2)))
V_APPS = ("V_pre - V_post1", "V_pre + V_post1", "V_pre - V_post1 + 0.5 * V_post2",
          "V_pre - V_post1 + 1e4 * G")
# divides by zero wherever an engaged synapse sees post1's -1.2 V phase alone
FAILING_V_APP = "V_pre - V_post1 + 0 * (1 / (V_post1 + 1.2))"
EX_EQS = (None, None, "G * V_TB * (1 + 0.5 * tanh(V_TB))", "G * V_TB + 1e-7 * V_post1",
          "G * (V_TB + 0.1 * V_post2)")
LEVELS = tuple(np.linspace(1 * US, 9 * US, 17).tolist())


def family_device():
    """Three rows a direction, picked by |V_TB| nearest 1.5, 1.7 or 2.0 V."""
    rows = (LEVELS, LEVELS[::2], LEVELS[::4])
    return PulseFamilyDevice(
        PulseFamilyTable((1.5, 1.7, 2.0), rows, True),
        PulseFamilyTable((1.5, 1.7, 2.0), tuple(row[::-1] for row in rows), False),
        1 * US, 9 * US)


def random_plastic_run(seed: int):
    """random_frozen_spec's draw widened to learning runs, in the shape of the
    robustness probe: 1-3 matrices after an input layer up to 40 wide, with later
    layers up to 12 wide; sampled transmit and plasticity policies; ex_eqs,
    state_eqs and power_expr each set or not; post2 waveforms; identical and
    family devices; all_to_all, sparse and one_to_one masks; inhibition with
    a == b and a != b; reset_between_samples both ways; a T that cuts the last
    presentation short; and in some nets a v_app that divides by zero or a
    state_eqs that takes sqrt of a negative. Returns the spec, the SimConfig, the
    encoder and a 4-sample dataset."""
    rng = np.random.default_rng([8, seed])
    depth = int(rng.integers(2, 5))
    layers = [LayerSpec(neurons=int(rng.integers(1, 41)), neuron_model=input_model())]
    label = int(rng.integers(1, depth))
    for q in range(1, depth):
        conn = ["all_to_all", "sparse", "one_to_one"][int(rng.integers(3))]
        if conn == "one_to_one" and layers[-1].neurons > 12:
            conn = "sparse"
        width = layers[-1].neurons if conn == "one_to_one" else int(rng.choice([1, 2, 5, 8, 12]))
        state_eqs = [None, parse("(r_mem * I - V) / tau"), parse(
            f"(r_mem * I - V) / tau + 0 * sqrt({rng.uniform(8, 30):.1f}e-6 - I)")]
        model = NeuronModel(
            tau=10e-3, thres=float(rng.choice([0.2, 0.3, 0.6])), r_mem=1e6,
            t_refrac=float(rng.choice([0.0, 2e-3, 3.5e-3])),
            state_eqs=state_eqs[int(rng.choice(3, p=(0.45, 0.45, 0.1)))],
            power_expr=parse("V * V + r_mem * I * I") if rng.random() < 0.5 else None,
            waveforms=SpikeWaveforms(pre=rect(0.5, 2e-3), post1=PLASTIC_POST1,
                                     post2=rect(0.5, 2e-3) if q < depth - 1 or rng.random() < 0.5
                                     else None,
                                     inhib=rect(1.0, 5e-3)))
        ex_eqs = EX_EQS[int(rng.integers(len(EX_EQS)))]
        circuit = CircuitModel(
            v_app=parse(FAILING_V_APP if rng.random() < 0.08 else V_APPS[int(rng.integers(4))]),
            v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=frozenset(p for p, keep in zip(
                SpikePresence, rng.random(4) < (0.1, 0.95, 0.4, 0.5)) if keep),
            plasticity_policy=frozenset(p for p, keep in zip(
                SpikePresence, rng.random(4) < (0.1, 0.3, 0.5, 0.8)) if keep),
            ex_eqs=None if ex_eqs is None else parse(ex_eqs),
            conduct_during_plasticity=rng.random() < 0.7)
        layers.append(LayerSpec(
            neurons=width, neuron_model=model, plastic=rng.random() < 0.75, label=q == label,
            conn_type=conn, sparse_p=0.5, circuit_model=circuit,
            device_model=small_device() if rng.random() < 0.5 else family_device()))
    pairs = [(a, b) for a in range(1, depth) for b in range(1, depth)]
    init = [None, WeightInit("constant", value=float(rng.uniform(2, 8)) * US),
            WeightInit("uniform", lo=1 * US, hi=9 * US)][int(rng.integers(3))]
    spec = NetworkSpec(layers=tuple(layers), inh_g=1 * US, seed=int(rng.integers(100)),
                       inh_conn=tuple(pair for pair in pairs if rng.random() < 0.3),
                       init_weights=init)
    # T of 24-48 steps: the last presentation is often cut short of T_sample
    sim = SimConfig(T=1e-3 * int(rng.integers(24, 49)), dt=1e-3, T_sample=0.012,
                    reset_between_samples=rng.random() < 0.5, shuffle=rng.random() < 0.7,
                    seed=int(rng.integers(100)))
    encoder = PoissonEncoder(0.0, 100.0) if rng.random() < 0.7 else FixedRateEncoder(0.0, 100.0)
    dataset = [Sample(tuple(rng.random(layers[0].neurons).round(2).tolist()),
                      label=int(rng.integers(3))) for _ in range(4)]
    return spec, sim, encoder, dataset


def plastic_features(spec: NetworkSpec, sim: SimConfig) -> set[str]:
    """What a random plastic run exercises, read off its spec and SimConfig."""
    got = {f"{len(spec.layers) - 1} matrices", "reset" if sim.reset_between_samples
           else "no reset"}
    if num_steps(sim.T, sim.dt) % num_steps(sim.T_sample, sim.dt):
        got.add("short last presentation")
    if spec.layers[0].neurons > 30:
        got.add("over 30 inputs")
    for layer in spec.layers[1:]:
        circuit, model = layer.circuit_model, layer.neuron_model
        got |= {layer.conn_type, "plastic" if layer.plastic else "frozen layer",
                "family device" if len(layer.device_model.ltp.amplitudes) > 1
                else "identical device",
                "ex_eqs" if circuit.ex_eqs else "ohmic",
                "state_eqs" if model.state_eqs else "leak",
                "power_expr" if model.power_expr else "no power_expr"}
        got |= {f"transmit {p.value}" for p in circuit.transmit_policy}
        got |= {f"plasticity {p.value}" for p in circuit.plasticity_policy}
        if model.waveforms.post2 is not None:
            got.add("post2")
        if layer.neurons == 12:
            got.add("12 wide")
        if "op='/'" in repr(circuit.v_app):
            got.add("v_app that divides")
        if model.state_eqs is not None and "sqrt" in repr(model.state_eqs):
            got.add("state_eqs that fails")
        if not circuit.conduct_during_plasticity:
            got.add("no conduction while programming")
    got |= {"inhibition a == b" if a == b else "inhibition a != b" for a, b in spec.inh_conn}
    return got


PLASTIC_FEATURES = (
    {f"{k} matrices" for k in (1, 2, 3)} | {"over 30 inputs", "12 wide", "reset", "no reset",
                                            "short last presentation"}
    | {"all_to_all", "sparse", "one_to_one", "plastic", "frozen layer", "family device",
       "identical device", "ex_eqs", "ohmic", "state_eqs", "leak", "power_expr",
       "no power_expr", "post2", "v_app that divides", "state_eqs that fails",
       "no conduction while programming", "inhibition a == b", "inhibition a != b"}
    | {f"{kind} {p.value}" for kind in ("transmit", "plasticity") for p in SpikePresence})


def step_trace(trace):
    """A StepTrace's modes, currents (float.hex), membranes (float.hex) and fired lists."""
    return ([m.tolist() for m in trace.modes],
            [[x.hex() for x in c.tolist()] for c in trace.currents],
            [[x.hex() for x in v.tolist()] for v in trace.v], trace.fired)


def run_state(net):
    """snapshot(net), every conductance as float.hex, and the saturation count."""
    return snapshot(net), [[x.hex() for x in g.ravel().tolist()] for g in net.conductances()], \
        net.saturation_events


def run_passes(net, passes):
    """Each pass's result and the state it leaves, up to the first error's text."""
    out = []
    for one_pass in passes:
        try:
            out.append(one_pass(net))
        except SimulationError as err:
            return out + [str(err), run_state(net)]
        out.append(run_state(net))
    return out


def plastic_passes(side, dataset, sim, enc):
    """train, assign_labels and infer, then a recorded presentation of dataset[0]
    that learns, on the engine (side is engine) or on the reference."""
    trains = enc.encode(dataset[0].features, sim.T_sample, sim.dt,
                        np.random.default_rng([sim.seed, 3]))

    def recorded(net):
        side.schedule_input(net, trains)
        return [step_trace(side.run_timestep(net, k, record=True))
                for k in range(num_steps(sim.T_sample, sim.dt))]

    if side is engine:
        return [lambda net: train(net, dataset, sim, enc).training_accuracy,
                lambda net: assign_labels(net, dataset, sim, enc),
                lambda net: infer(net, dataset[::-1], sim, enc).predictions, recorded]
    return [lambda net: reference.train(net, dataset, sim, enc),
            lambda net: reference_assign_labels(net, dataset, sim, enc),
            lambda net: reference_infer(net, dataset[::-1], sim, enc)[1], recorded]


FROZEN_SEEDS, PLASTIC_SEEDS = range(30), range(30, 78)


@functools.lru_cache(maxsize=None)
def reference_plastic_run(seed: int, block: int):
    """run_passes of a random plastic run on the reference, walking BLOCK = block."""
    spec, sim, enc, dataset = random_plastic_run(seed)
    saved, reference.BLOCK = reference.BLOCK, block
    try:
        return run_passes(reference.build_network(spec, sim.dt),
                          plastic_passes(reference, dataset, sim, enc))
    finally:
        reference.BLOCK = saved


class TestFrozenDriverDifferential:
    """Seeded random small nets against the whole-run reference (tests/reference_engine.py).

    Frozen nets (random_frozen_spec): with FROZEN_BATCH 1, 2, 3 and 8, and with chunks
    of 8 and 3 walked in slices of engine.BLOCK 1 and 3, the frozen passes give
    the reference's per-sample driver's phase-1 counts, labels and predictions,
    or its error when a state_eqs sample fails, and after each pass leave the
    net's state as the reference leaves it, bit for bit.

    Plastic runs (random_plastic_run): train, assign_labels and infer, then a
    recorded presentation that learns, give the reference's training accuracy,
    labels, predictions and StepTraces, or its SimulationError text, and each pass
    leaves the reference's spike times, energy, membranes, lines, conductances
    (float.hex) and saturation count, a failing step included: odd seeds with the
    defaults, even seeds with FROZEN_BATCH 3 and both engines' BLOCK at 3."""

    SIM = SimConfig(T=0.03, dt=1e-3, T_sample=0.015, seed=6)
    ENC = PoissonEncoder(0.0, 100.0)

    @pytest.mark.parametrize("seed", [*FROZEN_SEEDS, *PLASTIC_SEEDS])
    def test_matches_the_per_sample_driver(self, seed, monkeypatch):
        if seed in PLASTIC_SEEDS:
            spec, sim, enc, dataset = random_plastic_run(seed)
            batch, block = (engine.FROZEN_BATCH, engine.BLOCK) if seed % 2 else (3, 3)
            monkeypatch.setattr(engine, "FROZEN_BATCH", batch)
            monkeypatch.setattr(engine, "BLOCK", block)
            got = run_passes(build_network(spec, sim.dt), plastic_passes(engine, dataset, sim, enc))
            assert got == reference_plastic_run(seed, block), f"FROZEN_BATCH={batch}, BLOCK={block}"
            return
        spec = random_frozen_spec(seed)
        rng = np.random.default_rng(seed)
        width = spec.layers[0].neurons
        dataset = [Sample(tuple(rng.random(width).round(2).tolist()), label=int(rng.integers(3)))
                   for _ in range(5)]
        sim, enc = self.SIM, self.ENC
        expected = run_passes(reference.build_network(spec, sim.dt), [
            lambda net: [_frozen_pass_counts(net, s, sim, enc, 1, i)
                         for i, s in enumerate(dataset)],
            lambda net: reference_assign_labels(net, dataset, sim, enc),
            lambda net: reference_infer(net, dataset[::-1], sim, enc)[1]])
        for batch, block in ((1, engine.BLOCK), (2, engine.BLOCK), (3, engine.BLOCK),
                             (8, engine.BLOCK), (8, 1), (3, 3)):
            monkeypatch.setattr(engine, "FROZEN_BATCH", batch)
            monkeypatch.setattr(engine, "BLOCK", block)
            got = run_passes(build_network(spec, sim.dt), [
                lambda net: engine._frozen_counts(net, dataset, sim, enc, phase=1).tolist(),
                lambda net: assign_labels(net, dataset, sim, enc),
                lambda net: infer(net, dataset[::-1], sim, enc).predictions])
            assert got == expected, f"FROZEN_BATCH={batch}, BLOCK={block}"

    def test_the_plastic_runs_draw_every_feature_and_outcome(self):
        """Every feature of random_plastic_run is drawn at least once, and on the
        reference some runs learn and label every neuron, while some end in
        training, at a synapse's division by zero or at a neuron's sqrt."""
        drawn = set().union(*(plastic_features(*random_plastic_run(seed)[:2])
                              for seed in PLASTIC_SEEDS))
        assert PLASTIC_FEATURES <= drawn, PLASTIC_FEATURES - drawn
        learned = failed = 0
        for seed in PLASTIC_SEEDS:
            spec, sim, _, _ = random_plastic_run(seed)
            run = reference_plastic_run(seed, engine.BLOCK if seed % 2 else 3)
            if len(run) == 2:  # train raised
                failed |= {"synapse": 1, "neuron": 2}[run[0].split()[0]]
            elif run[1][1] != run_state(reference.build_network(spec, sim.dt))[1] \
                    and None not in run[2]:
                learned += 1
        assert failed == 3 and learned >= 10


class TestReferenceBoundary:
    """tests/reference_engine.py takes from spikeforge only the spec classes, the neuron,
    circuit and device models with the mode and presence constants, the waveform grid rules,
    expr and SimulationError: no step, runtime or kernel name of any module, so the engine's
    can be rewritten under it."""

    ALLOWED = {  # exactly what the reference imports
        "spikeforge": {"expr"},
        "spikeforge.engine": {"NetworkSpec", "SimConfig", "WeightInit", "SimulationError"},
        "spikeforge.neuron": {"NeuronModel"},
        "spikeforge.synapse": {"CircuitModel", "PulseFamilyDevice", "SpikePresence", "SynapseMode",
                               "PRESENCE_BY_CODE", "PROGRAMMING", "IDLE", "TRANSMIT", "POTENTIATE",
                               "DEPRESS"},
        "spikeforge.waveform": {"Waveform", "num_steps", "support_steps"},
    }
    STEP_NAMES = {
        "run_timestep", "_synapse_pass", "_engaged", "_program", "_emit", "_present",
        "_present_frozen", "_frozen_counts", "_Line", "_idle_state", "_LayerRuntime", "_Matrix",
        "_EnergyLog", "Network", "NeuronState", "StepTrace", "build_network", "schedule_input",
        "train", "assign_labels", "infer", "integrate", "fire_check", "mode_from_voltage",
        "transmit_current", "step_device", "saturates", "_nearest", "_row", "_samples"}

    def test_it_imports_no_step_or_runtime_name(self):
        tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not [a.name for a in node.names if a.name.startswith("spikeforge")]
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("spikeforge"):
                imported.setdefault(node.module, set()).update(a.name for a in node.names)
        for module, names in imported.items():
            allowed = self.ALLOWED.get(module, set())
            assert names <= allowed, (module, names - allowed)
            assert not names & self.STEP_NAMES
        # and each step name it holds is its own copy
        copied = self.STEP_NAMES & set(vars(reference))
        # the batched frozen driver is not copied; `reference_*` name its readouts
        assert self.STEP_NAMES - copied == {"_EnergyLog", "_present_frozen", "_frozen_counts",
                                            "assign_labels", "infer"}
        assert all(getattr(reference, name).__module__ == reference.__name__ for name in copied)


class TestSaveLoad:
    def test_round_trip_bit_identical(self, tmp_path):
        spec = two_layer_spec(5, 3, conn_type="sparse", sparse_p=0.6, seed=9)
        net = build_network(spec, 1e-3)
        net.labels = [0, None, 1]
        path = tmp_path / "net.weights"
        save_network(net, path)
        loaded = load_network(path, spec, 1e-3)
        for a, b in zip(net.conductances(), loaded.conductances()):
            assert np.array_equal(a, b)
        assert loaded.labels == [0, None, 1]

    def test_truncated_file_rejected(self, tmp_path):
        spec = two_layer_spec(4, 2)
        net = build_network(spec, 1e-3)
        path = tmp_path / "net.weights"
        save_network(net, path)
        content = path.read_text().splitlines()
        path.write_text("\n".join(content[:-3]) + "\n")
        with pytest.raises(NetworkFileError):
            load_network(path, spec, 1e-3)

    def test_future_version_names_both(self, tmp_path):
        path = tmp_path / "net.weights"
        path.write_text("spikeforge-net v2\n")
        with pytest.raises(NetworkFileError, match="v2") as err:
            load_network(path, two_layer_spec(2, 2), 1e-3)
        assert "v1" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "net.weights"
        path.write_text("")
        with pytest.raises(NetworkFileError) as err:
            load_network(path, two_layer_spec(2, 2), 1e-3)
        assert str(err.value) == f"{path}: empty file"

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "net.weights"
        path.write_text("not a network\n")
        with pytest.raises(NetworkFileError, match="not a spikeforge"):
            load_network(path, two_layer_spec(2, 2), 1e-3)

    def test_corrupt_line_reports_position(self, tmp_path):
        spec = two_layer_spec(2, 2)
        net = build_network(spec, 1e-3)
        path = tmp_path / "net.weights"
        save_network(net, path)
        lines = path.read_text().splitlines()
        lines[1] = "1,0,0,not_a_float"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NetworkFileError, match=":2:"):
            load_network(path, spec, 1e-3)

    def test_corrupt_line_deep_in_the_file_reports_its_own_line(self, tmp_path):
        spec = two_layer_spec(40, 30)
        path = tmp_path / "net.weights"
        save_network(build_network(spec, 1e-3), path)
        lines = path.read_text().splitlines()
        lines[987] = lines[987].rpartition(",")[0] + ",1.0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NetworkFileError) as err:
            load_network(path, spec, 1e-3)
        assert str(err.value) == (
            f"{path}:988: corrupt line: could not convert string to float: '1.0.0'")

    @pytest.mark.parametrize("text, value", [
        ("nan", "nan"), ("inf", "inf"),
        ("9.999999999999997e-07", "9.999999999999997e-07"),  # one ulp below g_min
        ("9.000000000000002e-06", "9.000000000000002e-06"),  # one ulp above g_max
    ])
    @pytest.mark.parametrize("reorder", [False, True])  # the array path, the per-line read
    def test_conductance_outside_the_device_range_is_a_file_fault(self, tmp_path, text, value,
                                                                  reorder):
        spec = two_layer_spec(3, 2)
        path = tmp_path / "net.weights"
        save_network(build_network(spec, 1e-3), path)
        lines = path.read_text().splitlines()
        # two faults: the first in matrix.pairs order is named, whatever the line order
        lines[4], lines[6] = f"1,1,1,{text}", "1,2,1,0.5"
        if reorder:
            lines[4], lines[5] = lines[5], lines[4]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NetworkFileError) as err:
            load_network(path, spec, 1e-3)
        assert str(err.value) == (f"{path}: synapse (layer 1, pre 1, post 1) has conductance "
                                  f"{value}, outside its device range [1e-06, 9e-06]")

    def test_round_trip_keeps_every_bit(self, tmp_path):
        spec = two_layer_spec(30, 7)
        # a device range that holds every conductance drawn below
        wide = PulseFamilyDevice.identical((1 * US,), (1 * US,), -1.0, 1e10)
        spec = dataclasses.replace(spec, layers=(
            spec.layers[0], dataclasses.replace(spec.layers[1], device_model=wide)))
        net = build_network(spec, 1e-3)
        rng = np.random.default_rng(5)
        g = rng.uniform(0.0, 1.0, size=210) * 10.0 ** rng.integers(-320, 10, size=210)
        g[:6] = [5e-324, np.nextafter(5e-324, 1.0), 2.2250738585072009e-308, -0.0,
                 0.1, np.nextafter(0.1, 1.0)]
        g[6:20:2] = np.nextafter(g[7:21:2], np.inf)  # one ulp apart
        net.matrices[0].g[:] = g.reshape(30, 7)
        net.labels = [None, 3, 0, None, 1, 2, 2]
        path = tmp_path / "net.weights"
        save_network(net, path)
        loaded = load_network(path, spec, 1e-3)
        assert [x.hex() for x in loaded.matrices[0].g.ravel().tolist()] == [
            x.hex() for x in g.tolist()]
        assert loaded.labels == net.labels

    def test_three_layers_with_a_sparse_second_matrix(self, tmp_path):
        spec = NetworkSpec(layers=(
            input_layer(6), hidden_layer(5),
            output_layer(4, conn_type="sparse", sparse_p=0.4)), seed=8)
        net = build_network(spec, 1e-3)
        second = net.matrices[1]
        assert not second.mask.all()
        second.g[second.mask] = np.linspace(1 * US, 9 * US, int(second.mask.sum()))
        net.labels = [1, None, 0, 1]
        path = tmp_path / "net.weights"
        save_network(net, path)
        loaded = load_network(path, spec, 1e-3)
        for a, b in zip(net.conductances(), loaded.conductances()):
            assert a.tobytes() == b.tobytes()
        assert loaded.labels == [1, None, 0, 1]
        # a conductance for a pair the sparse matrix does not connect
        i, j = np.argwhere(~second.mask)[0]
        text = path.read_text()
        path.write_text(text.replace("label,0,", f"2,{i},{j},1e-06\nlabel,0,"))
        n = 6 * 5 + int(second.mask.sum())
        with pytest.raises(NetworkFileError, match=r"synapse set does not match the network "
                                                   rf"topology \({n + 1} entries, expected {n}\)"):
            load_network(path, spec, 1e-3)

    SIM = "[sim]\nT = 0.01\ndt = 0.001\nT_sample = 0.01\n"
    MODELS = """
[device.ladder]
kind = identical
g_min = 1e-6
g_max = 3e-6
levels_ltp = 1e-6, 2e-6, 3e-6
levels_ltd = 3e-6, 2e-6, 1e-6

[circuit.pass]
v_app = V_pre
v_th_pos = 1.5
v_th_neg = 1.5

[neuron.input]
tau = 1.0
thres = 1.0
pre_volt = 0, 0.5, 0.002, 0.5

[neuron.out]
tau = 0.01
thres = 0.2
"""
    LAYERS = MODELS + """
[layers.0]
neurons = 5
neuron = input

[layers.1]
neurons = 3
neuron = out
label = true
device = ladder
circuit = pass
"""
    # 3 -> 4 -> 5 whose second matrix is sparse, as in test_netfile_oracle's SPECS
    SPARSE_LAYERS = MODELS + """
[layers.0]
neurons = 3
neuron = input

[layers.1]
neurons = 4
neuron = out
device = ladder
circuit = pass

[layers.2]
neurons = 5
neuron = out
label = true
device = ladder
circuit = pass
conn_type = sparse
sparse_p = 0.5

[network]
seed = 2
"""

    def test_from_file_init_weights_reach_the_same_loader(self, tmp_path):
        sim, layers = self.SIM, self.LAYERS
        (tmp_path / "plain.cfg").write_text(sim + layers)
        cfg = load_config(tmp_path / "plain.cfg")
        net = build_network(cfg.network, cfg.sim.dt)
        net.matrices[0].g[:] = np.arange(15).reshape(5, 3) * 1e-7 + 1e-6
        net.labels = [2, None, 0]
        save_network(net, tmp_path / "net.weights")
        (tmp_path / "saved.cfg").write_text(
            sim + layers + "\n[network]\ninit_weights = from_file(net.weights)\n")
        cfg = load_config(tmp_path / "saved.cfg")
        loaded = build_network(cfg.network, cfg.sim.dt)
        assert loaded.matrices[0].g.tobytes() == net.matrices[0].g.tobytes()
        assert loaded.labels == [2, None, 0]
        (tmp_path / "net.weights").write_text(
            (tmp_path / "net.weights").read_text().replace("label,1,none\n", ""))
        with pytest.raises(NetworkFileError, match="label lines do not cover the label "
                                                   r"layer \(2 entries, expected 3\)"):
            build_network(cfg.network, cfg.sim.dt)

    def test_a_sparse_net_loads_whatever_init_its_spec_names(self, tmp_path):
        """The masks come from the layers and the seed alone, so a saved net whose
        sparse matrix follows another comes back through a config's from_file init
        and through load_network with a constant or the default init."""
        (tmp_path / "plain.cfg").write_text(self.SIM + self.SPARSE_LAYERS)
        cfg = load_config(tmp_path / "plain.cfg")
        net = build_network(cfg.network, cfg.sim.dt)
        assert not net.matrices[1].mask.all()
        net.labels = [3, None, 0, 1, None]
        path = tmp_path / "net.weights"
        save_network(net, path)
        (tmp_path / "saved.cfg").write_text(
            self.SIM + self.SPARSE_LAYERS + "init_weights = from_file(net.weights)\n")
        constant = dataclasses.replace(cfg.network, init_weights=WeightInit("constant",
                                                                            value=2 * US))
        for loaded in (build_network(load_config(tmp_path / "saved.cfg").network, cfg.sim.dt),
                       load_network(path, constant, cfg.sim.dt),
                       load_network(path, cfg.network, cfg.sim.dt)):
            assert [m.g.tobytes() for m in loaded.matrices] == [
                m.g.tobytes() for m in net.matrices]
            assert loaded.labels == net.labels

    def test_load_network_reads_only_its_own_file(self, tmp_path, monkeypatch):
        spec = two_layer_spec(3, 2)
        a, b = tmp_path / "a.weights", tmp_path / "b.weights"
        for path, g in ((a, 2 * US), (b, 4 * US)):
            net = build_network(spec, 1e-3)
            net.matrices[0].g[:] = g
            save_network(net, path)
        reads = []
        load = engine._load_conductances
        monkeypatch.setattr(engine, "_load_conductances",
                            lambda net, path: (reads.append(path), load(net, path)))
        from_a = dataclasses.replace(spec, init_weights=WeightInit("from_file", path=str(a)))
        loaded = load_network(b, from_a, 1e-3)
        assert reads == [str(b)]
        assert loaded.spec.init_weights == WeightInit("from_file", path=str(b))
        assert (loaded.matrices[0].g == 4 * US).all()


class TestLateralInhibition:
    def test_winner_suppresses_peer(self):
        inhib = rect(1.0, 10e-3)
        model = out_model(thres=0.2, inhib=inhib)
        layers = (
            input_layer(2),
            LayerSpec(neurons=2, neuron_model=model, label=True,
                      conn_type="one_to_one",
                      circuit_model=transmit_circuit(), device_model=small_device()),
        )
        base = dict(seed=1, init_weights=WeightInit("constant", value=5 * US))
        sim = SimConfig(T=0.1, dt=1e-3, T_sample=0.1, seed=0)
        enc = FixedRateEncoder(0.0, 200.0)
        # neuron 0 gets a head start through a stronger input drive
        dataset = [Sample((1.0, 0.5), label=0)]

        def spike_counts(spec):
            net = build_network(spec, sim.dt)
            rng = np.random.default_rng(0)
            trains = enc.encode(dataset[0].features, sim.T_sample, sim.dt, rng)
            schedule_input(net, trains)
            for k in range(num_steps(sim.T, sim.dt)):
                run_timestep(net, k, learn=False)
            return [len(s.spike_times) for s in net.layers[1].states]

        free = spike_counts(NetworkSpec(layers=layers, **base))
        suppressed = spike_counts(NetworkSpec(layers=layers, inh_conn=((1, 1),),
                                              inh_g=50 * US, **base))
        assert suppressed[1] < free[1]  # loser is slowed by the winner
        assert suppressed[0] > suppressed[1]  # the stronger drive stays dominant

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 0)])
    def test_a_pair_naming_the_input_layer_is_rejected(self, pair):
        # layer 0 neither fires nor integrates, so the pair would be inert
        inhib = rect(1.0, 5e-3)
        input_layer = LayerSpec(neurons=2, neuron_model=NeuronModel(
            tau=1.0, thres=1.0, waveforms=SpikeWaveforms(pre=rect(0.5, 2e-3), inhib=inhib)))
        layers = (input_layer, LayerSpec(
            neurons=3, neuron_model=out_model(inhib=inhib), label=True,
            circuit_model=transmit_circuit(), device_model=small_device()))
        with pytest.raises(SpecError, match=rf"inh_conn pair \({pair[0]}, {pair[1]}\) "
                                            "names the input layer") as err:
            NetworkSpec(layers=layers, inh_conn=(pair,), inh_g=1 * US)
        assert err.value.key == "inh_conn"
        NetworkSpec(layers=layers, inh_conn=((1, 1),), inh_g=1 * US)

    def test_pending_inhibition_stays_bounded_without_reset(self):
        # an inhibition line keeps only the steps still to run, so however long
        # a run without resets lasts, it holds at most the 5 steps of the
        # inhibitory waveforms emitted in the last step
        n = 3
        layers = (
            input_layer(2),
            LayerSpec(neurons=n, neuron_model=out_model(thres=0.2, inhib=rect(1.0, 5e-3)),
                      label=True, circuit_model=transmit_circuit(),
                      device_model=small_device()),
        )
        spec = NetworkSpec(layers=layers, inh_conn=((1, 1),), inh_g=1 * US, seed=1,
                           init_weights=WeightInit("constant", value=5 * US))
        bound = 5

        def pending_after_training(T):
            net = build_network(spec, 1e-3)
            seen = []
            clear = net.reset_transient

            def reset_transient():
                # the first reset is the frozen pass after the training stream
                if not seen:
                    seen.append(sorted(net.layers[1].inhib_in.pending))
                clear()

            net.reset_transient = reset_transient
            sim = SimConfig(T=T, dt=1e-3, T_sample=0.1, reset_between_samples=False)
            train(net, [Sample((1.0, 1.0), label=0)], sim, FixedRateEncoder(0.0, 200.0))
            last = num_steps(T, 1e-3) - 1
            steps = seen[0]
            assert all(last < k for k in steps)
            return len(steps), net.layers[1].states

        short, _ = pending_after_training(0.1)
        long, states = pending_after_training(1.0)
        # far more inhibitory spikes were sent than can be pending at once
        assert sum(len(s.spike_times) for s in states) > 10 * bound
        assert short <= bound and long <= bound


class TestBoundedState:
    def test_emission_fed_lines_hold_at_most_the_longest_support(self, monkeypatch):
        # a three-layer net trained without resets, with lateral inhibition
        # inside both layers and from the output back onto the hidden layer:
        # after every step, every line that spikes feed (post1 back, post2
        # forward, inhibition) holds only steps still to run, and no more of
        # them than the longest waveform the layer emits
        model = out_model(thres=0.2, inhib=rect(1.0, 5e-3))
        layers = (
            input_layer(3),
            LayerSpec(neurons=4, neuron_model=model,
                      circuit_model=transmit_circuit(), device_model=small_device()),
            LayerSpec(neurons=3, neuron_model=model, label=True,
                      circuit_model=transmit_circuit(), device_model=small_device()),
        )
        spec = NetworkSpec(layers=layers, inh_conn=((1, 1), (2, 2), (2, 1)),
                           inh_g=1 * US, seed=1,
                           init_weights=WeightInit("constant", value=5 * US))
        wf = model.waveforms
        bound = max(support_steps(w.duration, 1e-3)
                    for w in (wf.pre, wf.post1, wf.post2, wf.inhib))
        assert bound == 20

        def longest_pending(T):
            net = build_network(spec, 1e-3)
            longest = [0]
            step_once = engine.run_timestep

            def run_timestep(net, step, **kw):
                trace = step_once(net, step, **kw)
                for line in (line for layer in net.layers[1:] for line in layer.lines):
                    assert all(k > step for k in line.pending)
                    longest[0] = max(longest[0], len(line.pending))
                return trace

            monkeypatch.setattr(engine, "run_timestep", run_timestep)
            sim = SimConfig(T=T, dt=1e-3, T_sample=0.1, reset_between_samples=False)
            train(net, [Sample((1.0, 1.0, 1.0), label=0)], sim,
                  FixedRateEncoder(0.0, 200.0))
            spikes = sum(len(s.spike_times) for layer in net.layers for s in layer.states)
            return longest[0], spikes

        short, _ = longest_pending(0.1)
        long, spikes = longest_pending(1.0)
        assert spikes > 10 * bound
        assert 0 < short <= bound and 0 < long <= bound

    def test_input_spikes_reach_the_line_only_at_their_step(self):
        # a presentation's input spikes wait in Network.inputs: the input
        # line holds at most the steps of the pre waveforms already started
        net = build_network(two_layer_spec(6, 2), 1e-3)
        trains = PoissonEncoder(0.0, 90.0).encode((1.0,) * 6, 0.1, 1e-3,
                                                  np.random.default_rng(0))
        schedule_input(net, trains)
        line = net.layers[0].pre_out
        assert not line.pending and sum(map(len, net.inputs.values())) == sum(map(len, trains))
        support = len(net.layers[0].pre)
        for k in range(100):
            run_timestep(net, k, learn=False)
            assert all(k < step <= k + support for step in line.pending)
        assert not net.inputs
        # the between-sample reset drops the spikes of a cut-short presentation
        schedule_input(net, trains, 100)
        run_timestep(net, 100)
        assert net.inputs and line.pending
        net.reset_transient()
        assert not net.inputs and not line.pending


class TestSlicedProgramming:
    """A learning step applies each slice's pulses before the next slice is made, so it
    holds BLOCK of them at a time, and gives what programming after the neurons gave."""

    @staticmethod
    def post_only_circuit():
        # a post spike alone depresses: V_TB = 0 - 1.7 V, past v_th_neg
        return CircuitModel(
            v_app=parse("V_pre - V_post1"), v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=frozenset({SpikePresence.PRE_ONLY, SpikePresence.BOTH}),
            plasticity_policy=frozenset({SpikePresence.POST_ONLY}))

    def test_block_size_changes_nothing(self, monkeypatch):
        # 40 x 30 = 1200 synapses, and every output fires on the first input spike, so a
        # step in which all their post1 waveforms are active programs more than 1024
        spec = NetworkSpec(layers=(input_layer(40), LayerSpec(
            neurons=30, neuron_model=out_model(inhib=rect(1.0, 5e-3)), plastic=True,
            label=True, circuit_model=self.post_only_circuit(), device_model=small_device())),
            inh_conn=((1, 1),), inh_g=1 * US, seed=4)
        rng = np.random.default_rng(4)
        samples = [tuple(rng.random(40).round(2).tolist()) for _ in range(2)]
        program_once = engine._program
        runs, calls = {}, {}
        for block in (10**6, 1, 3, 1024):  # first one slice a step, as before slices
            monkeypatch.setattr(engine, "BLOCK", block)
            calls[block] = []
            monkeypatch.setattr(engine, "_program", lambda matrix, pulses, log=calls[block]: (
                log.append(len(pulses)) or program_once(matrix, pulses)))
            net = build_network(spec, 1e-3)
            for k, features in enumerate(samples):
                net.reset_transient()
                trains = PoissonEncoder(0.0, 90.0).encode(
                    features, 0.02, 1e-3, np.random.default_rng(k))
                engine._present(net, trains, 20, 20 * k, learn=True)
            runs[block] = ([g.tobytes() for g in net.conductances()], net.saturation_events,
                           [[list(map(float.hex, s.spike_times)) for s in layer.states]
                            for layer in net.layers])
        assert runs[1] == runs[3] == runs[1024] == runs[10**6]
        assert runs[10**6][1] > 0
        pulses = sum(calls[10**6])
        assert all(sum(calls[block]) == pulses for block in calls)
        assert calls[1] == [1] * pulses and max(calls[3]) == 3 and 0 not in calls[3]
        # a step of more than 1024 pulses applied them in two slices
        assert max(calls[10**6]) > 1024 and max(calls[1024]) == 1024

    @pytest.mark.slow
    def test_a_step_that_programs_every_synapse_stays_bounded_at_784x100(self):
        """Every synapse of the 784 x 100 net depresses in one step (post1 alone). When
        the step kept all 78400 pulses until its neurons had run, the traced peak read
        about 9.8 MB; applied a slice at a time, about 1.1 MB."""
        spec = NetworkSpec(layers=(input_layer(784), LayerSpec(
            neurons=100, neuron_model=out_model(), plastic=True, label=True,
            circuit_model=self.post_only_circuit(), device_model=small_device())), seed=1)
        net = build_network(spec, 1e-3)
        out = net.layers[1]
        out.post1_in.trigger(np.arange(100), 1, out.post1)
        run_timestep(net, 0)  # fills caches; no line is active, so nothing engages
        g0 = net.conductances()[0]
        tracemalloc.start()
        try:
            run_timestep(net, 1)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert (net.matrices[0].g < g0).all()
        assert peak_mb <= 4.0, peak_mb


class TestSimulationErrors:
    @staticmethod
    def driven_net(v_app, ex_eqs, plastic, pre_volts, post_volts, learns=False):
        """Every presence engaged; each line holds the given volts at step 0; with
        learns, the layer is plastic."""
        circuit = CircuitModel(
            v_app=parse(v_app), v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=frozenset(SpikePresence), plasticity_policy=plastic,
            ex_eqs=None if ex_eqs is None else parse(ex_eqs))
        spec = NetworkSpec(layers=(
            input_layer(len(pre_volts)),
            LayerSpec(neurons=len(post_volts), neuron_model=out_model(), label=True,
                      plastic=learns, circuit_model=circuit, device_model=small_device())))
        net = build_network(spec, 1e-3)
        for line, volts in ((net.layers[0].pre_out, pre_volts),
                            (net.layers[1].post1_in, post_volts)):
            for idx, v in enumerate(volts):
                line.trigger(idx, 0, grid_samples(rect(v, 2e-3), 1e-3))
        return net

    @pytest.mark.parametrize("plastic", [frozenset(), frozenset({SpikePresence.PRE_ONLY})],
                             ids=["in_transmit_current", "in_mode_decision"])
    def test_failing_v_app_names_the_synapse(self, plastic):
        circuit = CircuitModel(
            v_app=parse("V_pre / V_post1"), v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=frozenset({SpikePresence.PRE_ONLY}), plasticity_policy=plastic)
        spec = NetworkSpec(layers=(
            input_layer(2),
            LayerSpec(neurons=2, neuron_model=out_model(), label=True,
                      circuit_model=circuit, device_model=small_device())))
        net = build_network(spec, 1e-3)
        # only input 1 spikes; V_post1 rests at 0
        schedule_input(net, [SpikeTrain((), 1e-3), SpikeTrain((0,), 1e-3)])
        with pytest.raises(SimulationError,
                           match=r"synapse \(layer 1, pre 1, post 0\) at t=0.0: division by zero"):
            run_timestep(net, 0)

    @pytest.mark.parametrize("plastic", [frozenset(), frozenset(SpikePresence)],
                             ids=["in_transmit_current", "in_mode_decision"])
    def test_first_failing_synapse_in_row_major_order_is_named(self, plastic):
        # every presence transmits, and V_TB divides by zero where V_pre equals
        # V_post1: at (pre 1, post 2) and (pre 2, post 0). Row-major order
        # reaches (1, 2) first; column-major order would reach (2, 0).
        net = self.driven_net("1 / (V_pre - V_post1)", None, plastic,
                              (0.5, 1.0, 2.0), (2.0, 0.3, 1.0))
        with pytest.raises(SimulationError,
                           match=r"synapse \(layer 1, pre 1, post 2\) at t=0.0: division by zero"):
            run_timestep(net, 0)

    @pytest.mark.parametrize("plastic", [frozenset(), frozenset(SpikePresence)],
                             ids=["in_transmit_current", "in_mode_decision"])
    def test_earlier_ex_eqs_failure_wins_over_a_later_v_app_failure(self, plastic):
        # V_TB divides by zero at (pre 1, post 0), where V_pre equals V_post1;
        # ex_eqs divides by zero at (pre 0, post 2), where V_pre = 2 * V_post1,
        # and again at (1, 1). Row-major order reaches (0, 2) first, although
        # V_TB is evaluated for every engaged synapse before any current.
        net = self.driven_net("1 / (V_pre - V_post1)", "G * V_TB / (V_pre - 2 * V_post1)",
                              plastic, (0.5, 2.0), (2.0, 1.0, 0.25))
        with pytest.raises(SimulationError) as err:
            run_timestep(net, 0)
        assert str(err.value) == "synapse (layer 1, pre 0, post 2) at t=0.0: division by zero"

    @pytest.mark.parametrize("plastic", [frozenset(), frozenset(SpikePresence)],
                             ids=["in_transmit_current", "in_mode_decision"])
    def test_v_app_failure_keeps_the_scalar_message(self, plastic):
        # log fails where V_pre <= V_post1: first at (pre 1, post 0); ex_eqs
        # never fails, and the message carries the scalar evaluator's value
        net = self.driven_net("log(V_pre - V_post1)", "G * V_TB", plastic,
                              (4.0, 0.5), (2.0, 0.25, 1.0))
        with pytest.raises(SimulationError) as err:
            run_timestep(net, 0)
        assert str(err.value) == (
            "synapse (layer 1, pre 1, post 0) at t=0.0: log of non-positive value -1.5")

    def test_failing_state_eqs_names_the_neuron(self):
        model = NeuronModel(tau=10e-3, thres=0.2, state_eqs=parse("1 / V"),
                            waveforms=SpikeWaveforms(pre=rect(0.5, 2e-3)))
        spec = NetworkSpec(layers=(
            input_layer(2),
            LayerSpec(neurons=2, neuron_model=model, label=True,
                      circuit_model=transmit_circuit(), device_model=small_device())))
        net = build_network(spec, 1e-3)
        net.layers[1].states[0].v = 0.1  # neuron 1 stays at V = 0
        with pytest.raises(SimulationError,
                           match=r"neuron \(layer 1, index 1\) at t=0.0: division by zero"):
            run_timestep(net, 0)

    def test_failing_power_expr_names_the_neuron_inside_its_refractory_window(self):
        # power_expr runs where dV/dt does not: neuron 1 is pinned at V = 0 from step 2
        model = NeuronModel(tau=10e-3, thres=0.2, power_expr=parse("1 / V"),
                            waveforms=SpikeWaveforms(pre=rect(0.5, 2e-3)))
        spec = NetworkSpec(layers=(
            input_layer(2),
            LayerSpec(neurons=2, neuron_model=model, label=True,
                      circuit_model=transmit_circuit(), device_model=small_device())))
        net = build_network(spec, 1e-3)
        for state in net.layers[1].states:
            state.v = 0.1
        run_timestep(net, 0)
        run_timestep(net, 1)
        net.layers[1].states[1].v, net.layers[1].states[1].refractory_until = 0.0, 5
        with pytest.raises(SimulationError) as err:
            run_timestep(net, 2)
        assert str(err.value) == "neuron (layer 1, index 1) at t=0.002: division by zero"

    def test_a_failing_training_step_leaves_what_ran_before_the_failure_stepped(
            self, monkeypatch):
        # synapse (0, 0) potentiates (V_TB = 2 V); log fails at (1, 0), where V_pre is
        # 0.05 V: in slices of one, the first slice's pulse is applied before the second
        # fails, and in one slice of both, none is
        for block, moved in ((1, True), (engine.BLOCK, False)):
            monkeypatch.setattr(engine, "BLOCK", block)
            net = self.driven_net("V_pre + 0 * log(V_pre - 0.1)", None, frozenset(SpikePresence),
                                  (2.0, 0.05), (0.3,), learns=True)
            g0 = net.conductances()[0]
            with pytest.raises(SimulationError, match=r"synapse \(layer 1, pre 1, post 0\)"):
                run_timestep(net, 0)
            assert (net.matrices[0].g[0, 0] > g0[0, 0]) == moved
            assert net.matrices[0].g[1, 0] == g0[1, 0]
        # neuron 0 fires before neuron 1's state_eqs divides by zero
        model = NeuronModel(tau=10e-3, thres=0.2, state_eqs=parse("1 / V"),
                            waveforms=SpikeWaveforms(pre=rect(0.5, 2e-3), post1=rect(1.0, 2e-3)))
        spec = NetworkSpec(layers=(
            input_layer(2),
            LayerSpec(neurons=2, neuron_model=model, label=True,
                      circuit_model=transmit_circuit(), device_model=small_device())))
        net = build_network(spec, 1e-3)
        net.layers[1].states[0].v = 0.5
        with pytest.raises(SimulationError, match=r"neuron \(layer 1, index 1\) at t=0.0"):
            run_timestep(net, 0)
        assert [s.spike_times for s in net.layers[1].states] == [[0.0], []]
        assert list(net.layers[1].post1_in.pending) == [1, 2]


class TestDeterminismGuard:
    """A seeded train -> assign_labels -> infer run hashes to a value recorded
    on the full-scan synapse kernel (every connected pair visited each step),
    so any change to the engine's arithmetic or its visiting order shows."""

    EXPECTED = "02fee7edf14d9a6fc2f1f53d9e744903f0ba5aed699d5996eb7f9cd7c0d69102"

    def test_seeded_run_hash(self):
        circuit = CircuitModel(
            v_app=parse("V_pre - V_post1"), v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=frozenset({SpikePresence.PRE_ONLY, SpikePresence.BOTH}),
            plasticity_policy=frozenset({SpikePresence.BOTH, SpikePresence.POST_ONLY}))
        spec = NetworkSpec(
            layers=(input_layer(6),
                    LayerSpec(neurons=3, neuron_model=out_model(inhib=rect(1.0, 5e-3)),
                              plastic=True, label=True, circuit_model=circuit,
                              device_model=small_device())),
            inh_conn=((1, 1),), inh_g=2 * US, seed=1)
        sim = SimConfig(T=0.3, dt=1e-3, T_sample=0.05, reset_between_samples=False,
                        seed=7)
        dataset = [Sample(tuple(1.0 if i // 2 == c else 0.1 for i in range(6)), label=c)
                   for c in range(3)]
        enc = PoissonEncoder(0.0, 100.0)
        net = build_network(spec, sim.dt)
        train(net, dataset, sim, enc)
        labels = assign_labels(net, dataset, sim, enc)
        predictions = infer(net, dataset, sim, enc).predictions
        spikes = [len(s.spike_times) for s in net.layers[1].states]
        digest = hashlib.sha256()
        for g in net.conductances():
            digest.update(g.tobytes())
        digest.update(repr((labels, predictions, spikes)).encode())
        assert digest.hexdigest() == self.EXPECTED, (labels, predictions, spikes)


class TestTracedNames:
    """The benchmark's span tracer (bench/run.py) wraps these engine-module
    attributes, so they must stay there and the kernel must call them through
    the module, passing the mode and the old conductance as the 4th
    positional argument of transmit_current and step_device."""

    ENTRY_POINTS = ("build_network", "load_network", "train", "assign_labels",
                    "infer", "schedule_input", "run_timestep")
    KERNEL = ("mode_from_voltage", "transmit_current", "step_device", "saturates",
              "integrate", "fire_check")

    def test_names_and_positional_parameters(self):
        for name in self.ENTRY_POINTS + self.KERNEL:
            assert callable(getattr(engine, name)), name
        assert list(inspect.signature(engine.transmit_current).parameters)[3] == "mode"
        assert list(inspect.signature(engine.step_device).parameters)[3] == "g"

    def test_kernel_calls_through_module_globals(self, monkeypatch):
        seen = {name: [] for name in self.KERNEL}
        for name, calls in seen.items():
            def logged(*args, _original=getattr(engine, name), _calls=calls, **kwargs):
                _calls.append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(engine, name, logged)
        net = build_network(micro_spec(), dt=1e-3)
        schedule_input(net, [SpikeTrain((0,), 1e-3), SpikeTrain((), 1e-3)])
        for k in range(3):
            run_timestep(net, k)
        assert all(seen.values()), {name: len(calls) for name, calls in seen.items()}
        # the hand-traced steps: transmit, transmit, then a potentiating pulse
        assert [args[3] for args in seen["transmit_current"]] == [
            SynapseMode.TRANSMIT, SynapseMode.TRANSMIT, SynapseMode.POTENTIATE]
        assert [args[3] for args in seen["step_device"]] == [2 * US]

    def test_a_step_calls_the_names_the_module_holds_as_it_starts(self, monkeypatch):
        """The kernel reads its calls from the module once per pass or layer-step, not at
        import or build time: names wrapped after build_network, and again after a step,
        are the ones the next step calls."""
        names = ("mode_from_voltage", "transmit_current", "integrate", "fire_check")
        originals = {name: getattr(engine, name) for name in names}

        def wrap(log):
            for name in names:
                def logged(*args, _name=name, **kwargs):
                    log.append(_name)
                    return originals[_name](*args, **kwargs)
                monkeypatch.setattr(engine, name, logged)

        net = build_network(micro_spec(), dt=1e-3)
        schedule_input(net, [SpikeTrain((0,), 1e-3), SpikeTrain((), 1e-3)])
        first, second = [], []
        wrap(first)
        run_timestep(net, 0)
        assert first == ["transmit_current", "integrate", "fire_check"]
        wrap(second)
        run_timestep(net, 1)
        run_timestep(net, 2)  # the potentiating step reads the mode too
        assert len(first) == 3
        assert second == ["transmit_current", "integrate", "fire_check"] + [
            "mode_from_voltage", "transmit_current", "integrate", "fire_check"]
