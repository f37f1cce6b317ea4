import dataclasses
import hashlib
import inspect
import math

import numpy as np
import pytest

from spikeforge import engine
from spikeforge.encoding import FixedRateEncoder, PoissonEncoder, Sample, SpikeTrain
from spikeforge.engine import (
    LayerSpec, Network, NetworkFileError, NetworkSpec, SimConfig, SimulationError,
    WeightInit, assign_labels, build_network, infer, load_network, num_steps,
    run_timestep, save_network, schedule_input, train,
)
from spikeforge.expr import parse
from spikeforge.neuron import NeuronModel, SpikeWaveforms
from spikeforge.synapse import (
    CircuitModel, PulseFamilyDevice, SpikePresence, SynapseMode,
)
from spikeforge.waveform import Waveform

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

    def test_dataset_width_mismatch(self):
        net = self.make_net()
        with pytest.raises(ValueError, match="features"):
            train(net, [Sample((1.0,), label=0)], self.SIM, self.ENC)

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
        bound = max(engine._support_steps(w.duration, 1e-3)
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


class TestSimulationErrors:
    @staticmethod
    def driven_net(v_app, ex_eqs, plastic, pre_volts, post_volts):
        """Every presence engaged; each line holds the given volts at step 0."""
        circuit = CircuitModel(
            v_app=parse(v_app), v_th_pos=1.5, v_th_neg=1.5,
            transmit_policy=frozenset(SpikePresence), plasticity_policy=plastic,
            ex_eqs=None if ex_eqs is None else parse(ex_eqs))
        spec = NetworkSpec(layers=(
            input_layer(len(pre_volts)),
            LayerSpec(neurons=len(post_volts), neuron_model=out_model(), label=True,
                      circuit_model=circuit, device_model=small_device())))
        net = build_network(spec, 1e-3)
        for line, volts in ((net.layers[0].pre_out, pre_volts),
                            (net.layers[1].post1_in, post_volts)):
            for idx, v in enumerate(volts):
                line.trigger(idx, 0, engine._samples(rect(v, 2e-3), 1e-3))
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


class TestDeterminismGuard:
    """A seeded train -> assign_labels -> infer run hashes to a value recorded
    on the full-scan synapse kernel (every connected pair visited each step),
    so any change to the engine's arithmetic or its visiting order shows."""

    EXPECTED = "10970791926a8dc5656e5a71475c9e1470084a0c27bdedfc4c91df1e4d9644fe"

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
