import pytest

from spikeforge.config import ConfigError, load_config
from spikeforge.encoding import FixedRateEncoder, PoissonEncoder
from spikeforge.engine import LayerSpec, NetworkSpec, SimConfig
from spikeforge.expr import parse
from spikeforge.neuron import NeuronModel, SpikeWaveforms
from spikeforge.synapse import CircuitModel, PulseFamilyDevice, SpikePresence
from spikeforge.waveform import Waveform

MINIMAL = """\
# two-layer net with an identical-pulse device
[sim]
T = 0.2
dt = 0.001
T_sample = 0.1
seed = 3

[device.ladder]
kind = identical
g_min = 1e-6
g_max = 3e-6
levels_ltp = 1e-6, 2e-6, 3e-6
levels_ltd = 3e-6, 2e-6, 1e-6

[circuit.gate]
v_app = V_post1 - V_node1
v_th_pos = 1.5
v_th_neg = 1.5

[neuron.input]
tau = 1.0
thres = 1.0
pre_volt = 0, 0.5, 0.002, 0.5

[neuron.out]
tau = 0.01
thres = 0.2
post1_volt = 0, 1.7, 0.01, 1.7
inhib_volt = 0, 1.0, 0.005, 1.0

[layers.0]
neurons = 4
neuron = input

[layers.1]
neurons = 2
neuron = out
plastic = true
label = true
device = ladder
circuit = gate

[network]
inh_conn = 1:1
inh_g = 2e-6
seed = 11
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def line_of(text, fragment):
    return next(n for n, line in enumerate(text.splitlines(), start=1) if fragment in line)


def test_minimal_config_builds_the_expected_spec(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.sim == SimConfig(T=0.2, dt=0.001, T_sample=0.1, seed=3)
    assert cfg.encoding.type == "poisson"
    assert cfg.train_path is None and cfg.tune is None
    expected = NetworkSpec(
        layers=(
            LayerSpec(neurons=4, neuron_model=NeuronModel(
                tau=1.0, thres=1.0,
                waveforms=SpikeWaveforms(pre=Waveform(((0.0, 0.5), (0.002, 0.5)))))),
            LayerSpec(
                neurons=2, plastic=True, label=True,
                neuron_model=NeuronModel(tau=0.01, thres=0.2, waveforms=SpikeWaveforms(
                    post1=Waveform(((0.0, 1.7), (0.01, 1.7))),
                    inhib=Waveform(((0.0, 1.0), (0.005, 1.0))))),
                circuit_model=CircuitModel(
                    v_app=parse("V_post1 - V_node1"), v_th_pos=1.5, v_th_neg=1.5,
                    transmit_policy=frozenset({SpikePresence.PRE_ONLY}),
                    plasticity_policy=frozenset({SpikePresence.BOTH})),
                device_model=PulseFamilyDevice.identical(
                    (1e-6, 2e-6, 3e-6), (3e-6, 2e-6, 1e-6), 1e-6, 3e-6)),
        ),
        inh_conn=((1, 1),), inh_g=2e-6, seed=11)
    assert cfg.network == expected


def test_every_problem_is_reported_at_once(tmp_path):
    text = (MINIMAL.replace("dt = 0.001", "dt = fast")
            .replace("v_th_pos = 1.5", "v_th_pos = high")
            .replace("v_th_neg = 1.5", "v_th_neg = 1.5\nbogus = 1")
            .replace("neuron = out", "neuron = missing"))
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    problems = err.value.problems
    assert f"[sim] dt (line {line_of(text, 'dt = fast')}): expected a number, " \
           "got 'fast'" in problems
    assert f"[circuit.gate] v_th_pos (line {line_of(text, 'high')}): expected a " \
           "number, got 'high'" in problems
    assert f"[circuit.gate] bogus (line {line_of(text, 'bogus')}): unknown key" in problems
    assert any(p.startswith("[layers.1] neuron: unknown neuron type 'missing'")
               for p in problems)
    assert len(problems) == 4


def test_override_renders_integers_and_reals(tmp_path):
    path = write(tmp_path, MINIMAL)
    cfg = load_config(path, overrides={"layers.1.neurons": 3.0, "neuron.out.tau": 1.0,
                                       "sim.seed": 8.0})
    out = cfg.network.layers[1]
    assert out.neurons == 3
    assert out.neuron_model.tau == 1.0
    assert cfg.sim.seed == 8


@pytest.mark.parametrize("dotted", ["neuron.out.nope", "nowhere.tau", "sim.dt.x"])
def test_override_of_an_unknown_path_is_rejected(tmp_path, dotted):
    with pytest.raises(ConfigError, match="no such config key"):
        load_config(write(tmp_path, MINIMAL), overrides={dotted: 1.0})


def test_pulse_convert_path_is_an_unknown_key(tmp_path):
    (tmp_path / "conv.csv").write_text("0,0\n1,10\n")
    text = MINIMAL.replace("thres = 0.2\n", "thres = 0.2\npulse_convert_path = conv.csv\n")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    lineno = line_of(text, "pulse_convert_path")
    assert err.value.problems == [
        f"[neuron.out] pulse_convert_path (line {lineno}): unknown key"]


def test_family_device_accepts_family_axis(tmp_path):
    (tmp_path / "ltp.csv").write_text("0.8,1.0\n1e-6,2e-6,3e-6\n1e-6,2.5e-6,3e-6\n")
    (tmp_path / "ltd.csv").write_text("0.8,1.0\n3e-6,2e-6,1e-6\n3e-6,1.5e-6,1e-6\n")
    family = ("[device.ladder]\nkind = family\ng_min = 1e-6\ng_max = 3e-6\n"
              "table_ltp_path = ltp.csv\ntable_ltd_path = ltd.csv\nfamily_axis = width\n")
    start = MINIMAL.index("[device.ladder]")
    end = MINIMAL.index("[circuit.gate]")
    cfg = load_config(write(tmp_path, MINIMAL[:start] + family + "\n" + MINIMAL[end:]))
    device = cfg.network.layers[1].device_model
    assert device.family_axis == "width"
    assert device.ltp.amplitudes == (0.8, 1.0)
    assert device.ltd.response[1] == (3e-6, 1.5e-6, 1e-6)


@pytest.mark.parametrize("key", ["g_max", "g_min", "kind"])
def test_device_missing_one_key_reports_only_that_key(tmp_path, key):
    # the other device keys are still read, so none of them reads as unknown
    text = "".join(line for line in MINIMAL.splitlines(keepends=True)
                   if not line.startswith(f"{key} = "))
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [f"[device.ladder] {key}: required key is missing"]


def with_device_lines(old, new):
    assert old in MINIMAL
    return MINIMAL.replace(old, new)


@pytest.mark.parametrize("old, new, message", [
    ("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp = 1e-6, 3e-6, 2e-6",
     "levels_ltp must be strictly ascending"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd = 3e-6, 1e-6, 2e-6",
     "levels_ltd must be strictly descending"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd = 4e-6, 2e-6, 1e-6",
     "levels_ltd value 4e-06 outside [1e-06, 3e-06]"),
    ("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp = 0.5e-6, 2e-6, 3e-6",
     "levels_ltp value 5e-07 outside [1e-06, 3e-06]"),
    ("g_max = 3e-6", "g_max = 1e-6", "need g_min < g_max, got 1e-06, 1e-06"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd_path = empty.csv",
     "level arrays must be non-empty"),
], ids=["ltp-order", "ltd-order", "ltd-range", "ltp-range", "g-range", "empty"])
def test_bad_identical_ladder_keeps_its_message(tmp_path, old, new, message):
    (tmp_path / "empty.csv").write_text("# no levels\n")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, with_device_lines(old, new)))
    assert err.value.problems == [f"[device.ladder] kind: {message}"]


@pytest.mark.parametrize("key", ["levels_ltp", "levels_ltd"])
def test_ladder_given_inline_and_as_a_file_is_one_conflict(tmp_path, key):
    (tmp_path / "ladder.csv").write_text("1e-6\n2e-6\n3e-6\n")
    inline = next(line for line in MINIMAL.splitlines() if line.startswith(key))
    text = with_device_lines(inline, f"{inline}\n{key}_path = ladder.csv")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] {key}_path (line {line_of(text, key + '_path')}): conflicts "
        f"with {key} (line {line_of(text, inline)}); give the ladder inline or as a "
        "file, not both"]


def test_ladder_from_a_file_builds_the_same_device(tmp_path):
    (tmp_path / "ltd.csv").write_text("# LTD ladder\n3e-6\n2e-6\n1e-6\n")
    inline = load_config(write(tmp_path, MINIMAL)).network.layers[1].device_model
    text = with_device_lines("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd_path = ltd.csv")
    from_file = load_config(write(tmp_path, text)).network.layers[1].device_model
    assert from_file == inline


@pytest.mark.parametrize("new, problem", [
    ("", "[device.ladder] levels_ltd: identical device needs levels_ltd or "
         "levels_ltd_path"),
    ("levels_ltd = 3e-6, x\n", "[device.ladder] levels_ltd (line {line}): expected "
                              "comma-separated numbers, got '3e-6, x'"),
], ids=["missing", "malformed"])
def test_missing_or_malformed_ladder_is_one_problem(tmp_path, new, problem):
    text = with_device_lines("levels_ltd = 3e-6, 2e-6, 1e-6\n", new)
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    lineno = line_of(text, new.strip()) if new else None
    assert err.value.problems == [problem.format(line=lineno)]


@pytest.mark.parametrize("etype, encoder", [("poisson", PoissonEncoder),
                                             ("fixed", FixedRateEncoder)])
def test_encoding_type_picks_the_encoder(tmp_path, etype, encoder):
    text = MINIMAL.replace("[network]", f"[encoding]\ntype = {etype}\n\n[network]")
    assert type(load_config(write(tmp_path, text)).make_encoder()) is encoder


def test_aer_is_not_an_encoding_type(tmp_path):
    text = MINIMAL.replace("[network]", "[encoding]\ntype = aer\n\n[network]")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[encoding] type (line {line_of(text, 'type = aer')}): expected one of "
        "poisson/fixed, got 'aer'"]


@pytest.mark.parametrize("key", ["aer_path", "aer_polarity_mode"])
def test_aer_keys_are_unknown(tmp_path, key):
    (tmp_path / "events.aer").write_text("")
    text = MINIMAL.replace("[network]", f"[encoding]\n{key} = events.aer\n\n[network]")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[encoding] {key} (line {line_of(text, key)}): unknown key"]
