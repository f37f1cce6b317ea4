import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from spikeforge.config import (
    ConfigError, TuneConfig, load_calibration_csv, load_config, load_dataset,
    load_family_table, load_identical_levels,
)
from spikeforge.encoding import FixedRateEncoder, PoissonEncoder
from spikeforge.engine import LayerSpec, NetworkSpec, SimConfig, build_network
from spikeforge.expr import parse
from spikeforge.neuron import NeuronModel, SpikeWaveforms
from spikeforge.synapse import CircuitModel, PulseFamilyDevice, SpikePresence
from spikeforge.tuner import GAConfig, ParamRange
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
    assert cfg.encoding == PoissonEncoder(0.0, 60.0)
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
    assert err.value.problems == [
        f"[sim] dt (line {line_of(text, 'dt = fast')}): expected a number, got 'fast'",
        f"[circuit.gate] v_th_pos (line {line_of(text, 'high')}): expected a number, "
        "got 'high'",
        f"[circuit.gate] bogus (line {line_of(text, 'bogus')}): unknown key",
        f"[layers.1] neuron (line {line_of(text, 'missing')}): unknown neuron type "
        "'missing'; defined: ['input', 'out']"]


def test_override_renders_integers_and_reals(tmp_path):
    path = write(tmp_path, MINIMAL)
    cfg = load_config(path, overrides={"layers.1.neurons": 3.0, "neuron.out.tau": 1.0,
                                       "sim.seed": 8.0})
    out = cfg.network.layers[1]
    assert out.neurons == 3
    assert out.neuron_model.tau == 1.0
    assert cfg.sim.seed == 8


# a GA that draws its parameters from arrays hands over numpy scalars
@pytest.mark.parametrize("dotted, value, read", [
    ("neuron.out.thres", np.float64(0.5), lambda cfg: cfg.network.layers[1].neuron_model.thres),
    ("tune.population", np.int64(3), lambda cfg: cfg.tune.ga.population),
    ("sim.shuffle", np.False_, lambda cfg: cfg.sim.shuffle),
], ids=["float64", "int64", "bool_"])
def test_override_takes_numpy_scalars(dotted, value, read):
    cfg = load_config(BENCH_CONFIGS / "tune-36x8-family.cfg", overrides={dotted: value})
    assert read(cfg) == value.item() and type(read(cfg)) is type(value.item())


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


GOOD_LTP = "0.8,1.0\n1e-6,2e-6,3e-6\n1e-6,2.5e-6,3e-6\n"
GOOD_LTD = "0.8,1.0\n3e-6,2e-6,1e-6\n3e-6,1.5e-6,1e-6\n"

# every section with only the keys its spec requires, and the one label
# layer a network requires
REQUIRED_ONLY = """\
[sim]
T = 0.2
dt = 0.001

[device.family]
kind = family
g_min = 1e-6
g_max = 3e-6
table_ltp_path = ltp.csv
table_ltd_path = ltd.csv

[circuit.gate]
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

[layers.0]
neurons = 4
neuron = input

[layers.1]
neurons = 2
neuron = out
label = true
device = family
circuit = gate

[tune]
param = neuron.out.tau, 0.005, 0.05, log, real
"""


def test_each_omitted_key_takes_its_specs_default(tmp_path):
    ltp, ltd = write(tmp_path, GOOD_LTP, "ltp.csv"), write(tmp_path, GOOD_LTD, "ltd.csv")
    cfg = load_config(write(tmp_path, REQUIRED_ONLY))
    assert cfg.sim == SimConfig(T=0.2, dt=0.001)
    assert cfg.encoding == PoissonEncoder()
    assert cfg.network == NetworkSpec(layers=(
        LayerSpec(neurons=4, neuron_model=NeuronModel(
            tau=1.0, thres=1.0,
            waveforms=SpikeWaveforms(pre=Waveform(((0.0, 0.5), (0.002, 0.5)))))),
        LayerSpec(neurons=2, neuron_model=NeuronModel(tau=0.01, thres=0.2), label=True,
                  circuit_model=CircuitModel(v_app=parse("V_pre"), v_th_pos=1.5,
                                             v_th_neg=1.5),
                  device_model=PulseFamilyDevice(load_family_table(ltp, True),
                                                 load_family_table(ltd, False),
                                                 1e-6, 3e-6))))
    assert cfg.tune == TuneConfig(
        (ParamRange("neuron.out.tau", 0.005, 0.05, scale="log"),), GAConfig())


def with_family_device(tmp_path, ltp=GOOD_LTP, ltd=GOOD_LTD, extra="", g_max="3e-6"):
    """MINIMAL with its device swapped for a family device read from ltp.csv
    and ltd.csv, holding the given texts."""
    (tmp_path / "ltp.csv").write_text(ltp)
    (tmp_path / "ltd.csv").write_text(ltd)
    family = (f"[device.ladder]\nkind = family\ng_min = 1e-6\ng_max = {g_max}\n"
              f"table_ltp_path = ltp.csv\ntable_ltd_path = ltd.csv\n{extra}")
    start = MINIMAL.index("[device.ladder]")
    end = MINIMAL.index("[circuit.gate]")
    return MINIMAL[:start] + family + "\n" + MINIMAL[end:]


def test_family_device_reads_an_amplitude_axis_and_rejects_a_width_axis(tmp_path):
    # a row is picked by |V_TB| against the header amplitudes, whatever the axis said
    text = with_family_device(tmp_path, extra="family_axis = amplitude\n")
    device = load_config(write(tmp_path, text)).network.layers[1].device_model
    assert device.ltp.amplitudes == (0.8, 1.0)
    assert device.ltd.response[1] == (3e-6, 1.5e-6, 1e-6)
    text = with_family_device(tmp_path, extra="family_axis = width\n")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] family_axis (line {line_of(text, 'family_axis')}): expected "
        "amplitude (family rows are picked by pulse amplitude), got 'width'"]


@pytest.mark.parametrize("ltp, ltd, key, message", [
    (GOOD_LTP, "0.8,1.0\nbad\n", "table_ltd_path", "{dir}/ltd.csv:2: bad row: 'bad'"),
    ("0.8,1.0\n", GOOD_LTD, "table_ltp_path",
     "{dir}/ltp.csv: need a header of amplitudes plus at least one row"),
    ("0.8,1.0\n1e-6,3e-6,2e-6\n1e-6,2e-6,3e-6\n", GOOD_LTD, "table_ltp_path",
     "row 0 must be strictly ascending"),
], ids=["ltd-bad-row", "ltp-no-rows", "ltp-row-order"])
def test_bad_family_table_is_filed_under_its_key(tmp_path, ltp, ltd, key, message):
    text = with_family_device(tmp_path, ltp, ltd)
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] {key} (line {line_of(text, key)}): {message.format(dir=tmp_path)}"]


def test_two_bad_family_tables_are_two_problems(tmp_path):
    text = with_family_device(tmp_path, "0.8\nx\n", "0.8\n3e-6,1e-6,2e-6\n")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] table_ltp_path (line {line_of(text, 'table_ltp_path')}): "
        f"{tmp_path / 'ltp.csv'}:2: bad row: 'x'",
        f"[device.ladder] table_ltd_path (line {line_of(text, 'table_ltd_path')}): "
        "row 0 must be strictly descending"]


def test_family_device_errors_are_filed_under_the_table_key(tmp_path):
    # tables that read cleanly but do not fit the device go to the table at fault
    text = with_family_device(tmp_path, g_max="2e-6")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] table_ltp_path (line {line_of(text, 'table_ltp_path')}): "
        "family row value 3e-06 outside [1e-06, 2e-06]"]


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


@pytest.mark.parametrize("old, new, key, message", [
    ("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp = 1e-6, 3e-6, 2e-6", "levels_ltp",
     "levels_ltp must be strictly ascending"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd = 3e-6, 1e-6, 2e-6", "levels_ltd",
     "levels_ltd must be strictly descending"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd = 4e-6, 2e-6, 1e-6", "levels_ltd",
     "levels_ltd value 4e-06 outside [1e-06, 3e-06]"),
    ("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp = 0.5e-6, 2e-6, 3e-6", "levels_ltp",
     "levels_ltp value 5e-07 outside [1e-06, 3e-06]"),
    ("g_max = 3e-6", "g_max = 1e-6", "g_max", "need g_min < g_max, got 1e-06, 1e-06"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd_path = empty.csv", "levels_ltd_path",
     "level arrays must be non-empty"),
    ("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp_path = empty.csv", "levels_ltp_path",
     "level arrays must be non-empty"),
], ids=["ltp-order", "ltd-order", "ltd-range", "ltp-range", "g-range", "empty",
        "empty-ltp"])
def test_bad_identical_ladder_keeps_its_message(tmp_path, old, new, key, message):
    """Each message is filed under the key at fault, with that key's line."""
    (tmp_path / "empty.csv").write_text("# no levels\n")
    text = with_device_lines(old, new)
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] {key} (line {line_of(text, new)}): {message}"]


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


def test_unreadable_ladder_file_is_filed_under_its_key(tmp_path):
    (tmp_path / "ltd.csv").write_text("3e-6\nx\n")
    text = with_device_lines("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd_path = ltd.csv")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] levels_ltd_path (line {line_of(text, 'levels_ltd_path')}): "
        f"{tmp_path / 'ltd.csv'}:2: not a conductance: 'x'"]


@pytest.mark.parametrize("name", ["V_TB", "V_pre", "V_post1", "V_post2", "G", "dt"])
def test_circuit_constant_may_not_take_a_kernel_bound_name(tmp_path, name):
    # v_app may read the name, as the kernel binds it: the constant is the one fault
    text = MINIMAL.replace("v_app = V_post1 - V_node1",
                           f"v_app = V_post1 - {name}\nconst_{name} = 0.5")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[circuit.gate] const_{name} (line {line_of(text, 'const_')}): the synapse "
        "kernel binds this name at every step, so it cannot be a constant"]


def test_node_voltage_constant_still_loads(tmp_path):
    text = MINIMAL.replace("v_app = V_post1 - V_node1",
                           "v_app = V_post1 - V_node1\nconst_V_node1 = 0.25")
    circuit = load_config(write(tmp_path, text)).network.layers[1].circuit_model
    assert circuit.constants == (("V_node1", 0.25),)
    assert circuit.base_env(1e-3)["V_node2"] == 0.25


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


TUNE = "\n[tune]\nparam = neuron.out.tau, 0.005, 0.05, log, real\n"

# side files the error table's cases may name, written next to the config
SIDE_FILES = {"bad.csv": "0.001,x\n", "one.csv": "0.001,5\n",
              "linear.csv": "0.001,5\n0.002,10\n", "ltp.csv": GOOD_LTP, "ltd.csv": GOOD_LTD,
              "ladder.csv": "1e-6\n2e-6\n3e-6\n", "badladder.csv": "3e-6\nx\n"}
OUT_CALIB = "calib_path = {}\ncalib_pulse_amplitude = 1.0\n"
DEVICE = ("kind = identical\ng_min = 1e-6\ng_max = 3e-6\nlevels_ltp = 1e-6, 2e-6, 3e-6\n"
          "levels_ltd = 3e-6, 2e-6, 1e-6\n")
FAMILY = ("kind = family\ng_min = 1e-6\ng_max = 3e-6\ntable_ltp_path = {}\n"
          "table_ltd_path = ltd.csv\n")
LAYERS = MINIMAL[MINIMAL.index("[layers.0]"):MINIMAL.index("[network]")]


# one edit of MINIMAL per case and the exact problems it must give; {line} is
# the line of the file that holds `at`. A fault of one key names that key and
# its line; one that spans layers is filed under [network] alone.
@pytest.mark.parametrize("old, new, at, problem", [
    ("thres = 0.2\n", "thres = 0.2\nt_refrac = -0.001\n", "t_refrac",
     "[neuron.out] t_refrac (line {line}): t_refrac must be >= 0, got -0.001"),
    ("v_th_neg = 1.5", "v_th_neg = 0", "v_th_neg",
     "[circuit.gate] v_th_neg (line {line}): thresholds must be positive"),
    ("T = 0.2\n", "T = 0.2005\n", "T = ",
     "[sim] T (line {line}): T=0.2005 must be a positive multiple of dt=0.001"),
    ("T_sample = 0.1", "T_sample = 0.1005", "T_sample",
     "[sim] T_sample (line {line}): T_sample=0.1005 must be a positive multiple of dt=0.001"),
    ("neurons = 4", "neurons = 0", "neurons = 0",
     "[layers.0] neurons (line {line}): layer needs at least one neuron, got 0"),
    ("circuit = gate\n", "circuit = gate\nconn_type = sparse\nsparse_p = 1.5\n", "sparse_p",
     "[layers.1] sparse_p (line {line}): sparse_p must be in (0, 1], got 1.5"),
    ("inh_g = 2e-6", "inh_g = -2e-6", "inh_g",
     "[network] inh_g (line {line}): inh_conn configured but inh_g is not positive"),
    ("inh_conn = 1:1", "inh_conn = 1:0", "inh_conn",
     "[network] inh_conn (line {line}): inh_conn pair (1, 0) names the input layer, "
     "which neither fires nor integrates inhibition"),
    ("inh_conn = 1:1", "inh_conn = 1:1, 1:1", "inh_conn",
     "[network] inh_conn (line {line}): inh_conn pair (1, 1) given twice"),
    ("inhib_volt = 0, 1.0, 0.005, 1.0\n", "", "inh_conn",
     "[network] inh_conn (line {line}): layer 1 drives inhibition but its neuron model "
     "has no inhib waveform"),
    ("post1_volt = 0, 1.7, 0.01, 1.7\n", "", None,
     "[network]: layer 1 is plastic but has no post1 waveform"),
    ("pre_volt = 0, 0.5, 0.002, 0.5\n", "", None,
     "[network]: layer 0 neuron model needs a pre waveform for input spikes"),
    ("circuit = gate\n", "circuit = gate\nconn_type = one_to_one\n", None,
     "[network]: one_to_one into layer 1 needs equal sizes, got 4 != 2"),
    ("seed = 11\n", "seed = 11\n" + TUNE + "tournament_size = 1\n", "tournament_size",
     "[tune] tournament_size (line {line}): tournament_size must be >= 2, got 1"),
    ("seed = 11\n", "seed = 11\n" + TUNE.replace("0.005, 0.05", "0.05, 0.005"), "param",
     "[tune] param (line {line}): neuron.out.tau: need lo < hi, got 0.05, 0.005"),
    ("seed = 11\n", "seed = 11\ninit_weights = uniform(0.9, 0.1)\n", "init_weights",
     "[network] init_weights (line {line}): uniform init needs lo < hi, got 0.9, 0.1"),
    ("[network]", "[encoding]\nr_min = 50\nr_max = 10\n\n[network]", "r_min",
     "[encoding] r_min (line {line}): need 0 <= r_min <= r_max, got 50.0, 10.0"),
    ("neuron = out", "neuron = missing", "neuron = missing",
     "[layers.1] neuron (line {line}): unknown neuron type 'missing'; "
     "defined: ['input', 'out']"),
    ("device = ladder", "device = missing", "device = missing",
     "[layers.1] device (line {line}): unknown device 'missing'; defined: ['ladder']"),
    ("circuit = gate", "circuit = missing", "circuit = missing",
     "[layers.1] circuit (line {line}): unknown circuit 'missing'; defined: ['gate']"),
    ("tau = 0.01\nthres = 0.2\n", OUT_CALIB.format("bad.csv"), "calib_path",
     "[neuron.out] calib_path (line {line}): {dir}/bad.csv:1: bad numbers in '0.001,x'"),
    ("tau = 0.01\nthres = 0.2\n", OUT_CALIB.format("one.csv"), "calib_path",
     "[neuron.out] calib_path (line {line}): need at least 2 calibration points, got 1"),
    ("tau = 0.01\nthres = 0.2\n", OUT_CALIB.format("linear.csv"), "calib_path",
     "[neuron.out] calib_path (line {line}): calibration found a pure integrate-and-fire "
     "device (infinite tau); provide state_eqs or an explicit tau"),
    ("kind = identical", "kind = memristor", "kind",
     "[device.ladder] kind (line {line}): expected one of identical/family, got 'memristor'"),
    (DEVICE, FAMILY.format("ltp.csv") + "family_axis = depth\n", "family_axis",
     "[device.ladder] family_axis (line {line}): expected amplitude (family rows are "
     "picked by pulse amplitude), got 'depth'"),
    ("circuit = gate\n", "circuit = gate\nconn_type = ring\n", "conn_type",
     "[layers.1] conn_type (line {line}): expected one of all_to_all/one_to_one/sparse, "
     "got 'ring'"),
    ("pre_volt = 0, 0.5, 0.002, 0.5", "pre_volt = 0, 0.5, 0.002, high", "pre_volt",
     "[neuron.input] pre_volt (line {line}): expected comma-separated numbers, "
     "got '0, 0.5, 0.002, high'"),
    ("pre_volt = 0, 0.5, 0.002, 0.5", "pre_volt = 0, 0.5, 0.002", "pre_volt",
     "[neuron.input] pre_volt (line {line}): flat waveform array needs an even, non-zero "
     "number of values"),
    ("pre_volt = 0, 0.5, 0.002, 0.5", "pre_volt = 0, 1.0", "pre_volt",
     "[neuron.input] pre_volt (line {line}): waveform lasts 0 steps at dt=0.001, so it "
     "would never be delivered"),
    ("pre_volt = 0, 0.5, 0.002, 0.5", "pre_volt = 0, 0, 0.0005, 1.5, 0.001, 0", "pre_volt",
     "[neuron.input] pre_volt (line {line}): waveform is 0 V at every step of dt=0.001, so "
     "its nonzero breakpoints would never be delivered"),
    ("pre_volt = 0, 0.5, 0.002, 0.5", "pre_volt = 0, 0.5, inf, 0.5", "pre_volt",
     "[neuron.input] pre_volt (line {line}): non-finite breakpoint (inf, 0.5)"),
    ("v_app = V_post1 - V_node1", "v_app = V_post1 -", "v_app",
     "[circuit.gate] v_app (line {line}): bad expression: unexpected end of expression "
     "at position 9"),
    ("v_th_neg = 1.5", "v_th_neg = 1.5\ntransmit_policy = pre_only, never", "transmit_policy",
     "[circuit.gate] transmit_policy (line {line}): unknown presence state 'never'; "
     "allowed: ['both', 'none', 'post_only', 'pre_only']"),
    ("inh_conn = 1:1", "inh_conn = 1:1, 2", "inh_conn",
     "[network] inh_conn (line {line}): expected `start:end` pairs, got '2'"),
    ("seed = 11\n", "seed = 11\ninit_weights = normal(0, 1)\n", "init_weights",
     "[network] init_weights (line {line}): expected uniform(lo, hi), constant(g) or "
     "from_file(path)"),
    ("seed = 11\n", "seed = 11\ninit_weights = uniform(0.1)\n", "init_weights",
     "[network] init_weights (line {line}): bad init_weights arguments ['0.1']"),
    ("seed = 11\n", "seed = 11\ninit_weights = from_file(w.npy)\n", "init_weights",
     "[network] init_weights (line {line}): file not found: {dir}/w.npy"),
    ("seed = 11\n", "seed = 11\n" + TUNE.replace(", real", ""), "param",
     "[tune] param (line {line}): expected `key.path, lo, hi, linear|log, real|integer`"),
    ("seed = 11\n", "seed = 11\n" + TUNE.replace("0.005", "low"), "param",
     "[tune] param (line {line}): could not convert string to float: 'low'"),
    ("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp_path = nope.csv", "levels_ltp_path",
     "[device.ladder] levels_ltp_path (line {line}): file not found: {dir}/nope.csv"),
    (DEVICE, FAMILY.format("nope.csv"), "table_ltp_path",
     "[device.ladder] table_ltp_path (line {line}): file not found: {dir}/nope.csv"),
    ("seed = 11\n", "seed = 11\n\n[data]\ntrain_path = nope.csv\n", "train_path",
     "[data] train_path (line {line}): file not found: {dir}/nope.csv"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6", "levels_ltd_path = badladder.csv", "levels_ltd_path",
     "[device.ladder] levels_ltd_path (line {line}): {dir}/badladder.csv:2: "
     "not a conductance: 'x'"),
    ("levels_ltd = 3e-6, 2e-6, 1e-6",
     "levels_ltd = 3e-6, 2e-6, 1e-6\nlevels_ltd_path = ladder.csv", "levels_ltd_path",
     "[device.ladder] levels_ltd_path (line {line}): conflicts with levels_ltd (line 13); "
     "give the ladder inline or as a file, not both"),
    ("T = 0.2\n", "T = 0.2\nT = 0.4\n", "T = 0.4",
     "[sim] T (line {line}): key given more than once"),
    ("[network]", "[layers.two]\nneurons = 3\nbogus = 1\n\n[network]", None,
     "[layers.two]: 'two' is not a layer index (0, 1, 2, ...)"),
    ("[layers.1]", "[layers.01]", None,
     "[layers.01]: '01' is not a layer index (0, 1, 2, ...)"),
    ("T = 0.2\n", "T = nan\n", "T = ",
     "[sim] T (line {line}): T=nan must be a positive multiple of dt=0.001"),
    ("dt = 0.001", "dt = nan", "dt = ",
     "[sim] dt (line {line}): dt must be positive and finite, got nan"),
    ("T_sample = 0.1", "T_sample = inf", "T_sample",
     "[sim] T_sample (line {line}): T_sample=inf must be a positive multiple of dt=0.001"),
    ("v_th_pos = 1.5", "v_th_pos = nan", "v_th_pos",
     "[circuit.gate] v_th_pos (line {line}): thresholds must be positive"),
    ("thres = 0.2\n", "thres = 0.2\nt_refrac = nan\n", "t_refrac",
     "[neuron.out] t_refrac (line {line}): t_refrac must be >= 0, got nan"),
    ("thres = 0.2\n", "thres = 0.2\nt_refrac = inf\n", "t_refrac",
     "[neuron.out] t_refrac (line {line}): t_refrac must be finite, got inf"),
    ("seed = 11\n", "seed = 11\ninit_weights = constant(nan)\n", "init_weights",
     "[network] init_weights (line {line}): constant init needs a finite value, got nan"),
    ("seed = 11\n", "seed = 11\ninit_weights = uniform(0.1, inf)\n", "init_weights",
     "[network] init_weights (line {line}): uniform init needs a finite hi, got inf"),
    ("thres = 0.2\n", "thres = 0.2\nr_mem = nan\n", "r_mem",
     "[neuron.out] r_mem (line {line}): r_mem must be finite, got nan"),
    ("inh_g = 2e-6", "inh_g = nan", "inh_g",
     "[network] inh_g (line {line}): inh_conn configured but inh_g is not positive"),
    ("v_th_neg = 1.5", "v_th_neg = 1.5\nconst_k = nan", "const_k",
     "[circuit.gate] const_k (line {line}): constant k must be finite, got nan"),
    ("g_max = 3e-6", "g_max = inf", "g_max",
     "[device.ladder] g_max (line {line}): g_max must be finite, got inf"),
    ("g_min = 1e-6", "g_min = -inf", "g_min",
     "[device.ladder] g_min (line {line}): g_min must be finite, got -inf"),
    ("seed = 11\n", "seed = 11\n" + TUNE.replace("0.05, log", "inf, log"), "param",
     "[tune] param (line {line}): neuron.out.tau: need finite bounds, got 0.005, inf"),
    ("seed = 11\n", "seed = 11\n" + TUNE + "mutation_sigma = nan\n", "mutation_sigma",
     "[tune] mutation_sigma (line {line}): mutation_sigma must be finite and >= 0, got nan"),
    ("v_th_neg = 1.5", "v_th_neg = 1.5\nrest_V_pre = nan", "rest_V_pre",
     "[circuit.gate] rest_V_pre (line {line}): rest_V_pre must be finite, got nan"),
    ("[network]", "[encoding]\nr_max = inf\n\n[network]", "r_max",
     "[encoding] r_max (line {line}): r_max must be finite, got inf"),
    ("thres = 0.2\n", "thres = 0.2\nv_reset = -inf\n", "v_reset",
     "[neuron.out] v_reset (line {line}): v_reset must be finite, got -inf"),
    ("seed = 11\n", "seed = 11\njust words\n", "just words",
     "line {line}: expected `key = value` or `[section]`, got 'just words'"),
    ("seed = 11\n", "seed = 11\n\n[tune]\npopulation = 4\n", None,
     "[tune] param: at least one param range is required"),
    ("seed = 11\n", "seed = 11\n" + TUNE.replace("0.005, 0.05, log, real",
                                                 "0.5, 0.7, linear, integer"), "param",
     "[tune] param (line {line}): neuron.out.tau: integer range [0.5, 0.7] holds no integer"),
    ("seed = 11\n", "seed = 11\n" + TUNE + "val_fraction = 0\n", "val_fraction",
     "[tune] val_fraction (line {line}): must be in (0, 1), got 0.0"),
    ("seed = 11\n", "seed = 11\n" + TUNE + "val_fraction = 1\n", "val_fraction",
     "[tune] val_fraction (line {line}): must be in (0, 1), got 1.0"),
    ("seed = 11\n", "seed = 11\n" + TUNE + "val_fraction = nan\n", "val_fraction",
     "[tune] val_fraction (line {line}): must be in (0, 1), got nan"),
    ("circuit = gate\n", "circuit = gate\nconn_type = sparse\n", None,
     "[layers.1] sparse_p: sparse connectivity needs sparse_p"),
    (LAYERS, "", None, "[layers.*]: no layer sections found"),
    ("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp_path = .", "levels_ltp_path",
     "[device.ladder] levels_ltp_path (line {line}): [Errno 21] Is a directory: '{dir}'"),
    # a GA override of a key the file does not give would fail only at the first fitness call
    ("seed = 11\n", "seed = 11\n" + TUNE.replace("neuron.out.tau", "neuron.out.thress"),
     "param", "[tune] param (line {line}): no such config key 'neuron.out.thress'"),
    # nor one of a key that holds no number
    ("seed = 11\n", "seed = 11\n" + TUNE.replace("neuron.out.tau", "layers.1.neuron"),
     "param", "[tune] param (line {line}): expected a number at 'layers.1.neuron', got 'out'"),
], ids=["t_refrac", "v_th_neg", "T-grid", "T_sample-grid", "no-neurons", "sparse_p",
        "inh_g", "inh_conn-input", "inh_conn-twice",
        "no-inhib_volt", "no-post1_volt", "no-pre_volt", "one_to_one-sizes",
        "tournament_size", "param-range", "init_weights", "r_min", "unknown-neuron",
        "unknown-device", "unknown-circuit", "calib-file", "calib-fit", "calib-no-leak",
        "unknown-kind", "unknown-family_axis", "unknown-conn_type", "bad-numbers",
        "odd-waveform", "zero-step-waveform", "zero-sample-waveform",
        "inf-time-waveform", "bad-expression",
        "unknown-presence", "bad-pair",
        "init-form", "init-args", "init-no-file", "param-fields", "param-number", "no-ladder-file",
        "no-table-file", "no-train-file", "ladder-file-line", "ladder-conflict",
        "key-twice", "layers-name", "layers-leading-zero", "T-nan", "dt-nan",
        "T_sample-inf", "v_th_pos-nan", "t_refrac-nan", "t_refrac-inf",
        "init-constant-nan", "init-uniform-inf", "r_mem-nan", "inh_g-nan",
        "const-nan", "g_max-inf", "g_min-inf", "param-inf", "mutation_sigma-nan",
        "rest_V_pre-nan", "r_max-inf", "v_reset-inf", "not-a-key-line", "tune-no-param",
        "param-no-integer", "val_fraction-0", "val_fraction-1", "val_fraction-nan",
        "sparse-no-sparse_p", "no-layers", "ladder-file-is-a-directory", "param-unknown-key",
        "param-not-a-number"])
def test_config_error_table(tmp_path, old, new, at, problem):
    assert MINIMAL.count(old) == 1
    text = MINIMAL.replace(old, new)
    for name, content in SIDE_FILES.items():
        write(tmp_path, content, name)
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [problem.format(line=at and line_of(text, at), dir=tmp_path)]


def test_a_config_that_is_not_utf8_names_the_line(tmp_path):
    text = MINIMAL.replace("[device.ladder]", "[device.ladder]  # échelle")
    path = tmp_path / "run.cfg"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.problems == [f"line {line_of(text, 'échelle')}: not UTF-8 text (byte 0xe9)"]


def test_a_dataset_that_is_not_utf8_names_its_path_and_line(tmp_path):
    path = tmp_path / "train.csv"
    path.write_bytes("0.5,1\n# café\n0.2,0\n".encode("latin-1"))
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:2: not UTF-8 text (byte 0xe9)"


def test_a_ladder_file_that_is_not_utf8_is_filed_under_its_key(tmp_path):
    (tmp_path / "ltp.csv").write_bytes("1e-6\n# échelon\n2e-6\n3e-6\n".encode("latin-1"))
    text = MINIMAL.replace("levels_ltp = 1e-6, 2e-6, 3e-6", "levels_ltp_path = ltp.csv")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert err.value.problems == [
        f"[device.ladder] levels_ltp_path (line {line_of(text, 'levels_ltp_path')}): "
        f"{tmp_path / 'ltp.csv'}:2: not UTF-8 text (byte 0xe9)"]


# one bad line (or file) per kind of side-file fault, with its exact text
@pytest.mark.parametrize("read, text, message", [
    (load_identical_levels, "1e-6\n\n# LTP\n2e-6, 3e-6\n",
     "{path}:4: not a conductance: '2e-6, 3e-6'"),
    (lambda p: load_family_table(p, True), "0.8,1.0\n1e-6,x\n", "{path}:2: bad row: '1e-6,x'"),
    (lambda p: load_family_table(p, True), "# amplitudes\n0.8,1.0\n",
     "{path}: need a header of amplitudes plus at least one row"),
    (load_calibration_csv, "0.001,5\n0.002,10,3\n",
     "{path}:2: expected width_seconds,frequency_hz, got '0.002,10,3'"),
    (load_calibration_csv, "0.001,x\n", "{path}:1: bad numbers in '0.001,x'"),
    (load_dataset, "0.5,1\n0.5\n", "{path}:2: need at least one feature and a label"),
    (load_dataset, "0.5,1\n\n1.5,0.2,1\n", "{path}:3: feature 1.5 outside [0, 1]"),
], ids=["ladder-line", "family-row", "family-no-rows", "calib-fields", "calib-numbers",
        "dataset-short", "dataset-range"])
def test_side_file_fault_texts(tmp_path, read, text, message):
    path = write(tmp_path, text, "side.csv")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == message.format(path=path)


def one_line_edits(text):
    """text with one line deleted, duplicated, its value set to x, 0, -1 or
    nothing, or its section renamed (given a suffix or, for a layer, a
    leading zero): each such edit once."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.strip() or line.startswith("#"):
            continue
        before, after = lines[:i], lines[i + 1:]
        yield before + after
        yield before + [line, line] + after
        if line.startswith("["):
            name = line.strip()[1:-1]
            renames = [f"{name}_x"]
            if name.startswith("layers."):
                renames.append("layers.0" + name.removeprefix("layers."))
            for new in renames:
                yield before + [f"[{new}]\n"] + after
        else:
            key = line.split("=")[0].strip()
            for value in ("x", "0", "-1", ""):
                yield before + [f"{key} = {value}\n"] + after


PROBLEM_RE = re.compile(r"\[([\w.*]+)\](?: (\w+))?(?: \(line (\d+)\))?: ")


def test_every_problem_points_into_the_file(tmp_path):
    """Each problem names a section the file has (or one that spans the file)
    and, with a line, a line of that section that holds its key."""
    for edited in one_line_edits(MINIMAL):
        text = "".join(edited)
        try:
            load_config(write(tmp_path, text))
            continue
        except ConfigError as err:
            problems = err.problems
        holds = {}  # (section, key) -> the lines that give key in section
        section = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#")[0].strip()
            if line.startswith("["):
                section = line[1:-1]
                holds.setdefault((section, None), set())
            elif "=" in line:
                holds.setdefault((section, line.split("=")[0].strip()), set()).add(lineno)
        for problem in problems:
            m = PROBLEM_RE.match(problem)
            if m is None:  # a fault of the file's layout, filed by line alone
                assert 1 <= int(re.match(r"line (\d+): ", problem)[1]) <= len(edited)
                continue
            name, key, lineno = m.groups()
            assert (name, None) in holds or name in ("sim", "network", "layers.*"), problem
            assert lineno is None or int(lineno) in holds.get((name, key), ()), problem


BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"
NUMBER_LINE = re.compile(r"^(\w+)\s*=\s*[-+]?[\d.]+(e[-+]?\d+)?\s*$")


def non_finite_edits(text):
    """(key, value, edited text): each `key = <one number>` line of text
    set to nan, inf and -inf in turn."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        m = NUMBER_LINE.match(line)
        if m is None:
            continue
        for value in ("nan", "inf", "-inf"):
            yield m[1], value, "".join(lines[:i] + [f"{m[1]} = {value}\n"] + lines[i + 1:])


def test_a_spike_the_grid_samples_to_0_v_is_rejected_at_load(tmp_path):
    """train-196x20's input spike peaking at 1.5 V between two grid points of dt = 1 ms
    would carry 0 V at every step; a spike whose breakpoints are all 0 V still marks
    presence, and every config of the bench and of these tests carries what it gives."""
    text = (BENCH_CONFIGS / "train-196x20.cfg").read_text()
    found = text.replace("pre_volt = 0, 0.6, 0.005, 0.2", "pre_volt = 0, 0, 0.0005, 1.5, 0.001, 0")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, found))
    assert err.value.problems == [
        f"[neuron.input] pre_volt (line {line_of(found, 'pre_volt =')}): waveform is 0 V at "
        "every step of dt=0.001, so its nonzero breakpoints would never be delivered"]
    silent = text.replace("pre_volt = 0, 0.6, 0.005, 0.2", "pre_volt = 0, 0, 0.0005, 0, 0.001, 0")
    cfg = load_config(write(tmp_path, silent))
    assert build_network(cfg.network, cfg.sim.dt).layers[0].pre == (0.0,)
    for side in BENCH_CONFIGS.glob("*.csv"):
        shutil.copy(side, tmp_path)
    for path in sorted(BENCH_CONFIGS.glob("*.cfg")):
        load_config(write(tmp_path, path.read_text()))
    load_config(write(tmp_path, MINIMAL))


def test_non_finite_numbers_are_caught_at_load(tmp_path):
    """A non-finite number gives a ConfigError or a config whose network
    builds, never a fault at build time or a raw error; nan is always a
    ConfigError."""
    configs = sorted(BENCH_CONFIGS.glob("*.cfg"))
    assert len(configs) == 3
    for side in BENCH_CONFIGS.glob("*.csv"):
        shutil.copy(side, tmp_path)
    edits = 0
    for text in [MINIMAL] + [path.read_text() for path in configs]:
        for key, value, edited in non_finite_edits(text):
            edits += 1
            try:
                cfg = load_config(write(tmp_path, edited))
            except ConfigError:
                continue
            assert value != "nan", f"{key} = nan loads"
            build_network(cfg.network, cfg.sim.dt)
    assert edits > 200
