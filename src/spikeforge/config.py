"""The parameter-file interface: one structured text file defines the run.

Sections hold devices, circuits, neuron types, layers, simulation control,
encoding, data paths and tuning ranges; values are numbers, booleans,
bare strings (equations), comma-separated number arrays (waveforms) or
small structured forms like `uniform(lo, hi)`.

This module reads and types the values; each spec and model constructor
checks its own and raises a SpecError naming the parameter at fault, which
`_Section.build` files under that parameter's key and line. So every fault
of the specs, the network's included, is found at load, never at build or
run time. Every problem in the file is reported at once (the first of each
object built), each with its section, key and line number, and nothing runs
on a partially valid config.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from spikeforge import expr
from spikeforge.encoding import FixedRateEncoder, PoissonEncoder
from spikeforge.engine import LayerSpec, NetworkSpec, SimConfig, WeightInit
from spikeforge.errors import SpecError
from spikeforge.neuron import (
    NeuronModel, SpikeWaveforms, calibrate_from_frequency, load_calibration_csv,
)
from spikeforge.synapse import (
    CircuitModel, PulseFamilyDevice, SpikePresence,
    load_family_table, load_identical_levels,
)
from spikeforge.tuner import GAConfig, ParamRange
from spikeforge.waveform import Waveform, waveform_from_flat

_ENCODERS = {"poisson": PoissonEncoder, "fixed": FixedRateEncoder}
_PRESENCE = {"none": SpikePresence.NONE, "pre_only": SpikePresence.PRE_ONLY,
             "post_only": SpikePresence.POST_ONLY, "both": SpikePresence.BOTH}

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_]+)\s*=\s*(.*)$")


class ConfigError(ValueError):
    """All problems found in a config file, formatted one per line."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


@dataclass
class RawConfig:
    """Parsed but untyped file: section -> key -> [(value, line number)]."""

    path: Path
    sections: dict[str, dict[str, list[tuple[str, int]]]] = field(default_factory=dict)

    def section_names(self):
        return list(self.sections)


def parse_raw(path) -> RawConfig:
    path = Path(path)
    raw = RawConfig(path)
    current: dict[str, list[tuple[str, int]]] | None = None
    current_name = ""
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            m = _SECTION_RE.match(stripped)
            if m:
                current_name = m.group(1)
                if current_name in raw.sections:
                    problems.append(f"line {lineno}: duplicate section [{current_name}]")
                current = raw.sections.setdefault(current_name, {})
                continue
            m = _KEY_RE.match(stripped)
            if m is None:
                problems.append(f"line {lineno}: expected `key = value` or `[section]`, "
                                f"got {stripped!r}")
                continue
            if current is None:
                problems.append(f"line {lineno}: key outside any section")
                continue
            current.setdefault(m.group(1), []).append((m.group(2).strip(), lineno))
    if problems:
        raise ConfigError(problems)
    return raw


class _Section:
    """Typed access to one section, collecting problems instead of raising."""

    def __init__(self, name: str, entries: dict, problems: list[str], base_dir: Path):
        self.name = name
        self.entries = entries
        self.problems = problems
        self.base_dir = base_dir
        self.consumed: set[str] = set()

    def complain(self, key: str | None, lineno: int | None, message: str):
        """File a problem under key and its line; a key of None files it
        under the section alone."""
        where = "" if key is None else f" {key}"
        if lineno is not None:
            where += f" (line {lineno})"
        self.problems.append(f"[{self.name}]{where}: {message}")

    def line(self, key: str) -> int | None:
        return self.entries[key][0][1] if key in self.entries else None

    def build(self, make, *args, at: tuple[str, int | None] | None = None, **kwargs):
        """make(*args, **kwargs), or None when it raises a SpecError. That
        is filed under `at`, the (key, line) of the one entry the object
        was read from, or else under the key that gave the parameter it
        names: a ladder or table read from a file under its *_path key, a
        circuit constant under its const_ key."""
        try:
            return make(*args, **kwargs)
        except SpecError as err:
            if at is None:
                given = (err.key, f"{err.key}_path", f"table_{err.key}_path",
                         f"const_{err.key}")
                key = next((k for k in given if self.has(k)), err.key)
                at = key, self.line(key)
            self.complain(*at, str(err))
            return None

    def has(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str):
        self.consumed.add(key)
        values = self.entries.get(key)
        if not values:
            return None, None
        if len(values) > 1:
            self.complain(key, values[1][1], "key given more than once")
        return values[0]

    def raw_all(self, key: str):
        self.consumed.add(key)
        return self.entries.get(key, [])

    def require(self, key: str):
        value, lineno = self.raw(key)
        if value is None:
            self.complain(key, None, "required key is missing")
        return value, lineno

    def _typed(self, key, required, default, convert, describe):
        value, lineno = self.require(key) if required else self.raw(key)
        if value is None:
            return default
        try:
            return convert(value)
        except ValueError:
            self.complain(key, lineno, f"expected {describe}, got {value!r}")
            return default

    def get_float(self, key, required=False, default=None):
        return self._typed(key, required, default, float, "a number")

    def get_int(self, key, required=False, default=None):
        return self._typed(key, required, default, int, "an integer")

    def get_bool(self, key, required=False, default=None):
        def convert(v):
            low = v.lower()
            if low in ("true", "on", "yes", "1"):
                return True
            if low in ("false", "off", "no", "0"):
                return False
            raise ValueError(v)
        return self._typed(key, required, default, convert, "true or false")

    def get_str(self, key, required=False, default=None):
        return self._typed(key, required, default, str, "a string")

    def get_choice(self, key, choices, required=False, default=None):
        def convert(v):
            if v not in choices:
                raise ValueError(v)
            return v
        got = self._typed(key, required, default, convert,
                          "one of " + "/".join(choices))
        return got

    def get_floats(self, key, required=False):
        def convert(v):
            return tuple(float(x) for x in v.split(","))
        return self._typed(key, required, None, convert, "comma-separated numbers")

    def get_expr(self, key, required=False):
        value, lineno = self.require(key) if required else self.raw(key)
        if value is None:
            return None
        try:
            return expr.parse(value)
        except expr.ExprError as err:
            self.complain(key, lineno, f"bad expression: {err}")
            return None

    def get_path(self, key, required=False):
        value, lineno = self.require(key) if required else self.raw(key)
        if value is None:
            return None
        path = self.base_dir / value
        if not path.exists():
            self.complain(key, lineno, f"file not found: {path}")
            return None
        return path

    def get_policy(self, key, default):
        value, lineno = self.raw(key)
        if value is None:
            return default
        states = set()
        for part in value.split(","):
            part = part.strip()
            if part not in _PRESENCE:
                self.complain(key, lineno,
                              f"unknown presence state {part!r}; allowed: "
                              f"{sorted(_PRESENCE)}")
                return default
            states.add(_PRESENCE[part])
        return frozenset(states)

    def get_pairs(self, key):
        value, lineno = self.raw(key)
        if value is None or not value.strip():
            return ()
        pairs = []
        for part in value.split(","):
            bits = part.strip().split(":")
            try:
                if len(bits) != 2:
                    raise ValueError(part)
                pairs.append((int(bits[0]), int(bits[1])))
            except ValueError:
                self.complain(key, lineno,
                              f"expected `start:end` pairs, got {part.strip()!r}")
                return ()
        return tuple(pairs)

    def constants(self):
        """The const_<name> entries as (name, value) pairs; None when one of
        them is not a number (reported)."""
        pairs = tuple((key[len("const_"):], self.get_float(key))
                      for key in list(self.entries) if key.startswith("const_"))
        return None if any(value is None for _, value in pairs) else pairs

    def rest_voltages(self):
        out = {}
        for line in ("V_pre", "V_post1", "V_post2"):
            key = f"rest_{line}"
            if self.has(key):
                out[f"rest_{line.lower()}"] = self.get_float(key)
        return out

    def reject_unknown(self):
        for key in self.entries:
            if key not in self.consumed:
                lineno = self.entries[key][0][1]
                self.complain(key, lineno, "unknown key")


@dataclass(frozen=True)
class TuneConfig:
    space: tuple[ParamRange, ...]
    ga: GAConfig
    val_fraction: float = 0.2

    def __post_init__(self):
        if not self.space:
            raise SpecError("param", "at least one param range is required")
        if not 0.0 < self.val_fraction < 1.0:
            raise SpecError("val_fraction", f"must be in (0, 1), got {self.val_fraction}")


@dataclass
class LoadedConfig:
    path: Path
    sim: SimConfig
    network: NetworkSpec
    encoding: PoissonEncoder | FixedRateEncoder
    train_path: Path | None
    test_path: Path | None
    tune: TuneConfig | None

    def make_encoder(self):
        return self.encoding


_INIT_RE = re.compile(
    r"^(uniform|constant|from_file)\s*\(\s*([^)]*)\s*\)$")


def _parse_init_weights(section: _Section) -> WeightInit | None:
    value, lineno = section.raw("init_weights")
    if value is None:
        return None
    m = _INIT_RE.match(value)
    if m is None:
        section.complain("init_weights", lineno,
                         "expected uniform(lo, hi), constant(g) or from_file(path)")
        return None
    kind, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
    names = {"uniform": ("lo", "hi"), "constant": ("value",), "from_file": ("path",)}[kind]
    try:
        if len(args) != len(names) or not args[0]:
            raise ValueError
        values = [str(section.base_dir / args[0])] if kind == "from_file" else [
            float(a) for a in args]
    except ValueError:
        section.complain("init_weights", lineno, f"bad init_weights arguments {args}")
        return None
    if kind == "from_file" and not Path(values[0]).exists():
        section.complain("init_weights", lineno, f"file not found: {values[0]}")
        return None
    return section.build(WeightInit, kind, **dict(zip(names, values)),
                         at=("init_weights", lineno))


def _load(section: _Section, key: str, loader):
    """What loader reads from the file that `key` names; None when the key is
    missing or the file unreadable (reported under key, with its line)."""
    path = section.get_path(key, required=True)
    if path is None:
        return None
    try:
        return loader(path)
    except (OSError, ValueError) as err:
        section.complain(key, section.line(key), str(err))
        return None


def _ladder(section: _Section, key: str):
    """An identical-pulse ladder, given inline as `key` or in the file that
    `key_path` names; None when it is missing or unreadable (and reported)."""
    path_key = f"{key}_path"
    if section.has(key) and section.has(path_key):
        _, lineno = section.raw(key)
        _, path_lineno = section.raw(path_key)
        section.complain(path_key, path_lineno,
                         f"conflicts with {key} (line {lineno}); give the ladder "
                         "inline or as a file, not both")
        return None
    if section.has(path_key):
        return _load(section, path_key, load_identical_levels)
    if not section.has(key):
        section.complain(key, None, f"identical device needs {key} or {path_key}")
    return section.get_floats(key)


def _build_device(section: _Section):
    kind = section.get_choice("kind", ("identical", "family"), required=True)
    g_min = section.get_float("g_min", required=True)
    g_max = section.get_float("g_max", required=True)
    if kind is None:  # the kind decides which keys apply; flag none as unknown
        for key in ("levels_ltp", "levels_ltd", "levels_ltp_path", "levels_ltd_path",
                    "table_ltp_path", "table_ltd_path", "family_axis"):
            section.raw(key)
        return None
    if kind == "identical":
        ltp = _ladder(section, "levels_ltp")
        ltd = _ladder(section, "levels_ltd")
        if None in (ltp, ltd, g_min, g_max):
            return None
        return section.build(PulseFamilyDevice.identical, ltp, ltd, g_min, g_max)
    ltp = _load(section, "table_ltp_path", lambda p: load_family_table(p, True))
    ltd = _load(section, "table_ltd_path", lambda p: load_family_table(p, False))
    axis = section.get_choice("family_axis", ("amplitude", "width"),
                              default="amplitude")
    if None in (ltp, ltd, g_min, g_max):
        return None
    return section.build(PulseFamilyDevice, ltp, ltd, g_min, g_max, family_axis=axis)


def _build_circuit(section: _Section):
    v_app = section.get_expr("v_app", required=True)
    ex_eqs = section.get_expr("ex_eqs")
    v_th_pos = section.get_float("v_th_pos", required=True)
    v_th_neg = section.get_float("v_th_neg", required=True)
    transmit = section.get_policy("transmit_policy",
                                  frozenset({SpikePresence.PRE_ONLY}))
    plasticity = section.get_policy("plasticity_policy",
                                    frozenset({SpikePresence.BOTH}))
    conduct = section.get_bool("conduct_during_plasticity", default=True)
    rest = section.rest_voltages()
    constants = section.constants()
    if None in (v_app, v_th_pos, v_th_neg, constants):
        return None
    return section.build(
        CircuitModel, v_app=v_app, ex_eqs=ex_eqs, v_th_pos=v_th_pos, v_th_neg=v_th_neg,
        transmit_policy=transmit, plasticity_policy=plasticity,
        conduct_during_plasticity=conduct, constants=constants, **rest)


def _waveform(section: _Section, key: str) -> Waveform | None:
    values = section.get_floats(key)
    if values is None:
        return None
    return section.build(waveform_from_flat, values, at=(key, section.line(key)))


def _build_neuron(section: _Section):
    has_calib = section.has("calib_path")
    tau = section.get_float("tau", required=not has_calib)
    thres = section.get_float("thres", required=not has_calib)
    v_reset = section.get_float("v_reset", default=0.0)
    t_refrac = section.get_float("t_refrac", default=0.0)
    r_mem = section.get_float("r_mem", default=1.0)
    state_eqs = section.get_expr("state_eqs")
    power_expr = section.get_expr("power_expr")
    waveforms = SpikeWaveforms(
        pre=_waveform(section, "pre_volt"),
        post1=_waveform(section, "post1_volt"),
        post2=_waveform(section, "post2_volt"),
        inhib=_waveform(section, "inhib_volt"),
    )
    if has_calib:
        # measured frequency-vs-width data fills in whatever tau/thres the
        # user left out; explicit keys win
        p = section.get_path("calib_path")
        amplitude = section.get_float("calib_pulse_amplitude", required=True)
        rate = section.get_float("calib_pulse_rate", default=1.0)
        if p is not None and amplitude is not None:
            try:
                fit = calibrate_from_frequency(
                    load_calibration_csv(p), amplitude, rate)
            except ValueError as err:
                section.complain("calib_path", section.line("calib_path"), str(err))
                return None
            tau = tau if tau is not None else fit.tau
            thres = thres if thres is not None else fit.thres
            if math.isinf(tau) and state_eqs is None:
                section.complain(
                    "calib_path", section.line("calib_path"),
                    "calibration found a pure integrate-and-fire device "
                    "(infinite tau); provide state_eqs or an explicit tau")
                return None
    if tau is None or thres is None:
        return None
    return section.build(
        NeuronModel, tau=tau, thres=thres, v_reset=v_reset, t_refrac=t_refrac, r_mem=r_mem,
        state_eqs=state_eqs, power_expr=power_expr, waveforms=waveforms)


def _build_tune(section: _Section):
    space = []
    for value, lineno in section.raw_all("param"):
        bits = [b.strip() for b in value.split(",")]
        if len(bits) != 5:
            section.complain("param", lineno,
                             "expected `key.path, lo, hi, linear|log, real|integer`")
            continue
        try:
            lo, hi = float(bits[1]), float(bits[2])
        except ValueError as err:
            section.complain("param", lineno, str(err))
            continue
        param = section.build(ParamRange, bits[0], lo, hi, scale=bits[3], kind=bits[4],
                              at=("param", lineno))
        if param is not None:
            space.append(param)
    ga_kwargs = {}
    for key, cast in (("population", int), ("generations", int),
                      ("crossover_rate", float), ("mutation_rate", float),
                      ("mutation_sigma", float), ("elitism", int),
                      ("tournament_size", int), ("seed", int)):
        if section.has(key):
            got = section.get_int(key) if cast is int else section.get_float(key)
            if got is not None:
                ga_kwargs[key] = got
    val_fraction = section.get_float("val_fraction", default=0.2)
    ga = section.build(GAConfig, **ga_kwargs)
    if ga is None or len(space) < len(section.raw_all("param")):
        return None  # each bad param line is reported already
    return section.build(TuneConfig, tuple(space), ga, val_fraction)


def load_config(path, overrides: dict[str, float] | None = None) -> LoadedConfig:
    """Parse, validate and assemble the full object graph for one config file.

    overrides maps dotted key paths (`section.key` or `section.sub.key`)
    onto replacement values, applied before validation; unknown paths are
    rejected. This is how tuned parameters re-enter the pipeline.
    """
    raw = parse_raw(path)
    if overrides:
        _apply_overrides(raw, overrides)
    problems: list[str] = []
    base_dir = raw.path.parent

    def section(name) -> _Section:
        """The named section; a missing one reads as empty."""
        return _Section(name, raw.sections.get(name, {}), problems, base_dir)

    known_prefixes = ("device.", "circuit.", "neuron.", "layers.")
    for name in raw.section_names():
        if name in ("sim", "encoding", "data", "network", "tune"):
            continue
        if not name.startswith(known_prefixes):
            problems.append(f"[{name}]: unknown section")

    sim = None
    if "sim" not in raw.sections:
        problems.append("[sim]: required section is missing")
    else:
        sim_s = section("sim")
        T = sim_s.get_float("T", required=True)
        dt = sim_s.get_float("dt", required=True)
        T_sample = sim_s.get_float("T_sample", default=0.1)
        seed = sim_s.get_int("seed", default=0)
        reset = sim_s.get_bool("reset_between_samples", default=True)
        shuffle = sim_s.get_bool("shuffle", default=True)
        sim_s.reject_unknown()
        if T is not None and dt is not None:
            sim = sim_s.build(SimConfig, T=T, dt=dt, T_sample=T_sample,
                              reset_between_samples=reset, shuffle=shuffle, seed=seed)

    enc_s = section("encoding")
    etype = enc_s.get_choice("type", tuple(_ENCODERS), default="poisson")
    r_min = enc_s.get_float("r_min", default=0.0)
    r_max = enc_s.get_float("r_max", default=60.0)
    enc_s.reject_unknown()
    encoding = enc_s.build(_ENCODERS[etype], r_min, r_max)

    devices = {}
    circuits = {}
    neurons = {}
    for name in raw.section_names():
        if name.startswith("device."):
            s = section(name)
            devices[name.split(".", 1)[1]] = _build_device(s)
            s.reject_unknown()
        elif name.startswith("circuit."):
            s = section(name)
            circuits[name.split(".", 1)[1]] = _build_circuit(s)
            s.reject_unknown()
        elif name.startswith("neuron."):
            s = section(name)
            neurons[name.split(".", 1)[1]] = _build_neuron(s)
            s.reject_unknown()

    layer_indices = sorted(
        int(name.split(".", 1)[1]) for name in raw.section_names()
        if name.startswith("layers.") and name.split(".", 1)[1].isdigit())
    if not layer_indices:
        problems.append("[layers.*]: no layer sections found")
    elif layer_indices != list(range(len(layer_indices))):
        problems.append(f"[layers.*]: layer indices must be 0..n-1, got {layer_indices}")

    layers = []
    for idx in layer_indices:
        s = section(f"layers.{idx}")
        n = s.get_int("neurons", required=True)
        neuron_name = s.get_str("neuron", required=True)
        model = neurons.get(neuron_name)
        if neuron_name is not None and neuron_name not in neurons:
            s.complain("neuron", s.line("neuron"), f"unknown neuron type {neuron_name!r}; "
                       f"defined: {sorted(neurons)}")
        if idx == 0:
            for forbidden in ("device", "circuit", "conn_type", "sparse_p",
                              "plastic", "label"):
                if s.has(forbidden):
                    _, lineno = s.raw(forbidden)
                    s.complain(forbidden, lineno,
                               "not applicable to the input layer (layer 0)")
            s.reject_unknown()
            if n is not None and model is not None:
                layers.append(s.build(LayerSpec, neurons=n, neuron_model=model))
            continue
        plastic = s.get_bool("plastic", default=False)
        label = s.get_bool("label", default=False)
        conn_type = s.get_choice("conn_type",
                                 ("all_to_all", "one_to_one", "sparse"),
                                 default="all_to_all")
        sparse_p = s.get_float("sparse_p", default=1.0)
        device_name = s.get_str("device", required=True)
        circuit_name = s.get_str("circuit", required=True)
        device = devices.get(device_name)
        circuit = circuits.get(circuit_name)
        if device_name is not None and device_name not in devices:
            s.complain("device", s.line("device"), f"unknown device {device_name!r}; "
                       f"defined: {sorted(devices)}")
        if circuit_name is not None and circuit_name not in circuits:
            s.complain("circuit", s.line("circuit"), f"unknown circuit {circuit_name!r}; "
                       f"defined: {sorted(circuits)}")
        if conn_type == "sparse" and not s.has("sparse_p"):
            s.complain("sparse_p", None, "sparse connectivity needs sparse_p")
        s.reject_unknown()
        if None in (n, model, device, circuit):
            continue
        layers.append(s.build(
            LayerSpec, neurons=n, neuron_model=model, plastic=plastic, label=label,
            conn_type=conn_type, sparse_p=sparse_p, circuit_model=circuit,
            device_model=device))

    net_s = section("network")
    inh_conn = net_s.get_pairs("inh_conn")
    inh_g = net_s.get_float("inh_g", default=0.0)
    net_seed = net_s.get_int("seed", default=0)
    init_weights = _parse_init_weights(net_s)
    net_s.reject_unknown()

    data_s = section("data")
    train_path = data_s.get_path("train_path") if data_s.has("train_path") else None
    test_path = data_s.get_path("test_path") if data_s.has("test_path") else None
    data_s.reject_unknown()

    tune = None
    if "tune" in raw.sections:
        tune_s = section("tune")
        tune = _build_tune(tune_s)
        tune_s.reject_unknown()

    network = None
    if not problems:  # so every layer was built
        network = net_s.build(NetworkSpec, layers=tuple(layers), inh_conn=inh_conn,
                              inh_g=inh_g, seed=net_seed, init_weights=init_weights)

    if problems:
        raise ConfigError(problems)
    return LoadedConfig(raw.path, sim, network, encoding, train_path, test_path, tune)


def _apply_overrides(raw: RawConfig, overrides: dict[str, float]) -> None:
    problems = []
    for dotted, value in overrides.items():
        section, _, key = dotted.rpartition(".")
        entries = raw.sections.get(section)
        if entries is None or key not in entries:
            problems.append(f"override {dotted!r}: no such config key")
            continue
        lineno = entries[key][0][1]
        if isinstance(value, float) and math.isfinite(value) and value == int(value) \
                and entries[key][0][0].lstrip("+-").isdigit():
            rendered = repr(int(value))
        else:
            rendered = repr(value)
        entries[key] = [(rendered, lineno)]
    if problems:
        raise ConfigError(problems)
