"""The parameter-file interface: one structured text file defines the run.

Sections hold devices, circuits, neuron types, layers, simulation control,
encoding, data paths and tuning ranges; values are numbers, booleans,
bare strings (equations), comma-separated number arrays (waveforms) or
small structured forms like `uniform(lo, hi)`.

This module reads and types the values and passes on only the keys the
file gives: a key the file leaves out is not passed, so the spec's own
default applies. (The one default kept here is the encoding `type`, which
picks the encoder class, not a field value.) Each spec and
model constructor checks its own values and raises a SpecError naming the
parameter at fault, which `_Section.build` files under that parameter's key
and line. So every fault of the specs, the network's included, is found at
load, never at build or run time. Every problem in the file is reported at
once (the first of each object built), each with its section, key and line
number, and nothing runs on a partially valid config.

The side files a config names (ladders, family tables, calibration data)
and the datasets are read here too, all through `_rows`: blank lines and
`#` comment lines are skipped, and a fault is prefixed with `path:line:`.
So the model modules do no file I/O.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from spikeforge import expr
from spikeforge.encoding import FixedRateEncoder, PoissonEncoder, Sample
from spikeforge.engine import LayerSpec, NetworkSpec, SimConfig, WeightInit
from spikeforge.errors import SpecError
from spikeforge.neuron import NeuronModel, SpikeWaveforms, calibrate_from_frequency
from spikeforge.synapse import CircuitModel, PulseFamilyDevice, PulseFamilyTable, SpikePresence
from spikeforge.tuner import GAConfig, ParamRange
from spikeforge.waveform import Waveform, waveform_from_flat

_ENCODERS = {"poisson": PoissonEncoder, "fixed": FixedRateEncoder}

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_]+)\s*=\s*(.*)$")


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "on", "yes", "1"):
        return True
    if low in ("false", "off", "no", "0"):
        return False
    raise ValueError(text)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


# how `_Section.read` reads each kind of value, and what a malformed one should be
_KINDS = {float: (float, "a number"), int: (int, "an integer"),
          bool: (_bool, "true or false"), str: (str, "a string")}


class ConfigError(ValueError):
    """All problems found in a config file, formatted one per line."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


def parse_raw(path) -> dict[str, dict[str, list[tuple[str, int]]]]:
    """The parsed but untyped file: section -> key -> [(value, line number)]."""
    sections: dict[str, dict[str, list[tuple[str, int]]]] = {}
    current: dict[str, list[tuple[str, int]]] | None = None
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            m = _SECTION_RE.match(stripped)
            if m:
                name = m.group(1)
                if name in sections:
                    problems.append(f"line {lineno}: duplicate section [{name}]")
                current = sections.setdefault(name, {})
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
    return sections


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

    def raw(self, key: str, required: bool = False):
        """The (value, line) the file gives for key, else (None, None),
        reported when the key is required."""
        self.consumed.add(key)
        values = self.entries.get(key)
        if not values:
            if required:
                self.complain(key, None, "required key is missing")
            return None, None
        if len(values) > 1:
            self.complain(key, values[1][1], "key given more than once")
        return values[0]

    def raw_all(self, key: str):
        self.consumed.add(key)
        return self.entries.get(key, [])

    def _typed(self, key, required, default, convert, describe):
        value, lineno = self.raw(key, required)
        if value is None:
            return default
        try:
            return convert(value)
        except ValueError:
            self.complain(key, lineno, f"expected {describe}, got {value!r}")
            return default

    def read(self, kinds: dict[str, type], required=()) -> dict:
        """{key: value} for each key of kinds that the section gives, read as
        its kind (float, int, bool or str). A missing required key or a
        malformed key is reported and left out, so the spec's own default
        stands in while the rest of the file is checked."""
        got = {}
        for key, kind in kinds.items():
            value = self._typed(key, key in required, None, *_KINDS[kind])
            if value is not None:
                got[key] = value
        return got

    def get_choice(self, key, choices, required=False, default=None):
        def convert(v):
            if v not in choices:
                raise ValueError(v)
            return v
        return self._typed(key, required, default, convert, "one of " + "/".join(choices))

    def get_floats(self, key, required=False):
        return self._typed(key, required, None, _floats, "comma-separated numbers")

    def get_expr(self, key, required=False):
        value, lineno = self.raw(key, required)
        if value is None:
            return None
        try:
            return expr.parse(value)
        except expr.ExprError as err:
            self.complain(key, lineno, f"bad expression: {err}")
            return None

    def get_path(self, key, required=False):
        value, lineno = self.raw(key, required)
        if value is None:
            return None
        path = self.base_dir / value
        if not path.exists():
            self.complain(key, lineno, f"file not found: {path}")
            return None
        return path

    def get_policy(self, key):
        value, lineno = self.raw(key)
        if value is None:
            return None
        states = set()
        for part in value.split(","):
            try:
                states.add(SpikePresence(part.strip()))
            except ValueError:
                self.complain(key, lineno, f"unknown presence state {part.strip()!r}; "
                              f"allowed: {sorted(p.value for p in SpikePresence)}")
                return None
        return frozenset(states)

    def get_pairs(self, key):
        value, lineno = self.raw(key)
        if not value:
            return None if value is None else ()
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
                return None
        return tuple(pairs)

    def constants(self):
        """The const_<name> entries as (name, value) pairs; None when one of
        them is not a number (reported)."""
        keys = [key for key in self.entries if key.startswith("const_")]
        got = self.read(dict.fromkeys(keys, float))
        if len(got) < len(keys):
            return None
        return tuple((key[len("const_"):], value) for key, value in got.items())

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
    args = section.read({"g_min": float, "g_max": float}, required=("g_min", "g_max"))
    if kind is None:  # the kind decides which keys apply; flag none as unknown
        for key in ("levels_ltp", "levels_ltd", "levels_ltp_path", "levels_ltd_path",
                    "table_ltp_path", "table_ltd_path", "family_axis"):
            section.raw(key)
        return None
    if kind == "identical":
        make = PulseFamilyDevice.identical
        tables = _ladder(section, "levels_ltp"), _ladder(section, "levels_ltd")
    else:
        make = PulseFamilyDevice
        tables = (_load(section, "table_ltp_path", lambda p: load_family_table(p, True)),
                  _load(section, "table_ltd_path", lambda p: load_family_table(p, False)))
        axis = section.get_choice("family_axis", ("amplitude", "width"))
        if axis is not None:
            args["family_axis"] = axis
    if None in tables or not {"g_min", "g_max"} <= args.keys():
        return None
    return section.build(make, *tables, **args)


def _build_circuit(section: _Section):
    v_app = section.get_expr("v_app", required=True)
    ex_eqs = section.get_expr("ex_eqs")
    args = section.read({"v_th_pos": float, "v_th_neg": float},
                        required=("v_th_pos", "v_th_neg"))
    for key in ("transmit_policy", "plasticity_policy"):
        policy = section.get_policy(key)
        if policy is not None:
            args[key] = policy
    args |= section.read({"conduct_during_plasticity": bool})
    rest = section.read(dict.fromkeys(("rest_V_pre", "rest_V_post1", "rest_V_post2"), float))
    args |= {key.lower(): value for key, value in rest.items()}  # the field is rest_v_pre
    constants = section.constants()
    if None in (v_app, constants) or not {"v_th_pos", "v_th_neg"} <= args.keys():
        return None
    return section.build(CircuitModel, v_app=v_app, ex_eqs=ex_eqs, constants=constants, **args)


def _waveform(section: _Section, key: str) -> Waveform | None:
    values = section.get_floats(key)
    if values is None:
        return None
    return section.build(waveform_from_flat, values, at=(key, section.line(key)))


def _build_neuron(section: _Section):
    has_calib = section.has("calib_path")
    args = section.read(
        {"tau": float, "thres": float, "v_reset": float, "t_refrac": float, "r_mem": float},
        required=() if has_calib else ("tau", "thres"))
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
        pulses = section.read({"calib_pulse_amplitude": float, "calib_pulse_rate": float},
                              required=("calib_pulse_amplitude",))
        if p is not None and "calib_pulse_amplitude" in pulses:
            try:
                fit = calibrate_from_frequency(load_calibration_csv(p), **{
                    key[len("calib_"):]: value for key, value in pulses.items()})
            except ValueError as err:
                section.complain("calib_path", section.line("calib_path"), str(err))
                return None
            args = {"tau": fit.tau, "thres": fit.thres} | args
            if math.isinf(args["tau"]) and state_eqs is None:
                section.complain(
                    "calib_path", section.line("calib_path"),
                    "calibration found a pure integrate-and-fire device "
                    "(infinite tau); provide state_eqs or an explicit tau")
                return None
    if not {"tau", "thres"} <= args.keys():
        return None
    return section.build(NeuronModel, **args, state_eqs=state_eqs, power_expr=power_expr,
                         waveforms=waveforms)


# what a layer's reference key names: the LayerSpec field it fills and the
# word its unknown-name message uses
_REFERENCES = {"neuron": ("neuron_model", "neuron type"),
               "device": ("device_model", "device"),
               "circuit": ("circuit_model", "circuit")}


def _build_layer(section: _Section, idx: int, defined: dict[str, dict]):
    """The LayerSpec of [layers.idx], whose neuron, device and circuit
    references are resolved in defined; None when any part is missing."""
    args = section.read({"neurons": int}, required=("neurons",))
    complete = "neurons" in args
    for ref in ("neuron",) if idx == 0 else _REFERENCES:
        field_name, word = _REFERENCES[ref]
        name = section.read({ref: str}, required=(ref,)).get(ref)
        if name is not None and name not in defined[ref]:
            section.complain(ref, section.line(ref),
                             f"unknown {word} {name!r}; defined: {sorted(defined[ref])}")
        args[field_name] = defined[ref].get(name)
        complete = complete and args[field_name] is not None
    if idx == 0:
        for forbidden in ("device", "circuit", "conn_type", "sparse_p", "plastic", "label"):
            if section.has(forbidden):
                section.complain(forbidden, section.raw(forbidden)[1],
                                 "not applicable to the input layer (layer 0)")
    else:
        args |= section.read({"plastic": bool, "label": bool})
        conn_type = section.get_choice("conn_type", ("all_to_all", "one_to_one", "sparse"))
        if conn_type is not None:
            args["conn_type"] = conn_type
        args |= section.read({"sparse_p": float})
        if conn_type == "sparse" and not section.has("sparse_p"):
            section.complain("sparse_p", None, "sparse connectivity needs sparse_p")
    section.reject_unknown()
    return section.build(LayerSpec, **args) if complete else None


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
    ga_args = section.read({
        "population": int, "generations": int, "crossover_rate": float,
        "mutation_rate": float, "mutation_sigma": float, "elitism": int,
        "tournament_size": int, "seed": int})
    args = section.read({"val_fraction": float})
    ga = section.build(GAConfig, **ga_args)
    if ga is None or len(space) < len(section.raw_all("param")):
        return None  # each bad param line is reported already
    return section.build(TuneConfig, tuple(space), ga, **args)


# the builder of each named-object section kind, `[kind.name]`
_BUILDERS = {"device": _build_device, "circuit": _build_circuit, "neuron": _build_neuron}


def load_config(path, overrides: dict[str, float] | None = None) -> LoadedConfig:
    """Parse, validate and assemble the full object graph for one config file.

    overrides maps dotted key paths (`section.key` or `section.sub.key`)
    onto replacement values, applied before validation; unknown paths are
    rejected. This is how tuned parameters re-enter the pipeline.
    """
    path = Path(path)
    raw = parse_raw(path)
    if overrides:
        _apply_overrides(raw, overrides)
    problems: list[str] = []

    def section(name) -> _Section:
        """The named section; a missing one reads as empty."""
        return _Section(name, raw.get(name, {}), problems, path.parent)

    sim = None
    if "sim" not in raw:
        problems.append("[sim]: required section is missing")
    else:
        sim_s = section("sim")
        args = sim_s.read({"T": float, "dt": float, "T_sample": float, "seed": int,
                           "reset_between_samples": bool, "shuffle": bool},
                          required=("T", "dt"))
        sim_s.reject_unknown()
        if {"T", "dt"} <= args.keys():
            sim = sim_s.build(SimConfig, **args)

    enc_s = section("encoding")
    etype = enc_s.get_choice("type", tuple(_ENCODERS), default="poisson")
    rates = enc_s.read({"r_min": float, "r_max": float})
    enc_s.reject_unknown()
    encoding = enc_s.build(_ENCODERS[etype], **rates)

    defined: dict[str, dict] = {kind: {} for kind in _BUILDERS}
    layer_indices = []
    for name in raw:
        kind, dot, label = name.partition(".")
        if dot and kind in _BUILDERS:
            s = section(name)
            defined[kind][label] = _BUILDERS[kind](s)
            s.reject_unknown()
        elif dot and kind == "layers":
            if label.isdigit():
                layer_indices.append(int(label))
        elif name not in ("sim", "encoding", "data", "network", "tune"):
            problems.append(f"[{name}]: unknown section")
    layer_indices.sort()
    if not layer_indices:
        problems.append("[layers.*]: no layer sections found")
    elif layer_indices != list(range(len(layer_indices))):
        problems.append(f"[layers.*]: layer indices must be 0..n-1, got {layer_indices}")
    layers = tuple(_build_layer(section(f"layers.{idx}"), idx, defined)
                   for idx in layer_indices)

    net_s = section("network")
    net_args = {"inh_conn": net_s.get_pairs("inh_conn"),
                **net_s.read({"inh_g": float, "seed": int}),
                "init_weights": _parse_init_weights(net_s)}
    net_s.reject_unknown()

    data_s = section("data")
    train_path = data_s.get_path("train_path")
    test_path = data_s.get_path("test_path")
    data_s.reject_unknown()

    tune = None
    if "tune" in raw:
        tune_s = section("tune")
        tune = _build_tune(tune_s)
        tune_s.reject_unknown()

    network = None
    if not problems:  # so every layer was built
        network = net_s.build(NetworkSpec, layers=layers, **{
            key: value for key, value in net_args.items() if value is not None})

    if problems:
        raise ConfigError(problems)
    return LoadedConfig(path, sim, network, encoding, train_path, test_path, tune)


def _apply_overrides(raw: dict, overrides: dict[str, float]) -> None:
    problems = []
    for dotted, value in overrides.items():
        section, _, key = dotted.rpartition(".")
        entries = raw.get(section)
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


def _rows(path, parse) -> list:
    """parse(row) for each row of the file at path: each line, stripped,
    that is neither blank nor a `#` comment. A ValueError that parse raises
    becomes ValueError(`path:lineno: message`)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    rows.append(parse(line))
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
    return rows


def _as(convert, line: str, fault: str):
    """convert(line); else ValueError(`fault 'line'`)."""
    try:
        return convert(line)
    except ValueError:
        raise ValueError(f"{fault} {line!r}") from None


def load_identical_levels(path) -> tuple[float, ...]:
    """Read an identical-pulse ladder: one conductance per row."""
    return tuple(_rows(path, lambda line: _as(float, line, "not a conductance:")))


def load_family_table(path, ascending: bool) -> PulseFamilyTable:
    """Read a family table: a first row of pulse amplitudes, then one row of
    conductances per amplitude; every row is comma-separated numbers."""
    rows = _rows(path, lambda line: _as(_floats, line, "bad row:"))
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header of amplitudes plus at least one row")
    return PulseFamilyTable(rows[0], tuple(rows[1:]), ascending)


def load_calibration_csv(path) -> list[tuple[float, float]]:
    """Read calibration data: one `width_seconds,frequency_hz` pair per row."""
    def pair(line):
        if line.count(",") != 1:
            raise ValueError(f"expected width_seconds,frequency_hz, got {line!r}")
        return _as(_floats, line, "bad numbers in")
    return _rows(path, pair)


def load_dataset(path) -> list[Sample]:
    """Read a dataset: per row, the features in [0, 1] then an integer
    label, comma-separated."""
    def sample(line):
        *features, label = line.split(",")
        if not features:
            raise ValueError("need at least one feature and a label")
        return Sample(tuple(float(x) for x in features), int(label))
    return _rows(path, sample)
