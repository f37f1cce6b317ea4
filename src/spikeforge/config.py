"""The parameter-file interface: one structured text file defines the run.

Sections hold devices, circuits, neuron types, layers, simulation control,
encoding, data paths and tuning ranges; values are numbers, booleans,
bare strings (equations), comma-separated number arrays (waveforms) or
small structured forms like `uniform(lo, hi)`.

This module reads and types the values and passes on only the keys the
file gives: a key the file leaves out is not passed, so the spec's own
default applies. (The one default kept here is the encoding `type`, which
picks the encoder class, not a field value.) Every key is read by
`_Section.read`, through a reader: a function from the value's text to the
value, which raises a ValueError whose message is the problem. `read` is
the one place that files such a problem under its key and line. A spec
built from one entry (a waveform, a param range, init_weights) is built by
its reader, so its SpecError is filed the same way. A spec built from
several keys is built by `_Section.build`, which files its SpecError under
the key that gave the parameter it names. So every fault of the specs, the
network's included, is found at load, never at build or run time. Every
problem in the file is reported at once (the first of each object built),
each with its section, key and line number, and nothing runs on a partially
valid config.

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
from spikeforge.waveform import grid_samples, waveform_from_flat

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


def _as(convert, line: str, fault: str):
    """convert(line); else ValueError(`fault 'line'`)."""
    try:
        return convert(line)
    except ValueError:
        raise ValueError(f"{fault} {line!r}") from None


def _expect(convert, describe: str):
    """The reader convert, whose fault reads `expected <describe>, got 'text'`."""
    return lambda text: _as(convert, text, f"expected {describe}, got")


def _one_of(*choices: str):
    """The reader of a word that must be one of choices."""
    # index raises a ValueError for any other word
    return _expect(lambda text: choices[choices.index(text)], "one of " + "/".join(choices))


_numbers = _expect(_floats, "comma-separated numbers")

# the reader of each plain kind of value
_KINDS = {float: _expect(float, "a number"), int: _expect(int, "an integer"),
          bool: _expect(_bool, "true or false"), str: str}


def _expression(text: str) -> expr.Expression:
    try:
        return expr.parse(text)
    except expr.ExprError as err:
        raise ValueError(f"bad expression: {err}") from None


def _waveform(dt: float | None):
    """The reader of a waveform, which, when dt is known, must pass `grid_samples`: the
    engine delivers a waveform point-sampled at the grid points i * dt alone."""
    def read(text):
        wf = waveform_from_flat(_numbers(text))
        if dt is not None:
            grid_samples(wf, dt)
        return wf
    return read


def _policy(text: str) -> frozenset[SpikePresence]:
    """A set of presence states, comma-separated."""
    states = set()
    for part in text.split(","):
        try:
            states.add(SpikePresence(part.strip()))
        except ValueError:
            raise ValueError(f"unknown presence state {part.strip()!r}; "
                             f"allowed: {sorted(p.value for p in SpikePresence)}") from None
    return frozenset(states)


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated `start:end` pairs of integers; none for an empty value."""
    def pair(part):
        start, end = part.split(":")  # a ValueError unless there is one colon
        return int(start), int(end)
    return tuple(_as(pair, part.strip(), "expected `start:end` pairs, got")
                 for part in (text.split(",") if text else ()))


def _file(base_dir: Path, load=None):
    """The reader of a file named relative to the config: its path, or what
    load reads from it (an OSError of load's is filed like its ValueError)."""
    def named(text):
        path = base_dir / text
        if not path.exists():
            raise ValueError(f"file not found: {path}")
        if load is None:
            return path
        try:
            return load(path)
        except OSError as err:
            raise ValueError(str(err)) from None
    return named


_INIT_RE = re.compile(
    r"^(uniform|constant|from_file)\s*\(\s*([^)]*)\s*\)$")
_INIT_ARGS = {"uniform": ("lo", "hi"), "constant": ("value",), "from_file": ("path",)}


def _weight_init(base_dir: Path):
    """The reader of init_weights: uniform(lo, hi), constant(g) or from_file(path)."""
    def read(text):
        m = _INIT_RE.match(text)
        if m is None:
            raise ValueError("expected uniform(lo, hi), constant(g) or from_file(path)")
        kind, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
        names = _INIT_ARGS[kind]
        try:
            if len(args) != len(names) or not args[0]:
                raise ValueError
            values = args if kind == "from_file" else [float(a) for a in args]
        except ValueError:
            raise ValueError(f"bad init_weights arguments {args}") from None
        if kind == "from_file":
            values = [str(_file(base_dir)(args[0]))]
        return WeightInit(kind, **dict(zip(names, values)))
    return read


def _entries(raw: dict, dotted: str) -> list | None:
    """The [(value, line number)] list of the key that `section.key` names in raw, or None."""
    section, _, key = dotted.rpartition(".")
    return raw.get(section, {}).get(key)


def _param_range(raw: dict):
    """The reader of one `param` line of [tune], whose key path names a numeric key of raw."""
    def read(text):
        bits = [b.strip() for b in text.split(",")]
        if len(bits) != 5:
            raise ValueError("expected `key.path, lo, hi, linear|log, real|integer`")
        if (entries := _entries(raw, bits[0])) is None:
            raise ValueError(f"no such config key {bits[0]!r}")
        _as(float, entries[0][0], f"expected a number at {bits[0]!r}, got")
        return ParamRange(bits[0], float(bits[1]), float(bits[2]), scale=bits[3], kind=bits[4])
    return read


class ConfigError(ValueError):
    """All problems found in a config file, formatted one per line."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


def _text(line: bytes) -> str:
    try:  # the decode rule of every file read here; a fault names the first bad byte
        return line.decode()
    except UnicodeDecodeError as err:
        raise ValueError(f"not UTF-8 text (byte {line[err.start]:#x})") from None


def parse_raw(path) -> dict[str, dict[str, list[tuple[str, int]]]]:
    """The parsed but untyped file: section -> key -> [(value, line number)]."""
    sections: dict[str, dict[str, list[tuple[str, int]]]] = {}
    current: dict[str, list[tuple[str, int]]] | None = None
    problems: list[str] = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            stripped = _text(line).split("#", 1)[0].strip()
        except ValueError as err:
            problems.append(f"line {lineno}: {err}")
            continue
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

    def __init__(self, name: str, entries: dict, problems: list[str], base_dir: Path, dt=None):
        self.name = name
        self.entries = entries
        self.problems = problems
        self.base_dir, self.dt = base_dir, dt  # what readers of files and waveforms need
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

    def build(self, make, *args, **kwargs):
        """make(*args, **kwargs), or None when it raises a SpecError. That
        is filed under the key that gave the parameter it names: a ladder or
        table read from a file under its *_path key, a circuit constant
        under its const_ key."""
        try:
            return make(*args, **kwargs)
        except SpecError as err:
            given = (err.key, f"{err.key}_path", f"table_{err.key}_path", f"const_{err.key}")
            key = next((k for k in given if self.has(k)), err.key)
            self.complain(key, self.line(key), str(err))
            return None

    def has(self, key: str) -> bool:
        return key in self.entries

    def read(self, kinds: dict, required=()) -> dict:
        """{key: value} for each key of kinds that the section gives, read by
        its kind: float, int, bool or str, or a reader, a function from the
        value's text to the value that raises a ValueError (a SpecError
        included) whose message is the problem. A kind [reader] reads each
        line the key is given on, into a tuple (empty when there is none).

        This is the one place that files a fault of a key's value, under the
        key and its line. A missing required key, a key given twice and a
        value its reader rejects are reported; a rejected value is left out,
        so the spec's own default stands in while the rest of the file is
        checked."""
        got = {}
        for key, kind in kinds.items():
            self.consumed.add(key)
            entries = self.entries.get(key, [])
            if not entries and key in required:
                self.complain(key, None, "required key is missing")
            repeated = isinstance(kind, list)
            if repeated:
                reader, lines = kind[0], entries
            else:
                reader, lines = _KINDS.get(kind, kind), entries[:1]
                if len(entries) > 1:
                    self.complain(key, entries[1][1], "key given more than once")
            values = []
            for text, lineno in lines:
                try:
                    values.append(reader(text))
                except ValueError as err:
                    self.complain(key, lineno, str(err))
            if len(values) == len(lines) and (repeated or values):
                got[key] = tuple(values) if repeated else values[0]
        return got

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


def _ladder(section: _Section, key: str):
    """An identical-pulse ladder, given inline as `key` or in the file that
    `key_path` names; None when it is missing or unreadable (and reported)."""
    path_key = f"{key}_path"
    if section.has(key) and section.has(path_key):
        section.read({key: str, path_key: str})  # a key given twice is still reported
        section.complain(path_key, section.line(path_key),
                         f"conflicts with {key} (line {section.line(key)}); give the ladder "
                         "inline or as a file, not both")
        return None
    if not section.has(key) and not section.has(path_key):
        section.complain(key, None, f"identical device needs {key} or {path_key}")
    got = section.read({key: _numbers,
                        path_key: _file(section.base_dir, load_identical_levels)})
    return got.get(key, got.get(path_key))


def _build_device(section: _Section):
    args = section.read({"kind": _one_of("identical", "family"), "g_min": float,
                         "g_max": float}, required=("kind", "g_min", "g_max"))
    kind = args.pop("kind", None)
    if kind is None:  # the kind decides which keys apply; flag none as unknown
        section.read(dict.fromkeys(("levels_ltp", "levels_ltd", "levels_ltp_path",
                                    "levels_ltd_path", "table_ltp_path", "table_ltd_path",
                                    "family_axis"), str))
        return None
    if kind == "identical":
        make = PulseFamilyDevice.identical
        tables = _ladder(section, "levels_ltp"), _ladder(section, "levels_ltd")
    else:
        make = PulseFamilyDevice
        got = section.read({
            "table_ltp_path": _file(section.base_dir, lambda p: load_family_table(p, True)),
            "table_ltd_path": _file(section.base_dir, lambda p: load_family_table(p, False)),
            # checked, not kept: a row is picked by |V_TB| against the row amplitudes
            "family_axis": _expect(("amplitude",).index,
                                   "amplitude (family rows are picked by pulse amplitude)")},
            required=("table_ltp_path", "table_ltd_path"))
        tables = got.pop("table_ltp_path", None), got.pop("table_ltd_path", None)
    if None in tables or not {"g_min", "g_max"} <= args.keys():
        return None
    return section.build(make, *tables, **args)


def _build_circuit(section: _Section):
    names = [key for key in section.entries if key.startswith("const_")]
    args = section.read(
        {"v_app": _expression, "ex_eqs": _expression, "v_th_pos": float, "v_th_neg": float,
         "transmit_policy": _policy, "plasticity_policy": _policy,
         "conduct_during_plasticity": bool,
         "rest_V_pre": float, "rest_V_post1": float, "rest_V_post2": float}
        | dict.fromkeys(names, float), required=("v_app", "v_th_pos", "v_th_neg"))
    constants = tuple((key.removeprefix("const_"), args.pop(key))
                      for key in names if key in args)
    args = {key.lower(): value for key, value in args.items()}  # rest_V_pre fills rest_v_pre
    if len(constants) < len(names) or not {"v_app", "v_th_pos", "v_th_neg"} <= args.keys():
        return None
    return section.build(CircuitModel, constants=constants, **args)


def _build_neuron(section: _Section):
    has_calib = section.has("calib_path")
    args = section.read(
        {"tau": float, "thres": float, "v_reset": float, "t_refrac": float, "r_mem": float,
         "state_eqs": _expression, "power_expr": _expression},
        required=() if has_calib else ("tau", "thres"))
    volts = section.read({f"{name}_volt": _waveform(section.dt)
                          for name in ("pre", "post1", "post2", "inhib")})
    waveforms = SpikeWaveforms(**{key.removesuffix("_volt"): w for key, w in volts.items()})
    if has_calib:
        # measured frequency-vs-width data fills in whatever tau/thres the
        # user left out; explicit keys win
        calib = section.read({"calib_path": _file(section.base_dir),
                              "calib_pulse_amplitude": float, "calib_pulse_rate": float},
                             required=("calib_pulse_amplitude",))
        p = calib.pop("calib_path", None)
        if p is not None and "calib_pulse_amplitude" in calib:
            try:
                fit = calibrate_from_frequency(load_calibration_csv(p), **{
                    key[len("calib_"):]: value for key, value in calib.items()})
            except ValueError as err:
                section.complain("calib_path", section.line("calib_path"), str(err))
                return None
            args = {"tau": fit.tau, "thres": fit.thres} | args
            if math.isinf(args["tau"]) and "state_eqs" not in args:
                section.complain(
                    "calib_path", section.line("calib_path"),
                    "calibration found a pure integrate-and-fire device "
                    "(infinite tau); provide state_eqs or an explicit tau")
                return None
    if not {"tau", "thres"} <= args.keys():
        return None
    return section.build(NeuronModel, **args, waveforms=waveforms)


# what a layer's reference key names: the LayerSpec field it fills and the
# word its unknown-name message uses
_REFERENCES = {"neuron": ("neuron_model", "neuron type"),
               "device": ("device_model", "device"),
               "circuit": ("circuit_model", "circuit")}


def _reference(word: str, defined: dict):
    """The reader of a name that must be defined: the object it names."""
    def resolve(name):
        if name not in defined:
            raise ValueError(f"unknown {word} {name!r}; defined: {sorted(defined)}")
        return defined[name]
    return resolve


def _inapplicable(text: str):
    raise ValueError("not applicable to the input layer (layer 0)")


def _build_layer(section: _Section, idx: int, defined: dict[str, dict]):
    """The LayerSpec of [layers.idx], whose neuron, device and circuit
    references are resolved in defined; None when any part is missing."""
    refs = ("neuron",) if idx == 0 else tuple(_REFERENCES)
    args = section.read({"neurons": int} | {
        ref: _reference(_REFERENCES[ref][1], defined[ref]) for ref in refs},
        required=("neurons", *refs))
    models = {_REFERENCES[ref][0]: args.pop(ref, None) for ref in refs}
    if idx == 0:
        section.read(dict.fromkeys(
            ("device", "circuit", "conn_type", "sparse_p", "plastic", "label"), _inapplicable))
    else:
        args |= section.read({"plastic": bool, "label": bool,
                              "conn_type": _one_of("all_to_all", "one_to_one", "sparse"),
                              "sparse_p": float})
        if args.get("conn_type") == "sparse" and not section.has("sparse_p"):
            section.complain("sparse_p", None, "sparse connectivity needs sparse_p")
    section.reject_unknown()
    if "neurons" not in args or None in models.values():
        return None
    return section.build(LayerSpec, **args, **models)


def _build_tune(section: _Section, raw: dict):
    space = section.read({"param": [_param_range(raw)]}).get("param")
    ga_args = section.read({
        "population": int, "generations": int, "crossover_rate": float,
        "mutation_rate": float, "mutation_sigma": float, "elitism": int,
        "tournament_size": int, "seed": int})
    args = section.read({"val_fraction": float})
    ga = section.build(GAConfig, **ga_args)
    if ga is None or space is None:
        return None  # each bad param line is reported already
    return section.build(TuneConfig, space, ga, **args)


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
        return _Section(name, raw.get(name, {}), problems, path.parent, sim and sim.dt)

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
    args = enc_s.read({"type": _one_of(*_ENCODERS), "r_min": float, "r_max": float})
    enc_s.reject_unknown()
    encoding = enc_s.build(_ENCODERS[args.pop("type", "poisson")], **args)

    defined: dict[str, dict] = {kind: {} for kind in _BUILDERS}
    layer_indices = []
    for name in raw:
        kind, dot, label = name.partition(".")
        if dot and kind in _BUILDERS:
            s = section(name)
            defined[kind][label] = _BUILDERS[kind](s)
            s.reject_unknown()
        elif dot and kind == "layers":
            if label.isdigit() and str(int(label)) == label:
                layer_indices.append(int(label))
            else:
                problems.append(f"[{name}]: {label!r} is not a layer index (0, 1, 2, ...)")
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
    net_args = net_s.read({"inh_conn": _pairs, "inh_g": float, "seed": int,
                           "init_weights": _weight_init(path.parent)})
    net_s.reject_unknown()

    data_s = section("data")
    data = data_s.read({"train_path": _file(path.parent), "test_path": _file(path.parent)})
    data_s.reject_unknown()

    tune = None
    if "tune" in raw:
        tune_s = section("tune")
        tune = _build_tune(tune_s, raw)
        tune_s.reject_unknown()

    network = None
    if not problems:  # so every layer was built
        network = net_s.build(NetworkSpec, layers=layers, **net_args)

    if problems:
        raise ConfigError(problems)
    return LoadedConfig(path, sim, network, encoding, data.get("train_path"),
                        data.get("test_path"), tune)


def _apply_overrides(raw: dict, overrides: dict[str, float]) -> None:
    problems = []
    for dotted, value in overrides.items():
        entries = _entries(raw, dotted)
        if entries is None:
            problems.append(f"override {dotted!r}: no such config key")
            continue
        value = value.item() if hasattr(value, "item") else value  # a numpy scalar's own value
        if isinstance(value, float) and math.isfinite(value) and value == int(value) \
                and entries[0][0].lstrip("+-").isdigit():
            value = int(value)
        entries[:] = [(repr(value), entries[0][1])]
    if problems:
        raise ConfigError(problems)


def _rows(path, parse) -> list:
    """parse(row) for each row of the file at path: each line, stripped,
    that is neither blank nor a `#` comment. A line that is not UTF-8 or a
    ValueError that parse raises becomes ValueError(`path:lineno: message`)."""
    rows = []
    with open(path, "rb") as fh:  # read as it streams, split at \n, \r\n or \r as parse_raw splits
        for lineno, raw in enumerate((part for block in fh for part in block.splitlines()), 1):
            try:
                line = _text(raw).strip()
                if line and not line.startswith("#"):
                    rows.append(parse(line))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    return rows


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
