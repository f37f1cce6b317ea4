"""Differential oracle for the network file (format v1).

`save_network_by_element` and `load_conductances_by_line` are the writer
and loader the engine used before set-up ran on whole arrays, kept verbatim
as the reference: the writer indexes one conductance per line, and the
loader parses one line at a time into dicts, then compares Python sets.
The engine's writer must give the same bytes. Its loader must agree with
this one on saved files that are mutated in every way the tests below
draw: both raise a NetworkFileError with the same text, or both restore
bit-identical conductances and the same labels. The reference loader's one
addition is the device-range check on every loaded conductance.
"""

import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikeforge import engine
from spikeforge.engine import (
    NET_FORMAT, LayerSpec, Network, NetworkFileError, NetworkSpec, build_network, load_network,
    save_network,
)
from spikeforge.expr import parse
from spikeforge.neuron import NeuronModel, SpikeWaveforms
from spikeforge.synapse import CircuitModel, PulseFamilyDevice, SpikePresence
from spikeforge.waveform import Waveform

DT = 1e-3
US = 1e-6


def save_network_by_element(net: Network, path) -> None:
    """Versioned text dump: header, synapse conductances, neuron labels."""
    lines = [NET_FORMAT]
    for q, matrix in enumerate(net.matrices, start=1):
        for i, j in matrix.pairs:
            lines.append(f"{q},{i},{j},{float(matrix.g[i, j])!r}")
    for n, label in enumerate(net.labels):
        lines.append(f"label,{n},{'none' if label is None else label}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_conductances_by_line(net: Network, path) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise NetworkFileError(f"{path}: empty file")
    header = lines[0]
    if header != NET_FORMAT:
        if header.startswith("spikeforge-net "):
            raise NetworkFileError(
                f"{path}: file format {header!r} not supported; this build reads "
                f"{NET_FORMAT!r}")
        raise NetworkFileError(f"{path}: not a spikeforge network file")
    synapses: dict[tuple[int, int, int], float] = {}
    labels: dict[int, int | None] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if parts[0] == "label":
                if len(parts) != 3:
                    raise ValueError("label line needs 3 fields")
                labels[int(parts[1])] = None if parts[2] == "none" else int(parts[2])
            else:
                if len(parts) != 4:
                    raise ValueError("synapse line needs 4 fields")
                synapses[(int(parts[0]), int(parts[1]), int(parts[2]))] = float(parts[3])
        except ValueError as err:
            raise NetworkFileError(f"{path}:{lineno}: corrupt line: {err}") from None
    expected = {(q, i, j)
                for q, matrix in enumerate(net.matrices, start=1)
                for i, j in matrix.pairs}
    if set(synapses) != expected:
        raise NetworkFileError(
            f"{path}: synapse set does not match the network topology "
            f"({len(synapses)} entries, expected {len(expected)}); file truncated "
            "or from a different network")
    if set(labels) != set(range(len(net.labels))):
        raise NetworkFileError(
            f"{path}: label lines do not cover the label layer "
            f"({len(labels)} entries, expected {len(net.labels)})")
    for q, matrix in enumerate(net.matrices, start=1):
        lo, hi = matrix.device.g_min, matrix.device.g_max
        for i, j in matrix.pairs.tolist():
            if not lo <= synapses[(q, i, j)] <= hi:
                raise NetworkFileError(
                    f"{path}: synapse (layer {q}, pre {i}, post {j}) has conductance "
                    f"{synapses[(q, i, j)]!r}, outside its device range [{lo!r}, {hi!r}]")
    for (q, i, j), g in synapses.items():
        net.matrices[q - 1].g[i, j] = g
    net.labels = [labels[n] for n in range(len(net.labels))]


def layer(n, conn_type="all_to_all", sparse_p=1.0, label=False):
    pre = Waveform(((0.0, 0.5), (2e-3, 0.5)))
    model = NeuronModel(tau=1e-2, thres=0.2, waveforms=SpikeWaveforms(pre=pre, post2=pre))
    circuit = CircuitModel(
        v_app=parse("V_pre"), v_th_pos=10.0, v_th_neg=10.0,
        transmit_policy=frozenset({SpikePresence.PRE_ONLY}), plasticity_policy=frozenset())
    # a range that holds every finite conductance the tests draw
    device = PulseFamilyDevice.identical((1 * US, 9 * US), (9 * US, 1 * US), -1e3, 1e3)
    return LayerSpec(neurons=n, neuron_model=model, label=label, conn_type=conn_type,
                     sparse_p=sparse_p, circuit_model=circuit, device_model=device)


# a one-matrix net, a 3-layer net whose second matrix is sparse (so q = 2 and
# off-mask keys exist), a one-to-one matrix, and a label layer of one neuron
SPECS = (
    NetworkSpec(layers=(layer(4), layer(3, label=True)), seed=1),
    NetworkSpec(layers=(layer(3), layer(4), layer(5, "sparse", 0.5, label=True)), seed=2),
    NetworkSpec(layers=(layer(12), layer(12, "one_to_one", label=True)), seed=3),
    NetworkSpec(layers=(layer(2), layer(1, label=True)), seed=4),
)


def saved_lines(spec, rng) -> list[str]:
    """A net of spec with random conductances (subnormals, -0.0 and one-ulp
    neighbours among them) and labels, written by the engine's writer."""
    net = build_network(spec, DT)
    for matrix in net.matrices:
        shape = matrix.g.shape
        g = rng.uniform(-2.0, 2.0, size=shape) * 10.0 ** rng.integers(-9, 3, size=shape)
        g.flat[rng.integers(0, g.size, size=3)] = rng.choice(
            [5e-324, -0.0, np.nextafter(0.1, 1.0), 0.1, 2.2250738585072014e-308])
        matrix.g[matrix.mask] = g[matrix.mask]
    net.labels = [None if c < 0 else int(c) for c in rng.integers(-1, 4, size=len(net.labels))]
    text = render(save_network, net)
    assert text == render(save_network_by_element, net)
    return text.splitlines()


def render(writer, net) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/net.weights"
        writer(net, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def synapse_line(lines, rng) -> int:
    """A random line that holds a synapse (the header when none does)."""
    hits = [k for k, line in enumerate(lines) if line[:1].isdigit()]
    return hits[rng.integers(len(hits))] if hits else 0


def set_field(lines, rng, k, field, value):
    parts = lines[k].split(",")
    parts[min(field, len(parts) - 1)] = value
    lines[k] = ",".join(parts)


BAD_INTS = ("x", "1.5", "", " ", "1e3", "0x1")
GOOD_INTS = ("01", " 1", "+1", "1_0", "١", "-0")
BAD_FLOATS = ("abc", "", "0x1p-3", "1.2.3", "--1", "1e")
GOOD_FLOATS = ("-0.0", "5e-324", "1e999", "nan", "-inf", " 0.25 ", "1_0.5",
               "0.1000000000000000055511151231257827")


def mutate(lines: list[str], kind: str, rng) -> list[str]:
    lines = list(lines)
    k = int(rng.integers(len(lines)))
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(int(rng.integers(len(lines) + 1)), lines[k])
    elif kind == "duplicate_changed":  # the later of the two lines must win
        k = synapse_line(lines, rng)
        lines.insert(int(rng.integers(k, len(lines) + 1)), lines[k])
        set_field(lines, rng, k, 3, repr(float(rng.random())))
    elif kind == "reorder":
        j = int(rng.integers(len(lines)))
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "blank":
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["", "  ", "\t"])))
    elif kind == "field_count":
        if rng.random() < 0.5:
            lines[k] += ",7"
        else:
            lines[k] = lines[k].rpartition(",")[0]
    elif kind == "shift_field" and k + 1 < len(lines):  # two lines, one field moved across
        head, _, rest = lines[k + 1].partition(",")
        lines[k], lines[k + 1] = f"{lines[k]},{head}", rest
    elif kind == "bad_int":
        set_field(lines, rng, synapse_line(lines, rng), int(rng.integers(3)),
                  str(rng.choice(BAD_INTS + GOOD_INTS)))
    elif kind == "bad_float":
        set_field(lines, rng, synapse_line(lines, rng), 3,
                  str(rng.choice(BAD_FLOATS + GOOD_FLOATS)))
    elif kind == "out_of_range":
        value = (-1, 0, 1, 2, 3, 5, 12, 13, 10**20)[rng.integers(9)]
        set_field(lines, rng, synapse_line(lines, rng), int(rng.integers(3)), str(value))
    elif kind == "label":
        labels = [n for n, line in enumerate(lines) if line.startswith("label,")]
        n = labels[rng.integers(len(labels))] if labels else k
        choice = rng.integers(4)
        if choice == 0:
            del lines[n]
        elif choice == 1:
            lines.append(f"label,{len(labels) + int(rng.integers(2))},{rng.integers(-1, 3)}")
        elif choice == 2:  # the tag or the neuron index: another, or not as written
            field, values = ((0, ["Label", "label ", "1"]),
                             (1, ["0", "1", "01", " 1", "x", "-1"]))[rng.integers(2)]
            set_field(lines, rng, n, field, str(rng.choice(values)))
        else:
            set_field(lines, rng, n, 2, str(rng.choice(["none", "2", "x", "2.0", "", " 3"])))
    elif kind == "header":
        lines[0] = str(rng.choice(["spikeforge-net v2", "nonsense", "", NET_FORMAT + " "]))
    return lines


KINDS = ("drop", "duplicate", "duplicate_changed", "reorder", "blank", "field_count",
         "shift_field", "bad_int", "bad_float", "out_of_range", "label", "header", "none")


def outcome(load, path):
    """The loaded conductances (as bytes) and labels, or the NetworkFileError's text."""
    try:
        net = load(path)
    except NetworkFileError as err:
        return "error", str(err)
    return "loaded", [m.g.tobytes() for m in net.matrices], [(type(c), c) for c in net.labels]


def compare(tmp, spec, lines, ending="\n", newline="\n"):
    """Write lines with the given ending and newline convention, load them with
    both loaders and assert that they agree; the outcome, "loaded" or "error"."""
    path = tmp / "net.weights"
    path.write_text("\n".join(lines) + ending, encoding="utf-8", newline=newline)

    def by_line(p):
        net = build_network(spec, DT)
        load_conductances_by_line(net, p)
        return net

    theirs = outcome(by_line, path)
    assert outcome(lambda p: load_network(p, spec, DT), path) == theirs
    return theirs[0]


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("netfile")


# blocks of 1 and 3 lines put block boundaries beside the mutations and cut
# both the synapse lines and the label lines into several blocks
BLOCKS = (1, 3, engine.BLOCK)
NEWLINES = ("\n", "\r\n", "\r")  # each read back as "\n" in text mode


@settings(derandomize=True, database=None, max_examples=375, deadline=None)
@given(spec=st.sampled_from(SPECS), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
       ending=st.sampled_from(["\n", "", "\n\n"]), block=st.sampled_from(BLOCKS),
       newline=st.sampled_from(NEWLINES))
def test_loader_matches_the_line_by_line_loader(net_dir, spec, seed, kinds, ending, block,
                                                newline):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "BLOCK", block)
        lines = saved_lines(spec, rng)
        for kind in kinds:
            lines = mutate(lines, kind, rng)
        compare(net_dir, spec, lines, ending, newline)


@pytest.mark.parametrize("block", BLOCKS)
def test_every_mutation_kind_loads_or_fails_alike_and_saved_files_take_the_array_path(
        tmp_path, monkeypatch, block):
    """Each mutation kind on its own, over a few seeds and each newline
    convention: the loaders agree, the corrupting kinds do fail and the
    harmless ones do load; and a file as save_network writes it, also with its
    newlines as CRLF or CR, sends exactly its label lines to the per-line read,
    `_read_lines`: each block of its synapse lines is taken whole."""
    monkeypatch.setattr(engine, "BLOCK", block)
    read_by_line = []
    read_lines = engine._read_lines

    def recorded(path, lines, *args):
        read_by_line.extend(lines)
        return read_lines(path, lines, *args)

    monkeypatch.setattr(engine, "_read_lines", recorded)
    seen = {kind: set() for kind in KINDS}
    for kind in KINDS:
        for seed in range(8):
            for spec in SPECS:
                rng = np.random.default_rng([seed, SPECS.index(spec)])
                lines = saved_lines(spec, rng)
                before = len(read_by_line)
                got = compare(tmp_path, spec, mutate(lines, kind, rng),
                              newline=NEWLINES[seed % len(NEWLINES)])
                seen[kind].add(got)
                if kind == "none":
                    assert got == "loaded"
                    assert read_by_line[before:] == [
                        line for line in lines if line.startswith("label,")]
    # the mutated files send it lines that are not label lines too
    assert any(not line.startswith("label,") for line in read_by_line)
    for kind in ("drop", "field_count", "shift_field", "bad_int", "bad_float",
                 "out_of_range", "label", "header"):
        assert "error" in seen[kind], kind
    for kind in ("duplicate", "duplicate_changed", "reorder", "blank", "bad_int", "bad_float",
                 "label"):
        assert "loaded" in seen[kind], kind


@pytest.mark.parametrize("block", [3, engine.BLOCK])
def test_corrupt_conductance_in_the_last_block_reports_its_own_line(tmp_path, monkeypatch,
                                                                     block):
    monkeypatch.setattr(engine, "BLOCK", block)
    spec = NetworkSpec(layers=(layer(40), layer(30, label=True)), seed=5)
    lines = render(save_network, build_network(spec, DT)).splitlines()
    assert len(lines) == 1 + 1200 + 30 and 1200 > engine.BLOCK
    lines[1200] = lines[1200].rpartition(",")[0] + ",1.0.0"  # the last synapse line
    assert compare(tmp_path, spec, lines) == "error"
    with pytest.raises(NetworkFileError) as err:
        load_network(tmp_path / "net.weights", spec, DT)
    assert str(err.value) == (f"{tmp_path / 'net.weights'}:1201: corrupt line: "
                              "could not convert string to float: '1.0.0'")


@pytest.mark.parametrize("block", [3, engine.BLOCK])
@pytest.mark.parametrize("where", ["header", "middle", "last line"])
def test_a_byte_that_is_not_utf8_reads_as_a_corrupt_file(tmp_path, monkeypatch, block, where):
    """A 0xff byte, in the header, mid-file or in the last block's last line."""
    monkeypatch.setattr(engine, "BLOCK", block)
    spec = NetworkSpec(layers=(layer(40), layer(30, label=True)), seed=5)
    path = tmp_path / "net.weights"
    save_network(build_network(spec, DT), path)
    data = bytearray(path.read_bytes())
    data[{"header": 0, "middle": len(data) // 2, "last line": -2}[where]] = 0xff
    path.write_bytes(data)
    with pytest.raises(NetworkFileError) as err:
        load_network(path, spec, DT)
    assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("block", BLOCKS)
def test_a_label_line_among_the_synapse_lines_names_its_own_neuron(tmp_path, monkeypatch,
                                                                   block):
    """At block 1, line 11 of the one-to-one net comes two lines before its
    label lines, where a label taken by position would be neuron -2: the
    line `label,10,...` moved there must still set neuron 10's label."""
    monkeypatch.setattr(engine, "BLOCK", block)
    spec = SPECS[2]  # 12 synapse lines, then 12 label lines
    lines = saved_lines(spec, np.random.default_rng(0))
    assert lines[23].startswith("label,10,")
    lines[11], lines[23] = lines[23], lines[11]
    assert compare(tmp_path, spec, lines) == "loaded"


def traced_peak_mb(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def net_784x100():
    """The north star's 784 x 100 all-to-all net, with random conductances."""
    spec = NetworkSpec(layers=(layer(784), layer(100, label=True)), seed=6)
    net = build_network(spec, DT)
    net.matrices[0].g[:] = np.random.default_rng(6).uniform(-1e3, 1e3, size=(784, 100))
    net.labels = [n % 10 for n in range(100)]
    return spec, net


@pytest.mark.slow
def test_save_and_load_stay_bounded_at_784x100(tmp_path):
    """A 2 MB file is written and read back in bounded traced memory, bit for bit."""
    spec, net = net_784x100()
    path = tmp_path / "net.weights"
    _, save_mb = traced_peak_mb(lambda: save_network(net, path))
    loaded, load_mb = traced_peak_mb(lambda: load_network(path, spec, DT))
    _, build_mb = traced_peak_mb(lambda: build_network(spec, DT))
    assert path.stat().st_size > 2e6
    # the reader's own share: one block of lines, not the file
    assert save_mb <= 1.0 and load_mb <= min(10.0, build_mb + 1.5), (save_mb, load_mb, build_mb)
    assert loaded.matrices[0].g.tobytes() == net.matrices[0].g.tobytes()
    assert loaded.labels == net.labels


@pytest.mark.slow
def test_any_layout_loads_in_bounded_memory_at_784x100(tmp_path):
    """The same file with its label lines first, then a blank line, then its
    synapse lines reversed: every block is read line by line, and the read
    still holds one block of parsed lines at a time."""
    spec, net = net_784x100()
    path = tmp_path / "net.weights"
    save_network(net, path)
    header, *lines = path.read_text().splitlines()
    synapses, labels = lines[:-100], lines[-100:]
    path.write_text("\n".join([header, *labels, "", *synapses[::-1]]) + "\n")
    loaded, load_mb = traced_peak_mb(lambda: load_network(path, spec, DT))
    _, build_mb = traced_peak_mb(lambda: build_network(spec, DT))
    assert load_mb <= min(10.0, build_mb + 1.5), (load_mb, build_mb)
    assert loaded.matrices[0].g.tobytes() == net.matrices[0].g.tobytes()
    assert loaded.labels == net.labels
