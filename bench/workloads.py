"""The benchmark workloads: sizes, one job each, output checks, fingerprint.

A job is the whole task a user would run once (closed loop: one job at a
time, on one thread): load the config, build the network, then train,
assign labels and infer, or run the GA. Datasets are generated from the
workload seed before any job starts and are never timed; the simulator
receives only the generated `Sample` tuples. The simulator is reached only
through its public entry points: `config.load_config`, `engine.build_network`
/ `load_network` / `save_network` / `train` / `assign_labels` / `infer` and
`tuner.ga_optimize`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spikeforge import config, engine, tuner

from synthetic import make_dataset

CONFIGS = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. Split sizes are images per class (4 classes)."""

    name: str
    kind: str            # "train", "infer" or "tune"
    config: str          # file under configs/
    side: int            # image side; the input layer has side * side neurons
    train: int
    val: int
    test: int
    overrides: tuple[tuple[str, float], ...] = ()


WORKLOADS = {w.name: w for w in (
    # STDP stream with lateral inhibition, then label assignment on the
    # validation split and inference on the test split.
    Workload("train-196x20", "train", "train-196x20.cfg", side=14,
             train=1, val=2, test=2),
    # Frozen 784-wide network: label assignment and inference only. The
    # conductances come from class-template images (written with
    # save_network, read back with load_network), standing in for a trained
    # network that cannot be trained at this width in the time budget.
    Workload("infer-784x16", "infer", "infer-784x16.cfg", side=28,
             train=4, val=1, test=2),
    # GA over four parameters; every fitness call reloads the config with
    # overrides, builds, trains and scores on the validation split. The best
    # parameters are then retrained and scored on the test split.
    Workload("tune-36x8-family", "tune", "tune-36x8-family.cfg", side=6,
             train=2, val=1, test=2),
)}

# Tiny variants for the smoke test: 10-step presentations, one GA generation.
TINY_OVERRIDES = {
    "train": (("sim.T", 0.02), ("sim.T_sample", 0.01)),
    "infer": (("sim.T", 0.01), ("sim.T_sample", 0.01)),
    "tune": (("sim.T", 0.02), ("sim.T_sample", 0.01),
             ("tune.population", 2), ("tune.generations", 0)),
}


def tiny(w: Workload) -> Workload:
    return dataclasses.replace(w, test=1, overrides=TINY_OVERRIDES[w.kind])


def make_data(w: Workload, seed: int):
    """(train, validation, test) splits for this workload and seed."""
    return make_dataset(seed, w.side, w.train, w.val, w.test)


class Clock:
    """Host seconds accumulated per category."""

    def __init__(self):
        self.times: dict[str, float] = {}

    @contextmanager
    def __call__(self, key: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.times[key] = self.times.get(key, 0.0) + perf_counter() - start


@dataclass
class Ledger:
    """Simulated work and outcomes of every network one job builds.

    Work is counted from the API's contract (every timestep scans every
    synapse), outcomes are read from the networks afterwards.
    """

    pair_steps: int = 0
    label_neuron_s: float = 0.0   # label-layer neurons x simulated seconds
    attempted: int = 0            # presentations plus GA fitness evaluations
    failed: int = 0
    evals: int = 0                # GA fitness evaluations
    spikes: int = 0               # label-layer spikes
    energy: float = 0.0           # power_expr energy, all layers
    saturation: int = 0
    problems: list[str] = field(default_factory=list)

    def ran(self, net, sim, samples: int, training: bool = False) -> None:
        """Account for one train / assign_labels / infer call, before it runs,
        so that a call that raises counts its presentations as attempted."""
        per = engine.num_steps(sim.T_sample, sim.dt)
        steps = samples * per
        presentations = samples
        if training:
            # the training stream, then train's own frozen label + infer pass
            total = engine.num_steps(sim.T, sim.dt)
            steps = total + 2 * samples * per
            presentations = math.ceil(total / per) + 2 * samples
        pairs = sum(len(m.pairs) for m in net.matrices)
        self.pair_steps += pairs * steps
        self.label_neuron_s += len(net.labels) * steps * sim.dt
        self.attempted += presentations

    def close(self, net, what: str) -> None:
        """Read a finished network's outcomes and check its conductances."""
        states = net.layers[net.label_layer].states
        self.spikes += sum(len(s.spike_times) for s in states)
        self.energy += sum(s.energy for layer in net.layers for s in layer.states)
        self.saturation += net.saturation_events
        for q, g in enumerate(net.conductances(), start=1):
            device = net.spec.layers[q].device_model
            # every layer here is all_to_all, so every entry is a synapse
            if not np.all((g >= device.g_min) & (g <= device.g_max)):
                self.problems.append(
                    f"{what}: layer {q} conductance outside "
                    f"[{device.g_min}, {device.g_max}]")


@dataclass
class JobResult:
    times: dict[str, float]
    ledger: Ledger
    accuracy: float
    fingerprint: str
    final: dict[str, float]
    error: bool = False


def spike_counts(net) -> list[int]:
    return [sum(len(s.spike_times) for s in layer.states) for layer in net.layers[1:]]


def fingerprint(net, predictions, extra=()) -> str:
    """sha256 of final conductances, labels, predictions and spike counts."""
    h = hashlib.sha256()
    for g in net.conductances():
        h.update(np.ascontiguousarray(g, dtype=np.float64).tobytes())
    h.update(repr((net.labels, predictions, spike_counts(net), extra)).encode())
    return h.hexdigest()


def final_stats(net, g0) -> dict[str, float]:
    """Label coverage, plus median, IQR and mean drift of the label layer's
    incoming conductances as fractions of the device range."""
    device = net.spec.layers[net.label_layer].device_model
    span = device.g_max - device.g_min
    g = net.conductances()[net.label_layer - 1]
    frac = (g - device.g_min) / span
    q1, q2, q3 = np.percentile(frac, [25, 50, 75])
    drift = np.mean(np.abs(g - g0[net.label_layer - 1])) / span
    coverage = sum(label is not None for label in net.labels) / len(net.labels)
    return {"g_p50": float(q2), "g_iqr": float(q3 - q1), "g_drift": float(drift),
            "label_coverage": coverage}


def _load(w: Workload, extra: dict | None = None):
    return config.load_config(CONFIGS / w.config,
                              overrides={**dict(w.overrides), **(extra or {})})


def _label_and_infer(net, cfg, encoder, val_set, test_set, clock, ledger):
    ledger.ran(net, cfg.sim, len(val_set))
    with clock("label"):
        engine.assign_labels(net, val_set, cfg.sim, encoder)
    ledger.ran(net, cfg.sim, len(test_set))
    with clock("infer"):
        result = engine.infer(net, test_set, cfg.sim, encoder)
    recount = sum(p == s.label for p, s in zip(result.predictions, test_set))
    if recount / len(test_set) != result.accuracy:
        ledger.problems.append(
            f"accuracy {result.accuracy} != recount {recount}/{len(test_set)}")
    if spike_counts(net)[-1] == 0:
        ledger.problems.append("output layer never spiked")
    return result


def _train_job(w, data, prepared, clock, ledger):
    train_set, val_set, test_set = data
    with clock("setup"):
        cfg = _load(w)
        net = engine.build_network(cfg.network, cfg.sim.dt)
    g0 = net.conductances()
    encoder = cfg.make_encoder()
    ledger.ran(net, cfg.sim, len(train_set), training=True)
    with clock("train"):
        engine.train(net, train_set, cfg.sim, encoder)
    result = _label_and_infer(net, cfg, encoder, val_set, test_set, clock, ledger)
    ledger.close(net, "final network")
    return result, fingerprint(net, result.predictions), final_stats(net, g0)


def prepare_infer(w: Workload, data, path: Path) -> Path:
    """Write the frozen network's weights file: neuron n holds the image
    n // 4 of class n % 4 from the training split, scaled onto the device
    range. Runs once per benchmark run, outside every timed region."""
    cfg = _load(w)
    net = engine.build_network(cfg.network, cfg.sim.dt)
    device = cfg.network.layers[1].device_model
    by_class: dict[int, list] = {}
    for s in data[0]:
        by_class.setdefault(s.label, []).append(s.features)
    g = net.matrices[0].g
    for n in range(g.shape[1]):
        image = np.array(by_class[n % 4][n // 4])
        g[:, n] = device.g_min + (device.g_max - device.g_min) * image
    engine.save_network(net, path)
    return path


def _infer_job(w, data, weights, clock, ledger):
    _, val_set, test_set = data
    with clock("setup"):
        cfg = _load(w)
        net = engine.load_network(weights, cfg.network, cfg.sim.dt)
    g0 = net.conductances()
    encoder = cfg.make_encoder()
    result = _label_and_infer(net, cfg, encoder, val_set, test_set, clock, ledger)
    ledger.close(net, "frozen network")
    return result, fingerprint(net, result.predictions), final_stats(net, g0)


def _tune_job(w, data, prepared, clock, ledger):
    train_set, val_set, test_set = data
    with clock("setup"):
        base = _load(w)

    def fitness(params, seed):
        ledger.evals += 1
        ledger.attempted += 1
        with clock("setup"):
            cfg = _load(w, {**params, "sim.seed": seed})
            net = engine.build_network(cfg.network, cfg.sim.dt)
        encoder = cfg.make_encoder()
        ledger.ran(net, cfg.sim, len(train_set), training=True)
        with clock("train"):
            engine.train(net, train_set, cfg.sim, encoder)
        ledger.ran(net, cfg.sim, len(val_set))
        with clock("score"):
            score = engine.infer(net, val_set, cfg.sim, encoder).accuracy
        ledger.close(net, f"fitness {params}")
        return score

    ga = tuner.ga_optimize(list(base.tune.space), fitness, base.tune.ga)
    with clock("setup"):
        cfg = _load(w, ga.best_params)
        net = engine.build_network(cfg.network, cfg.sim.dt)
    g0 = net.conductances()
    encoder = cfg.make_encoder()
    ledger.ran(net, cfg.sim, len(train_set), training=True)
    with clock("train"):
        engine.train(net, train_set, cfg.sim, encoder)
    result = _label_and_infer(net, cfg, encoder, val_set, test_set, clock, ledger)
    ledger.close(net, "best-parameter network")
    extra = (sorted(ga.best_params.items()), ga.best_fitness_history)
    return result, fingerprint(net, result.predictions, extra), final_stats(net, g0)


JOBS = {"train": _train_job, "infer": _infer_job, "tune": _tune_job}


def run_job(w: Workload, data, prepared) -> JobResult:
    """Run one whole job and its output checks.

    An exception or a failed check fails every operation the job attempted.
    """
    clock = Clock()
    ledger = Ledger()
    start = perf_counter()
    try:
        result, digest, final = JOBS[w.kind](w, data, prepared, clock, ledger)
    except Exception:  # one broken job must not stop the run from reporting
        traceback.print_exc(file=sys.stderr)
        ledger.problems.append("job raised")
        ledger.attempted = max(ledger.attempted, 1)  # raised before any call
        result, digest, final = None, "error", {}
    clock.times["total"] = perf_counter() - start
    if ledger.problems:
        print(f"{w.name}: " + "; ".join(ledger.problems), file=sys.stderr)
        ledger.failed = ledger.attempted
    accuracy = result.accuracy if result is not None else float("nan")
    return JobResult(clock.times, ledger, accuracy, digest, final,
                     error=result is None)
