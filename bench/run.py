"""spikeforge benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload train-196x20 --seed 1 --seconds 25 --trace 0

Run from the repository root. With --trace 0 the workload's whole job runs
back to back until --seconds have passed (at least once). Every end-to-end
metric is printed with its unit, as a median over the jobs normalised to a
reference host speed (speed.py), and the last line of standard output is a
JSON object holding the ones named in RESULT_METRICS. With --trace 1 the job
runs three times: untraced, with spans at every module boundary, and under
tracemalloc; the last line then holds the per-layer metrics, after a line
naming those that do not apply to the workload. The first line gives the
behaviour fingerprint. Progress and check failures go to standard error.
bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the benchmark measures the single-threaded simulator
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import spikeforge.config; "
                "print(time.perf_counter() - t)")

# the end-to-end metrics in the result line: every workload has them, they
# are never 0, and they are steady enough across runs to gate a change on
RESULT_METRICS = ("total_s", "setup_s", "syn_steps_per_s", "peak_rss_mb")

# per-layer metrics that do not apply to a kind of workload; they read 0
NOT_APPLICABLE = {
    "train": ("tuner.evals", "tuner.self_s", "neuron.energy_j"),
    "infer": ("tuner.evals", "tuner.self_s", "neuron.energy_j", "engine.train.s"),
    "tune": (),
}


def import_seconds(probes: int) -> float:
    """Median time to import the simulator in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def install_tracing(tracer) -> None:
    """Wrap each public function at the attribute its caller looks up."""
    from spikeforge import config, encoding, engine, expr, tuner, waveform

    def pairs(counts, args, kwargs, result):
        counts["pair_steps"] += sum(len(m.pairs) for m in args[0].matrices)

    def mode(counts, args, kwargs, result):
        counts["mode." + (args[3] if len(args) > 3 else kwargs["mode"]).value] += 1

    def effective(counts, args, kwargs, result):
        counts["pulses_effective"] += result != args[3]

    def input_spikes(counts, args, kwargs, result):
        counts["input_spikes"] += sum(len(train) for train in result)

    wrap = tracer.wrap
    wrap(config, "load_config", "config.load_config")
    wrap(tuner, "ga_optimize", "tuner.ga_optimize")
    for name in ("build_network", "load_network", "train", "assign_labels",
                 "infer", "schedule_input"):
        wrap(engine, name, "engine." + name)
    wrap(engine, "run_timestep", "engine.run_timestep", pairs)
    wrap(engine, "mode_from_voltage", "synapse.mode_from_voltage")
    wrap(engine, "transmit_current", "synapse.transmit_current", mode)
    wrap(engine, "step_device", "synapse.step_device", effective)
    wrap(engine, "saturates", "synapse.saturates")
    wrap(engine, "integrate", "neuron.integrate")
    wrap(engine, "fire_check", "neuron.fire_check")
    wrap(expr, "evaluate", "expr.evaluate")
    wrap(waveform.Waveform, "sample", "waveform.sample")
    wrap(encoding.PoissonEncoder, "encode", "encoding.encode", input_spikes)


def end_to_end(jobs, import_s: float, speed: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric: medians over the jobs that completed, with
    the import time added to set-up and total, and times multiplied by the
    host speed factor (speed.py; 1 leaves them raw)."""
    done = [j for j in jobs if not j.error] or jobs

    def median(key):
        return speed * statistics.median(j.times.get(key, 0.0) for j in done)

    def rate(j):
        busy = sum(j.times.get(k, 0.0) for k in ("train", "label", "infer", "score"))
        return j.ledger.pair_steps / (speed * busy) if busy else 0.0

    return {
        "total_s": (speed * import_s + median("total"), "s"),
        "setup_s": (speed * import_s + median("setup"), "s"),
        "syn_steps_per_s": (statistics.median(rate(j) for j in done), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "train_s": (median("train"), "s"),
        "label_s": (median("label"), "s"),
        "infer_s": (median("infer"), "s"),
    }


def per_layer(tracer, traced, plain, heap_mb: float, import_s: float):
    spans = tracer.summary()
    counts = tracer.counts
    ledger = traced.ledger

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    pair_steps = counts["pair_steps"]
    engaged = span("synapse.transmit_current", "calls")
    pulses = span("synapse.step_device", "calls")
    modes = {m: counts["mode." + m] for m in ("idle", "transmit", "potentiate", "depress")}
    return {
        "engine.pair_steps": (pair_steps, "count"),
        "engine.run_timestep.calls": (span("engine.run_timestep", "calls"), "count"),
        "engine.run_timestep.self_s": (span("engine.run_timestep", "self_s"), "s"),
        "engine.schedule_input.s": (span("engine.schedule_input"), "s"),
        "engine.build_network.s": (span("engine.build_network"), "s"),
        "engine.train.s": (span("engine.train"), "s"),
        "engine.assign_labels.s": (span("engine.assign_labels"), "s"),
        "engine.infer.s": (span("engine.infer"), "s"),
        "engine.heap_peak_mb": (heap_mb, "MB"),
        "engine.setup_share": ((import_s + plain.times.get("setup", 0.0))
                               / (import_s + plain.times["total"]), "fraction"),
        "synapse.engaged_steps": (engaged, "count"),
        "synapse.engaged_ratio": (engaged / pair_steps if pair_steps else 0.0, "fraction"),
        "synapse.mode.idle": (pair_steps - engaged + modes["idle"], "count"),
        "synapse.mode.transmit": (modes["transmit"], "count"),
        "synapse.mode.potentiate": (modes["potentiate"], "count"),
        "synapse.mode.depress": (modes["depress"], "count"),
        "synapse.transmit_current.s": (span("synapse.transmit_current"), "s"),
        "synapse.mode_from_voltage.s": (span("synapse.mode_from_voltage"), "s"),
        "synapse.step_device.calls": (pulses, "count"),
        "synapse.step_device.s": (span("synapse.step_device"), "s"),
        "synapse.saturates.s": (span("synapse.saturates"), "s"),
        "synapse.saturation_events": (ledger.saturation, "count"),
        "synapse.pulse_effective_ratio": (
            counts["pulses_effective"] / pulses if pulses else 0.0, "fraction"),
        "synapse.pulses_per_pair_step": (
            pulses / pair_steps if pair_steps else 0.0, "fraction"),
        "synapse.g_p50": (traced.final.get("g_p50", 0.0), "fraction"),
        "synapse.g_iqr": (traced.final.get("g_iqr", 0.0), "fraction"),
        "synapse.g_drift": (traced.final.get("g_drift", 0.0), "fraction"),
        "expr.evaluate.calls": (span("expr.evaluate", "calls"), "count"),
        "expr.evaluate.s": (span("expr.evaluate"), "s"),
        "waveform.sample.calls": (span("waveform.sample", "calls"), "count"),
        "waveform.sample.s": (span("waveform.sample"), "s"),
        "neuron.integrate.calls": (span("neuron.integrate", "calls"), "count"),
        "neuron.integrate.s": (span("neuron.integrate"), "s"),
        "neuron.fire_check.s": (span("neuron.fire_check"), "s"),
        "neuron.spikes": (ledger.spikes, "count"),
        "neuron.rate_hz": (ledger.spikes / ledger.label_neuron_s
                           if ledger.label_neuron_s else 0.0, "Hz"),
        "neuron.energy_j": (ledger.energy, "J"),
        "neuron.label_coverage": (traced.final.get("label_coverage", 0.0), "fraction"),
        "neuron.accuracy": (traced.accuracy, "fraction"),
        "encoding.encode.calls": (span("encoding.encode", "calls"), "count"),
        "encoding.encode.s": (span("encoding.encode"), "s"),
        "encoding.input_spikes": (counts["input_spikes"], "count"),
        "config.load_config.calls": (span("config.load_config", "calls"), "count"),
        "config.load_config.s": (span("config.load_config"), "s"),
        "tuner.evals": (ledger.evals, "count"),
        "tuner.self_s": (span("tuner.ga_optimize", "self_s"), "s"),
        "trace.overhead_frac": (traced.times["total"] / plain.times["total"] - 1.0,
                                "fraction"),
    }


def trace_checks(tracer, traced) -> list[str]:
    """The engine's own step count must match the contract's, and the modes
    counted at transmit_current must add up to the engaged steps."""
    problems = []
    counts = tracer.counts
    if counts["pair_steps"] != traced.ledger.pair_steps:
        problems.append(f"engine ran {counts['pair_steps']} synapse-steps, "
                        f"expected {traced.ledger.pair_steps}")
    engaged = tracer.summary().get("synapse.transmit_current", {}).get("calls", 0)
    counted = sum(counts["mode." + m]
                  for m in ("idle", "transmit", "potentiate", "depress"))
    if counted != engaged or engaged > counts["pair_steps"]:
        problems.append(f"{counted} mode counts for {engaged} engaged steps "
                        f"of {counts['pair_steps']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long variant for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "spikeforge" / "__init__.py").is_file():
        print(f"error: simulator source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer
    from speed import NOMINAL_S, SpeedProbe

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)

    import_s = import_seconds(1 if args.tiny else 5)
    data = workloads.make_data(w, args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        prepared = None
        if w.kind == "infer":
            prepared = workloads.prepare_infer(w, data, Path(tmp) / "weights.net")
        if args.trace:
            plain = workloads.run_job(w, data, prepared)
            tracer = Tracer()
            install_tracing(tracer)
            try:
                traced = workloads.run_job(w, data, prepared)
            finally:
                tracer.restore()
            tracemalloc.start()
            try:
                heap = workloads.run_job(w, data, prepared)
                heap_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            jobs = [plain, traced, heap]
        else:
            jobs = []
            probe = SpeedProbe()
            probe.sample()
            start = perf_counter()
            while not jobs or perf_counter() - start < args.seconds:
                jobs.append(workloads.run_job(w, data, prepared))
                probe.sample()
                print(f"job {len(jobs)}: " + " ".join(
                    f"{k}={v:.4f}" for k, v in sorted(jobs[-1].times.items())),
                    file=sys.stderr)

    problems = []
    first = jobs[0]
    for k, job in enumerate(jobs[1:], start=1):
        if job.fingerprint != first.fingerprint:
            problems.append(f"job {k} fingerprint {job.fingerprint} differs from "
                            f"job 0 {first.fingerprint}")
            job.ledger.failed = job.ledger.attempted
    if args.trace:
        found = trace_checks(tracer, traced)
        if found:
            traced.ledger.failed = traced.ledger.attempted
        problems += found
    for p in problems:
        print(f"{w.name}: {p}", file=sys.stderr)
    attempted = sum(j.ledger.attempted for j in jobs)
    failed = sum(j.ledger.failed for j in jobs)

    print(f"workload {w.name} seed {args.seed} jobs {len(jobs)} "
          f"fingerprint {first.fingerprint}")
    if args.trace:
        tracer.write(OUT / f"spans-{w.name}.npz")
        metrics = per_layer(tracer, traced, plain, heap_mb, import_s)
        print("n/a: " + (", ".join(NOT_APPLICABLE[w.kind]) or "none"))
    else:
        speed = probe.factor()
        print(f"host speed factor {speed!r} (reference kernel mean "
              f"{statistics.mean(probe.samples)!r} s, nominal {NOMINAL_S} s)")
        raw = end_to_end(jobs, import_s, 1.0)
        print("raw " + " ".join(f"{k}={raw[k][0]!r}" for k in RESULT_METRICS[:3]))
        shown = end_to_end(jobs, import_s, speed)
        if w.kind == "infer":
            del shown["train_s"]
        shown["accuracy"] = (first.accuracy, "fraction")
        shown["failed_frac"] = (failed / attempted, "fraction")
        for name, (value, unit) in shown.items():
            print(f"{name:16s} {value!r} {unit}")
        metrics = {name: shown[name] for name in RESULT_METRICS}
    result = {
        "correct": failed == 0 and not problems and not any(j.error for j in jobs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
