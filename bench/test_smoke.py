"""Smoke test for the benchmark itself, using the seconds-long tiny variants.

    python3 -m pytest -q bench/test_smoke.py

Checks that each workload's result line carries exactly the metrics and
units BENCHMARK.json names, that the traced run emits every per-layer
metric (or marks it n/a), that untraced and traced runs of one seed agree
on the behaviour fingerprint, and that the benchmark refuses to run without
the simulator's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TUNE_CONFIG = ROOT / "bench" / "configs" / "tune-36x8-family.cfg"

# the per-layer metrics the benchmark was defined to report
REQUIRED_LAYER_METRICS = {
    "engine.pair_steps", "engine.run_timestep.calls", "engine.run_timestep.self_s",
    "engine.schedule_input.s", "engine.build_network.s", "engine.heap_peak_mb",
    "synapse.engaged_steps", "synapse.engaged_ratio", "synapse.mode.transmit",
    "synapse.mode.potentiate", "synapse.mode.depress", "synapse.transmit_current.s",
    "synapse.mode_from_voltage.s", "synapse.step_device.calls", "synapse.step_device.s",
    "synapse.saturates.s", "synapse.saturation_events", "synapse.pulse_effective_ratio",
    "synapse.g_p50", "synapse.g_iqr", "synapse.g_drift",
    "expr.evaluate.calls", "expr.evaluate.s",
    "waveform.sample.calls", "waveform.sample.s",
    "neuron.integrate.calls", "neuron.integrate.s", "neuron.fire_check.s",
    "neuron.spikes", "neuron.rate_hz", "neuron.energy_j", "neuron.label_coverage",
    "encoding.encode.calls", "encoding.encode.s", "encoding.input_spikes",
    "config.load_config.calls", "config.load_config.s",
    "tuner.evals", "tuner.self_s", "trace.overhead_frac",
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    fingerprint = lines[0].split()[-1]
    return lines, result, fingerprint


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_reports_every_metric(workload):
    _, plain, plain_fp = result_of(run(workload, 0))
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    lines, traced, traced_fp = result_of(run(workload, 1))
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    not_applicable = next(l for l in lines if l.startswith("n/a: "))[5:].split(", ")
    assert set(not_applicable) - {"none"} <= set(traced["metrics"])
    assert traced_fp == plain_fp


def test_spec_names_every_required_layer_metric():
    assert REQUIRED_LAYER_METRICS <= {m["name"] for m in SPEC["per_layer"]}


def test_tune_fixture_loads_and_every_param_path_resolves():
    sys.path.insert(0, str(ROOT / "src"))
    from spikeforge import config

    cfg = config.load_config(TUNE_CONFIG)
    assert cfg.tune is not None and cfg.tune.space
    for param in cfg.tune.space:
        for value in (param.lo, param.hi):
            # an override naming a missing key raises ConfigError
            config.load_config(TUNE_CONFIG, overrides={param.name: value})


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
