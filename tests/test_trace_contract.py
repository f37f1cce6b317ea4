"""The calls the benchmark's tracer counts must still be made.

`bench/run.py --trace 1` counts engaged synapse-steps and their modes at
`transmit_current`, pulses at `step_device` and neuron updates at
`integrate`, all wrapped on the engine module. A kernel that computed the
same results without those per-element calls would silently zero the
per-layer metrics, so the traced counts of tiny seeded jobs are pinned
here, as the per-element kernel made them: a train job, whose circuit
engages post-only synapses and so scans every row, and an infer job, whose
circuit engages none without a pre spike and so scans only the active rows.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "train-196x20": {
        "engine.pair_steps": 862400,
        "synapse.engaged_steps": 70798,
        "synapse.mode.idle": 792353,
        "synapse.mode.transmit": 68642,
        "synapse.mode.potentiate": 63,
        "synapse.mode.depress": 1342,
        "synapse.step_device.calls": 193,
        "neuron.integrate.calls": 4400,
    },
    "infer-784x16": {
        "engine.pair_steps": 1003520,
        "synapse.engaged_steps": 9408,
        "synapse.mode.idle": 994112,
        "synapse.mode.transmit": 9408,
        "synapse.mode.potentiate": 0,
        "synapse.mode.depress": 0,
        "synapse.step_device.calls": 0,
        "neuron.integrate.calls": 1280,
    },
}


def traced_counts(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: result["metrics"][name]["value"] for name in PINNED[workload]}


def test_traced_counts_of_a_tiny_train_job_are_unchanged():
    assert traced_counts("train-196x20") == PINNED["train-196x20"]


def test_traced_counts_of_a_tiny_infer_job_are_unchanged():
    assert traced_counts("infer-784x16") == PINNED["infer-784x16"]
