"""The calls the benchmark's tracer counts must still be made.

`bench/run.py --trace 1` counts engaged synapse-steps and their modes at
`transmit_current`, pulses at `step_device` and neuron updates at
`integrate`, all wrapped on the engine module. A kernel that computed the
same results without those per-element calls would silently zero the
per-layer metrics, so the traced counts of one tiny seeded job are pinned
here, as the per-element kernel made them.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "engine.pair_steps": 862400,
    "synapse.engaged_steps": 70798,
    "synapse.mode.idle": 792353,
    "synapse.mode.transmit": 68642,
    "synapse.mode.potentiate": 63,
    "synapse.mode.depress": 1342,
    "synapse.step_device.calls": 193,
    "neuron.integrate.calls": 4400,
}


def test_traced_counts_of_a_tiny_train_job_are_unchanged():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-196x20", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    got = {name: result["metrics"][name]["value"] for name in PINNED}
    assert got == PINNED
