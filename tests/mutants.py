"""A fixed list of single-site mutants of the engine, and how many of them the tests kill.

    python tests/mutants.py [--only NAME ...] [--list]

The script reads the checkout it sits in. Each mutant is one exact string replacement in one
source file under src/, and every site must be found exactly once before anything runs, so a
refactor that moves a site's text fails the list loudly instead of scoring a mutant that was
never applied. Per mutant, src/, tests/, bench/, pyproject.toml and BENCHMARK.json are copied
into a temporary directory, the edit is applied there, and `python -m pytest -x -q -m "not
slow"` runs there, for at most TIMEOUT_S seconds; the checkout is never written to. The
unmutated copy runs first and must pass. Each mutant prints as killed, with the first test that
failed, or survived; the last line is the score. Pytest does not collect this file: its name
does not start with `test_`.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600.0  # per test run; a mutant that runs out is scored as killed
ENGINE, SYNAPSE, NEURON, WAVEFORM = "src/spikeforge/engine.py", "src/spikeforge/synapse.py", \
    "src/spikeforge/neuron.py", "src/spikeforge/waveform.py"

# name: (file, site text, replacement), one or more per concept of the run
MUTANTS = {
    # the spike scheduler and input queue
    "emit-origin-a-step-late": (ENGINE, "origin = step + 1", "origin = step + 2"),
    "input-spikes-a-step-late": (
        ENGINE, "net.inputs.setdefault(at_step + k, [])",
        "net.inputs.setdefault(at_step + k + 1, [])"),
    "post2-a-step-late": (
        ENGINE, "layer.pre_out.trigger(j, origin, layer.post2)",
        "layer.pre_out.trigger(j, origin + 1, layer.post2)"),
    # the presence code and the row rule
    "presence-bits-swapped": (
        ENGINE, "code = 2 * pre_active[rows] + post_active[cols]",
        "code = 2 * post_active[cols] + pre_active[rows]"),
    "silent-pre-rows-dropped": (
        ENGINE, "candidates = (pre_active | patterns[0].any(axis=1).repeat(n_pre)).nonzero()[0]",
        "candidates = pre_active.nonzero()[0]"),
    # synapse modes, currents and their sums
    "potentiate-above-not-at-threshold": (
        SYNAPSE, "if v_tb >= circuit.v_th_pos:", "if v_tb > circuit.v_th_pos:"),
    "conduction-while-programming-inverted": (
        SYNAPSE, "(mode is IDLE or not circuit.conduct_during_plasticity)",
        "(mode is IDLE or circuit.conduct_during_plasticity)"),
    "repeated-post-currents-dropped": (
        ENGINE, "np.add.at(total, cols, np.fromiter(currents, float, len(currents)))",
        "total[cols] += np.fromiter(currents, float, len(currents))"),
    "inhibition-added": (ENGINE, "total -= inhib", "total += inhib"),
    "depress-below-not-at-threshold": (
        SYNAPSE, "if v_tb <= -circuit.v_th_neg:", "if v_tb < -circuit.v_th_neg:"),
    "needs-post2-ignores-ex_eqs": (
        ENGINE, '"V_post2" in expr.free_vars(circuit.v_app) | ex_reads',
        '"V_post2" in expr.free_vars(circuit.v_app)'),
    "recorded-currents-before-inhibition": (
        ENGINE, "trace.currents.append(total)", "trace.currents.append(total + inhib)"),
    # device stepping
    "device-ties-to-the-higher-index": (
        SYNAPSE, "if p < len(values) and abs(values[p] - x) < d:",
        "if p < len(values) and abs(values[p] - x) <= d:"),
    "device-steps-against-its-direction": (
        SYNAPSE, "return max(new, g) if direction is POTENTIATE else min(new, g)", "return new"),
    "family-device-always-takes-row-0": (
        SYNAPSE, "return rows[0] if len(rows) == 1 else rows[_nearest(table.amplitudes, "
                 "abs(pulse_amplitude))]", "return rows[0]"),
    "saturation-events-not-counted": (ENGINE, "saturated += 1", "saturated += 0"),
    "saturation-a-level-early": (
        SYNAPSE, "return _nearest(row, g) == len(row) - 1",
        "return _nearest(row, g) >= len(row) - 2"),
    # the neuron: threshold, refractory window, leak and energy
    "fire-above-not-at-threshold": (
        NEURON, "if state.v < model.thres:", "if state.v <= model.thres:"),
    "refractory-window-a-step-short": (
        NEURON, "state.refractory_until = step + support_steps(model.t_refrac, dt)",
        "state.refractory_until = step + support_steps(model.t_refrac, dt) - 1"),
    "leak-sign-flipped": (
        NEURON, "dv = (model.r_mem * current - state.v) / model.tau",
        "dv = (model.r_mem * current + state.v) / model.tau"),
    "refractory-window-a-step-long": (
        NEURON, "if step < state.refractory_until:", "if step <= state.refractory_until:"),
    "energy-without-dt": (
        NEURON, "state.energy += dt * expr.evaluate(model.power_expr, env)",
        "state.energy += expr.evaluate(model.power_expr, env)"),
    # inhibition
    "inhibition-keeps-the-firing-neuron": (
        ENGINE, "peers[peers != j] if a == b else peers", "peers"),
    "inhibition-of-a-chunk-goes-to-its-first-sample": (
        ENGINE, "peers = np.arange(n) + j // layer.spec.neurons * n", "peers = np.arange(n)"),
    # training and the frozen driver
    "reset-keeps-refractory-windows": (
        ENGINE, "                state.refractory_until = 0\n",
        "                state.refractory_until = state.refractory_until\n"),
    "frozen-passes-learn": (
        ENGINE, "steps, 0, learn=False)", "steps, 0, learn=True)"),
    "failing-chunk-replayed-in-reverse": (
        ENGINE, "for idx in chunk:", "for idx in reversed(chunk):"),
    "training-takes-the-last-sample-first": (ENGINE, "order.pop(0)", "order.pop()"),
    "training-overruns-T": (
        ENGINE, "min(per_sample, n_total - k), k, learn=True)", "per_sample, k, learn=True)"),
    "chunk-energy-summed-at-once": (
        ENGINE, "for term in done.energy:\n                state.energy += term",
        "state.energy += sum(done.energy)"),
    # waveforms on the grid
    "layer-waveforms-unchecked": (
        ENGINE, 'grid_samples(w, dt, f"layer {q} {name} waveform")',
        "tuple(w.sample(i * dt) for i in range(math.ceil(w.duration / dt - 1e-9)))"),
    "a-0-v-step-rejects-the-waveform": (WAVEFORM, "not any(samples)", "not all(samples)"),
    "0-step-waveforms-pass": (WAVEFORM, "if not samples:", "if False:"),
    # the network file
    "network-file-first-line-wins": (
        ENGINE, "g[pos], seen[pos] = value, True",
        "g[pos], seen[pos] = g[pos] if seen[pos] else value, True"),
    # config line numbers
    "config-lines-counted-from-0": (
        "src/spikeforge/config.py", "enumerate(Path(path).read_bytes().splitlines(), start=1)",
        "enumerate(Path(path).read_bytes().splitlines(), start=0)"),
    # the GA
    "ga-best-keeps-the-newest-tie": (
        "src/spikeforge/tuner.py", "scores[order[0]] > best_score:",
        "scores[order[0]] >= best_score:"),
    # expression precedence
    "unary-minus-binds-tighter-than-power": (
        "src/spikeforge/expr.py", "return Neg(self.factor())", "return Neg(self.primary())"),
}


def check_sites(names) -> None:
    """Exit unless each mutant's site text is in its file exactly once."""
    faults = []
    for name in names:
        path, old, _ = MUTANTS[name]
        found = (ROOT / path).read_text(encoding="utf-8").count(old)
        if found != 1:
            faults.append(f"{name}: site text found {found} times in {path}: {old!r}")
    if faults:
        sys.exit("stale mutant list:\n  " + "\n  ".join(faults))


def copy_checkout(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", "out")
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, into / part, ignore=skip)
    for name in ("pyproject.toml", "BENCHMARK.json"):  # the bench's own tests read the latter
        shutil.copy(ROOT / name, into)


def run_tests(where: Path) -> tuple[bool, str]:
    """(passed, the first failing test or why the run stopped) of the suite in where."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow",
                               "-p", "no:cacheprovider"],
                              cwd=where, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S:.0f} s"
    if done.returncode == 0:
        return True, ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return False, first[1] if first else f"pytest exit code {done.returncode}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(MUTANTS), metavar="NAME")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args()
    names = args.only or list(MUTANTS)
    check_sites(names)
    if args.list:
        print("\n".join(names))
        return
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        copy_checkout(base)
        passed, why = run_tests(base)
        if not passed:
            sys.exit(f"the unmutated tests fail ({why}), so no mutant can be scored")
        killed = 0
        for name in names:
            path, old, new = MUTANTS[name]
            where = Path(tmp) / name
            copy_checkout(where)
            source = where / path
            text = source.read_text(encoding="utf-8")
            source.write_text(text.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            passed, why = run_tests(where)
            killed += not passed
            took = time.perf_counter() - start
            print(f"{name}: {'survived' if passed else 'killed by ' + why} ({took:.0f} s)",
                  flush=True)
            shutil.rmtree(where)
        print(f"score: {killed}/{len(names)} killed")


if __name__ == "__main__":
    main()
