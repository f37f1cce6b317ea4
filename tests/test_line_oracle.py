"""Differential oracle for the engine's spike lines.

`_Sched` and `_line_state` are the per-neuron schedule queues the engine
used before `_Line`, kept here verbatim as the reference: each trigger is
a queued waveform sampled again at every step it covers, and a line's
state at a step is the sum over the live queue in trigger order. On seeded
random trigger sequences, a `_Line` read step by step must give the same
active neurons and bit-equal voltages.
"""

import numpy as np
import pytest

from spikeforge.engine import _Line, _samples, _support_steps
from spikeforge.waveform import Waveform

DT = 1e-3
HORIZON = 16


class _Sched:
    """A waveform triggered at an integer step, active for a fixed step count
    and scaled by sign (inh_g on inhibition lines, 1.0 elsewhere)."""

    __slots__ = ("waveform", "origin", "steps", "sign")

    def __init__(self, waveform: Waveform, origin: int, steps: int, sign: float = 1.0):
        self.waveform = waveform
        self.origin = origin
        self.steps = steps
        self.sign = sign

    def sample(self, k: int, dt: float) -> float:
        return self.sign * self.waveform.sample((k - self.origin) * dt)


def _line_state(queues: list[list[_Sched]], k: int, dt: float, rest: float):
    """Per-neuron (active, voltage) for one spike line; prunes dead schedules."""
    active = np.zeros(len(queues), dtype=bool)
    volts = np.full(len(queues), rest)
    for idx, queue in enumerate(queues):
        if not queue:
            continue
        live = [s for s in queue if k < s.origin + s.steps]
        if len(live) != len(queue):
            queue[:] = live
        total = 0.0
        hit = False
        for s in live:
            if s.origin <= k:
                total += s.sample(k, dt)
                hit = True
        if hit:
            active[idx] = True
            volts[idx] = total
    return active, volts


def random_waveform(rng) -> Waveform:
    """Supports of 0-4 steps: a zero-duration spike, on- and off-grid
    durations, and a vertical edge (a duplicated breakpoint time), which
    sits on a grid point half the time."""
    if rng.random() < 0.15:
        return Waveform(((0.0, rng.uniform(-2.0, 2.0)),))
    steps = int(rng.integers(1, 5))
    duration = steps * DT
    if rng.random() < 0.5:
        duration -= rng.uniform(0.0, 0.9) * DT  # off the grid, same support
    times = list(rng.uniform(0.0, duration, size=int(rng.integers(0, 3))))
    if rng.random() < 0.5:
        on_grid = steps > 1 and rng.random() < 0.5
        edge = int(rng.integers(1, steps)) * DT if on_grid else rng.uniform(0.0, duration)
        times += [edge, edge]
    times = [0.0] + sorted(times) + [duration]
    return Waveform(tuple((t, rng.uniform(-2.0, 2.0)) for t in times))


def random_case(seed):
    """The triggers of one line, grouped by the step after which they are
    made (-1: before the first read), each as (indices, origin, waveform,
    sign); indices are one neuron or several."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    shapes = [random_waveform(rng) for _ in range(3)]
    scale = 1e-6 * rng.uniform(0.5, 50.0)  # like inh_g on an inhibition line
    triggers = {}
    for after in range(-1, HORIZON):
        for _ in range(int(rng.integers(0, 10 if after < 0 else 2))):
            lo = 0 if after < 0 else after + 1
            origin = int(rng.integers(lo, lo + 5))
            if rng.random() < 0.3:
                idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            else:
                idx = int(rng.integers(n))
            sign = float(rng.choice([1.0, -1.0, scale]))
            triggers.setdefault(after, []).append(
                (idx, origin, shapes[int(rng.integers(3))], sign))
    rest = float(rng.choice([0.0, 0.25, -0.1]))
    return n, triggers, rest


@pytest.mark.parametrize("seed", range(0, 200, 20))
def test_line_matches_the_schedule_queues(seed):
    for case in range(seed, seed + 20):
        check_case(case)


def check_case(seed):
    n, triggers, rest = random_case(seed)
    line = _Line(n)
    queues = [[] for _ in range(n)]

    def make(after):
        for idx, origin, wf, sign in triggers.get(after, ()):
            line.trigger(idx, origin, _samples(wf, DT), sign)
            for i in np.atleast_1d(idx).tolist():
                queues[i].append(_Sched(wf, origin, _support_steps(wf.duration, DT), sign))

    make(-1)
    for k in range(HORIZON + 8):  # the last origin is HORIZON + 4
        expected_active, expected_volts = _line_state(queues, k, DT, rest)
        active, volts = line.state(k, rest)
        assert np.array_equal(active, expected_active)
        assert volts.dtype == expected_volts.dtype
        assert volts.tobytes() == expected_volts.tobytes()
        again_active, again_volts = line.state(k, rest)
        assert np.array_equal(again_active, active)
        assert again_volts.tobytes() == volts.tobytes()
        line.pending.pop(k, None)
        make(k)
    assert not line.pending


def test_idle_state_keeps_each_rest_bit_for_bit_and_is_read_only():
    """An idle step's state is cached per rest; rests that compare equal
    (0.0, -0.0 and the integer 0) still give their own sign and dtype."""
    line = _Line(3)
    for rest in (0.0, -0.0, 0, 0.25, -0.0, 0.0):
        expected_active, expected_volts = _line_state([[], [], []], 5, DT, rest)
        active, volts = line.state(5, rest)
        assert np.array_equal(active, expected_active)
        assert volts.dtype == expected_volts.dtype
        assert volts.tobytes() == expected_volts.tobytes()
        assert not active.flags.writeable and not volts.flags.writeable


def test_random_cases_reach_every_feature():
    shapes, multi, overlaps = set(), 0, 0
    for seed in range(200):
        n, triggers, _ = random_case(seed)
        covered = {}
        for group in triggers.values():
            for idx, origin, wf, _ in group:
                steps = _support_steps(wf.duration, DT)
                shapes.add(steps)
                times = [t for t, _ in wf.breakpoints]
                shapes.add("edge" if len(set(times)) < len(times) else "plain")
                multi += not isinstance(idx, int)
                for i in np.atleast_1d(idx).tolist():
                    for k in range(origin, origin + steps):
                        covered[i, k] = covered.get((i, k), 0) + 1
        overlaps += sum(c > 1 for c in covered.values())
    assert shapes == {0, 1, 2, 3, 4, "edge", "plain"}
    assert multi and overlaps


def test_index_array_trigger_equals_one_trigger_per_index():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        together, apart = _Line(n), _Line(n)
        for _ in range(4):
            samples = _samples(random_waveform(rng), DT)
            idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            origin, sign = int(rng.integers(0, 6)), float(rng.choice([1.0, -1.0, 3e-6]))
            together.trigger(idx, origin, samples, sign)
            for i in idx.tolist():
                apart.trigger(i, origin, samples, sign)
        assert sorted(together.pending) == sorted(apart.pending)
        for step, (active, volts) in together.pending.items():
            assert np.array_equal(active, apart.pending[step][0])
            assert volts.tobytes() == apart.pending[step][1].tobytes()
