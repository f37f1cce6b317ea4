"""Differential test: an identical-pulse ladder stepped as a one-row family.

`reference_step` and `reference_saturates` are the two-ladder device rules
as they stood before identical-pulse devices became one-row pulse
families: snap g to the nearest level of the direction's ladder, advance
one level, clamp at the end, never move against the direction. On seeded
random ladders, `step_device` and `saturates` on
`PulseFamilyDevice.identical(...)` must agree with them bit for bit, for
every pulse amplitude. `_nearest` is the linear scan that `synapse._nearest`
replaced with a bisection: on ladders whose levels sit a few ulps apart, where
distances round equal, both must pick the lowest of the tied indices.
"""

import math
import struct

import numpy as np
import pytest

from spikeforge import synapse
from spikeforge.synapse import PulseFamilyDevice, SynapseMode, saturates, step_device

DIRECTIONS = (SynapseMode.POTENTIATE, SynapseMode.DEPRESS)


def _nearest(values, x):
    best = 0
    best_d = abs(values[0] - x)
    for i in range(1, len(values)):
        d = abs(values[i] - x)
        if d < best_d:
            best, best_d = i, d
    return best


def _direction_levels(levels_ltp, levels_ltd, direction):
    if direction is SynapseMode.POTENTIATE:
        return levels_ltp
    if direction is SynapseMode.DEPRESS:
        return levels_ltd
    raise ValueError(f"direction must be POTENTIATE or DEPRESS, got {direction}")


def reference_step(levels_ltp, levels_ltd, direction, g):
    levels = _direction_levels(levels_ltp, levels_ltd, direction)
    new = levels[min(_nearest(levels, g) + 1, len(levels) - 1)]
    if direction is SynapseMode.POTENTIATE:
        return max(new, g)
    return min(new, g)


def reference_saturates(levels_ltp, levels_ltd, direction, g):
    levels = _direction_levels(levels_ltp, levels_ltd, direction)
    return _nearest(levels, g) == len(levels) - 1


def bits(x):
    return struct.pack("<d", float(x))


def ulp_ladder(rng, start, n):
    """n ascending levels from start, each 1-3 ulps above the one before."""
    levels = [start]
    for _ in range(n - 1):
        levels.append(levels[-1])
        for _ in range(rng.integers(1, 4)):
            levels[-1] = math.nextafter(levels[-1], math.inf)
    return tuple(levels)


KINDS = ("random", "dyadic", "ulps")


def random_ladders(rng, kind):
    """An independent LTP and LTD ladder, 1-30 levels each, inside [g_min, g_max].

    Dyadic ladders sit on a grid of 2**-30 S, so the midpoint of two levels
    is exact and a true tie for the nearest-level lookup. Ulp ladders sit a
    few ulps apart near g_min, so the distances to a far conductance, whose
    ulp is coarser, round equal.
    """
    g_min, g_max = 1e-6, 9e-6
    n_ltp, n_ltd = rng.integers(1, 31, size=2)
    if kind == "dyadic":
        unit = 2.0 ** -30
        lo, hi = math.ceil(g_min / unit), math.floor(g_max / unit)

        def ladder(n):
            return tuple(float(k) * unit for k in rng.choice(np.arange(lo, hi + 1), n,
                                                             replace=False))
    elif kind == "ulps":
        def ladder(n):
            return ulp_ladder(rng, float(rng.uniform(g_min, 1.5 * g_min)), n)
    else:
        def ladder(n):
            return tuple(float(x) for x in np.unique(rng.uniform(g_min, g_max, n)))
    ltp = tuple(sorted(ladder(n_ltp)))
    ltd = tuple(sorted(ladder(n_ltd), reverse=True))
    return ltp, ltd, g_min, g_max


def probe_conductances(rng, ltp, ltd, g_min, g_max):
    levels = sorted(set(ltp) | set(ltd))
    exact = list(levels)
    midpoints = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    span = g_max - g_min
    scattered = list(rng.uniform(g_min - 0.1 * span, g_max + 0.1 * span, 20))
    # g_max is far above an ulp ladder and -g_max far below it: the distances
    # round equal from either end, so ascending and descending rows meet tied runs
    return exact + midpoints + scattered + [g_min, g_max, 0.0, -g_max]


def probe_amplitudes(rng):
    return [0.0, -0.0, math.inf, -math.inf, math.nan,
            *rng.normal(0.0, 2.0, 4), *(10.0 ** rng.uniform(-6, 6, 2))]


@pytest.mark.parametrize("kind", ["dyadic", "random", "ulps"])
@pytest.mark.parametrize("seed", range(8))
def test_one_row_family_steps_like_the_two_ladder_rule(seed, kind):
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    for _ in range(10):
        ltp, ltd, g_min, g_max = random_ladders(rng, kind)
        device = PulseFamilyDevice.identical(ltp, ltd, g_min, g_max)
        amplitudes = probe_amplitudes(rng)
        for g in probe_conductances(rng, ltp, ltd, g_min, g_max):
            for direction in DIRECTIONS:
                want = reference_step(ltp, ltd, direction, g)
                want_sat = reference_saturates(ltp, ltd, direction, g)
                for amp in amplitudes:
                    got = step_device(device, direction, amp, g)
                    assert bits(got) == bits(want), (ltp, ltd, direction, amp, g)
                    assert saturates(device, direction, g, amp) is want_sat
                assert saturates(device, direction, g) is want_sat


def test_dyadic_midpoints_are_true_ties():
    # otherwise the tie-breaking rule (lower index wins) would go untested
    rng = np.random.default_rng(0)
    for _ in range(20):
        for ladder in random_ladders(rng, "dyadic")[:2]:
            for a, b in zip(ladder, ladder[1:]):
                m = (a + b) / 2
                assert abs(m - a) == abs(b - m)
    # 3.0 ties between 2.0 and 4.0; the tie snaps to the lower index of each
    # ladder (2.0 for LTP, 4.0 for LTD), then the pulse advances one level
    device = PulseFamilyDevice.identical((1.0, 2.0, 4.0), (4.0, 2.0, 1.0), 1.0, 4.0)
    assert step_device(device, SynapseMode.POTENTIATE, 0.7, 3.0) == 4.0
    assert step_device(device, SynapseMode.DEPRESS, 0.7, 3.0) == 2.0


@pytest.mark.parametrize("seed", range(4))
def test_bisection_picks_the_lowest_of_rounded_ties(seed):
    # ascending (LTP rows, amplitudes) and descending (LTD rows) ulp ladders,
    # probed at their levels, midpoints and far away, out to the non-finite
    rng = np.random.default_rng([seed, 7])
    ties = 0
    for _ in range(20):
        start = float(rng.uniform(1e-6, 2e-6))
        ladder = ulp_ladder(rng, start, int(rng.integers(1, 12)))
        probes = [*ladder, *((a + b) / 2 for a, b in zip(ladder, ladder[1:])),
                  0.0, 9e-6, start - 1e-12, 1.0, -1.0, 1e300, math.inf, -math.inf, math.nan]
        for values in (ladder, ladder[::-1]):
            for x in probes:
                assert synapse._nearest(values, x) == _nearest(values, x), (values, x)
                d = [abs(v - x) for v in values]
                ties += d.count(min(d)) > 1
    assert ties > 100


@pytest.mark.parametrize("direction", [SynapseMode.IDLE, SynapseMode.TRANSMIT])
def test_a_direction_that_does_not_program_is_rejected_alike(direction):
    ltp, ltd = (1e-6, 2e-6), (2e-6, 1e-6)
    device = PulseFamilyDevice.identical(ltp, ltd, 1e-6, 2e-6)
    with pytest.raises(ValueError) as want:
        reference_step(ltp, ltd, direction, 1e-6)
    with pytest.raises(ValueError) as got:
        step_device(device, direction, 1.0, 1e-6)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as got:
        saturates(device, direction, 1e-6)
    assert str(got.value) == str(want.value)
