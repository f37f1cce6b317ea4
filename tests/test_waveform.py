import math

import pytest
from hypothesis import given, strategies as st

from spikeforge.errors import SpecError
from spikeforge.waveform import Waveform, waveform_from_flat

RAMP = Waveform(((0.0, 0.0), (1.0, 1.0)))
BIPHASIC = Waveform(((0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0)))


def test_sample_midpoint():
    assert RAMP.sample(0.5) == 0.5


def test_sample_discontinuity_takes_right_value():
    assert BIPHASIC.sample(1.0) == -1.0


def test_sample_outside_support_is_zero():
    assert RAMP.sample(5.0) == 0.0
    assert RAMP.sample(-0.1) == 0.0


def test_sample_at_duration_returns_last_voltage():
    assert RAMP.sample(1.0) == 1.0
    assert BIPHASIC.sample(2.0) == 0.0


def test_sample_at_breakpoints():
    assert BIPHASIC.sample(0.0) == 0.0
    assert BIPHASIC.sample(1.5) == pytest.approx(-0.5)


def test_duration():
    assert Waveform(((0.0, 0.0), (3.0, 1.0))).duration == 3.0
    assert Waveform(((0.0, 1.0),)).duration == 0.0
    assert BIPHASIC.duration == 2.0


def test_construction_rejects_decreasing_times():
    with pytest.raises(ValueError):
        Waveform(((0.0, 0.0), (2.0, 1.0), (1.0, 0.0)))


def test_construction_rejects_a_nan_time():
    # nan compares false with everything, so it must not pass as non-decreasing
    with pytest.raises(SpecError) as err:
        Waveform(((0.0, 0.0), (math.nan, 1.0), (0.002, 0.0)))
    assert (err.value.key, str(err.value)) == (
        "breakpoints", "breakpoint times must be non-decreasing (0.0 then nan)")


def test_construction_rejects_triple_repeat():
    with pytest.raises(ValueError):
        Waveform(((0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (1.0, 3.0)))


def test_construction_rejects_nonzero_start():
    with pytest.raises(ValueError):
        Waveform(((0.5, 0.0), (1.0, 1.0)))


def test_construction_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Waveform(())
    with pytest.raises(ValueError):
        Waveform(((0.0, math.nan),))
    with pytest.raises(ValueError):
        Waveform(((0.0, math.inf),))


def test_from_flat():
    w = waveform_from_flat([0.0, 0.0, 1e-3, 1.0, 1e-3, -1.0, 2e-3, 0.0])
    assert w.breakpoints == ((0.0, 0.0), (1e-3, 1.0), (1e-3, -1.0), (2e-3, 0.0))
    with pytest.raises(ValueError):
        waveform_from_flat([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        waveform_from_flat([])


@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-5.0, 5.0)),
                min_size=1, max_size=8),
       st.floats(-1.0, 12.0))
def test_sample_always_finite(points, tau):
    pts = sorted(points, key=lambda p: p[0])
    pts[0] = (0.0, pts[0][1])
    # drop third-and-later repeats of a time
    cleaned = []
    for t, v in pts:
        if len(cleaned) >= 2 and cleaned[-1][0] == t and cleaned[-2][0] == t:
            continue
        cleaned.append((t, v))
    w = Waveform(tuple(cleaned))
    assert math.isfinite(w.sample(tau))


@given(st.floats(0.0, 1.0))
def test_sample_is_exactly_linear(alpha):
    # sample must equal the convex combination of endpoint voltages
    t0, v0, t1, v1 = 0.25, 2.0, 0.75, -4.0
    w = Waveform(((0.0, 0.0), (t0, v0), (t1, v1)))
    tau = (1.0 - alpha) * t0 + alpha * t1
    if t0 <= tau <= t1:
        expected = (1.0 - alpha) * v0 + alpha * v1
        assert w.sample(tau) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_breakpoint_times_return_endpoint_voltages():
    for t, _ in BIPHASIC.breakpoints:
        got = BIPHASIC.sample(t)
        candidates = [v for bt, v in BIPHASIC.breakpoints if bt == t]
        assert got == candidates[-1]
