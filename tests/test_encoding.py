import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spikeforge.config import load_dataset
from spikeforge.encoding import FixedRateEncoder, PoissonEncoder, SpikeTrain
from spikeforge.errors import SpecError
from spikeforge.waveform import grid_steps


# the per-feature helpers and one-train encoders that the encoders' shared
# rate map replaced, kept verbatim as the reference that one encode call must
# equal, train for train
def _check_rate_args(r_min, r_max, T, dt):
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0 <= r_min <= r_max:
        raise ValueError(f"need 0 <= r_min <= r_max, got {r_min}, {r_max}")
    if T < dt:
        raise ValueError(f"T must be at least dt, got T={T}, dt={dt}")


def _rate(intensity, r_min, r_max):
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity {intensity} outside [0, 1]")
    return r_min + intensity * (r_max - r_min)


def _spike_probability(intensity, r_min, r_max, T, dt) -> float:
    """Per-step spike probability, warning when dt is too coarse for it."""
    _check_rate_args(r_min, r_max, T, dt)
    p = _rate(intensity, r_min, r_max) * dt
    if p > 0.1:
        warnings.warn(
            f"spike probability per step is {p:.3f} > 0.1; "
            "dt is too coarse for this rate", stacklevel=3)
    return p


def fixed_rate_encode(intensity: float, r_min: float, r_max: float, T: float,
                      dt: float) -> SpikeTrain:
    """Deterministic train with period 1/rate, phase 0, times floored to the grid."""
    _check_rate_args(r_min, r_max, T, dt)
    rate = _rate(intensity, r_min, r_max)
    if rate == 0.0:
        return SpikeTrain((), dt)
    n = int(round(T / dt))
    steps = []
    k = 0
    while True:
        t = k / rate
        if t >= T:
            break
        # min() guards division rounding t/dt up to exactly n despite t < T
        step = min(int(grid_steps(t, dt)), n - 1)
        if not steps or step > steps[-1]:
            steps.append(step)
        k += 1
    return SpikeTrain(tuple(steps), dt)


def poisson_encode(intensity: float, r_min: float, r_max: float, T: float,
                   dt: float, rng: np.random.Generator) -> SpikeTrain:
    """Bernoulli-per-timestep spike train at rate r_min + intensity*(r_max - r_min)."""
    p = _spike_probability(intensity, r_min, r_max, T, dt)
    hits = np.flatnonzero(rng.random(int(round(T / dt))) < p)
    return SpikeTrain(tuple(hits.tolist()), dt)


class TestPoisson:
    def test_zero_rate_gives_empty_train(self):
        train = PoissonEncoder(0.0, 100.0).encode([0.0], 1.0, 1e-3, np.random.default_rng(0))[0]
        assert len(train) == 0

    def test_count_statistics_against_binomial(self):
        # 100 seeded runs at 100 Hz, dt=1ms, T=10s: total count vs binomial 3-sigma
        reps, T, dt, rate = 100, 10.0, 1e-3, 100.0
        n = round(T / dt)
        p = rate * dt
        total = sum(
            len(PoissonEncoder(0.0, rate).encode([1.0], T, dt, np.random.default_rng(seed))[0])
            for seed in range(reps))
        sigma = math.sqrt(reps * n * p * (1 - p))
        assert abs(total - reps * n * p) <= 3 * sigma

    def test_seed_determinism(self):
        a = PoissonEncoder(0.0, 50.0).encode([0.5], 2.0, 1e-3, np.random.default_rng(7))[0]
        b = PoissonEncoder(0.0, 50.0).encode([0.5], 2.0, 1e-3, np.random.default_rng(7))[0]
        assert a.steps == b.steps

    def test_coarse_dt_warns(self):
        with pytest.warns(UserWarning, match="too coarse"):
            PoissonEncoder(0.0, 200.0).encode([1.0], 1.0, 1e-3, np.random.default_rng(0))

    def test_coarse_dt_warns_once_at_the_caller(self):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            PoissonEncoder(0.0, 200.0).encode([0.9, 1.0], 1.0, 1e-3, np.random.default_rng(0))
        assert [str(w.message) for w in got] == [
            "spike probability per step is 0.200 > 0.1; dt is too coarse for this rate"]
        assert got[0].filename == __file__

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            PoissonEncoder(10.0, 5.0).encode([0.5], 1.0, 1e-3, rng)
        with pytest.raises(ValueError):
            PoissonEncoder(0.0, 5.0).encode([0.5], 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            PoissonEncoder(0.0, 5.0).encode([1.5], 1.0, 1e-3, rng)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("width, r_max, T, dt", [
    (1, 60.0, 0.1, 1e-3), (13, 10.0, 0.05, 1e-3), (784, 60.0, 0.05, 1e-3),
    (5, 20.0, 0.2, 5e-3), (9, 400.0, 0.01, 1e-3)])
def test_encoder_draws_like_one_poisson_encode_per_feature(seed, width, r_max, T, dt):
    features = np.random.default_rng([seed, width]).random(width).tolist()
    features[0] = 1.0
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)

    def warned(encode):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            result = encode()
        return result, [str(w.message) for w in got]

    trains, said = warned(lambda: PoissonEncoder(2.0, r_max).encode(features, T, dt, mine))
    expected, expected_said = warned(
        lambda: [poisson_encode(x, 2.0, r_max, T, dt, theirs) for x in features])
    assert trains == expected
    assert mine.bit_generator.state == theirs.bit_generator.state
    # one warning per call, naming the largest probability: feature 0's, at x = 1
    assert said == expected_said[:1]
    assert bool(said) == (r_max * dt > 0.1)


def trains_built_per_row(p, T, dt, rng):
    """The encoder's train construction before silent channels shared one
    empty train: a SpikeTrain built and checked for every row of the draw."""
    hits = rng.random((len(p), int(round(T / dt)))) < np.array(p)[:, None]
    steps = np.nonzero(hits)[1].tolist()
    ends = np.cumsum(hits.sum(axis=1)).tolist()
    return [SpikeTrain(tuple(steps[a:b]), dt) for a, b in zip([0] + ends, ends)]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_mostly_silent_encode_equals_a_train_built_per_row(seed):
    # 784 channels at up to 10 Hz for 50 ms, most of them dark: few spike
    features = np.random.default_rng([seed, 784]).random(784)
    features[features < 0.8] = 0.0
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    trains = PoissonEncoder(0.0, 10.0).encode(features.tolist(), 0.05, 1e-3, mine)
    assert trains == trains_built_per_row(features * 10.0 * 1e-3, 0.05, 1e-3, theirs)
    assert mine.bit_generator.state == theirs.bit_generator.state
    silent = [train for train in trains if not train.steps]
    assert len(silent) > 700
    assert all(train == SpikeTrain((), 1e-3) for train in silent)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("width, r_min, r_max, T, dt", [
    (1, 0.0, 10.0, 0.5, 1e-3), (13, 2.0, 60.0, 0.05, 1e-3), (784, 0.0, 60.0, 0.1, 1e-3),
    (5, 3.0, 20.0, 0.2, 5e-3), (9, 0.0, 2000.0, 0.01, 1e-3)])
def test_fixed_rate_encoder_matches_one_fixed_rate_encode_per_feature(
        seed, width, r_min, r_max, T, dt):
    features = np.random.default_rng([seed, width]).random(width).tolist()
    features[0] = 0.0
    assert FixedRateEncoder(r_min, r_max).encode(features, T, dt) == [
        fixed_rate_encode(x, r_min, r_max, T, dt) for x in features]


def test_rate_map_is_checked_when_the_encoder_is_built():
    for encoder in (PoissonEncoder, FixedRateEncoder):
        with pytest.raises(SpecError, match=r"need 0 <= r_min <= r_max, got 10.0, 5.0") as err:
            encoder(10.0, 5.0)
        assert err.value.key == "r_min"


def test_encoders_are_frozen_values_of_their_rate_map():
    for encoder in (PoissonEncoder, FixedRateEncoder):
        enc = encoder(1.0, 50.0)
        assert enc == encoder(1.0, 50.0) and hash(enc) == hash(encoder(1.0, 50.0))
        assert enc != encoder(1.0, 60.0)
        assert repr(enc) == f"{encoder.__name__}(r_min=1.0, r_max=50.0)"
        assert dataclasses.replace(enc, r_max=60.0) == encoder(1.0, 60.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            enc.r_max = 60.0
    assert PoissonEncoder(1.0, 50.0) != FixedRateEncoder(1.0, 50.0)


class TestFixedRate:
    def test_ten_hz(self):
        train = FixedRateEncoder(0.0, 10.0).encode([1.0], 0.5, 1e-3)[0]
        assert train.steps == (0, 100, 200, 300, 400)
        assert train.dt == 1e-3

    def test_ten_hz_for_a_second_stays_on_the_period(self):
        # 7 / 10 / 1e-3 is 699.9999999999999, which snaps to 700, not floors to 699
        train = FixedRateEncoder(0.0, 10.0).encode([1.0], 1.0, 1e-3)[0]
        assert train.steps == tuple(range(0, 1000, 100))

    def test_zero_intensity_zero_min_rate(self):
        assert len(FixedRateEncoder(0.0, 10.0).encode([0.0], 1.0, 1e-3)[0]) == 0

    def test_three_hz_floors_to_grid(self):
        train = FixedRateEncoder(0.0, 3.0).encode([1.0], 1.0, 1e-3)[0]
        assert train.steps == (0, 333, 666)

    def test_rate_above_grid_dedupes(self):
        train = FixedRateEncoder(0.0, 2000.0).encode([1.0], 0.01, 1e-3)[0]
        assert train.steps == tuple(range(10))


class TestSpikeTrainInvariants:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 80.0), st.floats(80.0, 120.0),
           st.integers(0, 2 ** 31))
    # a rate so low that k / rate / dt is inf for every k > 0: one spike, at step 0
    @example(0.0, 1.1125369292536007e-308, 80.0, 0)
    def test_all_times_on_grid_within_horizon(self, intensity, r_min, r_max, seed):
        T, dt = 0.5, 1e-3
        n = round(T / dt)
        coarse = (r_min + intensity * (r_max - r_min)) * dt > 0.1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            poisson = PoissonEncoder(r_min, r_max).encode(
                [intensity], T, dt, np.random.default_rng(seed))[0]
        # the "too coarse" warning comes exactly when p = rate * dt > 0.1
        assert ["too coarse" in str(w.message) for w in caught] == [True] * coarse
        fixed = FixedRateEncoder(r_min, r_max).encode([intensity], T, dt)[0]
        for train in (poisson, fixed):
            assert all(0 <= k < n for k in train.steps)
            assert train.dt == dt

    def test_rejects_decreasing_steps(self):
        with pytest.raises(ValueError):
            SpikeTrain((3, 2), 1e-3)

    @pytest.mark.parametrize("steps, dt, message", [
        ((1,), 0.0, "dt must be positive and finite, got 0.0"),
        ((-1, 2), 1e-3, "spike steps must be non-negative"),
        ((1,), float("nan"), "dt must be positive and finite, got nan"),
        ((1,), float("inf"), "dt must be positive and finite, got inf")])
    def test_rejected_train_texts(self, steps, dt, message):
        with pytest.raises(ValueError) as err:
            SpikeTrain(steps, dt)
        assert str(err.value) == message

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0])
    @pytest.mark.parametrize("encoder", [PoissonEncoder(0.0, 50.0), FixedRateEncoder(0.0, 50.0)])
    def test_encoders_reject_a_dt_that_is_not_positive_and_finite(self, encoder, dt):
        with pytest.raises(ValueError) as err:
            encoder.encode([0.5], 0.1, dt, np.random.default_rng(0))
        assert str(err.value) == f"dt must be positive and finite, got {dt}"

    @pytest.mark.parametrize("encoder", [PoissonEncoder(0.0, 50.0), FixedRateEncoder(0.0, 50.0)])
    def test_horizon_shorter_than_dt_is_rejected(self, encoder):
        with pytest.raises(ValueError) as err:
            encoder.encode([0.5], 1e-4, 1e-3, np.random.default_rng(0))
        assert str(err.value) == "T=0.0001 is not a positive multiple of dt=0.001 (T/dt=0.1)"


class TestDataset:
    def test_load(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text("# f0,f1,label\n0.0,1.0,0\n1.0,0.0,1\n")
        samples = load_dataset(p)
        assert len(samples) == 2
        assert samples[0].features == (0.0, 1.0)
        assert samples[1].label == 1

    def test_feature_out_of_range(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text("2.0,0\n")
        with pytest.raises(ValueError, match=":1:"):
            load_dataset(p)

    def test_short_line(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text("1\n")
        with pytest.raises(ValueError):
            load_dataset(p)
