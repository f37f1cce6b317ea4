import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spikeforge.encoding import (
    PoissonEncoder, SpikeTrain, _spike_probability, fixed_rate_encode, load_dataset,
)


# the one-train draw that PoissonEncoder.encode replaced, kept verbatim as the
# reference that one encode call must equal, train for train
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
    assert said == expected_said
    assert bool(said) == (r_max * dt > 0.1)


class TestFixedRate:
    def test_ten_hz(self):
        train = fixed_rate_encode(1.0, 0.0, 10.0, 0.5, 1e-3)
        assert train.times == (0.0, pytest.approx(0.1), pytest.approx(0.2),
                               pytest.approx(0.3), pytest.approx(0.4))

    def test_zero_intensity_zero_min_rate(self):
        assert len(fixed_rate_encode(0.0, 0.0, 10.0, 1.0, 1e-3)) == 0

    def test_three_hz_floors_to_grid(self):
        train = fixed_rate_encode(1.0, 0.0, 3.0, 1.0, 1e-3)
        assert train.steps == (0, 333, 666)

    def test_rate_above_grid_dedupes(self):
        train = fixed_rate_encode(1.0, 0.0, 2000.0, 0.01, 1e-3)
        assert train.steps == tuple(range(10))


class TestSpikeTrainInvariants:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 80.0), st.floats(80.0, 120.0),
           st.integers(0, 2 ** 31))
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
        for train in (poisson, fixed_rate_encode(intensity, r_min, r_max, T, dt)):
            assert all(0 <= k < n for k in train.steps)
            assert all(t == k * dt for t, k in zip(train.times, train.steps))

    def test_rejects_decreasing_steps(self):
        with pytest.raises(ValueError):
            SpikeTrain((3, 2), 1e-3)


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
