import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spikeforge.encoding import (
    AEREvent, PoissonEncoder, SpikeTrain, aer_to_trains, fixed_rate_encode, load_aer,
    load_dataset, poisson_encode,
)


class TestPoisson:
    def test_zero_rate_gives_empty_train(self):
        train = poisson_encode(0.0, 0.0, 100.0, 1.0, 1e-3, np.random.default_rng(0))
        assert len(train) == 0

    def test_count_statistics_against_binomial(self):
        # 100 seeded runs at 100 Hz, dt=1ms, T=10s: total count vs binomial 3-sigma
        reps, T, dt, rate = 100, 10.0, 1e-3, 100.0
        n = round(T / dt)
        p = rate * dt
        total = sum(
            len(poisson_encode(1.0, 0.0, rate, T, dt, np.random.default_rng(seed)))
            for seed in range(reps))
        sigma = math.sqrt(reps * n * p * (1 - p))
        assert abs(total - reps * n * p) <= 3 * sigma

    def test_seed_determinism(self):
        a = poisson_encode(0.5, 0.0, 50.0, 2.0, 1e-3, np.random.default_rng(7))
        b = poisson_encode(0.5, 0.0, 50.0, 2.0, 1e-3, np.random.default_rng(7))
        assert a.steps == b.steps

    def test_coarse_dt_warns(self):
        with pytest.warns(UserWarning, match="too coarse"):
            poisson_encode(1.0, 0.0, 200.0, 1.0, 1e-3, np.random.default_rng(0))

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_encode(0.5, 10.0, 5.0, 1.0, 1e-3, rng)
        with pytest.raises(ValueError):
            poisson_encode(0.5, 0.0, 5.0, 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            poisson_encode(1.5, 0.0, 5.0, 1.0, 1e-3, rng)


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
            poisson = poisson_encode(intensity, r_min, r_max, T, dt,
                                     np.random.default_rng(seed))
        # the "too coarse" warning comes exactly when p = rate * dt > 0.1
        assert ["too coarse" in str(w.message) for w in caught] == [True] * coarse
        for train in (poisson, fixed_rate_encode(intensity, r_min, r_max, T, dt)):
            assert all(0 <= k < n for k in train.steps)
            assert all(t == k * dt for t, k in zip(train.times, train.steps))

    def test_rejects_decreasing_steps(self):
        with pytest.raises(ValueError):
            SpikeTrain((3, 2), 1e-3)

    def test_rejects_sign_mismatch(self):
        with pytest.raises(ValueError):
            SpikeTrain((1, 2), 1e-3, (1,))


class TestAER:
    def test_single_line(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("0.001,3,1\n")
        events = load_aer(p)
        assert events == {3: [AEREvent(0.001, 3, 1)]}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("")
        assert load_aer(p) == {}

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("abc\n")
        with pytest.raises(ValueError, match=":1:"):
            load_aer(p)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("# header\n\n0.002,0,-1\n")
        events = load_aer(p)
        assert events[0][0].polarity == -1

    def test_address_out_of_range(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("0.001,9,1\n")
        with pytest.raises(ValueError, match="out of range"):
            load_aer(p, num_channels=4)

    def test_events_sorted_per_channel(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("0.005,0,1\n0.001,0,1\n")
        events = load_aer(p)
        assert [e.t for e in events[0]] == [0.001, 0.005]

    def test_separate_polarity_mode(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("0.001,0,1\n0.002,0,-1\n0.003,1,1\n")
        trains = aer_to_trains(load_aer(p), 2, T=0.01, dt=1e-3, polarity_mode="separate")
        assert len(trains) == 4
        assert trains[0].steps == (1,)
        assert trains[1].steps == (2,)
        assert trains[2].steps == (3,)
        assert trains[3].steps == ()

    def test_signed_polarity_mode(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("0.001,0,1\n0.002,0,-1\n")
        trains = aer_to_trains(load_aer(p), 1, T=0.01, dt=1e-3, polarity_mode="signed")
        assert trains[0].steps == (1, 2)
        assert trains[0].signs == (1, -1)

    def test_events_beyond_horizon_dropped(self, tmp_path):
        p = tmp_path / "events.aer"
        p.write_text("0.5,0,1\n")
        trains = aer_to_trains(load_aer(p), 1, T=0.01, dt=1e-3)
        assert trains[0].steps == ()

    def test_bad_polarity_mode(self):
        with pytest.raises(ValueError):
            aer_to_trains({}, 1, 0.01, 1e-3, polarity_mode="both")


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
