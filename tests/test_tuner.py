import math

import numpy as np
import pytest

from spikeforge.errors import SpecError
from spikeforge.tuner import (
    GAConfig, GAResult, Individual, ParamRange, decode, evaluation_seed,
    ga_optimize,
)

BOX = [
    ParamRange("a", 0.0, 1.0),
    ParamRange("b", -2.0, 0.0),
    ParamRange("c", 5.0, 10.0),
]
CENTER = {"a": 0.3, "b": -1.0, "c": 7.5}


def quadratic(params, seed):
    return -sum((params[k] - CENTER[k]) ** 2 for k in CENTER)


def grid_search_oracle(n=51):
    axes = [np.linspace(p.lo, p.hi, n) for p in BOX]
    grids = np.meshgrid(*axes, indexing="ij")
    score = -sum((g - CENTER[k]) ** 2 for g, k in zip(grids, CENTER))
    best = np.unravel_index(np.argmax(score), score.shape)
    return {p.name: float(axes[d][best[d]]) for d, p in enumerate(BOX)}


class TestDecode:
    def test_linear_identity(self):
        space = [ParamRange("x", 0.0, 1.0)]
        assert decode(np.array([0.5]), space) == {"x": 0.5}

    def test_log_midpoint_is_geometric_mean(self):
        space = [ParamRange("x", 1.0, 100.0, scale="log")]
        mid = (math.log(1.0) + math.log(100.0)) / 2
        assert decode(np.array([mid]), space)["x"] == pytest.approx(10.0)

    def test_integer_rounds_half_up(self):
        space = [ParamRange("n", 1.0, 5.0, kind="integer")]
        assert decode(np.array([2.5]), space) == {"n": 3}
        assert decode(np.array([4.9]), space) == {"n": 5}

    def test_integer_clamps(self):
        space = [ParamRange("n", 1.0, 5.0, kind="integer")]
        assert decode(np.array([5.4]), space) == {"n": 5}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            decode(np.array([1.0, 2.0]), [ParamRange("x", 0.0, 1.0)])

    def test_individual_accepted(self):
        got = decode(Individual(np.array([0.25])), [ParamRange("x", 0.0, 1.0)])
        assert got == {"x": 0.25}


class TestParamRange:
    def test_log_requires_positive_lo(self):
        with pytest.raises(ValueError, match="log"):
            ParamRange("x", 0.0, 1.0, scale="log")

    def test_lo_must_be_below_hi(self):
        with pytest.raises(ValueError):
            ParamRange("x", 1.0, 1.0)

    def test_unknown_scale_kind(self):
        with pytest.raises(ValueError):
            ParamRange("x", 0.0, 1.0, scale="cubic")
        with pytest.raises(ValueError):
            ParamRange("x", 0.0, 1.0, kind="complex")

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (1.0, math.inf)])
    def test_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            ParamRange("x", lo, hi, scale="log" if lo > 0 else "linear")


class TestGAConfig:
    def test_population_must_exceed_elitism(self):
        with pytest.raises(ValueError, match="population"):
            GAConfig(population=2, elitism=2)

    def test_tournament_minimum(self):
        with pytest.raises(ValueError, match="tournament"):
            GAConfig(tournament_size=1)

    def test_generations_must_be_non_negative(self):
        with pytest.raises(SpecError) as err:
            GAConfig(generations=-1)
        assert (err.value.key, str(err.value)) == (
            "generations", "generations and elitism must be non-negative")

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_mutation_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="mutation_sigma"):
            GAConfig(mutation_sigma=sigma)


class TestGAOptimize:
    def test_zero_generations_returns_best_of_initial_population(self):
        cfg = GAConfig(population=30, generations=0, seed=4)
        result = ga_optimize(BOX, quadratic, cfg)
        assert len(result.history) == 1
        # the best of 30 random draws, no better
        rng = np.random.default_rng(4)
        lows = np.array([p.lo for p in BOX])
        highs = np.array([p.hi for p in BOX])
        draws = [rng.uniform(lows, highs) for _ in range(30)]
        best = max(quadratic(decode(g, BOX), 0) for g in draws)
        assert result.best_fitness == pytest.approx(best)

    def test_elitism_history_is_non_decreasing(self):
        cfg = GAConfig(generations=25, seed=1)
        result = ga_optimize(BOX, quadratic, cfg)
        hist = result.best_fitness_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_quadratic_converges_within_5pct_of_grid_oracle(self):
        cfg = GAConfig(generations=30, seed=2)
        result = ga_optimize(BOX, quadratic, cfg)
        oracle = grid_search_oracle()
        for p in BOX:
            tolerance = 0.05 * (p.hi - p.lo)
            assert abs(result.best_params[p.name] - oracle[p.name]) <= tolerance

    def test_deterministic_for_fixed_seed(self):
        cfg = GAConfig(generations=10, seed=7)
        a = ga_optimize(BOX, quadratic, cfg)
        b = ga_optimize(BOX, quadratic, cfg)
        assert a.best_params == b.best_params
        assert a.best_fitness == b.best_fitness
        assert a.best_fitness_history == b.best_fitness_history

    def test_bounds_respected_under_heavy_mutation(self):
        seen = []

        def recording(params, seed):
            seen.append(params)
            return -abs(params["x"] - 3.0)

        space = [ParamRange("x", 1.0, 5.0), ParamRange("n", 1.0, 9.0, kind="integer"),
                 ParamRange("g", 1e-6, 1e-3, scale="log")]

        def full(params, seed):
            seen.append(params)
            return quadratic({"a": 0.5, "b": -1.0, "c": 7.5}, seed)

        cfg = GAConfig(population=25, generations=20, mutation_rate=1.0,
                       mutation_sigma=3.0, seed=3)
        ga_optimize(space, full, cfg)
        assert len(seen) >= 500
        for params in seen:
            assert 1.0 <= params["x"] <= 5.0
            assert 1 <= params["n"] <= 9 and isinstance(params["n"], int)
            assert 1e-6 <= params["g"] <= 1e-3

    def test_fitness_failure_carries_params(self):
        def broken(params, seed):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="a"):
            ga_optimize(BOX, broken, GAConfig(generations=1))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ga_optimize([], quadratic, GAConfig())

    def test_seeded_sub_evaluations_are_stable(self):
        assert evaluation_seed(1, 2, 3) == evaluation_seed(1, 2, 3)
        assert evaluation_seed(1, 2, 3) != evaluation_seed(1, 2, 4)
        assert evaluation_seed(1, 2, 3) != evaluation_seed(1, 3, 3)

    def test_history_exposes_mean_and_params(self):
        result = ga_optimize(BOX, quadratic, GAConfig(generations=3, seed=0))
        assert isinstance(result, GAResult)
        for stats in result.history:
            assert stats.mean_fitness <= stats.best_fitness
            assert set(stats.best_params) == {"a", "b", "c"}
