import math
import re

import numpy as np
import pytest

from spikeforge.errors import SpecError
from spikeforge.tuner import (
    GAConfig, GAResult, ParamRange, decode, evaluation_seed, ga_optimize,
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


    @pytest.mark.parametrize("lo, hi, scale", [(0.5, 0.7, "linear"), (1.2, 1.8, "log"),
                                                (-0.9, -0.1, "linear")])
    def test_integer_range_must_hold_an_integer(self, lo, hi, scale):
        with pytest.raises(SpecError) as err:
            ParamRange("n", lo, hi, scale=scale, kind="integer")
        assert (err.value.key, str(err.value)) == (
            "lo", f"n: integer range [{lo}, {hi}] holds no integer")

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (1.0, 1.5), (0.9, 1.1)])
    def test_integer_range_holding_one_integer_decodes_to_it(self, lo, hi):
        space = [ParamRange("n", lo, hi, kind="integer")]
        assert [decode(np.array([g]), space) for g in (lo, hi)] == [{"n": 1}] * 2


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

    def test_a_nan_fitness_is_a_failed_evaluation(self):
        # a tournament whose first draw scored nan would keep it, and the
        # generation's mean would read nan
        def fitness(params, seed):
            return math.nan if params["x"] > 0.9 else params["x"]

        with pytest.raises(RuntimeError) as err:
            ga_optimize([ParamRange("x", 0.0, 1.0)], fitness, GAConfig(population=20, seed=0))
        assert re.fullmatch(r"fitness evaluation failed for \{'x': 0\.9\d*\}: fitness is nan",
                            str(err.value))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ga_optimize([], quadratic, GAConfig())

    def test_seeded_sub_evaluations_are_stable(self):
        assert evaluation_seed(1, 2, 3) == evaluation_seed(1, 2, 3)
        assert evaluation_seed(1, 2, 3) != evaluation_seed(1, 2, 4)
        assert evaluation_seed(1, 2, 3) != evaluation_seed(1, 3, 3)

    def test_seeded_run_keeps_its_draws(self):
        """Pins every rng draw of a run through its generation loop: the (params, seed)
        each evaluation receives, the best params, and each generation's best and mean
        fitness to the bit. The tied fitness pins which of equal scores wins a tournament
        (the first drawn) and takes the elite place (the lowest index)."""
        space = [ParamRange("x", 0.0, 1.0), ParamRange("g", 1e-6, 1e-2, scale="log"),
                 ParamRange("n", 1.0, 7.0, kind="integer")]
        seen = []

        def tied(params, seed):
            seen.append(((params["x"], params["g"], params["n"]), seed))
            return (-abs(params["n"] - 4) - round(abs(params["x"] - 0.3), 1)
                    - round(abs(math.log10(params["g"]) + 4)))

        cfg = GAConfig(population=6, generations=4, crossover_rate=0.9, mutation_rate=0.5,
                       elitism=1, tournament_size=3, seed=11)
        result = ga_optimize(space, tied, cfg)
        assert seen == [
            ((0.12857020276919962, 9.933709371044248e-05, 5), 1926383459),
            ((0.028689008371944547, 3.90574907254943e-06, 7), 3350277387),
            ((0.07042057615419683, 3.304424226882077e-06, 7), 4151502722),
            ((0.6218835927963828, 2.9920751341439112e-05, 4), 368040416),
            ((0.6628429525167993, 1.262511268373164e-05, 2), 2867950245),
            ((0.7880395945039919, 0.00048022231433367013, 4), 3512858852),
            ((0.6218835927963828, 0.0004967037824308262, 4), 1988853803),
            ((0.8597631752234303, 2.269698943633859e-05, 4), 3492109179),
            ((0.12857020276919962, 9.933709371044248e-05, 4), 3235571828),
            ((0.8282103036480889, 0.00048022231433367013, 3), 1664308282),
            ((0.04094403389477884, 9.933709371044248e-05, 5), 3539852736),
            ((0.17507705362053774, 9.933709371044248e-05, 4), 2549836301),
            ((0.12857020276919962, 2.2763746182136467e-05, 4), 2855785539),
            ((0.04094403389477884, 9.933709371044248e-05, 5), 2823611804),
            ((0.11927179001156459, 9.933709371044248e-05, 4), 4063126396),
            ((0.12857020276919962, 0.0010590490011697146, 4), 642059549),
            ((0.16135005634153993, 1.3861850604788158e-05, 3), 1408236669),
            ((0.12857020276919962, 9.933709371044248e-05, 4), 1197043922),
            ((0.12857020276919962, 9.293905835555066e-05, 4), 3265523952),
            ((0.046894133999092785, 0.0006329223890424563, 4), 3327671760),
            ((0.17507705362053774, 4.9895751644559774e-05, 4), 3482652393),
            ((0.046894133999092785, 0.0009047848340690374, 4), 2615007163),
            ((0.17507705362053774, 9.933709371044248e-05, 4), 1832049241),
            ((0.35403370941776857, 9.933709371044248e-05, 4), 352553586),
            ((0.27479425763711374, 4.9895751644559774e-05, 4), 4021737138),
            ((0.06601171631445313, 9.933709371044248e-05, 5), 1363136116),
        ]
        assert result.best_params == {"x": 0.27479425763711374, "g": 4.9895751644559774e-05,
                                      "n": 4}
        assert [(s.generation, s.best_fitness.hex(), s.mean_fitness.hex())
                for s in result.history] == [
            (0, "-0x1.3333333333333p+0", "-0x1.5333333333333p+1"),
            (1, "-0x1.999999999999ap-3", "-0x1.5999999999999p+0"),
            (2, "-0x1.999999999999ap-4", "-0x1.6666666666667p-1"),
            (3, "-0x1.999999999999ap-4", "-0x1.5555555555555p-1"),
            (4, "0x0.0p+0", "-0x1.ddddddddddddfp-2"),
        ]

    def test_a_later_tie_keeps_the_earlier_best(self):
        """Of equal best fitnesses across generations the first evaluated stays the best:
        with no elite carried over, every later generation ties generation 0's best with
        genomes of its own."""
        cfg = GAConfig(population=6, generations=4, elitism=0, mutation_rate=1.0, seed=5)
        result = ga_optimize(BOX, lambda params, seed: 1.0, cfg)
        first = result.history[0].best_params
        assert first == decode(np.random.default_rng(5).uniform(*np.array(
            [p.bounds() for p in BOX]).T), BOX)
        assert result.best_params == first
        assert [s.best_params for s in result.history] == [first] * 5

    def test_history_exposes_mean_and_params(self):
        result = ga_optimize(BOX, quadratic, GAConfig(generations=3, seed=0))
        assert isinstance(result, GAResult)
        for stats in result.history:
            assert stats.mean_fitness <= stats.best_fitness
            assert set(stats.best_params) == {"a", "b", "c"}
