"""Genetic-algorithm search over simulator parameters.

A generational real-valued GA: tournament selection, uniform crossover,
Gaussian mutation in scale-space, and elitism. Fitness callables receive
the decoded parameter assignment plus a per-evaluation seed derived from
(GA seed, generation, index), so results cannot depend on evaluation
order or parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spikeforge.errors import SpecError


@dataclass(frozen=True)
class ParamRange:
    """One tunable parameter: a config key path and its search box."""

    name: str
    lo: float
    hi: float
    scale: str = "linear"  # or "log"
    kind: str = "real"     # or "integer"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise SpecError("lo", f"{self.name}: need lo < hi, got {self.lo}, {self.hi}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise SpecError("lo", f"{self.name}: need finite bounds, got {self.lo}, {self.hi}")
        if self.scale not in ("linear", "log"):
            raise SpecError("scale", f"{self.name}: unknown scale {self.scale!r}")
        if self.kind not in ("real", "integer"):
            raise SpecError("kind", f"{self.name}: unknown kind {self.kind!r}")
        if self.scale == "log" and self.lo <= 0:
            raise SpecError("lo", f"{self.name}: log scale requires lo > 0, got {self.lo}")
        if self.kind == "integer" and math.ceil(self.lo) > math.floor(self.hi):
            raise SpecError(
                "lo", f"{self.name}: integer range [{self.lo}, {self.hi}] holds no integer")

    def bounds(self) -> tuple[float, float]:
        """Search bounds in gene (scale) space."""
        if self.scale == "log":
            return math.log(self.lo), math.log(self.hi)
        return self.lo, self.hi

    def decode_gene(self, gene: float) -> float | int:
        value = math.exp(gene) if self.scale == "log" else gene
        value = min(max(value, self.lo), self.hi)  # exp/log round-trip can overshoot
        if self.kind == "integer":
            r = math.floor(value + 0.5)  # round half-up
            return int(min(max(r, math.ceil(self.lo)), math.floor(self.hi)))
        return value


@dataclass(frozen=True)
class GAConfig:
    population: int = 20
    generations: int = 15
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_sigma: float = 0.1  # fraction of each gene's scale-space range
    elitism: int = 1
    tournament_size: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < self.elitism + 1:
            raise SpecError(
                "population", f"population {self.population} must exceed elitism {self.elitism}")
        if self.tournament_size < 2:
            raise SpecError("tournament_size",
                            f"tournament_size must be >= 2, got {self.tournament_size}")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SpecError(name, f"{name} must be in [0, 1], got {v}")
        for name in ("generations", "elitism"):
            if getattr(self, name) < 0:
                raise SpecError(name, "generations and elitism must be non-negative")
        if not 0 <= self.mutation_sigma < math.inf:
            raise SpecError("mutation_sigma", "mutation_sigma must be finite and >= 0, "
                            f"got {self.mutation_sigma}")


def decode(genome: np.ndarray, space: list[ParamRange]) -> dict:
    """Genome (scale-space vector) to named parameter assignment."""
    if len(genome) != len(space):
        raise ValueError(f"genome length {len(genome)} != space size {len(space)}")
    return {p.name: p.decode_gene(float(g)) for p, g in zip(space, genome)}


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_params: dict


@dataclass
class GAResult:
    best_params: dict
    best_fitness: float
    history: list[GenerationStats] = field(default_factory=list)

    @property
    def best_fitness_history(self) -> list[float]:
        return [s.best_fitness for s in self.history]


def evaluation_seed(ga_seed: int, generation: int, index: int) -> int:
    """Stable per-evaluation sub-seed; independent of evaluation order."""
    return int(np.random.SeedSequence([ga_seed, generation, index]).generate_state(1)[0])


def ga_optimize(space: list[ParamRange], fitness, cfg: GAConfig = GAConfig()) -> GAResult:
    """Maximize fitness(params, seed) over the box defined by space.

    The population is a list of genomes and a parallel list of scores, None until
    scored. Each generation keeps the elites with their scores, breeds the rest,
    scores the unscored genomes in index order and records the best ever evaluated.
    With elitism >= 1 the best fitness per generation never decreases.
    """
    if not space:
        raise ValueError("parameter space is empty")
    rng = np.random.default_rng(cfg.seed)
    lows, highs = np.array([p.bounds() for p in space]).T
    sigmas = cfg.mutation_sigma * (highs - lows)
    genomes = [rng.uniform(lows, highs) for _ in range(cfg.population)]
    scores: list[float | None] = [None] * cfg.population
    history: list[GenerationStats] = []
    for generation in range(cfg.generations + 1):
        if generation:
            pool, pool_scores, elites = genomes, scores, order[:cfg.elitism]
            genomes = [pool[k] for k in elites]
            scores = [pool_scores[k] for k in elites] + [None] * (cfg.population - cfg.elitism)
            while len(genomes) < cfg.population:
                # two tournaments; of equal scores the first drawn wins
                a, b = (pool[max([int(rng.integers(cfg.population))
                                  for _ in range(cfg.tournament_size)],
                                 key=pool_scores.__getitem__)] for _ in range(2))
                if rng.random() < cfg.crossover_rate:
                    pick = rng.random(len(space)) < 0.5
                    a, b = np.where(pick, a, b), np.where(pick, b, a)
                for child in (a, b)[:cfg.population - len(genomes)]:
                    mutate = rng.random(len(space)) < cfg.mutation_rate
                    noise = rng.normal(0.0, 1.0, len(space)) * sigmas
                    genomes.append(np.clip(np.where(mutate, child + noise, child), lows, highs))
        for idx, genome in enumerate(genomes):
            if scores[idx] is None:
                params = decode(genome, space)
                try:
                    scores[idx] = float(fitness(params, evaluation_seed(cfg.seed, generation, idx)))
                    if math.isnan(scores[idx]):  # a tournament drawing it first would keep it
                        raise ValueError("fitness is nan")
                except Exception as err:
                    raise RuntimeError(
                        f"fitness evaluation failed for {params}: {err}") from err
        order = np.argsort(-np.array(scores), kind="stable")
        if not history or scores[order[0]] > best_score:
            best, best_score = genomes[order[0]], scores[order[0]]
        history.append(GenerationStats(
            generation, best_score, float(np.mean(scores)), decode(best, space)))
    return GAResult(decode(best, space), best_score, history)
