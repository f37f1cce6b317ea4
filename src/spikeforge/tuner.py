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


@dataclass
class Individual:
    genome: np.ndarray
    fitness: float | None = None


def decode(individual: Individual | np.ndarray, space: list[ParamRange]) -> dict:
    """Genome (scale-space vector) to named parameter assignment."""
    genome = individual.genome if isinstance(individual, Individual) else individual
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

    Returns the best individual ever evaluated and per-generation stats.
    With elitism >= 1 the best fitness per generation never decreases.
    """
    if not space:
        raise ValueError("parameter space is empty")
    rng = np.random.default_rng(cfg.seed)
    lows = np.array([p.bounds()[0] for p in space])
    highs = np.array([p.bounds()[1] for p in space])
    sigmas = cfg.mutation_sigma * (highs - lows)

    population = [Individual(rng.uniform(lows, highs)) for _ in range(cfg.population)]

    def evaluate(generation: int):
        for idx, ind in enumerate(population):
            if ind.fitness is not None:
                continue
            params = decode(ind, space)
            seed = evaluation_seed(cfg.seed, generation, idx)
            try:
                ind.fitness = float(fitness(params, seed))
            except Exception as err:
                raise RuntimeError(
                    f"fitness evaluation failed for {params}: {err}") from err

    def ranked() -> list[int]:
        scores = np.array([ind.fitness for ind in population])
        return list(np.argsort(-scores, kind="stable"))

    def tournament() -> Individual:
        best = None
        for _ in range(cfg.tournament_size):
            ind = population[int(rng.integers(cfg.population))]
            if best is None or ind.fitness > best.fitness:
                best = ind
        return best

    history: list[GenerationStats] = []
    best_ever: Individual | None = None

    def record(generation: int):
        nonlocal best_ever
        order = ranked()
        top = population[order[0]]
        if best_ever is None or top.fitness > best_ever.fitness:
            best_ever = Individual(top.genome.copy(), top.fitness)
        history.append(GenerationStats(
            generation, best_ever.fitness,
            float(np.mean([ind.fitness for ind in population])),
            decode(best_ever, space)))
        return order

    evaluate(0)
    order = record(0)
    for generation in range(1, cfg.generations + 1):
        next_pop = [Individual(population[k].genome.copy(), population[k].fitness)
                    for k in order[:cfg.elitism]]
        while len(next_pop) < cfg.population:
            a, b = tournament(), tournament()
            if rng.random() < cfg.crossover_rate:
                pick = rng.random(len(space)) < 0.5
                child_a = np.where(pick, a.genome, b.genome)
                child_b = np.where(pick, b.genome, a.genome)
            else:
                child_a, child_b = a.genome.copy(), b.genome.copy()
            for child in (child_a, child_b):
                if len(next_pop) >= cfg.population:
                    break
                mutate = rng.random(len(space)) < cfg.mutation_rate
                noise = rng.normal(0.0, 1.0, len(space)) * sigmas
                genome = np.clip(np.where(mutate, child + noise, child), lows, highs)
                next_pop.append(Individual(genome))
        population = next_pop
        evaluate(generation)
        order = record(generation)
    return GAResult(decode(best_ever, space), best_ever.fitness, history)
