"""Aging evolution over the cell space.

The population is a FIFO queue of fixed capacity: every cycle one child
(mutated from a tournament-selected parent) joins on the right and the
oldest individual falls off the left, regardless of fitness. The final
answer is the best individual ever seen in the history, not the best
survivor. The loop records nothing but its history: the fitness it is handed
pays for what it evaluates, and the caller reads the run's trace off that
payment (a ground-truth run) or off the history (a predictor-guided one).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Annotated, NamedTuple

from . import cellspace
from .cellspace import ModelSpec, SpaceLimits
from .errors import ConfigError, ExhaustedError, In, check_fields


class Individual(NamedTuple):
    """An unpruned genome (num_vertices, mask, ops), mutation's material, and its cell."""

    genome: tuple
    cell: ModelSpec
    fitness: float
    birth_index: int

    def key(self) -> tuple:
        # Ties in fitness go to the younger individual, biasing search
        # toward recent genomes.
        return (self.fitness, self.birth_index)


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 50
    sample_size: Annotated[int, In("[1, inf)")] = 10
    cycles: int = 2000

    def __post_init__(self):
        check_fields(self)
        if self.sample_size > self.population_size:
            raise ConfigError(f"sample_size {self.sample_size} must be at most population_size")
        if self.cycles < self.population_size:
            raise ConfigError("cycles must be at least population_size")


def init_population(cfg: EvolutionConfig, limits: SpaceLimits, fitness, rng: random.Random):
    """Fill the queue with random architectures, evaluating each."""
    population: deque[Individual] = deque()
    history: list[Individual] = []
    while len(population) < cfg.population_size:
        cell = cellspace.random_spec(rng, limits)
        genome = (cell.num_vertices, cell.mask, cell.ops)
        ind = Individual(genome, cell, fitness.evaluate(cell), len(history))
        population.append(ind)
        history.append(ind)
    return population, history


def tournament_select(population, sample_size: int, rng: random.Random) -> Individual:
    """Best of `sample_size` members drawn uniformly with replacement."""
    best = None
    for i in cellspace.below(rng, len(population), sample_size):
        candidate = population[i]
        fitness = candidate.fitness
        # key() compared field by field; a whole-key tie keeps the first drawn
        if best is None or fitness > best_fitness or (
            fitness == best_fitness and candidate.birth_index > best.birth_index
        ):
            best, best_fitness = candidate, fitness
    return best


def evolve_cycle(
    population, history, cfg: EvolutionConfig, limits: SpaceLimits, fitness, rng
) -> None:
    """One aging-evolution step: select, mutate, evaluate, age out."""
    parent = tournament_select(population, cfg.sample_size, rng)
    try:
        genome, cell = cellspace.mutate(parent.genome, rng, limits)
    except ExhaustedError as exc:
        parent_hash = cellspace.canonical_hash(parent.cell)
        raise ExhaustedError(
            f"mutation stuck at cycle {len(history)} (parent {parent_hash}): {exc}"
        ) from exc
    child = Individual(genome, cell, fitness.evaluate(cell), len(history))
    population.append(child)
    history.append(child)
    population.popleft()


def run_evolution(cfg: EvolutionConfig, limits: SpaceLimits, seed: int, fitness) -> list[Individual]:
    """Initialize, then evolve until the history holds `cycles` individuals,
    and return that history in birth order; its best-ever individual is
    `max(history, key=Individual.key)`. `seed` drives every random draw;
    cells stay within `limits`."""
    rng = random.Random(seed)
    population, history = init_population(cfg, limits, fitness, rng)
    for _ in range(cfg.cycles - cfg.population_size):
        evolve_cycle(population, history, cfg, limits, fitness, rng)
    return history
