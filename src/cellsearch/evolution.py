"""Aging evolution over the cell space.

The population is a FIFO queue of fixed capacity: every cycle one child
(mutated from a tournament-selected parent) joins on the right and the
oldest individual falls off the left, regardless of fitness. The final
answer is the best individual ever seen in the history, not the best
survivor.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Annotated, NamedTuple

from . import cellspace
from .cellspace import ModelSpec, SpaceLimits
from .errors import ConfigError, ExhaustedError, In, check_fields
from .oracle import SimClock
from .traces import SearchTrace


class Individual(NamedTuple):
    """An unpruned genome, mutation's material, and the cell it denotes."""

    genome: ModelSpec
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
        ind = Individual(cell, cell, fitness.evaluate(cell), len(history))
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


def run_evolution(cfg: EvolutionConfig, limits: SpaceLimits, seed: int, fitness, clock: SimClock):
    """Initialize, evolve until the history holds `cycles` individuals, and
    return (best-ever individual, trace, history). `seed` drives every
    random draw; cells stay within `limits`. `clock` is the one the fitness
    charges, if any; it only stamps the trace rows here.

    The trace gets one row after initialization (index 0) and one per cycle;
    the true-accuracy column is filled in oracle mode, where fitness IS the
    measured accuracy, and left unknown in predictor mode.
    """
    rng = random.Random(seed)
    population, history = init_population(cfg, limits, fitness, rng)
    best = max(history, key=Individual.key)
    trace = SearchTrace()
    true_known = fitness.mode == "ORACLE"

    def record(index: int) -> None:
        trace.append(
            index,
            clock.elapsed_s,
            best.fitness if true_known else None,
            best.fitness,
        )

    record(0)
    for cycle in range(1, cfg.cycles - cfg.population_size + 1):
        evolve_cycle(population, history, cfg, limits, fitness, rng)
        # the child is the youngest, so this is key() > best.key()
        if history[-1].fitness >= best.fitness:
            best = history[-1]
        record(cycle)
    return best, trace, history
