"""Aging-evolution loop: selection distribution, FIFO aging, history-max
semantics, the paid log's accounting, and end-to-end optimum discovery."""

import math
import random
from collections import deque

import pytest

from cellsearch import cellspace
from cellsearch.cellspace import ModelSpec, OpLabel, SpaceLimits
from cellsearch.errors import ConfigError, ExhaustedError
from cellsearch.evolution import (
    EvolutionConfig,
    Individual,
    evolve_cycle,
    init_population,
    run_evolution,
    tournament_select,
)
from cellsearch.oracle import PaidQueries, SyntheticOracle, synth_record

from conftest import make_spec

LIMITS = SpaceLimits(5, 9)


class ScriptedFitness:
    """Returns a fixed sequence of fitness values."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def evaluate(self, spec):
        value = self.values[self.calls]
        self.calls += 1
        return value


class FreeFitness:
    """Predictor-style fitness: a fresh draw per call, paying for nothing."""

    def __init__(self, rng):
        self.rng = rng

    def evaluate(self, spec):
        return self.rng.random()


def _population_of(fitnesses):
    spec = ModelSpec.from_edges(2, ((0, 1),), (OpLabel.IN, OpLabel.OUT))
    return deque(
        Individual(spec, spec, f, birth_index=i)
        for i, f in enumerate(fitnesses)
    )


# ---------------------------------------------------------------------------
# tournament selection


def test_tournament_distribution_matches_exact_enumeration():
    # S draws with replacement from n members: the rank-k member (k=1 best)
    # wins with probability ((n-k+1)^S - (n-k)^S) / n^S.
    n, s, trials = 4, 2, 100_000
    population = _population_of([0.1, 0.4, 0.2, 0.3])
    ranked = sorted(population, key=Individual.key, reverse=True)
    exact = {
        ind.birth_index: ((n - k) ** s - (n - k - 1) ** s) / n**s
        for k, ind in enumerate(ranked)
    }
    rng = random.Random(77)
    counts = {i: 0 for i in range(n)}
    for _ in range(trials):
        winner = tournament_select(population, s, rng)
        counts[winner.birth_index] += 1
    for i in range(n):
        p = exact[i]
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[i] / trials - p) < 3 * sigma, (
            f"member {i}: observed {counts[i] / trials:.4f}, exact {p:.4f}"
        )


def test_tournament_s_equals_one_is_uniform():
    population = _population_of([0.1, 0.9])
    rng = random.Random(3)
    trials = 50_000
    hits = sum(
        tournament_select(population, 1, rng).birth_index == 0 for _ in range(trials)
    )
    sigma = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) < 3 * sigma


def test_tournament_tie_goes_to_younger():
    population = _population_of([0.5, 0.5])
    # 8 draws from 2 members: both appear with prob 1 - 2^-7; seeded, so
    # deterministic. The younger (birth_index 1) must win the tie.
    winner = tournament_select(population, 8, random.Random(0))
    assert winner.birth_index == 1


def _frozen_tournament_select(population, sample_size, rng):
    """tournament_select as it was, drawing by index from a list copy and
    calling key() on every comparison: the reference for its winner and
    its calls on `rng`."""
    members = list(population)
    best = None
    for _ in range(sample_size):
        candidate = members[rng.randrange(len(members))]
        if best is None or candidate.key() > best.key():
            best = candidate
    return best


@pytest.mark.parametrize("limits", [(4, 9), (5, 9), (7, 9)])
def test_tournament_equals_the_list_copying_reference(limits):
    # few fitness values and few birth indices: ties in fitness, and ties
    # in the whole key between distinct members, where the first drawn wins
    limits = SpaceLimits(*limits)
    make = random.Random(2)
    cells = [cellspace.random_spec(make, limits) for _ in range(60)]
    ours, theirs = random.Random(3), random.Random(3)
    key_ties = 0
    for _ in range(2_000):
        population = deque(
            Individual(cell, cell, make.choice((0.5, 0.6, 0.7)), make.randrange(8))
            for cell in make.sample(cells, make.randint(1, 50))
        )
        sample_size = make.randint(1, len(population))
        winner = tournament_select(population, sample_size, ours)
        assert winner is _frozen_tournament_select(population, sample_size, theirs)
        assert ours.getstate() == theirs.getstate()
        key_ties += sum(ind.key() == winner.key() for ind in population) > 1
    assert key_ties > 200, key_ties


def test_tournament_single_member():
    population = _population_of([0.42])
    assert tournament_select(population, 1, random.Random(0)).fitness == 0.42


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_sample_size():
    with pytest.raises(ConfigError):
        EvolutionConfig(population_size=10, sample_size=0, cycles=100)
    with pytest.raises(ConfigError):
        EvolutionConfig(population_size=10, sample_size=11, cycles=100)


def test_config_rejects_cycles_below_population():
    with pytest.raises(ConfigError):
        EvolutionConfig(population_size=10, sample_size=2, cycles=9)


# ---------------------------------------------------------------------------
# aging / history semantics


def test_population_is_fifo_window_of_history():
    cfg = EvolutionConfig(population_size=5, sample_size=2, cycles=30)
    rng = random.Random(1)
    fitness = PaidQueries(SyntheticOracle())
    population, history = init_population(cfg, LIMITS, fitness, rng)
    for _ in range(12):
        evolve_cycle(population, history, cfg, LIMITS, fitness, rng)
    assert len(history) == 17
    assert [ind.birth_index for ind in population] == list(range(12, 17))


def test_run_returns_history_max_even_after_aging_out():
    values = [0.9, 0.1, 0.2, 0.3, 0.35, 0.4]
    cfg = EvolutionConfig(population_size=3, sample_size=2, cycles=6)
    history = run_evolution(cfg, LIMITS, 0, ScriptedFitness(values))
    best = max(history, key=Individual.key)
    assert best.fitness == 0.9 and best.birth_index == 0
    # the champion has aged out: every survivor is strictly worse
    final_window = history[-cfg.population_size :]
    assert max(ind.fitness for ind in final_window) == 0.4


class TiedFitness:
    """Fitness with few values: `levels` of them, picked by a cell's edge
    count."""

    def __init__(self, levels):
        self.levels = levels

    def evaluate(self, cell):
        return self.levels[cell.num_edges % len(self.levels)]


@pytest.mark.parametrize("levels", [(0.5,), (0.2, 0.7, 0.4)])
@pytest.mark.parametrize("limits", [(4, 9), (5, 9)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_returns_the_key_maximum_of_its_history_under_ties(levels, limits, seed):
    # with ties in fitness, the best is the youngest of the fittest
    cfg = EvolutionConfig(population_size=10, sample_size=3, cycles=300)
    history = run_evolution(cfg, SpaceLimits(*limits), seed, TiedFitness(levels))
    assert [ind.birth_index for ind in history] == list(range(cfg.cycles))
    assert all(ind.fitness == levels[ind.cell.num_edges % len(levels)] for ind in history)
    fittest = max(ind.fitness for ind in history)
    youngest = [ind for ind in history if ind.fitness == fittest][-1]
    assert max(history, key=Individual.key) is youngest


def test_cycles_equal_population_does_no_evolution():
    cfg = EvolutionConfig(population_size=4, sample_size=2, cycles=4)
    fitness = ScriptedFitness([0.1, 0.2, 0.3, 0.25])
    history = run_evolution(cfg, LIMITS, 0, fitness)
    assert len(history) == 4 and fitness.calls == 4
    assert max(history, key=Individual.key).fitness == 0.3


def test_trace_shape_and_monotonicity():
    # the run's trace is its paid log: one row per paid query, numbered from 1
    cfg = EvolutionConfig(population_size=5, sample_size=3, cycles=40)
    paid = PaidQueries(SyntheticOracle())
    history = run_evolution(cfg, LIMITS, 2, paid)
    trace = paid.trace
    assert len(trace.rows) == paid.evaluations == len(history) - paid.memo_hits
    assert [r.index for r in trace.rows] == list(range(1, len(trace.rows) + 1))
    fits = [r.best for r in trace.rows]
    assert fits == sorted(fits)
    assert trace.rows[-1].best == max(history, key=Individual.key).fitness
    assert trace.rows[-1].sim_seconds == paid.sim_seconds


def test_predictor_mode_leaves_clock_and_true_column_alone():
    # the loop reads its fitness through one evaluate call per individual,
    # in birth order, and keeps no clock or trace of its own
    cfg = EvolutionConfig(population_size=5, sample_size=2, cycles=25)
    history = run_evolution(cfg, LIMITS, 3, FreeFitness(random.Random(5)))
    replay = random.Random(5)
    assert [ind.fitness for ind in history] == [replay.random() for _ in range(cfg.cycles)]


# ---------------------------------------------------------------------------
# clock accounting


def test_clock_charges_each_distinct_phenotype_once():
    cfg = EvolutionConfig(population_size=10, sample_size=3, cycles=120)
    oracle = SyntheticOracle()
    fitness = PaidQueries(oracle)
    history = run_evolution(cfg, LIMITS, 4, fitness)
    expected = 0.0
    seen = set()
    for ind in history:
        assert ind.cell == cellspace.phenotype_of(*ind.genome, LIMITS)
        digest = cellspace.canonical_hash(ind.cell)
        if digest not in seen:
            seen.add(digest)
            expected += synth_record(ind.cell, oracle.params).train_time_s
    # the histories hold unpruned genomes beside their cells
    assert any(ModelSpec(*ind.genome) != ind.cell for ind in history)
    assert fitness.sim_seconds == expected
    assert fitness.evaluations == len(seen)
    assert fitness.memo_hits == len(history) - len(seen)


# ---------------------------------------------------------------------------
# determinism & export


def test_same_seed_reproduces_run_exactly():
    cfg = EvolutionConfig(population_size=8, sample_size=3, cycles=60)

    def one():
        fitness = PaidQueries(SyntheticOracle())
        history = run_evolution(cfg, LIMITS, 7, fitness)
        return fitness.trace.to_csv_lines(), history, max(history, key=Individual.key)

    lines_a, hist_a, best_a = one()
    lines_b, hist_b, best_b = one()
    assert lines_a == lines_b
    assert hist_a == hist_b
    assert best_a == best_b


def test_different_seed_diverges():
    def run(seed):
        cfg = EvolutionConfig(population_size=8, sample_size=3, cycles=60)
        fitness = PaidQueries(SyntheticOracle())
        run_evolution(cfg, LIMITS, seed, fitness)
        return fitness.trace.to_csv_lines()

    assert run(7) != run(8)


# ---------------------------------------------------------------------------
# failure propagation


def test_exhausted_mutation_reports_cycle():
    cfg = EvolutionConfig(population_size=1, sample_size=1, cycles=2)
    # the only cell at (2,1), whose hash the message takes from parent.cell
    only = cellspace.canonical_hash(ModelSpec.from_edges(2, ((0, 1),), (OpLabel.IN, OpLabel.OUT)))
    with pytest.raises(ExhaustedError, match=rf"cycle 1 \(parent {only}\)"):
        run_evolution(cfg, SpaceLimits(2, 1), 0, PaidQueries(SyntheticOracle()))


# ---------------------------------------------------------------------------
# search quality (quick split of the headline experiment; the full ten-seed
# version lives in the acceptance suite)


def test_evolution_finds_global_optimum_small_seeds():
    limits = SpaceLimits(5, 9)
    oracle = SyntheticOracle()
    specs = cellspace.enumerate_space(limits)
    opt_acc = max(synth_record(s, oracle.params).val_accuracy for s in specs)
    found = 0
    for seed in range(3):
        cfg = EvolutionConfig(population_size=50, sample_size=10, cycles=2000)
        history = run_evolution(cfg, limits, seed, PaidQueries(oracle))
        found += max(ind.fitness for ind in history) >= opt_acc - 1e-12
    assert found == 3
