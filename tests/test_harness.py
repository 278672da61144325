"""Experiment orchestration: config plumbing, the labeling pipeline, top-k
revalidation, run summaries, and speedup comparison."""

import itertools
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from cellsearch import cellspace, harness
from cellsearch.cellspace import ModelSpec, OpLabel, SpaceLimits
from cellsearch.errors import ConfigError, ExhaustedError, InvalidSpecError, ParseError
from cellsearch.evolution import EvolutionConfig, run_evolution
from cellsearch.harness import (
    CompareReport,
    ExperimentConfig,
    RunSummary,
    compare_runs,
    effective_label_threshold,
    label_random_specs,
    read_labeled,
    read_summary,
    run_experiment,
    run_predictor_pipeline,
    synthetic_optimum,
    topk_revalidate,
    write_labeled,
    write_summary,
)
from cellsearch.oracle import (
    DEFAULT_LABEL_THRESHOLD,
    BenchmarkRecord,
    BenchmarkTable,
    PaidQueries,
    SyntheticOracle,
    SyntheticOracleParams,
    dump_table_lines,
    load_table,
    synth_record,
    synthetic_label_threshold,
)
from cellsearch.predictor import (
    PredictorFitness, RnnParams, TrainConfig, heldout_count, stratified_split,
)
from cellsearch.reinforce import DecisionSchedule, ReinforceConfig, run_reinforce
from cellsearch.traces import SearchTrace, TraceRow, read_trace, write_trace

from conftest import LOOSE_SPEC_OBJECTS, phenotype

OPTIMUM_HASH_5_9 = "e6f50a3dbee0bfeee91f33fa572fccd4"


def small_cfg(**kw):
    """A fast predictor-pipeline config on the 91-class (4,9) space."""
    defaults = dict(
        algo="EVOLUTION",
        fitness="PREDICTOR",
        limits=SpaceLimits(4, 9),
        n_label=60,
        top_k=5,
        seed=0,
        evolution=EvolutionConfig(population_size=20, sample_size=5, cycles=150),
        predictor=TrainConfig(epochs=80),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(algo="GRADIENT_DESCENT")
    with pytest.raises(ConfigError):
        ExperimentConfig(fitness="LUCK")
    with pytest.raises(ConfigError):
        ExperimentConfig(oracle_source="FILE")  # no table_path
    with pytest.raises(ConfigError):
        ExperimentConfig(fitness="PREDICTOR", n_label=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(label_charge=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(label_charge=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(top_k=0)


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        algo="REINFORCE",
        fitness="PREDICTOR",
        limits=SpaceLimits(5, 8),
        oracle_source="SYNTHETIC",
        synthetic=SyntheticOracleParams(base_accuracy=0.5, jitter_scale=0.01),
        n_label=123,
        label_charge=0.25,
        label_threshold=0.81,
        top_k=4,
        seed=99,
        evolution=EvolutionConfig(population_size=10, sample_size=3, cycles=40),
        reinforce=ReinforceConfig(batch_size=8, iterations=12, learning_rate=0.02),
        predictor=TrainConfig(epochs=50, hidden_size=8),
    )
    obj = json.loads(json.dumps(cfg.to_json_obj(), sort_keys=True))
    assert ExperimentConfig.from_json_obj(obj) == cfg


def test_config_rejects_unknown_keys():
    obj = ExperimentConfig().to_json_obj()
    obj["tpu_pods"] = 512
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_obj(obj)
    # malformed or out-of-range nested objects are config errors naming the key
    for bad in (
        {"evolution": {"populaton_size": 5}},
        {"evolution": {"population_size": 10, "sample_size": 20}},
        {"evolution": {"population_size": 10, "cycles": 5}},
        {"reinforce": {"iterations": -1}},
        {"predictor": {"heldout_fraction": 1.5}},
        {"synthetic": {"base_acc": 0.5}},
        {"limits": {"max_vertices": 1, "max_edges": 9}},
        {"limits": {"max_vertices": 5}},
        # an unknown entry was dropped, so this ran as (5,9)
        {"limits": {"max_vertices": 5, "max_edges": 9, "bogus": 1}},
        {"limits": [5, 9]},
    ):
        (key,) = bad
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json_obj(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_obj([{"algo": "EVOLUTION"}])
    # limits entries must be integers: none is coerced, so 9.7 is not read as 9
    for loose in ({"max_vertices": "5", "max_edges": 9}, {"max_vertices": 5, "max_edges": 9.7},
                  {"max_vertices": 5, "max_edges": 9.0}, {"max_vertices": True, "max_edges": 9}):
        with pytest.raises(ConfigError, match="limits.*must be an integer"):
            ExperimentConfig.from_json_obj({"limits": loose})


def test_config_echo_schema():
    # summary.json echoes this object, so its key set and defaults are part
    # of the file format
    obj = ExperimentConfig().to_json_obj()
    nested = ("limits", "synthetic", "evolution", "reinforce", "predictor")
    assert {k: v for k, v in obj.items() if k not in nested} == {
        "algo": "EVOLUTION",
        "fitness": "ORACLE",
        "oracle_source": "SYNTHETIC",
        "table_path": None,
        "n_label": 400,
        "label_charge": 1.0,
        "label_threshold": None,
        "top_k": 10,
        "seed": 0,
    }
    assert obj["limits"] == {"max_vertices": 7, "max_edges": 9}
    assert obj["synthetic"] == {
        "base_accuracy": 0.62,
        "conv3x3_gain": 0.045,
        "conv1x1_gain": 0.030,
        "maxpool_gain": 0.010,
        "depth_gain": 0.015,
        "edge_penalty": 0.004,
        "accuracy_cap": 0.95,
        "jitter_scale": 0.02,
        "time_base_s": 200.0,
        "time_conv3x3_s": 300.0,
        "time_conv1x1_s": 150.0,
        "time_maxpool_s": 60.0,
        "time_edge_s": 40.0,
    }
    assert obj["evolution"] == {"population_size": 50, "sample_size": 10, "cycles": 2000}
    assert obj["reinforce"] == {
        "batch_size": 20,
        "iterations": 50,
        "learning_rate": 0.005,
        "hidden_size": 32,
        "emb_dim": 8,
        "init_scale": 0.1,
        "beta": 0.9,
    }
    assert obj["predictor"] == {
        "learning_rate": 0.2,
        "epochs": 200,
        "hidden_size": 16,
        "init_scale": 0.4,
        "heldout_fraction": 0.2,
        "target_positive_share": 0.2,
    }


def test_effective_threshold_rules():
    explicit = ExperimentConfig(label_threshold=0.73)
    assert effective_label_threshold(explicit) == 0.73
    synth = ExperimentConfig(limits=SpaceLimits(4, 9))
    assert effective_label_threshold(synth) == synthetic_label_threshold(
        synth.synthetic, synth.limits
    )
    filed = ExperimentConfig(
        oracle_source="FILE", table_path="whatever.jsonl"
    )
    assert effective_label_threshold(filed) == DEFAULT_LABEL_THRESHOLD


def test_synthetic_optimum_matches_enumeration():
    params = SyntheticOracleParams()
    limits = SpaceLimits(5, 9)
    spec, record = synthetic_optimum(params, limits)
    assert record.spec_hash == OPTIMUM_HASH_5_9
    best = max(
        synth_record(s, params).val_accuracy
        for s in cellspace.enumerate_space(limits)
    )
    assert record.val_accuracy == best
    assert cellspace.canonical_hash(spec) == record.spec_hash


# ---------------------------------------------------------------------------
# labeling


def _paid():
    """A query log over the default synthetic oracle."""
    return PaidQueries(SyntheticOracle())


def test_paid_queries_charge_and_keep_the_first_best():
    a, b, c = _three_cells()
    table = BenchmarkTable(
        {
            cellspace.canonical_hash(spec): BenchmarkRecord(
                cellspace.canonical_hash(spec), acc, 100.0
            )
            for spec, acc in ((a, 0.5), (b, 0.7), (c, 0.7))
        }
    )
    paid = PaidQueries(table)
    for spec, charge in ((a, 1.0), (b, 0.5), (c, 1.0)):
        paid.query(spec, cellspace.canonical_hash(spec), charge)
    # a tie does not replace the best: c matches b's 0.7 and b stays
    assert paid.best == (b, cellspace.canonical_hash(b), 0.7)
    assert paid.trace.rows == [
        TraceRow(1, 100.0, 0.5),
        TraceRow(2, 150.0, 0.7),
        TraceRow(3, 250.0, 0.7),
    ]


def test_fitness_adapters_refuse_a_genome_and_record_nothing():
    # both adapters take cells: a genome with a dormant, half-connected
    # vertex is refused before anything is charged, logged or memoized
    genome = ModelSpec.from_edges(
        4,
        ((0, 1), (0, 2), (1, 3)),
        (OpLabel.IN, OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.OUT),
    )
    paid = _paid()
    guided = PredictorFitness(RnnParams.seeded(0))
    for _ in range(2):
        with pytest.raises(InvalidSpecError, match="not a pruned, valid cell"):
            paid.evaluate(genome)
        with pytest.raises(InvalidSpecError, match="not a pruned, valid cell"):
            guided.evaluate(genome)
    assert paid.sim_seconds == 0.0
    assert (paid.trace.rows, paid.answers, paid.memo_hits, paid.best) == ([], {}, 0, None)
    assert guided.predictions == {}
    # the cell it denotes is scored as usual
    cell = phenotype(genome, SpaceLimits(4, 9))
    assert paid.evaluate(cell) == synth_record(cell, paid.oracle.params).val_accuracy
    assert guided.evaluate(cell) == guided.predictions[cell]


def test_ground_truth_summary_takes_the_first_paid_best_cell():
    for algo, search in (
        ("EVOLUTION", {"evolution": EvolutionConfig(population_size=10, cycles=80)}),
        ("REINFORCE", {"reinforce": ReinforceConfig(batch_size=4, iterations=15)}),
    ):
        cfg = ExperimentConfig(
            algo=algo, fitness="ORACLE", limits=SpaceLimits(4, 9), seed=2, **search
        )
        paid = PaidQueries(harness.build_oracle(cfg))
        if algo == "EVOLUTION":
            history = run_evolution(cfg.evolution, cfg.limits, cfg.seed, paid)
        else:
            schedule = DecisionSchedule.from_limits(cfg.limits)
            history = run_reinforce(cfg.reinforce, schedule, cfg.seed, paid).history
        # the cells in search order, each kept where it was first seen
        cells = {}
        for item in history:
            cell = item.cell if algo == "EVOLUTION" else item.spec
            if cell is not None:
                cells.setdefault(cellspace.canonical_hash(cell), cell)
        accs = {h: synth_record(cell, cfg.synthetic).val_accuracy for h, cell in cells.items()}
        first_best = next(h for h, acc in accs.items() if acc == max(accs.values()))
        assert paid.evaluations == len(cells)
        assert paid.best == (cells[first_best], first_best, accs[first_best])
        s = run_experiment(cfg).summary
        assert (s.best_spec, s.best_hash) == paid.best[:2]
        assert s.best_true_acc == paid.trace.rows[-1].best == paid.best[2]


def test_labeling_distinct_and_charged():
    cfg = ExperimentConfig(limits=SpaceLimits(4, 9), n_label=40, seed=5)
    paid = _paid()
    labeled, threshold = label_random_specs(cfg, paid, random.Random(5))
    assert len(labeled) == 40 and len(paid.trace.rows) == 40
    hashes = [cellspace.canonical_hash(spec) for spec, _ in labeled]
    assert len(set(hashes)) == 40
    expected_cost = sum(
        synth_record(spec, cfg.synthetic).train_time_s for spec, _ in labeled
    )
    assert paid.sim_seconds == pytest.approx(expected_cost)
    for spec, y in labeled:
        assert y == (1 if synth_record(spec, cfg.synthetic).val_accuracy > threshold else 0)


def test_labeling_partial_charge_scales_cost():
    cfg_full = ExperimentConfig(limits=SpaceLimits(4, 9), n_label=30, seed=1)
    cfg_half = replace(cfg_full, label_charge=0.5)
    full, half = _paid(), _paid()
    label_random_specs(cfg_full, full, random.Random(1))
    label_random_specs(cfg_half, half, random.Random(1))
    assert half.sim_seconds == pytest.approx(0.5 * full.sim_seconds)


def test_labeling_space_too_small():
    cfg = ExperimentConfig(limits=SpaceLimits(2, 1), n_label=2)
    with pytest.raises(ExhaustedError):
        label_random_specs(cfg, _paid(), random.Random(0))


def test_labeling_deterministic():
    cfg = ExperimentConfig(limits=SpaceLimits(4, 9), n_label=25, seed=8)
    a, _ = label_random_specs(cfg, _paid(), random.Random(8))
    b, _ = label_random_specs(cfg, _paid(), random.Random(8))
    assert [cellspace.canonical_hash(s) for s, _ in a] == [
        cellspace.canonical_hash(s) for s, _ in b
    ]


def test_pipeline_report_consistency(monkeypatch):
    # record what the pipeline hands the predictor's fit step
    fits = []
    real_fit = harness.predictor.fit

    def recording_fit(labeled, *args):
        out = real_fit(labeled, *args)
        fits.append((list(labeled), out[1]))
        return out

    monkeypatch.setattr(harness.predictor, "fit", recording_fit)
    cfg = small_cfg()
    paid = _paid()
    trained, labeling = run_predictor_pipeline(cfg, paid, random.Random(cfg.seed))
    assert len(fits) == 1
    pool, meta = fits[0]
    assert labeling["oracle_queries"] == cfg.n_label == len(paid.trace.rows)
    assert labeling["positives"] == sum(
        1 for spec, _ in pool
        if synth_record(spec, cfg.synthetic).val_accuracy > labeling["threshold"]
    )
    assert labeling["sim_seconds"] == paid.sim_seconds
    assert 0.0 <= labeling["heldout_accuracy"] <= 1.0
    assert trained.threshold_used == labeling["threshold"]
    assert trained.train_seed == cfg.seed
    # the split saw the whole pool: it held out its share of each class
    assert len(pool) == cfg.n_label
    assert meta["heldout_size"] == sum(
        heldout_count(cfg.predictor.heldout_fraction, k)
        for k in (labeling["positives"], cfg.n_label - labeling["positives"])
    )


def test_pipeline_needs_a_budget():
    # every config holds n_label to [2, inf), a ground-truth one too, since
    # a pool of one label is one class and can never train the predictor
    for fitness in ("ORACLE", "PREDICTOR"):
        for n_label in (1, 0, -1):
            with pytest.raises(ConfigError, match=r"n_label must lie in \[2, inf\)"):
                ExperimentConfig(fitness=fitness, n_label=n_label)
    # and a predictor config is refused exactly when some split of its pool
    # into two nonempty classes holds out nothing, or leaves training one
    # class, by the split's own rounding; a ground-truth run never splits
    # its pool
    refused = set()
    for fraction in (0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.95):
        for n_label in range(2, 41):
            splits = [
                stratified_split(
                    [(None, 1)] * k + [(None, 0)] * (n_label - k),
                    np.random.default_rng(0), fraction, 0.2,
                )
                for k in range(1, n_label)
            ]
            empty = any(not held for _, held, _ in splits)
            one_class = any({y for _, y in train} != {0, 1} for train, _, _ in splits)
            kw = dict(n_label=n_label, predictor=TrainConfig(heldout_fraction=fraction))
            ExperimentConfig(fitness="ORACLE", **kw)
            if empty or one_class:
                message = (f"n_label {n_label} can leave the held-out" if empty else
                           f"heldout_fraction {fraction!r} can leave training with one class")
                with pytest.raises(ConfigError, match=re.escape(message)):
                    ExperimentConfig(fitness="PREDICTOR", **kw)
                refused.add((fraction, n_label))
            else:
                ExperimentConfig(fitness="PREDICTOR", **kw)
    # at the default fraction that is a pool of 4 or fewer, and every
    # fraction above 0.5 is refused at every pool size
    assert {n for fraction, n in refused if fraction == 0.2} == {2, 3, 4}
    assert all((fraction, n) in refused for fraction in (0.7, 0.95) for n in range(2, 41))


# ---------------------------------------------------------------------------
# top-k revalidation


def _three_cells():
    mk = lambda op: ModelSpec.from_edges(3, ((0, 1), (1, 2)), (OpLabel.IN, op, OpLabel.OUT))
    return mk(OpLabel.CONV3X3), mk(OpLabel.CONV1X1), mk(OpLabel.MAXPOOL3X3)


def _two_drawings():
    """Two pruned cells of one 4-vertex class: parallel branches whose ops
    sit at swapped indices."""
    edges = ((0, 1), (0, 2), (1, 3), (2, 3))
    d1 = ModelSpec.from_edges(4, edges, (OpLabel.IN, OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.OUT))
    d2 = ModelSpec.from_edges(4, edges, (OpLabel.IN, OpLabel.CONV1X1, OpLabel.CONV3X3, OpLabel.OUT))
    assert d1 != d2 and cellspace.canonical_hash(d1) == cellspace.canonical_hash(d2)
    return d1, d2


def test_topk_one_charge_for_k_one():
    a, b, c = _three_cells()
    paid = _paid()
    hashes = topk_revalidate({a: 0.9, b: 0.5, c: 0.1}, 1, paid)
    assert len(hashes) == 1
    record = synth_record(a, SyntheticOracleParams())
    assert paid.sim_seconds == record.train_time_s
    _, best_hash, best_true_acc = paid.best
    assert best_hash == record.spec_hash
    assert best_true_acc == record.val_accuracy


def test_topk_ranks_by_best_score_per_hash():
    a, b, _ = _three_cells()
    d1, d2 = _two_drawings()
    # the class of d1/d2 ranks by its better drawing, d2's 0.95, above a's
    # 0.9; d2, not the first-scored d1, is the cell revalidated
    predictions = {d1: 0.2, a: 0.9, b: 0.5, d2: 0.95}
    assert topk_revalidate(predictions, 2, _paid()) == (
        cellspace.canonical_hash(d2),
        cellspace.canonical_hash(a),
    )
    paid = _paid()
    topk_revalidate(predictions, 1, paid)
    assert paid.best[0] == d2


def test_topk_clamps_to_distinct_count():
    a, b, c = _three_cells()
    d1, d2 = _two_drawings()
    paid = _paid()
    hashes = topk_revalidate({a: 0.9, d1: 0.3, b: 0.5, c: 0.1, d2: 0.2}, 100, paid)
    assert len(hashes) == 4 == len(paid.trace.rows)
    accs = [synth_record(s, SyntheticOracleParams()).val_accuracy for s in (a, b, c, d1)]
    assert paid.best[2] == max(accs)


def test_topk_tie_breaks_by_first_seen():
    a, b, _ = _three_cells()
    assert topk_revalidate({b: 0.7, a: 0.7}, 1, _paid())[0] == cellspace.canonical_hash(b)
    # a class ties from where it was first scored, not from its best drawing
    d1, d2 = _two_drawings()
    hashes = topk_revalidate({d1: 0.6, a: 0.8, d2: 0.8}, 1, _paid())
    assert hashes[0] == cellspace.canonical_hash(d1)


def test_topk_answers_a_class_labeled_in_full_from_the_log():
    # labeling paid this class's full training: revalidating it pays nothing
    a, b, _ = _three_cells()
    paid = _paid()
    for cell in (a, b):
        paid.query(cell, cellspace.canonical_hash(cell), 1.0)
    sim_s, rows, best = paid.sim_seconds, list(paid.trace.rows), paid.best
    assert topk_revalidate({a: 0.9}, 1, paid) == (cellspace.canonical_hash(a),)
    assert (paid.sim_seconds, paid.trace.rows, paid.best) == (sim_s, rows, best)
    assert paid.memo_hits == 1


def test_topk_pays_in_full_for_a_class_labeled_below_full_charge():
    a, _, _ = _three_cells()
    digest, record = cellspace.canonical_hash(a), synth_record(a, SyntheticOracleParams())
    paid = _paid()
    paid.query(a, digest, 0.5)
    topk_revalidate({a: 0.9}, 1, paid)
    assert paid.sim_seconds == 1.5 * record.train_time_s
    assert len(paid.trace.rows) == 2 and paid.memo_hits == 0
    assert paid.answers[digest] == (record, 1.0)
    # and once paid in full it is answered at any charge
    for charge in (1.0, 0.5, 0.0):
        assert paid.query(a, digest, charge) is record
    assert (paid.sim_seconds, len(paid.trace.rows), paid.memo_hits) == (
        1.5 * record.train_time_s, 2, 3,
    )


def test_revalidation_phase_counts_paid_queries_and_log_answers_apart(monkeypatch):
    # the classes revalidation finds in the log at full charge are answered
    # from it; every other ranked class is paid, and so is every one when
    # labels were charged at half
    seen = []
    real_topk = harness.topk_revalidate

    def recording_topk(predictions, k, paid):
        labeled = {digest for digest, (_, charge) in paid.answers.items() if charge == 1.0}
        ranked = real_topk(predictions, k, paid)
        seen.append((labeled, ranked))
        return ranked

    monkeypatch.setattr(harness, "topk_revalidate", recording_topk)
    counts = []
    for seed, charge in ((0, 1.0), (6, 1.0), (6, 0.5)):
        phase = run_experiment(small_cfg(seed=seed, label_charge=charge)).summary.phases[
            "revalidation"
        ]
        labeled, ranked = seen.pop()
        assert phase["memo_hits"] == len(labeled & set(ranked))
        assert phase["oracle_queries"] == len(set(ranked) - labeled)
        counts.append((phase["oracle_queries"], phase["memo_hits"]))
    # both kinds happen at full charge, and at half charge every class is paid
    (paid_0, logged_0), (paid_6, logged_6), (paid_half, logged_half) = counts
    assert paid_0 + paid_6 > 0 and logged_0 + logged_6 > 0
    assert logged_half == 0 and paid_half == len(ranked)


def test_labeling_draws_the_classes_of_a_distinct_by_hash_loop():
    # labeling skips a class the log already holds; on a fresh log that is
    # a loop over distinct hashes, which draws the same classes from the
    # same stream and leaves the rng where that loop leaves it
    cfg = ExperimentConfig(limits=SpaceLimits(4, 9), n_label=50, seed=3)
    rng, reference = random.Random(3), random.Random(3)
    labeled, _ = label_random_specs(cfg, _paid(), rng)
    seen = []
    while len(seen) < cfg.n_label:
        digest = cellspace.canonical_hash(cellspace.random_spec(reference, cfg.limits))
        if digest not in seen:
            seen.append(digest)
    assert [cellspace.canonical_hash(spec) for spec, _ in labeled] == seen
    assert rng.getstate() == reference.getstate()


def test_topk_rejects_bad_k():
    with pytest.raises(ConfigError):
        topk_revalidate({}, 0, _paid())


def test_topk_empty_history():
    paid = _paid()
    assert topk_revalidate({}, 3, paid) == ()
    assert paid.best is None and paid.trace.rows == []


def test_topk_accepts_sampled_arch_history_and_skips_invalid():
    # top-k ranks the predictor's memo, so REINFORCE's invalid samples must
    # never enter it: every class revalidated is one of a valid sample
    limits = SpaceLimits(5, 9)
    guided = PredictorFitness(RnnParams.seeded(0))
    result = run_reinforce(
        ReinforceConfig(batch_size=5, iterations=20),
        DecisionSchedule.from_limits(limits), 3, guided,
    )
    valid = [s.spec for s in result.history if not s.invalid]
    assert result.invalid_count > 0
    assert set(guided.predictions) == set(valid)
    assert all(phenotype(cell, limits) == cell for cell in guided.predictions)
    hashes = topk_revalidate(guided.predictions, len(result.history), _paid())
    assert set(hashes) == {cellspace.canonical_hash(s) for s in valid}


def test_topk_prunes_genomes():
    # evolution hands the predictor each unpruned genome's cell, so its
    # memo and top-k hold cells, never genomes
    limits = SpaceLimits(5, 9)
    guided = PredictorFitness(RnnParams.seeded(0))
    history = run_evolution(
        EvolutionConfig(population_size=20, sample_size=5, cycles=200), limits, 3, guided
    )
    cells = {ind.cell for ind in history}
    assert all(ind.cell == cellspace.phenotype_of(*ind.genome, limits) for ind in history)
    assert any(ModelSpec(*ind.genome) != ind.cell for ind in history)
    assert set(guided.predictions) == cells
    assert all(phenotype(cell, limits) == cell for cell in guided.predictions)
    paid = _paid()
    hashes = topk_revalidate(guided.predictions, len(history), paid)
    assert set(hashes) == {cellspace.canonical_hash(c) for c in cells}
    best_spec, best_hash, _ = paid.best
    assert best_spec in cells and best_hash == cellspace.canonical_hash(best_spec)


# ---------------------------------------------------------------------------
# summaries


def test_true_acc_improvements_tracks_strict_increases():
    trace = SearchTrace()
    trace.append(0, 10.0, 0.5)
    trace.append(1, 20.0, 0.5)
    trace.append(2, 40.0, 0.7)
    assert trace.validate() == ((10.0, 0.5), (40.0, 0.7))
    # each row creeps up by less than the tolerance; a rise counts from the
    # last improvement, so the third row is one and the second is not
    creeping = SearchTrace()
    for k, acc in enumerate((0.5, 0.5 + 6e-13, 0.5 + 1.2e-12)):
        creeping.append(k, 10.0 * k, acc)
    assert creeping.validate() == ((0.0, 0.5), (20.0, 0.5 + 1.2e-12))


def test_summary_cross_check_catches_tampering():
    result = run_experiment(
        ExperimentConfig(
            fitness="ORACLE",
            limits=SpaceLimits(4, 9),
            evolution=EvolutionConfig(population_size=10, sample_size=3, cycles=60),
            seed=2,
        )
    )
    result.summary.cross_check(result.trace)
    summary = result.summary
    summary.total_sim_seconds += 1.0
    with pytest.raises(ValueError):
        summary.cross_check(result.trace)
    summary.total_sim_seconds -= 1.0
    summary.improvements = summary.improvements[:-1]
    with pytest.raises(ValueError):
        summary.cross_check(result.trace)


def test_summary_cross_check_validates_the_trace():
    result = run_experiment(
        ExperimentConfig(
            fitness="ORACLE",
            limits=SpaceLimits(4, 9),
            evolution=EvolutionConfig(population_size=10, sample_size=3, cycles=60),
            seed=2,
        )
    )
    # row 2 falls below row 1; the last row, and so every summary total, stays
    rows = list(result.trace.rows)
    rows[0] = rows[0]._replace(sim_seconds=rows[-1].sim_seconds + 1.0)
    with pytest.raises(ValueError, match="sim_seconds decreases at row 2"):
        result.summary.cross_check(SearchTrace(rows))


def test_summary_file_round_trip(tmp_path):
    result = run_experiment(
        ExperimentConfig(
            fitness="ORACLE",
            limits=SpaceLimits(4, 9),
            evolution=EvolutionConfig(population_size=10, sample_size=3, cycles=50),
            seed=4,
        )
    )
    path = tmp_path / "summary.json"
    write_summary(result.summary, path)
    loaded = read_summary(path)
    assert loaded == result.summary
    loaded.cross_check(result.trace)


def test_summary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json\n")
    with pytest.raises(ParseError):
        read_summary(path)
    path.write_text("{}\n")
    with pytest.raises(ParseError):
        read_summary(path)


# ---------------------------------------------------------------------------
# whole runs


def test_ground_truth_run_bookkeeping():
    cfg = ExperimentConfig(
        fitness="ORACLE",
        limits=SpaceLimits(4, 9),
        evolution=EvolutionConfig(population_size=15, sample_size=4, cycles=120),
        seed=3,
    )
    result = run_experiment(cfg)
    s = result.summary
    assert s.labels == 0 and s.invalid_samples == 0
    assert s.evaluations + s.memo_hits == 120
    assert s.best_hash == cellspace.canonical_hash(s.best_spec)
    assert cellspace.validate(s.best_spec, cfg.limits).valid
    # 120 distinct-or-memoized queries, all full charge
    assert s.total_sim_seconds > 0


def test_ground_truth_run_deterministic():
    cfg = ExperimentConfig(
        fitness="ORACLE",
        limits=SpaceLimits(4, 9),
        evolution=EvolutionConfig(population_size=10, sample_size=3, cycles=80),
        seed=11,
    )
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a.summary == b.summary
    assert a.trace.to_csv_lines() == b.trace.to_csv_lines()


def test_reinforce_oracle_run():
    cfg = ExperimentConfig(
        algo="REINFORCE",
        fitness="ORACLE",
        limits=SpaceLimits(4, 9),
        reinforce=ReinforceConfig(batch_size=6, iterations=20),
        seed=1,
    )
    result = run_experiment(cfg)
    s = result.summary
    # the trace is the paid log: one row per paid query
    assert len(result.trace.rows) == s.evaluations == s.phases["search"]["oracle_queries"]
    assert s.evaluations + s.memo_hits == 120 - s.invalid_samples
    s.cross_check(result.trace)


def test_predictor_run_cost_model(monkeypatch):
    ranked = []
    real_topk = harness.topk_revalidate

    def recording_topk(*args):
        hashes = real_topk(*args)
        ranked.extend(hashes)
        return hashes

    monkeypatch.setattr(harness, "topk_revalidate", recording_topk)
    cfg = small_cfg(seed=6)
    result = run_experiment(cfg)
    s = result.summary
    assert s.labels == cfg.n_label
    # every class ranked is either paid for or answered from the log, and
    # only revalidation repeats a class
    n_reval = s.phases["revalidation"]["oracle_queries"]
    n_logged = s.phases["revalidation"]["memo_hits"]
    assert 1 <= n_reval + n_logged == len(ranked) <= cfg.top_k
    assert s.memo_hits == n_logged
    # trace: one row per labeling query + one per paid revalidation query
    assert len(result.trace.rows) == cfg.n_label + n_reval
    # search consults only the predictor: it contributes nothing to the bill
    assert s.total_sim_seconds == pytest.approx(
        s.phases["labeling"]["sim_seconds"] + s.phases["revalidation"]["sim_seconds"]
    )
    assert s.phases["search"]["sim_seconds"] == 0.0
    assert result.search_trace is not None and result.trained is not None
    # the summary's best must be ground-truthed, never a predictor guess
    assert s.best_true_acc == max(acc for _, acc in s.improvements)


def test_predictor_run_deterministic():
    cfg = small_cfg(seed=9)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a.summary == b.summary
    assert a.trace.to_csv_lines() == b.trace.to_csv_lines()
    assert a.search_trace.to_csv_lines() == b.search_trace.to_csv_lines()


def test_predictor_run_with_reinforce_search():
    cfg = small_cfg(
        algo="REINFORCE",
        reinforce=ReinforceConfig(batch_size=5, iterations=15),
        seed=2,
    )
    result = run_experiment(cfg)
    assert result.summary.phases["search"]["predictor_queries"] > 0
    result.summary.cross_check(result.trace)


@pytest.mark.parametrize("algo", ["EVOLUTION", "REINFORCE"])
def test_predictor_search_trace_has_a_row_per_searched_cell(algo):
    # row k is the k-th cell born or sampled, with the best score so far
    cfg = small_cfg(algo=algo, reinforce=ReinforceConfig(batch_size=5, iterations=15), seed=2)
    result = run_experiment(cfg)
    # the search again, on the trained predictor, scores the same cells alike
    fitness = PredictorFitness(result.trained.params)
    if algo == "EVOLUTION":
        history = run_evolution(cfg.evolution, cfg.limits, cfg.seed, fitness)
        scores = [ind.fitness for ind in history]
    else:
        schedule = DecisionSchedule.from_limits(cfg.limits)
        history = run_reinforce(cfg.reinforce, schedule, cfg.seed, fitness).history
        scores = [s.reward for s in history]
    rows = result.search_trace.rows
    assert [r.index for r in rows] == list(range(1, len(history) + 1))
    assert [r.best for r in rows] == list(itertools.accumulate(scores, max))
    # the search runs, free, once labeling is paid for
    assert {r.sim_seconds for r in rows} == {result.summary.phases["labeling"]["sim_seconds"]}


def test_ground_truth_reinforce_dates_each_improvement_at_the_query_that_paid(monkeypatch):
    # at (7,9) seed 4 the best cell was paid for 32,270 simulated seconds
    # in, mid-batch; a trace of one row per batch dated it at the batch's
    # end, 38,600
    paying = []  # (sim seconds, true accuracy) after each paid query
    real_query = PaidQueries.query

    def recording_query(self, *args):
        rows = len(self.trace.rows)
        record = real_query(self, *args)
        if len(self.trace.rows) > rows:
            paying.append((self.sim_seconds, record.val_accuracy))
        return record

    monkeypatch.setattr(PaidQueries, "query", recording_query)
    cfg = ExperimentConfig(
        algo="REINFORCE", fitness="ORACLE", limits=SpaceLimits(7, 9),
        reinforce=ReinforceConfig(batch_size=20, iterations=50), seed=4,
    )
    result = run_experiment(cfg)
    s = result.summary
    expected = []
    for sim_s, acc in paying:
        if not expected or acc > expected[-1][1]:
            expected.append((sim_s, acc))
    assert s.improvements == tuple(expected)
    for sim_s, acc in s.improvements:
        assert sim_s == next(r.sim_seconds for r in result.trace.rows if r.best == acc)
    assert s.improvements[-1] == (32270.0, s.best_true_acc)


# ---------------------------------------------------------------------------
# comparing runs


def _summary_with(improvements, cfg=None, seed=0):
    cfg = cfg or ExperimentConfig(fitness="ORACLE", limits=SpaceLimits(5, 9))
    return RunSummary(
        best_spec=None,
        best_hash=None,
        best_true_acc=improvements[-1][1] if improvements else None,
        total_sim_seconds=improvements[-1][0] if improvements else 0.0,
        evaluations=0,
        labels=0,
        invalid_samples=0,
        memo_hits=0,
        seed=seed,
        config=cfg,
        improvements=tuple(improvements),
    )


OPT_ACC_5_9 = 0.7990435302748605


def test_compare_identical_runs_is_one():
    s = _summary_with([(100.0, 0.7), (250.0, OPT_ACC_5_9)])
    report = compare_runs(s, s)
    assert report.status == "OK"
    assert report.target == pytest.approx(OPT_ACC_5_9)
    assert report.speedup == 1.0


def test_compare_speedup_is_a_over_b():
    a = _summary_with([(400.0, OPT_ACC_5_9)])
    b = _summary_with([(100.0, OPT_ACC_5_9)])
    report = compare_runs(a, b)
    assert report.status == "OK"
    assert report.speedup == pytest.approx(4.0)
    assert report.time_a == 400.0 and report.time_b == 100.0


def test_compare_no_common_target_when_b_never_reaches():
    a = _summary_with([(400.0, OPT_ACC_5_9)])
    b = _summary_with([(100.0, 0.75)])
    report = compare_runs(a, b)
    assert report.status == "NO_COMMON_TARGET"
    assert report.speedup is None
    assert "B" in report.reason


def test_compare_explicit_target_overrides_default():
    a = _summary_with([(400.0, 0.7)])
    b = _summary_with([(100.0, 0.7)])
    report = compare_runs(a, b, target=0.7)
    assert report.status == "OK" and report.speedup == pytest.approx(4.0)


def test_compare_without_derivable_target():
    cfg = ExperimentConfig(
        fitness="ORACLE", oracle_source="FILE", table_path="x.jsonl"
    )
    a = _summary_with([(400.0, 0.9)], cfg=cfg)
    b = _summary_with([(100.0, 0.9)], cfg=cfg)
    report = compare_runs(a, b)
    assert report.status == "NO_COMMON_TARGET"
    assert report.target is None


def test_compare_mismatched_synthetic_spaces():
    a = _summary_with(
        [(400.0, 0.9)],
        cfg=ExperimentConfig(fitness="ORACLE", limits=SpaceLimits(5, 9)),
    )
    b = _summary_with(
        [(100.0, 0.9)],
        cfg=ExperimentConfig(fitness="ORACLE", limits=SpaceLimits(4, 9)),
    )
    assert compare_runs(a, b).status == "NO_COMMON_TARGET"


# ---------------------------------------------------------------------------
# labeled-dataset files


def test_labeled_file_round_trip(tmp_path):
    a, b, c = _three_cells()
    items = [(a, 1), (b, 0), (c, 0)]
    meta = {"threshold": 0.77, "limits": [3, 9], "seed": 0}
    path = tmp_path / "data.jsonl"
    write_labeled(path, items, meta)
    loaded, got_meta = read_labeled(path)
    assert [(s, y) for s, y in loaded] == items
    assert got_meta["threshold"] == 0.77
    assert got_meta["kind"] == "labeled-dataset"


def test_labeled_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(ParseError):
        read_labeled(path)
    path.write_text('{"kind": "something-else"}\n')
    with pytest.raises(ParseError):
        read_labeled(path)
    # JSON, but not an object
    path.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match=r":1: not a labeled-dataset file"):
        read_labeled(path)
    a, _, _ = _three_cells()
    path.write_text(
        '{"kind": "labeled-dataset"}\n'
        + json.dumps({"label": 2, "spec": a.to_json_obj()})
        + "\n"
    )
    with pytest.raises(ParseError):
        read_labeled(path)


def _write_one_labeled_line(path, obj):
    path.write_text('{"kind": "labeled-dataset"}\n' + json.dumps(obj) + "\n")


@pytest.mark.parametrize("label", [0.9, 1.0, "1", True, None])
def test_labeled_file_label_must_be_the_int_0_or_1(tmp_path, label):
    # int() read 0.9 as 0 and "1" as 1
    a, _, _ = _three_cells()
    path = tmp_path / "data.jsonl"
    _write_one_labeled_line(path, {"label": label, "spec": a.to_json_obj()})
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: label must be one of (0, 1)")):
        read_labeled(path)


def test_labeled_file_refuses_a_spec_that_breaks_a_cell_rule(tmp_path):
    path = tmp_path / "data.jsonl"
    dangling = {"v": 3, "edges": [[0, 2]], "ops": ["in", "conv3x3", "out"]}
    _write_one_labeled_line(path, {"label": 1, "spec": dangling})
    reason = "spec is not a pruned, valid cell: dangling_vertex"
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: {reason}")):
        read_labeled(path)


@pytest.mark.parametrize("spec", LOOSE_SPEC_OBJECTS)
def test_labeled_file_refuses_spec_numbers_that_are_not_integers(tmp_path, spec):
    path = tmp_path / "data.jsonl"
    _write_one_labeled_line(path, {"label": 1, "spec": spec})
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: malformed spec object:")):
        read_labeled(path)


@pytest.mark.parametrize("kind", ["labeled", "trace", "table"])
def test_every_line_file_reader_skips_whitespace_only_lines(tmp_path, kind):
    # one rule for the three line-file readers: a line holding only
    # whitespace is skipped like an empty one (read_labeled and read_trace
    # used to refuse it), while line 1 stays the header of a labeled file
    # and of a trace
    path = tmp_path / kind
    cells = _three_cells()
    if kind == "labeled":
        write_labeled(path, [(c, y) for c, y in zip(cells, (1, 0, 0))], {"threshold": 0.5})
        read = read_labeled
    elif kind == "trace":
        trace = SearchTrace()
        for i in range(1, 5):
            trace.append(i, 10.0 * i, 0.1 * i)
        write_trace(trace, path)
        read = lambda p: read_trace(p).rows
    else:
        records = ((c, synth_record(c, SyntheticOracleParams())) for c in cells)
        path.write_text("\n".join(dump_table_lines(records)) + "\n")
        read = lambda p: load_table(p).records
    clean = read(path)
    lines = path.read_text().splitlines()
    assert len(lines) >= 3  # the blank goes in as line 3, between data lines
    for blank in ("   ", "\t", " \t "):
        path.write_text("\n".join([*lines[:2], blank, *lines[2:], blank]) + "\n")
        assert read(path) == clean
        path.write_text("\n".join([blank, *lines]) + "\n")
        if kind == "table":
            assert read(path) == clean
        else:
            with pytest.raises(ParseError, match=re.escape(f"{path}")):
                read(path)
