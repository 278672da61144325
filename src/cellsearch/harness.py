"""Experiment orchestration: run configuration, the label/train/search/
revalidate pipeline for predictor-guided runs, run summaries, and speedup
comparison between runs.

Cost accounting rule: every ground-truth query goes through the run's one
log, `oracle.PaidQueries`, which answers a class it holds at the query's
charge or more for free, so a run pays for a class's full training at most
once. A predictor-guided run pays for its labels and for the top-k
revalidations that labeling did not pay in full; the search in between
consults only the predictor and is free. Ground-truth runs pay for every
distinct architecture they evaluate.

Both kinds of run take one path, `run_experiment`: one log of paid queries,
labeling and training for a predictor run, the search, revalidation for a
predictor run, then one summary built from the log and from the run's trace,
read in the walk that validates it. The run's trace is that log, one row
(n, simulated seconds, best true accuracy) per paid query, for both kinds,
so they can be compared on equal terms; a search loop returns its history
and stamps nothing, and a predictor run derives its search trace, of best
predicted scores, from that history.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Annotated, Literal

import numpy as np

from . import cellspace, evolution, predictor, reinforce
from .cellspace import ModelSpec, SpaceLimits
from .errors import (
    ConfigError, DegenerateDataError, ExhaustedError, In, check_fields, check_value,
    json_tuples, parsing,
)
from .evolution import EvolutionConfig
from .oracle import (
    DEFAULT_LABEL_THRESHOLD,
    PaidQueries,
    SyntheticOracle,
    SyntheticOracleParams,
    label as binary_label,
    load_table,
    synthetic_label_threshold,
    synthetic_optimum,
)
from .predictor import PredictorFitness, TrainConfig, TrainedPredictor, heldout_count
from .reinforce import DecisionSchedule, ReinforceConfig
from .traces import EPS, SearchTrace

# how many random draws the distinct-by-hash labeling loop will burn per
# requested label before giving up on the space
_LABEL_ATTEMPT_FACTOR = 1000


# ---------------------------------------------------------------------------
# configuration


# a run's seed; numpy's generators take no negative one
Seed = Annotated[int, In("[0, inf)")]

# config keys holding a nested object -> the function that reads it (an
# entry missing from limits reads as None, which SpaceLimits refuses)
_NESTED = {
    "limits": lambda obj: SpaceLimits(**{"max_vertices": None, "max_edges": None, **obj}),
    "synthetic": lambda obj: SyntheticOracleParams(**obj),
    "evolution": lambda obj: EvolutionConfig(**obj),
    "reinforce": lambda obj: ReinforceConfig(**obj),
    "predictor": lambda obj: TrainConfig(**obj),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; echoed verbatim into its outputs. The
    search space (`limits`) and the `seed` are shared by every algorithm;
    each algorithm's own hyperparameters sit in its config object."""

    algo: Literal["EVOLUTION", "REINFORCE"] = "EVOLUTION"
    fitness: Literal["ORACLE", "PREDICTOR"] = "ORACLE"
    limits: SpaceLimits = field(default_factory=SpaceLimits)
    oracle_source: Literal["SYNTHETIC", "FILE"] = "SYNTHETIC"
    table_path: str | None = None
    synthetic: SyntheticOracleParams = field(default_factory=SyntheticOracleParams)
    n_label: Annotated[int, In("[2, inf)")] = 400  # one label is one class
    label_charge: Annotated[float, In("(0, 1]")] = 1.0
    label_threshold: Annotated[float, In("[0, 1)")] | None = None  # None: the source's rule
    top_k: Annotated[int, In("[1, inf)")] = 10
    seed: Seed = 0
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    reinforce: ReinforceConfig = field(default_factory=ReinforceConfig)
    predictor: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_fields(self)
        if self.oracle_source == "FILE" and self.table_path is None:
            raise ConfigError("FILE oracle source needs table_path")
        # the synthetic oracle reads no table, so its run must not echo one
        if self.oracle_source != "FILE" and self.table_path is not None:
            raise ConfigError(f"table_path {self.table_path!r} needs the FILE oracle source")
        if self.fitness == "PREDICTOR":
            self.check_pool_split(self.n_label)

    def check_pool_split(self, n: int) -> None:
        """Refuse a pool of n labels that the predictor's split may leave
        with no held-out label, or with one class to train on."""
        # the split holds out heldout_count of each class: a pool split as
        # evenly as it can be holds out the fewest, and below a fraction of 1
        # a class of one label is the first it holds out whole
        fraction = self.predictor.heldout_fraction
        if heldout_count(fraction, n - n // 2) == 0:
            raise ConfigError(
                f"n_label {n} can leave the held-out set empty: at predictor.heldout_fraction "
                f"{fraction!r}, a pool split {n // 2}/{n - n // 2} between the classes holds "
                f"out none of either"
            )
        if heldout_count(fraction, 1) == 1:
            raise ConfigError(
                f"predictor.heldout_fraction {fraction!r} can leave training with one class: "
                f"it holds out the whole of a class of one label"
            )

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        """Inverse of to_json_obj. Unknown keys and malformed or out-of-range
        nested objects raise ConfigError naming the key."""
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        for key, build in _NESTED.items():
            if key in kwargs:
                try:
                    kwargs[key] = build(kwargs[key])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from None
        return cls(**kwargs)


def build_oracle(cfg: ExperimentConfig):
    if cfg.oracle_source == "SYNTHETIC":
        return SyntheticOracle(cfg.synthetic)
    return load_table(cfg.table_path)


def effective_label_threshold(cfg: ExperimentConfig) -> float:
    """The configured threshold, or the source's default rule: the 0.90
    accuracy quantile over the enumerated space for the synthetic oracle,
    the fixed default for file tables."""
    if cfg.label_threshold is not None:
        return cfg.label_threshold
    if cfg.oracle_source == "SYNTHETIC":
        return synthetic_label_threshold(cfg.synthetic, cfg.limits)
    return DEFAULT_LABEL_THRESHOLD


# ---------------------------------------------------------------------------
# run summaries


# RunSummary fields that summary.json holds as they are, at its top level and in "counts"
_PLAIN = ("best_hash", "best_true_acc", "total_sim_seconds", "seed", "improvements", "phases")
_COUNTS = ("evaluations", "labels", "invalid_samples", "memo_hits")
_PAID = {"sim_seconds", "oracle_queries", "memo_hits"}
# fitness -> each phase `run_experiment` writes for a run of it -> the phase's entries
_PHASE_ENTRIES = {
    "ORACLE": {"search": _PAID},
    "PREDICTOR": {
        "labeling": {"sim_seconds", "oracle_queries", "positives", "threshold", "train_size",
                     "train_loss", "heldout_accuracy"},
        "search": {"sim_seconds", "predictor_queries"},
        "revalidation": _PAID,
    },
}


@dataclass
class RunSummary:
    """End-of-run report; every total must agree with the final trace row.
    A run that paid for nothing has no row, no improvement, a total of 0.0
    and no best cell or accuracy."""

    best_spec: ModelSpec | None
    best_hash: str | None
    best_true_acc: float | None
    total_sim_seconds: float
    evaluations: int
    labels: int
    invalid_samples: int
    memo_hits: int
    seed: int
    config: ExperimentConfig
    # (sim_seconds, best_true_acc) at each new true best
    improvements: tuple[tuple[float, float], ...]
    phases: dict[str, dict[str, float]] = field(default_factory=dict)

    def cross_check(self, trace: SearchTrace) -> None:
        """Raise ValueError unless `trace` is valid and determines this
        summary's total, best true accuracy and improvements."""
        for name, value in _read_trace(trace).items():
            if getattr(self, name) != value:
                raise ValueError(f"summary {name} {getattr(self, name)!r} != trace {value!r}")

    def first_time_reaching(self, target: float):
        for sim_s, acc in self.improvements:
            if acc >= target - EPS:
                return sim_s
        return None

    def to_json_obj(self) -> dict:
        return {
            **{name: getattr(self, name) for name in _PLAIN},
            "counts": {name: getattr(self, name) for name in _COUNTS},
            "best_spec": None if self.best_spec is None else self.best_spec.to_json_obj(),
            "config": self.config.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunSummary":
        """Inverse of to_json_obj, each value held to its annotation. An
        unknown key (top level or "counts"), a set of phases other than the
        one a run of the echoed config's fitness writes, or a phase without
        its entries, raises ValueError naming it."""
        for where, names, keys in (("summary", {*_PLAIN, "counts", "best_spec", "config"}, obj),
                                   ("counts", _COUNTS, obj["counts"])):
            unknown = set(keys) - set(names)
            if unknown:
                raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
        spec = obj["best_spec"]
        summary = cls(
            **{name: json_tuples(obj[name]) for name in _PLAIN},
            **{name: obj["counts"][name] for name in _COUNTS},
            best_spec=None if spec is None else ModelSpec.from_json_obj(spec),
            config=ExperimentConfig.from_json_obj(obj["config"]),
        )
        check_fields(summary)
        run = f"a run of fitness {summary.config.fitness} writes"
        expected = _PHASE_ENTRIES[summary.config.fitness]
        missing, extra = expected.keys() - summary.phases, summary.phases.keys() - expected
        if missing or extra:
            raise ValueError(f"{run} phases {sorted(expected)}: missing {sorted(missing)},"
                             f" extra {sorted(extra)}")
        for phase, entries in summary.phases.items():
            if set(entries) != expected[phase]:
                raise ValueError(f"{run} phase {phase!r} with entries"
                                 f" {sorted(expected[phase])}, not {sorted(entries)}")
        return summary


def _read_trace(trace: SearchTrace) -> dict:
    """The RunSummary fields a trace determines, read in the walk that
    validates it: the last row's simulated seconds and best (0.0 and None
    where there is no row), and the improvements."""
    improvements = trace.validate()
    sim_s, best = trace.rows[-1][1:] if trace.rows else (0.0, None)
    return {"total_sim_seconds": sim_s, "best_true_acc": best, "improvements": improvements}


def write_summary(summary: RunSummary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_json_obj(), fh, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> RunSummary:
    with open(path, "r", encoding="utf-8") as fh, parsing(path):
        return RunSummary.from_json_obj(json.load(fh))


# ---------------------------------------------------------------------------
# the predictor pipeline


def label_random_specs(cfg: ExperimentConfig, paid: PaidQueries, rng: random.Random):
    """Draw cfg.n_label random cells of classes that `paid` does not yet
    hold, query each one through it (charging label_charge x its training
    time), and binarize at the effective threshold. Returns (labeled (spec,
    y) list, threshold). A one-class pool raises DegenerateDataError naming
    the flags of `run` and `label` that change it."""
    threshold = effective_label_threshold(cfg)
    labeled = []
    attempts = 0
    while len(labeled) < cfg.n_label:
        attempts += 1
        if attempts > _LABEL_ATTEMPT_FACTOR * cfg.n_label:
            raise ExhaustedError(
                f"could not find {cfg.n_label} distinct architectures "
                f"(space too small?)"
            )
        spec = cellspace.random_spec(rng, cfg.limits)
        digest = cellspace.canonical_hash(spec)
        if digest in paid.answers:
            continue
        record = paid.query(spec, digest, cfg.label_charge)
        labeled.append((spec, binary_label(record, threshold)))
    positives = sum(y for _, y in labeled)
    if positives in (0, len(labeled)):
        raise DegenerateDataError(
            f"labeled pool has {positives}/{len(labeled)} positives at "
            f"threshold {threshold!r}; the predictor needs both classes: "
            f"raise --n-label (label: --n) or change --label-threshold "
            f"(label: --threshold)"
        )
    return labeled, threshold


def run_predictor_pipeline(cfg: ExperimentConfig, paid: PaidQueries, rng: random.Random):
    """Label N distinct random cells, then fit the binary predictor.

    Phase 1 charges `label_charge` x training time per distinct-by-hash
    architecture; phase 2 (the stratified split, which holds out
    `predictor.heldout_fraction` of each class, and the training loop) is
    free. Returns (TrainedPredictor, the labeling phase's summary entry).
    """
    started_at = paid.sim_seconds
    labeled, threshold = label_random_specs(cfg, paid, rng)
    labeling_cost = paid.sim_seconds - started_at

    split_gen = np.random.default_rng(rng.getrandbits(32))
    trained, meta, held_acc, train_loss = predictor.fit(
        labeled, cfg.predictor, cfg.seed, split_gen, threshold
    )
    return trained, {
        "sim_seconds": labeling_cost,
        "oracle_queries": len(labeled),
        "positives": sum(y for _, y in labeled),
        "threshold": threshold,
        "train_size": meta["train_size"],
        "train_loss": train_loss,
        "heldout_accuracy": held_acc,
    }


def topk_revalidate(predictions, k: int, paid: PaidQueries) -> tuple:
    """Ground the k most promising distinct cells of a predictor-guided run.

    `predictions` is the run's `PredictorFitness.predictions`: every cell
    the search scored (searches hand the fitness cells, never genomes),
    mapped to its probability, in first-scored order. Candidates are distinct canonical hashes ranked by their best
    score; a class drawn as several cells stands as the first one scored
    best, and ties between classes go to the class scored first. Each is
    queried through `paid` at full charge, so the log holds the true-best
    answer: a class that labeling already paid for in full is answered
    from the log for free, and one labeled below full charge is paid again
    in full. k larger than the distinct count just revalidates everything.
    Returns the revalidated hashes in query order.
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    best = {}  # hash -> (score, cell), in first-scored order
    for cell, score in predictions.items():
        digest = cellspace.canonical_hash(cell)
        if digest not in best or score > best[digest][0]:
            best[digest] = (score, cell)
    # a stable sort keeps first-scored order among equal scores
    candidates = sorted(best.items(), key=lambda kv: -kv[1][0])[:k]
    for digest, (_, cell) in candidates:
        paid.query(cell, digest, 1.0)
    return tuple(digest for digest, _ in candidates)


# ---------------------------------------------------------------------------
# whole experiments


@dataclass
class ExperimentResult:
    summary: RunSummary
    trace: SearchTrace  # the run's log of paid queries, one row each (written to disk)
    search_trace: SearchTrace | None = None  # a predictor run's, one row per searched cell
    trained: TrainedPredictor | None = None


def _search(cfg: ExperimentConfig, fitness):
    """Dispatch to the configured search loop; returns (the fitness of each
    searched cell, in the order it was born or sampled, invalid count)."""
    if cfg.algo == "EVOLUTION":
        history = evolution.run_evolution(cfg.evolution, cfg.limits, cfg.seed, fitness)
        return [ind.fitness for ind in history], 0
    schedule = DecisionSchedule.from_limits(cfg.limits)
    result = reinforce.run_reinforce(cfg.reinforce, schedule, cfg.seed, fitness)
    return [s.reward for s in result.history], result.invalid_count


def _search_trace(scores, sim_seconds: float) -> SearchTrace:
    """A predictor-guided search's trace: row k for the k-th searched cell,
    at the simulated seconds the search ran at, with the best predicted
    score so far."""
    trace, best = SearchTrace(), -math.inf
    for k, score in enumerate(scores, start=1):
        best = max(best, score)
        trace.append(k, sim_seconds, best)
    return trace


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """One seeded end-to-end run under the configured cost model. The run's
    trace is its log of paid queries; the summary's total, best true
    accuracy and improvements are read off it, and its best cell is the
    log's first best answer (none when no query was paid)."""
    paid = PaidQueries(build_oracle(cfg))
    fitness, trained, labels, phases = paid, None, 0, {}
    if cfg.fitness == "PREDICTOR":
        trained, phases["labeling"] = run_predictor_pipeline(cfg, paid, random.Random(cfg.seed))
        fitness, labels = PredictorFitness(trained.params), phases["labeling"]["oracle_queries"]
    scores, invalid = _search(cfg, fitness)
    search_trace = None
    if trained is None:
        phases["search"] = {
            "sim_seconds": paid.sim_seconds,
            "oracle_queries": paid.evaluations,
            "memo_hits": paid.memo_hits,
        }
    else:
        phases["search"] = {"sim_seconds": 0.0, "predictor_queries": fitness.evaluations}
        search_trace = _search_trace(scores, paid.sim_seconds)
        started_at, queries, hits = paid.sim_seconds, paid.evaluations, paid.memo_hits
        topk_revalidate(fitness.predictions, cfg.top_k, paid)
        phases["revalidation"] = {
            "sim_seconds": paid.sim_seconds - started_at,
            "oracle_queries": paid.evaluations - queries,
            "memo_hits": paid.memo_hits - hits,
        }
    best_spec, best_hash, _ = paid.best or (None, None, None)
    summary = RunSummary(
        **_read_trace(paid.trace),
        best_spec=best_spec,
        best_hash=best_hash,
        evaluations=fitness.evaluations,
        labels=labels,
        invalid_samples=invalid,
        memo_hits=paid.memo_hits,
        seed=cfg.seed,
        config=cfg,
        phases=phases,
    )
    return ExperimentResult(summary, paid.trace, search_trace, trained)


# ---------------------------------------------------------------------------
# comparing runs


@dataclass(frozen=True)
class CompareReport:
    """Speedup of run B relative to run A: (time for A to first reach the
    target) / (same for B), None when only B got there at 0 s.
    NO_COMMON_TARGET when either run never got there or no target could be
    derived."""

    status: str  # OK | NO_COMMON_TARGET
    target: float | None
    time_a: float | None
    time_b: float | None
    speedup: float | None
    reason: str = ""

    def to_json_obj(self) -> dict:
        return asdict(self)


def default_compare_target(a: RunSummary, b: RunSummary):
    """The true global optimum accuracy, when both runs searched the same
    synthetic space; None otherwise."""
    ca, cb = a.config, b.config
    if ca.oracle_source != "SYNTHETIC" or cb.oracle_source != "SYNTHETIC":
        return None
    if ca.synthetic != cb.synthetic or ca.limits != cb.limits:
        return None
    return synthetic_optimum(ca.synthetic, ca.limits)[1].val_accuracy


def compare_runs(a: RunSummary, b: RunSummary, target: float | None = None) -> CompareReport:
    check_value("target", target, float | None)
    if target is None:
        target = default_compare_target(a, b)
        if target is None:
            return CompareReport(
                "NO_COMMON_TARGET", None, None, None, None,
                reason="no explicit target and none derivable from the configs",
            )
    time_a = a.first_time_reaching(target)
    time_b = b.first_time_reaching(target)
    if time_a is None or time_b is None:
        missing = [name for name, t in (("A", time_a), ("B", time_b)) if t is None]
        return CompareReport(
            "NO_COMMON_TARGET", target, time_a, time_b, None,
            reason=f"run {' and '.join(missing)} never reached {target}",
        )
    if time_a == time_b:
        speedup, reason = 1.0, ""
    elif time_b == 0.0:  # an unbounded speedup, which JSON cannot print
        speedup, reason = None, f"run B reached {target} at 0 simulated seconds"
    else:
        speedup, reason = time_a / time_b, ""
    return CompareReport("OK", target, time_a, time_b, speedup, reason)


# ---------------------------------------------------------------------------
# labeled-dataset files (CLI plumbing)


def write_labeled(path, items, meta: dict) -> None:
    """Line-delimited labeled dataset: a meta object, then one
    {"label", "spec"} object per architecture."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "labeled-dataset", **meta}, sort_keys=True) + "\n")
        for spec, y in items:
            fh.write(
                json.dumps({"label": y, "spec": spec.to_json_obj()}, sort_keys=True)
                + "\n"
            )


def read_labeled(path):
    """Returns (items, meta) from a labeled-dataset file; meta's threshold,
    DEFAULT_LABEL_THRESHOLD where the file gives none, is a finite real."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with parsing(path, 1):
        meta = json.loads(lines[0]) if lines else None
        if not isinstance(meta, dict) or meta.get("kind") != "labeled-dataset":
            raise ValueError("not a labeled-dataset file")
        meta.setdefault("threshold", DEFAULT_LABEL_THRESHOLD)
        check_value("threshold", meta["threshold"], float)
    items = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        with parsing(path, lineno):
            obj = json.loads(line)
            spec, y = ModelSpec.from_json_obj(obj["spec"]), obj["label"]
            cellspace.require_canonical(spec)
            check_value("label", y, Literal[0, 1])
        items.append((spec, y))
    return items, meta
