"""Experiment orchestration: run configuration, the label/train/search/
revalidate pipeline for predictor-guided runs, run summaries, and speedup
comparison between runs.

Cost accounting rule: a predictor-guided run pays for its labeling queries
and for the final top-k revalidation queries; the search in between consults
only the predictor and is free. Ground-truth runs pay for every distinct
architecture they evaluate. Both kinds of run report the same trace/summary
shapes so they can be compared on equal terms.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from . import cellspace, evolution, predictor, reinforce
from .cellspace import ModelSpec, SpaceLimits
from .errors import ConfigError, ExhaustedError, ParseError, TooLargeError
from .evolution import EvolutionConfig
from .oracle import (
    DEFAULT_LABEL_THRESHOLD,
    OracleFitness,
    SimClock,
    SyntheticOracle,
    SyntheticOracleParams,
    label as binary_label,
    load_table,
    query,
    synthetic_label_threshold,
    synthetic_optimum,
)
from .predictor import PredictorFitness, TrainConfig, TrainedPredictor
from .reinforce import DecisionSchedule, ReinforceConfig
from .traces import SearchTrace

_EPS = 1e-12

# how many random draws the distinct-by-hash labeling loop will burn per
# requested label before giving up on the space
_LABEL_ATTEMPT_FACTOR = 1000


# ---------------------------------------------------------------------------
# configuration


# config keys holding a nested object -> the function that reads it
_NESTED = {
    "limits": lambda obj: SpaceLimits(int(obj["max_vertices"]), int(obj["max_edges"])),
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

    algo: str = "EVOLUTION"  # EVOLUTION | REINFORCE
    fitness: str = "ORACLE"  # ORACLE | PREDICTOR
    limits: SpaceLimits = field(default_factory=SpaceLimits)
    oracle_source: str = "SYNTHETIC"  # SYNTHETIC | FILE
    table_path: str | None = None
    synthetic: SyntheticOracleParams = field(default_factory=SyntheticOracleParams)
    n_label: int = 400
    label_charge: float = 1.0
    label_threshold: float | None = None  # None: quantile rule / file default
    top_k: int = 10
    seed: int = 0
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    reinforce: ReinforceConfig = field(default_factory=ReinforceConfig)
    predictor: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.algo not in ("EVOLUTION", "REINFORCE"):
            raise ConfigError(f"unknown algo {self.algo!r}")
        if self.fitness not in ("ORACLE", "PREDICTOR"):
            raise ConfigError(f"unknown fitness mode {self.fitness!r}")
        if self.oracle_source not in ("SYNTHETIC", "FILE"):
            raise ConfigError(f"unknown oracle source {self.oracle_source!r}")
        if self.oracle_source == "FILE" and not self.table_path:
            raise ConfigError("FILE oracle source needs table_path")
        if self.fitness == "PREDICTOR" and self.n_label <= 0:
            raise ConfigError("predictor-guided search needs a labeling budget")
        if not 0.0 < self.label_charge <= 1.0:
            raise ConfigError("label_charge must lie in (0, 1]")
        if self.top_k < 1:
            raise ConfigError("top_k must be at least 1")
        if self.algo == "REINFORCE":
            DecisionSchedule.from_limits(self.limits)  # refuses too many decisions
        if self.fitness == "PREDICTOR" and self.derives_synthetic_threshold:
            try:
                cellspace.check_enumerable(self.limits)
            except TooLargeError as exc:
                raise ConfigError(
                    f"{exc} for the default synthetic label threshold; "
                    "set --label-threshold"
                ) from None

    @property
    def derives_synthetic_threshold(self) -> bool:
        """True when the label threshold is the quantile rule over the
        enumerated synthetic space."""
        return self.label_threshold is None and self.oracle_source == "SYNTHETIC"

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
                except (ConfigError, KeyError, TypeError, ValueError) as exc:
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
    if cfg.derives_synthetic_threshold:
        return synthetic_label_threshold(cfg.synthetic, cfg.limits)
    if cfg.label_threshold is not None:
        return cfg.label_threshold
    return DEFAULT_LABEL_THRESHOLD


# ---------------------------------------------------------------------------
# run summaries


@dataclass
class RunSummary:
    """End-of-run report; every total must agree with the final trace row."""

    best_spec: ModelSpec | None
    best_hash: str | None
    best_true_acc: float | None
    best_fitness: float
    total_sim_seconds: float
    evaluations: int
    labels: int
    invalid_samples: int
    memo_hits: int
    seed: int
    config: ExperimentConfig
    improvements: tuple  # ((sim_seconds, best_true_acc) at each new true best)
    phases: dict = field(default_factory=dict)

    def cross_check(self, trace: SearchTrace) -> None:
        final = trace.final_row()
        if self.total_sim_seconds != final.sim_seconds:
            raise ValueError(
                f"summary says {self.total_sim_seconds} simulated seconds, "
                f"trace ends at {final.sim_seconds}"
            )
        if self.best_true_acc != final.best_true_acc:
            raise ValueError(
                f"summary best_true_acc {self.best_true_acc} != "
                f"trace {final.best_true_acc}"
            )
        if self.best_fitness != final.best_fitness:
            raise ValueError(
                f"summary best_fitness {self.best_fitness} != "
                f"trace {final.best_fitness}"
            )
        if self.improvements != true_acc_improvements(trace):
            raise ValueError("summary improvements do not match the trace")

    def first_time_reaching(self, target: float):
        for sim_s, acc in self.improvements:
            if acc >= target - _EPS:
                return sim_s
        return None

    def to_json_obj(self) -> dict:
        return {
            "best_spec": None if self.best_spec is None else self.best_spec.to_json_obj(),
            "best_hash": self.best_hash,
            "best_true_acc": self.best_true_acc,
            "best_fitness": self.best_fitness,
            "total_sim_seconds": self.total_sim_seconds,
            "counts": {
                "evaluations": self.evaluations,
                "labels": self.labels,
                "invalid_samples": self.invalid_samples,
                "memo_hits": self.memo_hits,
            },
            "seed": self.seed,
            "config": self.config.to_json_obj(),
            "improvements": [[s, a] for s, a in self.improvements],
            "phases": self.phases,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunSummary":
        try:
            counts = obj["counts"]
            return cls(
                best_spec=(
                    None
                    if obj["best_spec"] is None
                    else ModelSpec.from_json_obj(obj["best_spec"])
                ),
                best_hash=obj["best_hash"],
                best_true_acc=obj["best_true_acc"],
                best_fitness=float(obj["best_fitness"]),
                total_sim_seconds=float(obj["total_sim_seconds"]),
                evaluations=int(counts["evaluations"]),
                labels=int(counts["labels"]),
                invalid_samples=int(counts["invalid_samples"]),
                memo_hits=int(counts["memo_hits"]),
                seed=int(obj["seed"]),
                config=ExperimentConfig.from_json_obj(obj["config"]),
                improvements=tuple((float(s), float(a)) for s, a in obj["improvements"]),
                phases=obj.get("phases", {}),
            )
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed run summary: {exc}") from exc


def true_acc_improvements(trace: SearchTrace) -> tuple:
    """(sim_seconds, value) at each strict increase of the best-true-acc
    column — the minimal data needed to answer time-to-target queries."""
    out = []
    best = None
    for row in trace.rows:
        if row.best_true_acc is None:
            continue
        if best is None or row.best_true_acc > best + _EPS:
            best = row.best_true_acc
            out.append((row.sim_seconds, row.best_true_acc))
    return tuple(out)


def write_summary(summary: RunSummary, path, trace: SearchTrace | None = None) -> None:
    if trace is not None:
        summary.cross_check(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_json_obj(), fh, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> RunSummary:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return RunSummary.from_json_obj(obj)


# ---------------------------------------------------------------------------
# the predictor pipeline


@dataclass(frozen=True)
class QueryEvent:
    """One paid ground-truth query: what was asked and when."""

    spec: ModelSpec
    digest: str
    true_acc: float
    sim_seconds: float  # clock reading after the charge


@dataclass
class LabelingReport:
    """Cost and outcome of the labeling + training phases."""

    threshold: float
    n_labeled: int
    positives: int
    labeling_sim_seconds: float
    heldout_accuracy: float
    split_meta: dict
    final_train_loss: float
    # one QueryEvent per label, in draw order — the ground-truth
    # observations the run paid for
    label_events: tuple = ()


def label_random_specs(cfg: ExperimentConfig, oracle, clock: SimClock, rng: random.Random):
    """Draw cfg.n_label distinct-by-hash random cells, query each one
    (charging label_charge x its training time), and binarize at the
    effective threshold. Returns (labeled (spec, y) list, QueryEvent list,
    threshold)."""
    if cfg.n_label <= 0:
        raise ConfigError("n_label must be positive")
    threshold = effective_label_threshold(cfg)
    seen = set()
    labeled = []
    events = []
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
        if digest in seen:
            continue
        seen.add(digest)
        record = query(oracle, spec, clock, charge=cfg.label_charge)
        labeled.append((spec, binary_label(record, threshold)))
        events.append(QueryEvent(spec, digest, record.val_accuracy, clock.elapsed_s))
    return labeled, events, threshold


def run_predictor_pipeline(cfg: ExperimentConfig, oracle, clock: SimClock, rng: random.Random):
    """Label N distinct random cells, then fit the binary predictor.

    Phase 1 charges `label_charge` x training time per distinct-by-hash
    architecture; phase 2 (the 80/20 stratified split and the training loop)
    is free. Returns (TrainedPredictor, LabelingReport).
    """
    started_at = clock.elapsed_s
    labeled, events, threshold = label_random_specs(cfg, oracle, clock, rng)
    labeling_cost = clock.elapsed_s - started_at

    split_gen = np.random.default_rng(rng.getrandbits(32))
    trained, meta, held_acc, final_loss = predictor.fit(
        labeled, cfg.predictor, cfg.seed, split_gen, threshold
    )
    report = LabelingReport(
        threshold=threshold,
        n_labeled=len(labeled),
        positives=sum(y for _, y in labeled),
        labeling_sim_seconds=labeling_cost,
        heldout_accuracy=held_acc,
        split_meta=meta,
        final_train_loss=final_loss,
        label_events=tuple(events),
    )
    return trained, report


def _spec_and_score(item):
    """History entries from either search loop -> (genome, fitness)."""
    if hasattr(item, "reward"):
        return item.spec, item.reward
    return item.spec, item.fitness


@dataclass
class RevalidationResult:
    best_spec: ModelSpec | None
    best_hash: str | None
    best_true_acc: float | None
    events: tuple = ()  # one QueryEvent per revalidated candidate
    sim_seconds: float = 0.0


def topk_revalidate(history, k: int, oracle, clock: SimClock) -> RevalidationResult:
    """Ground the k most promising distinct cells of a predictor-guided run.

    Candidates are distinct canonical hashes ranked by their best predictor
    fitness in the history (first-seen order breaks ties); each is queried
    at full charge, and the true-best among them is reported. k larger than
    the distinct count just revalidates everything.
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    ranked = {}  # hash -> (score, first_seen, phenotype)
    for order, item in enumerate(history):
        spec, score = _spec_and_score(item)
        if spec is None:
            continue
        phenotype = cellspace.prune(spec)
        digest = cellspace.canonical_hash(phenotype)
        if digest not in ranked or score > ranked[digest][0]:
            first_seen = ranked[digest][1] if digest in ranked else order
            ranked[digest] = (score, first_seen, phenotype)
    candidates = sorted(
        ranked.items(), key=lambda kv: (-kv[1][0], kv[1][1])
    )[: min(k, len(ranked))]

    started_at = clock.elapsed_s
    best = None
    events = []
    for digest, (_, _, phenotype) in candidates:
        record = query(oracle, phenotype, clock, charge=1.0)
        events.append(QueryEvent(phenotype, digest, record.val_accuracy, clock.elapsed_s))
        if best is None or record.val_accuracy > best[2]:
            best = (phenotype, digest, record.val_accuracy)
    if best is None:
        return RevalidationResult(None, None, None, (), 0.0)
    return RevalidationResult(
        best_spec=best[0],
        best_hash=best[1],
        best_true_acc=best[2],
        events=tuple(events),
        sim_seconds=clock.elapsed_s - started_at,
    )


# ---------------------------------------------------------------------------
# whole experiments


@dataclass
class ExperimentResult:
    summary: RunSummary
    trace: SearchTrace  # the run's cost/true-accuracy record (written to disk)
    search_trace: SearchTrace | None = None  # predictor-phase internal trace
    trained: TrainedPredictor | None = None
    labeling: LabelingReport | None = None


def _search(cfg: ExperimentConfig, fitness, clock: SimClock):
    """Dispatch to the configured search loop; returns (history, trace,
    best (spec, fitness) pair or None, invalid count)."""
    if cfg.algo == "EVOLUTION":
        best, trace, history = evolution.run_evolution(
            cfg.evolution, cfg.limits, cfg.seed, fitness, clock
        )
        return history, trace, (best.spec, best.fitness), 0
    schedule = DecisionSchedule.from_limits(cfg.limits)
    result = reinforce.run_reinforce(cfg.reinforce, schedule, cfg.seed, fitness, clock)
    best = None
    for s in result.history:
        if s.spec is not None and (best is None or s.reward > best[1]):
            best = (s.spec, s.reward)
    return result.history, result.trace, best, result.invalid_count


def _run_ground_truth(cfg: ExperimentConfig, oracle) -> ExperimentResult:
    clock = SimClock()
    fitness = OracleFitness(oracle)
    history, trace, best, invalid = _search(cfg, fitness, clock)
    if best is None:
        best_spec, best_hash = None, None
    else:
        best_spec = cellspace.prune(best[0])
        best_hash = cellspace.canonical_hash(best_spec)
    final = trace.final_row()
    summary = RunSummary(
        best_spec=best_spec,
        best_hash=best_hash,
        best_true_acc=final.best_true_acc,
        best_fitness=final.best_fitness,
        total_sim_seconds=final.sim_seconds,
        evaluations=fitness.evaluations,
        labels=0,
        invalid_samples=invalid,
        memo_hits=fitness.memo_hits,
        seed=cfg.seed,
        config=cfg,
        improvements=true_acc_improvements(trace),
        phases={
            "search": {
                "sim_seconds": final.sim_seconds,
                "oracle_queries": fitness.evaluations,
                "memo_hits": fitness.memo_hits,
            }
        },
    )
    summary.cross_check(trace)
    return ExperimentResult(summary=summary, trace=trace)


def _run_predictor_guided(cfg: ExperimentConfig, oracle) -> ExperimentResult:
    clock = SimClock()
    rng = random.Random(cfg.seed)
    trained, report = run_predictor_pipeline(cfg, oracle, clock, rng)

    # the run's own trace records ground-truth observations: one row per
    # labeling query, then one per revalidation query (the free
    # predictor-guided search in between contributes no rows here; its
    # internal trace is kept separately)
    trace = SearchTrace()
    best_true = None
    best_pair = None  # (spec, hash) of the best ground-truthed cell
    for idx, ev in enumerate(report.label_events, start=1):
        if best_true is None or ev.true_acc > best_true:
            best_true = ev.true_acc
            best_pair = (ev.spec, ev.digest)
        trace.append(idx, ev.sim_seconds, best_true, best_true)

    guided = PredictorFitness(trained.params)
    history, search_trace, _, invalid = _search(cfg, guided, clock)

    reval = topk_revalidate(history, cfg.top_k, oracle, clock)
    idx = len(report.label_events)
    for ev in reval.events:
        idx += 1
        if ev.true_acc > best_true:
            best_true = ev.true_acc
            best_pair = (ev.spec, ev.digest)
        trace.append(idx, ev.sim_seconds, best_true, best_true)

    summary = RunSummary(
        best_spec=best_pair[0] if best_pair else None,
        best_hash=best_pair[1] if best_pair else None,
        best_true_acc=best_true,
        best_fitness=trace.final_row().best_fitness,
        total_sim_seconds=clock.elapsed_s,
        evaluations=guided.evaluations,
        labels=report.n_labeled,
        invalid_samples=invalid,
        memo_hits=0,
        seed=cfg.seed,
        config=cfg,
        improvements=true_acc_improvements(trace),
        phases={
            "labeling": {
                "sim_seconds": report.labeling_sim_seconds,
                "oracle_queries": report.n_labeled,
                "positives": report.positives,
                "threshold": report.threshold,
                "heldout_accuracy": report.heldout_accuracy,
            },
            "search": {
                "sim_seconds": 0.0,
                "predictor_queries": guided.evaluations,
            },
            "revalidation": {
                "sim_seconds": reval.sim_seconds,
                "oracle_queries": len(reval.events),
            },
        },
    )
    summary.cross_check(trace)
    return ExperimentResult(
        summary=summary,
        trace=trace,
        search_trace=search_trace,
        trained=trained,
        labeling=report,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """One seeded end-to-end run under the configured cost model."""
    oracle = build_oracle(cfg)
    if cfg.fitness == "ORACLE":
        return _run_ground_truth(cfg, oracle)
    return _run_predictor_guided(cfg, oracle)


# ---------------------------------------------------------------------------
# comparing runs


@dataclass(frozen=True)
class CompareReport:
    """Speedup of run B relative to run A: (time for A to first reach the
    target) / (same for B). NO_COMMON_TARGET when either run never got
    there or no target could be derived."""

    status: str  # OK | NO_COMMON_TARGET
    target: float | None
    time_a: float | None
    time_b: float | None
    speedup: float | None
    reason: str = ""

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "target": self.target,
            "time_a": self.time_a,
            "time_b": self.time_b,
            "speedup": self.speedup,
            "reason": self.reason,
        }


def default_compare_target(a: RunSummary, b: RunSummary):
    """The true global optimum accuracy, when both runs searched the same
    synthetic space; None otherwise."""
    ca, cb = a.config, b.config
    if ca.oracle_source != "SYNTHETIC" or cb.oracle_source != "SYNTHETIC":
        return None
    if ca.synthetic != cb.synthetic or ca.limits != cb.limits:
        return None
    try:
        _, record = synthetic_optimum(ca.synthetic, ca.limits)
    except TooLargeError:
        return None
    return record.val_accuracy


def compare_runs(a: RunSummary, b: RunSummary, target: float | None = None) -> CompareReport:
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
        speedup = 1.0
    elif time_b == 0.0:
        speedup = float("inf")
    else:
        speedup = time_a / time_b
    return CompareReport("OK", target, time_a, time_b, speedup)


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
    """Returns (items, meta) from a labeled-dataset file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:1: {exc}") from exc
    if meta.get("kind") != "labeled-dataset":
        raise ParseError(f"{path}: not a labeled-dataset file")
    items = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            obj = json.loads(line)
            spec = ModelSpec.from_json_obj(obj["spec"])
            y = int(obj["label"])
        except Exception as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if y not in (0, 1):
            raise ParseError(f"{path}:{lineno}: label must be 0 or 1")
        items.append((spec, y))
    return items, meta
