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
from .errors import (
    ConfigError,
    DegenerateDataError,
    ExhaustedError,
    ParseError,
    TooLargeError,
)
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
        if self.fitness == "PREDICTOR":
            self.check_threshold_derivable("--label-threshold")

    @property
    def derives_synthetic_threshold(self) -> bool:
        """True when the label threshold is the quantile rule over the
        enumerated synthetic space."""
        return self.label_threshold is None and self.oracle_source == "SYNTHETIC"

    def check_threshold_derivable(self, flag: str) -> None:
        """Refuse, naming the threshold `flag`, a default synthetic threshold
        that would have to enumerate a space too large to enumerate."""
        if self.derives_synthetic_threshold:
            try:
                cellspace.check_enumerable(self.limits)
            except TooLargeError as exc:
                raise ConfigError(
                    f"{exc} for the default synthetic label threshold; set {flag}"
                ) from None

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


@dataclass
class PaidQueries:
    """The run's paid ground-truth queries, recorded where they are made.

    Each query charges the clock, keeps the best (spec, hash, true accuracy)
    answered so far (only a strictly better answer replaces it) and appends
    the trace row (n, clock, best, best): the run's trace is this log."""

    oracle: object
    clock: SimClock
    trace: SearchTrace = field(default_factory=SearchTrace)
    best: tuple | None = None  # (spec, hash, true accuracy)

    def query(self, spec: ModelSpec, digest: str, charge: float):
        record = query(self.oracle, spec, self.clock, charge=charge)
        if self.best is None or record.val_accuracy > self.best[2]:
            self.best = (spec, digest, record.val_accuracy)
        best_true = self.best[2]
        self.trace.append(len(self.trace.rows) + 1, self.clock.elapsed_s, best_true, best_true)
        return record


def label_random_specs(cfg: ExperimentConfig, paid: PaidQueries, rng: random.Random):
    """Draw cfg.n_label distinct-by-hash random cells, query each one through
    `paid` (charging label_charge x its training time), and binarize at the
    effective threshold. Returns (labeled (spec, y) list, threshold)."""
    if cfg.n_label <= 0:
        raise ConfigError("n_label must be positive")
    threshold = effective_label_threshold(cfg)
    seen = set()
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
        if digest in seen:
            continue
        seen.add(digest)
        record = paid.query(spec, digest, cfg.label_charge)
        labeled.append((spec, binary_label(record, threshold)))
    return labeled, threshold


def run_predictor_pipeline(cfg: ExperimentConfig, paid: PaidQueries, rng: random.Random):
    """Label N distinct random cells, then fit the binary predictor.

    Phase 1 charges `label_charge` x training time per distinct-by-hash
    architecture; phase 2 (the 80/20 stratified split and the training loop)
    is free. Returns (TrainedPredictor, the labeling phase's summary entry).
    A one-class pool raises DegenerateDataError naming the flags that
    change it.
    """
    started_at = paid.clock.elapsed_s
    labeled, threshold = label_random_specs(cfg, paid, rng)
    labeling_cost = paid.clock.elapsed_s - started_at
    positives = sum(y for _, y in labeled)
    if positives in (0, len(labeled)):
        raise DegenerateDataError(
            f"labeled pool has {positives}/{len(labeled)} positives at "
            f"threshold {threshold!r}; the predictor needs both classes: "
            f"raise --n-label or change --label-threshold"
        )

    split_gen = np.random.default_rng(rng.getrandbits(32))
    trained, _, held_acc, _ = predictor.fit(
        labeled, cfg.predictor, cfg.seed, split_gen, threshold
    )
    return trained, {
        "sim_seconds": labeling_cost,
        "oracle_queries": len(labeled),
        "positives": positives,
        "threshold": threshold,
        "heldout_accuracy": held_acc,
    }


def topk_revalidate(history, k: int, paid: PaidQueries) -> tuple:
    """Ground the k most promising distinct cells of a predictor-guided run.

    Candidates are distinct canonical hashes ranked by their best predictor
    fitness in the history (first-seen order breaks ties); each is queried
    through `paid` at full charge, so the log holds the true-best answer.
    k larger than the distinct count just revalidates everything. Returns
    the revalidated hashes in query order.
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    ranked = {}  # hash -> (score, first_seen, phenotype)
    for order, item in enumerate(history):
        if item.spec is None:
            continue
        # evolution individuals carry a fitness, controller samples a reward
        score = item.reward if hasattr(item, "reward") else item.fitness
        phenotype = cellspace.prune(item.spec)
        digest = cellspace.canonical_hash(phenotype)
        if digest not in ranked or score > ranked[digest][0]:
            first_seen = ranked[digest][1] if digest in ranked else order
            ranked[digest] = (score, first_seen, phenotype)
    candidates = sorted(
        ranked.items(), key=lambda kv: (-kv[1][0], kv[1][1])
    )[: min(k, len(ranked))]
    for digest, (_, _, phenotype) in candidates:
        paid.query(phenotype, digest, 1.0)
    return tuple(digest for digest, _ in candidates)


# ---------------------------------------------------------------------------
# whole experiments


@dataclass
class ExperimentResult:
    summary: RunSummary
    trace: SearchTrace  # the run's cost/true-accuracy record (written to disk)
    search_trace: SearchTrace | None = None  # predictor-phase internal trace
    trained: TrainedPredictor | None = None


def _search(cfg: ExperimentConfig, fitness, clock: SimClock):
    """Dispatch to the configured search loop; returns (history, trace,
    best-scoring genome or None, invalid count)."""
    if cfg.algo == "EVOLUTION":
        best, trace, history = evolution.run_evolution(
            cfg.evolution, cfg.limits, cfg.seed, fitness, clock
        )
        return history, trace, best.spec, 0
    schedule = DecisionSchedule.from_limits(cfg.limits)
    result = reinforce.run_reinforce(cfg.reinforce, schedule, cfg.seed, fitness, clock)
    # max keeps the first of equal rewards
    valid = [s for s in result.history if s.spec is not None]
    best = max(valid, key=lambda s: s.reward, default=None)
    return result.history, result.trace, None if best is None else best.spec, result.invalid_count


def _summarise(
    cfg, trace: SearchTrace, clock: SimClock, best_spec, best_hash, **counts
) -> RunSummary:
    """Both run kinds' summary: the best true accuracy and fitness and the
    improvements are read off the run's trace, the total bill off its clock
    (so cross_check catches a charge the trace did not record); `counts`
    holds the remaining RunSummary fields."""
    final = trace.final_row()
    summary = RunSummary(
        best_spec=best_spec,
        best_hash=best_hash,
        best_true_acc=final.best_true_acc,
        best_fitness=final.best_fitness,
        total_sim_seconds=clock.elapsed_s,
        seed=cfg.seed,
        config=cfg,
        improvements=true_acc_improvements(trace),
        **counts,
    )
    summary.cross_check(trace)
    return summary


def _run_ground_truth(cfg: ExperimentConfig, oracle) -> ExperimentResult:
    clock = SimClock()
    fitness = OracleFitness(oracle)
    history, trace, best, invalid = _search(cfg, fitness, clock)
    best_spec = None if best is None else cellspace.prune(best)
    best_hash = None if best is None else cellspace.canonical_hash(best_spec)
    summary = _summarise(
        cfg, trace, clock, best_spec, best_hash,
        evaluations=fitness.evaluations,
        labels=0,
        invalid_samples=invalid,
        memo_hits=fitness.memo_hits,
        phases={
            "search": {
                "sim_seconds": trace.final_row().sim_seconds,
                "oracle_queries": fitness.evaluations,
                "memo_hits": fitness.memo_hits,
            }
        },
    )
    return ExperimentResult(summary=summary, trace=trace)


def _run_predictor_guided(cfg: ExperimentConfig, oracle) -> ExperimentResult:
    # the run's own trace is the log of its paid ground-truth queries: one
    # row per label, then one per revalidation (the predictor-guided search
    # in between is free; its internal trace is kept separately)
    paid = PaidQueries(oracle, SimClock())
    trained, labeling = run_predictor_pipeline(cfg, paid, random.Random(cfg.seed))

    guided = PredictorFitness(trained.params)
    history, search_trace, _, invalid = _search(cfg, guided, paid.clock)

    started_at = paid.clock.elapsed_s
    revalidated = topk_revalidate(history, cfg.top_k, paid)

    best_spec, best_hash, _ = paid.best
    summary = _summarise(
        cfg, paid.trace, paid.clock, best_spec, best_hash,
        evaluations=guided.evaluations,
        labels=labeling["oracle_queries"],
        invalid_samples=invalid,
        memo_hits=0,
        phases={
            "labeling": labeling,
            "search": {
                "sim_seconds": 0.0,
                "predictor_queries": guided.evaluations,
            },
            "revalidation": {
                "sim_seconds": paid.clock.elapsed_s - started_at,
                "oracle_queries": len(revalidated),
            },
        },
    )
    return ExperimentResult(
        summary=summary, trace=paid.trace, search_trace=search_trace, trained=trained
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
        return asdict(self)


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
