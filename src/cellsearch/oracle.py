"""Ground-truth fitness: a file-backed benchmark table or a deterministic
synthetic benchmark, and the log of a run's paid queries.

Every paid ground-truth query adds the architecture's full training time
to the log's simulated seconds, which are the x-axis of every convergence
trace; a class the log already holds is answered for free.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from array import array
from dataclasses import dataclass, field
from typing import Annotated

from . import cellspace
from .cellspace import ModelSpec, OpLabel, SpaceLimits
from .errors import (
    DuplicateHashError, In, UnknownArchitectureError, check_fields, check_value, parsing,
)
from .traces import SearchTrace

DEFAULT_LABEL_THRESHOLD = 0.90
SYNTHETIC_THRESHOLD_QUANTILE = 0.90


@dataclass(frozen=True)
class BenchmarkRecord:
    spec_hash: str
    val_accuracy: float
    train_time_s: float

    def __post_init__(self):
        if not 0.0 <= self.val_accuracy <= 1.0:
            raise ValueError(f"val_accuracy {self.val_accuracy} outside [0, 1]")
        if self.train_time_s < 0.0:
            raise ValueError(f"train_time_s {self.train_time_s} is negative")


@dataclass(frozen=True)
class SyntheticOracleParams:
    """Coefficients of the synthetic accuracy/time functions: finite reals,
    `accuracy_cap` in [0, 1] (so every accuracy is) and the time_* ones in
    [0, inf). All defaults are design constants, not measured data."""

    base_accuracy: float = 0.62
    conv3x3_gain: float = 0.045
    conv1x1_gain: float = 0.030
    maxpool_gain: float = 0.010
    depth_gain: float = 0.015
    edge_penalty: float = 0.004
    accuracy_cap: Annotated[float, In("[0, 1]")] = 0.95
    jitter_scale: float = 0.02
    time_base_s: Annotated[float, In("[0, inf)")] = 200.0
    time_conv3x3_s: Annotated[float, In("[0, inf)")] = 300.0
    time_conv1x1_s: Annotated[float, In("[0, inf)")] = 150.0
    time_maxpool_s: Annotated[float, In("[0, inf)")] = 60.0
    time_edge_s: Annotated[float, In("[0, inf)")] = 40.0

    def __post_init__(self):
        check_fields(self)
        # -0.0 == 0.0, so params that differ only there would share memo entries
        for name, value in vars(self).items():
            if isinstance(value, float) and value == 0.0:
                object.__setattr__(self, name, 0.0)


@dataclass
class BenchmarkTable:
    records: dict[str, BenchmarkRecord] = field(default_factory=dict)

    def record_for(self, spec: ModelSpec) -> BenchmarkRecord:
        digest = cellspace.canonical_hash(spec)
        try:
            return self.records[digest]
        except KeyError:
            raise UnknownArchitectureError(
                f"no benchmark record for hash {digest}"
            ) from None


class SyntheticOracle:
    """Deterministic stand-in for training-and-evaluating an architecture."""

    def __init__(self, params: SyntheticOracleParams | None = None):
        self.params = params or SyntheticOracleParams()

    def record_for(self, spec: ModelSpec) -> BenchmarkRecord:
        return synth_record(spec, self.params)


def spec_features(spec: ModelSpec) -> dict:
    ops = spec.ops  # IN and OUT match none of the three
    return {
        "n_conv3x3": ops.count(OpLabel.CONV3X3),
        "n_conv1x1": ops.count(OpLabel.CONV1X1),
        "n_maxpool": ops.count(OpLabel.MAXPOOL3X3),
        "n_edges": spec.num_edges,
        "depth": cellspace.longest_path_edges(spec),
    }


def synth_record(spec: ModelSpec, params: SyntheticOracleParams) -> BenchmarkRecord:
    """Accuracy and training time as fixed functions of cell structure.

    Accuracy rewards convolutions and depth, penalizes edges, and carries a
    small deterministic jitter derived from the canonical hash so that no
    two non-isomorphic cells tie (almost surely). Time grows with the
    operation mix and edge count. Equal specs and params share one memo
    entry (HASH_MEMO_SIZE) for the life of the process.
    """
    return _record_memo(spec, params)


def _synth_record(spec: ModelSpec, params: SyntheticOracleParams) -> BenchmarkRecord:
    return _record(spec, cellspace.canonical_hash(spec), params)


def _record(spec: ModelSpec, digest: str, params: SyntheticOracleParams) -> BenchmarkRecord:
    f = spec_features(spec)
    time_s = (
        params.time_base_s
        + params.time_conv3x3_s * f["n_conv3x3"]
        + params.time_conv1x1_s * f["n_conv1x1"]
        + params.time_maxpool_s * f["n_maxpool"]
        + params.time_edge_s * f["n_edges"]
    )
    return BenchmarkRecord(digest, _accuracy(f, digest, params), time_s)


def _accuracy(f: dict, digest: str, params: SyntheticOracleParams) -> float:
    """Accuracy from `spec_features`, jittered by the digest's leading 64
    bits as a fraction in [0, 1], then clamped."""
    raw = (
        params.base_accuracy
        + params.conv3x3_gain * f["n_conv3x3"]
        + params.conv1x1_gain * f["n_conv1x1"]
        + params.maxpool_gain * f["n_maxpool"]
        + params.depth_gain * f["depth"]
        - params.edge_penalty * f["n_edges"]
    )
    fraction = int(digest[:16], 16) / 2.0**64
    return min(max(raw + (fraction - 0.5) * params.jitter_scale, 0.0), params.accuracy_cap)


# a plain `def` calls the memo, so perfbench's tracer still wraps `synth_record`
_record_memo = functools.lru_cache(maxsize=cellspace.HASH_MEMO_SIZE)(_synth_record)


def query(
    oracle: BenchmarkTable | SyntheticOracle, spec: ModelSpec
) -> tuple[BenchmarkRecord, float]:
    """The ground-truth record for a spec and the simulated seconds that
    training it costs, its `train_time_s`. `PaidQueries.query` calls this
    module function once per paid query, so a tracer or a spy that counts
    `oracle.query` calls counts the paid queries."""
    record = oracle.record_for(spec)
    return record, record.train_time_s


def label(record: BenchmarkRecord, threshold: float = DEFAULT_LABEL_THRESHOLD) -> int:
    """1 when validation accuracy strictly exceeds the threshold, else 0."""
    return 1 if record.val_accuracy > threshold else 0


def synthetic_table(params: SyntheticOracleParams, limits: SpaceLimits):
    """Yield (spec, record) for one representative of every class of the
    enumerated space, in enumeration order. Each class comes at its
    canonical key, so its digest is that key's, and no memo is filled."""
    for spec in cellspace.enumerate_space(limits):
        yield spec, _record(spec, cellspace.digest_of_key(cellspace.key_of(spec)), params)


def _linear_quantile(n: int, order_statistics) -> float:
    """np.quantile(x, 0.9) by its default 'linear' method, bit for bit, for
    len(x) == n, given x's lo-th and hi-th smallest as order_statistics(lo,
    hi). numpy clips a virtual index at or past the last rank to rank -1,
    and reads the weight off the clipped rank."""
    index = (n - 1) * SYNTHETIC_THRESHOLD_QUANTILE
    lo = math.floor(index) if index < n - 1 else -1
    a, b = order_statistics(lo % n, lo + 1 if lo >= 0 else n - 1)
    t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t  # numpy's `_lerp`


class _SpaceScan:
    """One pass over the enumerated synthetic space: every class's accuracy,
    in enumeration order, and the first class of the largest. Each class is
    yielded at its canonical key, so its digest is that key's, and the scan
    goes through neither memo."""

    def __init__(self, params: SyntheticOracleParams, limits: SpaceLimits):
        self.params, self.accuracies, best = params, array("d"), -math.inf
        for spec in cellspace.enumerate_space(limits):
            digest = cellspace.digest_of_key(cellspace.key_of(spec))
            accuracy = _accuracy(spec_features(spec), digest, params)
            self.accuracies.append(accuracy)
            if accuracy > best:
                best, self.best_spec = accuracy, spec

    @functools.cached_property
    def threshold(self) -> float:
        n = len(self.accuracies)

        def order_statistics(lo, hi):
            # both lie in the top decile: the (n - lo) largest, descending
            top = heapq.nlargest(n - lo, self.accuracies)
            return top[-1], top[n - 1 - hi]

        return _linear_quantile(n, order_statistics)

    @functools.cached_property
    def optimum(self):
        return self.best_spec, synth_record(self.best_spec, self.params)


# the process keeps the last scan: a run, or every seed of one `run`, shares one key
_synthetic_scan = functools.lru_cache(maxsize=1)(_SpaceScan)


def synthetic_label_threshold(
    params: SyntheticOracleParams, limits: SpaceLimits
) -> float:
    """Label threshold for synthetic runs: np.quantile's 0.90 quantile of
    accuracy over the enumerated space, bit for bit, so both classes are
    populated wherever the synthetic accuracy range sits."""
    return _synthetic_scan(params, limits).threshold


def synthetic_optimum(params: SyntheticOracleParams, limits: SpaceLimits):
    """(spec, record) of the best cell in the enumerated synthetic space
    (the first in enumeration order on a tie)."""
    return _synthetic_scan(params, limits).optimum


def load_table(path) -> BenchmarkTable:
    """Load a line-delimited benchmark file.

    Each line is a JSON object {"spec": <spec object>, "val_accuracy": x,
    "train_time_s": t}. Hashes are recomputed from the spec; a repeated
    hash is an error, as is any accuracy outside [0, 1].
    """
    table = BenchmarkTable()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            with parsing(path, lineno):
                obj = json.loads(line)
                spec = ModelSpec.from_json_obj(obj["spec"])
                for name in ("val_accuracy", "train_time_s"):
                    check_value(name, obj[name], float)
                # a checked int becomes a float, which trace.csv prints as 1.0
                record = BenchmarkRecord(
                    spec_hash=cellspace.canonical_hash(spec),
                    val_accuracy=float(obj["val_accuracy"]),
                    train_time_s=float(obj["train_time_s"]),
                )
            if record.spec_hash in table.records:
                raise DuplicateHashError(
                    f"{path}:{lineno}: duplicate hash {record.spec_hash}"
                )
            table.records[record.spec_hash] = record
    return table


@dataclass
class PaidQueries:
    """The run's ground-truth queries and its one payment rule.

    A query for a class that the log holds is answered from the log for
    free: no seconds, no trace row, one more `memo_hits`. Any other is
    paid: it adds the class's training time to `sim_seconds`, keeps the
    best (spec, hash, true accuracy) so far (only a strictly better answer
    replaces it), appends the trace row (n, sim_seconds, best true
    accuracy) and logs the answer. So a run pays for a class's training at
    most once. Every run's trace is this log.

    `evaluate`, the fitness of a ground-truth search, is that query for a
    cell; it refuses a genome that is not a cell with InvalidSpecError,
    paying nothing.
    """

    oracle: BenchmarkTable | SyntheticOracle
    sim_seconds: float = 0.0  # the paid queries' summed cost
    trace: SearchTrace = field(default_factory=SearchTrace)
    best: tuple | None = None  # (spec, hash, true accuracy)
    answers: dict[str, BenchmarkRecord] = field(default_factory=dict)  # hash -> paid answer
    memo_hits: int = 0

    @property
    def evaluations(self) -> int:
        """Paid queries so far, one trace row each."""
        return len(self.trace.rows)

    def query(self, spec: ModelSpec, digest: str) -> BenchmarkRecord:
        logged = self.answers.get(digest)
        if logged is not None:
            self.memo_hits += 1
            return logged
        record, seconds = query(self.oracle, spec)
        self.answers[digest] = record
        if self.best is None or record.val_accuracy > self.best[2]:
            self.best = (spec, digest, record.val_accuracy)
        self.sim_seconds += seconds
        self.trace.append(len(self.trace.rows) + 1, self.sim_seconds, self.best[2])
        return record

    def evaluate(self, cell: ModelSpec) -> float:
        return self.query(cell, cellspace.canonical_hash(cell)).val_accuracy


def table_line(spec, record) -> dict:
    """The object of one benchmark-file line."""
    return {
        "spec": spec.to_json_obj(),
        "val_accuracy": record.val_accuracy,
        "train_time_s": record.train_time_s,
    }


def dump_table_lines(records):
    """Serialize (spec, record) pairs to benchmark-file lines, one at a
    time."""
    for spec, record in records:
        yield json.dumps(table_line(spec, record), sort_keys=True)
