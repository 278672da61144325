"""Convergence traces: rows of (step index, simulated seconds, best-so-far
true accuracy where known, best-so-far fitness).

Simulated seconds and both best-so-far columns are nondecreasing; the true
accuracy column may be empty on rows where no ground truth has been observed
yet (predictor-guided search phases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParseError, check_fields, parsing

TRACE_HEADER = "index,sim_seconds,best_true_acc,best_fitness"

# how far a column may fall and still pass as level, and how far a best
# true accuracy must rise (or reach toward a target) to count
EPS = 1e-12


class TraceRow(NamedTuple):
    # `index` shadows tuple.index, which nothing calls
    index: int
    sim_seconds: float
    best_true_acc: float | None
    best_fitness: float


@dataclass
class SearchTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, index: int, sim_seconds: float, best_true_acc, best_fitness: float) -> None:
        self.rows.append(TraceRow(index, float(sim_seconds), best_true_acc, float(best_fitness)))

    def validate(self) -> tuple[tuple[float, float], ...]:
        """Raise ValueError where a column decreases; else return
        (sim_seconds, best_true_acc) at each rise of the true-accuracy column
        above its last such point, the data time-to-target queries need."""
        last_s = -float("inf")
        last_true = -float("inf")
        last_fit = -float("inf")
        improvements = []
        for row in self.rows:
            if row.sim_seconds < last_s - EPS:
                raise ValueError(f"sim_seconds decreases at row {row.index}")
            if row.best_fitness < last_fit - EPS:
                raise ValueError(f"best_fitness decreases at row {row.index}")
            if row.best_true_acc is not None:
                if row.best_true_acc < last_true - EPS:
                    raise ValueError(f"best_true_acc decreases at row {row.index}")
                if not improvements or row.best_true_acc > improvements[-1][1] + EPS:
                    improvements.append((row.sim_seconds, row.best_true_acc))
                last_true = row.best_true_acc
            last_s = row.sim_seconds
            last_fit = row.best_fitness
        return tuple(improvements)

    def final_row(self) -> TraceRow:
        if not self.rows:
            raise ValueError("empty trace")
        return self.rows[-1]

    def to_csv_lines(self) -> list[str]:
        self.validate()
        lines = [TRACE_HEADER]
        true_acc = fitness = tail = None
        for row in self.rows:
            # a run of rows shares one best-so-far pair of objects: format it once
            if row.best_true_acc is not true_acc or row.best_fitness is not fitness:
                true_acc, fitness = row.best_true_acc, row.best_fitness
                tail = f"{'' if true_acc is None else repr(true_acc)},{repr(fitness)}"
            lines.append(f"{row.index},{repr(row.sim_seconds)},{tail}")
        return lines


def write_trace(trace: SearchTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace.to_csv_lines()) + "\n")


def read_trace(path) -> SearchTrace:
    trace = SearchTrace()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ParseError(f"{path}: missing trace header")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 fields")
        values = []
        for name, text, kind in zip(TRACE_HEADER.split(","), parts, (int, float, float, float)):
            with parsing(path, lineno, name):
                values.append(None if name == "best_true_acc" and text == "" else kind(text))
        row = TraceRow(*values)
        with parsing(path, lineno):
            check_fields(row)
        trace.rows.append(row)
    with parsing(path):
        trace.validate()
    return trace
