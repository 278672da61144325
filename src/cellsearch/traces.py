"""Convergence traces: rows of (step index, simulated seconds, best so far).

A run's trace is its log of paid queries, whose best is the best true
accuracy the run has paid for; a predictor run's search trace holds the best
predicted score of the cells searched so far. Neither column after the index
falls below its running maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParseError, check_fields, parsing

TRACE_HEADER = "index,sim_seconds,best"

# how far a column may fall below its running maximum and still pass as
# level, and how far a best must rise (or reach toward a target) to count
EPS = 1e-12


class TraceRow(NamedTuple):
    # `index` shadows tuple.index, which nothing calls
    index: int
    sim_seconds: float
    best: float


@dataclass
class SearchTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, index: int, sim_seconds: float, best: float) -> None:
        self.rows.append(TraceRow(index, float(sim_seconds), float(best)))

    def validate(self) -> tuple[tuple[float, float], ...]:
        """Raise ValueError where a column falls more than EPS below its
        running maximum; else return (sim_seconds, best) at each rise of the
        best more than EPS above its last such point, the data
        time-to-target queries need."""
        top_s = top_best = -float("inf")
        improvements = []
        for row in self.rows:
            if row.sim_seconds < top_s - EPS:
                raise ValueError(f"sim_seconds decreases at row {row.index}")
            if row.best < top_best - EPS:
                raise ValueError(f"best decreases at row {row.index}")
            if not improvements or row.best > improvements[-1][1] + EPS:
                improvements.append((row.sim_seconds, row.best))
            if row.sim_seconds > top_s:
                top_s = row.sim_seconds
            if row.best > top_best:
                top_best = row.best
        return tuple(improvements)

    def to_csv_lines(self) -> list[str]:
        self.validate()
        lines, best, text = [TRACE_HEADER], None, ""
        for i, s, b in self.rows:
            if b is not best:  # a run of rows shares one best object: format it once
                best, text = b, repr(b)
            lines.append(f"{i},{s!r},{text}")
        return lines


def write_trace(trace: SearchTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace.to_csv_lines()) + "\n")


def read_trace(path) -> SearchTrace:
    trace = SearchTrace()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ParseError(f'{path}: expected header "{TRACE_HEADER}"')
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields")
        values = []
        for name, text, kind in zip(TRACE_HEADER.split(","), parts, (int, float, float)):
            with parsing(path, lineno, name):
                values.append(kind(text))
        row = TraceRow(*values)
        with parsing(path, lineno):
            check_fields(row)
        trace.rows.append(row)
    with parsing(path):
        trace.validate()
    return trace
