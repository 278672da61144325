"""The benchmark's workloads: the `cellsearch run` flags each one passes, the
count its trace self-check compares, and how its seed list is derived.

README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # `cellsearch run` flags, without --seed and --out
    limits: tuple[int, int]  # (max_vertices, max_edges) that the flags select
    seed_s: float  # typical seconds per seed on a 2-core x86-64 VM, tracing off
    counted: str  # wrapped function whose calls the trace self-check counts
    # expected calls of `counted` in one seeded run, from its summary counts
    expected_calls: Callable[[dict], int]
    expected_what: str  # the program's own counter behind expected_calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gt-evolution",
            args=(
                "--algo", "evolution", "--fitness", "oracle", "--limits", "5,9",
                "--population-size", "50", "--sample-size", "10", "--cycles", "2000",
            ),
            limits=(5, 9),
            seed_s=0.65,
            counted="oracle.query",
            expected_calls=lambda counts: counts["evaluations"],
            expected_what="summary evaluations",
        ),
        Workload(
            name="predictor-pipeline",
            args=(
                "--algo", "evolution", "--fitness", "predictor", "--limits", "5,9",
                "--n-label", "400", "--top-k", "10",
            ),
            limits=(5, 9),
            seed_s=4.5,
            counted="oracle.label",
            expected_calls=lambda counts: 400,
            expected_what="n_label",
        ),
        Workload(
            name="reinforce-7-9",
            args=(
                "--algo", "reinforce", "--fitness", "oracle", "--limits", "7,9",
                "--batch-size", "20", "--iterations", "50",
            ),
            limits=(7, 9),
            seed_s=2.3,
            counted="reinforce.sample",
            expected_calls=lambda counts: 20 * 50,
            expected_what="batch_size x iterations",
        ),
    )
}

MIN_SEEDS = 3


def seed_list(workload: Workload, seed: int, seconds: int) -> list[int]:
    """The seeds one benchmark run goes through: enough for about `seconds`
    of work, numbered from `seed * 1000` so different benchmark seeds give
    disjoint lists."""
    n = max(MIN_SEEDS, round(seconds / workload.seed_s))
    return [seed * 1000 + i for i in range(n)]
