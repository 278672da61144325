"""Shared test fixtures and independent reference implementations.

The reference implementations here are deliberately written from first
principles (plain loops, no shared code with the package) so they can
serve as oracles for the package's vectorized/optimized versions.
"""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

from cellsearch import cellspace, reinforce
from cellsearch.cellspace import ModelSpec, OpLabel, SpaceLimits

# ---------------------------------------------------------------------------
# graph-isomorphism oracle: explicit permutation-minimal canonical form


def perm_canonical_form(spec: ModelSpec):
    """Lexicographically smallest (directed-adjacency-matrix, op-list)
    encoding over all relabelings of interior vertices. Edge direction is
    preserved, so this classifies abstract labeled digraphs exactly — the
    ground truth that hashing is checked against. Slow (factorial) but
    exact."""
    v = spec.num_vertices
    interior = list(range(1, v - 1))
    best = None
    for perm in itertools.permutations(interior):
        new_of_old = {0: 0, v - 1: v - 1}
        for new_pos, old in zip(interior, perm):
            new_of_old[old] = new_pos
        matrix = [[0] * v for _ in range(v)]
        for (i, j) in spec.edges:
            matrix[new_of_old[i]][new_of_old[j]] = 1
        ops = [None] * v
        for old in range(v):
            ops[new_of_old[old]] = spec.ops[old].value
        key = (v, tuple(tuple(row) for row in matrix), tuple(ops))
        if best is None or key < best:
            best = key
    return best


def relabel_spec(spec: ModelSpec, perm):
    """Relabel interior vertices per `perm` (old interior order -> new
    positions), preserving edge direction. Returns None when the permuted
    edge set is no longer strictly upper-triangular, i.e. the image is not
    expressible in the storage convention (it is still the same abstract
    cell, just not storable)."""
    v = spec.num_vertices
    new_of_old = {0: 0, v - 1: v - 1}
    for new_pos, old in zip(range(1, v - 1), perm):
        new_of_old[old] = new_pos
    mapped = [(new_of_old[i], new_of_old[j]) for (i, j) in spec.edges]
    if any(a >= b for a, b in mapped):
        return None
    ops = [None] * v
    for old in range(v):
        ops[new_of_old[old]] = spec.ops[old]
    return ModelSpec.from_edges(v, mapped, ops)


def interior_permutations(spec: ModelSpec):
    yield from itertools.permutations(range(1, spec.num_vertices - 1))


# ---------------------------------------------------------------------------
# reachability oracle (for prune tests): explicit path enumeration


def all_paths_vertices(spec: ModelSpec) -> set:
    """Set of vertices lying on at least one IN->OUT path, by exhaustive
    DFS path enumeration."""
    v = spec.num_vertices
    succs = {i: [j for (a, j) in spec.edges if a == i] for i in range(v)}
    on_path = set()

    def walk(vertex, trail):
        if vertex == v - 1:
            on_path.update(trail + [vertex])
            return
        for nxt in succs[vertex]:
            walk(nxt, trail + [vertex])

    walk(0, [])
    return on_path


# ---------------------------------------------------------------------------
# recurrent-net oracle: step-by-step recomputation with plain Python loops


def reference_rnn_prob(W_x, W_h, b_h, w_o, b_o, token_ids):
    h = np.zeros(W_h.shape[0])
    for t in token_ids:
        x = np.zeros(W_x.shape[1])
        x[t] = 1.0
        h = np.tanh(W_x @ x + W_h @ h + b_h)
    z = float(w_o @ h + b_o)
    return 1.0 / (1.0 + np.exp(-z))


def reference_bce(p, y):
    return -(y * np.log(p) + (1 - y) * np.log(1 - p))


# ---------------------------------------------------------------------------
# finite differences


def central_differences(f, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat
    parameter vector."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        grad[i] = (f(theta + bump) - f(theta - bump)) / (2 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max_i |a_i - n_i| / max(1, |a_i|, |n_i|)  — the usual gradient-check
    metric, safe at zero."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# the controller's backward pass for callers that bring no workspace


def fresh_workspace(controller, schedule, n):
    """A `reinforce.Workspace` of its own for n rollouts of `controller`."""
    return reinforce.Workspace(schedule, controller.hidden_size, controller.emb_dim, n)


def logprob_and_grad(controller, schedule, rollouts):
    """`reinforce.logprob_and_grad` in a fresh workspace sized to `rollouts`."""
    work = fresh_workspace(controller, schedule, len(rollouts))
    return reinforce.logprob_and_grad(controller, schedule, rollouts, work)


def reinforce_update(controller, schedule, batch, baseline, learning_rate, utilities):
    """`reinforce.reinforce_update` in a fresh workspace sized to `batch`."""
    work = fresh_workspace(controller, schedule, len(batch))
    return reinforce.reinforce_update(
        controller, schedule, batch, baseline, learning_rate, utilities, work
    )


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def limits59():
    return SpaceLimits(max_vertices=5, max_edges=9)


@pytest.fixture
def chain3_conv1x1():
    return ModelSpec.from_edges(3, ((0, 1), (1, 2)), (OpLabel.IN, OpLabel.CONV1X1, OpLabel.OUT))


@pytest.fixture
def two_vertex():
    return ModelSpec(2, 1, (OpLabel.IN, OpLabel.OUT))


def make_spec(v, edges, interior_ops):
    ops = (OpLabel.IN,) + tuple(interior_ops) + (OpLabel.OUT,)
    return ModelSpec.from_edges(v, edges, ops)


# spec objects whose numbers int() once truncated into the valid 3-vertex
# chain in -> conv3x3 -> out, in labeled files, tables and summaries alike
LOOSE_SPEC_OBJECTS = [
    {"v": 3.7, "edges": [[0, 1.9], [True, "2"]], "ops": ["in", "conv3x3", "out"]},
    {"v": 3.0, "edges": [[0, 1], [1, 2]], "ops": ["in", "conv3x3", "out"]},
    {"v": "3", "edges": [[0, 1], [1, 2]], "ops": ["in", "conv3x3", "out"]},
    {"v": 3, "edges": [[0, 1.9], [1, 2]], "ops": ["in", "conv3x3", "out"]},
    {"v": 3, "edges": [[0, 1], [True, 2]], "ops": ["in", "conv3x3", "out"]},
    {"v": 3, "edges": [[0, 1], [1, "2"]], "ops": ["in", "conv3x3", "out"]},
]


# ---------------------------------------------------------------------------
# a ModelSpec holds a genome's own fields, (num_vertices, mask, ops)


def phenotype(genome: ModelSpec, limits: SpaceLimits):
    """The cell a genome written as a ModelSpec denotes."""
    return cellspace.phenotype_of(*astuple(genome), limits)


def mutate_spec(parent: ModelSpec, rng, limits: SpaceLimits):
    """`mutate` on a ModelSpec parent, its child genome a ModelSpec too."""
    child, cell = cellspace.mutate(astuple(parent), rng, limits)
    return ModelSpec(*child), cell


@pytest.fixture
def space59_specs():
    return list(cellspace.enumerate_space(SpaceLimits(5, 9)))


# ---------------------------------------------------------------------------
# construction counter


@pytest.fixture
def spec_builds(monkeypatch):
    """A one-item list holding the number of ModelSpecs built since the
    fixture was set up."""
    builds = [0]
    init = ModelSpec.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModelSpec, "__init__", counted)
    return builds
