"""The DAG cell search space: specs, validation, canonical hashing, sampling,
mutation, and small-scale exhaustive enumeration.

A cell is a directed acyclic graph on at most `max_vertices` vertices with at
most `max_edges` edges. Vertex 0 is the input, vertex v-1 is the output, and
every edge goes from a lower to a higher index, so acyclicity is structural.
Interior vertices carry one of three operations (3x3 convolution, 1x1
convolution, 3x3 max-pool).

Isomorphic cells (same structure and labels under a relabeling of interior
vertices) are identified by an iterative neighborhood-refinement hash, so
benchmark lookup and enumeration never distinguish two drawings of one cell.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    ExhaustedError,
    InvalidSpecError,
    NoPathError,
    TooLargeError,
)

MAX_REJECTION_ATTEMPTS = 10_000

# Bounds of the value-keyed memos on `canonical_hash` and `prune`. Search
# re-derives a few hundred distinct cells per seeded run as fresh, equal
# `ModelSpec` objects; unbounded memos raised peak memory by up to 37% on
# the predictor pipeline, whose random draws are mostly distinct.
HASH_MEMO_SIZE = 1024
PRUNE_MEMO_SIZE = 256

# Vertex counts above this make per-v enumeration (2^(v(v-1)/2) * 3^(v-2))
# intractable on a desk machine.
ENUMERATION_VERTEX_CAP = 6


class OpLabel(enum.Enum):
    IN = "in"
    OUT = "out"
    CONV3X3 = "conv3x3"
    CONV1X1 = "conv1x1"
    MAXPOOL3X3 = "maxpool3x3"


# Op codes, hashed into every canonical digest: changing one changes every
# hash.
OP_CODES = {
    OpLabel.IN: 0,
    OpLabel.OUT: 1,
    OpLabel.CONV3X3: 2,
    OpLabel.CONV1X1: 3,
    OpLabel.MAXPOOL3X3: 4,
}

INTERIOR_OPS = (OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3)

class Violation(enum.Enum):
    TOO_MANY_VERTICES = "too_many_vertices"
    TOO_MANY_EDGES = "too_many_edges"
    BAD_TERMINAL_OPS = "bad_terminal_ops"
    NO_IN_OUT_PATH = "no_in_out_path"
    DANGLING_VERTEX = "dangling_vertex"


@dataclass(frozen=True)
class SpaceLimits:
    max_vertices: int = 7
    max_edges: int = 9

    def __post_init__(self):
        if self.max_vertices < 2:
            raise ValueError("max_vertices must be >= 2")
        if self.max_edges < 1:
            raise ValueError("max_edges must be >= 1")


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def upper_triangle_pairs(num_vertices: int) -> list[tuple[int, int]]:
    """All (i, j) with i < j, row-major: (0,1), (0,2), ..., (v-2, v-1)."""
    return [
        (i, j)
        for i in range(num_vertices)
        for j in range(i + 1, num_vertices)
    ]


@dataclass(frozen=True)
class ModelSpec:
    """A labeled DAG cell.

    `edges` holds the strictly upper-triangular adjacency as sorted (i, j)
    pairs with i < j; `ops` holds one label per vertex. Instances are
    immutable and safe to share across threads.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    ops: tuple[OpLabel, ...]

    def __post_init__(self):
        v = self.num_vertices
        if v < 2:
            raise ValueError(f"need at least 2 vertices, got {v}")
        edges = tuple(sorted(tuple(e) for e in self.edges))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ops", tuple(self.ops))
        if len(self.ops) != v:
            raise ValueError(f"ops length {len(self.ops)} != num_vertices {v}")
        seen = set()
        for i, j in edges:
            if not (0 <= i < j < v):
                raise ValueError(f"edge ({i},{j}) is not strictly upper-triangular in range")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def predecessors(self, j: int) -> list[int]:
        return [i for i, k in self.edges if k == j]

    def to_json_obj(self) -> dict:
        """Human-readable form used in every file interface."""
        return {
            "v": self.num_vertices,
            "edges": [[i, j] for i, j in self.edges],
            "ops": [op.value for op in self.ops],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModelSpec":
        try:
            v = int(obj["v"])
            edges = tuple((int(i), int(j)) for i, j in obj["edges"])
            ops = tuple(OpLabel(name) for name in obj["ops"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed spec object: {exc}") from exc
        return cls(v, edges, ops)


def _on_path(spec: ModelSpec) -> set[int]:
    """Vertices on some directed input->output path; empty when the output
    is unreachable from the input. Edges are sorted with i < j, so one
    forward sweep settles reachability from the input and one backward
    sweep settles reachability of the output."""
    v = spec.num_vertices
    from_input = [True] + [False] * (v - 1)
    for i, j in spec.edges:
        if from_input[i]:
            from_input[j] = True
    to_output = [False] * (v - 1) + [True]
    for i, j in reversed(spec.edges):
        if to_output[j]:
            to_output[i] = True
    return {k for k in range(v) if from_input[k] and to_output[k]}


def validate(spec: ModelSpec, limits: SpaceLimits) -> ValidationReport:
    """Check a structurally well-formed spec against the space constraints.

    Every violated constraint is reported; nothing raises. A spec is valid
    iff the vertex and edge budgets hold, terminals are labeled IN/OUT with
    interior vertices on real operations, and every vertex lies on some
    directed path from input to output.
    """
    violations = []
    v = spec.num_vertices
    if v > limits.max_vertices:
        violations.append(Violation.TOO_MANY_VERTICES)
    if spec.num_edges > limits.max_edges:
        violations.append(Violation.TOO_MANY_EDGES)
    terminals_ok = spec.ops[0] is OpLabel.IN and spec.ops[-1] is OpLabel.OUT
    interiors_ok = all(op in INTERIOR_OPS for op in spec.ops[1:-1])
    if not (terminals_ok and interiors_ok):
        violations.append(Violation.BAD_TERMINAL_OPS)
    on_path = _on_path(spec)
    if not on_path:
        violations.append(Violation.NO_IN_OUT_PATH)
    if len(on_path) < v:
        violations.append(Violation.DANGLING_VERTEX)
    return ValidationReport(valid=not violations, violations=tuple(violations))


def prune(spec: ModelSpec) -> ModelSpec:
    """Drop every vertex that is not on a directed input->output path.

    Surviving vertices are renumbered in their original order. Idempotent;
    never grows the graph. Raises NoPathError when the output is unreachable
    from the input. Equal specs share one memo entry (PRUNE_MEMO_SIZE);
    errors are raised afresh on every call.
    """
    return _prune_memo(spec)


def _prune(spec: ModelSpec) -> ModelSpec:
    if spec.ops[0] is not OpLabel.IN or spec.ops[-1] is not OpLabel.OUT:
        raise InvalidSpecError("prune requires IN at vertex 0 and OUT at the last vertex")
    keep = sorted(_on_path(spec))
    if not keep:
        raise NoPathError("output is unreachable from input")
    renumber = {old: new for new, old in enumerate(keep)}
    kept = set(keep)
    edges = tuple(
        (renumber[i], renumber[j]) for i, j in spec.edges if i in kept and j in kept
    )
    ops = tuple(spec.ops[old] for old in keep)
    return ModelSpec(len(keep), edges, ops)


# perfbench's tracer wraps only plain functions (`inspect.isfunction`), so
# `prune` and `canonical_hash` stay `def`s that call their memos.
_prune_memo = functools.lru_cache(maxsize=PRUNE_MEMO_SIZE)(_prune)


def require_canonical(spec: ModelSpec) -> None:
    """Accept a spec for hashing, feature extraction, and encoding only when
    it has proper terminals, real interior ops, and every vertex on an
    input->output path (i.e. the spec equals its own pruning)."""
    if (
        spec.ops[0] is not OpLabel.IN
        or spec.ops[-1] is not OpLabel.OUT
        or any(op not in INTERIOR_OPS for op in spec.ops[1:-1])
        or len(_on_path(spec)) != spec.num_vertices
    ):
        raise InvalidSpecError(
            "spec must be pruned and valid (IN/OUT terminals, interior ops, "
            "all vertices on an input->output path)"
        )


def _h(*parts: bytes) -> bytes:
    """128-bit hash of length-prefixed byte parts (4-byte big-endian lengths)."""
    blob = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
    return hashlib.blake2b(blob, digest_size=16).digest()


def canonical_hash(spec: ModelSpec) -> str:
    """Isomorphism-invariant 128-bit digest of a pruned, valid spec.

    Each vertex starts from a digest of (op code, in-degree, out-degree);
    for num_vertices rounds every vertex digest is rehashed with the sorted
    digests of its predecessors and successors; the final digest hashes the
    sorted vertex digests together with the vertex count. Relabelings that
    preserve edges, operations, and the IN/OUT roles cannot change any of
    those ingredients, so isomorphic specs collide by construction.

    Returns 32 lowercase hex characters. Equal specs share one memo entry
    (HASH_MEMO_SIZE); InvalidSpecError is raised afresh on every call.
    """
    return _hash_memo(spec)


def _wl_hash(spec: ModelSpec) -> str:
    require_canonical(spec)
    v = spec.num_vertices
    preds: list[list[int]] = [[] for _ in range(v)]
    succs: list[list[int]] = [[] for _ in range(v)]
    for i, j in spec.edges:
        preds[j].append(i)
        succs[i].append(j)
    digests = [
        _h(
            bytes([OP_CODES[spec.ops[k]]]),
            bytes([len(preds[k])]),
            bytes([len(succs[k])]),
        )
        for k in range(v)
    ]
    for _ in range(v):
        digests = [
            _h(
                digests[k],
                b"".join(sorted(digests[p] for p in preds[k])),
                b"".join(sorted(digests[s] for s in succs[k])),
            )
            for k in range(v)
        ]
    return _h(b"".join(sorted(digests)), bytes([v])).hex()


_hash_memo = functools.lru_cache(maxsize=HASH_MEMO_SIZE)(_wl_hash)


def random_spec(rng, limits: SpaceLimits) -> ModelSpec:
    """Sample a valid, pruned spec by rejection. Not uniform over cells.

    Draws a vertex count uniform in [2, max_vertices], each upper-triangular
    edge with probability 0.5, interior ops uniform, then prunes; anything
    failing validation is redrawn from scratch. The vertex count is drawn
    before pruning, and pruning only shrinks cells, so small cells dominate:
    at (5,9) about 49% of draws are the single 2-vertex class. `rng` is a
    random.Random.
    """
    for _ in range(MAX_REJECTION_ATTEMPTS):
        v = rng.randint(2, limits.max_vertices)
        edges = tuple(p for p in upper_triangle_pairs(v) if rng.random() < 0.5)
        ops = (
            (OpLabel.IN,)
            + tuple(rng.choice(INTERIOR_OPS) for _ in range(v - 2))
            + (OpLabel.OUT,)
        )
        try:
            candidate = prune(ModelSpec(v, edges, ops))
        except NoPathError:
            continue
        if validate(candidate, limits).valid:
            return candidate
    raise ExhaustedError(
        f"no valid random spec after {MAX_REJECTION_ATTEMPTS} draws at {limits}"
    )


def _pad_to(spec: ModelSpec, max_vertices: int, rng) -> ModelSpec:
    """Embed a spec into the full-size template: original interiors keep
    their indices, OUT moves to the last slot, and the new (dormant)
    interior slots get uniformly drawn ops. Dormant vertices start with no
    edges, so the padded genome prunes back to the original spec."""
    v = spec.num_vertices
    if v == max_vertices:
        return spec
    out_new = max_vertices - 1
    edges = tuple((i, out_new if j == v - 1 else j) for i, j in spec.edges)
    ops = (
        spec.ops[: v - 1]
        + tuple(rng.choice(INTERIOR_OPS) for _ in range(max_vertices - v))
        + (OpLabel.OUT,)
    )
    return ModelSpec(max_vertices, edges, ops)


def _edit_menu(genome: ModelSpec) -> list[tuple]:
    """Primitive edits of a (padded) genome: one adjacency bit flip anywhere
    in the upper triangle, or one op swap on any interior slot (dormant
    slots included — their ops are real genetic material that matters when
    a later edge flip brings the vertex alive)."""
    edits: list[tuple] = [
        ("flip", i, j) for i, j in upper_triangle_pairs(genome.num_vertices)
    ]
    for k in range(1, genome.num_vertices - 1):
        for op in INTERIOR_OPS:
            if op is not genome.ops[k]:
                edits.append(("op", k, op))
    return edits


def _apply_edit(genome: ModelSpec, edit: tuple) -> ModelSpec:
    if edit[0] == "flip":
        _, i, j = edit
        present = set(genome.edges)
        present.symmetric_difference_update({(i, j)})
        return ModelSpec(genome.num_vertices, tuple(sorted(present)), genome.ops)
    _, k, op = edit
    ops = list(genome.ops)
    ops[k] = op
    return ModelSpec(genome.num_vertices, genome.edges, tuple(ops))


def mutate(parent: ModelSpec, rng, limits: SpaceLimits) -> ModelSpec:
    """One uniformly-drawn primitive edit of the parent genome.

    The edit is applied to the parent padded out to `max_vertices` with
    dormant (edgeless) interior vertices, and the child is returned
    UNPRUNED: dormant and half-connected vertices are hereditary material.
    A single flip can only give a dead vertex its first edge — the cell it
    computes (the pruning) is unchanged — but a later flip on that child
    completes the connection and the vertex comes alive. Pruning children
    here instead would discard those neutral intermediates and the search
    could never regrow vertices, walling itself into small-cell subspaces.

    A child is accepted when the cell it prunes to is valid under the
    limits; otherwise the edit is redrawn (with replacement, up to the
    attempt cap). The child always differs from the padded parent by
    exactly the one edit.
    """
    genome = _pad_to(parent, limits.max_vertices, rng)
    menu = _edit_menu(genome)
    for _ in range(MAX_REJECTION_ATTEMPTS):
        edit = rng.choice(menu)
        child = _apply_edit(genome, edit)
        try:
            phenotype = prune(child)
        except NoPathError:
            continue
        if validate(phenotype, limits).valid:
            return child
    raise ExhaustedError(
        f"no valid mutation of a {parent.num_vertices}-vertex parent "
        f"after {MAX_REJECTION_ATTEMPTS} attempts at {limits}"
    )


def check_enumerable(limits: SpaceLimits) -> None:
    """Raise TooLargeError when enumerate_space would refuse `limits`."""
    if limits.max_vertices > ENUMERATION_VERTEX_CAP:
        raise TooLargeError(
            f"refusing to enumerate max_vertices={limits.max_vertices} > {ENUMERATION_VERTEX_CAP}"
        )


def enumerate_space(limits: SpaceLimits) -> Iterator[ModelSpec]:
    """Yield one representative per isomorphism class of valid specs.

    Deterministic order: vertex count ascending, adjacency bitmask ascending
    (bit k = k-th row-major upper-triangular pair), interior labelings in
    product order over (conv3x3, conv1x1, maxpool3x3). Deduplicated by
    canonical hash.
    """
    check_enumerable(limits)
    seen: set[str] = set()
    for v in range(2, limits.max_vertices + 1):
        pairs = upper_triangle_pairs(v)
        for mask in range(2 ** len(pairs)):
            edges = tuple(p for k, p in enumerate(pairs) if mask >> k & 1)
            if len(edges) > limits.max_edges:
                continue
            base = ModelSpec(
                v,
                edges,
                (OpLabel.IN,) + (INTERIOR_OPS[0],) * (v - 2) + (OpLabel.OUT,),
            )
            if not validate(base, limits).valid:
                continue
            for labeling in itertools.product(INTERIOR_OPS, repeat=v - 2):
                spec = ModelSpec(
                    v, edges, (OpLabel.IN,) + labeling + (OpLabel.OUT,)
                )
                digest = canonical_hash(spec)
                if digest not in seen:
                    seen.add(digest)
                    yield spec
