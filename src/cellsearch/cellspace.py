"""The DAG cell search space: specs, validation, canonical hashing, sampling,
mutation, and exact exhaustive enumeration.

A cell is a directed acyclic graph on at most `max_vertices` (itself at
most MAX_VERTICES) vertices with at most `max_edges` edges. Vertex 0 is the
input, vertex v-1 is the output, and every edge goes from a lower to a
higher index, so acyclicity is structural.
Interior vertices carry one of three operations (3x3 convolution, 1x1
convolution, 3x3 max-pool).

Isomorphic cells (same structure and labels under a relabeling of interior
vertices) are identified by an iterative neighborhood-refinement hash, so
benchmark lookup never distinguishes two drawings of one cell. Enumeration
dedupes them exactly, by relabeling, without the hash.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
from dataclasses import dataclass
from typing import Annotated, Iterator

from .errors import ExhaustedError, In, InvalidSpecError, check_fields, check_value, json_tuples

MAX_REJECTION_ATTEMPTS = 10_000

# Bounds of the process-wide, value-keyed memos: HASH_MEMO_SIZE cells on
# `canonical_hash` and `oracle.synth_record`, PRUNE_MEMO_SIZE genomes on
# `phenotype_of`. A multi-seed run shares them: 46 (5,9) aging-evolution
# seeds make 105,514 `phenotype_of` lookups of 3,678 genomes (a late seed
# adds 36-84 new ones) and 11,627 oracle answers of 1,247 cells. Unbounded
# memos raised peak memory by up to 37% on the predictor pipeline, whose
# random draws are mostly distinct.
HASH_MEMO_SIZE = 1024
PRUNE_MEMO_SIZE = 1024

# The package's one vertex cap: the paper's space has up to 7 vertices.
# REINFORCE sizes its per-step biases from it, and (7,9) enumerates exactly.
MAX_VERTICES = 7


class OpLabel(enum.Enum):
    # members are singletons compared by identity, so the identity hash
    # (in C, not Enum's Python-level name hash) is exact
    __hash__ = object.__hash__

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
_INTERIOR = frozenset(INTERIOR_OPS)

class Violation(enum.Enum):
    TOO_MANY_VERTICES = "too_many_vertices"
    TOO_MANY_EDGES = "too_many_edges"
    BAD_TERMINAL_OPS = "bad_terminal_ops"
    NO_IN_OUT_PATH = "no_in_out_path"
    DANGLING_VERTEX = "dangling_vertex"


@dataclass(frozen=True)
class SpaceLimits:
    max_vertices: Annotated[int, In(f"[2, {MAX_VERTICES}]")] = MAX_VERTICES
    max_edges: Annotated[int, In("[1, inf)")] = 9

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


# the pairs of every vertex count up to the cap, indexed by vertex count
_PAIRS = tuple(
    tuple((i, j) for i in range(v) for j in range(i + 1, v)) for v in range(MAX_VERTICES + 1)
)
_PAIR_SETS = tuple(frozenset(pairs) for pairs in _PAIRS)
# per vertex count, each pair's bit in a genome's mask, and per vertex i < v-1
# the shift and bits that read its successors from mask << 1 (see `_on_path`)
_BIT = tuple({p: 1 << k for k, p in enumerate(pairs)} for pairs in _PAIRS)
_ROWS = tuple(
    tuple((pairs.index((i, i + 1)) - i, ((1 << (v - 1 - i)) - 1) << (i + 1)) for i in range(v - 1))
    for v, pairs in enumerate(_PAIRS)
)
# per (n, v), each n-vertex mask bit padded to v vertices: OUT's column moves to v - 1
_PAD_BITS = {
    (n, v): tuple(_BIT[v][i, v - 1 if j == n - 1 else j] for i, j in _PAIRS[n])
    for v in range(MAX_VERTICES + 1) for n in range(2, v)
}


def upper_triangle_pairs(num_vertices: int) -> tuple[tuple[int, int], ...]:
    """All (i, j) with i < j, row-major: (0,1), (0,2), ..., (v-2, v-1)."""
    return _PAIRS[num_vertices]


@dataclass(frozen=True, init=False)
class ModelSpec:
    """A labeled DAG cell.

    `edges` holds the strictly upper-triangular adjacency as sorted (i, j)
    pairs with i < j; `ops` holds one label per vertex, of 2 to MAX_VERTICES.
    Instances are immutable and safe to share across threads.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    ops: tuple[OpLabel, ...]

    def __init__(self, num_vertices: int, edges, ops):
        v = num_vertices
        if not isinstance(v, int) or not 2 <= v <= MAX_VERTICES:
            raise ValueError(f"need 2 to {MAX_VERTICES} vertices, got {v}")
        edges, ops = tuple(sorted(map(tuple, edges))), tuple(ops)
        if len(ops) != v:
            raise ValueError(f"ops length {len(ops)} != num_vertices {v}")
        distinct = frozenset(edges)
        if len(distinct) != len(edges) or not distinct <= _PAIR_SETS[v]:
            # name the first bad edge; sorted, a duplicate follows its twin
            for k, (i, j) in enumerate(edges):
                if not (0 <= i < j < v):
                    raise ValueError(f"edge ({i},{j}) is not strictly upper-triangular in range")
                if k and edges[k - 1] == (i, j):
                    raise ValueError(f"duplicate edge ({i},{j})")
        # once each, past the frozen __setattr__; __dict__ writes would slow reads
        object.__setattr__(self, "num_vertices", v)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ops", ops)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

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
            v, edges, ops = obj["v"], json_tuples(obj["edges"]), json_tuples(obj["ops"])
            check_value("v", v, int)
            check_value("edges", edges, tuple[tuple[int, int], ...])
            check_value("ops", ops, tuple[str, ...])
            ops = tuple(map(OpLabel, ops))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed spec object: {exc}") from exc
        return cls(v, edges, ops)


def genome_of(spec: ModelSpec) -> tuple:
    """A spec as a genome, (num_vertices, mask, ops): bit k of mask is the
    k-th pair of `upper_triangle_pairs(num_vertices)`."""
    return spec.num_vertices, sum(map(_BIT[spec.num_vertices].__getitem__, spec.edges)), spec.ops


def _on_path(num_vertices: int, mask: int) -> int:
    """Bitmask of the vertices on some directed input->output path of an
    edge mask, 0 if none. Edges point upward, so one forward sweep settles
    reachability from the input and one backward sweep that of the output."""
    mask <<= 1
    rows = _ROWS[num_vertices]
    from_input, i = 1, 0
    for shift, successors in rows:
        if from_input >> i & 1:
            from_input |= mask >> shift & successors
        i += 1
    to_output = 1 << i
    if not from_input & to_output:
        return 0
    for shift, successors in reversed(rows):
        i -= 1
        if mask >> shift & successors & to_output:
            to_output |= 1 << i
    return from_input & to_output


def _ops_ok(ops) -> bool:
    """IN and OUT at the terminals, a real operation on every interior vertex."""
    return ops[0] is OpLabel.IN and ops[-1] is OpLabel.OUT and _INTERIOR.issuperset(ops[1:-1])


def _over_budget(num_vertices: int, num_edges: int, max_vertices: int, max_edges: int):
    over = []
    if num_vertices > max_vertices:
        over.append(Violation.TOO_MANY_VERTICES)
    if num_edges > max_edges:
        over.append(Violation.TOO_MANY_EDGES)
    return over


def _broken_rules(spec: ModelSpec) -> list[Violation]:
    """The cell rules, without budgets: IN/OUT terminals, real interior
    ops, and every vertex on some directed input->output path."""
    broken = [] if _ops_ok(spec.ops) else [Violation.BAD_TERMINAL_OPS]
    on_path = _on_path(spec.num_vertices, genome_of(spec)[1])
    if not on_path:
        broken.append(Violation.NO_IN_OUT_PATH)
    if on_path != (1 << spec.num_vertices) - 1:
        broken.append(Violation.DANGLING_VERTEX)
    return broken


def validate(spec: ModelSpec, limits: SpaceLimits) -> ValidationReport:
    """Check a structurally well-formed spec against the space constraints.

    Every violated constraint is reported; nothing raises. A spec is valid
    iff the vertex and edge budgets hold, terminals are labeled IN/OUT with
    interior vertices on real operations, and every vertex lies on some
    directed path from input to output.
    """
    over = _over_budget(spec.num_vertices, spec.num_edges, limits.max_vertices, limits.max_edges)
    violations = over + _broken_rules(spec)
    return ValidationReport(valid=not violations, violations=tuple(violations))


def phenotype_of(num_vertices: int, mask: int, ops, limits: SpaceLimits) -> ModelSpec | None:
    """The cell a genome (see `genome_of`) denotes: the genome less every
    vertex on no input->output path, survivors renumbered in order. None
    when there is no path or the cell breaks a budget or an interior-op
    rule; InvalidSpecError, raised afresh on every call, unless IN and OUT
    sit at the terminals. Builds only the cell it returns; equal genomes and
    limits share one memo entry (PRUNE_MEMO_SIZE, None cached too) and cell."""
    # the limits' ints, not the dataclass, whose generated __hash__ runs in Python
    return _phenotype_memo(num_vertices, mask, ops, limits.max_vertices, limits.max_edges)


def _phenotype(num_vertices: int, mask: int, ops, max_vertices: int, max_edges: int) -> ModelSpec | None:
    if ops[0] is not OpLabel.IN or ops[-1] is not OpLabel.OUT:
        raise InvalidSpecError("a genome needs IN at vertex 0 and OUT at the last vertex")
    keep = _on_path(num_vertices, mask)
    if not keep:
        return None
    pairs, edges = _PAIRS[num_vertices], []
    while mask:  # the set bits, lowest first: the edges, sorted
        low = mask & -mask
        edges.append(pairs[low.bit_length() - 1])
        mask ^= low
    if keep != (1 << num_vertices) - 1:
        kept = [k for k in range(num_vertices) if keep >> k & 1]
        renumber = {old: new for new, old in enumerate(kept)}
        # an edge between two on-path vertices lies on a path itself
        edges = [(renumber[i], renumber[j]) for i, j in edges if keep >> i & 1 and keep >> j & 1]
        num_vertices, ops = len(kept), tuple(ops[k] for k in kept)
    # the cell keeps exactly the on-path vertices and the IN/OUT terminals,
    # so only its budgets and interior ops remain to check
    if _over_budget(num_vertices, len(edges), max_vertices, max_edges) or not _ops_ok(ops):
        return None
    return ModelSpec(num_vertices, edges, ops)


# perfbench's tracer wraps only plain functions (`inspect.isfunction`), so
# `phenotype_of` and `canonical_hash` stay `def`s that call their memos.
_phenotype_memo = functools.lru_cache(maxsize=PRUNE_MEMO_SIZE)(_phenotype)


def require_canonical(spec: ModelSpec) -> None:
    """Accept a spec for hashing, feature extraction, and encoding only when
    it breaks no cell rule (i.e. the spec equals its own pruning); otherwise
    raise InvalidSpecError naming the rules it breaks."""
    broken = _broken_rules(spec)
    if broken:
        rules = ", ".join(rule.value for rule in broken)
        raise InvalidSpecError(f"spec is not a pruned, valid cell: {rules}")


# the 4-byte length prefix `_h` puts before a 16-byte digest
_DIGEST_LENGTH = (16).to_bytes(4, "big")


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
        _h(bytes([OP_CODES[op]]), bytes([len(p)]), bytes([len(s)]))
        for op, p, s in zip(spec.ops, preds, succs)
    ]
    # each round hashes _h's blob of (digest, sorted predecessor digests,
    # sorted successor digests) in one join; only the digests change
    # between rounds, so the length prefixes are fixed up front
    lengths = [
        ((16 * len(p)).to_bytes(4, "big"), (16 * len(s)).to_bytes(4, "big"))
        for p, s in zip(preds, succs)
    ]
    for _ in range(v):
        digests = [
            hashlib.blake2b(
                b"".join([
                    _DIGEST_LENGTH, digests[k],
                    p_len, *sorted([digests[p] for p in preds[k]]),
                    s_len, *sorted([digests[s] for s in succs[k]]),
                ]),
                digest_size=16,
            ).digest()
            for k, (p_len, s_len) in enumerate(lengths)
        ]
    return _h(b"".join(sorted(digests)), bytes([v])).hex()


_hash_memo = functools.lru_cache(maxsize=HASH_MEMO_SIZE)(_wl_hash)


def below(rng, n: int, count: int) -> list[int]:
    """`count` integers uniform in [0, n). Each is drawn as random.Random's
    `choice`, `randrange` and `randint` draw one, by repeating
    `getrandbits(n.bit_length())` until the value lies below n: the same
    calls on `rng` and the same values, resting on `getrandbits` alone.
    ValueError for n < 1, before any draw."""
    if n < 1:
        raise ValueError(f"nothing lies below {n}")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    draws = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        draws.append(r)
    return draws


def random_spec(rng, limits: SpaceLimits) -> ModelSpec:
    """Sample a valid, pruned spec by rejection. Not uniform over cells.

    Draws a vertex count uniform in [2, max_vertices], each upper-triangular
    edge with probability 0.5, interior ops uniform, then prunes; anything
    failing validation is redrawn from scratch. The vertex count is drawn
    before pruning, and pruning only shrinks cells, so small cells dominate:
    at (5,9) about 49% of draws are the single 2-vertex class. `rng` is a
    random.Random.
    """
    uniform = rng.random
    for _ in range(MAX_REJECTION_ATTEMPTS):
        v = 2 + below(rng, limits.max_vertices - 1, 1)[0]
        mask = 0
        for bit in _BIT[v].values():  # a plain loop: a comprehension costs a call
            if uniform() < 0.5:
                mask |= bit
        interior = [INTERIOR_OPS[a] for a in below(rng, len(INTERIOR_OPS), v - 2)]
        ops = (OpLabel.IN, *interior, OpLabel.OUT)
        cell = phenotype_of(v, mask, ops, limits)
        if cell is not None:
            return cell
    raise ExhaustedError(f"no valid random spec after {MAX_REJECTION_ATTEMPTS} draws at {limits}")


def mutate(genome: tuple, rng, limits: SpaceLimits) -> tuple[tuple, ModelSpec]:
    """One uniformly-drawn primitive edit of the parent genome (see
    `genome_of`), returned with the cell it denotes as (child genome, cell).

    The edit is applied to the parent padded out to `max_vertices` with
    dormant (edgeless) interior vertices, whose ops are drawn uniformly
    (OUT moves to the last slot), and the child is returned UNPRUNED:
    dormant and half-connected vertices are hereditary material. One flip
    can only give a dead vertex its first edge, leaving the cell unchanged,
    but a later flip completes the connection and the vertex comes alive;
    pruning children would leave the search unable to regrow vertices.

    A child is accepted when it denotes a cell (`phenotype_of`) under the
    limits; otherwise the edit is redrawn, up to the attempt cap. An edit is
    one mask bit flip, or one op swap on any interior slot, dormant ones
    included. One draw below their count picks flip r, or swap r - flips.
    No genome becomes a ModelSpec.
    """
    n, mask, ops = genome
    v = limits.max_vertices
    if n > v:
        raise ValueError(f"a {n}-vertex parent does not fit {limits}")
    if n < v:
        mask = sum([b for k, b in enumerate(_PAD_BITS[n, v]) if mask >> k & 1])
        dormant = tuple([INTERIOR_OPS[a] for a in below(rng, len(INTERIOR_OPS), v - n)])
        ops = ops[: n - 1] + dormant + (OpLabel.OUT,)
    flips, swaps = len(_PAIRS[v]), _swaps(ops)
    for _ in range(MAX_REJECTION_ATTEMPTS):
        r = below(rng, flips + len(swaps), 1)[0]
        if r < flips:
            child_mask, child_ops = mask ^ (1 << r), ops
        else:
            k, op = swaps[r - flips]
            child_mask, child_ops = mask, ops[:k] + (op,) + ops[k + 1 :]
        cell = phenotype_of(v, child_mask, child_ops, limits)
        if cell is not None:
            return (v, child_mask, child_ops), cell
    raise ExhaustedError(
        f"no valid mutation of a {n}-vertex parent "
        f"after {MAX_REJECTION_ATTEMPTS} attempts at {limits}"
    )


@functools.cache
def _swaps(ops) -> tuple:
    """Every op swap on an interior slot of `ops`: (slot, its new op)."""
    return tuple((k, op) for k in range(1, len(ops) - 1) for op in INTERIOR_OPS if op is not ops[k])


def enumerate_space(limits: SpaceLimits) -> Iterator[ModelSpec]:
    """Yield one representative per isomorphism class of valid specs.

    Deterministic order: vertex count ascending, adjacency bitmask ascending
    (bit k = k-th row-major upper-triangular pair), interior labelings in
    product order over (conv3x3, conv1x1, maxpool3x3). Each class is
    yielded at its first member in that order, found exactly, without
    hashing: a structure is kept only when no interior relabeling maps it
    to a smaller storable (upward-pointing) mask, and a labeling only when
    it comes first among its images under the structure's automorphisms.
    """
    for v in range(2, limits.max_vertices + 1):
        pairs, bit = _PAIRS[v], _BIT[v]
        # edges point upward, so every vertex is on an IN->OUT path exactly when each
        # but IN has an in-edge and each but OUT an out-edge; this test keeps the same
        # masks as `_on_path(v, mask) == (1 << v) - 1` in about half the time
        need = [sum(bit[p] for p in pairs if p[1] == k) for k in range(1, v)]
        need += [sum(bit[p] for p in pairs if p[0] == k) for k in range(v - 1)]
        # per interior relabeling, the image bit of each pair; a pair that
        # would point downward maps past every storable mask
        past = 1 << len(pairs)
        relabelings = [
            (perm[1:-1], [bit.get((perm[i], perm[j]), past) for i, j in pairs])
            for perm in ((0, *p, v - 1) for p in itertools.permutations(range(1, v - 1)))
        ]
        for mask in range(past):
            if mask.bit_count() > limits.max_edges or not all(mask & b for b in need):
                continue
            on = [k for k in range(len(pairs)) if mask >> k & 1]
            automorphisms = []
            for perm, image_bit in relabelings:
                image = sum(image_bit[k] for k in on)
                if image < mask:
                    break
                if image == mask:
                    automorphisms.append(perm)
            else:
                edges = tuple(pairs[k] for k in on)
                for labeling in itertools.product(range(3), repeat=v - 2):
                    if all(
                        labeling <= tuple(labeling[p - 1] for p in perm)
                        for perm in automorphisms
                    ):
                        ops = tuple(INTERIOR_OPS[a] for a in labeling)
                        yield ModelSpec(v, edges, (OpLabel.IN, *ops, OpLabel.OUT))
