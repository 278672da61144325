"""The DAG cell search space: specs, validation, canonical hashing, sampling,
mutation, and exact exhaustive enumeration.

A cell is a directed acyclic graph on at most `max_vertices` (itself at
most MAX_VERTICES) vertices with at most `max_edges` edges. Vertex 0 is the
input, vertex v-1 is the output, and every edge goes from a lower to a
higher index, so acyclicity is structural.
Interior vertices carry one of three operations (3x3 convolution, 1x1
convolution, 3x3 max-pool).

Isomorphic cells (same structure and labels under a relabeling of interior
vertices) share one canonical key, the smallest packed key among their
drawings, so benchmark lookup never distinguishes two drawings of one cell.
Enumeration yields each class at that key.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
import operator
from dataclasses import dataclass
from typing import Annotated, Iterator

from .errors import ExhaustedError, In, InvalidSpecError, check_fields, check_value, json_tuples

MAX_REJECTION_ATTEMPTS = 10_000

# Bounds of the process-wide, value-keyed memos: HASH_MEMO_SIZE cells on
# `canonical_hash` and `oracle.synth_record`, PRUNE_MEMO_SIZE genomes on
# `phenotype_of`, and 2 * PRUNE_MEMO_SIZE structures on `_shape_memo`,
# keyed (v, mask, max_vertices, max_edges), enough for all 1,098 that
# (5,9) draws can make. A multi-seed run shares them: 46 (5,9)
# aging-evolution seeds make 105,514 `phenotype_of` lookups of 3,678
# genomes (a late seed adds 36-84 new ones) and 11,627 oracle answers of
# 1,247 cells. Unbounded memos raised peak memory by up to 37% on the
# predictor pipeline, whose random draws are mostly distinct.
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


INTERIOR_OPS = (OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3)
_INTERIOR = frozenset(INTERIOR_OPS)
# read as module globals: `OpLabel.IN` on the class costs about 0.1 us, a global 0.007 us
_IN, _OUT = OpLabel.IN, OpLabel.OUT

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
# per vertex count, each pair's bit in a cell's mask, and per vertex i < v-1
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
_DIGIT = {op: a for a, op in enumerate(INTERIOR_OPS)}


def upper_triangle_pairs(num_vertices: int) -> tuple[tuple[int, int], ...]:
    """All (i, j) with i < j, row-major: (0,1), (0,2), ..., (v-2, v-1)."""
    return _PAIRS[num_vertices]


@dataclass(frozen=True, init=False)
class ModelSpec:
    """A labeled DAG cell, stored as its genome: bit k of `mask` is the edge
    `upper_triangle_pairs(num_vertices)[k]`, and `ops` holds one label per
    vertex, of 2 to MAX_VERTICES. Immutable, so safe to share across threads."""

    num_vertices: int
    mask: int
    ops: tuple[OpLabel, ...]

    def __init__(self, num_vertices: int, mask: int, ops):
        v = num_vertices
        if not isinstance(v, int) or not 2 <= v <= MAX_VERTICES:
            raise ValueError(f"need 2 to {MAX_VERTICES} vertices, got {v}")
        ops = tuple(ops)
        if len(ops) != v:
            raise ValueError(f"ops length {len(ops)} != num_vertices {v}")
        if type(mask) is not int or not 0 <= mask < 1 << len(_PAIRS[v]):
            raise ValueError(f"mask {mask!r} is not an edge mask of {v} vertices")
        # once each, past the frozen __setattr__; __dict__ writes would slow reads
        object.__setattr__(self, "num_vertices", v)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "ops", ops)

    @classmethod
    def from_edges(cls, num_vertices: int, edges, ops) -> "ModelSpec":
        """The spec of (i, j) edge pairs in any order, as a file gives them.
        ValueError names the first bad or repeated edge, in sorted order."""
        spec = cls(num_vertices, 0, ops)  # the vertex-count and ops refusals
        bit, mask = _BIT[num_vertices], 0
        for i, j in sorted(map(tuple, edges)):
            if (i, j) not in bit:
                raise ValueError(f"edge ({i},{j}) is not strictly upper-triangular in range")
            if mask & bit[i, j]:
                raise ValueError(f"duplicate edge ({i},{j})")
            mask |= bit[i, j]
        return cls(num_vertices, mask, spec.ops)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The mask's (i, j) pairs, sorted."""
        return _edges(self.num_vertices, self.mask)

    @property
    def num_edges(self) -> int:
        return self.mask.bit_count()

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
        return cls.from_edges(v, edges, ops)


def key_of(cell: ModelSpec) -> int:
    """A cell as one int, (num_vertices << 21 | mask) << 8 | labeling: the
    labeling (< 3**5 < 2**8) is the interior ops as base-3 digits, first slot
    first (conv3x3 0, conv1x1 1, maxpool3x3 2). Keys sort as cells enumerate."""
    labeling = 0
    for op in cell.ops[1:-1]:
        labeling = 3 * labeling + _DIGIT[op]
    return (cell.num_vertices << 21 | cell.mask) << 8 | labeling


def _edges(num_vertices: int, mask: int) -> tuple[tuple[int, int], ...]:
    pairs, edges = _PAIRS[num_vertices], []
    while mask:  # the set bits, lowest first
        low = mask & -mask
        edges.append(pairs[low.bit_length() - 1])
        mask ^= low
    return tuple(edges)


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


def longest_path_edges(spec: ModelSpec) -> int:
    """Length in edges of the longest input->output path; ValueError if there
    is none. Edges point upward, so one forward sweep over the mask's
    successor rows (as `_on_path` reads them) settles each vertex's depth
    before its edges out are read."""
    v, mask = spec.num_vertices, spec.mask << 1
    depth = [0] + [-v] * (v - 1)  # unreached: -v plus at most v - 2 edges, below 0
    i = 0
    for shift, successors in _ROWS[v]:
        d, succ = depth[i] + 1, mask >> shift & successors
        while succ:  # i's successors, lowest first
            low = succ & -succ
            j = low.bit_length() - 1
            if depth[j] < d:
                depth[j] = d
            succ ^= low
        i += 1
    if depth[-1] < 1:
        raise ValueError("no input->output path")
    return depth[-1]


def _ops_ok(ops) -> bool:
    """IN and OUT at the terminals, a real operation on every interior vertex."""
    return ops[0] is _IN and ops[-1] is _OUT and _INTERIOR.issuperset(ops[1:-1])


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
    on_path = _on_path(spec.num_vertices, spec.mask)
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
    """The cell a genome, a cell's own fields, denotes: the genome less every
    vertex on no input->output path, survivors renumbered in order. None
    when there is no path or the cell breaks a budget or an interior-op
    rule; InvalidSpecError, raised afresh on every call, unless IN and OUT
    sit at the terminals. Builds only the cell it returns; equal genomes and
    limits share one memo entry (PRUNE_MEMO_SIZE, None cached too) and cell,
    and equal structures one `_shape_memo` entry."""
    # the limits' ints, not the dataclass, whose generated __hash__ runs in Python
    return _phenotype_memo(num_vertices, mask, ops, limits.max_vertices, limits.max_edges)


def _shape(num_vertices: int, mask: int, max_vertices: int, max_edges: int):
    """The ops-free half of `_phenotype`: (the on-path vertices as a tuple,
    the mask pruned to them and renumbered in order), or None when there is
    no path or the pruned structure breaks a budget."""
    keep = _on_path(num_vertices, mask)
    if not keep:
        return None
    kept = tuple([k for k in range(num_vertices) if keep >> k & 1])
    if len(kept) < num_vertices:
        bit, pruned = _BIT[len(kept)], 0
        for i, j in _edges(num_vertices, mask):
            # an edge between two on-path vertices lies on a path itself
            if keep >> i & 1 and keep >> j & 1:
                pruned |= bit[kept.index(i), kept.index(j)]
        mask = pruned
    if len(kept) > max_vertices or mask.bit_count() > max_edges:
        return None
    return kept, mask


def _phenotype(num_vertices: int, mask: int, ops, max_vertices: int, max_edges: int) -> ModelSpec | None:
    if ops[0] is not _IN or ops[-1] is not _OUT:
        raise InvalidSpecError("a genome needs IN at vertex 0 and OUT at the last vertex")
    shape = _shape_memo(num_vertices, mask, max_vertices, max_edges)
    if shape is None:
        return None
    kept, mask = shape
    if len(kept) < num_vertices:
        ops = tuple([ops[k] for k in kept])
    # the kept vertices include the IN/OUT terminals, so only the interior
    # ops remain to check
    if not _INTERIOR.issuperset(ops[1:-1]):
        return None
    return ModelSpec(len(kept), mask, ops)


# perfbench's tracer wraps only plain functions (`inspect.isfunction`), so
# `phenotype_of` and `canonical_hash` stay `def`s that call their memos.
_phenotype_memo = functools.lru_cache(maxsize=PRUNE_MEMO_SIZE)(_phenotype)
_shape_memo = functools.lru_cache(maxsize=2 * PRUNE_MEMO_SIZE)(_shape)


def require_canonical(spec: ModelSpec) -> None:
    """Accept a spec for hashing, feature extraction, and encoding only when
    it breaks no cell rule (i.e. the spec equals its own pruning); otherwise
    raise InvalidSpecError naming the rules it breaks."""
    broken = _broken_rules(spec)
    if broken:
        rules = ", ".join(rule.value for rule in broken)
        raise InvalidSpecError(f"spec is not a pruned, valid cell: {rules}")


def canonical_hash(spec: ModelSpec) -> str:
    """Isomorphism-exact 128-bit digest of a pruned, valid spec: the
    `digest_of_key` of its canonical key, the smallest `key_of` key over
    every relabeling of its interior vertices that keeps all edges pointing
    upward (smallest mask first, then smallest labeling). Isomorphic specs
    share that key, and others differ in it.

    Returns 32 lowercase hex characters. Equal specs share one memo entry
    (HASH_MEMO_SIZE); InvalidSpecError is raised afresh on every call.
    """
    return _hash_memo(spec)


def digest_of_key(key: int) -> str:
    """The 32-hex digest of a `key_of` key: blake2b-128 of its 4 big-endian
    bytes. A class's digest is that of its canonical key, the key at which
    `enumerate_space` yields it."""
    return hashlib.blake2b(key.to_bytes(4, "big"), digest_size=16).hexdigest()


def _canonical_digest(spec: ModelSpec) -> str:
    require_canonical(spec)
    v, mask = spec.num_vertices, spec.mask
    set_pairs = _set_pairs(v, mask)
    digits = [_DIGIT[op] for op in spec.ops[1:-1]]
    least = (1 << len(_PAIRS[v]), 0)  # past every storable mask
    for image_bit, weights in _relabelings(v):
        image = sum(set_pairs(image_bit))
        if image <= least[0]:
            least = min(least, (image, sum(map(operator.mul, digits, weights))))
    image, labeling = least
    return digest_of_key((v << 21 | image) << 8 | labeling)  # the `key_of` layout


_hash_memo = functools.lru_cache(maxsize=HASH_MEMO_SIZE)(_canonical_digest)


def below(rng, n: int, count: int) -> list[int]:
    """`count` integers uniform in [0, n). Each is drawn as random.Random's
    `choice`, `randrange` and `randint` draw one, by repeating
    `getrandbits(n.bit_length())` until the value lies below n: the same
    calls on `rng` and the same values, resting on `getrandbits` alone.
    ValueError for n < 1, before any draw. `random_spec` writes this rule
    inline: its two calls an attempt and the lists they return took about
    a fifth of (5,9) labeling's time (47 -> 36 ms a pipeline seed)."""
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

    Each attempt is one pass: its integers are drawn by `below`'s rule,
    written inline (the same calls on `rng`, the same values), and its
    genome goes straight to `phenotype_of`'s memo.
    """
    getrandbits, uniform = rng.getrandbits, rng.random
    max_vertices, max_edges = limits.max_vertices, limits.max_edges
    n = max_vertices - 1  # v - 2 lies below n
    k = n.bit_length()
    for _ in range(MAX_REJECTION_ATTEMPTS):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        v = 2 + r
        mask = 0
        for bit in _BIT[v].values():  # a plain loop: a comprehension costs a call
            if uniform() < 0.5:
                mask |= bit
        ops = [_IN]
        for _ in range(v - 2):
            a = getrandbits(2)  # 3 interior ops: 2 bits, redrawn at 3
            while a == 3:
                a = getrandbits(2)
            ops.append(INTERIOR_OPS[a])
        ops.append(_OUT)
        cell = _phenotype_memo(v, mask, tuple(ops), max_vertices, max_edges)
        if cell is not None:
            return cell
    raise ExhaustedError(f"no valid random spec after {MAX_REJECTION_ATTEMPTS} draws at {limits}")


def mutate(genome: tuple, rng, limits: SpaceLimits) -> tuple[tuple, ModelSpec]:
    """One uniformly-drawn primitive edit of a parent genome, a cell's own
    fields, returned with the cell it denotes as (child genome, cell).

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
        ops = ops[: n - 1] + dormant + (_OUT,)
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
    yielded at its first member in that order, its canonical key (see
    `canonical_hash`), found without hashing: a structure is kept only when
    no interior relabeling maps it to a smaller storable (upward-pointing)
    mask, and a labeling only when it comes first among its images under
    the structure's automorphisms.
    """
    for v in range(2, limits.max_vertices + 1):
        pairs, bit = _PAIRS[v], _BIT[v]
        # edges point upward, so every vertex is on an IN->OUT path exactly when each
        # but IN has an in-edge and each but OUT an out-edge; this test keeps the same
        # masks as `_on_path(v, mask) == (1 << v) - 1` in about half the time
        need = [sum(bit[p] for p in pairs if p[1] == k) for k in range(1, v)]
        need += [sum(bit[p] for p in pairs if p[0] == k) for k in range(v - 1)]
        relabelings = _relabelings(v)
        for mask in range(1 << len(pairs)):
            if mask.bit_count() > limits.max_edges or not all(mask & b for b in need):
                continue
            set_pairs = _set_pairs(v, mask)
            automorphisms = []
            for image_bit, weights in relabelings:
                image = sum(set_pairs(image_bit))
                if image < mask:
                    break
                if image == mask:
                    automorphisms.append(weights)
            else:
                # product order is labeling order, so `labeling` counts from 0
                for labeling, digits in enumerate(itertools.product(range(3), repeat=v - 2)):
                    if all(labeling <= sum(map(operator.mul, digits, w)) for w in automorphisms):
                        ops = tuple(INTERIOR_OPS[a] for a in digits)
                        yield ModelSpec(v, mask, (_IN, *ops, _OUT))


@functools.cache
def _relabelings(num_vertices: int) -> tuple:
    """Every relabeling of the interior vertices of a `num_vertices` cell,
    identity first, as (each pair's image bit, then a closing 0; each
    interior slot's weight): a mask's image is the sum of its set pairs'
    image bits, where a pair that would point downward maps past every
    storable mask, and a labeling's image is the sum of its base-3 digits
    times their slots' weights."""
    v = num_vertices
    bit, past = _BIT[v], 1 << len(_PAIRS[v])
    return tuple(
        (
            (*[bit.get((perm[i], perm[j]), past) for i, j in _PAIRS[v]], 0),
            tuple(3 ** (v - 2 - new) for new in perm[1:-1]),
        )
        for perm in ((0, *p, v - 1) for p in itertools.permutations(range(1, v - 1)))
    )


def _set_pairs(num_vertices: int, mask: int) -> operator.itemgetter:
    """Reads a `_relabelings` row at a mask's set pairs and at its closing
    0, so that it returns a tuple however few pairs are set."""
    n = len(_PAIRS[num_vertices])
    return operator.itemgetter(*[k for k in range(n) if mask >> k & 1], n)
