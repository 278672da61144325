"""Cell-space tests: structure, validation, phenotypes, hashing (checked
exhaustively against a permutation-based isomorphism oracle), sampling,
mutation, enumeration, and serialization."""

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import pickle
import random
import re
from dataclasses import astuple
from pathlib import Path

import pytest

from cellsearch import cellspace, oracle
from cellsearch.cellspace import (
    ModelSpec,
    OpLabel,
    SpaceLimits,
    Violation,
    canonical_hash,
    enumerate_space,
    mutate,
    random_spec,
    upper_triangle_pairs,
    validate,
)
from cellsearch.errors import ExhaustedError, InvalidSpecError
from cellsearch.evolution import Individual
from cellsearch.reinforce import DecisionSchedule
from cellsearch.traces import TraceRow

from conftest import (
    all_paths_vertices,
    interior_permutations,
    make_spec,
    mutate_spec,
    perm_canonical_form,
    phenotype,
    relabel_spec,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Class counts per limits, frozen after two independent enumerators
# (canonical-hash dedup vs. explicit permutation-minimal forms) agreed.
KNOWN_CLASS_COUNTS = {
    (2, 1): 1,
    (3, 9): 7,
    (4, 9): 91,
    (5, 9): 2532,
    (6, 9): 64542,
}

# sha256 over each yielded spec's sorted-key JSON line, in yield order, as
# the hash-deduplicating enumerator produced them
ORDER_DIGESTS = {
    (4, 9): "df1df1704c38a557a0802ded0b873f4e9e19da47c137aab3f85ec6d01a8e3d26",
    (5, 9): "94540fa5f81193ff4992e41b5996fe3cd8fdd47e2ee66ad1ebb423014c1e9697",
    (6, 9): "380404e828a96c77d8fd9fabeceab16353e1b51704f31a8fbb9e501a7167ba08",
}

# sha256 over each yielded spec's canonical hash, in yield order, as the
# blake2b of the smallest relabeled key computes them; a faster hash must
# keep every digest
HASH_DIGESTS = {
    (4, 9): "00098991db8bf35082b4f3cef57056b76774a80d8c203ec2ae1488f2f85e30be",
    (5, 9): "9e06d7035c9a2a18e4cd927da745a93ca179e3d106a059a68fdef030d40e5e68",
    (6, 9): "152039fff8b9d255d6c41e1d37e2a0084b1e5aa1b517f2efe655762b29ba25c5",
}


@functools.lru_cache(maxsize=None)
def enumeration_pass(limits):
    """(class count, order digest, distinct canonical hashes, digest of the
    canonical hashes in order, classes hashed as their own key) from one
    pass over enumerate_space, shared by the count, order and hash tests."""
    order = hashlib.sha256()
    hashes = hashlib.sha256()
    digests = set()
    count = own_key = 0
    for spec in enumerate_space(SpaceLimits(*limits)):
        order.update((json.dumps(spec.to_json_obj(), sort_keys=True) + "\n").encode())
        digest = canonical_hash(spec)
        hashes.update(digest.encode())
        digests.add(digest)
        count += 1
        own_key += digest == cellspace.digest_of_key(cellspace.key_of(spec))
    return count, order.hexdigest(), len(digests), hashes.hexdigest(), own_key


# ---------------------------------------------------------------------------
# ModelSpec structure


def test_edges_are_normalized_sorted():
    s = ModelSpec.from_edges(3, ((1, 2), (0, 1)), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    assert s.edges == ((0, 1), (1, 2))


def test_rejects_non_upper_triangular_edge():
    with pytest.raises(ValueError):
        ModelSpec.from_edges(3, ((2, 1),), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec.from_edges(3, ((0, 3),), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec.from_edges(3, ((1, 1),), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))


def test_rejects_duplicate_edges_and_bad_ops_length():
    with pytest.raises(ValueError):
        ModelSpec.from_edges(3, ((0, 1), (0, 1)), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec.from_edges(3, ((0, 1),), (OpLabel.IN, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec.from_edges(1, (), (OpLabel.IN,))
    # MAX_VERTICES binds every spec, genome or cell, not only SpaceLimits
    with pytest.raises(ValueError, match="need 2 to 7 vertices, got 8"):
        ModelSpec.from_edges(8, ((0, 7),), (OpLabel.IN,) + (OpLabel.CONV3X3,) * 6 + (OpLabel.OUT,))


def test_construction_errors_name_the_bad_edge():
    ops = (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT)
    for edge in ((2, 1), (0, 3), (1, 1), (-1, 1)):
        with pytest.raises(ValueError, match=re.escape(
            f"edge ({edge[0]},{edge[1]}) is not strictly upper-triangular in range"
        )):
            ModelSpec.from_edges(3, ((0, 1), edge), ops)
    with pytest.raises(ValueError, match=re.escape("duplicate edge (0,1)")):
        ModelSpec.from_edges(3, ((1, 2), (0, 1), (0, 1)), ops)
    # the first bad edge in sorted order is the one named
    with pytest.raises(ValueError, match=re.escape("duplicate edge (0,1)")):
        ModelSpec.from_edges(3, ((1, 3), (0, 1), (0, 1)), ops)


def test_construction_refusals_keep_their_messages():
    ops = (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT)
    for args, message in (
        ((8, (), ops), "need 2 to 7 vertices, got 8"),
        ((3, ((0, 1),), ops[::2]), "ops length 2 != num_vertices 3"),
        ((3, ((1, 2), (2, 1)), ops), "edge (2,1) is not strictly upper-triangular in range"),
        ((3, ((1, 2), (0, 1), (1, 2)), ops), "duplicate edge (1,2)"),
    ):
        with pytest.raises(ValueError) as info:
            ModelSpec.from_edges(*args)
        assert str(info.value) == message


@pytest.mark.parametrize("mask", [8, -1, True, 1.0])
def test_a_mask_past_the_vertex_counts_pairs_is_refused(mask):
    # 3 vertices have 3 pairs, bits 0-2; a bool or float is no mask either
    ops = (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT)
    assert ModelSpec(3, 7, ops).edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError) as info:
        ModelSpec(3, mask, ops)
    assert str(info.value) == f"mask {mask!r} is not an edge mask of 3 vertices"


@pytest.mark.parametrize("record, field", [
    (ModelSpec(2, 1, (OpLabel.IN, OpLabel.OUT)), "edges"),
    (Individual(None, None, 0.5, 0), "fitness"),
    (TraceRow(0, 0.0, 0.5), "index"),
    (ModelSpec(2, 1, (OpLabel.IN, OpLabel.OUT)), "mask"),
])
def test_per_cycle_records_refuse_assignment(record, field):
    # each field is stored once, as it was built, and the derived edges
    # are read-only; nothing changes either after
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_a_spec_keeps_its_normalized_fields_and_generated_repr():
    s = ModelSpec.from_edges(3, [[1, 2], [0, 1]], [OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT])
    assert vars(s) == {
        "num_vertices": 3,
        "mask": 5,
        "ops": (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT),
    }
    assert repr(s).startswith("ModelSpec(num_vertices=3, mask=5, ops=(")


def test_edges_given_as_lists_are_accepted():
    s = ModelSpec.from_edges(3, [[1, 2], [0, 1]], [OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT])
    assert s.edges == ((0, 1), (1, 2)) and s.ops == (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT)
    assert s == ModelSpec.from_edges(3, ((0, 1), (1, 2)), s.ops)
    assert hash(s) == hash(ModelSpec.from_edges(3, ((0, 1), (1, 2)), s.ops))


@pytest.mark.parametrize("v", [3.0, "3", None, True])
def test_non_int_vertex_count_is_a_value_error(v):
    with pytest.raises(ValueError, match="need 2 to 7 vertices"):
        ModelSpec.from_edges(v, ((0, 1), (1, 2)), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))


def test_op_labels_hash_by_identity_and_survive_pickling():
    for op in OpLabel:
        assert hash(op) == object.__hash__(op)
        assert pickle.loads(pickle.dumps(op)) is op
    s = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s)
    assert {s: 1}[back] == 1


# ---------------------------------------------------------------------------
# validate


def test_minimal_cell_is_valid(two_vertex):
    report = validate(two_vertex, SpaceLimits(7, 9))
    assert report.valid and report.violations == ()


def test_too_many_edges_flagged():
    # 7 vertices, 10 edges: a chain (6 edges) plus 4 extra skips.
    edges = [(i, i + 1) for i in range(6)] + [(0, 2), (0, 3), (1, 3), (2, 4)]
    s = make_spec(7, edges, [OpLabel.CONV3X3] * 5)
    report = validate(s, SpaceLimits(7, 9))
    assert not report.valid
    assert report.violations == (Violation.TOO_MANY_EDGES,)


def test_too_many_vertices_flagged():
    edges = [(i, i + 1) for i in range(4)]
    s = make_spec(5, edges, [OpLabel.CONV3X3] * 3)
    report = validate(s, SpaceLimits(4, 9))
    assert Violation.TOO_MANY_VERTICES in report.violations


def test_dangling_vertex_flagged():
    s = make_spec(3, [(0, 2)], [OpLabel.CONV3X3])
    report = validate(s, SpaceLimits(7, 9))
    assert not report.valid
    assert Violation.DANGLING_VERTEX in report.violations
    assert Violation.NO_IN_OUT_PATH not in report.violations


def test_no_in_out_path_flagged():
    # Edge 1->2 only: OUT unreachable from IN, and vertex 0 dangles too.
    s = make_spec(3, [(1, 2)], [OpLabel.CONV3X3])
    report = validate(s, SpaceLimits(7, 9))
    assert not report.valid
    assert Violation.NO_IN_OUT_PATH in report.violations
    assert Violation.DANGLING_VERTEX in report.violations


def test_bad_terminal_ops_flagged():
    s = ModelSpec.from_edges(3, ((0, 1), (1, 2)), (OpLabel.IN, OpLabel.IN, OpLabel.OUT))
    report = validate(s, SpaceLimits(7, 9))
    assert Violation.BAD_TERMINAL_OPS in report.violations
    s2 = ModelSpec.from_edges(2, ((0, 1),), (OpLabel.OUT, OpLabel.IN))
    assert Violation.BAD_TERMINAL_OPS in validate(s2, SpaceLimits(7, 9)).violations


def test_multiple_violations_all_reported():
    edges = [(i, i + 1) for i in range(6)] + [(0, 2), (0, 3), (1, 3), (2, 4)]
    s = make_spec(7, edges, [OpLabel.CONV3X3] * 5)
    report = validate(s, SpaceLimits(4, 9))
    assert Violation.TOO_MANY_VERTICES in report.violations
    assert Violation.TOO_MANY_EDGES in report.violations


# ---------------------------------------------------------------------------
# pruning: `phenotype_of` gives the cell a genome denotes

# budgets no genome of up to MAX_VERTICES vertices can break, so that only
# the path rules decide a genome's cell
OPEN = SpaceLimits(7, 21)


def _path_pruning(genome, on_path=None):
    """The genome less every vertex on no IN->OUT path, survivors renumbered
    in order, found by path enumeration unless `on_path` gives them; None
    when there is no path."""
    kept = sorted(all_paths_vertices(genome) if on_path is None else on_path)
    if not kept:
        return None
    renumber = {old: new for new, old in enumerate(kept)}
    edges = [(renumber[i], renumber[j]) for i, j in genome.edges if i in renumber and j in renumber]
    return ModelSpec.from_edges(len(kept), tuple(edges), tuple(genome.ops[k] for k in kept))


def test_prune_removes_isolated_vertex():
    s = make_spec(3, [(0, 2)], [OpLabel.CONV3X3])
    cell = phenotype(s, OPEN)
    assert cell.num_vertices == 2
    assert cell.edges == ((0, 1),)
    assert cell.ops == (OpLabel.IN, OpLabel.OUT)


def test_prune_identity_on_valid_spec():
    s = make_spec(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        [OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3],
    )
    assert phenotype(s, OPEN) == s


def test_prune_drops_dead_end_vertex():
    # Vertex 2 has an in-edge but no path onward to OUT.
    s = make_spec(4, [(0, 1), (0, 2), (1, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    cell = phenotype(s, OPEN)
    assert cell.num_vertices == 3
    assert cell.edges == ((0, 1), (1, 2))
    assert cell.ops == (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT)


def test_prune_matches_path_enumeration_oracle():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        v = rng.randint(2, 6)
        edges = tuple(p for p in upper_triangle_pairs(v) if rng.random() < 0.5)
        ops = (
            (OpLabel.IN,)
            + tuple(rng.choice(cellspace.INTERIOR_OPS) for _ in range(v - 2))
            + (OpLabel.OUT,)
        )
        s = ModelSpec.from_edges(v, edges, ops)
        expected = _path_pruning(s)
        assert phenotype(s, OPEN) == expected
        checked += expected is not None
    assert checked > 100


def test_prune_idempotent_and_never_grows():
    rng = random.Random(3)
    for _ in range(200):
        v = rng.randint(2, 6)
        edges = tuple(p for p in upper_triangle_pairs(v) if rng.random() < 0.5)
        ops = (
            (OpLabel.IN,)
            + tuple(rng.choice(cellspace.INTERIOR_OPS) for _ in range(v - 2))
            + (OpLabel.OUT,)
        )
        once = phenotype(ModelSpec.from_edges(v, edges, ops), OPEN)
        if once is None:
            continue
        assert phenotype(once, OPEN) == once
        assert once.num_vertices <= v
        assert once.num_edges <= len(edges)


def test_prune_no_path_gives_none():
    assert cellspace.phenotype_of(2, 0, (OpLabel.IN, OpLabel.OUT), OPEN) is None
    assert phenotype(make_spec(4, [(0, 1), (2, 3)], [OpLabel.CONV3X3] * 2), OPEN) is None


def test_prune_requires_terminal_labels():
    cellspace._phenotype_memo.cache_clear()
    for ops in ((OpLabel.CONV3X3, OpLabel.OUT), (OpLabel.IN, OpLabel.IN)):
        for _ in range(3):
            with pytest.raises(InvalidSpecError):
                cellspace.phenotype_of(2, 1, ops, OPEN)
    assert cellspace._phenotype_memo.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# canonical_hash


def test_hash_is_deterministic(chain3_conv1x1):
    assert canonical_hash(chain3_conv1x1) == canonical_hash(chain3_conv1x1)
    assert len(canonical_hash(chain3_conv1x1)) == 32
    assert set(canonical_hash(chain3_conv1x1)) <= set("0123456789abcdef")


def test_hash_invariant_under_interior_swap():
    # Diamond with two distinct interior ops; swapping the interiors remaps
    # the edges but not the cell.
    a = make_spec(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.CONV3X3, OpLabel.MAXPOOL3X3])
    b = make_spec(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.MAXPOOL3X3, OpLabel.CONV3X3])
    assert canonical_hash(a) == canonical_hash(b)


def test_hash_separates_op_change():
    a = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV3X3])
    b = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    assert canonical_hash(a) != canonical_hash(b)


def test_hash_rejects_unpruned_spec():
    s = make_spec(3, [(0, 2)], [OpLabel.CONV3X3])
    with pytest.raises(InvalidSpecError, match="not a pruned, valid cell: dangling_vertex$"):
        canonical_hash(s)


def test_hash_invariance_and_separation_exhaustive_v_le_5():
    """Hash equality must coincide exactly with graph isomorphism for every
    valid spec with at most 5 vertices: invariant under every interior
    permutation, and distinct across distinct permutation-oracle classes."""
    specs = list(enumerate_space(SpaceLimits(5, 9)))
    by_perm_form = {}
    storable_images = 0
    for spec in specs:
        digest = canonical_hash(spec)
        for perm in interior_permutations(spec):
            image = relabel_spec(spec, perm)
            if image is None:
                continue  # relabeling left the upper-triangular storage form
            assert canonical_hash(image) == digest
            storable_images += 1
        form = perm_canonical_form(spec)
        assert form not in by_perm_form, "enumeration yielded two isomorphic specs"
        by_perm_form[form] = digest
    assert storable_images > len(specs)  # identity plus genuine relabelings
    digests = list(by_perm_form.values())
    assert len(set(digests)) == len(digests), "hash collision across classes"


def test_seven_vertex_drawings_hash_as_their_smallest_key():
    # (7,9) is too large to check in full: 200 random 7-vertex cells, each
    # against every storable drawing that relabel_spec makes of it
    rng, limits, cells = random.Random(0), SpaceLimits(7, 9), {}
    while len(cells) < 200:
        spec = random_spec(rng, limits)
        if spec.num_vertices == 7:
            cells.setdefault(cellspace.key_of(spec), spec)
    for spec in cells.values():
        images = [relabel_spec(spec, perm) for perm in interior_permutations(spec)]
        images = [image for image in images if image is not None]
        smallest = min(cellspace.key_of(image) for image in images)
        assert {canonical_hash(image) for image in images} == {cellspace.digest_of_key(smallest)}


# ---------------------------------------------------------------------------
# value-keyed memos on canonical_hash and phenotype_of


def test_hash_memo_keys_on_value_not_identity():
    cellspace._hash_memo.cache_clear()
    a = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    b = make_spec(4, [(2, 3), (1, 2), (0, 1)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    assert a is not b
    assert canonical_hash(a) == canonical_hash(b) == cellspace._canonical_digest(a)
    info = cellspace._hash_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_memos_raise_on_every_call_for_an_invalid_spec():
    cellspace._hash_memo.cache_clear()
    cellspace._phenotype_memo.cache_clear()
    unpruned = make_spec(3, [(0, 2)], [OpLabel.CONV3X3])
    bad_terminal = ModelSpec.from_edges(
        3, ((0, 1), (1, 2)), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.IN)
    )
    for _ in range(3):
        with pytest.raises(InvalidSpecError):
            canonical_hash(unpruned)
        with pytest.raises(InvalidSpecError):
            phenotype(bad_terminal, OPEN)
    assert cellspace._hash_memo.cache_info().currsize == 0
    assert cellspace._phenotype_memo.cache_info().currsize == 0


def test_prune_memo_caches_a_no_path_answer():
    cellspace._phenotype_memo.cache_clear()
    for _ in range(2):
        ops = tuple([OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT])
        assert cellspace.phenotype_of(3, 1, ops, OPEN) is None
    info = cellspace._phenotype_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_prune_memo_stays_bounded():
    cellspace._phenotype_memo.cache_clear()
    # 5-vertex genomes, every edge mask under each op labeling in turn, to
    # twice the bound: every key distinct, so the memo must evict
    genomes = itertools.islice(
        (
            (5, mask, (OpLabel.IN, *labels, OpLabel.OUT))
            for labels in itertools.product(cellspace.INTERIOR_OPS, repeat=3)
            for mask in range(1 << len(upper_triangle_pairs(5)))
        ),
        2 * cellspace.PRUNE_MEMO_SIZE,
    )
    made = 0
    for genome in genomes:
        cellspace.phenotype_of(*genome, OPEN)
        made += 1
    assert made == 2 * cellspace.PRUNE_MEMO_SIZE
    info = cellspace._phenotype_memo.cache_info()
    assert (info.misses, info.hits) == (made, 0)
    assert info.currsize == info.maxsize == cellspace.PRUNE_MEMO_SIZE


def test_draws_assembly_and_mutation_share_one_phenotype_memo():
    # one genome reached three ways: a random_spec draw, REINFORCE assembly
    # of the same edge bits and op labels, and a mutate child one flip away
    limits = SpaceLimits(5, 9)
    for seed in itertools.count():
        cellspace._phenotype_memo.cache_clear()
        cell = random_spec(random.Random(seed), limits)
        # random_spec's parts, drawn again: vertex count, edge coins, ops
        rng = random.Random(seed)
        v = 2 + cellspace.below(rng, 4, 1)[0]
        bits = [int(rng.random() < 0.5) for _ in upper_triangle_pairs(v)]
        labels = cellspace.below(rng, 3, v - 2)
        if v == 5 and cellspace._phenotype_memo.cache_info().misses == 1:
            break
    mask = sum(b << k for k, b in enumerate(bits))
    ops = (OpLabel.IN, *[cellspace.INTERIOR_OPS[a] for a in labels], OpLabel.OUT)
    assembled = DecisionSchedule.from_limits(limits).assemble((*bits, *labels))

    class FirstFlip:
        """An rng whose every draw is 0: mutate flips bit 0."""

        def getrandbits(self, k):
            return 0

    child, mutated = mutate((5, mask ^ 1, ops), FirstFlip(), limits)
    assert child == (5, mask, ops)
    assert assembled is cell and mutated is cell
    info = cellspace._phenotype_memo.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_hash_memo_stays_bounded_after_a_threshold_scan():
    cellspace._hash_memo.cache_clear()
    oracle._synthetic_scan.cache_clear()
    oracle._record_memo.cache_clear()
    params, limits = oracle.SyntheticOracleParams(), SpaceLimits(6, 9)
    oracle.synthetic_label_threshold(params, limits)
    # each class's digest is its own key's, so the threshold goes through
    # neither memo, and the optimum leaves its one record in each
    assert cellspace._hash_memo.cache_info().currsize == 0
    assert oracle._record_memo.cache_info().currsize == 0
    spec, record = oracle.synthetic_optimum(params, limits)
    assert cellspace._hash_memo.cache_info().currsize == 1
    assert oracle._record_memo.cache_info().currsize == 1
    assert oracle._record_memo(spec, params) is record


def test_hash_and_record_memos_stay_bounded():
    cellspace._hash_memo.cache_clear()
    oracle._record_memo.cache_clear()
    params = oracle.SyntheticOracleParams()
    cells = list(itertools.islice(enumerate_space(SpaceLimits(5, 9)), 2 * cellspace.HASH_MEMO_SIZE))
    for cell in cells:
        oracle.synth_record(cell, params)  # hashes each distinct cell once
    assert len(cells) == 2 * cellspace.HASH_MEMO_SIZE
    for memo in (cellspace._hash_memo, oracle._record_memo):
        info = memo.cache_info()
        assert (info.misses, info.hits) == (len(cells), 0)
        assert info.currsize == info.maxsize == cellspace.HASH_MEMO_SIZE


def test_prune_memo_returns_an_equal_spec_for_an_equal_genome():
    cellspace._phenotype_memo.cache_clear()

    def parts():
        # fresh, equal tuples: vertex 2 is a dead end and vertex 3 isolated
        ops = (OpLabel.IN, *[OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3], OpLabel.OUT)
        return astuple(ModelSpec.from_edges(5, [[0, 1], [0, 2], [1, 4]], ops))

    first = cellspace.phenotype_of(*parts(), OPEN)
    second = cellspace.phenotype_of(*parts(), OPEN)
    assert first is second
    assert first == cellspace._phenotype(*parts(), OPEN.max_vertices, OPEN.max_edges)
    assert first == make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])
    info = cellspace._phenotype_memo.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the limits are part of the key
    assert cellspace.phenotype_of(*parts(), SpaceLimits(7, 1)) is None
    assert cellspace._phenotype_memo.cache_info().misses == 2


def _old_phenotype(genome, limits, on_path=None):
    """phenotype_of as prune-then-validate, the definition it must keep;
    `on_path` as in `_path_pruning`."""
    cell = _path_pruning(genome, on_path)
    return cell if cell is not None and validate(cell, limits).valid else None


def test_phenotype_equals_prune_then_validate():
    # phenotype_of skips the path rules that pruning satisfies by construction;
    # the answer must not change. Genomes run past the vertex budget (up to
    # the cap of 7), carry
    # any edge count and, one slot in five, an IN or OUT label in the
    # interior, on the path or pruned away.
    rng = random.Random(8)
    labels = list(OpLabel)
    fixed = [
        make_spec(3, [(0, 1), (1, 2)], [label]) for label in (OpLabel.IN, OpLabel.OUT)
    ] + [
        make_spec(4, [(0, 1), (1, 3), (0, 2)], [OpLabel.CONV1X1, label])
        for label in (OpLabel.IN, OpLabel.OUT)
    ]
    seen = {True: 0, False: 0}
    for limits in (SpaceLimits(5, 9), SpaceLimits(7, 9)):
        for genome in fixed:
            assert phenotype(genome, limits) == _old_phenotype(genome, limits)
        for _ in range(10_000):
            v = rng.randint(2, min(limits.max_vertices + 1, cellspace.MAX_VERTICES))
            edges = [p for p in upper_triangle_pairs(v) if rng.random() < 0.5]
            interior = [
                rng.choice(labels) if rng.random() < 0.2 else rng.choice(cellspace.INTERIOR_OPS)
                for _ in range(v - 2)
            ]
            genome = make_spec(v, edges, interior)
            cell = phenotype(genome, limits)
            assert cell == _old_phenotype(genome, limits), genome
            seen[cell is None] += 1
    assert min(seen.values()) > 2_000, seen


def test_phenotype_of_equals_phenotype_of_the_built_genome():
    # every genome of up to 5 vertices: each edge mask under each interior
    # labeling, IN and OUT included; then random genomes of 7 vertices. The
    # path enumeration depends on the edges alone, so it runs once a mask.
    limits_list = (SpaceLimits(5, 9), SpaceLimits(5, 4), SpaceLimits(4, 9))
    seen = {True: 0, False: 0}
    for v in range(2, 6):
        convs = (OpLabel.IN,) + (OpLabel.CONV3X3,) * (v - 2) + (OpLabel.OUT,)
        for mask in range(1 << len(upper_triangle_pairs(v))):
            on_path = all_paths_vertices(ModelSpec(v, mask, convs))
            for interior in itertools.product(OpLabel, repeat=v - 2):
                ops = (OpLabel.IN, *interior, OpLabel.OUT)
                genome = ModelSpec(v, mask, ops)
                for limits in limits_list:
                    cell = cellspace.phenotype_of(v, mask, ops, limits)
                    assert cell == _old_phenotype(genome, limits, on_path), (genome, limits)
                    seen[cell is None] += 1
    assert min(seen.values()) > 50_000, seen
    rng = random.Random(13)
    limits = SpaceLimits(7, 9)
    for _ in range(10_000):
        edges = tuple(p for p in upper_triangle_pairs(7) if rng.random() < 0.5)
        ops = (OpLabel.IN, *[rng.choice(cellspace.INTERIOR_OPS) for _ in range(5)], OpLabel.OUT)
        genome = ModelSpec.from_edges(7, edges, ops)
        assert phenotype(genome, limits) == _old_phenotype(genome, limits)
    for ops in ((OpLabel.CONV3X3, OpLabel.OUT), (OpLabel.IN, OpLabel.IN)):
        with pytest.raises(InvalidSpecError):
            cellspace.phenotype_of(2, 1, ops, limits)


def _benchmark_traced_names() -> set[str]:
    """Every 'module.function' that perfbench's worker reads from its trace
    by name, plus the function each workload's trace self-check counts."""
    worker = (PERFBENCH / "worker.py").read_text()
    read = set(re.findall(r'\bst\("([\w.]+)"', worker))
    for pair in re.findall(r'count_within\(\s*"([\w.]+)",\s*"([\w.]+)"', worker):
        read.update(pair)
    counted = set(re.findall(r'counted="([\w.]+)"', (PERFBENCH / "workloads.py").read_text()))
    assert read and counted
    return read | counted


def test_memoized_functions_stay_plain_functions():
    # perfbench's tracer wraps only the public plain functions a module
    # defines itself (`inspect.isfunction`); a renamed, re-exported or
    # lru_cache-wrapped function would make its metrics read 0 with no more
    # than a warning on stderr.
    # perfbench still reads the deleted `cellspace.prune`; its metric reads 0
    # until the benchmark names `cellspace.phenotype_of` instead
    names = _benchmark_traced_names() - {"cellspace.prune"}
    assert {"cellspace.canonical_hash", "predictor.loss_and_grad"} <= names
    # `train` pads its set through `pad_batch` once, then steps through
    # `loss_and_grad`; both must stay traceable for the loss_and_grad.*
    # metrics to mean what they say.
    for name in sorted(names | {"predictor.pad_batch", "cellspace.phenotype_of"}):
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"cellsearch.{module_name}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), f"{name} is not a plain function"
        assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"


# ---------------------------------------------------------------------------
# below


# every n to 300, which holds 2^k and 2^k +- 1 up to 257, and the same
# around the 32- and 64-bit word edges of getrandbits and past them
_BELOW_BOUNDS = list(range(1, 301)) + [
    2**k + d for k in (31, 32, 33, 63, 64, 65, 100) for d in (-1, 0, 1)
]


@pytest.mark.parametrize("count", [0, 1, 7])
def test_below_draws_as_randrange_does(count):
    ours, theirs = random.Random(5), random.Random(5)
    for n in _BELOW_BOUNDS:
        draws = cellspace.below(ours, n, count)
        assert draws == [theirs.randrange(n) for _ in range(count)], n
        assert ours.getstate() == theirs.getstate(), n


@pytest.mark.parametrize("n", [0, -1])
def test_below_refuses_an_empty_range_without_drawing(n):
    rng = random.Random(9)
    state = rng.getstate()
    with pytest.raises(ValueError):
        cellspace.below(rng, n, 1)
    assert rng.getstate() == state


# ---------------------------------------------------------------------------
# random_spec


def test_random_spec_only_option_at_tiny_limits():
    rng = random.Random(0)
    for _ in range(20):
        s = random_spec(rng, SpaceLimits(2, 1))
        assert s == ModelSpec.from_edges(2, ((0, 1),), (OpLabel.IN, OpLabel.OUT))


def test_random_spec_deterministic_per_seed():
    a = random_spec(random.Random(42), SpaceLimits(7, 9))
    b = random_spec(random.Random(42), SpaceLimits(7, 9))
    assert a == b


def test_random_spec_always_valid_and_pruned():
    rng = random.Random(11)
    limits = SpaceLimits(7, 9)
    for _ in range(500):
        s = random_spec(rng, limits)
        assert validate(s, limits).valid
        assert phenotype(s, limits) == s


def _frozen_random_spec(rng, limits):
    """random_spec as it was when every draw built a ModelSpec genome and
    asked for its cell, prune-then-validate: the reference for its cells
    and its calls on `rng`."""
    for _ in range(cellspace.MAX_REJECTION_ATTEMPTS):
        v = rng.randint(2, limits.max_vertices)
        edges = tuple(p for p in upper_triangle_pairs(v) if rng.random() < 0.5)
        ops = (
            (OpLabel.IN,)
            + tuple(rng.choice(cellspace.INTERIOR_OPS) for _ in range(v - 2))
            + (OpLabel.OUT,)
        )
        cell = _old_phenotype(ModelSpec.from_edges(v, edges, ops), limits)
        if cell is not None:
            return cell
    raise ExhaustedError("no valid random spec")


@pytest.mark.parametrize("limits", [(2, 1), (4, 9), (5, 9), (7, 9), (7, 4)])
def test_random_spec_equals_the_genome_building_reference(limits):
    limits = SpaceLimits(*limits)
    ours, theirs = random.Random(0), random.Random(0)
    for _ in range(20_000):
        assert random_spec(ours, limits) == _frozen_random_spec(theirs, limits)
    assert ours.getstate() == theirs.getstate()


def test_random_spec_draws_the_two_vertex_class_about_half_the_time_at_5_9():
    # the docstring's "about 49%": the vertex count is drawn before pruning
    rng = random.Random(0)
    limits = SpaceLimits(5, 9)
    twos = sum(random_spec(rng, limits).num_vertices == 2 for _ in range(20_000))
    assert 0.47 <= twos / 20_000 <= 0.51, twos


@pytest.mark.parametrize("limits", [(5, 9), (7, 9)])
def test_random_spec_builds_only_the_cell_it_returns(spec_builds, limits):
    # rejected draws are decided on their raw parts and build no ModelSpec;
    # a draw the memo answers returns a cell built before and builds none
    cellspace._phenotype_memo.cache_clear()
    rng = random.Random(3)
    returned = {}  # held, so that no id is reused
    for _ in range(1000):
        cell = random_spec(rng, SpaceLimits(*limits))
        returned[id(cell)] = cell
        assert spec_builds[0] == len(returned)
    assert len(returned) < 1000


def test_random_spec_covers_every_class_at_4_9():
    # Coverage of the full space is only attainable where the rarest class
    # has non-negligible draw probability; at (4,9) the rarest classes land
    # every ~2k draws and full coverage arrives by ~6.5k in practice.
    wanted = {canonical_hash(s) for s in enumerate_space(SpaceLimits(4, 9))}
    rng = random.Random(5)
    seen = set()
    for _ in range(10_000):
        seen.add(canonical_hash(random_spec(rng, SpaceLimits(4, 9))))
        if seen == wanted:
            break
    assert seen == wanted


def test_random_spec_reaches_across_5_9():
    # 10k draws cannot cover all 2532 classes at (5,9) (the rarest classes
    # are ~1e-5 per draw), but they must blanket the small-vertex classes
    # and sample the v=5 region broadly.
    specs = list(enumerate_space(SpaceLimits(5, 9)))
    small = {canonical_hash(s) for s in specs if s.num_vertices <= 4}
    rng = random.Random(5)
    seen = set()
    for _ in range(10_000):
        seen.add(canonical_hash(random_spec(rng, SpaceLimits(5, 9))))
    assert small <= seen
    assert len(seen) >= 400


# ---------------------------------------------------------------------------
# mutate


def test_mutate_single_edit_distance():
    # A full-size parent needs no padding, so every child must be the
    # parent plus exactly one primitive edit, returned with the valid cell
    # it prunes to.
    parent = make_spec(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3],
    )
    rng = random.Random(19)
    limits = SpaceLimits(5, 9)
    for _ in range(1000):
        child, cell = mutate_spec(parent, rng, limits)
        assert cell == _path_pruning(child)
        assert validate(cell, limits).valid
        assert child.num_vertices == parent.num_vertices
        edge_diff = len(set(child.edges) ^ set(parent.edges))
        op_diff = sum(a is not b for a, b in zip(child.ops, parent.ops))
        assert (edge_diff, op_diff) in {(1, 0), (0, 1)}


def test_mutate_smaller_parent_edits_padded_genome():
    # A sub-maximal parent is padded with dormant vertices before editing;
    # every child still differs from some padded embedding of the parent by
    # one edit, and the cell it prunes to stays within limits.
    parent = make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])
    rng = random.Random(4)
    limits = SpaceLimits(5, 9)
    for _ in range(500):
        child, cell = mutate_spec(parent, rng, limits)
        assert child.num_vertices == 5
        assert cell == _path_pruning(child)
        assert validate(cell, limits).valid
        assert child.ops[0] is OpLabel.IN and child.ops[4] is OpLabel.OUT
        # parent's live structure embeds at indices 0,1 and OUT at 4
        live_parent_edges = {(0, 1), (1, 4)}
        edge_diff = len(set(child.edges) ^ live_parent_edges)
        # one flip, or no flip when the edit was an op swap (dormant pad
        # ops are rng-drawn, so only the live op is predictable)
        assert edge_diff <= 1
        if edge_diff == 1:
            assert child.ops[1] is OpLabel.CONV3X3


def test_mutate_growth_is_reachable_via_neutral_edits():
    # One flip can only half-connect a dormant vertex (the pruned cell is
    # unchanged), but a second mutation on such a child can complete the
    # connection: vertex growth needs exactly this two-step path.
    parent = make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])
    limits = SpaceLimits(5, 9)
    rng = random.Random(11)
    grew = False
    for _ in range(300):
        child, _ = mutate_spec(parent, rng, limits)
        _, cell = mutate_spec(child, rng, limits)
        if cell.num_vertices > 3:
            grew = True
            break
    assert grew


def test_mutate_op_change_only_touches_that_op():
    parent = make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])
    rng = random.Random(2)
    limits = SpaceLimits(3, 2)
    # At these limits the only surviving edits are the interior op swaps.
    seen_ops = set()
    for _ in range(200):
        child, _ = mutate_spec(parent, rng, limits)
        if child.num_vertices == 3 and child.edges == parent.edges:
            seen_ops.add(child.ops[1])
            assert child.ops[0] is OpLabel.IN and child.ops[2] is OpLabel.OUT
    assert OpLabel.CONV1X1 in seen_ops and OpLabel.MAXPOOL3X3 in seen_ops


def test_mutate_two_vertex_parent_at_tight_limits_exhausts():
    parent = ModelSpec.from_edges(2, ((0, 1),), (OpLabel.IN, OpLabel.OUT))
    with pytest.raises(ExhaustedError):
        mutate_spec(parent, random.Random(0), SpaceLimits(2, 1))


def _frozen_pad_to(spec, max_vertices, rng):
    """_pad_to as it was when it built the padded genome as a ModelSpec."""
    v = spec.num_vertices
    if v == max_vertices:
        return spec
    out_new = max_vertices - 1
    edges = tuple((i, out_new if j == v - 1 else j) for i, j in spec.edges)
    ops = (
        spec.ops[: v - 1]
        + tuple(rng.choice(cellspace.INTERIOR_OPS) for _ in range(max_vertices - v))
        + (OpLabel.OUT,)
    )
    return ModelSpec.from_edges(max_vertices, edges, ops)


def _frozen_mutate(parent, rng, limits):
    """mutate as it was when every edit built a ModelSpec child and asked
    for its cell, here prune-then-validate: the reference for its children,
    their cells and its calls on `rng`."""
    genome = _frozen_pad_to(parent, limits.max_vertices, rng)
    v, edges, ops = genome.num_vertices, genome.edges, genome.ops
    pairs = upper_triangle_pairs(v)
    swaps = [
        (k, op) for k in range(1, v - 1) for op in cellspace.INTERIOR_OPS if op is not ops[k]
    ]
    for _ in range(cellspace.MAX_REJECTION_ATTEMPTS):
        r = rng.randrange(len(pairs) + len(swaps))
        if r < len(pairs):
            child = ModelSpec.from_edges(v, tuple(sorted(set(edges) ^ {pairs[r]})), ops)
        else:
            k, op = swaps[r - len(pairs)]
            child = ModelSpec.from_edges(v, edges, ops[:k] + (op,) + ops[k + 1 :])
        cell = _old_phenotype(child, limits)
        if cell is not None:
            return child, cell
    raise ExhaustedError("no valid mutation")


@pytest.mark.parametrize("limits", [(4, 9), (5, 9), (7, 9), (3, 2), (6, 9)])
def test_mutate_equals_the_child_building_reference(limits):
    # parents are the genomes of a mutation chain and, every third step,
    # the smaller cell of the last child, which takes the padding path
    limits = SpaceLimits(*limits)
    ours, theirs = random.Random(1), random.Random(1)
    parent = random_spec(random.Random(0), limits)
    padded = 0
    for n in range(2_000):
        padded += parent.num_vertices < limits.max_vertices
        child, cell = mutate_spec(parent, ours, limits)
        assert (child, cell) == _frozen_mutate(parent, theirs, limits), parent
        assert ours.getstate() == theirs.getstate()
        parent = cell if n % 3 == 0 else child
    assert padded > 200, padded


def test_pad_table_moves_only_the_out_column():
    # padding an n-vertex mask to v vertices keeps every pair but OUT's,
    # whose column moves to the new last vertex
    for v in range(3, cellspace.MAX_VERTICES + 1):
        for n in range(2, v):
            bits = cellspace._PAD_BITS[n, v]
            pairs = upper_triangle_pairs(n)
            for mask in range(1 << len(pairs)):
                edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
                moved = [(i, v - 1 if j == n - 1 else j) for i, j in edges]
                padded = sum(b for k, b in enumerate(bits) if mask >> k & 1)
                assert padded == sum(1 << upper_triangle_pairs(v).index(p) for p in moved)


def test_mutate_refuses_a_parent_larger_than_the_limits():
    parent = make_spec(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [OpLabel.CONV3X3] * 3)
    with pytest.raises(ValueError, match="a 5-vertex parent does not fit"):
        mutate_spec(parent, random.Random(0), SpaceLimits(4, 9))


def test_mutate_deterministic_per_seed():
    parent = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    a = mutate_spec(parent, random.Random(9), SpaceLimits(7, 9))
    b = mutate_spec(parent, random.Random(9), SpaceLimits(7, 9))
    assert a == b


# ---------------------------------------------------------------------------
# enumerate_space


@pytest.mark.parametrize("limits,count", sorted(KNOWN_CLASS_COUNTS.items()))
def test_enumeration_class_counts(limits, count):
    # the distinct-hash count checks separation over every class
    classes, _, distinct_hashes, _, _ = enumeration_pass(limits)
    assert classes == count
    assert distinct_hashes == count


@pytest.mark.parametrize("limits,digest", sorted(ORDER_DIGESTS.items()))
def test_enumeration_order_is_pinned(limits, digest):
    assert enumeration_pass(limits)[1] == digest


@pytest.mark.parametrize("limits,digest", sorted(HASH_DIGESTS.items()))
def test_canonical_hashes_are_pinned(limits, digest):
    assert enumeration_pass(limits)[3] == digest


@pytest.mark.parametrize("limits", [(4, 9), (5, 9), (6, 9)])
def test_enumeration_yields_each_class_at_its_canonical_key(limits):
    # canonical_hash(cell) == digest_of_key(key_of(cell)) for every class
    classes, _, _, _, own_key = enumeration_pass(limits)
    assert own_key == classes == KNOWN_CLASS_COUNTS[limits]


@pytest.mark.parametrize("limits", [(4, 9), (5, 9)])
def test_keys_round_trip_and_sort_in_enumeration_order(limits):
    keys = [cellspace.key_of(cell) for cell in enumerate_space(SpaceLimits(*limits))]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_a_key_holds_the_top_mask_bit_and_the_first_slot_as_its_top_digit():
    # the 7-vertex chain sets mask bit 20, the pair (5, 6); all maxpool is
    # labeling 22222 in base 3, 242
    chain = [(i, i + 1) for i in range(6)]
    top = ModelSpec.from_edges(7, chain, (OpLabel.IN, *[OpLabel.MAXPOOL3X3] * 5, OpLabel.OUT))
    assert top.mask >> 20 == 1
    assert cellspace.key_of(top) == (7 << 21 | top.mask) << 8 | 242
    # conv1x1 then maxpool3x3 is labeling 12 in base 3, 5
    mixed = make_spec(4, chain[:3], [OpLabel.CONV1X1, OpLabel.MAXPOOL3X3])
    assert cellspace.key_of(mixed) == (4 << 21 | mixed.mask) << 8 | 5


def test_enumeration_reaches_the_full_space():
    # the NAS-Bench-101 class count of up to 7 vertices and 9 edges
    assert sum(1 for _ in enumerate_space(SpaceLimits(7, 9))) == 423_624


def test_enumeration_hashes_and_validates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_space must not hash or validate")

    for name in ("canonical_hash", "validate"):
        monkeypatch.setattr(cellspace, name, refuse)
    assert sum(1 for _ in enumerate_space(SpaceLimits(5, 9))) == 2532


def test_enumeration_agrees_with_permutation_oracle_v4():
    specs = list(enumerate_space(SpaceLimits(4, 9)))
    forms = {perm_canonical_form(s) for s in specs}
    assert len(forms) == len(specs)
    # Independent count: enumerate raw labeled DAGs, dedup by the oracle.
    raw_forms = set()
    for v in range(2, 5):
        pairs = upper_triangle_pairs(v)
        for mask in range(2 ** len(pairs)):
            for labeling in itertools.product(cellspace.INTERIOR_OPS, repeat=v - 2):
                s = ModelSpec(v, mask, (OpLabel.IN,) + labeling + (OpLabel.OUT,))
                if validate(s, SpaceLimits(4, 9)).valid:
                    raw_forms.add(perm_canonical_form(s))
    assert forms == raw_forms


def test_enumeration_is_deterministic():
    a = [canonical_hash(s) for s in enumerate_space(SpaceLimits(4, 9))]
    b = [canonical_hash(s) for s in enumerate_space(SpaceLimits(4, 9))]
    assert a == b


def test_enumeration_yields_valid_pruned_specs():
    limits = SpaceLimits(4, 4)
    for s in enumerate_space(limits):
        assert validate(s, limits).valid
        assert phenotype(s, limits) == s
        assert s.num_edges <= 4


def test_enumeration_guard():
    # the one vertex cap: every space up to it enumerates
    assert cellspace.MAX_VERTICES == SpaceLimits().max_vertices == 7
    with pytest.raises(ValueError, match=r"max_vertices must lie in \[2, 7\]"):
        SpaceLimits(8, 9)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(space59_specs):
    for s in space59_specs[::97]:
        assert ModelSpec.from_json_obj(s.to_json_obj()) == s


def test_json_obj_shape(chain3_conv1x1):
    obj = chain3_conv1x1.to_json_obj()
    assert obj == {"v": 3, "edges": [[0, 1], [1, 2]], "ops": ["in", "conv1x1", "out"]}
