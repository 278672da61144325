"""Cell-space tests: structure, validation, pruning, hashing (checked
exhaustively against a permutation-based isomorphism oracle), sampling,
mutation, enumeration, and serialization."""

import inspect
import itertools
import random

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
    prune,
    random_spec,
    upper_triangle_pairs,
    validate,
)
from cellsearch.errors import (
    ExhaustedError,
    InvalidSpecError,
    NoPathError,
    TooLargeError,
)

from conftest import (
    all_paths_vertices,
    interior_permutations,
    make_spec,
    perm_canonical_form,
    relabel_spec,
)

# Class counts per limits, frozen after two independent enumerators
# (canonical-hash dedup vs. explicit permutation-minimal forms) agreed.
KNOWN_CLASS_COUNTS = {
    (2, 1): 1,
    (3, 9): 7,
    (4, 9): 91,
    (5, 9): 2532,
}


# ---------------------------------------------------------------------------
# ModelSpec structure


def test_edges_are_normalized_sorted():
    s = ModelSpec(3, ((1, 2), (0, 1)), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    assert s.edges == ((0, 1), (1, 2))


def test_rejects_non_upper_triangular_edge():
    with pytest.raises(ValueError):
        ModelSpec(3, ((2, 1),), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec(3, ((0, 3),), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec(3, ((1, 1),), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))


def test_rejects_duplicate_edges_and_bad_ops_length():
    with pytest.raises(ValueError):
        ModelSpec(3, ((0, 1), (0, 1)), (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec(3, ((0, 1),), (OpLabel.IN, OpLabel.OUT))
    with pytest.raises(ValueError):
        ModelSpec(1, (), (OpLabel.IN,))


def test_predecessors_successors(two_vertex):
    s = make_spec(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    assert s.predecessors(3) == [1, 2]
    assert two_vertex.predecessors(1) == [0]


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
    s = ModelSpec(3, ((0, 1), (1, 2)), (OpLabel.IN, OpLabel.IN, OpLabel.OUT))
    report = validate(s, SpaceLimits(7, 9))
    assert Violation.BAD_TERMINAL_OPS in report.violations
    s2 = ModelSpec(2, ((0, 1),), (OpLabel.OUT, OpLabel.IN))
    assert Violation.BAD_TERMINAL_OPS in validate(s2, SpaceLimits(7, 9)).violations


def test_multiple_violations_all_reported():
    edges = [(i, i + 1) for i in range(6)] + [(0, 2), (0, 3), (1, 3), (2, 4)]
    s = make_spec(7, edges, [OpLabel.CONV3X3] * 5)
    report = validate(s, SpaceLimits(4, 9))
    assert Violation.TOO_MANY_VERTICES in report.violations
    assert Violation.TOO_MANY_EDGES in report.violations


# ---------------------------------------------------------------------------
# prune


def test_prune_removes_isolated_vertex():
    s = make_spec(3, [(0, 2)], [OpLabel.CONV3X3])
    pruned = prune(s)
    assert pruned.num_vertices == 2
    assert pruned.edges == ((0, 1),)
    assert pruned.ops == (OpLabel.IN, OpLabel.OUT)


def test_prune_identity_on_valid_spec():
    s = make_spec(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        [OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3],
    )
    assert prune(s) == s


def test_prune_drops_dead_end_vertex():
    # Vertex 2 has an in-edge but no path onward to OUT.
    s = make_spec(4, [(0, 1), (0, 2), (1, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    pruned = prune(s)
    assert pruned.num_vertices == 3
    assert pruned.edges == ((0, 1), (1, 2))
    assert pruned.ops == (OpLabel.IN, OpLabel.CONV3X3, OpLabel.OUT)


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
        s = ModelSpec(v, edges, ops)
        expected_kept = sorted(all_paths_vertices(s))
        if not expected_kept:
            with pytest.raises(NoPathError):
                prune(s)
            continue
        pruned = prune(s)
        assert pruned.num_vertices == len(expected_kept)
        assert pruned.ops == tuple(s.ops[old] for old in expected_kept)
        renumber = {old: new for new, old in enumerate(expected_kept)}
        kept = set(expected_kept)
        expected_edges = tuple(
            sorted((renumber[i], renumber[j]) for i, j in s.edges if i in kept and j in kept)
        )
        assert pruned.edges == expected_edges
        checked += 1
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
        try:
            once = prune(ModelSpec(v, edges, ops))
        except NoPathError:
            continue
        assert prune(once) == once
        assert once.num_vertices <= v
        assert once.num_edges <= len(edges)


def test_prune_no_path_raises(two_vertex):
    s = ModelSpec(2, (), (OpLabel.IN, OpLabel.OUT))
    with pytest.raises(NoPathError):
        prune(s)


def test_prune_requires_terminal_labels():
    s = ModelSpec(2, ((0, 1),), (OpLabel.CONV3X3, OpLabel.OUT))
    with pytest.raises(InvalidSpecError):
        prune(s)


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
    with pytest.raises(InvalidSpecError):
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


# ---------------------------------------------------------------------------
# value-keyed memos on canonical_hash and prune


def test_hash_memo_keys_on_value_not_identity():
    cellspace._hash_memo.cache_clear()
    a = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    b = make_spec(4, [(2, 3), (1, 2), (0, 1)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    assert a is not b
    assert canonical_hash(a) == canonical_hash(b) == cellspace._wl_hash(a)
    info = cellspace._hash_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_memos_raise_on_every_call_for_an_invalid_spec():
    cellspace._hash_memo.cache_clear()
    cellspace._prune_memo.cache_clear()
    unpruned = make_spec(3, [(0, 2)], [OpLabel.CONV3X3])
    no_path = make_spec(3, [(0, 1)], [OpLabel.CONV3X3])
    for _ in range(3):
        with pytest.raises(InvalidSpecError):
            canonical_hash(unpruned)
        with pytest.raises(NoPathError):
            prune(no_path)
    assert cellspace._hash_memo.cache_info().currsize == 0
    assert cellspace._prune_memo.cache_info().currsize == 0


def test_hash_memo_stays_bounded_after_a_threshold_scan():
    cellspace._hash_memo.cache_clear()
    oracle._synthetic_scan.cache_clear()
    oracle.synthetic_label_threshold(oracle.SyntheticOracleParams(), SpaceLimits(5, 9))
    info = cellspace._hash_memo.cache_info()
    # enumeration hashes each class first, so synth_record's hash is a hit
    assert info.misses >= 2532
    assert info.hits >= 2532
    assert info.currsize == info.maxsize == cellspace.HASH_MEMO_SIZE


def test_prune_memo_returns_an_equal_spec_for_an_equal_genome():
    cellspace._prune_memo.cache_clear()

    def genome():
        # vertex 2 is a dead end and vertex 3 is isolated
        return make_spec(
            5,
            [(0, 1), (0, 2), (1, 4)],
            [OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3],
        )

    first, second = prune(genome()), prune(genome())
    assert first == second == cellspace._prune(genome())
    assert first == make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])
    info = cellspace._prune_memo.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_memoized_functions_stay_plain_functions():
    # perfbench's tracer wraps only `inspect.isfunction` objects; were these
    # the lru_cache objects themselves, the benchmark's canonical_hash and
    # prune metrics would silently read 0.
    assert inspect.isfunction(canonical_hash)
    assert inspect.isfunction(prune)


# ---------------------------------------------------------------------------
# random_spec


def test_random_spec_only_option_at_tiny_limits():
    rng = random.Random(0)
    for _ in range(20):
        s = random_spec(rng, SpaceLimits(2, 1))
        assert s == ModelSpec(2, ((0, 1),), (OpLabel.IN, OpLabel.OUT))


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
        assert prune(s) == s


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
    # parent plus exactly one primitive edit, and must prune to a valid
    # cell.
    parent = make_spec(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3],
    )
    rng = random.Random(19)
    limits = SpaceLimits(5, 9)
    for _ in range(1000):
        child = mutate(parent, rng, limits)
        assert validate(prune(child), limits).valid
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
        child = mutate(parent, rng, limits)
        assert child.num_vertices == 5
        phenotype = prune(child)
        assert validate(phenotype, limits).valid
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
        child = mutate(parent, rng, limits)
        grandchild = mutate(child, rng, limits)
        if prune(grandchild).num_vertices > 3:
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
        child = mutate(parent, rng, limits)
        if child.num_vertices == 3 and child.edges == parent.edges:
            seen_ops.add(child.ops[1])
            assert child.ops[0] is OpLabel.IN and child.ops[2] is OpLabel.OUT
    assert OpLabel.CONV1X1 in seen_ops and OpLabel.MAXPOOL3X3 in seen_ops


def test_mutate_two_vertex_parent_at_tight_limits_exhausts():
    parent = ModelSpec(2, ((0, 1),), (OpLabel.IN, OpLabel.OUT))
    with pytest.raises(ExhaustedError):
        mutate(parent, random.Random(0), SpaceLimits(2, 1))


def test_mutate_deterministic_per_seed():
    parent = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    a = mutate(parent, random.Random(9), SpaceLimits(7, 9))
    b = mutate(parent, random.Random(9), SpaceLimits(7, 9))
    assert a == b


# ---------------------------------------------------------------------------
# enumerate_space


@pytest.mark.parametrize("limits,count", sorted(KNOWN_CLASS_COUNTS.items()))
def test_enumeration_class_counts(limits, count):
    specs = list(enumerate_space(SpaceLimits(*limits)))
    assert len(specs) == count
    digests = [canonical_hash(s) for s in specs]
    assert len(set(digests)) == count


def test_enumeration_agrees_with_permutation_oracle_v4():
    specs = list(enumerate_space(SpaceLimits(4, 9)))
    forms = {perm_canonical_form(s) for s in specs}
    assert len(forms) == len(specs)
    # Independent count: enumerate raw labeled DAGs, dedup by the oracle.
    raw_forms = set()
    for v in range(2, 5):
        pairs = upper_triangle_pairs(v)
        for mask in range(2 ** len(pairs)):
            edges = tuple(p for k, p in enumerate(pairs) if mask >> k & 1)
            for labeling in itertools.product(cellspace.INTERIOR_OPS, repeat=v - 2):
                s = ModelSpec(v, edges, (OpLabel.IN,) + labeling + (OpLabel.OUT,))
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
        assert prune(s) == s
        assert s.num_edges <= 4


def test_enumeration_guard():
    with pytest.raises(TooLargeError):
        list(enumerate_space(SpaceLimits(7, 9)))


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(space59_specs):
    for s in space59_specs[::97]:
        assert ModelSpec.from_json_obj(s.to_json_obj()) == s


def test_json_obj_shape(chain3_conv1x1):
    obj = chain3_conv1x1.to_json_obj()
    assert obj == {"v": 3, "edges": [[0, 1], [1, 2]], "ops": ["in", "conv1x1", "out"]}
