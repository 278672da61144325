"""Ground-truth oracle tests: record validation, the simulated clock,
synthetic accuracy/time formulas (recomputed independently), benchmark file
IO, labeling, and the frozen identity of the synthetic optimum."""

import dataclasses
import json
import re

import numpy as np
import pytest

from cellsearch import cellspace, oracle
from cellsearch.cellspace import ModelSpec, OpLabel, SpaceLimits, canonical_hash
from cellsearch.errors import (
    ParseError,
    DuplicateHashError,
    UnknownArchitectureError,
)
from cellsearch.oracle import (
    BenchmarkRecord,
    BenchmarkTable,
    SimClock,
    SyntheticOracle,
    SyntheticOracleParams,
    dump_table_lines,
    label,
    load_table,
    longest_path_edges,
    query,
    synth_record,
    synthetic_label_threshold,
    synthetic_optimum,
    synthetic_table,
)

from conftest import LOOSE_SPEC_OBJECTS, make_spec

# Identity of the synthetic-landscape optimum at limits (5,9) with default
# coefficients, frozen after brute-force enumeration: the depth-4 chain of
# three 3x3 convolutions.
OPTIMUM_HASH_5_9 = "e630aae1d56e850ac87f7aa771b47739"


def jitter_of(spec, scale=0.02):
    digest = canonical_hash(spec)
    return (int(digest[:16], 16) / 2.0**64 - 0.5) * scale


# ---------------------------------------------------------------------------
# records and clock


def test_record_range_checks():
    BenchmarkRecord("00" * 16, 0.5, 100.0)
    with pytest.raises(ValueError):
        BenchmarkRecord("00" * 16, 1.2, 100.0)
    with pytest.raises(ValueError):
        BenchmarkRecord("00" * 16, -0.1, 100.0)
    with pytest.raises(ValueError):
        BenchmarkRecord("00" * 16, 0.5, -1.0)


def test_clock_accumulates_and_rejects_negative():
    clock = SimClock()
    assert clock.elapsed_s == 0.0
    clock.charge(240.0)
    clock.charge(500.0)
    assert clock.elapsed_s == 740.0
    with pytest.raises(ValueError):
        clock.charge(-1.0)


# ---------------------------------------------------------------------------
# synthetic records


def test_two_vertex_synthetic_record(two_vertex):
    rec = synth_record(two_vertex, SyntheticOracleParams())
    assert rec.train_time_s == 240.0
    assert rec.val_accuracy == pytest.approx(0.631 + jitter_of(two_vertex), abs=1e-15)
    assert abs(rec.val_accuracy - 0.631) <= 0.01 + 1e-12


def test_synthetic_record_deterministic(two_vertex):
    params = SyntheticOracleParams()
    assert synth_record(two_vertex, params) == synth_record(two_vertex, params)


def test_synthetic_formula_recomputed_independently():
    # 5-vertex: ops conv3x3, conv1x1, maxpool3x3; chain plus two skips.
    s = make_spec(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4)],
        [OpLabel.CONV3X3, OpLabel.CONV1X1, OpLabel.MAXPOOL3X3],
    )
    raw = 0.62 + 0.045 * 1 + 0.030 * 1 + 0.010 * 1 + 0.015 * 4 - 0.004 * 6
    rec = synth_record(s, SyntheticOracleParams())
    assert rec.val_accuracy == pytest.approx(raw + jitter_of(s), abs=1e-15)
    assert rec.train_time_s == 200 + 300 + 150 + 60 + 40 * 6


def test_synthetic_accuracy_capped():
    params = SyntheticOracleParams(base_accuracy=2.0)
    s = make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])
    assert synth_record(s, params).val_accuracy == 0.95


def test_synthetic_rejects_unpruned():
    s = make_spec(3, [(0, 2)], [OpLabel.CONV3X3])
    with pytest.raises(Exception):
        synth_record(s, SyntheticOracleParams())


def test_params_round_trip():
    params = SyntheticOracleParams(jitter_scale=0.05)
    again = SyntheticOracleParams(**json.loads(json.dumps(dataclasses.asdict(params))))
    assert again == params


def test_params_must_be_finite_reals_with_nonnegative_times():
    assert SyntheticOracleParams(time_base_s=0, base_accuracy=np.float64(0.5))
    for bad in (
        {"base_accuracy": "x"},
        {"depth_gain": None},
        {"jitter_scale": True},
        {"edge_penalty": float("nan")},
        {"accuracy_cap": float("inf")},
        {"time_maxpool_s": -1.0},
    ):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            SyntheticOracleParams(**bad)
    # a negative gain is a real design choice, not an error
    assert SyntheticOracleParams(edge_penalty=-0.01).edge_penalty == -0.01


# ---------------------------------------------------------------------------
# longest path


def test_longest_path_hand_cases(two_vertex):
    assert longest_path_edges(two_vertex) == 1
    chain5 = make_spec(
        5, [(0, 1), (1, 2), (2, 3), (3, 4)], [OpLabel.CONV3X3] * 3
    )
    assert longest_path_edges(chain5) == 4
    diamond = make_spec(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1]
    )
    assert longest_path_edges(diamond) == 2
    with_skip = make_spec(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [OpLabel.CONV3X3] * 3
    )
    assert longest_path_edges(with_skip) == 4


def test_longest_path_matches_exhaustive_walk(space59_specs):
    def brute(spec):
        succs = {i: [] for i in range(spec.num_vertices)}
        for i, j in spec.edges:
            succs[i].append(j)
        best = 0

        def walk(vertex, length):
            nonlocal best
            if vertex == spec.num_vertices - 1:
                best = max(best, length)
            for nxt in succs[vertex]:
                walk(nxt, length + 1)

        walk(0, 0)
        return best

    for spec in space59_specs[::37]:
        assert longest_path_edges(spec) == brute(spec)


# ---------------------------------------------------------------------------
# query and labeling


def test_query_charges_scaled_time(two_vertex):
    synth = SyntheticOracle()
    clock = SimClock()
    rec = query(synth, two_vertex, clock, charge=1.0)
    assert clock.elapsed_s == rec.train_time_s == 240.0
    query(synth, two_vertex, clock, charge=0.0)
    assert clock.elapsed_s == 240.0
    query(synth, two_vertex, clock, charge=0.5)
    assert clock.elapsed_s == 360.0
    with pytest.raises(ValueError):
        query(synth, two_vertex, clock, charge=1.5)


def test_query_file_mode_hit_and_miss(two_vertex, chain3_conv1x1):
    digest = canonical_hash(two_vertex)
    table = BenchmarkTable(
        records={digest: BenchmarkRecord(digest, 0.7, 500.0)}
    )
    clock = SimClock()
    rec = query(table, two_vertex, clock, charge=1.0)
    assert rec.val_accuracy == 0.7
    assert clock.elapsed_s == 500.0
    with pytest.raises(UnknownArchitectureError):
        query(table, chain3_conv1x1, clock, charge=1.0)
    assert clock.elapsed_s == 500.0  # failed lookup charges nothing


def test_label_boundaries():
    rec = lambda a: BenchmarkRecord("00" * 16, a, 1.0)
    assert label(rec(0.945), 0.90) == 1
    assert label(rec(0.90), 0.90) == 0  # strict inequality
    assert label(rec(0.10), 0.90) == 0
    assert label(rec(0.9000001), 0.90) == 1


# ---------------------------------------------------------------------------
# benchmark files


def test_load_empty_file(tmp_path):
    path = tmp_path / "bench.jsonl"
    path.write_text("")
    table = load_table(path)
    assert table.records == {}


def test_load_round_trip(tmp_path, space59_specs):
    specs = space59_specs[:3]
    params = SyntheticOracleParams()
    lines = dump_table_lines((s, synth_record(s, params)) for s in specs)
    path = tmp_path / "bench.jsonl"
    path.write_text("\n".join(lines) + "\n")
    table = load_table(path)
    assert len(table.records) == 3
    clock = SimClock()
    for s in specs:
        assert query(table, s, clock, 0.0) == synth_record(s, params)


def test_load_rejects_out_of_range_accuracy(tmp_path, two_vertex):
    path = tmp_path / "bench.jsonl"
    path.write_text(
        json.dumps(
            {"spec": two_vertex.to_json_obj(), "val_accuracy": 1.2, "train_time_s": 1.0}
        )
        + "\n"
    )
    with pytest.raises(ParseError, match="1"):
        load_table(path)


def test_load_rejects_duplicate_hash(tmp_path, two_vertex):
    line = json.dumps(
        {"spec": two_vertex.to_json_obj(), "val_accuracy": 0.5, "train_time_s": 1.0}
    )
    path = tmp_path / "bench.jsonl"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(DuplicateHashError):
        load_table(path)


def test_load_rejects_garbage_and_uncanonical(tmp_path):
    path = tmp_path / "bench.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ParseError):
        load_table(path)
    unpruned = {"v": 3, "edges": [[0, 2]], "ops": ["in", "conv3x3", "out"]}
    path.write_text(
        json.dumps({"spec": unpruned, "val_accuracy": 0.5, "train_time_s": 1.0}) + "\n"
    )
    with pytest.raises(ParseError, match=":1: .*dangling_vertex"):
        load_table(path)


@pytest.mark.parametrize("spec", LOOSE_SPEC_OBJECTS)
def test_load_refuses_spec_numbers_that_are_not_integers(tmp_path, two_vertex, spec):
    path = tmp_path / "bench.jsonl"
    path.write_text("".join(
        json.dumps({"spec": s, "val_accuracy": 0.5, "train_time_s": 1.0}) + "\n"
        for s in (two_vertex.to_json_obj(), spec)
    ))
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: malformed spec object:")):
        load_table(path)


@pytest.mark.parametrize(
    "loose",
    [{"val_accuracy": "0.5"}, {"val_accuracy": None}, {"train_time_s": True},
     {"train_time_s": "1.0"}],
)
def test_load_refuses_table_numbers_that_are_not_reals(tmp_path, two_vertex, loose):
    # "0.5" was read as 0.5 and true as 1.0 second of training
    (name,) = loose
    path = tmp_path / "bench.jsonl"
    obj = {"spec": two_vertex.to_json_obj(), "val_accuracy": 0.5, "train_time_s": 1.0, **loose}
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: {name} must be a finite real")):
        load_table(path)


# ---------------------------------------------------------------------------
# the synthetic landscape at (5,9)


def test_optimum_is_unique_and_frozen(limits59):
    params = SyntheticOracleParams()
    records = {}
    for spec in cellspace.enumerate_space(limits59):
        rec = synth_record(spec, params)
        records[rec.spec_hash] = (spec, rec)
    accs = sorted(
        ((rec.val_accuracy, h) for h, (_, rec) in records.items()), reverse=True
    )
    best_acc, best_hash = accs[0]
    assert best_hash == OPTIMUM_HASH_5_9
    assert best_acc > accs[1][0], "optimum must be unique"
    best_spec = records[best_hash][0]
    assert best_spec.num_vertices == 5
    assert best_spec.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert set(best_spec.ops[1:-1]) == {OpLabel.CONV3X3}
    assert all(0.0 <= a <= 0.95 for a, _ in accs)


def test_synthetic_threshold_populates_both_classes(limits59):
    params = SyntheticOracleParams()
    thr = synthetic_label_threshold(params, limits59)
    accs = [
        synth_record(s, params).val_accuracy
        for s in cellspace.enumerate_space(limits59)
    ]
    assert thr == float(np.quantile(accs, 0.9))
    positives = sum(a > thr for a in accs)
    assert 0 < positives < len(accs)
    # by construction roughly a tenth of the space is positive
    assert 0.05 <= positives / len(accs) <= 0.15


def test_threshold_and_optimum_share_one_enumeration(monkeypatch):
    real = cellspace.enumerate_space
    calls = []

    def counting(limits):
        calls.append(limits)
        return real(limits)

    monkeypatch.setattr(cellspace, "enumerate_space", counting)
    oracle._synthetic_scan.cache_clear()
    params = SyntheticOracleParams()
    limits = SpaceLimits(4, 9)
    thr = synthetic_label_threshold(params, limits)
    spec, record = synthetic_optimum(params, limits)
    assert synthetic_label_threshold(params, limits) == thr
    assert calls == [limits]
    table = list(synthetic_table(params, limits))
    assert [s for s, _ in table] == list(real(limits))
    assert all(rec == synth_record(s, params) for s, rec in table)
    accs = [rec.val_accuracy for _, rec in table]
    assert thr == float(np.quantile(accs, 0.9))
    assert (spec, record) == table[accs.index(max(accs))]


def test_isomorphic_storable_drawings_get_identical_records():
    a = make_spec(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.CONV3X3, OpLabel.MAXPOOL3X3]
    )
    b = make_spec(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.MAXPOOL3X3, OpLabel.CONV3X3]
    )
    params = SyntheticOracleParams()
    assert synth_record(a, params) == synth_record(b, params)
