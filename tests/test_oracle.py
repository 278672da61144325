"""Ground-truth oracle tests: record validation, the simulated clock,
synthetic accuracy/time formulas (recomputed independently), benchmark file
IO, labeling, and the frozen identity of the synthetic optimum."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellsearch import cellspace, oracle
from cellsearch.cellspace import (
    ModelSpec, OpLabel, SpaceLimits, canonical_hash, longest_path_edges,
)
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
OPTIMUM_HASH_5_9 = "e6f50a3dbee0bfeee91f33fa572fccd4"


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
    # a chain the input does not reach leads to OUT
    unreached = make_spec(4, [(1, 2), (2, 3)], [OpLabel.CONV3X3] * 2)
    with pytest.raises(ValueError, match="no input->output path"):
        longest_path_edges(unreached)


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

    for spec in space59_specs:
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
# the process-wide memo on synth_record


@pytest.mark.parametrize(
    "params",
    [
        SyntheticOracleParams(),
        SyntheticOracleParams(base_accuracy=0.5, jitter_scale=0.05, time_edge_s=10.0),
    ],
)
def test_memoized_records_equal_the_uncached_computation(limits59, params):
    oracle._record_memo.cache_clear()
    count = 0
    for spec in cellspace.enumerate_space(limits59):
        uncached = oracle._synth_record(spec, params)
        assert synth_record(spec, params) == uncached  # a miss
        assert synth_record(spec, params) == uncached  # a hit
        count += 1
    info = oracle._record_memo.cache_info()
    assert (info.misses, info.hits) == (count, count) == (2532, 2532)


def test_params_differing_only_in_jitter_scale_get_their_own_records():
    oracle._record_memo.cache_clear()
    spec = make_spec(4, [(0, 1), (1, 2), (2, 3)], [OpLabel.CONV3X3, OpLabel.CONV1X1])
    default, wider = SyntheticOracleParams(), SyntheticOracleParams(jitter_scale=0.04)
    first = synth_record(spec, default)
    second = synth_record(spec, wider)
    assert first.val_accuracy != second.val_accuracy
    assert second == oracle._synth_record(spec, wider)
    assert synth_record(spec, default) is first
    info = oracle._record_memo.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_params_differing_only_in_the_sign_of_a_zero_share_one_record():
    # -0.0 == 0.0, so the params are made equal in every bit: the memo then
    # returns what an uncached computation gives under either
    oracle._record_memo.cache_clear()
    spec = make_spec(3, [(0, 1), (1, 2)], [OpLabel.CONV3X3])
    assert SyntheticOracleParams(accuracy_cap=-0.0).accuracy_cap.hex() == "0x0.0p+0"
    for cap in (-0.0, 0.0):
        params = SyntheticOracleParams(accuracy_cap=cap)
        uncached = oracle._synth_record(spec, params)
        assert synth_record(spec, params) == uncached
        assert repr(synth_record(spec, params)) == repr(uncached)


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
    assert best_spec.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4))
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


# ---------------------------------------------------------------------------
# the space scan: one pass, whose answers equal the full table's

SCAN_PARAMS = {
    "default": SyntheticOracleParams(),
    "no-jitter": SyntheticOracleParams(jitter_scale=0.0),
    "negative-jitter": SyntheticOracleParams(jitter_scale=-0.03),
    "ties-at-cap": SyntheticOracleParams(accuracy_cap=0.7),
}


@pytest.mark.parametrize("limits", [SpaceLimits(4, 9), SpaceLimits(5, 9)], ids=["4,9", "5,9"])
@pytest.mark.parametrize("name", list(SCAN_PARAMS))
def test_bounded_scan_equals_the_full_scan(limits, name):
    params = SCAN_PARAMS[name]
    table = [(spec, synth_record(spec, params)) for spec in cellspace.enumerate_space(limits)]
    accs = [record.val_accuracy for _, record in table]
    if name == "ties-at-cap":
        # 43 of 91 classes at (4,9), 2,189 of 2,532 at (5,9): the quantile
        # and the optimum sit in the tie, whose first class is the optimum
        assert accs.count(0.7) > len(accs) / 3
    oracle._synthetic_scan.cache_clear()
    threshold = synthetic_label_threshold(params, limits)
    assert threshold.hex() == float(np.quantile(accs, 0.9)).hex()
    assert synthetic_optimum(params, limits) == table[accs.index(max(accs))]


def test_bounded_scan_keeps_the_full_scan_answers_at_6_9():
    # what np.quantile and max over all 64,542 (6,9) classes' records give
    params, limits = SyntheticOracleParams(), SpaceLimits(6, 9)
    assert synthetic_label_threshold(params, limits).hex() == (0.8054495089760284).hex()
    spec, record = synthetic_optimum(params, limits)
    assert record.spec_hash == "f2ff0b663192d6ec0aa66e146f7b7ba2"
    assert record.val_accuracy.hex() == (0.8639840834131168).hex()
    assert record == synth_record(spec, params)


def test_linear_quantile_equals_numpy_bit_for_bit():
    # n = 1 reaches numpy's index clipping; the weight (n - 1) * 0.9 % 1 is
    # at least 0.5 for n = 2 and below it for n = 7, so both `_lerp` branches run
    rng = np.random.default_rng(0)
    for n in [*range(1, 601), 2532, 64542, 423624]:
        for x in (
            rng.random(n),
            rng.integers(0, 4, n) / 7,  # repeated values
            rng.random(n) * 10.0 ** rng.integers(-6, 3, n),
        ):
            ordered = sorted(x.tolist())
            got = oracle._linear_quantile(n, lambda lo, hi: (ordered[lo], ordered[hi]))
            assert got.hex() == float(np.quantile(x, 0.9)).hex(), n


def test_the_threshold_scan_does_not_import_numpy_ma():
    # The benchmark's predictor-pipeline peak-memory gain rests on this:
    # np.quantile's first call went through np.unique to np.ma.is_masked,
    # importing numpy.ma, and cost about 1.3 MB of resident memory.
    code = (
        "import sys\n"
        "import cellsearch.cli\n"
        "from cellsearch.cellspace import SpaceLimits\n"
        "from cellsearch.oracle import SyntheticOracleParams, synthetic_label_threshold\n"
        "synthetic_label_threshold(SyntheticOracleParams(), SpaceLimits(4, 9))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_isomorphic_storable_drawings_get_identical_records():
    a = make_spec(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.CONV3X3, OpLabel.MAXPOOL3X3]
    )
    b = make_spec(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)], [OpLabel.MAXPOOL3X3, OpLabel.CONV3X3]
    )
    params = SyntheticOracleParams()
    assert synth_record(a, params) == synth_record(b, params)
