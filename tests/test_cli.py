"""Command-line contract: subcommand outputs, file artifacts, exit codes,
seeding, and byte-identical reruns."""

import argparse
import collections
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import typing

import pytest

from cellsearch import cellspace, cli, oracle
from cellsearch.cellspace import SpaceLimits
from cellsearch.cli import build_parser, main
from cellsearch.errors import CellSearchError, ParseError, ShapeError
from cellsearch.harness import ExperimentConfig, read_labeled, read_summary
from cellsearch.oracle import PaidQueries, SyntheticOracleParams, load_table, synth_record
from cellsearch.predictor import RnnParams, TrainConfig, load_predictor
from cellsearch.traces import TRACE_HEADER, SearchTrace, read_trace

OPTIMUM_HASH_5_9 = "e6f50a3dbee0bfeee91f33fa572fccd4"


def _not_json(constant):
    raise ValueError(f"stdout line holds {constant}, which is not JSON")


def run_cli(capsys, *argv):
    """main's exit code, stdout and stderr. Every non-empty stdout line must
    be strict JSON: NaN, Infinity and -Infinity are refused."""
    code = main(list(argv))
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        if line:
            json.loads(line, parse_constant=_not_json)
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# enumerate / gen-synthetic


def test_enumerate_counts_match_the_space(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--limits", "3,9")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == sum(1 for _ in cellspace.enumerate_space(SpaceLimits(3, 9)))
    for obj in lines:
        assert set(obj) == {"hash", "val_accuracy", "train_time_s", "spec"}


def test_enumerate_optimum(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--limits", "5,9", "--optimum")
    assert code == 0
    (obj,) = json_lines(out)
    assert obj["hash"] == OPTIMUM_HASH_5_9
    assert obj["val_accuracy"] == pytest.approx(0.7990435302748605)


def test_gen_synthetic_writes_a_loadable_table(capsys, tmp_path):
    table_path = tmp_path / "table.jsonl"
    code, out, _ = run_cli(
        capsys, "gen-synthetic", "--limits", "4,9", "--out", str(table_path)
    )
    assert code == 0
    (report,) = json_lines(out)
    table = load_table(table_path)
    assert report["count"] == len(table.records) == 91
    # spot-check one record against the synthetic functions
    spec = next(cellspace.enumerate_space(SpaceLimits(4, 9)))
    record = synth_record(spec, SyntheticOracleParams())
    assert table.records[record.spec_hash].val_accuracy == record.val_accuracy


# ---------------------------------------------------------------------------
# label / train-predictor


def test_label_then_train(capsys, tmp_path):
    data = tmp_path / "data.jsonl"
    code, out, _ = run_cli(
        capsys,
        "label", "--limits", "4,9", "--n", "80", "--seed", "3",
        "--out", str(data),
    )
    assert code == 0
    (report,) = json_lines(out)
    assert report["n_labeled"] == 80
    assert 0 < report["positives"] < 80

    model = tmp_path / "predictor.json"
    code, out, _ = run_cli(
        capsys,
        "train-predictor", "--data", str(data), "--out", str(model),
        "--seed", "0", "--epochs", "60",
    )
    assert code == 0
    (train_report,) = json_lines(out)
    assert 0.0 <= train_report["heldout_accuracy"] <= 1.0
    trained = load_predictor(model)
    assert trained.threshold_used == report["threshold"]


def test_label_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys,
            "label", "--limits", "4,9", "--n", "30", "--seed", "12",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# run


def test_run_oracle_writes_consistent_artifacts(capsys, tmp_path):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys,
        "run", "--algo", "evolution", "--fitness", "oracle",
        "--oracle", "synthetic", "--limits", "4,9",
        "--population-size", "10", "--sample-size", "3", "--cycles", "80",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    (line,) = json_lines(stdout)
    assert line["seed"] == 7

    trace = read_trace(out / "trace.csv")
    summary = read_summary(out / "summary.json")
    summary.cross_check(trace)
    assert summary.seed == 7
    assert summary.config.evolution.cycles == 80
    assert (out / "trace.csv").read_text().splitlines()[0] == TRACE_HEADER


def test_run_predictor_writes_extra_artifacts(capsys, tmp_path):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys,
        "run", "--fitness", "predictor", "--limits", "4,9",
        "--n-label", "60", "--top-k", "5",
        "--population-size", "15", "--sample-size", "4", "--cycles", "100",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    (line,) = json_lines(stdout)
    assert "heldout_accuracy" in line
    summary = read_summary(out / "summary.json")
    summary.cross_check(read_trace(out / "trace.csv"))
    read_trace(out / "search_trace.csv")  # parses and validates
    load_predictor(out / "predictor.json")
    assert summary.labels == 60


def test_run_reruns_are_byte_identical(capsys, tmp_path):
    args = [
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "10", "--sample-size", "3", "--cycles", "60",
        "--seed", "5",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_run_multiple_seeds_use_subdirs(capsys, tmp_path):
    out = tmp_path / "multi"
    code, stdout, _ = run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "8", "--sample-size", "3", "--cycles", "40",
        "--seeds", "0,1", "--out", str(out),
    )
    assert code == 0
    assert len(json_lines(stdout)) == 2
    for seed in (0, 1):
        assert (out / f"seed-{seed}" / "summary.json").exists()


def test_run_json_flag_prints_full_summary(capsys, tmp_path):
    code, stdout, _ = run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "8", "--sample-size", "3", "--cycles", "40",
        "--seed", "1", "--out", str(tmp_path / "r"), "--json",
    )
    assert code == 0
    (obj,) = json_lines(stdout)
    assert "config" in obj and "counts" in obj


def test_consecutive_calls_in_one_process_share_no_parsed_state(capsys, tmp_path):
    # main builds its parser once per process; each call parses afresh
    small = (
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "8", "--sample-size", "3", "--cycles", "40",
    )
    code, stdout, _ = run_cli(capsys, *small, "--seeds", "1,2", "--out", str(tmp_path / "a"))
    assert code == 0 and [line["seed"] for line in json_lines(stdout)] == [1, 2]
    code, stdout, _ = run_cli(capsys, *small, "--seed", "3", "--out", str(tmp_path / "b"))
    assert code == 0
    (line,) = json_lines(stdout)
    # one seed, so no seed-<n> subdirectory
    assert line["seed"] == 3 and line["out"] == str(tmp_path / "b")
    assert (tmp_path / "b" / "summary.json").exists()

    code, stdout, _ = run_cli(capsys, *small, "--seed", "4", "--json", "--out", str(tmp_path / "c"))
    assert code == 0 and "config" in json_lines(stdout)[0]
    code, stdout, err = run_cli(capsys, *small, "--seed", "x", "--out", str(tmp_path / "x"))
    assert code == 1 and stdout == "" and err.startswith("usage: cellsearch")
    assert "usage error: argument --seed: invalid int value: 'x'" in err
    code, stdout, _ = run_cli(capsys, *small, "--seed", "4", "--out", str(tmp_path / "d"))
    assert code == 0
    (line,) = json_lines(stdout)
    assert sorted(line) == ["best_hash", "best_true_acc", "out", "seed", "total_sim_seconds"]
    for name in ("summary.json", "trace.csv"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()


def test_a_seeds_bytes_do_not_depend_on_what_ran_before_it(capsys, tmp_path):
    """The process-wide memos carry cells and oracle records from one seed
    to the next. A seed writes the same files with every memo cleared, after
    other seeds in the same process, and inside one `run --seeds`."""
    gt_evolution = (
        "run", "--algo", "evolution", "--fitness", "oracle", "--limits", "5,9",
        "--population-size", "50", "--sample-size", "10", "--cycles", "2000",
    )

    def files(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    for memo in (
        cellspace._hash_memo, cellspace._phenotype_memo, cellspace._swaps,
        oracle._record_memo, oracle._synthetic_scan,
    ):
        memo.cache_clear()
    assert run_cli(capsys, *gt_evolution, "--seed", "3", "--out", str(tmp_path / "cold"))[0] == 0
    for seed in (0, 1, 2):
        out = str(tmp_path / f"warm-{seed}")
        assert run_cli(capsys, *gt_evolution, "--seed", str(seed), "--out", out)[0] == 0
    hits = oracle._record_memo.cache_info().hits
    assert run_cli(capsys, *gt_evolution, "--seed", "3", "--out", str(tmp_path / "warm"))[0] == 0
    assert oracle._record_memo.cache_info().hits > hits  # the warm run reused records
    sweep = tmp_path / "sweep"
    assert run_cli(capsys, *gt_evolution, "--seeds", "0,1,2,3", "--out", str(sweep))[0] == 0
    cold = files(tmp_path / "cold")
    assert files(tmp_path / "warm") == files(sweep / "seed-3") == cold
    for seed in (0, 1, 2):
        assert files(tmp_path / f"warm-{seed}") == files(sweep / f"seed-{seed}")


def test_run_config_file_with_flag_overrides(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "fitness": "ORACLE",
                "limits": {"max_vertices": 4, "max_edges": 9},
                "evolution": {"population_size": 8, "sample_size": 3, "cycles": 200},
            }
        )
    )
    out = tmp_path / "r"
    code, _, _ = run_cli(
        capsys,
        "run", "--config", str(cfg_path), "--cycles", "50",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    summary = read_summary(out / "summary.json")
    assert summary.config.evolution.cycles == 50  # flag wins
    assert summary.config.evolution.population_size == 8  # file survives


def test_run_config_file_flags_make_it_runnable(capsys, tmp_path):
    # the checks see the config after the flags are merged over the file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fitness": "PREDICTOR", "n_label": 30}))
    for flags in (
        ("--limits", "4,9"),
        ("--label-threshold", "0.7", "--cycles", "20"),
    ):
        out = tmp_path / "r"
        code, _, err = run_cli(
            capsys,
            "run", "--config", str(cfg_path), *flags,
            "--population-size", "8", "--sample-size", "3",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0, (flags, err)
        assert read_summary(out / "summary.json").config.fitness == "PREDICTOR"


def test_nas_seed_env_is_the_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NAS_SEED", "23")
    out = tmp_path / "r"
    code, _, _ = run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "8", "--sample-size", "3", "--cycles", "40",
        "--out", str(out),
    )
    assert code == 0
    assert read_summary(out / "summary.json").seed == 23


def test_config_file_seed_comes_after_the_flag_and_before_nas_seed(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setenv("NAS_SEED", "23")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "limits": {"max_vertices": 4, "max_edges": 9}}))
    for flags, seed in (((), 5), (("--seed", "7"), 7)):
        out = tmp_path / f"r{seed}"
        code, _, err = run_cli(
            capsys,
            "run", "--config", str(cfg_path), *flags,
            "--population-size", "8", "--sample-size", "3", "--cycles", "40",
            "--out", str(out),
        )
        assert code == 0, err
        assert read_summary(out / "summary.json").seed == seed
    cfg_path.write_text(json.dumps({"seed": "5"}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "bad"))
    assert code == 1 and "seed must be an integer" in err
    assert not (tmp_path / "bad").exists()


def test_label_refuses_a_pool_that_train_predictor_cannot_split(capsys, tmp_path, monkeypatch):
    # label --n 2 to --n 4 paid for a pool on which train-predictor trained
    # and then stopped with "empty held-out set"; the pool is held to a
    # predictor run's rule at the config's heldout_fraction, before any
    # label is paid for
    paid = []
    real_query = PaidQueries.query

    def counting_query(self, *args):
        paid.append(args)
        return real_query(self, *args)

    monkeypatch.setattr(PaidQueries, "query", counting_query)
    out = tmp_path / "labeled.jsonl"
    for n in ("2", "3", "4"):
        code, stdout, err = run_cli(
            capsys, "label", "--limits", "4,9", "--n", n, "--threshold", "0.66", "--seed", "0",
            "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert f"n_label {n} can leave the held-out set empty" in err
        assert not out.exists() and paid == []
    # the smallest pool the split can use is labeled, one payment a label
    code, _, _ = run_cli(
        capsys, "label", "--limits", "4,9", "--n", "5", "--threshold", "0.66", "--seed", "0",
        "--out", str(out),
    )
    assert code == 0 and out.exists() and len(paid) == 5


def test_train_predictor_refuses_a_pool_its_split_cannot_use(capsys, tmp_path, monkeypatch):
    # a 5-label file split at --heldout-fraction 0.1 holds out nothing: it
    # trained all its epochs and then stopped with "empty held-out set"
    data, out = tmp_path / "labeled.jsonl", tmp_path / "predictor.json"
    code, _, _ = run_cli(
        capsys, "label", "--limits", "4,9", "--n", "5", "--threshold", "0.66", "--seed", "0",
        "--out", str(data),
    )
    assert code == 0

    def refuse(*args):
        raise AssertionError("a refused pool must not be trained on")

    monkeypatch.setattr(cli, "fit", refuse)
    code, stdout, err = run_cli(
        capsys, "train-predictor", "--data", str(data), "--heldout-fraction", "0.1",
        "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    assert err.startswith("usage:") and "n_label 5 can leave the held-out set empty" in err
    assert not out.exists()
    # at the default fraction the same file trains
    monkeypatch.undo()
    code, _, err = run_cli(
        capsys, "train-predictor", "--data", str(data), "--epochs", "2", "--out", str(out)
    )
    assert code == 0 and out.exists(), err


def _label_file(capsys, path):
    code, _, err = run_cli(
        capsys, "label", "--limits", "4,9", "--n", "20", "--threshold", "0.66", "--seed", "0",
        "--out", str(path),
    )
    assert code == 0, err
    return path.read_text().splitlines()


def test_train_predictor_refuses_a_file_that_labels_one_class_twice(capsys, tmp_path):
    # every item line written twice trained with exit 0, 32 train and 8
    # held-out labels for 20 classes, a class on both sides of the split
    data, out = tmp_path / "labeled.jsonl", tmp_path / "predictor.json"
    meta, *items = _label_file(capsys, data)
    data.write_text("\n".join([meta, *items, *items]) + "\n")
    code, stdout, err = run_cli(capsys, "train-predictor", "--data", str(data), "--out", str(out))
    first = cellspace.ModelSpec.from_json_obj(json.loads(items[0])["spec"])
    digest = cellspace.canonical_hash(first)
    assert (code, stdout) == (2, "") and not out.exists()
    assert f"{data}:22: duplicate hash {digest}, first on line 2" in err, err


def test_run_refuses_an_oracle_table_that_holds_one_class_twice(capsys, tmp_path):
    # a (3,9) table with its first line appended again as line 8: the error
    # names both lines, as the labeled-file reader's does
    table, out = tmp_path / "t2.jsonl", tmp_path / "run"
    code, _, err = run_cli(capsys, "gen-synthetic", "--limits", "3,9", "--out", str(table))
    assert code == 0, err
    lines = table.read_text().splitlines()
    assert len(lines) == 7
    table.write_text("\n".join([*lines, lines[0]]) + "\n")
    code, stdout, err = run_cli(
        capsys, "run", "--oracle", str(table), "--limits", "3,9", "--out", str(out)
    )
    first = cellspace.ModelSpec.from_json_obj(json.loads(lines[0])["spec"])
    digest = cellspace.canonical_hash(first)
    assert (code, stdout) == (2, "")
    assert not (out / "summary.json").exists() and not (out / "trace.csv").exists()
    assert f"{table}:8: duplicate hash {digest}, first on line 1" in err, err


def test_a_labeled_file_whose_meta_holds_a_label_charge_still_trains(capsys, tmp_path):
    # files written while labels had a charge hold it in their meta line;
    # their labels are full-training answers, so they train as any other
    data, old = tmp_path / "labeled.jsonl", tmp_path / "old.jsonl"
    meta, *items = _label_file(capsys, data)
    old.write_text("\n".join([json.dumps({**json.loads(meta), "label_charge": 0.5}), *items]))
    outputs = []
    for path in (data, old):
        out = tmp_path / f"{path.stem}.json"
        code, stdout, err = run_cli(capsys, "train-predictor", "--data", str(path),
                                    "--epochs", "5", "--out", str(out))
        assert code == 0, err
        outputs.append((stdout.replace(str(out), "<out>"), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_stale_label_charge_input_is_refused(capsys, tmp_path, monkeypatch):
    # labels have one charge, full training: a config key, summary echo or
    # flag that sets another is unknown input, refused before any payment
    run = ("run", "--fitness", "oracle", "--limits", "4,9", "--population-size", "10",
           "--sample-size", "3", "--cycles", "20")
    summary = tmp_path / "ok" / "summary.json"
    assert run_cli(capsys, *run, "--out", str(tmp_path / "ok"))[0] == 0
    stale = tmp_path / "stale.json"
    obj = json.loads(summary.read_text())
    obj["config"]["label_charge"] = 1.0
    stale.write_text(json.dumps(obj))

    def refuse(*args):
        raise AssertionError("refused input must pay for no query")

    monkeypatch.setattr(PaidQueries, "query", refuse)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "bad"
    cfg_path.write_text('{"label_charge": 0.5}')
    code, stdout, err = run_cli(capsys, *run, "--config", str(cfg_path), "--out", str(out))
    assert (code, stdout) == (1, "") and "unknown config keys: ['label_charge']" in err, err
    code, stdout, err = run_cli(capsys, "compare", str(summary), str(stale))
    assert (code, stdout) == (2, "") and "unknown config keys: ['label_charge']" in err, err
    for argv in (("run", "--label-charge", "0.5"), ("label", "--charge", "0.5")):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "") and f"unrecognized arguments: {argv[1]} 0.5" in err
    assert not out.exists()


def test_negative_seeds_are_refused_before_anything_runs(capsys, tmp_path, monkeypatch):
    # numpy's generators take no negative seed: REINFORCE crashed at once,
    # a predictor run after paying for its labels, and `--seeds 0,-1` after
    # writing seed-0's artifacts
    def refuse(*args):
        raise AssertionError("a refused seed must pay for no query")

    monkeypatch.setattr(PaidQueries, "query", refuse)
    out = tmp_path / "bad"
    reinforce = ("run", "--algo", "reinforce", "--limits", "4,9", "--iterations", "2",
                 "--batch-size", "2")
    predictor = ("run", "--fitness", "predictor", "--limits", "4,9", "--n-label", "40")
    for argv in (
        (*reinforce, "--seed", "-1"),
        (*reinforce, "--seeds", "0,-1"),
        (*predictor, "--seed", "-1"),
        ("run", "--limits", "4,9", "--seed", "-1"),
        ("label", "--limits", "4,9", "--seed", "-1"),
        ("train-predictor", "--data", "unread.jsonl", "--seed", "-1"),
    ):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1 and stdout == "", (argv, err)
        assert "seed must lie in [0, inf), got -1" in err, (argv, err)
        assert not out.exists()
    monkeypatch.setenv("NAS_SEED", "-1")
    for argv in (predictor, ("label", "--limits", "4,9"), ("train-predictor", "--data", "x")):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1 and stdout == "", (argv, err)
        assert "seed must lie in [0, inf), got -1" in err, (argv, err)
        assert not out.exists()


def test_nas_seed_garbage_is_a_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NAS_SEED", "lucky")
    code, _, err = run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--cycles", "40", "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "NAS_SEED" in err


def test_nas_seed_is_read_only_by_subcommands_with_a_seed(capsys, tmp_path, monkeypatch):
    # enumerate, gen-synthetic and compare take no --seed, so a NAS_SEED
    # that is no integer leaves their exit code and stdout as they are
    run_dir = tmp_path / "r"
    code, _, _ = run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9", "--population-size", "8",
        "--sample-size", "3", "--cycles", "40", "--seed", "0", "--out", str(run_dir),
    )
    assert code == 0
    summary = str(run_dir / "summary.json")
    for argv in (
        ("enumerate", "--limits", "3,9"),
        ("enumerate", "--limits", "4,9", "--optimum"),
        ("gen-synthetic", "--limits", "3,9", "--out", str(tmp_path / "table.jsonl")),
        ("compare", summary, summary),
    ):
        monkeypatch.delenv("NAS_SEED", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out, (argv, err)
        monkeypatch.setenv("NAS_SEED", "lucky")
        assert run_cli(capsys, *argv)[:2] == (code, out), argv


def test_label_and_train_predictor_build_their_config_through_the_merge(
    capsys, tmp_path, monkeypatch
):
    # their unset flags restate no default: each builds ExperimentConfig's
    # defaults, and each set flag lands on the field its dest names
    built = []

    def capture(*args):
        built.append(args)
        raise CellSearchError("captured")

    monkeypatch.delenv("NAS_SEED", raising=False)
    monkeypatch.setattr(cli, "build_oracle", capture)
    # a pool of 10 labels, which the split can use at every fraction tried
    monkeypatch.setattr(cli, "read_labeled", lambda path: ([None] * 10, {"threshold": 0.5}))
    monkeypatch.setattr(cli, "fit", capture)
    out = tmp_path / "out"
    label = ("label", "--limits", "4,9", "--n", "7", "--threshold", "0.7",
             "--oracle", "table.jsonl", "--seed", "3")
    train = ("train-predictor", "--data", "x", "--epochs", "7", "--learning-rate", "0.1",
             "--hidden", "5", "--heldout-fraction", "0.3",
             "--target-positive-share", "0.4", "--seed", "2")
    for argv in (("label",), label, ("train-predictor", "--data", "x"), train):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == "" and "captured" in err, (argv, err)
        assert not out.exists()
    assert built[0] == (ExperimentConfig(),)
    assert built[1] == (
        ExperimentConfig(
            limits=SpaceLimits(4, 9), oracle_source="FILE", table_path="table.jsonl",
            n_label=7, label_threshold=0.7, seed=3,
        ),
    )
    assert built[2][1:3] == (TrainConfig(), 0)
    assert built[3][1:3] == (
        TrainConfig(
            epochs=7, learning_rate=0.1, hidden_size=5, heldout_fraction=0.3,
            target_positive_share=0.4,
        ),
        2,
    )
    # training takes one full-batch step per epoch, so there is no batch
    # size to set: the flag is gone, and a usage error
    code, stdout, err = run_cli(capsys, "train-predictor", "--data", "x", "--batch", "3",
                                "--out", str(out))
    assert code == 1 and stdout == "" and "unrecognized arguments: --batch 3" in err, err
    assert len(built) == 4 and not out.exists()


# ---------------------------------------------------------------------------
# pinned bytes

# sha256 of every artifact file and of stdout (with the out path masked)
PINNED_DIGESTS = {
    ("run", "--algo", "evolution", "--fitness", "oracle", "--limits", "4,9",
     "--cycles", "200", "--seed", "0"): {
        "summary.json": "d93bf3dd132961f3f60c51b3fd9312fc07b7d6a719b4e46c7c9b25d7a2659f4a",
        "trace.csv": "7cca54decc7bacaae0d359efc73c4bae91b7dac9374a14a4be667445d01b6b00",
        "stdout": "87d0de1bc91ccb85b778e8f099ab8e827769e0e2df15d24788cc8c6a3b042605",
    },
    ("run", "--fitness", "predictor", "--limits", "4,9", "--n-label", "60",
     "--seed", "2"): {
        "predictor.json": "4ccc9da57cc4a95e933e8744d4e296470c85baeef66544ae2f904d8534357b5a",
        "search_trace.csv": "31f134cbb9419082e4e91298ee219803b7a4d7bc1b3ad6914fd7274ad6ded846",
        "summary.json": "55825a424177e6d9dec931423c0ccebecf42fef7281f90aa7cea8c436fae1681",
        "trace.csv": "125ed91fa32d810b7806db09197a5a73e9a6c36a109c926b7e27385594ad4ee5",
        "stdout": "d07178f3fc8a788f13bf768ff26ceb6e92b61b4a6255742f16e172bb79264ec0",
    },
    ("label", "--limits", "4,9", "--n", "80", "--seed", "3"): {
        "out": "dcb3e67cd9e753b5c7ee2952a6be0ca1865194e5980e735bd37d4f4bf10cf495",
        "stdout": "44f7874f28308b6740356ab14d655c6c6aeb1e52f27a4ce2e4e5bd1d689ad8b5",
    },
    ("run", "--algo", "reinforce", "--fitness", "oracle", "--limits", "4,9",
     "--batch-size", "4", "--iterations", "25", "--seed", "1"): {
        "summary.json": "d19b589006481e565317365c8489a864dcb9fbb06ba314067507f3c0d2a77eaf",
        "trace.csv": "c22355397b80fcd7c13e675a2bdb80cea7893748f14a96276e1e945bbe0b0e3a",
        "stdout": "e571794635220ae5db326964351032c4619d17160554a06f8f22c19de2e22b90",
    },
    ("run", "--algo", "reinforce", "--fitness", "predictor", "--limits", "4,9",
     "--n-label", "60", "--batch-size", "4", "--iterations", "25", "--seed", "1"): {
        "predictor.json": "ffc1a51e353438368987fc3b9c9a14d8e43f2dc41d526f30bd4023867db29f23",
        "search_trace.csv": "c74884288485ebe2c1b5e9d4851a076bb48e4c35fbff0e0bfc8869990ede3115",
        "summary.json": "4b2124f032913fa31ad8b08cdeeafd4b4dc88a43f015a104b295503cf45ecd2d",
        "trace.csv": "094f8166dd7223bf2e522b1a9f2a255cab29291c418a99e796702c7820a8b822",
        "stdout": "0113c9e99179a48dc32d9c1668f65797d812fa02147af82267de9f81754a597e",
    },
    # the benchmark's 26-decision, hidden-32 schedule
    ("run", "--algo", "reinforce", "--fitness", "oracle", "--limits", "7,9",
     "--batch-size", "5", "--iterations", "10", "--seed", "3"): {
        "summary.json": "40fd3aa037e4117c3d9308bd2fea5538096eec2123a38fb7d3d14beb09697c1a",
        "trace.csv": "057ed154289352db2660b36b20ddfeb20cfbedd3dcd145382ad5a8693bdb01c3",
        "stdout": "e15eaa5a1bfe6e2f176d05a3ed40339e413e962fed826939f0de12674eef8c58",
    },
    # aging evolution at the gt-evolution benchmark's shape, and at (7,9)
    ("run", "--algo", "evolution", "--fitness", "oracle", "--limits", "5,9",
     "--population-size", "50", "--sample-size", "10", "--cycles", "400", "--seed", "4"): {
        "summary.json": "8539d63bc3b2489a1a6dd62eff47ca145d6c52424f62de45f52502da0050202a",
        "trace.csv": "41ea21e897cc24048e7bb6626378ac0a7c88a368e242e183752bc67730f7965e",
        "stdout": "38fb0b85fea502b1a6b66d1b469cae35088cd8bebd596246d60c82d001b20604",
    },
    ("run", "--algo", "evolution", "--fitness", "oracle", "--limits", "7,9",
     "--cycles", "300", "--seed", "5"): {
        "summary.json": "13c5e1d86772dcf68309c97b3a18fa0a654ad4643e2d0bce2656077345c8d13d",
        "trace.csv": "df5354ea7cb0e8f07e5573d209f5683a44d62fbcd7bbb49743ff28f79e36130b",
        "stdout": "c4270acd1ab1dfa5cad5ae0380efd7b93feb5a6658d8526783d38d08745be111",
    },
}


@pytest.mark.parametrize(
    "argv", list(PINNED_DIGESTS),
    ids=[
        "evolution-oracle", "predictor", "label", "reinforce-oracle",
        "reinforce-predictor", "reinforce-oracle-7-9", "evolution-oracle-5-9",
        "evolution-oracle-7-9",
    ],
)
def test_outputs_match_pinned_digests(capsys, tmp_path, argv):
    """The bytes a refactor must keep: these eight runs' files and stdout are
    pinned by sha256. A change meant to alter bytes updates the digests here
    and says so in CHANGES.md."""
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0, err
    files = [out] if out.is_file() else sorted(out.iterdir())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    got["stdout"] = hashlib.sha256(stdout.replace(str(out), "<out>").encode()).hexdigest()
    assert got == PINNED_DIGESTS[argv]
    # each artifact reads back through its own reader, as the benchmark's
    # per-seed check reads it: a reader that refuses what the program
    # writes would fail every benchmark seed
    if out.is_file():
        read_labeled(out)
        return
    read_summary(out / "summary.json").cross_check(read_trace(out / "trace.csv"))
    if "search_trace.csv" in got:
        read_trace(out / "search_trace.csv")
    if "predictor.json" in got:
        load_predictor(out / "predictor.json")


# ---------------------------------------------------------------------------
# compare


def test_compare_runs_end_to_end(capsys, tmp_path):
    args = [
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "10", "--sample-size", "3", "--cycles", "80",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--seed", "0", "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--seed", "1", "--out", str(b))[0] == 0
    code, out, _ = run_cli(
        capsys,
        "compare", str(a / "summary.json"), str(b / "summary.json"),
        "--target", "0.7",
    )
    assert code == 0
    (report,) = json_lines(out)
    assert report["status"] == "OK"
    assert report["speedup"] == pytest.approx(report["time_a"] / report["time_b"])


def test_compare_same_file_is_speedup_one(capsys, tmp_path):
    out = tmp_path / "r"
    run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "10", "--sample-size", "3", "--cycles", "60",
        "--seed", "0", "--out", str(out),
    )
    code, stdout, _ = run_cli(
        capsys,
        "compare", str(out / "summary.json"), str(out / "summary.json"),
        "--target", "0.7",
    )
    assert code == 0
    (report,) = json_lines(stdout)
    assert report["speedup"] == 1.0


def test_compare_reports_no_speedup_when_run_b_reaches_the_target_at_0_s(
    capsys, tmp_path
):
    # its speedup was infinite and printed as the non-JSON Infinity
    args = [
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "10", "--sample-size", "3", "--cycles", "80", "--seed", "0",
    ]
    a, b, free = tmp_path / "a", tmp_path / "b", tmp_path / "free.json"
    times = {f.name: 0.0 for f in dataclasses.fields(SyntheticOracleParams)
             if f.name.startswith("time_")}
    free.write_text(json.dumps({"synthetic": times}))
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--config", str(free), "--out", str(b))[0] == 0
    code, out, _ = run_cli(
        capsys, "compare", str(a / "summary.json"), str(b / "summary.json"), "--target", "0.7"
    )
    assert code == 0
    (report,) = json_lines(out)
    assert report["status"] == "OK" and report["time_a"] > 0 and report["time_b"] == 0
    assert report["speedup"] is None
    assert report["reason"] == "run B reached 0.7 at 0 simulated seconds"


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
def test_compare_refuses_a_target_that_is_not_finite(capsys, tmp_path, target):
    # nan and inf were printed as the non-JSON NaN and Infinity, and -inf
    # gave status OK with speedup 1.0
    out = tmp_path / "r"
    code, _, _ = run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--population-size", "10", "--sample-size", "3", "--cycles", "40",
        "--seed", "0", "--out", str(out),
    )
    assert code == 0
    summary = str(out / "summary.json")
    code, stdout, err = run_cli(capsys, "compare", summary, summary, "--target", target)
    assert code == 1 and stdout == ""
    assert err.startswith("usage:") and "target must be a finite real number" in err


# ---------------------------------------------------------------------------
# one seed's trace walks


def test_one_seed_validates_each_trace_once_and_reads_one_final_row(
    capsys, tmp_path, monkeypatch
):
    # the summary is built from the one walk that validates the run's trace,
    # and writing a trace validates it; nothing walks a trace again
    calls = collections.Counter()
    validate = SearchTrace.validate

    def counted(self):
        calls["validate"] += 1
        return validate(self)

    monkeypatch.setattr(SearchTrace, "validate", counted)
    for fitness, flags, validates in (("oracle", (), 2), ("predictor", ("--n-label", "40"), 3)):
        calls.clear()
        code, _, _ = run_cli(
            capsys,
            "run", "--fitness", fitness, "--limits", "4,9", *flags,
            "--population-size", "10", "--sample-size", "3", "--cycles", "60",
            "--seed", "3", "--out", str(tmp_path / fitness),
        )
        assert code == 0
        assert calls == {"validate": validates}, fitness


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "run")  # no --out
    assert code == 1


def test_ground_truth_reinforce_runs_without_an_iteration(capsys, tmp_path):
    # a run's trace is its paid log, so a search with no batch pays for
    # nothing and writes the header alone; it was refused while a
    # ground-truth run's trace was its search's, one row per batch
    argv = ("run", "--algo", "reinforce", "--iterations", "0", "--limits", "4,9")
    for fitness, flags in (("oracle", ()), ("predictor", ("--n-label", "40"))):
        out = tmp_path / fitness
        code, _, err = run_cli(capsys, *argv, "--fitness", fitness, *flags, "--out", str(out))
        assert code == 0, err
        read_summary(out / "summary.json").cross_check(read_trace(out / "trace.csv"))
    assert (tmp_path / "oracle" / "trace.csv").read_text() == TRACE_HEADER + "\n"


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_a_run_that_pays_for_nothing_reports_no_cell(capsys, tmp_path, seed):
    # at (7,9) these seeds' one sample is invalid: no query is paid, so the
    # run has no best cell, where it once printed best_true_acc 0.0
    out, other = tmp_path / "empty", tmp_path / "other"
    code, stdout, err = run_cli(
        capsys, "run", "--algo", "reinforce", "--fitness", "oracle", "--limits", "7,9",
        "--batch-size", "1", "--iterations", "1", "--seed", str(seed), "--out", str(out),
    )
    assert code == 0, err
    (line,) = json_lines(stdout)
    assert (line["best_hash"], line["best_true_acc"], line["total_sim_seconds"]) == (
        None, None, 0.0
    )
    assert (out / "trace.csv").read_text() == TRACE_HEADER + "\n"
    summary = read_summary(out / "summary.json")
    summary.cross_check(read_trace(out / "trace.csv"))
    assert (summary.best_spec, summary.best_hash, summary.best_true_acc) == (None, None, None)
    assert (summary.total_sim_seconds, summary.improvements) == (0.0, ())
    assert (summary.evaluations, summary.invalid_samples) == (0, 1)
    # compare takes it, and it never reached any target
    assert run_cli(
        capsys, "run", "--limits", "7,9", "--cycles", "60", "--seed", "0", "--out", str(other)
    )[0] == 0
    for a, b, target, missing in ((out, other, "0.5", "A"), (out, out, None, "A and B")):
        flags = ("--target", target) if target else ()
        code, stdout, _ = run_cli(
            capsys, "compare", str(a / "summary.json"), str(b / "summary.json"), *flags
        )
        assert code == 0
        (report,) = json_lines(stdout)
        assert report["status"] == "NO_COMMON_TARGET" and report["speedup"] is None
        assert report["reason"].startswith(f"run {missing} never reached")


@pytest.mark.parametrize(
    "argv", [argv for argv in PINNED_DIGESTS if argv[0] == "run"],
    ids=lambda argv: "-".join(argv[1:]),
)
def test_trace_has_one_row_per_paid_query(capsys, tmp_path, argv):
    # every run's trace is its paid log: a row per query its phases paid for
    out = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
    summary = read_summary(out / "summary.json")
    paid = sum(phase.get("oracle_queries", 0) for phase in summary.phases.values())
    assert len(read_trace(out / "trace.csv").rows) == paid > 0


@pytest.mark.parametrize(
    "argv", [argv for argv in PINNED_DIGESTS if argv[0] == "run"],
    ids=lambda argv: "-".join(argv[1:]),
)
def test_each_trace_row_sums_the_paid_costs_and_keeps_the_best_answer(
    capsys, tmp_path, monkeypatch, argv
):
    # row k holds the summed cost of the first k paid queries and the best
    # true accuracy among their answers
    answers = []  # (true accuracy, seconds) of each paid query
    real_query = oracle.query

    def recording_query(*args):
        record, seconds = real_query(*args)
        answers.append((record.val_accuracy, seconds))
        return record, seconds

    monkeypatch.setattr(oracle, "query", recording_query)
    out = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
    rows = read_trace(out / "trace.csv").rows
    assert len(rows) == len(answers) > 0
    assert [r.sim_seconds for r in rows] == list(itertools.accumulate(s for _, s in answers))
    assert [r.best for r in rows] == list(itertools.accumulate((a for a, _ in answers), max))


def test_bad_limits_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--limits", "banana", "--out", str(tmp_path / "r")
    )
    assert code == 1
    assert "limits must look like '5,9', got 'banana'" in err


def test_inconsistent_config_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "run", "--fitness", "predictor", "--n-label", "0",
        "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "n_label must lie in [2, inf), got 0" in err
    # out-of-range search settings are refused before any output is made
    errs = {}
    for argv in (
        ("run", "--population-size", "10", "--sample-size", "20"),
        ("run", "--iterations", "-1"),
        ("run", "--population-size", "10", "--cycles", "5"),
        # above the one vertex cap of 7
        ("run", "--algo", "reinforce", "--limits", "8,9"),
        ("label", "--limits", "8,9", "--n", "10"),
        ("label", "--n", "0"),
        # one label is one class, and a predictor pool of 2-4 split as evenly
        # as it can be holds out round(0.2 * k) = 0 of each class of k: both
        # once exited 2 only after paying for every label
        ("label", "--limits", "4,9", "--n", "1", "--threshold", "0.63", "--seed", "0"),
        *(("run", "--fitness", "predictor", "--limits", "4,9", "--n-label", n,
           "--label-threshold", "0.66", "--seed", "0") for n in ("2", "3", "4")),
        # both runs would write seed-1/, the second over the first
        ("run", "--limits", "4,9", "--seeds", "0,1,2,1"),
        # nan <= 0 is False: a NaN or infinite rate once trained until the
        # parameters went non-finite; the data file is never read. Both are
        # refused by the type of the field, as every non-finite real is
        ("run", "--algo", "reinforce", "--limits", "4,9", "--learning-rate", "nan"),
        ("train-predictor", "--data", "unread.jsonl", "--learning-rate", "inf"),
    ):
        out = tmp_path / "bad"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1, argv
        assert "usage error" in err
        assert not out.exists()
        errs[argv] = err
    for argv in (
        ("run", "--algo", "reinforce", "--limits", "8,9"),
        ("label", "--limits", "8,9", "--n", "10"),
    ):
        assert "max_vertices must lie in [2, 7]" in errs[argv]
        assert "must look like" not in errs[argv]
    assert "n_label must lie in [2, inf), got 0" in errs["label", "--n", "0"]
    assert "n_label must lie in [2, inf), got 1" in errs[
        "label", "--limits", "4,9", "--n", "1", "--threshold", "0.63", "--seed", "0"
    ]
    for n in ("2", "3", "4"):
        assert f"n_label {n} can leave the held-out set empty" in errs[
            "run", "--fitness", "predictor", "--limits", "4,9", "--n-label", n,
            "--label-threshold", "0.66", "--seed", "0"
        ]
    assert "seed 1 repeated" in errs["run", "--limits", "4,9", "--seeds", "0,1,2,1"]
    for argv in (
        ("run", "--algo", "reinforce", "--limits", "4,9", "--learning-rate", "nan"),
        ("train-predictor", "--data", "unread.jsonl", "--learning-rate", "inf"),
    ):
        assert "learning_rate must be a finite real number" in errs[argv]
    # so are malformed nested objects in a config file
    cfg_path = tmp_path / "cfg.json"
    for obj in (
        {"evolution": {"populaton_size": 5}},
        {"limits": {"max_vertices": 1, "max_edges": 9}},
        {"limits": {"max_vertices": 8, "max_edges": 9}},
        {"limits": [5, 9]},
        {"synthetic": {"base_accuracy": "x"}},
        {"synthetic": {"time_edge_s": -1.0}},
        # numpy's uniform draw overflows on a width 2 * init_scale of inf
        {"predictor": {"init_scale": 1e308}},
        {"predictor": {"learning_rate": float("nan")}},
        {"reinforce": {"init_scale": float("nan")}},
    ):
        cfg_path.write_text(json.dumps(obj))
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "bad")
        )
        assert code == 1, obj
        (key,) = obj
        assert repr(key) in err
        if key in ("predictor", "reinforce"):
            (field,) = obj[key]
            assert field in err
        assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "argv, flag, refusal",
    [
        (("run", "--algo", "reinforce", "--limits", "4,9"), "--learning-rate",
         "learning_rate must lie in (0, inf)"),
        (("run", "--fitness", "predictor", "--limits", "4,9"), "--label-threshold",
         "label_threshold must lie in [0, 1)"),
        # an explicit id: the generated one, cut to 100 characters, ends in a space
        pytest.param(("label", "--limits", "4,9"), "--threshold",
                     "label_threshold must lie in [0, 1)",
                     id="argv2-label---threshold-label_threshold must lie in [0, 1)"),
        (("train-predictor", "--data", "unread.jsonl"), "--learning-rate",
         "learning_rate must lie in (0, inf)"),
        (("train-predictor", "--data", "unread.jsonl"), "--heldout-fraction",
         "heldout_fraction must lie in (0, 1)"),
        (("train-predictor", "--data", "unread.jsonl"), "--target-positive-share",
         "target_positive_share must lie in [0, 1)"),
    ],
)
def test_float_flag_takes_signed_values_after_a_space(capsys, tmp_path, argv, flag, refusal):
    # argparse reads `-inf` as an option, so `--flag -inf` once stopped at
    # "expected one argument" while `--flag=-inf` reached the range check;
    # both forms now give the same refusal, before any output is made. A
    # non-finite value is refused by the field's type, -1e-3 by its range
    out = tmp_path / "bad"
    not_finite = f"{refusal.split()[0]} must be a finite real number"
    for value, reason in (("-inf", not_finite), ("-nan", not_finite), ("-1e-3", refusal)):
        results = [
            run_cli(capsys, *argv, *form, "--out", str(out))
            for form in ((flag, value), (f"{flag}={value}",))
        ]
        assert results[0] == results[1], (flag, value)
        code, stdout, err = results[0]
        assert code == 1 and stdout == ""
        assert reason in err and "expected one argument" not in err
        assert not out.exists()


def test_signed_values_reach_every_float_flag(capsys, tmp_path):
    # the flags with no range of their own parse a signed value after a
    # space as they do after '=': compare's missing summary is the error
    missing = str(tmp_path / "missing.json")
    results = [
        run_cli(capsys, "compare", missing, missing, *form)
        for form in (("--target", "-inf"), ("--target=-inf",))
    ]
    assert results[0] == results[1]
    code, _, err = results[0]
    assert code == 2 and "missing.json" in err
    # a value that is not a number is still an option, and a lone flag
    # before it still misses its argument
    code, _, err = run_cli(capsys, "compare", missing, missing, "--target", "-x")
    assert code == 1 and "expected one argument" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("label", "--limits", "4,9", "--n", "5"), "--threshold"),
        (("run", "--fitness", "predictor", "--limits", "4,9", "--n-label", "5"),
         "--label-threshold"),
        (("run", "--limits", "4,9"), "--label-threshold"),
    ],
)
def test_non_finite_label_threshold_is_refused_before_any_query(
    capsys, tmp_path, monkeypatch, argv, flag
):
    # a NaN threshold once labeled nothing positive, found only after every
    # label was paid for, and an oracle run took it without a word. So did
    # one outside [0, 1): an accuracy in [0, 1] is above -0.5 and never
    # above 1.0, so the pool was one class
    def refuse(*args):
        raise AssertionError("a refused config must pay for no query")

    monkeypatch.setattr(PaidQueries, "query", refuse)
    out = tmp_path / "bad"
    not_finite = "label_threshold must be a finite real number"
    for value, refusal in (
        *((value, not_finite) for value in ("nan", "-nan", "inf", "-inf")),
        ("-0.5", "label_threshold must lie in [0, 1), got -0.5"),
        ("1.0", "label_threshold must lie in [0, 1), got 1.0"),
    ):
        results = [
            run_cli(capsys, *argv, *form, "--out", str(out))
            for form in ((flag, value), (f"{flag}={value}",))
        ]
        assert results[0] == results[1], (flag, value)
        code, stdout, err = results[0]
        assert code == 1 and stdout == ""
        assert refusal in err
        assert not out.exists()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"label_threshold": NaN}')
    code, stdout, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(out))
    assert code == 1 and stdout == ""
    assert "label_threshold must be a finite real number" in err
    assert not out.exists()


_BAD_JSON_VALUES = ('"x"', "[1]", "{}", "true", "null", "1.5", "1e400")


@pytest.mark.parametrize(
    "field, allowed",
    [
        ("n_label", ()),
        ("top_k", ()),
        ("seed", ()),
        ("label_threshold", ("null",)),
    ],
)
def test_config_file_top_level_type_errors_are_usage_errors(
    capsys, tmp_path, monkeypatch, field, allowed
):
    # ints take an int and not a bool, reals a finite real and not a bool,
    # and the threshold None too; anything else once crashed with a
    # TypeError from a range check. 1e400 parses as inf.
    def refuse(*args):
        raise AssertionError("a refused config must pay for no query")

    monkeypatch.setattr(PaidQueries, "query", refuse)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "bad"
    for value in _BAD_JSON_VALUES:
        if value in allowed:
            continue
        cfg_path.write_text(f'{{"{field}": {value}}}')
        code, stdout, err = run_cli(
            capsys, "run", "--config", str(cfg_path), "--limits", "4,9", "--out", str(out)
        )
        assert code == 1 and stdout == "", (field, value, err)
        # the field's own check refuses it, not the unknown-key check
        assert field in err and "unknown config keys" not in err, (field, value, err)
        assert not out.exists()


@pytest.mark.parametrize("value", ["1", "0", "true", '""'])
def test_config_file_table_path_must_be_a_non_empty_string(capsys, tmp_path, value):
    # an int was opened as a file descriptor: 1 failed with "Bad file
    # descriptor" after --out existed, and 0 would have read stdin
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"oracle_source": "FILE", "table_path": {value}}}')
    out = tmp_path / "bad"
    code, stdout, err = run_cli(
        capsys, "run", "--config", str(cfg_path), "--limits", "4,9", "--out", str(out)
    )
    assert code == 1 and stdout == "", err
    assert "table_path must be a non-empty string" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "obj",
    [
        {"evolution": {"population_size": 50.0}},
        {"evolution": {"cycles": 1e400}},
        {"algo": "REINFORCE", "reinforce": {"batch_size": 2.5}},
        {"algo": "REINFORCE", "reinforce": {"iterations": True}},
        {"fitness": "PREDICTOR", "predictor": {"epochs": 2.5}},
    ],
)
def test_config_file_nested_int_fields_must_be_integers(capsys, tmp_path, obj):
    # each passed its range check and crashed with a TypeError at run time,
    # after --out existed; 1e400 parses as inf
    key = next(k for k in obj if isinstance(obj[k], dict))
    (field,) = obj[key]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj))
    out = tmp_path / "bad"
    code, stdout, err = run_cli(
        capsys, "run", "--config", str(cfg_path), "--limits", "4,9", "--out", str(out)
    )
    assert code == 1 and stdout == "", err
    assert repr(key) in err and f"{field} must be an integer" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, field",
    [
        ("reinforce", "learning_rate"),
        ("reinforce", "init_scale"),
        ("reinforce", "beta"),
        ("predictor", "learning_rate"),
        ("predictor", "init_scale"),
        ("predictor", "heldout_fraction"),
        ("predictor", "target_positive_share"),
    ],
)
def test_config_file_nested_real_fields_must_be_real_numbers(capsys, tmp_path, key, field):
    # true passed the range checks as 1.0, and a string was refused only
    # through the TypeError of a comparison
    algo = {"reinforce": '"algo": "REINFORCE"', "predictor": '"fitness": "PREDICTOR"'}[key]
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "bad"
    for value in ("true", '"x"', "null", "[1]", "{}"):
        cfg_path.write_text(f'{{{algo}, "{key}": {{"{field}": {value}}}}}')
        code, stdout, err = run_cli(
            capsys, "run", "--config", str(cfg_path), "--limits", "4,9", "--out", str(out)
        )
        assert code == 1 and stdout == "", (value, err)
        assert repr(key) in err and f"{field} must be a finite real number" in err, (value, err)
        assert not out.exists()


@pytest.mark.parametrize("field", ["max_vertices", "max_edges"])
def test_config_file_limits_must_be_integers(capsys, tmp_path, field):
    # limits entries were int()-truncated, so max_edges 9.7 ran as 9
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "bad"
    for value in _BAD_JSON_VALUES + ("9.7", "4.0"):
        limits = {"max_vertices": "4", "max_edges": "9", field: value}
        cfg_path.write_text(
            '{"limits": {' + ", ".join(f'"{k}": {v}' for k, v in limits.items()) + "}}"
        )
        code, stdout, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(out))
        assert code == 1 and stdout == "", (field, value, err)
        assert "'limits'" in err and field in err, (field, value, err)
        assert not out.exists()


def _config_field_paths():
    """Every leaf config field, top level and nested, as "name" or
    "key.name", read from the dataclasses so a new field is swept too."""
    cfg = ExperimentConfig()
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from (f"{f.name}.{g.name}" for g in dataclasses.fields(value))
        else:
            yield f.name


def _field_type(path):
    """(type, interval) of the config field at `path`: its annotation with
    None and the Annotated wrapper taken off, and its In, or None."""
    key, _, name = path.rpartition(".")
    owner = type(getattr(ExperimentConfig(), key)) if key else ExperimentConfig
    hint = typing.get_type_hints(owner, include_extras=True)[name]
    if type(None) in typing.get_args(hint):
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if typing.get_origin(hint) is typing.Annotated:
        return typing.get_args(hint)
    return hint, None


# the sweep values a field may take that its type and interval do not say
_LEGAL_SWEEP_VALUES = {"table_path": ("null",), "label_threshold": ("null",)}


def _legal_sweep_values(path):
    """The sweep values the config field at `path` takes, every other one
    being refused: those of _LEGAL_SWEEP_VALUES, and 1.5 when the field is a
    real and its interval, if it has one, holds 1.5."""
    kind, interval = _field_type(path)
    real = kind is float and (interval is None or 1.5 in interval)
    return _LEGAL_SWEEP_VALUES.get(path, ()) + (("1.5",) if real else ())


@pytest.mark.parametrize("path", list(_config_field_paths()))
def test_every_config_field_refuses_each_bad_value(capsys, tmp_path, monkeypatch, path):
    # each field set alone (a nested one among its defaults, since limits
    # needs both entries) to each of the seven values: a refusal exits 1
    # naming the field, before any query or output; 1e400 parses as inf
    def refuse(*args):
        raise AssertionError("a refused config must pay for no query")

    monkeypatch.setattr(PaidQueries, "query", refuse)
    key, _, name = path.rpartition(".")
    defaults = ExperimentConfig().to_json_obj()
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "bad"
    for value in _BAD_JSON_VALUES:
        obj = {key: {**defaults[key], name: "@"}} if key else {name: "@"}
        text = json.dumps(obj).replace('"@"', value)
        if value in _legal_sweep_values(path):
            ExperimentConfig.from_json_obj(json.loads(text))
            continue
        cfg_path.write_text(text)
        code, stdout, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(out))
        assert code == 1 and stdout == "", (path, value, err)
        message = err.partition("usage error: ")[2]
        assert name in message and key in message, (path, value, err)
        assert not out.exists()


@pytest.mark.parametrize(
    "path", [path for path in _config_field_paths() if _field_type(path)[1] is not None]
)
def test_every_interval_field_takes_its_closed_bounds_and_refuses_past_them(
    capsys, tmp_path, monkeypatch, path
):
    # a finite bound: a closed one is taken; past it (the bound itself when
    # it is open, one step out when it is closed) is refused with exit 1,
    # naming the field, before any query or output
    def refuse(*args):
        raise AssertionError("a refused config must pay for no query")

    monkeypatch.setattr(PaidQueries, "query", refuse)
    key, _, name = path.rpartition(".")
    kind, interval = _field_type(path)
    defaults = ExperimentConfig().to_json_obj()
    setting = lambda value: {key: {**defaults[key], name: value}} if key else {name: value}
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "bad"
    closed = interval.text[0] == "[", interval.text[-1] == "]"
    for bound, closed, step in zip((interval.low, interval.high), closed, (-1, 1)):
        if math.isinf(bound):
            continue
        past = bound = kind(bound)
        if closed:
            ExperimentConfig.from_json_obj(setting(bound))
            past = bound + step if kind is int else math.nextafter(bound, step * math.inf)
        cfg_path.write_text(json.dumps(setting(past)))
        code, stdout, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(out))
        assert code == 1 and stdout == "", (path, past, err)
        message = err.partition("usage error: ")[2]
        assert f"{name} must lie in {interval}, got {past!r}" in message, (path, past, err)
        assert key in message and not out.exists()


# ---------------------------------------------------------------------------
# reading files back


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The files a predictor run, `label` and `gen-synthetic` write."""
    out = tmp_path_factory.mktemp("written")
    for argv in (
        ("run", "--fitness", "predictor", "--limits", "4,9", "--n-label", "60", "--seed", "2",
         "--out", str(out / "run")),
        ("label", "--limits", "4,9", "--n", "80", "--seed", "3", "--out", str(out / "labeled.jsonl")),
        ("gen-synthetic", "--limits", "3,9", "--out", str(out / "table.jsonl")),
    ):
        assert main(list(argv)) == 0
    return out


def _json_leaves(obj):
    """The dotted path of every leaf of a JSON object: a value that is no
    object."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from (f"{key}.{leaf}" for leaf in _json_leaves(value))
        else:
            yield key


# the phases of a predictor run's summary and the entries of each
_PHASES = {
    "labeling": ("heldout_accuracy", "oracle_queries", "positives", "sim_seconds", "threshold",
                 "train_loss", "train_size"),
    "revalidation": ("memo_hits", "oracle_queries", "sim_seconds"),
    "search": ("predictor_queries", "sim_seconds"),
}

# the sweep values a read field may take; every other one is refused
_LEGAL_READ_VALUES = {
    "best_hash": ('"x"', "null"),
    "best_true_acc": ("null", "1.5"),
    "total_sim_seconds": ("1.5",),
    # phases: a run writes each phase of its fitness, each with the entries
    # it writes, each a real
    **{f"phases.{phase}.{name}": ("1.5",) for phase, names in _PHASES.items() for name in names},
    "threshold_used": ("1.5",),
    "threshold": ("1.5",),
    "train_time_s": ("1.5",),
    **{f"config.{path}": _legal_sweep_values(path) for path in _config_field_paths()},
}


def _refused(read, path, lines, k, leaves, numbered):
    """Write `path` as `lines` with one leaf of the JSON object on line k
    set to one of the seven values, for each leaf and value, and read it
    with `read`. A legal value must load; every other one must raise a
    ParseError naming the file, the line when `numbered`, and the leaf.
    Yields (leaf, value) while `path` holds each refused case."""
    obj = json.loads(lines[k])
    where = f"{path}:{k + 1}: " if numbered else f"{path}: "
    for leaf in leaves:
        *outer, name = leaf.split(".")
        for value in _BAD_JSON_VALUES:
            bad = copy.deepcopy(obj)
            node = bad
            for key in outer:
                node = node[key]
            node[name] = "@"
            text = json.dumps(bad).replace('"@"', value)
            path.write_text("\n".join([*lines[:k], text, *lines[k + 1:]]) + "\n")
            if value in _LEGAL_READ_VALUES.get(leaf, ()):
                read(path)
                continue
            with pytest.raises(ParseError) as info:
                read(path)
            message = str(info.value)
            assert message.startswith(where) and name in message, (leaf, value, message)
            yield leaf, value


def test_every_summary_field_refuses_each_bad_value(capsys, written, tmp_path):
    # seed 2.9 was read as 2 and a total of true as 1.0 simulated seconds,
    # and compare took the result as a run; the echoed config's 41 fields
    # are swept too, so its refusals are those of a config file. phases
    # {"labeling": {"positives": "x"}} and {"labeling": 3} were read as any
    # object; phases, each phase and each entry are swept
    good = written / "run" / "summary.json"
    lines = good.read_text().splitlines()
    obj = json.loads(lines[0])
    assert {phase: tuple(entries) for phase, entries in obj["phases"].items()} == _PHASES
    leaves = list(_json_leaves(obj))
    # best_spec's three and counts' four among the summary's own 12, and
    # the phases' 12 entries
    assert len(leaves) == 12 + 12 + len(list(_config_field_paths()))
    leaves += ["phases", *(f"phases.{phase}" for phase in _PHASES)]
    bad = tmp_path / "summary.json"
    for leaf, value in _refused(read_summary, bad, lines, 0, leaves, numbered=False):
        code, stdout, err = run_cli(capsys, "compare", str(bad), str(good), "--target", "0.5")
        assert code == 2 and stdout == "" and f"error: {bad}: " in err, (leaf, value, err)


def test_a_summary_with_an_unknown_key_is_refused(capsys, written, tmp_path):
    # a summary with an added "extra": 1 or counts.bogus was read, and
    # compare on it exited 0; so was one that still holds best_fitness
    good = written / "run" / "summary.json"
    obj = json.loads(good.read_text())
    bad = tmp_path / "summary.json"
    for where, key in (((), "extra"), (("counts",), "bogus"), ((), "best_fitness")):
        changed = copy.deepcopy(obj)
        node = changed
        for name in where:
            node = node[name]
        node[key] = 1
        bad.write_text(json.dumps(changed) + "\n")
        kind = where[0] if where else "summary"
        message = f"{bad}: unknown {kind} keys: [{key!r}]"
        with pytest.raises(ParseError, match=re.escape(message)):
            read_summary(bad)
        code, stdout, err = run_cli(capsys, "compare", str(bad), str(good), "--target", "0.5")
        assert code == 2 and stdout == "" and message in err, err


def _refuses_summary(capsys, bad, good, obj, message):
    """`bad`, written as `obj`, is refused with `message` by read_summary,
    and compare on it exits 2 with the same message."""
    bad.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{bad}: {message}")):
        read_summary(bad)
    code, stdout, err = run_cli(capsys, "compare", str(bad), str(good), "--target", "0.5")
    assert code == 2 and stdout == "" and message in err, err


def test_a_summary_phase_holds_the_entries_a_run_writes(capsys, written, tmp_path):
    # phases {"bogus": {"x": 1.0}} and an added phases.labeling.extra were
    # read; each present phase is held to the entries run_experiment writes
    # for it in a run of the echoed fitness
    good = written / "run" / "summary.json"
    obj = json.loads(good.read_text())
    bad = tmp_path / "summary.json"
    searched = {"sim_seconds": 1.5, "oracle_queries": 3, "memo_hits": 0}
    gt = {**obj, "config": {**obj["config"], "fitness": "ORACLE"}, "phases": {"search": searched}}
    bad.write_text(json.dumps(gt) + "\n")
    assert read_summary(bad).phases == {"search": searched}
    labeling = obj["phases"]["labeling"]
    for phase, entries, expected in (
        ("labeling", {**labeling, "extra": 1.0}, sorted(labeling)),
        ("labeling", {name: v for name, v in labeling.items() if name != "train_loss"},
         sorted(labeling)),
        ("search", searched, ["predictor_queries", "sim_seconds"]),
        ("search", {**searched, "predictor_queries": 5}, ["predictor_queries", "sim_seconds"]),
        ("revalidation", {"sim_seconds": 0.0}, sorted(searched)),
    ):
        message = (f"a run of fitness PREDICTOR writes phase {phase!r} with entries {expected},"
                   f" not {sorted(entries)}")
        _refuses_summary(capsys, bad, good, {**obj, "phases": {**obj["phases"], phase: entries}},
                         message)
    _refuses_summary(capsys, bad, good, {**gt, "phases": {"search": {}}},
                     "a run of fitness ORACLE writes phase 'search' with entries"
                     f" {sorted(searched)}, not []")


def test_a_summary_holds_the_phases_its_fitness_writes(capsys, written, tmp_path):
    # a predictor summary whose phases were a lone search phase was read,
    # though a predictor run writes labeling, search and revalidation; a
    # ground-truth run writes its paid search alone
    good = written / "run" / "summary.json"
    obj = json.loads(good.read_text())
    bad = tmp_path / "summary.json"
    predictor_phases = "['labeling', 'revalidation', 'search']"
    searched = {"sim_seconds": 0.0, "predictor_queries": 5}
    gt_config = {**obj["config"], "fitness": "ORACLE"}
    for config, phases, message in (
        (obj["config"], {"search": searched},
         f"a run of fitness PREDICTOR writes phases {predictor_phases}:"
         " missing ['labeling', 'revalidation'], extra []"),
        (obj["config"], {**obj["phases"], "bogus": {"x": 1.0}},
         f"a run of fitness PREDICTOR writes phases {predictor_phases}:"
         " missing [], extra ['bogus']"),
        (obj["config"], {},
         f"a run of fitness PREDICTOR writes phases {predictor_phases}:"
         " missing ['labeling', 'revalidation', 'search'], extra []"),
        (gt_config, obj["phases"],
         "a run of fitness ORACLE writes phases ['search']:"
         " missing [], extra ['labeling', 'revalidation']"),
        (gt_config, {},
         "a run of fitness ORACLE writes phases ['search']: missing ['search'], extra []"),
    ):
        _refuses_summary(capsys, bad, good, {**obj, "config": config, "phases": phases}, message)


def test_every_predictor_metadata_field_refuses_each_bad_value(written, tmp_path):
    # train_seed 2.9 was read as 2 and threshold_used "0.5" as 0.5; the
    # weights are swept in test_every_predictor_weight_refuses_each_bad_value
    lines = (written / "run" / "predictor.json").read_text().splitlines()
    leaves = ["alphabet", "hidden", "threshold_used", "train_seed"]
    assert sorted(json.loads(lines[0])) == sorted(leaves + ["W_h", "W_x", "b_h", "b_o", "w_o"])
    bad = tmp_path / "predictor.json"
    # 4 fields x 7 values, less threshold_used's legal 1.5
    assert len(list(_refused(load_predictor, bad, lines, 0, leaves, numbered=False))) == 27


def test_every_predictor_weight_refuses_each_bad_value(written, tmp_path):
    # "b_o": true was read as 1.0 and a w_o of numeric strings as floats.
    # The first entry of each weight set to each of the seven values: a
    # list in place of b_o changes its shape (ShapeError), 1.5 loads, and
    # every other value is a ParseError naming the file and the entry
    obj = json.loads((written / "run" / "predictor.json").read_text())
    bad = tmp_path / "predictor.json"
    first = {"W_x": "[0][0]", "W_h": "[0][0]", "b_h": "[0]", "w_o": "[0]", "b_o": ""}
    assert sorted(first) == sorted(RnnParams._FIELDS)
    for name, index in first.items():
        for value in _BAD_JSON_VALUES:
            edited = copy.deepcopy(obj)
            node, key = edited, name
            for _ in range(index.count("[")):
                node, key = node[key], 0
            node[key] = "@"
            bad.write_text(json.dumps(edited).replace('"@"', value) + "\n")
            if value == "1.5":
                load_predictor(bad)
            elif value == "[1]" and name == "b_o":
                with pytest.raises(ShapeError, match=re.escape("b_o: expected shape ()")):
                    load_predictor(bad)
            else:
                with pytest.raises(ParseError, match=re.escape(
                    f"{bad}: {name}{index} must be a finite real number, got "
                )):
                    load_predictor(bad)
    edited = copy.deepcopy(obj)
    edited["w_o"] = [repr(w) for w in obj["w_o"]]
    bad.write_text(json.dumps(edited) + "\n")
    with pytest.raises(ParseError, match=re.escape(
        f"{bad}: w_o[0] must be a finite real number, got {repr(obj['w_o'][0])!r}"
    )):
        load_predictor(bad)


def test_labeled_file_threshold_refuses_each_bad_value(capsys, written, tmp_path):
    # a threshold of true trained and saved a predictor with 1.0 as its
    # threshold; now train-predictor stops before training
    lines = (written / "labeled.jsonl").read_text().splitlines()
    bad, model = tmp_path / "labeled.jsonl", tmp_path / "model.json"
    for leaf, value in _refused(read_labeled, bad, lines, 0, ["threshold"], numbered=True):
        code, stdout, err = run_cli(
            capsys, "train-predictor", "--data", str(bad), "--out", str(model), "--epochs", "1"
        )
        assert code == 2 and stdout == "" and f"{bad}:1: threshold" in err, (value, err)
        assert not model.exists()


def test_table_numbers_refuse_each_bad_value(written, tmp_path):
    # a train_time_s of 1e400 was read as an infinite training time
    lines = (written / "table.jsonl").read_text().splitlines()
    bad = tmp_path / "table.jsonl"
    leaves = ["val_accuracy", "train_time_s"]
    # 2 fields x 7 values, less train_time_s's legal 1.5
    assert len(list(_refused(load_table, bad, lines, 1, leaves, numbered=True))) == 13


@pytest.mark.parametrize("column", TRACE_HEADER.split(","))
def test_every_trace_column_refuses_each_bad_value(written, tmp_path, column):
    # a row 1,nan,nan was read as a trace row
    lines = (written / "run" / "trace.csv").read_text().splitlines()
    k = TRACE_HEADER.split(",").index(column)
    bad = tmp_path / "trace.csv"
    for text in ("x", "", "nan", "inf", "1e999") + (("1.5",) if column == "index" else ()):
        parts = lines[2].split(",")
        parts[k] = text
        bad.write_text("\n".join([*lines[:2], ",".join(parts), *lines[3:]]) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{bad}:3: ")) as info:
            read_trace(bad)
        assert column in str(info.value), (text, info.value)


def test_a_trace_in_another_layout_names_the_expected_header(tmp_path):
    # a trace written with the two best columns explains its refusal
    path = tmp_path / "trace.csv"
    path.write_text("index,sim_seconds,best_true_acc,best_fitness\n1,240.0,0.7,0.7\n")
    message = f'{path}: expected header "index,sim_seconds,best"'
    for text in (path.read_text(), "", "1,240.0,0.7\n"):
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            read_trace(path)


@pytest.mark.parametrize("column", ["sim_seconds", "best"])
def test_a_trace_that_drifts_down_within_eps_each_row_is_refused(tmp_path, column):
    # 2,000 rows, each 0.9e-12 below the row before: every step is inside
    # EPS, yet the column ends 1.8e-9 below its maximum
    k = TRACE_HEADER.split(",").index(column)
    values = [[i, 100.0, 0.5] for i in range(1, 2001)]
    for i, row in enumerate(values):
        row[k] -= i * 0.9e-12
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([TRACE_HEADER, *(f"{i},{s!r},{b!r}" for i, s, b in values)]) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{column} decreases at row 3")):
        read_trace(path)
    # one step inside EPS below the maximum passes as level
    path.write_text("\n".join([TRACE_HEADER, *(f"{i},{s!r},{b!r}" for i, s, b in values[:2])]) + "\n")
    assert len(read_trace(path).rows) == 2


def test_config_file_table_path_needs_the_file_oracle(capsys, tmp_path):
    # the synthetic oracle never read the path, yet summary.json echoed it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"table_path": "x"}')
    out = tmp_path / "bad"
    code, stdout, err = run_cli(
        capsys, "run", "--config", str(cfg_path), "--limits", "4,9", "--out", str(out)
    )
    assert code == 1 and stdout == "", err
    assert "table_path 'x' needs the FILE oracle source" in err
    assert not out.exists()


def test_config_file_controller_size_below_one_is_usage_error(capsys, tmp_path):
    # numpy's "negative dimensions" for -1, a stateless controller for 0
    cfg_path = tmp_path / "cfg.json"
    for size in ({"hidden_size": -1}, {"hidden_size": 0}, {"emb_dim": 0}):
        cfg_path.write_text(json.dumps({"reinforce": size}))
        out = tmp_path / "bad"
        code, stdout, err = run_cli(
            capsys, "run", "--config", str(cfg_path), "--algo", "reinforce",
            "--limits", "4,9", "--iterations", "2", "--out", str(out),
        )
        assert code == 1, size
        (name,) = size
        assert f"{name} must lie in [1, inf), got {size[name]}" in err
        assert stdout == "" and not out.exists()


def test_one_class_label_pool_error_names_its_flags(capsys, tmp_path):
    # 8 labels at (4,9) are all below the 0.90-quantile threshold
    code, stdout, err = run_cli(
        capsys, "run", "--fitness", "predictor", "--limits", "4,9",
        "--n-label", "8", "--seed", "0", "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert stdout == ""
    assert "labeled pool has 0/8 positives at threshold" in err
    assert "--n-label" in err and "--label-threshold" in err


def test_label_refuses_a_one_class_pool(capsys, tmp_path):
    # the same 8 labels as above: `label` refuses them too, and writes no
    # file that train-predictor would only reject later
    out = tmp_path / "labels.jsonl"
    code, stdout, err = run_cli(
        capsys, "label", "--limits", "4,9", "--n", "8", "--seed", "0", "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and not out.exists()
    assert "labeled pool has 0/8 positives at threshold" in err
    assert "(label: --n)" in err and "(label: --threshold)" in err


def test_missing_input_file_is_runtime_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compare", str(tmp_path / "no.json"), str(tmp_path / "no2.json")
    )
    assert code == 2
    assert "error" in err


def test_spec_over_the_vertex_cap_in_a_file_is_a_parse_error(capsys, tmp_path):
    # an 8-vertex spec breaks ModelSpec's cap wherever it is read: the file
    # and line are named, and train-predictor writes no model
    big = {
        "v": 8,
        "edges": [[0, 7]],
        "ops": ["in"] + ["conv3x3"] * 6 + ["out"],
    }
    labeled = tmp_path / "lab.jsonl"
    code, _, _ = run_cli(
        capsys, "label", "--limits", "4,9", "--n", "30", "--seed", "12", "--out", str(labeled)
    )
    assert code == 0
    lines = labeled.read_text().splitlines()
    lines.insert(2, json.dumps({"label": 1, "spec": big}))
    labeled.write_text("\n".join(lines) + "\n")
    model = tmp_path / "model.json"
    code, stdout, err = run_cli(
        capsys, "train-predictor", "--data", str(labeled), "--out", str(model)
    )
    assert code == 2
    assert stdout == "" and f"{labeled}:3: need 2 to 7 vertices, got 8" in err
    assert not model.exists()

    table = tmp_path / "table.jsonl"
    code, _, _ = run_cli(capsys, "gen-synthetic", "--limits", "3,9", "--out", str(table))
    assert code == 0
    lines = table.read_text().splitlines()
    lines.insert(2, json.dumps({"spec": big, "val_accuracy": 0.5, "train_time_s": 1.0}))
    table.write_text("\n".join(lines) + "\n")
    code, stdout, err = run_cli(
        capsys, "run", "--fitness", "oracle", "--oracle", str(table), "--limits", "3,9",
        "--out", str(tmp_path / "run"),
    )
    assert code == 2
    assert stdout == "" and f"{table}:3: need 2 to 7 vertices, got 8" in err


def test_enumerate_too_large_is_usage_error(capsys):
    code, stdout, err = run_cli(capsys, "enumerate", "--limits", "8,9")
    assert code == 1
    assert stdout == "" and "max_vertices must lie in [2, 7]" in err


def test_gen_synthetic_too_large_leaves_no_file(capsys, tmp_path):
    out = tmp_path / "table.jsonl"
    code, stdout, err = run_cli(capsys, "gen-synthetic", "--limits", "8,9", "--out", str(out))
    assert code == 1
    assert stdout == "" and "max_vertices must lie in [2, 7]" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "params",
    [
        {"base_accuracy": "x"},
        {"jitter_scale": True},
        {"time_edge_s": -1.0},
        # a cap outside [0, 1] crashed with an accuracy outside [0, 1]
        {"accuracy_cap": -0.5},
        {"base_accuracy": 0.99, "accuracy_cap": 1.5},
    ],
)
def test_bad_synthetic_params_are_usage_errors(capsys, tmp_path, params):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    name = list(params)[-1]
    code, stdout, err = run_cli(capsys, "enumerate", "--limits", "3,9", "--params", str(path))
    assert code == 1
    assert stdout == "" and name in err
    out = tmp_path / "table.jsonl"
    code, stdout, err = run_cli(
        capsys, "gen-synthetic", "--limits", "3,9", "--params", str(path), "--out", str(out)
    )
    assert code == 1
    assert stdout == "" and name in err
    assert not out.exists()


# the options whose value is an input of the subcommand, not a config setting
_INPUT_OPTIONS = {
    "--out", "--config", "--params", "--seeds", "--json", "--data", "--optimum", "--target",
    "--oracle", "summary_a", "summary_b",
}


def test_every_option_names_the_config_field_it_sets():
    # a flag reaches the config only through the one merge, at the field
    # its dest names (top level or "nested.field"), so a new flag that is
    # neither such a field nor a named input cannot bypass it; and no
    # field's flag has a default of its own to restate the field's
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} | set(_config_field_paths())
    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    seen = set()
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            names = set(action.option_strings or [action.dest])
            seen |= names
            if action.dest in fields:
                assert not names & _INPUT_OPTIONS, (command, names)
                assert action.default is None, (command, names)
            else:
                assert names <= _INPUT_OPTIONS, (command, names, action.dest)
    assert _INPUT_OPTIONS <= seen


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
