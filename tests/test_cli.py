"""Command-line contract: subcommand outputs, file artifacts, exit codes,
seeding, and byte-identical reruns."""

import hashlib
import json
import os

import pytest

from cellsearch import cellspace
from cellsearch.cellspace import SpaceLimits
from cellsearch.cli import main
from cellsearch.harness import read_summary
from cellsearch.oracle import SyntheticOracleParams, load_table, synth_record
from cellsearch.predictor import load_predictor
from cellsearch.traces import TRACE_HEADER, read_trace

OPTIMUM_HASH_5_9 = "e630aae1d56e850ac87f7aa771b47739"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
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
    assert obj["val_accuracy"] == pytest.approx(0.8069836021449124)


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


def test_nas_seed_garbage_is_a_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NAS_SEED", "lucky")
    code, _, err = run_cli(
        capsys,
        "run", "--fitness", "oracle", "--limits", "4,9",
        "--cycles", "40", "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "NAS_SEED" in err


# ---------------------------------------------------------------------------
# pinned bytes

# sha256 of every artifact file and of stdout (with the out path masked)
PINNED_DIGESTS = {
    ("run", "--algo", "evolution", "--fitness", "oracle", "--limits", "4,9",
     "--cycles", "200", "--seed", "0"): {
        "summary.json": "b2d8f781c31e893d3ce52c3af6d57ea6249b6e31817bcae09d428da7132c2f36",
        "trace.csv": "4bd5d579d65cbb8cf230193810f5b1ae7b8b7a512e97aca7937ca3021a9acc40",
        "stdout": "a4a4dbdf878e2a4d7477d2daa6356e2fe69eb139a20b6b5f32e5d155ddb37479",
    },
    ("run", "--fitness", "predictor", "--limits", "4,9", "--n-label", "60",
     "--seed", "2"): {
        "predictor.json": "85e7774234819b2ef7753b3bac185f60551b4c3fad3f79619b8e1cdb30ea64e5",
        "search_trace.csv": "0b6a9715b45ddd9f7e1db1bab12e9b72d96c9dfe324b92bed93b46482e879b18",
        "summary.json": "d239e391a26210b9c4c3b029854a1da621bf95061571255774cd279fca868534",
        "trace.csv": "6122ab5c67550592cdc02608343b309e54a216666654ceb8e7d084038214cd5d",
        "stdout": "2a377c88b5513206157c1323eb19c706b036478891e28defa938b6de83f47aca",
    },
    ("label", "--limits", "4,9", "--n", "80", "--seed", "3"): {
        "out": "5edd94ae3327446a19d372c4da8a3f0e72ea8c0753d27eb48704c2e165cb8df7",
        "stdout": "fbe76eb191e717ad9859de958597f169eba456f08ccdec5e49a1cf85eda9c6e2",
    },
}


@pytest.mark.parametrize(
    "argv", list(PINNED_DIGESTS), ids=["evolution-oracle", "predictor", "label"]
)
def test_outputs_match_pinned_digests(capsys, tmp_path, argv):
    """The bytes a refactor must keep: these three runs' files and stdout are
    pinned by sha256. A change meant to alter bytes updates the digests here
    and says so in CHANGES.md."""
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0, err
    files = [out] if out.is_file() else sorted(out.iterdir())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    got["stdout"] = hashlib.sha256(stdout.replace(str(out), "<out>").encode()).hexdigest()
    assert got == PINNED_DIGESTS[argv]


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


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "run")  # no --out
    assert code == 1


def test_bad_limits_is_usage_error(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "run", "--limits", "banana", "--out", str(tmp_path / "r")
    )
    assert code == 1


def test_inconsistent_config_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "run", "--fitness", "predictor", "--n-label", "0",
        "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "labeling budget" in err
    # out-of-range search settings are refused before any output is made
    errs = {}
    for argv in (
        ("run", "--population-size", "10", "--sample-size", "20"),
        ("run", "--iterations", "-1"),
        ("run", "--population-size", "10", "--cycles", "5"),
        # more decisions than the controller has step biases for
        ("run", "--algo", "reinforce", "--limits", "8,9"),
        # the default label threshold would enumerate (7,9)
        ("run", "--fitness", "predictor"),
        ("label", "--limits", "7,9", "--n", "10"),
    ):
        out = tmp_path / "bad"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1, argv
        assert "usage error" in err
        assert not out.exists()
        errs[argv] = err
    # each names the threshold flag its own subcommand has
    assert "--label-threshold" in errs["run", "--fitness", "predictor"]
    assert "--threshold" in errs["label", "--limits", "7,9", "--n", "10"]
    # so are malformed nested objects in a config file
    cfg_path = tmp_path / "cfg.json"
    for obj in (
        {"evolution": {"populaton_size": 5}},
        {"limits": {"max_vertices": 1, "max_edges": 9}},
        {"limits": [5, 9]},
    ):
        cfg_path.write_text(json.dumps(obj))
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "bad")
        )
        assert code == 1, obj
        (key,) = obj
        assert repr(key) in err


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


def test_missing_input_file_is_runtime_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compare", str(tmp_path / "no.json"), str(tmp_path / "no2.json")
    )
    assert code == 2
    assert "error" in err


def test_enumerate_too_large_is_runtime_error(capsys):
    code, _, _ = run_cli(capsys, "enumerate", "--limits", "7,9")
    assert code == 2


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
