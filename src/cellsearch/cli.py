"""Command-line front end.

Subcommands: `run` (seeded experiments, trace + summary files), `enumerate`
(dump a small space with synthetic ground truth), `label` (build a labeled
dataset file), `train-predictor` (fit the binary predictor from such a
file), `compare` (speedup report between two run summaries), and
`gen-synthetic` (materialize the synthetic benchmark as a table file).

Exit codes: 0 success, 1 usage or config error, 2 runtime error. Stdout is
line-delimited JSON; files are written deterministically so a rerun with the
same config and seed is byte-identical. NAS_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import asdict, replace

import numpy as np

from .cellspace import SpaceLimits
from .errors import CellSearchError, ConfigError, check_value
from .harness import (
    ExperimentConfig,
    Seed,
    build_oracle,
    compare_runs,
    label_random_specs,
    read_labeled,
    read_summary,
    run_experiment,
    write_labeled,
    write_summary,
)
from .oracle import (
    PaidQueries,
    SimClock,
    SyntheticOracleParams,
    dump_table_lines,
    synthetic_optimum,
    synthetic_table,
)
from .predictor import TrainConfig, fit, save_predictor
from .traces import write_trace


class UsageError(Exception):
    """Bad command line or inconsistent option combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _attach_signed_values(argv: list) -> list:
    """Rewrite `--flag -inf` as `--flag=-inf`. argparse reads a token that
    starts with '-' as an option unless it looks like a plain negative
    number, so a float flag given -inf, -nan or -1e-3 after a space stopped
    at "expected one argument" instead of reaching the flag's own check."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def _limits_type(text: str) -> SpaceLimits:
    try:
        v, e = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"limits must look like '5,9', got {text!r}") from None
    try:
        return SpaceLimits(v, e)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_list_type(text: str):
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("seeds must be comma-separated integers") from None
    # each seed writes its own seed-<n> directory
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"seed {', '.join(map(str, repeated))} repeated; each seed runs once"
        )
    return seeds


def _default_seed(seed) -> int:
    if seed is not None:
        return seed
    raw = os.environ.get("NAS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"NAS_SEED={raw!r} is not an integer") from None


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_params(path) -> SyntheticOracleParams:
    if not path:
        return SyntheticOracleParams()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return SyntheticOracleParams(**json.load(fh))
        except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise UsageError(f"{path}: bad synthetic params: {exc}") from None


# ---------------------------------------------------------------------------
# run


def _oracle_fields(oracle: str) -> dict:
    """`--oracle synthetic|PATH` as ExperimentConfig fields."""
    if oracle.lower() == "synthetic":
        return {"oracle_source": "SYNTHETIC", "table_path": None}
    return {"oracle_source": "FILE", "table_path": oracle}


def _config_from_args(args) -> ExperimentConfig:
    """The config file's object with the flags merged over it, checked once."""
    obj = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{args.config}: {exc}") from None
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")

    if args.algo:
        obj["algo"] = args.algo.upper()
    if args.fitness:
        obj["fitness"] = args.fitness.upper()
    if args.oracle:
        obj.update(_oracle_fields(args.oracle))
    if args.limits:
        obj["limits"] = asdict(args.limits)
    # seed precedence: --seed (or --seeds, per run), the file, NAS_SEED, 0
    if args.seed is not None or ("seed" not in obj and args.seeds is None):
        obj["seed"] = _default_seed(args.seed)
    for name in ("n_label", "label_charge", "label_threshold", "top_k"):
        value = getattr(args, name)
        if value is not None:
            obj[name] = value
    for key, names in (
        ("evolution", ("population_size", "sample_size", "cycles")),
        ("reinforce", ("batch_size", "iterations", "learning_rate")),
    ):
        flags = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
        if flags:
            nested = obj.get(key, {})
            # a malformed nested value is left for from_json_obj to name
            obj[key] = {**nested, **flags} if isinstance(nested, dict) else nested
    return ExperimentConfig.from_json_obj(obj)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    seeds = args.seeds if args.seeds is not None else [cfg.seed]
    # every seed's config is checked before the first one runs
    run_cfgs = [replace(cfg, seed=seed) for seed in seeds]

    os.makedirs(args.out, exist_ok=True)
    for seed, run_cfg in zip(seeds, run_cfgs):
        outdir = args.out if len(seeds) == 1 else os.path.join(args.out, f"seed-{seed}")
        os.makedirs(outdir, exist_ok=True)
        result = run_experiment(run_cfg)
        write_trace(result.trace, os.path.join(outdir, "trace.csv"))
        write_summary(result.summary, os.path.join(outdir, "summary.json"))
        if result.search_trace is not None:
            write_trace(result.search_trace, os.path.join(outdir, "search_trace.csv"))
        if result.trained is not None:
            save_predictor(result.trained, os.path.join(outdir, "predictor.json"))
        if args.json:
            _emit(result.summary.to_json_obj())
        else:
            line = {
                "seed": seed,
                "out": outdir,
                "best_hash": result.summary.best_hash,
                "best_true_acc": result.summary.best_true_acc,
                "total_sim_seconds": result.summary.total_sim_seconds,
            }
            if "labeling" in result.summary.phases:
                line["heldout_accuracy"] = result.summary.phases["labeling"]["heldout_accuracy"]
            _emit(line)
    return 0


# ---------------------------------------------------------------------------
# enumerate / gen-synthetic


def cmd_enumerate(args) -> int:
    params = _load_params(args.params)
    if args.optimum:
        table = [synthetic_optimum(params, args.limits)]
    else:
        table = synthetic_table(params, args.limits)
    for spec, record in table:
        _emit(
            {
                "hash": record.spec_hash,
                "val_accuracy": record.val_accuracy,
                "train_time_s": record.train_time_s,
                "spec": spec.to_json_obj(),
            }
        )
    return 0


def cmd_gen_synthetic(args) -> int:
    params = _load_params(args.params)
    count = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in dump_table_lines(synthetic_table(params, args.limits)):
            fh.write(line + "\n")
            count += 1
    _emit({"count": count, "out": args.out})
    return 0


# ---------------------------------------------------------------------------
# label / train-predictor


def cmd_label(args) -> int:
    seed = _default_seed(args.seed)
    cfg = ExperimentConfig(
        limits=args.limits or SpaceLimits(),
        **_oracle_fields(args.oracle),
        n_label=args.n,
        label_charge=args.charge,
        label_threshold=args.threshold,
        seed=seed,
    )

    paid = PaidQueries(build_oracle(cfg), SimClock())
    labeled, threshold = label_random_specs(cfg, paid, random.Random(seed))
    meta = {
        "threshold": threshold,
        "limits": [cfg.limits.max_vertices, cfg.limits.max_edges],
        "oracle_source": cfg.oracle_source,
        "label_charge": cfg.label_charge,
        "seed": seed,
        "sim_seconds": paid.clock.elapsed_s,
    }
    write_labeled(args.out, labeled, meta)
    _emit(
        {
            "n_labeled": len(labeled),
            "positives": sum(y for _, y in labeled),
            "threshold": threshold,
            "sim_seconds": paid.clock.elapsed_s,
            "out": args.out,
        }
    )
    return 0


def cmd_train_predictor(args) -> int:
    seed = _default_seed(args.seed)
    check_value("seed", seed, Seed)
    flags = {
        k: getattr(args, k)
        for k in TrainConfig.__dataclass_fields__
        if getattr(args, k, None) is not None
    }
    cfg = TrainConfig(**flags)
    items, meta = read_labeled(args.data)
    trained, split_meta, held_acc, final_loss = fit(
        items, cfg, seed, np.random.default_rng(seed), meta["threshold"]
    )
    save_predictor(trained, args.out)
    _emit(
        {
            "train_size": split_meta["train_size"],
            "heldout_size": split_meta["heldout_size"],
            "heldout_accuracy": held_acc,
            "final_train_loss": final_loss,
            "positive_share": split_meta["train_positive_share"],
            "out": args.out,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    a = read_summary(args.summary_a)
    b = read_summary(args.summary_b)
    report = compare_runs(a, b, target=args.target)
    _emit(report.to_json_obj())
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse_args gives a fresh namespace."""
    parser = _Parser(prog="cellsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment per seed")
    run.add_argument("--algo", choices=["evolution", "reinforce"])
    run.add_argument("--fitness", choices=["oracle", "predictor"])
    run.add_argument("--oracle", help="'synthetic' or a benchmark table path")
    run.add_argument("--limits", type=_limits_type, help="V,E e.g. 5,9")
    run.add_argument("--config", help="JSON experiment config; flags override")
    seed_group = run.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", type=int)
    seed_group.add_argument(
        "--seeds", type=_seed_list_type, help="comma-separated; per-seed subdirs"
    )
    run.add_argument("--population-size", type=int, dest="population_size")
    run.add_argument("--sample-size", type=int, dest="sample_size")
    run.add_argument("--cycles", type=int)
    run.add_argument("--batch-size", type=int, dest="batch_size")
    run.add_argument("--iterations", type=int)
    run.add_argument("--learning-rate", type=float, dest="learning_rate")
    run.add_argument("--n-label", type=int, dest="n_label")
    run.add_argument("--label-charge", type=float, dest="label_charge")
    run.add_argument("--label-threshold", type=float, dest="label_threshold")
    run.add_argument("--top-k", type=int, dest="top_k")
    run.add_argument("--out", required=True)
    run.add_argument("--json", action="store_true", help="print full summaries")
    run.set_defaults(func=cmd_run)

    enum = sub.add_parser("enumerate", help="dump a small space with ground truth")
    enum.add_argument("--limits", type=_limits_type, required=True)
    enum.add_argument("--params", help="synthetic params JSON file")
    enum.add_argument("--optimum", action="store_true", help="print only the best cell")
    enum.set_defaults(func=cmd_enumerate)

    lab = sub.add_parser("label", help="write a labeled dataset file")
    lab.add_argument("--limits", type=_limits_type)
    lab.add_argument("--oracle", default="synthetic")
    lab.add_argument("--n", type=int, default=400)
    lab.add_argument("--charge", type=float, default=1.0)
    lab.add_argument("--threshold", type=float)
    lab.add_argument("--seed", type=int)
    lab.add_argument("--out", required=True)
    lab.set_defaults(func=cmd_label)

    tp = sub.add_parser("train-predictor", help="fit the predictor from a dataset file")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True)
    tp.add_argument("--seed", type=int)
    # unset flags keep the TrainConfig defaults
    tp.add_argument("--epochs", type=int)
    tp.add_argument("--learning-rate", type=float, dest="learning_rate")
    tp.add_argument("--batch", type=int)
    tp.add_argument("--hidden", type=int, dest="hidden_size")
    tp.add_argument("--heldout-fraction", type=float, dest="heldout_fraction")
    tp.add_argument("--target-positive-share", type=float, dest="target_positive_share")
    tp.set_defaults(func=cmd_train_predictor)

    cmp_ = sub.add_parser("compare", help="speedup report between two run summaries")
    cmp_.add_argument("summary_a")
    cmp_.add_argument("summary_b")
    cmp_.add_argument("--target", type=float)
    cmp_.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen-synthetic", help="materialize the synthetic benchmark")
    gen.add_argument("--limits", type=_limits_type, required=True)
    gen.add_argument("--params", help="synthetic params JSON file")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"cellsearch: usage error: {exc}\n")
        return 1
    except (CellSearchError, OSError) as exc:
        sys.stderr.write(f"cellsearch: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
