"""Command-line front end.

Subcommands: `run` (seeded experiments, trace + summary files), `enumerate`
(dump a small space with synthetic ground truth), `label` (build a labeled
dataset file), `train-predictor` (fit the binary predictor from such a
file), `compare` (speedup report between two run summaries), and
`gen-synthetic` (materialize the synthetic benchmark as a table file).

Every subcommand but `compare` builds its settings one way: the object of
its `--config` file (`run`) or its `--params` file as `synthetic`
(`enumerate`, `gen-synthetic`), each given flag merged over it at the
config field its dest names (`--n` sets `n_label`, `--cycles`
`evolution.cycles`), checked once as an ExperimentConfig. A flag left unset
keeps the file's value or the field's default. NAS_SEED is the default seed
of the subcommands that take `--seed`.

Exit codes: 0 success, 1 usage or config error, 2 runtime error. Stdout is
line-delimited JSON; files are written deterministically so a rerun with the
same config and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import replace

import numpy as np

from .errors import CellSearchError, ConfigError
from .harness import (
    ExperimentConfig,
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
    dump_table_lines,
    synthetic_optimum,
    synthetic_table,
    table_line,
)
from .predictor import fit, save_predictor
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


def _limits_type(text: str) -> dict:
    """`V,E` as the config's `limits` object; its range is checked there."""
    try:
        v, e = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"limits must look like '5,9', got {text!r}") from None
    return {"max_vertices": v, "max_edges": e}


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


def _nas_seed() -> int:
    raw = os.environ.get("NAS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"NAS_SEED={raw!r} is not an integer") from None


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: {exc}") from None


def _oracle_fields(oracle: str) -> dict:
    """`--oracle synthetic|PATH` as ExperimentConfig fields."""
    if oracle.lower() == "synthetic":
        return {"oracle_source": "SYNTHETIC", "table_path": None}
    return {"oracle_source": "FILE", "table_path": oracle}


def _config(args) -> ExperimentConfig:
    """The subcommand's settings, checked once: its --config file's object,
    or its --params file as `synthetic`, with each given flag merged over
    it at the field its dest names ("n_label", "evolution.cycles"); a dest
    that names no field is an input (--out, --data, --seeds). The seed
    comes from --seed (or --seeds, per run), the file, NAS_SEED, then 0;
    a subcommand without --seed reads no NAS_SEED."""
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    obj = _read_json(flags["config"]) if "config" in flags else {}
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    if "params" in flags:
        obj["synthetic"] = _read_json(flags["params"])
    if "oracle" in flags:
        obj.update(_oracle_fields(flags["oracle"]))
    if "seed" in vars(args) and not ({"seed", "seeds"} & flags.keys() or "seed" in obj):
        obj["seed"] = _nas_seed()
    for dest, value in flags.items():
        key, _, name = dest.rpartition(".")
        if (key or name) not in ExperimentConfig.__dataclass_fields__:
            continue
        if name in ("algo", "fitness"):
            value = value.upper()  # the flags' choices are the names in lower case
        if not key:
            obj[name] = value
        elif isinstance(obj.setdefault(key, {}), dict):
            # a malformed nested value is left for from_json_obj to name
            obj[key][name] = value
    return ExperimentConfig.from_json_obj(obj)


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    cfg = _config(args)
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
    cfg = _config(args)
    if args.optimum:
        table = [synthetic_optimum(cfg.synthetic, cfg.limits)]
    else:
        table = synthetic_table(cfg.synthetic, cfg.limits)
    for spec, record in table:
        _emit({**table_line(spec, record), "hash": record.spec_hash})
    return 0


def cmd_gen_synthetic(args) -> int:
    cfg = _config(args)
    count = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in dump_table_lines(synthetic_table(cfg.synthetic, cfg.limits)):
            fh.write(line + "\n")
            count += 1
    _emit({"count": count, "out": args.out})
    return 0


# ---------------------------------------------------------------------------
# label / train-predictor


def cmd_label(args) -> int:
    cfg = _config(args)
    cfg.check_pool_split(cfg.n_label)  # the pool is for train-predictor's split
    paid = PaidQueries(build_oracle(cfg))
    labeled, threshold = label_random_specs(cfg, paid, random.Random(cfg.seed))
    meta = {
        "threshold": threshold,
        "limits": [cfg.limits.max_vertices, cfg.limits.max_edges],
        "oracle_source": cfg.oracle_source,
        "label_charge": cfg.label_charge,
        "seed": cfg.seed,
        "sim_seconds": paid.sim_seconds,
    }
    write_labeled(args.out, labeled, meta)
    _emit(
        {
            "n_labeled": len(labeled),
            "positives": sum(y for _, y in labeled),
            "threshold": threshold,
            "sim_seconds": paid.sim_seconds,
            "out": args.out,
        }
    )
    return 0


def cmd_train_predictor(args) -> int:
    cfg = _config(args)
    items, meta = read_labeled(args.data)
    cfg.check_pool_split(len(items))
    trained, split_meta, held_acc, final_loss = fit(
        items, cfg.predictor, cfg.seed, np.random.default_rng(cfg.seed), meta["threshold"]
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
    run.add_argument("--population-size", type=int, dest="evolution.population_size")
    run.add_argument("--sample-size", type=int, dest="evolution.sample_size")
    run.add_argument("--cycles", type=int, dest="evolution.cycles")
    run.add_argument("--batch-size", type=int, dest="reinforce.batch_size")
    run.add_argument("--iterations", type=int, dest="reinforce.iterations")
    run.add_argument("--learning-rate", type=float, dest="reinforce.learning_rate")
    run.add_argument("--n-label", type=int)
    run.add_argument("--label-charge", type=float)
    run.add_argument("--label-threshold", type=float)
    run.add_argument("--top-k", type=int)
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
    lab.add_argument("--oracle")
    lab.add_argument("--n", type=int, dest="n_label")
    lab.add_argument("--charge", type=float, dest="label_charge")
    lab.add_argument("--threshold", type=float, dest="label_threshold")
    lab.add_argument("--seed", type=int)
    lab.add_argument("--out", required=True)
    lab.set_defaults(func=cmd_label)

    tp = sub.add_parser("train-predictor", help="fit the predictor from a dataset file")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True)
    tp.add_argument("--seed", type=int)
    tp.add_argument("--epochs", type=int, dest="predictor.epochs")
    tp.add_argument("--learning-rate", type=float, dest="predictor.learning_rate")
    tp.add_argument("--hidden", type=int, dest="predictor.hidden_size")
    tp.add_argument("--heldout-fraction", type=float, dest="predictor.heldout_fraction")
    tp.add_argument(
        "--target-positive-share", type=float, dest="predictor.target_positive_share"
    )
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
