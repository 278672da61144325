"""One benchmark process: import cellsearch from the checkout's `src/`, then
run a workload's seed list through the `cellsearch run` entry point, one
seeded run at a time, and check every run's artifacts.

run.py starts this script; it is not meant to be run by hand. It writes one
JSON object to --result:
- the set-up time, from --started (run.py's time.monotonic() just before it
  started this process) to just before the first seed;
- per seed: wall seconds, the outcome of every correctness check, summary
  counts and a sha256 fingerprint of the artifacts;
- the peak resident memory;
- with --trace, the per-layer metrics from the span trace.
With --probe it stops before the first seed.

Every time is reported twice: as measured (`raw`) and adjusted for the
machine's speed at that moment. On a shared 2-vCPU VM, speed changed by up
to 2x in bursts of seconds, so the worker times a fixed reference loop
before the first seed and after each one. A seed's adjusted seconds are its measured
seconds x REF_NOMINAL_S / the mean of the reference times around it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cellsearch import (  # noqa: E402
    cellspace,
    cli,
    evolution,
    harness,
    oracle,
    predictor,
    reinforce,
    traces,
)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (cellspace, oracle, predictor, evolution, reinforce, harness, traces, cli)

# the reference loop's seconds at the speed adjusted times are quoted for,
# about its time on a 2-vCPU x86-64 VM outside the fast bursts
REF_NOMINAL_S = 0.025
_REF_MATRIX = np.random.default_rng(0).normal(size=(16, 16)) * 0.3


def reference_loop() -> float:
    """Seconds for a fixed mix of the kinds of work cellsearch does: dict
    updates, blake2b digests of short strings and 16x16 numpy
    matrix-vector steps. It uses no cellsearch code, so no change to the
    program can change it."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(15_000):
        key = i * 7919 % 1013
        counts[key] = counts.get(key, 0) + 1
        hashlib.blake2b(key.to_bytes(4, "big"), digest_size=16).digest()
    x = np.zeros(16)
    for _ in range(1_500):
        x = np.tanh(_REF_MATRIX @ x + 0.1)
    return time.perf_counter() - t0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--started", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def fingerprint(outdir: Path) -> str:
    """sha256 over every artifact file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_seed(workload, seed: int, run: dict, outdir: Path) -> tuple[list[str], dict]:
    """Correctness checks on one seeded run. Returns (failed checks, summary
    counts); an empty list means the run is correct."""
    if run["rc"] != 0:
        return [f"exit code {run['rc']}: {run['error'] or 'see stderr'}"], {}
    try:
        trace = traces.read_trace(outdir / "trace.csv")
        summary = harness.read_summary(outdir / "summary.json")
        summary.cross_check(trace)
        if (outdir / "search_trace.csv").exists():
            traces.read_trace(outdir / "search_trace.csv")
        if (outdir / "predictor.json").exists():
            predictor.load_predictor(outdir / "predictor.json")
        printed = json.loads(run["stdout"].splitlines()[-1])
    except Exception as exc:  # any unreadable artifact fails this seed only
        return [f"artifacts: {type(exc).__name__}: {exc}"], {}

    problems = []
    limits = cellspace.SpaceLimits(*workload.limits)
    if summary.seed != seed or summary.config.limits != limits:
        problems.append(f"summary is for seed {summary.seed} at {summary.config.limits}")
    if printed.get("best_hash") != summary.best_hash:
        problems.append("printed best_hash differs from summary.json")
    spec = summary.best_spec
    if spec is None:
        problems.append("no best_spec")
    else:
        if summary.best_hash != cellspace.canonical_hash(spec):
            problems.append("best_hash != canonical_hash(best_spec)")
        if not cellspace.validate(spec, limits).valid:
            problems.append("best_spec is not valid under the limits")
        true_acc = oracle.synth_record(spec, summary.config.synthetic).val_accuracy
        if summary.best_true_acc != true_acc:
            problems.append(f"best_true_acc {summary.best_true_acc} != synth_record {true_acc}")
    counts = {
        "evaluations": summary.evaluations,
        "labels": summary.labels,
        "invalid_samples": summary.invalid_samples,
        "memo_hits": summary.memo_hits,
        "best_true_acc": summary.best_true_acc,
        "sim_s": summary.total_sim_seconds,
    }
    return problems, counts


def run_seeds(workload, seeds, out: Path, tracer: Tracer | None, ref_s: float):
    """Run every seed through `cellsearch run`, stdout captured, timing the
    reference loop after each one; `ref_s` is its time before the first. A
    seed that raises is recorded and the list goes on."""
    runs = []
    for run_id, seed in enumerate(seeds):
        if tracer is not None:
            tracer.run_id = run_id
        argv = ["run", *workload.args, "--seed", str(seed), "--out", str(out / f"seed-{seed}")]
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # a crashing seed counts as failed, never stops the list
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        ref_after = reference_loop()
        runs.append({"seconds": seconds * 2 * REF_NOMINAL_S / (ref_s + ref_after),
                     "seconds_raw": seconds, "rc": rc, "error": error,
                     "stdout": buf.getvalue()})
        ref_s = ref_after
    return runs


def layer_metrics(tracer: Tracer, seeds: list[dict]) -> tuple[dict, dict]:
    """The per-layer metrics named in README.md, from the span trace and the
    runs' own summary counts, and the per-function summary behind them."""
    stats = tracer.summarise()
    total = {k: sum(s["counts"].get(k, 0) for s in seeds)
             for k in ("evaluations", "labels", "invalid_samples", "memo_hits")}

    missing = set()

    def st(fn, key):
        # a function the program no longer has reads 0, with a warning
        if fn not in stats:
            missing.add(fn)
            return 0
        return stats[fn][key]

    hash_calls = st("cellspace.canonical_hash", "calls")
    samples = st("reinforce.sample", "calls")
    lookups = total["memo_hits"] + total["evaluations"]
    metrics = {
        "canonical_hash.calls": hash_calls,
        "canonical_hash.self_s": st("cellspace.canonical_hash", "self_s"),
        "canonical_hash.us_p50": st("cellspace.canonical_hash", "us_p50"),
        "canonical_hash.us_p99": st("cellspace.canonical_hash", "us_p99"),
        "canonical_hash.distinct_ratio": (
            len(tracer.distinct_args["cellspace.canonical_hash"]) / hash_calls
            if hash_calls else 0.0
        ),
        "mutate.self_s": st("cellspace.mutate", "self_s"),
        "prune.self_s": st("cellspace.prune", "self_s"),
        "validate.self_s": st("cellspace.validate", "self_s"),
        "random_spec.self_s": st("cellspace.random_spec", "self_s"),
        "enumerate_space.s": st("cellspace.enumerate_space", "incl_s"),
        "enumerate_space.classes": st("cellspace.enumerate_space", "items"),
        "query.calls": st("oracle.query", "calls"),
        "query.self_s": st("oracle.query", "self_s"),
        "synth_record.self_s": st("oracle.synth_record", "self_s"),
        "memo_hit_ratio": total["memo_hits"] / lookups if lookups else 0.0,
        "synthetic_label_threshold.s": st("oracle.synthetic_label_threshold", "incl_s"),
        "train.s": st("predictor.train", "incl_s"),
        "loss_and_grad.calls": st("predictor.loss_and_grad", "calls"),
        "loss_and_grad.self_s": st("predictor.loss_and_grad", "self_s"),
        "loss_and_grad.us_p50": st("predictor.loss_and_grad", "us_p50"),
        "loss_and_grad.us_p99": st("predictor.loss_and_grad", "us_p99"),
        "forward.self_s": st("predictor.forward", "self_s"),
        "encode.self_s": st("predictor.encode", "self_s"),
        "run_evolution.self_s": st("evolution.run_evolution", "self_s"),
        "tournament_select.self_s": st("evolution.tournament_select", "self_s"),
        "sample.calls": samples,
        "sample.self_s": st("reinforce.sample", "self_s"),
        "sample.us_p50": st("reinforce.sample", "us_p50"),
        "logprob_and_grad.calls": st("reinforce.logprob_and_grad", "calls"),
        "logprob_and_grad.self_s": st("reinforce.logprob_and_grad", "self_s"),
        "logprob_and_grad.us_p50": st("reinforce.logprob_and_grad", "us_p50"),
        "reinforce_update.self_s": st("reinforce.reinforce_update", "self_s"),
        "invalid_share": total["invalid_samples"] / samples if samples else 0.0,
        "label_random_specs.s": st("harness.label_random_specs", "incl_s"),
        "label_random_specs.draws_per_label": (
            tracer.count_within("cellspace.random_spec", "harness.label_random_specs")
            / total["labels"] if total["labels"] and st("cellspace.random_spec", "calls")
            and st("harness.label_random_specs", "calls") else 0.0
        ),
        "run_predictor_pipeline.s": st("harness.run_predictor_pipeline", "incl_s"),
        "topk_revalidate.s": st("harness.topk_revalidate", "incl_s"),
        "run_experiment.self_s": st("harness.run_experiment", "self_s"),
        "write_trace.self_s": st("traces.write_trace", "self_s"),
        "write_summary.self_s": st("harness.write_summary", "self_s"),
    }
    for mod in MODULES:
        short = mod.__name__.rpartition(".")[2]
        metrics[f"{short}.module_self_s"] = sum(
            v["self_s"] for k, v in stats.items() if k.startswith(short + ".")
        )
    if missing:
        sys.stderr.write(f"per-layer metrics read 0 for missing functions: {sorted(missing)}\n")
    return metrics, stats


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"cellsearch was imported from {cli.__file__}, not from {SRC}\n")
        return 2
    workload = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    args.out.mkdir(parents=True, exist_ok=True)
    setup_raw = time.monotonic() - args.started
    ref_s = reference_loop()
    result = {"setup_s": setup_raw * REF_NOMINAL_S / ref_s, "setup_s.raw": setup_raw}
    if args.probe:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer(distinct_args_of={"cellspace.canonical_hash"})
        result["rebound"] = tracer.install(MODULES)
    runs = run_seeds(workload, seeds, args.out, tracer, ref_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    per_seed = []
    for seed, run in zip(seeds, runs):
        outdir = args.out / f"seed-{seed}"
        problems, counts = check_seed(workload, seed, run, outdir)
        per_seed.append({
            "seed": seed,
            "seconds": run["seconds"],
            "seconds_raw": run["seconds_raw"],
            "problems": problems,
            "counts": counts,
            "fingerprint": fingerprint(outdir) if outdir.is_dir() else None,
        })
    result.update(peak_rss_mb=peak_rss_mb, seeds=per_seed,
                  machine=machine_info())
    if tracer is not None:
        result["layers"], result["functions"] = layer_metrics(tracer, per_seed)
        tracer.save(args.out / "spans.npz")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
