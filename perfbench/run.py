"""cellsearch benchmark: run one workload's seed list and print its metrics.

    python3 perfbench/run.py --workload gt-evolution --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to this one. The last line of stdout is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of BENCHMARK.json.
The lines before it are the same numbers for a reader, plus every seed's
artifact fingerprint and the machine the run was made on. README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, seed_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

# fresh processes timed from start to their first seed; with the seed-list
# process itself they give SETUP_PROBES + 1 set-up samples
SETUP_PROBES = 6
# every process this run starts must be done by then
DEADLINE_S = 170.0
# numpy's BLAS must not start threads: the program is single-threaded and
# the machines it is measured on have 2 cores
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


class Launcher:
    """Starts worker processes one at a time, each with BLAS pinned to one
    thread, and stops the whole run at DEADLINE_S."""

    def __init__(self, workload: str, seeds: list[int], out: Path):
        self.workload = workload
        self.seeds = ",".join(map(str, seeds))
        self.out = out
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, name: str, *flags: str) -> dict:
        result = self.out / f"{name}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seeds", self.seeds,
            "--out", str(self.out / name), "--result", str(result), *flags,
        ]
        t0 = time.monotonic()
        # run() kills the worker and waits for it if the deadline passes
        subprocess.run(
            [*cmd, "--started", repr(t0)], env=self.env, stdin=subprocess.DEVNULL,
            stdout=sys.stderr, check=True, timeout=max(1.0, self.deadline - t0),
        )
        return json.loads(result.read_text())


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(plain: dict, setups: list[dict]) -> dict:
    seeds = plain["seeds"]
    ok = [s for s in seeds if not s["problems"]]
    return {
        "wall_s": sum(s["seconds"] for s in seeds),
        "run_s.p50": median([s["seconds"] for s in seeds]),
        "setup_s": median([s["setup_s"] for s in setups]),
        "wall_s.raw": sum(s["seconds_raw"] for s in seeds),
        "run_s.raw.p50": median([s["seconds_raw"] for s in seeds]),
        "setup_s.raw": median([s["setup_s.raw"] for s in setups]),
        "peak_rss_mb": plain["peak_rss_mb"],
        "failed_share": (len(seeds) - len(ok)) / len(seeds),
        "best_true_acc.p50": median([s["counts"]["best_true_acc"] for s in ok]),
        "sim_s.p50": median([s["counts"]["sim_s"] for s in ok]),
    }


def self_check(workload, traced: dict) -> tuple[bool, str]:
    """Calls of the workload's counted function in the trace against the
    program's own counter; a mismatch means a by-name import was missed."""
    got = traced["functions"][workload.counted]["calls"]
    want = sum(workload.expected_calls(s["counts"]) for s in traced["seeds"] if s["counts"])
    ok = got == want and all(s["counts"] for s in traced["seeds"])
    return ok, (f"{workload.counted} calls {got} vs {workload.expected_what} "
                f"summed over seeds {want}: {'PASS' if ok else 'FAIL'}")


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cellsearch" / "cli.py").is_file():
        sys.stderr.write(f"no cellsearch sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"wall_s.raw": "s", "run_s.raw.p50": "s", "setup_s.raw": "s",
                  "failed_share": "ratio"})
    workload = WORKLOADS[args.workload]
    seeds = seed_list(workload, args.seed, args.seconds)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    launcher = Launcher(args.workload, seeds, out)
    setups = [launcher.worker(f"probe-{k}", "--probe") for k in range(SETUP_PROBES)]
    plain = launcher.worker("plain")
    setups.append(plain)
    traced = launcher.worker("traced", "--trace") if args.trace else None

    machine = {"commit": commit(), "nproc": len(os.sched_getaffinity(0)), **plain["machine"],
               "threads": {var: launcher.env[var] for var in THREAD_VARS}}
    print(f"cellsearch benchmark: workload {args.workload}, {len(seeds)} seeds "
          f"{seeds[0]}..{seeds[-1]}, trace {args.trace}")
    for key, value in machine.items():
        print(f"  {key}: {value}")

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(len(r["seeds"]) for r in runs)
    failed = sum(1 for r in runs for s in r["seeds"] if s["problems"])
    identical = True
    print("seeds (sha256 of each seed's artifacts):")
    for i, s in enumerate(plain["seeds"]):
        note = "ok" if not s["problems"] else "FAILED " + "; ".join(s["problems"])
        if traced:
            t = traced["seeds"][i]
            same = t["fingerprint"] == s["fingerprint"] and s["fingerprint"] is not None
            identical &= same
            note += ", traced run identical" if same else ", traced run DIFFERS"
            if t["problems"]:
                note += ", traced run FAILED " + "; ".join(t["problems"])
        print(f"  seed {s['seed']:>6}  {s['fingerprint']}  {note}")

    e2e = end_to_end(plain, setups)
    print_metrics(f"end to end, tracing off ({len(seeds)} seeded runs, "
                  f"{len(setups)} set-up samples):", e2e, units)
    correct = failed == 0
    if traced:
        layers = dict(traced["layers"])
        # spans are timed as measured, so the traced seed list is too; the
        # overhead compares speed-adjusted times
        layers["traced_wall_s"] = sum(s["seconds_raw"] for s in traced["seeds"])
        layers["tracing_overhead_s"] = (
            sum(s["seconds"] for s in traced["seeds"]) - e2e["wall_s"]
        )
        print_metrics("per layer, traced run:", layers, units)
        by_name = [attr for attr in traced["rebound"] if attr not in traced["functions"]]
        print(f"by-name imports traced too: {', '.join(by_name)}")
        print("per function, traced run (calls, self s, inclusive s):")
        for fn, st in sorted(traced["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
            if st["calls"]:
                print(f"  {fn:<40} {st['calls']:>10} {st['self_s']:>10.4f} {st['incl_s']:>10.4f}")
        checked, line = self_check(workload, traced)
        print(f"trace self-check: {line}")
        print(f"determinism: traced artifacts byte-identical to untraced: "
              f"{'PASS' if identical else 'FAIL'}")
        correct = correct and checked and identical
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
