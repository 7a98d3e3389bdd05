#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a ledger entry.

Runs the command in BENCHMARK.json (from the repository root) `--runs`
times per workload with `--trace 0`, each run on its own seed, and once per
workload with `--trace 1` on its default seed (recorded) and on the first
seed (equivalence gate only). For every end-to-end metric it prints the median
of the runs and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound and a third of it. With `--append`, the summary is added to
perfbench/LEDGER.json as one entry keyed by `--rev`.

    python3 perfbench/ledger.py --runs 10 --rev "$(git rev-parse --short HEAD)" --append

Exits 1 if a run fails, reports incorrect outputs, or a spread (other than
setup_s's) reaches its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "perfbench", "LEDGER.json")

# Seeds far apart, so that no two runs share an input (a fig7 run covers
# trial seeds seed .. seed + 150 * repetitions - 1).
SEED_STRIDE = 1009


def run(command, workload, seed, seconds, trace):
    """One benchmark run; `seed=None` leaves the workload's default seed."""
    argv = command + ["--workload", workload, "--seconds", str(seconds),
                      "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last), proc.stdout, wall


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--rev", default="")
    ap.add_argument("--append", action="store_true")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 to compute quartiles")
    if args.append and not args.rev:
        raise SystemExit("--append needs --rev")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    ok = True
    entry = {"rev": args.rev, "date": time.strftime("%Y-%m-%d"),
             "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
             "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for w in workloads:
        values = {m: [] for m in bounds}
        attempted = failed = 0
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + SEED_STRIDE * i
            result, _, wall = run(command, w, seed, seconds, 0)
            walls.append(wall)
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: outputs incorrect")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds)
                + f" (run {wall:.1f} s)", flush=True)
        summary = {}
        for m, vals in values.items():
            med, q1, q3, frac = spread(vals)
            bound = bounds[m]
            verdict = "ok" if frac < bound / 3 else ("wide" if frac < bound else "FAIL")
            if m != "setup_s" and frac >= bound:
                ok = False
            print(f"  {w} {m}: median {med:.6g} {units[m]}, IQR/median {frac:.4f} "
                  f"(bound {bound}, third {bound / 3:.4f}) {verdict}")
            summary[m] = {"median": med, "q1": q1, "q3": q3, "iqr_frac": frac,
                          "unit": units[m]}
        entry["workloads"][w] = {
            "end_to_end": summary,
            "failed_frac": failed / attempted if attempted else 0.0,
            "max_run_wall_s": max(walls),
        }
        if not args.no_trace:
            # Layer shares come from the default seed; a second traced run
            # on another seed exercises the equivalence gate once more.
            gate = {}
            for seed in (None, args.first_seed):
                result, _, wall = run(command, w, seed, seconds, 1)
                label = "default" if seed is None else str(seed)
                gate[label] = result["correct"]
                if not result["correct"]:
                    ok = False
                    print(f"{w} traced seed {label}: equivalence gate or output check failed")
                if seed is None:
                    layers = {k: v["value"] for k, v in result["metrics"].items()}
                    traced_wall = wall
            wall_s = layers["traced_wall_s"]
            shares = {k[: -len(".self_s")]: v / wall_s for k, v in layers.items()
                      if k.endswith(".self_s") and v > 0 and wall_s > 0}
            shares.update({k[: -len(".est_share")] + " (est., of netsim.simulate)": v
                           for k, v in layers.items() if k.endswith(".est_share") and v})
            entry["workloads"][w]["traced"] = {
                "seed": "default",
                "gate_passed": gate,
                "layers": {k: v for k, v in layers.items() if v != 0},
                "self_share_of_traced_wall": shares,
            }
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
            print(f"  {w} traced (run {traced_wall:.1f} s): coverage "
                  f"{layers['trace_coverage_frac']:.3f}, overhead "
                  f"{layers['trace_overhead_frac']:+.3f}, gate {gate}, top shares "
                  + ", ".join(f"{k} {v:.3f}" for k, v in top), flush=True)

    if args.append:
        with open(LEDGER) as f:
            ledger = json.load(f)
        ledger["entries"].append(entry)
        with open(LEDGER, "w") as f:
            json.dump(ledger, f, indent=2)
            f.write("\n")
        print(f"appended entry for {args.rev} to {os.path.relpath(LEDGER, ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
