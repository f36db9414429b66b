#!/usr/bin/env python3
"""Do parallel sweep, learnt sharing and window pinning pay?

Runs `rcec` over six seconds-scale pairs under six engine
configurations, with the configurations interleaved inside every
repetition (and their order rotated between repetitions) so that slow
drifts of the host hit every configuration alike. Prints one JSON line
per run, then a markdown table: median wall time and its interquartile
range per cell, plus the run's deterministic work counters (solver
conflicts over all solvers, sweep SAT calls, proof resolutions).

    cargo build --release -p cec-tools
    cargo build --release -p aig --example gen_pair
    python3 scripts/feature_grid.py --reps 5 --work target/feature-grid

The table in EXPERIMENTS.md ("Do parallel sweep, adaptive, learnt
sharing and window pinning pay?") was produced this way. Those runs
also had an `adaptive` configuration (`--engine=adaptive`); the engine
has since lost that scheduler and the flag (EXPERIMENTS.md E5).
"""

import argparse
import json
import os
import statistics
import subprocess
import time

PAIRS = [("adder", 128), ("bk", 128), ("mul", 6), ("mul", 7), ("popcount", 24), ("shift", 64)]
CONFIGS = {
    "t1": [],
    "t2": ["--threads=2"],
    "t2+share": ["--threads=2", "--share-learnts"],
    "t2 pin 4": ["--threads=2", "--pairs-per-worker=4"],
    "t2 pin 8": ["--threads=2", "--pairs-per-worker=8"],
    "t2 pin 32": ["--threads=2", "--pairs-per-worker=32"],
}


def quantile(xs, f):
    xs = sorted(xs)
    k = (len(xs) - 1) * f
    i = int(k)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (k - i)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rcec", default="target/release/rcec")
    ap.add_argument("--gen", default="target/release/examples/gen_pair")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--work", default="target/feature-grid")
    args = ap.parse_args()
    os.makedirs(args.work, exist_ok=True)

    names = []
    for family, width in PAIRS:
        name = f"{family}-{width}"
        a, b = (os.path.join(args.work, f"{name}.{s}.aag") for s in "ab")
        subprocess.run([args.gen, str(width), a, b, family], check=True)
        names.append((name, a, b))

    stats_path = os.path.join(args.work, "stats.json")
    rows = []
    order = list(CONFIGS)
    for rep in range(args.reps):
        rotated = order[rep % len(order):] + order[: rep % len(order)]
        for name, a, b in names:
            for config in rotated:
                cmd = [args.rcec, a, b, "--quiet", f"--stats-json={stats_path}"] + CONFIGS[config]
                start = time.perf_counter()
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
                wall = time.perf_counter() - start
                with open(stats_path) as f:
                    s = json.load(f)
                row = {
                    "pair": name,
                    "config": config,
                    "rep": rep,
                    "wall_s": wall,
                    "conflicts": s["solver"]["conflicts"],
                    "sat_calls": s["sat_calls"],
                    "resolutions": s.get("proof", {}).get("resolutions", 0),
                }
                rows.append(row)
                print(json.dumps(row), flush=True)

    print()
    print("| pair | config | median s | IQR s | conflicts | SAT calls | resolutions |")
    print("|---|---|---:|---:|---:|---:|---:|")
    for name, _, _ in names:
        for config in CONFIGS:
            cell = [r for r in rows if r["pair"] == name and r["config"] == config]
            wall = [r["wall_s"] for r in cell]
            first = cell[0]
            print(
                f"| {name} | {config} | {statistics.median(wall):.3f} "
                f"| {quantile(wall, 0.75) - quantile(wall, 0.25):.3f} "
                f"| {first['conflicts']} | {first['sat_calls']} | {first['resolutions']} |"
            )


if __name__ == "__main__":
    main()
