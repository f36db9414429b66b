#!/usr/bin/env python3
"""Compare two rcec builds (A/B) on seconds-scale pairs, interleaved.

Runs a base and a new `rcec` binary over the same pairs, alternating the
two builds inside every repetition (and swapping which goes first from one
repetition to the next) so that slow drifts of the host hit both alike.
Wall time is the whole `rcec` process, default flags, tracing off. One
extra traced run per (build, pair) reads the deterministic work counters
from the `sat_call` trace spans, which every build emits: counterexample
calls, propagations per counterexample call, solver conflicts, sweep SAT
calls and proof resolutions. Prints one JSON line per timed run, then a
markdown table with the median wall time and its interquartile range.

With --same-work the script is also a gate: it exits 1, naming the pair
and the counter, when any work counter of --new differs from --base. A
pure speed change (same search, same proof) must pass it.

    cargo build --release -p cec-tools
    cargo build --release -p aig --example gen_pair
    python3 scripts/ab_grid.py --base OLD/target/release/rcec \\
        --new target/release/rcec --reps 5 --work target/ab-grid [--same-work]

The E3 and E4 tables in EXPERIMENTS.md were produced this way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = [
    ("adder", 128),
    ("bk", 128),
    ("cmp", 128),
    ("penc", 128),
    ("mul", 6),
    ("popcount", 24),
    ("shift", 64),
]


def quantile(xs, f):
    xs = sorted(xs)
    k = (len(xs) - 1) * f
    i = int(k)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (k - i)


def work(rcec, a, b, workdir):
    """Work counters of one traced run."""
    stats_path = os.path.join(workdir, "stats.json")
    trace_path = os.path.join(workdir, "trace.jsonl")
    cmd = [rcec, a, b, "--quiet", f"--stats-json={stats_path}", f"--trace-out={trace_path}"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(stats_path) as f:
        s = json.load(f)
    cex_calls = cex_props = 0
    with open(trace_path) as f:
        for line in f:
            e = json.loads(line)
            args = e.get("args", {})
            if e["name"] == "sat_call" and args.get("verdict") == "sat":
                cex_calls += 1
                cex_props += args["propagations"]
    return {
        "sat_cex": cex_calls,
        "props_per_cex": cex_props / cex_calls if cex_calls else 0.0,
        "conflicts": s["solver"]["conflicts"],
        "sat_calls": s["sat_calls"],
        "resolutions": s.get("proof", {}).get("resolutions", 0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="rcec binary of the base build")
    ap.add_argument("--new", default="target/release/rcec", help="rcec binary of the new build")
    ap.add_argument("--gen", default="target/release/examples/gen_pair")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--work", default="target/ab-grid")
    ap.add_argument(
        "--same-work",
        action="store_true",
        help="exit 1 if any work counter differs between --base and --new",
    )
    args = ap.parse_args()
    os.makedirs(args.work, exist_ok=True)
    builds = {"base": args.base, "new": args.new}

    names = []
    for family, width in PAIRS:
        name = f"{family}-{width}"
        a, b = (os.path.join(args.work, f"{name}.{s}.aag") for s in "ab")
        subprocess.run([args.gen, str(width), a, b, family], check=True)
        names.append((name, a, b))

    walls = {}
    for rep in range(args.reps):
        order = ["base", "new"] if rep % 2 == 0 else ["new", "base"]
        for name, a, b in names:
            for build in order:
                start = time.perf_counter()
                subprocess.run([builds[build], a, b, "--quiet"], check=True, stdout=subprocess.DEVNULL)
                wall = time.perf_counter() - start
                walls.setdefault((name, build), []).append(wall)
                row = {"pair": name, "build": build, "rep": rep, "wall_s": wall}
                print(json.dumps(row), flush=True)

    print()
    print("| pair | build | median s | IQR s | cex calls | props/cex call | conflicts | SAT calls | resolutions |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|")
    diffs = []
    for name, a, b in names:
        counters = {}
        for build in builds:
            wall = walls[(name, build)]
            w = counters[build] = work(builds[build], a, b, args.work)
            print(
                f"| {name} | {build} | {statistics.median(wall):.3f} "
                f"| {quantile(wall, 0.75) - quantile(wall, 0.25):.3f} "
                f"| {w['sat_cex']} | {w['props_per_cex']:.0f} | {w['conflicts']} "
                f"| {w['sat_calls']} | {w['resolutions']} |"
            )
        for counter, base in counters["base"].items():
            if counters["new"][counter] != base:
                diffs.append((name, counter, base, counters["new"][counter]))

    if args.same_work:
        print()
        for name, counter, base, new in diffs:
            print(f"work differs: {name} {counter}: base {base}, new {new}")
        if diffs:
            sys.exit(1)
        print(f"same work: all counters equal on {len(names)} pairs")


if __name__ == "__main__":
    main()
