#!/usr/bin/env bash
# Produces the machine-readable perf snapshot BENCH_<date>.json from the
# t7 mixed-hardness workload: every (pair, threads) cell of the
# zoo is proved in-process and folded into one bench-v2 document (a
# strict superset of the old bench-v1 shape) so future PRs can diff the
# trajectory with `rbench compare`.
#
#   scripts/bench_snapshot.sh [OUT.json]
#
# This is now a thin shim over `rbench snapshot` (crate `loadgen`),
# which replaced the old gen_pair/rcec/python pipeline: no temp files,
# no Python, and the host census comes from
# std::thread::available_parallelism instead of a sandboxed
# interpreter's os.cpu_count() (which is how a seeded snapshot came to
# claim "cpus": 1). OUT defaults to BENCH_$(date -u +%F).json in the
# repo root. The workload is fixed and seedless, so two runs on the
# same host differ only in timing fields.
set -euo pipefail

cd "$(dirname "$0")/.."
rbench=target/release/rbench
[ -x "$rbench" ] || { echo "build first: cargo build --release -p cec-tools" >&2; exit 1; }

if [ $# -ge 1 ]; then
  exec "$rbench" snapshot --out="$1"
else
  exec "$rbench" snapshot
fi
