#!/usr/bin/env bash
# The whole benchmark, for people: every workload, end to end (tracing
# off) and then per layer (traced), each in a process of its own.
#
#   benchmark/run.sh                       # seed 42, ~5 min, writes benchmark/out/suite-seed42.json
#   benchmark/run.sh --seed 7              # the held-out seed
#   benchmark/run.sh --quick               # ~15 s smoke; numbers not comparable
#   benchmark/run.sh --out A.json          # ... on one commit,
#   benchmark/run.sh --out B.json          # ... on another, then
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload mu_fanout --trace 0 --seed 3 --seconds 18   # one run, as the driver makes it
#
# BENCHMARK.json at the repository root names the one-run command.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --quiet --release --manifest-path benchmark/Cargo.toml --bin benchmark -- "$@"
