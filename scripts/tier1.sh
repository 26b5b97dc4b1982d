#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before a merge.
#
#   ./scripts/tier1.sh           # build + tests + lints
#
# The test step mirrors CI exactly: the root package's integration
# suites (consensus safety, soak, chaos, determinism) plus every crate's
# unit tests, the benchmark package against the current library API,
# then clippy with warnings promoted to errors, then formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> one member: the decision half is defined once (ROADMAP item 2)"
for item in 'fn heartbeat_tick' 'fn update_view' 'fn fence_log' 'fn finish_deferred_accept' 'fn record_decision' 'fn arrival_tick' 'struct HbLink'; do
  [ "$(grep -rhow "$item" crates/*/src | wc -l)" -eq 1 ] || { echo "tier-1: '$item' must be defined exactly once under crates/*/src" >&2; exit 1; }
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (root integration suites)"
cargo test -q

echo "==> cargo test -q --workspace (crate unit tests)"
cargo test -q --workspace --exclude p4ce-repro

echo "==> sharded-KV smoke (quick groups sweep, seq == parallel)"
cargo run --release -p p4ce-bench --bin groups_sweep -- --quick --threads 2 >/dev/null

echo "==> benchmark package (own workspace): unit tests + quick suite"
# benchmark/src/sut.rs imports the library's public surface; a moved or
# re-typed symbol must fail here, not in the acceptance pipeline.
cargo test -q --release --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick >/dev/null

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "tier-1: all green"
