#!/usr/bin/env bash
# Build, test and smoke the benchmark package, offline. scripts/ci.sh is
# the repository's gate and does not call this; run it when perf/ or
# BENCHMARK.json changes.
set -euo pipefail
cd "$(dirname "$0")/.."
M=perf/Cargo.toml

cargo fmt --manifest-path "$M" -- --check
cargo build --release --offline --manifest-path "$M"
cargo test --offline --manifest-path "$M"
# All five workloads, a second of timed section each: every end-to-end
# metric, then every per-layer metric and the span files.
cargo run --release --offline --quiet --manifest-path "$M" -- run --quick
cargo run --release --offline --quiet --manifest-path "$M" -- trace --quick
ls perf/out/*.spans.jsonl >/dev/null
echo "perf/ci.sh: OK"
