#!/usr/bin/env bash
# Build the release `rqc` server and the benchmark from this checkout,
# then run one benchmark pass.  Run from the repository root:
#
#   bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin rqc >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" --rqc "$CARGO_TARGET_DIR/release/rqc"
