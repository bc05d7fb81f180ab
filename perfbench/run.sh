#!/usr/bin/env bash
# Build `kmm` and the benchmark from source, then run one benchmark pass.
# Run from the root of a checkout; all arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload map-reads --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), the
# index file, daemon logs and spans files to $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin kmm >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --kmm "$CARGO_TARGET_DIR/release/kmm" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" \
    "$@"
