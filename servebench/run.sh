#!/usr/bin/env bash
# Builds `rrs` and the benchmark from source, then runs one workload.
#
#   bash servebench/run.sh --workload ingest|epoch|read-mix --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); working files and records go to .servebench/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rrs-cli --bin rrs >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --server "$CARGO_TARGET_DIR/release/rrs" "$@"
