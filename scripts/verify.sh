#!/usr/bin/env bash
# Tier-1 verification: CI's commands, in CI's order, less its slowest
# steps. Left out here and run only in CI:
#   - the property tests at 1024 cases
#     (RRS_PROP_CASES=1024 cargo test -q --workspace --offline);
#   - the servebench correctness gates (epoch and read-mix workloads)
#     and its traced epoch run;
#   - every bench but ingest: detection, suite, online, obs, lint and codec.
# Everything must pass offline — the workspace has zero external
# dependencies, and this script is what keeps it that way.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the root manifest is a package AND a workspace, so a bare
# `cargo build` would compile only the facade lib and leave member
# binaries (the `rrs` CLI the smoke-run below needs) stale.
cargo build --release --offline --workspace
cargo test -q --workspace --offline
cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# Static analysis: the committed tree must be lint-clean (exit 0) under
# all four workspace passes (determinism sanitizer, layering DAG,
# API-surface lock, dead public items), and every seeded violation
# fixture must be caught
# (exit 1). The fixtures double as an end-to-end self-test of the
# binary, not just the library.
target/release/rrs-lint
for fixture in crates/lint/fixtures/*/; do
    name="$(basename "$fixture")"
    if [ "$name" = clean ]; then
        target/release/rrs-lint --root "$fixture"
    elif target/release/rrs-lint --quiet --root "$fixture"; then
        echo "verify: fixture $name should have produced findings" >&2
        exit 1
    fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Lock drift: regenerating every committed lock must be a byte-level
# no-op. A dirty diff here means the tree changed (budget counts, the
# crate dependency graph, or the public API surface) without the
# matching lock update being made alongside it. The diff is against the
# pre-regeneration files, not git, so the check also works mid-change.
mkdir "$TMP/locks"
cp lint.lock layers.lock api.lock "$TMP/locks/"
target/release/rrs-lint --quiet --write-lock
target/release/rrs-lint --quiet --write-layers-lock
target/release/rrs-lint --quiet --write-api-lock
for lock in lint.lock layers.lock api.lock; do
    diff -u "$TMP/locks/$lock" "$lock"
done

# Trace smoke-run: the observability layer must produce a non-empty,
# schema-complete decision-trace JSONL and a collapsed-stack flamegraph
# from a release binary.
target/release/rrs trace downgrade-burst --out "$TMP/trace.jsonl" \
    --flamegraph "$TMP/trace.folded" --seed 7
test -s "$TMP/trace.jsonl"
test -s "$TMP/trace.folded"
for key in product detectors paths suspicious trust; do
    grep -q "\"$key\"" "$TMP/trace.jsonl"
done
grep -q '^scheme\.epoch;' "$TMP/trace.folded"

# Telemetry smoke-runs: the metrics exposition must carry the scheme
# and detector-health series, and the flight recorder must dump at
# least one firing for a real attack scenario.
target/release/rrs metrics downgrade-burst --seed 7 --out "$TMP/metrics.prom"
grep -q '^scheme_suspicious_set_size ' "$TMP/metrics.prom"
grep -q '^detect_fired_mc ' "$TMP/metrics.prom"
target/release/rrs dump downgrade-burst --seed 7 --out "$TMP/dump.jsonl"
test -s "$TMP/dump.jsonl"
grep -q '"recent_spans"' "$TMP/dump.jsonl"

# Parallel determinism: the full small-scale experiment suite must emit
# byte-identical results whether the pool runs one worker (the exact
# serial path) or eight. `diff -r` is the enforcement, not a spot check.
# RRS_TRACE=1 adds metrics.json to the tree, so the diff also proves
# the metrics snapshot (counters, gauges, quantile sketches) is
# thread-count invariant.
RRS_TRACE=1 RRS_THREADS=1 target/release/experiments --scale small --seed 42 --out "$TMP/threads1"
RRS_TRACE=1 RRS_THREADS=8 target/release/experiments --scale small --seed 42 --out "$TMP/threads8"
test -s "$TMP/threads1/metrics.json"
diff -r "$TMP/threads1" "$TMP/threads8"

# Reference tree: results/ is what EXPERIMENTS.md cites, and a
# paper-scale run at seed 42 must reproduce every file in it byte for
# byte.
target/release/experiments --scale paper --seed 42 --out "$TMP/paper42"
diff -r "$TMP/paper42" results

# Serving smoke: checkpoint a live server after its first epoch, SIGKILL
# it after further acknowledged submissions, restart it from the
# checkpoint and the WAL, finish the workload, and require the recovered
# trust table and suspicion set to byte-match an uninterrupted server fed
# the identical sequence. The checkpoint holds no detector cache, so the
# restarted server's epochs run on a cache rebuilt from the WAL. The
# crashed run recovers at RRS_THREADS=1 and the oracle runs at 8, so the
# diff also holds across pool widths (the crash-replay test suite holds
# the matrix's other cells in-process).
SERVE_A="$TMP/serve-crash"
SERVE_B="$TMP/serve-oracle"
for i in $(seq 0 11); do
    printf '{"rater":%d,"product":0,"day":%d,"value":4.25}\n' "$i" "$((i * 2))"
    printf '{"rater":%d,"product":1,"day":%d,"value":3.5}\n' "$i" "$((i * 2))"
done > "$TMP/batch1.jsonl"
for i in $(seq 0 11); do
    printf '{"rater":%d,"product":0,"day":%d,"value":4}\n' "$i" "$((30 + i))"
done > "$TMP/batch2.jsonl"
{
    for i in $(seq 0 7); do
        printf '{"rater":%d,"product":0,"day":62,"value":0.5}\n' "$((50 + i))"
    done
    for i in $(seq 0 11); do
        printf '{"rater":%d,"product":0,"day":%d,"value":4}\n' "$i" "$((60 + i))"
    done
} > "$TMP/batch3.jsonl"

serve_start() { # dir addr-file threads
    rm -f "$2"
    RRS_THREADS="$3" target/release/rrs serve --dir "$1" \
        --addr 127.0.0.1:0 --addr-file "$2" --quiet &
    SERVE_PID=$!
    for _ in $(seq 1 200); do [ -s "$2" ] && break; sleep 0.05; done
    SERVE_ADDR="$(cat "$2")"
}
serve_ratings() { curl -sf -X POST --data-binary @"$1" "http://$SERVE_ADDR/ratings" > /dev/null; }
serve_epoch() { curl -sf -X POST -d '' "http://$SERVE_ADDR/epochs" > /dev/null; }
serve_checkpoint() { curl -sf -X POST -d '' "http://$SERVE_ADDR/checkpoint" > /dev/null; }

# Crashed run: two acknowledged batches, one epoch and a checkpoint after
# it, then kill -9.
serve_start "$SERVE_A" "$TMP/addr-a1" 1
serve_ratings "$TMP/batch1.jsonl"
serve_epoch
serve_checkpoint
serve_ratings "$TMP/batch2.jsonl"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

# Recover from the checkpoint and the WAL, and finish the workload.
test -s "$SERVE_A/checkpoint.jsonl"
serve_start "$SERVE_A" "$TMP/addr-a2" 1
serve_epoch
serve_ratings "$TMP/batch3.jsonl"
serve_epoch
curl -sf "http://$SERVE_ADDR/trust" > "$TMP/trust-crashed"
curl -sf "http://$SERVE_ADDR/suspicious" > "$TMP/suspicious-crashed"
curl -sf -X POST -d '' "http://$SERVE_ADDR/shutdown" > /dev/null
wait "$SERVE_PID"

# The uninterrupted oracle, at a different pool width.
serve_start "$SERVE_B" "$TMP/addr-b" 8
serve_ratings "$TMP/batch1.jsonl"
serve_epoch
serve_ratings "$TMP/batch2.jsonl"
serve_epoch
serve_ratings "$TMP/batch3.jsonl"
serve_epoch
curl -sf "http://$SERVE_ADDR/trust" > "$TMP/trust-oracle"
curl -sf "http://$SERVE_ADDR/suspicious" > "$TMP/suspicious-oracle"
curl -sf -X POST -d '' "http://$SERVE_ADDR/shutdown" > /dev/null
wait "$SERVE_PID"

# Byte-equality, and the comparison must not be vacuous.
test -s "$TMP/trust-crashed"
test -s "$TMP/suspicious-crashed"
diff "$TMP/trust-crashed" "$TMP/trust-oracle"
diff "$TMP/suspicious-crashed" "$TMP/suspicious-oracle"

# Ingest bench at a reduced 1M-rating scale: proves the bulk-ingest and
# append paths work end to end at volume and writes BENCH_ingest.json
# (the committed benchmarks/BENCH_ingest.json holds the 10M numbers).
RRS_BENCH_INGEST_RATINGS=1000000 RRS_BENCH_OUT="$TMP" \
    cargo bench -p rrs-bench --bench ingest --offline
test -s "$TMP/BENCH_ingest.json"
grep -q '"ratings_per_sec"' "$TMP/BENCH_ingest.json"

echo "verify: OK"
