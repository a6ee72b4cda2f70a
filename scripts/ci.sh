#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), and the full test
# suite. Run from anywhere; operates on the repository root. Offline-safe:
# all external deps are vendored under third_party/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test perfbench: benchmark gates and tiny runs of every workload"
# perfbench is a workspace of its own (it builds the crates by path), so
# the workspace test run above does not reach it. Its tests drive the SQL
# hot path end to end on each workload at a tiny size.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> probe: every CI probe at default scale"
# Runs all seven probes (perf, chaos, commit, raft, obs, split, storage)
# with every online invariant monitor escalated to a panic. What each one
# guards is documented on its report's `gate` in crates/bench/src/probe/;
# any failed gate fails CI here. A chaos checker violation also writes its
# incident bundle to incident_seed<N>/ and names it.
ROOT="$(pwd)"
PROBE_DIR="$(mktemp -d)"
trap 'rm -rf "$PROBE_DIR"' EXIT
(cd "$PROBE_DIR" && cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p mr-bench --bin probe)

# Every probe must leave a well-formed BENCH_<name>.json behind: a probe
# that silently stops writing results would otherwise pass CI.
for name in perf chaos commit raft obs split storage; do
    file="$PROBE_DIR/BENCH_$name.json"
    [ -s "$file" ] || { echo "FAIL: probe $name did not write BENCH_$name.json" >&2; exit 1; }
    if command -v jq >/dev/null; then
        jq . "$file" >/dev/null
    else
        python3 -m json.tool "$file" >/dev/null
    fi || { echo "FAIL: probe $name wrote malformed JSON to BENCH_$name.json" >&2; exit 1; }
done

echo "==> durability tier: volatile crashes recover from WAL + SSTs"
# 20 seed-derived durability_storm schedules (volatile node crashes, a
# full region-0 volatile crash, a split racing a recovery) plus the
# scripted full-group recovery — every restart rebuilds state solely from
# WAL + SST replay and the checker must stay clean.
cargo test -q -p mr-chaos --test durability >/dev/null

echo "==> wal-fsync canary: the armed sync-skip bug must be caught"
# Arms the deliberate bug that defers WAL fsyncs (and Raft log syncs) to a
# periodic tick, crashes region 0 volatile between ticks, and requires the
# offline checker to flag the acknowledged-but-lost writes — proving the
# durability tier detects a node that acks before its fsync point.
cargo test -q -p mr-chaos --features injected-bug --test durability \
    injected_wal_skip_fsync_bug_is_caught >/dev/null

echo "==> split-tscache canary: the armed RHS-bound drop must be caught"
# Arms the deliberate split bug that zeroes the right half's timestamp-
# cache bound and drives a split storm under ahead-of-time clock skew: the
# checker must flag the resulting stale reads, and the identical unarmed
# runs must stay clean — guards the split surgery's tscache carryover.
cargo test -q -p mr-chaos --features injected-bug --test chaos_e2e \
    injected_split_tscache_bug_is_caught >/dev/null
cargo test -q -p mr-chaos --test chaos_e2e split_storm_without_bug_is_clean >/dev/null

echo "==> injected-bug canary: the checker must catch the armed stale read"
# Compile the deliberate follower-read bug in and verify the history
# checker still detects it — guards against the checker itself rotting.
cargo test -q -p mr-chaos --features injected-bug >/dev/null

echo "==> forensics_canary: the armed bug must yield a deterministic bundle"
# The same injected bug, asserted through the incident-forensics path: the
# violating run captures a bundle with the expected violation kind and
# non-empty span subtrees, byte-identical across same-seed runs.
cargo test -q -p mr-chaos --features injected-bug --test forensics >/dev/null

echo "CI OK"
