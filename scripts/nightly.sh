#!/usr/bin/env bash
# Nightly durability soak + trend point.
#
# Runs `lbs soak --tier heavy` — the self-healing durability preset,
# deterministic by seed: checkpoint every commit so generations pile up,
# bounded retention (GC must hold the lineage to the configured window
# on disk), periodic mid-traffic scrub passes (a healthy disk must
# quarantine nothing), and mid-traffic shard crashes recovered across
# the pruned lineage. Any failure exits nonzero.
#
# Each run APPENDS one JSON line to the trend file (default
# target/nightly-trend.jsonl, override with NIGHTLY_TREND_FILE), keyed by
# UTC timestamp and git revision:
#
#   {"utc":"…","rev":"…","soak_updates":N,"soak_wall_s":N}
#
# The file is never rewritten — plot it directly to see the soak's
# throughput across nightly runs. Per-stage timings come from the
# end-to-end benchmark (`benches/lbs-benchmark`, see BENCHMARK.json).
# Shrink the soak for a quick local run with e.g.
# NIGHTLY_SOAK_ARGS="--users 2000 --queries-per-epoch 64".
set -euo pipefail
cd "$(dirname "$0")/.."

TREND_FILE="${NIGHTLY_TREND_FILE:-target/nightly-trend.jsonl}"
read -r -a SOAK_ARGS <<<"${NIGHTLY_SOAK_ARGS:-}"

cargo build --release -q -p lbs-cli

echo "== heavy soak (self-healing durability under sustained traffic) =="
mkdir -p target
soak_start=$SECONDS
target/release/lbs soak --tier heavy ${SOAK_ARGS[@]+"${SOAK_ARGS[@]}"} \
  | tee target/nightly_soak.txt
soak_wall=$((SECONDS - soak_start))
# "  traffic: <N> updates (…" — the sweep's applied-update count.
soak_updates="$(sed -n 's/^ *traffic: \([0-9]*\) updates.*/\1/p' target/nightly_soak.txt | head -1)"
soak_updates="${soak_updates:-0}"

echo "== appending trend point to ${TREND_FILE} =="
mkdir -p "$(dirname "$TREND_FILE")"
rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
jq -n -c \
  --arg utc "$utc" \
  --arg rev "$rev" \
  --argjson soak_updates "$soak_updates" \
  --argjson soak_wall_s "$soak_wall" \
  '{utc: $utc, rev: $rev, soak_updates: $soak_updates,
    soak_wall_s: $soak_wall_s}' \
  >>"$TREND_FILE"

tail -1 "$TREND_FILE"
echo "nightly OK"
