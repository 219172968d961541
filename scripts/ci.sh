#!/usr/bin/env bash
# Local CI gate: formatting, clippy, rustdoc, workspace invariant lint
# (lbs lint), release build, full test suite, attacker-in-the-loop
# conformance smoke with the golden corpora (policies and exact work
# counters), recovery and soak smokes. Wall-time performance is not gated here: it is
# measured by benches/lbs-benchmark (BENCHMARK.json), whose tests run
# below.
#
# The workspace builds fully offline (external deps are vendored under
# vendor/), so this script needs no network access. Run it from anywhere
# inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors) =="
# Lint levels: the root Cargo.toml's [workspace.lints] table (no unwrap,
# panic, print, float == or unsafe in library code; reasoned #[expect]).
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (first-party crates, warnings are errors) =="
# A dangling or ambiguous intra-doc link (a renamed or deleted item, a
# link to a private module) fails here. The vendor/ stand-ins are
# excluded: they mirror upstream docs, not this project's. ~5 s warm.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude bytes --exclude crossbeam \
    --exclude parking_lot --exclude proptest --exclude rand --exclude serde \
    --exclude serde_derive --exclude serde_json

echo "== cargo fmt --check + clippy (benchmark crate) =="
# benches/lbs-benchmark is a workspace of its own (empty [workspace]), so
# neither check above reaches it; --manifest-path points both at it.
# No --all on fmt: that would also format its path dependencies, the
# root crates, which the root check already covers.
cargo fmt --manifest-path benches/lbs-benchmark/Cargo.toml --check
cargo clippy --offline --manifest-path benches/lbs-benchmark/Cargo.toml --all-targets -- -D warnings

echo "== lbs lint (workspace invariants, budget: 30 s) =="
# Token-level invariant checker (crates/lint) for what the clippy stage's
# [workspace.lints] table cannot express: no wall clocks in DP code,
# BTreeMap in serialized output, runtime io through the storage seam
# without unwraps, reasoned suppression pragmas. Builds just the CLI
# crate first so the stage stays well inside its 30-second budget (the
# scan itself is < 1 s for ~140 files; the warm build dominates). Nonzero
# exit on any unsuppressed error-severity finding; JSON goes to the log
# for machine triage. Human-readable rerun: target/release/lbs lint
cargo build --release -q -p lbs-cli
timeout 30 target/release/lbs lint --format json

echo "== lbs lint --deep (interprocedural passes, budget: 60 s) =="
# Call-graph passes (crates/lint, DESIGN.md §12): panic-reachability from
# the service entry points in lint-taint.toml, location-taint (raw sender
# coordinates must not reach Debug/Display/error-string/WAL sinks except
# through the sanctioned cloaking path), and determinism-taint (HashMap
# iteration order, wall clocks, and thread ids must not reach
# fingerprinted or serialized outputs). The scan itself is < 1 s for
# ~120 files; the budget leaves room for a cold file cache. Findings
# carry call-chain traces; human-readable rerun:
#   target/release/lbs lint --deep true
timeout 60 target/release/lbs lint --deep true --format json

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test (workspace) =="
cargo test --release --workspace -q

echo "== benchmark crate tests (budget: 60 s) =="
# benches/lbs-benchmark is a package of its own (empty [workspace]), so
# `cargo test --workspace` above never runs its tests: a tiny instance of
# every BENCHMARK.json workload with its output checks (masking cloaks,
# no shed, the churn_deadline ladder), plus the statistics, span and
# counting-storage tests. The build (its own target dir; ~90 s cold on
# a 2-vCPU VM) stays outside the budget; the run takes under a second.
cargo test --release --offline --manifest-path benches/lbs-benchmark/Cargo.toml --no-run
timeout 60 cargo test --release --offline --manifest-path benches/lbs-benchmark/Cargo.toml

echo "== conformance-smoke (budget: 60 s) =="
# Attacker-in-the-loop smoke sweep (>= 200 seeded scenarios) plus every
# checked-in golden corpus under tests/golden: optimal policies, the
# sharded and partitioned pipelines, and the work golden — exact work
# counters (tree nodes, DP rows and cells, cache hits, extracted nodes,
# WAL and checkpoint bytes, …) of nine tiny seeded runs, which stand in
# for a wall-clock perf gate because counters carry no noise. Runs via
# the release CLI, ~10 s on a 2-vCPU VM. A red run prints every failing
# scenario id and every drifted record with its derived seed (a work
# drift names each counter, stored → computed); replay with
#   target/release/lbs conformance --seed <seed>
# and re-bless intentional golden or work-counter changes with
#   target/release/lbs conformance --bless true --golden tests/golden
# then review the JSON diff. The #[ignore]-gated soak tier is NOT part
# of CI; run it manually:
#   cargo test --release --test conformance_smoke -- --ignored
timeout 60 target/release/lbs conformance --golden tests/golden

echo "== recovery-smoke (budget: 60 s) =="
# The durability oracle, CI-sized: one reference service run, then every
# named crash plan (a crash after each WAL record's sync, torn frames,
# torn checkpoint temp files, a rotten newest checkpoint), seeded disk
# faults (short writes, fsync/rename failures, ENOSPC, bit-rot, crash
# points) with crash-restart lives, on-disk rot healed by scrub/GC, and
# per-shard victims — every recovery byte-identical to the never-crashed
# run or a loud typed error, never a silently wrong policy — plus the
# degradation ladder audited against the PRE-enumerating attacker on
# every rung. Fails below 50 named crash points or 2 shards. 0.33–0.38 s
# on a 2-vCPU VM with an ext4 `discard` mount; a VM whose discard made
# freeing each fsynced file cost ~45 ms took 29–37 s (DESIGN.md §14).
# The full sweep runs in the workspace tests. A red run
# prints each failing plan and point with its seed; replay with
#   target/release/lbs recovery-smoke --seed <seed>
timeout 60 target/release/lbs recovery-smoke

echo "== soak-smoke (budget: 90 s) =="
# Deterministic sharded soak: seeded sustained traffic (moving users +
# cloaked queries per simulated second, on the virtual clock — zero wall
# sleeps) through the 2-shard epoch-pipelined service with one seeded
# mid-traffic shard crash. Gates on: recovery without a global stall,
# zero PRE-attacker breaches over every served policy, and the sharded
# aggregate cost within the paper's 1% divergence bound of the
# single-shard optimum. Same seed, same report; rerun directly with
#   target/release/lbs soak
timeout 90 target/release/lbs soak

echo "CI OK"
