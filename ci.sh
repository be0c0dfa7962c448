#!/usr/bin/env bash
# CI gate. Everything runs with --offline: the workspace is hermetic
# (zero external crates — see DESIGN.md §3), and this script is what
# enforces that policy. A build that reaches for the network fails here.
set -euo pipefail
cd "$(dirname "$0")"

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy (offline, all warnings deny) =="
# --workspace pulls in crates/live too, which default-members exclude
# from build/test; lints still cover it.
cargo clippy --offline --workspace -- -D warnings

echo "== lint: cidre-lint (determinism & safety ratchet) =="
# In-tree static analyzer (crates/lint): the token rules (W1 wall-clock,
# O1 unordered hash iteration, F1 partial_cmp, C1 lossy time/mem casts,
# E1 ambient entropy, U1 bare unwrap, P1 library printing) plus the
# flow-sensitive concurrency rules (G1 guard across await, K1 wake
# under an executor lock, L1 lock-order cycles, S1 conductor
# confinement — seeded from lint-locks.toml). Fails on any violation
# not accepted by lint-baseline.toml, on a stale baseline, and on any
# unjustified `lint:allow`. See DESIGN.md §8 and §13. The analyzer must
# itself be deterministic: run the JSON report twice and require
# byte-identical output, inside a 10s wall-time budget for both scans.
cargo build -q --release --offline -p cidre-lint
lint_a="$(mktemp)"
lint_b="$(mktemp)"
trap 'rm -f "$lint_a" "$lint_b"' EXIT
lint_t0="$(date +%s%N)"
cargo run -q --release --offline -p cidre-lint -- --format=json > "$lint_a"
cargo run -q --release --offline -p cidre-lint -- --format=json > "$lint_b"
lint_t1="$(date +%s%N)"
cmp "$lint_a" "$lint_b"
lint_ms=$(( (lint_t1 - lint_t0) / 1000000 ))
echo "   cidre-lint: two scans in ${lint_ms}ms"
if [ "$lint_ms" -ge 10000 ]; then
  echo "cidre-lint: wall-time budget blown (${lint_ms}ms >= 10000ms)" >&2
  exit 1
fi
rm -f "$lint_a" "$lint_b"
trap - EXIT

echo "== tier 1: release build (offline) =="
cargo build --release --offline

echo "== tier 1: sharded oracle smoke (2 shards, offline) =="
# Fast fail signal for the epoch-barrier protocol (DESIGN.md §9):
# one pinned seed through all three engines at 2 shards, in release so
# it finishes in seconds. The full randomized three-way oracle runs in
# the debug suite below.
cargo test -q --offline --release --test equivalence sharded_oracle_smoke_two_shards

echo "== tier 1: tests (offline) =="
# Workspace default-members exclude crates/live, whose wall-clock
# fidelity tests are load-sensitive; everything else runs.
cargo test -q --offline

echo "== tier 1: live drivers (offline) =="
# faas-live's unit tests (executor, replay driver) and the FaasHost
# integration tests: ~1 s after the build, and they assert orderings and
# counts, not timings. tests/fidelity.rs stays opt-in
# (`cargo test -p faas-live`): it compares live class ratios and p99
# waits against the simulator within statistical tolerances, which a
# loaded CI host can miss without anything being wrong.
cargo test -q --offline -p faas-live --lib --test host

echo "== guard: one orchestration state machine =="
# crates/live drives faas_sim::Orchestrator (DESIGN.md §4) and must not
# grow mechanics of its own again: no policy calls, no PolicyCtx, no
# eviction index outside the core.
if grep -rnE 'policies\.(scaler|keepalive|prewarm)|PolicyCtx::new|evict_index' crates/live/src; then
  echo "crates/live/src re-implements orchestration; it belongs in crates/sim/src/orchestrator.rs" >&2
  exit 1
fi

echo "== guard: the live drivers own their timers =="
# A timed event is an entry in the driver's own deadline heap
# (crates/live/src/mailbox.rs, DESIGN.md §10), not a task: `send_at` is
# gone, replay spawns nothing, and the host spawns exactly one task, its
# `serve` loop.
if grep -rn 'send_at' crates/live/src; then
  echo "crates/live/src: send_at is back; schedule on the driver's TimedMailbox instead" >&2
  exit 1
fi
if grep -n '\.spawn(' crates/live/src/runtime.rs \
  || grep -n '\.spawn(' crates/live/src/host.rs | grep -v 'executor\.spawn(serve('; then
  echo "crates/live/src: a live driver spawns a task besides the host's serve loop" >&2
  exit 1
fi

echo "== guard: containers found by hash, workers placed by scan =="
# DESIGN.md §7: the per-event path looks containers up and never walks
# them, so the table is a hash map and only the three views whose order
# is observable sort; MaxFree placement is two passes over the workers,
# not an ordered index re-sorted on every idle transition. Neither
# structure comes back beside what replaced it.
if grep -rnE 'WorkerFreeList|free_list' crates; then
  echo "crates/: the worker free-list is back; ClusterState::pick_worker scans the workers" >&2
  exit 1
fi
if grep -nE 'BTreeMap<ContainerId, *Container>' crates/sim/src/cluster.rs; then
  echo "crates/sim/src/cluster.rs: the container table is ordered again; sort in the view that needs order" >&2
  exit 1
fi

echo "== tier 1: benchmark package (offline) =="
# benchmark/ is a package of its own (empty [workspace]), so nothing
# above compiles it: a workspace API change that breaks
# benchmark/benches/adapter.rs would otherwise first be seen by the
# pipeline that runs BENCHMARK.json. Its tests include the --smoke runs
# that hold the printed metric names to that file.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== tooling: the A/B pair script byte-compiles =="
# tools/ab_pairs.py is the ten-pair parent-vs-change recipe of
# .claude/skills/verify/SKILL.md. It takes the better part of an hour,
# so nothing here runs it; this keeps it at least parseable.
python3 -m py_compile tools/ab_pairs.py

echo "== tier 1: live load-gen smoke (offline) =="
# ~1500 requests through the executor-backed live host and the
# simulator side by side: exits non-zero on dropped requests, a missed
# concurrency floor, or live-vs-sim divergence beyond documented noise.
# --no-report keeps BENCH_results.json untouched; the reporting run
# happens after the bench baseline snapshot below.
cargo run -q --release --offline -p cidre-bench --bin live_load -- \
  --smoke --no-report

echo "== tier 1: pareto sweep smoke (offline) =="
# The cost-ledger Pareto frontier (DESIGN.md §11): run the sweep twice
# at tiny scale into scratch dirs and require byte-identical CSVs —
# the cheap end-to-end determinism check; the golden hash, --jobs, and
# shard-count pins live in tests/determinism.rs.
pareto_a="$(mktemp -d)"
pareto_b="$(mktemp -d)"
trap 'rm -rf "$pareto_a" "$pareto_b"' EXIT
cargo run -q --release --offline -p cidre-bench --bin experiments -- \
  pareto --tiny --out "$pareto_a"
cargo run -q --release --offline -p cidre-bench --bin experiments -- \
  pareto --tiny --out "$pareto_b"
cmp "$pareto_a/pareto.csv" "$pareto_b/pareto.csv"
rm -rf "$pareto_a" "$pareto_b"
trap - EXIT

echo "== tier 1: trace export smoke (offline) =="
# The observability sweep (DESIGN.md §12): run the latency-waterfall
# experiment twice at tiny scale and require the CSV *and* every
# Chrome trace-event export byte-identical — recording must be as
# deterministic as the runs it records. Shard-count and --jobs
# invariance plus the golden hash live in tests/determinism.rs.
trace_a="$(mktemp -d)"
trace_b="$(mktemp -d)"
trap 'rm -rf "$trace_a" "$trace_b"' EXIT
cargo run -q --release --offline -p cidre-bench --bin experiments -- \
  trace --tiny --out "$trace_a"
cargo run -q --release --offline -p cidre-bench --bin experiments -- \
  trace --tiny --out "$trace_b"
cmp "$trace_a/trace.csv" "$trace_b/trace.csv"
for policy in faascache cidre-bss cidre; do
  cmp "$trace_a/trace_$policy.json" "$trace_b/trace_$policy.json"
done
rm -rf "$trace_a" "$trace_b"
trap - EXIT

echo "== bench smoke (offline) =="
# Seconds-long pass over all bench targets; merges median/p95 stats
# into BENCH_results.json and proves the harness end-to-end. The
# committed file is snapshotted first so bench_guard can compare the
# fresh numbers against the pre-run baseline.
baseline="$(mktemp)"
trap 'rm -f "$baseline"' EXIT
cp BENCH_results.json "$baseline"
BENCH_SMOKE=1 cargo bench --offline

echo "== bench lane: live load serving (offline) =="
# Re-run the load-gen smoke with reporting on: merges the sustained
# req/s, live p99 wait, and GB-s/request lanes (live_load/serve_smoke/*)
# into BENCH_results.json for bench_guard to ratchet.
cargo run -q --release --offline -p cidre-bench --bin live_load -- --smoke

echo "== bench guard: large-N throughput + sharded scaling + live lanes + CSS window scaling =="
# Fails on a >20% events/sec regression of replay/large_n vs the
# committed baseline, if the indexed scan drops below 2x the retained
# reference scan, or if the sharded scaling lane (scaling/shards_4 vs
# scaling/shards_1) falls below its parallelism-aware floor — 2.5x on
# >=4-CPU hosts, an overhead bound on narrower ones — or regresses
# >20% vs its committed baseline. The live serving lanes ratchet too,
# at a looser 35% (wall-clock noise): sustained req/s may not fall,
# and live p99 wait may not grow, past that band. The memory ratchet
# (serve_smoke/gbs_per_req, deterministic sim-side GB-s per request)
# holds the tight 20% band: the keep-warm bill may not quietly grow.
# The recorder-off gate holds replay/large_n (which runs with the
# NoopRecorder) within 2% of the committed baseline, best sample vs
# median, proving the disabled recorder is free (DESIGN.md §12).
# The CSS scaling gate compares two lanes of the current run: the
# Algorithm 1 decision at 16384 retained observations may cost at most
# 16x the decision at 256 (bench_guard.rs records the measurements the
# limit sits between).
cargo run -q --release --offline -p cidre-bench --bin bench_guard -- \
  "$baseline" BENCH_results.json

echo "== ci.sh: all green =="
