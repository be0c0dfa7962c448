#!/usr/bin/env bash
# CI gate. Everything runs with --offline: the workspace is hermetic
# (zero external crates — see DESIGN.md §3), and this script is what
# enforces that policy. A build that reaches for the network fails here.
set -euo pipefail
cd "$(dirname "$0")"

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy (offline, all targets, all warnings deny) =="
# --all-targets adds tests, benches and examples. This step, not
# `cargo test`, enforces the determinism rules of DESIGN.md §8
# (W1 wall-clock, O1 unordered hash iteration, C1 lossy casts, E1
# ambient entropy, U1 bare unwrap, P1 library printing, G1 guard across
# await, A0 unjustified suppression): their lists are in clippy.toml,
# their scopes in [workspace.lints.clippy] and each crate's lib.rs, and
# tests/clippy_canary.rs fails here if one stops firing.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== guard: float order is total_cmp (F1) =="
# `f64::total_cmp` is total and NaN-safe; a `partial_cmp` call site is
# one NaN away from a panic or an unstable sort. Tests included. The
# `fn partial_cmp` of a PartialOrd impl has neither `.` nor `::` before it.
if grep -rnE '(\.|::)partial_cmp\b' crates src tests examples; then
  echo "partial_cmp call site; compare floats with f64::total_cmp" >&2
  exit 1
fi

echo "== tier 1: release build (offline) =="
cargo build --release --offline

echo "== tier 1: invariant-checked drivers, release (offline) =="
# InvariantChecker is debug-only, but the late-clock driver of
# orchestrator_drivers.rs calls the public check_invariants() after
# every step: this is the faulted, late-delivery property under release
# codegen with overflow-checks on. The debug suite below runs it again.
cargo test -q --offline --release -p faas-sim --test orchestrator_drivers

echo "== tier 1: tests (offline) =="
# The whole workspace, faas-live included: a debug build, so the
# executor's locks assert their discipline (crates/live/src/exec/lock.rs,
# DESIGN.md §10) on every path these tests run. Only the four
# statistical tests of crates/live/tests/fidelity.rs are #[ignore]d: a
# loaded host can miss their tolerances without anything being wrong.
cargo test -q --offline

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

echo "== guard: container state is kept once =="
# DESIGN.md §7: who is idle, who has a free thread and who is
# provisioning is the container's own state. The worker's idle set is
# unordered (eviction orders by (priority, id)), the free pool has no
# mirror set, and provisioning is a count.
if grep -rn 'free_threads' crates \
  || grep -nE '(idle|provisioning): *BTreeSet' crates/sim/src/cluster.rs; then
  echo "state is kept in the container; a set beside it must earn its upkeep twice a request" >&2
  exit 1
fi

echo "== guard: one engine =="
# Parallelism is run-level fan-out (DESIGN.md §9): the second engine and
# everything that served it are deleted, and the word may not come back
# anywhere but the inert builder benchmark/benches/adapter.rs (frozen)
# still calls. This script is not searched, so the pattern below cannot
# match itself.
if grep -rniI shard crates src tests examples Cargo.toml \
  | grep -vE '^crates/sim/src/config\.rs:[0-9]+: *(// Inert: the sharded engine is deleted\.|pub fn shards\(self, _shards: usize\) -> Self \{)'; then
  echo "a second simulation engine is growing back; fan runs out with testkit::par_map instead" >&2
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

echo "== guard: one benchmark, no committed baseline =="
# Performance is measured by BENCHMARK.json on parent and change; the
# two ratio checks that compare lanes of one run live in the bench
# targets below. No results file, no guard binary, no JSON merger.
if [ -e BENCH_results.json ] \
  || grep -rnE 'BENCH_results|bench_guard|BENCH_OUT|atomic_write' crates Cargo.toml; then
  echo "the committed-baseline bench system is back; see benchmark/README.md" >&2
  exit 1
fi

echo "== tier 1: live load-gen smoke (offline) =="
# ~1500 requests through the executor-backed live host and the
# simulator side by side: exits non-zero on dropped requests, a missed
# concurrency floor, or live-vs-sim divergence beyond documented noise.
cargo run -q --release --offline -p cidre-bench --bin live_load -- --smoke

echo "== tier 1: experiments smoke (offline) =="
# Every runner through the CLI at tiny scale, sequentially and fanned
# out: all artifacts (CSVs and Chrome trace exports) must be
# byte-identical — determinism and --jobs invariance end to end; the
# golden hashes live in tests/determinism.rs. A run that cannot write
# exits non-zero, so two empty directories cannot pass the diff.
exp_a="$(mktemp -d)"
exp_b="$(mktemp -d)"
trap 'rm -rf "$exp_a" "$exp_b"' EXIT
experiments=(cargo run -q --release --offline -p cidre-bench --bin experiments --)
"${experiments[@]}" all --tiny --jobs 1 --out "$exp_a" > /dev/null
"${experiments[@]}" all --tiny --jobs 2 --out "$exp_b" > /dev/null
diff -r "$exp_a" "$exp_b"
# The suite at --quick scale: its closing line is the wall time and
# peak RSS of regenerating the paper's artifacts.
"${experiments[@]}" all --quick --out "$exp_a" | tail -n 1
rm -rf "$exp_a" "$exp_b"
trap - EXIT

echo "== bench smoke (offline) =="
# Seconds-long pass over the two bench targets. Each ends by comparing
# two of its own lanes and fails the step if the ratio is off:
# sim_throughput holds the indexed replay at >= 2x the reference scan
# at 10k functions, policy_overhead holds Algorithm 1's decision at
# 16384 retained observations within 16x its cost at 256.
BENCH_SMOKE=1 cargo bench --offline -p cidre-bench \
  --bench sim_throughput --bench policy_overhead

echo "== ci.sh: all green =="
