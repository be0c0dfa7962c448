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

echo "== lint: rustdoc (offline, all warnings deny) =="
# `cargo test` runs the doctests but never resolves intra-doc links: a
# link to a private or renamed item, or one that names two things, is a
# rustdoc warning and fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

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
# Only debug builds step check_invariants() after every event, but the
# late-clock driver of orchestrator_drivers.rs calls it itself after
# every step: this is the faulted, late-delivery property under release
# codegen with overflow-checks on. The debug suite below runs it again.
cargo test -q --offline --release -p faas-sim --test orchestrator_drivers

echo "== tier 1: tests (offline) =="
# The whole workspace, faas-live included: a debug build, so the
# executor's locks assert their discipline (crates/live/src/exec/lock.rs,
# DESIGN.md §10) on every path these tests run. Nothing is #[ignore]d:
# live-vs-sim agreement is the live_load smoke below, not a test.
cargo test -q --offline

echo "== guard: one orchestration state machine =="
# crates/live drives faas_sim::Orchestrator (DESIGN.md §4) and must not
# grow mechanics of its own again: no policy calls, no PolicyCtx, no
# eviction index outside the core.
if grep -rnE 'policies\.(scaler|keepalive|prewarm)|PolicyCtx::new|policy_ctx\(|evict_index' crates/live/src; then
  echo "crates/live/src re-implements orchestration; it belongs in crates/sim/src/orchestrator.rs" >&2
  exit 1
fi

echo "== guard: one replay loop; the host is a thread =="
# Trace replay is faas_sim::run_on_clock on a wall clock (DESIGN.md §4):
# runtime.rs drives no core and no executor of its own. The host is one
# OS thread that pops its own deadline heap and blocks on a std mpsc
# channel until the earliest deadline (DESIGN.md §10): no task, no
# executor, no second channel type, no mailbox future.
if grep -nE 'Orchestrator|exec::' crates/live/src/runtime.rs; then
  echo "crates/live/src/runtime.rs: a second replay loop is growing back; call faas_sim::run_on_clock" >&2
  exit 1
fi
if grep -rn 'send_at' crates/live/src; then
  echo "crates/live/src: send_at is back; push onto the host thread's deadline heap instead" >&2
  exit 1
fi
if [ -e crates/live/src/mailbox.rs ] \
  || grep -nE 'async |\.await|Executor|exec::channel' crates/live/src/host.rs; then
  echo "crates/live/src/host.rs: the host is a thread blocking on recv_timeout, not a task (DESIGN.md §10)" >&2
  exit 1
fi

echo "== guard: the live drivers keep time =="
# Both live drivers wait at 1 ns timer slack, not Linux's default 50 µs,
# which is 50 simulated ms at the default compression (DESIGN.md §10,
# crates/live/src/slack.rs). No test can see that 1.3x timing effect, so
# this is what keeps a refactor from dropping the guard.
for driver in crates/live/src/host.rs crates/live/src/runtime.rs; do
  if ! grep -q 'TightTimers::on_this_thread()' "$driver"; then
    echo "$driver: no longer constructs TightTimers; its timers fire up to 50 µs late (DESIGN.md §10)" >&2
    exit 1
  fi
done

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

echo "== guard: per-function state is indexed by slot =="
# DESIGN.md §7: a function's runtime and profile sit at its slot in the
# sorted id list, built whole at construction; ClusterState::slot finds
# it directly for dense ids and by binary search otherwise. A hash probe
# per lookup does not come back.
if grep -nE '(fns|profiles): *HashMap' crates/sim/src/cluster.rs; then
  echo "crates/sim/src/cluster.rs: per-function state is hashed again; index it by slot (DESIGN.md §7)" >&2
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

echo "== guard: fault state is kept once =="
# DESIGN.md §4: a failed provision carries its attempt on its event,
# chains in retry backoff are a per-function count beside provisioning
# (FnRuntime::unplaced), and a crash finds the executions it kills in
# the request window. Fault-free and faulted runs take one code path:
# no side table beside the state, and no switch between the two.
if grep -nE 'fault_active|self\.(attempts|retrying|running)\b|running: *BTreeMap' \
  crates/sim/src/orchestrator.rs; then
  echo "crates/sim/src/orchestrator.rs: fault state is kept twice again; keep it on the event, FnRuntime or RequestState" >&2
  exit 1
fi

echo "== guard: the oracle view is kept once =="
# DESIGN.md §4: the expected end of each running execution is the
# cluster's (FnRuntime::running: occupy_thread pushes it, release_thread
# and crash_evict retire it), and a PolicyCtx is a view of the cluster
# alone, built by ClusterState::policy_ctx. The orchestrator's map of
# ends per container, its pool of spare vectors and the trait that hid
# the map's hasher stay gone. PolicyCtx::new is an inert stub for the
# frozen benchmark/benches/adapter.rs (not searched); nothing else calls it.
if grep -rnE 'busy_until|BusyEnds|spare_ends' crates/sim/src \
  || grep -rn 'PolicyCtx::new(' crates src tests examples; then
  echo "the ends of running executions are kept twice again; read FnRuntime::running and build views with ClusterState::policy_ctx" >&2
  exit 1
fi

echo "== guard: deferrals are counted once =="
# DESIGN.md §4: a provision chain without a container, in retry backoff
# or in the deferral queue, counts once in FnRuntime::unplaced, so
# serve_backlog reads counts. Scanning the cluster-wide queue there
# made a request left of Fig. 12's cliff cost 44x one at a warm cache.
if awk '/fn serve_backlog/ { body = 1 } body { print FILENAME ":" FNR ": " $0 } body && /^    }$/ { exit }' \
  crates/sim/src/orchestrator.rs | grep 'self\.deferred'; then
  echo "crates/sim/src/orchestrator.rs: serve_backlog scans the deferral queue; read FnRuntime::unplaced" >&2
  exit 1
fi

echo "== guard: waiters are served by one rule =="
# DESIGN.md §4: serve_backlog alone starts flexible waiters on free
# threads and covers a function's backlog with provisions; it runs after
# a thread frees, a container comes up and a worker crashes. A second
# hand-written rule beside it left free threads idle next to waiters.
# The invariants it keeps are ClusterState::validate's, checked by
# Orchestrator::check_invariants, not by a checker of their own.
if grep -nE 'repair_cold_only|InvariantChecker|pop_pending' crates/sim/src/orchestrator.rs; then
  echo "crates/sim/src/orchestrator.rs: a second waiter rule is back; serve the channel with serve_backlog" >&2
  exit 1
fi
flexible_pops=$(grep -c 'pop_flexible(' crates/sim/src/orchestrator.rs || true)
if [ "$flexible_pops" -ne 1 ]; then
  echo "crates/sim/src/orchestrator.rs pops a flexible waiter in $flexible_pops places; serve_backlog is the one" >&2
  exit 1
fi

echo "== guard: placement is decided once =="
# DESIGN.md §4: `place` is the one `pick_worker` call in the core, so a
# stateful placement (RoundRobin's cursor) moves once per placement; a
# pre-check beside it skewed the placement ablation. Deferred
# provisions are the core's alone: every event that can make room
# retries them, and no driver does.
picks=$(grep -c 'pick_worker(' crates/sim/src/orchestrator.rs || true)
if [ "$picks" -ne 1 ]; then
  echo "crates/sim/src/orchestrator.rs calls pick_worker $picks times; place a provision with one call" >&2
  exit 1
fi
if grep -rn 'retry_deferred' crates/sim/src/engine.rs crates/live/src; then
  echo "a driver retries deferred provisions; the core does that on every event that frees room" >&2
  exit 1
fi

echo "== guard: every priority class is under the oracle =="
# DESIGN.md §7: a PriorityDeps::Function round evaluates one candidate per
# function and reuses the value for the others, which is exact only if
# the declaration holds. The reference round in tests/equivalence.rs is
# what checks it, so every keep-alive that declares the class runs there:
# its stack from crates/policies/src/lib.rs, or the type itself, is named
# in the body of that file's `fn stacks()`.
oracle=$(awk '/^fn stacks\(\)/ { body = 1 } body { print } body && /^}$/ { exit }' tests/equivalence.rs)
for file in $(grep -l 'PriorityDeps::Function' crates/policies/src/*.rs); do
  for ty in $(sed -nE 's/^impl KeepAlive for ([A-Za-z0-9_]+).*/\1/p' "$file"); do
    names=$(awk -v ty="$ty" '
      /^pub fn [a-z_0-9]+_stack/ { name = $3; sub(/[(<].*/, "", name) }
      /^}$/ { name = "" }
      name && index($0, ty) { print name; name = "" }' crates/policies/src/lib.rs)
    found=0
    for name in $ty $names; do
      if grep -qw "$name" <<<"$oracle"; then found=1; fi
    done
    if [ "$found" -ne 1 ]; then
      echo "$file: $ty declares PriorityDeps::Function but tests/equivalence.rs's stacks() runs none of: $ty $names" >&2
      exit 1
    fi
  done
done

echo "== guard: memory is accounted once =="
# DESIGN.md §11: memory held over time is the cost ledger's, exact in
# MB·µs. The sampled series beside it and the switch that turned it off
# are deleted; the conservation tests rebuild the integral from the
# trace or from ClusterState::used_mb instead.
if grep -rnE 'TimeSeries|record_memory|note_memory' crates src tests examples; then
  echo "a second account of memory is growing back; read the CostLedger (DESIGN.md §11)" >&2
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
# ~1500 requests through the live replay and the simulator side by
# side, under FaasCache and then under CIDRE: each run exits non-zero
# on dropped requests, a missed concurrency floor, or live-vs-sim
# divergence (class ratios, exact wait percentiles, GB-s) beyond
# documented noise.
cargo run -q --release --offline -p cidre-bench --bin live_load -- --smoke
cargo run -q --release --offline -p cidre-bench --bin live_load -- --smoke --stack=cidre

echo "== tier 1: experiments smoke (offline) =="
# Every runner through the CLI at tiny scale, sequentially and fanned
# out: all artifacts (CSVs and Chrome trace exports) and stdout must be
# byte-identical — determinism and --jobs invariance end to end; the
# golden hashes live in tests/determinism.rs. A run that cannot write
# exits non-zero, so two empty directories cannot pass the diff. Stdout
# is compared without its header (job count, output directory) and
# closing line (wall time), with the output directory normalised.
exp_a="$(mktemp -d)"
exp_b="$(mktemp -d)"
trap 'rm -rf "$exp_a" "$exp_b" "$exp_a.log" "$exp_b.log"' EXIT
experiments=(cargo run -q --release --offline -p cidre-bench --bin experiments --)
"${experiments[@]}" all --tiny --jobs 1 --out "$exp_a" > "$exp_a.log"
"${experiments[@]}" all --tiny --jobs 2 --out "$exp_b" > "$exp_b.log"
diff -r "$exp_a" "$exp_b"
narration() { sed -e '1d' -e '$d' -e "s|$2|OUT|g" "$1"; }
diff <(narration "$exp_a.log" "$exp_a") <(narration "$exp_b.log" "$exp_b")
# The suite at --quick scale: its closing line is the wall time and
# peak RSS of regenerating the paper's artifacts.
"${experiments[@]}" all --quick --out "$exp_a" | tail -n 1
rm -rf "$exp_a" "$exp_b" "$exp_a.log" "$exp_b.log"
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
