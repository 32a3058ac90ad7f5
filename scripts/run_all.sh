#!/usr/bin/env bash
# Builds everything, runs the test suite and every figure/table bench,
# collecting outputs under results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build
ctest --test-dir build --output-on-failure

# Gate on static analysis before spending time on sanitizer rebuilds: the
# concurrency-invariant lint, the header self-sufficiency build, and (when a
# clang toolchain exists) clang-tidy + -Wthread-safety.
scripts/static_analysis.sh

# Model-checking smoke (docs/MODEL_CHECKING.md): the mc preset routes the
# sync seam through the cooperative scheduler; each mc_* harness explores the
# schedule tree at the reduced --smoke budget (preemption bound 1), and the
# weakened-handoff and weakened-escalation fixtures prove detect-and-replay
# still fires. The full
# exhaustive suite is `cmake --build build --target mc` (also CI tier 2).
cmake --preset mc
cmake --build --preset mc
echo "== mc-smoke: mc_commit =="
build-mc/tests/mc_commit --smoke
echo "== mc-smoke: mc_snapshot_registry =="
build-mc/tests/mc_snapshot_registry --smoke
echo "== mc-smoke: mc_request_queue =="
build-mc/tests/mc_request_queue --smoke
echo "== mc-smoke: mc_fork_join =="
build-mc/tests/mc_fork_join --smoke
# The hand-off bug needs two preemptions to show, so this fixture runs at the
# full bound (a few seconds).
echo "== mc: mc_fork_join --weaken-handoff (expect failure) =="
build-mc/tests/mc_fork_join --weaken-handoff --expect-failure
# The escalation mutant needs one preemption, so the smoke budget finds it.
echo "== mc-smoke: mc_commit --weaken-escalation (expect failure) =="
build-mc/tests/mc_commit --weaken-escalation --expect-failure --smoke

# UBSan sweep: the whole suite, non-recovering (any UB report is fatal).
cmake --preset ubsan
cmake --build build-ubsan
ctest --test-dir build-ubsan --output-on-failure

# Race-check the STM core, the workloads (TLog publishes segments lock-free)
# and the serving engine: rebuild just those test binaries under
# ThreadSanitizer (the tsan preset) and run them directly. We
# invoke the binaries rather than ctest -R because gtest test names don't
# match target names. No suppression file: every report is a finding.
cmake --preset tsan
cmake --build build-tsan --target \
  stm_basic_test stm_nesting_test stm_concurrency_test stm_containers_test \
  stm_property_test stm_commit_strategy_test stm_snapshot_registry_test \
  stm_commit_manager_test stm_stats_test \
  stm_conflict_unit_test stm_linearizability_test workloads_test \
  serve_queue_test serve_engine_test serve_e2e_test \
  util_concurrency_test runtime_controller_test \
  util_failpoint_test chaos_stm_test chaos_serve_test chaos_runtime_test \
  net_wire_test net_loop_test net_server_test net_chaos_test \
  net_client_retry_test router_ring_test router_rebalancer_test \
  router_proxy_test router_link_test router_health_test \
  router_membership_test model_queue_test model_compose_test model_vs_des_test
for t in build-tsan/tests/stm_*_test build-tsan/tests/serve_*_test \
         build-tsan/tests/net_*_test build-tsan/tests/router_*_test \
         build-tsan/tests/model_*_test \
         build-tsan/tests/util_concurrency_test \
         build-tsan/tests/workloads_test \
         build-tsan/tests/runtime_controller_test \
         build-tsan/tests/util_failpoint_test build-tsan/tests/chaos_*_test; do
  echo "== tsan: $(basename "$t") =="
  "$t"
done

# The net and router tests exercise real sockets and cross-thread completion
# posting: run them under ASan+UBSan combined as well (the TSan pass above
# already covers them for races). The container conflict checkers join this
# pass because a copy-on-write bucket lives in a version body whose owner
# changes hands — writing transaction, parent, retire list, chain — while
# siblings and readers hold references into it: exactly ASan territory, and
# LeakSanitizer checks that every owner frees what it holds. So do the
# containers and workloads tests: TLog owns its segments through a raw
# pointer published by CAS, and the loser of a race frees its copy. The
# engine tests join too: workers parked above the top-level limit are woken
# and joined through their stop tokens at shutdown. The shard-link test
# joins as well: a flush posted before its link was destroyed must find the
# link gone, not freed memory. Every STM test joins as well: a transaction's
# read/write set is a flat vector with an index of positions into it, whose
# storage passes, cleared, to the next transaction begun on the same thread
# (a stale entry or index slot would read freed or foreign bodies); a
# read-only tree hands out chain bodies it never recorded; and transaction
# bodies are borrowed through util::FunctionRef, which must not outlive the
# callable (util_function_ref_test joins for that).
cmake --preset asan-ubsan
cmake --build build-asan-ubsan --target \
  net_wire_test net_loop_test net_server_test net_chaos_test \
  net_client_retry_test router_proxy_test router_link_test \
  router_membership_test \
  stm_basic_test stm_nesting_test stm_concurrency_test stm_containers_test \
  stm_property_test stm_commit_strategy_test stm_snapshot_registry_test \
  stm_commit_manager_test stm_stats_test \
  stm_conflict_unit_test stm_linearizability_test chaos_stm_test \
  util_function_ref_test workloads_test \
  model_queue_test model_compose_test model_vs_des_test \
  serve_engine_test chaos_serve_test
for t in build-asan-ubsan/tests/net_*_test \
         build-asan-ubsan/tests/serve_engine_test \
         build-asan-ubsan/tests/chaos_serve_test \
         build-asan-ubsan/tests/router_proxy_test \
         build-asan-ubsan/tests/router_link_test \
         build-asan-ubsan/tests/router_membership_test \
         build-asan-ubsan/tests/stm_*_test \
         build-asan-ubsan/tests/chaos_stm_test \
         build-asan-ubsan/tests/util_function_ref_test \
         build-asan-ubsan/tests/workloads_test \
         build-asan-ubsan/tests/model_*_test; do
  echo "== asan-ubsan: $(basename "$t") =="
  "$t"
done

# Chaos smoke: short randomized-failpoint soaks under both sanitizers. The
# soak exits nonzero on any accounting/consistency invariant violation, so a
# plain invocation is the assertion. --net fronts the engine with a
# NetServer and adds the wire response ledger to the checked invariants.
cmake --build build-asan-ubsan --target chaos_soak
cmake --build build-tsan --target chaos_soak
echo "== asan-ubsan: chaos_soak =="
build-asan-ubsan/bench/chaos_soak --seconds 3 --seed 1
echo "== tsan: chaos_soak =="
build-tsan/bench/chaos_soak --seconds 3 --seed 2
echo "== asan-ubsan: chaos_soak --net =="
build-asan-ubsan/bench/chaos_soak --net --seconds 3 --seed 3
echo "== tsan: chaos_soak --net =="
build-tsan/bench/chaos_soak --net --seconds 3 --seed 4
echo "== asan-ubsan: chaos_soak --router =="
build-asan-ubsan/bench/chaos_soak --router --seconds 3 --seed 5
echo "== tsan: chaos_soak --router =="
build-tsan/bench/chaos_soak --router --seconds 3 --seed 6

# Model-vs-DES smoke: the compositional model's fitting path validated
# against the discrete-event simulator at reduced probe set and short runs
# (the full stage runs unsanitized in the results loop below). Exits via the
# bench's own tables; any fit regression shows up as rank-correlation drift.
echo "== des_vs_analytical --smoke =="
build/bench/des_vs_analytical --smoke

# Loopback smoke: a real two-process serve/netload run over TCP. The server
# exits nonzero if the wire response ledger is inexact or the workload's
# transactional state fails verification; netload exits nonzero if nothing
# was answered.
echo "== loopback serve/netload smoke =="
portfile=$(mktemp)
build/tools/autopn serve --listen 127.0.0.1:0 --port-file "$portfile" \
  --duration 6 &
serve_pid=$!
for _ in $(seq 1 50); do [ -s "$portfile" ] && break; sleep 0.1; done
build/tools/autopn netload --port-file "$portfile" --rate 300 --duration 3 \
  --tenants 3
wait "$serve_pid"
rm -f "$portfile"

# Cluster smoke: the full distributed tier as separate processes — two
# `autopn serve --listen` shards, an `autopn router` fronting them, netload
# through the router. Every process asserts its own ledgers on exit.
echo "== cluster smoke: router + 2 shards over loopback =="
scripts/run_cluster.sh --smoke

# Elastic-membership smoke: the same tier with runtime admit/retire churned
# underneath live traffic via `router-ctl` — the admitted shard must pass
# probation into the ring and retire back out drop-free, with every ledger
# exact. Run once against the plain build and once with an ASan-built
# binary so the membership paths (link teardown, member finalize) get leak
# and use-after-free coverage in every full run.
echo "== cluster smoke: elastic membership churn =="
scripts/run_cluster.sh --smoke --elastic
cmake --build build-asan-ubsan --target autopn_cli
echo "== cluster smoke: elastic membership churn (asan-ubsan) =="
scripts/run_cluster.sh --smoke --elastic --build build-asan-ubsan

mkdir -p results
for bench in build/bench/*; do
  # Executable files only: build/bench also holds CMake's directories.
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "== $name =="
  if [ "$name" = micro_costs ]; then
    "$bench" --benchmark_min_time=0.1 | tee "results/$name.txt"
  else
    "$bench" | tee "results/$name.txt"
  fi
done
echo "outputs written to results/"
