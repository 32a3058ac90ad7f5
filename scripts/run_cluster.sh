#!/usr/bin/env bash
# run_cluster.sh — multi-process serving cluster on loopback TCP: N `autopn
# serve --listen` shard processes, one `autopn router` fronting them by
# consistent hash, and an `autopn netload` client offering open-loop traffic
# through the router.
#
# Every process asserts its own ledgers on exit: shards exit nonzero if the
# wire response ledger is inexact or transactional state fails verification,
# the router exits nonzero if its forwarding ledger (dispatched == forwarded +
# shed_local, forwarded == returned) or its own wire ledger is inexact, and
# netload exits nonzero if nothing was answered. The script fails if any
# process fails, so a plain invocation is the end-to-end assertion.
#
#   scripts/run_cluster.sh [--smoke] [--elastic] [--shards N] [--duration S]
#                          [--rate R] [--tenants N] [--build DIR]
#
# --smoke: short fixed-parameter run for CI (2 shards, ~4 s wall clock).
# --elastic: exercise runtime membership under load — an extra shard is
#   started and admitted through `router-ctl add` (the script asserts it
#   passes probation and joins the ring), then retired through `router-ctl
#   remove` (asserting the member table shrinks back), all while netload
#   keeps offering traffic. Without --smoke the script also acts on the
#   router's scale recommendation (--scale-file) once, like a tiny
#   autoscaler. Ledger exactness across all this churn is the point.
set -euo pipefail
cd "$(dirname "$0")/.."

shards=2
duration=10
rate=500
tenants=8
build=build
smoke=0
elastic=0
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=1; shards=2; duration=4; rate=400; tenants=8 ;;
    --elastic) elastic=1 ;;
    --shards) shards=$2; shift ;;
    --duration) duration=$2; shift ;;
    --rate) rate=$2; shift ;;
    --tenants) tenants=$2; shift ;;
    --build) build=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

autopn="$build/tools/autopn"
if [ ! -x "$autopn" ]; then
  echo "run_cluster: $autopn not built (cmake --build $build --target autopn_cli)" >&2
  exit 2
fi

workdir=$(mktemp -d)
pids=()
cleanup() {
  # Best-effort teardown on early exit; a clean run has already waited.
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

wait_for_port_file() {
  for _ in $(seq 1 100); do [ -s "$1" ] && return 0; sleep 0.1; done
  echo "run_cluster: timed out waiting for $1" >&2
  return 1
}

# Shards first: each picks an ephemeral port and publishes it via port-file.
# They serve a little longer than the client offers so the router's drain
# never races a shard teardown.
shard_args=()
for s in $(seq 1 "$shards"); do
  portfile="$workdir/shard$s.port"
  "$autopn" serve --listen 127.0.0.1:0 --port-file "$portfile" \
    --duration "$((duration + 4))" &
  pids+=($!)
  shard_args+=(--shard-port-file "$portfile")
done
for s in $(seq 1 "$shards"); do
  wait_for_port_file "$workdir/shard$s.port"
done

# Router fronts the shards; outlives the client by a grace window too.
router_port="$workdir/router.port"
router_args=()
if [ "$elastic" = 1 ]; then
  router_args+=(--scale-file "$workdir/scale")
fi
"$autopn" router --listen 127.0.0.1:0 --port-file "$router_port" \
  "${shard_args[@]}" --duration "$((duration + 2))" "${router_args[@]}" &
pids+=($!)
wait_for_port_file "$router_port"

echo "run_cluster: $shards shard(s) + router up, offering ${rate} req/s" \
  "for ${duration}s across $tenants tenants"

if [ "$elastic" = 0 ]; then
  "$autopn" netload --port-file "$router_port" --rate "$rate" \
    --duration "$duration" --tenants "$tenants"
else
  # Traffic runs in the background while membership churns underneath it.
  "$autopn" netload --port-file "$router_port" --rate "$rate" \
    --duration "$duration" --tenants "$tenants" &
  pids+=($!)

  member_rows() {
    "$autopn" router-ctl status --port-file "$router_port" | grep -c '^[0-9]'
  }
  ring_state() {  # $1 = shard id -> yes/NO (column 4 of the member table)
    "$autopn" router-ctl status --port-file "$router_port" \
      | awk -v id="$1" '$1 == id {print $4}'
  }
  spawn_shard() {  # $1 = port file; serves past the router's lifetime
    "$autopn" serve --listen 127.0.0.1:0 --port-file "$1" \
      --duration "$((duration + 3))" &
    pids+=($!)
    wait_for_port_file "$1"
  }

  # Admit an extra shard mid-traffic and require it to earn ring arcs
  # through probation.
  extra_id=$shards
  extra_port="$workdir/shard_extra.port"
  sleep 1
  spawn_shard "$extra_port"
  "$autopn" router-ctl add --port-file "$router_port" \
    --shard-id "$extra_id" --shard-port-file "$extra_port"
  joined=0
  for _ in $(seq 1 50); do
    [ "$(ring_state "$extra_id")" = "yes" ] && { joined=1; break; }
    sleep 0.2
  done
  if [ "$joined" != 1 ]; then
    echo "run_cluster: admitted shard $extra_id never joined the ring" >&2
    exit 1
  fi
  if [ "$(member_rows)" -ne "$((shards + 1))" ]; then
    echo "run_cluster: expected $((shards + 1)) members after admit" >&2
    exit 1
  fi
  echo "run_cluster: shard $extra_id admitted and joined the ring (probation passed)"

  # Retire it again while traffic continues; the member table must shrink.
  sleep 1
  "$autopn" router-ctl remove --port-file "$router_port" --shard-id "$extra_id"
  gone=0
  for _ in $(seq 1 50); do
    [ "$(member_rows)" -eq "$shards" ] && { gone=1; break; }
    sleep 0.2
  done
  if [ "$gone" != 1 ]; then
    echo "run_cluster: retired shard $extra_id never left the member table" >&2
    exit 1
  fi
  echo "run_cluster: shard $extra_id retired drop-free (membership back to $shards)"

  # Act once on the rebalancer's capacity recommendation (skipped in smoke
  # runs to keep CI deterministic).
  if [ "$smoke" = 0 ] && [ -s "$workdir/scale" ]; then
    recommendation=$(cat "$workdir/scale")
    case "$recommendation" in
      add)
        scale_port="$workdir/shard_scale.port"
        spawn_shard "$scale_port"
        "$autopn" router-ctl add --port-file "$router_port" \
          --shard-id "$((shards + 1))" --shard-port-file "$scale_port"
        echo "run_cluster: autoscaler acted on 'add' (admitted shard $((shards + 1)))"
        ;;
      remove\ *)
        victim=${recommendation#remove }
        "$autopn" router-ctl remove --port-file "$router_port" --shard-id "$victim"
        echo "run_cluster: autoscaler acted on 'remove $victim'"
        ;;
      *)
        echo "run_cluster: scale recommendation '$recommendation' — holding"
        ;;
    esac
  fi
fi

failures=0
for pid in "${pids[@]}"; do
  wait "$pid" || failures=$((failures + 1))
done
pids=()
if [ "$failures" -ne 0 ]; then
  echo "run_cluster: $failures process(es) reported ledger/verification failures"
  exit 1
fi
echo "run_cluster: all ledgers exact across $((shards + 1)) processes"
