#!/usr/bin/env bash
# Cluster smoke test: boots three noised replicas and a noisegw gateway
# on ephemeral ports, runs a golden single-replica report first, then
# drives the same workload through the gateway while SIGKILLing one
# actively-streaming replica mid-batch. The gateway must reshard the
# dead replica's nets onto the survivors (gw.reshards >= 1) and the
# merged report must be byte-identical to the golden run, and no shard
# stream may have stalled: a SIGKILL shows up as a torn stream, while a
# stall means the gateway's watchdog cut a replica that was still
# working. On any failure the script prints the gateway's gw.* counters.
#
# RACE=1 builds the gateway and replicas with the race detector (CI does).
set -euo pipefail
cd "$(dirname "$0")/.."

race=${RACE:+-race}
workdir=$(mktemp -d)
pids=()
gw=""
cleanup() {
  rc=$?
  if [ "$rc" -ne 0 ] && [ -n "$gw" ]; then
    echo "== gateway counters at failure (exit $rc)" >&2
    curl -fsS "$gw/metrics" 2>/dev/null | grep '"gw\.' >&2 ||
      echo "   (gateway /metrics unreachable)" >&2
  fi
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build $race -o "$workdir/noised" ./cmd/noised
go build $race -o "$workdir/noisegw" ./cmd/noisegw
go build -o "$workdir/noisectl" ./cmd/noisectl
go build -o "$workdir/netgen" ./cmd/netgen

"$workdir/noisegw" -version

echo "== workload"
"$workdir/netgen" -n 12 -seed 11 -o "$workdir/nets.json" >/dev/null

# wait_addr FILE PID NAME — block until a daemon writes its bound address.
wait_addr() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    kill -0 "$2" 2>/dev/null || { echo "$3 died during boot" >&2; exit 1; }
    sleep 0.1
  done
  echo "$3 never wrote $1" >&2
  exit 1
}

echo "== boot 3 replicas"
replica_args=()
for i in 1 2 3; do
  : >"$workdir/addr$i"
  "$workdir/noised" -addr 127.0.0.1:0 -addr-file "$workdir/addr$i" &
  pids+=($!)
  eval "replica${i}_pid=$!"
  wait_addr "$workdir/addr$i" "$!" "replica $i"
  replica_args+=(-replica "http://$(cat "$workdir/addr$i")")
  echo "   replica $i: $(cat "$workdir/addr$i") (pid $!)"
done

echo "== golden run (replica 1, direct)"
"$workdir/noisectl" -server "http://$(cat "$workdir/addr1")" -i "$workdir/nets.json" |
  sed '/^analyzed /d' | sort > "$workdir/golden.txt"
[ -s "$workdir/golden.txt" ] || { echo "golden run produced no report" >&2; exit 1; }

echo "== boot gateway"
: >"$workdir/gwaddr"
"$workdir/noisegw" "${replica_args[@]}" -addr 127.0.0.1:0 -addr-file "$workdir/gwaddr" \
  -probe-interval 250ms -stall-timeout 10s &
gw_pid=$!
pids+=("$gw_pid")
wait_addr "$workdir/gwaddr" "$gw_pid" "noisegw"
gw="http://$(cat "$workdir/gwaddr")"
echo "   gateway: $gw"

curl -fsS "$gw/healthz" >/dev/null
curl -fsS "$gw/readyz" >/dev/null

# gw_counter NAME — read one counter from the gateway /metrics (0 when absent).
gw_counter() {
  curl -fsS "$gw/metrics" |
    sed -n "s/^ *\"$1\": *\([0-9][0-9]*\),*$/\1/p" | head -n1 | grep . || echo 0
}

# busy_replica — print the index of a replica actively streaming a shard.
busy_replica() {
  for i in 1 2 3; do
    inflight=$(curl -fsS "http://$(cat "$workdir/addr$i")/metrics" |
      sed -n 's/^ *"server\.inflight": *\([0-9][0-9]*\),*$/\1/p' | head -n1)
    if [ "${inflight:-0}" -ge 1 ]; then
      echo "$i"
      return 0
    fi
  done
  return 1
}

echo "== scatter-gather run with a mid-stream SIGKILL"
"$workdir/noisectl" -server "$gw" -i "$workdir/nets.json" -progress \
  > "$workdir/merged-raw.txt" 2> "$workdir/progress.log" &
ctl_pid=$!

# Wait until the stream is demonstrably in flight (some nets done, at
# least one replica mid-shard), then SIGKILL that replica — no drain,
# no goodbye.
victim=""
for _ in $(seq 1 300); do
  kill -0 "$ctl_pid" 2>/dev/null || break
  if grep -q "done" "$workdir/progress.log" 2>/dev/null && victim=$(busy_replica); then
    break
  fi
  sleep 0.1
done
if [ -n "$victim" ]; then
  victim_pid=$(eval echo "\$replica${victim}_pid")
  echo "   SIGKILL replica $victim (pid $victim_pid) mid-stream"
  kill -9 "$victim_pid"
else
  echo "   stream finished before a victim could be chosen" >&2
  exit 1
fi

wait "$ctl_pid" || { echo "noisectl failed against the gateway" >&2; cat "$workdir/progress.log" >&2; exit 1; }

echo "== merged report must be byte-identical to the golden run"
sed '/^analyzed /d' "$workdir/merged-raw.txt" | sort > "$workdir/merged.txt"
diff "$workdir/golden.txt" "$workdir/merged.txt" ||
  { echo "merged report diverges from the single-replica golden run" >&2; exit 1; }

echo "== gateway must have resharded off the dead replica"
reshards=$(gw_counter 'gw\.reshards')
[ "$reshards" -ge 1 ] || { echo "gw.reshards = $reshards, want >= 1" >&2; exit 1; }
merged=$(gw_counter 'gw\.nets\.merged')
[ "$merged" -ge 12 ] || { echo "gw.nets.merged = $merged, want >= 12" >&2; exit 1; }

echo "== no shard stream may have stalled"
stalled=$(gw_counter 'gw\.shard\.stalled')
[ "$stalled" -eq 0 ] || { echo "gw.shard.stalled = $stalled, want 0: the watchdog cut a live replica" >&2; exit 1; }

echo "== health reflects the dead replica"
curl -fsS "$gw/healthz" | grep -q '"degraded"\|"healthy": *false' ||
  echo "   (replica not yet marked unhealthy; probe may lag)"

echo "== graceful drain"
kill -TERM "$gw_pid"
wait "$gw_pid" || { echo "noisegw exited non-zero on SIGTERM" >&2; exit 1; }
echo "== ok (resharded $reshards time(s), merged $merged nets)"
