#!/usr/bin/env bash
# Server smoke test: boots noised on an ephemeral port, drives it with
# noisectl over a netgen workload, checks the warm-session guarantee
# (the second request must rebuild zero alignment tables and
# recharacterize zero drivers, and after a restart the warm store must
# serve the tables and both characterization memos), exercises the
# version flag, and verifies graceful drain on SIGTERM.
#
# RACE=1 builds the daemon with the race detector (CI does).
set -euo pipefail
cd "$(dirname "$0")/.."

race=${RACE:+-race}
workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build $race -o "$workdir/noised" ./cmd/noised
go build -o "$workdir/noisectl" ./cmd/noisectl
go build -o "$workdir/netgen" ./cmd/netgen

"$workdir/noised" -version
"$workdir/noisectl" -version

echo "== workload"
"$workdir/netgen" -n 2 -seed 11 -o "$workdir/nets.json" >/dev/null

boot() {
  : >"$workdir/addr"
  "$workdir/noised" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    -journal-dir "$workdir/journals" -warm-store "$workdir/wstore" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$workdir/addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "noised died during boot" >&2; exit 1; }
    sleep 0.1
  done
  [ -s "$workdir/addr" ] || { echo "noised never wrote $workdir/addr" >&2; exit 1; }
  base="http://$(cat "$workdir/addr")"
  echo "   $base"
}

echo "== boot"
boot

curl -fsS "$base/healthz" >/dev/null
curl -fsS "$base/readyz" >/dev/null

# counter NAME — read one counter or gauge from /metrics (0 when
# absent).
counter() {
  curl -fsS "$base/metrics" |
    sed -n "s/^ *\"$1\": *\([0-9][0-9]*\),*$/\1/p" | head -n1 | grep . || echo 0
}

# The warm check compares these misses, and the gauges of resident
# cache entries, before and after a repeated request. A series that is
# absent reads 0 on both sides, so each cold value must be positive: a
# renamed series fails here instead of passing unchecked. (Each
# analysis runs its own noiseless holding-resistance drive, so a warm
# request reruns those by design.)
warm_counters='cache.tables.miss cache.char.full.miss cache.tables.entries cache.char.rough.entries cache.char.full.entries'

echo "== cold request"
"$workdir/noisectl" -server "$base" -i "$workdir/nets.json" -quality -request-id smoke-1
declare -A cold
for c in $warm_counters; do
  cold[$c]=$(counter "${c//./\\.}")
  [ "${cold[$c]}" -gt 0 ] || { echo "cold request left $c at 0" >&2; exit 1; }
done

echo "== warm request (expect zero recharacterization)"
"$workdir/noisectl" -server "$base" -i "$workdir/nets.json" -quality
for c in $warm_counters; do
  warm=$(counter "${c//./\\.}")
  if [ "$warm" != "${cold[$c]}" ]; then
    echo "warm request recharacterized: $c ${cold[$c]} -> $warm" >&2
    exit 1
  fi
done

echo "== colblob wire variant (decoded values identical to NDJSON)"
# The trailing "analyzed N nets in <elapsed>" line is timing-dependent;
# compare only the report table.
"$workdir/noisectl" -server "$base" -i "$workdir/nets.json" -quality -wire colblob |
  sed '/^analyzed /d' > "$workdir/report-colblob.txt"
"$workdir/noisectl" -server "$base" -i "$workdir/nets.json" -quality |
  sed '/^analyzed /d' > "$workdir/report-ndjson.txt"
diff "$workdir/report-colblob.txt" "$workdir/report-ndjson.txt" ||
  { echo "colblob wire decoded to a different report" >&2; exit 1; }

echo "== journal resume"
[ -s "$workdir/journals/smoke-1.journal" ] || { echo "request journal missing" >&2; exit 1; }
"$workdir/noisectl" -server "$base" -i "$workdir/nets.json" -request-id smoke-1 |
  grep -q "2 resumed" || { echo "resubmitted request_id did not resume" >&2; exit 1; }

echo "== graceful drain (saves the warm store)"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "noised exited non-zero on SIGTERM" >&2; exit 1; }
daemon_pid=""
ls "$workdir/wstore"/*.warm >/dev/null 2>&1 ||
  { echo "drain left no warm-store entry" >&2; exit 1; }

echo "== restart warm (expect store hit, zero recharacterization)"
boot
store_hits=$(counter 'store\.hits')
[ "$store_hits" -ge 1 ] || { echo "restarted daemon missed the warm store" >&2; exit 1; }
# The alignment tables and both characterization memos must serve the
# repeated request from the loaded entry: no miss moves, and each memo
# hits (so a memo that failed to load cannot pass by missing nothing).
restart_misses='cache.tables.miss cache.char.rough.miss cache.char.full.miss'
declare -A before
for c in $restart_misses; do
  before[$c]=$(counter "${c//./\\.}")
done
"$workdir/noisectl" -server "$base" -i "$workdir/nets.json" -quality
for c in $restart_misses; do
  after=$(counter "${c//./\\.}")
  if [ "$after" != "${before[$c]}" ]; then
    echo "restarted daemon recomputed what its warm store holds:" \
         "$c ${before[$c]} -> $after" >&2
    exit 1
  fi
done
for c in cache.char.rough.hit cache.char.full.hit; do
  hits=$(counter "${c//./\\.}")
  [ "$hits" -gt 0 ] || { echo "restarted daemon left $c at 0: the warm characterizations did not load" >&2; exit 1; }
done
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "noised exited non-zero on SIGTERM" >&2; exit 1; }
daemon_pid=""
echo "== ok"
