#!/usr/bin/env bash
# Path smoke test: generates a 5-stage path workload with netgen, runs
# clarinet -path to a golden end-to-end report, then re-runs with a
# stage journal, SIGKILLs the run mid-path, resumes from the journal,
# and requires the resumed report to be byte-identical to the golden
# one — the stage-granular checkpoint/resume guarantee, end to end. It
# does this twice: once killed after the first stage record (pass 1),
# and once after more than 5 records, so the kill lands in pass 2,
# whose stages take their quiet chain from pass 1's records. Also
# sanity-decodes the stage journal with noiseblob.
#
# RACE=1 builds clarinet with the race detector (CI does).
set -euo pipefail
cd "$(dirname "$0")/.."

race=${RACE:+-race}
workdir=$(mktemp -d)
run_pid=""
cleanup() {
  [ -n "$run_pid" ] && kill "$run_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build $race -o "$workdir/clarinet" ./cmd/clarinet
go build -o "$workdir/netgen" ./cmd/netgen
go build -o "$workdir/noiseblob" ./cmd/noiseblob

"$workdir/clarinet" -version

echo "== workload (1 path x 5 stages)"
"$workdir/netgen" -topology path -n 1 -stages 5 -seed 23 -o "$workdir/paths.json" >/dev/null

echo "== golden run"
"$workdir/clarinet" -path -i "$workdir/paths.json" \
  -path-report "$workdir/golden.json" >/dev/null 2>&1
[ -s "$workdir/golden.json" ] || { echo "golden report missing" >&2; exit 1; }

# killed_run NAME MIN runs a journaled path run into NAME.journal,
# SIGKILLs it once its journal decodes to at least MIN whole stage
# records (size alone could be a half-written frame), resumes from the
# journal, and requires the resumed report to equal the golden one.
killed_run() {
  local name=$1 min=$2
  echo "== journaled run, SIGKILL after $min stage record(s)"
  "$workdir/clarinet" -path -i "$workdir/paths.json" \
    -journal "$workdir/$name.journal" \
    -path-report "$workdir/$name-killed.json" >/dev/null 2>&1 &
  run_pid=$!
  for _ in $(seq 1 1200); do
    n=$("$workdir/noiseblob" dump "$workdir/$name.journal" 2>/dev/null | wc -l) || n=0
    [ "$n" -ge "$min" ] && break
    kill -0 "$run_pid" 2>/dev/null || break
    sleep 0.05
  done
  if kill -0 "$run_pid" 2>/dev/null; then
    kill -KILL "$run_pid"
    wait "$run_pid" 2>/dev/null || true
    run_pid=""
    [ ! -s "$workdir/$name-killed.json" ] ||
      { echo "SIGKILLed run still wrote its report" >&2; exit 1; }
    n=$("$workdir/noiseblob" dump "$workdir/$name.journal" 2>/dev/null | wc -l) || n=0
    echo "   killed with $n whole stage record(s) journaled"
  else
    # The run won the race and finished; its journal still drives resume.
    wait "$run_pid" 2>/dev/null || true
    run_pid=""
    echo "   the run finished before the kill"
  fi
  [ -s "$workdir/$name.journal" ] ||
    { echo "no stage record reached the journal" >&2; exit 1; }

  echo "== resume from the stage journal"
  "$workdir/clarinet" -path -i "$workdir/paths.json" \
    -resume "$workdir/$name.journal" \
    -path-report "$workdir/$name-resumed.json" >/dev/null 2>"$workdir/$name-resume.log"
  grep -q "resuming:" "$workdir/$name-resume.log" ||
    { echo "resume adopted no stage records" >&2; cat "$workdir/$name-resume.log" >&2; exit 1; }

  echo "== byte-identity: resumed report == golden report"
  cmp "$workdir/golden.json" "$workdir/$name-resumed.json" ||
    { echo "resumed path report differs from the golden run" >&2; exit 1; }
}

# The path has 5 stages, so a journal past 5 records is in pass 2.
killed_run run 1
killed_run pass2 6

echo "== noiseblob decodes the stage journal"
n=$("$workdir/noiseblob" dump "$workdir/run.journal" | wc -l)
[ "$n" -ge 1 ] || { echo "noiseblob decoded no stage records" >&2; exit 1; }
echo "   $n stage records"

echo "== ok"
