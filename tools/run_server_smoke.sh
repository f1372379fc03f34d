#!/usr/bin/env bash
# End-to-end exercise of the alignment service daemon (DESIGN.md §11):
#   1. start the daemon on a Unix socket and wait for it to answer pings,
#   2. fire concurrent submits, one of which is a _CRASH fault request —
#      the faulting request must get a typed CRASH response and the daemon
#      must keep serving everyone else,
#   3. resubmit an identical align request and assert it is answered from
#      the content-addressed cache, at least 10x faster than the cold run,
#   4. stop the daemon with a shutdown request.
#
# Usage: tools/run_server_smoke.sh [path-to-graphalign-binary]
set -euo pipefail

source "$(dirname "$0")/daemon_lib.sh"

TOOL="${1:-build/src/cli/graphalign}"
if [[ ! -x "$TOOL" ]]; then
  echo "graphalign binary not found: $TOOL (build it first)" >&2
  exit 1
fi

WORK="$(mktemp -d)"
# Unix socket paths are capped at ~107 bytes; mktemp -d under /tmp is short.
SOCK="$WORK/ga.sock"
DAEMON_PID=""
cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2> /dev/null; then
    kill "$DAEMON_PID" 2> /dev/null || true
    wait "$DAEMON_PID" 2> /dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== 0/4 generate a graph pair =="
"$TOOL" generate --model er --n 300 --p 0.05 --seed 7 --out "$WORK/g1.txt"
"$TOOL" perturb --in "$WORK/g1.txt" --noise one-way --level 0.05 --seed 8 \
  --out "$WORK/g2.txt"

echo "== 1/4 start the daemon =="
"$TOOL" serve --socket "$SOCK" --workers 4 --cache-mb 16 \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

wait_for_daemon "$TOOL" "$SOCK" "$DAEMON_PID" "$WORK/daemon.log" \
  "daemon never came up (or died during startup):" || exit 1

echo "== 2/4 concurrent submits with a crashing request =="
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo NSD > "$WORK/align_a.out" &
A=$!
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo _CRASH > "$WORK/crash.out" 2> "$WORK/crash.err" &
C=$!
"$TOOL" submit --socket "$SOCK" --stats "$WORK/g1.txt" \
  > "$WORK/stats.out" &
S=$!

wait "$A" || { echo "concurrent NSD align failed" >&2; exit 1; }
crash_rc=0
wait "$C" || crash_rc=$?
wait "$S" || { echo "concurrent stats failed" >&2; exit 1; }

# The fault request must come back as a typed CRASH (exit code 4), not as a
# dead daemon or a generic failure.
if [[ "$crash_rc" != 4 ]] || ! grep -q "status=CRASH" "$WORK/crash.out"; then
  echo "expected a typed CRASH response (rc=4), got rc=$crash_rc:" >&2
  cat "$WORK/crash.out" "$WORK/crash.err" >&2
  exit 1
fi
kill -0 "$DAEMON_PID" 2> /dev/null || {
  echo "daemon died after the _CRASH request:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
grep -q "hash=" "$WORK/stats.out" || {
  echo "stats response missing content hash" >&2; exit 1; }
echo "daemon survived a crashing alignment; concurrent requests served"

echo "== 3/4 cache hit on an identical resubmit =="
# The first NSD align above populated the cache; run a fresh cold align of a
# *different* pair orientation to time the uncached path, then resubmit the
# original request and require a cache hit >= 10x faster (server-side time).
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo NSD --no-cache > "$WORK/cold.out"
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo NSD > "$WORK/warm.out"

grep -q "cache=miss" "$WORK/cold.out" || {
  echo "--no-cache run unexpectedly hit the cache:" >&2
  cat "$WORK/cold.out" >&2
  exit 1
}
grep -q "status=OK cache=hit" "$WORK/warm.out" || {
  echo "identical resubmit was not served from the cache:" >&2
  cat "$WORK/warm.out" >&2
  exit 1
}
cold_us="$(sed -n 's/.*elapsed_us=\([0-9]*\).*/\1/p' "$WORK/cold.out" | head -1)"
warm_us="$(sed -n 's/.*elapsed_us=\([0-9]*\).*/\1/p' "$WORK/warm.out" | head -1)"
if [[ -z "$cold_us" || -z "$warm_us" ]]; then
  echo "could not extract elapsed_us from submit output" >&2
  exit 1
fi
if (( warm_us == 0 )); then warm_us=1; fi
if (( cold_us < 10 * warm_us )); then
  echo "cache hit not >=10x faster: cold=${cold_us}us warm=${warm_us}us" >&2
  exit 1
fi
echo "cache hit: cold=${cold_us}us warm=${warm_us}us ($((cold_us / warm_us))x)"
"$TOOL" submit --socket "$SOCK" --cache-info

echo "== 4/4 shutdown request stops the daemon =="
"$TOOL" submit --socket "$SOCK" --shutdown > /dev/null
for _ in $(seq 1 50); do
  kill -0 "$DAEMON_PID" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2> /dev/null; then
  echo "daemon ignored the shutdown request" >&2
  exit 1
fi
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
grep -q "daemon stopped" "$WORK/daemon.log" || {
  echo "daemon log missing clean-stop line:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}

echo "server smoke test passed"
