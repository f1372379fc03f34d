#!/usr/bin/env bash
# Overload/chaos walkthrough of the hardened daemon (DESIGN.md §14):
#   1. a daemon with the durable cache, shedding, and quarantine enabled —
#      plus probabilistic failpoints in the request and cache-append paths —
#      takes a mixed hit/miss/poison closed-loop load from tools/loadgen.
#      Every response must be typed (zero transport errors), the daemon must
#      outlive the run, and the poison mix must trip at least one quarantine.
#   2. deterministic quarantine: the same _CRASH signature three times is
#      three typed CRASHes; the fourth submit exits 10 (QUARANTINED) without
#      a fork.
#   3. warm restart: SIGTERM-drain a daemon whose cache log holds a result,
#      restart on the same --cache-dir, and the identical resubmit must be a
#      cache hit with zero corrupt-record crashes.
#   4. deterministic shed + watchdog: a non-cooperative _HANG occupies the
#      single worker until the watchdog SIGKILLs it past deadline + grace;
#      the NSD request queued behind it has outwaited its own deadline and
#      exits 9 (SHED) instead of forking guaranteed-late work.
#
# Usage: tools/run_loadtest.sh [graphalign-binary] [loadgen-binary] [--full]
#   --full runs the larger load profile (more clients/requests) and is what
#   produced the checked-in BENCH_loadgen.json; the default is a short smoke
#   profile suitable for ctest.
set -euo pipefail

source "$(dirname "$0")/daemon_lib.sh"

TOOL="${1:-build/src/cli/graphalign}"
LOADGEN="${2:-build/src/loadgen}"
PROFILE="${3:-}"
for bin in "$TOOL" "$LOADGEN"; do
  if [[ ! -x "$bin" ]]; then
    echo "binary not found: $bin (build it first)" >&2
    exit 1
  fi
done

CLIENTS=4
REQUESTS=25
if [[ "$PROFILE" == "--full" ]]; then
  CLIENTS=8
  REQUESTS=100
fi

WORK="$(mktemp -d)"
SOCK="$WORK/ga.sock"
DAEMON_PID=""
cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2> /dev/null; then
    kill -9 "$DAEMON_PID" 2> /dev/null || true
    wait "$DAEMON_PID" 2> /dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# Waits for the daemon on $SOCK (tools/daemon_lib.sh).
wait_ready() {
  wait_for_daemon "$TOOL" "$SOCK" "$DAEMON_PID" "$WORK/daemon.log" \
    "daemon never came up (or died during startup):"
}

stop_daemon_sigterm() {
  kill -TERM "$DAEMON_PID"
  for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2> /dev/null || break
    sleep 0.1
  done
  if kill -0 "$DAEMON_PID" 2> /dev/null; then
    echo "daemon did not drain on SIGTERM" >&2
    cat "$WORK/daemon.log" >&2
    return 1
  fi
  wait "$DAEMON_PID" 2> /dev/null || true
  DAEMON_PID=""
}

echo "== 0/4 generate a graph pair =="
"$TOOL" generate --model er --n 60 --p 0.1 --seed 7 --out "$WORK/g1.txt"
"$TOOL" perturb --in "$WORK/g1.txt" --noise one-way --level 0.05 --seed 8 \
  --out "$WORK/g2.txt"

echo "== 1/4 chaos load: typed answers only, daemon outlives the run =="
GRAPHALIGN_FAILPOINTS="server.request.error=prob:0.05,server.cache.append.error=prob:0.2" \
  "$TOOL" serve --socket "$SOCK" --workers 4 --cache-mb 16 \
  --cache-dir "$WORK/cache_a" --shed --quarantine 3 \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_ready

lg_rc=0
"$LOADGEN" --socket "$SOCK" --clients "$CLIENTS" --requests "$REQUESTS" \
  --mix hit:5,miss:3,degraded:1,poison:1 --seed 42 --deadline-ms 5000 \
  --json "$WORK/loadgen.json" > "$WORK/loadgen.out" 2>&1 || lg_rc=$?
cat "$WORK/loadgen.out"
if [[ "$lg_rc" != 0 ]]; then
  echo "loadgen saw transport errors — the daemon dropped clients" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
fi
kill -0 "$DAEMON_PID" 2> /dev/null || {
  echo "daemon died under load:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --stats > "$WORK/stats.out"
cat "$WORK/stats.out"
grep -q "signatures=0" "$WORK/stats.out" && {
  echo "poison mix never tripped the quarantine:" >&2
  cat "$WORK/stats.out" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --shutdown > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
echo "chaos load served typed; quarantine tripped under the poison mix"

echo "== 2/4 deterministic quarantine at the threshold =="
"$TOOL" serve --socket "$SOCK" --workers 2 --cache-dir "$WORK/cache_b" \
  --quarantine 3 > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_ready
for i in 1 2 3; do
  rc=0
  "$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
    --algo _CRASH > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 4 ]]; then
    echo "crash #$i: expected typed CRASH (rc=4), got rc=$rc" >&2
    exit 1
  fi
done
rc=0
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo _CRASH > "$WORK/q.out" 2> "$WORK/q.err" || rc=$?
if [[ "$rc" != 10 ]] || ! grep -q "status=QUARANTINED" "$WORK/q.out"; then
  echo "expected QUARANTINED (rc=10) at the threshold, got rc=$rc:" >&2
  cat "$WORK/q.out" "$WORK/q.err" >&2
  exit 1
fi
echo "three typed CRASHes, then QUARANTINED without a fork"

echo "== 3/4 SIGTERM, restart on the same --cache-dir: warm cache =="
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo NSD > "$WORK/cold.out"
grep -q "cache=miss" "$WORK/cold.out" || {
  echo "pre-restart align unexpectedly warm:" >&2
  cat "$WORK/cold.out" >&2
  exit 1
}
stop_daemon_sigterm

"$TOOL" serve --socket "$SOCK" --workers 2 --cache-dir "$WORK/cache_b" \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_ready
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo NSD > "$WORK/warm.out"
grep -q "status=OK cache=hit" "$WORK/warm.out" || {
  echo "restart did not come back warm from the cache log:" >&2
  cat "$WORK/warm.out" "$WORK/daemon.log" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --stats > "$WORK/stats.out"
grep -q "crc_skipped=0 truncated_bytes=0" "$WORK/stats.out" || {
  echo "clean shutdown left a damaged cache log:" >&2
  cat "$WORK/stats.out" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --shutdown > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
echo "restart replayed the durable log: identical resubmit was a cache hit"

echo "== 4/4 watchdog kills a hung fork; queued request is shed =="
"$TOOL" serve --socket "$SOCK" --workers 1 --shed --grace 1 \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_ready
# _HANG ignores its cooperative 1s deadline; the watchdog SIGKILLs it at
# deadline + grace (~2s). The NSD behind it waits that long in the queue
# with a 300ms deadline, so shedding answers it with a typed SHED.
hang_rc=0
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo _HANG --time-limit 1 > "$WORK/hang.out" 2> "$WORK/hang.err" &
HANG=$!
sleep 0.4  # Let the hang occupy the single worker.
shed_rc=0
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo NSD --time-limit 0.3 > "$WORK/shed.out" 2> "$WORK/shed.err" || shed_rc=$?
wait "$HANG" || hang_rc=$?
if [[ "$shed_rc" != 9 ]] || ! grep -q "status=SHED" "$WORK/shed.out"; then
  echo "expected SHED (rc=9) for the queued request, got rc=$shed_rc:" >&2
  cat "$WORK/shed.out" "$WORK/shed.err" "$WORK/daemon.log" >&2
  exit 1
fi
if [[ "$hang_rc" != 1 ]] || ! grep -q "watchdog" "$WORK/hang.err"; then
  echo "expected a watchdog-kill ERROR for _HANG, got rc=$hang_rc:" >&2
  cat "$WORK/hang.out" "$WORK/hang.err" "$WORK/daemon.log" >&2
  exit 1
fi
"$TOOL" submit --socket "$SOCK" --stats > "$WORK/stats.out"
grep -q "watchdog_kills=0" "$WORK/stats.out" && {
  echo "watchdog kill not counted:" >&2
  cat "$WORK/stats.out" >&2
  exit 1
}
stop_daemon_sigterm
echo "watchdog killed the hung fork; the stale queued request was shed"

echo "load test passed"
