#!/usr/bin/env bash
# End-to-end exercise of the durable async job subsystem (DESIGN.md §17),
# including a real kill -9 mid-execution:
#   1. serve --jobs-dir --http-port with the jobs.exec.delay failpoint
#      armed, so a claimed job sits in RUNNING long enough to murder the
#      daemon; the async submit goes over raw HTTP (bash /dev/tcp) and
#      must answer 202 with a 16-hex job id,
#   2. kill -9 the daemon while the job is RUNNING, restart it on the same
#      --jobs-dir: recovery must re-enqueue the interrupted job
#      (jobs recovered=1) and run it to DONE,
#   3. resubmitting with the same idempotency key must return the original
#      job id marked (existing), exit 13, and must not execute anything
#      (the executions counter does not move),
#   4. `jobs result --out` must write a mapping byte-identical to a
#      synchronous `submit --out` of the same pair — a crash between
#      submission and completion is invisible in the answer.
#
# Usage: tools/run_jobs_smoke.sh [graphalign-binary]
set -euo pipefail

source "$(dirname "$0")/daemon_lib.sh"

TOOL="${1:-build/src/cli/graphalign}"
if [[ ! -x "$TOOL" ]]; then
  echo "graphalign binary not found: $TOOL (build it first)" >&2
  exit 1
fi
TOOL="$(cd "$(dirname "$TOOL")" && pwd)/$(basename "$TOOL")"

WORK="$(mktemp -d)"
STORE="$WORK/store"
JOBS="$WORK/jobs"
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

# http METHOD TARGET [BODY-FILE] -> whole raw response on stdout.
http() {
  local method="$1" target="$2" body="${3:-}"
  exec 3<> "/dev/tcp/127.0.0.1/$HTTP_PORT"
  if [[ -n "$body" ]]; then
    local len
    len="$(wc -c < "$body")"
    {
      printf '%s %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n' \
        "$method" "$target"
      printf 'Content-Type: application/json\r\nContent-Length: %s\r\n\r\n' \
        "$len"
      cat "$body"
    } >&3
  else
    printf '%s %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' \
      "$method" "$target" >&3
  fi
  cat <&3
  exec 3<&- 3>&-
}

expect_status() {  # expect_status FILE CODE WHAT
  head -1 "$1" | grep -q "HTTP/1.1 $2 " || {
    echo "$3: expected HTTP $2, got: $(head -1 "$1")" >&2
    cat "$1" >&2
    exit 1
  }
}

# start_daemon LOG-FILE [EXTRA-ENV...]: serve on $SOCK with the shared
# store and jobs dirs, wait for the ping, parse the gateway port.
start_daemon() {
  local log="$1"
  shift
  env "$@" "$TOOL" serve --socket "$SOCK" --workers 2 --job-workers 1 \
    --store-dir "$STORE" --jobs-dir "$JOBS" --http-port 0 \
    > "$log" 2>&1 &
  DAEMON_PID=$!
  wait_for_daemon "$TOOL" "$SOCK" "$DAEMON_PID" "$log" \
    "daemon never came up (or died during startup):" || exit 1
  HTTP_PORT=""
  for _ in $(seq 1 50); do
    HTTP_PORT="$(sed -n \
      's/.*gateway serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" \
      | head -1)"
    [[ -n "$HTTP_PORT" ]] && break
    sleep 0.1
  done
  if [[ -z "$HTTP_PORT" ]]; then
    echo "gateway port not announced in the daemon log:" >&2
    cat "$log" >&2
    exit 1
  fi
}

echo "== 0/4 materialize a graph pair and upload it =="
"$TOOL" generate --model er --n 60 --p 0.08 --seed 31 --out "$WORK/s1.txt"
"$TOOL" perturb --in "$WORK/s1.txt" --noise one-way --level 0.05 --seed 32 \
  --out "$WORK/s2.txt"
# The job runner stalls 5s before executing each claimed job: a window to
# kill -9 the daemon with the job pinned in RUNNING.
start_daemon "$WORK/daemon1.log" \
  GRAPHALIGN_FAILPOINTS="jobs.exec.delay=delay-ms:5000"
"$TOOL" submit --socket "$SOCK" --put-graph "$WORK/s1.txt" > "$WORK/put1.out"
"$TOOL" submit --socket "$SOCK" --put-graph "$WORK/s2.txt" > "$WORK/put2.out"
H1="$(sed -n 's/.*hash=\([0-9a-f]*\).*/\1/p' "$WORK/put1.out" | head -1)"
H2="$(sed -n 's/.*hash=\([0-9a-f]*\).*/\1/p' "$WORK/put2.out" | head -1)"
echo "daemon 1 up on port $HTTP_PORT; graphs $H1 / $H2"

echo "== 1/4 async submit over raw HTTP: 202 + job id =="
printf '{"idem_key":"smoke-key","algo":"GRASP","g1_hash":"%s","g2_hash":"%s"}' \
  "$H1" "$H2" > "$WORK/job.json"
http POST /v1/jobs "$WORK/job.json" > "$WORK/submit.out"
expect_status "$WORK/submit.out" 202 submit-job
JOB_ID="$(python3 -c '
import json, sys
raw = open(sys.argv[1], "rb").read()
body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
assert body["status"] == "ACCEPTED", body
assert body["existing"] is False, body
print(body["job_id"])' "$WORK/submit.out")"
[[ "${#JOB_ID}" == 16 ]] || {
  echo "job id is not 16 hex digits: '$JOB_ID'" >&2
  exit 1
}
echo "job $JOB_ID accepted"

echo "== 2/4 kill -9 mid-job, restart, recover to DONE =="
# Wait until the runner has claimed the job (journalled RUNNING), so the
# kill lands mid-execution, not mid-queue.
claimed=0
for _ in $(seq 1 50); do
  "$TOOL" jobs status --socket "$SOCK" --id "$JOB_ID" > "$WORK/st.out" || true
  if grep -q "state=RUNNING" "$WORK/st.out"; then
    claimed=1
    break
  fi
  sleep 0.1
done
[[ "$claimed" == 1 ]] || {
  echo "job never reached RUNNING before the kill:" >&2
  cat "$WORK/st.out" >&2
  exit 1
}
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
rm -f "$SOCK"
echo "daemon killed -9 with job $JOB_ID in RUNNING"

start_daemon "$WORK/daemon2.log"   # No failpoint: the retry runs for real.
"$TOOL" submit --socket "$SOCK" --stats > "$WORK/stats1.out"
grep -q "recovered=1" "$WORK/stats1.out" || {
  echo "restart did not report the recovered job:" >&2
  cat "$WORK/stats1.out" >&2
  exit 1
}
done_state=0
for _ in $(seq 1 100); do
  "$TOOL" jobs status --socket "$SOCK" --id "$JOB_ID" > "$WORK/st.out" || true
  if grep -q "state=DONE" "$WORK/st.out"; then
    done_state=1
    break
  fi
  if grep -q "state=FAILED" "$WORK/st.out"; then
    echo "recovered job FAILED instead of completing:" >&2
    cat "$WORK/st.out" >&2
    exit 1
  fi
  sleep 0.2
done
[[ "$done_state" == 1 ]] || {
  echo "job never reached DONE after recovery:" >&2
  cat "$WORK/st.out" "$WORK/daemon2.log" >&2
  exit 1
}
echo "job $JOB_ID recovered and completed after the crash"

echo "== 3/4 idempotent resubmit: same id, nothing executes twice =="
exec_before="$(sed -n 's/.*executions=\([0-9]*\).*/\1/p' < <( \
  "$TOOL" submit --socket "$SOCK" --stats) | head -1)"
rc=0
"$TOOL" jobs submit --socket "$SOCK" --g1-hash "$H1" --g2-hash "$H2" \
  --algo GRASP --idem-key smoke-key > "$WORK/resubmit.out" || rc=$?
[[ "$rc" == 13 ]] || {
  echo "resubmit: expected exit 13 (accepted), got $rc:" >&2
  cat "$WORK/resubmit.out" >&2
  exit 1
}
grep -q "job=$JOB_ID" "$WORK/resubmit.out" || {
  echo "resubmit answered a different job id (wanted $JOB_ID):" >&2
  cat "$WORK/resubmit.out" >&2
  exit 1
}
grep -q "(existing)" "$WORK/resubmit.out" || {
  echo "resubmit is not marked (existing):" >&2
  cat "$WORK/resubmit.out" >&2
  exit 1
}
exec_after="$(sed -n 's/.*executions=\([0-9]*\).*/\1/p' < <( \
  "$TOOL" submit --socket "$SOCK" --stats) | head -1)"
[[ "$exec_before" == "$exec_after" ]] || {
  echo "resubmit re-executed the job: executions $exec_before ->" \
    "$exec_after" >&2
  exit 1
}
echo "resubmit deduped onto $JOB_ID (executions still $exec_after)"

echo "== 4/4 jobs result --out == synchronous submit --out, byte for byte =="
"$TOOL" jobs result --socket "$SOCK" --id "$JOB_ID" \
  --out "$WORK/async.map" > "$WORK/result.out"
grep -q "job result: matched=" "$WORK/result.out" || {
  echo "jobs result did not print a result line:" >&2
  cat "$WORK/result.out" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --g1-hash "$H1" --g2-hash "$H2" \
  --algo GRASP --no-cache --out "$WORK/sync.map" > /dev/null
cmp -s "$WORK/async.map" "$WORK/sync.map" || {
  echo "async job mapping differs from the synchronous mapping" >&2
  diff "$WORK/async.map" "$WORK/sync.map" >&2 || true
  exit 1
}
echo "async mapping is byte-identical to the synchronous submit"

"$TOOL" submit --socket "$SOCK" --shutdown > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
echo "jobs smoke test passed"
