#!/usr/bin/env bash
# Chaos walkthrough (DESIGN.md §12): arms every compiled-in failpoint site
# through GRAPHALIGN_FAILPOINTS and asserts each injected fault produces a
# *typed* outcome — a documented exit code, a degraded-but-complete result,
# or a contained CRASH — never an unhandled abort, a hang, or silence:
#   1. every site x {error, delay-ms} through an isolated align, dense
#      (GRASP) and sparse (NSD --sparse, which reaches the LSH and sparse-LAP
#      sites): exit code must stay in the documented set and the run must
#      finish in time,
#   2. crash mode on the similarity path under --isolate: typed exit 4,
#   3. a forced eigensolver non-convergence: degraded result, exit 0,
#   4. a daemon armed with server.busy=once: submit --retries rides through
#      BUSY; SIGTERM then drains it cleanly,
#   5. the graph store (DESIGN.md §15): a torn write publishes nothing and
#      gc sweeps the leftover; bit rot is caught by verify, quarantined,
#      and healed by re-import; a daemon whose --store-dir is unusable
#      degrades to the wire-graph path instead of dying.
#
# Usage: tools/run_chaos.sh [path-to-graphalign-binary]
set -euo pipefail

source "$(dirname "$0")/daemon_lib.sh"

TOOL="${1:-build/src/cli/graphalign}"
if [[ ! -x "$TOOL" ]]; then
  echo "graphalign binary not found: $TOOL (build it first)" >&2
  exit 1
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

echo "== 0/5 generate a graph pair =="
"$TOOL" generate --model er --n 60 --p 0.1 --seed 7 --out "$WORK/g1.txt"
"$TOOL" perturb --in "$WORK/g1.txt" --noise one-way --level 0.05 --seed 8 \
  --out "$WORK/g2.txt"

# Documented align exit codes: 0 ok, 1 error, 3 DNF, 4 crash, 5 OOM,
# 7 numerical. 2 (usage), >=124 (timeout(1): the run hung), 139 (uncontained
# SIGSEGV) and anything undocumented fail the walkthrough.
check_typed_exit() {
  local rc=$1 what=$2
  case "$rc" in
    0 | 1 | 3 | 4 | 5 | 7) return 0 ;;
  esac
  echo "untyped outcome (rc=$rc) for: $what" >&2
  return 1
}

echo "== 1/5 every site x {error, delay}: typed outcomes only =="
SITES="$("$TOOL" failpoints)"
[[ -n "$SITES" ]] || { echo "failpoints listing is empty" >&2; exit 1; }
for site in $SITES; do
  for mode in error delay-ms:10; do
    for path in "GRASP" "NSD --sparse"; do
      rc=0
      # $path is unquoted on purpose: "NSD --sparse" is two arguments.
      GRAPHALIGN_FAILPOINTS="$site=$mode" timeout 120 \
        "$TOOL" align --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
        --algo $path --isolate > "$WORK/cell.out" 2> "$WORK/cell.err" || rc=$?
      check_typed_exit "$rc" "$site=$mode ($path)" || {
        cat "$WORK/cell.out" "$WORK/cell.err" >&2; exit 1; }
    done
  done
done
echo "all $(echo "$SITES" | wc -l) sites yielded typed outcomes"

echo "== 2/5 crash mode is contained under isolation =="
rc=0
GRAPHALIGN_FAILPOINTS="align.similarity.error=crash" timeout 120 \
  "$TOOL" align --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo NSD --isolate > "$WORK/crash.out" 2> "$WORK/crash.err" || rc=$?
if [[ "$rc" != 4 ]] || ! grep -q "CRASH" "$WORK/crash.err"; then
  echo "expected contained CRASH (rc=4), got rc=$rc:" >&2
  cat "$WORK/crash.out" "$WORK/crash.err" >&2
  exit 1
fi
echo "injected SIGSEGV contained as a typed CRASH"

echo "== 3/5 forced eigensolver failure degrades gracefully =="
GRAPHALIGN_FAILPOINTS="linalg.eigen.no-converge=error" \
  "$TOOL" align --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo GRASP > "$WORK/degraded.out"
grep -q "\[degraded:" "$WORK/degraded.out" || {
  echo "degraded run did not report its fallback:" >&2
  cat "$WORK/degraded.out" >&2
  exit 1
}
echo "degraded run completed and reported: $(grep -o '\[degraded:.*' "$WORK/degraded.out")"

echo "== 4/5 daemon: BUSY ridden out by --retries, drained by SIGTERM =="
GRAPHALIGN_FAILPOINTS="server.busy=once" \
  "$TOOL" serve --socket "$SOCK" --workers 1 > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
# Readiness via the client's own --retries backoff (it also rides through
# the armed once-BUSY); between rounds, fail fast with the daemon log if
# the process died instead of burning the whole retry budget.
wait_for_daemon "$TOOL" "$SOCK" "$DAEMON_PID" "$WORK/daemon.log" \
  "daemon never answered despite retries (or died):" || exit 1

kill -TERM "$DAEMON_PID"
for _ in $(seq 1 50); do
  kill -0 "$DAEMON_PID" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2> /dev/null; then
  echo "daemon did not drain on SIGTERM" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
fi
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
grep -q "draining" "$WORK/daemon.log" || {
  echo "daemon log missing the draining notice:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
grep -q "daemon stopped" "$WORK/daemon.log" || {
  echo "daemon log missing clean-stop line:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
echo "daemon rode out injected BUSY and drained cleanly on SIGTERM"

echo "== 5/5 graph store: torn write, bit rot, unusable store dir =="
STORE="$WORK/store"

# (a) Torn write: the rename failpoint dies in the crash window between the
# fsynced temp file and the publish. Nothing may become visible, and gc must
# sweep the leftover temp.
rc=0
GRAPHALIGN_FAILPOINTS="store.rename.error=once" \
  "$TOOL" store import --dir "$STORE" --in "$WORK/g1.txt" \
  > "$WORK/torn.out" 2>&1 || rc=$?
if [[ "$rc" == 0 ]]; then
  echo "torn write reported success:" >&2
  cat "$WORK/torn.out" >&2
  exit 1
fi
if compgen -G "$STORE/*.gst" > /dev/null; then
  echo "torn write published a visible entry:" >&2
  ls "$STORE" >&2
  exit 1
fi
"$TOOL" store gc --dir "$STORE" > "$WORK/gc.out"
grep -q "removed=1" "$WORK/gc.out" || {
  echo "gc did not sweep the torn temp file:" >&2
  cat "$WORK/gc.out" >&2; ls "$STORE" >&2
  exit 1
}
echo "torn write published nothing; gc swept the leftover temp"

# (b) Bit rot: flip one byte of the published entry. verify must report it
# corrupt (exit 1) and quarantine the corpse aside; re-import heals.
"$TOOL" store import --dir "$STORE" --in "$WORK/g1.txt" > /dev/null
GST="$(compgen -G "$STORE/*.gst")"
printf '\xff' | dd of="$GST" bs=1 seek=150 count=1 conv=notrunc 2> /dev/null
rc=0
"$TOOL" store verify --dir "$STORE" > "$WORK/verify.out" 2>&1 || rc=$?
if [[ "$rc" != 1 ]] || ! grep -q "quarantined:" "$WORK/verify.out"; then
  echo "bit rot was not caught and quarantined (rc=$rc):" >&2
  cat "$WORK/verify.out" >&2
  exit 1
fi
if [[ -e "$GST" ]] || ! compgen -G "$STORE/*.gst.corrupt" > /dev/null; then
  echo "quarantine did not move the rotten entry aside:" >&2
  ls "$STORE" >&2
  exit 1
fi
"$TOOL" store import --dir "$STORE" --in "$WORK/g1.txt" > /dev/null
"$TOOL" store verify --dir "$STORE" > "$WORK/verify2.out"
grep -q "corrupt=0" "$WORK/verify2.out" || {
  echo "re-import did not heal the store:" >&2
  cat "$WORK/verify2.out" >&2
  exit 1
}
echo "bit rot quarantined by verify (exit 1); re-import healed the entry"

# (c) Unusable --store-dir: the daemon must degrade to the wire-graph path,
# not die. Inline aligns keep working; by-hash submissions get the typed
# NO_GRAPH answer (exit 11).
SOCK2="$WORK/ga-store.sock"
"$TOOL" serve --socket "$SOCK2" --workers 1 \
  --store-dir "$WORK/g1.txt/not-a-dir" > "$WORK/daemon2.log" 2>&1 &
DAEMON_PID=$!
wait_for_daemon "$TOOL" "$SOCK2" "$DAEMON_PID" "$WORK/daemon2.log" \
  "daemon with unusable --store-dir never came up:" || exit 1
grep -q "graph store disabled" "$WORK/daemon2.log" || {
  echo "daemon log missing the store-disabled notice:" >&2
  cat "$WORK/daemon2.log" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK2" --g1 "$WORK/g1.txt" --g2 "$WORK/g2.txt" \
  --algo GRASP > /dev/null || {
  echo "wire-graph align failed on the degraded daemon" >&2
  cat "$WORK/daemon2.log" >&2
  exit 1
}
rc=0
"$TOOL" submit --socket "$SOCK2" --g1-hash 1111111111111111 \
  --g2-hash 2222222222222222 --algo GRASP > "$WORK/byhash.out" 2>&1 || rc=$?
if [[ "$rc" != 11 ]] || ! grep -q "NO_GRAPH" "$WORK/byhash.out"; then
  echo "by-hash against the degraded daemon was not a typed NO_GRAPH (rc=$rc):" >&2
  cat "$WORK/byhash.out" >&2
  exit 1
fi
kill -TERM "$DAEMON_PID" 2> /dev/null || true
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
echo "unusable store dir degraded to the wire path; by-hash answered NO_GRAPH"

echo "chaos walkthrough passed"
