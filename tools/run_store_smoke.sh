#!/usr/bin/env bash
# End-to-end exercise of the graph store (DESIGN.md §15):
#   1. import the paper's stand-in datasets plus generated edge lists into a
#      content-addressed store; a re-import must deduplicate,
#   2. store verify walks every entry and must find zero corruption,
#   3. a daemon armed with --store-dir answers submit-by-hash: put-graph
#      twice, has-graph (present and absent), align by hash, and the by-hash
#      mapping must be byte-identical to the wire-path mapping of the same
#      pair,
#   4. store bench times text parse-load vs GST1 mmap-open on paper-scale
#      graphs and writes the BENCH-convention report; mmap must win.
#
# Usage: tools/run_store_smoke.sh [path-to-graphalign-binary] [bench-json]
# The optional second argument is where the bench report lands (default:
# scratch); pass bench/../BENCH_store.json to refresh the checked-in copy.
set -euo pipefail

source "$(dirname "$0")/daemon_lib.sh"

TOOL="${1:-build/src/cli/graphalign}"
if [[ ! -x "$TOOL" ]]; then
  echo "graphalign binary not found: $TOOL (build it first)" >&2
  exit 1
fi
TOOL="$(cd "$(dirname "$TOOL")" && pwd)/$(basename "$TOOL")"

WORK="$(mktemp -d)"
BENCH_JSON="${2:-$WORK/BENCH_store.json}"
case "$BENCH_JSON" in
  /*) ;;
  *) BENCH_JSON="$PWD/$BENCH_JSON" ;;
esac
STORE="$WORK/store"
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

echo "== 0/4 materialize graphs =="
# A small pair for the align round-trip (daemon-side compute stays quick)
# and two paper-scale graphs for the parse-vs-mmap bench.
"$TOOL" generate --model er --n 300 --p 0.05 --seed 7 --out "$WORK/s1.txt"
"$TOOL" perturb --in "$WORK/s1.txt" --noise one-way --level 0.05 --seed 8 \
  --out "$WORK/s2.txt"
"$TOOL" generate --model er --n 1500 --p 0.01 --seed 9 --out "$WORK/big1.txt"
"$TOOL" generate --model ba --n 4000 --m 5 --seed 10 --out "$WORK/big2.txt"

echo "== 1/4 import datasets and edge lists; dedupe on re-import =="
for ds in Arenas inf-euroroad bio-celegans ca-netscience HighSchool; do
  "$TOOL" store import --dir "$STORE" --dataset "$ds" --seed 1
done
"$TOOL" store import --dir "$STORE" --in "$WORK/s1.txt" > /dev/null
"$TOOL" store import --dir "$STORE" --in "$WORK/s2.txt" > /dev/null
"$TOOL" store import --dir "$STORE" --dataset Arenas --seed 1 \
  > "$WORK/dedupe.out"
grep -q "(already present)" "$WORK/dedupe.out" || {
  echo "re-import of an identical dataset did not deduplicate:" >&2
  cat "$WORK/dedupe.out" >&2
  exit 1
}
"$TOOL" store ls --dir "$STORE" > "$WORK/ls.out"
grep -q "^7 entries$" "$WORK/ls.out" || {
  echo "expected 7 store entries:" >&2
  cat "$WORK/ls.out" >&2
  exit 1
}
echo "7 graphs imported; identical re-import deduplicated"

echo "== 2/4 store verify: every entry intact =="
"$TOOL" store verify --dir "$STORE" > "$WORK/verify.out"
grep -q "checked=7 ok=7 corrupt=0" "$WORK/verify.out" || {
  echo "verify did not pass cleanly:" >&2
  cat "$WORK/verify.out" >&2
  exit 1
}
echo "verify: $(cat "$WORK/verify.out")"

echo "== 3/4 daemon: submit-by-hash round trip =="
"$TOOL" serve --socket "$SOCK" --workers 2 --store-dir "$STORE" \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_for_daemon "$TOOL" "$SOCK" "$DAEMON_PID" "$WORK/daemon.log" \
  "daemon never came up (or died during startup):" || exit 1

"$TOOL" submit --socket "$SOCK" --put-graph "$WORK/s1.txt" > "$WORK/put1.out"
"$TOOL" submit --socket "$SOCK" --put-graph "$WORK/s2.txt" > "$WORK/put2.out"
H1="$(sed -n 's/.*hash=\([0-9a-f]*\).*/\1/p' "$WORK/put1.out" | head -1)"
H2="$(sed -n 's/.*hash=\([0-9a-f]*\).*/\1/p' "$WORK/put2.out" | head -1)"
if [[ -z "$H1" || -z "$H2" ]]; then
  echo "put-graph did not answer a content hash:" >&2
  cat "$WORK/put1.out" "$WORK/put2.out" >&2
  exit 1
fi
"$TOOL" submit --socket "$SOCK" --has-graph "$H1" > /dev/null || {
  echo "has-graph said the just-uploaded $H1 is absent" >&2
  exit 1
}
rc=0
"$TOOL" submit --socket "$SOCK" --has-graph 0123456789abcdef \
  > /dev/null 2>&1 || rc=$?
if [[ "$rc" != 11 ]]; then
  echo "has-graph on an unknown hash should exit 11, got $rc" >&2
  exit 1
fi

"$TOOL" submit --socket "$SOCK" --g1-hash "$H1" --g2-hash "$H2" \
  --algo GRASP --out "$WORK/byhash.map" > "$WORK/byhash.out"
grep -q "status=OK" "$WORK/byhash.out" || {
  echo "by-hash align did not succeed:" >&2
  cat "$WORK/byhash.out" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --g1 "$WORK/s1.txt" --g2 "$WORK/s2.txt" \
  --algo GRASP --no-cache --out "$WORK/wire.map" > /dev/null
cmp -s "$WORK/byhash.map" "$WORK/wire.map" || {
  echo "by-hash mapping differs from the wire-path mapping" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --stats > "$WORK/stats.out"
grep -q "graph_store: puts=" "$WORK/stats.out" || {
  echo "daemon stats missing the graph_store counters:" >&2
  cat "$WORK/stats.out" >&2
  exit 1
}
"$TOOL" submit --socket "$SOCK" --shutdown > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
echo "put-graph/has-graph/align-by-hash round trip matched the wire path"

echo "== 4/4 bench: parse-load vs mmap-open =="
# Run from $WORK so the report's graph names are stable basenames, not
# scratch-directory paths.
(cd "$WORK" && "$TOOL" store bench --dir "$STORE" \
  --in big1.txt,big2.txt --reps 5 --json "$BENCH_JSON")
python3 - "$BENCH_JSON" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
rows = report["rows"]
assert rows, "bench report has no rows"
for row in rows:
    assert row["mmap_ms"] < row["parse_ms"], f"mmap-open lost to parse: {row}"
    print(f"  {row['graph']}: n={row['n']} m={row['m']} "
          f"parse={row['parse_ms']:.2f}ms mmap={row['mmap_ms']:.2f}ms "
          f"({row['speedup']:.1f}x)")
print(f"mmap-open beat parse-load on all {len(rows)} graphs")
EOF

echo "store smoke test passed"
