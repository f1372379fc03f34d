#!/usr/bin/env bash
# End-to-end exercise of the HTTP/JSON gateway (DESIGN.md §16), speaking raw
# HTTP over bash /dev/tcp — no curl, so the test runs on a bare container:
#   1. serve --http-port 0 brings up daemon + gateway on one process;
#      GET /healthz answers 200 "ok",
#   2. POST /v1/graphs uploads the pair; the content hashes must be
#      identical to what `submit --put-graph` answers over GAF1, and
#      GET /v1/graphs/<hash> answers 200 present / 404 NO_GRAPH,
#   3. POST /v1/align by hash must produce a mapping byte-identical to the
#      CLI `submit --out` mapping of the same pair (HTTP is a transport,
#      not a different aligner),
#   4. POST /v1/align:batch with K jobs over the two store graphs must
#      report graph_loads <= 2 and move daemon store_gets by <= 2 — the
#      amortization contract (K jobs != 2K opens),
#   5. loadgen --http-port drives mixed GAF1+HTTP+batch traffic and writes
#      the BENCH-convention gateway report.
#
# Usage: tools/run_gateway_smoke.sh [graphalign-binary] [loadgen-binary]
#        [bench-json]
# The optional third argument is where the loadgen report lands (default:
# scratch); pass BENCH_gateway.json to refresh the checked-in copy.
set -euo pipefail

source "$(dirname "$0")/daemon_lib.sh"

TOOL="${1:-build/src/cli/graphalign}"
LOADGEN="${2:-build/src/loadgen}"
if [[ ! -x "$TOOL" ]]; then
  echo "graphalign binary not found: $TOOL (build it first)" >&2
  exit 1
fi
if [[ ! -x "$LOADGEN" ]]; then
  echo "loadgen binary not found: $LOADGEN (build it first)" >&2
  exit 1
fi
TOOL="$(cd "$(dirname "$TOOL")" && pwd)/$(basename "$TOOL")"
LOADGEN="$(cd "$(dirname "$LOADGEN")" && pwd)/$(basename "$LOADGEN")"

WORK="$(mktemp -d)"
BENCH_JSON="${3:-$WORK/BENCH_gateway.json}"
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

# http METHOD TARGET [BODY-FILE] -> whole raw response on stdout. One
# connection per request, Connection: close, read to EOF.
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

# json_body RESPONSE-FILE -> the JSON body (everything past the header).
json_body() {
  python3 -c '
import sys
raw = open(sys.argv[1], "rb").read()
sys.stdout.write(raw.split(b"\r\n\r\n", 1)[1].decode())' "$1"
}

expect_status() {  # expect_status FILE CODE WHAT
  head -1 "$1" | grep -q "HTTP/1.1 $2 " || {
    echo "$3: expected HTTP $2, got: $(head -1 "$1")" >&2
    cat "$1" >&2
    exit 1
  }
}

echo "== 0/5 materialize a graph pair =="
"$TOOL" generate --model er --n 60 --p 0.08 --seed 21 --out "$WORK/s1.txt"
"$TOOL" perturb --in "$WORK/s1.txt" --noise one-way --level 0.05 --seed 22 \
  --out "$WORK/s2.txt"
# The gateway's inline-graph JSON for each edge list (n = max endpoint + 1,
# matching the CLI's edge-list reader).
for g in s1 s2; do
  python3 - "$WORK/$g.txt" > "$WORK/$g.json" <<'EOF'
import json, sys
edges = [tuple(map(int, line.split())) for line in open(sys.argv[1])
         if line.strip()]
n = max(max(e) for e in edges) + 1
json.dump({"n": n, "edges": [list(e) for e in edges]}, sys.stdout)
EOF
done

echo "== 1/5 serve --http-port: daemon + gateway, healthz =="
"$TOOL" serve --socket "$SOCK" --workers 2 --store-dir "$STORE" \
  --http-port 0 > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_for_daemon "$TOOL" "$SOCK" "$DAEMON_PID" "$WORK/daemon.log" \
  "daemon never came up (or died during startup):" || exit 1
# The daemon socket answers pings before the gateway line is flushed to
# the log; poll briefly for the announced port.
HTTP_PORT=""
for _ in $(seq 1 50); do
  HTTP_PORT="$(sed -n 's/.*gateway serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$WORK/daemon.log" | head -1)"
  [[ -n "$HTTP_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$HTTP_PORT" ]]; then
  echo "gateway port not announced in the daemon log:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
fi
http GET /healthz > "$WORK/healthz.out"
expect_status "$WORK/healthz.out" 200 healthz
grep -q "^ok" "$WORK/healthz.out" || {
  echo "healthz body is not 'ok':" >&2
  cat "$WORK/healthz.out" >&2
  exit 1
}
echo "gateway up on 127.0.0.1:$HTTP_PORT; healthz ok"

echo "== 2/5 graph upload: HTTP and GAF1 agree on content hashes =="
http POST /v1/graphs "$WORK/s1.json" > "$WORK/put1.out"
http POST /v1/graphs "$WORK/s2.json" > "$WORK/put2.out"
expect_status "$WORK/put1.out" 200 put-graph
expect_status "$WORK/put2.out" 200 put-graph
H1="$(json_body "$WORK/put1.out" | python3 -c \
  'import json,sys; print(json.load(sys.stdin)["hash"])')"
H2="$(json_body "$WORK/put2.out" | python3 -c \
  'import json,sys; print(json.load(sys.stdin)["hash"])')"
"$TOOL" submit --socket "$SOCK" --put-graph "$WORK/s1.txt" > "$WORK/cli1.out"
"$TOOL" submit --socket "$SOCK" --put-graph "$WORK/s2.txt" > "$WORK/cli2.out"
C1="$(sed -n 's/.*hash=\([0-9a-f]*\).*/\1/p' "$WORK/cli1.out" | head -1)"
C2="$(sed -n 's/.*hash=\([0-9a-f]*\).*/\1/p' "$WORK/cli2.out" | head -1)"
if [[ "$H1" != "$C1" || "$H2" != "$C2" ]]; then
  echo "HTTP and CLI disagree on content hashes: $H1/$H2 vs $C1/$C2" >&2
  exit 1
fi
http GET "/v1/graphs/$H1" > "$WORK/has.out"
expect_status "$WORK/has.out" 200 has-graph
http GET /v1/graphs/0123456789abcdef > "$WORK/hasnot.out"
expect_status "$WORK/hasnot.out" 404 has-graph-absent
json_body "$WORK/hasnot.out" | grep -q '"NO_GRAPH"' || {
  echo "404 body is not a typed NO_GRAPH:" >&2
  cat "$WORK/hasnot.out" >&2
  exit 1
}
echo "uploaded $H1 / $H2; present=200, absent=404 NO_GRAPH"

echo "== 3/5 align by hash: HTTP mapping == CLI mapping, byte for byte =="
printf '{"g1_hash":"%s","g2_hash":"%s","algo":"GRASP","assign":"JV"}' \
  "$H1" "$H2" > "$WORK/align.json"
http POST /v1/align "$WORK/align.json" > "$WORK/align.out"
expect_status "$WORK/align.out" 200 align
json_body "$WORK/align.out" > "$WORK/align.body"
python3 - "$WORK/align.body" > "$WORK/http.map" <<'EOF'
import json, sys
body = json.load(open(sys.argv[1]))
assert body["status"] == "OK", body
for u, v in enumerate(body["mapping"]):
    if v >= 0:
        print(u, v)
EOF
"$TOOL" submit --socket "$SOCK" --g1-hash "$H1" --g2-hash "$H2" \
  --algo GRASP --no-cache --out "$WORK/cli.map" > /dev/null
cmp -s "$WORK/http.map" "$WORK/cli.map" || {
  echo "HTTP mapping differs from the CLI submit mapping" >&2
  diff "$WORK/http.map" "$WORK/cli.map" >&2 || true
  exit 1
}
echo "HTTP /v1/align mapping is byte-identical to submit --out"

echo "== 4/5 batch: K jobs over two store graphs, <= 2 graph opens =="
gets_before="$(http GET /stats | sed -n '/^{/,$p' | python3 -c \
  'import json,sys; print(int(json.load(sys.stdin)["daemon"]["store_gets"]))')"
printf '{"graphs":[{"hash":"%s"},{"hash":"%s"}],"jobs":[%s]}' "$H1" "$H2" \
  '{"g1":0,"g2":1,"algo":"NSD"},{"g1":0,"g2":1,"algo":"NSD"},{"g1":0,"g2":1,"algo":"NSD"},{"g1":0,"g2":1,"algo":"LREA"}' \
  > "$WORK/batch.json"
http POST /v1/align:batch "$WORK/batch.json" > "$WORK/batch.out"
expect_status "$WORK/batch.out" 200 batch
gets_after="$(http GET /stats | sed -n '/^{/,$p' | python3 -c \
  'import json,sys; print(int(json.load(sys.stdin)["daemon"]["store_gets"]))')"
json_body "$WORK/batch.out" > "$WORK/batch.body"
python3 - "$WORK/batch.body" "$gets_before" "$gets_after" <<'EOF'
import json, sys
body = json.load(open(sys.argv[1]))
assert body["status"] == "OK", body
jobs = body["jobs"]
assert len(jobs) == 4, body
assert all(j["status"] == "OK" for j in jobs), jobs
loads = body["graph_loads"]
assert loads <= 2, f"batch resolved {loads} graphs for 4 jobs (expected <= 2)"
delta = int(sys.argv[3]) - int(sys.argv[2])
assert delta <= 2, f"store_gets moved by {delta} for a 4-job batch"
hits = sum(1 for j in jobs if j["cache_hit"])
print(f"  4 jobs: graph_loads={loads}, store_gets +{delta}, "
      f"{hits} in-batch cache hits")
EOF
echo "batch amortization holds: 4 jobs cost at most 2 graph opens"

echo "== 5/5 loadgen --http-port: mixed GAF1+HTTP+batch traffic =="
"$LOADGEN" --socket "$SOCK" --http-port "$HTTP_PORT" --clients 4 \
  --requests 25 --mix hit:5,miss:2,batch:2,poison:1 --nodes 40 \
  --json "$BENCH_JSON" > "$WORK/loadgen.out"
tail -2 "$WORK/loadgen.out"
grep -q "@http" "$WORK/loadgen.out" || {
  echo "loadgen report has no HTTP rows:" >&2
  cat "$WORK/loadgen.out" >&2
  exit 1
}

"$TOOL" submit --socket "$SOCK" --shutdown > /dev/null
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
echo "gateway smoke test passed"
