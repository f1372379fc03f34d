#!/usr/bin/env bash
# Builds the sparse-pipeline test binary under -DGRAPHALIGN_SANITIZE=address
# and runs it: the MinHash/LSH candidate generator and the sparse LAP solver
# are the newest pointer-heavy code in the tree, so they get an ASan pass in
# the test matrix (DESIGN.md §13), not just the release build. The protocol
# fuzz suite rides along: randomized/truncated/bit-flipped frames into the
# wire decoders are exactly the inputs where ASan turns a silent overread
# into a hard failure. The record-log suite rides along for the same reason:
# it replays every truncation and every bit flip of a small log. The
# assignment suite rides along because it feeds NaN/inf matrices to every
# extractor (an all-NaN row once made the Hungarian solver read p[-1]), the
# dense golden suite because the eigensolver, the graphlet enumerator and
# the GRASP/CONE inner loops index raw row pointers, and the linalg suite
# because the row-interleaved Sinkhorn and the tiled dense and CSR products
# index Row(i+1..i+3) with scalar tails, which its bit-exact cases drive at
# every remainder of the row and column counts mod 4. The socket suite rides
# along because common/socket's send and receive loops do pointer
# arithmetic over caller buffers for every daemon, gateway and helper
# connection. The flag reader suite rides along because every number from
# the command line and the environment goes through its strtol/strtod
# end-pointer checks. The wire golden suite rides along because it drives
# every message's field list both ways, through the same reader the
# daemon, its isolation helpers and the bench harness decode with.
#
# Usage: tools/run_sanitize.sh [source-dir]
# Exits 77 (the ctest SKIP_RETURN_CODE) when the toolchain cannot produce an
# ASan binary, so environments without libasan skip instead of failing.
set -euo pipefail

SRC="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD="$SRC/build-asan"

# Probe: can this toolchain link -fsanitize=address at all?
PROBE="$(mktemp -d)"
trap 'rm -rf "$PROBE"' EXIT
echo 'int main() { return 0; }' > "$PROBE/probe.cc"
if ! c++ -fsanitize=address "$PROBE/probe.cc" -o "$PROBE/probe" 2>/dev/null; then
  echo "toolchain cannot link -fsanitize=address; skipping" >&2
  exit 77
fi

# Only these suites and their dependency closure — not the whole tree.
SUITES=(sparse_test protocol_fuzz_test record_log_test assignment_test
  dense_golden_test linalg_test socket_test flags_test wire_golden_test)

cmake -S "$SRC" -B "$BUILD" -DGRAPHALIGN_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$BUILD" --target "${SUITES[@]}" -j > /dev/null

# halt_on_error keeps the failure visible to ctest; detect_leaks stays on so
# candidate buffers and solver scratch are leak-checked too.
for suite in "${SUITES[@]}"; do
  ASAN_OPTIONS=halt_on_error=1 "$BUILD/tests/$suite"
  echo "$suite is clean under AddressSanitizer"
done
