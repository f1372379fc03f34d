#!/usr/bin/env bash
# Runs the tier-1 suite N times under parallel ctest, to catch tests that
# pass alone but fail when they share the machine with their neighbours:
#   ctest -j4 --output-on-failure, N times, in the build directory.
# Prints the failing test names of each run and a one-line summary; exits
# nonzero if any run had a failure.
#
# Usage: tools/run_ctest_repeat.sh N [build-dir]   (default build dir: build)
set -uo pipefail

RUNS="${1:-}"
BUILD="${2:-build}"
if [[ ! "$RUNS" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 N [build-dir]  (N = number of ctest -j4 runs, >= 1)" >&2
  exit 2
fi
if [[ ! -f "$BUILD/CTestTestfile.cmake" ]]; then
  echo "no configured build in $BUILD (run cmake -B $BUILD and build first)" >&2
  exit 2
fi

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT
failed_runs=0
for run in $(seq 1 "$RUNS"); do
  rc=0
  (cd "$BUILD" && ctest -j4 --output-on-failure) > "$LOG" 2>&1 || rc=$?
  # ctest lists failures after "The following tests FAILED:" as
  # "<tab>NNN - Name (Failed)".
  failures="$(sed -n '/The following tests FAILED:/,$p' "$LOG" |
              grep -E '^[[:space:]]+[0-9]+ - ' |
              sed -E 's/^[[:space:]]+[0-9]+ - //')"
  summary="$(grep -E 'tests passed' "$LOG" | tail -n 1)"
  if [[ "$rc" != 0 ]]; then
    failed_runs=$((failed_runs + 1))
    echo "run $run/$RUNS: FAILED (ctest exit $rc) ${summary}"
    if [[ -n "$failures" ]]; then
      echo "$failures" | sed 's/^/  /'
    else
      tail -n 20 "$LOG" | sed 's/^/  /'
    fi
  else
    echo "run $run/$RUNS: ok ${summary}"
  fi
done
if [[ "$failed_runs" != 0 ]]; then
  echo "$failed_runs of $RUNS ctest -j4 runs had failures"
  exit 1
fi
echo "all $RUNS ctest -j4 runs passed"
