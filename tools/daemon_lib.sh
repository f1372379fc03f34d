# Shell helpers shared by the daemon walkthrough scripts
# (run_server_smoke.sh, run_chaos.sh, run_loadtest.sh, run_jobs_smoke.sh,
# run_gateway_smoke.sh, run_store_smoke.sh). Source it; do not run it:
#   source "$(dirname "$0")/daemon_lib.sh"

# wait_for_daemon TOOL SOCK PID LOG MESSAGE
# Waits until the daemon on Unix socket SOCK answers a ping. Readiness is
# the client's own --retries backoff (up to three rounds of
# `submit --ping --retries 4`), not shell sleep-polling. Between rounds it
# checks that PID is still alive, so a crashed startup fails fast instead of
# burning the whole retry budget. On failure prints MESSAGE and then LOG
# (the daemon's output) to stderr, and returns 1.
wait_for_daemon() {
  local tool="$1" sock="$2" pid="$3" log="$4" message="$5"
  for _ in 1 2 3; do
    if "$tool" submit --socket "$sock" --ping --retries 4 > /dev/null 2>&1
    then
      return 0
    fi
    kill -0 "$pid" 2> /dev/null || break
  done
  echo "$message" >&2
  cat "$log" >&2
  return 1
}
