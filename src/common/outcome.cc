#include "common/outcome.h"

#include <iterator>

#include "common/table.h"

namespace graphalign {

namespace {

// Indexed by exit code, kExitOk through kExitConflict.
constexpr const char* kExitCodeNames[] = {
    "OK",            "ERROR",    "BAD_REQUEST", "DNF",
    "CRASH",         "OOM",      "BUSY",        "NUMERICAL",
    "SHUTTING_DOWN", "SHED",     "QUARANTINED", "NO_GRAPH",
    "PARTIAL",       "ACCEPTED", "NO_JOB",      "CONFLICT"};
static_assert(std::size(kExitCodeNames) == kExitConflict + 1);

// The codes a run can end as; a child exiting with one of them has already
// classified its own failure.
bool IsVerdict(int code) {
  return code == kExitError || code == kExitDnf || code == kExitCrash ||
         code == kExitOom || code == kExitNumerical;
}

}  // namespace

Outcome ClassifyStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return {};
    case StatusCode::kDeadlineExceeded:
      return {kExitDnf, status.message()};
    case StatusCode::kNumerical:
      return {kExitNumerical, status.message()};
    default:
      return {kExitError, status.ToString()};
  }
}

Outcome ClassifyRun(const SubprocessResult& run) {
  switch (run.status) {
    case RunStatus::kOk:
      return {};
    case RunStatus::kExit:
      return {IsVerdict(run.exit_code) ? run.exit_code : kExitError,
              "isolated child " + run.detail};
    case RunStatus::kCrash:
      return {kExitCrash, run.detail};
    case RunStatus::kOom:
      return {kExitOom, run.detail};
    case RunStatus::kTimeout:
      return {kExitDnf,
              std::string(run.killed_on_cancel
                              ? "killed by the caller's cancellation hook"
                              : "hard-killed at the wall-clock backstop") +
                  " after " + Table::Num(run.wall_seconds, 2) + "s"};
  }
  return {kExitError, "isolated child ended in an unknown state"};
}

double BackstopSeconds(double budget_seconds, double slack_seconds) {
  return budget_seconds > 0.0 ? 2.0 * budget_seconds + slack_seconds : 0.0;
}

const char* ExitCodeName(int code) {
  if (code < 0 || code >= static_cast<int>(std::size(kExitCodeNames))) {
    return "UNKNOWN";
  }
  return kExitCodeNames[code];
}

}  // namespace graphalign
