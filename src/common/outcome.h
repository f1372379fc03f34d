// What a run ended as, decided in one place.
//
// The paper reports every cell as a value or as a verdict — did not finish
// inside the budget, ran out of memory (§6.2, Table 3) — and DESIGN.md §10
// names the verdicts: OK / ERROR / DNF / CRASH / OOM, plus NUMERICAL (§12),
// valued by the exit codes of common/exit_codes.h. Every surface that runs
// an alignment (`graphalign align`, the daemon's isolation helper and
// workers, the bench harness and its sweeps) asks this classifier which
// verdict a Status or an isolated child's ending gets, then renders it in
// its own medium: an exit code plus a stderr line, a ResponseCode plus a
// message, or a table cell.
#ifndef GRAPHALIGN_COMMON_OUTCOME_H_
#define GRAPHALIGN_COMMON_OUTCOME_H_

#include <string>

#include "common/exit_codes.h"
#include "common/status.h"
#include "common/subprocess.h"

namespace graphalign {

// A verdict: an exit code of exit_codes.h and why, for humans.
struct Outcome {
  int code = kExitOk;
  std::string message;  // Empty for kExitOk.

  bool ok() const { return code == kExitOk; }
};

// An expired Deadline (kDeadlineExceeded) is DNF and a numerical failure
// without fallback (kNumerical) is NUMERICAL; their message is the status's
// message, since the verdict already names the kind. Any other error is
// ERROR with the full "<Code>: message" text. An OK status is OK.
Outcome ClassifyStatus(const Status& status);

// How an isolated child ended. A clean exit 0 is OK (the payload is the
// result). A nonzero exit that is itself a verdict (ERROR, DNF, CRASH, OOM,
// NUMERICAL: the child already classified its own failure) passes through;
// any other exit code is ERROR. Crash signals are CRASH, the memory cap is
// OOM, and a kill at the wall-clock backstop or by the cancel hook is DNF —
// their messages differ, and run.killed_on_cancel tells them apart.
Outcome ClassifyRun(const SubprocessResult& run);

// The hard wall-clock cap behind a cooperative budget: 2 · budget + slack,
// so only code that stops polling its Deadline ever meets it. 0 (unlimited)
// without a budget (budget_seconds <= 0).
inline constexpr double kBackstopSlackSeconds = 30.0;
double BackstopSeconds(double budget_seconds,
                       double slack_seconds = kBackstopSlackSeconds);

// Upper-case name of an exit code, also the daemon's ResponseCode name:
// "OK", "ERROR", "BAD_REQUEST", "DNF", "CRASH", "OOM", "BUSY", "NUMERICAL",
// ..., "UNKNOWN" for a value exit_codes.h does not define.
const char* ExitCodeName(int code);

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_OUTCOME_H_
