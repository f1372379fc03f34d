// Experiment harness shared by the figure/table benchmarks.
//
// Mirrors the paper's protocol (§5.1): for each configuration, several noisy
// instances are generated from one base graph, every algorithm aligns each
// instance, and averaged quality/timing is reported. Runtime of the
// similarity stage is reported separately from assignment (§6.2), and runs
// exceeding a time budget are reported as DNF — the same semantics as the
// paper's 3-hour limit (Table 3).
//
// Failure containment: with isolation on (--isolate; the default for --full
// sweeps), every cell runs in a forked child under rlimit memory and
// wall-clock caps (common/subprocess.h). A segfault, GA_CHECK abort, or
// out-of-memory kill in one cell becomes a CRASH/OOM table entry and the
// sweep continues; the outcome taxonomy is OK / ERR / DNF / CRASH / OOM
// (DESIGN.md §10).
#ifndef GRAPHALIGN_BENCH_FRAMEWORK_EXPERIMENT_H_
#define GRAPHALIGN_BENCH_FRAMEWORK_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "common/outcome.h"
#include "common/status.h"
#include "graph/graph.h"
#include "metrics/metrics.h"
#include "noise/noise.h"

namespace graphalign {

// Command-line contract shared by all bench binaries:
//   --full           paper-scale sizes (default: scaled-down smoke sizes)
//   --reps N         repetitions per configuration
//   --algos A,B,C    restrict to a subset of algorithms
//   --csv PATH       also write the result table as CSV
//   --json PATH      also write the result table as JSON (rows as objects)
//   --seed S         master seed
//   --time-limit T   per-run budget in seconds (DNF beyond it)
//   --isolate        run every cell in a forked child (crash/OOM containment)
//   --no-isolate     opt out of the --full default isolation
//   --mem-limit MB   per-cell memory cap (implies --isolate)
//   --journal PATH   append every completed cell to a checkpoint journal
//   --resume         skip cells already present in the journal
//   --retries N      extra attempts for transiently failed isolated cells
//                    (CRASH/OOM/fork failure); 0 disables retries
struct BenchArgs {
  bool full = false;
  int repetitions = 0;  // 0 = bench-specific default.
  std::vector<std::string> algorithms;  // Empty = all.
  std::string csv_path;
  std::string json_path;
  uint64_t seed = 2023;
  double time_limit_seconds = 600.0;
  bool isolate = false;          // Resolved: --isolate, --mem-limit, or
                                 // --full without --no-isolate.
  double mem_limit_mb = 0.0;     // 0 = no memory cap.
  std::string journal_path;      // Empty = no journal.
  bool resume = false;
  int retries = 1;               // Extra attempts per transiently-failed
                                 // isolated cell before the journal records
                                 // the fault.
};

BenchArgs ParseBenchArgs(int argc, char** argv);

// The algorithms selected by the args (all paper algorithms when empty).
std::vector<std::string> SelectedAlgorithms(const BenchArgs& args);

// Outcome of one or more alignment runs.
struct RunOutcome {
  bool completed = false;
  int code = kExitError;      // When not completed: the verdict
                              // (common/outcome.h). DNF, CRASH and OOM
                              // render as such, any other code as ERR.
  bool transient = false;     // Not completed for a reason a retry may
                              // clear: a kUnavailable status, e.g. a
                              // refused fork.
  std::string error;          // When not completed, why, led by the cell
                              // it renders as: "CRASH (killed by ...)".
  QualityReport quality;      // Averaged over completed repetitions.
  double similarity_seconds = 0.0;  // Averaged.
  double assignment_seconds = 0.0;  // Averaged.
  int completed_runs = 0;
  double peak_mem_mb = 0.0;   // Child's peak RSS; only set by isolated runs.
  int64_t aux_count = 0;      // The sparse pipeline's LSH candidate
                              // count, carried across the isolation pipe.
  bool degraded = false;      // Completed via a numerical fallback; tables
                              // render the value with a trailing '*'.
  std::string degrade_reason;
};

// A run that did not complete, ended as `verdict`; its error reads
// "<cell> (<why>)".
RunOutcome FailedOutcome(const Outcome& verdict);
// A run whose work returned `status`: an expired Deadline is the budget's
// TimeLimitOutcome, anything else its ClassifyStatus verdict, transient
// when the status is kUnavailable.
RunOutcome FailedOutcome(const Status& status);
// A run that overran its time budget: DNF, however the stage noticed it.
RunOutcome TimeLimitOutcome();

// Runs `plan` once on `problem` through Aligner::Run and scores the
// alignment against the ground truth, timing similarity and assignment
// separately. The budget is one cooperative Deadline over every stage: the
// run aborts with TimeLimitOutcome soon after it expires, rather than only
// being flagged DNF after running to completion. A similarity stage that
// finished past the budget is DNF as well. A sparse plan's LSH candidate
// count goes to aux_count.
RunOutcome RunPlan(Aligner* aligner, const AlignmentProblem& problem,
                   const AlignPlan& plan, double time_limit_seconds);

// RunPlan with a dense plan that extracts with `method`.
RunOutcome RunAligner(Aligner* aligner, const AlignmentProblem& problem,
                      AssignmentMethod method, double time_limit_seconds);

// The paper's averaged protocol: `reps` noisy instances from `base` per the
// options, aligned and averaged. Stops early (DNF) once the budget is spent.
RunOutcome RunAveraged(Aligner* aligner, const Graph& base,
                       const NoiseOptions& noise, AssignmentMethod method,
                       int reps, uint64_t seed, double time_limit_seconds);

// Isolation-aware overloads: honor args.isolate / args.mem_limit_mb on top
// of the cooperative args.time_limit_seconds budget. When isolation is on,
// the run executes in a forked child and a crash, memory blow-up, or
// non-cooperative hang is contained there and reported in the outcome.
RunOutcome RunAligner(Aligner* aligner, const AlignmentProblem& problem,
                      AssignmentMethod method, const BenchArgs& args);
RunOutcome RunAveraged(Aligner* aligner, const Graph& base,
                       const NoiseOptions& noise, AssignmentMethod method,
                       int reps, uint64_t seed, const BenchArgs& args);

// Runs `body` under the args' isolation policy: inline when isolation is
// off, otherwise in a forked child with the args' memory cap and a hard
// wall-clock backstop derived from the time limit (BackstopSeconds). How
// the child ended is classified by common/outcome.h's ClassifyRun: a crash,
// a memory blow-up or a kill comes back as a CRASH, OOM or DNF outcome.
// CRASH, OOM and transient outcomes are retried up to args.retries times.
RunOutcome RunContained(const BenchArgs& args,
                        const std::function<RunOutcome()>& body);

// Peak-memory probe for the scalability benches: always forks (VmHWM is
// monotone per process), applies the args' limits, and reports the child's
// peak RSS in outcome.peak_mem_mb with the same failure classification as
// RunContained.
RunOutcome MeasurePeakMemory(const BenchArgs& args,
                             const std::function<void()>& body);

// Formats an outcome's accuracy (or "DNF"/"CRASH"/"OOM"/"ERR") for tables.
// Degraded outcomes render as "value*" (see RunOutcome::degraded).
std::string FormatOutcome(const RunOutcome& outcome, double value);
std::string FormatAccuracy(const RunOutcome& outcome);

}  // namespace graphalign

#endif  // GRAPHALIGN_BENCH_FRAMEWORK_EXPERIMENT_H_
