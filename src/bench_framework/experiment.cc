#include "bench_framework/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/exit_codes.h"
#include "common/failpoint.h"
#include "common/memory.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/subprocess.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/wire.h"

namespace graphalign {

// RunOutcome's field list (common/wire.h), across the isolation pipe. Parent
// and child are the same binary, so strings are uncapped.
template <typename Ar>
void Fields(Ar& ar, Msg<RunOutcome> auto& out) {
  ar.U8(out.completed);
  ar.U8(out.degraded);
  ar.U8(out.transient);
  ar.I32(out.code);
  ar.I32(out.completed_runs);
  ar.F64(out.quality.accuracy);
  ar.F64(out.quality.mnc);
  ar.F64(out.quality.ec);
  ar.F64(out.quality.ics);
  ar.F64(out.quality.s3);
  ar.F64(out.similarity_seconds);
  ar.F64(out.assignment_seconds);
  ar.F64(out.peak_mem_mb);
  ar.U64(out.aux_count);
  ar.Str(out.error, kUncapped);
  ar.Str(out.degrade_reason, kUncapped);
}

namespace {

SubprocessOptions OptionsFromArgs(const BenchArgs& args) {
  SubprocessOptions opt;
  opt.mem_limit_bytes =
      static_cast<int64_t>(args.mem_limit_mb * 1024.0 * 1024.0);
  // The cooperative Deadline inside the child handles well-behaved
  // overruns; the hard kill is only the backstop for code that stops
  // polling (a hang in a foreign library, a livelock).
  opt.wall_limit_seconds = BackstopSeconds(args.time_limit_seconds);
  return opt;
}

// The table cell of a run that did not complete.
const char* CellName(int code) {
  return code == kExitDnf || code == kExitCrash || code == kExitOom
             ? ExitCodeName(code)
             : "ERR";
}

// Forks, runs `body`, and classifies how the child ended.
RunOutcome RunOutcomeInChild(const SubprocessOptions& options,
                             const std::function<RunOutcome()>& body) {
  auto run = RunIsolated(
      [&](int payload_fd) {
        RunOutcome out = body();
        if (out.peak_mem_mb <= 0.0) {
          out.peak_mem_mb =
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
        }
        return WritePayload(payload_fd, EncodeFields(out)) ? 0 : 1;
      },
      options);
  if (!run.ok()) return FailedOutcome(run.status());
  const Outcome verdict = ClassifyRun(*run);
  if (!verdict.ok()) return FailedOutcome(verdict);
  FieldReader reader(run->payload, "");
  RunOutcome out;
  if (run->payload_valid && DecodeFields(reader, out, "")) return out;
  return FailedOutcome(Outcome{
      kExitError, "isolated child exited cleanly but returned no result"});
}

}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv) {
  // Bench binaries have no meaningful way to continue past a malformed
  // flag, so every error exits with a usage error.
  auto usage_error = [](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(kExitUsage);
  };
  FlagReader flags(argc, argv, 1);
  BenchArgs args;
  args.full = flags.Switch("full");
  args.repetitions = flags.Int("reps", args.repetitions, 1, kMaxInt);
  std::stringstream algos(flags.String("algos"));
  for (std::string tok; std::getline(algos, tok, ',');) {
    if (!tok.empty()) args.algorithms.push_back(tok);
  }
  args.csv_path = flags.String("csv");
  args.json_path = flags.String("json");
  args.seed = flags.Uint64("seed", args.seed);
  args.time_limit_seconds = flags.Double(
      "time-limit", args.time_limit_seconds, kPositive, kMaxDouble, "seconds");
  const bool explicit_isolate = flags.Switch("isolate");
  const bool no_isolate = flags.Switch("no-isolate");
  args.mem_limit_mb = flags.Double("mem-limit", args.mem_limit_mb, kPositive,
                                   kMaxDouble, "megabytes");
  args.journal_path = flags.String("journal");
  args.resume = flags.Switch("resume");
  args.retries = flags.Int("retries", args.retries, 0, kMaxRetries);
  if (!flags.ok()) usage_error(flags.status().message());
  if (const std::vector<std::string> unknown = flags.Unread();
      !unknown.empty()) {
    usage_error("unknown flag " + unknown.front() +
                " (supported: --full --reps N --algos A,B --csv PATH "
                "--json PATH --seed S --time-limit T --isolate --no-isolate "
                "--mem-limit MB --journal PATH --resume --retries N)");
  }
  if (no_isolate && (explicit_isolate || args.mem_limit_mb > 0.0)) {
    usage_error("--no-isolate conflicts with --isolate/--mem-limit");
  }
  if (args.resume && args.journal_path.empty()) {
    usage_error("--resume requires --journal PATH");
  }
  // Paper-scale sweeps isolate by default: a single crashed cell must not
  // take down hours of accumulated results.
  args.isolate = !no_isolate && (explicit_isolate || args.mem_limit_mb > 0.0 ||
                                 args.full);
  return args;
}

RunOutcome FailedOutcome(const Outcome& verdict) {
  RunOutcome out;
  out.code = verdict.code;
  out.error =
      std::string(CellName(verdict.code)) + " (" + verdict.message + ")";
  return out;
}

RunOutcome FailedOutcome(const Status& status) {
  const Outcome verdict = ClassifyStatus(status);
  if (verdict.code == kExitDnf) return TimeLimitOutcome();
  RunOutcome out = FailedOutcome(verdict);
  out.transient = status.code() == StatusCode::kUnavailable;
  return out;
}

RunOutcome TimeLimitOutcome() {
  RunOutcome out;
  out.code = kExitDnf;
  out.error = "DNF (time limit)";
  return out;
}

std::vector<std::string> SelectedAlgorithms(const BenchArgs& args) {
  if (args.algorithms.empty()) return AllAlignerNames();
  return args.algorithms;
}

RunOutcome RunPlan(Aligner* aligner, const AlignmentProblem& problem,
                   const AlignPlan& plan, double time_limit_seconds) {
  RunOutcome out;
  // AfterSeconds clamps huge budgets to "infinite" and treats non-positive
  // budgets (a previous repetition already spent everything) as
  // immediately expired.
  auto report = aligner->Run(problem.g1, problem.g2, plan,
                             Deadline::AfterSeconds(time_limit_seconds));
  if (!report.ok()) return FailedOutcome(report.status());
  // The paper's budget is a similarity-stage budget (§6.2, Table 3): a
  // stage that overran it is DNF even if it finished.
  if (report->similarity_seconds > time_limit_seconds) {
    return TimeLimitOutcome();
  }
  out.similarity_seconds = report->similarity_seconds;
  out.assignment_seconds = report->assignment_seconds;
  out.aux_count = report->lsh.candidates;
  out.degraded = report->degraded;
  out.degrade_reason = report->degrade_reason;
  out.quality = EvaluateAlignment(problem.g1, problem.g2, report->alignment,
                                  problem.ground_truth);
  out.completed = true;
  out.completed_runs = 1;
  return out;
}

RunOutcome RunAligner(Aligner* aligner, const AlignmentProblem& problem,
                      AssignmentMethod method, double time_limit_seconds) {
  AlignPlan plan;
  plan.method = method;
  return RunPlan(aligner, problem, plan, time_limit_seconds);
}

RunOutcome RunAveraged(Aligner* aligner, const Graph& base,
                       const NoiseOptions& noise, AssignmentMethod method,
                       int reps, uint64_t seed, double time_limit_seconds) {
  RunOutcome total;
  Rng rng(seed);
  WallTimer budget;
  for (int r = 0; r < reps; ++r) {
    Rng instance_rng = rng.Fork();
    auto problem = MakeAlignmentProblem(base, noise, &instance_rng);
    if (!problem.ok()) return FailedOutcome(problem.status());
    RunOutcome one = RunAligner(aligner, *problem, method,
                                time_limit_seconds - budget.Seconds());
    if (!one.completed) {
      if (total.completed_runs == 0) return one;
      break;  // Keep the average over the completed repetitions.
    }
    total.quality.accuracy += one.quality.accuracy;
    total.quality.mnc += one.quality.mnc;
    total.quality.ec += one.quality.ec;
    total.quality.ics += one.quality.ics;
    total.quality.s3 += one.quality.s3;
    total.similarity_seconds += one.similarity_seconds;
    total.assignment_seconds += one.assignment_seconds;
    total.completed_runs += 1;
    if (one.degraded && !total.degraded) {
      total.degraded = true;
      total.degrade_reason = one.degrade_reason;
    }
    if (budget.Seconds() > time_limit_seconds) break;
  }
  const double k = total.completed_runs;
  total.quality.accuracy /= k;
  total.quality.mnc /= k;
  total.quality.ec /= k;
  total.quality.ics /= k;
  total.quality.s3 /= k;
  total.similarity_seconds /= k;
  total.assignment_seconds /= k;
  total.completed = true;
  return total;
}

namespace {

// A cell outcome worth a second attempt: containment-level faults (CRASH,
// OOM, a failed fork) can be transient — a cosmic-ray segfault, memory
// pressure from a neighboring process. DNF is not retryable: a repeat run
// would spend the same budget and reach the same verdict, and any other
// ERR is a deterministic typed failure.
bool IsRetryableOutcome(const RunOutcome& out) {
  return !out.completed &&
         (out.code == kExitCrash || out.code == kExitOom || out.transient);
}

RunOutcome RunOneContained(const BenchArgs& args,
                           const std::function<RunOutcome()>& body) {
  // Parent-side flaky-cell site: `once` counters reset across fork, so an
  // injected transient fault must fire here, not in the child, for
  // "fails once, retried, succeeds" to be expressible.
  if (GA_FAILPOINT_FIRED("bench.cell.flaky")) {
    return FailedOutcome(Outcome{kExitCrash, "injected flaky fault"});
  }
  if (!args.isolate) return body();
  return RunOutcomeInChild(OptionsFromArgs(args), body);
}

}  // namespace

RunOutcome RunContained(const BenchArgs& args,
                        const std::function<RunOutcome()>& body) {
  RunOutcome out = RunOneContained(args, body);
  RetryPolicy policy;
  policy.max_attempts = 1 + std::max(0, args.retries);
  policy.initial_backoff_ms = 50.0;
  policy.jitter_seed = args.seed;
  Backoff backoff(policy);
  for (int retry = 0; retry < std::max(0, args.retries); ++retry) {
    if (!IsRetryableOutcome(out)) break;
    const std::string first_error = out.error;
    SleepForMs(backoff.NextDelayMs());
    out = RunOneContained(args, body);
    if (out.completed) {
      std::fprintf(stderr, "note: cell retried after transient fault: %s\n",
                   first_error.c_str());
    }
  }
  return out;
}

RunOutcome MeasurePeakMemory(const BenchArgs& args,
                             const std::function<void()>& body) {
  return RunOutcomeInChild(OptionsFromArgs(args), [&] {
    body();
    // The peak is this probe's result: one it cannot read is a failed
    // cell, not a feasible 0.0 MB.
    const int64_t peak = PeakRssBytes();
    if (peak <= 0) {
      return FailedOutcome(
          Outcome{kExitError, "peak RSS unreadable from /proc/self/status"});
    }
    RunOutcome out;
    out.completed = true;
    out.completed_runs = 1;
    out.peak_mem_mb = static_cast<double>(peak) / (1024.0 * 1024.0);
    return out;
  });
}

RunOutcome RunAligner(Aligner* aligner, const AlignmentProblem& problem,
                      AssignmentMethod method, const BenchArgs& args) {
  return RunContained(args, [&] {
    return RunAligner(aligner, problem, method, args.time_limit_seconds);
  });
}

RunOutcome RunAveraged(Aligner* aligner, const Graph& base,
                       const NoiseOptions& noise, AssignmentMethod method,
                       int reps, uint64_t seed, const BenchArgs& args) {
  return RunContained(args, [&] {
    return RunAveraged(aligner, base, noise, method, reps, seed,
                       args.time_limit_seconds);
  });
}

std::string FormatOutcome(const RunOutcome& outcome, double value) {
  if (!outcome.completed) return CellName(outcome.code);
  // The '*' marks values produced through a numerical fallback — comparable
  // in kind but not in faith to the clean cells (README: degraded results).
  if (outcome.degraded) return Table::Num(value) + "*";
  return Table::Num(value);
}

std::string FormatAccuracy(const RunOutcome& outcome) {
  return FormatOutcome(outcome, outcome.quality.accuracy);
}

}  // namespace graphalign
