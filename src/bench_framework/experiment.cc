#include "bench_framework/experiment.h"

#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
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

namespace graphalign {

namespace {

// ---------------------------------------------------------------------------
// RunOutcome marshaling across the isolation pipe. Parent and child are the
// same binary, so a fixed struct of the POD fields plus the error string is
// enough; a version tag guards against a stale parent reading a child built
// from different code (impossible via fork, cheap to check anyway).

constexpr uint32_t kWireVersion = 4;

struct WireOutcome {
  uint32_t version;
  uint8_t completed;
  uint8_t degraded;
  int32_t completed_runs;
  double accuracy, mnc, ec, ics, s3;
  double similarity_seconds, assignment_seconds, peak_mem_mb;
  int64_t aux_count;
  uint64_t error_len;
  uint64_t degrade_reason_len;
};

std::string EncodeRunOutcome(const RunOutcome& out) {
  WireOutcome wire = {};
  wire.version = kWireVersion;
  wire.completed = out.completed ? 1 : 0;
  wire.degraded = out.degraded ? 1 : 0;
  wire.completed_runs = out.completed_runs;
  wire.accuracy = out.quality.accuracy;
  wire.mnc = out.quality.mnc;
  wire.ec = out.quality.ec;
  wire.ics = out.quality.ics;
  wire.s3 = out.quality.s3;
  wire.similarity_seconds = out.similarity_seconds;
  wire.assignment_seconds = out.assignment_seconds;
  wire.peak_mem_mb = out.peak_mem_mb;
  wire.aux_count = out.aux_count;
  wire.error_len = out.error.size();
  wire.degrade_reason_len = out.degrade_reason.size();
  std::string bytes(reinterpret_cast<const char*>(&wire), sizeof(wire));
  bytes.append(out.error);
  bytes.append(out.degrade_reason);
  return bytes;
}

bool DecodeRunOutcome(const std::string& bytes, RunOutcome* out) {
  if (bytes.size() < sizeof(WireOutcome)) return false;
  WireOutcome wire;
  std::memcpy(&wire, bytes.data(), sizeof(wire));
  if (wire.version != kWireVersion) return false;
  if (bytes.size() != sizeof(wire) + wire.error_len + wire.degrade_reason_len) {
    return false;
  }
  out->completed = wire.completed != 0;
  out->degraded = wire.degraded != 0;
  out->completed_runs = wire.completed_runs;
  out->quality.accuracy = wire.accuracy;
  out->quality.mnc = wire.mnc;
  out->quality.ec = wire.ec;
  out->quality.ics = wire.ics;
  out->quality.s3 = wire.s3;
  out->similarity_seconds = wire.similarity_seconds;
  out->assignment_seconds = wire.assignment_seconds;
  out->peak_mem_mb = wire.peak_mem_mb;
  out->aux_count = wire.aux_count;
  out->error = bytes.substr(sizeof(wire), wire.error_len);
  out->degrade_reason = bytes.substr(sizeof(wire) + wire.error_len);
  return true;
}

SubprocessOptions OptionsFromArgs(const BenchArgs& args) {
  SubprocessOptions opt;
  opt.mem_limit_bytes =
      static_cast<int64_t>(args.mem_limit_mb * 1024.0 * 1024.0);
  // The cooperative Deadline inside the child handles well-behaved
  // overruns; the hard kill is only the backstop for code that stops
  // polling (a hang in a foreign library, a livelock), so give it slack.
  if (args.time_limit_seconds > 0.0 && args.time_limit_seconds < 1e8) {
    opt.wall_limit_seconds = 2.0 * args.time_limit_seconds + 30.0;
  }
  return opt;
}

// Forks, runs `body`, and maps every way the child can die onto the
// outcome-error taxonomy the tables render.
RunOutcome RunOutcomeInChild(const SubprocessOptions& options,
                             const std::function<RunOutcome()>& body) {
  auto run = RunIsolated(
      [&](int payload_fd) {
        RunOutcome out = body();
        if (out.peak_mem_mb <= 0.0) {
          out.peak_mem_mb =
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
        }
        return WritePayload(payload_fd, EncodeRunOutcome(out)) ? 0 : 1;
      },
      options);
  RunOutcome out;
  if (!run.ok()) {
    out.error = run.status().ToString();
    return out;
  }
  switch (run->status) {
    case RunStatus::kOk: {
      if (run->payload_valid && DecodeRunOutcome(run->payload, &out)) {
        return out;
      }
      out.error = "isolated child exited cleanly but returned no result";
      return out;
    }
    case RunStatus::kExit:
      out.error = "ERR (isolated child " + run->detail + ")";
      return out;
    case RunStatus::kCrash:
      out.error = "CRASH (" + run->detail + ")";
      return out;
    case RunStatus::kOom:
      out.error = "OOM (" + run->detail + ")";
      return out;
    case RunStatus::kTimeout:
      out.error = "DNF (hard-killed at the wall-clock backstop)";
      return out;
  }
  out.error = "isolated child ended in an unknown state";
  return out;
}

// ---------------------------------------------------------------------------
// Fault-injection aligners (test hooks; see experiment.h).

class FaultAligner : public Aligner {
 public:
  enum class Kind { kCrash, kOom, kHang };

  explicit FaultAligner(Kind kind) : kind_(kind) {}

  std::string name() const override {
    switch (kind_) {
      case Kind::kCrash: return "_CRASH";
      case Kind::kOom: return "_OOM";
      case Kind::kHang: return "_HANG";
    }
    return "_FAULT";
  }

  AssignmentMethod default_assignment() const override {
    return AssignmentMethod::kSortGreedy;
  }

 protected:
  Result<DenseMatrix> ComputeSimilarityImpl(const Graph&, const Graph&,
                                            const Deadline&) override {
    switch (kind_) {
      case Kind::kCrash:
        raise(SIGSEGV);
        break;
      case Kind::kOom: {
        // Allocate-and-touch until the rlimit (or, as a safety net when run
        // without one, a 4 GB appetite) is hit. Touching every page makes
        // the usage resident, so RLIMIT_AS and the OOM killer both see it.
        std::vector<std::unique_ptr<char[]>> hog;
        constexpr size_t kChunk = 64 << 20;
        for (int i = 0; i < 64; ++i) {
          hog.push_back(std::make_unique<char[]>(kChunk));
          for (size_t off = 0; off < kChunk; off += 4096) {
            hog.back()[off] = static_cast<char>(off);
          }
        }
        return Status::ResourceExhausted(
            "_OOM injector survived its 4 GB appetite (no memory limit?)");
      }
      case Kind::kHang: {
        // Deliberately never polls the deadline: only the executor's hard
        // wall-clock kill can stop this.
        volatile uint64_t spin = 0;
        for (;;) spin = spin + 1;
      }
    }
    return Status::Internal("unreachable fault injector state");
  }

 private:
  Kind kind_;
};

}  // namespace

std::unique_ptr<Aligner> MakeFaultAligner(const std::string& name) {
  if (name == "_CRASH") {
    return std::make_unique<FaultAligner>(FaultAligner::Kind::kCrash);
  }
  if (name == "_OOM") {
    return std::make_unique<FaultAligner>(FaultAligner::Kind::kOom);
  }
  if (name == "_HANG") {
    return std::make_unique<FaultAligner>(FaultAligner::Kind::kHang);
  }
  return nullptr;
}

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
  if (!report.ok()) {
    out.error = report.status().code() == StatusCode::kDeadlineExceeded
                    ? "DNF (time limit)"
                    : report.status().ToString();
    return out;
  }
  // The paper's budget is a similarity-stage budget (§6.2, Table 3): a
  // stage that overran it is DNF even if it finished.
  if (report->similarity_seconds > time_limit_seconds) {
    out.error = "DNF (time limit)";
    return out;
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
    if (!problem.ok()) {
      total.error = problem.status().ToString();
      return total;
    }
    RunOutcome one = RunAligner(aligner, *problem, method,
                                time_limit_seconds - budget.Seconds());
    if (!one.completed) {
      if (total.completed_runs == 0) {
        total.error = one.error;
        return total;
      }
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
// would spend the same budget and reach the same verdict, and ERR is a
// deterministic typed failure.
bool IsRetryableOutcome(const RunOutcome& out) {
  if (out.completed) return false;
  return out.error.rfind("CRASH", 0) == 0 || out.error.rfind("OOM", 0) == 0 ||
         out.error.rfind("Unavailable", 0) == 0;
}

RunOutcome RunOneContained(const BenchArgs& args,
                           const std::function<RunOutcome()>& body) {
  // Parent-side flaky-cell site: `once` counters reset across fork, so an
  // injected transient fault must fire here, not in the child, for
  // "fails once, retried, succeeds" to be expressible.
  if (GA_FAILPOINT_FIRED("bench.cell.flaky")) {
    RunOutcome out;
    out.error = "CRASH (injected flaky fault)";
    return out;
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
    RunOutcome out;
    out.completed = true;
    out.completed_runs = 1;
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
  if (!outcome.completed) {
    for (const char* tag : {"DNF", "CRASH", "OOM"}) {
      if (outcome.error.rfind(tag, 0) == 0) return tag;
    }
    return "ERR";
  }
  // The '*' marks values produced through a numerical fallback — comparable
  // in kind but not in faith to the clean cells (README: degraded results).
  if (outcome.degraded) return Table::Num(value) + "*";
  return Table::Num(value);
}

std::string FormatAccuracy(const RunOutcome& outcome) {
  return FormatOutcome(outcome, outcome.quality.accuracy);
}

}  // namespace graphalign
