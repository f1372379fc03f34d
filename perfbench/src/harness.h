// Shared pieces of the perfbench harness: tracing spans, statistics, the
// metric table printed as the result line, and the workload passes.
//
// The harness times calls into the library's public functions from its own
// files. With tracing off a Span is only a stopwatch; with tracing on for
// the calling thread it also records {name, start, end, parent, trace id}
// into an in-memory Tracer that is written out when the run ends.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "noise/noise.h"

namespace graphalign {
namespace perfbench {

// ---------------------------------------------------------------- tracing

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // Index into Tracer::spans(), -1 for a root.
  uint64_t trace_id = 0; // Shared by the spans of one pass or one request.
};

class Tracer {
 public:
  int Begin(const std::string& name, int parent, uint64_t trace_id,
            int64_t start_ns);
  void End(int index, int64_t end_ns);
  std::vector<SpanRecord> spans() const;
  // Self time (duration minus the time covered by direct children) summed
  // per span name.
  std::map<std::string, double> SelfSeconds() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // Guarded by mu_.
};

// Enables tracing on the calling thread for its lifetime: spans opened on
// this thread go to `tracer` under `trace_id`. A null tracer leaves tracing
// off, so callers can alternate traced and untraced units.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, uint64_t trace_id);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* saved_tracer_;
  uint64_t saved_id_;
  int saved_parent_;
};

// Stopwatch around one call; also a span while tracing is on.
class Span {
 public:
  explicit Span(const std::string& name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Ends the span (once) and returns its duration in seconds.
  double Stop();

 private:
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1.0;
  Tracer* tracer_ = nullptr;
  int index_ = -1;
  int saved_parent_ = -1;
};

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
// q * n samples at or below it.
double Percentile(std::vector<double> values, double q);

// ---------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Ordered name -> metric table, plus the attempted/failed tallies.
struct Report {
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one operation; a false `ok` is a failure.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  // Counts one correctness check that must hold; reports the first few
  // that do not on stderr.
  void Check(bool ok, const std::string& what);
};

// Peak resident set of this process in MB (getrusage ru_maxrss).
double SelfPeakRssMb();
// A /proc/<pid>/status field in MB (VmHWM, VmRSS), or -1 if unreadable.
double ProcStatusMb(int pid, const char* field);

// --------------------------------------------------------------- workloads

struct Problem {
  AlignmentProblem p;
  std::string label;
};

Problem MakePaperDenseProblem(int n, uint64_t seed);
// The fig17 generator: configuration model with normal degrees (mean 10,
// sd 2.5) and 5% one-way noise, seeded exactly as bench_fig17_sparse_scal.
Problem MakeSparseScaleProblem(int n, uint64_t seed);
// A loadgen-sized pair: ErdosRenyi(48, 0.12) and a permuted copy with 5%
// one-way noise, so the daemon's answers have a ground truth.
Problem MakeServePairProblem(uint64_t seed);

// Wall times of one aligner on one input within a pass.
struct OpTime {
  double similarity_s = 0.0;
  double assignment_s = 0.0;  // Every extraction of the op's matrix.
  double align_s = 0.0;       // One alignment: similarity + JV.
};

// One pass of the paper's dense protocol over `problem`: every aligner's
// ComputeSimilarity, each matrix extracted with NN, SG, MWM and JV, every
// alignment scored by EvaluateAlignment.
struct DensePassResult {
  std::vector<OpTime> op_times;    // Per aligner.
  double accuracy_jv = 0.0;        // Mean over aligners.
  std::map<std::string, double> aligner_accuracy_jv;
  uint64_t checksum = 0;           // Over every alignment of the pass.
  int ops = 0;                     // Alignments extracted.
};
DensePassResult DensePass(const Problem& problem, Report* report);

// One pass of the sparse pipeline over each problem: NSD, LREA and REGAL
// ComputeSparseSimilarity (LSH candidates + native scoring), then
// SparseLapAssign on that aligner's scored candidates.
struct SparseProblemStats {
  int64_t candidates = 0;
  int64_t skipped_buckets = 0;
  int rows_without_candidates = 0;
  int truth_covered = 0;  // Ground-truth pairs among the candidates.
};
struct SparsePassResult {
  std::map<std::string, double> aligner_accuracy;  // Mean over problems.
  std::vector<SparseProblemStats> lsh;  // Per problem (NSD's candidates).
};
SparsePassResult SparsePass(const std::vector<Problem>& problems,
                            const LshOptions& lsh, Report* report);

// The three aligners the sparse pipeline scores natively.
const std::vector<std::string>& SparseAligners();

}  // namespace perfbench
}  // namespace graphalign

#endif  // PERFBENCH_HARNESS_H_
