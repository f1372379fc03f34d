#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "assignment/sparse_lap.h"
#include "common/random.h"
#include "graph/generators.h"
#include "metrics/metrics.h"

namespace graphalign {
namespace perfbench {
namespace {

thread_local Tracer* t_tracer = nullptr;
thread_local uint64_t t_trace_id = 0;
thread_local int t_parent = -1;

int64_t ToNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

bool IsOneToOne(const Alignment& a, int num_cols) {
  std::vector<char> used(static_cast<size_t>(num_cols), 0);
  for (int v : a) {
    if (v < 0) continue;
    if (v >= num_cols || used[static_cast<size_t>(v)]) return false;
    used[static_cast<size_t>(v)] = 1;
  }
  return true;
}

// Fowler-Noll-Vo over an alignment, folded into `hash`.
uint64_t HashAlignment(const Alignment& a, uint64_t hash) {
  for (int v : a) {
    hash ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool IsCandidate(const std::vector<SparseCandidate>& sorted, int row,
                 int col) {
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), std::make_pair(row, col),
      [](const SparseCandidate& c, const std::pair<int, int>& key) {
        return std::make_pair(c.row, c.col) < key;
      });
  return it != sorted.end() && it->row == row && it->col == col;
}

}  // namespace

// ---------------------------------------------------------------- tracing

int Tracer::Begin(const std::string& name, int parent, uint64_t trace_id,
                  int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{name, start_ns, 0, parent, trace_id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  const std::vector<SpanRecord> all = spans();
  // Children of one parent run on the parent's thread, one after another,
  // so their durations never overlap and simply subtract.
  std::vector<int64_t> self(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    self[i] = all[i].end_ns - all[i].start_ns;
  }
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < all.size(); ++i) {
    out[all[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"trace_id\":" << s.trace_id << "}\n";
  }
  return static_cast<bool>(out);
}

TraceScope::TraceScope(Tracer* tracer, uint64_t trace_id)
    : saved_tracer_(t_tracer), saved_id_(t_trace_id), saved_parent_(t_parent) {
  t_tracer = tracer;
  t_trace_id = trace_id;
  t_parent = -1;
}

TraceScope::~TraceScope() {
  t_tracer = saved_tracer_;
  t_trace_id = saved_id_;
  t_parent = saved_parent_;
}

Span::Span(const std::string& name)
    : start_(std::chrono::steady_clock::now()), tracer_(t_tracer) {
  if (tracer_ != nullptr) {
    index_ = tracer_->Begin(name, t_parent, t_trace_id, ToNs(start_));
    saved_parent_ = t_parent;
    t_parent = index_;
  }
}

Span::~Span() { Stop(); }

double Span::Stop() {
  if (seconds_ >= 0.0) return seconds_;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_ != nullptr) {
    tracer_->End(index_, ToNs(end));
    t_parent = saved_parent_;
  }
  return seconds_;
}

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

void Report::Check(bool ok, const std::string& what) {
  Count(ok);
  if (!ok && failed <= 5) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

double SelfPeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB.
}

double ProcStatusMb(int pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;  // kB -> MB.
    }
  }
  return -1.0;
}

// --------------------------------------------------------------- workloads

namespace {

Problem MustProblem(const Result<Graph>& base, const NoiseOptions& noise,
                    Rng* rng, std::string label) {
  GA_CHECK_MSG(base.ok(), base.status().ToString());
  auto problem = MakeAlignmentProblem(*base, noise, rng);
  GA_CHECK_MSG(problem.ok(), problem.status().ToString());
  return Problem{*std::move(problem), std::move(label)};
}

}  // namespace

Problem MakePaperDenseProblem(int n, uint64_t seed) {
  Rng rng(seed);
  NoiseOptions noise;
  noise.level = 0.05;
  noise.keep_connected = true;
  return MustProblem(PowerlawCluster(n, 5, 0.5, &rng), noise, &rng,
                     "n" + std::to_string(n));
}

Problem MakeSparseScaleProblem(int n, uint64_t seed) {
  Rng rng(seed);
  const double mean = 10.0;
  std::vector<int> degrees = NormalDegreeSequence(n, mean, mean / 4.0, &rng);
  NoiseOptions noise;
  noise.level = 0.05;
  return MustProblem(ConfigurationModel(degrees, &rng), noise, &rng,
                     "n" + std::to_string(n));
}

Problem MakeServePairProblem(uint64_t seed) {
  Rng rng(seed);
  NoiseOptions noise;
  noise.level = 0.05;
  return MustProblem(ErdosRenyi(48, 0.12, &rng), noise, &rng, "n48");
}

DensePassResult DensePass(const Problem& problem, Report* report) {
  static const AssignmentMethod kMethods[] = {
      AssignmentMethod::kNearestNeighbor, AssignmentMethod::kSortGreedy,
      AssignmentMethod::kHungarian, AssignmentMethod::kJonkerVolgenant};
  const Graph& g1 = problem.p.g1;
  const Graph& g2 = problem.p.g2;
  DensePassResult out;
  out.checksum = 1469598103934665603ULL;
  const std::vector<std::string> names = AllAlignerNames();
  for (const std::string& name : names) {
    auto aligner = MakeAligner(name);
    GA_CHECK_MSG(aligner.ok(), aligner.status().ToString());
    OpTime& op = out.op_times.emplace_back();
    Span sim_span("align." + name + ".similarity");
    auto sim = (*aligner)->ComputeSimilarity(g1, g2);
    op.similarity_s = sim_span.Stop();
    report->Count(sim.ok());
    if (!sim.ok()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(),
                   sim.status().ToString().c_str());
      continue;
    }
    double score_mwm = 0.0;
    for (AssignmentMethod method : kMethods) {
      const std::string mname = AssignmentMethodName(method);
      Span assign_span(std::string("assignment.") + mname);
      auto alignment = ExtractAlignment(*sim, method);
      const double assign_s = assign_span.Stop();
      op.assignment_s += assign_s;
      report->Count(alignment.ok());
      if (!alignment.ok()) continue;
      ++out.ops;
      out.checksum = HashAlignment(*alignment, out.checksum);
      if (method != AssignmentMethod::kNearestNeighbor) {
        report->Check(IsOneToOne(*alignment, g2.num_nodes()),
                      name + "/" + mname + " is one-to-one");
      }
      Span eval_span("metrics.evaluate");
      const QualityReport quality =
          EvaluateAlignment(g1, g2, *alignment, problem.p.ground_truth);
      eval_span.Stop();
      if (method == AssignmentMethod::kHungarian) {
        score_mwm = AlignmentScore(*sim, *alignment);
      }
      if (method == AssignmentMethod::kJonkerVolgenant) {
        const double score_jv = AlignmentScore(*sim, *alignment);
        report->Check(std::fabs(score_jv - score_mwm) <=
                          1e-9 * std::max(1.0, std::fabs(score_mwm)),
                      name + ": JV and MWM reach the same score");
        op.align_s = op.similarity_s + assign_s;
        out.accuracy_jv += quality.accuracy / static_cast<double>(names.size());
        out.aligner_accuracy_jv[name] = quality.accuracy;
      }
    }
  }
  return out;
}

const std::vector<std::string>& SparseAligners() {
  static const std::vector<std::string> kNames = {"NSD", "LREA", "REGAL"};
  return kNames;
}

SparsePassResult SparsePass(const std::vector<Problem>& problems,
                            const LshOptions& lsh, Report* report) {
  SparsePassResult out;
  for (const Problem& problem : problems) {
    const Graph& g1 = problem.p.g1;
    const Graph& g2 = problem.p.g2;
    SparseProblemStats stats;
    for (const std::string& name : SparseAligners()) {
      auto aligner = MakeAligner(name);
      GA_CHECK_MSG(aligner.ok(), aligner.status().ToString());
      Span sim_span("align." + name + ".sparse_similarity");
      auto sim = (*aligner)->ComputeSparseSimilarity(g1, g2, lsh);
      sim_span.Stop();
      report->Count(sim.ok());
      if (!sim.ok()) {
        std::fprintf(stderr, "perfbench: %s sparse: %s\n", name.c_str(),
                     sim.status().ToString().c_str());
        continue;
      }
      Span lap_span("sparse_lap." + name);
      auto alignment =
          SparseLapAssign(g1.num_nodes(), g2.num_nodes(), sim->candidates);
      lap_span.Stop();
      report->Count(alignment.ok());
      if (!alignment.ok()) continue;
      bool all_candidates = true;
      for (int u = 0; u < static_cast<int>(alignment->size()); ++u) {
        const int v = (*alignment)[static_cast<size_t>(u)];
        if (v >= 0 && !IsCandidate(sim->candidates, u, v)) {
          all_candidates = false;
        }
      }
      report->Check(all_candidates,
                    problem.label + "/" + name + ": matches are candidates");
      report->Check(IsOneToOne(*alignment, g2.num_nodes()),
                    problem.label + "/" + name + ": sparse LAP is one-to-one");
      out.aligner_accuracy[name] +=
          Accuracy(*alignment, problem.p.ground_truth) /
          static_cast<double>(problems.size());
      if (name == SparseAligners().front()) {
        stats.candidates = sim->lsh.candidates;
        stats.skipped_buckets = sim->lsh.skipped_buckets;
        stats.rows_without_candidates = sim->lsh.rows_without_candidates;
        for (int u = 0; u < g1.num_nodes(); ++u) {
          stats.truth_covered += IsCandidate(
              sim->candidates, u, problem.p.ground_truth[static_cast<size_t>(u)]);
        }
      }
    }
    out.lsh.push_back(stats);
  }
  return out;
}

}  // namespace perfbench
}  // namespace graphalign
