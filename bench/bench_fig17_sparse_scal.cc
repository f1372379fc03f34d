// Figure 17 (repo extension): sparse LSH pipeline vs dense similarity.
//
// Sweeps node count on configuration-model graphs with 5% one-way noise and
// runs each algorithm twice per point: the dense pipeline (n^2 similarity
// matrix + greedy extraction) and the sparse pipeline (LSH candidates +
// candidate-only scoring + sparse LAP). The dense path hits the memory wall
// at 10^5 nodes (an 8 GB matrix per algorithm run); under --mem-limit the
// cell is contained and recorded as OOM while the sparse path completes —
// that contrast is the point of the figure. Accuracy against the planted
// ground truth records what the candidate restriction costs.
//
// The checked-in BENCH_sparse.json is produced by:
//   bench_fig17_sparse_scal --full --mem-limit 2048 --json BENCH_sparse.json
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "graph/generators.h"
#include "noise/noise.h"

namespace graphalign {
namespace bench {
namespace {

struct Point {
  std::string label;
  int n;
  double avg_degree;
};

std::vector<Point> SweepPoints(bool full) {
  if (full) {
    return {{"2^10", 1 << 10, 10.0},
            {"2^13", 1 << 13, 10.0},
            {"10^5", 100'000, 10.0}};
  }
  return {{"n500", 500, 8.0}, {"n1000", 1000, 8.0}, {"n2000", 2000, 8.0}};
}

// Workload: configuration-model base, 5% one-way noise, permuted copy with
// planted ground truth (so `accuracy` measures real recovery, not identity).
AlignmentProblem MakeProblem(int n, double avg_degree, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> degrees =
      NormalDegreeSequence(n, avg_degree, avg_degree / 4.0, &rng);
  auto base = ConfigurationModel(degrees, &rng);
  GA_CHECK(base.ok());
  NoiseOptions noise;
  noise.level = 0.05;
  auto problem = MakeAlignmentProblem(*base, noise, &rng);
  GA_CHECK(problem.ok());
  return *std::move(problem);
}

int Run(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  Banner("Figure 17",
         "sparse LSH pipeline vs dense similarity (runtime, memory, quality)",
         args);
  // Default to the native-sparse algorithms; --algos can add the rest (they
  // run the dense-fallback sparse path, which saves assignment memory only).
  const std::vector<std::string> algorithms =
      args.algorithms.empty()
          ? std::vector<std::string>{"NSD", "LREA", "REGAL"}
          : args.algorithms;

  Journal journal = MustOpenJournal(args);
  Table t({"point", "n", "avg_deg", "algorithm", "mode", "seconds",
           "accuracy", "candidates"});
  // An algorithm whose dense cell DNF'd/OOM'd is not retried dense at larger
  // points (the paper's cutoff rule); the sparse cells keep running.
  std::set<std::string> dense_out;
  for (const Point& point : SweepPoints(args.full)) {
    AlignmentProblem problem =
        MakeProblem(point.n, point.avg_degree, args.seed);
    const double dense_gb = static_cast<double>(point.n) * point.n * 8.0 /
                            (1024.0 * 1024.0 * 1024.0);
    for (const std::string& name : algorithms) {
      for (const bool sparse : {false, true}) {
        const char* mode = sparse ? "sparse" : "dense";
        const std::string key = CellKey({point.label, name, mode});
        JournaledRow(&t, &journal, key, [&]() -> std::vector<std::string> {
          std::string seconds, accuracy = "-", candidates = "-";
          if (!sparse && dense_out.count(name) > 0) {
            seconds = "DNF";
          } else if (!sparse && args.mem_limit_mb <= 0.0 && dense_gb > 4.0) {
            // Unprotected run: attempting an n^2 matrix this size would take
            // the whole bench down instead of one contained cell.
            seconds = "SKIP (dense needs " + Table::Num(dense_gb, 1) + " GB)";
            dense_out.insert(name);
          } else {
            RunOutcome out = RunContained(args, [&] {
              auto aligner = MakeBenchAligner(name);
              AlignPlan plan;
              plan.method = AssignmentMethod::kSortGreedy;
              if (sparse) {
                plan.path = AlignPath::kSparse;
                plan.lsh.seed = args.seed;
              }
              RunOutcome one = RunPlan(aligner.get(), problem, plan,
                                       args.time_limit_seconds);
              // This figure budgets the whole pipeline, not only the
              // similarity stage: its seconds column is the sum.
              if (one.similarity_seconds + one.assignment_seconds >
                  args.time_limit_seconds) {
                return TimeLimitOutcome();
              }
              return one;
            });
            if (!out.completed && !sparse) dense_out.insert(name);
            seconds = FormatOutcome(
                out, out.similarity_seconds + out.assignment_seconds);
            if (out.completed) {
              accuracy = Table::Num(out.quality.accuracy);
              if (sparse) candidates = std::to_string(out.aux_count);
            }
          }
          return {point.label, std::to_string(point.n),
                  Table::Num(point.avg_degree, 1), name, mode, seconds,
                  accuracy, candidates};
        });
      }
    }
  }
  Emit(t, args,
       {{"bench", "fig17_sparse_scal"},
        {"mode", args.full ? "full" : "smoke"},
        {"seed", std::to_string(args.seed)},
        {"time_limit_s", Table::Num(args.time_limit_seconds, 1)},
        {"mem_limit_mb", Table::Num(args.mem_limit_mb, 1)},
        {"noise", "one-way 0.05"}});
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace graphalign

int main(int argc, char** argv) {
  return graphalign::bench::Run(argc, argv);
}
