// Shared implementation for the scalability experiments (Figs 11-14):
// configuration-model graphs with normal degree distribution, sweeping node
// count or average degree; runtime EXCLUDES the assignment step (§6.6), and
// memory is the per-run peak RSS measured in a forked child.
//
// An algorithm that exceeds the time budget at one sweep point is marked DNF
// and skipped for all larger points, mirroring the paper's 3-hour cutoff.
#ifndef GRAPHALIGN_BENCH_SCALABILITY_H_
#define GRAPHALIGN_BENCH_SCALABILITY_H_

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "noise/noise.h"

namespace graphalign {
namespace bench {

struct SweepPoint {
  std::string label;
  int n;
  double avg_degree;
};

// Builds the workload pair: a configuration-model graph and a permuted copy
// (the scalability experiments measure runtime, not accuracy).
inline AlignmentProblem MakeScalabilityProblem(int n, double avg_degree,
                                               Rng* rng) {
  std::vector<int> degrees =
      NormalDegreeSequence(n, avg_degree, avg_degree / 4.0, rng);
  auto base = ConfigurationModel(degrees, rng);
  GA_CHECK(base.ok());
  NoiseOptions noise;
  noise.level = 0.0;
  auto problem = MakeAlignmentProblem(*base, noise, rng);
  GA_CHECK(problem.ok());
  return *std::move(problem);
}

enum class SweepMetric { kTime, kMemory };

inline int RunScalabilitySweep(const std::string& figure_id,
                               const std::string& what,
                               const std::vector<SweepPoint>& points,
                               SweepMetric metric, int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  Banner(figure_id, what, args);
  const int reps = args.repetitions > 0 ? args.repetitions : (args.full ? 5 : 1);
  // GRAAL is excluded from the scalability study (quintic preprocessing,
  // §6.6) unless explicitly requested.
  std::vector<std::string> algorithms;
  for (const std::string& name : SelectedAlgorithms(args)) {
    if (name == "GRAAL" && args.algorithms.empty()) continue;
    algorithms.push_back(name);
  }

  Journal journal = MustOpenJournal(args);
  Table t({"point", "n", "avg_deg", "algorithm",
           metric == SweepMetric::kTime ? "similarity_s" : "peak_mem_mb"});
  std::set<std::string> dnf;
  for (const SweepPoint& point : points) {
    Rng rng(args.seed);
    AlignmentProblem problem =
        MakeScalabilityProblem(point.n, point.avg_degree, &rng);
    for (const std::string& name : algorithms) {
      // Computes the metric cell; crashes/OOM kills are contained per cell
      // when isolation is on (the default for --full) and rendered as
      // CRASH/OOM alongside the DNF semantics of the time budget.
      auto compute_cell = [&]() -> std::string {
        if (dnf.count(name) > 0) return "DNF";
        if (metric == SweepMetric::kTime) {
          RunOutcome out = RunContained(args, [&] {
            auto aligner = MakeBenchAligner(name, point.avg_degree < 20.0);
            const Deadline deadline =
                Deadline::AfterSeconds(args.time_limit_seconds);
            double total = 0.0;
            for (int r = 0; r < reps; ++r) {
              WallTimer timer;
              auto sim =
                  aligner->ComputeSimilarity(problem.g1, problem.g2, deadline);
              const double secs = timer.Seconds();
              if (!sim.ok()) return FailedOutcome(sim.status());
              if (secs > args.time_limit_seconds) return TimeLimitOutcome();
              total += secs;
            }
            RunOutcome one;
            one.completed = true;
            one.completed_runs = reps;
            one.similarity_seconds = total / reps;
            return one;
          });
          // An over-budget point disqualifies the algorithm for all larger
          // points, mirroring the paper's cutoff.
          if (!out.completed && out.code == kExitDnf) {
            dnf.insert(name);
          }
          return FormatOutcome(out, out.similarity_seconds);
        }
        RunOutcome out = MeasurePeakMemory(args, [&] {
          auto aligner = MakeBenchAligner(name, point.avg_degree < 20.0);
          auto sim = aligner->ComputeSimilarity(problem.g1, problem.g2);
          (void)sim;
        });
        if (!out.completed) return FormatOutcome(out, 0.0);
        return Table::Num(out.peak_mem_mb, 1);
      };
      const std::string key = CellKey({point.label, name});
      if (const std::vector<std::string>* cached = journal.Row(key)) {
        // Keep the DNF skip-set consistent on resume, so an algorithm that
        // already timed out is not re-run at larger points.
        if (!cached->empty() && cached->back() == "DNF") dnf.insert(name);
        t.AddRow(*cached);
        continue;
      }
      const std::vector<std::string> cells = {
          point.label, std::to_string(point.n), Table::Num(point.avg_degree, 1),
          name, compute_cell()};
      Status recorded = journal.Record(key, cells);
      if (!recorded.ok()) {
        std::fprintf(stderr, "journal: %s\n", recorded.ToString().c_str());
      }
      t.AddRow(cells);
    }
  }
  Emit(t, args);
  return 0;
}

// Node-count sweep points (Figs 11/13): 2^10..2^16 at paper scale.
inline std::vector<SweepPoint> NodeSweep(bool full) {
  std::vector<SweepPoint> points;
  const int lo = full ? 10 : 7;
  const int hi = full ? 16 : 9;
  for (int p = lo; p <= hi; ++p) {
    points.push_back({"2^" + std::to_string(p), 1 << p, 10.0});
  }
  return points;
}

// Degree sweep points (Figs 12/14): degree 10..10^4 at n = 2^14.
inline std::vector<SweepPoint> DegreeSweep(bool full) {
  const int n = full ? (1 << 14) : (1 << 9);
  std::vector<SweepPoint> points;
  const std::vector<double> degrees =
      full ? std::vector<double>{10, 100, 1000, 10000}
           : std::vector<double>{10, 50, 100};
  for (double d : degrees) {
    points.push_back({"deg" + std::to_string(static_cast<int>(d)), n, d});
  }
  return points;
}

}  // namespace bench
}  // namespace graphalign

#endif  // GRAPHALIGN_BENCH_SCALABILITY_H_
