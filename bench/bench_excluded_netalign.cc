// Reproduction of the paper's §4 exclusion decision: NetAlign, even with the
// enhancements granted to the included algorithms (the degree-similarity
// notion of §6.1 and JV assignment of §6.2), delivers inadequate quality
// relative to the nine study algorithms.
#include <string>

#include "align/netalign.h"
#include "bench_util.h"
#include "common/random.h"
#include "graph/generators.h"
#include "metrics/metrics.h"

namespace graphalign {
namespace {

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  bench::Banner("Excluded (§4)",
                "NetAlign (enhanced) vs the included algorithms", args);
  const int n = args.full ? 1133 : 170;
  const int reps = args.repetitions > 0 ? args.repetitions : 2;
  Rng rng(args.seed);
  auto base = PowerlawCluster(n, 5, 0.5, &rng);
  GA_CHECK(base.ok());

  Table t({"algorithm", "noise", "accuracy"});
  // NetAlign with its native sparse extraction.
  {
    NetAlignAligner netalign;
    AlignPlan native;
    native.path = AlignPath::kNative;
    for (double level : bench::LowNoiseLevels(args.full)) {
      NoiseOptions noise;
      noise.level = level;
      Rng nrng(args.seed + static_cast<uint64_t>(level * 1000));
      double acc = 0.0;
      int done = 0;
      for (int r = 0; r < reps; ++r) {
        Rng irng = nrng.Fork();
        auto prob = MakeAlignmentProblem(*base, noise, &irng);
        if (!prob.ok()) continue;
        auto report = netalign.Run(prob->g1, prob->g2, native);
        if (!report.ok()) continue;
        acc += Accuracy(report->alignment, prob->ground_truth);
        ++done;
      }
      t.AddRow({"NetAlign", Table::Num(level, 2),
                done > 0 ? Table::Num(acc / done) : "ERR"});
    }
  }
  // A representative subset of the included nine for contrast.
  for (const std::string name : {"IsoRank", "CONE", "GWL"}) {
    auto aligner = bench::MakeBenchAligner(name, true);
    for (double level : bench::LowNoiseLevels(args.full)) {
      NoiseOptions noise;
      noise.level = level;
      RunOutcome out = RunAveraged(
          aligner.get(), *base, noise, AssignmentMethod::kJonkerVolgenant,
          reps, args.seed + static_cast<uint64_t>(level * 1000), args);
      t.AddRow({name, Table::Num(level, 2), FormatAccuracy(out)});
    }
  }
  bench::Emit(t, args);
  return 0;
}

}  // namespace
}  // namespace graphalign

int main(int argc, char** argv) { return graphalign::Main(argc, argv); }
