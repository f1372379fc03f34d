// Figure 7: accuracy on real graphs (Arenas, Facebook, CA-AstroPh
// stand-ins) with synthetic noise up to 5% of all three types (§6.4.1).
//
// Expected shape: GWL/CONE near-optimal on Arenas; GWL DNF on the two big
// graphs at paper scale; CONE weaker under multi-modal noise; IsoRank best
// on Facebook.
#include <string>
#include <vector>

#include "bench_util.h"
#include "datasets/datasets.h"

namespace graphalign {
namespace {

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  bench::Banner("Figure 7", "accuracy on real graphs, noise 0-5%", args);
  const int reps = args.repetitions > 0 ? args.repetitions : (args.full ? 10 : 1);
  // Facebook/CA-AstroPh at full size need hours (as in the paper, where GWL
  // exceeded the limit); smoke mode shrinks them hard.
  const double scale = args.full ? 1.0 : 0.06;

  Journal journal = bench::MustOpenJournal(args);
  Table t({"dataset", "algorithm", "noise_type", "noise", "accuracy"});
  for (const std::string dataset : {"Arenas", "Facebook", "CA-AstroPh"}) {
    const double ds_scale = dataset == std::string("Arenas")
                                ? (args.full ? 1.0 : 0.2)
                                : scale;
    auto base = MakeStandIn(dataset, args.seed, ds_scale);
    GA_CHECK(base.ok());
    std::printf("%s stand-in: n=%d m=%lld\n", dataset.c_str(),
                base->num_nodes(),
                static_cast<long long>(base->num_edges()));
    const bool sparse = base->AverageDegree() < 20.0;
    for (const std::string& name : SelectedAlgorithms(args)) {
      auto aligner = bench::MakeBenchAligner(name, sparse);
      for (NoiseType type : {NoiseType::kOneWay, NoiseType::kMultiModal,
                             NoiseType::kTwoWay}) {
        for (double level : bench::LowNoiseLevels(args.full)) {
          NoiseOptions noise;
          noise.type = type;
          noise.level = level;
          bench::JournaledRow(
              &t, &journal,
              bench::CellKey(
                  {dataset, name, NoiseTypeName(type), Table::Num(level, 2)}),
              [&] {
                RunOutcome out = RunAveraged(
                    aligner.get(), *base, noise,
                    AssignmentMethod::kJonkerVolgenant, reps,
                    args.seed + static_cast<uint64_t>(level * 1000), args);
                return std::vector<std::string>{dataset, name,
                                                NoiseTypeName(type),
                                                Table::Num(level, 2),
                                                FormatAccuracy(out)};
              });
        }
      }
    }
  }
  bench::Emit(t, args);
  return 0;
}

}  // namespace
}  // namespace graphalign

int main(int argc, char** argv) { return graphalign::Main(argc, argv); }
