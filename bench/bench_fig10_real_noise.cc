// Figure 10: accuracy, MNC, and S3 on graphs with REAL ground-truth noise
// (§6.5): the last snapshot of a temporal network matched against versions
// with {80, 85, 90, 99}% of its edges (HighSchool, Voles protocol), and a
// base PPI network matched against five progressively perturbed variants
// (MultiMagna protocol).
//
// Expected shape: GWL and CONE lead; IsoRank strong on MultiMagna (it was
// designed for PPI networks); the rest do well only when the graphs barely
// differ (99% snapshots / first variants).
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "datasets/datasets.h"
#include "metrics/metrics.h"

namespace graphalign {
namespace {

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  bench::Banner("Figure 10",
                "real-noise protocols: temporal snapshots and PPI variants",
                args);
  const double scale = args.full ? 1.0 : 0.5;
  Rng rng(args.seed);

  Journal journal = bench::MustOpenJournal(args);
  Table t({"dataset", "variant", "algorithm", "accuracy", "mnc", "s3"});

  // Temporal protocol: match the full graph against earlier snapshots.
  for (const std::string dataset : {"HighSchool", "Voles"}) {
    auto base = MakeStandIn(dataset, args.seed, scale);
    GA_CHECK(base.ok());
    auto snaps = EvolvingSnapshots(*base, {0.80, 0.85, 0.90, 0.99}, &rng);
    GA_CHECK(snaps.ok());
    const bool sparse = base->AverageDegree() < 20.0;
    const char* labels[] = {"80%", "85%", "90%", "99%"};
    for (size_t s = 0; s < snaps->size(); ++s) {
      Rng prng = rng.Fork();
      auto problem = MakeProblemFromPair(*base, (*snaps)[s], &prng);
      GA_CHECK(problem.ok());
      for (const std::string& name : SelectedAlgorithms(args)) {
        auto aligner = bench::MakeBenchAligner(name, sparse);
        bench::JournaledRow(
            &t, &journal, bench::CellKey({dataset, labels[s], name}), [&] {
              RunOutcome out =
                  RunAligner(aligner.get(), *problem,
                             AssignmentMethod::kJonkerVolgenant, args);
              return std::vector<std::string>{
                  dataset, labels[s], name, FormatAccuracy(out),
                  FormatOutcome(out, out.quality.mnc),
                  FormatOutcome(out, out.quality.s3)};
            });
      }
    }
  }

  // PPI protocol: base vs five noisier variants.
  {
    auto base = MakeStandIn("MultiMagna", args.seed, scale);
    GA_CHECK(base.ok());
    auto variants = MultiMagnaVariants(*base, 5, 0.05, &rng);
    GA_CHECK(variants.ok());
    for (size_t v = 0; v < variants->size(); ++v) {
      Rng prng = rng.Fork();
      auto problem = MakeProblemFromPair(*base, (*variants)[v], &prng);
      GA_CHECK(problem.ok());
      const std::string variant = "variant" + std::to_string(v + 1);
      for (const std::string& name : SelectedAlgorithms(args)) {
        auto aligner = bench::MakeBenchAligner(name, /*sparse_graph=*/true);
        bench::JournaledRow(
            &t, &journal, bench::CellKey({"MultiMagna", variant, name}), [&] {
              RunOutcome out =
                  RunAligner(aligner.get(), *problem,
                             AssignmentMethod::kJonkerVolgenant, args);
              return std::vector<std::string>{
                  "MultiMagna", variant, name, FormatAccuracy(out),
                  FormatOutcome(out, out.quality.mnc),
                  FormatOutcome(out, out.quality.s3)};
            });
      }
    }
  }
  bench::Emit(t, args);
  return 0;
}

}  // namespace
}  // namespace graphalign

int main(int argc, char** argv) { return graphalign::Main(argc, argv); }
