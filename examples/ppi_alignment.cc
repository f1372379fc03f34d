// Protein-protein interaction (PPI) network alignment — the biological
// application IsoRank was designed for (§3.1) and the MultiMagna protocol
// of §6.5: align a base interactome against progressively noisier variants
// to find proteins playing similar roles in related species.
//
// In PPI alignment the identity of a node matters less than conserved
// interaction structure, so Edge Correctness, ICS, and S3 are the headline
// measures, with accuracy as the sanity check.
//
// Build & run:  ./build/examples/ppi_alignment [--full]
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "align/aligner.h"
#include "common/random.h"
#include "common/table.h"
#include "datasets/datasets.h"
#include "metrics/metrics.h"
#include "noise/noise.h"

int main(int argc, char** argv) {
  using namespace graphalign;
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;

  // Base interactome (MultiMagna yeast-network stand-in) and five variants
  // with 5%..25% extra interactions (experimental noise / species drift).
  auto base = MakeStandIn("MultiMagna", /*seed=*/11, full ? 1.0 : 0.3);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }
  Rng rng(5);
  auto variants = MultiMagnaVariants(*base, /*count=*/5, /*step=*/0.05, &rng);
  if (!variants.ok()) {
    std::fprintf(stderr, "%s\n", variants.status().ToString().c_str());
    return 1;
  }
  std::printf("base interactome: %d proteins, %lld interactions\n",
              base->num_nodes(), static_cast<long long>(base->num_edges()));

  Table t({"variant", "method", "accuracy", "EC", "ICS", "S3"});
  for (size_t v = 0; v < variants->size(); ++v) {
    Rng prng(100 + v);
    auto problem = MakeProblemFromPair(*base, (*variants)[v], &prng);
    if (!problem.ok()) continue;
    for (const std::string name : {"IsoRank", "GWL"}) {
      auto aligner = MakeAligner(name);
      auto alignment = (*aligner)->Align(problem->g1, problem->g2,
                                         AssignmentMethod::kJonkerVolgenant);
      if (!alignment.ok()) {
        t.AddRow({"v" + std::to_string(v + 1), name, "ERR", "-", "-", "-"});
        continue;
      }
      QualityReport q = EvaluateAlignment(problem->g1, problem->g2,
                                          *alignment, problem->ground_truth);
      t.AddRow({"v" + std::to_string(v + 1), name, Table::Num(q.accuracy),
                Table::Num(q.ec), Table::Num(q.ics), Table::Num(q.s3)});
    }
  }
  t.Print(std::cout);
  std::printf(
      "\nhigh EC with lower accuracy indicates functionally-equivalent\n"
      "(automorphic) proteins being swapped — acceptable in PPI analysis.\n");
  return 0;
}
