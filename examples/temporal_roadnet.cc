// Temporal infrastructure matching: align two snapshots of a road network
// (intersections at different timestamps — an application from the paper's
// introduction). Road networks are sparse, nearly planar, and often
// disconnected, which is exactly the regime where spectral methods (GRASP)
// falter and prior-based diffusion (IsoRank, NSD) holds up (§6.4.2).
//
// The example aligns the current network against an older snapshot that
// lacks 10% of today's road segments, and demonstrates the
// largest-connected-component workaround for spectral methods.
//
// Build & run:  ./build/examples/temporal_roadnet [--full]
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "align/aligner.h"
#include "common/random.h"
#include "common/table.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "noise/noise.h"

int main(int argc, char** argv) {
  using namespace graphalign;
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;

  auto today = MakeStandIn("inf-euroroad", /*seed=*/3, full ? 1.0 : 0.5);
  if (!today.ok()) {
    std::fprintf(stderr, "%s\n", today.status().ToString().c_str());
    return 1;
  }
  std::printf("road network: %d intersections, %lld segments, %d outside "
              "largest component\n",
              today->num_nodes(), static_cast<long long>(today->num_edges()),
              today->NodesOutsideLargestComponent());

  // The older snapshot: 90% of today's segments existed back then.
  Rng rng(17);
  auto snapshots = EvolvingSnapshots(*today, {0.90}, &rng);
  if (!snapshots.ok()) {
    std::fprintf(stderr, "%s\n", snapshots.status().ToString().c_str());
    return 1;
  }
  auto problem = MakeProblemFromPair(*today, (*snapshots)[0], &rng);
  if (!problem.ok()) {
    std::fprintf(stderr, "%s\n", problem.status().ToString().c_str());
    return 1;
  }

  Table t({"method", "graph", "accuracy", "MNC"});
  for (const std::string name : {"IsoRank", "NSD", "GRASP"}) {
    auto aligner = MakeAligner(name);
    auto alignment = (*aligner)->Align(problem->g1, problem->g2,
                                       AssignmentMethod::kJonkerVolgenant);
    if (!alignment.ok()) {
      t.AddRow({name, "full", "ERR", "-"});
      continue;
    }
    QualityReport q = EvaluateAlignment(problem->g1, problem->g2, *alignment,
                                        problem->ground_truth);
    t.AddRow({name, "full", Table::Num(q.accuracy), Table::Num(q.mnc)});
  }

  // Spectral workaround: restrict both graphs to their largest component
  // (GRASP's documented failure mode is disconnectedness, §6.4).
  {
    Graph lcc1 = LargestComponentSubgraph(problem->g1);
    // Align the component against itself under the same protocol.
    Rng lrng(23);
    NoiseOptions noise;
    noise.level = 0.10;
    auto lcc_problem = MakeAlignmentProblem(lcc1, noise, &lrng);
    if (lcc_problem.ok()) {
      auto grasp = MakeAligner("GRASP");
      auto alignment = (*grasp)->Align(lcc_problem->g1, lcc_problem->g2,
                                       AssignmentMethod::kJonkerVolgenant);
      if (alignment.ok()) {
        QualityReport q =
            EvaluateAlignment(lcc_problem->g1, lcc_problem->g2, *alignment,
                              lcc_problem->ground_truth);
        t.AddRow({"GRASP", "largest-component", Table::Num(q.accuracy),
                  Table::Num(q.mnc)});
      }
    }
  }
  t.Print(std::cout);
  return 0;
}
