#include <cstdio>
#include "align/aligner.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "noise/noise.h"
using namespace graphalign;
int main(int argc, char** argv) {
  Rng rng(123);
  auto base = PowerlawCluster(80, 3, 0.3, &rng);
  if (!base.ok()) { printf("gen fail\n"); return 1; }
  for (double level : {0.0, 0.05}) {
    NoiseOptions nopt; nopt.level = level;
    Rng nrng(7);
    auto prob = MakeAlignmentProblem(*base, nopt, &nrng);
    if (!prob.ok()) { printf("prob fail\n"); return 1; }
    printf("== noise %.2f ==\n", level);
    for (const auto& name : AllAlignerNames()) {
      if (argc > 1 && name != argv[1]) continue;
      printf("%-8s ", name.c_str()); fflush(stdout);
      auto aligner = MakeAligner(name);
      WallTimer t;
      auto align = (*aligner)->Align(prob->g1, prob->g2, AssignmentMethod::kJonkerVolgenant);
      if (!align.ok()) { printf("ERROR %s\n", align.status().ToString().c_str()); continue; }
      double acc = Accuracy(*align, prob->ground_truth);
      auto nat = (*aligner)->Run(prob->g1, prob->g2, *AlignPlanFromAssign("native"));
      double nacc = nat.ok() ? Accuracy(nat->alignment, prob->ground_truth) : -1;
      printf("acc(JV)=%.3f acc(native)=%.3f  %.2fs\n", acc, nacc, t.Seconds());
      fflush(stdout);
    }
  }
  return 0;
}
