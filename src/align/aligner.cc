#include "align/aligner.h"

#include <cmath>
#include <limits>

#include "common/failpoint.h"
#include "common/timer.h"

#include "align/cone.h"
#include "align/graal.h"
#include "align/grasp.h"
#include "align/gwl.h"
#include "align/isorank.h"
#include "align/lrea.h"
#include "align/nsd.h"
#include "align/regal.h"
#include "align/sgwl.h"

namespace graphalign {

Status Aligner::ValidateInputs(const Graph& g1, const Graph& g2) {
  if (g1.num_nodes() == 0 || g2.num_nodes() == 0) {
    return Status::InvalidArgument("aligner: empty input graph");
  }
  return Status::Ok();
}

const char* SparseSimilarityModeName(SparseSimilarityMode mode) {
  switch (mode) {
    case SparseSimilarityMode::kNative:
      return "native";
    case SparseSimilarityMode::kDenseFallback:
      return "dense-fallback";
  }
  return "unknown";
}

Status Aligner::ScoreSparseCandidatesImpl(
    const Graph& g1, const Graph& g2, const Deadline& deadline,
    std::vector<SparseCandidate>* candidates) {
  GA_ASSIGN_OR_RETURN(DenseMatrix sim, ComputeSimilarityImpl(g1, g2, deadline));
  for (SparseCandidate& c : *candidates) {
    c.similarity = sim.Row(c.row)[c.col];
  }
  return Status::Ok();
}

Result<SparseSimilarityResult> Aligner::ComputeSparseSimilarity(
    const Graph& g1, const Graph& g2, const LshOptions& lsh,
    const Deadline& deadline) {
  GA_RETURN_IF_ERROR(ValidateInputs(g1, g2));
  GA_RETURN_IF_EXPIRED(deadline, name());
  GA_FAILPOINT_STATUS(
      "align.sparse.candidates.error",
      Status::Unavailable(name() + ": LSH candidate generation failed"));
  SparseSimilarityResult out;
  out.mode = sparse_similarity_mode();
  GA_ASSIGN_OR_RETURN(out.candidates,
                      GenerateLshCandidates(g1, g2, lsh, deadline, &out.lsh));
  GA_RETURN_IF_ERROR(
      ScoreSparseCandidatesImpl(g1, g2, deadline, &out.candidates));
  return out;
}

Result<DenseMatrix> Aligner::ComputeSimilarity(const Graph& g1,
                                               const Graph& g2,
                                               const Deadline& deadline) {
  // Zero-budget fast fail: an already-expired deadline returns before any
  // algorithm-specific work begins.
  GA_RETURN_IF_EXPIRED(deadline, name());
  GA_FAILPOINT_STATUS(
      "align.similarity.error",
      Status::Numerical(name() + ": similarity computation diverged"));
  GA_ASSIGN_OR_RETURN(DenseMatrix sim, ComputeSimilarityImpl(g1, g2, deadline));
  if (GA_FAILPOINT_FIRED("align.similarity.nan")) {
    // Poison a deterministic scatter of entries (plus the corner, so even a
    // 1x1 matrix is hit) to exercise the NaN-sanitize recovery path.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    double* data = sim.data();
    const int64_t total = static_cast<int64_t>(sim.rows()) * sim.cols();
    for (int64_t idx = 0; idx < total; idx += 97) data[idx] = nan;
  }
  return sim;
}

Result<Alignment> Aligner::Align(const Graph& g1, const Graph& g2,
                                 AssignmentMethod method,
                                 const Deadline& deadline) {
  GA_ASSIGN_OR_RETURN(DenseMatrix sim, ComputeSimilarity(g1, g2, deadline));
  return ExtractAlignment(sim, method, deadline);
}

namespace {

// Cheap structural surrogate used when an algorithm's similarity fails
// numerically: nodes with close degrees are plausible matches. Weak, but
// finite, deterministic, and better than losing the cell outright.
DenseMatrix DegreeProfileSimilarity(const Graph& g1, const Graph& g2) {
  const int n1 = g1.num_nodes();
  const int n2 = g2.num_nodes();
  DenseMatrix sim(n1, n2);
  for (int i = 0; i < n1; ++i) {
    const int di = g1.Degree(i);
    double* row = sim.Row(i);
    for (int j = 0; j < n2; ++j) {
      row[j] = 1.0 / (1.0 + std::abs(di - g2.Degree(j)));
    }
  }
  return sim;
}

// Zeroes non-finite entries in place; returns how many were zeroed.
int64_t SanitizeNonFinite(DenseMatrix* m) {
  double* data = m->data();
  const int64_t total = static_cast<int64_t>(m->rows()) * m->cols();
  int64_t poisoned = 0;
  for (int64_t i = 0; i < total; ++i) {
    if (!std::isfinite(data[i])) {
      data[i] = 0.0;
      ++poisoned;
    }
  }
  return poisoned;
}

}  // namespace

Result<AlignPlan> AlignPlanFromAssign(const std::string& name) {
  AlignPlan plan;
  if (name == "native") {
    plan.path = AlignPath::kNative;
    return plan;
  }
  for (AssignmentMethod method :
       {AssignmentMethod::kNearestNeighbor, AssignmentMethod::kSortGreedy,
        AssignmentMethod::kHungarian, AssignmentMethod::kJonkerVolgenant}) {
    if (name == AssignmentMethodName(method)) {
      plan.method = method;
      return plan;
    }
  }
  return Status::InvalidArgument("unknown assignment method: " + name);
}

Result<AlignReport> Aligner::Run(const Graph& g1, const Graph& g2,
                                 const AlignPlan& plan,
                                 const Deadline& deadline) {
  AlignReport out;
  WallTimer timer;
  if (plan.path == AlignPath::kNative) {
    GA_RETURN_IF_EXPIRED(deadline, name());
    GA_ASSIGN_OR_RETURN(out.alignment, AlignNativeImpl(g1, g2, deadline));
    out.similarity_seconds = timer.Seconds();
    return out;
  }
  if (plan.path == AlignPath::kSparse) {
    GA_ASSIGN_OR_RETURN(SparseSimilarityResult sim,
                        ComputeSparseSimilarity(g1, g2, plan.lsh, deadline));
    out.sparse_mode = sim.mode;
    out.lsh = sim.lsh;
    out.similarity_seconds = timer.Seconds();
    timer.Restart();
    GA_ASSIGN_OR_RETURN(out.alignment,
                        SparseLapAssign(g1.num_nodes(), g2.num_nodes(),
                                        sim.candidates, deadline));
    out.assignment_seconds = timer.Seconds();
    return out;
  }

  // The degradation ladder (DESIGN.md §12).
  GA_RETURN_IF_ERROR(ValidateInputs(g1, g2));
  Result<DenseMatrix> sim = ComputeSimilarity(g1, g2, deadline);
  if (sim.ok()) {
    const int64_t poisoned = SanitizeNonFinite(&*sim);
    if (poisoned > 0) {
      out.degraded = true;
      out.degrade_reason = name() + ": zeroed " + std::to_string(poisoned) +
                           " non-finite similarity entries";
    }
  } else if (sim.status().code() == StatusCode::kNumerical) {
    out.degraded = true;
    out.degrade_reason =
        "degree-profile fallback (" + sim.status().message() + ")";
    sim = DegreeProfileSimilarity(g1, g2);
  } else {
    return sim.status();
  }
  out.similarity_seconds = timer.Seconds();
  timer.Restart();
  // A degraded matrix does not deserve an O(n^3) optimal solver; SortGreedy
  // extracts the same ranking signal at a fraction of the cost.
  const AssignmentMethod method =
      out.degraded ? AssignmentMethod::kSortGreedy : plan.method;
  Result<Alignment> align = ExtractAlignment(*sim, method, deadline);
  if (!align.ok() && align.status().code() == StatusCode::kNumerical &&
      method != AssignmentMethod::kSortGreedy) {
    // Only reachable on a clean similarity, so at most one reason is set.
    const std::string reason = align.status().message();
    align = ExtractAlignment(*sim, AssignmentMethod::kSortGreedy, deadline);
    if (align.ok()) {
      out.degraded = true;
      out.degrade_reason = "greedy-assignment fallback (" + reason + ")";
    }
  }
  GA_RETURN_IF_ERROR(align.status());
  out.alignment = std::move(*align);
  out.assignment_seconds = timer.Seconds();
  return out;
}

Result<std::unique_ptr<Aligner>> MakeAligner(const std::string& name) {
  if (name == "IsoRank") return std::unique_ptr<Aligner>(new IsoRankAligner());
  if (name == "GRAAL") return std::unique_ptr<Aligner>(new GraalAligner());
  if (name == "NSD") return std::unique_ptr<Aligner>(new NsdAligner());
  if (name == "LREA") return std::unique_ptr<Aligner>(new LreaAligner());
  if (name == "REGAL") return std::unique_ptr<Aligner>(new RegalAligner());
  if (name == "GWL") return std::unique_ptr<Aligner>(new GwlAligner());
  if (name == "S-GWL") return std::unique_ptr<Aligner>(new SgwlAligner());
  if (name == "CONE") return std::unique_ptr<Aligner>(new ConeAligner());
  if (name == "GRASP") return std::unique_ptr<Aligner>(new GraspAligner());
  return Status::NotFound("unknown aligner: " + name);
}

std::vector<std::string> AllAlignerNames() {
  return {"IsoRank", "GRAAL", "NSD",  "LREA", "REGAL",
          "GWL",     "S-GWL", "CONE", "GRASP"};
}

}  // namespace graphalign
