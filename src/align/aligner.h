// Common interface for all nine unrestricted graph-alignment algorithms
// (paper §3). Each algorithm produces a node-similarity matrix; the final
// correspondence is extracted by a pluggable assignment method (§6.2) or by
// the extraction its authors proposed (Table 1); Aligner::Run runs either.
#ifndef GRAPHALIGN_ALIGN_ALIGNER_H_
#define GRAPHALIGN_ALIGN_ALIGNER_H_

#include <memory>
#include <string>
#include <vector>

#include "align/sparse_candidates.h"
#include "assignment/assignment.h"
#include "assignment/sparse_lap.h"
#include "common/deadline.h"
#include "common/status.h"
#include "graph/graph.h"
#include "linalg/dense.h"

namespace graphalign {

// How an aligner fulfills the sparse similarity contract (DESIGN.md §13).
// Naturally low-rank algorithms (LREA, REGAL, NSD) score only the candidate
// pairs and never materialize n1 x n2 values; everything else falls back to
// computing the dense matrix and sampling the candidate entries from it —
// same result shape, none of the memory savings. The flag is the typed
// answer to "did --sparse actually buy me anything for this algorithm".
enum class SparseSimilarityMode {
  kNative,         // O(candidates) scoring; dense matrix never exists.
  kDenseFallback,  // Dense similarity computed, then sampled at candidates.
};

const char* SparseSimilarityModeName(SparseSimilarityMode mode);

// Output of the sparse similarity path: the LSH candidate pairs with their
// similarity fields scored, ready for SparseLapAssign.
struct SparseSimilarityResult {
  std::vector<SparseCandidate> candidates;  // Sorted by (row, col).
  SparseSimilarityMode mode = SparseSimilarityMode::kDenseFallback;
  LshStats lsh;
};

// Which pipeline Aligner::Run executes.
enum class AlignPath {
  kDense,   // Similarity matrix + `method`, under the degradation ladder.
  kNative,  // The extraction the algorithm's authors proposed (Table 1).
  kSparse,  // LSH candidates + candidate scoring + sparse LAP (DESIGN §13).
};

// What Aligner::Run computes. `method` applies to kDense only, `lsh` to
// kSparse only.
struct AlignPlan {
  AlignPath path = AlignPath::kDense;
  AssignmentMethod method = AssignmentMethod::kJonkerVolgenant;
  LshOptions lsh;
};

// The plan an assignment name selects: "NN", "SG", "MWM" or "JV" (see
// AssignmentMethodName) is a dense plan with that method, and "native" is
// the native plan. Any other name is InvalidArgument.
Result<AlignPlan> AlignPlanFromAssign(const std::string& name);

// Output of Aligner::Run. `degraded` marks an alignment produced by a
// fallback of the degradation ladder (DESIGN.md §12); `degrade_reason` says
// which one and why. Degraded values render with a trailing `*` in
// benchmark tables.
struct AlignReport {
  Alignment alignment;
  bool degraded = false;
  std::string degrade_reason;
  // Validation, similarity (or LSH candidates and their scoring) and the
  // sanitize/fallback step. A native run reports its single fused stage
  // here.
  double similarity_seconds = 0.0;
  double assignment_seconds = 0.0;
  // kSparse only.
  SparseSimilarityMode sparse_mode = SparseSimilarityMode::kDenseFallback;
  LshStats lsh;
};

class Aligner {
 public:
  virtual ~Aligner() = default;

  // Short display name, e.g. "IsoRank".
  virtual std::string name() const = 0;

  // Assignment method the original authors proposed (Table 1).
  virtual AssignmentMethod default_assignment() const = 0;

  // The algorithm's core output: an n1 x n2 node-similarity matrix
  // (higher = more similar). This is the step whose runtime the paper's
  // scalability figures report (assignment excluded, §6.2).
  //
  // An expired `deadline` aborts the computation cooperatively with
  // StatusCode::kDeadlineExceeded (the harness reports it as DNF, matching
  // the paper's budget semantics). The default deadline never expires.
  Result<DenseMatrix> ComputeSimilarity(const Graph& g1, const Graph& g2,
                                        const Deadline& deadline = Deadline());

  // Similarity followed by `method`, with no degradation ladder: the plain
  // composition of ComputeSimilarity and ExtractAlignment. The deadline
  // covers both stages.
  Result<Alignment> Align(const Graph& g1, const Graph& g2,
                          AssignmentMethod method,
                          const Deadline& deadline = Deadline());

  // The one end-to-end entry point: runs `plan` with the deadline covering
  // every stage.
  //   * kDense runs the degradation ladder (DESIGN.md §12). A finite
  //     similarity is extracted as is; non-finite entries are zeroed, and a
  //     kNumerical similarity failure (eigensolver non-convergence, SVD
  //     sweep exhaustion) is replaced by the degree-profile similarity
  //     1 / (1 + |deg_i - deg_j|). Either fallback marks the report degraded
  //     and extracts with SortGreedy (an optimal solver buys no accuracy on
  //     a sanitized or surrogate matrix). On a clean similarity, a kNumerical
  //     failure of an optimal solver is retried once with SortGreedy, marked
  //     degraded. Every other failure propagates. With no fault the
  //     alignment equals Align's: the ladder costs one finiteness scan.
  //   * kNative runs the extraction the authors proposed (Table 1).
  //   * kSparse runs ComputeSparseSimilarity then SparseLapAssign. Rows the
  //     LSH stage found no candidate for come back unmatched (-1).
  Result<AlignReport> Run(const Graph& g1, const Graph& g2,
                          const AlignPlan& plan,
                          const Deadline& deadline = Deadline());

  // Whether ComputeSparseSimilarity scores candidates natively (without an
  // n1 x n2 matrix) or through the dense fallback.
  virtual SparseSimilarityMode sparse_similarity_mode() const {
    return SparseSimilarityMode::kDenseFallback;
  }

  // Sparse similarity pipeline (DESIGN.md §13): generates LSH candidate
  // pairs over structural node signatures, then scores exactly those pairs.
  // For kNative aligners both stages are sub-quadratic in memory; for
  // kDenseFallback aligners the scoring stage still materializes the dense
  // matrix (the typed mode in the result says which happened). The deadline
  // covers generation and scoring.
  Result<SparseSimilarityResult> ComputeSparseSimilarity(
      const Graph& g1, const Graph& g2, const LshOptions& lsh = {},
      const Deadline& deadline = Deadline());

 protected:
  // Algorithm-specific similarity computation. Implementations poll the
  // deadline at their outer-iteration boundaries and forward it to the
  // iterative solvers they call.
  virtual Result<DenseMatrix> ComputeSimilarityImpl(
      const Graph& g1, const Graph& g2, const Deadline& deadline) = 0;

  // Author-proposed extraction. Algorithms whose native extraction is not
  // "similarity + LAP" (GRAAL's seed-and-extend, LREA's sparse
  // union-of-matchings, CONE/REGAL's kd-tree greedy) override this.
  virtual Result<Alignment> AlignNativeImpl(const Graph& g1, const Graph& g2,
                                            const Deadline& deadline) {
    return Align(g1, g2, default_assignment(), deadline);
  }

  // Scores candidates->similarity in place. The base implementation is the
  // dense fallback (ComputeSimilarityImpl + gather); kNative aligners
  // override it together with sparse_similarity_mode().
  virtual Status ScoreSparseCandidatesImpl(
      const Graph& g1, const Graph& g2, const Deadline& deadline,
      std::vector<SparseCandidate>* candidates);

  // Shared input validation: non-empty graphs.
  static Status ValidateInputs(const Graph& g1, const Graph& g2);
};

// Factory for all paper algorithms with Table-1 hyperparameters; names:
// "IsoRank", "GRAAL", "NSD", "LREA", "REGAL", "GWL", "S-GWL", "CONE",
// "GRASP". Returns NotFound for unknown names.
Result<std::unique_ptr<Aligner>> MakeAligner(const std::string& name);

// All paper algorithm names in Table-1 order.
std::vector<std::string> AllAlignerNames();

// Test-only fault injectors, reachable from every bench via --algos and
// from daemon requests:
//   _CRASH  raises SIGSEGV inside ComputeSimilarity
//   _OOM    allocates unboundedly (capped at a few GB as a safety net)
//   _HANG   spins without polling the cooperative deadline
// They model exactly the non-cooperative failures the isolated executors
// contain; run them only isolated. Returns nullptr for other names.
std::unique_ptr<Aligner> MakeFaultAligner(const std::string& name);

}  // namespace graphalign

#endif  // GRAPHALIGN_ALIGN_ALIGNER_H_
