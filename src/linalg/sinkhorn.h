// Entropy-regularized optimal transport via Sinkhorn-Knopp scaling.
//
// GWL's proximal-point steps and CONE's Wasserstein alignment both reduce to
// repeated Sinkhorn projections of a Gibbs kernel onto prescribed marginals.
#ifndef GRAPHALIGN_LINALG_SINKHORN_H_
#define GRAPHALIGN_LINALG_SINKHORN_H_

#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "linalg/dense.h"

namespace graphalign {

struct SinkhornOptions {
  double epsilon = 0.05;     // Entropic regularization strength.
  int max_iters = 200;       // Scaling iterations.
  double tolerance = 1e-6;   // L1 marginal violation to stop at.
};

// Minimizes <C, T> - eps * H(T) over couplings T with marginals (mu, nu).
// C is n x m; mu has length n, nu length m, both summing to ~1.
// Returns the transport plan T (n x m). Numerically stabilized by shifting
// all of C by its global minimum before exponentiation, which keeps the
// kernel in (0, 1].
Result<DenseMatrix> SinkhornTransport(const DenseMatrix& cost,
                                      const std::vector<double>& mu,
                                      const std::vector<double>& nu,
                                      const SinkhornOptions& options = {},
                                      const Deadline& deadline = Deadline());

// Sinkhorn projection of an explicit positive kernel K onto the transport
// polytope with marginals (mu, nu): T = diag(a) K diag(b). Used by GWL's
// proximal updates where K = exp(-grad/beta) ⊙ T_prev.
//
// Peaked kernels (tiny epsilon, concentrated costs) can underflow: entries
// round to zero, rows/columns lose all mass, or overflow poisons entries
// with inf/NaN. Instead of rejecting such kernels, the projection restarts
// in the log domain (potentials + log-sum-exp), which handles entries down
// to exp(-745) and below without ever forming the underflowed products.
// `used_log_fallback`, when non-null, reports whether that path ran.
// Negative kernel entries are still InvalidArgument — they are a caller bug,
// not an underflow. Arming the `linalg.sinkhorn.strict` failpoint restores
// the historical hard rejection of non-finite kernels (for tests).
Result<DenseMatrix> SinkhornProject(const DenseMatrix& kernel,
                                    const std::vector<double>& mu,
                                    const std::vector<double>& nu,
                                    int max_iters = 200,
                                    double tolerance = 1e-6,
                                    const Deadline& deadline = Deadline(),
                                    bool* used_log_fallback = nullptr);

// Uniform probability vector of length n.
std::vector<double> UniformMarginal(int n);

}  // namespace graphalign

#endif  // GRAPHALIGN_LINALG_SINKHORN_H_
