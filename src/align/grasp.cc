#include "align/grasp.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "linalg/csr.h"
#include "linalg/eigen_sym.h"
#include "linalg/svd.h"

namespace graphalign {

namespace {

// k smallest eigenpairs of the normalized Laplacian. Dense path for small
// graphs (exact), Lanczos otherwise.
Result<SymmetricEigenResult> LaplacianEigs(const Graph& g, int k,
                                           const Deadline& deadline) {
  const int n = g.num_nodes();
  if (n <= 1200) {
    GA_ASSIGN_OR_RETURN(
        SymmetricEigenResult full,
        SymmetricEigen(g.NormalizedLaplacianDense(), deadline));
    SymmetricEigenResult out;
    out.eigenvalues.assign(full.eigenvalues.begin(),
                           full.eigenvalues.begin() + k);
    out.eigenvectors = DenseMatrix(n, k);
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < n; ++i) {
        out.eigenvectors(i, j) = full.eigenvectors(i, j);
      }
    }
    return out;
  }
  const CsrMatrix adj = g.SymNormalizedAdjacencyCsr();
  LinearOperator op = [&adj](const std::vector<double>& x,
                             std::vector<double>* y) {
    *y = adj.Multiply(x);
    // L x = x - \hat{A} x.
    for (size_t i = 0; i < x.size(); ++i) (*y)[i] = x[i] - (*y)[i];
  };
  const int steps = std::min(g.num_nodes(), std::max(4 * k, 80));
  return LanczosEigen(op, n, k, SpectrumEnd::kSmallest, steps,
                      /*seed=*/12345, deadline);
}

// Heat-kernel diagonals: F(v, s) = sum_j exp(-t_s lambda_j) phi_j(v)^2.
// The weights w(s, j) are computed once; each F(v, s) then sums along
// eigenvector row v in ascending j, so its bytes depend neither on the loop
// order nor on how rows are split across threads.
DenseMatrix HeatKernelDiagonals(const SymmetricEigenResult& eig,
                                const std::vector<double>& times) {
  const int n = eig.eigenvectors.rows();
  const int k = static_cast<int>(eig.eigenvalues.size());
  const int q = static_cast<int>(times.size());
  DenseMatrix w(q, k);
  for (int s = 0; s < q; ++s) {
    for (int j = 0; j < k; ++j) {
      w(s, j) = std::exp(-times[s] * eig.eigenvalues[j]);
    }
  }
  DenseMatrix f(n, q);
  ParallelFor(n, [&](int64_t lo, int64_t hi) {
    for (int v = static_cast<int>(lo); v < hi; ++v) {
      const double* phi = eig.eigenvectors.Row(v);
      double* fv = f.Row(v);
      for (int s = 0; s < q; ++s) {
        const double* ws = w.Row(s);
        double acc = 0.0;
        for (int j = 0; j < k; ++j) acc += ws[j] * phi[j] * phi[j];
        fv[s] = acc;
      }
    }
  }, std::max<int64_t>(2, 500'000 / (static_cast<int64_t>(q) * k + 1)));
  return f;
}

}  // namespace

Result<DenseMatrix> GraspAligner::ComputeSimilarityImpl(
    const Graph& g1, const Graph& g2, const Deadline& deadline) {
  GA_RETURN_IF_ERROR(ValidateInputs(g1, g2));
  if (options_.q < 2 || options_.t_min <= 0.0 ||
      options_.t_max <= options_.t_min) {
    return Status::InvalidArgument("GRASP: bad time-step configuration");
  }
  const int n1 = g1.num_nodes();
  const int n2 = g2.num_nodes();
  // The basis can never exceed the eigenpairs both graphs actually have:
  // clamping k below by 2 regardless used to read past the eigenvector
  // matrix on 1- and 2-node graphs.
  const int max_basis = std::min(n1 - 1, n2 - 1);
  if (max_basis < 1) {
    return Status::InvalidArgument(
        "GRASP: graphs must have at least 2 nodes for a spectral basis");
  }
  const int k = std::max(1, std::min(options_.k, max_basis));
  // Heat kernels use the full spectrum when the dense eigensolver is in
  // play (n <= 1200, matching GRASP's O(n^3) profile in Table 1); beyond
  // that, a Lanczos subset bounded by k_functions (never below k).
  const int small = std::min(n1, n2);
  const int k_func =
      small <= 1200 ? max_basis
                    : std::max(k, std::min(options_.k_functions, max_basis));

  GA_ASSIGN_OR_RETURN(SymmetricEigenResult eig_full1,
                      LaplacianEigs(g1, k_func, deadline));
  GA_ASSIGN_OR_RETURN(SymmetricEigenResult eig_full2,
                      LaplacianEigs(g2, k_func, deadline));
  // The k smallest eigenpairs are the aligned basis.
  SymmetricEigenResult eig1, eig2;
  eig1.eigenvalues.assign(eig_full1.eigenvalues.begin(),
                          eig_full1.eigenvalues.begin() + k);
  eig2.eigenvalues.assign(eig_full2.eigenvalues.begin(),
                          eig_full2.eigenvalues.begin() + k);
  eig1.eigenvectors = DenseMatrix(n1, k);
  eig2.eigenvectors = DenseMatrix(n2, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < n1; ++i) {
      eig1.eigenvectors(i, j) = eig_full1.eigenvectors(i, j);
    }
    for (int i = 0; i < n2; ++i) {
      eig2.eigenvectors(i, j) = eig_full2.eigenvectors(i, j);
    }
  }

  // Log-spaced diffusion times.
  std::vector<double> times(options_.q);
  const double log_min = std::log(options_.t_min);
  const double log_max = std::log(options_.t_max);
  for (int s = 0; s < options_.q; ++s) {
    times[s] =
        std::exp(log_min + (log_max - log_min) * s / (options_.q - 1));
  }

  // The heat-kernel and descriptor passes below are bounded parallel
  // regions; one check between the eigensolves and them bounds overshoot.
  GA_RETURN_IF_EXPIRED(deadline, "GRASP descriptors");
  DenseMatrix f = HeatKernelDiagonals(eig_full1, times);  // n1 x q
  DenseMatrix g = HeatKernelDiagonals(eig_full2, times);  // n2 x q

  // Coefficients of the corresponding functions in each eigenbasis.
  DenseMatrix a_hat = MultiplyAtB(eig1.eigenvectors, f);  // k x q
  DenseMatrix b_hat = MultiplyAtB(eig2.eigenvectors, g);  // k x q

  // Base alignment: orthogonal M with M * b_hat ~= a_hat
  // (solves min ||b_hat^T Q - a_hat^T||, M = Q^T).
  GA_ASSIGN_OR_RETURN(DenseMatrix q_rot,
                      ProcrustesRotation(b_hat.Transposed(),
                                         a_hat.Transposed(), deadline));
  // Aligned target basis Psi' = Psi * Q (so that Psi'^T G = M Psi^T G).
  DenseMatrix psi_aligned = Multiply(eig2.eigenvectors, q_rot);
  DenseMatrix b_aligned = MultiplyAtB(psi_aligned, g);  // = M * b_hat

  // Diagonal functional map C: a_hat_i ~= c_i * b_aligned_i, per row i.
  std::vector<double> c(k, 1.0);
  for (int i = 0; i < k; ++i) {
    double num = 0.0, den = 0.0;
    for (int s = 0; s < options_.q; ++s) {
      num += a_hat(i, s) * b_aligned(i, s);
      den += b_aligned(i, s) * b_aligned(i, s);
    }
    c[i] = den > 1e-15 ? num / den : 1.0;
  }

  // Spectral embeddings: rows of Phi vs rows of Psi' scaled by C.
  DenseMatrix e2 = psi_aligned;
  for (int v = 0; v < n2; ++v) {
    for (int i = 0; i < k; ++i) e2(v, i) *= c[i];
  }

  // Node descriptors: aligned spectral embedding concatenated with the
  // heat-kernel diagonals (the corresponding functions themselves, which are
  // permutation-equivariant and anchor the matching when near-degenerate
  // eigenspaces make the base alignment ambiguous). Both blocks are scaled
  // to comparable magnitude.
  // The aligned-basis block gets a modest weight: the heat-kernel block
  // anchors the matching, the aligned eigenvectors refine it.
  // The aligned-basis block is a tiebreaker next to the heat-kernel block.
  // Its weight decays with n: HKS margins tighten as the spectrum packs,
  // so a constant-weight basis block (whose base-alignment error does NOT
  // shrink) would overwhelm them on larger graphs.
  const double phi_scale = 1.0 / std::sqrt(static_cast<double>(n1));
  double f_norm = 0.0;
  for (int v = 0; v < n1; ++v) {
    for (int s = 0; s < options_.q; ++s) f_norm += f(v, s) * f(v, s);
  }
  const double hks_scale =
      f_norm > 0.0 ? std::sqrt(static_cast<double>(n1) * options_.q / f_norm)
                   : 1.0;

  // Similarity = 1 / (1 + ||descriptor_u - descriptor_v||).
  DenseMatrix sim(n1, n2);
  ParallelFor(n1, [&](int64_t lo, int64_t hi) {
  for (int u = static_cast<int>(lo); u < hi; ++u) {
    const double* row1 = eig1.eigenvectors.Row(u);
    const double* fu = f.Row(u);
    double* out = sim.Row(u);
    for (int v = 0; v < n2; ++v) {
      const double* row2 = e2.Row(v);
      double d = 0.0;
      for (int i = 0; i < k; ++i) {
        const double diff = phi_scale * (row1[i] - row2[i]);
        d += diff * diff;
      }
      const double* gv = g.Row(v);
      for (int s = 0; s < options_.q; ++s) {
        const double diff = hks_scale * (fu[s] - gv[s]);
        d += diff * diff;
      }
      out[v] = 1.0 / (1.0 + std::sqrt(d));
    }
  }
  }, std::max<int64_t>(
         2, 500'000 / (static_cast<int64_t>(n2) * (k + options_.q) + 1)));
  return sim;
}

}  // namespace graphalign
