// Hungarian algorithm (Kuhn-Munkres) with dual potentials, O(n^2 m).
// This is the "MWM" solver of the paper: an optimal linear-assignment
// algorithm used by LREA and cross-checked against Jonker-Volgenant.
#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "assignment/assignment.h"

namespace graphalign {

namespace {

// Minimizes total cost for the n x m cost matrix -weight, n <= m, reading
// the negation inline (negation is exact, so this is the same cost matrix).
// Returns row -> column assignment, or kDeadlineExceeded if the deadline
// expires between augmentation steps.
//
// Each step scans only the columns not yet on the row's alternating tree,
// kept in an ascending list, so the strict `<` picks the same column on
// ties as a scan over all columns would; the tree's own columns are kept in
// a second list for the potential update. The textbook `minv[j] -= delta`
// over the free columns is folded into the next step's scan, and the step
// that ends the row never applies it (its minv is not read again).
Result<std::vector<int>> HungarianMinCost(const DenseMatrix& weight,
                                          const Deadline& deadline) {
  const int n = weight.rows();
  const int m = weight.cols();
  GA_CHECK(n <= m);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Each augmentation step below scans O(m) columns, so polling every 32
  // steps bounds overshoot to ~32m operations.
  DeadlineChecker checker(deadline, /*stride=*/32);
  // 1-indexed potentials and matching (p[j] = row matched to column j).
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0), way(m + 1, 0);
  std::vector<double> minv(m + 1);
  std::vector<int> free_cols, used_cols;
  free_cols.reserve(m);
  used_cols.reserve(m + 1);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    free_cols.resize(m);
    std::iota(free_cols.begin(), free_cols.end(), 1);
    used_cols.clear();
    // The previous step's delta, still owed by every free minv; x - 0.0 is
    // x for every double, so the row's first step reads minv unchanged.
    double owed = 0.0;
    do {
      GA_RETURN_IF_EXPIRED(checker, "HungarianAssign");
      used_cols.push_back(j0);
      const int i0 = p[j0];
      const double ui0 = u[i0];
      const double* wrow = weight.Row(i0 - 1);
      const int num_free = static_cast<int>(free_cols.size());
      int k1 = -1;
      double delta = kInf;
      for (int k = 0; k < num_free; ++k) {
        const int j = free_cols[k];
        const double cur = -wrow[j - 1] - ui0 - v[j];
        double mv = minv[j] - owed;
        if (cur < mv) {
          mv = cur;
          way[j] = j0;
        }
        minv[j] = mv;
        if (mv < delta) {
          delta = mv;
          k1 = k;
        }
      }
      if (k1 < 0) {
        return Status::InvalidArgument(
            "HungarianAssign: no column with a finite reduced cost");
      }
      for (int j : used_cols) {
        u[p[j]] += delta;
        v[j] -= delta;
      }
      owed = delta;
      j0 = free_cols[k1];
      free_cols.erase(free_cols.begin() + k1);
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<int> row_to_col(n, -1);
  for (int j = 1; j <= m; ++j) {
    if (p[j] > 0) row_to_col[p[j] - 1] = j - 1;
  }
  return row_to_col;
}

}  // namespace

Result<Alignment> HungarianAssign(const DenseMatrix& similarity,
                                  const Deadline& deadline) {
  const int n = similarity.rows();
  const int m = similarity.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("HungarianAssign: empty matrix");
  }
  // Maximize similarity == minimize negated similarity.
  if (n <= m) return HungarianMinCost(similarity, deadline);
  // More sources than targets: solve the transpose, then invert.
  GA_ASSIGN_OR_RETURN(std::vector<int> col_to_row,
                      HungarianMinCost(similarity.Transposed(), deadline));
  Alignment align(n, -1);
  for (int j = 0; j < m; ++j) {
    if (col_to_row[j] >= 0) align[col_to_row[j]] = j;
  }
  return align;
}

}  // namespace graphalign
