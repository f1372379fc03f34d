#include "assignment/assignment.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/failpoint.h"

namespace graphalign {

const char* AssignmentMethodName(AssignmentMethod method) {
  switch (method) {
    case AssignmentMethod::kNearestNeighbor:
      return "NN";
    case AssignmentMethod::kSortGreedy:
      return "SG";
    case AssignmentMethod::kHungarian:
      return "MWM";
    case AssignmentMethod::kJonkerVolgenant:
      return "JV";
  }
  return "unknown";
}

Result<Alignment> NearestNeighborAssign(const DenseMatrix& similarity,
                                        const Deadline& deadline) {
  const int n = similarity.rows();
  const int m = similarity.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("NearestNeighborAssign: empty matrix");
  }
  GA_RETURN_IF_EXPIRED(deadline, "NearestNeighborAssign");
  Alignment align(n, -1);
  for (int i = 0; i < n; ++i) {
    const double* row = similarity.Row(i);
    int best = 0;
    for (int j = 1; j < m; ++j) {
      if (row[j] > row[best]) best = j;
    }
    align[i] = best;
  }
  return align;
}

Result<Alignment> SortGreedyAssign(const DenseMatrix& similarity,
                                   const Deadline& deadline) {
  const int n = similarity.rows();
  const int m = similarity.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("SortGreedyAssign: empty matrix");
  }
  GA_RETURN_IF_EXPIRED(deadline, "SortGreedyAssign");
  // Sort flat indices by similarity, descending.
  std::vector<int64_t> order(static_cast<size_t>(n) * m);
  std::iota(order.begin(), order.end(), int64_t{0});
  const double* data = similarity.data();
  std::sort(order.begin(), order.end(),
            [&](int64_t a, int64_t b) { return data[a] > data[b]; });
  Alignment align(n, -1);
  std::vector<bool> col_used(m, false);
  int matched = 0;
  const int target = std::min(n, m);
  for (int64_t idx : order) {
    const int i = static_cast<int>(idx / m);
    const int j = static_cast<int>(idx % m);
    if (align[i] != -1 || col_used[j]) continue;
    align[i] = j;
    col_used[j] = true;
    if (++matched == target) break;
  }
  return align;
}

Result<Alignment> ExtractAlignment(const DenseMatrix& similarity,
                                   AssignmentMethod method,
                                   const Deadline& deadline) {
  GA_FAILPOINT_STATUS(
      "assignment.extract.error",
      Status::Numerical("ExtractAlignment: solver failed on degenerate "
                        "similarity"));
  // A row without a finite reduced cost leaves the LAP solvers no column to
  // augment along (Hungarian would index p[-1]). The robust pipeline
  // sanitizes first; every other caller gets a typed refusal.
  const double* data = similarity.data();
  for (size_t i = 0; i < similarity.size(); ++i) {
    if (!std::isfinite(data[i])) {
      return Status::InvalidArgument(
          "ExtractAlignment: non-finite similarity");
    }
  }
  switch (method) {
    case AssignmentMethod::kNearestNeighbor:
      return NearestNeighborAssign(similarity, deadline);
    case AssignmentMethod::kSortGreedy:
      return SortGreedyAssign(similarity, deadline);
    case AssignmentMethod::kHungarian:
      return HungarianAssign(similarity, deadline);
    case AssignmentMethod::kJonkerVolgenant:
      return JonkerVolgenantAssign(similarity, deadline);
  }
  return Status::InvalidArgument("unknown assignment method");
}

double AlignmentScore(const DenseMatrix& similarity,
                      const Alignment& alignment) {
  double s = 0.0;
  for (int i = 0; i < static_cast<int>(alignment.size()); ++i) {
    if (alignment[i] >= 0) s += similarity(i, alignment[i]);
  }
  return s;
}

}  // namespace graphalign
