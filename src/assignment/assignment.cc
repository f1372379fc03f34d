#include "assignment/assignment.h"

#include <algorithm>
#include <cmath>

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
  // Sort (value, row, column) records by value, descending. std::sort's
  // moves depend only on comparison outcomes, so tied values come out in
  // the same order as from a sort of flat indices by value (DESIGN.md §7).
  struct Entry {
    double value;
    int row;
    int col;
  };
  std::vector<Entry> order(static_cast<size_t>(n) * m);
  for (int i = 0; i < n; ++i) {
    const double* row = similarity.Row(i);
    Entry* out = &order[static_cast<size_t>(i) * m];
    for (int j = 0; j < m; ++j) out[j] = {row[j], i, j};
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    return a.value > b.value;
  });
  // The first poll follows the O(nm log nm) sort; the walk then polls once
  // per 32 rows' worth of records.
  DeadlineChecker checker(deadline, /*stride=*/32 * m);
  Alignment align(n, -1);
  std::vector<char> col_used(m, 0);
  int matched = 0;
  const int target = std::min(n, m);
  for (const Entry& e : order) {
    GA_RETURN_IF_EXPIRED(checker, "SortGreedyAssign");
    if (align[e.row] != -1 || col_used[e.col]) continue;
    align[e.row] = e.col;
    col_used[e.col] = 1;
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
  // augment along (Hungarian would index p[-1]). Aligner::Run's dense
  // path sanitizes first; every other caller gets a typed refusal.
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
