// k-d tree for Euclidean nearest-neighbor queries over embeddings.
//
// REGAL and CONE extract alignments by querying target-graph embeddings with
// source-graph embeddings (paper §3.5, §3.7).
#ifndef GRAPHALIGN_LINALG_KDTREE_H_
#define GRAPHALIGN_LINALG_KDTREE_H_

#include <vector>

#include "common/status.h"
#include "linalg/dense.h"

namespace graphalign {

class KdTree {
 public:
  // Builds over the rows of `points` (n x d), which the tree keeps.
  explicit KdTree(DenseMatrix points);

  int size() const { return points_.rows(); }
  int dim() const { return points_.cols(); }

  struct Neighbor {
    int index;
    double distance;  // Euclidean.
  };

  // Index of the nearest row to `query` (length d). Requires a non-empty tree.
  Neighbor Nearest(const double* query) const;
  // The k nearest rows, sorted by increasing distance. k is clamped to size().
  std::vector<Neighbor> KNearest(const double* query, int k) const;

 private:
  struct Node {
    int point = -1;      // Row index of the splitting point.
    int axis = 0;        // Splitting dimension.
    int left = -1;       // Child node ids, -1 if absent.
    int right = -1;
  };

  int Build(std::vector<int>* indices, int lo, int hi, int depth);
  void Search(int node_id, const double* query, int k,
              std::vector<Neighbor>* heap) const;
  double SquaredDistance(int row, const double* query) const;

  DenseMatrix points_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

// Nearest-embedding extraction (REGAL and CONE's native path): `y` stacks
// n1 source rows over n2 target rows; returns, for each source row, the
// index of its nearest target row.
std::vector<int> NearestTargets(const DenseMatrix& y, int n1, int n2);

}  // namespace graphalign

#endif  // GRAPHALIGN_LINALG_KDTREE_H_
