#include "linalg/kdtree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace graphalign {

KdTree::KdTree(DenseMatrix points) : points_(std::move(points)) {
  const int n = points_.rows();
  if (n == 0) return;
  std::vector<int> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  nodes_.reserve(n);
  root_ = Build(&indices, 0, n, 0);
}

int KdTree::Build(std::vector<int>* indices, int lo, int hi, int depth) {
  if (lo >= hi) return -1;
  const int axis = points_.cols() > 0 ? depth % points_.cols() : 0;
  const int mid = (lo + hi) / 2;
  std::nth_element(indices->begin() + lo, indices->begin() + mid,
                   indices->begin() + hi, [&](int a, int b) {
                     return points_(a, axis) < points_(b, axis);
                   });
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_id].point = (*indices)[mid];
  nodes_[node_id].axis = axis;
  const int left = Build(indices, lo, mid, depth + 1);
  const int right = Build(indices, mid + 1, hi, depth + 1);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double KdTree::SquaredDistance(int row, const double* query) const {
  const double* p = points_.Row(row);
  double s = 0.0;
  for (int j = 0; j < points_.cols(); ++j) {
    const double d = p[j] - query[j];
    s += d * d;
  }
  return s;
}

void KdTree::Search(int node_id, const double* query, int k,
                    std::vector<Neighbor>* heap) const {
  if (node_id < 0) return;
  const Node& node = nodes_[node_id];
  const double d2 = SquaredDistance(node.point, query);

  auto worse = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;  // Max-heap on distance.
  };
  if (static_cast<int>(heap->size()) < k) {
    heap->push_back({node.point, d2});
    std::push_heap(heap->begin(), heap->end(), worse);
  } else if (d2 < heap->front().distance) {
    std::pop_heap(heap->begin(), heap->end(), worse);
    heap->back() = {node.point, d2};
    std::push_heap(heap->begin(), heap->end(), worse);
  }

  const double delta = query[node.axis] - points_(node.point, node.axis);
  const int near = delta <= 0.0 ? node.left : node.right;
  const int far = delta <= 0.0 ? node.right : node.left;
  Search(near, query, k, heap);
  if (static_cast<int>(heap->size()) < k ||
      delta * delta < heap->front().distance) {
    Search(far, query, k, heap);
  }
}

KdTree::Neighbor KdTree::Nearest(const double* query) const {
  GA_CHECK_MSG(size() > 0, "Nearest() on empty KdTree");
  return KNearest(query, 1)[0];
}

std::vector<KdTree::Neighbor> KdTree::KNearest(const double* query,
                                               int k) const {
  k = std::min(k, size());
  std::vector<Neighbor> heap;
  heap.reserve(k);
  Search(root_, query, k, &heap);
  std::sort(heap.begin(), heap.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  });
  for (Neighbor& nb : heap) nb.distance = std::sqrt(nb.distance);
  return heap;
}

std::vector<int> NearestTargets(const DenseMatrix& y, int n1, int n2) {
  DenseMatrix targets(n2, y.cols());
  for (int v = 0; v < n2; ++v) {
    for (int j = 0; j < y.cols(); ++j) targets(v, j) = y(n1 + v, j);
  }
  const KdTree tree(std::move(targets));
  std::vector<int> nearest(n1);
  for (int u = 0; u < n1; ++u) nearest[u] = tree.Nearest(y.Row(u)).index;
  return nearest;
}

}  // namespace graphalign
