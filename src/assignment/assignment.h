// Assignment (alignment-extraction) algorithms (paper §6.2).
//
// Every alignment algorithm produces a node-similarity matrix; the final
// one-to-one correspondence is extracted by one of four methods the paper
// compares: NearestNeighbor (NN), SortGreedy (SG), Maximum Weight Matching /
// Hungarian (MWM), and Jonker-Volgenant (JV).
#ifndef GRAPHALIGN_ASSIGNMENT_ASSIGNMENT_H_
#define GRAPHALIGN_ASSIGNMENT_ASSIGNMENT_H_

#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "linalg/dense.h"

namespace graphalign {

// alignment[u] = matched node in G2 for node u of G1, or -1 if unmatched.
using Alignment = std::vector<int>;

enum class AssignmentMethod {
  kNearestNeighbor,
  kSortGreedy,
  kHungarian,  // "MWM" in the paper.
  kJonkerVolgenant,
};

const char* AssignmentMethodName(AssignmentMethod method);

// All extraction entry points accept an optional deadline and abort with
// kDeadlineExceeded once it has passed: the O(n^3) solvers (Hungarian, JV)
// poll it between augmentation phases; SG, O(nm log nm), polls it up front,
// after its sort, and once per 32 rows' worth of its greedy walk; NN, one
// O(nm) pass, checks it once up front. The default deadline never expires.

// Per-row argmax. May assign the same target to several sources (the paper
// notes NN yields many-to-one matchings).
Result<Alignment> NearestNeighborAssign(const DenseMatrix& similarity,
                                        const Deadline& deadline = Deadline());

// Greedily matches the globally most similar unmatched pair until no pair is
// left. One-to-one. O(n*m log(n*m)).
Result<Alignment> SortGreedyAssign(const DenseMatrix& similarity,
                                   const Deadline& deadline = Deadline());

// Optimal linear assignment maximizing total similarity via the Hungarian
// algorithm with potentials (Kuhn-Munkres). O(n^3). One-to-one.
Result<Alignment> HungarianAssign(const DenseMatrix& similarity,
                                  const Deadline& deadline = Deadline());

// Optimal linear assignment via the Jonker-Volgenant shortest-augmenting-path
// algorithm with column reduction and augmenting row reduction. Produces the
// same objective value as Hungarian. Which of the two is faster depends on
// the matrix: Hungarian is ahead on the aligners' 256-node matrices, and at
// 1024 or 2048 nodes either can win. One-to-one.
Result<Alignment> JonkerVolgenantAssign(const DenseMatrix& similarity,
                                        const Deadline& deadline = Deadline());

// Dispatch by method enum.
Result<Alignment> ExtractAlignment(const DenseMatrix& similarity,
                                   AssignmentMethod method,
                                   const Deadline& deadline = Deadline());

// Total similarity of an alignment (sum over matched pairs).
double AlignmentScore(const DenseMatrix& similarity,
                      const Alignment& alignment);

}  // namespace graphalign

#endif  // GRAPHALIGN_ASSIGNMENT_ASSIGNMENT_H_
