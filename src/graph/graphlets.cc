#include "graph/graphlets.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <vector>

namespace graphalign {

namespace {

// Classifies a connected induced 4-node subgraph and adds orbit counts.
// `deg` are the induced degrees of the four nodes; `edges` the induced edge
// count (3..6).
void AddOrbits4(const std::array<int, 5>& nodes, const std::array<int, 4>& deg,
                int edges, DenseMatrix* orbits) {
  switch (edges) {
    case 3: {
      // Path P4 (degrees 1,1,2,2) or star/claw (1,1,1,3).
      bool is_star = false;
      for (int i = 0; i < 4; ++i) {
        if (deg[i] == 3) is_star = true;
      }
      for (int i = 0; i < 4; ++i) {
        int orbit;
        if (is_star) {
          orbit = deg[i] == 3 ? 7 : 6;
        } else {
          orbit = deg[i] == 1 ? 4 : 5;
        }
        (*orbits)(nodes[i], orbit) += 1.0;
      }
      break;
    }
    case 4: {
      // Cycle C4 (2,2,2,2) or paw (1,2,2,3).
      bool is_cycle = true;
      for (int i = 0; i < 4; ++i) {
        if (deg[i] != 2) is_cycle = false;
      }
      for (int i = 0; i < 4; ++i) {
        int orbit;
        if (is_cycle) {
          orbit = 8;
        } else {
          orbit = deg[i] == 1 ? 9 : (deg[i] == 2 ? 10 : 11);
        }
        (*orbits)(nodes[i], orbit) += 1.0;
      }
      break;
    }
    case 5: {
      // Diamond (K4 minus an edge): degrees 2,3,3,2.
      for (int i = 0; i < 4; ++i) {
        (*orbits)(nodes[i], deg[i] == 2 ? 12 : 13) += 1.0;
      }
      break;
    }
    case 6: {
      for (int i = 0; i < 4; ++i) (*orbits)(nodes[i], 14) += 1.0;
      break;
    }
    default:
      GA_CHECK_MSG(false, "connected 4-node subgraph with <3 edges");
  }
}

// ---------------------------------------------------------------------------
// 5-node orbit lookup table: for every connected 10-bit adjacency mask, the
// global orbit id of each of the 5 positions. Built once by exhaustive
// canonization over all 120 permutations.

// Bit index of the edge {a, b} with a < b among the 10 vertex pairs.
constexpr int kPairBit[5][5] = {
    {-1, 0, 1, 2, 3},
    {0, -1, 4, 5, 6},
    {1, 4, -1, 7, 8},
    {2, 5, 7, -1, 9},
    {3, 6, 8, 9, -1},
};

int PermuteMask(int mask, const std::array<int, 5>& perm) {
  int out = 0;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      if (mask & (1 << kPairBit[a][b])) {
        out |= 1 << kPairBit[perm[a]][perm[b]];
      }
    }
  }
  return out;
}

bool MaskConnected(int mask) {
  // BFS over the 5 nodes.
  int visited = 1;  // Start at node 0.
  for (int round = 0; round < 5; ++round) {
    int next = visited;
    for (int a = 0; a < 5; ++a) {
      if (!(visited & (1 << a))) continue;
      for (int b = 0; b < 5; ++b) {
        if (a != b && (mask & (1 << kPairBit[std::min(a, b)][std::max(a, b)]))) {
          next |= 1 << b;
        }
      }
    }
    visited = next;
  }
  return visited == 0b11111;
}

struct Orbit5Table {
  // table[mask][v] = global orbit id, or -1 if mask disconnected.
  std::array<std::array<int, 5>, 1024> table;
  int num_graphlets = 0;
  int num_orbits = 0;
};

const Orbit5Table& GetOrbit5Table() {
  static const Orbit5Table* table = [] {
    auto* t = new Orbit5Table();
    for (auto& row : t->table) row.fill(-1);

    // All 120 permutations of 5 elements.
    std::array<int, 5> p = {0, 1, 2, 3, 4};
    std::vector<std::array<int, 5>> perms;
    do {
      perms.push_back(p);
    } while (std::next_permutation(p.begin(), p.end()));

    // Pass 1: canonical mask (minimum over permutations) per connected mask.
    std::vector<int> canon(1024, -1);
    std::vector<std::array<int, 5>> canon_perm(1024);
    for (int mask = 0; mask < 1024; ++mask) {
      if (!MaskConnected(mask)) continue;
      int best = 1 << 30;
      std::array<int, 5> best_perm = perms[0];
      for (const auto& perm : perms) {
        const int pm = PermuteMask(mask, perm);
        if (pm < best) {
          best = pm;
          best_perm = perm;
        }
      }
      canon[mask] = best;
      canon_perm[mask] = best_perm;  // Maps mask's vertices onto canonical's.
    }

    // Pass 2: order canonical classes by (edge count, mask) and compute each
    // class's vertex-orbit partition from its automorphism group.
    std::map<std::pair<int, int>, int> class_order;  // (edges, canon) -> id
    for (int mask = 0; mask < 1024; ++mask) {
      if (canon[mask] == mask) {
        class_order[{__builtin_popcount(mask), mask}] = 0;
      }
    }
    int next_graphlet = 0;
    for (auto& [key, id] : class_order) id = next_graphlet++;
    t->num_graphlets = next_graphlet;

    // orbit_of[canonical mask][v] = global orbit id.
    std::map<int, std::array<int, 5>> orbit_of;
    int next_orbit = 0;
    for (const auto& [key, graphlet_id] : class_order) {
      const int cmask = key.second;
      // Union vertices connected by an automorphism.
      std::array<int, 5> rep;
      std::iota(rep.begin(), rep.end(), 0);
      std::function<int(int)> find = [&](int x) {
        while (rep[x] != x) x = rep[x] = rep[rep[x]];
        return x;
      };
      for (const auto& perm : perms) {
        if (PermuteMask(cmask, perm) != cmask) continue;
        for (int v = 0; v < 5; ++v) {
          const int a = find(v);
          const int b = find(perm[v]);
          if (a != b) rep[std::max(a, b)] = std::min(a, b);
        }
      }
      // Assign global ids in order of each orbit's lowest vertex.
      std::array<int, 5> ids;
      ids.fill(-1);
      for (int v = 0; v < 5; ++v) {
        const int root = find(v);
        if (ids[root] == -1) ids[root] = next_orbit++;
        ids[v] = ids[root];
      }
      orbit_of[cmask] = ids;
    }
    t->num_orbits = next_orbit;
    GA_CHECK_MSG(t->num_graphlets == 21,
                 "expected 21 connected 5-node graphlets");
    GA_CHECK_MSG(t->num_orbits == kNumOrbits5,
                 "expected 58 orbits of 5-node graphlets");

    // Pass 3: per-mask, per-vertex global orbit via the canonizing perm.
    for (int mask = 0; mask < 1024; ++mask) {
      if (canon[mask] < 0) continue;
      const auto& ids = orbit_of[canon[mask]];
      for (int v = 0; v < 5; ++v) {
        t->table[mask][v] = ids[canon_perm[mask][v]];
      }
    }
    return t;
  }();
  return *table;
}

// ---------------------------------------------------------------------------
// ESU enumeration (Wernicke) for subgraph sizes 4 and 5.

class Esu {
 public:
  Esu(const Graph& g, int size, int64_t max_subgraphs,
      const Deadline& deadline, DenseMatrix* orbits)
      : g_(g),
        size_(size),
        max_subgraphs_(max_subgraphs),
        orbits_(orbits),
        blocked_(g.num_nodes(), false),
        near_(g.num_nodes(), 0),
        // Emit costs O(size^2) bit tests; a 4096-emit stride keeps the
        // clock entirely out of the enumeration profile.
        checker_(deadline, /*stride=*/4096) {}

  Status Run() {
    const int n = g_.num_nodes();
    for (int v = 0; v < n; ++v) {
      sub_[0] = v;
      blocked_[v] = true;
      std::vector<int> ext;
      std::vector<int> newly_blocked;
      for (int u : g_.Neighbors(v)) {
        near_[u] |= 1;
        if (u > v) {
          ext.push_back(u);
          blocked_[u] = true;
          newly_blocked.push_back(u);
        }
      }
      GA_RETURN_IF_ERROR(Extend(1, v, ext));
      blocked_[v] = false;
      for (int u : g_.Neighbors(v)) near_[u] &= ~1;
      for (int u : newly_blocked) blocked_[u] = false;
    }
    return Status::Ok();
  }

 private:
  Status Extend(int depth, int root, std::vector<int> ext) {
    while (!ext.empty()) {
      const int w = ext.back();
      ext.pop_back();
      if (depth == size_ - 1) {
        sub_[depth] = w;
        GA_RETURN_IF_ERROR(Emit());
        continue;
      }
      sub_[depth] = w;
      // Extension set: remaining candidates + exclusive neighbors of w.
      std::vector<int> next_ext = ext;
      std::vector<int> newly_blocked;
      const uint8_t bit = static_cast<uint8_t>(1 << depth);
      for (int u : g_.Neighbors(w)) {
        near_[u] |= bit;
        if (u > root && !blocked_[u]) {
          next_ext.push_back(u);
          blocked_[u] = true;
          newly_blocked.push_back(u);
        }
      }
      GA_RETURN_IF_ERROR(Extend(depth + 1, root, std::move(next_ext)));
      for (int u : g_.Neighbors(w)) near_[u] &= ~bit;
      for (int u : newly_blocked) blocked_[u] = false;
    }
    return Status::Ok();
  }

  // Whether sub_[i] and sub_[j] are adjacent, for i < j: sub_[i] sits at
  // depth i < size - 1, whose neighbour scan set bit i of near_[sub_[j]].
  bool Adjacent(int i, int j) const { return (near_[sub_[j]] >> i) & 1; }

  Status Emit() {
    // Two budget arms, both checked here: an exact cap on enumerated
    // subgraphs and an amortized wall-clock deadline.
    if (++count_ > max_subgraphs_) {
      return Status::ResourceExhausted(
          "graphlet enumeration exceeded subgraph budget");
    }
    GA_RETURN_IF_EXPIRED(checker_, "graphlet enumeration");
    if (size_ == 4) {
      std::array<int, 4> deg = {0, 0, 0, 0};
      int edges = 0;
      for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
          if (Adjacent(i, j)) {
            ++edges;
            ++deg[i];
            ++deg[j];
          }
        }
      }
      AddOrbits4(sub_, deg, edges, orbits_);
    } else {
      int mask = 0;
      for (int i = 0; i < 5; ++i) {
        for (int j = i + 1; j < 5; ++j) {
          if (Adjacent(i, j)) mask |= 1 << kPairBit[i][j];
        }
      }
      const auto& row = GetOrbit5Table().table[mask];
      for (int i = 0; i < 5; ++i) {
        (*orbits_)(sub_[i], row[i]) += 1.0;
      }
    }
    return Status::Ok();
  }

  const Graph& g_;
  const int size_;
  const int64_t max_subgraphs_;
  DenseMatrix* orbits_;
  std::array<int, 5> sub_ = {0, 0, 0, 0, 0};
  std::vector<bool> blocked_;  // In subgraph or already a known neighbor.
  // Bit d of near_[u]: u is adjacent to sub_[d]. Set by the neighbour scans
  // at depths 0..size-2 and cleared on backtrack, so Emit reads the induced
  // adjacency without a single edge lookup, in O(n) memory.
  std::vector<uint8_t> near_;
  DeadlineChecker checker_;
  int64_t count_ = 0;
};

}  // namespace

Result<DenseMatrix> CountGraphletOrbits(const Graph& g,
                                        int64_t max_subgraphs,
                                        const Deadline& deadline) {
  const int n = g.num_nodes();
  DenseMatrix orbits(n, kNumOrbits);

  // Orbits 0-3 analytically.
  std::vector<int64_t> tri = g.TriangleCounts();
  for (int v = 0; v < n; ++v) {
    const double d = g.Degree(v);
    orbits(v, 0) = d;
    orbits(v, 3) = static_cast<double>(tri[v]);
    orbits(v, 2) = d * (d - 1) / 2.0 - static_cast<double>(tri[v]);
    double ends = 0.0;
    for (int u : g.Neighbors(v)) ends += g.Degree(u) - 1;
    orbits(v, 1) = ends - 2.0 * static_cast<double>(tri[v]);
  }

  Esu esu(g, /*size=*/4, max_subgraphs, deadline, &orbits);
  GA_RETURN_IF_ERROR(esu.Run());
  return orbits;
}

Result<DenseMatrix> CountGraphletOrbits5(const Graph& g,
                                         int64_t max_subgraphs,
                                         const Deadline& deadline) {
  DenseMatrix orbits(g.num_nodes(), kNumOrbits5);
  Esu esu(g, /*size=*/5, max_subgraphs, deadline, &orbits);
  GA_RETURN_IF_ERROR(esu.Run());
  return orbits;
}

Result<DenseMatrix> CountGraphletOrbits73(const Graph& g,
                                          int64_t max_subgraphs,
                                          const Deadline& deadline) {
  GA_ASSIGN_OR_RETURN(DenseMatrix small,
                      CountGraphletOrbits(g, max_subgraphs, deadline));
  GA_ASSIGN_OR_RETURN(DenseMatrix five,
                      CountGraphletOrbits5(g, max_subgraphs, deadline));
  DenseMatrix full(g.num_nodes(), kNumOrbits + kNumOrbits5);
  for (int v = 0; v < g.num_nodes(); ++v) {
    for (int o = 0; o < kNumOrbits; ++o) full(v, o) = small(v, o);
    for (int o = 0; o < kNumOrbits5; ++o) {
      full(v, kNumOrbits + o) = five(v, o);
    }
  }
  return full;
}

}  // namespace graphalign
