// Google-benchmark microbenchmarks for the numerical and combinatorial
// kernels underneath the alignment algorithms: LAP solvers, eigensolvers,
// SVD, Sinkhorn, dense and sparse products, generators, and graphlet
// counting. The LAP solvers are timed on uniform random matrices and on the
// matrices the aligners produce (the *Real rows), which behave differently.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "align/aligner.h"
#include "assignment/assignment.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graphlets.h"
#include "linalg/csr.h"
#include "linalg/dense.h"
#include "linalg/eigen_sym.h"
#include "linalg/sinkhorn.h"
#include "linalg/svd.h"
#include "noise/noise.h"

namespace graphalign {
namespace {

DenseMatrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng.Uniform();
  }
  return m;
}

void BM_JonkerVolgenant(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix sim = RandomMatrix(n, n, 1);
  for (auto _ : state) {
    auto a = JonkerVolgenantAssign(sim);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_JonkerVolgenant)->Arg(64)->Arg(256)->Arg(512);

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix sim = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    auto a = HungarianAssign(sim);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Hungarian)->Arg(64)->Arg(256);

void BM_SortGreedy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix sim = RandomMatrix(n, n, 3);
  for (auto _ : state) {
    auto a = SortGreedyAssign(sim);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SortGreedy)->Arg(64)->Arg(256)->Arg(512);

// The similarity matrix `source` produces on the paper_dense recipe at n:
// PowerlawCluster(n, 5, 0.5), 5% one-way noise kept connected, fixed seed.
// "DegreeProfile" is 1 / (1 + |d_i - d_j|), the surrogate the degradation
// ladder extracts from. Built once per (source, n), outside the timed loop.
const DenseMatrix& RealMatrix(const std::string& source, int n) {
  static std::map<std::pair<std::string, int>, DenseMatrix> cache;
  auto it = cache.find({source, n});
  if (it != cache.end()) return it->second;
  Rng rng(401);
  auto base = PowerlawCluster(n, 5, 0.5, &rng);
  GA_CHECK(base.ok());
  NoiseOptions noise;
  noise.level = 0.05;
  noise.keep_connected = true;
  auto p = MakeAlignmentProblem(*base, noise, &rng);
  GA_CHECK(p.ok());
  DenseMatrix sim(n, n);
  if (source == "DegreeProfile") {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        sim(i, j) = 1.0 / (1.0 + std::abs(p->g1.Degree(i) - p->g2.Degree(j)));
      }
    }
  } else {
    auto aligner = MakeAligner(source);
    GA_CHECK(aligner.ok());
    auto computed = (*aligner)->ComputeSimilarity(p->g1, p->g2);
    GA_CHECK(computed.ok());
    sim = *std::move(computed);
  }
  return cache.emplace(std::make_pair(source, n), std::move(sim))
      .first->second;
}

void RunExtraction(benchmark::State& state, AssignmentMethod method,
                   const char* source, int n) {
  const DenseMatrix& sim = RealMatrix(source, n);
  for (auto _ : state) {
    auto a = ExtractAlignment(sim, method);
    GA_CHECK(a.ok());
    benchmark::DoNotOptimize(a);
  }
}

void BM_JonkerVolgenantReal(benchmark::State& state, const char* source,
                            int n) {
  RunExtraction(state, AssignmentMethod::kJonkerVolgenant, source, n);
}
void BM_HungarianReal(benchmark::State& state, const char* source, int n) {
  RunExtraction(state, AssignmentMethod::kHungarian, source, n);
}
void BM_SortGreedyReal(benchmark::State& state, const char* source, int n) {
  RunExtraction(state, AssignmentMethod::kSortGreedy, source, n);
}

#define GA_REAL_LAP_ROWS(bm)                                      \
  BENCHMARK_CAPTURE(bm, IsoRank_256, "IsoRank", 256);             \
  BENCHMARK_CAPTURE(bm, NSD_256, "NSD", 256);                     \
  BENCHMARK_CAPTURE(bm, LREA_256, "LREA", 256);                   \
  BENCHMARK_CAPTURE(bm, DegreeProfile_256, "DegreeProfile", 256); \
  BENCHMARK_CAPTURE(bm, DegreeProfile_512, "DegreeProfile", 512)

GA_REAL_LAP_ROWS(BM_JonkerVolgenantReal);
GA_REAL_LAP_ROWS(BM_HungarianReal);
GA_REAL_LAP_ROWS(BM_SortGreedyReal);

void BM_SymmetricEigenFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix a = RandomMatrix(n, n, 4);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
  for (auto _ : state) {
    auto res = SymmetricEigen(a);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_SymmetricEigenFull)->Arg(64)->Arg(128)->Arg(256);

void BM_LanczosTop20(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  auto g = BarabasiAlbert(n, 5, &rng);
  GA_CHECK(g.ok());
  const CsrMatrix adj = g->SymNormalizedAdjacencyCsr();
  LinearOperator op = [&adj](const std::vector<double>& x,
                             std::vector<double>* y) {
    *y = adj.Multiply(x);
  };
  for (auto _ : state) {
    auto res = LanczosEigen(op, n, 20, SpectrumEnd::kLargest);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_LanczosTop20)->Arg(512)->Arg(2048);

void BM_JacobiSvd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix a = RandomMatrix(2 * n, n, 6);
  for (auto _ : state) {
    auto res = Svd(a);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(32)->Arg(64)->Arg(128);

void BM_Sinkhorn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix cost = RandomMatrix(n, n, 7);
  auto mu = UniformMarginal(n);
  for (auto _ : state) {
    auto t = SinkhornTransport(cost, mu, mu);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_Sinkhorn)->Arg(128)->Arg(256)->Arg(512);

// The plain-path projection loop alone: 50 scaling iterations of a positive
// n x n kernel, with the early stop disabled. BM_Sinkhorn also times forming
// exp(-C/eps) and stops as soon as it converges.
void BM_SinkhornProject(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DenseMatrix kernel = RandomMatrix(n, n, 19);
  auto mu = UniformMarginal(n);
  for (auto _ : state) {
    auto t = SinkhornProject(kernel, mu, mu, /*max_iters=*/50,
                             /*tolerance=*/0.0);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SinkhornProject)->Arg(256);

// C = A * B at CONE's T * Y2 shape: an n x n transport plan times n x d
// embeddings.
void BM_DenseMultiply(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  DenseMatrix a = RandomMatrix(n, n, 13);
  DenseMatrix b = RandomMatrix(n, d, 14);
  for (auto _ : state) {
    DenseMatrix c = Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_DenseMultiply)->Args({256, 32});

// C = A * B^T at CONE's cost-pass shape: dot products of n rotated source
// embeddings against n target embeddings of dimension d.
void BM_MultiplyABt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  DenseMatrix a = RandomMatrix(n, d, 15);
  DenseMatrix b = RandomMatrix(n, d, 16);
  for (auto _ : state) {
    DenseMatrix c = MultiplyABt(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MultiplyABt)->Args({256, 32});

// X * A for sparse A, the (Cs T) Ct product of every GW gradient.
void BM_CsrRightMultiplied(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(17);
  auto g = PowerlawCluster(n, 5, 0.5, &rng);
  GA_CHECK(g.ok());
  const CsrMatrix adj = g->AdjacencyCsr();
  DenseMatrix x = RandomMatrix(n, n, 18);
  for (auto _ : state) {
    DenseMatrix c = adj.RightMultiplied(x);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CsrRightMultiplied)->Arg(256);

void BM_SpMMDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  auto g = BarabasiAlbert(n, 8, &rng);
  GA_CHECK(g.ok());
  const CsrMatrix adj = g->AdjacencyCsr();
  DenseMatrix x = RandomMatrix(n, 64, 9);
  for (auto _ : state) {
    DenseMatrix y = adj.Multiply(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_SpMMDense)->Arg(1024)->Arg(4096);

void BM_GeneratorEr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  for (auto _ : state) {
    auto g = ErdosRenyi(n, 10.0 / n, &rng);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GeneratorEr)->Arg(1024)->Arg(16384);

void BM_GeneratorConfigModel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    std::vector<int> deg = NormalDegreeSequence(n, 10.0, 2.5, &rng);
    auto g = ConfigurationModel(deg, &rng);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GeneratorConfigModel)->Arg(1024)->Arg(16384);

void BM_GraphletOrbits(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  auto g = BarabasiAlbert(n, 4, &rng);
  GA_CHECK(g.ok());
  for (auto _ : state) {
    auto orbits = CountGraphletOrbits(*g);
    benchmark::DoNotOptimize(orbits);
  }
}
BENCHMARK(BM_GraphletOrbits)->Arg(128)->Arg(512);

}  // namespace
}  // namespace graphalign

BENCHMARK_MAIN();
