//===- bench/ablation_slicing_bench.cpp - Thin vs traditional slicing ------===//
//
// Ablation for the paper's two central design choices (Sections 1-2):
//
//  1. Thin slicing vs traditional slicing: with base-pointer uses included
//     (traditional), backward slices drag in the pointer-construction work
//     of every container on the path, so edges and slice sizes grow. The
//     paper's argument is that thin slices are smaller and attribute costs
//     to the right structures.
//  2. Abstract vs concrete slicing: the abstract dependence graph stays
//     bounded as the run grows; a concrete dynamic dependence graph (one
//     node per instruction *instance*) grows linearly. We report the
//     concrete node count (== executed, graph-covered instances) alongside
//     the abstract node count.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "profiling/FrozenGraph.h"

#include <benchmark/benchmark.h>

using namespace lud;
using namespace lud::bench;

namespace {

/// Mean backward-slice size (node count) over all heap-store nodes.
double meanStoreSliceNodes(const DepGraph &G) {
  const FrozenGraph F(G);
  uint64_t Total = 0, Count = 0;
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    if (!G.node(N).WritesHeap)
      continue;
    // Count visited nodes: reuse abstractCost with unit weights by walking
    // manually here (frequencies would conflate size with heat).
    std::vector<bool> Seen(G.numNodes(), false);
    std::vector<NodeId> Work{N};
    Seen[N] = true;
    uint64_t Size = 0;
    while (!Work.empty()) {
      NodeId X = Work.back();
      Work.pop_back();
      ++Size;
      for (NodeId P : F.in(X))
        if (!Seen[P]) {
          Seen[P] = true;
          Work.push_back(P);
        }
    }
    Total += Size;
    ++Count;
  }
  return Count ? double(Total) / double(Count) : 0;
}

void printTable() {
  const int64_t S = tableScale();
  std::printf("=== Ablation: thin vs traditional, abstract vs concrete "
              "(scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s %10s %10s %12s %12s %12s %12s\n", "program",
              "thin-E", "trad-E", "thin-slice", "trad-slice", "abs-N",
              "concrete-N");
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, S);
    SlicingConfig Thin;
    SlicingConfig Trad;
    Trad.ThinSlicing = false;
    ProfiledRun PThin = profiledRun(*W.M, Thin);
    ProfiledRun PTrad = profiledRun(*W.M, Trad);
    std::printf("%-12s %10zu %10zu %12.1f %12.1f %12zu %12llu\n",
                Name.c_str(), PThin.Prof->graph().numEdges(),
                PTrad.Prof->graph().numEdges(),
                meanStoreSliceNodes(PThin.Prof->graph()),
                meanStoreSliceNodes(PTrad.Prof->graph()),
                PThin.Prof->graph().numNodes(),
                (unsigned long long)PThin.Prof->graph().totalFreq());
  }
  std::printf("(shape: traditional slicing has more edges and strictly "
              "larger slices; the abstract graph is orders of magnitude "
              "smaller than the concrete instance count)\n\n");
}

void BM_ThinProfiled(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 2);
  for (auto _ : State) {
    ProfiledRun P = profiledRun(*W.M);
    benchmark::DoNotOptimize(P.Prof->graph().numEdges());
  }
}

void BM_TraditionalProfiled(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 2);
  SlicingConfig Cfg;
  Cfg.ThinSlicing = false;
  for (auto _ : State) {
    ProfiledRun P = profiledRun(*W.M, Cfg);
    benchmark::DoNotOptimize(P.Prof->graph().numEdges());
  }
}

} // namespace

BENCHMARK(BM_ThinProfiled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraditionalProfiled)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
