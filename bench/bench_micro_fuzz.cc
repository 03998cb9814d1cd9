// Google-benchmark microbenchmarks for the fuzz harness: instance
// generation, the brute-force oracles, and one full differential case.
// Tracks the cost of the per-case cross-check so campaign throughput
// regressions (cases/sec of autobi_fuzz) show up in the micro trajectory.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "graph/kmca_cc.h"
#include "tests/fuzz/differential.h"
#include "tests/fuzz/generator.h"
#include "tests/oracles/solver_oracle.h"

namespace autobi {
namespace {

void BM_GenJoinGraph(benchmark::State& state) {
  JoinGraphGenOptions opt;
  opt.max_edges = int(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    JoinGraphInstance inst = GenJoinGraph(opt, rng);
    benchmark::DoNotOptimize(inst.graph.num_edges());
  }
}
BENCHMARK(BM_GenJoinGraph)->Arg(12)->Arg(18);

void BM_BruteForceKmcaCc(benchmark::State& state) {
  // Fixed instance at the edge count under test; the oracle is O(2^m).
  JoinGraphGenOptions opt;
  opt.min_edges = int(state.range(0));
  opt.max_edges = int(state.range(0));
  opt.edge_skew = 1.0;
  Rng rng(7);
  JoinGraphInstance inst = GenJoinGraph(opt, rng);
  for (auto _ : state) {
    KmcaResult r = BruteForceKmcaCc(inst.graph, inst.penalty_weight);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_BruteForceKmcaCc)->Arg(12)->Arg(16)->Arg(18);

void BM_DifferentialCase(benchmark::State& state) {
  // One full fuzz case: generate + every differential cross-check.
  JoinGraphGenOptions opt;
  opt.max_edges = int(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    JoinGraphInstance inst = GenJoinGraph(opt, rng);
    CheckResult r =
        CheckJoinGraphDifferential(inst.graph, inst.penalty_weight);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_DifferentialCase)->Arg(12)->Arg(18);

void BM_SolveKmcaCcAdversarial(benchmark::State& state) {
  // Conflict-dense, tie-heavy instance: worst case for branch-and-bound.
  JoinGraphGenOptions opt;
  opt.min_vertices = 6;
  opt.max_vertices = 8;
  opt.min_edges = 20;
  opt.max_edges = 24;
  opt.conflict_density = 0.6;
  opt.tie_prob = 0.7;
  opt.edge_skew = 1.0;
  Rng rng(11);
  JoinGraphInstance inst = GenJoinGraph(opt, rng);
  for (auto _ : state) {
    KmcaCcOptions cc;
    cc.penalty_weight = inst.penalty_weight;
    KmcaResult r = SolveKmcaCc(inst.graph, cc, nullptr);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_SolveKmcaCcAdversarial);

}  // namespace
}  // namespace autobi

BENCHMARK_MAIN();
