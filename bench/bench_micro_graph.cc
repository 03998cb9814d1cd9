// Google-benchmark microbenchmarks for the graph solvers: Chu-Liu/Edmonds
// (1-MCA), the artificial-root k-MCA reduction, and branch-and-bound
// k-MCA-CC, on random schema-like graphs of growing size.
//
// Besides wall-clock, the solver benchmarks report two PR 4 counters:
//   allocs_per_iter — heap allocations per solve (global operator new
//                     count; ~0 in the steady state for the workspace path),
//   ns_per_1mca     — mean wall-clock per Chu-Liu/Edmonds invocation inside
//                     branch-and-bound (the Figure 7 cost unit).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "graph/edmonds.h"
#include "graph/join_graph.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"
#include "tests/oracles/solver_oracle.h"

// --- Global allocation counter. Counting overrides of the replaceable
// global operators; relaxed atomics keep the probe cheap enough to leave on.
static std::atomic<long> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace autobi {
namespace {

long AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

// Random graph shaped like a scored schema graph: n vertices, ~3n candidate
// edges, a few FK-once conflicts.
JoinGraph RandomSchemaGraph(int n, Rng& rng) {
  JoinGraph g(n);
  int edges = 3 * n;
  for (int i = 0; i < edges; ++i) {
    int u = int(rng.NextBelow(size_t(n)));
    int v = int(rng.NextBelow(size_t(n)));
    if (u == v) continue;
    // Small column space per vertex creates realistic conflict groups.
    int col = int(rng.NextBelow(4));
    g.AddEdge(u, v, {col}, {0}, rng.NextDouble(0.05, 0.95));
  }
  return g;
}

// Adversarial conflict-dense graph: `hubs` source vertices, each with one
// FK-once group fanning out to `fan` destinations (all probability > 0.5,
// so every group member survives the relaxation). The branch-and-bound tree
// has ~fan^hubs leaves before pruning and keeps >= kKmcaCcWaveBatch
// subproblems open, which is what the wave-parallel search is built for.
JoinGraph AdversarialConflictGraph(int hubs, int fan, Rng& rng) {
  int n = hubs + hubs * fan;
  JoinGraph g(n);
  for (int h = 0; h < hubs; ++h) {
    for (int f = 0; f < fan; ++f) {
      int dst = hubs + h * fan + f;
      g.AddEdge(h, dst, {0}, {0}, rng.NextDouble(0.55, 0.95));
      // A costlier parallel alternative keeps subtrees non-trivial after the
      // primary edge is masked.
      g.AddEdge(h, dst, {0}, {1}, rng.NextDouble(0.51, 0.54));
    }
  }
  return g;
}

void BM_Edmonds(benchmark::State& state) {
  int n = int(state.range(0));
  Rng rng(99);
  std::vector<Arc> arcs;
  for (int i = 0; i < 4 * n; ++i) {
    arcs.push_back(Arc{int(rng.NextBelow(size_t(n))),
                       int(rng.NextBelow(size_t(n))),
                       rng.NextDouble(0.0, 1.0)});
  }
  for (auto _ : state) {
    auto result = SolveMinCostArborescence(n + 1, arcs, 0);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Edmonds)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// The frozen recursive reference, for the before/after column: fresh
// scratch vectors at every level of every call.
void BM_EdmondsLegacy(benchmark::State& state) {
  int n = int(state.range(0));
  Rng rng(99);
  std::vector<Arc> arcs;
  for (int i = 0; i < 4 * n; ++i) {
    arcs.push_back(Arc{int(rng.NextBelow(size_t(n))),
                       int(rng.NextBelow(size_t(n))),
                       rng.NextDouble(0.0, 1.0)});
  }
  for (auto _ : state) {
    auto result = SolveMinCostArborescenceLegacy(n + 1, arcs, 0);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EdmondsLegacy)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// Steady-state workspace reuse: same instance solved repeatedly through one
// explicitly-owned arena. allocs_per_iter should read ~0.
void BM_EdmondsWorkspaceReuse(benchmark::State& state) {
  int n = int(state.range(0));
  Rng rng(99);
  std::vector<Arc> arcs;
  for (int i = 0; i < 4 * n; ++i) {
    arcs.push_back(Arc{int(rng.NextBelow(size_t(n))),
                       int(rng.NextBelow(size_t(n))),
                       rng.NextDouble(0.0, 1.0)});
  }
  EdmondsWorkspace workspace;
  workspace.Solve(n + 1, arcs, 0);  // Warm the arena.
  long allocs_before = AllocCount();
  long iters = 0;
  for (auto _ : state) {
    bool ok = workspace.Solve(n + 1, arcs, 0);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(workspace.selected().data());
    ++iters;
  }
  state.counters["allocs_per_iter"] =
      double(AllocCount() - allocs_before) / double(iters > 0 ? iters : 1);
}
BENCHMARK(BM_EdmondsWorkspaceReuse)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_SolveKmca(benchmark::State& state) {
  int n = int(state.range(0));
  Rng rng(7);
  JoinGraph g = RandomSchemaGraph(n, rng);
  for (auto _ : state) {
    KmcaResult r = SolveKmca(g, DefaultPenaltyWeight());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SolveKmca)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void RunKmcaCc(benchmark::State& state, const JoinGraph& g, bool legacy,
               int threads) {
  KmcaCcOptions opt;
  opt.threads = threads;
  long calls = 0;
  long allocs_before = AllocCount();
  long iters = 0;
  for (auto _ : state) {
    KmcaCcStats stats;
    KmcaResult r = legacy ? SolveKmcaCcLegacy(g, opt, &stats)
                          : SolveKmcaCc(g, opt, &stats);
    benchmark::DoNotOptimize(r);
    calls = stats.one_mca_calls;
    ++iters;
  }
  state.counters["one_mca_calls"] = double(calls);
  state.counters["allocs_per_iter"] =
      double(AllocCount() - allocs_before) / double(iters > 0 ? iters : 1);
  // Time per 1-MCA call: total 1-MCA invocations as an inverted rate, i.e.
  // elapsed seconds / (calls * iterations), printed with an SI suffix
  // (e.g. 850n = 850 ns per Chu-Liu/Edmonds call inside branch-and-bound).
  state.counters["time_per_1mca"] = benchmark::Counter(
      double(calls) * double(iters),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_SolveKmcaCc(benchmark::State& state) {
  int n = int(state.range(0));
  Rng rng(13);
  JoinGraph g = RandomSchemaGraph(n, rng);
  RunKmcaCc(state, g, /*legacy=*/false, /*threads=*/1);
}
BENCHMARK(BM_SolveKmcaCc)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SolveKmcaCcLegacy(benchmark::State& state) {
  int n = int(state.range(0));
  Rng rng(13);
  JoinGraph g = RandomSchemaGraph(n, rng);
  RunKmcaCc(state, g, /*legacy=*/true, /*threads=*/1);
}
BENCHMARK(BM_SolveKmcaCcLegacy)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Adversarial branch-and-bound: legacy vs wave-parallel at 1 and 8 threads.
// Arg encodes (hubs, fan) = (3, 6): ~200+ open subproblems.
void BM_KmcaCcAdversarialLegacy(benchmark::State& state) {
  Rng rng(21);
  JoinGraph g = AdversarialConflictGraph(3, int(state.range(0)), rng);
  RunKmcaCc(state, g, /*legacy=*/true, /*threads=*/1);
}
BENCHMARK(BM_KmcaCcAdversarialLegacy)->Arg(4)->Arg(6);

void BM_KmcaCcAdversarial1T(benchmark::State& state) {
  Rng rng(21);
  JoinGraph g = AdversarialConflictGraph(3, int(state.range(0)), rng);
  RunKmcaCc(state, g, /*legacy=*/false, /*threads=*/1);
}
BENCHMARK(BM_KmcaCcAdversarial1T)->Arg(4)->Arg(6);

void BM_KmcaCcAdversarial8T(benchmark::State& state) {
  Rng rng(21);
  JoinGraph g = AdversarialConflictGraph(3, int(state.range(0)), rng);
  RunKmcaCc(state, g, /*legacy=*/false, /*threads=*/8);
}
BENCHMARK(BM_KmcaCcAdversarial8T)->Arg(4)->Arg(6);

}  // namespace
}  // namespace autobi

BENCHMARK_MAIN();
