// The global solve (RunGlobalPredict) has one path: every connected
// component with an edge is solved on its own graph and the selections are
// stitched in component order.
//   - A graph with one edge-bearing component plus isolated vertices gets
//     exactly the backbone and solver stats of SolveKmcaCc on the whole
//     graph.
//   - The solve honours AutoBiOptions::threads, whatever AUTOBI_THREADS says,
//     also when PredictJoinsForNewTable drives it (GlobalSolvePool runs as
//     its own ctest entry, so the shared pool starts empty).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/auto_bi.h"
#include "core/graph_builder.h"
#include "core/suggest.h"
#include "graph/join_graph.h"
#include "graph/kmca_cc.h"
#include "tests/fuzz/generator.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// Copies `g` into a graph with `extra` more vertices, none of them touched
// by an edge, spread among the original ones: vertex v of `g` becomes
// remap[v], and edge ids keep their order.
JoinGraph WithIsolatedVertices(const JoinGraph& g, int extra, Rng& rng) {
  const int n = g.num_vertices() + extra;
  std::vector<char> isolated(size_t(n), 0);
  for (int placed = 0; placed < extra;) {
    size_t v = size_t(rng.NextBelow(uint64_t(n)));
    if (!isolated[v]) {
      isolated[v] = 1;
      ++placed;
    }
  }
  std::vector<int> remap;
  for (int v = 0; v < n; ++v) {
    if (!isolated[size_t(v)]) remap.push_back(v);
  }
  JoinGraph out(n);
  for (const JoinEdge& e : g.edges()) {
    out.AddEdge(remap[size_t(e.src)], remap[size_t(e.dst)], e.src_columns,
                e.dst_columns, e.probability, e.one_to_one, e.pair_id);
  }
  return out;
}

size_t EdgeBearingComponents(const JoinGraph& g) {
  size_t count = 0;
  for (const GraphComponent& c : PartitionJoinGraph(g)) {
    if (!c.edge_ids.empty()) ++count;
  }
  return count;
}

AutoBiOptions PrecisionOnly(double penalty_probability, int threads) {
  AutoBiOptions options;
  options.mode = AutoBiMode::kPrecisionOnly;
  options.penalty_probability = penalty_probability;
  options.threads = threads;
  return options;
}

TEST(GlobalSolveTest, LoneComponentMatchesWholeGraphSolve) {
  JoinGraphGenOptions gen;
  gen.min_vertices = 3;
  gen.max_vertices = 9;
  gen.min_edges = 2;
  gen.max_edges = 22;
  gen.conflict_density = 0.6;
  gen.tie_prob = 0.5;
  gen.parallel_edge_prob = 0.25;
  gen.max_blocks = 1;
  Rng rng(0x61C0BA1u);
  int checked = 0;
  for (int draw = 0; draw < 20000 && checked < 500; ++draw) {
    JoinGraphInstance inst = GenJoinGraph(gen, rng);
    if (EdgeBearingComponents(inst.graph) != 1) continue;
    JoinGraph graph =
        WithIsolatedVertices(inst.graph, 1 + int(rng.NextBelow(4)), rng);
    ++checked;

    const double p = std::exp(-inst.penalty_weight);
    AutoBiResult result;
    result.graph = graph;
    RunGlobalPredict(PrecisionOnly(p, /*threads=*/1), nullptr, &result);

    KmcaCcOptions solver;
    solver.penalty_weight = -std::log(JoinGraph::ClampProbability(p));
    KmcaCcStats stats;
    KmcaResult whole = SolveKmcaCc(graph, solver, &stats);

    SCOPED_TRACE(testing::Message() << "draw " << draw);
    EXPECT_EQ(result.backbone_edges, whole.edge_ids);
    EXPECT_EQ(result.solver_stats.one_mca_calls, stats.one_mca_calls);
    EXPECT_EQ(result.solver_stats.nodes, stats.nodes);
    EXPECT_EQ(result.solver_stats.pruned, stats.pruned);
    EXPECT_EQ(result.solver_stats.memo_hits, stats.memo_hits);
    EXPECT_EQ(result.solver_stats.waves, stats.waves);
    EXPECT_EQ(result.solver_stats.budget_exhausted, stats.budget_exhausted);
    EXPECT_FALSE(result.partition.used);
    EXPECT_EQ(result.partition.components_solved, 1u);
  }
  EXPECT_EQ(checked, 500);
}

// A hub whose one source column has six candidate targets: every relaxation
// branches, so the second wave holds several subproblems and a wave search
// given more than one thread would hand them to pool workers.
JoinGraph ConflictHub() {
  JoinGraph g(8);
  for (int dst = 1; dst <= 6; ++dst) {
    g.AddEdge(0, dst, {0}, {0}, 0.95 - 0.01 * dst);
  }
  g.AddEdge(7, 1, {0}, {0}, 0.6);
  return g;
}

TEST(GlobalSolvePool, SingleThreadedRunLeavesPoolEmpty) {
  ASSERT_EQ(setenv("AUTOBI_THREADS", "8", 1), 0);
  ASSERT_EQ(ThreadPool::Global().size(), 0)
      << "run this test in a process of its own";
  AutoBiResult result;
  result.graph = ConflictHub();
  RunGlobalPredict(PrecisionOnly(0.5, /*threads=*/1), nullptr, &result);
  EXPECT_GE(result.solver_stats.waves, 2);
  EXPECT_GE(result.solver_stats.nodes, 3);
  EXPECT_EQ(ThreadPool::Global().size(), 0);
  unsetenv("AUTOBI_THREADS");
}

// The whole new-table path — profiling, IND, scoring and both solves —
// runs on the calling thread when options.threads is 1.
TEST(GlobalSolvePool, SingleThreadedNewTablePredictLeavesPoolEmpty) {
  ASSERT_EQ(setenv("AUTOBI_THREADS", "8", 1), 0);
  ASSERT_EQ(ThreadPool::Global().size(), 0)
      << "run this test in a process of its own";
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact", {{"cust_id", {"1", "2", "3", "1", "2", "3", "2", "1"}},
               {"prod_id", {"1", "2", "3", "4", "1", "2", "3", "4"}}}));
  tables.push_back(MakeTable("customers", {{"cust_id", SeqCells(1, 5)}}));
  tables.push_back(MakeTable("products", {{"prod_id", SeqCells(1, 6)}}));
  tables.push_back(MakeTable(
      "visits", {{"cust_id", {"1", "1", "2", "3", "2", "1"}},
                 {"prod_id", {"4", "3", "2", "1", "2", "3"}}}));
  BiModel confirmed;
  confirmed.joins.push_back(
      Join{ColumnRef{0, {0}}, ColumnRef{1, {0}}, JoinKind::kNToOne});
  confirmed.joins.push_back(
      Join{ColumnRef{0, {1}}, ColumnRef{2, {0}}, JoinKind::kNToOne});
  LocalModel model;  // Untrained: every candidate scores 0.5.
  AutoBiOptions options;
  options.threads = 1;
  std::vector<Join> joins =
      PredictJoinsForNewTable(tables, confirmed, model, options);
  for (const Join& j : joins) {
    EXPECT_TRUE(j.from.table == 3 || j.to.table == 3);
  }
  EXPECT_EQ(ThreadPool::Global().size(), 0);
  unsetenv("AUTOBI_THREADS");
}

}  // namespace
}  // namespace autobi
