// Tests of Algorithm 1 (graph construction): candidates become edges with
// calibrated probabilities and -log weights; 1:1 candidates become
// bidirectional pairs.

#include "core/graph_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/trainer.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

std::vector<Table> BuilderTables() {
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact", {{"cust_id", {"1", "2", "2", "3", "1", "3"}},
               {"v", {"1", "2", "3", "4", "5", "6"}}}));
  tables.push_back(MakeTable("customers", {{"id", {"1", "2", "3"}},
                                           {"who", {"a", "b", "c"}}}));
  tables.push_back(MakeTable("cust_info", {{"id", {"1", "2", "3"}},
                                           {"mail", {"x", "y", "z"}}}));
  return tables;
}

// Algorithm 1 over every candidate: score them all, then add the edges.
JoinGraph ScoreAndBuild(const std::vector<Table>& tables,
                        const CandidateSet& cands, const LocalModel& model,
                        bool schema_only) {
  return BuildJoinGraphFromScores(
      tables.size(), cands.candidates,
      ScoreCandidates(tables, cands.profiles, cands.candidates, model,
                      schema_only));
}

TEST(GraphBuilderTest, EdgesMirrorCandidates) {
  std::vector<Table> tables = BuilderTables();
  CandidateSet cands = GenerateCandidates(tables);
  LocalModel model;  // Untrained: every score is 0.5.
  JoinGraph graph = ScoreAndBuild(tables, cands, model, false);
  EXPECT_EQ(graph.num_vertices(), 3);
  // Each 1:1 candidate contributes 2 edges, each N:1 contributes 1.
  size_t expected = 0;
  for (const JoinCandidate& c : cands.candidates) {
    expected += c.one_to_one ? 2 : 1;
  }
  EXPECT_EQ(graph.num_edges(), expected);
}

TEST(GraphBuilderTest, WeightsAreNegLogOfScore) {
  std::vector<Table> tables = BuilderTables();
  CandidateSet cands = GenerateCandidates(tables);
  LocalModel model;
  JoinGraph graph = ScoreAndBuild(tables, cands, model, false);
  for (const JoinEdge& e : graph.edges()) {
    EXPECT_NEAR(e.weight, -std::log(e.probability), 1e-12);
    EXPECT_NEAR(e.probability, 0.5, 1e-9);  // Untrained fallback.
  }
}

TEST(GraphBuilderTest, OneToOneCandidatesBecomePairs) {
  std::vector<Table> tables = BuilderTables();
  CandidateSet cands = GenerateCandidates(tables);
  LocalModel model;
  JoinGraph graph = ScoreAndBuild(tables, cands, model, false);
  // customers <-> cust_info is 1:1-shaped; find its two orientations.
  int forward = -1, backward = -1;
  for (const JoinEdge& e : graph.edges()) {
    if (!e.one_to_one) continue;
    if (e.src == 1 && e.dst == 2) forward = e.id;
    if (e.src == 2 && e.dst == 1) backward = e.id;
  }
  ASSERT_GE(forward, 0);
  ASSERT_GE(backward, 0);
  EXPECT_EQ(graph.edge(forward).pair_id, graph.edge(backward).pair_id);
}

TEST(GraphBuilderTest, SkippedScoresAreDroppedAndMarkDegraded) {
  std::vector<Table> tables = BuilderTables();
  CandidateSet cands = GenerateCandidates(tables);
  ASSERT_GE(cands.candidates.size(), 2u);
  std::vector<double> scores(cands.candidates.size(), 0.7);
  scores[0] = kSkippedCandidateScore;
  StageHealth health;
  JoinGraph graph =
      BuildJoinGraphFromScores(tables.size(), cands.candidates, scores,
                               &health);
  size_t expected = 0;
  for (size_t i = 1; i < cands.candidates.size(); ++i) {
    expected += cands.candidates[i].one_to_one ? 2 : 1;
  }
  EXPECT_EQ(graph.num_edges(), expected);
  EXPECT_TRUE(health.degraded);

  StageHealth untouched;
  scores[0] = 0.7;
  BuildJoinGraphFromScores(tables.size(), cands.candidates, scores,
                           &untouched);
  EXPECT_FALSE(untouched.degraded);
}

TEST(GraphBuilderTest, SchemaOnlyScoresDifferFromFullOnceTrained) {
  // With a trained model, schema-only and full-feature scores come from
  // different classifiers.
  BiCase c;
  c.tables = BuilderTables();
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {0}}, ColumnRef{1, {0}}, JoinKind::kNToOne});
  std::vector<BiCase> corpus(10, c);
  TrainerOptions opt;
  opt.forest.num_trees = 8;
  LocalModel model = TrainLocalModel(corpus, opt);
  CandidateSet cands = GenerateCandidates(c.tables);
  JoinGraph full = ScoreAndBuild(c.tables, cands, model, false);
  JoinGraph schema = ScoreAndBuild(c.tables, cands, model, true);
  ASSERT_EQ(full.num_edges(), schema.num_edges());
  bool any_diff = false;
  for (size_t i = 0; i < full.num_edges(); ++i) {
    if (std::fabs(full.edge(int(i)).probability -
                  schema.edge(int(i)).probability) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// --- Partitioned-solve units (PR 9) --------------------------------------

TEST(PartitionTest, ComponentsCoverAllVerticesOrderedBySmallest) {
  JoinGraph g(6);
  g.AddEdge(4, 5, {0}, {0}, 0.9);  // Component {4, 5}, edge 0.
  g.AddEdge(1, 2, {0}, {0}, 0.8);  // Component {1, 2}, edge 1.
  // Vertices 0 and 3 are edgeless singletons.
  std::vector<GraphComponent> comps = PartitionJoinGraph(g);
  ASSERT_EQ(comps.size(), 4u);
  EXPECT_EQ(comps[0].vertices, (std::vector<int>{0}));
  EXPECT_TRUE(comps[0].edge_ids.empty());
  EXPECT_EQ(comps[1].vertices, (std::vector<int>{1, 2}));
  EXPECT_EQ(comps[1].edge_ids, (std::vector<int>{1}));
  EXPECT_EQ(comps[2].vertices, (std::vector<int>{3}));
  EXPECT_EQ(comps[3].vertices, (std::vector<int>{4, 5}));
  EXPECT_EQ(comps[3].edge_ids, (std::vector<int>{0}));
}

TEST(PartitionTest, ComponentGraphRemapIsMonotoneAndExact) {
  JoinGraph g(5);
  // Component {1, 3, 4}: one composite N:1 edge plus a 1:1 pair.
  g.AddEdge(1, 3, {0, 1}, {0, 1}, 0.7);
  g.AddOneToOneEdge(3, 4, {2}, {0}, 0.6);
  g.AddEdge(0, 2, {0}, {0}, 0.5);  // The other component, {0, 2}.
  std::vector<GraphComponent> comps = PartitionJoinGraph(g);
  ASSERT_EQ(comps.size(), 2u);
  const GraphComponent& comp = comps[1];
  ASSERT_EQ(comp.vertices, (std::vector<int>{1, 3, 4}));

  JoinGraph local = BuildComponentGraph(g, comp);
  EXPECT_EQ(local.num_vertices(), 3);
  ASSERT_EQ(local.num_edges(), comp.edge_ids.size());
  auto rank = [&](int v) {
    return int(std::lower_bound(comp.vertices.begin(), comp.vertices.end(),
                                v) -
               comp.vertices.begin());
  };
  for (size_t k = 0; k < local.num_edges(); ++k) {
    const JoinEdge& le = local.edge(int(k));
    const JoinEdge& ge = g.edge(comp.edge_ids[k]);
    EXPECT_EQ(le.src, rank(ge.src));
    EXPECT_EQ(le.dst, rank(ge.dst));
    EXPECT_EQ(le.src_columns, ge.src_columns);
    EXPECT_EQ(le.dst_columns, ge.dst_columns);
    // Bit-identical carry-over: the per-component solve must see exactly the
    // numbers the flat solve would.
    EXPECT_EQ(le.probability, ge.probability);
    EXPECT_EQ(le.weight, ge.weight);
    EXPECT_EQ(le.one_to_one, ge.one_to_one);
    EXPECT_EQ(le.pair_id, ge.pair_id);
  }
}

TEST(PartitionTest, ConflictGroupsSurviveTheRemap) {
  JoinGraph g(4);
  // Two edges from the same (src, columns) — one FK-once conflict group —
  // landing in the same component.
  int a = g.AddEdge(0, 1, {0}, {0}, 0.9);
  int b = g.AddEdge(0, 2, {0}, {0}, 0.8);
  int c = g.AddEdge(0, 3, {1}, {0}, 0.7);  // Different columns: own group.
  ASSERT_EQ(g.edge(a).source_key, g.edge(b).source_key);
  ASSERT_NE(g.edge(a).source_key, g.edge(c).source_key);
  std::vector<GraphComponent> comps = PartitionJoinGraph(g);
  ASSERT_EQ(comps.size(), 1u);
  JoinGraph local = BuildComponentGraph(g, comps[0]);
  ASSERT_EQ(local.num_edges(), 3u);
  EXPECT_EQ(local.edge(0).source_key, local.edge(1).source_key);
  EXPECT_NE(local.edge(0).source_key, local.edge(2).source_key);
}

TEST(PartitionTest, EmptyAndSingleVertexGraphs) {
  JoinGraph empty(0);
  EXPECT_TRUE(PartitionJoinGraph(empty).empty());
  JoinGraph one(1);
  std::vector<GraphComponent> comps = PartitionJoinGraph(one);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].vertices, (std::vector<int>{0}));
  EXPECT_TRUE(comps[0].edge_ids.empty());
}

}  // namespace
}  // namespace autobi
