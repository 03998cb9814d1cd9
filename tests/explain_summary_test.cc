#include <gtest/gtest.h>

#include "core/explain.h"
#include "core/schema_summary.h"
#include "core/trainer.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// --- Schema summarization.

BiModel StarModel() {
  // fact(0) -> dims 1,2; second fact(3) -> dim 2 (shared hub); table 4
  // isolated.
  BiModel m;
  m.joins.push_back(Join{ColumnRef{0, {0}}, ColumnRef{1, {0}},
                         JoinKind::kNToOne});
  m.joins.push_back(Join{ColumnRef{0, {1}}, ColumnRef{2, {0}},
                         JoinKind::kNToOne});
  m.joins.push_back(Join{ColumnRef{3, {0}}, ColumnRef{2, {0}},
                         JoinKind::kNToOne});
  return m;
}

std::vector<Table> FiveTables() {
  std::vector<Table> tables;
  for (const char* name : {"fact_a", "dim_x", "dim_shared", "fact_b",
                           "loner"}) {
    tables.push_back(MakeTable(name, {{"c", {"1"}}}));
  }
  return tables;
}

TEST(SchemaSummaryTest, RolesAndClusters) {
  std::vector<Table> tables = FiveTables();
  SchemaSummary s = SummarizeSchema(tables, StarModel());
  EXPECT_EQ(s.tables[0].role, TableRole::kFact);
  EXPECT_EQ(s.tables[1].role, TableRole::kDimension);
  EXPECT_EQ(s.tables[2].role, TableRole::kHub);  // In-degree 2.
  EXPECT_EQ(s.tables[3].role, TableRole::kFact);
  EXPECT_EQ(s.tables[4].role, TableRole::kIsolated);
  // One joined component + the isolated table.
  EXPECT_EQ(s.num_clusters, 2);
  EXPECT_EQ(s.tables[0].cluster, s.tables[2].cluster);
  EXPECT_NE(s.tables[0].cluster, s.tables[4].cluster);
}

TEST(SchemaSummaryTest, AccessorsAndDegrees) {
  SchemaSummary s = SummarizeSchema(FiveTables(), StarModel());
  EXPECT_EQ(s.FactTables(), (std::vector<int>{0, 3}));
  EXPECT_EQ(s.HubTables(), (std::vector<int>{2}));
  EXPECT_EQ(s.tables[0].out_degree, 2);
  EXPECT_EQ(s.tables[2].in_degree, 2);
}

TEST(SchemaSummaryTest, OneToOneCountsForConnectivityNotDegree) {
  std::vector<Table> tables = FiveTables();
  BiModel m;
  m.joins.push_back(Join{ColumnRef{0, {0}}, ColumnRef{1, {0}},
                         JoinKind::kOneToOne}
                        .Normalized());
  SchemaSummary s = SummarizeSchema(tables, m);
  EXPECT_EQ(s.tables[0].cluster, s.tables[1].cluster);
  EXPECT_EQ(s.tables[0].in_degree, 0);
  EXPECT_EQ(s.tables[1].in_degree, 0);
}

TEST(SchemaSummaryTest, RenderMentionsEveryTable) {
  std::vector<Table> tables = FiveTables();
  SchemaSummary s = SummarizeSchema(tables, StarModel());
  std::string text = RenderSchemaSummary(tables, s);
  for (const Table& t : tables) {
    EXPECT_NE(text.find(t.name()), std::string::npos) << t.name();
  }
  EXPECT_NE(text.find("hub"), std::string::npos);
}

TEST(SchemaSummaryTest, EmptyModel) {
  std::vector<Table> tables = FiveTables();
  SchemaSummary s = SummarizeSchema(tables, BiModel{});
  EXPECT_EQ(s.num_clusters, 5);
  for (const TableSummary& t : s.tables) {
    EXPECT_EQ(t.role, TableRole::kIsolated);
  }
}

// --- Explanations.

TEST(ExplainTest, ExplainsEveryPredictedJoin) {
  // Train a tiny model and predict the mini star.
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact", {{"cust_id", {"1", "2", "2", "3", "1", "3", "2", "1"}},
               {"x", {"7", "8", "9", "10", "11", "12", "13", "14"}}}));
  tables.push_back(MakeTable("customers", {{"cust_id", {"1", "2", "3"}},
                                           {"nm", {"a", "b", "c"}}}));
  tables.push_back(MakeTable("noise", {{"z", SeqCells(50, 60)}}));
  BiCase train_case;
  train_case.tables = tables;
  train_case.ground_truth.joins.push_back(
      Join{ColumnRef{0, {0}}, ColumnRef{1, {0}}, JoinKind::kNToOne});
  std::vector<BiCase> corpus(12, train_case);
  TrainerOptions topt;
  topt.forest.num_trees = 8;
  LocalModel model = TrainLocalModel(corpus, topt);

  AutoBi auto_bi(&model, AutoBiOptions{});
  AutoBiResult result = auto_bi.Predict(tables);
  std::vector<JoinExplanation> explanations =
      ExplainPrediction(tables, result);
  EXPECT_EQ(explanations.size(), result.model.joins.size());
  for (const JoinExplanation& ex : explanations) {
    EXPECT_GT(ex.probability, 0.0);
    EXPECT_FALSE(ex.stage.empty());
    EXPECT_FALSE(ex.evidence.empty());
    std::string line = ex.ToString(tables);
    EXPECT_NE(line.find("P="), std::string::npos);
  }
}

TEST(ExplainTest, EvidenceMentionsContainmentAndKeys) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"k", {"1", "2", "2"}}}));
  tables.push_back(MakeTable("b", {{"k", {"1", "2", "3"}}}));
  // Build a result by hand: one edge in the graph, selected as backbone.
  AutoBiResult result;
  result.graph = JoinGraph(2);
  result.graph.AddEdge(0, 1, {0}, {0}, 0.9);
  result.backbone_edges = {0};
  auto ex = ExplainPrediction(tables, result);
  ASSERT_EQ(ex.size(), 1u);
  bool containment_mentioned = false;
  bool key_mentioned = false;
  for (const std::string& e : ex[0].evidence) {
    if (e.find("match") != std::string::npos) containment_mentioned = true;
    if (e.find("key") != std::string::npos) key_mentioned = true;
  }
  EXPECT_TRUE(containment_mentioned);
  EXPECT_TRUE(key_mentioned);
  EXPECT_EQ(ex[0].stage, "precision-mode backbone");
}

TEST(ExplainTest, CompositeEvidenceUsesTheWholeKeyTuple) {
  // lines(part, supp) -> partsupp(part, supp): the referenced pair is a key
  // although its first column repeats, and one line's pair has no match
  // although its first value does.
  std::vector<Table> tables;
  tables.push_back(MakeTable("lines", {{"part", {"1", "1", "2", "2"}},
                                       {"supp", {"1", "2", "1", "3"}}}));
  tables.push_back(MakeTable("partsupp", {{"part", {"1", "1", "2", "2"}},
                                          {"supp", {"1", "2", "1", "2"}}}));
  AutoBiResult result;
  result.graph = JoinGraph(2);
  result.graph.AddEdge(0, 1, {0, 1}, {0, 1}, 0.9);
  result.backbone_edges = {0};
  auto ex = ExplainPrediction(tables, result);
  ASSERT_EQ(ex.size(), 1u);
  const std::vector<std::string>& evidence = ex[0].evidence;
  ASSERT_GE(evidence.size(), 2u);
  EXPECT_EQ(evidence[0], "only 75% of values have a match (dirty join)");
  EXPECT_EQ(evidence[1], "referenced key is unique");
}

}  // namespace
}  // namespace autobi
