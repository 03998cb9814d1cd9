#include "core/suggest.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/trainer.h"
#include "synth/corpus.h"
#include "synth/tpch_ddl.h"
#include "tests/oracles/suggest_oracle.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// fact(cust_id, prod_id) with two dims whose key ranges overlap, so
// cust_id has two plausible targets; plus an unrelated decoy dim.
std::vector<Table> SuggestTables() {
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact", {{"cust_id", {"1", "2", "3", "1", "2", "3", "2", "1"}},
               {"prod_id", {"1", "2", "3", "4", "1", "2", "3", "4"}},
               {"amt", {"9", "8", "7", "6", "5", "4", "3", "2"}}}));
  tables.push_back(MakeTable("customers", {{"cust_id", SeqCells(1, 5)},
                                           {"nm", {"a", "b", "c", "d",
                                                   "e"}}}));
  tables.push_back(MakeTable("products", {{"prod_id", SeqCells(1, 6)},
                                          {"lbl", {"p", "q", "r", "s", "t",
                                                   "u"}}}));
  return tables;
}

BiCase SuggestCase() {
  BiCase c;
  c.tables = SuggestTables();
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {0}}, ColumnRef{1, {0}}, JoinKind::kNToOne});
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {1}}, ColumnRef{2, {0}}, JoinKind::kNToOne});
  return c;
}

LocalModel TinyModel() {
  std::vector<BiCase> corpus(12, SuggestCase());
  TrainerOptions opt;
  opt.forest.num_trees = 8;
  return TrainLocalModel(corpus, opt);
}

TEST(SuggestJoinsTest, GroupsBySourceAndRanksByProbability) {
  LocalModel model = TinyModel();
  auto groups = SuggestJoins(SuggestTables(), model, 3);
  ASSERT_FALSE(groups.empty());
  for (const auto& group : groups) {
    ASSERT_FALSE(group.empty());
    // Same source column in every suggestion of a group.
    for (const JoinSuggestion& s : group) {
      EXPECT_EQ(s.join.from.table, group[0].join.from.table);
    }
    // Descending probability.
    for (size_t i = 1; i < group.size(); ++i) {
      EXPECT_GE(group[i - 1].probability, group[i].probability);
    }
  }
  // Groups themselves ordered strongest first.
  for (size_t g = 1; g < groups.size(); ++g) {
    EXPECT_GE(groups[g - 1].front().probability,
              groups[g].front().probability);
  }
}

TEST(SuggestJoinsTest, ChosenFlagMatchesAutoBiOutput) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  AutoBi auto_bi(&model, AutoBiOptions{});
  BiModel predicted = auto_bi.Predict(tables).model;
  size_t chosen = 0;
  for (const auto& group : SuggestJoins(tables, model)) {
    for (const JoinSuggestion& s : group) {
      if (s.chosen_by_auto_bi) {
        ++chosen;
        EXPECT_TRUE(predicted.Contains(s.join));
      }
    }
  }
  EXPECT_GE(chosen, predicted.joins.size());
}

TEST(SuggestJoinsTest, TopKTruncates) {
  LocalModel model = TinyModel();
  for (const auto& group : SuggestJoins(SuggestTables(), model, 1)) {
    EXPECT_EQ(group.size(), 1u);
  }
}

TEST(PredictJoinsForNewTableTest, FindsJoinForAppendedTable) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  // Confirmed model: the two fact joins.
  BiModel confirmed = SuggestCase().ground_truth;
  // Append a second event table referencing customers — the same N:1
  // pattern the tiny model was trained on.
  tables.push_back(MakeTable(
      "visits", {{"cust_id", {"1", "1", "2", "3", "2", "1"}},
                 {"dur", {"4", "5", "6", "7", "8", "9"}}}));
  std::vector<Join> joins =
      PredictJoinsForNewTable(tables, confirmed, model);
  ASSERT_FALSE(joins.empty());
  for (const Join& j : joins) {
    EXPECT_TRUE(j.from.table == 3 || j.to.table == 3);
  }
}

TEST(PredictJoinsForNewTableTest, ConfirmedJoinsOccupyStructure) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  BiModel confirmed = SuggestCase().ground_truth;
  tables.push_back(MakeTable("extra", {{"k", SeqCells(1, 4)}}));
  std::vector<Join> joins =
      PredictJoinsForNewTable(tables, confirmed, model);
  // Whatever is returned involves only the new table; the confirmed joins
  // are not re-reported.
  for (const Join& j : joins) {
    EXPECT_FALSE(confirmed.Contains(j));
    EXPECT_TRUE(j.from.table == 3 || j.to.table == 3);
  }
}

TEST(PredictJoinsForNewTableTest, UnjoinableTableYieldsNothing) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  BiModel confirmed = SuggestCase().ground_truth;
  tables.push_back(MakeTable(
      "disconnected", {{"zz", {"9001", "9002", "9003"}}}));
  EXPECT_TRUE(PredictJoinsForNewTable(tables, confirmed, model).empty());
}

// --- The pipeline form against the frozen flat solve.

// One model for the seeded suites below (training dominates their runtime).
const LocalModel& SharedModel() {
  static const LocalModel* model = [] {
    CorpusOptions opt;
    opt.seed = 1616;
    opt.training_cases = 50;
    TrainerOptions trainer;
    trainer.forest.num_trees = 16;
    return new LocalModel(TrainLocalModel(BuildTrainingCorpus(opt), trainer));
  }();
  return *model;
}

// Five REAL cases from each of the ten table-count buckets plus two TPC-H
// schemas built from DDL. In each, the last table is the new one and the
// confirmed model is the ground truth among the other tables.
std::vector<BiCase> NewTableCases() {
  CorpusOptions opt;
  opt.seed = 2016;
  opt.cases_per_bucket = 5;
  std::vector<BiCase> cases = BuildRealBenchmark(opt).cases;
  for (uint64_t seed : {16u, 61u}) {
    Rng rng(seed);
    StatusOr<BiCase> tpch = GenerateTpchFromDdl(0.05, rng);
    EXPECT_TRUE(tpch.ok()) << tpch.status().ToString();
    if (tpch.ok()) cases.push_back(std::move(tpch).value());
  }
  return cases;
}

BiModel ConfirmedWithoutLastTable(const BiCase& c) {
  const int last = int(c.tables.size()) - 1;
  BiModel confirmed;
  for (const Join& j : c.ground_truth.joins) {
    if (j.from.table != last && j.to.table != last) {
      confirmed.joins.push_back(j);
    }
  }
  return confirmed;
}

// Order-insensitive: RunGlobalPredict sorts the selected edges, the flat
// solve lists the backbone before the recall edges.
bool SameJoinSet(const std::vector<Join>& a, const std::vector<Join>& b) {
  BiModel in_a{a};
  BiModel in_b{b};
  if (a.size() != b.size()) return false;
  for (const Join& j : a) {
    if (!in_b.Contains(j)) return false;
  }
  for (const Join& j : b) {
    if (!in_a.Contains(j)) return false;
  }
  return true;
}

std::string Render(const std::vector<Table>& tables,
                   const std::vector<Join>& joins) {
  std::string out;
  for (const Join& j : joins) out += JoinToString(tables, j) + "; ";
  return out;
}

TEST(PredictJoinsForNewTableTest, MatchesFlatOracleOnSeededCases) {
  const std::vector<BiCase> cases = NewTableCases();
  ASSERT_GE(cases.size(), 50u);
  size_t nonempty = 0;
  for (const BiCase& c : cases) {
    const BiModel confirmed = ConfirmedWithoutLastTable(c);
    std::vector<Join> got =
        PredictJoinsForNewTable(c.tables, confirmed, SharedModel());
    std::vector<Join> want =
        PredictJoinsForNewTableFlat(c.tables, confirmed, SharedModel());
    EXPECT_TRUE(SameJoinSet(got, want))
        << c.name << "\n  pipeline: " << Render(c.tables, got)
        << "\n  flat:     " << Render(c.tables, want);
    if (!got.empty()) ++nonempty;
  }
  // The comparison means something only if new tables do get joins.
  EXPECT_GE(nonempty, cases.size() / 2);
}

TEST(PredictJoinsForNewTableTest, PrecisionOnlyReturnsNoRecallModeJoin) {
  AutoBiOptions precision_only;
  precision_only.mode = AutoBiMode::kPrecisionOnly;
  size_t recall_joins = 0;
  for (const BiCase& c : NewTableCases()) {
    const BiModel confirmed = ConfirmedWithoutLastTable(c);
    std::vector<Join> backbone = PredictJoinsForNewTable(
        c.tables, confirmed, SharedModel(), precision_only);
    BiModel full{PredictJoinsForNewTable(c.tables, confirmed, SharedModel())};
    // Both modes solve the same backbone; recall mode only adds to it.
    for (const Join& j : backbone) {
      EXPECT_TRUE(full.Contains(j)) << c.name << ": "
                                    << JoinToString(c.tables, j);
    }
    ASSERT_GE(full.joins.size(), backbone.size()) << c.name;
    recall_joins += full.joins.size() - backbone.size();
  }
  // Recall mode does add joins to some new table, and precision mode
  // leaves every one of them out.
  EXPECT_GT(recall_joins, 0u);
}

}  // namespace
}  // namespace autobi
