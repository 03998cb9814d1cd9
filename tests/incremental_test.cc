// Differential suite for the pipeline's stage memos (core/predict_cache.h):
// for every schema mutation kind — no-op, append rows, add table, drop
// table, rename column, rename table, replace cells, reorder — Predict and
// PredictIncremental with one PredictCache shared across calls must be
// bit-identical to an uncached Predict on the same tables: model JSON,
// graph, backbone/recall edge sets, solver stats, partition telemetry and
// degradation markers, at 1/2/8 threads. Only timing, the reuse counters
// and ind_stats (the scans a run actually performed) may differ, and the
// reuse counters must report exactly how much work the memos saved. The
// memos never serve a pair computed under other options, budgets or mode,
// and degraded runs publish no pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/strings.h"
#include "core/auto_bi.h"
#include "core/candidates.h"
#include "core/model_export.h"
#include "core/predict_cache.h"
#include "core/trainer.h"
#include "fuzz/faultpoints.h"
#include "profile/sketch.h"
#include "synth/bi_generator.h"
#include "synth/corpus.h"
#include "table/table.h"

namespace autobi {
namespace {

// Shared tiny trained model (the suite probes the memo machinery, not
// classifier quality).
const LocalModel& TestModel() {
  static const LocalModel* model = [] {
    CorpusOptions copt;
    copt.seed = 321;
    copt.training_cases = 12;
    TrainerOptions topt;
    topt.forest.num_trees = 4;
    return new LocalModel(TrainLocalModel(BuildTrainingCorpus(copt), topt));
  }();
  return *model;
}

// A 4-table snowflake: orders -> customers -> regions, orders -> products.
// Six unordered pairs, so per-pair reuse counters are meaningful.
std::vector<Table> BaseTables() {
  std::vector<Table> tables;

  Table customers("customers");
  Column& cid = customers.AddColumn("cust_id");
  Column& cname = customers.AddColumn("cust_name");
  Column& cregion = customers.AddColumn("region_id");
  for (int i = 0; i < 40; ++i) {
    cid.AppendInt(1000 + i);
    cname.AppendString("customer_" + std::to_string(i));
    cregion.AppendInt(i % 5);
  }
  tables.push_back(std::move(customers));

  Table regions("regions");
  Column& rid = regions.AddColumn("region_id");
  Column& rname = regions.AddColumn("region_name");
  for (int i = 0; i < 5; ++i) {
    rid.AppendInt(i);
    rname.AppendString("region_" + std::to_string(i));
  }
  tables.push_back(std::move(regions));

  Table products("products");
  Column& pid = products.AddColumn("prod_id");
  Column& pname = products.AddColumn("prod_name");
  for (int i = 0; i < 30; ++i) {
    pid.AppendInt(500 + i);
    pname.AppendString("product_" + std::to_string(i));
  }
  tables.push_back(std::move(products));

  Table orders("orders");
  Column& oid = orders.AddColumn("order_id");
  Column& ocust = orders.AddColumn("cust_id");
  Column& oprod = orders.AddColumn("prod_id");
  Column& oqty = orders.AddColumn("quantity");
  for (int i = 0; i < 150; ++i) {
    oid.AppendInt(i + 1);
    ocust.AppendInt(1000 + (i * 13) % 40);
    oprod.AppendInt(500 + (i * 7) % 30);
    oqty.AppendInt(1 + i % 9);
  }
  tables.push_back(std::move(orders));

  return tables;
}

// The full bit-identity contract, field by field.
void ExpectBitIdentical(const AutoBiResult& got, const AutoBiResult& cold,
                        const std::vector<Table>& tables) {
  ASSERT_EQ(got.model.joins.size(), cold.model.joins.size());
  for (size_t i = 0; i < cold.model.joins.size(); ++i) {
    EXPECT_TRUE(got.model.joins[i] == cold.model.joins[i]) << i;
  }
  EXPECT_TRUE(got.graph.StructurallyEqual(cold.graph));
  EXPECT_EQ(got.backbone_edges, cold.backbone_edges);
  EXPECT_EQ(got.recall_edges, cold.recall_edges);
  EXPECT_EQ(got.solver_stats.one_mca_calls, cold.solver_stats.one_mca_calls);
  EXPECT_EQ(got.solver_stats.nodes, cold.solver_stats.nodes);
  EXPECT_EQ(got.solver_stats.pruned, cold.solver_stats.pruned);
  EXPECT_EQ(got.solver_stats.memo_hits, cold.solver_stats.memo_hits);
  EXPECT_EQ(got.solver_stats.budget_exhausted,
            cold.solver_stats.budget_exhausted);
  EXPECT_EQ(got.partition.used, cold.partition.used);
  EXPECT_EQ(got.partition.components, cold.partition.components);
  EXPECT_EQ(got.partition.components_solved,
            cold.partition.components_solved);
  EXPECT_EQ(got.partition.largest_component_edges,
            cold.partition.largest_component_edges);
  EXPECT_EQ(got.partition.component_health.size(),
            cold.partition.component_health.size());
  EXPECT_EQ(got.degradation.Any(), cold.degradation.Any());
  EXPECT_EQ(got.degradation.ucc.degraded, cold.degradation.ucc.degraded);
  EXPECT_EQ(got.degradation.ind.degraded, cold.degradation.ind.degraded);
  EXPECT_EQ(got.degradation.local_inference.degraded,
            cold.degradation.local_inference.degraded);
  EXPECT_EQ(got.degradation.global_predict.degraded,
            cold.degradation.global_predict.degraded);
  StatusOr<std::string> got_json = ExportJson(tables, got.model);
  StatusOr<std::string> cold_json = ExportJson(tables, cold.model);
  ASSERT_TRUE(got_json.ok() && cold_json.ok());
  EXPECT_EQ(*got_json, *cold_json);
}

AutoBiResult Uncached(const std::vector<Table>& tables, int threads,
                      const RunContext* ctx = nullptr) {
  AutoBiOptions options;
  options.threads = threads;
  StatusOr<AutoBiResult> result =
      AutoBi(&TestModel(), options).Predict(tables, ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : AutoBiResult{};
}

struct Mutation {
  const char* name;
  std::function<void(std::vector<Table>*)> apply;
  // Expected reuse counters of the first PredictIncremental after the
  // mutation (4 base tables -> 6 unordered pairs).
  size_t reprofiled;
  size_t rescored;
  size_t reused;
};

std::vector<Mutation> Mutations() {
  std::vector<Mutation> muts;
  muts.push_back({"no-op", [](std::vector<Table>*) {}, 0, 0, 6});
  muts.push_back({"append-rows",
                  [](std::vector<Table>* t) {
                    Table& orders = (*t)[3];
                    for (int i = 150; i < 162; ++i) {
                      orders.column(0).AppendInt(i + 1);
                      orders.column(1).AppendInt(1000 + (i * 13) % 40);
                      orders.column(2).AppendInt(500 + (i * 7) % 30);
                      orders.column(3).AppendInt(1 + i % 9);
                    }
                  },
                  1, 3, 3});
  muts.push_back({"add-table",
                  [](std::vector<Table>* t) {
                    Table shippers("shippers");
                    Column& sid = shippers.AddColumn("shipper_id");
                    Column& sname = shippers.AddColumn("shipper_name");
                    for (int i = 0; i < 6; ++i) {
                      sid.AppendInt(i);
                      sname.AppendString("shipper_" + std::to_string(i));
                    }
                    t->push_back(std::move(shippers));
                  },
                  1, 4, 6});
  muts.push_back({"drop-table",
                  [](std::vector<Table>* t) { t->erase(t->begin() + 2); },
                  0, 0, 3});
  muts.push_back({"rename-column",
                  [](std::vector<Table>* t) {
                    (*t)[0].column(1).set_name("customer_name");
                  },
                  1, 3, 3});
  muts.push_back({"rename-table",
                  [](std::vector<Table>* t) { (*t)[2].set_name("catalog"); },
                  1, 3, 3});
  muts.push_back({"replace-cells",
                  [](std::vector<Table>* t) {
                    Table& orders = (*t)[3];
                    Column fresh("quantity", ValueType::kInt);
                    for (int i = 0; i < 150; ++i) fresh.AppendInt(9 - i % 9);
                    orders.column(3) = std::move(fresh);
                  },
                  1, 3, 3});
  muts.push_back({"reorder",
                  [](std::vector<Table>* t) {
                    std::reverse(t->begin(), t->end());
                  },
                  0, 0, 6});
  return muts;
}

class MemoDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MemoDifferentialTest, EveryMutationKindMatchesUncachedPredict) {
  const int threads = GetParam();
  for (const Mutation& mut : Mutations()) {
    SCOPED_TRACE(StrFormat("mutation=%s threads=%d", mut.name, threads));
    PredictCache cache;
    AutoBiOptions options;
    options.threads = threads;
    options.cache = &cache;
    AutoBi predictor(&TestModel(), options);

    // Seed: everything is profiled and scanned, nothing reused.
    std::vector<Table> tables = BaseTables();
    StatusOr<AutoBiResult> seed = predictor.Predict(tables, nullptr);
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    EXPECT_FALSE(seed->incremental.used);
    EXPECT_EQ(seed->incremental.tables_reprofiled, 4u);
    EXPECT_EQ(seed->incremental.pairs_rescored, 6u);
    EXPECT_EQ(seed->incremental.pairs_reused, 0u);
    EXPECT_EQ(cache.GetStats().pair_entries, 6u);

    // Differential step: the memo path on the mutated tables vs uncached.
    mut.apply(&tables);
    const AutoBiResult cold = Uncached(tables, threads);
    StatusOr<AutoBiResult> incr = predictor.PredictIncremental(tables, nullptr);
    ASSERT_TRUE(incr.ok()) << incr.status().ToString();
    ExpectBitIdentical(*incr, cold, tables);
    EXPECT_EQ(incr->incremental.used, mut.reused > 0);
    EXPECT_EQ(incr->incremental.tables_reprofiled, mut.reprofiled);
    EXPECT_EQ(incr->incremental.pairs_rescored, mut.rescored);
    EXPECT_EQ(incr->incremental.pairs_reused, mut.reused);

    // Plain Predict on the same tables answers from the solve memo the
    // incremental run populated, and still matches.
    const size_t solve_hits = cache.GetStats().solve_hits;
    StatusOr<AutoBiResult> plain = predictor.Predict(tables, nullptr);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(cache.GetStats().solve_hits, solve_hits + 1);
    ExpectBitIdentical(*plain, cold, tables);

    // Every pair is now memoized: a re-run reuses all of them.
    StatusOr<AutoBiResult> again = predictor.PredictIncremental(tables, nullptr);
    ASSERT_TRUE(again.ok());
    const size_t n = tables.size();
    EXPECT_TRUE(again->incremental.used);
    EXPECT_EQ(again->incremental.tables_reprofiled, 0u);
    EXPECT_EQ(again->incremental.pairs_rescored, 0u);
    EXPECT_EQ(again->incremental.pairs_reused, n * (n - 1) / 2);
    ExpectBitIdentical(*again, cold, tables);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MemoDifferentialTest,
                         ::testing::Values(1, 2, 8));

// 1:1 candidates whose score depends on their orientation. A 1:1 candidate
// is oriented from its lower-indexed table and its features read the two
// sides asymmetrically, so when a cached pair comes back in the opposite
// table order the candidate flips and must be rescored. Seed 18 of this
// generator setting yields 1:1 edges whose probability changes when the
// table order is reversed (asserted below, so the test cannot go vacuous).
std::vector<Table> OneToOneTables() {
  Rng rng(18);
  BiGenOptions gen;
  gen.num_tables = 4;
  gen.min_dim_rows = 10;
  gen.max_dim_rows = 40;
  gen.min_fact_rows = 30;
  gen.max_fact_rows = 80;
  return GenerateBiCase(gen, rng).tables;
}

std::vector<double> OneToOneProbabilities(const AutoBiResult& result) {
  std::vector<double> out;
  for (const JoinEdge& e : result.graph.edges()) {
    if (e.one_to_one) out.push_back(e.probability);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MemoTest, ReversedTableOrderRescoresFlippedOneToOneCandidates) {
  std::vector<Table> tables = OneToOneTables();
  std::vector<Table> reversed(tables.rbegin(), tables.rend());
  const AutoBiResult cold_forward = Uncached(tables, 1);
  const AutoBiResult cold_reversed = Uncached(reversed, 1);
  ASSERT_FALSE(OneToOneProbabilities(cold_forward).empty());
  ASSERT_NE(OneToOneProbabilities(cold_forward),
            OneToOneProbabilities(cold_reversed));

  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  ASSERT_TRUE(predictor.Predict(tables, nullptr).ok());
  StatusOr<AutoBiResult> reused = predictor.Predict(reversed, nullptr);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused->incremental.pairs_reused, 6u);
  EXPECT_EQ(reused->incremental.pairs_rescored, 0u);
  ExpectBitIdentical(*reused, cold_reversed, reversed);
}

TEST(MemoTest, SessionsSharingTablesReuseEveryPair) {
  // Two logical sessions over the same tables in one shared cache: the
  // second's first run reuses every pair the first one computed.
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 2;
  options.cache = &cache;
  AutoBi session_a(&TestModel(), options);
  AutoBi session_b(&TestModel(), options);
  std::vector<Table> tables = BaseTables();
  ASSERT_TRUE(session_a.Predict(tables, nullptr).ok());
  StatusOr<AutoBiResult> b = session_b.PredictIncremental(tables, nullptr);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->incremental.pairs_reused, 6u);
  EXPECT_EQ(b->incremental.pairs_rescored, 0u);
  ExpectBitIdentical(*b, Uncached(tables, 2), tables);
}

TEST(MemoTest, OptionsBudgetsAndModeNeverServeAStalePair) {
  std::vector<Table> tables = BaseTables();
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  ASSERT_TRUE(AutoBi(&TestModel(), options).Predict(tables, nullptr).ok());

  // Execution-only and solve-only knobs keep the pairs: thread count never
  // changes a result, and tau only shapes the global solve.
  AutoBiOptions rethreaded = options;
  rethreaded.threads = 4;
  rethreaded.tau = 0.75;
  StatusOr<AutoBiResult> same =
      AutoBi(&TestModel(), rethreaded).PredictIncremental(tables, nullptr);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->incremental.pairs_reused, 6u);
  AutoBiOptions rethreaded_uncached = rethreaded;
  rethreaded_uncached.cache = nullptr;
  ExpectBitIdentical(
      *same, *AutoBi(&TestModel(), rethreaded_uncached).Predict(tables, nullptr),
      tables);

  // Candidate options and the scoring mode are part of the pair key.
  AutoBiOptions stricter = options;
  stricter.candidates.ind.min_containment = 0.95;
  AutoBiOptions schema_only = options;
  schema_only.mode = AutoBiMode::kSchemaOnly;
  for (const AutoBiOptions& changed : {stricter, schema_only}) {
    StatusOr<AutoBiResult> run =
        AutoBi(&TestModel(), changed).PredictIncremental(tables, nullptr);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->incremental.pairs_reused, 0u);
    AutoBiOptions changed_uncached = changed;
    changed_uncached.cache = nullptr;
    ExpectBitIdentical(
        *run, *AutoBi(&TestModel(), changed_uncached).Predict(tables, nullptr),
        tables);
  }

  // A row budget that keeps a table from value probing changes its
  // admission, so its pairs miss; the rest still hit. The degraded result
  // matches an uncached run under the same budget.
  AutoBi predictor(&TestModel(), options);
  RunContext tiny_rows;
  tiny_rows.budgets.max_rows_per_table = 100;  // Excludes orders only.
  StatusOr<AutoBiResult> budgeted =
      predictor.PredictIncremental(tables, &tiny_rows);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_TRUE(budgeted->degradation.Any());
  EXPECT_EQ(budgeted->incremental.pairs_reused, 3u);
  EXPECT_EQ(budgeted->incremental.pairs_rescored, 3u);
  ExpectBitIdentical(*budgeted, Uncached(tables, 1, &tiny_rows), tables);

  // A candidate-pair budget truncates the assembled list after lookup:
  // cached pairs are used, and the result still matches uncached.
  RunContext few_pairs;
  few_pairs.budgets.max_candidate_pairs = 2;
  StatusOr<AutoBiResult> truncated =
      predictor.PredictIncremental(tables, &few_pairs);
  ASSERT_TRUE(truncated.ok());
  EXPECT_TRUE(truncated->degradation.ind.degraded);
  EXPECT_EQ(truncated->incremental.pairs_reused, 6u);
  ExpectBitIdentical(*truncated, Uncached(tables, 1, &few_pairs), tables);
}

TEST(MemoTest, UncachedRunsHashOnlyAdmittedTables) {
  std::vector<Table> tables = BaseTables();
  RunContext tiny_rows;
  tiny_rows.budgets.max_rows_per_table = 100;  // Excludes orders only.
  // Without a cache an over-budget table is never hashed; with one every
  // table is, because the pair and solve keys cover them all.
  const std::vector<uint64_t> admitted =
      HashTables(tables, &tiny_rows, /*admitted_only=*/true, 2);
  const std::vector<uint64_t> all =
      HashTables(tables, &tiny_rows, /*admitted_only=*/false, 2);
  ASSERT_EQ(admitted.size(), tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(all[i], TableContentHash(tables[i])) << i;
    EXPECT_EQ(admitted[i], i == 3 ? 0 : all[i]) << i;
  }

  // The uncached result under that budget is the same at any thread count
  // and equals a cached run's, which hashed the over-budget table.
  const AutoBiResult reference = Uncached(tables, 1, &tiny_rows);
  ASSERT_TRUE(reference.degradation.ucc.degraded);
  for (int threads : {2, 8}) {
    ExpectBitIdentical(Uncached(tables, threads, &tiny_rows), reference,
                       tables);
  }
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 2;
  options.cache = &cache;
  StatusOr<AutoBiResult> cached =
      AutoBi(&TestModel(), options).Predict(tables, &tiny_rows);
  ASSERT_TRUE(cached.ok());
  ExpectBitIdentical(*cached, reference, tables);
}

TEST(MemoTest, DegradedRunsPublishNoPair) {
  std::vector<Table> tables = BaseTables();
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);

  RunContext few_pairs;
  few_pairs.budgets.max_candidate_pairs = 1;
  StatusOr<AutoBiResult> budgeted = predictor.Predict(tables, &few_pairs);
  ASSERT_TRUE(budgeted.ok());
  ASSERT_TRUE(budgeted->degradation.Any());
  ExpectBitIdentical(*budgeted, Uncached(tables, 1, &few_pairs), tables);
  EXPECT_EQ(cache.GetStats().pair_entries, 0u);

  RunContext cancelled;
  cancelled.Cancel();
  StatusOr<AutoBiResult> stopped = predictor.Predict(tables, &cancelled);
  ASSERT_TRUE(stopped.ok());
  ASSERT_TRUE(stopped->degradation.Any());
  EXPECT_EQ(stopped->incremental.pairs_reused, 0u);
  EXPECT_EQ(cache.GetStats().pair_entries, 0u);

  ASSERT_TRUE(FaultPoints::Global().Configure("candidates.exhausted=1.0@7"));
  StatusOr<AutoBiResult> faulted = predictor.Predict(tables, nullptr);
  FaultPoints::Global().Disable();
  ASSERT_TRUE(faulted.ok());
  ASSERT_TRUE(faulted->degradation.ind.degraded);
  EXPECT_EQ(cache.GetStats().pair_entries, 0u);
  EXPECT_EQ(cache.GetStats().solve_entries, 0u);

  // A healthy run publishes every pair, and a cancelled run never answers
  // from them: it owes the caller the same partial model an uncached run
  // returns.
  ASSERT_TRUE(predictor.Predict(tables, nullptr).ok());
  EXPECT_EQ(cache.GetStats().pair_entries, 6u);
  StatusOr<AutoBiResult> stopped_warm =
      predictor.PredictIncremental(tables, &cancelled);
  ASSERT_TRUE(stopped_warm.ok());
  EXPECT_EQ(stopped_warm->incremental.pairs_reused, 0u);
  ExpectBitIdentical(*stopped_warm, Uncached(tables, 1, &cancelled), tables);
}

TEST(MemoTest, MalformedTablesAreInvalidInput) {
  std::vector<Table> tables = BaseTables();
  tables[0].column(0).AppendInt(7);  // Ragged.
  PredictCache cache;
  AutoBiOptions options;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  for (bool incremental : {false, true}) {
    StatusOr<AutoBiResult> result =
        incremental ? predictor.PredictIncremental(tables, nullptr)
                    : predictor.Predict(tables, nullptr);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidInput);
  }
}

}  // namespace
}  // namespace autobi
