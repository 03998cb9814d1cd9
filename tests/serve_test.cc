// Serving-layer tests: the NDJSON protocol surface (serve/json.h,
// serve/engine.h), the versioned model catalog, the cross-request
// content-hash caches (core/predict_cache.h), in-run profile dedupe, and
// admission control. The load-bearing properties:
//   - any request bytes produce one well-formed JSON response line,
//   - Predict responses are byte-identical at any thread count and whether
//     the caches are cold or warm,
//   - admission overflow is an immediate kResourceExhausted, not a hang.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/auto_bi.h"
#include "core/candidates.h"
#include "core/predict_cache.h"
#include "core/trainer.h"
#include "profile/sketch.h"
#include "serve/catalog.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "synth/corpus.h"
#include "table/csv.h"

namespace autobi {
namespace {

// ---------------------------------------------------------------------------
// JSON wire format.

TEST(ServeJson, RoundTripsScalarsAndContainers) {
  const char* inputs[] = {
      "null",
      "true",
      "false",
      "0",
      "-17",
      "9007199254740993",  // > 2^53: must stay exact through int64.
      "1.5",
      "\"hi\"",
      "[]",
      "[1,2,[3]]",
      "{}",
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
  };
  for (const char* input : inputs) {
    StatusOr<Json> parsed = ParseJson(input);
    ASSERT_TRUE(parsed.ok()) << input;
    EXPECT_EQ(parsed->Write(), input) << input;
  }
}

TEST(ServeJson, ObjectPreservesInsertionOrder) {
  StatusOr<Json> parsed = ParseJson(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Write(), R"({"z":1,"a":2,"m":3})");
}

TEST(ServeJson, EscapesControlCharactersToASingleLine) {
  Json obj = Json::MakeObject();
  obj.Set("text", Json::MakeString("line1\nline2\ttab\x01\"quote\""));
  std::string wire = obj.Write();
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  StatusOr<Json> back = ParseJson(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Find("text")->AsString(), "line1\nline2\ttab\x01\"quote\"");
}

TEST(ServeJson, ParsesUnicodeEscapes) {
  StatusOr<Json> parsed = ParseJson(R"("\u00e9\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "\xC3\xA9\xF0\x9F\x98\x80");  // é + emoji.
}

TEST(ServeJson, RejectsMalformedInput) {
  const char* inputs[] = {
      "",       "{",     "}",          "[1,",       "{\"a\"}",
      "\"abc",  "01",    "1.",         "1e",        "tru",
      "nul",    "[1]]",  "{\"a\":1,}", "\"\\q\"",   "\"\\ud800\"",
      "\"\x01\"",
  };
  for (const char* input : inputs) {
    StatusOr<Json> parsed = ParseJson(input);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << input;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidInput) << input;
    }
  }
}

TEST(ServeJson, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(ServeJson, TypedGettersDistinguishAbsentFromWrongType) {
  StatusOr<Json> obj = ParseJson(R"({"n":3,"s":"x"})");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->GetInt("n", 0).value(), 3);
  EXPECT_EQ(obj->GetInt("missing", 7).value(), 7);
  EXPECT_FALSE(obj->GetInt("s", 0).ok());
  EXPECT_FALSE(obj->GetString("n", "").ok());
}

// ---------------------------------------------------------------------------
// Content hashing + PredictCache.

Table MakeTable(const std::string& name, int rows, int salt = 0) {
  Table t(name);
  Column& id = t.AddColumn("id");
  Column& label = t.AddColumn("label");
  for (int i = 0; i < rows; ++i) {
    id.AppendInt(i + salt);
    label.AppendString("v" + std::to_string((i * 7 + salt) % 23));
  }
  return t;
}

TEST(ContentHash, SensitiveToValuesNamesAndTypes) {
  Table a = MakeTable("t", 50);
  Table b = MakeTable("t", 50);
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));
  EXPECT_NE(TableContentHash(a), TableContentHash(MakeTable("t2", 50)));
  EXPECT_NE(TableContentHash(a), TableContentHash(MakeTable("t", 50, 1)));

  // null vs "" vs 3 vs "3" must not alias.
  Table n1("x"), n2("x"), n3("x"), n4("x");
  n1.AddColumn("c").AppendNull();
  n2.AddColumn("c").AppendString("");
  n3.AddColumn("c").AppendInt(3);
  n4.AddColumn("c").AppendString("3");
  uint64_t h1 = TableContentHash(n1), h2 = TableContentHash(n2);
  uint64_t h3 = TableContentHash(n3), h4 = TableContentHash(n4);
  EXPECT_NE(h1, h2);
  EXPECT_NE(h3, h4);
  EXPECT_NE(h2, h3);
}

TEST(PredictCacheTest, TableShardHitMissAndEviction) {
  PredictCache::Options options;
  options.max_table_entries = 2;
  PredictCache cache(options);
  EXPECT_EQ(cache.FindTable(1), nullptr);
  for (uint64_t k = 1; k <= 3; ++k) {
    auto entry = std::make_shared<PredictCache::TableEntry>();
    cache.InsertTable(k, entry);
  }
  PredictCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.table_entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.FindTable(1), nullptr);  // FIFO: oldest evicted.
  EXPECT_NE(cache.FindTable(3), nullptr);
  stats = cache.GetStats();
  EXPECT_EQ(stats.table_hits, 1u);
  EXPECT_GE(stats.table_misses, 2u);
}

TEST(PredictCacheTest, FifoEvictionOverThreeTimesCapacity) {
  constexpr uint64_t kCapacity = 4;
  PredictCache::Options options;
  options.max_table_entries = kCapacity;
  PredictCache cache(options);
  for (uint64_t k = 1; k <= 3 * kCapacity; ++k) {
    cache.InsertTable(k, std::make_shared<PredictCache::TableEntry>());
    // A duplicate insert is a no-op: it neither grows nor reorders the
    // queue.
    cache.InsertTable(k, std::make_shared<PredictCache::TableEntry>());
  }
  PredictCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.table_entries, kCapacity);
  EXPECT_EQ(stats.evictions, 2 * kCapacity);
  // Oldest first: exactly the last kCapacity keys survive.
  for (uint64_t k = 1; k <= 3 * kCapacity; ++k) {
    EXPECT_EQ(cache.FindTable(k) != nullptr, k > 2 * kCapacity) << k;
  }
  stats = cache.GetStats();
  EXPECT_EQ(stats.table_hits, kCapacity);
  EXPECT_EQ(stats.table_misses, 2 * kCapacity);

  // Eviction continues in insertion order once full: the next insert
  // evicts the oldest survivor and nothing else.
  cache.InsertTable(100, std::make_shared<PredictCache::TableEntry>());
  EXPECT_EQ(cache.FindTable(2 * kCapacity + 1), nullptr);
  EXPECT_NE(cache.FindTable(2 * kCapacity + 2), nullptr);
  EXPECT_NE(cache.FindTable(100), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 2 * kCapacity + 1);

  // The pair shard is bounded at 16x the table capacity, same discipline.
  std::vector<std::pair<uint64_t,
                        std::shared_ptr<const PredictCache::PairEntry>>>
      pairs;
  auto empty = std::make_shared<const PredictCache::PairEntry>();
  for (uint64_t k = 1; k <= 3 * 16 * kCapacity; ++k) pairs.emplace_back(k, empty);
  cache.InsertPairs(pairs);
  EXPECT_EQ(cache.GetStats().pair_entries, 16 * kCapacity);
  std::vector<std::shared_ptr<const PredictCache::PairEntry>> found =
      cache.FindPairs({1, 2 * 16 * kCapacity, 2 * 16 * kCapacity + 1});
  EXPECT_EQ(found[0], nullptr);
  EXPECT_EQ(found[1], nullptr);
  EXPECT_EQ(found[2], empty);
  stats = cache.GetStats();
  EXPECT_EQ(stats.pair_hits, 1u);
  EXPECT_EQ(stats.pair_misses, 2u);
  EXPECT_EQ(stats.evictions, 2 * kCapacity + 1 + 2 * 16 * kCapacity);
}

// ---------------------------------------------------------------------------
// Shared trained model for pipeline-level tests (tiny: the tests probe the
// serving machinery, not classifier quality).

const LocalModel& TestModel() {
  static const LocalModel* model = [] {
    CorpusOptions copt;
    copt.seed = 99;
    copt.training_cases = 12;
    TrainerOptions topt;
    topt.forest.num_trees = 4;
    return new LocalModel(TrainLocalModel(BuildTrainingCorpus(copt), topt));
  }();
  return *model;
}

std::vector<Table> StarTables() {
  std::vector<Table> tables;
  Table customers("customers");
  Column& cid = customers.AddColumn("cust_id");
  Column& cname = customers.AddColumn("cust_name");
  for (int i = 0; i < 40; ++i) {
    cid.AppendInt(1000 + i);
    cname.AppendString("customer_" + std::to_string(i));
  }
  tables.push_back(std::move(customers));
  Table orders("orders");
  Column& oid = orders.AddColumn("order_id");
  Column& ocust = orders.AddColumn("cust_id");
  Column& qty = orders.AddColumn("quantity");
  for (int i = 0; i < 150; ++i) {
    oid.AppendInt(i + 1);
    ocust.AppendInt(1000 + (i * 13) % 40);
    qty.AppendInt(1 + i % 9);
  }
  tables.push_back(std::move(orders));
  return tables;
}

// ---------------------------------------------------------------------------
// Library-side cache behaviour: warm == cold, partial reuse, in-run dedupe.

TEST(PredictCacheTest, WarmSolveIsBitIdenticalToCold) {
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  std::vector<Table> tables = StarTables();

  AutoBiResult cold = predictor.Predict(tables);
  PredictCache::Stats after_cold = cache.GetStats();
  EXPECT_EQ(after_cold.solve_hits, 0u);
  EXPECT_EQ(after_cold.solve_entries, 1u);

  AutoBiResult warm = predictor.Predict(tables);
  PredictCache::Stats after_warm = cache.GetStats();
  EXPECT_EQ(after_warm.solve_hits, 1u);

  ASSERT_EQ(cold.model.joins.size(), warm.model.joins.size());
  for (size_t i = 0; i < cold.model.joins.size(); ++i) {
    EXPECT_TRUE(cold.model.joins[i] == warm.model.joins[i]);
  }
  EXPECT_EQ(cold.backbone_edges, warm.backbone_edges);
  EXPECT_EQ(cold.recall_edges, warm.recall_edges);
  EXPECT_EQ(cold.graph.edges().size(), warm.graph.edges().size());
}

TEST(PredictCacheTest, PartialChangeReusesUnchangedTableProfiles) {
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  std::vector<Table> tables = StarTables();
  predictor.Predict(tables);

  // Change only the fact table; the dimension's profile must come from the
  // cache, and the result must equal a cache-free run on the same input.
  std::vector<Table> mutated = tables;
  for (size_t c = 0; c < mutated[1].num_columns(); ++c) {
    mutated[1].column(c).AppendNull();
  }
  PredictCache::Stats before = cache.GetStats();
  AutoBiResult cached_run = predictor.Predict(mutated);
  PredictCache::Stats after = cache.GetStats();
  EXPECT_GE(after.table_hits, before.table_hits + 1);

  AutoBiOptions nocache;
  nocache.threads = 1;
  AutoBi reference(&TestModel(), nocache);
  AutoBiResult ref = reference.Predict(mutated);
  ASSERT_EQ(cached_run.model.joins.size(), ref.model.joins.size());
  for (size_t i = 0; i < ref.model.joins.size(); ++i) {
    EXPECT_TRUE(cached_run.model.joins[i] == ref.model.joins[i]);
  }
}

TEST(PredictCacheTest, DegradedRunsNeverPopulateTheSolveMemo) {
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  std::vector<Table> tables = StarTables();

  RunContext ctx;
  ctx.budgets.max_rows_per_table = 5;  // Trips metadata-only degradation.
  StatusOr<AutoBiResult> degraded = predictor.Predict(tables, &ctx);
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->degradation.Any());
  EXPECT_EQ(cache.GetStats().solve_entries, 0u);
}

TEST(CandidatesTest, IdenticalTablesInOneRunAreProfiledOnce) {
  std::vector<Table> tables = StarTables();
  tables.push_back(tables[0]);  // The same dimension table twice.
  CandidateGenOptions options;
  options.threads = 1;
  CandidateSet set = GenerateCandidates(tables, options, nullptr);
  EXPECT_EQ(set.profile_dedup_hits, 1u);
  ASSERT_EQ(set.profiles.size(), 3u);
  ASSERT_EQ(set.uccs.size(), 3u);
  EXPECT_EQ(set.uccs[0].size(), set.uccs[2].size());
  EXPECT_EQ(set.profiles[0].columns.size(), set.profiles[2].columns.size());
}

// ---------------------------------------------------------------------------
// ServeEngine protocol tests.

Json Call(ServeEngine& engine, const std::string& request) {
  StatusOr<Json> response = ParseJson(engine.HandleLine(request));
  EXPECT_TRUE(response.ok()) << "response not JSON for: " << request;
  return response.ok() ? *response : Json();
}

bool IsOk(const Json& response) {
  const Json* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

std::string ErrorCode(const Json& response) {
  const Json* error = response.Find("error");
  if (error == nullptr) return "";
  const Json* code = error->Find("code");
  return code != nullptr && code->is_string() ? code->AsString() : "";
}

std::string UploadLine(const std::string& session, const Table& table) {
  Json req = Json::MakeObject();
  req.Set("verb", Json::MakeString("upload_table"));
  req.Set("session", Json::MakeString(session));
  req.Set("name", Json::MakeString(table.name()));
  req.Set("csv", Json::MakeString(WriteCsv(table)));
  return req.Write();
}

// Creates a session, uploads the star schema, returns the session id.
std::string SetUpStarSession(ServeEngine& engine) {
  Json created = Call(engine, R"({"verb":"create_session"})");
  EXPECT_TRUE(IsOk(created));
  std::string session = created.Find("session")->AsString();
  for (const Table& t : StarTables()) {
    EXPECT_TRUE(IsOk(Call(engine, UploadLine(session, t))));
  }
  return session;
}

TEST(ServeEngineTest, SessionLifecycle) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);

  Json predict = Call(engine, R"({"verb":"predict","session":")" + session +
                                  R"(","tier":"standard"})");
  ASSERT_TRUE(IsOk(predict)) << predict.Write();
  EXPECT_EQ(predict.Find("num_tables")->AsInt(), 2);
  ASSERT_NE(predict.Find("joins"), nullptr);

  Json model = Call(engine, R"({"verb":"get_model","session":")" + session +
                                R"(","format":"json"})");
  ASSERT_TRUE(IsOk(model)) << model.Write();
  EXPECT_NE(model.Find("model"), nullptr);

  Json diff =
      Call(engine, R"({"verb":"diff","session":")" + session + R"("})");
  ASSERT_TRUE(IsOk(diff));
  EXPECT_FALSE(diff.Find("against_previous")->AsBool());

  EXPECT_TRUE(IsOk(Call(engine, R"({"verb":"close_session","session":")" +
                                    session + R"("})")));
  Json after = Call(engine, R"({"verb":"predict","session":")" + session +
                                R"("})");
  EXPECT_FALSE(IsOk(after));
  EXPECT_EQ(ErrorCode(after), "INVALID_INPUT");
}

TEST(ServeEngineTest, MalformedAndInvalidRequestsReturnTypedErrors) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  EXPECT_EQ(ErrorCode(Call(engine, "{not json")), "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, "[1,2,3]")), "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"no_such_verb"})")),
            "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, R"({"id":4})")), "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"predict","session":"nope"})")),
            "INVALID_INPUT");
  // The id is echoed even on errors.
  Json echoed = Call(engine, R"({"verb":"nope","id":42})");
  ASSERT_NE(echoed.Find("id"), nullptr);
  EXPECT_EQ(echoed.Find("id")->AsInt(), 42);
}

TEST(ServeEngineTest, UploadValidationAndReplacement) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  Json created = Call(engine, R"({"verb":"create_session"})");
  std::string session = created.Find("session")->AsString();

  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"upload_table","session":")" +
                                       session + R"("})")),
            "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(
                engine, R"({"verb":"upload_table","session":")" + session +
                            R"(","name":"t","csv":"a,b\n1\n"})")),
            "INVALID_INPUT");  // Ragged CSV.
  Json first = Call(engine, R"({"verb":"upload_table","session":")" + session +
                                R"(","name":"t","csv":"a,b\n1,2\n"})");
  ASSERT_TRUE(IsOk(first));
  EXPECT_FALSE(first.Find("replaced")->AsBool());
  Json second = Call(engine, R"({"verb":"upload_table","session":")" +
                                 session +
                                 R"(","name":"t","csv":"a,b\n3,4\n"})");
  ASSERT_TRUE(IsOk(second));
  EXPECT_TRUE(second.Find("replaced")->AsBool());
  EXPECT_EQ(second.Find("num_tables")->AsInt(), 1);
  EXPECT_NE(first.Find("content_hash")->AsString(),
            second.Find("content_hash")->AsString());

  // Columns-form upload with mixed types is rejected.
  EXPECT_EQ(ErrorCode(Call(engine,
                           R"({"verb":"upload_table","session":")" + session +
                               R"(","name":"u","columns":[)"
                               R"({"name":"c","values":[1,"x"]}]})")),
            "INVALID_INPUT");
}

TEST(ServeEngineTest, PredictIsByteIdenticalAcrossThreadCountsAndCacheState) {
  std::vector<std::string> joins_by_threads;
  for (int threads : {1, 2, 8}) {
    ServeOptions options;
    options.threads = threads;
    ServeEngine engine(&TestModel(), options);
    std::string session = SetUpStarSession(engine);
    std::string line = R"({"verb":"predict","session":")" + session +
                       R"(","tier":"standard"})";
    Json cold = Call(engine, line);
    ASSERT_TRUE(IsOk(cold)) << cold.Write();
    Json warm = Call(engine, line);
    ASSERT_TRUE(IsOk(warm)) << warm.Write();
    // Warm re-submission hits the solve memo and matches byte-for-byte.
    EXPECT_GE(warm.Find("cache")->Find("solve_hits")->AsInt(), 1);
    EXPECT_EQ(cold.Find("joins")->Write(), warm.Find("joins")->Write());
    joins_by_threads.push_back(cold.Find("joins")->Write());
  }
  EXPECT_EQ(joins_by_threads[0], joins_by_threads[1]);
  EXPECT_EQ(joins_by_threads[0], joins_by_threads[2]);
}

// The orders rows of StarTables(), parameterized by row count so a fresh
// full upload can reproduce exactly what update_table appends.
Table OrdersTable(int rows) {
  Table orders("orders");
  Column& oid = orders.AddColumn("order_id");
  Column& ocust = orders.AddColumn("cust_id");
  Column& qty = orders.AddColumn("quantity");
  for (int i = 0; i < rows; ++i) {
    oid.AppendInt(i + 1);
    ocust.AppendInt(1000 + (i * 13) % 40);
    qty.AppendInt(1 + i % 9);
  }
  return orders;
}

std::string UpdateOrdersLine(const std::string& session, int start,
                             int count) {
  Table delta = OrdersTable(start + count);
  Json req = Json::MakeObject();
  req.Set("verb", Json::MakeString("update_table"));
  req.Set("session", Json::MakeString(session));
  req.Set("name", Json::MakeString("orders"));
  Json cols = Json::MakeArray();
  for (size_t c = 0; c < delta.num_columns(); ++c) {
    Json col = Json::MakeObject();
    col.Set("name", Json::MakeString(delta.column(c).name()));
    Json values = Json::MakeArray();
    for (int r = start; r < start + count; ++r) {
      values.Append(Json::MakeInt(delta.column(c).Int(size_t(r))));
    }
    col.Set("values", std::move(values));
    cols.Append(std::move(col));
  }
  req.Set("columns", std::move(cols));
  return req.Write();
}

TEST(ServeEngineTest, UpdateTableAppendsAndIncrementalPredictMatchesFresh) {
  ServeOptions options;
  options.threads = 2;
  ServeEngine engine(&TestModel(), options);
  std::string session = SetUpStarSession(engine);
  std::string predict_line = R"({"verb":"predict","session":")" + session +
                             R"(","tier":"standard","incremental":true})";

  // First incremental predict on a fresh engine: everything profiled and
  // scanned, nothing reused, counters say so.
  Json first = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(first)) << first.Write();
  const Json* inc = first.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_FALSE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 2);
  EXPECT_EQ(inc->Find("pairs_rescored")->AsInt(), 1);
  EXPECT_EQ(inc->Find("pairs_reused")->AsInt(), 0);

  // Append ten orders rows. The response reports the append, and the next
  // incremental predict re-profiles only orders; customers comes from the
  // table memo.
  Json updated = Call(engine, UpdateOrdersLine(session, 150, 10));
  ASSERT_TRUE(IsOk(updated)) << updated.Write();
  EXPECT_EQ(updated.Find("rows_appended")->AsInt(), 10);
  EXPECT_EQ(updated.Find("rows")->AsInt(), 160);

  Json second = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(second)) << second.Write();
  inc = second.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 1);
  EXPECT_EQ(inc->Find("pairs_rescored")->AsInt(), 1);
  EXPECT_EQ(inc->Find("tables_delta_merged"), nullptr);

  // A fresh session holding the full 160-row orders table predicts the
  // exact same joins and model export with a plain (non-incremental)
  // predict — the serve-side differential-equivalence contract.
  ServeEngine fresh_engine(&TestModel(), options);
  Json created = Call(fresh_engine, R"({"verb":"create_session"})");
  ASSERT_TRUE(IsOk(created));
  std::string fresh = created.Find("session")->AsString();
  for (const Table& t : StarTables()) {
    if (t.name() == "orders") continue;
    ASSERT_TRUE(IsOk(Call(fresh_engine, UploadLine(fresh, t))));
  }
  ASSERT_TRUE(IsOk(Call(fresh_engine, UploadLine(fresh, OrdersTable(160)))));
  Json reference = Call(fresh_engine, R"({"verb":"predict","session":")" +
                                          fresh + R"(","tier":"standard"})");
  ASSERT_TRUE(IsOk(reference)) << reference.Write();
  EXPECT_EQ(second.Find("joins")->Write(), reference.Find("joins")->Write());
  Json inc_model = Call(engine, R"({"verb":"get_model","session":")" +
                                    session + R"(","format":"json"})");
  Json ref_model = Call(fresh_engine, R"({"verb":"get_model","session":")" +
                                          fresh + R"(","format":"json"})");
  ASSERT_TRUE(IsOk(inc_model) && IsOk(ref_model));
  EXPECT_EQ(inc_model.Find("model")->Write(), ref_model.Find("model")->Write());

  // No-op re-predict: every pair reused, the solve simply re-run.
  Json third = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(third)) << third.Write();
  inc = third.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 0);
  EXPECT_EQ(inc->Find("pairs_rescored")->AsInt(), 0);
  EXPECT_EQ(inc->Find("pairs_reused")->AsInt(), 1);
  EXPECT_EQ(inc->Find("warm_start_used"), nullptr);
  EXPECT_EQ(third.Find("joins")->Write(), second.Find("joins")->Write());

  // A replace-style change (re-upload with different cells) reprofiles
  // exactly the changed table.
  Table salted = MakeTable("customers", 40, 3);
  ASSERT_TRUE(IsOk(Call(engine, UploadLine(session, salted))));
  Json fourth = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(fourth)) << fourth.Write();
  inc = fourth.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 1);
}

TEST(ServeEngineTest, SecondSessionReusesFirstSessionsPairs) {
  // Reuse is keyed by content, not by session: a session that uploads the
  // tables of another reuses every table pair that one computed, on its
  // first incremental predict.
  ServeOptions options;
  options.threads = 2;
  ServeEngine engine(&TestModel(), options);
  const Table regions = MakeTable("regions", 20);
  std::string a = SetUpStarSession(engine);
  ASSERT_TRUE(IsOk(Call(engine, UploadLine(a, regions))));
  Json first = Call(engine, R"({"verb":"predict","session":")" + a + R"("})");
  ASSERT_TRUE(IsOk(first)) << first.Write();
  EXPECT_EQ(first.Find("cache")->Find("pair_entries")->AsInt(), 3);

  std::string b = SetUpStarSession(engine);
  ASSERT_TRUE(IsOk(Call(engine, UploadLine(b, regions))));
  Json second = Call(engine, R"({"verb":"predict","session":")" + b +
                                 R"(","incremental":true})");
  ASSERT_TRUE(IsOk(second)) << second.Write();
  const Json* inc = second.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 0);
  EXPECT_EQ(inc->Find("pairs_rescored")->AsInt(), 0);
  EXPECT_EQ(inc->Find("pairs_reused")->AsInt(), 3);  // All pairs of 3 tables.
  const Json* cache = second.Find("cache");
  EXPECT_EQ(cache->Find("pair_hits")->AsInt(), 3);
  EXPECT_EQ(cache->Find("pair_misses")->AsInt(), 3);  // Session A's cold run.
  EXPECT_EQ(cache->Find("solve_hits")->AsInt(), 0);  // Not a solve-memo hit.
  EXPECT_EQ(first.Find("joins")->Write(), second.Find("joins")->Write());
}

TEST(ServeEngineTest, UpdateTableRejectsMalformedDeltas) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);

  // Unknown table.
  EXPECT_EQ(ErrorCode(Call(
                engine, R"({"verb":"update_table","session":")" + session +
                            R"(","name":"nope","columns":[]})")),
            "INVALID_INPUT");
  // Wrong column set.
  EXPECT_EQ(ErrorCode(Call(
                engine, R"({"verb":"update_table","session":")" + session +
                            R"(","name":"orders","columns":[)" +
                            R"({"name":"order_id","values":[999]}]})")),
            "INVALID_INPUT");
  // Type mismatch: a string into the int order_id column.
  EXPECT_EQ(
      ErrorCode(Call(
          engine,
          R"({"verb":"update_table","session":")" + session +
              R"(","name":"orders","columns":[)" +
              R"({"name":"order_id","values":["x"]},)" +
              R"({"name":"cust_id","values":[1000]},)" +
              R"({"name":"quantity","values":[1]}]})")),
      "INVALID_INPUT");
  // Ragged delta.
  EXPECT_EQ(
      ErrorCode(Call(
          engine,
          R"({"verb":"update_table","session":")" + session +
              R"(","name":"orders","columns":[)" +
              R"({"name":"order_id","values":[999,1000]},)" +
              R"({"name":"cust_id","values":[1000]},)" +
              R"({"name":"quantity","values":[1,2]}]})")),
      "INVALID_INPUT");
  // Failed updates must not have mutated the table: predict still works on
  // 150 orders rows.
  Json predict = Call(engine, R"({"verb":"predict","session":")" + session +
                                  R"(","tier":"standard"})");
  ASSERT_TRUE(IsOk(predict)) << predict.Write();
}

TEST(ServeEngineTest, ConcurrentPredictsAreDeterministic) {
  ServeOptions options;
  options.threads = 2;
  options.max_inflight = 8;
  ServeEngine engine(&TestModel(), options);
  // Eight sessions with the same tables, predicted concurrently.
  std::vector<std::string> sessions;
  for (int i = 0; i < 8; ++i) sessions.push_back(SetUpStarSession(engine));

  std::vector<std::string> joins(sessions.size());
  std::vector<std::thread> workers;
  for (size_t i = 0; i < sessions.size(); ++i) {
    workers.emplace_back([&, i] {
      Json response =
          Call(engine, R"({"verb":"predict","session":")" + sessions[i] +
                           R"(","tier":"standard"})");
      if (IsOk(response)) joins[i] = response.Find("joins")->Write();
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t i = 1; i < joins.size(); ++i) {
    EXPECT_EQ(joins[0], joins[i]) << "thread " << i;
    EXPECT_FALSE(joins[i].empty());
  }
}

TEST(AdmissionGateTest, OverflowRejectsImmediately) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/0);
  ASSERT_TRUE(gate.Enter().ok());
  Status second = gate.Enter();
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.rejected(), 1);
  gate.Exit();
  EXPECT_TRUE(gate.Enter().ok());
  gate.Exit();
}

TEST(AdmissionGateTest, QueuedCallerProceedsAfterExit) {
  AdmissionGate gate(1, 1);
  ASSERT_TRUE(gate.Enter().ok());
  std::atomic<bool> entered{false};
  std::thread waiter([&] {
    Status status = gate.Enter();
    EXPECT_TRUE(status.ok());
    entered.store(true);
    gate.Exit();
  });
  // The waiter parks in the queue; an Exit must wake it.
  while (gate.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(entered.load());
  gate.Exit();
  waiter.join();
  EXPECT_TRUE(entered.load());
}

TEST(AdmissionGateTest, TracksAdmittedAndQueueWaitTime) {
  AdmissionGate gate(1, 1);
  ASSERT_TRUE(gate.Enter().ok());
  EXPECT_EQ(gate.admitted(), 1);
  EXPECT_EQ(gate.queue_wait_total_seconds(), 0.0);

  std::thread waiter([&] {
    EXPECT_TRUE(gate.Enter().ok());
    gate.Exit();
  });
  while (gate.queued() == 0) std::this_thread::yield();
  // Make the waiter's queue time unambiguously measurable.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Exit();
  waiter.join();

  EXPECT_EQ(gate.admitted(), 2);
  EXPECT_GT(gate.queue_wait_total_seconds(), 0.0);
  EXPECT_GE(gate.queue_wait_max_seconds(), 0.015);
  EXPECT_LE(gate.queue_wait_max_seconds(), gate.queue_wait_total_seconds());
}

TEST(ServeEngineTest, PredictOverflowReturnsResourceExhausted) {
  ServeOptions options;
  options.threads = 1;
  options.max_inflight = 1;
  options.max_queue = 0;
  ServeEngine engine(&TestModel(), options);
  std::string session = SetUpStarSession(engine);
  std::string line = R"({"verb":"predict","session":")" + session + R"("})";

  // The hook parks the first Predict while it holds the only slot.
  std::mutex mu;
  std::condition_variable cv;
  bool holding = false, release = false;
  engine.SetPredictHoldHookForTest([&] {
    std::unique_lock<std::mutex> lock(mu);
    holding = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  std::thread holder([&] {
    Json response = Call(engine, line);
    EXPECT_TRUE(IsOk(response)) << response.Write();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return holding; });
  }
  // Slot taken, queue empty: this request must be rejected, not parked.
  engine.SetPredictHoldHookForTest(nullptr);
  Json rejected = Call(engine, line);
  EXPECT_FALSE(IsOk(rejected));
  EXPECT_EQ(ErrorCode(rejected), "RESOURCE_EXHAUSTED");
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  holder.join();
}

TEST(ServeEngineTest, QosTierOverridesValidated) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"predict","session":")" +
                                       session + R"(","tier":"warp"})")),
            "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine,
                           R"({"verb":"predict","session":")" + session +
                               R"(","deadline_seconds":-1})")),
            "INVALID_INPUT");
  Json batch = Call(engine, R"({"verb":"predict","session":")" + session +
                                R"(","tier":"batch","mode":"precision_only"})");
  ASSERT_TRUE(IsOk(batch)) << batch.Write();
  EXPECT_EQ(batch.Find("tier")->AsString(), "batch");
}

// ---------------------------------------------------------------------------
// Catalog.

std::vector<NamedJoin> OneJoin(const std::string& from_table,
                               const std::string& to_table) {
  NamedJoin j;
  j.from = {from_table, {"id"}};
  j.to = {to_table, {"id"}};
  j.kind = JoinKind::kNToOne;
  return {j};
}

TEST(ModelCatalogTest, PublishListPinDiff) {
  ModelCatalog catalog(8);
  EXPECT_EQ(catalog.Publish("acme", "v1", 111, OneJoin("a", "b")).value(), 1);
  std::vector<NamedJoin> two = OneJoin("a", "b");
  two.push_back(OneJoin("c", "d")[0]);
  EXPECT_EQ(catalog.Publish("acme", "v2", 222, two).value(), 2);
  // Tenants are isolated.
  EXPECT_EQ(catalog.Publish("other", "x", 333, OneJoin("q", "r")).value(), 1);

  std::vector<ModelSnapshot> listed = catalog.List("acme");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].version, 1);
  EXPECT_EQ(listed[1].label, "v2");

  // Get: explicit version and "latest".
  EXPECT_EQ(catalog.Get("acme", 1)->joins.size(), 1u);
  EXPECT_EQ(catalog.Get("acme", 0)->version, 2);
  EXPECT_FALSE(catalog.Get("acme", 9).ok());
  EXPECT_FALSE(catalog.Get("ghost", 1).ok());

  StatusOr<ModelDiff> diff = catalog.Diff("acme", 1, 2);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->added.size(), 1u);
  EXPECT_TRUE(diff->added[0] == OneJoin("c", "d")[0]);
  EXPECT_TRUE(diff->removed.empty());

  ASSERT_TRUE(catalog.Pin("acme", 1, true).ok());
  EXPECT_TRUE(catalog.Get("acme", 1)->pinned);
  EXPECT_FALSE(catalog.Pin("acme", 9, true).ok());
}

TEST(ModelCatalogTest, EvictionSkipsPinnedSnapshots) {
  ModelCatalog catalog(/*max_unpinned_per_tenant=*/2);
  ASSERT_TRUE(catalog.Publish("t", "keep", 1, OneJoin("a", "b")).ok());
  ASSERT_TRUE(catalog.Pin("t", 1, true).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        catalog.Publish("t", "churn", 10 + uint64_t(i), OneJoin("c", "d"))
            .ok());
  }
  // The pinned v1 survives; only 2 unpinned remain.
  EXPECT_TRUE(catalog.Get("t", 1).ok());
  std::vector<ModelSnapshot> listed = catalog.List("t");
  size_t unpinned = 0;
  for (const ModelSnapshot& s : listed) {
    if (!s.pinned) ++unpinned;
  }
  EXPECT_EQ(unpinned, 2u);
}

TEST(ServeEngineTest, CatalogVerbsEndToEnd) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"predict","session":")" + session +
                                    R"("})")));
  Json published = Call(engine, R"({"verb":"publish_model","session":")" +
                                    session + R"(","label":"first"})");
  ASSERT_TRUE(IsOk(published)) << published.Write();
  EXPECT_EQ(published.Find("version")->AsInt(), 1);

  Json listed = Call(engine, R"({"verb":"list_models"})");
  ASSERT_TRUE(IsOk(listed));
  ASSERT_EQ(listed.Find("models")->size(), 1u);
  EXPECT_EQ(listed.Find("models")->at(0).Find("label")->AsString(), "first");

  EXPECT_TRUE(IsOk(Call(engine, R"({"verb":"pin_model","version":1})")));
  Json got = Call(engine, R"({"verb":"get_catalog_model","version":1})");
  ASSERT_TRUE(IsOk(got));
  EXPECT_TRUE(got.Find("pinned")->AsBool());

  Json diff = Call(engine, R"({"verb":"diff_models","from":1,"to":1})");
  ASSERT_TRUE(IsOk(diff));
  EXPECT_EQ(diff.Find("added")->size(), 0u);
  EXPECT_EQ(diff.Find("removed")->size(), 0u);
}

// Lake-scale observability (PR 9): every successful predict reports what the
// blocking stage pruned and how the global solve partitioned, and the stats
// verb accumulates those numbers across requests.
TEST(ServeEngineTest, PredictReportsBlockingAndPartitionCounters) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  Json predict =
      Call(engine, R"({"verb":"predict","session":")" + session + R"("})");
  ASSERT_TRUE(IsOk(predict)) << predict.Write();

  const Json* blocking = predict.Find("blocking");
  ASSERT_NE(blocking, nullptr);
  int64_t total = blocking->Find("column_pairs_total")->AsInt();
  int64_t admitted = blocking->Find("column_pairs_admitted")->AsInt();
  int64_t pruned = blocking->Find("column_pairs_pruned")->AsInt();
  EXPECT_GT(total, 0);
  EXPECT_EQ(total, admitted + pruned);
  EXPECT_GE(blocking->Find("table_pairs_total")->AsInt(),
            blocking->Find("table_pairs_active")->AsInt());
  const Json* rate = blocking->Find("pruning_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_GE(rate->AsDouble(), 0.0);
  EXPECT_LE(rate->AsDouble(), 1.0);

  const Json* partition = predict.Find("partition");
  ASSERT_NE(partition, nullptr);
  ASSERT_NE(partition->Find("used"), nullptr);
  EXPECT_GE(partition->Find("components")->AsInt(),
            partition->Find("components_solved")->AsInt());

  // The stats verb carries the cumulative sums of the same counters.
  Json stats = Call(engine, R"({"verb":"stats"})");
  ASSERT_TRUE(IsOk(stats));
  const Json* cumulative = stats.Find("blocking");
  ASSERT_NE(cumulative, nullptr);
  EXPECT_EQ(cumulative->Find("column_pairs_pruned")->AsInt(), pruned);
  EXPECT_EQ(cumulative->Find("column_pairs_admitted")->AsInt(), admitted);
  EXPECT_GE(cumulative->Find("components_solved")->AsInt(), 0);
}

TEST(ServeEngineTest, StatsAndShutdown) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  Call(engine, R"({"verb":"ping"})");
  Json stats = Call(engine, R"({"verb":"stats"})");
  ASSERT_TRUE(IsOk(stats));
  EXPECT_GE(stats.Find("requests")->AsInt(), 1);
  const Json* admission = stats.Find("admission");
  ASSERT_NE(admission, nullptr);
  // Queue-wait and rejection counters are always present; only predicts
  // pass through the gate, so everything is zero after a ping.
  EXPECT_EQ(admission->Find("admitted")->AsInt(), 0);
  EXPECT_EQ(admission->Find("rejected")->AsInt(), 0);
  EXPECT_EQ(admission->Find("queue_wait_total_seconds")->AsDouble(), 0.0);
  EXPECT_EQ(admission->Find("queue_wait_max_seconds")->AsDouble(), 0.0);
  // Without --state_dir the durability block reports disabled.
  const Json* durability = stats.Find("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_FALSE(durability->Find("enabled")->AsBool());
  EXPECT_FALSE(engine.shutdown_requested());
  Json shutdown = Call(engine, R"({"verb":"shutdown"})");
  EXPECT_TRUE(IsOk(shutdown));
  EXPECT_TRUE(shutdown.Find("state_flushed")->AsBool());
  EXPECT_TRUE(engine.shutdown_requested());
}

// The tentpole end-to-end property: a daemon restarted from a populated
// state dir serves the published model byte-identically, and the stats verb
// reports what recovery found.
TEST(ServeEngineTest, StateDirRestartServesByteIdenticalCatalogModel) {
  std::string dir = ::testing::TempDir() + "/autobi_serve_restart";
  std::filesystem::remove_all(dir);
  ServeOptions options;
  options.state_dir = dir;

  std::string first_response;
  {
    ServeEngine engine(&TestModel(), options);
    ASSERT_TRUE(engine.RecoverState().ok());
    std::string session = SetUpStarSession(engine);
    ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"predict","session":")" +
                                      session + R"("})")));
    Json published = Call(engine, R"({"verb":"publish_model","session":")" +
                                      session + R"(","label":"durable"})");
    ASSERT_TRUE(IsOk(published)) << published.Write();
    ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"pin_model","version":1})")));
    first_response =
        engine.HandleLine(R"({"verb":"get_catalog_model","version":1})");
    ASSERT_TRUE(engine.FlushState().ok());
  }  // Engine destroyed: the "restart".

  ServeEngine engine(&TestModel(), options);
  ASSERT_TRUE(engine.RecoverState().ok());
  // Byte-identical response without any session or re-predict.
  EXPECT_EQ(engine.HandleLine(R"({"verb":"get_catalog_model","version":1})"),
            first_response);

  Json stats = Call(engine, R"({"verb":"stats"})");
  ASSERT_TRUE(IsOk(stats));
  const Json* durability = stats.Find("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_TRUE(durability->Find("enabled")->AsBool());
  EXPECT_EQ(durability->Find("recovered_versions")->AsInt(), 1);
  EXPECT_EQ(durability->Find("recovered_tenants")->AsInt(), 1);
  EXPECT_EQ(durability->Find("discarded_records")->AsInt(), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace autobi
