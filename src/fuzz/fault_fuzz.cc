#include "fuzz/fault_fuzz.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/auto_bi.h"
#include "core/bi_model.h"
#include "core/model_export.h"
#include "core/predict_cache.h"
#include "core/trainer.h"
#include "fuzz/faultpoints.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "synth/bi_generator.h"
#include "synth/corpus.h"
#include "synth/lake.h"
#include "table/csv.h"
#include "table/sql_ddl.h"

namespace autobi {

namespace {

// Seed templates the mutators start from: small but feature-covering inputs
// (quoting, escapes, numerics, CRLF, BOM, composite keys, inline and
// table-level REFERENCES).
const char* const kCsvSeeds[] = {
    "id,name,score\n1,alice,3.5\n2,bob,4.0\n3,\"c,d\",5\n",
    "\xEF\xBB\xBFord_id,cust_id,qty\r\n10,1,2\r\n11,2,\r\n12,1,7\r\n",
    "a,b\n\"multi\nline\",\"quote\"\"esc\"\n,\n",
    "k\n1\n2\n3\n4\n5\n",
};

const char* const kDdlSeeds[] = {
    "CREATE TABLE dim (id INT PRIMARY KEY, name TEXT);\n"
    "CREATE TABLE fact (fid INT, did INT REFERENCES dim(id));\n",
    "CREATE TABLE a (x INT, y INT, PRIMARY KEY (x, y));\n"
    "CREATE TABLE b (x INT, y INT, z TEXT,\n"
    "  FOREIGN KEY (x, y) REFERENCES a (x, y));\n",
    "create table t1 (c1 varchar(10));\ncreate table t2 (c2 int);\n",
};

// Bytes the mutators like to splice in: CSV/DDL structure characters plus
// binary junk.
const char kSpiceBytes[] = {',', '"', '\n', '\r', '(',  ')',   ';',
                            '0', '\\', '\'', '\t', '\0', '\x80', '\xff'};

std::string MutateBytes(const std::string& seed_text, Rng& rng) {
  std::string text = seed_text;
  int edits = 1 + int(rng.NextBelow(8));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    size_t pos = size_t(rng.NextBelow(text.size()));
    switch (rng.NextBelow(5)) {
      case 0:  // Overwrite with a spice byte.
        text[pos] = kSpiceBytes[rng.NextBelow(sizeof(kSpiceBytes))];
        break;
      case 1:  // Overwrite with a fully random byte.
        text[pos] = char(rng.NextBelow(256));
        break;
      case 2:  // Insert a spice byte.
        text.insert(text.begin() + long(pos),
                    kSpiceBytes[rng.NextBelow(sizeof(kSpiceBytes))]);
        break;
      case 3:  // Delete a byte.
        text.erase(text.begin() + long(pos));
        break;
      case 4:  // Truncate (short-input / mid-token cases).
        text.resize(pos);
        break;
    }
  }
  return text;
}

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string text(rng.NextBelow(max_len + 1), '\0');
  for (char& c : text) c = char(rng.NextBelow(256));
  return text;
}

// One small LocalModel trained once and shared by every pipeline case (the
// campaign probes the service layer, not classifier quality).
const LocalModel& SharedTinyModel() {
  static const LocalModel* model = [] {
    CorpusOptions copt;
    copt.seed = 77;
    copt.training_cases = 10;
    TrainerOptions topt;
    topt.forest.num_trees = 4;
    return new LocalModel(TrainLocalModel(BuildTrainingCorpus(copt), topt));
  }();
  return *model;
}

struct Scratch {
  FaultFuzzReport* report;
  long case_index = 0;
  const char* scenario = "";

  void Fail(const std::string& message) {
    ++report->failures;
    if (report->failure_messages.size() < 50) {
      report->failure_messages.push_back(StrFormat(
          "case %ld (%s): %s", case_index, scenario, message.c_str()));
    }
  }
};

// Checks the universal invariant on a StatusOr'd table parse: either a
// well-formed error or a structurally valid table.
void CheckParsedTable(const StatusOr<Table>& table, Scratch& s) {
  if (!table.ok()) {
    if (table.status().message().empty()) {
      s.Fail("error Status with empty message");
    }
    ++s.report->status_errors;
    return;
  }
  ++s.report->parses_ok;
  if (!table.value().Validate()) {
    s.Fail("parse returned OK but table fails Validate()");
  }
}

void RunCsvCase(Rng& rng, Scratch& s) {
  ++s.report->csv_cases;
  std::string text;
  if (rng.NextBool(0.25)) {
    text = RandomBytes(rng, 256);
  } else {
    const char* seed =
        kCsvSeeds[rng.NextBelow(sizeof(kCsvSeeds) / sizeof(kCsvSeeds[0]))];
    text = MutateBytes(seed, rng);
  }
  CsvOptions opt;
  opt.lenient = rng.NextBool();
  if (rng.NextBool(0.3)) opt.max_bytes = 1 + rng.NextBelow(64);
  CsvStats stats;
  CheckParsedTable(ReadCsv(text, "fuzz", opt, &stats), s);
}

void RunDdlCase(Rng& rng, Scratch& s) {
  ++s.report->ddl_cases;
  std::string text;
  if (rng.NextBool(0.25)) {
    text = RandomBytes(rng, 256);
  } else {
    const char* seed =
        kDdlSeeds[rng.NextBelow(sizeof(kDdlSeeds) / sizeof(kDdlSeeds[0]))];
    text = MutateBytes(seed, rng);
  }
  StatusOr<DdlSchema> schema = ParseSqlDdl(text);
  if (!schema.ok()) {
    if (schema.status().message().empty()) {
      s.Fail("error Status with empty message");
    }
    ++s.report->status_errors;
    return;
  }
  ++s.report->parses_ok;
  for (const Table& t : schema.value().tables) {
    if (!t.Validate()) s.Fail("DDL parse returned OK but table is invalid");
  }
}

void RunFileCase(Rng& rng, Scratch& s, const std::string& scratch_dir) {
  ++s.report->file_cases;
  const char* seed =
      kCsvSeeds[rng.NextBelow(sizeof(kCsvSeeds) / sizeof(kCsvSeeds[0]))];
  std::string text = MutateBytes(seed, rng);
  std::filesystem::path path =
      std::filesystem::path(scratch_dir) / "autobi_faultfuzz_case.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), long(text.size()));
  }
  // Arm the I/O fault points with case-specific probabilities and seed.
  std::string spec = StrFormat("io.open=%.2f,io.short_read=%.2f@%llu",
                               rng.NextDouble(0.0, 0.6),
                               rng.NextDouble(0.0, 0.8),
                               (unsigned long long)rng.Next());
  FaultPoints::Global().Configure(spec);
  CsvOptions opt;
  opt.lenient = rng.NextBool();
  CheckParsedTable(ReadCsvFile(path.string(), opt), s);
  s.report->injected_faults += FaultPoints::Global().fires();
  FaultPoints::Global().Disable();
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void RunPipelineCase(Rng& rng, Scratch& s) {
  ++s.report->pipeline_cases;
  BiGenOptions gen;
  gen.num_tables = 2 + int(rng.NextBelow(5));
  gen.min_dim_rows = 4;
  gen.max_dim_rows = 40;
  gen.min_fact_rows = 10;
  gen.max_fact_rows = 80;
  Rng case_rng = rng.Fork();
  BiCase bi_case = GenerateBiCase(gen, case_rng);

  // Arm pipeline fault points for roughly half the cases.
  bool faults_armed = rng.NextBool();
  if (faults_armed) {
    std::string spec =
        StrFormat("candidates.exhausted=%.2f,parallel.task=%.3f@%llu",
                  rng.NextDouble(0.0, 0.7), rng.NextDouble(0.0, 0.05),
                  (unsigned long long)rng.Next());
    FaultPoints::Global().Configure(spec);
  }

  // Randomized run control: tight deterministic budgets, near-zero
  // deadlines, and up-front cancellation all take this path.
  RunContext ctx;
  if (rng.NextBool(0.4)) {
    ctx.budgets.max_rows_per_table = 1 + rng.NextBelow(64);
  }
  if (rng.NextBool(0.3)) {
    ctx.budgets.max_cells_per_table = 1 + rng.NextBelow(512);
  }
  if (rng.NextBool(0.4)) {
    ctx.budgets.max_candidate_pairs = rng.NextBelow(8);
  }
  if (rng.NextBool(0.3)) {
    ctx.budgets.max_one_mca_calls = long(1 + rng.NextBelow(50));
  }
  if (rng.NextBool(0.2)) ctx.set_deadline_after(0.0);
  if (rng.NextBool(0.1)) ctx.Cancel();

  AutoBiOptions opt;
  opt.threads = 1 + int(rng.NextBelow(2));
  switch (rng.NextBelow(3)) {
    case 0: opt.mode = AutoBiMode::kFull; break;
    case 1: opt.mode = AutoBiMode::kPrecisionOnly; break;
    case 2: opt.mode = AutoBiMode::kSchemaOnly; break;
  }
  AutoBi autobi(&SharedTinyModel(), opt);
  StatusOr<AutoBiResult> result =
      autobi.Predict(bi_case.tables, rng.NextBool(0.9) ? &ctx : nullptr);
  if (faults_armed) {
    s.report->injected_faults += FaultPoints::Global().fires();
    FaultPoints::Global().Disable();
  }

  if (!result.ok()) {
    // The only acceptable hard error from trusted synthetic tables is an
    // injected internal fault; budgets/deadlines must degrade, not error.
    if (result.status().code() != StatusCode::kInternal) {
      s.Fail(StrFormat("unexpected error from pipeline: %s",
                       result.status().ToString().c_str()));
    } else if (!faults_armed) {
      s.Fail(StrFormat("kInternal without armed faults: %s",
                       result.status().ToString().c_str()));
    }
    ++s.report->status_errors;
    return;
  }
  const AutoBiResult& r = result.value();
  Status valid = ValidateBiModel(bi_case.tables, r.model);
  if (!valid.ok()) {
    s.Fail(StrFormat("predicted model fails validation: %s",
                     valid.ToString().c_str()));
  }
  if (r.degradation.Any()) {
    ++s.report->degraded_models;
    // Degradation markers must carry a trigger.
    for (const StageHealth* h :
         {&r.degradation.ucc, &r.degradation.ind,
          &r.degradation.local_inference, &r.degradation.global_predict}) {
      if (h->degraded && h->trigger.empty()) {
        s.Fail("degraded stage with empty trigger");
      }
    }
  }
  // Exporters must accept any validated (possibly degraded) model.
  StatusOr<std::string> json = ExportJson(bi_case.tables, r.model);
  if (!json.ok()) {
    s.Fail(StrFormat("ExportJson rejected a validated model: %s",
                     json.status().ToString().c_str()));
  }
}

// --- Lake scenario -------------------------------------------------------

// A small synthetic lake (disconnected islands with adversarial shared
// names/ranges, synth/lake.h) through the full pipeline: blocking plus the
// partitioned per-component solve. Faults and budgets are randomized like
// the pipeline scenario; when nothing nondeterministic is armed the case
// additionally re-predicts with blocking disabled (the exhaustive oracle)
// and fails on ANY divergence — model JSON, join graph, or selected edge
// sets — which is the recall-1.0 / bit-identity contract of PR 9.
void RunLakeCase(Rng& rng, Scratch& s) {
  ++s.report->lake_cases;
  LakeGenOptions gen;
  gen.num_tables = 6 + int(rng.NextBelow(13));  // 6..18 tables.
  gen.min_island = 2;
  gen.max_island = 5;
  gen.min_dim_rows = 4;
  gen.max_dim_rows = 40;
  gen.min_fact_rows = 10;
  gen.max_fact_rows = 60;
  // Roll the adversarial axes hard: the fuzzer wants collisions, not scale.
  gen.shared_dim_name_prob = 0.6;
  gen.shared_key_range_prob = 0.25;
  Rng case_rng = rng.Fork();
  BiCase lake = GenerateLake(gen, case_rng);

  bool faults_armed = rng.NextBool(0.4);
  if (faults_armed) {
    std::string spec =
        StrFormat("candidates.exhausted=%.2f,parallel.task=%.3f@%llu",
                  rng.NextDouble(0.0, 0.7), rng.NextDouble(0.0, 0.05),
                  (unsigned long long)rng.Next());
    FaultPoints::Global().Configure(spec);
  }

  // Budgets / deadlines / cancellation exercise per-component degradation;
  // any such run skips the differential below (blocking changes how much
  // work each budget unit covers, so tripped runs legitimately diverge).
  RunContext ctx;
  bool use_ctx = rng.NextBool(0.4);
  if (use_ctx) {
    if (rng.NextBool(0.4)) {
      ctx.budgets.max_rows_per_table = 1 + rng.NextBelow(64);
    }
    if (rng.NextBool(0.4)) {
      ctx.budgets.max_candidate_pairs = rng.NextBelow(16);
    }
    if (rng.NextBool(0.3)) {
      ctx.budgets.max_one_mca_calls = long(1 + rng.NextBelow(50));
    }
    if (rng.NextBool(0.2)) ctx.set_deadline_after(0.0);
    if (rng.NextBool(0.1)) ctx.Cancel();
  }

  AutoBiOptions opt;
  opt.threads = 1 + int(rng.NextBelow(3));
  AutoBi autobi(&SharedTinyModel(), opt);
  StatusOr<AutoBiResult> result =
      autobi.Predict(lake.tables, use_ctx ? &ctx : nullptr);
  if (faults_armed) {
    s.report->injected_faults += FaultPoints::Global().fires();
    FaultPoints::Global().Disable();
  }

  if (!result.ok()) {
    if (result.status().code() != StatusCode::kInternal) {
      s.Fail(StrFormat("unexpected error from lake predict: %s",
                       result.status().ToString().c_str()));
    } else if (!faults_armed) {
      s.Fail(StrFormat("kInternal without armed faults: %s",
                       result.status().ToString().c_str()));
    }
    ++s.report->status_errors;
    return;
  }
  const AutoBiResult& r = result.value();
  Status valid = ValidateBiModel(lake.tables, r.model);
  if (!valid.ok()) {
    s.Fail(StrFormat("lake model fails validation: %s",
                     valid.ToString().c_str()));
  }
  if (r.degradation.Any()) ++s.report->degraded_models;
  StatusOr<std::string> json = ExportJson(lake.tables, r.model);
  if (!json.ok()) {
    s.Fail(StrFormat("ExportJson rejected a validated lake model: %s",
                     json.status().ToString().c_str()));
    return;
  }

  if (faults_armed || use_ctx) return;
  // Differential against the exhaustive oracle: same tables, same options,
  // blocking off. Everything observable must be bit-identical.
  AutoBiOptions off = opt;
  off.candidates.ind.blocking.enabled = false;
  AutoBi oracle(&SharedTinyModel(), off);
  StatusOr<AutoBiResult> oracle_result = oracle.Predict(lake.tables, nullptr);
  if (!oracle_result.ok()) {
    s.Fail(StrFormat("exhaustive oracle errored: %s",
                     oracle_result.status().ToString().c_str()));
    return;
  }
  const AutoBiResult& o = oracle_result.value();
  StatusOr<std::string> oracle_json = ExportJson(lake.tables, o.model);
  if (!oracle_json.ok()) {
    s.Fail("ExportJson rejected the oracle model");
    return;
  }
  if (json.value() != oracle_json.value()) {
    s.Fail("blocking-on model diverges from exhaustive oracle (recall loss)");
  }
  if (!r.graph.StructurallyEqual(o.graph)) {
    s.Fail("blocking-on join graph diverges from exhaustive oracle");
  }
  if (r.backbone_edges != o.backbone_edges ||
      r.recall_edges != o.recall_edges) {
    s.Fail("blocking-on edge selection diverges from exhaustive oracle");
  }
}

// --- Schema-evolution scenario ------------------------------------------

// Appends one cell matching the column's type (occasionally null).
void AppendTypedCell(Column& col, Rng& rng) {
  if (rng.NextBool(0.08)) {
    col.AppendNull();
    return;
  }
  switch (col.type()) {
    case ValueType::kInt:
      col.AppendInt(int64_t(rng.NextBelow(500)));
      break;
    case ValueType::kDouble:
      col.AppendDouble(rng.NextDouble(0.0, 50.0));
      break;
    case ValueType::kString:
      col.AppendString(StrFormat("fz_%llu",
                                 (unsigned long long)rng.NextBelow(500)));
      break;
    default:  // All-null column: keep it all-null.
      col.AppendNull();
      break;
  }
}

// Applies one random, always-well-formed mutation: tables stay rectangular
// and typed, so the pipeline contract (not the loader) is what is probed.
void MutateTables(std::vector<Table>* tables, Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0: {  // Append rows to one table.
      Table& t = (*tables)[rng.NextBelow(tables->size())];
      if (t.num_columns() == 0) break;
      long rows = 1 + long(rng.NextBelow(10));
      for (long r = 0; r < rows; ++r) {
        for (size_t c = 0; c < t.num_columns(); ++c) {
          AppendTypedCell(t.column(c), rng);
        }
      }
      break;
    }
    case 1: {  // Add a small fresh table.
      Table t(StrFormat("fz_added_%llx", (unsigned long long)rng.Next()));
      Column& id = t.AddColumn("fz_id", ValueType::kInt);
      Column& label = t.AddColumn("fz_label", ValueType::kString);
      long rows = 2 + long(rng.NextBelow(8));
      for (long r = 0; r < rows; ++r) {
        id.AppendInt(r);
        label.AppendString(StrFormat("v%ld", r));
      }
      tables->push_back(std::move(t));
      break;
    }
    case 2:  // Drop a table (always keep at least two).
      if (tables->size() > 2) {
        tables->erase(tables->begin() + long(rng.NextBelow(tables->size())));
      }
      break;
    case 3: {  // Rename a column.
      Table& t = (*tables)[rng.NextBelow(tables->size())];
      if (t.num_columns() == 0) break;
      Column& c = t.column(rng.NextBelow(t.num_columns()));
      c.set_name(c.name() + "_r");
      break;
    }
    case 4: {  // Rename a table (cells unchanged: the rename detector path).
      Table& t = (*tables)[rng.NextBelow(tables->size())];
      t.set_name(t.name() + "_r");
      break;
    }
    case 5: {  // Replace some cells in one column (same length and type).
      Table& t = (*tables)[rng.NextBelow(tables->size())];
      if (t.num_columns() == 0 || t.num_rows() == 0) break;
      Column& old = t.column(rng.NextBelow(t.num_columns()));
      Column fresh(old.name(), old.type());
      for (size_t i = 0; i < old.size(); ++i) {
        if (!old.IsNull(i) && rng.NextBool(0.3)) {
          AppendTypedCell(fresh, rng);
        } else if (old.IsNull(i)) {
          fresh.AppendNull();
        } else if (old.type() == ValueType::kInt) {
          fresh.AppendInt(old.Int(i));
        } else if (old.type() == ValueType::kDouble) {
          fresh.AppendDouble(old.Double(i));
        } else {
          fresh.AppendString(old.Str(i));
        }
      }
      old = std::move(fresh);
      break;
    }
    case 6: {  // Swap two tables: cached pairs come back reoriented.
      size_t a = rng.NextBelow(tables->size());
      size_t b = rng.NextBelow(tables->size());
      std::swap((*tables)[a], (*tables)[b]);
      break;
    }
    default:  // No-op step (every table and pair reused).
      break;
  }
}

// Replays a random mutation sequence through Predict with one PredictCache
// shared across the steps — so each step reuses the tables and table pairs
// the earlier steps left in its memos — and cross-checks every step against
// an uncached Predict on the same tables. With no faults armed the two must
// agree bit-for-bit (JSON export, join graph, edge sets, degradation
// flags); with faults armed the fault-point fire sequences diverge between
// the two runs, so only the universal invariant is checked.
void RunSchemaEvolutionCase(Rng& rng, Scratch& s) {
  ++s.report->schema_evolution_cases;
  BiGenOptions gen;
  gen.num_tables = 2 + int(rng.NextBelow(3));
  gen.min_dim_rows = 4;
  gen.max_dim_rows = 20;
  gen.min_fact_rows = 8;
  gen.max_fact_rows = 40;
  Rng case_rng = rng.Fork();
  BiCase bi_case = GenerateBiCase(gen, case_rng);
  std::vector<Table> tables = std::move(bi_case.tables);

  AutoBiOptions opt;
  opt.threads = 1 + int(rng.NextBelow(2));
  if (rng.NextBool(0.2)) opt.mode = AutoBiMode::kSchemaOnly;
  AutoBi uncached(&SharedTinyModel(), opt);
  PredictCache cache;
  opt.cache = &cache;
  AutoBi memo(&SharedTinyModel(), opt);

  StatusOr<AutoBiResult> seeded = memo.Predict(tables, nullptr);
  if (!seeded.ok()) {
    s.Fail(StrFormat("seed Predict failed: %s",
                     seeded.status().ToString().c_str()));
    return;
  }

  int steps = 1 + int(rng.NextBelow(8));
  for (int step = 0; step < steps; ++step) {
    MutateTables(&tables, rng);

    // Run control: usually none; sometimes deterministic budgets or an
    // up-front cancellation. Wall-clock deadlines are excluded — they are
    // time-dependent, so cached and uncached runs could legitimately
    // degrade at different points.
    RunContext ctx;
    const RunContext* ctx_ptr = nullptr;
    if (rng.NextBool(0.25)) {
      if (rng.NextBool(0.5)) ctx.budgets.max_candidate_pairs = rng.NextBelow(6);
      if (rng.NextBool(0.3)) {
        ctx.budgets.max_rows_per_table = 1 + rng.NextBelow(64);
      }
      if (rng.NextBool(0.2)) ctx.Cancel();
      ctx_ptr = &ctx;
    }
    bool faults_armed = rng.NextBool(0.25);
    if (faults_armed) {
      std::string spec =
          StrFormat("candidates.exhausted=%.2f,parallel.task=%.3f@%llu",
                    rng.NextDouble(0.0, 0.5), rng.NextDouble(0.0, 0.03),
                    (unsigned long long)rng.Next());
      FaultPoints::Global().Configure(spec);
    }
    // Half the steps take the serve protocol's "incremental" form, which
    // skips the solve memo and so always runs the pipeline on the memos.
    StatusOr<AutoBiResult> reused = rng.NextBool(0.5)
                                        ? memo.PredictIncremental(tables, ctx_ptr)
                                        : memo.Predict(tables, ctx_ptr);
    if (faults_armed) {
      s.report->injected_faults += FaultPoints::Global().fires();
      FaultPoints::Global().Disable();
    }
    if (!reused.ok()) {
      if (reused.status().code() != StatusCode::kInternal) {
        s.Fail(StrFormat("unexpected error from cached Predict: %s",
                         reused.status().ToString().c_str()));
      } else if (!faults_armed) {
        s.Fail(StrFormat("kInternal without armed faults: %s",
                         reused.status().ToString().c_str()));
      }
      ++s.report->status_errors;
      continue;  // Failed runs publish nothing; keep evolving.
    }
    Status valid = ValidateBiModel(tables, reused->model);
    if (!valid.ok()) {
      s.Fail(StrFormat("cached model fails validation at step %d: %s", step,
                       valid.ToString().c_str()));
    }
    if (reused->degradation.Any()) {
      ++s.report->degraded_models;
      for (const StageHealth* h :
           {&reused->degradation.ucc, &reused->degradation.ind,
            &reused->degradation.local_inference,
            &reused->degradation.global_predict}) {
        if (h->degraded && h->trigger.empty()) {
          s.Fail("degraded stage with empty trigger");
        }
      }
    }

    if (faults_armed) continue;
    // Differential cross-check: shared cache vs none, identical inputs.
    StatusOr<AutoBiResult> cold = uncached.Predict(tables, ctx_ptr);
    if (!cold.ok()) {
      s.Fail(StrFormat("uncached Predict failed where cached succeeded: %s",
                       cold.status().ToString().c_str()));
      continue;
    }
    if (reused->degradation.Any() != cold->degradation.Any()) {
      s.Fail(StrFormat("degradation mismatch at step %d (cached=%d "
                       "uncached=%d)",
                       step, int(reused->degradation.Any()),
                       int(cold->degradation.Any())));
    }
    StatusOr<std::string> reused_json = ExportJson(tables, reused->model);
    StatusOr<std::string> cold_json = ExportJson(tables, cold->model);
    if (!reused_json.ok() || !cold_json.ok()) {
      s.Fail("ExportJson rejected a validated model");
    } else if (*reused_json != *cold_json) {
      s.Fail(StrFormat("cached/uncached model divergence at step %d", step));
    }
    if (!reused->graph.StructurallyEqual(cold->graph) ||
        reused->backbone_edges != cold->backbone_edges ||
        reused->recall_edges != cold->recall_edges) {
      s.Fail(StrFormat("cached/uncached graph or edge divergence at step %d",
                       step));
    }
  }
}

// Well-formed request lines the serve mutator starts from (one per verb
// family; the byte mutator turns them into the malformed population).
const char* const kServeSeeds[] = {
    R"({"verb":"ping","id":1})",
    R"({"verb":"create_session","id":2,"tenant":"fuzz"})",
    R"({"verb":"upload_table","id":3,"session":"s1","name":"t",)"
    R"("csv":"a,b\n1,x\n2,y\n"})",
    R"({"verb":"upload_table","id":4,"session":"s1","name":"u",)"
    R"("columns":[{"name":"k","values":[1,2,null]}]})",
    R"({"verb":"predict","id":5,"session":"s1","tier":"interactive",)"
    R"("max_rows_per_table":16})",
    R"({"verb":"get_model","id":6,"session":"s1","format":"dot"})",
    R"({"verb":"list_models","id":7,"tenant":"fuzz"})",
    R"({"verb":"stats","id":8})",
    R"({"verb":"nonsense","id":9,"payload":[1,[2,[3]]]})",
};

// One engine shared by every serve case: the campaign probes the wire
// surface, and a long-lived engine also exercises session-table growth and
// the session cap (kResourceExhausted is a well-formed outcome here). The
// engine lives for ONE campaign — RunFaultFuzz resets it on entry so a
// campaign is a pure function of its options (two same-seed runs in one
// process must produce identical reports; carried-over sessions/uploads
// would flip cap outcomes between them).
ServeEngine*& SharedEngineSlot() {
  static ServeEngine* engine = nullptr;
  return engine;
}

ServeEngine& SharedEngine() {
  ServeEngine*& slot = SharedEngineSlot();
  if (slot == nullptr) {
    ServeOptions options;
    options.threads = 1;
    options.max_sessions = 8;
    options.max_tables_per_session = 8;
    slot = new ServeEngine(&SharedTinyModel(), options);
  }
  return *slot;
}

void ResetSharedEngine() {
  ServeEngine*& slot = SharedEngineSlot();
  delete slot;
  slot = nullptr;
}

void RunServeCase(Rng& rng, Scratch& s) {
  ++s.report->serve_cases;
  std::string line;
  if (rng.NextBool(0.2)) {
    line = RandomBytes(rng, 256);
  } else {
    const char* seed = kServeSeeds[rng.NextBelow(sizeof(kServeSeeds) /
                                                 sizeof(kServeSeeds[0]))];
    line = rng.NextBool(0.3) ? seed : MutateBytes(seed, rng);
  }
  bool faults_armed = rng.NextBool(0.3);
  if (faults_armed) {
    std::string spec = StrFormat("serve.request=%.2f@%llu",
                                 rng.NextDouble(0.2, 1.0),
                                 (unsigned long long)rng.Next());
    FaultPoints::Global().Configure(spec);
  }
  std::string response = SharedEngine().HandleLine(line);
  if (faults_armed) {
    s.report->injected_faults += FaultPoints::Global().fires();
    FaultPoints::Global().Disable();
  }

  // The wire invariant: one single-line, well-formed JSON object with "ok";
  // failures carry a named code and a message.
  if (response.find('\n') != std::string::npos) {
    s.Fail("response contains a raw newline");
    return;
  }
  StatusOr<Json> parsed = ParseJson(response);
  if (!parsed.ok()) {
    s.Fail(StrFormat("response is not valid JSON: %s",
                     parsed.status().ToString().c_str()));
    return;
  }
  const Json* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    s.Fail("response lacks a boolean 'ok'");
    return;
  }
  if (ok->AsBool()) {
    ++s.report->parses_ok;
    return;
  }
  ++s.report->status_errors;
  const Json* error = parsed->Find("error");
  const Json* code = error != nullptr ? error->Find("code") : nullptr;
  const Json* message = error != nullptr ? error->Find("message") : nullptr;
  if (code == nullptr || !code->is_string() || code->AsString().empty() ||
      message == nullptr || !message->is_string()) {
    s.Fail("error response lacks error.code / error.message");
  }
}

// --- Crash-recovery differential (serve/journal.h, serve/catalog.h).
//
// Each case drives a journaled ModelCatalog through a random history of
// publish/pin operations with journal faults sometimes armed, simulates a
// crash by tearing or corrupting the journal file at a random point, then
// recovers into a fresh catalog and checks the committed-prefix invariant:
// the recovered state must be byte-identical (versions, labels, pins,
// hashes, NamedJoin sets) to replaying some prefix of the ACKED operations
// through an independent oracle — and exactly the full history when nothing
// damaged an acked record.

// The oracle mirrors catalog semantics in plain data: per-tenant dense
// versions and oldest-unpinned eviction. Candidate states are recorded at
// RECORD granularity, not op granularity — a publish and the eviction it
// triggers are two journal records under one commit, and a torn tail can
// legitimately split them.
struct OracleTenant {
  int64_t next_version = 1;
  std::vector<ModelSnapshot> snapshots;
};

std::string FingerprintOracle(
    const std::map<std::string, OracleTenant>& tenants) {
  std::string out;
  for (const auto& entry : tenants) {  // std::map: deterministic order.
    out += "tenant " + entry.first + "\n";
    for (const ModelSnapshot& snap : entry.second.snapshots) {
      out += StrFormat("  v%lld label=%s pinned=%d hash=%016llx\n",
                       static_cast<long long>(snap.version),
                       snap.label.c_str(), snap.pinned ? 1 : 0,
                       static_cast<unsigned long long>(snap.tables_hash));
      for (const NamedJoin& join : snap.joins) {
        out += "    " + join.ToString() + "\n";
      }
    }
  }
  return out;
}

std::string FingerprintCatalog(const ModelCatalog& catalog,
                               const std::vector<std::string>& tenant_names) {
  std::map<std::string, OracleTenant> tenants;
  for (const std::string& name : tenant_names) {
    std::vector<ModelSnapshot> snaps = catalog.List(name);
    if (snaps.empty()) continue;
    tenants[name].snapshots = std::move(snaps);
  }
  return FingerprintOracle(tenants);
}

std::vector<NamedJoin> RandomNamedJoins(Rng& rng) {
  static const char* const kTables[] = {"Orders", "Customers", "Products",
                                        "Dates"};
  static const char* const kCols[] = {"id", "cust_id", "prod_id", "date_id"};
  std::vector<NamedJoin> joins;
  size_t n = rng.NextBelow(4);
  for (size_t i = 0; i < n; ++i) {
    NamedJoin j;
    j.from.table = kTables[rng.NextBelow(4)];
    j.from.columns.push_back(kCols[rng.NextBelow(4)]);
    if (rng.NextBool(0.2)) j.from.columns.push_back(kCols[rng.NextBelow(4)]);
    j.to.table = kTables[rng.NextBelow(4)];
    for (size_t c = 0; c < j.from.columns.size(); ++c) {
      j.to.columns.push_back(kCols[rng.NextBelow(4)]);
    }
    j.kind = rng.NextBool(0.3) ? JoinKind::kOneToOne : JoinKind::kNToOne;
    joins.push_back(j.Normalized());
  }
  return joins;
}

void RunCrashCase(Rng& rng, Scratch& s, const std::string& scratch_dir) {
  ++s.report->crash_cases;
  namespace fs = std::filesystem;
  const std::string state_dir =
      (fs::path(scratch_dir) / "autobi_crash_state").string();
  std::error_code ec;
  fs::remove_all(state_dir, ec);

  const size_t max_unpinned = 1 + rng.NextBelow(3);
  const size_t compact_every = 1 + rng.NextBelow(6);
  const std::vector<std::string> tenant_names =
      rng.NextBool(0.3) ? std::vector<std::string>{"t0", "t1"}
                        : std::vector<std::string>{"t0"};

  // Phase 1: random op history against a live journaled catalog, journal
  // faults armed about half the time. Only ACKED (OK-returning) operations
  // enter the oracle history.
  auto live = std::make_unique<ModelCatalog>(max_unpinned);
  if (!live->OpenStateDir(state_dir, compact_every).ok()) {
    s.Fail("OpenStateDir failed on a fresh state dir");
    return;
  }
  bool faults_armed = rng.NextBool();
  if (faults_armed) {
    std::string spec = StrFormat(
        "journal.short_write=%.2f,journal.fsync=%.2f,journal.corrupt=%.2f,"
        "io.rename=%.2f@%llu",
        rng.NextDouble(0.0, 0.3), rng.NextDouble(0.0, 0.3),
        rng.NextDouble(0.0, 0.15), rng.NextDouble(0.0, 0.4),
        (unsigned long long)rng.Next());
    FaultPoints::Global().Configure(spec);
  }

  struct AckedOp {
    bool is_publish = true;
    std::string tenant;
    std::string label;     // publish
    uint64_t tables_hash;  // publish
    std::vector<NamedJoin> joins;  // publish
    int64_t version = 0;   // pin
    bool pinned = false;   // pin
  };
  std::vector<AckedOp> acked;
  const long total_ops = 3 + long(rng.NextBelow(20));
  for (long op = 0; op < total_ops; ++op) {
    const std::string& tenant =
        tenant_names[rng.NextBelow(tenant_names.size())];
    std::vector<ModelSnapshot> existing = live->List(tenant);
    if (!existing.empty() && rng.NextBool(0.3)) {
      AckedOp pin;
      pin.is_publish = false;
      pin.tenant = tenant;
      pin.version = existing[rng.NextBelow(existing.size())].version;
      pin.pinned = rng.NextBool(0.8);
      Status status = live->Pin(tenant, pin.version, pin.pinned);
      if (status.ok()) {
        acked.push_back(std::move(pin));
      } else if (status.code() != StatusCode::kInternal) {
        s.Fail(StrFormat("pin of an existing version failed with %s",
                         status.ToString().c_str()));
      }
      continue;
    }
    AckedOp pub;
    pub.tenant = tenant;
    pub.label = StrFormat("op%ld", op);
    pub.tables_hash = rng.Next();
    pub.joins = RandomNamedJoins(rng);
    StatusOr<int64_t> version =
        live->Publish(tenant, pub.label, pub.tables_hash, pub.joins);
    if (version.ok()) {
      acked.push_back(std::move(pub));
    } else if (version.status().code() != StatusCode::kInternal) {
      s.Fail(StrFormat("publish failed with %s",
                       version.status().ToString().c_str()));
    }
  }
  bool corrupt_fired = false;
  if (faults_armed) {
    s.report->injected_faults += FaultPoints::Global().fires();
    for (const auto& entry : FaultPoints::Global().FireCounts()) {
      if (entry.first == "journal.corrupt" && entry.second > 0) {
        corrupt_fired = true;
      }
    }
    FaultPoints::Global().Disable();
  }
  const uint64_t live_generation = live->durability().generation;
  live.reset();  // The "crash": the process dies; no flush, no close order.

  // Phase 2: oracle replay of the acked history, recording a candidate
  // fingerprint at every record boundary (publish and its eviction are
  // separate records).
  std::map<std::string, OracleTenant> oracle;
  std::vector<std::string> candidates;
  candidates.push_back(FingerprintOracle(oracle));
  for (const AckedOp& op : acked) {
    OracleTenant& t = oracle[op.tenant];
    if (op.is_publish) {
      ModelSnapshot snap;
      snap.version = t.next_version++;
      snap.label = op.label;
      snap.tables_hash = op.tables_hash;
      snap.joins = op.joins;
      size_t unpinned = 1;
      for (const ModelSnapshot& existing : t.snapshots) {
        if (!existing.pinned) ++unpinned;
      }
      const bool evicts = unpinned > max_unpinned;
      t.snapshots.push_back(std::move(snap));
      if (evicts) {
        candidates.push_back(FingerprintOracle(oracle));  // Torn mid-pair.
        for (auto it = t.snapshots.begin(); it != t.snapshots.end(); ++it) {
          if (!it->pinned) {
            t.snapshots.erase(it);
            break;
          }
        }
      }
    } else {
      for (ModelSnapshot& snap : t.snapshots) {
        if (snap.version == op.version) {
          snap.pinned = op.pinned;
          break;
        }
      }
    }
    candidates.push_back(FingerprintOracle(oracle));
  }

  // Phase 3: damage the journal the way a crash mid-write would — truncate
  // at a random byte or flip a random bit. The snapshot file is never
  // touched: WriteFileAtomic guarantees it is whole or absent.
  const std::string journal_path = StrFormat(
      "%s/journal.%llu", state_dir.c_str(),
      static_cast<unsigned long long>(live_generation));
  bool damaged = false;
  if (fs::exists(journal_path, ec) && rng.NextBool(0.7)) {
    const auto size = fs::file_size(journal_path, ec);
    if (!ec && size > 0) {
      if (rng.NextBool()) {
        fs::resize_file(journal_path, rng.NextBelow(size + 1), ec);
        damaged = !ec;
      } else {
        std::fstream f(journal_path,
                       std::ios::in | std::ios::out | std::ios::binary);
        const long pos = long(rng.NextBelow(size));
        f.seekg(pos);
        char byte = 0;
        f.get(byte);
        f.seekp(pos);
        f.put(char(byte ^ (1 << rng.NextBelow(8))));
        damaged = bool(f);
      }
    }
  }

  // Phase 4: recover and check the committed-prefix invariant.
  ModelCatalog recovered(max_unpinned);
  Status reopened = recovered.OpenStateDir(state_dir, compact_every);
  if (!reopened.ok()) {
    s.Fail(StrFormat("recovery errored instead of discarding the tail: %s",
                     reopened.ToString().c_str()));
    return;
  }
  const std::string got = FingerprintCatalog(recovered, tenant_names);
  bool is_prefix = false;
  for (const std::string& candidate : candidates) {
    if (got == candidate) {
      is_prefix = true;
      break;
    }
  }
  if (!is_prefix) {
    s.Fail(StrFormat(
        "recovered state is not a committed prefix of the %zu acked ops "
        "(damaged=%d corrupt_fired=%d)\nrecovered:\n%s",
        acked.size(), damaged ? 1 : 0, corrupt_fired ? 1 : 0, got.c_str()));
    return;
  }
  // With no tearing and no silent corruption, recovery must be exact and
  // report nothing discarded.
  if (!damaged && !corrupt_fired) {
    if (got != candidates.back()) {
      s.Fail("clean recovery lost acked operations");
      return;
    }
    if (recovered.durability().discarded_records != 0) {
      s.Fail("clean recovery reported discarded records");
      return;
    }
  }
  // The recovered catalog must keep serving: a new publish gets a version
  // strictly above every surviving one for its tenant.
  int64_t max_seen = 0;
  for (const ModelSnapshot& snap : recovered.List("t0")) {
    max_seen = std::max(max_seen, snap.version);
  }
  StatusOr<int64_t> next =
      recovered.Publish("t0", "post-crash", 7, RandomNamedJoins(rng));
  if (!next.ok()) {
    s.Fail(StrFormat("publish after recovery failed: %s",
                     next.status().ToString().c_str()));
  } else if (*next <= max_seen) {
    s.Fail(StrFormat("post-recovery version %lld not above surviving %lld",
                     static_cast<long long>(*next),
                     static_cast<long long>(max_seen)));
  }
  ++s.report->parses_ok;
  fs::remove_all(state_dir, ec);
}

}  // namespace

FaultFuzzReport RunFaultFuzz(const FaultFuzzOptions& options) {
  FaultFuzzReport report;
  Timer timer;
  Rng master(options.seed);
  // Make sure the env-configured global state never leaks into the
  // campaign's own deterministic specs, and start from a fresh serve engine
  // so per-campaign reports are reproducible within one process.
  FaultPoints::Global().Disable();
  ResetSharedEngine();
  for (long i = 0; i < options.cases; ++i) {
    if (options.time_budget_sec > 0 &&
        timer.Seconds() > options.time_budget_sec) {
      report.time_budget_hit = true;
      break;
    }
    Rng rng = master.Fork();
    Scratch s{&report, i};
    if (options.scenario == "schema") {
      s.scenario = "schema";
      RunSchemaEvolutionCase(rng, s);
      ++report.cases_run;
      continue;
    }
    if (options.scenario == "lake") {
      s.scenario = "lake";
      RunLakeCase(rng, s);
      ++report.cases_run;
      continue;
    }
    if (options.scenario == "crash") {
      s.scenario = "crash";
      RunCrashCase(rng, s,
                   options.scratch_dir.empty() ? "/tmp"
                                               : options.scratch_dir);
      ++report.cases_run;
      continue;
    }
    switch (rng.NextBelow(13)) {
      case 0:
      case 1:
      case 2:
        s.scenario = "csv";
        RunCsvCase(rng, s);
        break;
      case 3:
      case 4:
        s.scenario = "ddl";
        RunDdlCase(rng, s);
        break;
      case 5:
        s.scenario = "file";
        if (options.scratch_dir.empty()) {
          s.scenario = "csv";
          RunCsvCase(rng, s);
        } else {
          RunFileCase(rng, s, options.scratch_dir);
        }
        break;
      case 6:
      case 7:
        s.scenario = "serve";
        RunServeCase(rng, s);
        break;
      case 10:
      case 11:
        s.scenario = "schema";
        RunSchemaEvolutionCase(rng, s);
        break;
      case 12:
        s.scenario = "lake";
        RunLakeCase(rng, s);
        break;
      default:
        s.scenario = "pipeline";
        RunPipelineCase(rng, s);
        break;
    }
    ++report.cases_run;
  }
  FaultPoints::Global().Disable();
  report.elapsed_sec = timer.Seconds();
  return report;
}

std::string FormatFaultFuzzReport(const FaultFuzzReport& report) {
  std::string out = StrFormat(
      "faultfuzz: %s — %ld cases in %.1fs (%ld failures)\n",
      report.failures == 0 ? "PASS" : "FAIL", report.cases_run,
      report.elapsed_sec, report.failures);
  out += StrFormat(
      "  scenarios: csv=%ld ddl=%ld file=%ld pipeline=%ld serve=%ld "
      "schema=%ld lake=%ld crash=%ld%s\n",
      report.csv_cases, report.ddl_cases, report.file_cases,
      report.pipeline_cases, report.serve_cases,
      report.schema_evolution_cases, report.lake_cases, report.crash_cases,
      report.time_budget_hit ? " (time budget hit)" : "");
  out += StrFormat(
      "  outcomes: status_errors=%ld parses_ok=%ld degraded_models=%ld "
      "injected_faults=%ld\n",
      report.status_errors, report.parses_ok, report.degraded_models,
      report.injected_faults);
  for (const std::string& f : report.failure_messages) {
    out += "  FAILURE " + f + "\n";
  }
  return out;
}

}  // namespace autobi
