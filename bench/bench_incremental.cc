// Cold vs memo re-prediction latency: on a 20-table synthetic BI case,
// replays one mutation of each kind (no-op, single-table row append, add
// table, drop table, rename column, replace cells) and times
// AutoBi::PredictIncremental over a PredictCache warmed by a predict of the
// base tables — so only the tables and table pairs the mutation touched are
// recomputed — against an uncached Predict on the same post-change tables.
// Bit-identity between the two (JSON model export, join graph, degradation
// flags) is enforced in-binary: any divergence prints FATAL and exits
// nonzero, so the timing numbers can never mask a correctness regression.
//
// Usage: bench_incremental [--json] [--tables N] [--reps N] [--threads N]
//   --json   emit one machine-readable JSON object (consumed by
//            scripts/bench_smoke.sh, which gates append_rows.speedup and
//            every kind's bit_identical).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/auto_bi.h"
#include "core/model_export.h"
#include "core/predict_cache.h"
#include "synth/bi_generator.h"

namespace autobi {
namespace {

std::vector<Table> MakeBaseTables(int num_tables) {
  Rng rng(20260808);
  BiGenOptions gen;
  gen.num_tables = num_tables;
  // Comparable dim/fact row counts: the speedup then reflects the share of
  // *pairs* rescanned (19 of 190 for a single-table change), not one
  // outsized fact table dominating the scan cost from both sides.
  gen.min_dim_rows = 100;
  gen.max_dim_rows = 400;
  gen.min_fact_rows = 250;
  gen.max_fact_rows = 600;
  return GenerateBiCase(gen, rng).tables;
}

size_t LargestTable(const std::vector<Table>& tables) {
  size_t best = 0;
  for (size_t i = 1; i < tables.size(); ++i) {
    if (tables[i].num_rows() > tables[best].num_rows()) best = i;
  }
  return best;
}

void AppendTypedCell(Column& col, Rng& rng) {
  switch (col.type()) {
    case ValueType::kInt:
      col.AppendInt(int64_t(rng.NextBelow(10000)));
      break;
    case ValueType::kDouble:
      col.AppendDouble(rng.NextDouble(0.0, 1000.0));
      break;
    case ValueType::kString:
      col.AppendString(StrFormat("bench_%llu",
                                 (unsigned long long)rng.NextBelow(10000)));
      break;
    default:
      col.AppendNull();
      break;
  }
}

struct MutationKind {
  const char* name;
  void (*apply)(std::vector<Table>*);
};

void MutateNoop(std::vector<Table>*) {}

// Appends ~2% fresh rows to the largest table (the dashboard-refresh case
// the memos are built for: one fact table grew, everything else is
// byte-identical).
void MutateAppendRows(std::vector<Table>* tables) {
  Table& t = (*tables)[LargestTable(*tables)];
  Rng rng(99);
  size_t rows = std::max<size_t>(8, t.num_rows() / 50);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      AppendTypedCell(t.column(c), rng);
    }
  }
}

void MutateAddTable(std::vector<Table>* tables) {
  Table t("bench_added");
  Column& id = t.AddColumn("bench_id", ValueType::kInt);
  Column& label = t.AddColumn("bench_label", ValueType::kString);
  for (int r = 0; r < 40; ++r) {
    id.AppendInt(r);
    label.AppendString(StrFormat("v%d", r));
  }
  tables->push_back(std::move(t));
}

void MutateDropTable(std::vector<Table>* tables) {
  tables->erase(tables->begin() + long(tables->size() / 2));
}

void MutateRenameColumn(std::vector<Table>* tables) {
  Column& c = (*tables)[LargestTable(*tables)].column(0);
  c.set_name(c.name() + "_renamed");
}

void MutateReplaceCells(std::vector<Table>* tables) {
  Table& t = (*tables)[LargestTable(*tables)];
  Column& old = t.column(t.num_columns() - 1);
  Rng rng(7);
  Column fresh(old.name(), old.type());
  for (size_t i = 0; i < old.size(); ++i) AppendTypedCell(fresh, rng);
  old = std::move(fresh);
}

const MutationKind kKinds[] = {
    {"noop", MutateNoop},
    {"append_rows", MutateAppendRows},
    {"add_table", MutateAddTable},
    {"drop_table", MutateDropTable},
    {"rename_column", MutateRenameColumn},
    {"replace_cells", MutateReplaceCells},
};

struct KindResult {
  std::string name;
  double cold_ms = 0.0;
  double memo_ms = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
  IncrementalStats stats;
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "bench_incremental: FATAL — %s\n", message.c_str());
  std::exit(1);
}

AutoBiResult MustPredict(const AutoBi& predictor,
                         const std::vector<Table>& tables, bool incremental) {
  StatusOr<AutoBiResult> result =
      incremental ? predictor.PredictIncremental(tables, nullptr)
                  : predictor.Predict(tables, nullptr);
  if (!result.ok()) Fatal("Predict failed: " + result.status().ToString());
  return std::move(result.value());
}

KindResult RunKind(const MutationKind& kind, const LocalModel& model,
                   const AutoBiOptions& options,
                   const std::vector<Table>& base, int reps) {
  KindResult out;
  out.name = kind.name;

  std::vector<Table> mutated = base;
  kind.apply(&mutated);

  // Memo timing: every rep warms a fresh cache with the base tables
  // (untimed) so each measurement is a genuine first run after the change,
  // not a re-run over pairs the previous rep already memoized.
  AutoBiResult memo;
  double memo_best = 1e100;
  for (int r = 0; r < reps; ++r) {
    PredictCache cache;
    AutoBiOptions cached = options;
    cached.cache = &cache;
    AutoBi predictor(&model, cached);
    MustPredict(predictor, base, /*incremental=*/false);
    Timer timer;
    memo = MustPredict(predictor, mutated, /*incremental=*/true);
    memo_best = std::min(memo_best, timer.Seconds());
    if (!memo.incremental.used) Fatal(out.name + ": no memo entry reused");
  }
  out.memo_ms = memo_best * 1e3;
  out.stats = memo.incremental;

  AutoBi uncached(&model, options);
  AutoBiResult cold;
  double cold_best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    cold = MustPredict(uncached, mutated, /*incremental=*/false);
    cold_best = std::min(cold_best, timer.Seconds());
  }
  out.cold_ms = cold_best * 1e3;
  out.speedup = out.memo_ms > 0 ? out.cold_ms / out.memo_ms : 0;

  StatusOr<std::string> memo_json = ExportJson(mutated, memo.model);
  StatusOr<std::string> cold_json = ExportJson(mutated, cold.model);
  out.bit_identical = memo_json.ok() && cold_json.ok() &&
                      *memo_json == *cold_json &&
                      memo.degradation.Any() == cold.degradation.Any() &&
                      memo.graph.StructurallyEqual(cold.graph);
  if (!out.bit_identical) {
    Fatal(out.name + ": memo result diverged from uncached Predict");
  }
  return out;
}

std::string KindJson(const KindResult& r) {
  return StrFormat(
      "    \"%s\": {\"cold_ms\": %.3f, \"memo_ms\": %.3f, "
      "\"speedup\": %.2f, \"bit_identical\": %s, \"tables_reprofiled\": %zu, "
      "\"pairs_rescored\": %zu, \"pairs_reused\": %zu}",
      r.name.c_str(), r.cold_ms, r.memo_ms, r.speedup,
      r.bit_identical ? "true" : "false", r.stats.tables_reprofiled,
      r.stats.pairs_rescored, r.stats.pairs_reused);
}

}  // namespace
}  // namespace autobi

int main(int argc, char** argv) {
  using namespace autobi;
  bool json = false;
  int num_tables = 20;
  int reps = 2;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--tables") == 0 && i + 1 < argc) {
      num_tables = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_incremental [--json] [--tables N] "
                   "[--reps N] [--threads N]\n");
      return 2;
    }
  }

  LocalModel model = bench::GetTrainedModel();
  AutoBiOptions options;
  options.threads = threads;
  std::vector<Table> base = MakeBaseTables(num_tables);

  std::vector<KindResult> results;
  for (const MutationKind& kind : kKinds) {
    results.push_back(RunKind(kind, model, options, base, reps));
  }

  if (json) {
    std::string out = "{\n";
    out += StrFormat("  \"tables\": %d,\n  \"reps\": %d,\n", num_tables, reps);
    out += "  \"kinds\": {\n";
    for (size_t i = 0; i < results.size(); ++i) {
      out += KindJson(results[i]);
      out += i + 1 < results.size() ? ",\n" : "\n";
    }
    out += "  }\n}\n";
    std::fputs(out.c_str(), stdout);
  } else {
    std::printf("Memo re-prediction, %d tables (best of %d):\n", num_tables,
                reps);
    std::printf("  %-14s %10s %10s %9s %s\n", "mutation", "cold", "memo",
                "speedup", "work (reprofiled/rescored/reused)");
    for (const KindResult& r : results) {
      std::printf("  %-14s %8.1fms %8.1fms %8.1fx %zu/%zu/%zu\n",
                  r.name.c_str(), r.cold_ms, r.memo_ms, r.speedup,
                  r.stats.tables_reprofiled, r.stats.pairs_rescored,
                  r.stats.pairs_reused);
    }
  }
  return 0;
}
