// Lake-scale Predict scaling (PR 9): sweeps synthetic data lakes of
// disconnected star/snowflake islands (synth/lake.h) over increasing table
// counts and measures how blocking + the partitioned solve bend the
// end-to-end curve. At every size the blocked run is compared against the
// exhaustive all-pairs oracle (blocking.enabled = false): any divergence in
// the exported model, the join graph, or the selected edge sets prints
// FATAL and exits nonzero — the scaling numbers can never mask a recall
// loss.
//
// The sub-quadratic claim is gated on the admitted-column-pair curve: a
// log-log least-squares fit of blocking-admitted pairs against table count
// must stay below exponent 1.5 (all-pairs scanning is exactly 2.0 in table
// count at fixed island size).
//
// The largest lake also gets the one-table-change row: a PredictCache is
// warmed with a predict of the lake, one table's cells are replaced, and
// the lake is predicted again on the warm cache — only the replaced table
// is re-profiled and only its table pairs re-scanned. The row FATALs unless
// that result is bit-identical to an uncached predict of the changed lake,
// and prints both times.
//
// Usage: bench_lake [--json] [--max_tables N] [--threads N]
//   --json        one machine-readable JSON object (consumed by
//                 scripts/bench_smoke.sh -> BENCH_pr9.json).
//   --max_tables  largest sweep point (default 500, capped at 1000).

#include <algorithm>
#include <cmath>
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
#include "synth/lake.h"

namespace autobi {
namespace {

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "bench_lake: FATAL — %s\n", message.c_str());
  std::exit(1);
}

struct SizeResult {
  int tables = 0;
  double predict_on_ms = 0.0;   // Blocking + partitioned solve (default).
  double predict_off_ms = 0.0;  // Exhaustive all-pairs oracle.
  double speedup = 0.0;
  bool bit_identical = false;
  // Blocking counters of the blocked run.
  double pruning_rate = 0.0;
  size_t column_pairs_total = 0;
  size_t column_pairs_admitted = 0;
  size_t table_pairs_total = 0;
  size_t table_pairs_active = 0;
  // Partitioned-solve telemetry.
  bool partition_used = false;
  size_t components = 0;
  size_t components_solved = 0;
  size_t joins = 0;
};

AutoBiResult MustPredict(const AutoBi& predictor,
                         const std::vector<Table>& tables) {
  StatusOr<AutoBiResult> result = predictor.Predict(tables, nullptr);
  if (!result.ok()) Fatal("Predict failed: " + result.status().ToString());
  return std::move(result.value());
}

SizeResult RunSize(const LocalModel& model, int num_tables, int threads) {
  Rng rng(0x1a6e0000u + uint64_t(num_tables));
  LakeGenOptions gen;
  gen.num_tables = num_tables;
  BiCase lake = GenerateLake(gen, rng);
  if (int(lake.tables.size()) != num_tables) {
    Fatal(StrFormat("lake generator produced %zu tables, wanted %d",
                    lake.tables.size(), num_tables));
  }

  AutoBiOptions on;
  on.threads = threads;
  AutoBiOptions off = on;
  off.candidates.ind.blocking.enabled = false;

  SizeResult out;
  out.tables = num_tables;

  AutoBi predictor_on(&model, on);
  Timer on_timer;
  AutoBiResult r_on = MustPredict(predictor_on, lake.tables);
  out.predict_on_ms = on_timer.Seconds() * 1e3;

  AutoBi predictor_off(&model, off);
  Timer off_timer;
  AutoBiResult r_off = MustPredict(predictor_off, lake.tables);
  out.predict_off_ms = off_timer.Seconds() * 1e3;
  out.speedup =
      out.predict_on_ms > 0 ? out.predict_off_ms / out.predict_on_ms : 0;

  StatusOr<std::string> json_on = ExportJson(lake.tables, r_on.model);
  StatusOr<std::string> json_off = ExportJson(lake.tables, r_off.model);
  out.bit_identical = json_on.ok() && json_off.ok() &&
                      *json_on == *json_off &&
                      r_on.graph.StructurallyEqual(r_off.graph) &&
                      r_on.backbone_edges == r_off.backbone_edges &&
                      r_on.recall_edges == r_off.recall_edges;
  if (!out.bit_identical) {
    Fatal(StrFormat("%d tables: blocking changed the prediction (recall "
                    "loss or graph divergence vs exhaustive oracle)",
                    num_tables));
  }

  const BlockingStats& b = r_on.ind_stats.blocking;
  out.pruning_rate = b.PruningRate();
  out.column_pairs_total = b.column_pairs_total;
  out.column_pairs_admitted = b.column_pairs_admitted;
  out.table_pairs_total = b.table_pairs_total;
  out.table_pairs_active = b.table_pairs_active;
  out.partition_used = r_on.partition.used;
  out.components = r_on.partition.components;
  out.components_solved = r_on.partition.components_solved;
  out.joins = r_on.model.joins.size();
  return out;
}

// The one-table-change row on the largest lake.
struct ReplaceResult {
  int tables = 0;
  double cold_ms = 0.0;  // Uncached predict of the changed lake.
  double warm_ms = 0.0;  // The same predict on a cache warmed by the lake.
  bool bit_identical = false;
  size_t tables_reprofiled = 0;
  size_t pairs_rescored = 0;
  size_t pairs_reused = 0;
};

// Changes every third non-null cell of the table's last column, keeping its
// name, type and length.
void ReplaceCells(Table* table) {
  Column& old = table->column(table->num_columns() - 1);
  Column fresh(old.name(), old.type());
  for (size_t r = 0; r < old.size(); ++r) {
    const bool change = r % 3 == 0;
    if (old.IsNull(r)) {
      fresh.AppendNull();
    } else if (old.type() == ValueType::kInt) {
      fresh.AppendInt(old.Int(r) + (change ? 1 : 0));
    } else if (old.type() == ValueType::kDouble) {
      fresh.AppendDouble(old.Double(r) + (change ? 0.5 : 0.0));
    } else {
      fresh.AppendString(change ? old.Str(r) + "_x" : old.Str(r));
    }
  }
  old = std::move(fresh);
}

ReplaceResult RunReplaceOne(const LocalModel& model, int num_tables,
                            int threads) {
  Rng rng(0x1a6e0000u + uint64_t(num_tables));
  LakeGenOptions gen;
  gen.num_tables = num_tables;
  std::vector<Table> tables = GenerateLake(gen, rng).tables;

  // Room for every table pair of the lake (the pair shard holds 16x the
  // table capacity), so warming evicts nothing.
  PredictCache::Options cache_options;
  cache_options.max_table_entries =
      std::max(cache_options.max_table_entries,
               size_t(num_tables) * size_t(num_tables) / 32 + 1);
  PredictCache cache(cache_options);
  AutoBiOptions options;
  options.threads = threads;
  AutoBiOptions cached = options;
  cached.cache = &cache;
  AutoBi warm_predictor(&model, cached);
  MustPredict(warm_predictor, tables);

  ReplaceCells(&tables[tables.size() / 2]);
  ReplaceResult out;
  out.tables = num_tables;
  Timer warm_timer;
  AutoBiResult warm = MustPredict(warm_predictor, tables);
  out.warm_ms = warm_timer.Seconds() * 1e3;
  AutoBi cold_predictor(&model, options);
  Timer cold_timer;
  AutoBiResult cold = MustPredict(cold_predictor, tables);
  out.cold_ms = cold_timer.Seconds() * 1e3;

  StatusOr<std::string> json_warm = ExportJson(tables, warm.model);
  StatusOr<std::string> json_cold = ExportJson(tables, cold.model);
  out.bit_identical = json_warm.ok() && json_cold.ok() &&
                      *json_warm == *json_cold &&
                      warm.graph.StructurallyEqual(cold.graph) &&
                      warm.backbone_edges == cold.backbone_edges &&
                      warm.recall_edges == cold.recall_edges;
  if (!out.bit_identical) {
    Fatal(StrFormat("%d tables: the warm-cache predict after a one-table "
                    "change diverged from an uncached predict",
                    num_tables));
  }
  out.tables_reprofiled = warm.incremental.tables_reprofiled;
  out.pairs_rescored = warm.incremental.pairs_rescored;
  out.pairs_reused = warm.incremental.pairs_reused;
  if (out.tables_reprofiled != 1 || out.pairs_reused == 0) {
    Fatal(StrFormat("%d tables: the warm-cache predict reprofiled %zu "
                    "tables and reused %zu pairs",
                    num_tables, out.tables_reprofiled, out.pairs_reused));
  }
  return out;
}

// Least-squares slope of log(y) against log(x): the growth exponent of the
// admitted-pair curve over the sweep.
double FitExponent(const std::vector<SizeResult>& results) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t n = 0;
  for (const SizeResult& r : results) {
    if (r.column_pairs_admitted == 0) continue;
    double x = std::log(double(r.tables));
    double y = std::log(double(r.column_pairs_admitted));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  double denom = double(n) * sxx - sx * sx;
  return denom != 0 ? (double(n) * sxy - sx * sy) / denom : 0.0;
}

std::string SizeJson(const SizeResult& r) {
  return StrFormat(
      "    {\"tables\": %d, \"predict_on_ms\": %.3f, \"predict_off_ms\": "
      "%.3f, \"speedup\": %.2f, \"bit_identical\": %s, \"pruning_rate\": "
      "%.4f, \"column_pairs_total\": %zu, \"column_pairs_admitted\": %zu, "
      "\"table_pairs_total\": %zu, \"table_pairs_active\": %zu, "
      "\"partition_used\": %s, \"components\": %zu, \"components_solved\": "
      "%zu, \"joins\": %zu}",
      r.tables, r.predict_on_ms, r.predict_off_ms, r.speedup,
      r.bit_identical ? "true" : "false", r.pruning_rate,
      r.column_pairs_total, r.column_pairs_admitted, r.table_pairs_total,
      r.table_pairs_active, r.partition_used ? "true" : "false",
      r.components, r.components_solved, r.joins);
}

}  // namespace
}  // namespace autobi

int main(int argc, char** argv) {
  using namespace autobi;
  bool json = false;
  int max_tables = 500;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--max_tables") == 0 && i + 1 < argc) {
      max_tables = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_lake [--json] [--max_tables N] "
                   "[--threads N]\n");
      return 2;
    }
  }
  max_tables = std::min(std::max(max_tables, 50), 1000);

  LocalModel model = bench::GetTrainedModel();
  std::vector<int> sizes;
  for (int s : {50, 100, 200, 350, 500, 700, 1000}) {
    if (s <= max_tables) sizes.push_back(s);
  }
  if (sizes.back() != max_tables) sizes.push_back(max_tables);

  std::vector<SizeResult> results;
  for (int s : sizes) {
    results.push_back(RunSize(model, s, threads));
    const SizeResult& r = results.back();
    if (!json) {
      std::printf(
          "%5d tables: on %8.1f ms  off %8.1f ms  (%5.2fx)  pruning %.4f  "
          "active pairs %zu/%zu  components %zu  joins %zu\n",
          r.tables, r.predict_on_ms, r.predict_off_ms, r.speedup,
          r.pruning_rate, r.table_pairs_active, r.table_pairs_total,
          r.components, r.joins);
    }
  }

  double exponent = FitExponent(results);
  const SizeResult& largest = results.back();
  const ReplaceResult replace = RunReplaceOne(model, largest.tables, threads);
  if (!json) {
    std::printf(
        "%5d tables, one replaced: warm cache %8.1f ms  cold %8.1f ms  "
        "(reprofiled %zu, pairs rescored %zu, reused %zu)\n",
        replace.tables, replace.warm_ms, replace.cold_ms,
        replace.tables_reprofiled, replace.pairs_rescored,
        replace.pairs_reused);
  }
  bool all_identical = true;
  for (const SizeResult& r : results) all_identical &= r.bit_identical;

  if (json) {
    std::string out = "{\n  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      out += SizeJson(results[i]);
      out += i + 1 < results.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
    out += StrFormat("  \"admitted_pairs_exponent\": %.3f,\n", exponent);
    out += StrFormat("  \"max_tables\": %d,\n", largest.tables);
    out += StrFormat("  \"max_size_pruning_rate\": %.4f,\n",
                     largest.pruning_rate);
    out += StrFormat("  \"max_size_predict_ms\": %.3f,\n",
                     largest.predict_on_ms);
    out += StrFormat(
        "  \"replace_one\": {\"tables\": %d, \"cold_ms\": %.3f, "
        "\"warm_ms\": %.3f, \"bit_identical\": %s, "
        "\"tables_reprofiled\": %zu, \"pairs_rescored\": %zu, "
        "\"pairs_reused\": %zu},\n",
        replace.tables, replace.cold_ms, replace.warm_ms,
        replace.bit_identical ? "true" : "false", replace.tables_reprofiled,
        replace.pairs_rescored, replace.pairs_reused);
    out += StrFormat("  \"all_bit_identical\": %s\n",
                     all_identical ? "true" : "false");
    out += "}\n";
    std::fputs(out.c_str(), stdout);
  } else {
    std::printf("admitted-pairs growth exponent: %.3f (gate: < 1.5)\n",
                exponent);
  }
  return 0;
}
