// Micro-benchmark of the profiling layer (profile/column_profile.h):
//
//   1. ProfileColumn cost: hash-first columnar kernel (table/key_view.h +
//      radix-sorted distinct aggregation) vs the legacy per-cell string-map
//      kernel (ProfileColumnLegacy, tests/oracles/profile_oracle.h), on a
//      100k-row string column.
//   2. Exact unary Containment: legacy string-map implementation (probing
//      prebuilt maps, i.e. only the cost the historical kernel paid per
//      probe) vs the sorted-hash merge, on high-cardinality string columns
//      and on the skewed small-FK-in-big-PK shape where the merge switches
//      to a galloping search. The skewed shape is asserted to never lose to
//      the string map (>= 1.0x) — a regression gate, not just a report.
//   3. The unary containment kernels over every column pair the IND scan
//      evaluates, and DiscoverInds end-to-end with blocking on vs off, on
//      REAL-style synthetic cases.
//   4. TPC-H via the SQL-DDL path (synth/tpch_ddl.h): full-table profiling
//      and UCC discovery, production vs legacy kernels (the UCC oracle is
//      the string-set lattice of tests/oracles/ucc_oracle.h), on a
//      recognizable 8-table snowflake with a composite key.
//   5. UCC discovery on scale-10 DDL TPC-H, cold and after a 2%
//      duplicated-row self-append: stripped-partition DiscoverUccs vs the
//      frozen hash-sort oracle lattice (tpch10_ucc_ms,
//      tpch10_appended_ucc_ms and their _oracle_ms rows; FATAL if the UCC
//      lists differ).
//
// Usage: bench_micro_profile [--json]
//   --json   emit a single machine-readable JSON object on stdout (consumed
//            by scripts/bench_smoke.sh, accumulated as BENCH_*.json).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/ucc.h"
#include "synth/corpus.h"
#include "synth/tpch_ddl.h"
#include "table/key_view.h"
#include "table/table.h"
#include "tests/oracles/profile_oracle.h"
#include "tests/oracles/ucc_oracle.h"

namespace autobi {
namespace {

Column StringColumn(const char* name, size_t rows, size_t distinct,
                    const char* prefix, uint64_t salt) {
  Column col(name, ValueType::kString);
  for (size_t r = 0; r < rows; ++r) {
    // Deterministic pseudo-random pick so duplicates are spread out.
    uint64_t v = (r * 2654435761ULL + salt) % distinct;
    col.AppendString(StrFormat("%s%llu", prefix,
                               static_cast<unsigned long long>(v)));
  }
  return col;
}

// Accumulator that keeps benchmarked results observable (defeats dead-code
// elimination); checked at the end of main.
double g_sink = 0.0;

// Times `fn` over `iters` calls; returns microseconds per call.
template <typename Fn>
double TimeUs(size_t iters, const Fn& fn) {
  double sink = 0.0;
  Timer t;
  for (size_t i = 0; i < iters; ++i) sink += fn();
  double us = t.Seconds() * 1e6 / static_cast<double>(iters);
  g_sink += sink;
  return us;
}

struct Result {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace
}  // namespace autobi

int main(int argc, char** argv) {
  using namespace autobi;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  std::vector<Result> results;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    results.push_back({name, value, unit});
    if (!json) std::printf("%-42s %12.3f %s\n", name.c_str(), value,
                           unit.c_str());
  };

  // --- 1. Profiling kernel, old vs new, on a high-cardinality string column.
  constexpr size_t kRows = 100000;
  constexpr size_t kDistinct = 40000;
  Column fk = StringColumn("fk", kRows, kDistinct, "cust_", 17);
  Column pk = StringColumn("pk", kDistinct, kDistinct, "cust_", 0);

  Timer prof_timer;
  ColumnProfile pfk = ProfileColumn(fk);
  double profile_ms = prof_timer.Millis();
  ColumnProfile ppk = ProfileColumn(pk);
  add("profile_column_100k_rows", profile_ms, "ms");

  Timer legacy_prof_timer;
  ColumnProfile pfk_legacy = ProfileColumnLegacy(fk);
  double profile_legacy_ms = legacy_prof_timer.Millis();
  add("profile_column_100k_rows_legacy", profile_legacy_ms, "ms");
  add("profile_column_speedup", profile_legacy_ms / profile_ms, "x");
  if (pfk_legacy.num_distinct != pfk.num_distinct ||
      pfk_legacy.distinct_hashes != pfk.distinct_hashes ||
      pfk_legacy.distinct_counts != pfk.distinct_counts) {
    std::fprintf(stderr,
                 "FATAL: hash-first profile diverged from the legacy kernel\n");
    return 1;
  }

  // --- 2. Unary containment kernels. The legacy timings probe *prebuilt*
  // string maps (built untimed from the columns), matching what the
  // historical kernel paid per probe (its maps lived inside the profiles).
  DistinctKeyMap map_fk = BuildDistinctKeyMap(fk);
  DistinctKeyMap map_pk = BuildDistinctKeyMap(pk);
  constexpr size_t kIters = 20;
  double old_us = TimeUs(kIters, [&] {
    return ContainmentViaStringMap(map_fk, pfk.non_null_count, map_pk);
  });
  double new_us = TimeUs(kIters, [&] { return Containment(pfk, ppk); });
  add("containment_string_map_40k_distinct", old_us, "us");
  add("containment_hash_merge_40k_distinct", new_us, "us");
  add("containment_speedup_40k_distinct", old_us / new_us, "x");

  // Skewed shape: small FK distinct set probing a big key column (the merge
  // switches to a galloping search over the big side).
  Column small_fk = StringColumn("sfk", 20000, 500, "cust_", 23);
  ColumnProfile psmall = ProfileColumn(small_fk);
  DistinctKeyMap map_small = BuildDistinctKeyMap(small_fk);
  double old_skew_us = TimeUs(kIters * 10, [&] {
    return ContainmentViaStringMap(map_small, psmall.non_null_count, map_pk);
  });
  double new_skew_us = TimeUs(kIters * 10, [&] {
    return Containment(psmall, ppk);
  });
  double skew_speedup = old_skew_us / new_skew_us;
  add("containment_string_map_skewed", old_skew_us, "us");
  add("containment_hash_merge_skewed", new_skew_us, "us");
  add("containment_speedup_skewed", skew_speedup, "x");
  if (skew_speedup < 1.0) {
    std::fprintf(stderr,
                 "FATAL: skewed containment regressed vs the string map "
                 "(%.3fx < 1.0x)\n",
                 skew_speedup);
    return 1;
  }

  // --- 3. Unary kernels + DiscoverInds end-to-end on REAL-style cases
  // (serial, so the kernel change is what's measured).
  CorpusOptions copt;
  copt.seed = 4242;
  copt.cases_per_bucket = 2;
  RealBenchmark real = BuildRealBenchmark(copt);
  std::vector<std::vector<TableProfile>> profiles(real.cases.size());
  std::vector<std::vector<std::vector<Ucc>>> uccs(real.cases.size());
  for (size_t i = 0; i < real.cases.size(); ++i) {
    profiles[i] = ProfileTables(real.cases[i].tables);
    for (size_t t = 0; t < real.cases[i].tables.size(); ++t) {
      uccs[i].push_back(
          DiscoverUccs(real.cases[i].tables[t], profiles[i][t]));
    }
  }
  // Old vs new candidate-generation kernel end-to-end: evaluate exactly the
  // column pairs the unary IND scan evaluates (same pre-screens), with the
  // legacy string-map kernel (prebuilt maps, as the old profiles carried)
  // vs the hash-merge kernel.
  std::vector<std::vector<std::vector<DistinctKeyMap>>> maps(
      real.cases.size());
  for (size_t i = 0; i < real.cases.size(); ++i) {
    maps[i].resize(profiles[i].size());
    for (size_t t = 0; t < profiles[i].size(); ++t) {
      const Table& table = real.cases[i].tables[t];
      for (size_t c = 0; c < table.num_columns(); ++c) {
        maps[i][t].push_back(BuildDistinctKeyMap(table.column(c)));
      }
    }
  }
  IndOptions defaults;
  auto unary_kernel_ms = [&](bool legacy) {
    double sum = 0.0;
    Timer t;
    for (size_t i = 0; i < real.cases.size(); ++i) {
      const auto& tp = profiles[i];
      for (size_t ti = 0; ti < tp.size(); ++ti) {
        for (size_t tj = 0; tj < tp.size(); ++tj) {
          if (ti == tj) continue;
          for (size_t a = 0; a < tp[ti].columns.size(); ++a) {
            const ColumnProfile& pa = tp[ti].columns[a];
            if (pa.num_distinct < defaults.min_distinct) continue;
            for (size_t b = 0; b < tp[tj].columns.size(); ++b) {
              const ColumnProfile& pb = tp[tj].columns[b];
              if (pb.non_null_count == 0 ||
                  pb.distinct_ratio <
                      defaults.min_referenced_distinct_ratio) {
                continue;
              }
              sum += legacy ? ContainmentViaStringMap(maps[i][ti][a],
                                                      pa.non_null_count,
                                                      maps[i][tj][b])
                            : Containment(pa, pb);
            }
          }
        }
      }
    }
    g_sink += sum;
    return t.Millis();
  };
  double kernel_old_ms = unary_kernel_ms(/*legacy=*/true);
  double kernel_new_ms = unary_kernel_ms(/*legacy=*/false);
  add("unary_kernel_e2e_string_map", kernel_old_ms, "ms");
  add("unary_kernel_e2e_hash_merge", kernel_new_ms, "ms");
  add("unary_kernel_e2e_speedup", kernel_old_ms / kernel_new_ms, "x");

  IndStats on_stats;
  IndStats off_stats;
  double on_ms = 0.0;
  double off_ms = 0.0;
  size_t inds_on = 0;
  size_t inds_off = 0;
  for (size_t i = 0; i < real.cases.size(); ++i) {
    IndOptions on;
    on.threads = 1;
    IndStats s;
    Timer t;
    inds_on += DiscoverInds(real.cases[i].tables, profiles[i], uccs[i], on,
                            &s).size();
    on_ms += t.Millis();
    on_stats.Add(s);

    IndOptions off;
    off.threads = 1;
    off.blocking.enabled = false;
    Timer t2;
    inds_off += DiscoverInds(real.cases[i].tables, profiles[i], uccs[i], off,
                             &s).size();
    off_ms += t2.Millis();
    off_stats.Add(s);
  }
  if (inds_on != inds_off) {
    std::fprintf(stderr,
                 "FATAL: blocking changed the IND count (%zu vs %zu)\n",
                 inds_on, inds_off);
    return 1;
  }
  add("real_cases", double(real.cases.size()), "cases");
  add("discover_inds_total_inds", double(inds_on), "inds");
  add("blocking_prune_rate", on_stats.blocking.PruningRate(), "frac");
  add("blocking_table_pairs_active",
      double(on_stats.blocking.table_pairs_active), "pairs");
  add("discover_inds_blocking_on", on_ms, "ms");
  add("discover_inds_blocking_off", off_ms, "ms");
  add("discover_inds_blocking_speedup", off_ms / on_ms, "x");
  add("composite_sets_built", double(on_stats.composite_sets_built), "sets");
  add("composite_budget_truncations",
      double(on_stats.composite_budget_truncations), "pairs");

  // --- 4. TPC-H through the SQL-DDL ingestion path: profile + UCC kernels
  // on a real multi-table snowflake (wide lineitem, composite partsupp key).
  Rng tpch_rng(7);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(/*scale=*/2.0, tpch_rng);
  if (!tpch.ok()) {
    std::fprintf(stderr, "FATAL: TPC-H DDL generation failed: %s\n",
                 tpch.status().message().c_str());
    return 1;
  }
  size_t tpch_rows = 0;
  for (const Table& t : tpch->tables) tpch_rows += t.num_rows();
  add("tpch_ddl_tables", double(tpch->tables.size()), "tables");
  add("tpch_ddl_rows", double(tpch_rows), "rows");

  Timer tpch_prof_timer;
  std::vector<TableProfile> tpch_profiles =
      ProfileTables(tpch->tables, /*max_sample=*/512, /*threads=*/1);
  double tpch_prof_ms = tpch_prof_timer.Millis();
  Timer tpch_prof_legacy_timer;
  for (const Table& t : tpch->tables) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      g_sink += double(ProfileColumnLegacy(t.column(c)).num_distinct);
    }
  }
  double tpch_prof_legacy_ms = tpch_prof_legacy_timer.Millis();
  add("tpch_profile_ms", tpch_prof_ms, "ms");
  add("tpch_profile_legacy_ms", tpch_prof_legacy_ms, "ms");
  add("tpch_profile_speedup", tpch_prof_legacy_ms / tpch_prof_ms, "x");

  size_t tpch_uccs_new = 0;
  Timer tpch_ucc_timer;
  for (size_t t = 0; t < tpch->tables.size(); ++t) {
    TableKeyView view(tpch->tables[t]);
    tpch_uccs_new +=
        DiscoverUccs(tpch->tables[t], tpch_profiles[t], {}, &view).size();
  }
  double tpch_ucc_ms = tpch_ucc_timer.Millis();
  size_t tpch_uccs_legacy = 0;
  Timer tpch_ucc_legacy_timer;
  for (size_t t = 0; t < tpch->tables.size(); ++t) {
    tpch_uccs_legacy += DiscoverUccsOracle(tpch->tables[t], tpch_profiles[t],
                                           {}, UccOracleKernel::kStringSet)
                            .size();
  }
  double tpch_ucc_legacy_ms = tpch_ucc_legacy_timer.Millis();
  if (tpch_uccs_new != tpch_uccs_legacy) {
    std::fprintf(stderr,
                 "FATAL: TPC-H UCC kernels disagree (%zu vs %zu legacy)\n",
                 tpch_uccs_new, tpch_uccs_legacy);
    return 1;
  }
  add("tpch_uccs", double(tpch_uccs_new), "uccs");
  add("tpch_ucc_ms", tpch_ucc_ms, "ms");
  add("tpch_ucc_legacy_ms", tpch_ucc_legacy_ms, "ms");
  add("tpch_ucc_speedup", tpch_ucc_legacy_ms / tpch_ucc_ms, "x");

  // --- 5. UCC discovery on scale-10 DDL TPC-H (the end-to-end benchmark's
  // tables), cold and after its 2% duplicated-row self-append of lineitem:
  // stripped-partition DiscoverUccs vs the frozen hash-sort oracle lattice,
  // both over prebuilt key views, best of 3 runs each. A differing UCC list
  // is FATAL.
  Rng tpch10_rng(101);
  StatusOr<BiCase> tpch10 = GenerateTpchFromDdl(/*scale=*/10.0, tpch10_rng);
  if (!tpch10.ok()) {
    std::fprintf(stderr, "FATAL: TPC-H DDL generation failed: %s\n",
                 tpch10.status().message().c_str());
    return 1;
  }
  std::vector<Table> appended = tpch10->tables;
  AppendDuplicatedRows(&appended.back());  // lineitem, the largest table.
  struct UccRow {
    const char* name;
    const char* oracle_name;
    const std::vector<Table>* tables;
  };
  for (const UccRow& row :
       {UccRow{"tpch10_ucc_ms", "tpch10_ucc_oracle_ms", &tpch10->tables},
        UccRow{"tpch10_appended_ucc_ms", "tpch10_appended_ucc_oracle_ms",
               &appended}}) {
    const std::vector<Table>* tables = row.tables;
    std::vector<TableProfile> profiles =
        ProfileTables(*tables, /*max_sample=*/512, /*threads=*/1);
    std::vector<TableKeyView> views(tables->begin(), tables->end());
    auto best_ms = [&](bool oracle, std::string* uccs) {
      double best = 0.0;
      std::vector<std::vector<Ucc>> found(tables->size());
      for (int rep = 0; rep < 3; ++rep) {
        Timer timer;
        for (size_t t = 0; t < tables->size(); ++t) {
          found[t] =
              oracle ? DiscoverUccsOracle((*tables)[t], profiles[t], {},
                                          UccOracleKernel::kHashSort,
                                          &views[t])
                     : DiscoverUccs((*tables)[t], profiles[t], {}, &views[t]);
        }
        double ms = timer.Millis();
        if (rep == 0 || ms < best) best = ms;
      }
      uccs->clear();
      for (size_t t = 0; t < found.size(); ++t) {
        for (const Ucc& u : found[t]) {
          *uccs += StrFormat("%zu:", t);
          for (int c : u.columns) *uccs += StrFormat("%d,", c);
          *uccs += ";";
        }
      }
      return best;
    };
    std::string got;
    std::string want;
    double ms = best_ms(/*oracle=*/false, &got);
    double oracle_ms = best_ms(/*oracle=*/true, &want);
    if (got != want) {
      std::fprintf(stderr, "FATAL: %s: UCC lists differ from the hash-sort "
                   "oracle lattice\n", row.name);
      return 1;
    }
    add(row.name, ms, "ms");
    add(row.oracle_name, oracle_ms, "ms");
  }

  if (json) {
    std::printf("{\n  \"bench\": \"bench_micro_profile\",\n");
    std::printf("  \"config\": {\"rows\": %zu, \"distinct\": %zu, "
                "\"cases_per_bucket\": %zu},\n",
                kRows, kDistinct, copt.cases_per_bucket);
    std::printf("  \"results\": {\n");
    for (size_t i = 0; i < results.size(); ++i) {
      std::printf("    \"%s\": {\"value\": %.6g, \"unit\": \"%s\"}%s\n",
                  results[i].name.c_str(), results[i].value,
                  results[i].unit.c_str(),
                  i + 1 < results.size() ? "," : "");
    }
    std::printf("  }\n}\n");
  }
  // Keep the accumulated kernel outputs observable so nothing above was
  // optimized away (NaN would indicate a broken kernel, too).
  if (!(g_sink == g_sink)) {
    std::fprintf(stderr, "FATAL: kernel produced NaN\n");
    return 1;
  }
  return 0;
}
