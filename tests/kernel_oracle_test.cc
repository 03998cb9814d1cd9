// Kernel-oracle equivalence suite (PR 7): the hash-first columnar kernels
// (table/key_view.h + radix-sorted aggregation) must be *bit-identical* to
// the retained legacy string-map/string-set kernels on every surface the
// pipeline consumes — canonical key bytes, ColumnProfile fields, UCC sets,
// composite IND key sets and containments, and end-to-end candidates — on
// adversarial randomized data (nulls, escape bytes '|' and '\', int/double
// canonicalization edges, mixed-type columns), on the synthetic REAL corpus,
// and on TPC-H ingested through the SQL-DDL path, at 1, 2, and 8 threads.
//
// scripts/check.sh runs this file under ASan/UBSan on every invocation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/candidates.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/sketch.h"
#include "profile/ucc.h"
#include "synth/corpus.h"
#include "synth/tpch_ddl.h"
#include "table/key_view.h"
#include "tests/oracles/profile_oracle.h"
#include "tests/oracles/ucc_oracle.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// Adversarial cell pool: empty (= null), the tuple-escape bytes '|' and '\'
// alone / doubled / embedded, int canonicalization edges (leading zeros,
// negative zero, INT64_MIN, > 2^53), double rendering edges (integral
// doubles below/above the 1e15 canonicalization cutoff, tiny/huge
// magnitudes), and plain strings with spaces and multi-byte characters.
const char* const kAdversarialPool[] = {
    "",        "a",       "b",     "a|b",   "a\\b",  "|",
    "\\",      "\\|",     "|\\",   "||",    "a|",    "|b",
    "a\\|b",   "0",       "-0",    "7",     "007",   "-7",
    "42",      "1000000000000000",  "9007199254740993",
    "-9223372036854775808",        "3.5",   "-3.5",  "0.125",
    "1e300",   "-1e-300", "1e15",  "999999999999999",
    "2.000000000001",     "x y",   " lead", "trail ", "ümlaut",
};

std::vector<std::string> RandomCells(Rng& rng, size_t rows) {
  // Per-column shape: 0 = ints, 1 = doubles, 2 = adversarial strings,
  // 3 = mixed (forces a string column over numeric-looking cells).
  int kind = int(rng.NextBelow(4));
  double null_p = double(rng.NextBelow(4)) * 0.1;
  std::vector<std::string> cells;
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextDouble() < null_p) {
      cells.push_back("");
      continue;
    }
    switch (kind) {
      case 0:
        cells.push_back(std::to_string(rng.NextInt(-30, 30)));
        break;
      case 1:
        cells.push_back(StrFormat("%lld.%llu",
                                  (long long)rng.NextInt(-20, 20),
                                  (unsigned long long)rng.NextBelow(100)));
        break;
      default: {
        const size_t pool =
            sizeof(kAdversarialPool) / sizeof(kAdversarialPool[0]);
        // Skip index 0 ("") so null frequency stays governed by null_p; for
        // the mixed shape interleave numeric-looking and string cells.
        size_t i = 1 + rng.NextBelow(pool - 1);
        if (kind == 3 && rng.NextBelow(2) == 0) {
          cells.push_back(std::to_string(rng.NextInt(0, 20)));
        } else {
          cells.push_back(kAdversarialPool[i]);
        }
        break;
      }
    }
  }
  return cells;
}

Table RandomTable(Rng& rng, const std::string& name) {
  size_t rows = 5 + rng.NextBelow(60);
  size_t ncols = 1 + rng.NextBelow(4);
  std::vector<std::pair<std::string, std::vector<std::string>>> cols;
  for (size_t c = 0; c < ncols; ++c) {
    cols.emplace_back(StrFormat("c%zu", c), RandomCells(rng, rows));
  }
  return MakeTable(name, cols);
}

void ExpectProfilesIdentical(const ColumnProfile& a, const ColumnProfile& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.non_null_count, b.non_null_count);
  EXPECT_EQ(a.num_distinct, b.num_distinct);
  EXPECT_EQ(a.distinct_hashes, b.distinct_hashes);
  EXPECT_EQ(a.distinct_counts, b.distinct_counts);
  EXPECT_EQ(a.distinct_ratio, b.distinct_ratio);  // Bitwise, not NEAR.
  EXPECT_EQ(a.is_numeric, b.is_numeric);
  EXPECT_EQ(a.min_value, b.min_value);
  EXPECT_EQ(a.max_value, b.max_value);
  EXPECT_EQ(a.sorted_numeric_sample, b.sorted_numeric_sample);
  EXPECT_EQ(a.avg_value_length, b.avg_value_length);
}

// Legacy-profiled TableProfile, assembled column-by-column through the
// string-map oracle.
TableProfile ProfileTableLegacy(const Table& t) {
  TableProfile tp;
  tp.row_count = t.num_rows();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    tp.columns.push_back(ProfileColumnLegacy(t.column(c)));
  }
  return tp;
}

std::string UccsToString(const std::vector<Ucc>& uccs) {
  std::string out;
  for (const Ucc& u : uccs) {
    for (int c : u.columns) out += StrFormat("%d,", c);
    out += ";";
  }
  return out;
}

std::string IndsToString(const std::vector<Ind>& inds) {
  std::string out;
  for (const Ind& ind : inds) {
    out += StrFormat("%d:", ind.dependent.table);
    for (int c : ind.dependent.columns) out += StrFormat("%d,", c);
    out += StrFormat("->%d:", ind.referenced.table);
    for (int c : ind.referenced.columns) out += StrFormat("%d,", c);
    out += StrFormat("@%.17g;", ind.containment);
  }
  return out;
}

std::string CandidatesToString(const std::vector<JoinCandidate>& cands) {
  std::string out;
  for (const JoinCandidate& jc : cands) {
    out += StrFormat("%d:", jc.src.table);
    for (int c : jc.src.columns) out += StrFormat("%d,", c);
    out += StrFormat("->%d:", jc.dst.table);
    for (int c : jc.dst.columns) out += StrFormat("%d,", c);
    out += StrFormat("@%.17g/%.17g/%d;", jc.left_containment,
                     jc.right_containment, jc.one_to_one ? 1 : 0);
  }
  return out;
}

class KernelOracleTest : public ::testing::TestWithParam<uint64_t> {};

// The columnar key view reproduces Column::KeyAt byte-for-byte, including
// null placement and the stable hash identity.
TEST_P(KernelOracleTest, KeyViewMatchesKeyAt) {
  Rng rng(GetParam() * 7919 + 1);
  Table t = RandomTable(rng, "kv");
  TableKeyView view(t);
  ASSERT_EQ(view.num_columns(), t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    const ColumnKeyView& cv = view.column(c);
    ASSERT_EQ(cv.size(), t.num_rows());
    size_t non_null = 0;
    size_t bytes = 0;
    std::string key;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(cv.IsNull(r), col.IsNull(r)) << "col " << c << " row " << r;
      if (col.IsNull(r)) continue;
      ASSERT_TRUE(col.KeyAt(r, &key));
      EXPECT_EQ(cv.key(r), key) << "col " << c << " row " << r;
      EXPECT_EQ(cv.hash(r), StableHash64(key));
      ++non_null;
      bytes += key.size();
    }
    EXPECT_EQ(cv.num_non_null(), non_null);
    EXPECT_EQ(cv.key_bytes(), bytes);
  }
}

// The hash-table profiling kernel is bit-identical to the string-map oracle
// on every ColumnProfile field (including the hash-ordered distinct vectors
// and the exact distinct count).
TEST_P(KernelOracleTest, ProfileMatchesLegacyOracle) {
  Rng rng(GetParam() * 104729 + 2);
  Table t = RandomTable(rng, "prof");
  TableKeyView view(t);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ColumnProfile hashed = ProfileColumn(t.column(c));
    ColumnProfile via_view = ProfileColumn(t.column(c), view.column(c));
    ColumnProfile legacy = ProfileColumnLegacy(t.column(c));
    ExpectProfilesIdentical(hashed, legacy);
    ExpectProfilesIdentical(via_view, legacy);
  }
}

// UCC discovery (lazy and prebuilt views) returns exactly the string-set
// lattice result, as does the hash-sort oracle lattice.
TEST_P(KernelOracleTest, UccsMatchLegacyOracle) {
  Rng rng(GetParam() * 15485863 + 3);
  Table t = RandomTable(rng, "ucc");
  TableProfile profile = ProfileTable(t);
  std::vector<Ucc> legacy =
      DiscoverUccsOracle(t, profile, {}, UccOracleKernel::kStringSet);
  std::vector<Ucc> lazy = DiscoverUccs(t, profile);
  TableKeyView view(t);
  std::vector<Ucc> prebuilt = DiscoverUccs(t, profile, {}, &view);
  std::vector<Ucc> hash_sort =
      DiscoverUccsOracle(t, profile, {}, UccOracleKernel::kHashSort, &view);
  EXPECT_EQ(UccsToString(lazy), UccsToString(legacy));
  EXPECT_EQ(UccsToString(prebuilt), UccsToString(legacy));
  EXPECT_EQ(UccsToString(hash_sort), UccsToString(legacy));

  // And the point kernel agrees on every arity-1/2 combination directly.
  for (size_t a = 0; a < t.num_columns(); ++a) {
    std::vector<int> cols = {int(a)};
    EXPECT_EQ(IsUniqueCombination(t, cols), IsUniqueCombinationLegacy(t, cols));
    for (size_t b = a + 1; b < t.num_columns(); ++b) {
      cols = {int(a), int(b)};
      EXPECT_EQ(IsUniqueCombination(t, cols),
                IsUniqueCombinationLegacy(t, cols));
      EXPECT_EQ(IsUniqueCombination(view, cols),
                IsUniqueCombinationLegacy(t, cols));
    }
  }
}

// Composite key sets and containments from the streamed view kernel equal
// the per-row KeyAt tuple-hash oracles.
TEST_P(KernelOracleTest, CompositeKernelsMatchLegacyOracle) {
  Rng rng(GetParam() * 32452843 + 4);
  Table a = RandomTable(rng, "ca");
  Table b = RandomTable(rng, "cb");
  for (size_t i = 0; i < a.num_columns(); ++i) {
    for (size_t j = i + 1; j < a.num_columns(); ++j) {
      std::vector<int> ca = {int(i), int(j)};
      EXPECT_EQ(BuildCompositeKeySet(a, ca), BuildCompositeKeySetLegacy(a, ca));
      for (size_t k = 0; k + 1 < b.num_columns(); ++k) {
        std::vector<int> cb = {int(k), int(k + 1)};
        EXPECT_EQ(CompositeContainment(a, ca, b, cb),
                  CompositeContainmentLegacy(a, ca, b, cb));
      }
    }
  }
}

// IND discovery fed by hash-first profiles/UCCs returns exactly the INDs of
// the all-legacy pipeline (legacy profiles, legacy UCC kernel), serially and
// with a thread pool.
TEST_P(KernelOracleTest, IndsMatchLegacyPipeline) {
  Rng rng(GetParam() * 49979687 + 5);
  std::vector<Table> tables;
  for (int t = 0; t < 3; ++t) {
    tables.push_back(RandomTable(rng, StrFormat("t%d", t)));
  }
  std::vector<TableProfile> profiles = ProfileTables(tables);
  std::vector<TableProfile> legacy_profiles;
  std::vector<std::vector<Ucc>> uccs;
  std::vector<std::vector<Ucc>> legacy_uccs;
  for (size_t i = 0; i < tables.size(); ++i) {
    legacy_profiles.push_back(ProfileTableLegacy(tables[i]));
    TableKeyView view(tables[i]);
    uccs.push_back(DiscoverUccs(tables[i], profiles[i], {}, &view));
    legacy_uccs.push_back(DiscoverUccsOracle(
        tables[i], legacy_profiles[i], {}, UccOracleKernel::kStringSet));
  }
  for (int threads : {1, 8}) {
    IndOptions opt;
    opt.threads = threads;
    std::vector<Ind> inds = DiscoverInds(tables, profiles, uccs, opt);
    std::vector<Ind> legacy_inds =
        DiscoverInds(tables, legacy_profiles, legacy_uccs, opt);
    EXPECT_EQ(IndsToString(inds), IndsToString(legacy_inds))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelOracleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// End-to-end candidate generation on the REAL corpus and on TPC-H ingested
// through the SQL-DDL path: profiles and candidates are bit-identical at 1,
// 2, and 8 threads, and equal to the all-legacy reference pipeline.
TEST(KernelOracleEndToEndTest, CorpusAndTpchIdenticalAcrossThreadsAndKernels) {
  CorpusOptions copt;
  copt.seed = 777;
  copt.cases_per_bucket = 1;
  RealBenchmark real = BuildRealBenchmark(copt);
  std::vector<std::vector<Table>> case_tables;
  for (const BiCase& c : real.cases) case_tables.push_back(c.tables);
  Rng tpch_rng(99);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(/*scale=*/0.5, tpch_rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  case_tables.push_back(tpch->tables);

  for (const std::vector<Table>& tables : case_tables) {
    CandidateGenOptions base;
    base.threads = 1;
    CandidateSet ref = GenerateCandidates(tables, base);
    for (int threads : {2, 8}) {
      CandidateGenOptions opt;
      opt.threads = threads;
      CandidateSet got = GenerateCandidates(tables, opt);
      ASSERT_EQ(got.profiles.size(), ref.profiles.size());
      for (size_t t = 0; t < ref.profiles.size(); ++t) {
        ASSERT_EQ(got.profiles[t].columns.size(),
                  ref.profiles[t].columns.size());
        for (size_t c = 0; c < ref.profiles[t].columns.size(); ++c) {
          ExpectProfilesIdentical(got.profiles[t].columns[c],
                                  ref.profiles[t].columns[c]);
        }
        EXPECT_EQ(UccsToString(got.uccs[t]), UccsToString(ref.uccs[t]));
      }
      EXPECT_EQ(CandidatesToString(got.candidates),
                CandidatesToString(ref.candidates))
          << "threads=" << threads;
    }
    // All-legacy reference: legacy profiles + legacy UCC kernel feeding the
    // same IND scan must yield the same discovery result.
    std::vector<TableProfile> legacy_profiles;
    std::vector<std::vector<Ucc>> legacy_uccs;
    for (const Table& t : tables) {
      legacy_profiles.push_back(ProfileTableLegacy(t));
      legacy_uccs.push_back(DiscoverUccsOracle(
          t, legacy_profiles.back(), {}, UccOracleKernel::kStringSet));
    }
    for (size_t t = 0; t < tables.size(); ++t) {
      ASSERT_EQ(legacy_profiles[t].columns.size(),
                ref.profiles[t].columns.size());
      for (size_t c = 0; c < ref.profiles[t].columns.size(); ++c) {
        ExpectProfilesIdentical(legacy_profiles[t].columns[c],
                                ref.profiles[t].columns[c]);
      }
      EXPECT_EQ(UccsToString(legacy_uccs[t]), UccsToString(ref.uccs[t]));
    }
    IndOptions iopt;
    iopt.threads = 1;
    EXPECT_EQ(IndsToString(DiscoverInds(tables, legacy_profiles, legacy_uccs,
                                        iopt)),
              IndsToString(DiscoverInds(tables, ref.profiles, ref.uccs,
                                        iopt)));
  }
}

// The DDL-ingested TPC-H case has the expected shape: 8 tables, 8 declared
// FK joins including the composite (l_partkey,l_suppkey) -> partsupp, the
// fixed-size region/nation dimensions, and a parseable embedded script.
TEST(TpchDdlTest, GeneratesExpectedShape) {
  Rng rng(5);
  StatusOr<BiCase> c = GenerateTpchFromDdl(/*scale=*/0.25, rng);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->tables.size(), 8u);
  EXPECT_EQ(c->tables[0].name(), "region");
  EXPECT_EQ(c->tables[0].num_rows(), 5u);
  EXPECT_EQ(c->tables[1].name(), "nation");
  EXPECT_EQ(c->tables[1].num_rows(), 25u);
  EXPECT_EQ(c->tables[7].name(), "lineitem");
  EXPECT_EQ(c->tables[7].num_columns(), 16u);
  EXPECT_EQ(c->ground_truth.joins.size(), 8u);
  bool composite = false;
  for (const Join& join : c->ground_truth.joins) {
    if (join.from.columns.size() == 2) composite = true;
  }
  EXPECT_TRUE(composite);
  // The partsupp composite key is genuinely unique (cross-product keys).
  const Table& partsupp = c->tables[5];
  EXPECT_EQ(partsupp.name(), "partsupp");
  EXPECT_TRUE(IsUniqueCombination(partsupp, {0, 1}));
}

// The canonical double key is produced via std::to_chars(general, 12), which
// the standard specifies as printf %.12g output; pin that equivalence (and
// KeyAt/key-view agreement) against a literal snprintf reference across
// random bit patterns and rendering edge cases, so a libstdc++ deviation
// would surface here instead of as a silent content-hash change.
TEST(KernelOracleKeyTest, DoubleKeysMatchSnprintfReference) {
  Rng rng(99);
  std::vector<double> values = {0.5,    -0.5,     0.1,     1.0 / 3.0,
                                2.5e-5, 1e300,    -1e-300, 5e-324,
                                1e15 + 0.5,       123456.789012345,
                                1.7976931348623157e308,    2.000000000001};
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng.Next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  Column col("d");
  for (double v : values) col.AppendDouble(v);
  ColumnKeyView view(col);
  std::string key;
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    double v = values[i];
    std::string expect;
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
      expect = std::to_string(static_cast<int64_t>(v));
    } else {
      int n = std::snprintf(buf, sizeof(buf), "%.12g", v);
      expect.assign(buf, static_cast<size_t>(n));
    }
    ASSERT_TRUE(col.KeyAt(i, &key));
    EXPECT_EQ(key, expect) << "v=" << v;
    EXPECT_EQ(std::string(view.key(i)), expect) << "v=" << v;
  }
}

}  // namespace
}  // namespace autobi
