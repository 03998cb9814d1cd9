// Property tests for the hash-sketch profiling layer (profile/sketch.h):
// the sorted-merge Containment must equal the legacy string-map
// implementation on adversarial randomized columns (nulls, duplicates,
// escape-worthy values), the composite tuple-hash containment must equal a
// string-set oracle, and the blocking-screened DiscoverInds must return
// byte-identical IND and candidate lists on the synthetic REAL corpus with
// the screen on and off, at 1 and 8 threads.

#include "profile/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/candidates.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/ucc.h"
#include "synth/corpus.h"
#include "tests/oracles/profile_oracle.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// Values chosen to stress canonicalization: separator and escape characters,
// empty strings, numeric lookalikes, duplicates.
const char* kValuePool[] = {
    "a",      "b",    "a|b",   "a\\|b", "x\\y",  "p|q\\", "\\",
    "|",      "",     "dup",   "dup",   "3",     "3.0",   "-7",
    "0.5",    "id_1", "id_2",  "id_10", "Id_1",  " id",   "id ",
    "\\|\\|", "||",   "\\\\|", "cafe",  "Cafe'", "0",     "00",
};

Column RandomColumn(Rng* rng, size_t rows, double null_prob) {
  Column col("c", ValueType::kString);
  for (size_t r = 0; r < rows; ++r) {
    if (rng->NextBool(null_prob)) {
      col.AppendNull();
    } else {
      col.AppendString(kValuePool[rng->NextBelow(std::size(kValuePool))]);
    }
  }
  return col;
}

TEST(SketchTest, StableHashIsPureAndOrderFree) {
  EXPECT_EQ(StableHash64("abc"), StableHash64(std::string("abc")));
  EXPECT_NE(StableHash64("ab|c"), StableHash64("a|bc"));
  EXPECT_NE(StableHash64(""), StableHash64("\\"));
  // Monotone unit mapping.
  EXPECT_LT(HashToUnitInterval(1), HashToUnitInterval(uint64_t{1} << 60));
}

TEST(SketchTest, ProfileHashVectorsMirrorDistinctKeys) {
  Rng rng(7);
  Column col = RandomColumn(&rng, 200, 0.1);
  ColumnProfile p = ProfileColumn(col);
  ASSERT_EQ(p.distinct_hashes.size(), p.distinct_counts.size());
  // No collisions among the pool values: vector size == exact distinct
  // count, counts sum to the non-null row count, hashes strictly increasing.
  EXPECT_EQ(p.distinct_hashes.size(), p.num_distinct);
  int64_t total = 0;
  for (int32_t c : p.distinct_counts) total += c;
  EXPECT_EQ(total, int64_t(p.non_null_count));
  for (size_t i = 1; i < p.distinct_hashes.size(); ++i) {
    EXPECT_LT(p.distinct_hashes[i - 1], p.distinct_hashes[i]);
  }
  // Each (hash, count) entry is the hash and occurrence count of one
  // distinct key of the column, as read back through Column::KeyAt.
  DistinctKeyMap keys = BuildDistinctKeyMap(col);
  std::vector<std::pair<uint64_t, int32_t>> expected;
  for (const auto& [key, count] : keys) {
    expected.emplace_back(StableHash64(key), count);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(expected.size(), p.distinct_hashes.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(p.distinct_hashes[i], expected[i].first);
    EXPECT_EQ(p.distinct_counts[i], expected[i].second);
  }
}

// The tentpole exactness contract: hash-merge containment == string-map
// containment, bit for bit, on randomized adversarial columns.
class ContainmentEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ContainmentEquivalenceTest, HashMergeEqualsStringMap) {
  Rng rng(GetParam() * 2654435761ULL + 1);
  std::vector<Column> columns;
  for (int i = 0; i < 6; ++i) {
    size_t rows = 1 + rng.NextBelow(300);
    columns.push_back(RandomColumn(&rng, rows, 0.15));
  }
  // Include an empty and an all-null column.
  columns.emplace_back("e", ValueType::kString);
  Column nulls("n", ValueType::kString);
  for (int i = 0; i < 5; ++i) nulls.AppendNull();
  columns.push_back(nulls);
  std::vector<ColumnProfile> profiles;
  for (const Column& col : columns) profiles.push_back(ProfileColumn(col));

  for (size_t a = 0; a < columns.size(); ++a) {
    for (size_t b = 0; b < columns.size(); ++b) {
      EXPECT_EQ(Containment(profiles[a], profiles[b]),
                ContainmentViaStringMap(columns[a], columns[b]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// String-set oracle for composite containment, written independently of the
// production tuple-hash code.
double CompositeContainmentOracle(const Table& ta, const std::vector<int>& ca,
                                  const Table& tb,
                                  const std::vector<int>& cb) {
  auto tuple_of = [](const Table& t, const std::vector<int>& cols, size_t r,
                     std::string* out) {
    out->clear();
    std::string cell;
    for (int c : cols) {
      if (!t.column(size_t(c)).KeyAt(r, &cell)) return false;
      for (char ch : cell) {
        if (ch == '|' || ch == '\\') out->push_back('\\');
        out->push_back(ch);
      }
      out->push_back('|');
    }
    return true;
  };
  std::unordered_set<std::string> referenced;
  std::string key;
  for (size_t r = 0; r < tb.num_rows(); ++r) {
    if (tuple_of(tb, cb, r, &key)) referenced.insert(key);
  }
  size_t total = 0, hits = 0;
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    if (!tuple_of(ta, ca, r, &key)) continue;
    ++total;
    if (referenced.count(key)) ++hits;
  }
  return total == 0 ? 0.0 : double(hits) / double(total);
}

TEST_P(ContainmentEquivalenceTest, CompositeHashEqualsStringOracle) {
  Rng rng(GetParam() * 40503 + 11);
  auto random_table = [&](const char* name) {
    Table t(name);
    for (int c = 0; c < 2; ++c) {
      Column& col = t.AddColumn(StrFormat("c%d", c), ValueType::kString);
      for (int r = 0; r < 60; ++r) {
        if (rng.NextBool(0.1)) {
          col.AppendNull();
        } else {
          col.AppendString(kValuePool[rng.NextBelow(std::size(kValuePool))]);
        }
      }
    }
    return t;
  };
  Table a = random_table("a");
  Table b = random_table("b");
  std::vector<int> cols = {0, 1};
  EXPECT_EQ(CompositeContainment(a, cols, b, cols),
            CompositeContainmentOracle(a, cols, b, cols));
  EXPECT_EQ(CompositeContainment(b, cols, a, cols),
            CompositeContainmentOracle(b, cols, a, cols));
  EXPECT_DOUBLE_EQ(CompositeContainment(a, cols, a, cols), 1.0);
}

TEST(SketchTest, BlockingSkipsDisjointHighCardinalityPair) {
  // Two large key-like string columns with disjoint domains: blocking must
  // prune both ordered pairs — no exact merges, no active table pairs —
  // without changing the (empty) result.
  std::vector<std::string> va, vb;
  for (int i = 0; i < 3000; ++i) {
    va.push_back(StrFormat("a%d", i));
    vb.push_back(StrFormat("b%d", i));
  }
  std::vector<Table> tables;
  tables.push_back(MakeTable("ta", {{"k", va}}));
  tables.push_back(MakeTable("tb", {{"k", vb}}));
  auto profiles = ProfileTables(tables);
  std::vector<std::vector<Ucc>> uccs(2);

  IndOptions blocked;
  IndStats s_on;
  auto on = DiscoverInds(tables, profiles, uccs, blocked, &s_on);
  EXPECT_TRUE(on.empty());
  EXPECT_EQ(s_on.unary_blocked, 2u);
  EXPECT_EQ(s_on.unary_exact_checks, 0u);
  EXPECT_EQ(s_on.blocking.table_pairs_active, 0u);
  EXPECT_EQ(s_on.blocking.column_pairs_pruned, 2u);
  EXPECT_EQ(s_on.pairs_scanned, 0u);

  IndOptions exhaustive;
  exhaustive.blocking.enabled = false;
  IndStats s_off;
  auto off = DiscoverInds(tables, profiles, uccs, exhaustive, &s_off);
  EXPECT_TRUE(off.empty());
  EXPECT_EQ(s_off.unary_blocked, 0u);
  EXPECT_EQ(s_off.unary_exact_checks, 2u);
  EXPECT_EQ(s_off.pairs_scanned, 2u);
}

TEST(SketchTest, BlockingKeepsContainedHighCardinalityPair) {
  // A true FK -> PK inclusion over a large domain must survive blocking.
  std::vector<std::string> pk, fk;
  for (int i = 0; i < 4000; ++i) pk.push_back(StrFormat("k%d", i));
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    fk.push_back(StrFormat("k%d", int(rng.NextBelow(4000))));
  }
  std::vector<Table> tables;
  tables.push_back(MakeTable("fact", {{"fk", fk}}));
  tables.push_back(MakeTable("dim", {{"pk", pk}}));
  auto profiles = ProfileTables(tables);
  std::vector<std::vector<Ucc>> uccs(2);
  IndStats stats;
  auto inds = DiscoverInds(tables, profiles, uccs, IndOptions{}, &stats);
  ASSERT_EQ(inds.size(), 1u);
  EXPECT_DOUBLE_EQ(inds[0].containment, 1.0);
}

// --- Corpus-level identity guards -----------------------------------------

std::string SerializeInds(const std::vector<Ind>& inds) {
  std::string out;
  for (const Ind& ind : inds) {
    out += StrFormat("%d:", ind.dependent.table);
    for (int c : ind.dependent.columns) out += StrFormat("%d,", c);
    out += StrFormat("<=%d:", ind.referenced.table);
    for (int c : ind.referenced.columns) out += StrFormat("%d,", c);
    out += StrFormat("@%.17g\n", ind.containment);
  }
  return out;
}

std::string SerializeCandidates(const std::vector<JoinCandidate>& cands) {
  std::string out;
  for (const JoinCandidate& c : cands) {
    out += StrFormat("%d:", c.src.table);
    for (int col : c.src.columns) out += StrFormat("%d,", col);
    out += StrFormat("->%d:", c.dst.table);
    for (int col : c.dst.columns) out += StrFormat("%d,", col);
    out += StrFormat("@%.17g/%.17g/%d\n", c.left_containment,
                     c.right_containment, c.one_to_one ? 1 : 0);
  }
  return out;
}

// On the synthetic corpus: (1) hash-merge containment equals the string-map
// reference on every cross-table column pair, and (2) the composite-probe
// budget is never hit (so the pair-wide budget-stop semantics cannot have
// changed any corpus result).
TEST(SketchCorpusTest, ContainmentMatchesReferenceOnTrainingCorpus) {
  CorpusOptions opt;
  opt.seed = 5150;
  opt.training_cases = 8;
  std::vector<BiCase> cases = BuildTrainingCorpus(opt);
  ASSERT_FALSE(cases.empty());
  for (const BiCase& bi_case : cases) {
    auto profiles = ProfileTables(bi_case.tables);
    std::vector<std::vector<DistinctKeyMap>> maps(profiles.size());
    for (size_t t = 0; t < profiles.size(); ++t) {
      for (size_t c = 0; c < bi_case.tables[t].num_columns(); ++c) {
        maps[t].push_back(BuildDistinctKeyMap(bi_case.tables[t].column(c)));
      }
    }
    for (size_t ti = 0; ti < profiles.size(); ++ti) {
      for (size_t tj = 0; tj < profiles.size(); ++tj) {
        if (ti == tj) continue;
        for (size_t a = 0; a < profiles[ti].columns.size(); ++a) {
          const ColumnProfile& pa = profiles[ti].columns[a];
          for (size_t b = 0; b < profiles[tj].columns.size(); ++b) {
            ASSERT_EQ(Containment(pa, profiles[tj].columns[b]),
                      ContainmentViaStringMap(maps[ti][a], pa.non_null_count,
                                              maps[tj][b]))
                << bi_case.name;
          }
        }
      }
    }
    std::vector<std::vector<Ucc>> uccs;
    for (size_t i = 0; i < bi_case.tables.size(); ++i) {
      uccs.push_back(DiscoverUccs(bi_case.tables[i], profiles[i]));
    }
    IndStats stats;
    DiscoverInds(bi_case.tables, profiles, uccs, IndOptions{}, &stats);
    EXPECT_EQ(stats.composite_budget_truncations, 0u) << bi_case.name;
  }
}

// Blocking's default probe budgets must not change a single IND or
// candidate on the REAL corpus, at 1 and 8 threads (blocked results are
// additionally thread-count invariant by construction).
TEST(SketchCorpusTest, BlockingIdenticalIndsAndCandidatesOnRealCorpus) {
  CorpusOptions opt;
  opt.seed = 9091;
  opt.cases_per_bucket = 1;
  RealBenchmark real = BuildRealBenchmark(opt);
  ASSERT_FALSE(real.cases.empty());
  size_t screened_total = 0;
  for (const BiCase& bi_case : real.cases) {
    auto profiles = ProfileTables(bi_case.tables);
    std::vector<std::vector<Ucc>> uccs;
    for (size_t i = 0; i < bi_case.tables.size(); ++i) {
      uccs.push_back(DiscoverUccs(bi_case.tables[i], profiles[i]));
    }
    std::string reference;
    for (int threads : {1, 8}) {
      for (bool block : {false, true}) {
        IndOptions ind_opt;
        ind_opt.threads = threads;
        ind_opt.blocking.enabled = block;
        IndStats stats;
        std::string got =
            SerializeInds(DiscoverInds(bi_case.tables, profiles, uccs,
                                       ind_opt, &stats));
        if (reference.empty()) {
          reference = got;
        } else {
          EXPECT_EQ(reference, got)
              << bi_case.name << " threads=" << threads
              << " blocking=" << block;
        }
        if (block) screened_total += stats.unary_blocked;
      }
    }

    // Candidate sets (what downstream prediction consumes) are identical
    // too; identical candidates make every downstream stage a pure function
    // of identical input, so predicted join graphs cannot differ either.
    CandidateGenOptions gen_on;
    CandidateGenOptions gen_off;
    gen_off.ind.blocking.enabled = false;
    EXPECT_EQ(
        SerializeCandidates(GenerateCandidates(bi_case.tables, gen_on)
                                .candidates),
        SerializeCandidates(GenerateCandidates(bi_case.tables, gen_off)
                                .candidates))
        << bi_case.name;
  }
  // The corpus must actually exercise the screen somewhere, or this test
  // proves nothing.
  EXPECT_GT(screened_total, 0u);
}

}  // namespace
}  // namespace autobi
