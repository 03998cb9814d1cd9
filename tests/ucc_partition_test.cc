// Differential suite for stripped-partition UCC discovery: DiscoverUccs must
// return exactly the UCC lists of both frozen oracle lattices (hash-sort and
// string-set kernels, tests/oracles/ucc_oracle.h) on seeded table shapes
// that exercise every branch of the lattice walk and of the partition
// check — nulls, duplicated rows, low-cardinality columns (the pigeonhole
// prune), near-unique columns, column sets with no null-free row, arities
// 2/3/4, max_candidates cutoffs inside a level, and a table with more than
// 20 eligible columns — and on scale-10 DDL TPC-H, cold and after the
// end-to-end benchmark's 2% duplicated-row self-append.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "profile/column_profile.h"
#include "profile/ucc.h"
#include "synth/tpch_ddl.h"
#include "table/key_view.h"
#include "tests/oracles/ucc_oracle.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

using Columns = std::vector<std::pair<std::string, std::vector<std::string>>>;

std::string UccsToString(const std::vector<Ucc>& uccs) {
  std::string out;
  for (const Ucc& u : uccs) {
    for (int c : u.columns) out += StrFormat("%d,", c);
    out += ";";
  }
  return out;
}

// `rows` cells drawn from `distinct` values; each cell is null (empty) with
// probability null_p.
std::vector<std::string> RandomCells(Rng& rng, size_t rows, size_t distinct,
                                     double null_p) {
  std::vector<std::string> cells;
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextDouble() < null_p) {
      cells.push_back("");
    } else {
      cells.push_back(StrFormat("v%llu",
                                (unsigned long long)rng.NextBelow(distinct)));
    }
  }
  return cells;
}

// Digit (r / divisor) % modulus of the row number: columns built this way
// with divisors 1, m1, m1*m2, ... form a composite key.
std::vector<std::string> KeyPart(size_t rows, size_t divisor, size_t modulus) {
  std::vector<std::string> cells;
  for (size_t r = 0; r < rows; ++r) {
    cells.push_back(std::to_string((r / divisor) % modulus));
  }
  return cells;
}

void NullOut(Rng& rng, std::vector<std::string>* cells, double p) {
  for (std::string& cell : *cells) {
    if (rng.NextDouble() < p) cell.clear();
  }
}

// Every row of `cells` followed by a copy of itself.
std::vector<std::string> Doubled(std::vector<std::string> cells) {
  const size_t n = cells.size();
  for (size_t r = 0; r < n; ++r) cells.push_back(cells[r]);
  return cells;
}

struct ShapedTable {
  std::string shape;
  Table table;
};

// The seeded shapes. Each covers one hazard of the partition check; seeds
// past the named shapes mix them at random.
ShapedTable MakeShape(uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  Columns cols;
  std::string shape;
  switch (seed) {
    case 0: {  // Nulls inside composite keys and non-key columns.
      shape = "nulls";
      const size_t rows = 144;
      cols.push_back({"a", KeyPart(rows, 1, 12)});
      cols.push_back({"b", KeyPart(rows, 12, 12)});
      NullOut(rng, &cols[0].second, 0.1);
      NullOut(rng, &cols[1].second, 0.1);
      for (int c = 0; c < 4; ++c) {
        cols.push_back({StrFormat("n%d", c),
                        RandomCells(rng, rows, 20 + 15 * c, 0.3)});
      }
      break;
    }
    case 1: {  // Null rows that would collide if nulls were values.
      shape = "null_collisions";
      cols.push_back({"a", {"1", "1", "2", "2", "", "", "3", "3"}});
      cols.push_back({"b", {"1", "2", "1", "2", "5", "5", "1", "2"}});
      cols.push_back({"c", {"x", "y", "x", "y", "", "", "x", "z"}});
      break;
    }
    case 2: {  // Column sets with no row that is non-null in all of them.
      shape = "no_null_free_row";
      cols.push_back({"a", {"1", "1", "2", "2", "", "", "", ""}});
      cols.push_back({"b", {"", "", "", "", "3", "3", "4", "4"}});
      cols.push_back({"c", {"7", "7", "8", "8", "", "", "", ""}});
      cols.push_back({"d", {"1", "2", "3", "4", "1", "2", "3", "4"}});
      break;
    }
    case 3: {  // The benchmark's 2% duplicated-row append on a keyed table.
      shape = "appended_duplicates";
      const size_t rows = 300;
      cols.push_back({"k1", KeyPart(rows, 1, 15)});
      cols.push_back({"k2", KeyPart(rows, 15, 20)});
      cols.push_back({"near", RandomCells(rng, rows, 2000, 0.0)});
      cols.push_back({"mid", RandomCells(rng, rows, 60, 0.05)});
      break;
    }
    case 4: {  // Every row present twice: nothing is unique.
      shape = "fully_duplicated";
      const size_t rows = 90;
      cols.push_back({"a", Doubled(KeyPart(rows, 1, 9))});
      cols.push_back({"b", Doubled(KeyPart(rows, 9, 10))});
      cols.push_back({"c", Doubled(RandomCells(rng, rows, 30, 0.1))});
      cols.push_back({"d", Doubled(RandomCells(rng, rows, 500, 0.0))});
      break;
    }
    case 5: {  // Low cardinality: the pigeonhole prune decides most pairs,
               // and a 3-column key fills its value space exactly.
      shape = "low_cardinality";
      const size_t rows = 80;
      cols.push_back({"x", KeyPart(rows, 1, 4)});
      cols.push_back({"y", KeyPart(rows, 4, 5)});
      cols.push_back({"z", KeyPart(rows, 20, 4)});
      cols.push_back({"w", RandomCells(rng, rows, 5, 0.0)});
      cols.push_back({"u", RandomCells(rng, rows, 6, 0.1)});
      break;
    }
    case 6: {  // Near-unique columns: one or two duplicates each.
      shape = "near_unique";
      const size_t rows = 200;
      for (int c = 0; c < 4; ++c) {
        std::vector<std::string> cells = KeyPart(rows, 1, rows);
        for (int d = 0; d <= c % 2; ++d) {
          size_t from = rng.NextBelow(rows);
          size_t to = rng.NextBelow(rows);
          if (from != to) cells[to] = cells[from];
        }
        if (c == 3) NullOut(rng, &cells, 0.02);
        cols.push_back({StrFormat("n%d", c), cells});
      }
      cols.push_back({"g", RandomCells(rng, rows, 40, 0.0)});
      break;
    }
    case 7: {  // Wide: more than 20 eligible (non-unique) columns.
      shape = "wide";
      const size_t rows = 60;
      for (int c = 0; c < 24; ++c) {
        cols.push_back({StrFormat("w%d", c),
                        RandomCells(rng, rows, 6 + size_t(c) * 2,
                                    c % 5 == 0 ? 0.15 : 0.0)});
      }
      break;
    }
    case 8: {  // A 4-column key behind three 3-column near-keys.
      shape = "arity_four_key";
      const size_t rows = 96;
      cols.push_back({"p", KeyPart(rows, 1, 4)});
      cols.push_back({"q", KeyPart(rows, 4, 2)});
      cols.push_back({"r", KeyPart(rows, 8, 3)});
      cols.push_back({"s", KeyPart(rows, 24, 4)});
      cols.push_back({"t", RandomCells(rng, rows, 12, 0.05)});
      break;
    }
    default: {  // Random mixtures of the above.
      shape = "mixed";
      const size_t rows = 40 + rng.NextBelow(160);
      const size_t ncols = 3 + rng.NextBelow(6);
      size_t divisor = 1;
      for (size_t c = 0; c < ncols; ++c) {
        std::vector<std::string> cells;
        switch (rng.NextBelow(3)) {
          case 0: {
            size_t modulus = 2 + rng.NextBelow(8);
            cells = KeyPart(rows, divisor, modulus);
            divisor *= modulus;
            break;
          }
          case 1:
            cells = RandomCells(rng, rows, 2 + rng.NextBelow(rows), 0.0);
            break;
          default:
            cells = RandomCells(rng, rows, 3 + rng.NextBelow(40), 0.0);
            break;
        }
        NullOut(rng, &cells, double(rng.NextBelow(3)) * 0.1);
        cols.push_back({StrFormat("m%zu", c), cells});
      }
      break;
    }
  }
  Table table = MakeTable(shape, cols);
  if (shape == "appended_duplicates" || (shape == "mixed" && seed % 2 == 0)) {
    AppendDuplicatedRows(&table);
  }
  return {shape, std::move(table)};
}

constexpr uint64_t kNumShapes = 14;

class UccPartitionDifferential : public ::testing::TestWithParam<uint64_t> {};

// Both oracle lattices and both view modes of DiscoverUccs agree for every
// arity cap and cutoff, including cutoffs that land inside a level.
TEST_P(UccPartitionDifferential, MatchesBothOracleLattices) {
  ShapedTable st = MakeShape(GetParam());
  const Table& t = st.table;
  TableProfile profile = ProfileTable(t);
  TableKeyView view(t);
  for (size_t arity : {2, 3, 4}) {
    for (size_t max_candidates : {5, 17, 2000}) {
      UccOptions opt;
      opt.max_arity = arity;
      opt.max_candidates = max_candidates;
      SCOPED_TRACE(StrFormat("shape=%s arity=%zu max_candidates=%zu",
                             st.shape.c_str(), arity, max_candidates));
      const std::string want = UccsToString(
          DiscoverUccsOracle(t, profile, opt, UccOracleKernel::kStringSet));
      EXPECT_EQ(UccsToString(DiscoverUccsOracle(
                    t, profile, opt, UccOracleKernel::kHashSort, &view)),
                want);
      EXPECT_EQ(UccsToString(DiscoverUccs(t, profile, opt)), want);
      EXPECT_EQ(UccsToString(DiscoverUccs(t, profile, opt, &view)), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KernelOracleUccShapes, UccPartitionDifferential,
                         ::testing::Range(uint64_t{0}, kNumShapes));

// The crafted shapes pin the answers the mutation-sensitive rules produce,
// so the differential above cannot pass vacuously on them.
TEST(UccPartitionShapesTest, NullRulesDecideTheCraftedShapes) {
  UccOptions opt;
  opt.min_distinct_ratio = 0.0;
  {
    // (a, b) is unique once the rows with a null a are skipped; kept as
    // values, rows 4 and 5 would collide as (null, 5).
    Table t = MakeShape(1).table;
    std::vector<Ucc> uccs = DiscoverUccs(t, ProfileTable(t), opt);
    EXPECT_NE(UccsToString(uccs).find("0,1,;"), std::string::npos)
        << UccsToString(uccs);
  }
  {
    // No row is non-null in both a and b, so (a, b) is not a key, while
    // (a, d) is.
    Table t = MakeShape(2).table;
    std::vector<Ucc> uccs = DiscoverUccs(t, ProfileTable(t), opt);
    const std::string got = UccsToString(uccs);
    EXPECT_EQ(got.find("0,1,;"), std::string::npos) << got;
    EXPECT_NE(got.find("0,3,;"), std::string::npos) << got;
  }
}

// The shapes reach every outcome: composite keys at arity 2, 3 and 4, and
// tables whose lattice finds no composite key at all.
TEST(UccPartitionShapesTest, ShapesCoverCompositeAndKeylessTables) {
  size_t arities_seen[5] = {0, 0, 0, 0, 0};
  size_t keyless = 0;
  for (uint64_t s = 0; s < kNumShapes; ++s) {
    Table t = MakeShape(s).table;
    UccOptions opt;
    opt.max_arity = 4;
    size_t composite = 0;
    for (const Ucc& u : DiscoverUccs(t, ProfileTable(t), opt)) {
      ++arities_seen[u.columns.size()];
      if (u.columns.size() > 1) ++composite;
    }
    if (composite == 0) ++keyless;
  }
  EXPECT_GT(arities_seen[2], 0u);
  EXPECT_GT(arities_seen[3], 0u);
  EXPECT_GT(arities_seen[4], 0u);
  EXPECT_GT(keyless, 0u);
}

// Scale-10 DDL TPC-H (the end-to-end benchmark's tables), cold and after
// the 2% duplicated-row self-append of lineitem, against both oracles.
TEST(UccPartitionTpchTest, Scale10ColdAndAppendedMatchOracles) {
  Rng rng(101);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(/*scale=*/10.0, rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  std::vector<Table> appended = tpch->tables;
  AppendDuplicatedRows(&appended.back());
  for (const std::vector<Table>* tables : {&tpch->tables, &appended}) {
    for (const Table& t : *tables) {
      SCOPED_TRACE(StrFormat("%s rows=%zu", t.name().c_str(), t.num_rows()));
      TableProfile profile = ProfileTable(t);
      TableKeyView view(t);
      const std::string got = UccsToString(DiscoverUccs(t, profile, {}, &view));
      EXPECT_EQ(got, UccsToString(DiscoverUccsOracle(
                         t, profile, {}, UccOracleKernel::kHashSort, &view)));
      EXPECT_EQ(got, UccsToString(DiscoverUccsOracle(
                         t, profile, {}, UccOracleKernel::kStringSet)));
    }
  }
}

}  // namespace
}  // namespace autobi
