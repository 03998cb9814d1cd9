#include "tests/oracles/spider.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

using Pair = std::pair<ColumnRef, ColumnRef>;

std::set<Pair> AsSet(const std::vector<SpiderInd>& inds) {
  std::set<Pair> out;
  for (const SpiderInd& ind : inds) {
    out.insert({ind.dependent, ind.referenced});
  }
  return out;
}

TEST(SpiderTest, FindsExactInclusion) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("fk", {{"x", {"1", "2", "2"}}}));
  tables.push_back(MakeTable("pk", {{"y", {"1", "2", "3"}}}));
  std::set<Pair> inds = AsSet(DiscoverExactIndsSpider(tables));
  EXPECT_TRUE(inds.count({ColumnRef{0, {0}}, ColumnRef{1, {0}}}));
  EXPECT_FALSE(inds.count({ColumnRef{1, {0}}, ColumnRef{0, {0}}}));
}

TEST(SpiderTest, MutualInclusionBothDirections) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"x", {"1", "2"}}}));
  tables.push_back(MakeTable("b", {{"y", {"2", "1"}}}));
  std::set<Pair> inds = AsSet(DiscoverExactIndsSpider(tables));
  EXPECT_TRUE(inds.count({ColumnRef{0, {0}}, ColumnRef{1, {0}}}));
  EXPECT_TRUE(inds.count({ColumnRef{1, {0}}, ColumnRef{0, {0}}}));
}

TEST(SpiderTest, NearMissIsNotAnInd) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"x", {"1", "2", "99"}}}));
  tables.push_back(MakeTable("b", {{"y", {"1", "2", "3"}}}));
  EXPECT_TRUE(DiscoverExactIndsSpider(tables).empty());
}

TEST(SpiderTest, SameTablePairsExcluded) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("t", {{"x", {"1", "2"}},
                                   {"y", {"1", "2", "3"}}}));
  EXPECT_TRUE(DiscoverExactIndsSpider(tables).empty());
}

TEST(SpiderTest, NullsIgnored) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"x", {"1", "", "2"}}}));
  tables.push_back(MakeTable("b", {{"y", {"1", "2"}}}));
  std::set<Pair> inds = AsSet(DiscoverExactIndsSpider(tables));
  EXPECT_TRUE(inds.count({ColumnRef{0, {0}}, ColumnRef{1, {0}}}));
}

TEST(SpiderTest, AllNullAndEmptyInput) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"x", {"", ""}}}));
  EXPECT_TRUE(DiscoverExactIndsSpider(tables).empty());
  EXPECT_TRUE(DiscoverExactIndsSpider({}).empty());
}

// Property: SPIDER's output matches a naive O(columns^2) set-containment
// reference on random tables.
class SpiderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpiderPropertyTest, MatchesNaiveReference) {
  Rng rng(GetParam() * 2654435761ULL);
  std::vector<Table> tables;
  for (int t = 0; t < 4; ++t) {
    std::vector<std::pair<std::string, std::vector<std::string>>> cols;
    size_t ncols = 1 + rng.NextBelow(3);
    for (size_t c = 0; c < ncols; ++c) {
      std::vector<std::string> cells;
      size_t rows = 3 + rng.NextBelow(15);
      for (size_t r = 0; r < rows; ++r) {
        cells.push_back(std::to_string(rng.NextBelow(12)));
      }
      cols.emplace_back(StrFormat("c%zu", c), cells);
    }
    tables.push_back(MakeTable(StrFormat("t%d", t), cols));
  }
  std::set<Pair> spider = AsSet(DiscoverExactIndsSpider(tables));

  // Naive reference over distinct-value sets.
  std::set<Pair> naive;
  auto distinct = [](const Column& col) {
    std::set<std::string> out;
    for (const std::string& k : col.Keys()) out.insert(k);
    return out;
  };
  for (size_t ti = 0; ti < tables.size(); ++ti) {
    for (size_t tj = 0; tj < tables.size(); ++tj) {
      if (ti == tj) continue;
      for (size_t a = 0; a < tables[ti].num_columns(); ++a) {
        std::set<std::string> da = distinct(tables[ti].column(a));
        if (da.empty()) continue;
        for (size_t b = 0; b < tables[tj].num_columns(); ++b) {
          std::set<std::string> db = distinct(tables[tj].column(b));
          if (std::includes(db.begin(), db.end(), da.begin(), da.end())) {
            naive.insert({ColumnRef{int(ti), {int(a)}},
                          ColumnRef{int(tj), {int(b)}}});
          }
        }
      }
    }
  }
  EXPECT_EQ(spider, naive);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpiderPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace autobi
