#include "profile/ucc.h"

#include <gtest/gtest.h>

#include "tests/oracles/ucc_oracle.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

TEST(IsUniqueCombinationTest, SingleColumn) {
  Table t = MakeTable("t", {{"u", {"1", "2", "3"}}, {"d", {"1", "1", "2"}}});
  EXPECT_TRUE(IsUniqueCombination(t, {0}));
  EXPECT_FALSE(IsUniqueCombination(t, {1}));
}

TEST(IsUniqueCombinationTest, CompositeUniqueness) {
  Table t = MakeTable("t", {{"a", {"1", "1", "2", "2"}},
                            {"b", {"1", "2", "1", "1"}}});
  EXPECT_FALSE(IsUniqueCombination(t, {0}));
  EXPECT_FALSE(IsUniqueCombination(t, {1}));
  EXPECT_FALSE(IsUniqueCombination(t, {0, 1}));  // (2,1) appears twice.
  Table u = MakeTable("u", {{"a", {"1", "1", "2", "2"}},
                            {"b", {"1", "2", "1", "2"}}});
  EXPECT_TRUE(IsUniqueCombination(u, {0, 1}));
}

TEST(IsUniqueCombinationTest, NullRowsSkipped) {
  Table t = MakeTable("t", {{"a", {"1", "", "", "2"}}});
  // Nulls are skipped, remaining values 1,2 are unique.
  EXPECT_TRUE(IsUniqueCombination(t, {0}));
}

TEST(IsUniqueCombinationTest, SeparatorValuesDoNotCollide) {
  // ("a|b","c") must differ from ("a","b|c") under tuple hashing.
  Table t = MakeTable("t", {{"x", {"a|b", "a"}}, {"y", {"c", "b|c"}}});
  EXPECT_TRUE(IsUniqueCombination(t, {0, 1}));
}

TEST(DiscoverUccsTest, FindsSingleColumnKeys) {
  Table t = MakeTable("t", {{"id", SeqCells(1, 10)},
                            {"code", SeqCells(100, 109)},
                            {"grp", {"1", "1", "1", "2", "2", "2", "3", "3",
                                     "3", "3"}}});
  TableProfile tp = ProfileTable(t);
  std::vector<Ucc> uccs = DiscoverUccs(t, tp);
  // id and code are keys; grp is not.
  ASSERT_EQ(uccs.size(), 2u);
  EXPECT_EQ(uccs[0].columns, (std::vector<int>{0}));
  EXPECT_EQ(uccs[1].columns, (std::vector<int>{1}));
}

TEST(DiscoverUccsTest, FindsMinimalCompositeKey) {
  Table t = MakeTable("t", {{"a", {"1", "1", "2", "2"}},
                            {"b", {"1", "2", "1", "2"}},
                            {"c", {"x", "x", "y", "y"}}});
  TableProfile tp = ProfileTable(t);
  std::vector<Ucc> uccs = DiscoverUccs(t, tp);
  // (a,b) is the only minimal UCC; (a,b,c) is non-minimal; (a,c),(b,c) are
  // not unique ((a,c) has (1,x),(1,x)... actually (1,x) repeats).
  bool found_ab = false;
  for (const Ucc& u : uccs) {
    EXPECT_LE(u.columns.size(), 2u);
    if (u.columns == std::vector<int>{0, 1}) found_ab = true;
  }
  EXPECT_TRUE(found_ab);
}

TEST(DiscoverUccsTest, MinimalityNoSupersetOfKey) {
  Table t = MakeTable("t", {{"id", SeqCells(1, 6)},
                            {"x", {"1", "1", "2", "2", "3", "3"}}});
  TableProfile tp = ProfileTable(t);
  std::vector<Ucc> uccs = DiscoverUccs(t, tp);
  for (const Ucc& u : uccs) {
    if (u.columns.size() > 1) {
      // No discovered composite may contain column 0 (already a key).
      EXPECT_EQ(std::find(u.columns.begin(), u.columns.end(), 0),
                u.columns.end());
    }
  }
}

TEST(DiscoverUccsTest, LowDistinctColumnsPruned) {
  // A constant column can never be part of a UCC at default options.
  Table t = MakeTable("t", {{"k", SeqCells(1, 40)},
                            {"c", std::vector<std::string>(40, "same")}});
  TableProfile tp = ProfileTable(t);
  std::vector<Ucc> uccs = DiscoverUccs(t, tp);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_EQ(uccs[0].columns, (std::vector<int>{0}));
}

TEST(DiscoverUccsTest, EmptyTable) {
  Table t("empty");
  TableProfile tp = ProfileTable(t);
  EXPECT_TRUE(DiscoverUccs(t, tp).empty());
}

TEST(DiscoverUccsTest, RespectsArityCap) {
  // Key only emerges at arity 3; cap at 2 must not find it.
  Table t = MakeTable("t", {{"a", {"1", "1", "1", "1", "2", "2", "2", "2"}},
                            {"b", {"1", "1", "2", "2", "1", "1", "2", "2"}},
                            {"c", {"1", "2", "1", "2", "1", "2", "1", "2"}}});
  TableProfile tp = ProfileTable(t);
  UccOptions opt;
  opt.max_arity = 2;
  EXPECT_TRUE(DiscoverUccs(t, tp, opt).empty());
  opt.max_arity = 3;
  std::vector<Ucc> uccs = DiscoverUccs(t, tp, opt);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_EQ(uccs[0].columns, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace autobi
