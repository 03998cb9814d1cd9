// Structural depth checks on the TPC transcriptions, including the paper's
// Section-5.3 observation that TPC-E clusters join through a few central
// "hub" tables — verified here with the schema summarizer on the ground
// truth.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/schema_summary.h"
#include "profile/ucc.h"
#include "synth/tpc.h"
#include "tests/oracles/ucc_oracle.h"

namespace autobi {
namespace {

TEST(TpcDepthTest, TpcEHubsAreTheCentralTables) {
  Rng rng(1);
  BiCase tpce = GenerateTpcE(0.2, rng);
  SchemaSummary summary = SummarizeSchema(tpce.tables, tpce.ground_truth);
  std::set<std::string> hubs;
  for (int t : summary.HubTables()) {
    hubs.insert(tpce.tables[size_t(t)].name());
  }
  // The paper names customers/security/trade-style hubs explicitly.
  EXPECT_TRUE(hubs.count("customer"));
  EXPECT_TRUE(hubs.count("security"));
  EXPECT_TRUE(hubs.count("trade"));
  EXPECT_TRUE(hubs.count("company"));
  EXPECT_GE(hubs.size(), 5u);
  // And the schema is one big connected cluster.
  EXPECT_EQ(summary.num_clusters, 1);
}

TEST(TpcDepthTest, TpcDsRolePlayingDateFks) {
  Rng rng(2);
  BiCase tpcds = GenerateTpcDs(0.2, rng);
  // date_dim is referenced by many role-playing FKs — the reason
  // Auto-BI-P's recall collapses on TPC-DS (Table 5).
  int date_dim = -1;
  for (size_t t = 0; t < tpcds.tables.size(); ++t) {
    if (tpcds.tables[t].name() == "date_dim") date_dim = int(t);
  }
  ASSERT_GE(date_dim, 0);
  int in_degree = 0;
  for (const Join& j : tpcds.ground_truth.joins) {
    if (j.to.table == date_dim) ++in_degree;
  }
  EXPECT_GE(in_degree, 15);
  // A k-arborescence can keep at most ONE of these, bounding backbone
  // recall to roughly (edges - (in_degree-1) - ...) / edges.
  SchemaSummary summary = SummarizeSchema(tpcds.tables, tpcds.ground_truth);
  EXPECT_EQ(summary.tables[size_t(date_dim)].role, TableRole::kHub);
}

TEST(TpcDepthTest, TpcHPartsuppHasCompositeKey) {
  Rng rng(3);
  BiCase tpch = GenerateTpcH(0.2, rng);
  int partsupp = -1;
  for (size_t t = 0; t < tpch.tables.size(); ++t) {
    if (tpch.tables[t].name() == "partsupp") partsupp = int(t);
  }
  ASSERT_GE(partsupp, 0);
  const Table& ps = tpch.tables[size_t(partsupp)];
  // Neither component is unique alone; the pair is.
  EXPECT_FALSE(IsUniqueCombination(ps, {0}));
  EXPECT_FALSE(IsUniqueCombination(ps, {1}));
  EXPECT_TRUE(IsUniqueCombination(ps, {0, 1}));
  // And UCC discovery finds it.
  TableProfile profile = ProfileTable(ps);
  bool found = false;
  for (const Ucc& u : DiscoverUccs(ps, profile)) {
    if (u.columns == std::vector<int>{0, 1}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TpcDepthTest, TpcCIsConnectedThroughOrderAndCustomer) {
  Rng rng(4);
  BiCase tpcc = GenerateTpcC(0.3, rng);
  SchemaSummary summary = SummarizeSchema(tpcc.tables, tpcc.ground_truth);
  EXPECT_EQ(summary.num_clusters, 1);
  std::set<std::string> hubs;
  for (int t : summary.HubTables()) {
    hubs.insert(tpcc.tables[size_t(t)].name());
  }
  EXPECT_TRUE(hubs.count("customer"));
  EXPECT_TRUE(hubs.count("orders"));
}

TEST(TpcDepthTest, ScaleKnobChangesRowCountsNotStructure) {
  Rng rng_a(5), rng_b(5);
  BiCase small = GenerateTpcH(0.2, rng_a);
  BiCase large = GenerateTpcH(0.6, rng_b);
  ASSERT_EQ(small.tables.size(), large.tables.size());
  EXPECT_EQ(small.ground_truth.joins.size(),
            large.ground_truth.joins.size());
  EXPECT_LT(small.tables[7].num_rows(), large.tables[7].num_rows());
}

}  // namespace
}  // namespace autobi
