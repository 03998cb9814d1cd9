#include <gtest/gtest.h>

#include <cstdlib>

#include "tests/fuzz/fuzzer.h"

namespace autobi {
namespace {

#ifndef AUTOBI_CORPUS_DIR
#define AUTOBI_CORPUS_DIR ""
#endif

// Bounded fuzz campaign run as part of the default ctest suite (label
// fuzz_smoke): replays the checked-in corpus, then cross-checks the solver
// stack against the brute-force oracles on >= 500 fresh random cases. Small
// enough to stay under a few seconds even under sanitizers.
TEST(FuzzSmoke, DifferentialCampaignIsCleanOnHealthySolvers) {
  FuzzOptions opt;
  opt.seed = 20260806;
  opt.cases = 600;
  opt.max_edges = 12;
  opt.corpus_dir = AUTOBI_CORPUS_DIR;
  opt.write_repros = false;  // The source tree is not a scratch directory.
  FuzzReport r = RunFuzz(opt);

  EXPECT_EQ(r.mismatches, 0) << FormatFuzzReport(r);
  EXPECT_GE(r.differential_cases, 500);
  EXPECT_GT(r.arc_cases, 0);
  EXPECT_GT(r.metamorphic_cases, 0);
  EXPECT_GE(r.corpus_replayed, 10) << "checked-in corpus missing from "
                                   << AUTOBI_CORPUS_DIR;
}

// A different seed exercises a disjoint case stream; cheap insurance against
// the smoke seed happening to dodge a regression.
TEST(FuzzSmoke, SecondSeedIsAlsoClean) {
  FuzzOptions opt;
  opt.seed = 7;
  opt.cases = 250;
  opt.max_edges = 10;
  opt.write_repros = false;
  FuzzReport r = RunFuzz(opt);
  EXPECT_EQ(r.mismatches, 0) << FormatFuzzReport(r);
}

// Long campaign (label: slow). Opt in with AUTOBI_FUZZ_SLOW=1, e.g. for a
// pre-release soak; ctest skips it by default.
TEST(FuzzSlow, ExtendedCampaign) {
  if (std::getenv("AUTOBI_FUZZ_SLOW") == nullptr) {
    GTEST_SKIP() << "set AUTOBI_FUZZ_SLOW=1 to run the extended campaign";
  }
  FuzzOptions opt;
  opt.seed = 1;
  opt.cases = 20000;
  opt.max_edges = 18;
  opt.corpus_dir = AUTOBI_CORPUS_DIR;
  opt.write_repros = false;
  opt.time_budget_sec = 300.0;
  FuzzReport r = RunFuzz(opt);
  EXPECT_EQ(r.mismatches, 0) << FormatFuzzReport(r);
}

}  // namespace
}  // namespace autobi
