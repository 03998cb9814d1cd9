// Runs the end-to-end fault-injection campaign (tests/fuzz/fault_fuzz.h) as a
// gtest so a plain `ctest` exercises the full service layer: mutated
// CSV/DDL, ReadCsvFile with io faults armed, and Predict under randomized
// RunContext budgets/deadlines with candidates.exhausted / parallel.task
// armed. The standalone autobi_faultfuzz binary runs the same campaign under
// ASan/UBSan in the AUTOBI_FAULT_SMOKE=1 CI stage.

#include <gtest/gtest.h>

#include "tests/fuzz/fault_fuzz.h"

namespace autobi {
namespace {

TEST(FaultFuzzSmoke, ThousandCasesNoInvariantViolations) {
  FaultFuzzOptions options;
  options.seed = 20260807;
  options.cases = 1000;
  FaultFuzzReport report = RunFaultFuzz(options);
  EXPECT_EQ(report.failures, 0) << FormatFaultFuzzReport(report);
  EXPECT_EQ(report.cases_run, 1000);
  // The scenario mix must actually cover every surface.
  EXPECT_GT(report.csv_cases, 0);
  EXPECT_GT(report.ddl_cases, 0);
  EXPECT_GT(report.file_cases, 0);
  EXPECT_GT(report.pipeline_cases, 0);
  EXPECT_GT(report.schema_evolution_cases, 0);
  EXPECT_GT(report.injected_faults, 0);
  EXPECT_GT(report.degraded_models, 0);
}

// The dedicated schema-evolution campaign: every case replays a mutation
// sequence through Predict on one shared PredictCache and cross-checks an
// uncached Predict after each step. Any cached/uncached divergence is an
// invariant violation.
TEST(FaultFuzzSmoke, SchemaEvolutionDifferentialCampaign) {
  FaultFuzzOptions options;
  options.seed = 20260808;
  options.cases = 150;
  options.scenario = "schema";
  FaultFuzzReport report = RunFaultFuzz(options);
  EXPECT_EQ(report.failures, 0) << FormatFaultFuzzReport(report);
  EXPECT_EQ(report.schema_evolution_cases, 150);
}

TEST(FaultFuzzSmoke, DeterministicAcrossRuns) {
  FaultFuzzOptions options;
  options.seed = 42;
  options.cases = 120;
  FaultFuzzReport a = RunFaultFuzz(options);
  FaultFuzzReport b = RunFaultFuzz(options);
  EXPECT_EQ(a.failures, 0) << FormatFaultFuzzReport(a);
  EXPECT_EQ(a.status_errors, b.status_errors);
  EXPECT_EQ(a.parses_ok, b.parses_ok);
  EXPECT_EQ(a.degraded_models, b.degraded_models);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
}

}  // namespace
}  // namespace autobi
