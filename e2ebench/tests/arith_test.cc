// Tests of the benchmark's own arithmetic and input generation. Run with
// `python3 e2ebench/run.py --selftest`; exits non-zero on the first
// failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arith.h"
#include "inputs.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "arith_test.cc:%d: expectation failed: %s\n", line,
                 what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) \
  Expect(std::fabs((a) - (b)) < 1e-9, #a " ~= " #b, __LINE__)

using e2ebench::Span;

void TestPercentiles() {
  using e2ebench::Percentile;
  EXPECT_NEAR(Percentile({4, 1, 3, 2}, 50), 2.5);  // Unsorted input.
  EXPECT_NEAR(Percentile({1, 2, 3, 4}, 0), 1.0);
  EXPECT_NEAR(Percentile({1, 2, 3, 4}, 100), 4.0);
  EXPECT_NEAR(Percentile({1, 2, 3, 4, 5}, 90), 4.6);  // 0.9 * 4 = 3.6.
  EXPECT_NEAR(Percentile({7}, 90), 7.0);
  EXPECT_NEAR(Percentile({}, 50), 0.0);
  EXPECT_NEAR(e2ebench::Median({3, 1, 2}), 2.0);
}

void TestTailSupport() {
  using e2ebench::SupportsPercentile;
  // At least ten samples strictly beyond the percentile's rank.
  EXPECT(SupportsPercentile(100, 90));
  EXPECT(!SupportsPercentile(99, 90));
  EXPECT(SupportsPercentile(1000, 99));
  EXPECT(!SupportsPercentile(999, 99));
  EXPECT(SupportsPercentile(20, 50));
  EXPECT(!SupportsPercentile(19, 50));
  EXPECT(!SupportsPercentile(0, 50));
}

void TestCoverage() {
  using e2ebench::CoveredSeconds;
  EXPECT_NEAR(CoveredSeconds(0, 10, {{0, 2}, {1, 3}}), 3.0);    // Overlap.
  EXPECT_NEAR(CoveredSeconds(0, 10, {{0, 5}, {1, 2}}), 5.0);    // Nested.
  EXPECT_NEAR(CoveredSeconds(0, 10, {{-1, 1}, {9, 12}}), 2.0);  // Clipped.
  EXPECT_NEAR(CoveredSeconds(0, 10, {{2, 3}, {5, 6}}), 2.0);    // Disjoint.
  EXPECT_NEAR(CoveredSeconds(0, 10, {{11, 12}}), 0.0);          // Outside.
  EXPECT_NEAR(CoveredSeconds(0, 10, {}), 0.0);
}

void TestSelfTime() {
  std::vector<Span> spans;
  auto add = [&](double start, double end, int parent) {
    Span s;
    s.start = start;
    s.end = end;
    s.parent = parent;
    spans.push_back(s);
    return int(spans.size()) - 1;
  };
  const int root = add(0, 10, -1);
  const int a = add(1, 3, root);
  add(2, 4, root);        // Overlaps a: [1, 4] covered once.
  add(1.5, 2.5, a);       // Grandchild: inside a, not subtracted again.
  add(9, 12, root);       // Runs past the parent: only [9, 10] counts.
  EXPECT_NEAR(e2ebench::SelfSeconds(spans, size_t(root)), 10.0 - 3.0 - 1.0);
  EXPECT_NEAR(e2ebench::SelfSeconds(spans, size_t(a)), 2.0 - 1.0);
  EXPECT_NEAR(e2ebench::SelfSeconds(spans, 2), 2.0);  // Leaf.
}

void TestRates() {
  // MB = 1e6 bytes; ratios are part over whole, 0 over an empty base.
  EXPECT_NEAR(e2ebench::MbPerSecond(2e6, 2.0), 1.0);
  EXPECT_NEAR(e2ebench::MbPerSecond(1e6, 0.0), 0.0);
  EXPECT_NEAR(e2ebench::MsPerMb(0.5, 1e6), 500.0);
  EXPECT_NEAR(e2ebench::MsPerMb(0.5, 0.0), 0.0);
  EXPECT_NEAR(e2ebench::Ratio(1, 4), 0.25);
  EXPECT_NEAR(e2ebench::Ratio(0, 0), 0.0);
}

std::string Lines(const e2ebench::SessionInput& in) {
  std::string out;
  for (const e2ebench::Request& r : in.script) out += r.Line("s1") + "\n";
  return out;
}

void TestGeneratorDeterminism() {
  EXPECT(e2ebench::SessionSeed(1, 0) == e2ebench::SessionSeed(1, 0));
  EXPECT(e2ebench::SessionSeed(1, 0) != e2ebench::SessionSeed(1, 1));
  EXPECT(e2ebench::SessionSeed(1, 0) != e2ebench::SessionSeed(2, 0));
  for (const e2ebench::WorkloadSpec& spec : e2ebench::Workloads()) {
    const e2ebench::SessionInput a = e2ebench::MakeSession(spec, 7, 3, true);
    const e2ebench::SessionInput b = e2ebench::MakeSession(spec, 7, 3, false);
    const e2ebench::SessionInput c = e2ebench::MakeSession(spec, 7, 4, false);
    // Same seed: byte-identical request lines (CSV included), whether or not
    // the parsed tables were materialized.
    EXPECT(Lines(a) == Lines(b));
    EXPECT(Lines(a) != Lines(c));
    EXPECT(a.parsed_appended.size() == a.bi_case->tables.size());
    EXPECT(b.parsed_appended.empty());
    // The append adds max(1, n / 50) rows to the largest table.
    const size_t t = size_t(a.appended_table);
    const size_t before = a.parsed_replaced[t].num_rows();
    EXPECT(a.parsed_appended[t].num_rows() ==
           before + std::max<size_t>(1, before / 50));
    // Every session uploads each table once, then re-uploads one.
    size_t uploads = 0;
    for (const e2ebench::Request& r : a.script) {
      uploads += r.step == e2ebench::Step::kUpload;
    }
    EXPECT(uploads == a.bi_case->tables.size());
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestTailSupport();
  TestCoverage();
  TestSelfTime();
  TestRates();
  TestGeneratorDeterminism();
  if (failures == 0) std::printf("arith_test: all expectations passed\n");
  return failures == 0 ? 0 : 1;
}
