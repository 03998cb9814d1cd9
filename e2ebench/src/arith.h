// The benchmark's own arithmetic: percentiles with their sample-support
// rule, span self time, throughput and hit ratios. Kept free of any
// repository type so tests/arith_test.cc can pin every formula.
#ifndef E2EBENCH_ARITH_H_
#define E2EBENCH_ARITH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

// Linear-interpolated percentile (the "type 7" estimator numpy and Excel
// use) of `samples` at `pct` in [0, 100]. 0 for an empty sample.
double Percentile(std::vector<double> samples, double pct);
double Median(const std::vector<double>& samples);

// A tail percentile is reported only when at least ten samples lie strictly
// above its rank: n - ceil(pct * n / 100) >= 10. So p90 needs n >= 100 and
// p99 needs n >= 1000.
bool SupportsPercentile(size_t n, int pct);

// One recorded call: [start, end] in seconds on one clock, the index of
// the span that caused it (-1 for a root) and the request it served.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int64_t request = -1;
  double Duration() const { return end - start; }
};

// Length of the union of `intervals` clipped to [lo, hi].
double CoveredSeconds(double lo, double hi,
                      std::vector<std::pair<double, double>> intervals);

// Self time of spans[index]: its duration minus the part of its interval
// covered by its direct children. Overlapping children count once; a
// grandchild lies inside its parent, so it is never subtracted twice.
double SelfSeconds(const std::vector<Span>& spans, size_t index);

// One reported number, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Throughput in MB/s with MB = 1e6 bytes; 0 when no time was spent.
double MbPerSecond(double bytes, double seconds);
// Milliseconds per MB (MB = 1e6 bytes); 0 when no bytes were moved.
double MsPerMb(double seconds, double bytes);
// part / whole (hits / lookups, failed / attempted, ...); 0 when `whole`
// is 0.
double Ratio(double part, double whole);

}  // namespace e2ebench

#endif  // E2EBENCH_ARITH_H_
