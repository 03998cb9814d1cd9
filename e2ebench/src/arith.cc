#include "arith.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(pct, 0.0, 100.0) / 100.0 *
                     double(samples.size() - 1);
  const size_t lo = size_t(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - double(lo)) * (samples[hi] - samples[lo]);
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

bool SupportsPercentile(size_t n, int pct) {
  if (n == 0 || pct < 0 || pct > 100) return false;
  const size_t rank = (size_t(pct) * n + 99) / 100;  // ceil(pct * n / 100)
  return n - rank >= 10;
}

double CoveredSeconds(double lo, double hi,
                      std::vector<std::pair<double, double>> intervals) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0, run_end = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

double SelfSeconds(const std::vector<Span>& spans, size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> children;
  for (const Span& c : spans) {
    if (c.parent == int(index)) children.emplace_back(c.start, c.end);
  }
  return s.Duration() - CoveredSeconds(s.start, s.end, std::move(children));
}

double MbPerSecond(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / 1e6 / seconds : 0.0;
}

double MsPerMb(double seconds, double bytes) {
  return bytes > 0.0 ? seconds * 1e3 / (bytes / 1e6) : 0.0;
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace e2ebench
