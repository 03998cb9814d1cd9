#include "profile/emd.h"

#include <algorithm>
#include <cmath>

#include "profile/sketch.h"

namespace autobi {

namespace {

std::vector<double> HashedSample(const ColumnProfile& p, size_t cap = 512) {
  // The profile's sorted distinct-hash vector uses the same FNV-1a hash this
  // sample always did, and the hash -> unit mapping is monotone, so the
  // sample is just the first min(cap, n) entries mapped into [0, 1): for a
  // column under the cap that is the whole distinct set (as before); above
  // the cap it is the bottom-cap slice — a uniform sample of the distinct
  // values under a uniform-hashing assumption, and
  // deterministic (the historical truncation took whatever unordered-map
  // iteration order produced). Already sorted, no re-hash, no sort.
  size_t n = std::min(p.distinct_hashes.size(), cap);
  std::vector<double> vals;
  vals.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    vals.push_back(HashToUnitInterval(p.distinct_hashes[i]));
  }
  return vals;
}

}  // namespace

double NormalizedEmd(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.empty() || b.empty()) return 1.0;
  double lo = std::min(a.front(), b.front());
  double hi = std::max(a.back(), b.back());
  double range = hi - lo;
  if (range <= 0.0) return 0.0;  // Both distributions are a single point.

  // Sweep the merged value axis accumulating |CDF_a - CDF_b| * dx.
  size_t i = 0;
  size_t j = 0;
  double prev_x = lo;
  double emd = 0.0;
  double na = static_cast<double>(a.size());
  double nb = static_cast<double>(b.size());
  while (i < a.size() || j < b.size()) {
    double x;
    if (i < a.size() && (j >= b.size() || a[i] <= b[j])) {
      x = a[i];
    } else {
      x = b[j];
    }
    double cdf_a = static_cast<double>(i) / na;
    double cdf_b = static_cast<double>(j) / nb;
    emd += std::fabs(cdf_a - cdf_b) * (x - prev_x);
    prev_x = x;
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
  }
  return std::min(1.0, emd / range);
}

double EmdScore(const ColumnProfile& a, const ColumnProfile& b) {
  if (a.non_null_count == 0 || b.non_null_count == 0) return 1.0;
  if (a.is_numeric && b.is_numeric) {
    return NormalizedEmd(a.sorted_numeric_sample, b.sorted_numeric_sample);
  }
  // Fall back to the hashed-key distribution for string columns. Two columns
  // drawing from the same key domain hash to similar uniform samples.
  return NormalizedEmd(HashedSample(a), HashedSample(b));
}

}  // namespace autobi
