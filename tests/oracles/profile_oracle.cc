#include "tests/oracles/profile_oracle.h"

#include <algorithm>
#include <utility>

#include "profile/sketch.h"

namespace autobi {

namespace {

// Streaming hash of the composite tuple of `columns` at row r: StableHash64
// of the escaped rendering "v1|v2|...|" ('|' and '\' backslash-escaped
// inside values), without materializing the concatenated string. Returns
// false if any cell is null.
bool TupleHash(const Table& table, const std::vector<int>& columns, size_t r,
               uint64_t* out, std::string* scratch) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  };
  for (int c : columns) {
    if (!table.column(static_cast<size_t>(c)).KeyAt(r, scratch)) return false;
    for (char ch : *scratch) {
      if (ch == '|' || ch == '\\') mix('\\');
      mix(ch);
    }
    mix('|');
  }
  *out = h;
  return true;
}

}  // namespace

ColumnProfile ProfileColumnLegacy(const Column& col, size_t max_sample) {
  ColumnProfile p;
  p.type = col.type();
  p.row_count = col.size();
  p.non_null_count = col.num_non_null();
  p.is_numeric =
      col.type() == ValueType::kInt || col.type() == ValueType::kDouble;

  // The original per-cell hot path: a fresh canonical key string per cell,
  // distinct counting through a node-based string map.
  DistinctKeyMap distinct;
  std::string key;
  size_t len_sum = 0;
  bool first_numeric = true;
  std::vector<double> numeric;
  numeric.reserve(std::min(p.non_null_count, max_sample));
  size_t stride = 1;
  if (p.is_numeric && p.non_null_count > max_sample) {
    stride = (p.non_null_count + max_sample - 1) / max_sample;
  }
  size_t non_null_seen = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    if (col.KeyAt(i, &key)) {
      len_sum += key.size();
      ++distinct[key];
    }
    if (p.is_numeric) {
      double v = col.AsDouble(i);
      if (first_numeric) {
        p.min_value = p.max_value = v;
        first_numeric = false;
      } else {
        p.min_value = std::min(p.min_value, v);
        p.max_value = std::max(p.max_value, v);
      }
      if (non_null_seen % stride == 0 && numeric.size() < max_sample) {
        numeric.push_back(v);
      }
    }
    ++non_null_seen;
  }
  p.num_distinct = distinct.size();
  if (p.non_null_count > 0) {
    p.distinct_ratio = static_cast<double>(distinct.size()) /
                       static_cast<double>(p.non_null_count);
    p.avg_value_length = static_cast<double>(len_sum) /
                         static_cast<double>(p.non_null_count);
  }
  std::sort(numeric.begin(), numeric.end());
  p.sorted_numeric_sample = std::move(numeric);

  // The sorted distinct vectors: (hash, count) ordered by hash, equal hashes
  // (in-column 64-bit collisions) merged by summing their counts.
  std::vector<std::pair<uint64_t, int32_t>> entries;
  entries.reserve(distinct.size());
  for (const auto& [k, count] : distinct) {
    entries.emplace_back(StableHash64(k), count);
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [hash, count] : entries) {
    if (!p.distinct_hashes.empty() && p.distinct_hashes.back() == hash) {
      p.distinct_counts.back() += count;
    } else {
      p.distinct_hashes.push_back(hash);
      p.distinct_counts.push_back(count);
    }
  }
  return p;
}

DistinctKeyMap BuildDistinctKeyMap(const Column& col) {
  DistinctKeyMap m;
  std::string key;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.KeyAt(i, &key)) ++m[key];
  }
  return m;
}

double ContainmentViaStringMap(const DistinctKeyMap& a, size_t a_non_null,
                               const DistinctKeyMap& b) {
  if (a_non_null == 0) return 0.0;
  int64_t hits = 0;
  for (const auto& [key, count] : a) {
    if (b.count(key)) hits += count;
  }
  return static_cast<double>(hits) / static_cast<double>(a_non_null);
}

double ContainmentViaStringMap(const Column& a, const Column& b) {
  return ContainmentViaStringMap(BuildDistinctKeyMap(a), a.num_non_null(),
                                 BuildDistinctKeyMap(b));
}

TupleHashSet BuildCompositeKeySetLegacy(const Table& table,
                                        const std::vector<int>& cols) {
  TupleHashSet referenced;
  referenced.reserve(table.num_rows() * 2);
  std::string scratch;
  uint64_t h = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (TupleHash(table, cols, r, &h, &scratch)) referenced.insert(h);
  }
  return referenced;
}

double CompositeContainmentLegacy(const Table& ta, const std::vector<int>& ca,
                                  const Table& tb, const std::vector<int>& cb) {
  TupleHashSet referenced = BuildCompositeKeySetLegacy(tb, cb);
  size_t total = 0;
  size_t hits = 0;
  std::string scratch;
  uint64_t h = 0;
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    if (!TupleHash(ta, ca, r, &h, &scratch)) continue;
    ++total;
    if (referenced.count(h)) ++hits;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace autobi
