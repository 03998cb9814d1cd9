#include "core/join_stats.h"

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"

namespace autobi {

namespace {

// Canonical tuple key for the join columns at row r; false if any is null.
bool TupleKey(const Table& table, const std::vector<int>& columns, size_t r,
              std::string* out) {
  out->clear();
  std::string cell;
  for (int c : columns) {
    if (!table.column(size_t(c)).KeyAt(r, &cell)) return false;
    for (char ch : cell) {
      if (ch == '|' || ch == '\\') out->push_back('\\');
      out->push_back(ch);
    }
    out->push_back('|');
  }
  return true;
}

}  // namespace

std::string JoinStats::ToString() const {
  return StrFormat(
      "left_rows=%zu matched=%zu (%.0f%%) output=%zu max_fanout=%zu "
      "left_distinct=%zu right_distinct=%zu%s",
      left_rows, matched_rows, MatchRate() * 100.0, output_rows, max_fanout,
      left_distinct, right_distinct,
      LooksLikeCleanNToOne() ? " [clean N:1]" : "");
}

JoinStats ComputeJoinStats(const std::vector<Table>& tables,
                           const Join& join) {
  JoinStats stats;
  const Table& left = tables[size_t(join.from.table)];
  const Table& right = tables[size_t(join.to.table)];

  // Build the PK-side multiplicity map.
  std::unordered_map<std::string, size_t> right_counts;
  std::string key;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (!TupleKey(right, join.to.columns, r, &key)) continue;
    ++stats.right_rows;
    ++right_counts[key];
  }
  stats.right_distinct = right_counts.size();

  std::unordered_map<std::string, char> left_seen;
  for (size_t r = 0; r < left.num_rows(); ++r) {
    if (!TupleKey(left, join.from.columns, r, &key)) continue;
    ++stats.left_rows;
    left_seen.emplace(key, 1);
    auto it = right_counts.find(key);
    if (it != right_counts.end()) {
      ++stats.matched_rows;
      stats.output_rows += it->second;
      stats.max_fanout = std::max(stats.max_fanout, it->second);
    }
  }
  stats.left_distinct = left_seen.size();
  return stats;
}

}  // namespace autobi
