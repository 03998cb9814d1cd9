#include "profile/sketch.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace autobi {

SortedHashCounts BuildSortedHashCounts(
    const std::unordered_map<std::string, int32_t>& distinct) {
  std::vector<std::pair<uint64_t, int32_t>> entries;
  entries.reserve(distinct.size());
  for (const auto& [key, count] : distinct) {
    entries.emplace_back(StableHash64(key), count);
  }
  std::sort(entries.begin(), entries.end());
  SortedHashCounts out;
  out.hashes.reserve(entries.size());
  out.counts.reserve(entries.size());
  for (const auto& [hash, count] : entries) {
    if (!out.hashes.empty() && out.hashes.back() == hash) {
      // In-column 64-bit collision: merge so the vector stays strictly
      // increasing. Astronomically rare; counts stay row-weight-correct.
      out.counts.back() += count;
    } else {
      out.hashes.push_back(hash);
      out.counts.push_back(count);
    }
  }
  return out;
}

KmvEstimate EstimateContainment(const std::vector<uint64_t>& a_hashes,
                                const std::vector<int32_t>& a_counts,
                                const std::vector<uint64_t>& b_hashes,
                                size_t k) {
  KmvEstimate est;
  if (a_hashes.empty() || k == 0) return est;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t ta = a_hashes.size() > k ? a_hashes[k - 1] : kMax;
  uint64_t tb = b_hashes.size() > k ? b_hashes[k - 1] : kMax;
  uint64_t tau = std::min(ta, tb);
  // Both distinct sets are fully enumerated in [0, tau]; sorted merge over
  // that prefix (at most k entries per side).
  int64_t total = 0;
  int64_t hits = 0;
  size_t j = 0;
  for (size_t i = 0; i < a_hashes.size() && a_hashes[i] <= tau; ++i) {
    ++est.sample;
    total += a_counts[i];
    while (j < b_hashes.size() && b_hashes[j] < a_hashes[i]) ++j;
    if (j < b_hashes.size() && b_hashes[j] == a_hashes[i]) hits += a_counts[i];
  }
  if (total > 0) {
    est.containment = static_cast<double>(hits) / static_cast<double>(total);
  }
  return est;
}

namespace {

// FNV-1a accumulation helpers for the content hashes. Byte-exact and
// allocation-free: numeric cells hash their binary representation, string
// cells their bytes, and a per-cell tag separates null/int/double/string so
// "" and null (or 3 and "3") never alias.
inline void MixByte(uint64_t& h, unsigned char c) {
  h ^= c;
  h *= 1099511628211ULL;
}

inline void MixBytes(uint64_t& h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) MixByte(h, p[i]);
}

inline void MixU64(uint64_t& h, uint64_t v) { MixBytes(h, &v, sizeof(v)); }

// The cell stream of a column: declared type, cell count, then each cell
// with its null/int/double/string tag.
inline void MixColumnCells(uint64_t& h, const Column& column) {
  const size_t rows = column.size();
  MixU64(h, uint64_t(column.type()));
  MixU64(h, rows);
  for (size_t r = 0; r < rows; ++r) {
    if (column.IsNull(r)) {
      MixByte(h, 0);
      continue;
    }
    switch (column.type()) {
      case ValueType::kInt: {
        MixByte(h, 1);
        MixU64(h, uint64_t(column.Int(r)));
        break;
      }
      case ValueType::kDouble: {
        MixByte(h, 2);
        double d = column.Double(r);
        MixBytes(h, &d, sizeof(d));
        break;
      }
      case ValueType::kString: {
        const std::string& s = column.Str(r);
        MixByte(h, 3);
        MixU64(h, s.size());
        MixBytes(h, s.data(), s.size());
        break;
      }
      case ValueType::kNull:
        MixByte(h, 0);
        break;
    }
  }
}

}  // namespace

uint64_t ColumnContentHash(const Column& column) {
  // A digest of the cells, then the name folded around it.
  uint64_t cells = 1469598103934665603ULL;
  MixColumnCells(cells, column);
  uint64_t h = 1469598103934665603ULL;
  MixBytes(h, column.name().data(), column.name().size());
  MixByte(h, 0);  // Name/content separator.
  MixU64(h, SplitMix64(cells));
  return SplitMix64(h);
}

uint64_t TableContentHash(const Table& table) {
  uint64_t h = 1469598103934665603ULL;
  MixBytes(h, table.name().data(), table.name().size());
  MixByte(h, 0);
  MixU64(h, table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    MixU64(h, ColumnContentHash(table.column(c)));
  }
  return SplitMix64(h);
}

uint64_t TablesContentHash(const std::vector<Table>& tables) {
  std::vector<uint64_t> hashes;
  hashes.reserve(tables.size());
  for (const Table& t : tables) hashes.push_back(TableContentHash(t));
  return TablesContentHashFromHashes(hashes);
}

uint64_t TablesContentHashFromHashes(
    const std::vector<uint64_t>& table_hashes) {
  uint64_t h = 1469598103934665603ULL;
  MixU64(h, table_hashes.size());
  for (uint64_t th : table_hashes) MixU64(h, th);
  return SplitMix64(h);
}

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

}  // namespace autobi
