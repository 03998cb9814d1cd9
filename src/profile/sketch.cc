#include "profile/sketch.h"

namespace autobi {

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

// Content hash of a column: a digest of its cells, then its name folded
// around it.
uint64_t ColumnContentHash(const Column& column) {
  uint64_t cells = 1469598103934665603ULL;
  MixColumnCells(cells, column);
  uint64_t h = 1469598103934665603ULL;
  MixBytes(h, column.name().data(), column.name().size());
  MixByte(h, 0);  // Name/content separator.
  MixU64(h, SplitMix64(cells));
  return SplitMix64(h);
}

}  // namespace

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

}  // namespace autobi
