#ifndef AUTOBI_TABLE_KEY_VIEW_H_
#define AUTOBI_TABLE_KEY_VIEW_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "table/column.h"
#include "table/table.h"

namespace autobi {

// Columnar canonical-key view of a Column: every non-null cell's canonical
// key (exactly the bytes Column::KeyAt would produce), plus a parallel
// vector of stable 64-bit FNV-1a hashes of those keys (the same value
// identity as StableHash64 in profile/sketch.h, so content hashes, the EMD
// hash mapping, and PredictCache keys are unchanged). Numeric columns are
// formatted once into one contiguous arena addressed by per-row offset
// spans; string columns borrow the column's cell storage directly (their
// canonical key IS the cell), so building the view never copies a string.
//
// This is the batched representation the profiling/UCC/IND kernels run on:
// building it costs one pass over the column with zero per-cell heap
// allocations (ints and integral doubles are formatted by a bounded local
// itoa, non-integral doubles by std::to_chars — specified to emit printf
// %.12g bytes — into a stack buffer),
// after which the hot loops touch only contiguous offsets/hashes — no
// std::string materialization.
//
// Lifetime: the view of a string column borrows the column's storage, so the
// column must outlive the view. Every kernel builds its views next to the
// tables it scans, which satisfies this by construction.
class ColumnKeyView {
 public:
  ColumnKeyView() = default;
  explicit ColumnKeyView(const Column& col) { Build(col); }

  // (Re)builds the view from `col`.
  void Build(const Column& col);

  size_t size() const { return hashes_.size(); }
  // Nulls short-circuit on a flag: the common all-non-null column never
  // allocates (or reads) a null mask.
  bool IsNull(size_t i) const { return has_nulls_ && null_[i] != 0; }

  // Canonical key bytes of cell i (valid only when !IsNull(i); null cells
  // have empty spans). Byte-identical to Column::KeyAt output.
  std::string_view key(size_t i) const {
    if (col_ != nullptr) {
      return IsNull(i) ? std::string_view()
                       : std::string_view(col_->Str(i));
    }
    return std::string_view(pool_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  // StableHash64(key(i)); unspecified for null cells.
  uint64_t hash(size_t i) const { return hashes_[i]; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

  size_t num_non_null() const { return num_non_null_; }
  // Total key bytes over all non-null cells (the profiling length feature).
  size_t key_bytes() const { return key_bytes_; }

 private:
  const Column* col_ = nullptr;  // Set for string columns (borrowed keys).
  std::string pool_;
  std::vector<uint64_t> offsets_;  // size() + 1 entries into pool_.
  std::vector<uint64_t> hashes_;   // Per-row stable hash (0 for nulls).
  std::vector<uint8_t> null_;      // Empty unless has_nulls_.
  bool has_nulls_ = false;
  size_t num_non_null_ = 0;
  size_t key_bytes_ = 0;
};

// Per-column key views of a whole table, built once and shared by every
// kernel that scans the table (UCC lattice checks, composite IND probes).
class TableKeyView {
 public:
  TableKeyView() = default;
  explicit TableKeyView(const Table& table) { Build(table); }

  void Build(const Table& table);

  size_t num_columns() const { return columns_.size(); }
  const ColumnKeyView& column(size_t i) const { return columns_[i]; }

 private:
  std::vector<ColumnKeyView> columns_;
};

// One element of the sort-based aggregation kernels: a cell's stable hash
// tagged with its row index.
struct HashRow {
  uint64_t hash;
  uint32_t row;
};

// Stable sort of `items` by hash ascending: equal hashes keep their input
// order, so when items are appended in row order every equal-hash run is in
// first-occurrence order and its first element is the lowest row. One MSD
// scatter pass over the top 14 hash bits, then tiny per-bucket insertion
// sorts (std::stable_sort for the rare oversized bucket) — a single pass of
// scatter traffic instead of LSD's eight, several times faster than a
// comparison sort on the 100k-row profiling workload. `scratch` is the
// scatter buffer, resized as needed; pass the same vector across calls to
// reuse its capacity.
void StableRadixSortByHash(std::vector<HashRow>* items,
                           std::vector<HashRow>* scratch);

// Streamed composite tuple hash of row r over `cols`: byte-for-byte the
// FNV-1a of the escaped rendering "v1|v2|...|" ('|' and '\' are
// backslash-escaped inside values; tests/oracles/profile_oracle.h keeps the
// per-row Column::KeyAt form as the oracle), computed directly from the
// pooled key bytes. Returns false if any cell is null.
bool TupleHashFromViews(const std::vector<const ColumnKeyView*>& cols,
                        size_t r, uint64_t* out);

}  // namespace autobi

#endif  // AUTOBI_TABLE_KEY_VIEW_H_
