#include "tests/oracles/ucc_oracle.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>

namespace autobi {

namespace {

// Concatenates the canonical keys of `columns` at row r with an unambiguous
// separator. Returns false if any cell is null. (String-set kernel helper;
// the hash-sort kernel streams the same bytes through TupleHashFromViews.)
bool TupleKey(const Table& table, const std::vector<int>& columns, size_t r,
              std::string* out) {
  out->clear();
  std::string cell;
  for (int c : columns) {
    if (!table.column(static_cast<size_t>(c)).KeyAt(r, &cell)) return false;
    // Escape the separator so ("a|b","c") != ("a","b|c").
    for (char ch : cell) {
      if (ch == '|' || ch == '\\') out->push_back('\\');
      out->push_back(ch);
    }
    out->push_back('|');
  }
  return true;
}

bool IsSubset(const std::vector<int>& small, const std::vector<int>& big) {
  // Both sorted.
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

// True if the composite tuples of rows ra and rb are identical (span
// equality per column): the verify-on-collision step of the sort kernel.
bool TuplesEqual(const std::vector<const ColumnKeyView*>& cols, size_t ra,
                 size_t rb) {
  for (const ColumnKeyView* view : cols) {
    if (view->key(ra) != view->key(rb)) return false;
  }
  return true;
}

// Lazily-built per-column key views for the lattice scan. A prebuilt table
// view is used directly; otherwise a column's view is built on first touch.
class LazyViews {
 public:
  LazyViews(const Table& table, const TableKeyView* prebuilt)
      : table_(table), prebuilt_(prebuilt) {
    if (prebuilt_ == nullptr) own_.resize(table.num_columns());
  }

  const ColumnKeyView& Get(int c) {
    if (prebuilt_ != nullptr) return prebuilt_->column(static_cast<size_t>(c));
    auto& slot = own_[static_cast<size_t>(c)];
    if (slot == nullptr) {
      slot = std::make_unique<ColumnKeyView>(
          table_.column(static_cast<size_t>(c)));
    }
    return *slot;
  }

 private:
  const Table& table_;
  const TableKeyView* prebuilt_;
  std::vector<std::unique_ptr<ColumnKeyView>> own_;
};

// The hash-sort uniqueness kernel over prebuilt views: radix-sort the
// non-null-complete (tuple hash, row) pairs, then scan equal-hash runs. Any
// two rows in a run with equal pooled tuples are a true duplicate; unequal
// tuples in a run are a 64-bit collision and do not break uniqueness.
bool UniqueOverViews(const std::vector<const ColumnKeyView*>& cols,
                     size_t rows) {
  static thread_local std::vector<HashRow> hr;
  static thread_local std::vector<HashRow> scratch;
  hr.clear();
  hr.reserve(rows);
  uint64_t h = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (TupleHashFromViews(cols, r, &h)) {
      hr.push_back(HashRow{h, static_cast<uint32_t>(r)});
    }
  }
  if (hr.empty()) return false;
  StableRadixSortByHash(&hr, &scratch);
  for (size_t i = 0; i < hr.size();) {
    size_t j = i + 1;
    while (j < hr.size() && hr[j].hash == hr[i].hash) ++j;
    if (j - i > 1) {
      for (size_t x = i; x < j; ++x) {
        for (size_t y = x + 1; y < j; ++y) {
          if (TuplesEqual(cols, hr[x].row, hr[y].row)) return false;
        }
      }
    }
    i = j;
  }
  return true;
}

}  // namespace

bool IsUniqueCombination(const TableKeyView& view,
                         const std::vector<int>& columns) {
  std::vector<const ColumnKeyView*> cols;
  cols.reserve(columns.size());
  size_t rows = 0;
  for (int c : columns) {
    const ColumnKeyView& cv = view.column(static_cast<size_t>(c));
    cols.push_back(&cv);
    rows = cv.size();
  }
  return UniqueOverViews(cols, rows);
}

bool IsUniqueCombination(const Table& table, const std::vector<int>& columns) {
  std::vector<ColumnKeyView> storage;
  storage.reserve(columns.size());
  for (int c : columns) {
    storage.emplace_back(table.column(static_cast<size_t>(c)));
  }
  std::vector<const ColumnKeyView*> cols;
  cols.reserve(storage.size());
  for (const ColumnKeyView& v : storage) cols.push_back(&v);
  return UniqueOverViews(cols, table.num_rows());
}

bool IsUniqueCombinationLegacy(const Table& table,
                               const std::vector<int>& columns) {
  std::unordered_set<std::string> seen;
  seen.reserve(table.num_rows() * 2);
  std::string key;
  size_t non_null_rows = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!TupleKey(table, columns, r, &key)) continue;
    ++non_null_rows;
    if (!seen.insert(key).second) return false;
  }
  return non_null_rows > 0;
}

std::vector<Ucc> DiscoverUccsOracle(const Table& table,
                                    const TableProfile& profile,
                                    const UccOptions& options,
                                    UccOracleKernel kernel,
                                    const TableKeyView* view) {
  std::vector<Ucc> result;
  size_t ncols = table.num_columns();
  if (ncols == 0 || table.num_rows() == 0) return result;

  // Level 1: single columns.
  std::vector<int> eligible;
  for (size_t c = 0; c < ncols; ++c) {
    const ColumnProfile& p = profile.columns[c];
    if (p.non_null_count == 0) continue;
    if (p.distinct_ratio < options.min_distinct_ratio) continue;
    if (p.IsUnique()) {
      result.push_back(Ucc{{static_cast<int>(c)}});
    } else {
      eligible.push_back(static_cast<int>(c));
    }
  }

  // Higher levels: apriori over non-unique eligible columns; any candidate
  // containing a known UCC is non-minimal and skipped.
  LazyViews views(table, view);
  std::vector<std::vector<int>> frontier;
  for (int c : eligible) frontier.push_back({c});
  size_t checks = 0;
  for (size_t arity = 2;
       arity <= options.max_arity && !frontier.empty(); ++arity) {
    std::vector<std::vector<int>> next;
    for (const std::vector<int>& base : frontier) {
      for (int c : eligible) {
        if (c <= base.back()) continue;  // Canonical extension order.
        std::vector<int> cand = base;
        cand.push_back(c);
        // Minimality: skip if a discovered UCC is a subset.
        bool covered = false;
        for (const Ucc& u : result) {
          if (IsSubset(u.columns, cand)) {
            covered = true;
            break;
          }
        }
        if (covered) continue;
        if (++checks > options.max_candidates) return result;
        // Counting prune (pigeonhole): fewer possible tuples than
        // non-null-complete rows forces a duplicate.
        uint64_t max_tuples = 1;
        uint64_t min_tuple_rows = table.num_rows();
        for (int cc : cand) {
          const ColumnProfile& p = profile.columns[cc];
          uint64_t d = p.num_distinct;
          if (d != 0 && max_tuples > UINT64_MAX / d) {
            max_tuples = UINT64_MAX;  // Saturate; never prunes.
          } else {
            max_tuples *= d;
          }
          uint64_t nulls = p.row_count - p.non_null_count;
          min_tuple_rows = nulls >= min_tuple_rows ? 0 : min_tuple_rows - nulls;
        }
        bool unique;
        if (max_tuples < min_tuple_rows) {
          unique = false;
        } else if (kernel == UccOracleKernel::kStringSet) {
          unique = IsUniqueCombinationLegacy(table, cand);
        } else {
          std::vector<const ColumnKeyView*> cols;
          cols.reserve(cand.size());
          for (int cc : cand) cols.push_back(&views.Get(cc));
          unique = UniqueOverViews(cols, table.num_rows());
        }
        if (unique) {
          result.push_back(Ucc{cand});
        } else {
          next.push_back(std::move(cand));
        }
      }
    }
    frontier = std::move(next);
  }
  return result;
}

void AppendDuplicatedRows(Table* table) {
  const size_t n = table->num_rows();
  if (n == 0) return;
  std::vector<size_t> rows(std::max<size_t>(1, n / 50));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = (i * 7919) % n;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    Column& col = table->column(c);
    for (size_t r : rows) {
      if (col.IsNull(r)) {
        col.AppendNull();
        continue;
      }
      switch (col.type()) {
        case ValueType::kInt: col.AppendInt(col.Int(r)); break;
        case ValueType::kDouble: col.AppendDouble(col.Double(r)); break;
        default: col.AppendString(col.Str(r)); break;
      }
    }
  }
}

}  // namespace autobi
