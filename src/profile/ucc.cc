#include "profile/ucc.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

namespace autobi {

namespace {

constexpr uint32_t kNullId = UINT32_MAX;

bool IsSubset(const std::vector<int>& small, const std::vector<int>& big) {
  // Both sorted.
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

// Exact dense value ids of one column: ids[r] in [0, num_values) numbers the
// distinct canonical keys in first-occurrence order; null cells get kNullId.
struct ValueIds {
  std::vector<uint32_t> ids;
  uint32_t num_values = 0;
};

// One pass over the view through an open-addressing table keyed by the cell
// hashes. A hash match counts only if the key bytes match too, so two keys
// that collide in 64 bits still get different ids.
ValueIds BuildValueIds(const ColumnKeyView& view) {
  struct Slot {
    uint32_t first_row;
    uint32_t id;  // kNullId marks an empty slot.
  };
  ValueIds out;
  out.ids.assign(view.size(), kNullId);
  size_t cap = 16;
  while (cap * 4 < view.num_non_null() * 5) cap <<= 1;
  const int shift = 64 - std::countr_zero(cap);
  std::vector<Slot> slots(cap, Slot{0, kNullId});
  for (size_t r = 0; r < view.size(); ++r) {
    if (view.IsNull(r)) continue;
    const uint64_t h = view.hash(r);
    size_t idx = (h * 0x9E3779B97F4A7C15ULL) >> shift;
    while (true) {
      Slot& s = slots[idx];
      if (s.id == kNullId) {
        s = Slot{static_cast<uint32_t>(r), out.num_values++};
        out.ids[r] = s.id;
        break;
      }
      if (view.hash(s.first_row) == h && view.key(r) == view.key(s.first_row)) {
        out.ids[r] = s.id;
        break;
      }
      idx = (idx + 1) & (cap - 1);
    }
  }
  return out;
}

// A stripped partition of a column set: the groups of >= 2 rows that are
// non-null in every column of the set and agree on all of them. Singleton
// classes are dropped, so the set has a duplicate iff a group exists.
struct Partition {
  std::vector<uint32_t> rows;  // Group members, group after group.
  std::vector<uint32_t> ends;  // End offset of each group in `rows`.
};

// Candidate checks of one table's lattice walk. It holds the value ids of
// the columns the walk has touched and the partitions of the current base's
// prefixes ({}, {b0}, {b0,b1}, ...): consecutive bases of a level share
// their prefixes, so moving to the next base re-derives only the groups
// past the common prefix. Extra memory is O(rows x touched columns).
class PartitionChecker {
 public:
  PartitionChecker(const Table& table, const TableKeyView* view)
      : table_(table), view_(view), ids_(table.num_columns()), prefix_(1) {
    // The empty set's partition: one group holding every row.
    prefix_[0].rows.resize(table.num_rows());
    std::iota(prefix_[0].rows.begin(), prefix_[0].rows.end(), 0u);
    prefix_[0].ends.push_back(static_cast<uint32_t>(table.num_rows()));
  }

  // True iff `cand` is unique: splitting the groups of its base (all but
  // the last column) by the last column's ids leaves no group of size >= 2,
  // and at least one row is non-null in every column of `cand`.
  bool IsUnique(const std::vector<int>& cand) {
    const size_t base_size = cand.size() - 1;
    DeriveBase(cand, base_size);
    if (HasDuplicate(prefix_[base_size], Ids(cand.back()))) return false;
    return HasNullFreeRow(cand);
  }

 private:
  const ValueIds& Ids(int c) {
    const size_t i = static_cast<size_t>(c);
    if (ids_[i].ids.empty()) {  // Not built yet (the table has rows).
      ids_[i] = view_ != nullptr
                    ? BuildValueIds(view_->column(i))
                    : BuildValueIds(ColumnKeyView(table_.column(i)));
      if (ids_[i].num_values > count_.size()) {
        count_.resize(ids_[i].num_values, 0);
        start_.resize(ids_[i].num_values, 0);
        mark_.resize(ids_[i].num_values, 0);
      }
    }
    return ids_[i];
  }

  // Makes prefix_[j] the partition of cand[0..j) for every j <= size.
  void DeriveBase(const std::vector<int>& cand, size_t size) {
    size_t keep = 0;
    while (keep < prefix_cols_.size() && keep < size &&
           prefix_cols_[keep] == cand[keep]) {
      ++keep;
    }
    prefix_cols_.resize(keep);
    if (prefix_.size() < size + 1) prefix_.resize(size + 1);
    for (size_t j = keep; j < size; ++j) {
      Refine(prefix_[j], Ids(cand[j]), &prefix_[j + 1]);
      prefix_cols_.push_back(cand[j]);
    }
  }

  // Splits every group of `in` by the ids of `v`, keeping the pieces of
  // size >= 2 (rows null in `v` leave the partition).
  void Refine(const Partition& in, const ValueIds& v, Partition* out) {
    out->rows.clear();
    out->ends.clear();
    uint32_t begin = 0;
    for (uint32_t end : in.ends) {
      touched_.clear();
      for (uint32_t k = begin; k < end; ++k) {
        const uint32_t id = v.ids[in.rows[k]];
        if (id != kNullId && count_[id]++ == 0) touched_.push_back(id);
      }
      uint32_t pos = static_cast<uint32_t>(out->rows.size());
      const uint32_t first = pos;
      for (uint32_t id : touched_) {
        if (count_[id] >= 2) {
          start_[id] = pos;
          pos += count_[id];
          out->ends.push_back(pos);
        }
      }
      if (pos != first) {
        out->rows.resize(pos);
        for (uint32_t k = begin; k < end; ++k) {
          const uint32_t r = in.rows[k];
          const uint32_t id = v.ids[r];
          if (id != kNullId && count_[id] >= 2) out->rows[start_[id]++] = r;
        }
      }
      for (uint32_t id : touched_) count_[id] = 0;
      begin = end;
    }
  }

  // True if some group of `in` holds two rows with the same non-null id.
  bool HasDuplicate(const Partition& in, const ValueIds& v) {
    uint32_t begin = 0;
    for (uint32_t end : in.ends) {
      if (++epoch_ == 0) {  // Wrapped: old marks could alias new epochs.
        std::fill(mark_.begin(), mark_.end(), 0);
        epoch_ = 1;
      }
      for (uint32_t k = begin; k < end; ++k) {
        const uint32_t id = v.ids[in.rows[k]];
        if (id == kNullId) continue;
        if (mark_[id] == epoch_) return true;
        mark_[id] = epoch_;
      }
      begin = end;
    }
    return false;
  }

  bool HasNullFreeRow(const std::vector<int>& cand) {
    std::vector<const ValueIds*> cols;
    for (int c : cand) cols.push_back(&Ids(c));
    for (size_t r = 0; r < table_.num_rows(); ++r) {
      bool null_free = true;
      for (const ValueIds* v : cols) {
        if (v->ids[r] == kNullId) {
          null_free = false;
          break;
        }
      }
      if (null_free) return true;
    }
    return false;
  }

  const Table& table_;
  const TableKeyView* view_;
  std::vector<ValueIds> ids_;
  std::vector<Partition> prefix_;
  std::vector<int> prefix_cols_;  // prefix_[j + 1] splits prefix_[j] by these.
  // Per-value scratch sized to the largest id range built so far. count_ is
  // all zero between calls; mark_ entries never exceed epoch_.
  std::vector<uint32_t> count_;
  std::vector<uint32_t> start_;
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> touched_;
};

}  // namespace

std::vector<Ucc> DiscoverUccs(const Table& table, const TableProfile& profile,
                              const UccOptions& options,
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
  if (eligible.size() < 2 || options.max_arity < 2) return result;
  PartitionChecker checker(table, view);
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
        // Counting prune (pigeonhole): the candidate has at most
        // prod(num_distinct) distinct tuples but at least
        // rows - sum(nulls) non-null-complete rows; fewer possible tuples
        // than rows forces a duplicate, so the check can be skipped without
        // changing the result.
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
        bool unique = max_tuples >= min_tuple_rows && checker.IsUnique(cand);
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

}  // namespace autobi
