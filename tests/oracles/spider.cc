#include "tests/oracles/spider.h"

#include <algorithm>
#include <queue>
#include <string>

namespace autobi {

namespace {

// One column's sorted distinct-value stream.
struct Stream {
  int table = -1;
  int column = -1;
  std::vector<std::string> values;  // Sorted ascending, distinct.
  size_t pos = 0;
};

// Fixed-width bitset over column indices.
class ColumnSet {
 public:
  explicit ColumnSet(size_t n, bool ones)
      : words_((n + 63) / 64, ones ? ~uint64_t{0} : 0), size_(n) {
    if (ones && n % 64 != 0) {
      words_.back() = (uint64_t{1} << (n % 64)) - 1;
    }
  }
  void Set(size_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }
  bool Test(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  void IntersectWith(const ColumnSet& o) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
  }
  size_t size() const { return size_; }

 private:
  std::vector<uint64_t> words_;
  size_t size_;
};

}  // namespace

std::vector<SpiderInd> DiscoverExactIndsSpider(
    const std::vector<Table>& tables) {
  // Materialize sorted distinct streams for every column.
  std::vector<Stream> streams;
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t].num_columns(); ++c) {
      Stream s;
      s.table = int(t);
      s.column = int(c);
      s.values = tables[t].column(c).Keys();
      std::sort(s.values.begin(), s.values.end());
      s.values.erase(std::unique(s.values.begin(), s.values.end()),
                     s.values.end());
      if (!s.values.empty()) streams.push_back(std::move(s));
    }
  }
  size_t n = streams.size();
  if (n == 0) return {};

  // refs[i]: columns that (so far) contain every value of stream i.
  std::vector<ColumnSet> refs(n, ColumnSet(n, true));

  // Min-heap over (current value, stream index).
  auto cmp = [&](size_t a, size_t b) {
    return streams[a].values[streams[a].pos] >
           streams[b].values[streams[b].pos];
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < n; ++i) heap.push(i);

  std::vector<size_t> group;
  while (!heap.empty()) {
    group.clear();
    const std::string value =
        streams[heap.top()].values[streams[heap.top()].pos];
    while (!heap.empty() &&
           streams[heap.top()].values[streams[heap.top()].pos] == value) {
      group.push_back(heap.top());
      heap.pop();
    }
    // Every stream holding `value`: its referenced-candidates shrink to the
    // group (anything outside the group lacks this value).
    ColumnSet group_set(n, false);
    for (size_t i : group) group_set.Set(i);
    for (size_t i : group) {
      refs[i].IntersectWith(group_set);
      if (++streams[i].pos < streams[i].values.size()) heap.push(i);
    }
  }

  std::vector<SpiderInd> result;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j || !refs[i].Test(j)) continue;
      if (streams[i].table == streams[j].table) continue;
      SpiderInd ind;
      ind.dependent = ColumnRef{streams[i].table, {streams[i].column}};
      ind.referenced = ColumnRef{streams[j].table, {streams[j].column}};
      result.push_back(ind);
    }
  }
  return result;
}

}  // namespace autobi
