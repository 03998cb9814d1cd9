#include "core/predict_cache.h"

#include <utility>

namespace autobi {

template <typename T>
std::shared_ptr<const T> PredictCache::Shard<T>::Find(uint64_t key) const {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses;
    return nullptr;
  }
  ++hits;
  return it->second;
}

template <typename T>
size_t PredictCache::Shard<T>::Insert(uint64_t key,
                                      std::shared_ptr<const T> entry,
                                      size_t capacity) {
  if (!map_.emplace(key, std::move(entry)).second) return 0;
  order_.push_back(key);
  size_t evicted = 0;
  while (capacity > 0 && map_.size() > capacity) {
    map_.erase(order_.front());
    order_.pop_front();
    ++evicted;
  }
  return evicted;
}

template <typename T>
void PredictCache::Shard<T>::Clear() {
  map_.clear();
  order_.clear();
}

std::shared_ptr<const PredictCache::TableEntry> PredictCache::FindTable(
    uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.Find(key);
}

void PredictCache::InsertTable(uint64_t key,
                               std::shared_ptr<const TableEntry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  evictions_ += tables_.Insert(key, std::move(entry), options_.max_table_entries);
}

std::shared_ptr<const AutoBiResult> PredictCache::FindSolve(
    uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return solves_.Find(key);
}

void PredictCache::InsertSolve(uint64_t key,
                               std::shared_ptr<const AutoBiResult> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  evictions_ += solves_.Insert(key, std::move(entry), options_.max_solve_entries);
}

std::vector<std::shared_ptr<const PredictCache::PairEntry>>
PredictCache::FindPairs(const std::vector<uint64_t>& keys) const {
  std::vector<std::shared_ptr<const PairEntry>> out;
  out.reserve(keys.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t key : keys) out.push_back(pairs_.Find(key));
  return out;
}

void PredictCache::InsertPairs(
    std::vector<std::pair<uint64_t, std::shared_ptr<const PairEntry>>>
        entries) {
  const size_t capacity = 16 * options_.max_table_entries;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries) {
    evictions_ += pairs_.Insert(key, std::move(entry), capacity);
  }
}

PredictCache::Stats PredictCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.table_hits = tables_.hits;
  s.table_misses = tables_.misses;
  s.solve_hits = solves_.hits;
  s.solve_misses = solves_.misses;
  s.pair_hits = pairs_.hits;
  s.pair_misses = pairs_.misses;
  s.table_entries = tables_.size();
  s.solve_entries = solves_.size();
  s.pair_entries = pairs_.size();
  s.evictions = evictions_;
  return s;
}

void PredictCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.Clear();
  solves_.Clear();
  pairs_.Clear();
}

}  // namespace autobi
