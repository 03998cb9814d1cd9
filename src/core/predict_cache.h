#ifndef AUTOBI_CORE_PREDICT_CACHE_H_
#define AUTOBI_CORE_PREDICT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/auto_bi.h"
#include "profile/column_profile.h"
#include "profile/ucc.h"

namespace autobi {

// Cross-request caches for the prediction pipeline, keyed by content hash
// (profile/sketch.h). A PredictCache outlives individual Predict calls: the
// serving layer (src/serve/) shares one instance across sessions and
// requests. It holds three memos, one per reusable stage output:
//   - table entries: a table's profile + UCCs, so an unchanged table skips
//     profiling — the UCC/profiling stage is the dominant latency component
//     (Figure 5(b));
//   - pair entries: an unordered table pair's deduplicated join candidates
//     and their calibrated scores, so an unchanged pair skips IND discovery
//     and local inference — after a one-table change only the pairs that
//     touch the changed table are re-scanned;
//   - solve entries: a whole healthy result, so an entirely unchanged case
//     skips the pipeline.
// Every key is a content hash, so reuse works across sessions and across
// concurrent requests; there is no per-session state.
//
// Correctness contract (see SERVING.md, "Cache keying & invalidation"):
//   - Keys are pure functions of the input bytes plus the relevant option
//     fingerprint, so a hit returns exactly what recomputation would have
//     produced (modulo 64-bit hash collisions, probability ~ n^2 / 2^64).
//     Warm results are bit-identical to cold ones; tests/serve_test.cc pins
//     this and bench_serve measures the speedup.
//   - Entries are immutable once inserted (shared_ptr<const T>), so lookups
//     need no copy and hits can be shared across concurrent requests.
//   - Only healthy (non-degraded) results are cached: a run tripped by a
//     deadline/cancel is time-dependent and never populates either cache.
//     Deterministic budgets are part of the key instead.
//   - Capacity-bounded: eviction is FIFO by insertion order (cheap, and
//     admission order is deterministic enough for an LRU-shaped workload).
//     The pair shard holds 16 x max_table_entries entries: one 256-table
//     session has 32,640 table pairs, so the default bounds two of them.
//   - The scores in pair entries and the solve entries come from the
//     LocalModel of the predictor that produced them: share one cache only
//     between predictors over the same model.
//
// Thread safety: all methods may be called concurrently.
class PredictCache {
 public:
  // Profiling output of one table under one UccOptions fingerprint.
  struct TableEntry {
    TableProfile profile;
    std::vector<Ucc> uccs;
  };

  // Candidate generation + scoring output of one unordered table pair
  // (core/candidates.h). Table ids are canonical — 0 is the table with the
  // lower content hash, 1 the other — and each 1:1 candidate keeps the
  // orientation it was scored in; lookups relabel them into the case's
  // index order (and rescore 1:1 candidates whose orientation flips).
  struct PairEntry {
    std::vector<JoinCandidate> candidates;
    std::vector<double> probabilities;
  };

  struct Stats {
    size_t table_hits = 0;
    size_t table_misses = 0;
    size_t solve_hits = 0;
    size_t solve_misses = 0;
    size_t pair_hits = 0;
    size_t pair_misses = 0;
    size_t table_entries = 0;
    size_t solve_entries = 0;
    size_t pair_entries = 0;
    size_t evictions = 0;
  };

  struct Options {
    size_t max_table_entries = 4096;
    size_t max_solve_entries = 512;
  };

  PredictCache() = default;
  explicit PredictCache(Options options) : options_(options) {}
  PredictCache(const PredictCache&) = delete;
  PredictCache& operator=(const PredictCache&) = delete;

  // --- Table-profile cache. `key` = TableContentHash ⊕ UccOptions
  // fingerprint (the caller mixes them; see candidates.cc).
  std::shared_ptr<const TableEntry> FindTable(uint64_t key) const;
  void InsertTable(uint64_t key, std::shared_ptr<const TableEntry> entry);

  // --- Pair memo. `key` = both tables' TableContentHash (sorted) ⊕ the
  // candidate/scoring fingerprint ⊕ their admission under the run's budgets
  // (see candidates.cc). Batched: one lock per call; lookups count one hit
  // or miss per key, in key order.
  std::vector<std::shared_ptr<const PairEntry>> FindPairs(
      const std::vector<uint64_t>& keys) const;
  void InsertPairs(
      std::vector<std::pair<uint64_t, std::shared_ptr<const PairEntry>>>
          entries);

  // --- Solve memo. `key` = TablesContentHash ⊕ AutoBiOptions/budget
  // fingerprint (see auto_bi.cc). An entry is a healthy result with its
  // timings and reuse counters zeroed: those describe the producing run, and
  // a hit reports its own.
  std::shared_ptr<const AutoBiResult> FindSolve(uint64_t key) const;
  void InsertSolve(uint64_t key, std::shared_ptr<const AutoBiResult> entry);

  Stats GetStats() const;
  void Clear();

 private:
  // One memo: a map from key to entry plus the FIFO queue of its keys.
  template <typename T>
  class Shard {
   public:
    // Counts a hit or a miss.
    std::shared_ptr<const T> Find(uint64_t key) const;
    // Inserts unless `key` is present (first writer wins; entries are
    // deterministic), evicting the oldest entries to stay within
    // `capacity` (0 = unbounded). Returns the number evicted.
    size_t Insert(uint64_t key, std::shared_ptr<const T> entry,
                  size_t capacity);
    size_t size() const { return map_.size(); }
    void Clear();

    mutable size_t hits = 0;
    mutable size_t misses = 0;

   private:
    std::unordered_map<uint64_t, std::shared_ptr<const T>> map_;
    std::deque<uint64_t> order_;  // Every key in map_ once, oldest first.
  };

  Options options_;
  mutable std::mutex mu_;
  Shard<TableEntry> tables_;
  Shard<AutoBiResult> solves_;
  Shard<PairEntry> pairs_;
  size_t evictions_ = 0;
};

}  // namespace autobi

#endif  // AUTOBI_CORE_PREDICT_CACHE_H_
