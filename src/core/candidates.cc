#include "core/candidates.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/predict_cache.h"
#include "fuzz/faultpoints.h"
#include "profile/sketch.h"
#include "table/key_view.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace autobi {

namespace {

double MeanDistinctRatio(const TableProfile& profile,
                         const std::vector<int>& columns) {
  double sum = 0.0;
  for (int c : columns) sum += profile.columns[size_t(c)].distinct_ratio;
  return sum / static_cast<double>(columns.size());
}

}  // namespace

uint64_t UccOptionsFingerprint(const UccOptions& ucc) {
  uint64_t h = SplitMix64(ucc.max_arity);
  h = SplitMix64(h ^ ucc.max_candidates);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(ucc.min_distinct_ratio));
  std::memcpy(&bits, &ucc.min_distinct_ratio, sizeof(bits));
  return SplitMix64(h ^ bits);
}

namespace {

// The deduplicated candidate map of candidate generation, ordered by
// (src, dst) — std::map iteration order IS the deterministic candidate order
// the budget truncation and scoring stages see.
using CandidateMap = std::map<std::pair<ColumnRef, ColumnRef>, JoinCandidate>;

// True when a RunContext row/cell budget excludes `table` from value probing
// (the admission predicate of GenerateCandidates).
bool OverTableBudget(const Table& table, const RunContext::Budgets& budgets) {
  if (budgets.max_rows_per_table > 0 &&
      table.num_rows() > budgets.max_rows_per_table) {
    return true;
  }
  if (budgets.max_cells_per_table > 0 &&
      table.num_rows() * table.num_columns() > budgets.max_cells_per_table) {
    return true;
  }
  return false;
}

// Converts discovered INDs into deduplicated candidates in `dedup`: reverse
// containment (profile-based for unary, exact probe through
// `composite_cache` for composite), 1:1 detection + canonical orientation,
// prefer-1:1 replacement on key collision.
void AddIndCandidates(const std::vector<Ind>& inds,
                      const std::vector<Table>& tables,
                      const std::vector<TableProfile>& profiles,
                      const CandidateGenOptions& options,
                      CompositeKeyCache* composite_cache,
                      CandidateMap* dedup) {
  for (const Ind& ind : inds) {
    JoinCandidate cand;
    cand.src = ind.dependent;
    cand.dst = ind.referenced;
    cand.left_containment = ind.containment;
    // Reverse containment: cheap via profiles for unary, exact probe for
    // composite INDs (which are rare).
    if (!ind.IsComposite()) {
      cand.right_containment =
          Containment(profiles[size_t(cand.dst.table)]
                          .columns[size_t(cand.dst.columns[0])],
                      profiles[size_t(cand.src.table)]
                          .columns[size_t(cand.src.columns[0])]);
    } else {
      std::shared_ptr<const CompositeKeyCache::HashSet> referenced =
          composite_cache->Get(tables[size_t(cand.src.table)], cand.src.table,
                               cand.src.columns);
      cand.right_containment = CompositeContainment(
          tables[size_t(cand.dst.table)], cand.dst.columns, *referenced);
    }

    double src_distinct =
        MeanDistinctRatio(profiles[size_t(cand.src.table)], cand.src.columns);
    double dst_distinct =
        MeanDistinctRatio(profiles[size_t(cand.dst.table)], cand.dst.columns);
    cand.one_to_one =
        src_distinct >= options.one_to_one_distinct_ratio &&
        dst_distinct >= options.one_to_one_distinct_ratio &&
        std::min(cand.left_containment, cand.right_containment) >=
            options.one_to_one_min_containment;

    // Canonical orientation for 1:1 candidates: both IND directions fold
    // into one candidate keyed from the lower endpoint.
    if (cand.one_to_one && cand.dst < cand.src) {
      std::swap(cand.src, cand.dst);
      std::swap(cand.left_containment, cand.right_containment);
    }
    auto key = std::make_pair(cand.src, cand.dst);
    auto it = dedup->find(key);
    if (it == dedup->end()) {
      dedup->emplace(key, cand);
    } else if (cand.one_to_one && !it->second.one_to_one) {
      it->second = cand;  // Prefer the 1:1 interpretation when detected.
    }
  }
}

// Metadata-screened fallback candidates of the ordered pair (ti -> tj), added
// only when at least one side was not value-probed (probed[t] = table t has
// rows and was admitted under the RunContext table budgets).
void AddMetadataFallbackCandidates(const std::vector<Table>& tables,
                                   const std::vector<char>& probed, int ti,
                                   int tj, CandidateMap* dedup) {
  if (ti == tj) return;
  if (probed[size_t(ti)] && probed[size_t(tj)]) return;
  for (int a = 0; a < int(tables[size_t(ti)].num_columns()); ++a) {
    const std::string& src = tables[size_t(ti)].column(size_t(a)).name();
    std::string src_norm = NormalizeIdentifier(src);
    for (int b = 0; b < int(tables[size_t(tj)].num_columns()); ++b) {
      const std::string& dst = tables[size_t(tj)].column(size_t(b)).name();
      std::string aug = tables[size_t(tj)].name() + " " + dst;
      bool name_hit =
          EditSimilarity(src_norm, NormalizeIdentifier(dst)) >= 0.5 ||
          TokenContainment(TokenizeIdentifier(src),
                           TokenizeIdentifier(aug)) >= 0.99;
      bool key_shaped = b == 0 && (EndsWith(ToLower(src_norm), "id") ||
                                   EndsWith(ToLower(src_norm), "key") ||
                                   EndsWith(ToLower(src_norm), "code"));
      if (!name_hit && !key_shaped) continue;
      JoinCandidate cand;
      cand.src = ColumnRef{ti, {a}};
      cand.dst = ColumnRef{tj, {b}};
      auto key = std::make_pair(cand.src, cand.dst);
      if (!dedup->count(key)) dedup->emplace(key, cand);
    }
  }
}

// A candidate with its pair-memo score (kUnscoredCandidate: score it).
struct ScoredCandidate {
  JoinCandidate cand;
  double score;
};

// Pair-memo key of the unordered pair whose canonical tables (lower content
// hash first) have hashes (h0, h1) and admission bits (a0, a1).
uint64_t PairKey(uint64_t fingerprint, uint64_t h0, uint64_t h1, bool a0,
                 bool a1) {
  uint64_t k = SplitMix64(fingerprint ^ h0);
  k = SplitMix64(k ^ h1);
  return SplitMix64(k ^ ((uint64_t(a0) << 1) | uint64_t(a1)));
}

// Relabels a cached pair entry into the case's index order — canonical
// table 0 becomes `t0`, table 1 becomes `t1` — and appends its candidates
// to `out`. A 1:1 candidate is oriented from its lower-indexed endpoint
// (the canonical swap of AddIndCandidates); where the relabel flips that
// order it is swapped back, and because the 1:1 features read src and dst
// asymmetrically its cached score no longer applies, so it is queued for
// scoring. N:1 candidates keep their FK -> PK direction and their score.
void RemapPairEntry(const PredictCache::PairEntry& entry, int t0, int t1,
                    std::vector<ScoredCandidate>* out) {
  for (size_t k = 0; k < entry.candidates.size(); ++k) {
    ScoredCandidate item{entry.candidates[k], entry.probabilities[k]};
    JoinCandidate& cand = item.cand;
    cand.src.table = cand.src.table == 0 ? t0 : t1;
    cand.dst.table = cand.dst.table == 0 ? t0 : t1;
    if (cand.one_to_one && cand.dst < cand.src) {
      std::swap(cand.src, cand.dst);
      std::swap(cand.left_containment, cand.right_containment);
      item.score = kUnscoredCandidate;
    }
    out->push_back(std::move(item));
  }
}

}  // namespace

uint64_t CandidateOptionsFingerprint(const CandidateGenOptions& c) {
  auto mix = [](uint64_t h, uint64_t v) { return SplitMix64(h ^ v); };
  auto mix_double = [&mix](uint64_t h, double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return mix(h, bits);
  };
  uint64_t h = mix(0xCA9D1DA7E5F00D01ULL, UccOptionsFingerprint(c.ucc));
  h = mix_double(h, c.ind.min_containment);
  h = mix(h, c.ind.min_distinct);
  h = mix_double(h, c.ind.min_referenced_distinct_ratio);
  h = mix(h, c.ind.max_arity);
  h = mix(h, c.ind.max_composite_probes);
  h = mix(h, uint64_t(c.ind.blocking.enabled));
  h = mix(h, c.ind.blocking.bottom_probes);
  h = mix(h, c.ind.blocking.heavy_probes);
  h = mix(h, c.ind.blocking.probe_all_below);
  h = mix_double(h, c.ind.blocking.min_probe_fraction);
  h = mix_double(h, c.one_to_one_distinct_ratio);
  h = mix_double(h, c.one_to_one_min_containment);
  return mix(h, uint64_t(c.metadata_fallback_for_empty_tables));
}

CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const CandidateGenOptions& options,
                                const RunContext* ctx) {
  return GenerateCandidates(
      tables, HashTables(tables, ctx, /*admitted_only=*/true, options.threads),
      options, ctx, /*schema_only=*/false, /*cache=*/nullptr);
}

std::vector<uint64_t> HashTables(const std::vector<Table>& tables,
                                 const RunContext* ctx, bool admitted_only,
                                 int threads) {
  std::vector<uint64_t> hashes(tables.size(), 0);
  ParallelFor(
      tables.size(),
      [&](size_t i) {
        if (admitted_only && ctx != nullptr &&
            OverTableBudget(tables[i], ctx->budgets)) {
          return;
        }
        hashes[i] = TableContentHash(tables[i]);
      },
      threads);
  return hashes;
}

CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const std::vector<uint64_t>& table_hashes,
                                const CandidateGenOptions& options,
                                const RunContext* ctx, bool schema_only,
                                PredictCache* cache) {
  CandidateSet out;
  // A run whose context already stopped owes the caller the partial model an
  // uncached run returns, so it consults no memo.
  if (ctx != nullptr && ctx->StopRequested()) cache = nullptr;

  // Admission under RunContext table budgets: over-budget tables are
  // excluded from value probing up front (deterministically — counted, not
  // timed) and handled exactly like empty DDL tables downstream.
  std::vector<char> admitted(tables.size(), 1);
  if (ctx != nullptr) {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (OverTableBudget(tables[i], ctx->budgets)) {
        admitted[i] = 0;
        out.ucc_health.MarkDegraded(StrFormat(
            "table '%s' over row/cell budget; metadata-only profile",
            tables[i].name().c_str()));
      }
    }
  }

  // UCC stage (includes profiling, which UCC pruning needs first). Each
  // table's profile + UCC lattice search is independent, so tables fan out
  // across the pool; slot-per-table writes keep the output order fixed.
  //
  // The caller's content hashes serve two layers of reuse, both
  // byte-identical to recomputation:
  //   1. in-run dedup: a table identical to an earlier one in the same case
  //      is profiled once and copied (slot-per-table output stays intact);
  //   2. the cross-request PredictCache (`cache`), which lets a
  //      re-uploaded unchanged table skip profiling + UCC entirely.
  Timer ucc_timer;
  const size_t n = tables.size();
  out.profiles.resize(n);
  out.uccs.resize(n);
  const uint64_t ucc_fp = UccOptionsFingerprint(options.ucc);
  std::vector<uint64_t> table_keys(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (admitted[i]) table_keys[i] = SplitMix64(table_hashes[i] ^ ucc_fp);
  }
  // rep[i] = lowest index with the same content key (serial, index order).
  std::vector<size_t> rep(n);
  {
    std::unordered_map<uint64_t, size_t> first_by_key;
    first_by_key.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!admitted[i]) {
        rep[i] = i;
        continue;
      }
      auto [it, inserted] = first_by_key.emplace(table_keys[i], i);
      rep[i] = inserted ? i : it->second;
    }
  }
  // Cross-request cache lookups, serially in index order for representative
  // tables only (hit/miss counters stay deterministic).
  std::vector<std::shared_ptr<const PredictCache::TableEntry>> cached(n);
  if (cache != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (admitted[i] && rep[i] == i) {
        cached[i] = cache->FindTable(table_keys[i]);
        if (cached[i] != nullptr) ++out.profile_cache_hits;
      }
    }
  }
  std::atomic<bool> ucc_stopped{false};
  // 1 = profile + UCCs present (cached or fresh), 2 = computed this run.
  std::vector<char> profiled(n, 0);
  ParallelFor(
      n,
      [&](size_t i) {
        if (admitted[i] && rep[i] != i) return;  // Copied from rep[i] below.
        if (cached[i] != nullptr) {
          out.profiles[i] = cached[i]->profile;
          out.uccs[i] = cached[i]->uccs;
          profiled[i] = 1;
          return;
        }
        // Item-boundary stop poll: once the deadline passes or the run is
        // cancelled, remaining tables fall back to metadata-only profiles.
        if (!admitted[i] || (ctx != nullptr && ctx->StopRequested())) {
          if (admitted[i]) ucc_stopped.store(true, std::memory_order_relaxed);
          out.profiles[i] = MetadataOnlyProfile(tables[i]);
          return;
        }
        // One key view per table feeds both profiling and the UCC lattice
        // scan (arity >= 2 candidates), so canonical keys are rendered and
        // hashed exactly once per cell.
        TableKeyView view(tables[i]);
        out.profiles[i] = ProfileTable(tables[i], view);
        out.uccs[i] =
            DiscoverUccs(tables[i], out.profiles[i], options.ucc, &view);
        profiled[i] = 2;
      },
      options.threads);
  // Serial epilogue in index order: copy duplicate slots from their
  // representative and publish freshly profiled tables to the cache.
  for (size_t i = 0; i < n; ++i) {
    if (admitted[i] && rep[i] != i) {
      out.profiles[i] = out.profiles[rep[i]];
      out.uccs[i] = out.uccs[rep[i]];
      ++out.profile_dedup_hits;
      continue;
    }
    if (profiled[i] != 2) continue;
    ++out.tables_profiled;
    if (cache != nullptr) {
      auto entry = std::make_shared<PredictCache::TableEntry>();
      entry->profile = out.profiles[i];
      entry->uccs = out.uccs[i];
      cache->InsertTable(table_keys[i], std::move(entry));
    }
  }
  if (ucc_stopped.load(std::memory_order_relaxed)) {
    out.ucc_health.MarkDegraded(
        "run stopped during profiling/UCC; remaining tables metadata-only");
  }
  out.ucc_seconds = ucc_timer.Seconds();

  // Pair memo: every unordered table pair is looked up serially in index
  // order. A hit brings the pair's candidates and scores; only the pairs
  // that missed are scanned below. Without a cache (or once the run has
  // stopped) every pair is scanned.
  Timer ind_timer;
  const bool memo =
      cache != nullptr && (ctx == nullptr || !ctx->StopRequested());
  const uint64_t fp =
      SplitMix64(CandidateOptionsFingerprint(options) ^ uint64_t(schema_only));
  // Canonical order of pair (i, j): the lower content hash is table 0.
  auto i_first = [&](size_t i, size_t j) {
    return table_hashes[i] <= table_hashes[j];
  };
  std::vector<uint64_t> keys;
  std::vector<std::shared_ptr<const PredictCache::PairEntry>> hits;
  if (memo) {
    keys.reserve(n * (n - 1) / 2);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const size_t t0 = i_first(i, j) ? i : j;
        const size_t t1 = i_first(i, j) ? j : i;
        keys.push_back(PairKey(fp, table_hashes[t0], table_hashes[t1],
                               admitted[t0] != 0, admitted[t1] != 0));
      }
    }
    hits = cache->FindPairs(keys);
  }
  std::vector<std::pair<int, int>> scan;  // Unordered pairs to scan.
  std::vector<ScoredCandidate> scored;    // Reused, then merged with scans.
  size_t k = 0;
  for (int i = 0; i < int(n); ++i) {
    for (int j = i + 1; j < int(n); ++j, ++k) {
      const bool first = i_first(size_t(i), size_t(j));
      if (memo && hits[k] != nullptr) {
        RemapPairEntry(*hits[k], first ? i : j, first ? j : i, &scored);
        ++out.pairs_reused;
        continue;
      }
      scan.emplace_back(i, j);
      if (memo) out.memo_misses.push_back(MemoPair{i, j, first, keys[k]});
    }
  }
  out.pairs_scanned = scan.size();

  // IND stage. The composite-key cache is shared between discovery and the
  // reverse-containment probes below, so each referenced tuple-hash set is
  // built at most once per (table, key-columns) for the whole stage.
  IndOptions ind_options = options.ind;
  if (ind_options.threads == 0) ind_options.threads = options.threads;
  CompositeKeyCache composite_cache;
  std::vector<Ind> inds =
      out.pairs_reused == 0
          ? DiscoverInds(tables, out.profiles, out.uccs, ind_options,
                         &out.ind_stats, &composite_cache, ctx)
          : DiscoverIndsForPairs(tables, out.profiles, out.uccs, ind_options,
                                 scan, &out.ind_stats, &composite_cache, ctx);
  if (ctx != nullptr && ctx->StopRequested()) {
    // Conservative: the stop may have tripped after the last pair finished,
    // but once it is set any remaining per-pair scans returned empty.
    out.ind_health.MarkDegraded(
        "run stopped during IND discovery; remaining pairs skipped");
  }

  // Convert INDs to deduplicated candidates. Candidate keys determine their
  // unordered table pair, so the scanned pairs' map and the reused pairs'
  // candidates never collide.
  CandidateMap dedup;
  AddIndCandidates(inds, tables, out.profiles, options, &composite_cache,
                   &dedup);
  // Metadata fallback: for table pairs where a side could not be value
  // probed (no rows in DDL-only input, or excluded by a RunContext table
  // budget), screen candidate pairs by name instead so the schema-only
  // classifier can score them.
  if (options.metadata_fallback_for_empty_tables) {
    std::vector<char> probed(n, 1);
    for (size_t i = 0; i < n; ++i) {
      probed[i] = admitted[i] && tables[i].num_rows() > 0;
    }
    for (const auto& [i, j] : scan) {
      AddMetadataFallbackCandidates(tables, probed, i, j, &dedup);
      AddMetadataFallbackCandidates(tables, probed, j, i, &dedup);
    }
  }

  // The deterministic candidate order is the (src, dst) order of the dedup
  // map; reused candidates merge into it.
  for (auto& [key, cand] : dedup) {
    (void)key;
    scored.push_back(ScoredCandidate{std::move(cand), kUnscoredCandidate});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              if (!(a.cand.src == b.cand.src)) return a.cand.src < b.cand.src;
              return a.cand.dst < b.cand.dst;
            });
  out.candidates.reserve(scored.size());
  out.memo_scores.reserve(scored.size());
  for (ScoredCandidate& item : scored) {
    out.candidates.push_back(std::move(item.cand));
    out.memo_scores.push_back(item.score);
  }
  // Candidate-pair budget: deterministic truncation of the sorted (src, dst)
  // order, so the same inputs always keep the same prefix at any thread
  // count and with or without the memos.
  if (ctx != nullptr && ctx->budgets.max_candidate_pairs > 0 &&
      out.candidates.size() > ctx->budgets.max_candidate_pairs) {
    size_t dropped = out.candidates.size() - ctx->budgets.max_candidate_pairs;
    out.candidates.resize(ctx->budgets.max_candidate_pairs);
    out.ind_health.MarkDegraded(StrFormat(
        "candidate-pair budget hit: dropped %zu of %zu pairs", dropped,
        dropped + out.candidates.size()));
  }
  // Fault point: simulated resource exhaustion of the candidate stage, for
  // the end-to-end fault-injection campaign. Drops a deterministic suffix
  // and marks the stage degraded exactly like a real budget trip.
  if (FaultPoints::Global().Fire("candidates.exhausted") &&
      !out.candidates.empty()) {
    double keep = FaultPoints::Global().Fraction("candidates.exhausted");
    size_t kept = static_cast<size_t>(keep * double(out.candidates.size()));
    out.candidates.resize(kept);
    out.ind_health.MarkDegraded(
        "injected resource exhaustion in candidate generation");
  }
  out.memo_scores.resize(out.candidates.size());
  // Fold in the sets built by reverse-containment probing above.
  out.ind_stats.composite_sets_built = composite_cache.builds();
  out.ind_seconds = ind_timer.Seconds();
  return out;
}

void PublishPairEntries(const CandidateSet& set,
                        const std::vector<double>& probabilities,
                        PredictCache* cache) {
  if (cache == nullptr || set.memo_misses.empty()) return;
  const std::vector<MemoPair>& misses = set.memo_misses;  // (i, j) ascending.
  std::vector<std::shared_ptr<PredictCache::PairEntry>> built(misses.size());
  for (size_t k = 0; k < set.candidates.size(); ++k) {
    const JoinCandidate& cand = set.candidates[k];
    const int i = std::min(cand.src.table, cand.dst.table);
    const int j = std::max(cand.src.table, cand.dst.table);
    auto it = std::lower_bound(
        misses.begin(), misses.end(), std::make_pair(i, j),
        [](const MemoPair& m, const std::pair<int, int>& p) {
          return std::make_pair(m.i, m.j) < p;
        });
    if (it == misses.end() || it->i != i || it->j != j) continue;  // Reused.
    const int t0 = it->i_first ? i : j;
    std::shared_ptr<PredictCache::PairEntry>& entry =
        built[size_t(it - misses.begin())];
    if (entry == nullptr) entry = std::make_shared<PredictCache::PairEntry>();
    JoinCandidate canonical = cand;
    canonical.src.table = cand.src.table == t0 ? 0 : 1;
    canonical.dst.table = cand.dst.table == t0 ? 0 : 1;
    entry->candidates.push_back(std::move(canonical));
    entry->probabilities.push_back(probabilities[k]);
  }
  // Pairs without candidates — the vast majority on a lake — share one
  // immutable empty payload.
  static const std::shared_ptr<const PredictCache::PairEntry> kEmpty =
      std::make_shared<const PredictCache::PairEntry>();
  std::vector<std::pair<uint64_t, std::shared_ptr<const PredictCache::PairEntry>>>
      batch;
  batch.reserve(misses.size());
  for (size_t m = 0; m < misses.size(); ++m) {
    if (built[m] != nullptr) {
      batch.emplace_back(misses[m].key, std::move(built[m]));
    } else {
      batch.emplace_back(misses[m].key, kEmpty);
    }
  }
  cache->InsertPairs(std::move(batch));
}

}  // namespace autobi
