#include "graph/kmca_cc.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "common/parallel.h"
#include "graph/edmonds.h"

namespace autobi {

namespace {

// Bound slack: a subproblem whose relaxation cannot beat the incumbent by
// more than this is cut (matches the legacy serial solver).
constexpr double kBoundEps = 1e-12;

// Finds one FK-once conflict set in `edge_ids`: a maximal group of selected
// edges sharing a source_key, of size >= 2. `out` is empty if none
// (feasible). Among multiple violated groups, picks the largest (strongest
// branching); ties go to the smallest source_key. `pairs` is caller-owned
// scratch — this runs once per search node, so it reuses flat sorted
// vectors instead of rebuilding a std::map every time.
void FindConflictSet(const JoinGraph& graph, const std::vector<int>& edge_ids,
                     std::vector<std::pair<int, int>>& pairs,
                     std::vector<int>& out) {
  out.clear();
  pairs.clear();
  pairs.reserve(edge_ids.size());
  for (int id : edge_ids) {
    pairs.emplace_back(graph.edge(id).source_key, id);
  }
  std::sort(pairs.begin(), pairs.end());
  size_t best_begin = 0;
  size_t best_len = 0;
  for (size_t i = 0; i < pairs.size();) {
    size_t j = i;
    while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
    if (j - i >= 2 && j - i > best_len) {
      best_begin = i;
      best_len = j - i;
    }
    i = j;
  }
  for (size_t i = best_begin; i < best_begin + best_len; ++i) {
    out.push_back(pairs[i].second);
  }
}

// Per-edge-id mixer (splitmix64 finalizer). Masked-set signatures are the
// SUM of mixed ids — commutative, so a child's signature derives from its
// parent's in O(1): sig(child) = sig(parent) + sum(mix(conflict)) -
// mix(kept edge). Summing unmixed ids would collide constantly
// ({1,4} vs {2,3}); summing well-mixed ids makes collisions as unlikely as
// any 64-bit hash, and true equality is still verified set-wise on bucket
// collisions.
inline uint64_t MixEdgeId(int id) {
  uint64_t x = uint64_t(uint32_t(id)) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// One open branch-and-bound subproblem. The subproblem's graph is the full
// graph minus its masked edge set — which doubles as its canonical
// memoization key: two branch orders reaching the same masked set are the
// same subproblem. The masked ids (unordered) live as a [begin, begin + len)
// span in one shared pool, so creating (and memo-rejecting) a child never
// allocates: the span is appended, keyed by its precomputed signature, and
// truncated away again on a duplicate.
struct BnbNode {
  double bound = -std::numeric_limits<double>::infinity();
  uint64_t sig = 0;
  uint32_t begin = 0;
  uint32_t len = 0;
};

// Hash/equality over node indices. The functors hold pointers to the owning
// vectors, which are stable even as the vectors' storage reallocates.
struct SpanHash {
  const std::vector<BnbNode>* nodes;
  size_t operator()(int idx) const {
    return size_t((*nodes)[size_t(idx)].sig);
  }
};

// Exact set equality via a caller-owned mark array indexed by edge id (the
// spans are unordered, and a sorted canonical form would cost an O(n log n)
// merge per child). Only runs on hash-bucket collisions.
struct SpanEq {
  const std::vector<BnbNode>* nodes;
  const std::vector<int>* pool;
  std::vector<char>* marks;  // num_edges zeros; restored before returning.
  bool operator()(int a, int b) const {
    const BnbNode& na = (*nodes)[size_t(a)];
    const BnbNode& nb = (*nodes)[size_t(b)];
    if (na.len != nb.len) return false;
    const std::vector<int>& p = *pool;
    std::vector<char>& m = *marks;
    for (uint32_t i = na.begin; i < na.begin + na.len; ++i) m[p[i]] = 1;
    bool equal = true;
    for (uint32_t i = nb.begin; i < nb.begin + nb.len; ++i) {
      if (!m[p[i]]) {
        equal = false;
        break;
      }
    }
    for (uint32_t i = na.begin; i < na.begin + na.len; ++i) m[p[i]] = 0;
    return equal;
  }
};

// Priority-queue item: (lower bound, creation seq, node index). Min-heap on
// (bound, seq) — best-first, with creation order as the deterministic
// tie-break.
using OpenItem = std::tuple<double, long, int>;

// Budget-exhausted fallback: the unconstrained relaxation thinned to one
// edge per conflict group (cheapest wins, ties to the lowest id): dropping
// edges from a k-arborescence cannot create cycles or in-degree > 1, so the
// result always satisfies both Definition 3 and FK-once — suboptimal, but a
// usable model instead of an empty one. Costs one extra 1-MCA call.
void GreedyThinnedFallback(const JoinGraph& graph,
                           const KmcaCcOptions& options, KmcaCcStats* stats,
                           double* best_cost, std::vector<int>* best_edges) {
  KmcaResult relaxed =
      SolveKmca(graph, options.penalty_weight, {}, &stats->one_mca_calls);
  // Flat (source_key, weight, id) triples sorted once: the first entry of
  // each source_key run is that group's cheapest (lowest-id on ties) edge.
  std::vector<std::tuple<int, double, int>> by_key;
  by_key.reserve(relaxed.edge_ids.size());
  for (int id : relaxed.edge_ids) {
    const JoinEdge& e = graph.edge(id);
    by_key.emplace_back(e.source_key, e.weight, id);
  }
  std::sort(by_key.begin(), by_key.end());
  best_edges->clear();
  for (size_t i = 0; i < by_key.size(); ++i) {
    if (i == 0 || std::get<0>(by_key[i]) != std::get<0>(by_key[i - 1])) {
      best_edges->push_back(std::get<2>(by_key[i]));
    }
  }
  std::sort(best_edges->begin(), best_edges->end());
  *best_cost = KArborescenceCost(graph, *best_edges, options.penalty_weight);
}

}  // namespace

bool SatisfiesFkOnce(const JoinGraph& graph,
                     const std::vector<int>& edge_ids) {
  // Sorted-keys duplicate scan: O(m log m) instead of the old O(m^2)
  // std::find over a growing vector.
  std::vector<int> keys;
  keys.reserve(edge_ids.size());
  for (int id : edge_ids) keys.push_back(graph.edge(id).source_key);
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

KmcaResult SolveKmcaCc(const JoinGraph& graph, const KmcaCcOptions& options,
                       KmcaCcStats* stats) {
  KmcaCcStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = KmcaCcStats{};

  if (!options.enforce_fk_once) {
    // Ablation: plain k-MCA.
    return SolveKmca(graph, options.penalty_weight, {},
                     &stats->one_mca_calls);
  }
  if (graph.num_vertices() == 0) {
    KmcaResult empty;
    empty.feasible = true;
    return empty;
  }

  // The augmented arc array is materialized once and shared read-only by
  // every search node; nodes differ only in their edge mask.
  const KmcaInstance inst = BuildKmcaInstance(graph, options.penalty_weight);
  const size_t num_edges = graph.num_edges();

  // Per-slot scratch for the parallel relaxation phase: one Edmonds arena
  // and one mask buffer per concurrent solve. The slot count is capped by
  // the wave batch, never the other way around — the search shape is
  // independent of the thread count.
  const int slots = std::max(
      1, std::min(ResolveThreads(options.threads), kKmcaCcWaveBatch));
  std::vector<EdmondsWorkspace> workspaces(static_cast<size_t>(slots));
  std::vector<std::vector<char>> slot_masks(
      size_t(slots), std::vector<char>(num_edges, 1));
  std::vector<KmcaResult> results(static_cast<size_t>(kKmcaCcWaveBatch));

  std::vector<BnbNode> nodes;
  std::vector<int> mask_pool;  // Concatenated masked-id spans of all nodes.
  std::priority_queue<OpenItem, std::vector<OpenItem>, std::greater<OpenItem>>
      open;
  std::vector<char> eq_marks(num_edges, 0);
  std::unordered_set<int, SpanHash, SpanEq> memo(
      /*bucket_count=*/64, SpanHash{&nodes},
      SpanEq{&nodes, &mask_pool, &eq_marks});

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_edges;
  bool have_best = false;

  long next_seq = 0;
  nodes.push_back(BnbNode{});
  memo.insert(0);
  open.emplace(nodes.back().bound, next_seq++, 0);

  std::vector<int> wave;
  std::vector<std::pair<int, int>> conflict_scratch;
  std::vector<int> conflict;
  std::vector<std::pair<double, int>> keep_order;
  std::vector<int> parent_masked;

  while (!open.empty()) {
    // --- Wave formation (serial): pop best-first by (bound, seq), cutting
    // subproblems that can no longer beat the incumbent and charging the
    // 1-MCA budget in deterministic order.
    wave.clear();
    while (!open.empty() &&
           static_cast<int>(wave.size()) < kKmcaCcWaveBatch) {
      const auto& [bound, seq, idx] = open.top();
      if (have_best && bound >= best_cost - kBoundEps) {
        ++stats->pruned;
        open.pop();
        continue;
      }
      if (stats->one_mca_calls >= options.max_one_mca_calls) {
        stats->budget_exhausted = true;
        break;
      }
      ++stats->one_mca_calls;
      wave.push_back(idx);
      open.pop();
    }
    if (wave.empty()) break;
    ++stats->waves;

    // --- Parallel phase: each slot materializes node masks into its own
    // buffer and solves relaxations into per-node result slots. Pure
    // function evaluation — all decisions happen serially below, so results
    // and stats are bit-identical at any thread count.
    const size_t wave_n = wave.size();
    const size_t chunks = std::min(size_t(slots), wave_n);
    ParallelFor(
        chunks,
        [&](size_t c) {
          std::vector<char>& mask = slot_masks[c];
          EdmondsWorkspace& ws = workspaces[c];
          for (size_t w = wave_n * c / chunks; w < wave_n * (c + 1) / chunks;
               ++w) {
            const BnbNode& node = nodes[size_t(wave[w])];
            std::fill(mask.begin(), mask.end(), 1);
            for (uint32_t i = node.begin; i < node.begin + node.len; ++i) {
              mask[size_t(mask_pool[i])] = 0;
            }
            SolveKmcaOverInstance(graph, inst,
                                  num_edges > 0 ? mask.data() : nullptr,
                                  options.penalty_weight, ws, &results[w]);
          }
        },
        options.threads);

    // --- Serial phase, in wave order: bound test, feasibility, incumbent
    // merge, and memoized child creation.
    for (size_t w = 0; w < wave_n; ++w) {
      ++stats->nodes;
      const KmcaResult& relaxed = results[w];
      if (have_best && relaxed.cost >= best_cost - kBoundEps) {
        ++stats->pruned;
        continue;
      }
      FindConflictSet(graph, relaxed.edge_ids, conflict_scratch, conflict);
      if (conflict.empty()) {
        // Deterministic incumbent merge: lexicographically smallest
        // (cost, edge_ids) among explored feasible leaves wins.
        if (!have_best || relaxed.cost < best_cost ||
            (relaxed.cost == best_cost && relaxed.edge_ids < best_edges)) {
          best_cost = relaxed.cost;
          best_edges = relaxed.edge_ids;
          have_best = true;
        }
        continue;
      }

      // Branch: keep exactly one edge of the conflict set per child. (A
      // solution using none of them remains feasible in every child, so no
      // optimum is lost; see Theorem 4.) Children are created cheapest kept
      // edge first — among equal bounds the best-first queue then explores
      // the most promising subtree first, giving a strong incumbent early.
      keep_order.clear();
      for (int id : conflict) {
        keep_order.emplace_back(graph.edge(id).weight, id);
      }
      std::sort(keep_order.begin(), keep_order.end());

      // Appending a child's span may reallocate the pool while the parent's
      // span is being read, so copy the parent span to scratch once (the
      // buffer is reused across nodes — no steady-state allocation). The
      // signature of "parent + whole conflict set" is shared by all
      // children; each child then subtracts its kept edge in O(1).
      const BnbNode parent = nodes[size_t(wave[w])];
      parent_masked.assign(
          mask_pool.begin() + parent.begin,
          mask_pool.begin() + parent.begin + parent.len);
      uint64_t all_sig = parent.sig;
      for (int id : conflict) all_sig += MixEdgeId(id);
      for (const auto& [weight, keep] : keep_order) {
        (void)weight;
        // Child masked set = parent's masked set + (conflict \ keep),
        // appended to the pool (conflict edges are unmasked in the parent,
        // so the union is disjoint; spans are unordered by design).
        const uint32_t begin = static_cast<uint32_t>(mask_pool.size());
        mask_pool.insert(mask_pool.end(), parent_masked.begin(),
                         parent_masked.end());
        for (int id : conflict) {
          if (id != keep) mask_pool.push_back(id);
        }
        const int child_idx = static_cast<int>(nodes.size());
        nodes.push_back(BnbNode{
            relaxed.cost, all_sig - MixEdgeId(keep), begin,
            static_cast<uint32_t>(mask_pool.size()) - begin});
        if (!memo.insert(child_idx).second) {
          // Same subproblem reached via another branch order: roll the
          // provisional span back off the pool.
          ++stats->memo_hits;
          nodes.pop_back();
          mask_pool.resize(begin);
          continue;
        }
        open.emplace(relaxed.cost, next_seq++, child_idx);
      }
    }
    if (stats->budget_exhausted) break;
  }

  if (!have_best) {
    // Budget exhausted before any feasible leaf was reached.
    GreedyThinnedFallback(graph, options, stats, &best_cost, &best_edges);
  }
  KmcaResult result;
  result.edge_ids = std::move(best_edges);
  result.cost = best_cost;
  result.k = graph.num_vertices() - static_cast<int>(result.edge_ids.size());
  result.feasible = true;
  return result;
}

double EstimateBruteForceKmcaCalls(int num_vertices) {
  // sum_k S(n,k) * k, with Stirling-second-kind recurrence in doubles
  // (saturates at +inf for very large n, which is fine on a log-scale plot).
  int n = num_vertices;
  if (n <= 0) return 0.0;
  std::vector<double> prev(static_cast<size_t>(n) + 1, 0.0);
  prev[0] = 1.0;  // S(0,0) = 1.
  for (int row = 1; row <= n; ++row) {
    std::vector<double> cur(static_cast<size_t>(n) + 1, 0.0);
    for (int k = 1; k <= row; ++k) {
      cur[size_t(k)] = prev[size_t(k - 1)] + double(k) * prev[size_t(k)];
    }
    prev = std::move(cur);
  }
  double total = 0.0;
  for (int k = 1; k <= n; ++k) total += prev[size_t(k)] * double(k);
  return total;
}

double EstimateUnprunedBranchCalls(const JoinGraph& graph) {
  // Only edges with probability >= 0.5 can ever appear in a k-MCA
  // relaxation (cheaper to drop them than to pay the virtual-edge penalty),
  // so exhaustive branching enumerates one choice per conflict group among
  // those edges.
  std::map<int, long> group_sizes;
  for (const JoinEdge& e : graph.edges()) {
    if (e.probability >= 0.5) ++group_sizes[e.source_key];
  }
  double product = 1.0;
  for (const auto& [key, size] : group_sizes) {
    (void)key;
    if (size >= 2) product *= double(size);
  }
  return product;
}

}  // namespace autobi
