#include "tests/fuzz/generator.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "graph/kmca.h"

namespace autobi {

namespace {

// Quantized probabilities for exact weight ties: any two edges drawing the
// same value get bit-identical weights (-log of the same double).
constexpr double kTieProbs[] = {0.25, 0.5, 0.75, 0.9};

double DrawProbability(const JoinGraphGenOptions& opt, Rng& rng) {
  if (rng.NextBool(opt.tie_prob)) {
    return kTieProbs[rng.NextBelow(std::size(kTieProbs))];
  }
  return rng.NextDouble(opt.min_probability, opt.max_probability);
}

int DrawEdgeCount(int min_edges, int max_edges, double skew, Rng& rng) {
  int span = max_edges - min_edges + 1;
  double u = rng.NextDouble();
  int m = min_edges + int(std::pow(u, skew) * span);
  return std::min(m, max_edges);
}

}  // namespace

JoinGraphInstance GenJoinGraph(const JoinGraphGenOptions& opt, Rng& rng) {
  JoinGraphInstance instance;
  int n = int(rng.NextInt(opt.min_vertices, opt.max_vertices));
  JoinGraph& g = instance.graph;
  g.set_num_vertices(n);

  // Partition vertices into blocks; edges mostly stay inside their block.
  int num_blocks = 1 + int(rng.NextBelow(uint64_t(opt.max_blocks)));
  std::vector<int> block(static_cast<size_t>(n));
  std::vector<std::vector<int>> members(static_cast<size_t>(num_blocks));
  for (int v = 0; v < n; ++v) {
    block[size_t(v)] = int(rng.NextBelow(uint64_t(num_blocks)));
    members[size_t(block[size_t(v)])].push_back(v);
  }

  auto pick_dst = [&](int src) {
    // Same-block destination unless the cross-block knob fires (or the
    // block has no other member).
    const std::vector<int>& home = members[size_t(block[size_t(src)])];
    if (home.size() >= 2 && !rng.NextBool(opt.cross_block_prob)) {
      for (int tries = 0; tries < 8; ++tries) {
        int v = home[rng.NextBelow(home.size())];
        if (v != src) return v;
      }
    }
    for (;;) {
      int v = int(rng.NextBelow(uint64_t(n)));
      if (v != src) return v;
    }
  };

  int target = DrawEdgeCount(opt.min_edges, opt.max_edges, opt.edge_skew, rng);
  int attempts = 0;
  while (int(g.num_edges()) < target && attempts < 10 * target + 32) {
    ++attempts;
    int remaining = target - int(g.num_edges());
    if (remaining >= 2 && n >= 2 && rng.NextBool(opt.one_to_one_prob)) {
      int a = int(rng.NextBelow(uint64_t(n)));
      int b = pick_dst(a);
      g.AddOneToOneEdge(a, b, {int(rng.NextBelow(4))},
                        {int(rng.NextBelow(4))}, DrawProbability(opt, rng));
      continue;
    }
    if (g.num_edges() > 0 && rng.NextBool(opt.parallel_edge_prob)) {
      // Duplicate an existing (src, dst) pair; reusing the source columns
      // too makes it simultaneously a conflict-group member.
      const JoinEdge& e = g.edge(int(rng.NextBelow(g.num_edges())));
      std::vector<int> cols =
          rng.NextBool(0.5) ? e.src_columns
                            : std::vector<int>{int(rng.NextBelow(4))};
      g.AddEdge(e.src, e.dst, std::move(cols), {int(rng.NextBelow(2))},
                DrawProbability(opt, rng));
      continue;
    }
    if (g.num_edges() > 0 && rng.NextBool(opt.conflict_density)) {
      // Grow an FK-once conflict group: same source vertex and columns,
      // (usually) different destination.
      const JoinEdge& e = g.edge(int(rng.NextBelow(g.num_edges())));
      int dst = pick_dst(e.src);
      g.AddEdge(e.src, dst, e.src_columns, {int(rng.NextBelow(2))},
                DrawProbability(opt, rng));
      continue;
    }
    int src = int(rng.NextBelow(uint64_t(n)));
    int dst = pick_dst(src);
    g.AddEdge(src, dst, {int(rng.NextBelow(4))}, {int(rng.NextBelow(2))},
              DrawProbability(opt, rng));
  }

  instance.penalty_weight = rng.NextBool(0.3)
                                ? DefaultPenaltyWeight()
                                : rng.NextDouble(opt.min_penalty,
                                                 opt.max_penalty);
  return instance;
}

ArcInstance GenArcInstance(const ArcGenOptions& opt, Rng& rng) {
  ArcInstance instance;
  int n = int(rng.NextInt(opt.min_vertices, opt.max_vertices));
  instance.num_vertices = n;
  instance.root = int(rng.NextBelow(uint64_t(n)));
  int m = int(rng.NextInt(opt.min_arcs, opt.max_arcs));
  for (int i = 0; i < m; ++i) {
    if (!instance.arcs.empty() && rng.NextBool(opt.duplicate_arc_prob)) {
      Arc dup = instance.arcs[rng.NextBelow(instance.arcs.size())];
      if (rng.NextBool(0.5)) {
        // Same endpoints, new weight: a parallel arc.
        dup.weight = rng.NextDouble(opt.min_weight, opt.max_weight);
      }
      instance.arcs.push_back(dup);
      continue;
    }
    Arc a;
    a.src = int(rng.NextBelow(uint64_t(n)));
    a.dst = rng.NextBool(opt.self_loop_prob)
                ? a.src
                : int(rng.NextBelow(uint64_t(n)));
    if (rng.NextBool(opt.tie_prob)) {
      constexpr double kTieWeights[] = {-2.0, -1.0, 0.0, 0.5, 1.0, 2.0};
      a.weight = kTieWeights[rng.NextBelow(std::size(kTieWeights))];
    } else {
      a.weight = rng.NextDouble(opt.min_weight, opt.max_weight);
    }
    instance.arcs.push_back(a);
  }
  return instance;
}

std::string FormatArcInstance(const ArcInstance& instance) {
  std::string out = StrFormat("n=%d root=%d arcs=[", instance.num_vertices,
                              instance.root);
  for (const Arc& a : instance.arcs) {
    out += StrFormat("(%d->%d w=%.17g) ", a.src, a.dst, a.weight);
  }
  out += "]";
  return out;
}

}  // namespace autobi
