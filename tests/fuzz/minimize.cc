#include "tests/fuzz/minimize.h"

#include <vector>

namespace autobi {

JoinGraph RemoveEdge(const JoinGraph& g, int edge_id) {
  JoinGraph out(g.num_vertices());
  for (const JoinEdge& e : g.edges()) {
    if (e.id == edge_id) continue;
    out.AddEdge(e.src, e.dst, e.src_columns, e.dst_columns, e.probability,
                e.one_to_one, e.pair_id);
  }
  return out;
}

JoinGraph CompactVertices(const JoinGraph& g) {
  std::vector<char> used(size_t(g.num_vertices()), 0);
  for (const JoinEdge& e : g.edges()) {
    used[size_t(e.src)] = 1;
    used[size_t(e.dst)] = 1;
  }
  std::vector<int> remap(size_t(g.num_vertices()), -1);
  int next = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (used[size_t(v)]) remap[size_t(v)] = next++;
  }
  if (next == 0) next = 1;  // Keep at least one vertex.
  JoinGraph out(next);
  for (const JoinEdge& e : g.edges()) {
    out.AddEdge(remap[size_t(e.src)], remap[size_t(e.dst)], e.src_columns,
                e.dst_columns, e.probability, e.one_to_one, e.pair_id);
  }
  return out;
}

MinimizedInstance MinimizeFailure(const JoinGraph& g, double penalty_weight,
                                  const JoinGraphCheck& check) {
  MinimizedInstance best;
  best.graph = g;
  best.penalty_weight = penalty_weight;
  best.failure = check(g, penalty_weight);
  if (best.failure.ok) {
    // The predicate does not reproduce on re-check — possible for
    // metamorphic failures, whose random transforms differ between
    // detection and minimization. Return the instance unshrunk; the caller
    // still holds the originally observed failure.
    return best;
  }

  // Drop edges one at a time while the failure persists. Restart the scan
  // after every accepted removal so later edges get re-tried against the
  // smaller instance.
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (int id = 0; id < int(best.graph.num_edges()); ++id) {
      JoinGraph candidate = RemoveEdge(best.graph, id);
      CheckResult r = check(candidate, penalty_weight);
      if (!r.ok) {
        best.graph = candidate;
        best.failure = r;
        ++best.shrink_steps;
        shrunk = true;
        break;
      }
    }
  }

  // Dropping isolated vertices cannot mask an edge-set bug, but verify the
  // failure survives anyway (vertex count changes k and the penalty term).
  JoinGraph compact = CompactVertices(best.graph);
  if (compact.num_vertices() < best.graph.num_vertices()) {
    CheckResult r = check(compact, penalty_weight);
    if (!r.ok) {
      best.graph = compact;
      best.failure = r;
      ++best.shrink_steps;
    }
  }
  return best;
}

}  // namespace autobi
