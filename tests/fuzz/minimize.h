#ifndef AUTOBI_TESTS_FUZZ_MINIMIZE_H_
#define AUTOBI_TESTS_FUZZ_MINIMIZE_H_

#include <functional>

#include "graph/join_graph.h"
#include "tests/fuzz/differential.h"

namespace autobi {

// A failing-instance predicate: returns a non-ok CheckResult while the
// instance still reproduces the bug.
using JoinGraphCheck =
    std::function<CheckResult(const JoinGraph&, double penalty_weight)>;

struct MinimizedInstance {
  JoinGraph graph;
  double penalty_weight = 0.0;
  // The failure the minimized instance still reproduces.
  CheckResult failure;
  // Number of accepted shrink steps (edges dropped + vertices compacted).
  int shrink_steps = 0;
};

// Rebuilds `g` without edge `edge_id` (edge ids above it shift down by one).
JoinGraph RemoveEdge(const JoinGraph& g, int edge_id);

// Renumbers vertices so that only vertices incident to at least one edge
// remain (plus vertex 0 if the graph would otherwise be empty). Edge ids and
// order are preserved.
JoinGraph CompactVertices(const JoinGraph& g);

// Greedy delta-debugging: repeatedly drops single edges while `check` still
// fails, then compacts unused vertices. The returned instance fails `check`
// (with whatever kind the shrunken instance exhibits — shrinking may surface
// a different facet of the same bug, which is fine for a repro).
MinimizedInstance MinimizeFailure(const JoinGraph& g, double penalty_weight,
                                  const JoinGraphCheck& check);

}  // namespace autobi

#endif  // AUTOBI_TESTS_FUZZ_MINIMIZE_H_
