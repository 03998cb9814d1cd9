#ifndef AUTOBI_TESTS_FUZZ_GENERATOR_H_
#define AUTOBI_TESTS_FUZZ_GENERATOR_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/edmonds.h"
#include "graph/join_graph.h"

namespace autobi {

// Seeded random-instance generators for the solver-stack fuzzer. Every knob
// targets an adversarial shape the REAL/TPC benchmarks rarely produce: dense
// FK-once conflict groups, exact weight ties, parallel candidate edges,
// low-probability (worse-than-penalty) edges, 1:1 pairs, and vertex blocks
// with no connecting candidates (forced disconnected components).

struct JoinGraphGenOptions {
  int min_vertices = 2;
  int max_vertices = 8;
  int min_edges = 0;
  int max_edges = 18;
  // Probability that a new edge reuses an existing (src, src_columns) pair,
  // growing an FK-once conflict group (Equation 16).
  double conflict_density = 0.35;
  // Probability that an edge's probability is drawn from a small quantized
  // set, producing exact weight ties between unrelated edges.
  double tie_prob = 0.4;
  // Probability that a new edge duplicates an existing (src, dst) pair.
  double parallel_edge_prob = 0.15;
  // Probability of emitting a 1:1 pair (two opposite edges sharing pair_id).
  double one_to_one_prob = 0.10;
  // Vertices are partitioned into up to max_blocks blocks; an edge leaves
  // its block only with cross_block_prob, so some instances have provably
  // disconnected components.
  int max_blocks = 3;
  double cross_block_prob = 0.05;
  // Probability range; spans both sides of 0.5, so instances mix edges that
  // beat the virtual-edge penalty with edges that lose to it.
  double min_probability = 0.02;
  double max_probability = 0.98;
  // Penalty weight p of Equation 8/14, drawn per instance.
  double min_penalty = 0.05;
  double max_penalty = 1.5;
  // Edge counts are drawn as min + floor(u^edge_skew * (max - min + 1)):
  // skew > 1 favors small instances so the 2^m brute-force oracle stays
  // affordable while large instances still occur.
  double edge_skew = 2.0;
};

struct JoinGraphInstance {
  JoinGraph graph;
  double penalty_weight = 0.0;
};

JoinGraphInstance GenJoinGraph(const JoinGraphGenOptions& options, Rng& rng);

// Raw-arc instances for the Edmonds (1-MCA) differential: unlike JoinGraph
// edges, arcs may have negative weights, self-loops, arcs into the root, and
// exact duplicates.
struct ArcGenOptions {
  int min_vertices = 2;
  int max_vertices = 7;
  int min_arcs = 0;
  int max_arcs = 16;
  double tie_prob = 0.4;
  double self_loop_prob = 0.10;
  double duplicate_arc_prob = 0.15;
  double min_weight = -4.0;
  double max_weight = 8.0;
};

struct ArcInstance {
  int num_vertices = 0;
  int root = 0;
  std::vector<Arc> arcs;
};

ArcInstance GenArcInstance(const ArcGenOptions& options, Rng& rng);

// Human-readable dump of an arc instance for failure reports.
std::string FormatArcInstance(const ArcInstance& instance);

}  // namespace autobi

#endif  // AUTOBI_TESTS_FUZZ_GENERATOR_H_
