#ifndef AUTOBI_GRAPH_JOIN_GRAPH_H_
#define AUTOBI_GRAPH_JOIN_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace autobi {

// A candidate join edge in the global schema graph (Section 4.3.1).
//
// Vertices are tables. A directed edge points from the N-side (FK columns,
// `src`) to the 1-side (PK columns, `dst`). 1:1 joins are bi-directional: the
// builder inserts both orientations, sharing a `pair_id`, and the final
// solution reports each 1:1 pair at most once.
struct JoinEdge {
  int id = -1;   // Dense index into JoinGraph::edges().
  int src = -1;  // FK-side vertex (table index).
  int dst = -1;  // PK-side vertex (table index).
  std::vector<int> src_columns;
  std::vector<int> dst_columns;
  // Calibrated join probability P(C_i, C_j) in (0, 1).
  double probability = 0.0;
  // Edge weight w = -log(P) (Equation 5).
  double weight = 0.0;
  // True for 1:1 joins (represented as two directed edges with equal
  // pair_id); false for N:1.
  bool one_to_one = false;
  int pair_id = -1;
  // FK-once conflict group: edges with equal source_key share the same
  // starting columns (Equation 16). Assigned by JoinGraph::AddEdge.
  int source_key = -1;
};

// The global join graph G = (V, E) built by Algorithm 1.
class JoinGraph {
 public:
  JoinGraph() = default;
  explicit JoinGraph(int num_vertices) : num_vertices_(num_vertices) {}

  int num_vertices() const { return num_vertices_; }
  void set_num_vertices(int n) { num_vertices_ = n; }

  const std::vector<JoinEdge>& edges() const { return edges_; }
  const JoinEdge& edge(int id) const { return edges_[size_t(id)]; }
  size_t num_edges() const { return edges_.size(); }

  // Adds an edge; fills in id, weight (= -log probability) and source_key.
  // Returns the edge id.
  int AddEdge(int src, int dst, std::vector<int> src_columns,
              std::vector<int> dst_columns, double probability,
              bool one_to_one = false, int pair_id = -1);

  // Adds both orientations of a 1:1 join; returns the shared pair_id.
  int AddOneToOneEdge(int a, int b, std::vector<int> a_columns,
                      std::vector<int> b_columns, double probability);

  // Restricts probabilities away from {0,1} so -log stays finite.
  static double ClampProbability(double p);

  // Exact structural equality: same vertex count and the same edge sequence
  // on every field (endpoints, columns, bit-identical probability/weight,
  // 1:1 flags, pair and conflict-group ids). The differential suites use
  // it to check that a cached or blocked run built exactly the graph of an
  // uncached or exhaustive one.
  bool StructurallyEqual(const JoinGraph& other) const;

 private:
  int num_vertices_ = 0;
  std::vector<JoinEdge> edges_;
  // Maps "src|col,col" -> conflict group id.
  std::vector<std::string> source_key_names_;
  int next_pair_id_ = 0;

  int InternSourceKey(int src, const std::vector<int>& cols);
};

}  // namespace autobi

#endif  // AUTOBI_GRAPH_JOIN_GRAPH_H_
