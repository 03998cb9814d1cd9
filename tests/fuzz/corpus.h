#ifndef AUTOBI_TESTS_FUZZ_CORPUS_H_
#define AUTOBI_TESTS_FUZZ_CORPUS_H_

#include <string>
#include <vector>

#include "graph/join_graph.h"

namespace autobi {

// Plain-text persistence for fuzz instances (tests/corpus/*.txt). Format:
//
//   # free-form comment lines (provenance: seed, knobs, failure kind)
//   vertices <n>
//   penalty <p>
//   edge <src> <dst> <probability> <one_to_one 0|1> <pair_id>
//        <#src_cols> <cols...> <#dst_cols> <cols...>   (one line per edge)
//
// Edges are listed in id order; reloading reproduces ids, conflict groups
// and weights exactly (probabilities round-trip via %.17g).
struct CorpusCase {
  std::vector<std::string> comments;  // Without the leading "# ".
  JoinGraph graph;
  double penalty_weight = 0.0;
};

std::string FormatCorpusCase(const JoinGraph& graph, double penalty_weight,
                             const std::vector<std::string>& comments);

// Parses `text`; on failure returns false and sets `error`.
bool ParseCorpusCase(const std::string& text, CorpusCase* out,
                     std::string* error);

bool LoadCorpusFile(const std::string& path, CorpusCase* out,
                    std::string* error);

// Writes (overwrites) `path`; creates the parent directory if needed.
bool SaveCorpusFile(const std::string& path, const JoinGraph& graph,
                    double penalty_weight,
                    const std::vector<std::string>& comments);

// Sorted list of "*.txt" files under `dir`; empty if the directory does not
// exist.
std::vector<std::string> ListCorpusFiles(const std::string& dir);

}  // namespace autobi

#endif  // AUTOBI_TESTS_FUZZ_CORPUS_H_
