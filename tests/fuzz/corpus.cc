#include "tests/fuzz/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace autobi {

namespace {

bool ParseInt(const std::string& tok, int* out) {
  double d = 0.0;
  if (!ParseDouble(tok, &d)) return false;
  *out = int(d);
  return double(*out) == d;
}

}  // namespace

std::string FormatCorpusCase(const JoinGraph& graph, double penalty_weight,
                             const std::vector<std::string>& comments) {
  std::string out;
  for (const std::string& c : comments) out += "# " + c + "\n";
  out += StrFormat("vertices %d\n", graph.num_vertices());
  out += StrFormat("penalty %.17g\n", penalty_weight);
  for (const JoinEdge& e : graph.edges()) {
    out += StrFormat("edge %d %d %.17g %d %d %d", e.src, e.dst,
                     e.probability, e.one_to_one ? 1 : 0, e.pair_id,
                     int(e.src_columns.size()));
    for (int c : e.src_columns) out += StrFormat(" %d", c);
    out += StrFormat(" %d", int(e.dst_columns.size()));
    for (int c : e.dst_columns) out += StrFormat(" %d", c);
    out += "\n";
  }
  return out;
}

bool ParseCorpusCase(const std::string& text, CorpusCase* out,
                     std::string* error) {
  *out = CorpusCase{};
  bool have_vertices = false;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::string c = line.substr(1);
      if (!c.empty() && c[0] == ' ') c = c.substr(1);
      out->comments.push_back(c);
      continue;
    }
    std::vector<std::string> tok = Split(line, " \t\r");
    if (tok.empty()) continue;
    auto fail = [&](const char* why) {
      if (error != nullptr) {
        *error = StrFormat("line %d: %s: %s", line_no, why, line.c_str());
      }
      return false;
    };
    if (tok[0] == "vertices") {
      int n = 0;
      if (tok.size() != 2 || !ParseInt(tok[1], &n) || n < 0) {
        return fail("bad vertices");
      }
      out->graph.set_num_vertices(n);
      have_vertices = true;
    } else if (tok[0] == "penalty") {
      if (tok.size() != 2 ||
          !ParseDouble(tok[1], &out->penalty_weight)) {
        return fail("bad penalty");
      }
    } else if (tok[0] == "edge") {
      if (!have_vertices) return fail("edge before vertices");
      int src = 0, dst = 0, one = 0, pair_id = 0, n_src = 0, n_dst = 0;
      double prob = 0.0;
      size_t i = 1;
      if (tok.size() < 7 || !ParseInt(tok[i], &src) ||
          !ParseInt(tok[i + 1], &dst) || !ParseDouble(tok[i + 2], &prob) ||
          !ParseInt(tok[i + 3], &one) || !ParseInt(tok[i + 4], &pair_id) ||
          !ParseInt(tok[i + 5], &n_src)) {
        return fail("bad edge header");
      }
      i += 6;
      if (tok.size() < i + size_t(n_src) + 1) return fail("bad src columns");
      std::vector<int> src_cols(static_cast<size_t>(n_src));
      for (int c = 0; c < n_src; ++c) {
        if (!ParseInt(tok[i++], &src_cols[size_t(c)])) {
          return fail("bad src column");
        }
      }
      if (!ParseInt(tok[i++], &n_dst) ||
          tok.size() != i + size_t(n_dst)) {
        return fail("bad dst columns");
      }
      std::vector<int> dst_cols(static_cast<size_t>(n_dst));
      for (int c = 0; c < n_dst; ++c) {
        if (!ParseInt(tok[i++], &dst_cols[size_t(c)])) {
          return fail("bad dst column");
        }
      }
      if (src < 0 || src >= out->graph.num_vertices() || dst < 0 ||
          dst >= out->graph.num_vertices() || src == dst) {
        return fail("edge endpoints out of range");
      }
      out->graph.AddEdge(src, dst, std::move(src_cols), std::move(dst_cols),
                         prob, one != 0, pair_id);
    } else {
      return fail("unknown directive");
    }
  }
  if (!have_vertices) {
    if (error != nullptr) *error = "missing 'vertices' line";
    return false;
  }
  return true;
}

bool LoadCorpusFile(const std::string& path, CorpusCase* out,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCorpusCase(buf.str(), out, error);
}

bool SaveCorpusFile(const std::string& path, const JoinGraph& graph,
                    double penalty_weight,
                    const std::vector<std::string>& comments) {
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << FormatCorpusCase(graph, penalty_weight, comments);
  return bool(out);
}

std::vector<std::string> ListCorpusFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return files;
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".txt") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace autobi
