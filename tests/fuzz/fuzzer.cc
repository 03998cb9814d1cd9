#include "tests/fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"
#include "tests/fuzz/corpus.h"
#include "tests/fuzz/differential.h"
#include "tests/fuzz/generator.h"
#include "tests/fuzz/metamorphic.h"
#include "tests/fuzz/minimize.h"

namespace autobi {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Differential checks need the brute-force oracles, which are capped at 22
// edges; replayed corpus cases above the cap get the metamorphic treatment.
constexpr int kBruteForceEdgeCap = 20;

void RecordFailure(FuzzReport& report, const CheckResult& failure,
                   const std::string& origin, const std::string& repro) {
  ++report.mismatches;
  std::string line =
      StrFormat("%s: %s (%s)", failure.kind.c_str(),
                failure.message.c_str(), origin.c_str());
  if (!repro.empty()) {
    line += " [repro: " + repro + "]";
    report.repro_paths.push_back(repro);
  }
  report.failures.push_back(line);
}

// Minimizes a failing JoinGraph instance and writes it into the corpus
// directory. Returns the repro path ("" when writing is disabled/fails).
// If the failure does not reproduce under `check` (metamorphic checks draw
// fresh randomness, so the re-check can pass), writes the original instance
// unminimized and reports `original` as the failure.
std::string WriteRepro(const FuzzOptions& opt, const JoinGraph& graph,
                       double penalty, const JoinGraphCheck& check,
                       const CheckResult& original, const std::string& origin,
                       CheckResult* minimized_failure) {
  MinimizedInstance min = MinimizeFailure(graph, penalty, check);
  bool reproduced = !min.failure.ok;
  if (!reproduced) {
    min.graph = graph;
    min.penalty_weight = penalty;
    min.failure = original;
    min.shrink_steps = 0;
  }
  *minimized_failure = min.failure;
  if (opt.corpus_dir.empty() || !opt.write_repros) return "";
  std::string path = opt.corpus_dir + "/" +
                     StrFormat("minimized_%s_%s.txt",
                               min.failure.kind.c_str(), origin.c_str());
  std::vector<std::string> comments = {
      reproduced ? "autobi_fuzz minimized repro"
                 : "autobi_fuzz repro (unminimized: failure is "
                   "randomness-dependent and did not reproduce on re-check)",
      "origin: " + origin,
      "kind: " + min.failure.kind,
      "detail: " + min.failure.message,
      StrFormat("shrink_steps: %d", min.shrink_steps),
  };
  if (!SaveCorpusFile(path, min.graph, min.penalty_weight, comments)) {
    return "";
  }
  return path;
}

}  // namespace

FuzzReport RunFuzz(const FuzzOptions& opt) {
  FuzzReport report;
  auto start = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    if (opt.time_budget_sec > 0.0 &&
        SecondsSince(start) >= opt.time_budget_sec) {
      report.time_budget_hit = true;
      return true;
    }
    return false;
  };

  // --- Stage 1: corpus replay. Known repros run before new random cases so
  // a regression fails fast and deterministically.
  if (!opt.corpus_dir.empty()) {
    for (const std::string& path : ListCorpusFiles(opt.corpus_dir)) {
      CorpusCase c;
      std::string error;
      if (!LoadCorpusFile(path, &c, &error)) {
        RecordFailure(report, CheckFail("corpus_parse_error", error),
                      "replay:" + path, "");
        continue;
      }
      ++report.corpus_replayed;
      CheckResult r;
      if (int(c.graph.num_edges()) <= kBruteForceEdgeCap) {
        r = CheckJoinGraphDifferential(c.graph, c.penalty_weight);
      } else {
        Rng rng(opt.seed ^ 0x5EEDC0DEULL);
        r = CheckJoinGraphMetamorphic(c.graph, c.penalty_weight, rng).check;
      }
      if (!r.ok) RecordFailure(report, r, "replay:" + path, "");
      if (out_of_time()) break;
    }
  }

  // --- Stage 2: seeded random campaign.
  Rng master(opt.seed);
  JoinGraphGenOptions gen_opt;
  gen_opt.max_edges = opt.max_edges;

  JoinGraphGenOptions meta_opt;
  meta_opt.min_vertices = 8;
  meta_opt.max_vertices = 16;
  meta_opt.min_edges = opt.max_edges + 2;
  meta_opt.max_edges = 3 * opt.max_edges;
  meta_opt.edge_skew = 1.0;

  ArcGenOptions arc_opt;
  arc_opt.max_arcs = std::max(4, opt.max_edges - 2);

  for (long i = 0; i < opt.cases; ++i) {
    if (out_of_time()) break;
    // One independent stream per case: failures reproduce from (seed, case)
    // alone, regardless of how many cases ran before.
    Rng rng = master.Fork();

    JoinGraphInstance inst = GenJoinGraph(gen_opt, rng);
    ++report.differential_cases;
    CheckResult r =
        CheckJoinGraphDifferential(inst.graph, inst.penalty_weight);
    if (!r.ok) {
      std::string origin = StrFormat("seed%llu_case%ld",
                                     (unsigned long long)opt.seed, i);
      CheckResult minimized = r;
      std::string path = WriteRepro(
          opt, inst.graph, inst.penalty_weight,
          [](const JoinGraph& g, double p) {
            return CheckJoinGraphDifferential(g, p);
          },
          r, origin, &minimized);
      RecordFailure(report, minimized, "differential:" + origin, path);
    }

    if (opt.arc_every > 0 && i % opt.arc_every == 0) {
      ArcInstance arc = GenArcInstance(arc_opt, rng);
      ++report.arc_cases;
      CheckResult ar = CheckArcDifferential(arc);
      if (!ar.ok) {
        RecordFailure(report, ar,
                      StrFormat("edmonds:seed%llu_case%ld",
                                (unsigned long long)opt.seed, i),
                      "");
      }
    }

    if (opt.metamorphic_every > 0 && i % opt.metamorphic_every == 0) {
      JoinGraphInstance big = GenJoinGraph(meta_opt, rng);
      ++report.metamorphic_cases;
      MetamorphicOutcome m =
          CheckJoinGraphMetamorphic(big.graph, big.penalty_weight, rng);
      if (m.skipped) ++report.metamorphic_skipped;
      if (!m.check.ok) {
        std::string origin = StrFormat("meta_seed%llu_case%ld",
                                       (unsigned long long)opt.seed, i);
        CheckResult minimized = m.check;
        // Minimize against a fresh-rng metamorphic check so the predicate
        // is a pure function of the instance.
        std::string path = WriteRepro(
            opt, big.graph, big.penalty_weight,
            [seed = opt.seed](const JoinGraph& g, double p) {
              Rng check_rng(seed ^ 0x11EA5EULL);
              return CheckJoinGraphMetamorphic(g, p, check_rng).check;
            },
            m.check, origin, &minimized);
        RecordFailure(report, minimized, "metamorphic:" + origin, path);
      }
    }
  }

  report.elapsed_sec = SecondsSince(start);
  return report;
}

std::vector<std::string> WriteSeedCorpus(const std::string& dir,
                                         uint64_t seed, int count) {
  // Aggressive knobs: small, dense, tie-heavy instances — the adversarial
  // shapes the ISSUE calls out (conflict groups, exact ties, parallel and
  // 1:1 edges, disconnected blocks).
  JoinGraphGenOptions opt;
  opt.min_vertices = 3;
  opt.max_vertices = 6;
  opt.min_edges = 5;
  opt.max_edges = 10;
  opt.conflict_density = 0.55;
  opt.tie_prob = 0.6;
  opt.parallel_edge_prob = 0.3;
  opt.one_to_one_prob = 0.2;
  opt.edge_skew = 1.0;

  Rng master(seed);
  std::vector<std::string> paths;
  for (int i = 0; i < count; ++i) {
    Rng rng = master.Fork();
    JoinGraphInstance inst = GenJoinGraph(opt, rng);
    std::string path =
        dir + "/" + StrFormat("seeded_adversarial_%02d.txt", i);
    std::vector<std::string> comments = {
        "autobi_fuzz seed corpus: generator-drawn adversarial instance",
        StrFormat("produced by WriteSeedCorpus(seed=%llu, case=%d) with "
                  "conflict_density=0.55 tie_prob=0.6 "
                  "parallel_edge_prob=0.3 one_to_one_prob=0.2",
                  (unsigned long long)seed, i),
        "replayed by: tests/graph_test.cc CorpusReplay + autobi_fuzz",
    };
    if (SaveCorpusFile(path, inst.graph, inst.penalty_weight, comments)) {
      paths.push_back(path);
    }
  }
  return paths;
}

std::string FormatFuzzReport(const FuzzReport& r) {
  std::string out = StrFormat(
      "corpus_replayed=%ld differential=%ld edmonds=%ld metamorphic=%ld "
      "(skipped=%ld) mismatches=%ld elapsed=%.2fs%s\n",
      r.corpus_replayed, r.differential_cases, r.arc_cases,
      r.metamorphic_cases, r.metamorphic_skipped, r.mismatches,
      r.elapsed_sec, r.time_budget_hit ? " [time budget hit]" : "");
  for (const std::string& f : r.failures) out += "FAIL " + f + "\n";
  return out;
}

}  // namespace autobi
