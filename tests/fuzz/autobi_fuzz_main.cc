// autobi_fuzz: differential fuzzing + metamorphic property harness for the
// k-MCA / k-MCA-CC / Edmonds solver stack (src/graph/).
//
//   autobi_fuzz --cases 5000 --max_edges 18 --seed 1
//
// Replays tests/corpus/ first, then runs seeded random differential cases
// (fast solvers vs brute-force oracles), Edmonds arc differentials, and
// metamorphic properties on larger instances. Any mismatch is greedily
// minimized and written into the corpus directory as a repro. Exit code 0
// iff zero mismatches.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "tests/fuzz/fuzzer.h"

namespace {

void Usage() {
  std::puts(
      "usage: autobi_fuzz [options]\n"
      "  --seed N              master seed (default 1)\n"
      "  --cases N             differential cases to run (default 1000)\n"
      "  --max_edges N         edge cap for brute-force-checked instances\n"
      "                        (default 18, max 20)\n"
      "  --time_budget SEC     wall-clock budget; 0 = unlimited (default)\n"
      "  --corpus DIR          corpus dir for replay + repro output\n"
      "                        (default tests/corpus; '' disables)\n"
      "  --no_write            do not write minimized repro files\n"
      "  --arc_every N         Edmonds differential every Nth case (default 2)\n"
      "  --metamorphic_every N metamorphic case every Nth case (default 4)\n"
      "  --seed_corpus N       write N seeded adversarial instances into the\n"
      "                        corpus dir and exit\n"
      "  --quiet               only print the summary line\n");
}

}  // namespace

int main(int argc, char** argv) {
  autobi::FuzzOptions opt;
  opt.corpus_dir = "tests/corpus";
  int seed_corpus = -1;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto need_value = [&]() -> const char* {
      if (!value.empty() || eq != std::string::npos) return value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(need_value(), nullptr, 10);
    } else if (arg == "--cases") {
      opt.cases = std::atol(need_value());
    } else if (arg == "--max_edges") {
      opt.max_edges = std::atoi(need_value());
      if (opt.max_edges < 0 || opt.max_edges > 20) {
        std::fprintf(stderr, "--max_edges must be in [0, 20]\n");
        return 2;
      }
    } else if (arg == "--time_budget") {
      opt.time_budget_sec = std::atof(need_value());
    } else if (arg == "--corpus") {
      opt.corpus_dir = need_value();
    } else if (arg == "--no_write") {
      opt.write_repros = false;
    } else if (arg == "--arc_every") {
      opt.arc_every = std::atoi(need_value());
    } else if (arg == "--metamorphic_every") {
      opt.metamorphic_every = std::atoi(need_value());
    } else if (arg == "--seed_corpus") {
      seed_corpus = std::atoi(need_value());
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (seed_corpus >= 0) {
    if (opt.corpus_dir.empty()) {
      std::fprintf(stderr, "--seed_corpus requires --corpus\n");
      return 2;
    }
    auto paths =
        autobi::WriteSeedCorpus(opt.corpus_dir, opt.seed, seed_corpus);
    for (const std::string& p : paths) std::printf("wrote %s\n", p.c_str());
    return int(paths.size()) == seed_corpus ? 0 : 1;
  }

  autobi::FuzzReport report = autobi::RunFuzz(opt);
  std::string summary = autobi::FormatFuzzReport(report);
  if (quiet) {
    // First line only.
    size_t nl = summary.find('\n');
    summary = summary.substr(0, nl + 1);
  }
  std::fputs(summary.c_str(), stdout);
  return report.mismatches == 0 ? 0 : 1;
}
