#ifndef AUTOBI_TESTS_FUZZ_FUZZER_H_
#define AUTOBI_TESTS_FUZZ_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace autobi {

// Orchestrates the differential-fuzzing campaign:
//   1. replays every corpus case under tests/corpus/ first (regression gate),
//   2. runs `cases` seeded differential cases (<= max_edges, brute-force
//      cross-check of k-MCA-CC / k-MCA / Edmonds),
//   3. interleaves metamorphic cases on larger instances where brute force
//      is infeasible,
//   4. on any mismatch, greedily minimizes the instance and writes a repro
//      file into the corpus directory.
struct FuzzOptions {
  uint64_t seed = 1;
  long cases = 1000;
  int max_edges = 18;
  // Wall-clock budget in seconds; 0 disables. When exhausted the run stops
  // early and reports time_budget_hit.
  double time_budget_sec = 0.0;
  // Corpus directory for replay and repro output; empty disables both.
  std::string corpus_dir;
  bool write_repros = true;
  // Every Nth case additionally runs an Edmonds arc differential /
  // a large-instance metamorphic case. 0 disables.
  int arc_every = 2;
  int metamorphic_every = 4;
};

struct FuzzReport {
  long corpus_replayed = 0;
  long differential_cases = 0;
  long arc_cases = 0;
  long metamorphic_cases = 0;
  long metamorphic_skipped = 0;  // Branch-and-bound budget exhausted.
  long mismatches = 0;
  bool time_budget_hit = false;
  double elapsed_sec = 0.0;
  // One line per failure: "<kind>: <message> [repro: <path>]".
  std::vector<std::string> failures;
  std::vector<std::string> repro_paths;
};

FuzzReport RunFuzz(const FuzzOptions& options);

// Writes `count` generator-drawn adversarial instances (aggressive conflict,
// tie, and parallel-edge knobs; <= 10 edges each) into `dir`, with their
// seeds recorded in the file headers. Used to (re)build the checked-in seed
// corpus. Returns the file paths.
std::vector<std::string> WriteSeedCorpus(const std::string& dir,
                                         uint64_t seed, int count);

// Renders a human-readable summary.
std::string FormatFuzzReport(const FuzzReport& report);

}  // namespace autobi

#endif  // AUTOBI_TESTS_FUZZ_FUZZER_H_
