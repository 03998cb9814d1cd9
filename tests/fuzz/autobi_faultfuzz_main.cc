// autobi_faultfuzz: end-to-end fault-injection campaign for the hardened
// service layer (Status/StatusOr, RunContext, FaultPoints).
//
//   autobi_faultfuzz --cases 1000 --seed 1
//
// Each case feeds byte-mutated CSV/DDL into the loaders or runs the full
// Predict pipeline on a synthetic case under randomized budgets, deadlines,
// cancellation and injected faults. The invariant: every case yields either
// a well-formed Status error or a validator-passing (possibly degraded)
// model — never a crash, hang, or leak. CI runs this under ASan/UBSan
// (scripts/check.sh, AUTOBI_FAULT_SMOKE=1). Exit code 0 iff zero failures.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "tests/fuzz/fault_fuzz.h"

namespace {

void Usage() {
  std::puts(
      "usage: autobi_faultfuzz [options]\n"
      "  --seed N           master seed (default 1)\n"
      "  --cases N          cases to run (default 1000)\n"
      "  --time_budget SEC  wall-clock budget; 0 = unlimited (default)\n"
      "  --scratch DIR      scratch dir for file-I/O cases\n"
      "                     (default /tmp; '' disables them)\n"
      "  --scenario NAME    '' = mixed campaign (default); 'schema' = only\n"
      "                     the schema-evolution differential scenario;\n"
      "                     'lake' = only the lake blocking differential;\n"
      "                     'crash' = only the catalog crash-recovery\n"
      "                     differential (torn-write journal replay)\n");
}

}  // namespace

int main(int argc, char** argv) {
  autobi::FaultFuzzOptions opt;
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
    } else if (arg == "--time_budget") {
      opt.time_budget_sec = std::atof(need_value());
    } else if (arg == "--scratch") {
      opt.scratch_dir = need_value();
    } else if (arg == "--scenario") {
      opt.scenario = need_value();
      if (!opt.scenario.empty() && opt.scenario != "schema" &&
          opt.scenario != "lake" && opt.scenario != "crash") {
        std::fprintf(stderr, "unknown scenario: %s\n", opt.scenario.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  autobi::FaultFuzzReport report = autobi::RunFaultFuzz(opt);
  std::fputs(autobi::FormatFaultFuzzReport(report).c_str(), stdout);
  return report.failures == 0 ? 0 : 1;
}
