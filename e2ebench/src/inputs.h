// Seeded inputs of the two workloads: the generated tables of each
// session, their CSV, the one-table changes, and the session's request
// script as ready-to-send lines.
#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/bi_model.h"
#include "serve/json.h"
#include "table/table.h"

namespace e2ebench {

struct WorkloadSpec {
  const char* name;
  // The first sessions of a run (by index) whose cold predict is scored
  // against ground truth. Every run completes at least these, so the
  // precision/recall of a seed does not depend on how fast the run was.
  int eval_sessions;
  // The first sessions whose one-table-change predicts are checked against
  // an in-process cold predict of the same tables.
  int checked_sessions;
  // Sessions after which the daemon's peak RSS is read. The daemon keeps
  // what its caches hold, so its RSS grows with the sessions served; a
  // fixed count keeps the figure independent of run speed, and a count
  // past the point where the caches are full keeps it steady.
  int rss_sessions;
};

// The daemon's --threads on every workload. One thread per predict keeps
// the benchmark's CPU use within a shared host's cores, so the timings
// track the code rather than the host's scheduler (README.md "Design
// limits").
inline constexpr int kDaemonThreads = 1;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// TPC-H-shaped scale: lineitem has 4000 * scale rows (12 MB of CSV; 16 MB
// per session in all).
inline constexpr double kTpchScale = 10.0;
// Lake size: under the daemon's 256-tables-per-session cap.
inline constexpr int kLakeTables = 250;

// Independent sub-seed of session `index` in a run seeded with `run_seed`:
// every session gets fresh data, so its first predict is really cold.
uint64_t SessionSeed(uint64_t run_seed, int64_t index);

// The per-session script. Every workload runs all of it; the workloads
// differ in data shape.
enum class Step {
  kCreate,          // create_session
  kUpload,          // upload_table, one per table (CSV)
  kPredictCold,     // first predict: data this daemon has never seen
  kPredictWarm,     // byte-identical re-predict: solve-memo hit (x3)
  kReupload,        // upload_table replacing one table by a changed copy
  kPredictReupload, // plain predict: table-cache hits except the new table
  kPredictRebuild,  // first incremental predict: builds the delta state
  kUpdate,          // update_table appending rows to the largest table
  kPredictDelta,    // incremental predict over the append
  kPublish,         // publish_model (journaled)
  kGetModel,        // get_model (json)
  kClose,           // close_session
};
const char* StepName(Step step);
bool IsPredict(Step step);

// One request line. The daemon assigns session ids, so a line is stored as
// the bytes before and after the id (`needs_session`), spliced at send time
// without copying the payload.
struct Request {
  Step step = Step::kCreate;
  std::string head;
  std::string tail;
  bool needs_session = true;
  size_t csv_bytes = 0;  // CSV payload of upload requests.
  std::string Line(std::string_view session) const;
};

struct SessionInput {
  int64_t index = 0;
  // Generated tables + ground truth; shared by recycled sessions.
  std::shared_ptr<const autobi::BiCase> bi_case;
  // Table names as uploaded: bi_case's, plus a suffix when recycled.
  std::vector<std::string> names;
  std::vector<std::string> csv;  // Per table.
  int replaced_table = -1;
  std::string replaced_csv;      // The changed copy re-uploaded.
  int appended_table = -1;
  autobi::Json delta;            // update_table "columns".
  std::vector<Request> script;
  // The tables as the daemon holds them (parsed from the uploaded CSV)
  // before and after the append; filled when MakeSession's `parse_all`.
  std::vector<autobi::Table> parsed_replaced;
  std::vector<autobi::Table> parsed_appended;
};

// Generates session `index` of `spec` for `run_seed`. Deterministic: the
// same arguments give byte-identical request lines.
SessionInput MakeSession(const WorkloadSpec& spec, uint64_t run_seed,
                         int64_t index, bool parse_all);

// Appends the update_table delta to `table` in place: the rows
// (i * 7919) mod n for i < max(1, n / 50) of the table itself, copied cell
// by cell. `table` must have rows.
void AppendDeltaRows(autobi::Table* table);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
