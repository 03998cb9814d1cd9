#ifndef AUTOBI_SERVE_ENGINE_H_
#define AUTOBI_SERVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/auto_bi.h"
#include "core/local_model.h"
#include "core/predict_cache.h"
#include "serve/catalog.h"
#include "serve/json.h"
#include "table/table.h"

namespace autobi {

// Quality-of-service tiers for Predict requests (SERVING.md has the full
// table). Each tier maps to a RunContext deadline plus deterministic
// budgets; budgets are part of the cross-request cache key, deadlines are
// not (deadline-tripped runs never populate the cache).
enum class QosTier { kInteractive, kStandard, kBatch };

struct QosPolicy {
  double deadline_seconds = 0.0;  // 0 = no deadline.
  RunContext::Budgets budgets;    // 0 fields = unlimited.
};

// Resolves "interactive" / "standard" / "batch"; kInvalidInput otherwise.
StatusOr<QosTier> ParseQosTier(std::string_view name);
QosPolicy PolicyForTier(QosTier tier);
const char* QosTierName(QosTier tier);

// Bounded two-stage admission control: at most `max_inflight` requests
// executing, at most `max_queue` more waiting for a slot; anything beyond
// that is rejected immediately with kResourceExhausted (the caller should
// retry with backoff; see SERVING.md "Troubleshooting"). Fairness is FIFO
// via the condition variable's wait order (not strictly guaranteed by the
// standard, but overflow behaviour — the tested contract — is exact).
class AdmissionGate {
 public:
  AdmissionGate(int max_inflight, int max_queue);

  // Blocks while queue capacity is available, rejects when it is not.
  Status Enter();
  void Exit();

  int inflight() const;
  int queued() const;
  int64_t rejected() const;
  // Requests granted a slot (immediately or after queueing).
  int64_t admitted() const;
  // Time requests spent waiting in the queue before admission, for the
  // `stats` verb: overload shedding is invisible without it.
  double queue_wait_total_seconds() const;
  double queue_wait_max_seconds() const;

 private:
  const int max_inflight_;
  const int max_queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  int queued_ = 0;
  int64_t rejected_ = 0;
  int64_t admitted_ = 0;
  double queue_wait_total_seconds_ = 0.0;
  double queue_wait_max_seconds_ = 0.0;
};

struct ServeOptions {
  // Worker threads for each Predict's data-parallel stages (ResolveThreads
  // semantics: 0 = env/hardware, 1 = serial). Results are bit-identical at
  // any setting.
  int threads = 0;
  // Admission control (see AdmissionGate).
  int max_inflight = 4;
  int max_queue = 16;
  // Session table: creating one past this limit is kResourceExhausted.
  int max_sessions = 64;
  // Per-session upload cap.
  int max_tables_per_session = 256;
  // Per-upload CSV byte cap (flows into CsvOptions::max_bytes).
  size_t max_csv_bytes = size_t{64} << 20;  // 64 MiB
  // Cross-request content-hash cache sizing (core/predict_cache.h).
  PredictCache::Options cache;
  // Catalog retention (serve/catalog.h).
  size_t max_unpinned_models_per_tenant = 32;
  // Durable catalog state (serve/journal.h). Empty = in-memory only. When
  // set, RecoverState() must be called before serving traffic; published
  // models, versions and pins then survive crashes and restarts. Sessions
  // and the PredictCache are intentionally volatile (SERVING.md
  // "Durability & recovery").
  std::string state_dir;
  // Journal operations between compacted snapshots.
  size_t journal_compact_every = 64;
};

// The transport-independent serving engine: a session table, the shared
// cross-request PredictCache, the model catalog, and one handler per
// protocol verb. `Handle` is fully thread-safe — the stdio transport calls
// it from one thread, the socket transport from one thread per connection,
// and tests call it concurrently on purpose. Determinism contract: a
// Predict response's model is bit-identical for the same session tables and
// options at any thread count, cold or warm cache.
//
// Protocol (newline-delimited JSON; every verb documented with worked
// examples in SERVING.md): requests are {"verb": "...", "id": ..., ...},
// responses echo "id" and carry either "ok": true plus verb-specific fields
// or "ok": false plus {"error": {"code": "INVALID_INPUT", "message": ...}}.
class ServeEngine {
 public:
  // `model` is the trained local classifier; not owned, must outlive the
  // engine.
  explicit ServeEngine(const LocalModel* model, ServeOptions options = {});

  // Dispatches one parsed request object. Never throws.
  Json Handle(const Json& request);

  // Wire-level entry: parses `line` (fault point `serve.request` can corrupt
  // it first under AUTOBI_FAULT, exercising the malformed-input path),
  // dispatches, and serializes the response to a single line without the
  // trailing newline. Any input bytes produce exactly one well-formed JSON
  // response line.
  std::string HandleLine(std::string_view line);

  // Set once a `shutdown` request has been accepted; transports drain and
  // exit their accept loops.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  PredictCache::Stats CacheStats() const { return cache_.GetStats(); }
  const ServeOptions& options() const { return options_; }

  // Attaches options().state_dir (no-op when empty) and replays any state
  // found there — see ModelCatalog::OpenStateDir. Call once, before the
  // transport starts accepting traffic.
  Status RecoverState();

  // Final fsync barrier on the catalog journal; called by HandleShutdown
  // and again by serve_main after the transport drains (idempotent).
  Status FlushState();

  DurabilityStats durability() const { return catalog_.durability(); }

  // Invoked (if set) when a `shutdown` request is accepted, after
  // shutdown_requested() starts returning true. Transports register a
  // self-pipe wakeup here so blocked pollers exit immediately instead of
  // timing out.
  void SetShutdownCallback(std::function<void()> callback);

  // Test hook: runs while a Predict request holds its admission slot (after
  // Enter, before the pipeline). Lets tests saturate admission
  // deterministically without timing races.
  void SetPredictHoldHookForTest(std::function<void()> hook);

 private:
  struct Session {
    std::string tenant;
    // Copy-on-write snapshot: uploads replace the vector, Predict runs on
    // its snapshot outside the session lock.
    std::shared_ptr<const std::vector<Table>> tables =
        std::make_shared<const std::vector<Table>>();
    // Results of the latest and previous Predict (name-resolved, for
    // get_model/diff). Empty until the first Predict.
    std::vector<NamedJoin> last_joins;
    std::vector<NamedJoin> prev_joins;
    bool has_predicted = false;
    bool has_previous = false;
    // The model + table snapshot backing the latest Predict, for exports.
    BiModel last_model;
    std::shared_ptr<const std::vector<Table>> last_tables;
  };

  Json HandlePing(const Json& req);
  Json HandleCreateSession(const Json& req);
  Json HandleCloseSession(const Json& req);
  Json HandleUploadTable(const Json& req);
  Json HandleUpdateTable(const Json& req);
  Json HandlePredict(const Json& req);
  Json HandleGetModel(const Json& req);
  Json HandleDiff(const Json& req);
  Json HandlePublishModel(const Json& req);
  Json HandleListModels(const Json& req);
  Json HandlePinModel(const Json& req);
  Json HandleDiffModels(const Json& req);
  Json HandleGetCatalogModel(const Json& req);
  Json HandleStats(const Json& req);
  Json HandleShutdown(const Json& req);

  // Copies the session's current state under the session-table lock.
  // kInvalidInput for unknown session ids.
  StatusOr<Session> SnapshotSession(const std::string& session_id) const;

  const LocalModel* model_;
  ServeOptions options_;
  PredictCache cache_;
  ModelCatalog catalog_;
  AdmissionGate gate_;
  std::atomic<bool> shutdown_{false};

  mutable std::mutex mu_;  // Guards sessions_ and next_session_.
  std::unordered_map<std::string, Session> sessions_;
  int64_t next_session_ = 1;
  std::function<void()> predict_hold_hook_;
  std::function<void()> shutdown_callback_;
  std::mutex hook_mu_;  // Guards predict_hold_hook_ and shutdown_callback_.

  // Request counters for the `stats` verb.
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> predicts_{0};
  // Cumulative lake-scale counters across every successful predict (PR 9):
  // column pairs the blocking stage pruned/admitted and graph components
  // solved by the partitioned global solve.
  std::atomic<int64_t> blocked_pairs_{0};
  std::atomic<int64_t> admitted_pairs_{0};
  std::atomic<int64_t> components_solved_{0};
};

// Builds the standard error response envelope.
Json MakeErrorResponse(const Json* request, const Status& status);

}  // namespace autobi

#endif  // AUTOBI_SERVE_ENGINE_H_
