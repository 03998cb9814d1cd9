// The traced run's in-process half: replays every request of a finished
// session through the public calls of each layer, records one span per
// call, and turns the spans into per-layer metrics.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdio>
#include <string>
#include <vector>

#include "arith.h"
#include "core/local_model.h"
#include "serve/engine.h"
#include "session.h"

namespace e2ebench {

class Tracer {
 public:
  // `mirror_state_dir` journals the mirror engine's catalog (see
  // serve.catalog.publish_ms in README.md). `threads` is the daemon's
  // --threads (0 = default), which the mirror and the stage replay use too.
  Tracer(const autobi::LocalModel* model, const std::string& mirror_state_dir,
         int threads);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Attaches the mirror engine's state dir. False (with `error`) if the
  // journal cannot be opened.
  bool Open(std::string* error);
  // The run's clock origin, which spans are timed from.
  void SetOrigin(Clock::time_point origin) { origin_ = origin; }

  // Replays a completed session: each request goes once through an
  // in-process ServeEngine::HandleLine (the mirror) and once through the
  // layer calls it is made of. Concurrent callers are serialized.
  void Replay(const SessionInput& input, const SessionRecord& record);

  // Per-layer metrics; `daemon_stats` is the daemon's final `stats` reply.
  std::vector<Metric> Report(const autobi::Json& daemon_stats,
                             double overhead_ratio) const;
  // Busy and self time per span name.
  void PrintLayerTable(std::FILE* out) const;
  // One JSON object per span: name, start, end, parent, request.
  bool WriteSpans(const std::string& path) const;

  // Sessions replayed so far.
  int64_t sessions() const;

  // Disagreements between the daemon, the mirror and the stage replay.
  std::vector<std::string> failures() const;

 private:
  // Times (s) and counts of one cold predict's replay.
  struct ColdPredict {
    double client = 0, handle = 0, auto_bi = 0, write = 0;
    double profile = 0, ucc = 0, blocking = 0, ind = 0, candidates = 0;
    double score = 0, build = 0, partition = 0, global = 0, kmca = 0,
           ems = 0;
    double uccs = 0, inds = 0, candidate_count = 0, scored = 0;
    double components = 0, one_mca_calls = 0, memo_hits = 0;
    double pairs_admitted = 0, pairs_total = 0;
    // The response's own timing buckets (seconds).
    double timing_ucc = 0, timing_ind = 0, timing_local = 0,
           timing_global = 0;
    // Layer time the replay accounts for (self times, no overlap).
    double Explained() const;
  };
  struct UploadSample {
    double client = 0, handle = 0, parse = 0, read = 0, hash = 0;
    double csv_bytes = 0, line_bytes = 0;
  };

  double Now() const { return Since(origin_); }
  int Begin(const std::string& name, int parent, int64_t request);
  void End(int span);
  void ReplayPipeline(const std::vector<autobi::Table>& tables, int parent,
                      int64_t request, ColdPredict* out);

  const autobi::LocalModel* model_;
  const int threads_;
  Clock::time_point origin_ = Clock::now();
  autobi::ServeEngine mirror_;

  std::vector<Span> spans_;
  int64_t next_request_ = 0;
  int64_t sessions_ = 0;
  std::vector<UploadSample> uploads_;
  std::vector<ColdPredict> cold_;
  std::vector<double> small_overhead_us_;  // create/get_model: client - handle.
  std::vector<double> write_ms_;           // Json::Write of predicts.
  std::vector<double> tables_hash_ms_;     // TablesContentHash at warm.
  std::vector<double> publish_ms_;         // Mirror publish_model.
  double pairs_reused_ = 0, pairs_rescored_ = 0;
  std::vector<double> tables_reprofiled_;
  std::vector<std::string> failures_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_
