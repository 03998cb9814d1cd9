#include "replay.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "core/auto_bi.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "graph/ems.h"
#include "profile/blocking.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/sketch.h"
#include "profile/ucc.h"
#include "table/csv.h"

namespace e2ebench {

using autobi::Json;
using autobi::Table;

namespace {

autobi::ServeOptions MirrorOptions(const std::string& state_dir,
                                   int threads) {
  autobi::ServeOptions options;  // The daemon's defaults.
  options.state_dir = state_dir;
  options.threads = threads;
  return options;
}

double NumberAt(const Json& obj, std::initializer_list<const char*> path) {
  const Json* cur = &obj;
  for (const char* key : path) {
    cur = cur->is_object() ? cur->Find(key) : nullptr;
    if (cur == nullptr) return 0.0;
  }
  return cur->is_number() ? cur->AsDouble() : 0.0;
}

double Ms(double seconds) { return seconds * 1e3; }

}  // namespace

double Tracer::ColdPredict::Explained() const {
  // GenerateCandidates re-runs profiling, UCC and IND internally, so its
  // self part is its time minus theirs; RunGlobalPredict covers partition,
  // k-MCA-CC and EMS; the engine's self part is HandleLine minus
  // AutoBi::Predict.
  const double candidates_self = candidates - profile - ucc - ind;
  const double engine_self = handle - auto_bi;
  return profile + ucc + blocking + (ind - blocking) + candidates_self +
         score + build + global + engine_self + write;
}

Tracer::Tracer(const autobi::LocalModel* model,
               const std::string& mirror_state_dir, int threads)
    : model_(model),
      threads_(threads),
      mirror_(model, MirrorOptions(mirror_state_dir, threads)) {}

bool Tracer::Open(std::string* error) {
  autobi::Status status = mirror_.RecoverState();
  if (!status.ok()) *error = status.ToString();
  return status.ok();
}

int Tracer::Begin(const std::string& name, int parent, int64_t request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start = Now();
  spans_.push_back(std::move(s));
  return int(spans_.size()) - 1;
}

void Tracer::End(int span) { spans_[size_t(span)].end = Now(); }

void Tracer::ReplayPipeline(const std::vector<Table>& tables, int parent,
                            int64_t request, ColdPredict* out) {
  // The stages of AutoBi::Predict, one public call each, with the
  // pipeline's default options and the daemon's thread count.
  autobi::AutoBiOptions options;
  options.threads = threads_;
  autobi::CandidateGenOptions cand = options.candidates;
  cand.threads = threads_;
  autobi::IndOptions ind_options = cand.ind;
  ind_options.threads = threads_;
  const int root = Begin("replay.pipeline", parent, request);
  auto timed = [&](const char* name, auto&& fn) {
    const int span = Begin(name, root, request);
    fn();
    End(span);
    return spans_[size_t(span)].Duration();
  };

  std::vector<autobi::TableProfile> profiles;
  out->profile = timed("profile.column_profile", [&] {
    profiles = autobi::ProfileTables(tables, /*max_sample=*/512, threads_);
  });
  std::vector<std::vector<autobi::Ucc>> uccs(tables.size());
  out->ucc = timed("profile.ucc", [&] {
    for (size_t i = 0; i < tables.size(); ++i) {
      uccs[i] = autobi::DiscoverUccs(tables[i], profiles[i], cand.ucc);
    }
  });
  for (const auto& u : uccs) out->uccs += double(u.size());
  autobi::BlockingStats blocking;
  out->blocking = timed("profile.blocking", [&] {
    autobi::BuildBlockingPlan(profiles, ind_options.blocking, &blocking,
                              threads_);
  });
  out->pairs_admitted = double(blocking.column_pairs_admitted);
  out->pairs_total = double(blocking.column_pairs_total);
  std::vector<autobi::Ind> inds;
  out->ind = timed("profile.ind", [&] {
    inds = autobi::DiscoverInds(tables, profiles, uccs, ind_options);
  });
  out->inds = double(inds.size());
  autobi::CandidateSet candidates;
  out->candidates = timed("core.candidates", [&] {
    candidates = autobi::GenerateCandidates(tables, cand);
  });
  out->candidate_count = double(candidates.candidates.size());
  std::vector<double> probabilities;
  out->score = timed("core.local_model.score", [&] {
    probabilities = autobi::ScoreCandidates(
        tables, candidates.profiles, candidates.candidates, *model_,
        /*schema_only=*/false, threads_);
  });
  out->scored = double(probabilities.size());
  autobi::JoinGraph graph;
  out->build = timed("core.graph_builder.build", [&] {
    graph = autobi::BuildJoinGraphFromScores(
        tables.size(), candidates.candidates, probabilities);
  });

  // Stage 4 as the pipeline runs it. Its partition and EMS steps are also
  // timed on their own, outside it; k-MCA-CC is its own timer.
  std::vector<autobi::GraphComponent> components;
  out->partition = timed("core.graph_builder.partition", [&] {
    components = autobi::PartitionJoinGraph(graph);
  });
  autobi::AutoBiResult global;
  global.graph = std::move(graph);
  out->global = timed("core.auto_bi.global_predict", [&] {
    autobi::RunGlobalPredict(options, nullptr, &global);
  });
  out->kmca = global.kmca_cc_seconds;
  out->components = double(global.partition.components);
  out->one_mca_calls = double(global.solver_stats.one_mca_calls);
  out->memo_hits = double(global.solver_stats.memo_hits);
  std::vector<int> recall;
  out->ems = timed("graph.ems", [&] {
    autobi::EmsOptions ems;
    ems.tau = options.tau;
    recall = autobi::SolveEmsGreedy(global.graph, global.backbone_edges, ems);
  });
  End(root);
  if (recall != global.recall_edges) {
    failures_.push_back("SolveEmsGreedy does not reproduce RunGlobalPredict");
  }

  // The replay must reproduce the pipeline's model, or its split is not
  // the pipeline's.
  autobi::AutoBi predictor(model_, options);
  const int whole = Begin("core.auto_bi.predict", parent, request);
  autobi::StatusOr<autobi::AutoBiResult> result =
      predictor.Predict(tables, nullptr);
  End(whole);
  out->auto_bi = spans_[size_t(whole)].Duration();
  if (!result.ok() || !(result->model.joins == global.model.joins)) {
    failures_.push_back("stage replay does not reproduce AutoBi::Predict");
  }
}

void Tracer::Replay(const SessionInput& input, const SessionRecord& record) {
  ++sessions_;
  std::string session;
  std::vector<Table> tables;
  const std::string& appended_name =
      input.names[size_t(input.appended_table)];
  for (const Exchange& ex : record.exchanges) {
    const Request& req = *ex.request;
    const Step step = req.step;
    const int64_t request = next_request_++;
    Span client;
    client.name = std::string("client.") + StepName(step);
    client.start = ex.start;
    client.end = ex.end;
    client.request = request;
    spans_.push_back(client);

    const std::string line = req.Line(session);
    const int root = Begin(std::string("replay.") + StepName(step), -1,
                           request);
    auto timed = [&](const char* name, auto&& fn) {
      const int span = Begin(name, root, request);
      fn();
      End(span);
      return spans_[size_t(span)].Duration();
    };
    UploadSample upload;
    if (step == Step::kUpload || step == Step::kReupload) {
      // HandleLine(upload) = parse + CSV + hash + the engine's own work.
      Json parsed;
      upload.parse = timed("serve.json.parse", [&] {
        parsed = autobi::ParseJson(line).value();
      });
      const std::string& csv = parsed.Find("csv")->AsString();
      const std::string& name = parsed.Find("name")->AsString();
      autobi::CsvOptions csv_options;
      csv_options.max_bytes = mirror_.options().max_csv_bytes;
      Table table;
      upload.read = timed("table.csv.read", [&] {
        table = autobi::ReadCsv(csv, name, csv_options).value();
      });
      upload.hash = timed("profile.sketch.table_hash", [&] {
        volatile uint64_t h = autobi::TableContentHash(table);
        (void)h;
      });
      upload.csv_bytes = double(req.csv_bytes);
      upload.line_bytes = double(line.size());
      auto it = std::find_if(tables.begin(), tables.end(),
                             [&](const Table& t) { return t.name() == name; });
      if (it != tables.end()) {
        *it = std::move(table);
      } else {
        tables.push_back(std::move(table));
      }
    } else if (step == Step::kPredictWarm) {
      tables_hash_ms_.push_back(Ms(timed("profile.sketch.tables_hash", [&] {
        volatile uint64_t h = autobi::TablesContentHash(tables);
        (void)h;
      })));
    } else if (step == Step::kUpdate) {
      for (Table& t : tables) {
        if (t.name() == appended_name) AppendDeltaRows(&t);
      }
    }

    std::string mirrored;
    const double handle = timed("serve.engine.handle_line",
                                [&] { mirrored = mirror_.HandleLine(line); });
    autobi::StatusOr<Json> mirror_response = autobi::ParseJson(mirrored);
    if (!mirror_response.ok()) {
      failures_.push_back("mirror engine returned unparseable JSON");
      End(root);
      break;
    }
    if (step == Step::kCreate) {
      const Json* s = mirror_response->Find("session");
      if (s != nullptr && s->is_string()) session = s->AsString();
    }
    if (step == Step::kCreate || step == Step::kGetModel) {
      small_overhead_us_.push_back((ex.Seconds() - handle) * 1e6);
    }
    if (step == Step::kPublish) publish_ms_.push_back(Ms(handle));
    if (step == Step::kUpload || step == Step::kReupload) {
      upload.client = ex.Seconds();
      upload.handle = handle;
      uploads_.push_back(upload);
    }
    if (IsPredict(step)) {
      if (JoinsOf(*mirror_response) != record.joins[int(step)]) {
        failures_.push_back(std::string("mirror and daemon joins differ at ") +
                            StepName(step));
      }
      const double write = timed("serve.json.write", [&] {
        volatile size_t n = ex.parsed.Write().size();
        (void)n;
      });
      write_ms_.push_back(Ms(write));
      if (step == Step::kPredictCold) {
        ColdPredict cold;
        cold.client = ex.Seconds();
        cold.handle = handle;
        cold.write = write;
        cold.timing_ucc = NumberAt(ex.parsed, {"timing", "ucc_seconds"});
        cold.timing_ind = NumberAt(ex.parsed, {"timing", "ind_seconds"});
        cold.timing_local =
            NumberAt(ex.parsed, {"timing", "local_inference_seconds"});
        cold.timing_global =
            NumberAt(ex.parsed, {"timing", "global_predict_seconds"});
        ReplayPipeline(tables, root, request, &cold);
        cold_.push_back(cold);
      }
      if (step == Step::kPredictDelta) {
        pairs_reused_ += NumberAt(ex.parsed, {"incremental", "pairs_reused"});
        pairs_rescored_ +=
            NumberAt(ex.parsed, {"incremental", "pairs_rescored"});
        tables_reprofiled_.push_back(
            NumberAt(ex.parsed, {"incremental", "tables_reprofiled"}));
      }
    }
    End(root);
  }
}

std::vector<Metric> Tracer::Report(const Json& stats,
                                   double overhead_ratio) const {
  std::vector<Metric> m;
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto median_of = [&](auto member) {
    std::vector<double> v;
    for (const ColdPredict& c : cold_) v.push_back(c.*member);
    return Median(v);
  };
  auto sum_of = [&](auto member) {
    double s = 0;
    for (const ColdPredict& c : cold_) s += c.*member;
    return s;
  };

  UploadSample total;
  std::vector<double> upload_self_ms;
  for (const UploadSample& u : uploads_) {
    total.client += u.client;
    total.handle += u.handle;
    total.parse += u.parse;
    total.read += u.read;
    total.hash += u.hash;
    total.csv_bytes += u.csv_bytes;
    total.line_bytes += u.line_bytes;
    upload_self_ms.push_back(Ms(u.handle - u.parse - u.read - u.hash));
  }
  add("serve.transport.upload_overhead_ms_per_mb",
      MsPerMb(total.client - total.handle, total.csv_bytes), "ms/MB");
  add("serve.transport.request_overhead_us", Median(small_overhead_us_), "us");
  add("serve.json.parse_ms_per_mb", MsPerMb(total.parse, total.line_bytes),
      "ms/MB");
  add("serve.json.write_ms", Median(write_ms_), "ms");
  add("table.csv.read_mb_per_s", MbPerSecond(total.csv_bytes, total.read),
      "MB/s");
  add("profile.sketch.table_hash_ms_per_mb",
      MsPerMb(total.hash, total.csv_bytes), "ms/MB");
  add("profile.sketch.tables_hash_ms", Median(tables_hash_ms_), "ms");
  add("serve.engine.upload_self_ms_p50", Median(upload_self_ms), "ms");
  add("serve.engine.upload_self_ms_max",
      upload_self_ms.empty()
          ? 0.0
          : *std::max_element(upload_self_ms.begin(), upload_self_ms.end()),
      "ms");
  std::vector<double> predict_self_ms;
  for (const ColdPredict& c : cold_) {
    predict_self_ms.push_back(Ms(c.handle - c.auto_bi));
  }
  add("serve.engine.predict_self_ms", Median(predict_self_ms), "ms");

  add("serve.admission.queue_wait_total_s",
      NumberAt(stats, {"admission", "queue_wait_total_seconds"}), "s");
  add("serve.admission.queue_wait_max_s",
      NumberAt(stats, {"admission", "queue_wait_max_seconds"}), "s");
  add("serve.admission.rejected", NumberAt(stats, {"admission", "rejected"}),
      "count");
  const double solve_hits = NumberAt(stats, {"cache", "solve_hits"});
  const double table_hits = NumberAt(stats, {"cache", "table_hits"});
  add("core.predict_cache.solve_hit_rate",
      Ratio(solve_hits,
               solve_hits + NumberAt(stats, {"cache", "solve_misses"})),
      "ratio");
  add("core.predict_cache.table_hit_rate",
      Ratio(table_hits,
               table_hits + NumberAt(stats, {"cache", "table_misses"})),
      "ratio");
  add("core.predict_cache.evictions", NumberAt(stats, {"cache", "evictions"}),
      "count");
  add("core.incremental.pairs_reused_ratio",
      Ratio(pairs_reused_, pairs_reused_ + pairs_rescored_), "ratio");
  add("core.incremental.tables_reprofiled", Median(tables_reprofiled_),
      "count");

  add("profile.column_profile.ms", Ms(median_of(&ColdPredict::profile)), "ms");
  add("profile.ucc.ms", Ms(median_of(&ColdPredict::ucc)), "ms");
  add("profile.ucc.uccs", median_of(&ColdPredict::uccs), "count");
  add("profile.blocking.ms", Ms(median_of(&ColdPredict::blocking)), "ms");
  add("profile.blocking.admitted_ratio",
      Ratio(sum_of(&ColdPredict::pairs_admitted),
               sum_of(&ColdPredict::pairs_total)),
      "ratio");
  add("profile.ind.ms", Ms(median_of(&ColdPredict::ind)), "ms");
  add("profile.ind.inds", median_of(&ColdPredict::inds), "count");
  add("core.candidates.ms", Ms(median_of(&ColdPredict::candidates)), "ms");
  add("core.candidates.count", median_of(&ColdPredict::candidate_count),
      "count");
  add("core.local_model.score_ms", Ms(median_of(&ColdPredict::score)), "ms");
  add("core.local_model.scored", median_of(&ColdPredict::scored), "count");
  add("core.graph_builder.partition_ms",
      Ms(median_of(&ColdPredict::partition)), "ms");
  add("core.graph_builder.components", median_of(&ColdPredict::components),
      "count");
  add("graph.kmca_cc.ms", Ms(median_of(&ColdPredict::kmca)), "ms");
  add("graph.kmca_cc.one_mca_calls", median_of(&ColdPredict::one_mca_calls),
      "count");
  const double calls = sum_of(&ColdPredict::one_mca_calls);
  const double memo = sum_of(&ColdPredict::memo_hits);
  add("graph.kmca_cc.memo_hit_ratio", Ratio(memo, calls + memo), "ratio");
  add("graph.ems.ms", Ms(median_of(&ColdPredict::ems)), "ms");
  add("serve.catalog.publish_ms", Median(publish_ms_), "ms");
  // The daemon runs without a state dir (README.md); the journal is the
  // mirror's.
  const autobi::DurabilityStats journal = mirror_.durability();
  add("serve.journal.commits", double(journal.journal_commits), "count");
  add("serve.journal.snapshots_written", double(journal.snapshots_written),
      "count");
  add("core.auto_bi.predict_ms", Ms(median_of(&ColdPredict::auto_bi)), "ms");
  add("serve.timing.ucc_ms", Ms(median_of(&ColdPredict::timing_ucc)), "ms");
  add("serve.timing.ind_ms", Ms(median_of(&ColdPredict::timing_ind)), "ms");
  add("serve.timing.local_inference_ms",
      Ms(median_of(&ColdPredict::timing_local)), "ms");
  add("serve.timing.global_predict_ms",
      Ms(median_of(&ColdPredict::timing_global)), "ms");

  // Coverage: in-process layer time over client-observed latency. For an
  // upload the layers sum to HandleLine (parse + CSV + hash + engine self);
  // what is left is transport and anything unexplained.
  double cold_explained = 0, cold_client = 0;
  for (const ColdPredict& c : cold_) {
    cold_explained += c.Explained();
    cold_client += c.client;
  }
  add("trace.coverage", Ratio(total.handle + cold_explained,
                                 total.client + cold_client),
      "ratio");
  add("trace.coverage.upload", Ratio(total.handle, total.client), "ratio");
  add("trace.coverage.predict_cold", Ratio(cold_explained, cold_client),
      "ratio");
  add("trace.overhead_ratio", overhead_ratio, "ratio");
  return m;
}

void Tracer::PrintLayerTable(std::FILE* out) const {
  struct Row {
    size_t calls = 0;
    double busy = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.calls;
    r.busy += spans_[i].Duration();
    r.self += SelfSeconds(spans_, i);
  }
  std::fprintf(out, "%-36s %8s %12s %12s\n", "span", "calls", "busy_ms",
               "self_ms");
  for (const auto& [name, r] : rows) {
    std::fprintf(out, "%-36s %8zu %12.3f %12.3f\n", name.c_str(), r.calls,
                 Ms(r.busy), Ms(r.self));
  }
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    Json obj = Json::MakeObject();
    obj.Set("name", Json::MakeString(s.name));
    obj.Set("start", Json::MakeDouble(s.start));
    obj.Set("end", Json::MakeDouble(s.end));
    obj.Set("parent", Json::MakeInt(s.parent));
    obj.Set("request", Json::MakeInt(s.request));
    out << obj.Write() << "\n";
  }
  return bool(out);
}

int64_t Tracer::sessions() const {
  return sessions_;
}

std::vector<std::string> Tracer::failures() const {
  return failures_;
}

}  // namespace e2ebench
