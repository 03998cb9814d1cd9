// e2e_bench: the request-path benchmark of autobi_serve (README.md).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --serve PATH/autobi_serve --model MODEL --work_dir DIR
//             [--spans FILE]
//   e2e_bench --train_model MODEL
//
// Boots the daemon (forty times, for set-up time), runs the workload's
// session script as a closed loop from one process for S seconds, checks
// every output, and prints each metric by name and unit followed by one
// JSON result line. --trace 1 also replays each session in-process through
// the layers' public calls and reports per-layer metrics instead.

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arith.h"
#include "core/auto_bi.h"
#include "core/local_model.h"
#include "core/trainer.h"
#include "daemon.h"
#include "eval/metrics.h"
#include "inputs.h"
#include "replay.h"
#include "serve/catalog.h"
#include "serve/json.h"
#include "session.h"
#include "synth/corpus.h"

namespace e2ebench {
namespace {

using autobi::Json;

struct Args {
  std::string workload, serve, model, work_dir, spans, train_model;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atof(v);
    else if (flag == "--trace") a->trace = std::atoi(v);
    else if (flag == "--serve") a->serve = v;
    else if (flag == "--model") a->model = v;
    else if (flag == "--work_dir") a->work_dir = v;
    else if (flag == "--spans") a->spans = v;
    else if (flag == "--train_model") a->train_model = v;
    else return false;
  }
  return !a->train_model.empty() ||
         (!a->workload.empty() && !a->serve.empty() && !a->model.empty() &&
          !a->work_dir.empty() && a->seconds > 0 &&
          (a->trace == 0 || a->trace == 1));
}

[[noreturn]] void Fail(int code, const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  std::exit(code);
}

// A session whose one-table-change predicts are checked after the run.
struct CheckedSession {
  int64_t index = 0;
  std::vector<autobi::Table> parsed_replaced, parsed_appended;
  std::string reupload_joins, rebuild_joins, delta_joins;
};

// One closed-loop phase: the client runs sessions one after another until
// the deadline, finishing the session it started.
struct Phase {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  Clock::time_point origin;
  double deadline = 0;        // Seconds since origin.
  int64_t first_index = 0;
  int64_t min_sessions = 1;   // Started even past the deadline.
  Tracer* tracer = nullptr;
  // Called after each session, while the daemon is idle.
  std::function<void()> between_sessions;
  // Read the daemon's peak RSS when the spec's rss_sessions-th session
  // completes, so the figure covers the same sessions however fast the run
  // is.
  const Daemon* daemon = nullptr;
  double peak_rss_mb = 0;

  double generate_seconds = 0;  // Client-side input generation.
  int64_t next = 0;             // Sessions started.
  int64_t completed = 0;
  bool broken = false;
  std::vector<SessionRecord> records;
  std::vector<CheckedSession> checked;
  std::vector<autobi::EdgeMetrics> eval;
};

// Resolves the daemon's named joins against the generated tables.
bool ToModel(const std::string& joins_json,
             const std::vector<autobi::Table>& tables, autobi::BiModel* model) {
  autobi::StatusOr<Json> joins = autobi::ParseJson(joins_json);
  if (!joins.ok() || !joins->is_array()) return false;
  auto resolve = [&](const std::string& text, autobi::ColumnRef* ref) {
    const size_t open = text.rfind('(');
    if (open == std::string::npos || text.back() != ')') return false;
    const std::string table = text.substr(0, open);
    ref->table = -1;
    for (size_t t = 0; t < tables.size(); ++t) {
      if (tables[t].name() == table) ref->table = int(t);
    }
    if (ref->table < 0) return false;
    ref->columns.clear();
    std::string cols = text.substr(open + 1, text.size() - open - 2);
    size_t start = 0;
    while (start <= cols.size()) {
      size_t comma = cols.find(',', start);
      if (comma == std::string::npos) comma = cols.size();
      const int c = tables[size_t(ref->table)].ColumnIndex(
          cols.substr(start, comma - start));
      if (c < 0) return false;
      ref->columns.push_back(c);
      start = comma + 1;
    }
    return true;
  };
  for (size_t i = 0; i < joins->size(); ++i) {
    const Json& j = joins->at(i);
    autobi::Join join;
    if (!j.is_object() || j.Find("from") == nullptr ||
        j.Find("to") == nullptr || j.Find("kind") == nullptr ||
        !resolve(j.Find("from")->AsString(), &join.from) ||
        !resolve(j.Find("to")->AsString(), &join.to)) {
      return false;
    }
    join.kind = j.Find("kind")->AsString() == "1:1"
                    ? autobi::JoinKind::kOneToOne
                    : autobi::JoinKind::kNToOne;
    model->joins.push_back(join);
  }
  return true;
}

void RunPhase(Daemon& daemon, Phase* ph) {
  const WorkloadSpec& spec = *ph->spec;
  while (!ph->broken) {
    const int64_t index = ph->first_index + ph->next++;
    if (index - ph->first_index >= ph->min_sessions &&
        Since(ph->origin) >= ph->deadline) {
      break;
    }
    const bool checked = index < spec.checked_sessions;
    // Generated between sessions, while the daemon is idle.
    const double gen_start = Since(ph->origin);
    const SessionInput input = MakeSession(spec, ph->seed, index, checked);
    ph->generate_seconds += Since(ph->origin) - gen_start;
    SessionRecord rec = RunSession(daemon.control(), input, ph->origin);
    DecodeSession(&rec);
    if (rec.transport_failed) ph->broken = true;
    if (rec.completed && ph->daemon != nullptr &&
        ++ph->completed == spec.rss_sessions) {
      ph->peak_rss_mb = ph->daemon->PeakRssMb();
    }
    // The daemon is idle while the session is replayed in-process.
    if (rec.completed && ph->tracer != nullptr) {
      ph->tracer->Replay(input, rec);
    }
    if (index < spec.eval_sessions && rec.completed) {
      autobi::BiModel predicted;
      if (ToModel(rec.joins[int(Step::kPredictCold)], input.bi_case->tables,
                  &predicted)) {
        ph->eval.push_back(autobi::EvaluateCase(*input.bi_case, predicted));
      } else {
        rec.check_failures.push_back("cold joins name unknown tables/columns");
      }
    }
    if (checked && rec.completed) {
      CheckedSession c;
      c.index = index;
      c.parsed_replaced = input.parsed_replaced;
      c.parsed_appended = input.parsed_appended;
      c.reupload_joins = rec.joins[int(Step::kPredictReupload)];
      c.rebuild_joins = rec.joins[int(Step::kPredictRebuild)];
      c.delta_joins = rec.joins[int(Step::kPredictDelta)];
      ph->checked.push_back(std::move(c));
    }
    for (Exchange& ex : rec.exchanges) {
      ex.request = nullptr;  // `input` does not outlive this iteration.
      ex.response.clear();
      ex.parsed = Json();
    }
    ph->records.push_back(std::move(rec));
    if (ph->between_sessions) ph->between_sessions();
  }
}

std::string ReferenceJoins(const autobi::LocalModel& model,
                           const std::vector<autobi::Table>& tables) {
  autobi::AutoBi predictor(&model);
  autobi::StatusOr<autobi::AutoBiResult> result =
      predictor.Predict(tables, nullptr);
  if (!result.ok()) return "<" + result.status().ToString() + ">";
  Json arr = Json::MakeArray();
  for (const autobi::NamedJoin& j : autobi::NameJoins(tables, result->model)) {
    Json obj = Json::MakeObject();
    obj.Set("from", Json::MakeString(j.from.ToString()));
    obj.Set("to", Json::MakeString(j.to.ToString()));
    obj.Set("kind", Json::MakeString(j.kind == autobi::JoinKind::kOneToOne
                                         ? "1:1"
                                         : "N:1"));
    arr.Append(std::move(obj));
  }
  return arr.Write();
}

struct Tally {
  int64_t attempted = 0, failed = 0;
  std::map<Step, std::vector<double>> seconds;  // ok exchanges by step
  double upload_bytes = 0, upload_seconds = 0;
  std::vector<double> time_to_model;
  int64_t completed = 0;
  std::vector<std::pair<double, double>> session_spans;
  int64_t warm_ok = 0;
};

void Count(const std::vector<SessionRecord>& records, Tally* t) {
  for (const SessionRecord& rec : records) {
    for (const Exchange& ex : rec.exchanges) {
      ++t->attempted;
      if (!ex.ok) {
        ++t->failed;
        continue;
      }
      t->seconds[ex.step].push_back(ex.Seconds());
      if (ex.step == Step::kUpload || ex.step == Step::kReupload) {
        t->upload_bytes += double(ex.csv_bytes);
        t->upload_seconds += ex.Seconds();
      }
      if (ex.step == Step::kPredictWarm) ++t->warm_ok;
      if (ex.step == Step::kPredictCold) {
        t->time_to_model.push_back(rec.time_to_model);
      }
    }
    if (rec.completed) {
      ++t->completed;
      t->session_spans.emplace_back(rec.start, rec.end);
    }
  }
}

void PrintMetric(const Metric& m, size_t samples) {
  std::printf("metric %-44s %14.6f %-6s n=%zu\n", m.name.c_str(), m.value,
              m.unit.c_str(), samples);
}

std::string ResultLine(bool correct, const Tally& t,
                       const std::vector<Metric>& metrics) {
  Json metric_obj = Json::MakeObject();
  for (const Metric& m : metrics) {
    Json v = Json::MakeObject();
    v.Set("value", Json::MakeDouble(m.value));
    v.Set("unit", Json::MakeString(m.unit));
    metric_obj.Set(m.name, std::move(v));
  }
  Json out = Json::MakeObject();
  out.Set("correct", Json::MakeBool(correct));
  out.Set("attempted", Json::MakeInt(std::max<int64_t>(1, t.attempted)));
  out.Set("failed", Json::MakeInt(t.failed));
  out.Set("metrics", std::move(metric_obj));
  return out.Write();
}

int Train(const std::string& path) {
  autobi::CorpusOptions corpus;  // The daemon's start-up training set.
  autobi::LocalModel model =
      autobi::TrainLocalModel(autobi::BuildTrainingCorpus(corpus));
  if (!model.SaveToFile(path)) Fail(1, "cannot write model to " + path);
  return 0;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Fail(2, "unknown workload '" + args.workload + "'");
  autobi::LocalModel model;
  if (!model.LoadFromFile(args.model)) Fail(1, "cannot load " + args.model);
  namespace fs = std::filesystem;
  fs::create_directories(args.work_dir);
  DaemonOptions dopt;
  dopt.binary = args.serve;
  dopt.model = args.model;
  dopt.log_path = args.work_dir + "/daemon.log";
  dopt.threads = kDaemonThreads;
  dopt.socket_path = args.work_dir + "/serve.sock";

  std::unique_ptr<Tracer> tracer;
  if (args.trace == 1) {
    tracer = std::make_unique<Tracer>(&model, args.work_dir + "/mirror_state",
                                      kDaemonThreads);
    std::string error;
    if (!tracer->Open(&error)) Fail(1, "mirror engine: " + error);
  }

  // Set-up time: the median of 40 boots spread over the run, 10 before the
  // workload, 20 during it and 10 after it. A boot's time drifts with the
  // host's speed, which changes over tens of seconds, so boots spread over
  // the run sample the same host states as the workload's requests. A boot
  // during the workload starts a second daemon on its own socket between
  // sessions, while the served daemon is idle. One more boot first,
  // untimed, warms the page cache with the daemon's binary and model. The
  // last boot before the workload serves it.
  constexpr int kBootsBefore = 10, kBootsDuring = 20, kBootsAfter = 10;
  DaemonOptions probe = dopt;
  probe.socket_path = args.work_dir + "/probe.sock";
  std::vector<double> setup;
  auto boot = [&](const DaemonOptions& options, int timed_boots,
                  bool warm_up) {
    std::unique_ptr<Daemon> d;
    for (int i = warm_up ? -1 : 0; i < timed_boots; ++i) {
      std::string error;
      double seconds = 0;
      if (d != nullptr && !d->Shutdown(&error)) Fail(1, error);
      d = Daemon::Start(options, &seconds, &error);
      if (d == nullptr) Fail(1, "daemon start failed: " + error);
      if (i >= 0) setup.push_back(seconds);
    }
    return d;
  };
  auto boot_and_stop = [&](const DaemonOptions& options, int timed_boots) {
    std::string error;
    if (timed_boots > 0 &&
        !boot(options, timed_boots, /*warm_up=*/false)->Shutdown(&error)) {
      Fail(1, error);
    }
  };
  std::unique_ptr<Daemon> daemon = boot(dopt, kBootsBefore, /*warm_up=*/true);

  const Clock::time_point origin = Clock::now();
  if (tracer != nullptr) tracer->SetOrigin(origin);
  Phase untraced, traced;
  for (Phase* ph : {&untraced, &traced}) {
    ph->spec = spec;
    ph->seed = args.seed;
    ph->origin = origin;
  }
  if (args.trace == 0) {
    untraced.deadline = args.seconds;
    untraced.min_sessions = std::max(
        {spec->eval_sessions, spec->checked_sessions, spec->rss_sessions});
    untraced.daemon = daemon.get();
    // The boots due so far at an even pace over the run.
    int boots_during = 0;
    untraced.between_sessions = [&] {
      const int due = std::min(
          kBootsDuring, int(Since(origin) / args.seconds * kBootsDuring));
      for (; boots_during < due; ++boots_during) boot_and_stop(probe, 1);
    };
    RunPhase(*daemon, &untraced);
    boot_and_stop(probe, kBootsDuring - boots_during);
  } else {
    // A third of the run untraced, the rest replayed: the two medians give
    // the tracing overhead. Same seed, so the same sessions as a timed run.
    untraced.deadline = args.seconds / 3;
    RunPhase(*daemon, &untraced);
    traced.first_index = untraced.first_index + untraced.next;
    traced.deadline = args.seconds;
    traced.tracer = tracer.get();
    RunPhase(*daemon, &traced);
  }

  std::string stats_line;
  const bool stats_io = daemon->control().Call(
      {R"({"verb":"stats","id":"stats"})"}, &stats_line);
  autobi::StatusOr<Json> stats = autobi::ParseJson(stats_line);
  const bool stats_ok = stats_io && stats.ok() &&
                        stats->Find("ok") != nullptr &&
                        stats->Find("ok")->AsBool();
  std::string shutdown_error;
  const bool clean_exit = daemon->Shutdown(&shutdown_error);
  daemon.reset();
  if (args.trace == 0) boot_and_stop(dopt, kBootsAfter);

  Tally all, timed;
  Count(untraced.records, &all);
  Count(traced.records, &all);
  Count(args.trace == 0 ? untraced.records : traced.records, &timed);
  all.attempted += 1;
  if (!stats_ok) all.failed += 1;

  // Output checks.
  std::vector<std::string> failures;
  for (Phase* ph : {&untraced, &traced}) {
    for (const SessionRecord& rec : ph->records) {
      for (const std::string& f : rec.check_failures) {
        failures.push_back("session " + std::to_string(rec.index) + ": " + f);
      }
      if (rec.cold_was_memo_hit && rec.completed) {
        Fail(3, "session " + std::to_string(rec.index) +
                    ": the cold predict was a solve-memo hit; run "
                    "mis-measured");
      }
    }
    for (const CheckedSession& c : ph->checked) {
      const std::string replaced = ReferenceJoins(model, c.parsed_replaced);
      const std::string appended = ReferenceJoins(model, c.parsed_appended);
      if (c.reupload_joins != replaced || c.rebuild_joins != replaced ||
          c.delta_joins != appended) {
        failures.push_back("session " + std::to_string(c.index) +
                           ": a one-table-change predict differs from a cold "
                           "in-process predict of the same tables");
      }
    }
  }
  if (stats_ok) {
    // Only warm predicts may hit the solve memo: a cold predict that did
    // measured the memo, not the pipeline.
    const Json* cache = stats->Find("cache");
    const int64_t solve_hits =
        cache != nullptr && cache->Find("solve_hits") != nullptr
            ? cache->Find("solve_hits")->AsInt()
            : -1;
    if (solve_hits != all.warm_ok) {
      Fail(3, "daemon counted " + std::to_string(solve_hits) +
                  " solve-memo hits for " + std::to_string(all.warm_ok) +
                  " warm predicts; run mis-measured");
    }
  }
  if (!clean_exit) failures.push_back(shutdown_error);
  if (tracer != nullptr) {
    for (const std::string& f : tracer->failures()) failures.push_back(f);
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "e2ebench: check failed: %s\n", f.c_str());
  }

  // Each metric with its sample count for the human-readable report.
  std::vector<std::pair<Metric, size_t>> report;
  bool missing = false;
  if (args.trace == 0) {
    auto step_ms = [&](Step step, double pct) -> std::pair<Metric, size_t> {
      const std::vector<double>& v = timed.seconds[step];
      return {{std::string(StepName(step)) + "_ms_p" +
                   std::to_string(int(pct)),
               Percentile(v, pct) * 1e3, "ms"},
              v.size()};
    };
    double precision = 0, recall = 0;
    for (const auto& e : untraced.eval) {
      precision += e.precision;
      recall += e.recall;
    }
    const size_t n_eval = untraced.eval.size();
    const double busy = CoveredSeconds(-1e300, 1e300, timed.session_spans);
    const size_t sessions = size_t(timed.completed);
    report = {
        {{"setup_s", Median(setup), "s"}, setup.size()},
        {{"time_to_model_s_p50", Median(timed.time_to_model), "s"},
         timed.time_to_model.size()},
        {{"ingest_mb_per_s",
          MbPerSecond(timed.upload_bytes, timed.upload_seconds), "MB/s"},
         timed.seconds[Step::kUpload].size() +
             timed.seconds[Step::kReupload].size()},
        step_ms(Step::kPredictCold, 50),
        step_ms(Step::kPredictWarm, 50),
        step_ms(Step::kPredictDelta, 50),
        step_ms(Step::kPublish, 50),
        {{"sessions_per_s", busy > 0 ? double(sessions) / busy : 0.0, "1/s"},
         sessions},
        {{"edge_precision", precision / double(std::max<size_t>(1, n_eval)),
          "ratio"},
         n_eval},
        {{"edge_recall", recall / double(std::max<size_t>(1, n_eval)),
          "ratio"},
         n_eval},
        {{"peak_rss_mb", untraced.peak_rss_mb, "MiB"},
         size_t(spec->rss_sessions)},
    };
    missing = sessions == 0 || untraced.peak_rss_mb <= 0 ||
              int64_t(n_eval) < spec->eval_sessions;
    std::printf("workload %s seed %llu: %zu sessions completed, %lld "
                "requests, %lld failed\n",
                spec->name, static_cast<unsigned long long>(args.seed),
                sessions, static_cast<long long>(all.attempted),
                static_cast<long long>(all.failed));
    for (const auto& [m, n] : report) PrintMetric(m, n);
    // Not in BENCHMARK.json: the other steps' medians, and tail
    // percentiles where at least ten samples lie beyond them.
    for (int pct : {90, 99}) {
      if (SupportsPercentile(timed.time_to_model.size(), pct)) {
        PrintMetric({"time_to_model_s_p" + std::to_string(pct),
                     Percentile(timed.time_to_model, pct), "s"},
                    timed.time_to_model.size());
      }
    }
    for (int step = 0; step <= int(Step::kClose); ++step) {
      const size_t n = timed.seconds[Step(step)].size();
      for (int pct : {50, 90, 99}) {
        if (pct == 50 ? n > 0 : SupportsPercentile(n, pct)) {
          const auto [m, samples] = step_ms(Step(step), pct);
          const bool in_json = std::any_of(
              report.begin(), report.end(),
              [&](const auto& r) { return r.first.name == m.name; });
          if (!in_json) PrintMetric(m, samples);
        }
      }
    }
    const auto during = setup.begin() + kBootsBefore;
    const auto after = during + kBootsDuring;
    PrintMetric({"setup_s_before", Median({setup.begin(), during}), "s"},
                kBootsBefore);
    PrintMetric({"setup_s_during", Median({during, after}), "s"},
                kBootsDuring);
    PrintMetric({"setup_s_after", Median({after, setup.end()}), "s"},
                kBootsAfter);
    PrintMetric({"client_generate_s", untraced.generate_seconds, "s"},
                sessions);
    PrintMetric({"error_rate",
                 Ratio(double(all.failed), double(all.attempted)), "ratio"},
                size_t(all.attempted));
  } else {
    Tally before;
    Count(untraced.records, &before);
    const double base = Median(before.time_to_model);
    const double overhead =
        base > 0 ? Median(timed.time_to_model) / base - 1.0 : 0.0;
    auto spread = [](const std::vector<double>& v) {
      const double m = Median(v);
      return m > 0 ? (Percentile(v, 75) - Percentile(v, 25)) / m : 0.0;
    };
    for (Metric& m :
         tracer->Report(stats_ok ? *stats : Json::MakeObject(), overhead)) {
      report.emplace_back(std::move(m), size_t(tracer->sessions()));
    }
    missing = tracer->sessions() == 0 || before.completed == 0;
    std::printf("workload %s seed %llu (traced): %lld untraced + %lld traced "
                "sessions (%lld replayed), %lld requests, %lld failed\n",
                spec->name, static_cast<unsigned long long>(args.seed),
                static_cast<long long>(before.completed),
                static_cast<long long>(timed.completed),
                static_cast<long long>(tracer->sessions()),
                static_cast<long long>(all.attempted),
                static_cast<long long>(all.failed));
    // Every replay runs outside the timed requests, so the two medians
    // differ by session-to-session variation, not by tracing cost.
    std::printf("trace.overhead_ratio compares %zu traced with %zu untraced "
                "time_to_model samples; IQR/median within each: %.3f traced, "
                "%.3f untraced\n",
                timed.time_to_model.size(), before.time_to_model.size(),
                spread(timed.time_to_model), spread(before.time_to_model));
    tracer->PrintLayerTable(stdout);
    for (const auto& [m, n] : report) PrintMetric(m, n);
    if (!args.spans.empty() && !tracer->WriteSpans(args.spans)) {
      failures.push_back("cannot write spans to " + args.spans);
    }
  }
  if (missing) failures.push_back("too few completed sessions to report");
  std::vector<Metric> metrics;
  for (const auto& [m, n] : report) metrics.push_back(m);
  std::printf("%s\n", ResultLine(failures.empty(), all, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve BIN --model FILE --work_dir DIR "
                 "[--spans FILE]\n       e2e_bench --train_model FILE\n");
    return 2;
  }
  if (!args.train_model.empty()) return e2ebench::Train(args.train_model);
  return e2ebench::Run(args);
}
