#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/rng.h"
#include "profile/sketch.h"
#include "serve/json.h"
#include "synth/lake.h"
#include "synth/tpch_ddl.h"
#include "table/csv.h"

namespace e2ebench {

using autobi::BiCase;
using autobi::Column;
using autobi::Json;
using autobi::Table;
using autobi::ValueType;

const std::vector<WorkloadSpec>& Workloads() {
  // Why each exists: README.md "Workloads".
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"ingest_tpch", 2, 1, 4},
      {"lake_wide", 3, 1, 8},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t SessionSeed(uint64_t run_seed, int64_t index) {
  return autobi::SplitMix64(autobi::SplitMix64(run_seed) ^
                            (uint64_t(index) + 1) * 0x9E3779B97F4A7C15ULL);
}

const char* StepName(Step step) {
  switch (step) {
    case Step::kCreate: return "create_session";
    case Step::kUpload: return "upload";
    case Step::kPredictCold: return "predict_cold";
    case Step::kPredictWarm: return "predict_warm";
    case Step::kReupload: return "reupload";
    case Step::kPredictReupload: return "predict_reupload";
    case Step::kPredictRebuild: return "predict_rebuild";
    case Step::kUpdate: return "update_table";
    case Step::kPredictDelta: return "predict_delta";
    case Step::kPublish: return "publish";
    case Step::kGetModel: return "get_model";
    case Step::kClose: return "close_session";
  }
  return "?";
}

bool IsPredict(Step step) {
  return step == Step::kPredictCold || step == Step::kPredictWarm ||
         step == Step::kPredictReupload || step == Step::kPredictRebuild ||
         step == Step::kPredictDelta;
}

std::string Request::Line(std::string_view session) const {
  std::string line = head;
  if (needs_session) line += session;
  line += tail;
  return line;
}

namespace {

constexpr char kSessionMark[] = "@SESSION@";

Table ParseCsvOrDie(const std::string& csv, const std::string& name) {
  autobi::StatusOr<Table> t = autobi::ReadCsv(csv, name);
  if (!t.ok()) {
    std::fprintf(stderr,
                 "e2ebench: generated CSV for '%s' does not parse: %s\n",
                 name.c_str(), t.status().ToString().c_str());
    std::exit(4);
  }
  return std::move(t).value();
}

BiCase Generate(const WorkloadSpec& spec, uint64_t seed) {
  autobi::Rng rng(seed);
  const std::string name = spec.name;
  if (name == "ingest_tpch") {
    autobi::StatusOr<BiCase> c = autobi::GenerateTpchFromDdl(kTpchScale, rng);
    if (!c.ok()) {
      std::fprintf(stderr, "e2ebench: %s\n", c.status().ToString().c_str());
      std::exit(4);
    }
    return std::move(c).value();
  }
  autobi::LakeGenOptions options;  // lake_wide
  options.num_tables = kLakeTables;
  return autobi::GenerateLake(options, rng);
}

// Upload by name replaces, so a session's tables need distinct names.
void MakeNamesUnique(BiCase* c) {
  std::set<std::string> seen;
  for (size_t i = 0; i < c->tables.size(); ++i) {
    Table& t = c->tables[i];
    if (!seen.insert(t.name()).second) {
      t.set_name(t.name() + "_" + std::to_string(i));
      seen.insert(t.name());
    }
  }
}

// The re-uploaded table: the smallest non-empty table, with every third
// cell of its last typed column changed (at least one cell).
int PickReplaced(const std::vector<Table>& tables) {
  int best = -1;
  for (int i = 0; i < int(tables.size()); ++i) {
    if (tables[i].num_rows() == 0) continue;
    if (best < 0 || tables[i].num_rows() < tables[best].num_rows()) best = i;
  }
  return best;
}

Table ChangedCopy(const Table& table) {
  int target = -1;
  for (int c = int(table.num_columns()) - 1; c >= 0; --c) {
    if (table.column(size_t(c)).type() != ValueType::kNull) {
      target = c;
      break;
    }
  }
  Table out(table.name());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& src = table.column(c);
    Column& dst = out.AddColumn(src.name(), src.type());
    bool changed_any = false;
    for (size_t r = 0; r < src.size(); ++r) {
      if (src.IsNull(r)) {
        dst.AppendNull();
        continue;
      }
      const bool change = int(c) == target && (r % 3 == 0 || !changed_any);
      changed_any = changed_any || change;
      switch (src.type()) {
        case ValueType::kInt:
          dst.AppendInt(src.Int(r) + (change ? 7 : 0));
          break;
        case ValueType::kDouble:
          dst.AppendDouble(src.Double(r) + (change ? 0.25 : 0.0));
          break;
        default:
          dst.AppendString(change ? src.Str(r) + "~" : src.Str(r));
          break;
      }
    }
  }
  return out;
}

int PickAppended(const std::vector<Table>& tables) {
  int best = 0;
  for (int i = 1; i < int(tables.size()); ++i) {
    if (tables[i].num_rows() > tables[best].num_rows()) best = i;
  }
  return best;
}

std::vector<size_t> DeltaRows(size_t rows) {
  std::vector<size_t> out(std::max<size_t>(1, rows / 50));
  for (size_t i = 0; i < out.size(); ++i) out[i] = (i * 7919) % rows;
  return out;
}

Json CellJson(const Column& col, size_t r) {
  if (col.IsNull(r)) return Json();
  switch (col.type()) {
    case ValueType::kInt: return Json::MakeInt(col.Int(r));
    case ValueType::kDouble: return Json::MakeDouble(col.Double(r));
    default: return Json::MakeString(col.Str(r));
  }
}

Json DeltaColumnsJson(const Table& table) {
  const std::vector<size_t> rows = DeltaRows(table.num_rows());
  Json columns = Json::MakeArray();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    Json values = Json::MakeArray();
    for (size_t r : rows) values.Append(CellJson(col, r));
    Json obj = Json::MakeObject();
    obj.Set("name", Json::MakeString(col.name()));
    obj.Set("values", std::move(values));
    columns.Append(std::move(obj));
  }
  return columns;
}

Request MakeRequest(Step step, int id, const char* verb,
                    std::vector<std::pair<std::string, Json>> fields,
                    bool needs_session = true) {
  Json obj = Json::MakeObject();
  obj.Set("verb", Json::MakeString(verb));
  obj.Set("id", Json::MakeInt(id));
  if (needs_session) obj.Set("session", Json::MakeString(kSessionMark));
  for (auto& [k, v] : fields) obj.Set(k, std::move(v));
  const std::string line = obj.Write();
  Request req;
  req.step = step;
  req.needs_session = needs_session;
  if (needs_session) {
    const size_t at = line.find(kSessionMark);
    req.head = line.substr(0, at);
    req.tail = line.substr(at + sizeof(kSessionMark) - 1);
  } else {
    req.head = line;
  }
  return req;
}

Request Upload(Step step, int id, const std::string& name,
               const std::string& csv) {
  Request req = MakeRequest(step, id, "upload_table",
                            {{"name", Json::MakeString(name)},
                             {"csv", Json::MakeString(csv)}});
  req.csv_bytes = csv.size();
  return req;
}

}  // namespace

void AppendDeltaRows(Table* table) {
  const std::vector<size_t> rows = DeltaRows(table->num_rows());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    Column& col = table->column(c);
    for (size_t r : rows) {
      if (col.IsNull(r)) {
        col.AppendNull();
        continue;
      }
      switch (col.type()) {
        case ValueType::kInt: col.AppendInt(col.Int(r)); break;
        case ValueType::kDouble: col.AppendDouble(col.Double(r)); break;
        default: col.AppendString(col.Str(r)); break;
      }
    }
  }
}

namespace {

// The request lines of `in`'s script, from its names and payloads.
void BuildScript(SessionInput* in) {
  const std::vector<std::string>& names = in->names;
  int id = 0;
  std::vector<Request>& s = in->script;
  s.clear();
  s.push_back(MakeRequest(Step::kCreate, id++, "create_session",
                          {{"tenant", Json::MakeString("bench")}},
                          /*needs_session=*/false));
  for (size_t i = 0; i < names.size(); ++i) {
    s.push_back(Upload(Step::kUpload, id++, names[i], in->csv[i]));
  }
  s.push_back(MakeRequest(Step::kPredictCold, id++, "predict", {}));
  // Three warm predicts: each is cheap, and more samples steady the
  // median of the runs with few sessions.
  for (int i = 0; i < 3; ++i) {
    s.push_back(MakeRequest(Step::kPredictWarm, id++, "predict", {}));
  }
  s.push_back(Upload(Step::kReupload, id++,
                     names[size_t(in->replaced_table)], in->replaced_csv));
  s.push_back(MakeRequest(Step::kPredictReupload, id++, "predict", {}));
  s.push_back(MakeRequest(Step::kPredictRebuild, id++, "predict",
                          {{"incremental", Json::MakeBool(true)}}));
  s.push_back(MakeRequest(
      Step::kUpdate, id++, "update_table",
      {{"name", Json::MakeString(names[size_t(in->appended_table)])},
       {"columns", in->delta}}));
  s.push_back(MakeRequest(Step::kPredictDelta, id++, "predict",
                          {{"incremental", Json::MakeBool(true)}}));
  s.push_back(MakeRequest(
      Step::kPublish, id++, "publish_model",
      {{"label", Json::MakeString("session-" + std::to_string(in->index))}}));
  s.push_back(MakeRequest(Step::kGetModel, id++, "get_model", {}));
  s.push_back(MakeRequest(Step::kClose, id++, "close_session", {}));
}

}  // namespace

SessionInput MakeSession(const WorkloadSpec& spec, uint64_t run_seed,
                         int64_t index, bool parse_all) {
  SessionInput in;
  in.index = index;
  auto bi_case = std::make_shared<BiCase>(
      Generate(spec, SessionSeed(run_seed, index)));
  MakeNamesUnique(bi_case.get());
  const std::vector<Table>& tables = bi_case->tables;
  for (const Table& t : tables) {
    in.names.push_back(t.name());
    in.csv.push_back(autobi::WriteCsv(t));
  }
  in.replaced_table = PickReplaced(tables);
  in.appended_table = PickAppended(tables);
  in.replaced_csv =
      autobi::WriteCsv(ChangedCopy(tables[size_t(in.replaced_table)]));

  // The daemon appends to the table it parsed, so the delta rows are taken
  // from the parsed form, after the replacement when it is the same table.
  auto parse = [&](size_t i) {
    return ParseCsvOrDie(
        int(i) == in.replaced_table ? in.replaced_csv : in.csv[i],
        in.names[i]);
  };
  if (parse_all) {
    for (size_t i = 0; i < tables.size(); ++i) {
      in.parsed_replaced.push_back(parse(i));
    }
    in.parsed_appended = in.parsed_replaced;
    AppendDeltaRows(&in.parsed_appended[size_t(in.appended_table)]);
  }
  in.delta = DeltaColumnsJson(
      parse_all ? in.parsed_replaced[size_t(in.appended_table)]
                : parse(size_t(in.appended_table)));
  in.bi_case = std::move(bi_case);
  BuildScript(&in);
  return in;
}

}  // namespace e2ebench
