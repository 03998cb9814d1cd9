#include "session.h"

#include <string_view>

namespace e2ebench {

using autobi::Json;

double Since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

namespace {

// Cheap on-the-clock success test: responses begin {"id":<id>,"ok":...}.
bool LooksOk(const std::string& response) {
  return response.find("\"ok\":true") < 96;
}

std::string SessionIdOf(const std::string& create_response) {
  autobi::StatusOr<Json> parsed = autobi::ParseJson(create_response);
  if (!parsed.ok()) return "";
  const Json* session = parsed->Find("session");
  return session != nullptr && session->is_string() ? session->AsString()
                                                    : "";
}

}  // namespace

std::string JoinsOf(const Json& predict_response) {
  const Json* joins = predict_response.Find("joins");
  return joins != nullptr ? joins->Write() : std::string();
}

SessionRecord RunSession(Connection& conn, const SessionInput& input,
                         Clock::time_point origin) {
  SessionRecord rec;
  rec.index = input.index;
  rec.exchanges.reserve(input.script.size() + 1);
  rec.start = Since(origin);
  std::string session;
  bool failed = false;
  for (const Request& req : input.script) {
    Exchange ex;
    ex.request = &req;
    ex.step = req.step;
    ex.csv_bytes = req.csv_bytes;
    ex.start = Since(origin);
    ex.io_ok = conn.Call({req.head, req.needs_session ? session : "",
                          req.tail},
                         &ex.response);
    ex.end = Since(origin);
    if (ex.io_ok && req.step == Step::kCreate) {
      session = SessionIdOf(ex.response);
    }
    if (req.step == Step::kPredictCold && ex.io_ok) {
      rec.time_to_model = ex.end - rec.start;
    }
    failed = !ex.io_ok || !LooksOk(ex.response) ||
             (req.step == Step::kCreate && session.empty());
    rec.transport_failed = !ex.io_ok;
    rec.exchanges.push_back(std::move(ex));
    if (failed) break;
  }
  if (failed && !rec.transport_failed && !session.empty() &&
      rec.exchanges.back().request->step != Step::kClose) {
    // Free the daemon's session slot; counted like any other request.
    Exchange ex;
    ex.request = &input.script.back();
    ex.step = Step::kClose;
    ex.start = Since(origin);
    ex.io_ok = conn.Call({ex.request->head, session, ex.request->tail},
                         &ex.response);
    ex.end = Since(origin);
    rec.transport_failed = !ex.io_ok;
    rec.exchanges.push_back(std::move(ex));
  }
  rec.end = Since(origin);
  rec.completed = !failed;
  return rec;
}

void DecodeSession(SessionRecord* rec) {
  int id = 0;
  for (Exchange& ex : rec->exchanges) {
    const int expected_id = id++;
    if (!ex.io_ok) continue;
    autobi::StatusOr<Json> parsed = autobi::ParseJson(ex.response);
    if (!parsed.ok()) {
      rec->check_failures.push_back(std::string("unparseable response to ") +
                                    StepName(ex.request->step));
      continue;
    }
    ex.parsed = std::move(parsed).value();
    const Json* ok = ex.parsed.Find("ok");
    const Json* rid = ex.parsed.Find("id");
    ex.ok = ok != nullptr && ok->is_bool() && ok->AsBool() &&
            rid != nullptr && rid->is_number();
    if (ex.ok && ex.request->step != Step::kClose &&
        rid->AsInt() != expected_id) {
      ex.ok = false;
      rec->check_failures.push_back("response id mismatch");
    }
    const Step step = ex.request->step;
    if (!ex.ok || !IsPredict(step)) continue;
    const Json* degraded = ex.parsed.Find("degraded");
    if (degraded == nullptr || !degraded->is_bool() || degraded->AsBool()) {
      ex.ok = false;
      rec->check_failures.push_back(std::string(StepName(step)) +
                                    " returned a degraded model");
    }
    std::string joins = JoinsOf(ex.parsed);
    if (step == Step::kPredictWarm &&
        joins != rec->joins[int(Step::kPredictCold)]) {
      rec->check_failures.push_back("warm joins differ from cold joins");
    }
    rec->joins[int(step)] = std::move(joins);
    if (step == Step::kPredictCold) {
      const Json* timing = ex.parsed.Find("timing");
      const Json* total =
          timing != nullptr ? timing->Find("total_seconds") : nullptr;
      rec->cold_was_memo_hit =
          total == nullptr || !total->is_number() || total->AsDouble() <= 0.0;
    }
  }
  for (const Exchange& ex : rec->exchanges) {
    if (!ex.ok) rec->completed = false;
  }
}

}  // namespace e2ebench
