// Runs one session script against the daemon and decodes what came back.
#ifndef E2EBENCH_SESSION_H_
#define E2EBENCH_SESSION_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "daemon.h"
#include "inputs.h"
#include "serve/json.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

// Seconds from `origin` to now.
double Since(Clock::time_point origin);

// One request and its response, timed by the client: `start` just before
// the first byte is written, `end` once the response line is complete.
struct Exchange {
  // Valid while the session's SessionInput lives (decode and replay);
  // `step` and `csv_bytes` outlive it.
  const Request* request = nullptr;
  Step step = Step::kCreate;
  size_t csv_bytes = 0;
  double start = 0.0;
  double end = 0.0;
  bool io_ok = false;   // A complete response line arrived.
  bool ok = false;      // ... and it says "ok": true, echoing our id.
  std::string response;
  autobi::Json parsed;  // Decoded after the session, off the clock.
  double Seconds() const { return end - start; }
};

struct SessionRecord {
  int64_t index = -1;
  double start = 0.0;
  double end = 0.0;
  bool completed = false;      // Every step answered ok.
  bool transport_failed = false;
  // The cold predict reported all-zero stage timings: it was served from
  // the solve memo, so it was not cold.
  bool cold_was_memo_hit = false;
  double time_to_model = -1.0;
  std::vector<Exchange> exchanges;
  // Serialized "joins" of each predict step, keyed by Step.
  std::string joins[int(Step::kClose) + 1];
  // Output-check failures found while decoding (warm != cold, degraded
  // results, malformed responses).
  std::vector<std::string> check_failures;
};

// Sends `input.script` over `conn`. Between requests the client only
// splices the session id; responses are decoded afterwards by
// DecodeSession. On a failed step the session is closed and the script
// abandoned.
SessionRecord RunSession(Connection& conn, const SessionInput& input,
                         Clock::time_point origin);

// Parses every response, fills joins/check_failures and the per-exchange
// ok flags.
void DecodeSession(SessionRecord* record);

// Serialized join list in the daemon's wire form, for comparisons.
std::string JoinsOf(const autobi::Json& predict_response);

}  // namespace e2ebench

#endif  // E2EBENCH_SESSION_H_
