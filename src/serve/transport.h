#ifndef AUTOBI_SERVE_TRANSPORT_H_
#define AUTOBI_SERVE_TRANSPORT_H_

#include <string>

#include "common/status.h"
#include "serve/engine.h"

namespace autobi {

// Newline-delimited JSON transports for ServeEngine (POSIX only, no
// dependencies). Both run until EOF or until the engine accepts a
// `shutdown` request. Framing: one request per input line, one response
// per output line; blank lines are ignored. A line longer than
// 6 * ServeOptions::max_csv_bytes + 1 MiB (worst-case JSON escaping of a
// capped CSV upload, plus the envelope) is never buffered whole: it gets
// one RESOURCE_EXHAUSTED error response as soon as it crosses that bound,
// its remaining bytes are dropped up to its newline, and serving continues.

// Serves over stdin/stdout — the mode `autobi_serve --stdio` runs in, and
// the easiest way to drive the daemon from a shell pipeline.
Status RunStdioServer(ServeEngine* engine);

// Binds (and, on exit, unlinks) a unix-domain socket at `path` and serves
// each accepted connection on its own thread. Concurrency across
// connections is bounded by the engine's admission gate, not the transport.
// Shutdown is immediate: an accepted `shutdown` request wakes the accept
// loop and every idle connection through a self-pipe (no polling interval),
// and the engine flushes its durable state before the shutdown response is
// written.
Status RunUnixSocketServer(ServeEngine* engine, const std::string& path);

}  // namespace autobi

#endif  // AUTOBI_SERVE_TRANSPORT_H_
